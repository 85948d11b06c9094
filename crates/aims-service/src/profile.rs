//! Per-query cost attribution: the [`QueryProfile`] a completed session
//! yields, and the bounded [`SlowQueryLog`] that retains profiles of
//! queries that blew a latency or degradation threshold.
//!
//! The scheduler keeps one on its per-query state and bumps its integer
//! fields in place (no allocation on the untraced path); a copy is handed
//! out only at session end — always for traced queries (it rides back
//! over the wire as a PROFILE frame), and for any query that trips the
//! slow-query thresholds.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One point of a query's error-bound trajectory: the state at the end
/// of one scheduler round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrajectoryPoint {
    /// Scheduler round (1-based, service-global).
    pub round: u32,
    /// Query coefficients consumed by the end of this round.
    pub coefficients_used: u64,
    /// Guaranteed error bound at the end of this round.
    pub error_bound: f64,
}

/// Structured cost attribution for one completed query.
///
/// Block accounting is per consumed plan block, from this query's
/// perspective: each block it consumed was either **read** (this query
/// paid the device read), **shared** (the payload came from the cache
/// or another session's read in the same round), or **degraded** (the
/// read failed and the error bound absorbed the block's energy), so
/// `blocks_read + blocks_shared + degraded_blocks` equals the plan
/// length. `cache_hits`/`cache_misses` count this query's view of the
/// shared-cache lookups for blocks it consumed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryProfile {
    /// Trace id when the query was traced; 0 for untraced (slow-log
    /// only) profiles.
    pub trace_id: u64,
    /// Time spent queued before first admission, in nanoseconds.
    pub queue_wait_ns: u64,
    /// Submission-to-terminal latency in nanoseconds.
    pub latency_ns: u64,
    /// Scheduler rounds this query participated in.
    pub rounds: u32,
    /// Device reads this query paid for.
    pub blocks_read: u64,
    /// Blocks served without charging this query a device read.
    pub blocks_shared: u64,
    /// Shared-cache hits among this query's consumed blocks.
    pub cache_hits: u64,
    /// Shared-cache misses among this query's consumed blocks.
    pub cache_misses: u64,
    /// Transient device failures retried on reads this query paid for.
    pub retries: u64,
    /// Plan blocks that failed permanently (bound widened instead).
    pub degraded_blocks: u64,
    /// Per-round `(round, used, bound)` trajectory. Populated only for
    /// traced queries — untraced queries keep this empty so the hot
    /// path never allocates.
    pub trajectory: Vec<TrajectoryPoint>,
}

impl QueryProfile {
    /// Shared-cache hit ratio over this query's consumed blocks, in
    /// `[0, 1]`; `1.0` when no lookups happened.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// End-to-end latency in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns as f64 / 1e6
    }

    /// Renders the profile as one JSON object (no trailing newline) —
    /// the slow-query log format.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace_id\":{},\"queue_wait_ns\":{},\"latency_ns\":{},\"rounds\":{},\
             \"blocks_read\":{},\"blocks_shared\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"retries\":{},\"degraded_blocks\":{},\"trajectory\":[",
            self.trace_id,
            self.queue_wait_ns,
            self.latency_ns,
            self.rounds,
            self.blocks_read,
            self.blocks_shared,
            self.cache_hits,
            self.cache_misses,
            self.retries,
            self.degraded_blocks,
        );
        for (i, p) in self.trajectory.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let bound = if p.error_bound.is_finite() {
                format!("{}", p.error_bound)
            } else {
                "null".to_string()
            };
            out.push_str(&format!(
                "{{\"round\":{},\"used\":{},\"bound\":{bound}}}",
                p.round, p.coefficients_used
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Why a profile landed in the slow-query log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlowReason {
    /// Degraded (permanently failed) blocks reached the threshold.
    Degraded,
}

impl SlowReason {
    /// Stable lowercase label for logs.
    pub fn as_str(self) -> &'static str {
        match self {
            SlowReason::Degraded => "degraded",
        }
    }
}

/// One slow-query record.
#[derive(Clone, Debug)]
pub struct SlowQueryEntry {
    /// Service-assigned session id.
    pub session_id: u64,
    /// What tripped the threshold.
    pub reason: SlowReason,
    /// The full profile at completion.
    pub profile: QueryProfile,
}

impl SlowQueryEntry {
    /// One JSON line: `{"session":..,"reason":"..","profile":{..}}`.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"session\":{},\"reason\":\"{}\",\"profile\":{}}}",
            self.session_id,
            self.reason.as_str(),
            self.profile.to_json()
        )
    }
}

/// A bounded in-memory log of slow queries (newest kept, oldest
/// dropped), shared behind the service.
#[derive(Debug)]
pub struct SlowQueryLog {
    entries: Mutex<VecDeque<SlowQueryEntry>>,
    capacity: usize,
}

impl SlowQueryLog {
    /// A log retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> SlowQueryLog {
        SlowQueryLog { entries: Mutex::new(VecDeque::new()), capacity: capacity.max(1) }
    }

    /// Appends an entry, evicting the oldest at capacity.
    pub fn push(&self, entry: SlowQueryEntry) {
        let mut entries = self.entries.lock().unwrap();
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
    }

    /// Copies out all retained entries, oldest first.
    pub fn entries(&self) -> Vec<SlowQueryEntry> {
        self.entries.lock().unwrap().iter().cloned().collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing has been logged (or everything scrolled away).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> QueryProfile {
        QueryProfile {
            trace_id: 42,
            queue_wait_ns: 1_000,
            latency_ns: 5_000_000,
            rounds: 3,
            blocks_read: 10,
            blocks_shared: 4,
            cache_hits: 4,
            cache_misses: 10,
            retries: 2,
            degraded_blocks: 1,
            trajectory: vec![
                TrajectoryPoint { round: 1, coefficients_used: 50, error_bound: 9.5 },
                TrajectoryPoint { round: 2, coefficients_used: 120, error_bound: 1.25 },
            ],
        }
    }

    #[test]
    fn hit_ratio_and_json_render() {
        let p = profile();
        assert!((p.cache_hit_ratio() - 4.0 / 14.0).abs() < 1e-12);
        assert_eq!(QueryProfile::default().cache_hit_ratio(), 1.0);
        let json = p.to_json();
        let v = aims_telemetry::json::parse(&json).unwrap();
        assert_eq!(v.num("blocks_read"), Some(10.0));
        assert_eq!(v.num("degraded_blocks"), Some(1.0));
        let traj = v.get("trajectory").unwrap().as_array().unwrap();
        assert_eq!(traj.len(), 2);
        assert_eq!(traj[1].num("bound"), Some(1.25));
    }

    #[test]
    fn slow_log_is_bounded_and_ordered() {
        let log = SlowQueryLog::new(2);
        for i in 0..5u64 {
            log.push(SlowQueryEntry {
                session_id: i,
                reason: SlowReason::Degraded,
                profile: QueryProfile::default(),
            });
        }
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].session_id, 3);
        assert_eq!(entries[1].session_id, 4);
        let line = entries[1].to_json_line();
        let v = aims_telemetry::json::parse(&line).unwrap();
        assert_eq!(v.num("session"), Some(4.0));
        assert_eq!(v.str("reason"), Some("degraded"));
        assert!(v.get("profile").unwrap().get("trajectory").is_some());
    }
}
