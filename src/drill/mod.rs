//! The drill library: every seeded robustness drill in the system, one
//! implementation each.
//!
//! A drill is `run(&Config) -> Report`: a pure function of its seed (wall
//! times aside) whose report answers `violations()` — the invariants that
//! did not hold, empty on a pass — beside the numbers it observed, as
//! plain fields. Five drills share this shape:
//!
//! - [`faults`] — a signal's Haar coefficients in a `CoefficientStore` on
//!   a seeded `FaultyDevice`, range-summed against the plain store:
//!   bit-identical when recovered, |error| ≤ bound when degraded.
//! - [`ingest`] — a clean glove session through a seeded faulty wire into
//!   the supervised ingest behind an overrun-proof recorder; a zero-fault
//!   plan must be bit-identical.
//! - [`crash`] — a write log against a `FileDevice` under a seeded
//!   `CrashPlan`, reopened: bit-identical to a committed prefix at or past
//!   the acknowledged frontier.
//! - [`tiers`] — a durable `TieredStore` ingesting under a live compactor
//!   and planner, then checked against a serial in-memory oracle and its
//!   resident-bytes budget.
//! - [`chaos`] — storage faults × sensor faults × query floods composed
//!   under one master seed.
//!
//! Each drill's claim has one owner in the claims index (EXPERIMENTS.md):
//! experiments E25 (`faults`), E26 (`ingest`), E30 (`crash`), E31
//! (`chaos`) and E32 (`tiers`), and the crash-matrix test for the
//! acked-prefix contract (C3). The `aims-cli` drill verbs run a drill
//! under any seed for an operator, and the matrix tests under `tests/`
//! sweep the grids and the seeds ci.sh pins. All of them choose a
//! workload, print and gate; none owns an RNG, percentile, replica or
//! ingest config.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

pub mod chaos;
pub mod crash;
pub mod faults;
pub mod ingest;
pub mod tiers;

/// splitmix64 — the sub-seed derivation. Every injector gets an
/// independent stream from (master seed, salt), so changing the master
/// seed reshuffles every fault schedule at once while two injectors
/// never share a stream.
pub fn sub_seed(master: u64, salt: u64) -> u64 {
    let mut z = master.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded xorshift64 stream for workload generation. The state must be
/// non-zero (callers seed it `seed | 1`).
pub struct Rng(pub u64);

impl Rng {
    /// The next value of the stream.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The `p`-quantile (`0..=1`, lower nearest rank) of `values`, which it
/// sorts; `0.0` when empty.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() - 1) as f64 * p) as usize]
}

/// The drill seed pinned in environment variable `var` (`ci.sh` pins two
/// per drill), or `default`.
pub fn env_seed(var: &str, default: u64) -> u64 {
    std::env::var(var).ok().and_then(|s| s.trim().parse().ok()).unwrap_or(default)
}

/// The directory a durable drill runs in and whether to keep it: the
/// caller's `dir` (kept), or a fresh temp dir unique within the process
/// (removed after the run). Either way it starts empty.
fn scratch_dir(tag: &str, dir: &Option<PathBuf>) -> (PathBuf, bool) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let (path, keep) = match dir {
        Some(d) => (d.clone(), true),
        None => {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let name = format!("aims-{tag}-{}-{n}", std::process::id());
            (std::env::temp_dir().join(name), false)
        }
    };
    std::fs::remove_dir_all(&path).ok();
    (path, keep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_are_decorrelated() {
        let a = sub_seed(4242, 1);
        assert_ne!(a, sub_seed(4242, 2));
        assert_ne!(a, sub_seed(4243, 1));
        assert_eq!(a, sub_seed(4242, 1));
    }

    #[test]
    fn percentile_is_lower_nearest_rank() {
        assert_eq!(percentile(&mut [], 0.99), 0.0);
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(percentile(&mut v, 1.0), 100.0);
    }
}
