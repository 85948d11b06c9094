//! Session-side types: query specs, refinement updates, and the handle a
//! caller polls while the scheduler refines their answer.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use crate::admission::Priority;
use crate::profile::QueryProfile;
use crate::qos::Tier;
use crate::wire::ProgressKind;

/// A range-sum (COUNT-weighted) query plus its scheduling class and
/// optional deadline.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// Inclusive `(lo, hi)` bounds per cube dimension.
    pub ranges: Vec<(usize, usize)>,
    /// Scheduling class.
    pub priority: Priority,
    /// Wall-clock budget from submission; `None` runs to completion.
    pub deadline: Option<Duration>,
    /// Request end-to-end tracing: events land in the flight recorder
    /// and the session's terminal update is preceded by an
    /// [`Update::Profile`]. Off by default — untraced queries pay
    /// nothing.
    pub trace: bool,
}

impl QuerySpec {
    /// An interactive query with no deadline.
    pub fn interactive(ranges: Vec<(usize, usize)>) -> Self {
        QuerySpec { ranges, priority: Priority::Interactive, deadline: None, trace: false }
    }

    /// A batch query with no deadline.
    pub fn batch(ranges: Vec<(usize, usize)>) -> Self {
        QuerySpec { ranges, priority: Priority::Batch, deadline: None, trace: false }
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables request-scoped tracing for this query.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// One monotonically refining estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Refinement {
    /// Scheduler round that produced this update.
    pub round: u32,
    /// Query coefficients whose blocks were consumed (delivered or lost)
    /// so far.
    pub coefficients_used: usize,
    /// Total query coefficients.
    pub total_coefficients: usize,
    /// Running estimate (bit-identical to serial evaluation at `Done`).
    pub estimate: f64,
    /// Guaranteed bound on `|estimate − exact|` (Cauchy–Schwarz over the
    /// plan blocks not delivered, lost ones included if storage degraded).
    pub error_bound: f64,
    /// Degradation tier the session ran at when this update was produced
    /// ([`Tier::Normal`] whenever the service is unloaded).
    pub tier: Tier,
}

impl Refinement {
    /// What a `Cancelled` terminal carries: no answer (the field values a
    /// cancelled session's PROGRESS frame has always had on the wire).
    pub const NONE: Refinement = Refinement {
        round: 0,
        coefficients_used: 0,
        total_coefficients: 0,
        estimate: 0.0,
        error_bound: f64::INFINITY,
        tier: Tier::Normal,
    };

    /// Fraction of query coefficients consumed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        if self.total_coefficients == 0 {
            1.0
        } else {
            self.coefficients_used as f64 / self.total_coefficients as f64
        }
    }
}

/// An event delivered to a session — the same two shapes from the
/// scheduler to an in-process consumer and to the wire (PROGRESS and
/// PROFILE frames).
#[derive(Clone, Debug)]
pub enum Update {
    /// A refinement, classified as the wire classifies it.
    Progress {
        /// `Progress` while more will follow; any other kind ends the
        /// session, and the channel closes after it.
        kind: ProgressKind,
        /// The answer for `Done`; the best so far (finite estimate and
        /// bound, not an error) for `DeadlineExpired` and `Shed`;
        /// [`Refinement::NONE`] for `Cancelled`.
        refinement: Refinement,
    },
    /// Cost attribution for a traced query; arrives immediately before
    /// the terminal update (boxed: the common untraced stream never
    /// carries this weight).
    Profile(Box<QueryProfile>),
}

impl Update {
    /// Whether this update ends its session.
    pub fn is_terminal(&self) -> bool {
        matches!(self, Update::Progress { kind, .. } if kind.is_terminal())
    }
}

/// How a session ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Ran to completion.
    Done(Refinement),
    /// Deadline hit first; carries the best estimate at expiry.
    DeadlineExpired(Refinement),
    /// Shed under overload; carries the best-so-far answer.
    Shed(Refinement),
    /// Cancelled mid-flight.
    Cancelled,
    /// The service dropped the session without a terminal update (its
    /// scheduler is gone).
    Disconnected,
}

/// Result of a bounded wait on a session ([`SessionHandle::next_timeout`]).
#[derive(Clone, Debug)]
pub enum Polled {
    /// An update arrived.
    Update(Update),
    /// The channel closed (after a terminal update, or on shutdown).
    Closed,
    /// Nothing arrived within the timeout.
    TimedOut,
}

/// The two words a session's consumer shares with the scheduler.
#[derive(Debug, Default)]
pub(crate) struct SessionShared {
    /// Cancellation requested — by the consumer, or by the scheduler on
    /// finding the consumer's channel gone.
    pub(crate) cancel: AtomicBool,
    /// Progress updates sent but not yet taken off the channel; the
    /// scheduler stops sending at the outbox cap.
    pub(crate) pending: AtomicUsize,
}

impl SessionShared {
    /// Gives back the outbox slot `update` held, if it held one
    /// (terminal updates and profiles never occupy slots).
    pub(crate) fn release(&self, update: &Update) {
        if matches!(update, Update::Progress { kind: ProgressKind::Progress, .. }) {
            self.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The caller's side of a submitted query.
///
/// Updates arrive on an unbounded channel so a slow consumer never stalls
/// the scheduler — but the scheduler caps the number of *undelivered*
/// progress updates per session (256), dropping intermediate refinements
/// for consumers that fall behind (terminal updates and profiles are
/// never dropped). Dropping the handle implicitly cancels the query: the
/// scheduler notices the closed channel-or-cancel flag and stops fetching
/// blocks on its behalf.
#[derive(Debug)]
pub struct SessionHandle {
    pub(crate) id: u64,
    /// Updates arrive tagged: a TCP connection funnels all of its sessions
    /// into one such channel; a handle owns its own and ignores the tag.
    pub(crate) rx: Receiver<(u64, Update)>,
    pub(crate) shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// Service-assigned session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation. Idempotent; the scheduler stops fetching
    /// blocks this query needed and ends it `Cancelled`.
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.shared.cancel.load(Ordering::SeqCst)
    }

    /// Blocks for the next update; `None` once the service closed the
    /// channel (after a terminal update, or on shutdown).
    pub fn next(&self) -> Option<Update> {
        let (_, update) = self.rx.recv().ok()?;
        self.shared.release(&update);
        Some(update)
    }

    /// Like [`SessionHandle::next`] with a timeout.
    pub fn next_timeout(&self, timeout: Duration) -> Polled {
        match self.rx.recv_timeout(timeout) {
            Ok((_, update)) => {
                self.shared.release(&update);
                Polled::Update(update)
            }
            Err(RecvTimeoutError::Disconnected) => Polled::Closed,
            Err(RecvTimeoutError::Timeout) => Polled::TimedOut,
        }
    }

    /// Drains updates until the session ends, returning every refinement
    /// seen plus the terminal outcome (any profile is discarded; use
    /// [`SessionHandle::collect_profiled`] to keep it).
    pub fn collect(self) -> (Vec<Refinement>, Outcome) {
        let (trace, outcome, _) = self.collect_profiled();
        (trace, outcome)
    }

    /// Like [`SessionHandle::collect`], but also returns the
    /// [`QueryProfile`] when the query was traced.
    pub fn collect_profiled(self) -> (Vec<Refinement>, Outcome, Option<QueryProfile>) {
        let mut trace = Vec::new();
        let mut profile = None;
        loop {
            let (kind, r) = match self.next() {
                Some(Update::Progress { kind, refinement }) => (kind, refinement),
                Some(Update::Profile(p)) => {
                    profile = Some(*p);
                    continue;
                }
                None => return (trace, Outcome::Disconnected, profile),
            };
            if matches!(kind, ProgressKind::Progress | ProgressKind::Done) {
                trace.push(r);
            }
            let outcome = match kind {
                ProgressKind::Progress => continue,
                ProgressKind::Done => Outcome::Done(r),
                ProgressKind::DeadlineExpired => Outcome::DeadlineExpired(r),
                ProgressKind::Shed => Outcome::Shed(r),
                ProgressKind::Cancelled => Outcome::Cancelled,
            };
            return (trace, outcome, profile);
        }
    }

    /// Runs the session to its end, returning just the outcome.
    pub fn wait(self) -> Outcome {
        self.collect().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Sender};

    fn refinement(used: usize, total: usize) -> Refinement {
        Refinement {
            round: 1,
            coefficients_used: used,
            total_coefficients: total,
            estimate: 1.5,
            error_bound: 0.25,
            tier: Tier::Normal,
        }
    }

    /// A handle with `pending` progress updates already counted against
    /// its outbox, plus the sending end of its channel.
    fn session(id: u64, pending: usize) -> (Sender<(u64, Update)>, SessionHandle) {
        let (tx, rx) = mpsc::channel();
        let shared = SessionShared { cancel: AtomicBool::new(false), pending: pending.into() };
        (tx, SessionHandle { id, rx, shared: Arc::new(shared) })
    }

    fn update(kind: ProgressKind, used: usize, total: usize) -> (u64, Update) {
        (0, Update::Progress { kind, refinement: refinement(used, total) })
    }

    #[test]
    fn collect_gathers_trace_and_outcome() {
        let (tx, handle) = session(7, 2);
        tx.send(update(ProgressKind::Progress, 1, 3)).unwrap();
        tx.send(update(ProgressKind::Progress, 2, 3)).unwrap();
        tx.send(update(ProgressKind::Done, 3, 3)).unwrap();
        drop(tx);
        let (trace, outcome) = handle.collect();
        assert_eq!(trace.len(), 3);
        assert!(matches!(outcome, Outcome::Done(r) if r.coefficients_used == 3));
    }

    #[test]
    fn dropped_sender_is_disconnected() {
        let (tx, handle) = session(1, 0);
        drop(tx);
        assert!(matches!(handle.wait(), Outcome::Disconnected));
    }

    #[test]
    fn progress_fraction() {
        assert_eq!(refinement(1, 4).progress(), 0.25);
        assert_eq!(refinement(0, 0).progress(), 1.0);
    }

    #[test]
    fn next_timeout_distinguishes_update_timeout_and_close() {
        let (tx, handle) = session(3, 1);
        assert!(matches!(handle.next_timeout(Duration::from_millis(1)), Polled::TimedOut));
        tx.send(update(ProgressKind::Progress, 1, 3)).unwrap();
        let cancelled = ProgressKind::Cancelled;
        tx.send((0, Update::Progress { kind: cancelled, refinement: Refinement::NONE })).unwrap();
        assert!(matches!(
            handle.next_timeout(Duration::from_millis(50)),
            Polled::Update(u) if !u.is_terminal()
        ));
        // A bounded wait gives the outbox slot back exactly as `next` does.
        assert_eq!(handle.shared.pending.load(Ordering::SeqCst), 0);
        assert!(matches!(
            handle.next_timeout(Duration::from_millis(50)),
            Polled::Update(Update::Progress { kind: ProgressKind::Cancelled, .. })
        ));
        drop(tx);
        assert!(matches!(handle.next_timeout(Duration::from_millis(50)), Polled::Closed));
    }

    #[test]
    fn progress_consumption_releases_outbox_slots() {
        let (tx, handle) = session(4, 2);
        tx.send(update(ProgressKind::Progress, 1, 3)).unwrap();
        tx.send(update(ProgressKind::Shed, 2, 3)).unwrap();
        assert!(matches!(handle.next(), Some(u) if !u.is_terminal()));
        assert_eq!(handle.shared.pending.load(Ordering::SeqCst), 1);
        // Terminal updates never occupy outbox slots.
        assert!(matches!(handle.next(), Some(u) if u.is_terminal()));
        assert_eq!(handle.shared.pending.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shed_collects_as_best_so_far_outcome() {
        let (tx, handle) = session(9, 1);
        tx.send(update(ProgressKind::Progress, 1, 4)).unwrap();
        tx.send(update(ProgressKind::Shed, 2, 4)).unwrap();
        drop(tx);
        let (trace, outcome) = handle.collect();
        assert_eq!(trace.len(), 1);
        match outcome {
            Outcome::Shed(r) => {
                assert!(r.estimate.is_finite());
                assert!(r.error_bound.is_finite());
                assert_eq!(r.coefficients_used, 2);
            }
            other => panic!("expected Shed, got {other:?}"),
        }
    }

    #[test]
    fn cancel_flag_is_shared() {
        let (_tx, handle) = session(2, 0);
        let shared = Arc::clone(&handle.shared);
        assert!(!handle.is_cancelled());
        handle.cancel();
        assert!(handle.is_cancelled());
        assert!(shared.cancel.load(Ordering::SeqCst));
    }
}
