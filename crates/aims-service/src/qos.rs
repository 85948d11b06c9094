//! Adaptive QoS: degradation tiers, a hysteresis overload controller,
//! and the utility-based round scheduler (§4's many-user posture under
//! overload).
//!
//! The design follows the coordination framing of "Towards Coordinated
//! Bandwidth Adaptations for Hundred-Scale 3D Tele-Immersive Systems"
//! (PAPERS.md): many sessions share one refinement budget, and overload
//! should degrade *answer precision* — coarser refinement cadence, then
//! widened target bounds, then early termination with the best answer so
//! far — before any session is refused outright. Two pieces live here:
//!
//! - [`DegradeController`]: maps admission-queue pressure to a service
//!   [`Tier`] with enter/exit hysteresis, so a pressure spike escalates
//!   quickly but recovery is smooth (no tier flapping at a threshold).
//! - `select_round`: spends each shared-scan round's block budget on the
//!   blocks with the highest aggregate expected error-bound reduction. A
//!   block's utility for one session is the block-local Cauchy–Schwarz
//!   term `sqrt(w²_in_block · E_block)` from the store's block-energy
//!   catalog, scaled by the session's weight: its class, its deadline
//!   slack, and the inverse of its initial bound (relative progress). The
//!   budget charges device reads only, so cache-resident blocks are free.
//!   A session folds whichever of its plan blocks arrive, in any order,
//!   and its estimate is one fold over its delivered entries in ascending
//!   order, so final answers never depend on the policy.

use aims_storage::BoundLedger;

/// At [`Tier::Coarse`] and harder, a progress update is delivered every
/// this many rounds.
pub const COARSE_CADENCE: u32 = 4;
/// Utility multiplier for interactive sessions (batch weight is 1).
pub const INTERACTIVE_BOOST: f64 = 2.0;
/// At [`Tier::Widened`], a session completes once its bound falls below
/// this fraction of its initial bound.
pub const WIDEN_REL: f64 = 0.10;

/// Graduated degradation level of a session (and of the service as a
/// whole). Ordered: higher tiers degrade harder.
#[derive(Clone, Copy, Debug, Default, Eq, Ord, PartialEq, PartialOrd)]
pub enum Tier {
    /// Full service: every round delivers a refinement, queries run to
    /// their exact answer.
    #[default]
    Normal,
    /// Coarser refinement cadence: progress updates are delivered every
    /// [`COARSE_CADENCE`] rounds (terminals always delivered).
    Coarse,
    /// Widened target bound: the session completes (`Done`, with a
    /// guaranteed non-zero bound) once its error bound falls below
    /// [`WIDEN_REL`] of its initial bound.
    Widened,
    /// Early termination: the session is retired with its best answer so
    /// far (a `Shed` terminal), never an error.
    Shed,
}

impl Tier {
    /// All tiers, lowest to highest.
    pub const ALL: [Tier; 4] = [Tier::Normal, Tier::Coarse, Tier::Widened, Tier::Shed];

    /// Stable wire encoding (the PROGRESS frame's trailing tier byte).
    pub fn to_wire(self) -> u8 {
        match self {
            Tier::Normal => 0,
            Tier::Coarse => 1,
            Tier::Widened => 2,
            Tier::Shed => 3,
        }
    }

    /// Decodes the wire encoding.
    pub fn from_wire(b: u8) -> Option<Tier> {
        match b {
            0 => Some(Tier::Normal),
            1 => Some(Tier::Coarse),
            2 => Some(Tier::Widened),
            3 => Some(Tier::Shed),
            _ => None,
        }
    }

    /// Human-readable label (used by session rows and `aims-cli top`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Normal => "normal",
            Tier::Coarse => "coarse",
            Tier::Widened => "widened",
            Tier::Shed => "shed",
        }
    }

    /// One tier harder, saturating at [`Tier::Shed`].
    pub fn escalated(self) -> Tier {
        match self {
            Tier::Normal => Tier::Coarse,
            Tier::Coarse => Tier::Widened,
            _ => Tier::Shed,
        }
    }

    /// One tier softer, saturating at [`Tier::Normal`].
    pub fn relaxed(self) -> Tier {
        match self {
            Tier::Shed => Tier::Widened,
            Tier::Widened => Tier::Coarse,
            _ => Tier::Normal,
        }
    }
}

/// Which block-selection policy the shared scan uses.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum SchedulerPolicy {
    /// The pre-QoS behavior: the ascending union of every session's
    /// wanted blocks, capped at the round budget.
    Fifo,
    /// Utility-ranked selection: the budget goes to the blocks with the
    /// highest aggregate expected error-bound reduction.
    Utility,
}

/// Queue pressure (queued / capacity) at which the service escalates into
/// tiers 1..=3, checked in order.
pub const ENTER_PRESSURE: [f64; 3] = [0.50, 0.75, 0.95];
/// Queue pressure at or below which the service recovers out of tiers
/// 1..=3. Each sits below the matching [`ENTER_PRESSURE`]: the gap is the
/// hysteresis band.
pub const EXIT_PRESSURE: [f64; 3] = [0.25, 0.45, 0.70];
/// Consecutive observations at or above an enter threshold before the tier
/// escalates.
pub const ESCALATE_ROUNDS: u32 = 2;
/// Consecutive observations at or below an exit threshold before the tier
/// recovers one step.
pub const RECOVER_ROUNDS: u32 = 6;

const _: () = {
    let mut i = 0;
    while i < 3 {
        assert!(EXIT_PRESSURE[i] < ENTER_PRESSURE[i], "each exit must sit below its enter");
        i += 1;
    }
};

/// What one pressure observation did to the service tier.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum TierChange {
    /// Tier unchanged.
    None,
    /// Escalated one step (to the carried tier).
    Escalated(Tier),
    /// Recovered one step (to the carried tier).
    Recovered(Tier),
}

/// Hysteresis state machine mapping queue pressure to a service tier.
///
/// Escalation and recovery both require a *sustained* signal
/// ([`ESCALATE_ROUNDS`] / [`RECOVER_ROUNDS`] consecutive observations), and
/// the exit thresholds sit strictly below the enter thresholds, so the
/// tier neither flaps at a boundary nor collapses the moment one round
/// of headroom appears.
#[derive(Debug, Default)]
pub struct DegradeController {
    tier: Tier,
    above: u32,
    below: u32,
}

impl DegradeController {
    /// A controller starting at [`Tier::Normal`].
    pub fn new() -> Self {
        DegradeController::default()
    }

    /// The current service tier.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Feeds one pressure observation (queued / capacity, in `[0, 1]`).
    pub fn observe(&mut self, pressure: f64) -> TierChange {
        // Escalation: pressure sustained at/above the *next* tier's
        // enter threshold.
        if self.tier != Tier::Shed {
            let next = self.tier.escalated();
            if pressure >= ENTER_PRESSURE[next.to_wire() as usize - 1] {
                self.above += 1;
                self.below = 0;
                if self.above >= ESCALATE_ROUNDS {
                    self.tier = next;
                    self.above = 0;
                    return TierChange::Escalated(self.tier);
                }
                return TierChange::None;
            }
        }
        self.above = 0;
        // Recovery: pressure sustained at/below the *current* tier's
        // exit threshold.
        if self.tier != Tier::Normal && pressure <= EXIT_PRESSURE[self.tier.to_wire() as usize - 1]
        {
            self.below += 1;
            if self.below >= RECOVER_ROUNDS {
                self.tier = self.tier.relaxed();
                self.below = 0;
                return TierChange::Recovered(self.tier);
            }
        } else {
            self.below = 0;
        }
        TierChange::None
    }
}

/// The per-session view a round's block selection ranks: the session's
/// bound ledger (its plan's blocks, ascending, with their gains, and which
/// of them are still pending), a scalar priority weight (class boost ×
/// deadline urgency ÷ initial bound), and whether this is its first round.
pub(crate) struct SessionLens<'a> {
    /// The session's plan and what it still misses.
    pub ledger: &'a BoundLedger,
    /// Utility multiplier for this session.
    pub weight: f64,
    /// The session has not taken part in a round yet. Only such a session
    /// can want a cache-resident block: every block a round reads is handed
    /// to every live session still missing it, so a block a session wants
    /// after its first round was not resident then and has not been read
    /// since.
    pub fresh: bool,
}

impl SessionLens<'_> {
    /// `(block, gain)` of every plan block not yet delivered or lost,
    /// ascending. `gain` = `sqrt(Σw² in block · E_block)`, the block-local
    /// Cauchy–Schwarz term: how far delivering the block lowers this
    /// session's bound.
    fn wanted(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        let plan = self.ledger.plan();
        let pending = (0..plan.blocks.len()).filter(|&k| self.ledger.pending(k));
        pending.map(move |k| (plan.blocks[k], plan.gains[k]))
    }
}

/// Spends one round's budget of `budget` *device reads* under `policy` and
/// returns the blocks to fetch, ascending. Every returned block is still
/// wanted by some session, and every wanted block that `is_cached` rides
/// free: it costs no read, so it is always returned (residence is probed
/// only for the blocks of [`SessionLens::fresh`] sessions). A session
/// folds any of its plan blocks the moment it arrives, so the budget may
/// go to any of them:
///
/// - [`SchedulerPolicy::Fifo`] reads the lowest wanted block ids;
/// - [`SchedulerPolicy::Utility`] reads the blocks with the highest
///   utility, `Σ` over the sessions still wanting a block of `weight ×
///   gain`: the aggregate expected error-bound reduction its one read
///   buys. A block several sessions want sums their stakes, so sharing is
///   preferred by construction (§3.3.1's "shares I/O maximally") without a
///   separate sharing rule.
///
/// Utility ties break toward the lower block id. For a lone session that
/// is the order of [`aims_storage::BlockPlan::by_gain`] (gain-descending,
/// ties in plan order), so a one-block budget walks its plan exactly as
/// `CoefficientStore::progressive` does. A block's stakes are summed in
/// admission order, so the selection is deterministic.
pub(crate) fn select_round(
    policy: SchedulerPolicy,
    sessions: &[SessionLens],
    budget: usize,
    is_cached: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let mut stakes: Vec<(usize, f64, bool)> = sessions
        .iter()
        .flat_map(|s| s.wanted().map(move |(b, g)| (b, s.weight * g, s.fresh)))
        .collect();
    // Stable: a block's stakes stay in admission order.
    stakes.sort_by_key(|&(b, ..)| b);
    let (mut selected, mut reads) = (Vec::new(), Vec::new());
    for group in stakes.chunk_by(|x, y| x.0 == y.0) {
        let b = group[0].0;
        if group.iter().any(|&(.., fresh)| fresh) && is_cached(b) {
            selected.push(b);
        } else {
            reads.push((b, group.iter().fold(0.0, |acc, &(_, u, _)| acc + u)));
        }
    }
    if policy == SchedulerPolicy::Utility && reads.len() > budget {
        // Utility descending, then id ascending: a total order, so the
        // first `budget` after the partition are one well-defined set.
        reads.select_nth_unstable_by(budget, |x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    }
    selected.extend(reads.into_iter().take(budget).map(|(b, _)| b));
    selected.sort_unstable();
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_storage::BlockPlan;
    use std::sync::Arc;

    /// The blocks a utility round fetches for sessions given as
    /// `(plan blocks ascending, gains, weight)`, nothing yet delivered.
    fn select_round_blocks(
        sessions: &[(&[usize], &[f64], f64)],
        budget: usize,
        is_cached: impl Fn(usize) -> bool,
    ) -> Vec<usize> {
        let ledgers: Vec<BoundLedger> = sessions
            .iter()
            .map(|&(blocks, gains, _)| {
                let spans = (0..blocks.len()).map(|k| k..k + 1).collect();
                let plan = BlockPlan { blocks: blocks.to_vec(), gains: gains.to_vec(), spans };
                BoundLedger::new(Arc::new(plan))
            })
            .collect();
        let lenses: Vec<SessionLens> = ledgers
            .iter()
            .zip(sessions)
            .map(|(ledger, &(.., weight))| SessionLens { ledger, weight, fresh: true })
            .collect();
        select_round(SchedulerPolicy::Utility, &lenses, budget, is_cached)
    }

    #[test]
    fn tier_wire_roundtrip_and_order() {
        for t in Tier::ALL {
            assert_eq!(Tier::from_wire(t.to_wire()), Some(t));
        }
        assert_eq!(Tier::from_wire(9), None);
        assert!(Tier::Normal < Tier::Coarse);
        assert!(Tier::Widened < Tier::Shed);
        assert_eq!(Tier::Shed.escalated(), Tier::Shed);
        assert_eq!(Tier::Normal.relaxed(), Tier::Normal);
    }

    #[test]
    fn controller_escalates_only_under_sustained_pressure() {
        let mut c = DegradeController::new();
        // One spike is absorbed.
        assert_eq!(c.observe(1.0), TierChange::None);
        assert_eq!(c.observe(0.0), TierChange::None);
        assert_eq!(c.tier(), Tier::Normal);
        // Sustained pressure walks up one tier per ESCALATE_ROUNDS.
        assert_eq!(c.observe(1.0), TierChange::None);
        assert_eq!(c.observe(1.0), TierChange::Escalated(Tier::Coarse));
        assert_eq!(c.observe(1.0), TierChange::None);
        assert_eq!(c.observe(1.0), TierChange::Escalated(Tier::Widened));
        assert_eq!(c.observe(1.0), TierChange::None);
        assert_eq!(c.observe(1.0), TierChange::Escalated(Tier::Shed));
        // Saturates.
        for _ in 0..8 {
            assert_eq!(c.observe(1.0), TierChange::None);
        }
        assert_eq!(c.tier(), Tier::Shed);
    }

    #[test]
    fn controller_recovers_with_hysteresis() {
        let mut c = DegradeController::new();
        for _ in 0..6 {
            c.observe(1.0);
        }
        assert_eq!(c.tier(), Tier::Shed);
        // Pressure in the hysteresis band (above exit, below enter):
        // neither escalates nor recovers.
        for _ in 0..20 {
            assert_eq!(c.observe(0.8), TierChange::None);
        }
        assert_eq!(c.tier(), Tier::Shed);
        // Sustained low pressure walks back down one tier per
        // RECOVER_ROUNDS — smooth, not a cliff.
        let mut recoveries = Vec::new();
        for _ in 0..20 {
            if let TierChange::Recovered(t) = c.observe(0.0) {
                recoveries.push(t);
            }
        }
        assert_eq!(recoveries, vec![Tier::Widened, Tier::Coarse, Tier::Normal]);
        assert_eq!(c.tier(), Tier::Normal);
    }

    #[test]
    fn pressure_held_below_the_first_enter_threshold_keeps_normal_forever() {
        let mut c = DegradeController::new();
        let below = ENTER_PRESSURE[0] - f64::EPSILON;
        for k in 0..1000 {
            let pressure = [0.0, EXIT_PRESSURE[0], below][k % 3];
            assert_eq!(c.observe(pressure), TierChange::None);
        }
        assert_eq!(c.tier(), Tier::Normal);
    }

    #[test]
    fn utility_selection_favors_weighted_sessions() {
        // Session A wants blocks [0,1,2,3], B wants [10,11]; B carries
        // far more weight, so both of B's blocks win the budget and A's
        // equal stakes go lowest id first.
        let g = [1.0; 4];
        let sessions: [(&[usize], &[f64], f64); 2] =
            [(&[0, 1, 2, 3], &g, 1.0), (&[10, 11], &g[..2], 100.0)];
        assert_eq!(select_round_blocks(&sessions, 3, |_| false), [0, 10, 11]);
    }

    #[test]
    fn a_shared_block_outranks_each_sharers_private_blocks() {
        // Sessions 0 and 1 both want block 5: its utility is the sum of
        // their stakes (2.0), above session 2's heavier private blocks
        // (1.5 each), which in turn beat the sharers' private ones.
        let g = [1.0, 1.0];
        let sessions: [(&[usize], &[f64], f64); 3] =
            [(&[5, 6], &g, 1.0), (&[5, 7], &g, 1.0), (&[2, 3], &g, 1.5)];
        assert_eq!(select_round_blocks(&sessions, 1, |_| false), [5]);
        assert_eq!(select_round_blocks(&sessions, 3, |_| false), [2, 3, 5]);
    }

    #[test]
    fn utility_selection_reaches_past_cheap_blocks() {
        // Session A's bound mass sits behind two cheap blocks. A block
        // refines the moment it arrives, so the one read goes straight to
        // the 9.0 block, past A's cheap ones and B's 2.0.
        let (a, b) = ([0.1, 0.1, 9.0], [2.0]);
        let sessions: [(&[usize], &[f64], f64); 2] = [(&[0, 1, 9], &a, 1.0), (&[4], &b, 1.0)];
        assert_eq!(select_round_blocks(&sessions, 1, |_| false), [9]);
        assert_eq!(select_round_blocks(&sessions, 2, |_| false), [4, 9]);
    }

    #[test]
    fn utility_selection_is_budget_capped_and_complete_below_budget() {
        let g = [1.0; 4];
        let sessions: [(&[usize], &[f64], f64); 2] =
            [(&[1, 2, 3, 4], &g, 1.0), (&[3, 4, 5, 6], &g, 1.0)];
        // The two shared blocks are worth twice any private one.
        assert_eq!(select_round_blocks(&sessions, 2, |_| false), [3, 4]);
        // Budget beyond the union: everything is selected.
        assert_eq!(select_round_blocks(&sessions, 64, |_| false), [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cached_blocks_do_not_consume_budget() {
        // Blocks 1 and 2 are resident in the shared cache, so a budget
        // of 2 device reads still covers the whole 4-block plan.
        let g = [1.0; 4];
        let sessions: [(&[usize], &[f64], f64); 1] = [(&[1, 2, 3, 4], &g, 1.0)];
        assert_eq!(select_round_blocks(&sessions, 2, |b| b <= 2), [1, 2, 3, 4]);
        // With nothing cached the same budget buys two blocks.
        assert_eq!(select_round_blocks(&sessions, 2, |_| false), [1, 2]);
    }
}
