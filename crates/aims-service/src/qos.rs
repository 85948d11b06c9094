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
//! - `grant_round`: allocates each shared-scan round's block budget
//!   across sessions to maximize aggregate expected error-bound
//!   reduction. The marginal utility of a session's next plan block is
//!   the block-local Cauchy–Schwarz term `sqrt(w²_in_block · E_block)`
//!   from the store's block-energy catalog, normalized by the session's
//!   initial bound (relative progress), its class, and its deadline
//!   slack; the budget charges device reads only, so cache-resident
//!   grants are free. What a policy hands back is each session's
//!   *grant* — a contiguous prefix of its remaining plan — which
//!   preserves the bit-identity invariant: entries are consumed in
//!   ascending flat-offset order with one accumulator per query, so
//!   final answers never depend on the policy.

use std::collections::BTreeSet;

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
    /// The pre-QoS behavior: ascending union of every active plan's
    /// remaining blocks, capped at the round budget.
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
/// remaining plan (ascending block ids), the matching per-block bound
/// gains, and a scalar priority weight (class boost × deadline urgency ÷
/// initial bound).
pub(crate) struct SessionLens<'a> {
    /// Remaining plan blocks, ascending (from the session's plan cursor).
    pub plan: &'a [usize],
    /// `gain[k]` = `sqrt(Σw² in plan[k] · E_{plan[k]})` — the block-local
    /// Cauchy–Schwarz term, i.e. the most consuming `plan[k]` can shrink
    /// this session's error bound.
    pub gain: &'a [f64],
    /// Utility multiplier for this session.
    pub weight: f64,
}

/// Spends one round's budget of `budget` *device reads* (`is_cached`
/// blocks ride free) under `policy` and returns each session's **grant**:
/// how many leading blocks of its remaining plan it consumes this round.
///
/// A grant is a contiguous prefix — a block refines a session's bound
/// only once every plan block before it has been folded — and whatever a
/// policy charges the budget for lies in the prefix of the session it
/// picked it for. So the grants *are* the selection: the blocks to fetch
/// are their union.
pub(crate) fn grant_round(
    policy: SchedulerPolicy,
    sessions: &[SessionLens],
    budget: usize,
    is_cached: impl Fn(usize) -> bool,
) -> Vec<usize> {
    match policy {
        SchedulerPolicy::Fifo => grant_fifo(sessions, budget, is_cached),
        SchedulerPolicy::Utility => grant_utility(sessions, budget, is_cached),
    }
}

/// The class- and progress-blind baseline: the round takes the ascending
/// union of every remaining plan up to the first uncached block past the
/// budget, and each session is granted what it has below that block.
fn grant_fifo(
    sessions: &[SessionLens],
    budget: usize,
    is_cached: impl Fn(usize) -> bool,
) -> Vec<usize> {
    let wanted: BTreeSet<usize> = sessions.iter().flat_map(|s| s.plan.iter().copied()).collect();
    let mut charged = 0usize;
    let stop = wanted.into_iter().find(|&b| {
        charged += usize::from(!is_cached(b));
        charged > budget
    });
    sessions
        .iter()
        .map(|s| stop.map_or(s.plan.len(), |stop| s.plan.partition_point(|&b| b < stop)))
        .collect()
}

/// Allocates a round's block budget across sessions by weighted fair
/// sharing, with the budget charging *device reads only* (`is_cached`
/// blocks ride free).
///
/// Each plan is a precedence chain: a block refines a session's bound
/// only once every plan block before it has been consumed, so the only
/// real scheduling freedom is *how much of each session's next prefix*
/// a round serves — fetching a deep high-energy block early just parks
/// it until its predecessors arrive. (Two measured dead ends confirm
/// this: a demand-density prefix auction that fetched mass out of
/// consumption order plateaued sessions ~2–3× longer than the shared
/// ascending sweep, and a whole-session weighted-shortest-remaining
/// rule batched one session to its tail while everyone else idled at
/// their initial bound, ~4× worse.)
///
/// So the budget's read slots are apportioned across sessions in
/// proportion to each one's *marginal utility share*: `weight × Σ
/// remaining gain`, i.e. class boost × deadline urgency × the fraction
/// of its initial bound still outstanding. Apportionment uses the
/// D'Hondt divisor rule — repeatedly grant one slot to the session
/// maximizing `share / (1 + slots_granted)` — which is deterministic,
/// proportional, and starvation-free: a light session's quotient is
/// untouched while heavy sessions' quotients shrink with every grant,
/// so it is reached within a bounded number of rounds.
///
/// Each slot advances its session's grant to the next uncached
/// unselected block and selects it. Blocks that are cache-resident or
/// already selected for another session are granted free along the way
/// — catch-up through a shared or previously-fetched region never
/// competes with fresh refinement for I/O. That free riding is how the
/// shared scan's amortization survives the weighting: when a heavy
/// session's slot selects a coarse block, every other session whose
/// grant ends at that block advances without spending a slot. With
/// uniform weights the result degenerates to the fair shared sweep
/// (everyone's grant advances, most-behind sessions first); with
/// differentiated classes the interactive sessions' bounds provably
/// tighten in proportion to their boost.
///
/// Ties break toward earlier submission order, so selection is
/// deterministic. The round stays bounded: at most `budget` device
/// reads plus one cache's worth of free grants.
fn grant_utility(
    sessions: &[SessionLens],
    budget: usize,
    is_cached: impl Fn(usize) -> bool,
) -> Vec<usize> {
    // Marginal utility share: weight × remaining bound mass. The +ε
    // keeps zero-energy tails schedulable (they still advance cursors
    // toward completion).
    let shares: Vec<f64> =
        sessions.iter().map(|s| s.weight * (s.gain.iter().sum::<f64>() + 1e-12)).collect();
    // The blocks this round's slots have paid for.
    let mut selected: BTreeSet<usize> = BTreeSet::new();
    let mut grants: Vec<usize> = vec![0; sessions.len()];
    let mut slots: Vec<usize> = vec![0; sessions.len()];
    // Sweeps every grant through the blocks that are free this round:
    // already paid for, or cache-resident.
    let sweep = |grants: &mut [usize], selected: &BTreeSet<usize>| {
        for (grant, s) in grants.iter_mut().zip(sessions) {
            while s.plan.get(*grant).is_some_and(|b| selected.contains(b) || is_cached(*b)) {
                *grant += 1;
            }
        }
    };
    for _ in 0..budget {
        sweep(&mut grants, &selected);
        // D'Hondt: one read slot to the session with the highest
        // quotient among those still wanting blocks; ties go to
        // submission order.
        let mut best: Option<(f64, usize)> = None;
        for (j, s) in sessions.iter().enumerate() {
            if grants[j] >= s.plan.len() {
                continue;
            }
            let quotient = shares[j] / (1 + slots[j]) as f64;
            if best.is_none_or(|(q, _)| quotient > q) {
                best = Some((quotient, j));
            }
        }
        let Some((_, w)) = best else { break };
        selected.insert(sessions[w].plan[grants[w]]);
        grants[w] += 1;
        slots[w] += 1;
    }
    // Slots spent late in the loop may have unlocked shared runs for
    // other sessions.
    sweep(&mut grants, &selected);
    grants
}

/// The parent design, kept as the oracle the grant functions are tested
/// against: each policy returned the round's *selected block set*, and the
/// scheduler re-derived every session's grant from it.
#[cfg(test)]
pub(crate) mod reference {
    use super::{SchedulerPolicy, SessionLens};
    use std::collections::BTreeSet;

    /// The selected set, as `service.rs` (FIFO) and `select_round_blocks`
    /// (utility) computed it before grants were returned directly.
    pub(crate) fn selected(
        policy: SchedulerPolicy,
        sessions: &[SessionLens],
        budget: usize,
        is_cached: impl Fn(usize) -> bool,
    ) -> BTreeSet<usize> {
        let mut selected: BTreeSet<usize> = BTreeSet::new();
        let mut charged = 0usize;
        if policy == SchedulerPolicy::Fifo {
            let wanted: BTreeSet<usize> =
                sessions.iter().flat_map(|s| s.plan.iter().copied()).collect();
            for b in wanted {
                let free = is_cached(b);
                if !free && charged >= budget {
                    break;
                }
                charged += usize::from(!free);
                selected.insert(b);
            }
            return selected;
        }
        let shares: Vec<f64> =
            sessions.iter().map(|s| s.weight * (s.gain.iter().sum::<f64>() + 1e-12)).collect();
        let mut frontier: Vec<usize> = vec![0; sessions.len()];
        let mut slots: Vec<usize> = vec![0; sessions.len()];
        while charged < budget {
            for (j, s) in sessions.iter().enumerate() {
                while frontier[j] < s.plan.len() {
                    let b = s.plan[frontier[j]];
                    if selected.contains(&b) {
                        frontier[j] += 1;
                    } else if is_cached(b) {
                        selected.insert(b);
                        frontier[j] += 1;
                    } else {
                        break;
                    }
                }
            }
            let mut best: Option<(f64, usize)> = None;
            for (j, s) in sessions.iter().enumerate() {
                if frontier[j] >= s.plan.len() {
                    continue;
                }
                let quotient = shares[j] / (1 + slots[j]) as f64;
                if best.is_none_or(|(q, _)| quotient > q) {
                    best = Some((quotient, j));
                }
            }
            let Some((_, w)) = best else { break };
            selected.insert(sessions[w].plan[frontier[w]]);
            frontier[w] += 1;
            slots[w] += 1;
            charged += 1;
        }
        let mut grew = true;
        while grew {
            grew = false;
            for (j, s) in sessions.iter().enumerate() {
                while frontier[j] < s.plan.len() {
                    let b = s.plan[frontier[j]];
                    if selected.contains(&b) || is_cached(b) {
                        grew |= selected.insert(b);
                        frontier[j] += 1;
                    } else {
                        break;
                    }
                }
            }
        }
        selected
    }

    /// The blocks a round fetches under `grants`: the union of the granted
    /// prefixes.
    pub(crate) fn union(sessions: &[SessionLens], grants: &[usize]) -> BTreeSet<usize> {
        sessions.iter().zip(grants).flat_map(|(s, &g)| s.plan[..g].iter().copied()).collect()
    }

    /// The grants the parent scheduler re-derived from the selected set.
    pub(crate) fn grants(sessions: &[SessionLens], selected: &BTreeSet<usize>) -> Vec<usize> {
        sessions
            .iter()
            .map(|s| s.plan.iter().take_while(|b| selected.contains(b)).count())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blocks a utility round fetches: the union of its grants.
    fn select_round_blocks(
        sessions: &[SessionLens],
        budget: usize,
        is_cached: impl Fn(usize) -> bool,
    ) -> BTreeSet<usize> {
        reference::union(
            sessions,
            &grant_round(SchedulerPolicy::Utility, sessions, budget, is_cached),
        )
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
        // far more weight, so both of B's blocks win the budget and A
        // gets the remainder in block order.
        let a_gain = [1.0, 1.0, 1.0, 1.0];
        let b_gain = [1.0, 1.0];
        let sessions = [
            SessionLens { plan: &[0, 1, 2, 3], gain: &a_gain, weight: 1.0 },
            SessionLens { plan: &[10, 11], gain: &b_gain, weight: 100.0 },
        ];
        let got = select_round_blocks(&sessions, 3, |_| false);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![0, 10, 11]);
    }

    #[test]
    fn shared_blocks_advance_every_sharer_for_one_read() {
        // Sessions 0 and 1 share frontier block 5. When session 0's
        // slot selects it, session 1's frontier rides through for free,
        // so session 1's own slot buys its *next* block (7) — four
        // slots serve five frontier advances. Session 0's second block
        // (6, unshared) is what the round leaves behind.
        let g = [1.0, 1.0];
        let sessions = [
            SessionLens { plan: &[5, 6], gain: &g, weight: 1.0 },
            SessionLens { plan: &[5, 7], gain: &g, weight: 1.0 },
            SessionLens { plan: &[2, 3], gain: &g, weight: 1.5 },
        ];
        let got = select_round_blocks(&sessions, 4, |_| false);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![2, 3, 5, 7]);
    }

    #[test]
    fn utility_selection_looks_ahead_past_cheap_frontiers() {
        // Session A's bound mass sits behind two cheap blocks. Its
        // share counts *all* remaining mass (9.2), not just the
        // frontier gain (0.1), so A wins every slot over B's 2.0 — a
        // frontier-only auction would score A at 0.1 and starve it.
        let a = [0.1, 0.1, 9.0];
        let b = [2.0];
        let sessions = [
            SessionLens { plan: &[0, 1, 9], gain: &a, weight: 1.0 },
            SessionLens { plan: &[4], gain: &b, weight: 1.0 },
        ];
        let got = select_round_blocks(&sessions, 3, |_| false);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![0, 1, 9]);
    }

    #[test]
    fn utility_selection_is_budget_capped_and_complete_below_budget() {
        let g = [1.0; 4];
        let sessions = [
            SessionLens { plan: &[1, 2, 3, 4], gain: &g, weight: 1.0 },
            SessionLens { plan: &[3, 4, 5, 6], gain: &g, weight: 1.0 },
        ];
        assert_eq!(select_round_blocks(&sessions, 2, |_| false).len(), 2);
        // Budget beyond the union: everything is selected.
        let all = select_round_blocks(&sessions, 64, |_| false);
        assert_eq!(all.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn cached_blocks_do_not_consume_budget() {
        // Blocks 1 and 2 are resident in the shared cache, so a budget
        // of 2 device reads still covers the whole 4-block plan.
        let g = [1.0; 4];
        let sessions = [SessionLens { plan: &[1, 2, 3, 4], gain: &g, weight: 1.0 }];
        let got = select_round_blocks(&sessions, 2, |b| b <= 2);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // With nothing cached the same budget stops after two blocks.
        let got = select_round_blocks(&sessions, 2, |_| false);
        assert_eq!(got.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// Seeded mixes — overlapping ascending plans with shared prefixes, a
    /// random resident set, class weights — under both policies: the
    /// grants returned equal the parent's `take_while(selected.contains)`
    /// recomputation, nothing is selected ahead of every grant (the round
    /// has no prefetch set), and the budget charges device reads only.
    #[test]
    fn grants_equal_the_parents_recomputation_from_the_selected_set() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let (mut free_rides, mut shared) = (0usize, 0usize);
        for case in 0..400 {
            let plans: Vec<Vec<usize>> = (0..1 + next(6))
                .map(|_| {
                    // A common coarse prefix, then a private sparse tail.
                    let mut plan: Vec<usize> = (0..next(5)).collect();
                    plan.extend((5..48).filter(|_| next(4) == 0));
                    plan
                })
                .collect();
            let gains: Vec<Vec<f64>> = plans
                .iter()
                .map(|p| p.iter().map(|_| next(1000) as f64 / 100.0).collect())
                .collect();
            let sessions: Vec<SessionLens> = plans
                .iter()
                .zip(&gains)
                .map(|(plan, gain)| SessionLens { plan, gain, weight: 1.0 + next(3) as f64 })
                .collect();
            let resident: BTreeSet<usize> = (0..48).filter(|_| next(5) == 0).collect();
            let is_cached = |b: usize| resident.contains(&b);
            let budget = 1 + next(12);
            for policy in [SchedulerPolicy::Fifo, SchedulerPolicy::Utility] {
                let selected = reference::selected(policy, &sessions, budget, is_cached);
                let grants = grant_round(policy, &sessions, budget, is_cached);
                assert_eq!(grants, reference::grants(&sessions, &selected), "{policy:?} #{case}");
                let granted = reference::union(&sessions, &grants);
                assert_eq!(granted, selected, "{policy:?} #{case}: a block ahead of every grant");
                let reads = granted.iter().filter(|b| !is_cached(**b)).count();
                assert!(reads <= budget, "{policy:?} #{case}: {reads} reads on budget {budget}");
                free_rides += granted.len() - reads;
                shared += grants.iter().sum::<usize>() - granted.len();
            }
        }
        assert!(free_rides > 0 && shared > 0, "the mixes must exercise residence and sharing");
    }
}
