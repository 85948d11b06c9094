//! The composed chaos drill as a CI gate: every seeded fault injector
//! in the system — storage faults, sensor-wire faults, and query-flood
//! overload — run together under one master seed (override with
//! `AIMS_CHAOS_SEED`), asserting the end-to-end robustness invariants:
//! no panics, no lost admitted queries, monotone finite bounds,
//! best-so-far answers on shed, and full recovery after the drain.
//!
//! CI runs this twice under pinned seeds (see `ci.sh`); locally any
//! seed should pass — if one doesn't, that seed is a reproducer worth
//! keeping.

use aims::drill::chaos::{run, Config};
use aims::drill::env_seed;

#[test]
fn composed_chaos_drill_holds_every_invariant() {
    let report = run(&Config { seed: env_seed("AIMS_CHAOS_SEED", 4242), ..Config::default() });

    // Print the phase table up front: on failure this is the post-mortem.
    eprintln!("{}", report.render_table());

    let violations = report.violations();
    assert!(
        report.passed(),
        "chaos drill (seed {}) violated {} invariant(s):\n  {}",
        report.seed,
        violations.len(),
        violations.join("\n  ")
    );

    // The drill must actually exercise the machinery it claims to:
    // floods shed something, faults degrade something, and the drill
    // ends fully recovered.
    assert!(report.shed_fraction > 0.0, "flood phases never shed — drill too gentle");
    let storage = report.phases.iter().find(|p| p.name == "storage-faults").unwrap();
    assert!(
        storage.done == storage.accepted,
        "storage faults must degrade bounds, not lose queries"
    );
    assert!(report.recovery_ms >= 0.0);
}
