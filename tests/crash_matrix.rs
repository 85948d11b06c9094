//! The deterministic crash-point matrix harness.
//!
//! Drives the durable [`FileDevice`] through a grid of
//! {durability mode × workload × seeded crash point} and proves recovery
//! *exact*:
//!
//! 1. **Committed-prefix bit-identity** — after every simulated crash,
//!    the reopened device is `to_bits`-identical to some prefix of the
//!    write history applied to fresh media, and that prefix covers at
//!    least every acknowledged (durably synced) write.
//! 2. **fsync-always never loses an acknowledged write** — swept over
//!    *every* crash-eligible step of a workload, not a sample.
//! 3. **Query parity** — a signal's Haar `CoefficientStore` reopened over
//!    the recovered device answers range and point sums bit-identically
//!    to a store over the committed-prefix replica.
//!
//! Every crash point and torn-prefix length derives from a single u64
//! seed (pinned here via `AIMS_CRASH_SEED`, default 52417; ci.sh also
//! runs seeds 17 and 2029), so the whole matrix reproduces bit-for-bit.

use aims::drill::crash::{committed_prefix, replica, run, Config, Report, WriteLog};
use aims::drill::sub_seed;
use aims::dsp::dwt::dwt_full;
use aims::dsp::filters::WaveletFilter;
use aims::range_sum;
use aims::storage::cache::SharedBlockCache;
use aims::storage::device::{BlockDevice, MemDevice, RawMedia, RetryPolicy};
use aims::storage::file::{CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions};
use aims::storage::store::{block_energy, AllocKind, CoefficientStore};

const BLOCK: usize = 8;
const NB: usize = 12;
/// A small checkpoint threshold so checkpoints (and their crash points)
/// happen mid-workload, not only at close.
const CHECKPOINT_BYTES: u64 = 400;

fn seed() -> u64 {
    aims::drill::env_seed("AIMS_CRASH_SEED", 52417)
}

/// The step- and payload-picking stream: the library's splitmix64,
/// independent of the device's torn-length stream.
fn splitmix(x: u64) -> u64 {
    sub_seed(x, 1)
}

/// The workloads under test, as explicit write histories.
fn workloads(seed: u64) -> Vec<(&'static str, WriteLog)> {
    let payload = |salt: u64| -> Vec<f64> {
        (0..BLOCK).map(|i| ((splitmix(salt ^ i as u64) % 2000) as f64 - 1000.0) / 8.0).collect()
    };
    // Sequential fill, then rewrite the first half.
    let mut sequential = Vec::new();
    for b in 0..NB {
        sequential.push((b, payload(seed ^ (b as u64 + 1))));
    }
    for b in 0..NB / 2 {
        sequential.push((b, payload(seed ^ (b as u64 + 100))));
    }
    // Random rewrites: seeded block choices, repeats included.
    let mut random = Vec::new();
    for i in 0..2 * NB {
        let b = (splitmix(seed ^ (0xABC0 + i as u64)) % NB as u64) as usize;
        random.push((b, payload(seed ^ (0xDEF0 + i as u64))));
    }
    vec![("sequential", sequential), ("random", random)]
}

/// Runs the library drill on `log`: write until `crash` fires (`None` is a
/// crash-free probe), reopen, and match the committed prefix. The core
/// contract — the reopened device equals a committed prefix at or past
/// the acked frontier — is the drill's own; a violation fails the test.
fn drill(mode: DurabilityMode, log: &WriteLog, crash: Option<(u64, u64)>, label: &str) -> Report {
    let report = run(&Config {
        seed: crash.map_or(0, |(seed, _)| seed),
        mode,
        block_size: BLOCK,
        blocks: NB,
        checkpoint_bytes: CHECKPOINT_BYTES,
        log: log.clone(),
        crash_step: crash.map(|(_, step)| step),
        dir: None,
    });
    assert!(report.violations().is_empty(), "{label}: {:?}", report.violations());
    report
}

#[test]
fn crash_matrix_recovers_committed_prefix() {
    let seed = seed();
    let modes = [DurabilityMode::Always, DurabilityMode::Periodic(4), DurabilityMode::None];
    for (wname, log) in workloads(seed) {
        for mode in modes {
            // Learn the step budget from a crash-free run.
            let probe = drill(mode, &log, None, "probe");
            assert_eq!(probe.completed, log.len());
            if mode == DurabilityMode::Always {
                assert_eq!(probe.durable_lsn, log.len() as u64, "always mode acks every write");
            }
            let steps = probe.steps_taken;
            assert!(steps > 0);

            for i in 0..8u64 {
                let step = splitmix(seed ^ (i << 8) ^ steps) % steps;
                let label = format!("{wname}/{}/step {step}", mode.label());
                // The drill also holds always mode to its promise: every
                // completed write acked (at most one more, from a crash
                // inside the post-sync auto-checkpoint).
                let report = drill(mode, &log, Some((seed ^ i, step)), &label);
                assert!(report.matched_prefix.unwrap() as u64 >= report.durable_lsn, "{label}");
            }
        }
    }
}

#[test]
fn fsync_always_never_loses_an_acked_write_at_any_step() {
    let seed = seed();
    let log: WriteLog = workloads(seed).remove(0).1.into_iter().take(8).collect();
    let steps = drill(DurabilityMode::Always, &log, None, "probe").steps_taken;
    // Exhaustive: every crash-eligible step, not a sample.
    for step in 0..steps {
        let label = format!("sweep step {step}");
        let crash = Some((seed.wrapping_add(step), step));
        let report = drill(DurabilityMode::Always, &log, crash, &label);
        assert!(
            report.durable_lsn >= report.completed as u64,
            "step {step}: completed write not acked ({} < {})",
            report.durable_lsn,
            report.completed
        );
    }
}

#[test]
fn reopened_store_answers_range_sums_like_the_committed_prefix() {
    let seed = seed();
    const N: usize = 256;
    let signal: Vec<f64> =
        (0..N).map(|i| ((splitmix(seed ^ i as u64) % 1000) as f64) / 10.0 - 50.0).collect();

    // The canonical load history: a load writes staged blocks in
    // ascending order — read them back from a plain in-memory store.
    let coeffs = dwt_full(&signal, &WaveletFilter::haar());
    let plain = CoefficientStore::load(&coeffs, BLOCK, AllocKind::TreeTiling, MemDevice::new);
    let nb = plain.device().num_blocks();
    let log: WriteLog = (0..nb).map(|b| (b, plain.device().raw_payload(b))).collect();

    // A durable load of the signal in a scratch dir, dying at `crash`.
    let dir = std::env::temp_dir().join(format!("aims-crash-store-{}", std::process::id()));
    let load = |crash: CrashPlan| {
        std::fs::remove_dir_all(&dir).ok();
        let opts = FileDeviceOptions {
            mode: DurabilityMode::Periodic(4),
            checkpoint_bytes: CHECKPOINT_BYTES,
            crash,
            ..Default::default()
        };
        CoefficientStore::load(&coeffs, BLOCK, AllocKind::TreeTiling, |bs, nb| {
            FileDevice::create(&dir, bs, nb, opts).unwrap()
        })
    };
    // Learn the step budget of a full load.
    let steps = load(CrashPlan::none()).device().steps_taken();

    for i in 0..6u64 {
        let step = splitmix(seed ^ (0x5170 + i)) % steps;
        let store = load(CrashPlan::at(seed ^ i, step));
        let durable_at_crash = store.device().durable_lsn();
        assert!(store.device().is_crashed(), "step {step} must be within the load");
        drop(store);

        // Reopen the recovered device and find the committed prefix it
        // equals; then the two reopened stores must agree bit-for-bit.
        let label = format!("store load, step {step}");
        let recovered = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        let k = committed_prefix(&recovered, &log, durable_at_crash as usize, log.len())
            .unwrap_or_else(|| panic!("{label}: no committed prefix matches"));
        // Both stores reopen with the catalog of that prefix, built here
        // from its payloads: the last write of a block wins, and a block
        // never written holds zeros.
        let mut catalog = vec![0.0; nb];
        for (b, payload) in &log[..k] {
            catalog[*b] = block_energy(payload);
        }
        let recovered =
            CoefficientStore::reopen(recovered, AllocKind::TreeTiling, N, catalog.clone()).unwrap();
        let reference = replica(&log[..k], BLOCK, nb);
        let reference =
            CoefficientStore::reopen(reference, AllocKind::TreeTiling, N, catalog).unwrap();

        let p1 = SharedBlockCache::new(16);
        let p2 = SharedBlockCache::new(16);
        // A point value at `t` is the range sum over [t, t].
        let points = [0usize, 100, N - 1].map(|t| (t, t));
        for (a, b) in [(0usize, N - 1), (7, 200), (64, 130), (31, 32)].into_iter().chain(points) {
            let x = range_sum(&recovered, a, b, &p1, &RetryPolicy::none());
            let y = range_sum(&reference, a, b, &p2, &RetryPolicy::none());
            assert!(!x.degraded() && !y.degraded(), "{label}: range [{a},{b}] lost a block");
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits(), "{label}: range [{a},{b}]");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
