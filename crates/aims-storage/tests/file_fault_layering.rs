//! Regression: [`FaultyDevice`] layered over a *recovered* [`FileDevice`]
//! behaves exactly as over a [`MemDevice`] holding the same content — the
//! fault schedule is a pure function of (seed, block, attempt), so media
//! faults injected after WAL recovery must surface the same errors, heal
//! under the same retries, and flag the same corruption.

use aims_storage::cache::SharedBlockCache;
use aims_storage::device::RetryPolicy;
use aims_storage::faults::{FaultKind, FaultPlan, FaultyDevice};
use aims_storage::{
    BlockDevice, CrashPlan, DurabilityMode, FileDevice, FileDeviceOptions, MemDevice, RawMedia,
    ReadErrorKind,
};

const BLOCK: usize = 8;
const NUM_BLOCKS: usize = 10;

fn test_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("aims-layer-{}-{tag}-{n}", std::process::id()))
}

fn payload(b: usize) -> Vec<f64> {
    (0..BLOCK).map(|i| (b * 31 + i) as f64 * 0.5 - 7.0).collect()
}

/// Writes every block, crashes the device at `crash_step`, and reopens it
/// so recovery runs. Returns the recovered device plus a MemDevice
/// replica rebuilt from the same recovered prefix.
fn recovered_pair(tag: &str, crash_step: u64) -> (FileDevice, MemDevice) {
    let dir = test_dir(tag);
    let opts = |crash| FileDeviceOptions {
        mode: DurabilityMode::Always,
        crash,
        checkpoint_bytes: 1 << 20,
        ..Default::default()
    };
    let mut device =
        FileDevice::create(&dir, BLOCK, NUM_BLOCKS, opts(CrashPlan::at(99, crash_step))).unwrap();
    for b in 0..NUM_BLOCKS {
        device.write_block(b, &payload(b));
    }
    drop(device);
    let device = FileDevice::open(&dir, opts(CrashPlan::none())).unwrap();
    let recovered = device.recovery().recovered_lsn as usize;
    assert!(recovered > 0 && recovered < NUM_BLOCKS, "crash must land mid-workload");
    let mut replica = MemDevice::new(BLOCK, NUM_BLOCKS);
    for b in 0..recovered {
        replica.write_block(b, &payload(b));
    }
    (device, replica)
}

/// A media bit flip landing *after* recovery is caught by the read-time
/// checksum on the durable store exactly as on memory: same error, same
/// (futile) retries, same telemetry-visible degradation.
#[test]
fn post_recovery_bit_flips_are_caught_by_read_checksums() {
    let (mut file, mut mem) = recovered_pair("flip", 7);
    let mut corrupt = payload(0);
    corrupt[3] = f64::from_bits(corrupt[3].to_bits() ^ (1 << 17));
    file.patch_raw(0, &corrupt);
    mem.patch_raw(0, &corrupt);

    let faulty_file = FaultyDevice::new(file, FaultPlan::none(11));
    let faulty_mem = FaultyDevice::new(mem, FaultPlan::none(11));
    let ef = faulty_file.read_block(0).unwrap_err();
    let em = faulty_mem.read_block(0).unwrap_err();
    assert_eq!(ef, em);
    assert_eq!(ef.kind, ReadErrorKind::Corrupt);

    // Persistent corruption: retries cannot heal it on either medium.
    let policy = RetryPolicy::with_retries(3);
    let p1 = SharedBlockCache::new(4);
    let p2 = SharedBlockCache::new(4);
    let rf = p1.get_or_read_outcome(&faulty_file, 0, &policy).unwrap_err();
    let rm = p2.get_or_read_outcome(&faulty_mem, 0, &policy).unwrap_err();
    assert_eq!(rf, rm);
    assert_eq!(p1.stats(), p2.stats());

    // Uncorrupted blocks still read back bit-identically.
    for b in 1..faulty_file.num_blocks() {
        match (faulty_file.read_block(b), faulty_mem.read_block(b)) {
            (Ok(a), Ok(c)) => assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            ),
            (ra, rc) => assert_eq!(ra, rc),
        }
    }
}

/// Seeded transient faults (read errors + in-flight bit flips) produce
/// the same per-attempt outcomes over the recovered file store as over
/// memory, and heal under the same retry budget.
#[test]
fn transient_faults_match_mem_device_attempt_for_attempt() {
    let (file, mem) = recovered_pair("transient", 9);
    let mut plan = FaultPlan::none(4242);
    plan.read_error_rate = 0.35;
    plan.bit_flip_rate = 0.25;
    let faulty_file = FaultyDevice::new(file, plan.clone());
    let faulty_mem = FaultyDevice::new(mem, plan);

    // Attempt-for-attempt parity: errors, corruption and clean payloads
    // line up exactly because both wrappers share one attempt history.
    for b in 0..NUM_BLOCKS {
        for _ in 0..6 {
            match (faulty_file.read_block(b), faulty_mem.read_block(b)) {
                (Ok(a), Ok(c)) => assert_eq!(
                    a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    c.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "block {b}"
                ),
                (ra, rc) => assert_eq!(ra, rc, "block {b}"),
            }
        }
    }

    // A generous retry budget heals every transient fault on both media.
    let policy = RetryPolicy::with_retries(64);
    let p1 = SharedBlockCache::new(NUM_BLOCKS);
    let p2 = SharedBlockCache::new(NUM_BLOCKS);
    for b in 0..NUM_BLOCKS {
        let (a, _) = p1.get_or_read_outcome(&faulty_file, b, &policy).unwrap();
        let (c, _) = p2.get_or_read_outcome(&faulty_mem, b, &policy).unwrap();
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
    assert_eq!(p1.stats(), p2.stats());
}

/// Dead blocks are a pure function of the seed: the same blocks die over
/// the recovered file store, fail immediately, and no retry helps.
#[test]
fn dead_blocks_fail_identically_over_both_media() {
    let (file, mem) = recovered_pair("dead", 11);
    let plan = FaultPlan::uniform(777, FaultKind::DeadBlock, 0.3);
    let faulty_file = FaultyDevice::new(file, plan.clone());
    let faulty_mem = FaultyDevice::new(mem, plan);
    let mut saw_dead = false;
    for b in 0..NUM_BLOCKS {
        assert_eq!(faulty_file.is_dead(b), faulty_mem.is_dead(b));
        if faulty_file.is_dead(b) {
            saw_dead = true;
            let e = faulty_file.read_block(b).unwrap_err();
            assert_eq!(e.kind, ReadErrorKind::Dead);
            assert_eq!(faulty_mem.read_block(b).unwrap_err(), e);
        }
    }
    assert!(saw_dead, "dead fraction 0.3 over 10 blocks should kill at least one");
}
