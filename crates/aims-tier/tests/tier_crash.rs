//! Crash-matrix extension for the tiered store (rides on PR 8's seeded
//! [`CrashPlan`] machinery).
//!
//! Two sweeps under pinned seeds:
//!
//! - **Crash mid-compaction** (historical device dies at step k, for a
//!   sweep of k): on reopen, every segment whose install missed its
//!   commit point is still served **raw** — acked ingest is never
//!   replaced by a half-written wavelet form — while committed installs
//!   survive. Either way the reopened store holds every sample, and
//!   after the backlog re-drains it answers bit-identically to a
//!   single-pass oracle.
//! - **Crash mid-ingest** (hot device dies at step k): on reopen the
//!   store holds at least every sample acknowledged by a completed
//!   `sync()`, and each recovered sample reads back bit-identical.
//!
//! Reopening is lazy: recovery reads the two manifests, the raw backlog
//! and the open tail, and not one historical coefficient block — the
//! energy catalog it plans from and the full-cover partial a covering
//! query folds come out of the historical manifest, and the sweep checks
//! both bit for bit against the blocks themselves.

use std::os::unix::fs::FileExt;
use std::path::PathBuf;

use aims_dsp::filters::FilterKind;
use aims_dsp::lazy::lazy_transform;
use aims_dsp::poly::Polynomial;
use aims_exec::ThreadPool;
use aims_storage::FileDeviceOptions;
use aims_storage::{block_energy, BlockDevice, CrashPlan, DurabilityMode, FileDevice};
use aims_tier::{compact, range_sum, TierConfig, TierSnapshot, TieredStore};

const SEG: usize = 64;
const BLOCK: usize = 16;
const TOTAL: usize = 4 * SEG + 21;
const SEED: u64 = 0x7153;

fn cfg() -> TierConfig {
    TierConfig { segment_len: SEG, block_size: BLOCK, max_segments: 8, filter: FilterKind::Haar }
}

fn opts(crash: CrashPlan) -> FileDeviceOptions {
    FileDeviceOptions {
        mode: DurabilityMode::Always,
        crash,
        checkpoint_bytes: 1 << 20,
        ..Default::default()
    }
}

fn signal() -> Vec<f64> {
    signal_of(TOTAL)
}

fn signal_of(len: usize) -> Vec<f64> {
    let mut state = SEED;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1283) as f64 / 3.0 - 200.0
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aims-tier-crash-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// The catalog a reopened store recovered from its historical manifest
/// must be exactly what its coefficient blocks say.
fn assert_catalog_matches_blocks(snap: &TierSnapshot, what: &str) {
    for i in 0..snap.segments().len() {
        let Some(catalog) = snap.block_energies(i) else { continue };
        assert_eq!(catalog.len(), SEG / BLOCK);
        for (b, recovered) in catalog.iter().enumerate() {
            let block = snap.hist_block(i, b).expect("historical segment").expect("readable block");
            assert_eq!(
                recovered.to_bits(),
                block_energy(&block).to_bits(),
                "{what}: segment {i} block {b} energy"
            );
        }
    }
}

/// The full-cover partial a reopened store recovered from its historical
/// manifest must be the one its block 0 folds to: `Σ w·c` over the whole
/// segment's COUNT entries, in ascending index order, into a segment
/// partial.
fn assert_partials_match_block_0(snap: &TierSnapshot, what: &str) {
    let count = Polynomial::constant(1.0);
    let full_cover = lazy_transform(SEG, 0, SEG - 1, &count, &cfg().filter.filter()).nonzeros(0.0);
    assert!(full_cover.iter().all(|&(i, _)| i < BLOCK), "the full cover sits in block 0");
    for i in 0..snap.segments().len() {
        let Some(recovered) = snap.full_cover_partial(i) else { continue };
        let block = snap.hist_block(i, 0).expect("historical segment").expect("readable block");
        let mut partial = 0.0;
        for &(k, w) in &full_cover {
            partial += w * block[k];
        }
        let mut seg = 0.0;
        seg += partial;
        assert_eq!(recovered.to_bits(), seg.to_bits(), "{what}: segment {i} full-cover partial");
    }
}

/// The serial single-pass oracle every recovered store must converge to.
fn oracle_snapshot() -> TierSnapshot {
    let oracle = TieredStore::new_mem(cfg());
    oracle.push_slice(&signal());
    oracle.seal_open();
    compact::drain(&oracle, &ThreadPool::new(1));
    oracle.snapshot()
}

#[test]
fn crash_mid_compaction_keeps_raw_segments() {
    let data = signal();
    let serial = ThreadPool::new(1);
    let osnap = oracle_snapshot();
    let mut kept_raw_cases = 0usize;
    let mut committed_cases = 0usize;

    // Step 82 falls between the two manifest blocks that segment 4's slot
    // straddles (its catalog in block 1, its partial and flag in block 2):
    // the flag must not be recovered without them.
    for step in (0..60u64).step_by(3).chain([82]) {
        let dir = fresh_dir(&format!("hist-{step}"));
        // Phase 1: ingest cleanly (no crash armed), seal everything.
        {
            let store = TieredStore::create_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
            store.push_slice(&data);
            store.seal_open();
            drop(store);
        }
        // Phase 2: reopen with the historical device armed; compact until
        // the device dies (or the backlog drains).
        {
            let store = TieredStore::open_durable_with(
                &dir,
                cfg(),
                opts(CrashPlan::none()),
                opts(CrashPlan::at(SEED, step)),
            )
            .unwrap();
            compact::drain(&store, &serial);
            drop(store);
        }
        // Phase 3: reopen clean; acked ingest must be intact.
        let store = TieredStore::open_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
        assert_eq!(store.len(), TOTAL, "step {step}: samples lost across crash");
        let snap = store.snapshot();
        let raw = snap.segments().iter().filter(|s| !s.historical).count();
        let hist = snap.segments().len() - raw;
        if raw > 0 {
            kept_raw_cases += 1;
        }
        if hist > 0 {
            committed_cases += 1;
        }
        assert_catalog_matches_blocks(&snap, &format!("step {step}"));
        assert_partials_match_block_0(&snap, &format!("step {step}"));
        // Every recovered sample is still queryable and correct: raw
        // segments answer exactly, so spot-check points bit-identically.
        for &t in &[0usize, SEG - 1, SEG, TOTAL - 1] {
            let got = range_sum(&snap, t, t);
            if snap.segments().iter().any(|s| t >= s.start && t < s.start + s.len && !s.historical)
            {
                assert_eq!(got.to_bits(), data[t].to_bits(), "step {step}: raw point {t}");
            } else {
                let want = range_sum(&osnap, t, t);
                assert_eq!(got.to_bits(), want.to_bits(), "step {step}: hist point {t}");
            }
        }
        // Re-drain and demand oracle bit-identity.
        compact::drain(&store, &serial);
        let snap = store.snapshot();
        assert!(snap.segments().iter().all(|s| s.historical));
        for (a, b) in [(0, TOTAL - 1), (SEG / 2, 3 * SEG), (0, 0)] {
            let got = range_sum(&snap, a, b);
            let want = range_sum(&osnap, a, b);
            assert_eq!(got.to_bits(), want.to_bits(), "step {step}: range [{a}, {b}]");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
    // The sweep must exercise both sides of the commit point.
    assert!(kept_raw_cases > 0, "sweep never crashed before an install commit");
    assert!(committed_cases > 0, "sweep never let an install commit");
}

#[test]
fn crash_mid_ingest_preserves_acked_samples() {
    let data = signal();

    for step in [5u64, 11, 23, 41, 67, 101] {
        let dir = fresh_dir(&format!("hot-{step}"));
        {
            let store = TieredStore::create_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
            store.sync();
            drop(store);
        }
        // Reopen with the hot device armed; push with periodic syncs and
        // track the acknowledged frontier (samples covered by the last
        // sync that completed before the crash).
        let mut acked = 0usize;
        {
            let store = TieredStore::open_durable_with(
                &dir,
                cfg(),
                opts(CrashPlan::at(SEED ^ step, step)),
                opts(CrashPlan::none()),
            )
            .unwrap();
            let mut pushed = 0usize;
            for chunk in data.chunks(17) {
                store.push_slice(chunk);
                pushed += chunk.len();
                store.sync();
                if store.devices_crashed().0 {
                    break;
                }
                acked = pushed;
            }
            drop(store);
        }
        // Recovery: everything acked survives, bit-identical.
        let store = TieredStore::open_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
        let recovered = store.len();
        assert!(recovered >= acked, "step {step}: recovered {recovered} samples < acked {acked}");
        let snap = store.snapshot();
        for t in (0..acked).step_by(29).chain(acked.checked_sub(1)) {
            let got = range_sum(&snap, t, t);
            assert_eq!(got.to_bits(), data[t].to_bits(), "step {step}: point {t}");
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn reopen_reads_manifests_and_backlog_only() {
    let data = signal();
    let serial = ThreadPool::new(1);
    let dir = fresh_dir("lazy");
    let installed = 3;
    {
        let store = TieredStore::create_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
        store.push_slice(&data);
        assert_eq!(compact::run_once(&store, &serial, installed), installed);
        store.sync();
        store.checkpoint();
    }
    let store = TieredStore::open_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
    let stats = store.stats();
    assert_eq!((stats.historical, stats.sealed_raw, stats.open_len), (installed, 1, 21));
    // `hot_block(0)` / `hist_block(0)` are where data starts: the size of
    // each manifest. The backlog is one full segment and a 21-sample tail.
    let (hot, hist) = store.device_stats();
    let backlog_blocks = (SEG / BLOCK + 21usize.div_ceil(BLOCK)) as u64;
    assert!(hot.reads <= cfg().hot_block(0) as u64 + backlog_blocks, "hot reads {}", hot.reads);
    assert!(hist.reads <= cfg().hist_block(0) as u64, "hist reads {}", hist.reads);
    // The lazily opened store still answers like the oracle once drained.
    assert_catalog_matches_blocks(&store.snapshot(), "lazy reopen");
    compact::run_once(&store, &serial, 1);
    let (snap, osnap) = (store.snapshot(), oracle_snapshot());
    for (a, b) in [(0, 4 * SEG - 1), (SEG / 2, 3 * SEG), (7, 7)] {
        let got = range_sum(&snap, a, b);
        let want = range_sum(&osnap, a, b);
        assert_eq!(got.to_bits(), want.to_bits(), "range [{a}, {b}]");
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// A hot block that fails its checksum on reopen is disk damage: the reopen
/// returns `InvalidData` naming the device, the slot and the device block,
/// instead of panicking.
#[test]
fn reopen_reports_a_damaged_hot_block() {
    let dir = fresh_dir("damaged");
    {
        let store = TieredStore::create_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
        store.push_slice(&signal_of(100));
        store.sync();
        store.checkpoint();
    }
    // Flip one payload byte of the open tail's first block. The main file
    // ends with the payload region: one `BLOCK × 8`-byte image per block.
    let main = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(dir.join("hot").join("blocks.aims"))
        .unwrap();
    let payloads = main.metadata().unwrap().len() - (cfg().hot_device_blocks() * BLOCK * 8) as u64;
    let victim = cfg().hot_block(1);
    let at = payloads + (victim * BLOCK * 8) as u64 + 3;
    let mut byte = [0u8];
    main.read_exact_at(&mut byte, at).unwrap();
    main.write_all_at(&[byte[0] ^ 0x10], at).unwrap();
    drop(main);

    let Err(e) = TieredStore::open_durable(&dir, cfg(), opts(CrashPlan::none())) else {
        panic!("a store with a corrupt hot block reopened");
    };
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    for part in ["hot device", "slot 1", &format!("block {victim}")] {
        assert!(e.to_string().contains(part), "the error must name {part:?}: {e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every slot offset is computed from the caller's config, so a store
/// reopened under another `max_segments` would fold checksum-valid
/// blocks of the wrong segments: the reopen must refuse, and the creating
/// config must still answer exactly as before the close.
#[test]
fn reopen_refuses_a_config_the_store_was_not_created_with() {
    let created = TierConfig {
        segment_len: 4096,
        block_size: 256,
        max_segments: 8,
        filter: FilterKind::Haar,
    };
    let data = signal_of(5 * 4096 + 100);
    let serial = ThreadPool::new(1);
    let ranges = [(0, data.len() - 1), (4096 + 17, 3 * 4096 + 5), (5 * 4096, 5 * 4096 + 99)];
    let answers = |store: &TieredStore<_>| -> Vec<u64> {
        let snap = store.snapshot();
        ranges.iter().map(|&(a, b)| range_sum(&snap, a, b).to_bits()).collect()
    };
    let dir = fresh_dir("geometry");
    let before = {
        let store = TieredStore::create_durable(&dir, created, opts(CrashPlan::none())).unwrap();
        store.push_slice(&data);
        assert_eq!(compact::run_once(&store, &serial, 8), 5);
        store.sync();
        store.checkpoint();
        answers(&store)
    };

    for (other, field) in [
        (TierConfig { max_segments: 64, ..created }, "max_segments"),
        (TierConfig { segment_len: 2048, ..created }, "segment_len"),
        (TierConfig { block_size: 128, ..created }, "block_size"),
    ] {
        let Err(e) = TieredStore::open_durable(&dir, other, opts(CrashPlan::none())) else {
            panic!("a store created with {created:?} reopened under {other:?}");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{field}: {e}");
        assert!(e.to_string().contains(field), "the error must name {field}: {e}");
    }

    let store = TieredStore::open_durable(&dir, created, opts(CrashPlan::none())).unwrap();
    assert_eq!(store.len(), data.len());
    assert_eq!(answers(&store), before, "the creating config answers as before the close");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The historical manifest's layout before each slot carried its full-cover
/// partial (`[energy…, installed]`, magic `AIMSHST1`) has no migration: a
/// store written under it is refused by name, not read under the wrong
/// stride.
#[test]
fn reopen_refuses_the_previous_hist_manifest_layout() {
    let dir = fresh_dir("layout");
    {
        let store = TieredStore::create_durable(&dir, cfg(), opts(CrashPlan::none())).unwrap();
        store.push_slice(&signal());
        compact::run_once(&store, &ThreadPool::new(1), 2);
        store.checkpoint();
    }
    {
        let mut hist = FileDevice::open(dir.join("hist"), opts(CrashPlan::none())).unwrap();
        let mut header = hist.read_block(0).unwrap();
        header[0] = f64::from_bits(u64::from_be_bytes(*b"AIMSHST1"));
        hist.write_block(0, &header);
        hist.checkpoint();
    }
    let Err(e) = TieredStore::open_durable(&dir, cfg(), opts(CrashPlan::none())) else {
        panic!("a store under the previous hist manifest layout reopened");
    };
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
    for part in ["hist device", "AIMSHST1", "AIMSHST2", "delete the directory"] {
        assert!(e.to_string().contains(part), "the error must name {part:?}: {e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
