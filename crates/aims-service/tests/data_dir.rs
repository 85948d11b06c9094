//! `aims-serve --data`: what a start builds, what a restart reads, and the
//! directories it must not serve.

use std::io::{BufRead, BufReader};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use aims_propolyne::{Propolyne, RangeSumQuery};
use aims_service::{demo_cube, ProgressKind, QuerySpec, TcpClient};
use aims_storage::{block_energy, BlockDevice, FileDevice, FileDeviceOptions};
use aims_telemetry::Snapshot;

/// The flags of the side-512 store the kill sweep creates.
const SIDE_512: [&str; 6] = ["--side", "512", "--block", "64", "--seed", "7"];

/// A fresh scratch directory name for this test process.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aims-serve-{tag}-{}", std::process::id()))
}

/// Spawns `aims-serve --port 0 --data dir` with `args`.
fn serve_on(dir: &Path, args: &[&str], stdout: Stdio) -> Child {
    Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--port", "0", "--durability", "periodic:64", "--data", dir.to_str().unwrap()])
        .args(args)
        .stdout(stdout)
        .spawn()
        .unwrap()
}

/// Starts a server on `dir` and waits for its `listening` line. Returns
/// the running server, its port and how long it took to start.
fn listen(dir: &Path, args: &[&str]) -> (Child, u16, Duration) {
    let t0 = Instant::now();
    let mut child = serve_on(dir, args, Stdio::piped());
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let port = (&mut stdout).lines().map_while(Result::ok).find_map(|line| {
        line.strip_prefix("aims-serve listening on 127.0.0.1:").map(|p| p.parse().unwrap())
    });
    let started = t0.elapsed();
    // The pipe stays open with the child, so the server's later lines
    // (a clean shutdown's) never meet a closed pipe.
    child.stdout = Some(stdout.into_inner());
    let Some(port) = port else {
        child.wait().unwrap();
        panic!("aims-serve {args:?} on {} never listened", dir.display());
    };
    (child, port, started)
}

/// The scratch file a create stages its column pass in, beside the
/// staging main file `blocks.aims.new`.
const SPILL: &str = "blocks.aims.spill";

/// Starts a server on `dir`, waits for its `listening` line and kills it.
/// Returns how long it took to start. A listening server has published
/// its store, so neither the staging file nor the spill is left.
fn start_listening(dir: &Path, args: &[&str]) -> Duration {
    let (mut child, _, started) = listen(dir, args);
    child.kill().unwrap();
    child.wait().unwrap();
    for leftover in ["blocks.aims.new", SPILL] {
        assert!(!dir.join(leftover).exists(), "{args:?}: {leftover} survived a start");
    }
    started
}

/// Requires the store in `dir` to hold `cube` block for block, each block
/// verifying against its digest.
fn assert_whole_cube(dir: &Path, cube: &[f64], block: usize, when: &str) {
    let device = FileDevice::open(dir, FileDeviceOptions::default())
        .unwrap_or_else(|e| panic!("{when}: the store does not open: {e}"));
    let blocks = cube.chunks(block);
    assert_eq!(device.num_blocks(), blocks.len(), "{when}");
    for (b, want) in blocks.enumerate() {
        let got = device
            .read_block(b)
            .unwrap_or_else(|e| panic!("{when}: block {b} does not verify: {e:?}"));
        assert!(
            got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits()),
            "{when}: block {b} is not the cube's"
        );
    }
}

/// Runs `aims-serve --data dir` with `args`, requires exit 1 without
/// listening, and returns its stderr. A server that does listen is killed,
/// so a refusal that regresses fails instead of hanging.
fn refused(dir: &Path, args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--port", "0", "--data", dir.to_str().unwrap()])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let listened = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .any(|line| line.starts_with("aims-serve listening on "));
    if listened {
        child.kill().unwrap();
    }
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!listened, "{args:?}: the server listened");
    assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
    stderr
}

/// The energy catalog at the end of a `--data` store's header meta: a
/// block count, then one big-endian `f64` per block.
fn persisted_catalog(device: &FileDevice) -> Vec<f64> {
    let (meta, blocks) = (device.meta(), device.num_blocks());
    let (head, catalog) = meta.split_at(meta.len() - 8 * blocks);
    assert_eq!(head[head.len() - 8..], (blocks as u64).to_be_bytes());
    catalog
        .chunks_exact(8)
        .map(|e| f64::from_bits(u64::from_be_bytes(e.try_into().unwrap())))
        .collect()
}

/// A server killed at any moment of its first start leaves no store or the
/// whole cube, never a part of one: a half-loaded store would reopen with
/// its unwritten blocks' zero digests verifying and serve them as exact.
/// Every block is compared, since a whole-cube query reads only block 0.
/// After each kill the next start on the directory must come up, over
/// whatever staging file and spill the kill left, and leave neither.
#[test]
fn a_server_killed_while_creating_its_store_leaves_none_or_all_of_it() {
    let cube = demo_cube(512, 7);
    let dir = scratch("kill");
    // One uninterrupted start sizes the sweep, so the kills span the
    // column pass, the row pass with the image write, and the publish, on
    // a debug or release build.
    let full = start_listening(&dir, &SIDE_512);
    std::fs::remove_dir_all(&dir).unwrap();
    const KILLS: u32 = 16;
    for k in 0..=KILLS {
        let delay = full * k / KILLS;
        let mut child = serve_on(&dir, &SIDE_512, Stdio::null());
        std::thread::sleep(delay);
        child.kill().unwrap();
        child.wait().unwrap();
        if FileDevice::exists(&dir) {
            assert_whole_cube(&dir, cube.coeffs(), 64, &format!("killed after {delay:?}"));
        }
        start_listening(&dir, &SIDE_512);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // A directory holding only a stale staging file and a stale spill is
    // no store: the next start re-creates the cube over both.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("blocks.aims.new"), vec![0xA5; 64 * 1024]).unwrap();
    std::fs::write(dir.join(SPILL), vec![0x5A; 3 * 1024 * 1024]).unwrap();
    assert!(!FileDevice::exists(&dir));
    start_listening(&dir, &SIDE_512);
    assert_whole_cube(&dir, cube.coeffs(), 64, "re-created over a stale staging file and spill");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A streamed create writes the file the whole-cube path writes, byte for
/// byte, header meta included: `create_from` of `demo_cube`'s coefficients
/// under the meta blob built here from their energies. Block 48 straddles
/// rows and row batches.
#[test]
fn a_streamed_store_is_the_whole_cube_store_byte_for_byte() {
    for side in [16usize, 256, 1024] {
        let seed = side as u64 + 3;
        let cube = demo_cube(side, seed);
        for block in [16usize, 48, 64] {
            let (streamed, whole) =
                (scratch(&format!("streamed-{side}-{block}")), scratch("whole-cube"));
            let args = [side.to_string(), block.to_string(), seed.to_string()];
            let args = ["--side", &args[0], "--block", &args[1], "--seed", &args[2]];
            start_listening(&streamed, &args);
            let energies: Vec<f64> = cube.coeffs().chunks(block).map(block_energy).collect();
            let meta = meta_blob_for(seed, side, energies.len() as u64, &energies);
            let opts = FileDeviceOptions { meta, ..Default::default() };
            let device =
                FileDevice::create_from(&whole, block, energies.len(), cube.coeffs(), opts);
            drop(device.unwrap());
            let read = |dir: &Path| std::fs::read(dir.join("blocks.aims")).unwrap();
            assert!(read(&streamed) == read(&whole), "--side {side} --block {block}");
            std::fs::remove_dir_all(&streamed).unwrap();
            std::fs::remove_dir_all(&whole).unwrap();
        }
    }
}

/// The create path streams: a side-1024 server, whose cube alone is
/// 8 MiB, has never been resident past 6 MiB once it listens.
#[test]
fn a_side_1024_create_peaks_below_the_size_of_its_cube() {
    let dir = scratch("peak");
    let (mut child, _, _) = listen(&dir, &["--side", "1024", "--block", "64", "--seed", "3"]);
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
    child.kill().unwrap();
    child.wait().unwrap();
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .map(|v| v.trim().parse().unwrap())
        .expect("VmHWM in /proc/<pid>/status");
    assert!(kib <= 6 * 1024, "VmHWM {kib} kB once listening");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A geometry or sizing flag no server can run with is a usage error at
/// parse time: exit 2 and one line on stderr, no panic, and no data
/// directory created.
#[test]
fn a_bad_geometry_flag_is_refused_before_anything_is_created() {
    for (flag, value) in [("--side", "100"), ("--block", "0"), ("--cache", "0"), ("--queue", "0")] {
        let dir = scratch(&format!("bad{flag}"));
        let out = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
            .args(["--port", "0", "--data", dir.to_str().unwrap(), flag, value])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: stderr: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} {value}: stderr: {stderr}");
        assert!(stderr.starts_with("aims-serve: ") && stderr.contains(flag), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value}: the server started");
        assert!(!dir.exists(), "{flag} {value}: {} was created", dir.display());
    }
}

/// The energy catalog is written once, with the blocks, and is exactly
/// what reading every block back would rebuild — also for a short last
/// block, which the device zero-pads.
#[test]
fn the_persisted_catalog_is_the_energy_of_every_block_read_back() {
    for (side, block) in [("256", "64"), ("64", "48")] {
        let dir = scratch(&format!("catalog-{block}"));
        start_listening(&dir, &["--side", side, "--block", block, "--seed", "3"]);
        let device = FileDevice::open(&dir, FileDeviceOptions::default()).unwrap();
        let catalog = persisted_catalog(&device);
        assert_eq!(catalog.len(), device.num_blocks());
        for (b, &energy) in catalog.iter().enumerate() {
            let read_back = block_energy(&device.read_block(b).unwrap());
            assert_eq!(energy.to_bits(), read_back.to_bits(), "--block {block}: block {b}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A restart takes the catalog from the header: the reopened server has
/// read no block by the time it answers its first METRICS frame.
#[test]
fn a_reopened_server_reads_no_block_before_its_first_query() {
    let dir = scratch("no-reads");
    let args = ["--side", "256", "--block", "64", "--seed", "3"];
    start_listening(&dir, &args);
    let (mut child, port, _) = listen(&dir, &args);
    let mut client = TcpClient::connect(("127.0.0.1", port)).unwrap();
    let metrics = Snapshot::from_json_lines(&client.metrics().unwrap()).unwrap();
    client.shutdown_server().unwrap();
    assert!(child.wait().unwrap().success());
    assert_eq!(metrics.counter("storage.device.reads"), 0);
    assert_eq!(metrics.counter("storage.wal.replayed"), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Corruption is found by the query that reads it, not at startup: a store
/// with one damaged payload byte still serves. A query whose plan holds the
/// damaged block ends with a bound that covers the exact sum, priced from
/// the catalog written at create; a query that misses it is exact.
#[test]
fn a_damaged_block_degrades_the_queries_that_read_it_and_no_others() {
    const BLOCK: usize = 16;
    let (side, seed) = (64usize, 7u64);
    let dir = scratch("damaged");
    let args = ["--side", "64", "--block", "16", "--seed", "7"];
    start_listening(&dir, &args);

    let engine = Propolyne::new(demo_cube(side, seed));
    let plan = |ranges: &[(usize, usize)]| -> Vec<usize> {
        let prepared = engine.prepare(&RangeSumQuery::count(ranges.to_vec()));
        let mut blocks: Vec<usize> = prepared.indices.iter().map(|&i| i / BLOCK).collect();
        blocks.dedup();
        blocks
    };
    let (hit, miss) = (vec![(5, 40), (3, 17)], vec![(0, 63), (0, 63)]);
    let damaged = *plan(&hit).last().unwrap();
    assert!(!plan(&miss).contains(&damaged), "the missing query must not plan block {damaged}");

    // Flip one byte of the block's payload: past the header (30 fixed bytes,
    // the meta blob, an 8-byte checksum) and the table of one digest a block.
    let main = std::fs::OpenOptions::new().read(true).write(true).open(dir.join("blocks.aims"));
    let main = main.unwrap();
    let mut word = [0u8; 4];
    main.read_exact_at(&mut word, 26).unwrap();
    let header = 38 + u64::from(u32::from_be_bytes(word));
    let blocks = (side * side).div_ceil(BLOCK) as u64;
    let at = header + 8 * blocks + (damaged * BLOCK * 8) as u64 + 3;
    let mut byte = [0u8];
    main.read_exact_at(&mut byte, at).unwrap();
    main.write_all_at(&[byte[0] ^ 0x10], at).unwrap();
    drop(main);

    // The demo cube's cells (`demo_cube`): one xorshift stream, row-major.
    let mut state = seed;
    let cells: Vec<f64> = (0..side * side)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 9) as f64
        })
        .collect();
    let truth = |r: &[(usize, usize)]| -> f64 {
        (r[0].0..=r[0].1)
            .flat_map(|i| (r[1].0..=r[1].1).map(move |j| (i, j)))
            .map(|(i, j)| cells[i * side + j])
            .sum()
    };

    let (mut child, port, _) = listen(&dir, &args);
    let mut client = TcpClient::connect(("127.0.0.1", port)).unwrap();
    let run = |client: &mut TcpClient, id, ranges: &Vec<(usize, usize)>| {
        let out = client.run_query(id, &QuerySpec::interactive(ranges.clone())).unwrap();
        assert_eq!(out.kind, ProgressKind::Done, "{ranges:?}");
        out.last.unwrap()
    };
    let exact = truth(&hit);
    let clean = engine.evaluate_prepared(&engine.prepare(&RangeSumQuery::count(hit.clone())));
    assert_eq!(clean.round(), exact, "the cells must be the served cube's");
    let got = run(&mut client, 1, &hit);
    assert!(got.error_bound > 0.0, "a query over block {damaged} must end degraded");
    assert!(
        (got.estimate - exact).abs() <= got.error_bound,
        "|{} − {exact}| > {}",
        got.estimate,
        got.error_bound
    );
    let got = run(&mut client, 2, &miss);
    let clean = engine.evaluate_prepared(&engine.prepare(&RangeSumQuery::count(miss.clone())));
    assert_eq!(got.estimate.to_bits(), clean.to_bits());
    assert_eq!(got.error_bound, 0.0);
    client.shutdown_server().unwrap();
    assert!(child.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--side`, `--block` and `--seed` may be omitted on a restart, which then
/// serves whatever store is there; one that is given and differs from the
/// store is refused, naming both values, instead of being dropped.
#[test]
fn a_restart_with_a_mismatched_geometry_flag_is_refused() {
    let dir = scratch("mismatch");
    let args = ["--side", "16", "--block", "8", "--seed", "5"];
    start_listening(&dir, &args);
    for (flag, wrong, names) in
        [("--seed", "9", "seed 5"), ("--side", "32", "dims [16, 16]"), ("--block", "16", "block 8")]
    {
        let stderr = refused(&dir, &[flag, wrong]);
        assert!(stderr.contains(&format!("{flag} {wrong}")) && stderr.contains(names), "{stderr}");
    }
    start_listening(&dir, &[]);
    start_listening(&dir, &args);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A store written by an older block format — version 1 (another digest)
/// or version 2 (a digest beside each payload, no checksum table) — is
/// refused at open with the typed error, never re-checksummed or served.
#[test]
fn a_version_1_data_directory_is_refused() {
    for version in [1u16, 2] {
        let dir = scratch(&format!("v{version}"));
        FileDevice::create(&dir, 4, 2, FileDeviceOptions::default()).unwrap();
        let main = std::fs::OpenOptions::new().write(true).open(dir.join("blocks.aims")).unwrap();
        main.write_all_at(&version.to_be_bytes(), 8).unwrap(); // the header's version field
        drop(main);

        let stderr = refused(&dir, &[]);
        assert!(stderr.contains("unsupported main block file version"), "stderr: {stderr}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A `--data` directory that cannot be created is a startup error like any
/// other — a message and exit code 1, not a panic — and the server never
/// listens.
#[test]
fn an_uncreatable_data_directory_is_a_startup_error() {
    let file = scratch("file");
    std::fs::write(&file, b"a regular file").unwrap();
    let stderr = refused(&file.join("sub"), &["--side", "8", "--block", "4"]);
    assert!(stderr.contains("aims-serve: create"), "stderr: {stderr}");
    std::fs::remove_file(&file).unwrap();
}

/// A `--data` header meta blob: the format tag and version, seed 5, dims
/// 8 × 8, Db4, then a catalog `count` and `energies`. With 16 zero energies
/// it describes the all-zero 16-block store of 4-item blocks.
fn meta_blob(count: u64, energies: &[f64]) -> Vec<u8> {
    meta_blob_for(5, 8, count, energies)
}

/// [`meta_blob`] of a `side` × `side` demo cube from `seed`.
fn meta_blob_for(seed: u64, side: usize, count: u64, energies: &[f64]) -> Vec<u8> {
    let mut out = [b"AIMC".as_slice(), &1u16.to_be_bytes(), &seed.to_be_bytes()].concat();
    out.extend_from_slice(&2u32.to_be_bytes());
    out.extend_from_slice(&[(side as u64).to_be_bytes(), (side as u64).to_be_bytes()].concat());
    out.extend_from_slice(&[3u32.to_be_bytes().as_slice(), b"db4"].concat());
    out.extend_from_slice(&count.to_be_bytes());
    energies.iter().for_each(|e| out.extend_from_slice(&e.to_bits().to_be_bytes()));
    out
}

/// A header meta blob is outside input even under a well-formed digest, and
/// the catalog in it is believed in place of the blocks: each blob below is
/// refused before anything is allocated with, or priced from, what it
/// claims, and the server never listens. The well-formed blob itself
/// serves.
#[test]
fn a_hostile_meta_blob_is_refused_before_it_is_believed() {
    let dir = scratch("meta");
    let zeros = [0.0; 16];
    let with = |b: usize, e: f64| {
        let mut energies = zeros;
        energies[b] = e;
        meta_blob(16, &energies)
    };
    let prefix = [b"AIMC".as_slice(), &1u16.to_be_bytes(), &5u64.to_be_bytes()].concat();
    let parent_era = [&2u32.to_be_bytes()[..], &8u64.to_be_bytes(), &8u64.to_be_bytes()].concat();
    let cases = [
        ([prefix, u32::MAX.to_be_bytes().to_vec(), vec![0; 12]].concat(), "truncated meta"),
        (
            [parent_era, 3u32.to_be_bytes().to_vec(), b"db4".to_vec()].concat(),
            "predates the persisted energy catalog; delete the directory",
        ),
        (meta_blob(u64::MAX, &zeros), "truncated meta"),
        (meta_blob(15, &zeros[1..]), "15 entries for 16 blocks"),
        (with(3, f64::NAN), "entry 3 is NaN"),
        (with(5, -1.0), "entry 5 is -1"),
    ];
    let create = |meta: Vec<u8>| {
        std::fs::remove_dir_all(&dir).ok();
        FileDevice::create(&dir, 4, 16, FileDeviceOptions { meta, ..Default::default() }).unwrap()
    };
    for (meta, reason) in cases {
        drop(create(meta));
        let stderr = refused(&dir, &[]);
        assert!(stderr.contains(reason), "want {reason:?}, stderr: {stderr}");
    }
    // A flipped catalog byte breaks the header checksum.
    drop(create(meta_blob(16, &zeros)));
    let main = std::fs::OpenOptions::new().write(true).open(dir.join("blocks.aims")).unwrap();
    main.write_all_at(&[0x01], 30 + meta_blob(16, &zeros).len() as u64 - 1).unwrap();
    drop(main);
    assert!(refused(&dir, &[]).contains("header checksum mismatch"));

    // A block written after create makes the catalog stale: a store whose
    // recovery replays it is refused.
    let mut device = create(meta_blob(16, &zeros));
    device.write_block(0, &[1.0; 4]);
    drop(device);
    assert!(refused(&dir, &[]).contains("replayed 1 records"));

    // The well-formed blob over its all-zero blocks serves.
    drop(create(meta_blob(16, &zeros)));
    start_listening(&dir, &[]);
    std::fs::remove_dir_all(&dir).unwrap();
}
