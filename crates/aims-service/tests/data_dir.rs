//! `aims-serve --data` against a directory it must not serve.

use std::io::{BufRead, BufReader};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use aims_service::demo_cube;
use aims_storage::{BlockDevice, FileDevice, FileDeviceOptions};

/// Spawns `aims-serve --data dir` over a side-512 cube in 64-item blocks.
fn serve_on(dir: &Path, stdout: Stdio) -> std::process::Child {
    Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--port", "0", "--side", "512", "--block", "64", "--seed", "7"])
        .args(["--durability", "periodic:64", "--data", dir.to_str().unwrap()])
        .stdout(stdout)
        .spawn()
        .unwrap()
}

/// Starts a server on `dir`, waits for its `listening` line and kills it.
/// Returns how long it took to start.
fn start_listening(dir: &Path) -> Duration {
    let t0 = Instant::now();
    let mut child = serve_on(dir, Stdio::piped());
    let listening = BufReader::new(child.stdout.take().unwrap())
        .lines()
        .map_while(Result::ok)
        .any(|line| line.starts_with("aims-serve listening on "));
    let started = t0.elapsed();
    child.kill().unwrap();
    child.wait().unwrap();
    assert!(listening, "aims-serve on {} never listened", dir.display());
    started
}

/// A server killed at any moment of its first start leaves no store or the
/// whole cube, never a part of one: a half-loaded store would reopen with
/// its unwritten blocks' zero digests verifying and serve them as exact.
/// Every block is compared, since a whole-cube query reads only block 0.
/// After each kill the next start on the directory must come up.
#[test]
fn a_server_killed_while_creating_its_store_leaves_none_or_all_of_it() {
    let cube = demo_cube(512, 7);
    let dir = std::env::temp_dir().join(format!("aims-serve-kill-{}", std::process::id()));
    // One uninterrupted start sizes the sweep, so the kills span cube
    // build, store creation and catalog pass on a debug or release build.
    let full = start_listening(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    const KILLS: u32 = 16;
    for k in 0..=KILLS {
        let delay = full * k / KILLS;
        let mut child = serve_on(&dir, Stdio::null());
        std::thread::sleep(delay);
        child.kill().unwrap();
        child.wait().unwrap();
        if FileDevice::exists(&dir) {
            let device = FileDevice::open(&dir, FileDeviceOptions::default())
                .unwrap_or_else(|e| panic!("killed after {delay:?}: the store does not open: {e}"));
            let blocks = cube.coeffs().chunks(64);
            assert_eq!(device.num_blocks(), blocks.len(), "killed after {delay:?}");
            for (b, want) in blocks.enumerate() {
                let got = device.read_block(b).unwrap_or_else(|e| {
                    panic!("killed after {delay:?}: block {b} does not verify: {e:?}")
                });
                assert!(
                    got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits()),
                    "killed after {delay:?}: block {b} is not the cube's"
                );
            }
        }
        start_listening(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A store written by an older block format — version 1 (another digest)
/// or version 2 (a digest beside each payload, no checksum table) — is
/// refused at open with the typed error, never re-checksummed or served.
#[test]
fn a_version_1_data_directory_is_refused() {
    for version in [1u16, 2] {
        let dir =
            std::env::temp_dir().join(format!("aims-serve-v{version}-{}", std::process::id()));
        FileDevice::create(&dir, 4, 2, FileDeviceOptions::default()).unwrap();
        let main = std::fs::OpenOptions::new().write(true).open(dir.join("blocks.aims")).unwrap();
        main.write_all_at(&version.to_be_bytes(), 8).unwrap(); // the header's version field
        drop(main);

        let out = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
            .args(["--data", dir.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "version {version}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unsupported main block file version"), "stderr: {stderr}");
        assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A `--data` directory that cannot be created is a startup error like any
/// other — a message and exit code 1, not a panic — and the server never
/// listens.
#[test]
fn an_uncreatable_data_directory_is_a_startup_error() {
    let file = std::env::temp_dir().join(format!("aims-serve-file-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--side", "8", "--block", "4", "--data", file.join("sub").to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("aims-serve: create"), "stderr: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));
    std::fs::remove_file(&file).unwrap();
}

/// A header meta blob is outside input even under a well-formed digest: one
/// that claims `u32::MAX` dimensions is refused as truncated — not trusted
/// with an allocation — and the server never listens.
#[test]
fn a_hostile_meta_blob_is_refused_before_it_is_believed() {
    let dir = std::env::temp_dir().join(format!("aims-serve-meta-{}", std::process::id()));
    let meta = [u32::MAX.to_be_bytes().as_slice(), &[0; 12]].concat();
    FileDevice::create(&dir, 4, 2, FileDeviceOptions { meta, ..Default::default() }).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--data", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated meta"), "stderr: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));
    std::fs::remove_dir_all(&dir).unwrap();
}
