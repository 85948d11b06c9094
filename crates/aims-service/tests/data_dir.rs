//! `aims-serve --data` against a directory it must not serve.

use std::os::unix::fs::FileExt;
use std::process::Command;

use aims_storage::{FileDevice, FileDeviceOptions};

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
