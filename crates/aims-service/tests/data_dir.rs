//! `aims-serve --data` against a directory it must not serve.

use std::os::unix::fs::FileExt;
use std::process::Command;

use aims_storage::{FileDevice, FileDeviceOptions};

/// A store written by the version-1 block format (another digest) is
/// refused at open with the typed error — never re-checksummed or served.
#[test]
fn a_version_1_data_directory_is_refused() {
    let dir = std::env::temp_dir().join(format!("aims-serve-v1-{}", std::process::id()));
    FileDevice::create(&dir, 4, 2, FileDeviceOptions::default()).unwrap();
    let main = std::fs::OpenOptions::new().write(true).open(dir.join("blocks.aims")).unwrap();
    main.write_all_at(&1u16.to_be_bytes(), 8).unwrap(); // the header's version field
    drop(main);

    let out = Command::new(env!("CARGO_BIN_EXE_aims-serve"))
        .args(["--data", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unsupported main block file version"), "stderr: {stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("listening"));
    std::fs::remove_dir_all(&dir).unwrap();
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
