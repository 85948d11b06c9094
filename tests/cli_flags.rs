//! `aims-cli` takes only the flags a verb names: anything else is a usage
//! error (exit 2), never a silently ignored typo that runs the defaults.

use std::process::{Command, Output};

fn aims_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_aims-cli")).args(args).output().expect("run aims-cli")
}

fn assert_usage_error(args: &[&str], says: &str) {
    let out = aims_cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(says) && stderr.contains("usage: aims-cli"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn a_misspelt_flag_is_a_usage_error_not_a_default() {
    assert_usage_error(&["faults", "--rates", "0.9", "--kind", "dead"], "unknown flag --rates");
    // A flag another verb takes is still foreign to this one.
    assert_usage_error(&["kernels", "--side", "64", "--format", "json"], "unknown flag --format");
    assert_usage_error(&["tiers", "--dropout", "0.1"], "unknown flag --dropout");
    assert_usage_error(&["no-such-verb"], "");
}

#[test]
fn a_verbs_own_flags_still_run() {
    let path = std::env::temp_dir().join(format!("aims-cli-flags-{}.csv", std::process::id()));
    let out =
        aims_cli(&["generate", "--seconds", "0.5", "--seed", "3", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("wrote "));
    std::fs::remove_file(&path).ok();
}
