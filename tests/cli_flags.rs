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

#[test]
fn a_recording_shorter_than_a_sampling_window_ingests() {
    let path = std::env::temp_dir().join(format!("aims-cli-short-{}.csv", std::process::id()));
    let csv = path.to_str().unwrap();
    let out = aims_cli(&["generate", "--seconds", "0.1", "--out", csv]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("10 frames"));
    let out = aims_cli(&["ingest", "--input", csv]);
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("ingested 10 frames"));
}

#[test]
fn a_recording_slower_than_the_sampling_rate_floor_ingests() {
    let path = std::env::temp_dir().join(format!("aims-cli-slow-{}.csv", std::process::id()));
    let csv = path.to_str().unwrap();
    let out = aims_cli(&["generate", "--seconds", "0.5", "--out", csv]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).unwrap();
    let (header, rows) = text.split_once('\n').unwrap();
    assert_eq!(header, "# rate=100");
    std::fs::write(&path, format!("# rate=1\n{rows}")).unwrap();
    let mut outcomes = Vec::new();
    for strategy in ["adaptive", "fixed", "modified-fixed", "grouped"] {
        outcomes.push((strategy, aims_cli(&["ingest", "--input", csv, "--strategy", strategy])));
    }
    std::fs::remove_file(&path).ok();
    for (strategy, out) in outcomes {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "--strategy {strategy}: {stderr}");
        assert!(
            String::from_utf8_lossy(&out.stdout).starts_with("ingested 50 frames"),
            "{strategy}"
        );
    }
}

#[test]
fn a_malformed_recording_is_refused_with_its_line_not_a_panic() {
    let path = std::env::temp_dir().join(format!("aims-cli-bad-{}.csv", std::process::id()));
    let csv = path.to_str().unwrap();
    let cases = [
        ("# rate=0\na,b\n1,2\n", "line 1: rate '0'"),
        ("# rate=nan\na,b\n1,2\n", "line 1: rate 'nan'"),
        ("# rate=inf\na,b\n1,2\n", "line 1: rate 'inf'"),
        ("# rate=10\na,b\n1,2\n3,NaN\n", "line 4: 'NaN'"),
        ("# rate=10\na,b\n", "no data rows"),
    ];
    let mut outcomes = Vec::new();
    for (text, says) in cases {
        std::fs::write(&path, text).unwrap();
        outcomes.push((text, says, aims_cli(&["ingest", "--input", csv])));
    }
    std::fs::remove_file(&path).ok();
    for (text, says, out) in outcomes {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text:?}: {stderr}");
        assert!(stderr.contains(says), "{text:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{text:?} ran: {}", String::from_utf8_lossy(&out.stdout));
    }
}
