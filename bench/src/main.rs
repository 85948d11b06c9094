//! `aims-e2e` — the end-to-end benchmark of the AIMS workspace.
//!
//! One run of one workload (what the driver invokes, through `run.sh`):
//!
//! ```text
//! aims-e2e --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! measures for `S` seconds, checks every answer against the harness's
//! own oracle, and prints one JSON object as its last line of output:
//! the end-to-end metrics with tracing off, the per-layer metrics with it
//! on. Without `--workload` every workload runs, each in its own child
//! process and in both modes, and the metrics are printed as
//! `workload metric value unit` and written to `bench/out/`; `--repeat N`
//! does that for N seeds and records the spread in `bench/VARIANCE.json`.
//!
//! The system is driven only from outside: a spawned `aims-serve --data`
//! child over `aims_service::TcpClient`, and the public functions of the
//! workspace crates.

mod child;
mod ladder;
mod oracle;
mod report;
mod serve;
mod spans;
mod stats;
mod study;
mod tier;
mod workload;

use std::path::PathBuf;
use std::time::Duration;

/// Everything one workload run needs to know.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced pass: spans on, per-layer metrics out.
    pub trace: bool,
    /// How often set-up is repeated for its median.
    pub reps: usize,
    /// How often the reopen is repeated for its median.
    pub reopen_reps: usize,
    /// The `aims-serve` binary under test.
    pub serve_bin: PathBuf,
    /// Scratch directory of this process, removed on exit.
    pub work: PathBuf,
    /// `AIMS_THREADS` handed to the system under test.
    pub threads: usize,
}

impl Ctx {
    /// Unmeasured lead-in before the window: caches fill, lazy set-up
    /// finishes.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 4.0).min(1.0))
    }

    /// One turn's share of the measured window.
    pub fn slice(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / TURNS as f64)
    }

    /// One turn's share of the shorter phase given to the side a workload
    /// is not about — the recording on a serve workload, the analysts on
    /// a tier workload: a third of the window in all.
    pub fn side_slice(&self) -> Duration {
        self.slice() / 3
    }
}

/// The measured window is taken in this many turns, a workload's two
/// sides alternating. The sandbox's host has slow spells of five to
/// fifteen seconds during which everything CPU-bound takes half as long
/// again; taking turns spreads both sides over the whole run, so that such
/// a spell touches a minority of each side's samples and the medians
/// reported do not move.
pub const TURNS: usize = 5;

/// Command-line options (`--flag value` pairs, any order).
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    repeat: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(value()?.clone());
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && (0.5..=60.0).contains(&s)) {
                    return Err(format!("--seconds {s} is outside 0.5..=60"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--quick" => args.quick = true,
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs for a spread".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// One workload, one mode, one JSON line.
fn run_one(workload: String, args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(4);
    // The system under test reads its pool width from the environment;
    // set before any thread exists.
    std::env::set_var("AIMS_THREADS", threads.to_string());
    let target = target_dir();
    let work = target.join("bench-e2e").join(std::process::id().to_string());
    let _scratch = Scratch(work.clone());
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let serve_bin = target.join("release").join("aims-serve");
    if !serve_bin.is_file() {
        return Err(format!("{} is not built; run bench/run.sh", serve_bin.display()));
    }
    let ctx = Ctx {
        workload,
        seed: args.seed.unwrap_or(11),
        seconds: args.seconds.unwrap_or(if args.quick { 2.0 } else { 15.0 }),
        trace: args.trace.unwrap_or(false),
        // Set-up time is an end-to-end metric, reopen time a per-layer
        // one: each is repeated in the pass that reports it.
        reps: if args.quick || args.trace == Some(true) { 1 } else { 3 },
        reopen_reps: if !args.quick && args.trace == Some(true) { 5 } else { 1 },
        serve_bin,
        work,
        threads,
    };
    let shape = workload::by_name(&ctx.workload)
        .ok_or_else(|| format!("unknown workload {}", ctx.workload))?;
    let mut outcome = workload::run(&ctx, shape)?;
    if let Some(spans) = outcome.spans.take() {
        let dir = PathBuf::from("bench").join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}.json", ctx.workload));
        std::fs::write(&path, spans.to_json(&ctx.workload, ctx.seed, 20_000))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", outcome.result_line(ctx.trace));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| match args.workload.clone() {
        Some(w) => run_one(w, &args),
        None => study::run_all(args.seed.unwrap_or(11), args.seconds, args.quick, args.repeat),
    });
    if let Err(e) = result {
        eprintln!("aims-e2e: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a =
            parse_args(&argv("--workload ingest_burst --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("ingest_burst"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), Some(true)));
        assert_eq!(parse_args(&[]).unwrap(), Args::default());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds 1e9",
            "--trace 2",
            "--repeat 1",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
