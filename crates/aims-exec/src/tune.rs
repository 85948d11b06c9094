//! One-shot kernel autotuning (ROADMAP item 4).
//!
//! The cache-blocked kernels in `aims-dsp` and `aims-linalg` need two
//! machine-dependent numbers:
//!
//! - **tile**: how many strided lines a tiled transform gathers into one
//!   contiguous scratch tile before transforming them. Too small and the
//!   gather degenerates into the strided single-element walk the tiling
//!   exists to avoid; too large and the tile falls out of L1/L2.
//! - **par_threshold**: the element count below which fanning work out
//!   across the pool costs more than the arithmetic it hides (the old
//!   E24 result of a *0.67×* "speedup" on the parallel 2-D DWT was
//!   exactly this failure). Work below the threshold runs inline on the
//!   caller.
//!
//! Both are picked once per process by [`tuning`]: a short calibration
//! run times a strided-gather/scatter transpose — the memory access
//! pattern of the tiled DWT, independent of any wavelet math — for each
//! candidate tile size and keeps the fastest. The result is cached in a
//! `OnceLock`, exported through the `exec.tune.tile` /
//! `exec.tune.par_threshold` gauges, and overridable for experiments via
//! the `AIMS_TILE` environment variable:
//!
//! ```text
//! AIMS_TILE=32          # force the tile size, keep the default threshold
//! AIMS_TILE=32,16384    # force tile and parallel-dispatch threshold
//! ```
//!
//! Calibration never affects results — the tuned kernels are
//! bit-identical for every tile size and pool size — only throughput.

use std::sync::OnceLock;
use std::time::Instant;

/// Tile sizes the calibration sweep considers, in lines per tile.
const TILE_CANDIDATES: [usize; 4] = [8, 16, 32, 64];

/// Default element count below which fan-out never pays for itself.
/// A 64×64 transform (4096 elements) measures slower pooled than serial
/// on every host we have tried; 128×128 is roughly break-even on 4 cores.
const DEFAULT_PAR_THRESHOLD: usize = 1 << 14;

/// Side length of the synthetic matrix the calibration transposes.
const CALIBRATE_SIDE: usize = 512;

/// Tuned kernel parameters, fixed for the process lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuning {
    /// Lines per gathered tile in cache-blocked strided transforms.
    pub tile: usize,
    /// Minimum total elements before a transform fans out to the pool.
    pub par_threshold: usize,
    /// `true` when the numbers came from `AIMS_TILE` instead of the
    /// calibration run.
    pub from_env: bool,
}

impl Tuning {
    /// `true` when a workload of `total` elements should run serially
    /// (inline on the caller) instead of fanning out.
    pub fn serial_below(&self, total: usize) -> bool {
        total < self.par_threshold
    }
}

/// The process-wide tuning, computed on first use (see module docs).
pub fn tuning() -> Tuning {
    static TUNING: OnceLock<Tuning> = OnceLock::new();
    *TUNING.get_or_init(|| {
        let t = from_env().unwrap_or_else(calibrate);
        aims_telemetry::gauge!("exec.tune.tile").set(t.tile as f64);
        aims_telemetry::gauge!("exec.tune.par_threshold").set(t.par_threshold as f64);
        t
    })
}

/// Parses `AIMS_TILE` = `tile` or `tile,threshold`. Zero or unparsable
/// values fall through to calibration.
fn from_env() -> Option<Tuning> {
    let raw = std::env::var("AIMS_TILE").ok()?;
    let mut parts = raw.splitn(2, ',');
    let tile: usize = parts.next()?.trim().parse().ok().filter(|&t| t > 0)?;
    let par_threshold = parts
        .next()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(DEFAULT_PAR_THRESHOLD);
    Some(Tuning { tile, par_threshold, from_env: true })
}

/// Times the tiled strided-transpose kernel for each candidate tile size
/// and keeps the fastest. The workload is the exact access pattern of the
/// tiled MD DWT's hard axis: gather `tile` stride-`n` lines into a
/// contiguous scratch, touch every element, scatter back.
fn calibrate() -> Tuning {
    let n = CALIBRATE_SIDE;
    let mut data: Vec<f64> = (0..n * n).map(|i| (i % 97) as f64).collect();
    let mut scratch = vec![0.0f64; n * TILE_CANDIDATES[TILE_CANDIDATES.len() - 1]];
    let mut best = (TILE_CANDIDATES[0], f64::INFINITY);
    for &tile in &TILE_CANDIDATES {
        // One warm-up pass per candidate, then one timed pass: the sweep
        // must stay in the microsecond-to-millisecond range because it
        // runs on first kernel use.
        strided_tile_pass(&mut data, &mut scratch, n, tile);
        let start = Instant::now();
        strided_tile_pass(&mut data, &mut scratch, n, tile);
        let dt = start.elapsed().as_secs_f64();
        if dt < best.1 {
            best = (tile, dt);
        }
    }
    Tuning { tile: best.0, par_threshold: DEFAULT_PAR_THRESHOLD, from_env: false }
}

/// One column-axis pass over an `n×n` matrix with the given tile width:
/// gather `tile` columns into row-major scratch lines, negate them (a
/// stand-in for the per-line transform), scatter back.
fn strided_tile_pass(data: &mut [f64], scratch: &mut [f64], n: usize, tile: usize) {
    let mut c0 = 0;
    while c0 < n {
        let t = tile.min(n - c0);
        for j in 0..n {
            let row = &data[j * n + c0..j * n + c0 + t];
            for (ti, &x) in row.iter().enumerate() {
                scratch[ti * n + j] = x;
            }
        }
        for x in scratch[..t * n].iter_mut() {
            *x = -*x;
        }
        for j in 0..n {
            let row = &mut data[j * n + c0..j * n + c0 + t];
            for (ti, slot) in row.iter_mut().enumerate() {
                *slot = scratch[ti * n + j];
            }
        }
        c0 += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_returns_a_candidate() {
        let t = calibrate();
        assert!(TILE_CANDIDATES.contains(&t.tile));
        assert_eq!(t.par_threshold, DEFAULT_PAR_THRESHOLD);
        assert!(!t.from_env);
    }

    #[test]
    fn tuning_is_stable_across_calls() {
        let a = tuning();
        let b = tuning();
        assert_eq!(a, b);
        assert!(a.tile > 0 && a.par_threshold > 0);
    }

    #[test]
    fn serial_below_threshold() {
        let t = Tuning { tile: 32, par_threshold: 1000, from_env: false };
        assert!(t.serial_below(999));
        assert!(!t.serial_below(1000));
    }

    #[test]
    fn strided_pass_is_an_involution_on_sign() {
        let n = 16;
        let orig: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut data = orig.clone();
        let mut scratch = vec![0.0; n * 8];
        strided_tile_pass(&mut data, &mut scratch, n, 8);
        assert!(data.iter().zip(&orig).all(|(a, b)| *a == -*b));
        strided_tile_pass(&mut data, &mut scratch, n, 8);
        assert_eq!(data, orig);
    }
}
