//! The demo cube every harness in this workspace serves, built two ways
//! from one cell generator: whole, in memory ([`demo_cube`]), or streamed
//! in a fixed working set whatever its side ([`stream_demo_coeffs`]), which
//! is how `aims-serve --data` writes a new store.
//!
//! The cells are one xorshift64 stream read row-major. The streamed build
//! runs the same two axis passes as [`DataCube::into_transform`] — every
//! column, then every row, each line through the same kernel — on pieces
//! of the cube:
//!
//! 1. **Column tiles.** A tile is `w` adjacent columns, a `[side, w]`
//!    array. Its cells are generated in place, left to right, from one
//!    xorshift state per row; the row-start states come from the seed by
//!    a GF(2) jump of `side` steps, so no cell is ever spilled. The tile
//!    gets the axis-0 pass and goes to the spill as it sits in memory,
//!    tile after tile.
//! 2. **Row batches.** A batch is `w` adjacent rows, a `[w, side]` array,
//!    gathered from the spill (one `w × w` read per tile), given the
//!    axis-1 pass and handed to the caller, top to bottom: the
//!    coefficients arrive in row-major order.
//!
//! A tile and a batch are one buffer each, `BUFFER_ITEMS` items, which
//! sets `w`; the row states add 8 bytes a row. The spill holds the whole
//! axis-0 output, written once and read once, and is the caller's to
//! place.

use std::fs::File;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::mpsc;

use aims_dsp::dwt::{dwt_axis_inplace, is_power_of_two};
use aims_dsp::filters::FilterKind;
use aims_exec::{configured_threads, ThreadPool};
use aims_propolyne::{DataCube, WaveletCube};

/// Items in each buffer of the streamed build (256 KiB of `f64`): a
/// column tile is `side × (BUFFER_ITEMS / side)` cells and a row batch
/// `(BUFFER_ITEMS / side) × side` coefficients, for a cube of at least
/// `8 · BUFFER_ITEMS` cells (side 512 and up); a smaller cube's buffers
/// are an eighth of it.
const BUFFER_ITEMS: usize = 32 * 1024;

/// One step of the demo cube's xorshift64 stream: advances `state` and
/// returns the next cell, a count in `0..9`.
fn next_cell(state: &mut u64) -> f64 {
    *state = xorshift(*state);
    (*state % 9) as f64
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// `k` xorshift steps at once. A step is linear over GF(2), so `k` of them
/// are a 64 × 64 bit matrix, kept as the image of each state bit.
struct Jump([u64; 64]);

impl Jump {
    /// The map of `k` steps, by repeated squaring of the one-step map.
    fn steps(mut k: u64) -> Self {
        let mut acc = Jump(std::array::from_fn(|i| 1 << i));
        let mut base = Jump(std::array::from_fn(|i| xorshift(1 << i)));
        while k > 0 {
            if k & 1 == 1 {
                acc = base.then(&acc);
            }
            base = base.then(&base);
            k >>= 1;
        }
        acc
    }

    /// The state `k` steps after `state`.
    fn apply(&self, state: u64) -> u64 {
        (0..64).filter(|i| state >> i & 1 == 1).fold(0, |acc, i| acc ^ self.0[i])
    }

    /// `self` after `first`.
    fn then(&self, first: &Jump) -> Jump {
        Jump(first.0.map(|image| self.apply(image)))
    }
}

/// The deterministic demo cube every harness in this workspace serves
/// (`aims-serve`, `aims-cli trace`, the service test suites): a
/// `side`×`side` grid of small pseudo-random counts from one xorshift
/// seed, wavelet-transformed with Db4.
pub fn demo_cube(side: usize, seed: u64) -> WaveletCube {
    let mut cube = DataCube::zeros(&[side, side]);
    let mut state = seed;
    for v in cube.values_mut() {
        *v = next_cell(&mut state);
    }
    cube.into_transform(&FilterKind::Db4.filter())
}

/// [`demo_cube`]'s coefficients, bit for bit, streamed in row-major order
/// through `emit` a batch of whole rows at a time, with the axis-0 output
/// staged in `spill` (read and written, never synced, left full). The
/// working set is at most two `BUFFER_ITEMS` buffers, one `w × w` read
/// buffer and one state per row, whatever `side` is (while a column fits a
/// buffer, `side ≤ BUFFER_ITEMS`).
///
/// With more than one configured thread, a cube of eight full buffers or
/// more (side 512 and up) runs each phase as a two-stage pipeline: the
/// cells of the next tile are generated while the last one is transformed
/// and spilled, and the next batch is read back and transformed while
/// `emit` takes the last one. The line transforms themselves run serially:
/// fanning a 256 KiB tile out over a pool costs more than it saves.
///
/// # Panics
/// If `side` is not a power of two.
pub fn stream_demo_coeffs(
    side: usize,
    seed: u64,
    spill: &File,
    mut emit: impl FnMut(&[f64]) -> io::Result<()>,
) -> io::Result<()> {
    assert!(is_power_of_two(side), "side {side} is not a power of two");
    let (filter, serial) = (FilterKind::Db4.filter(), ThreadPool::new(1));
    // A cube of fewer than eight full buffers builds in about a
    // millisecond: there a helper thread costs more resident memory (its
    // code paths and a second buffer) than the time it could hide.
    let threaded = configured_threads() > 1 && side * side >= 8 * BUFFER_ITEMS;
    // Tile width and batch height: one buffer's worth of columns or rows,
    // a buffer being at most an eighth of the cube. What a create frees
    // stays on the heap for the server's life (it is under the allocator's
    // trim threshold), so a small cube's buffers stay small.
    let w = (BUFFER_ITEMS.min(side * side / 8) / side).max(1);
    let tiles = side / w;
    let jump = Jump::steps(side as u64);
    let mut states: Vec<u64> =
        std::iter::successors(Some(seed), |&s| Some(jump.apply(s))).take(side).collect();
    pipeline(
        threaded,
        tiles,
        side * w,
        |_, tile| {
            for (row, state) in tile.chunks_exact_mut(w).zip(&mut states) {
                row.iter_mut().for_each(|v| *v = next_cell(state));
            }
            Ok(())
        },
        |t, tile| {
            dwt_axis_inplace(&serial, tile, &[side, w], 0, &filter);
            spill.write_all_at(as_bytes(tile), (t * side * w * 8) as u64)
        },
    )?;
    drop(states);
    let mut run = vec![0.0; w * w];
    pipeline(
        threaded,
        tiles,
        w * side,
        |b, batch| {
            // Rows [b·w, (b + 1)·w) of tile t are one run of the spill.
            for t in 0..tiles {
                spill.read_exact_at(as_bytes_mut(&mut run), ((t * side + b * w) * w * 8) as u64)?;
                for (k, cells) in run.chunks_exact(w).enumerate() {
                    batch[k * side + t * w..][..w].copy_from_slice(cells);
                }
            }
            dwt_axis_inplace(&serial, batch, &[w, side], 1, &filter);
            Ok(())
        },
        |_, batch| emit(batch),
    )
}

/// The bytes of `items` as they sit in memory: the spill holds them so,
/// since only this process reads it back.
fn as_bytes(items: &[f64]) -> &[u8] {
    // SAFETY: an `f64` is 8 initialised bytes with no padding, so `items`
    // spans `size_of_val(items)` initialised bytes, and `u8` needs no
    // alignment. The borrow keeps `items` alive and unchanged meanwhile.
    unsafe { std::slice::from_raw_parts(items.as_ptr().cast(), std::mem::size_of_val(items)) }
}

/// [`as_bytes`] for filling `items` from the spill.
fn as_bytes_mut(items: &mut [f64]) -> &mut [u8] {
    // SAFETY: as in `as_bytes`, and every bit pattern is a valid `f64`, so
    // any bytes written through the view leave valid items behind. The
    // exclusive borrow keeps every other access out meanwhile.
    unsafe {
        std::slice::from_raw_parts_mut(items.as_mut_ptr().cast(), std::mem::size_of_val(items))
    }
}

/// Runs `produce` then `consume` on items `0..n`, each on a `len`-item
/// buffer, both in item order. `threaded` runs `produce` on a helper
/// thread, two buffers in flight, so item `i + 1` is produced while item
/// `i` is consumed; otherwise both run on the caller, one buffer in turn.
/// The first error either returns stops both and is returned.
fn pipeline(
    threaded: bool,
    n: usize,
    len: usize,
    mut produce: impl FnMut(usize, &mut [f64]) -> io::Result<()> + Send,
    mut consume: impl FnMut(usize, &mut [f64]) -> io::Result<()>,
) -> io::Result<()> {
    if !threaded {
        let mut buf = vec![0.0; len];
        for i in 0..n {
            produce(i, &mut buf)?;
            consume(i, &mut buf)?;
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        let (full_tx, full_rx) = mpsc::sync_channel::<Vec<f64>>(2);
        let (empty_tx, empty_rx) = mpsc::sync_channel(2);
        for _ in 0..2 {
            empty_tx.send(vec![0.0; len]).expect("the receiver is alive");
        }
        let producer = scope.spawn(move || {
            for i in 0..n {
                // A closed channel means the consumer stopped on an error.
                let Ok(mut buf) = empty_rx.recv() else { break };
                produce(i, &mut buf)?;
                if full_tx.send(buf).is_err() {
                    break;
                }
            }
            Ok(())
        });
        let mut consumed = Ok(());
        for i in 0..n {
            // A closed channel means the producer stopped on an error.
            let Ok(mut buf) = full_rx.recv() else { break };
            consumed = consume(i, &mut buf);
            if consumed.is_err() {
                break;
            }
            let _ = empty_tx.send(buf);
        }
        drop((full_rx, empty_tx));
        let produced = producer.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        produced.and(consumed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pipeline_runs_every_item_in_order_and_stops_at_the_first_error() {
        let fail = |at: usize| io::Error::other(format!("item {at}"));
        for threaded in [false, true] {
            let mut seen = Vec::new();
            let ok = pipeline(
                threaded,
                5,
                3,
                |i, buf| {
                    buf.fill(i as f64);
                    Ok(())
                },
                |i, buf| {
                    seen.push((i, buf.to_vec()));
                    Ok(())
                },
            );
            assert!(ok.is_ok());
            assert_eq!(seen, (0..5).map(|i| (i, vec![i as f64; 3])).collect::<Vec<_>>());
            for (produce_at, consume_at) in [(2, 9), (9, 2)] {
                let mut consumed = 0;
                let got = pipeline(
                    threaded,
                    5,
                    1,
                    |i, _| if i == produce_at { Err(fail(i)) } else { Ok(()) },
                    |i, _| {
                        consumed += 1;
                        if i == consume_at {
                            Err(fail(i))
                        } else {
                            Ok(())
                        }
                    },
                );
                let at = produce_at.min(consume_at);
                assert_eq!(got.unwrap_err().to_string(), format!("item {at}"), "{threaded}");
                assert_eq!(consumed, at + usize::from(at == consume_at), "{threaded}");
            }
        }
    }

    #[test]
    fn a_jump_of_k_is_k_steps() {
        for seed in [1u64, 41, 0x9E37_79B9_7F4A_7C15] {
            let mut state = seed;
            for k in 0..=2050u64 {
                if [0, 1, 2, 3, 64, 1023, 1024, 2050].contains(&k) {
                    assert_eq!(Jump::steps(k).apply(seed), state, "seed {seed} k {k}");
                }
                state = xorshift(state);
            }
        }
    }

    /// Against the whole-cube build: one-column tiles (sides up to 8),
    /// eighth-of-the-cube buffers (up to 256) and full ones (512).
    #[test]
    fn the_streamed_coefficients_are_the_demo_cubes_bits() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (side, seed) in [(1usize, 3u64), (2, 5), (16, 41), (256, 7), (512, 0x9E37_79B9)] {
            let path =
                std::env::temp_dir().join(format!("aims-demo-spill-{side}-{}", std::process::id()));
            let spill = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)
                .unwrap();
            let mut streamed = Vec::new();
            let mut batches = 0;
            stream_demo_coeffs(side, seed, &spill, |batch| {
                assert!(batch.len() <= BUFFER_ITEMS.max(side));
                batches += 1;
                streamed.extend_from_slice(batch);
                Ok(())
            })
            .unwrap();
            std::fs::remove_file(&path).unwrap();
            assert_eq!(batches, side / (BUFFER_ITEMS.min(side * side / 8) / side).max(1));
            assert_eq!(bits(&streamed), bits(demo_cube(side, seed).coeffs()), "side {side}");
        }
    }
}
