//! The in-place transforms at the allocator level: once a [`DwtScratch`]
//! has served one transform of a length, `dwt_full_inplace` and
//! `idwt_full_inplace` of that length perform zero heap allocations — the
//! "no allocations on the hot path" their docs promise, `span!` timer and
//! scratch-reuse counter included. The in-place multidimensional transform
//! allocates only per-pass scratch whose count does not grow with the cube
//! and none of which is the size of the cube.

use aims_dsp::dwt::{dwt_full_inplace, dwt_standard_md_inplace_with, idwt_full_inplace};
use aims_dsp::filters::FilterKind;
use aims_dsp::kernel::DwtScratch;
use aims_exec::ThreadPool;

#[path = "../../aims-telemetry/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::{alloc_stats_during, allocations_during};

#[test]
fn warm_in_place_transforms_allocate_nothing() {
    const N: usize = 4096;
    for kind in [FilterKind::Haar, FilterKind::Db4, FilterKind::Db6, FilterKind::Db8] {
        let filter = kind.filter();
        let signal: Vec<f64> = (0..N).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let mut buf = signal.clone();
        let mut scratch = DwtScratch::new();
        // Warm pass: grows the scratch and registers the call sites.
        dwt_full_inplace(&mut buf, &filter, &mut scratch);
        idwt_full_inplace(&mut buf, &filter, &mut scratch);

        let count = allocations_during(|| {
            for _ in 0..100 {
                dwt_full_inplace(&mut buf, &filter, &mut scratch);
                idwt_full_inplace(&mut buf, &filter, &mut scratch);
            }
        });
        assert_eq!(count, 0, "{kind:?}: warm in-place transforms must not allocate");
        let worst = buf.iter().zip(&signal).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(worst < 1e-6, "{kind:?}: round trip drifted by {worst}");
    }
}

#[test]
fn in_place_md_transform_never_allocates_a_cube() {
    let serial = ThreadPool::new(1);
    let filter = FilterKind::Db4.filter();
    let cube = |side: usize| -> Vec<f64> {
        (0..side * side).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
    };
    let transform = |buf: &mut Vec<f64>, side: usize| {
        dwt_standard_md_inplace_with(&serial, buf, &[side, side], &filter);
    };
    // Warm pass: registers the span and counter call sites.
    let mut small = cube(64);
    transform(&mut small, 64);

    let mut small = cube(64);
    let at_64 = alloc_stats_during(|| transform(&mut small, 64));
    let mut large = cube(256);
    let at_256 = alloc_stats_during(|| transform(&mut large, 256));
    let cube_bytes = 256 * 256 * std::mem::size_of::<f64>();
    assert!(
        at_256.largest < cube_bytes,
        "a {}-byte allocation in a 256² in-place transform reaches the cube's {cube_bytes}",
        at_256.largest
    );
    assert_eq!(at_256.count, at_64.count, "allocation count grows with the cube");
}
