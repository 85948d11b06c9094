//! The in-place transforms at the allocator level: once a [`DwtScratch`]
//! has served one transform of a length, `dwt_full_inplace` and
//! `idwt_full_inplace` of that length perform zero heap allocations — the
//! "no allocations on the hot path" their docs promise, `span!` timer and
//! scratch-reuse counter included.

use aims_dsp::dwt::{dwt_full_inplace, idwt_full_inplace};
use aims_dsp::filters::FilterKind;
use aims_dsp::kernel::DwtScratch;

#[path = "../../aims-telemetry/tests/support/thread_alloc.rs"]
mod thread_alloc;
use thread_alloc::allocations_during;

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
