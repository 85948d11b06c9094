//! ProPolyne: progressive polynomial range-sum evaluation in the wavelet
//! domain (paper §3.3; Schmidt & Shahabi, EDBT'02/PODS'02).
//!
//! The core idea the AIMS paper builds on: a polynomial range-sum
//! `Σ_{x∈R} p(x)·f(x)` over a data cube `f` is the inner product of `f`
//! with a *query vector* that is a piecewise polynomial. Orthonormal
//! wavelet transforms preserve inner products, so the sum can be evaluated
//! entirely in the wavelet domain — and "when the wavelet filter is chosen
//! to satisfy an appropriate moment condition, most of the query wavelet
//! coefficients vanish", leaving only O(filter·log N) nonzeros per
//! dimension, computed by the **lazy wavelet transform** in polylogarithmic
//! time. The transform itself lives in [`aims_dsp::lazy`], beside the
//! polynomials and filters it is built from; [`engine::prepare`] runs it
//! per dimension and product term.
//!
//! - [`cube`]: multidimensional frequency/data cubes and their
//!   tensor-product wavelet transform.
//! - [`query`]: polynomial range-sum queries (ranges × monomials) and
//!   their drill-downs (§3.3.1's group-by in range form).
//! - [`engine`]: query preparation and exact evaluation (progressive
//!   evaluation is the block store's: a prepared query's entries go to
//!   `aims_storage::CoefficientStore`).
//! - [`stats`]: COUNT/SUM/AVERAGE/VARIANCE/COVARIANCE via the Shao
//!   reduction to second-order polynomial range-sums (§3.4.1).
//! - [`synopsis`]: the wavelet *data approximation* baseline ProPolyne is
//!   compared against.
//! - [`hybrid`]: the standard-basis/wavelet-basis hybrid of §3.3.1.
//! - [`blockstore`]: the benchmark harness's shim over the block store,
//!   deleted when the harness is re-based.
//! - [`packet`]: the wavelet-packet generalization — per-dimension best
//!   bases from the DWPT library (§3.3.1).

pub mod blockstore;
pub mod cube;
pub mod engine;
pub mod hybrid;
pub mod packet;
pub mod query;
pub mod stats;
pub mod synopsis;

pub use blockstore::BlockedCoefficients;
pub use cube::{DataCube, WaveletCube};
pub use engine::Propolyne;
pub use query::{Monomial, RangeSumQuery};
