//! Signal processing substrate for AIMS.
//!
//! The AIMS paper (CIDR 2003) leans on "decades of experience in dealing
//! with signals" rather than reinventing it; this crate is that toolbox,
//! written from scratch so the reproduction is self-contained:
//!
//! - [`fft`]: complex FFT (iterative radix-2 plus Bluestein for arbitrary
//!   lengths) — used by the acquisition subsystem's maximum-frequency
//!   estimation (§3.1) and by the DFT-based similarity baseline (§3.4.2).
//! - [`spectrum`]: periodograms, autocorrelation and Nyquist-rate
//!   estimation (`r_nyquist = 2·f_max`, §3.1).
//! - [`poly`] and [`lazy`]: dense univariate polynomials and the lazy
//!   wavelet transform built on them (§3.3), shared by ProPolyne and the
//!   tiered store.
//! - [`filters`]: orthonormal Daubechies wavelet filter bank (Haar, D4, D6,
//!   D8) with quadrature-mirror highpass and discrete moments.
//! - [`dwt`]: periodic orthogonal DWT, multi-level decomposition, the flat
//!   "error tree" coefficient layout used by the storage subsystem (§3.2.1),
//!   and tensor-product multidimensional transforms (§3.3).
//! - [`dwpt`]: the Discrete Wavelet Packet Transform and
//!   Coifman–Wickerhauser best-basis selection (§3.1.1).
//! - [`quantize`]: uniform scalar quantizers feeding the codecs.
//! - [`adpcm`]: an adaptive-DPCM codec (the compression baseline of §3.1).
//! - [`huffman`]: a canonical Huffman block coder (stand-in for the paper's
//!   Unix `zip` baseline, §3.1).

pub mod adpcm;
pub mod dwpt;
pub mod dwt;
pub mod fft;
pub mod filters;
pub mod huffman;
pub mod kernel;
pub mod lazy;
pub mod poly;
pub mod quantize;
pub mod spectrum;

pub use dwt::{dwt_full, idwt_full, WaveletDecomposition};
pub use fft::Complex;
pub use filters::WaveletFilter;
pub use kernel::DwtScratch;
pub use poly::Polynomial;
