//! Adaptive differential PCM (ADPCM) codec.
//!
//! The AIMS acquisition studies (paper §3.1, ref \[29\]) compared sampling
//! strategies against "quantization techniques (e.g., Adaptive DPCM)" and
//! combinations of the two. This is an IMA-style ADPCM adapted to `f64`
//! sensor samples: each sample is predicted by the previous reconstruction,
//! the prediction error is quantized to a 4-bit signed code, and the step
//! size adapts multiplicatively to the code magnitude.

/// Step-size adaptation factors indexed by code magnitude (0..=7).
/// Small codes shrink the step (signal is predictable); large codes grow it.
const ADAPT: [f64; 8] = [0.9, 0.9, 0.95, 1.0, 1.2, 1.6, 2.0, 2.4];

/// Minimum step relative to the initial step, to avoid underflow lock-up.
const MIN_STEP_RATIO: f64 = 1e-6;

/// An ADPCM-encoded signal: 4 bits per sample plus a tiny header.
#[derive(Clone, Debug, PartialEq)]
pub struct AdpcmEncoded {
    /// First sample, stored verbatim so decoding can bootstrap.
    pub initial: f64,
    /// Initial quantizer step.
    pub initial_step: f64,
    /// Number of encoded samples (including the initial one).
    pub len: usize,
    /// Packed 4-bit codes, two per byte, for samples `1..len`.
    pub codes: Vec<u8>,
}

impl AdpcmEncoded {
    /// Size of the encoded representation in bytes (header + codes).
    pub fn size_bytes(&self) -> usize {
        // initial (8) + step (8) + len (8) + packed codes.
        24 + self.codes.len()
    }
}

/// Encodes a signal with ADPCM. `initial_step` controls the starting
/// quantizer resolution; [`encode_auto`] picks one from the signal's
/// first-difference statistics.
///
/// # Panics
/// If the signal is empty or the step is not positive/finite.
pub fn encode(signal: &[f64], initial_step: f64) -> AdpcmEncoded {
    assert!(!signal.is_empty(), "cannot ADPCM-encode an empty signal");
    assert!(
        initial_step.is_finite() && initial_step > 0.0,
        "initial step must be positive and finite"
    );
    let mut codes = Vec::with_capacity(signal.len() / 2 + 1);
    let mut pending: Option<u8> = None;
    let push_code = |c: u8, codes: &mut Vec<u8>, pending: &mut Option<u8>| match pending.take() {
        None => *pending = Some(c),
        Some(first) => codes.push(first | (c << 4)),
    };

    let mut prev = signal[0];
    let mut step = initial_step;
    let floor = initial_step * MIN_STEP_RATIO;
    for &x in &signal[1..] {
        let diff = x - prev;
        // 4-bit sign-magnitude code: bit 3 = sign, bits 0..3 = magnitude.
        let mag = ((diff.abs() / step).round() as i64).clamp(0, 7) as u8;
        let code = if diff < 0.0 { mag | 0x8 } else { mag };
        let recon = step * mag as f64 * if diff < 0.0 { -1.0 } else { 1.0 };
        prev += recon;
        step = (step * ADAPT[mag as usize]).max(floor);
        push_code(code, &mut codes, &mut pending);
    }
    if let Some(last) = pending {
        codes.push(last);
    }
    AdpcmEncoded { initial: signal[0], initial_step, len: signal.len(), codes }
}

/// Encodes with a step chosen from the mean absolute first difference of
/// the signal (a good operating point for smooth sensor traces).
pub fn encode_auto(signal: &[f64]) -> AdpcmEncoded {
    assert!(!signal.is_empty(), "cannot ADPCM-encode an empty signal");
    let mad = if signal.len() > 1 {
        signal.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (signal.len() - 1) as f64
    } else {
        0.0
    };
    let step = if mad > 1e-12 { mad / 2.0 } else { 1e-6 };
    encode(signal, step)
}

/// Decodes an ADPCM stream back to samples. Lossy: the output approximates
/// the encoder input.
pub fn decode(encoded: &AdpcmEncoded) -> Vec<f64> {
    let mut out = Vec::with_capacity(encoded.len);
    out.push(encoded.initial);
    let mut prev = encoded.initial;
    let mut step = encoded.initial_step;
    let floor = encoded.initial_step * MIN_STEP_RATIO;
    let mut remaining = encoded.len - 1;
    'outer: for &byte in &encoded.codes {
        for shift in [0u8, 4] {
            if remaining == 0 {
                break 'outer;
            }
            let code = (byte >> shift) & 0xF;
            let mag = code & 0x7;
            let sign = if code & 0x8 != 0 { -1.0 } else { 1.0 };
            prev += sign * step * mag as f64;
            step = (step * ADAPT[mag as usize]).max(floor);
            out.push(prev);
            remaining -= 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantize::{rmse, snr_db};

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 100.0;
                (2.0 * std::f64::consts::PI * 1.5 * t).sin() * 30.0
                    + (2.0 * std::f64::consts::PI * 0.3 * t).cos() * 10.0
            })
            .collect()
    }

    #[test]
    fn roundtrip_length_and_header() {
        let x = smooth_signal(101);
        let enc = encode_auto(&x);
        assert_eq!(enc.len, 101);
        assert_eq!(enc.codes.len(), 50); // 100 codes packed 2/byte
        let y = decode(&enc);
        assert_eq!(y.len(), 101);
        assert_eq!(y[0], x[0]);
    }

    #[test]
    fn smooth_signal_reconstructs_well() {
        let x = smooth_signal(1000);
        let enc = encode_auto(&x);
        let y = decode(&enc);
        let snr = snr_db(&x, &y);
        assert!(snr > 20.0, "SNR too low: {snr} dB");
    }

    #[test]
    fn compression_is_4_bits_per_sample() {
        let x = smooth_signal(10000);
        let enc = encode_auto(&x);
        // Raw f64: 80 kB. ADPCM: ~5 kB + header.
        assert!(enc.size_bytes() < 10000 * 8 / 10, "size {}", enc.size_bytes());
        assert!(enc.size_bytes() >= 10000 / 2, "suspiciously small: {}", enc.size_bytes());
    }

    #[test]
    fn constant_signal_is_exact() {
        let x = vec![7.5; 64];
        let enc = encode_auto(&x);
        let y = decode(&enc);
        for v in &y {
            assert!((v - 7.5).abs() < 1e-9);
        }
    }

    #[test]
    fn step_adaptation_tracks_bursts() {
        // Slow ramp, then a fast burst, then slow again.
        let mut x = Vec::new();
        for i in 0..200 {
            x.push(i as f64 * 0.01);
        }
        for i in 0..50 {
            x.push(2.0 + (i as f64 * 0.9).sin() * 20.0);
        }
        for i in 0..200 {
            x.push(1.0 + i as f64 * 0.01);
        }
        let enc = encode_auto(&x);
        let y = decode(&enc);
        // The decoder should recover to within a reasonable envelope after
        // the burst (adaptation catches up).
        let tail_err = rmse(&x[300..], &y[300..]);
        let scale = 20.0;
        assert!(tail_err < scale * 0.5, "tail rmse {tail_err}");
    }

    #[test]
    fn single_sample_signal() {
        let enc = encode_auto(&[42.0]);
        assert_eq!(decode(&enc), vec![42.0]);
        assert!(enc.codes.is_empty());
    }

    #[test]
    fn even_and_odd_lengths_pack_correctly() {
        for n in [2usize, 3, 8, 9] {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let enc = encode(&x, 1.0);
            let y = decode(&enc);
            assert_eq!(y.len(), n, "n={n}");
            // Unit steps encode near-exactly; step adaptation introduces a
            // bounded drift (step shrinks to 0.9 after each magnitude-1
            // code, so the rounded reconstruction stays within half a step).
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() <= 0.5, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_signal_panics() {
        encode_auto(&[]);
    }
}
