//! Experiments E1–E3: the acquisition subsystem (paper §3.1, §3.1.1).

use aims_acquisition::multibasis::{select_bases, SelectionParams};
use aims_acquisition::sampling::{sample_stream, SamplingParams, Strategy};
use aims_dsp::dwt::{dwt_full, next_pow2};
use aims_dsp::{adpcm, huffman, quantize};
use aims_sensors::types::MultiStream;

use crate::workloads::mixed_activity_session;

/// E1 — "adaptive sampling requires far less bandwidth (and storage) as
/// compared to the other techniques" (§3.1). Bandwidth of the four
/// strategies on mixed-activity sessions, at three session activity mixes.
pub fn e1_sampling_bandwidth() {
    crate::header("E1", "sampling strategies: bandwidth vs reconstruction error (§3.1)");
    println!(
        "{:>20} {:>16} {:>10} {:>10} {:>10}",
        "session", "strategy", "KB/s", "vs raw", "rel rmse"
    );
    let sessions: [(&str, MultiStream); 3] = [
        ("mostly idle", idle_heavy_session(11)),
        ("mixed", mixed_activity_session(7, 10.0)),
        ("always busy", busy_session(13)),
    ];
    let params = SamplingParams::default();
    let mut idle_bytes = Vec::new();
    for (name, session) in &sessions {
        let duration = session.duration();
        let raw_bps = session.device_size_bytes() as f64 / duration;
        for strategy in Strategy::ALL {
            let r = sample_stream(session, strategy, &params);
            let bps = r.bandwidth_bytes_per_s(duration);
            println!(
                "{:>20} {:>16} {:>10.2} {:>9.1}x {:>10.3}",
                name,
                strategy.name(),
                bps / 1024.0,
                raw_bps / bps,
                r.relative_rmse(session)
            );
            if *name == "mostly idle" {
                idle_bytes.push((strategy, r.bytes));
            }
        }
    }
    let adaptive = idle_bytes.iter().find(|(s, _)| *s == Strategy::Adaptive).expect("swept").1;
    for (strategy, bytes) in &idle_bytes {
        assert!(
            adaptive <= *bytes,
            "idle-heavy: adaptive {adaptive} B vs {} {bytes} B",
            strategy.name()
        );
    }
    println!("\nshape check: adaptive shows the largest 'vs raw' factor on the idle-heavy");
    println!("session (asserted above); on stationary sessions grouped is competitive.");
}

fn idle_heavy_session(seed: u64) -> MultiStream {
    let rig = aims_sensors::glove::CyberGloveRig::default();
    let mut noise = aims_sensors::noise::NoiseSource::seeded(seed);
    let mut s = rig.record_session(20.0, 0.02, &mut noise);
    s.extend(&rig.record_session(5.0, 0.8, &mut noise));
    s.extend(&rig.record_session(5.0, 0.05, &mut noise));
    s
}

fn busy_session(seed: u64) -> MultiStream {
    let rig = aims_sensors::glove::CyberGloveRig::default();
    let mut noise = aims_sensors::noise::NoiseSource::seeded(seed);
    rig.record_session(30.0, 0.9, &mut noise)
}

/// E2 — "adaptive sampling provides superior savings" vs block compression
/// (zip), and "only marginal improvement by combining ADPCM with adaptive
/// sampling" (§3.1).
pub fn e2_sampling_vs_compression() {
    crate::header("E2", "adaptive sampling vs block compression; ADPCM composition (§3.1)");
    let session = mixed_activity_session(3, 10.0);
    let duration = session.duration();
    let kb = |bytes: usize| bytes as f64 / duration / 1024.0;

    let raw = session.device_size_bytes();
    println!("raw stream: {:.2} KB/s", kb(raw));

    // zip stand-in: order-0 Huffman over the raw 8-bit device samples —
    // what zipping the recording file sees (lossless w.r.t. the device).
    let mut zip_bytes = 0usize;
    for c in 0..session.channels() {
        let chan = session.channel(c);
        let q8 = quantize::UniformQuantizer::fit(&chan, 8);
        zip_bytes += huffman::encode(&q8.encode_signal(&chan), 256).size_bytes();
    }

    // ADPCM on the full-rate stream (4 bits/sample vs the device's 8).
    let mut adpcm_bytes = 0usize;
    for c in 0..session.channels() {
        adpcm_bytes += adpcm::encode_auto(&session.channel(c)).size_bytes() / 2;
        // (size_bytes counts f64 headers; halving approximates 8-bit-domain
        // headers. The dominant term is the 4-bit code stream either way.)
    }

    // Adaptive sampling, and ADPCM layered on the kept samples: each kept
    // sample shrinks from the device byte to a 4-bit code.
    let adaptive = sample_stream(&session, Strategy::Adaptive, &SamplingParams::default());
    let adaptive_adpcm_bytes = adaptive.kept_samples / 2 + session.channels() * 8;

    println!("\n{:>36} {:>10} {:>10} {:>14}", "method", "KB/s", "vs raw", "fidelity");
    println!(
        "{:>36} {:>10.2} {:>9.1}x {:>14}",
        "huffman on device bytes (zip)",
        kb(zip_bytes),
        raw as f64 / zip_bytes as f64,
        "lossless"
    );
    println!(
        "{:>36} {:>10.2} {:>9.1}x {:>14}",
        "ADPCM on full-rate stream",
        kb(adpcm_bytes),
        raw as f64 / adpcm_bytes as f64,
        "4-bit quant"
    );
    println!(
        "{:>36} {:>10.2} {:>9.1}x {:>14.4}",
        "adaptive sampling",
        kb(adaptive.bytes),
        raw as f64 / adaptive.bytes as f64,
        adaptive.relative_rmse(&session)
    );
    println!(
        "{:>36} {:>10.2} {:>9.1}x {:>14}",
        "adaptive + ADPCM",
        kb(adaptive_adpcm_bytes),
        raw as f64 / adaptive_adpcm_bytes as f64,
        "~adaptive"
    );
    // Adaptive beats both block codecs outright, and ADPCM stacked on it
    // buys less than the rate reduction itself did.
    assert!(adaptive.bytes * 2 < zip_bytes, "adaptive {} vs zip {zip_bytes}", adaptive.bytes);
    assert!(adaptive.bytes < adpcm_bytes, "adaptive {} vs ADPCM {adpcm_bytes}", adaptive.bytes);
    let stacking = adaptive.bytes as f64 / adaptive_adpcm_bytes as f64;
    assert!(stacking < raw as f64 / adaptive.bytes as f64, "ADPCM stacking gained {stacking:.1}x");
    println!("\nshape check: adaptive beats the zip stand-in decisively; stacking ADPCM");
    println!("on top of adaptive adds only a modest further factor (paper: 'marginal')");
    println!("(asserted above).");
}

/// E3 — multi-basis transformation (§3.1.1): standard basis on the
/// low-cardinality dimensions, wavelets elsewhere, chosen automatically;
/// score by energy compaction of the chosen basis per column.
pub fn e3_multibasis() {
    crate::header("E3", "per-dimension basis selection from the DWPT library (§3.1.1)");
    let session = mixed_activity_session(19, 8.0);
    let n = session.len();
    let columns: Vec<(&str, Vec<f64>)> = vec![
        ("sensor_id", (0..n).map(|i| (i % 5) as f64).collect()),
        ("x (quantized pos)", (0..n).map(|i| ((i / 240) % 4) as f64).collect()),
        ("time", (0..n).map(|i| i as f64).collect()),
        ("joint angle", session.channel(4)),
        ("tracker roll", session.channel(27)),
    ];
    let plan = select_bases(
        &columns.iter().map(|(_, c)| c.clone()).collect::<Vec<_>>(),
        &SelectionParams::default(),
    );

    println!(
        "{:>20} {:>18} {:>22} {:>22}",
        "dimension", "chosen basis", "top-10% energy (std)", "top-10% energy (chosen)"
    );
    for (i, ((name, col), basis)) in columns.iter().zip(&plan.per_dim).enumerate() {
        let mut padded = col.clone();
        padded.resize(next_pow2(col.len()), *col.last().unwrap());
        let compaction = |coeffs: &[f64]| {
            let mut m: Vec<f64> = coeffs.iter().map(|x| x * x).collect();
            let total: f64 = m.iter().sum();
            m.sort_by(|a, b| b.partial_cmp(a).unwrap());
            if total <= 0.0 {
                1.0
            } else {
                m.iter().take((m.len() / 10).max(1)).sum::<f64>() / total
            }
        };
        let std_score = compaction(&padded);
        let chosen_score = match basis {
            aims_acquisition::multibasis::BasisChoice::Standard => std_score,
            aims_acquisition::multibasis::BasisChoice::Wavelet(k)
            | aims_acquisition::multibasis::BasisChoice::WaveletPacket(k, _) => {
                compaction(&dwt_full(&padded, &k.filter()))
            }
        };
        println!("{:>20} {:>18} {:>22.3} {:>22.3}", name, basis.label(), std_score, chosen_score);
        let id_like = i < 2; // sensor_id and the quantized position
        let standard = matches!(basis, aims_acquisition::multibasis::BasisChoice::Standard);
        assert_eq!(standard, id_like, "{name}: chose {}", basis.label());
        assert!(id_like || chosen_score >= 0.99, "{name}: top-10% energy {chosen_score:.3}");
    }
    println!("\nshape check: id-like dimensions stay 'standard'; signal dimensions get a");
    println!("wavelet basis whose top-10% coefficients capture ≥ 99% of the energy");
    println!("(asserted above).");
}
