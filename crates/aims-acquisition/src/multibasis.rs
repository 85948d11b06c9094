//! Per-dimension basis selection (§3.1.1).
//!
//! "Note that each dimension requires its own transformation which may be
//! different from others. … we may want to use the standard basis (i.e.,
//! no transform) on the small relation (sensor_id, x, y, z) and use
//! wavelets on the others. In addition, the selected basis per dimension
//! from DWPT must be consistent with those needed by the query engine."
//!
//! This module selects, for every dimension (column) of an immersidata
//! relation, either the standard basis or a wavelet (packet) basis, using
//! two signals the paper identifies: the dimension's *cardinality* (few
//! distinct values → standard basis; selection and aggregation stay
//! relational) and the *energy compaction* a wavelet basis achieves on the
//! column (how much of the energy the top coefficients capture).

use aims_dsp::dwpt::{CostFunction, WaveletPacketTree};
use aims_dsp::dwt::{dwt_full, next_pow2};
use aims_dsp::filters::FilterKind;

/// The basis assigned to one dimension.
#[derive(Clone, Debug, PartialEq)]
pub enum BasisChoice {
    /// No transform: the dimension stays relational ("standard
    /// dimensions" in the hybrid ProPolyne of §3.3.1).
    Standard,
    /// Full DWT in the given filter.
    Wavelet(FilterKind),
    /// Best wavelet-packet basis in the given filter (node list from the
    /// Coifman–Wickerhauser search, serialized as `(level, index)` pairs).
    WaveletPacket(FilterKind, Vec<(usize, usize)>),
}

impl BasisChoice {
    /// Short display label.
    pub fn label(&self) -> String {
        match self {
            BasisChoice::Standard => "standard".into(),
            BasisChoice::Wavelet(k) => format!("dwt/{k:?}"),
            BasisChoice::WaveletPacket(k, nodes) => {
                format!("dwpt/{k:?}[{} bands]", nodes.len())
            }
        }
    }
}

/// The transform plan for a relation: one basis per dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct TransformPlan {
    /// Basis per dimension, in column order.
    pub per_dim: Vec<BasisChoice>,
}

impl TransformPlan {
    /// Indices of the standard (relational) dimensions.
    pub fn standard_dims(&self) -> Vec<usize> {
        self.per_dim
            .iter()
            .enumerate()
            .filter(|(_, b)| matches!(b, BasisChoice::Standard))
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the wavelet-transformed dimensions.
    pub fn wavelet_dims(&self) -> Vec<usize> {
        self.per_dim
            .iter()
            .enumerate()
            .filter(|(_, b)| !matches!(b, BasisChoice::Standard))
            .map(|(i, _)| i)
            .collect()
    }
}

/// A dimension whose distinct-value count is at most this fraction of its
/// length is kept in the standard basis.
pub const CARDINALITY_FRACTION: f64 = 0.01;
/// Candidate wavelet filters to score.
pub const CANDIDATE_FILTERS: [FilterKind; 3] = [FilterKind::Haar, FilterKind::Db4, FilterKind::Db6];
/// Fraction of coefficients whose captured energy decides between filters
/// (0.1 → score = energy in the top 10%).
pub const COMPACTION_FRACTION: f64 = 0.1;
/// If the best packet basis beats the plain DWT basis by more than this
/// relative entropy margin, pick the packet basis.
pub const PACKET_MARGIN: f64 = 0.05;
/// Packet-tree depth for the best-basis search.
pub const PACKET_DEPTH: usize = 4;

/// Distinct values in a column, counted after quantizing to 1e-9 grid (so
/// float noise does not inflate cardinality).
fn cardinality(column: &[f64]) -> usize {
    let mut vals: Vec<i64> = column.iter().map(|&x| (x * 1e9).round() as i64).collect();
    vals.sort_unstable();
    vals.dedup();
    vals.len()
}

/// Fraction of total energy captured by the largest `frac` of coefficients.
fn energy_compaction(coeffs: &[f64], frac: f64) -> f64 {
    let mut mags: Vec<f64> = coeffs.iter().map(|x| x * x).collect();
    let total: f64 = mags.iter().sum();
    if total <= 1e-300 {
        return 1.0;
    }
    mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let k = ((coeffs.len() as f64 * frac).ceil() as usize).max(1);
    mags.iter().take(k).sum::<f64>() / total
}

/// Scores one column under each candidate filter and picks the best
/// wavelet basis (DWT or packet) for it.
fn best_wavelet_basis(column: &[f64]) -> BasisChoice {
    // Pad to a power of two for the transforms.
    let mut padded = column.to_vec();
    padded.resize(next_pow2(column.len()), *column.last().unwrap_or(&0.0));

    let mut best: Option<(f64, FilterKind)> = None;
    for kind in CANDIDATE_FILTERS {
        let coeffs = dwt_full(&padded, &kind.filter());
        let score = energy_compaction(&coeffs, COMPACTION_FRACTION);
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, kind));
        }
    }
    let (_, kind) = best.expect("at least one candidate filter");

    // Packet refinement: does a best-basis search beat the plain cascade?
    let depth = PACKET_DEPTH.min(padded.len().trailing_zeros() as usize);
    let tree = WaveletPacketTree::decompose(&padded, &kind.filter(), depth);
    let cost = CostFunction::ShannonEntropy;
    let best_basis = tree.best_basis(cost);
    let dwt_basis = tree.dwt_basis(cost);
    if dwt_basis.cost > 0.0
        && (dwt_basis.cost - best_basis.cost) / dwt_basis.cost.abs() > PACKET_MARGIN
        && best_basis.nodes != dwt_basis.nodes
    {
        BasisChoice::WaveletPacket(kind, best_basis.nodes)
    } else {
        BasisChoice::Wavelet(kind)
    }
}

/// Selects a basis for every dimension (column) of a relation.
///
/// # Panics
/// If columns are empty or lengths differ.
pub fn select_bases(columns: &[Vec<f64>]) -> TransformPlan {
    assert!(!columns.is_empty(), "no dimensions to plan");
    let len = columns[0].len();
    assert!(len > 0, "empty columns");
    for (i, c) in columns.iter().enumerate() {
        assert_eq!(c.len(), len, "column {i} length mismatch");
    }

    let per_dim = columns
        .iter()
        .map(|col| {
            let card = cardinality(col);
            if (card as f64) <= (len as f64 * CARDINALITY_FRACTION).max(2.0) {
                BasisChoice::Standard
            } else {
                best_wavelet_basis(col)
            }
        })
        .collect();
    TransformPlan { per_dim }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.05).sin() * 10.0 + (i as f64 * 0.011).cos() * 3.0).collect()
    }

    #[test]
    fn low_cardinality_dimension_stays_standard() {
        let n = 1024;
        let sensor_id: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let value = smooth(n);
        let plan = select_bases(&[sensor_id, value]);
        assert_eq!(plan.per_dim[0], BasisChoice::Standard);
        assert!(matches!(
            plan.per_dim[1],
            BasisChoice::Wavelet(_) | BasisChoice::WaveletPacket(..)
        ));
        assert_eq!(plan.standard_dims(), vec![0]);
        assert_eq!(plan.wavelet_dims(), vec![1]);
    }

    #[test]
    fn smooth_signal_gets_a_wavelet_basis_with_good_compaction() {
        let col = smooth(2048);
        let plan = select_bases(std::slice::from_ref(&col));
        match &plan.per_dim[0] {
            BasisChoice::Standard => panic!("smooth high-cardinality column kept standard"),
            BasisChoice::Wavelet(k) | BasisChoice::WaveletPacket(k, _) => {
                let coeffs = dwt_full(&col, &k.filter());
                assert!(energy_compaction(&coeffs, 0.1) > 0.95);
            }
        }
    }

    #[test]
    fn cardinality_counts_distinct() {
        assert_eq!(cardinality(&[1.0, 1.0, 2.0, 2.0, 3.0]), 3);
        assert_eq!(cardinality(&[0.0; 10]), 1);
        // Values closer than 1e-9 merge.
        assert_eq!(cardinality(&[1.0, 1.0 + 1e-12]), 1);
    }

    #[test]
    fn energy_compaction_bounds() {
        let spike = {
            let mut v = vec![0.0; 100];
            v[3] = 5.0;
            v
        };
        assert!((energy_compaction(&spike, 0.01) - 1.0).abs() < 1e-12);
        let flat = vec![1.0; 100];
        assert!((energy_compaction(&flat, 0.1) - 0.1).abs() < 1e-12);
        assert_eq!(energy_compaction(&[0.0; 8], 0.1), 1.0);
    }

    #[test]
    fn oscillatory_column_may_prefer_packets() {
        // A high-frequency tone: packets can isolate the band, plain DWT
        // smears it across detail levels. We only assert the plan is a
        // wavelet family choice and the labels render.
        let n = 1024;
        let col: Vec<f64> = (0..n).map(|i| (std::f64::consts::PI * 0.9 * i as f64).sin()).collect();
        let plan = select_bases(&[col]);
        let label = plan.per_dim[0].label();
        assert!(label.starts_with("dwt/") || label.starts_with("dwpt/"), "{label}");
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(BasisChoice::Standard.label(), "standard");
        assert!(BasisChoice::Wavelet(FilterKind::Db4).label().contains("Db4"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_columns_panic() {
        select_bases(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
