//! Polynomial range-sum queries.
//!
//! A query asks for `Σ_{x ∈ R} p(x) · f(x)` where `R` is a hyper-rectangle
//! of bins and `p` is a polynomial in the bin coordinates. Following the
//! tensor structure ProPolyne exploits, `p` is kept as a sum of *product
//! terms* `coef · Π_k p_k(x_k)` — every multivariate polynomial decomposes
//! this way, and each term's query vector is a tensor product of
//! one-dimensional piecewise polynomials.

use aims_dsp::poly::Polynomial;

use crate::cube::DataCube;

/// One product term `coef · Π_k factors[k](x_k)`.
#[derive(Clone, Debug)]
pub struct Monomial {
    /// Scalar multiplier.
    pub coef: f64,
    /// One polynomial factor per dimension (constant 1 for uninvolved
    /// dimensions).
    pub factors: Vec<Polynomial>,
}

impl Monomial {
    /// The all-ones term (COUNT).
    pub fn ones(arity: usize) -> Self {
        Monomial { coef: 1.0, factors: vec![Polynomial::constant(1.0); arity] }
    }

    /// A term with one non-trivial factor.
    pub fn single(arity: usize, dim: usize, poly: Polynomial) -> Self {
        assert!(dim < arity, "dimension {dim} out of arity {arity}");
        let mut m = Monomial::ones(arity);
        m.factors[dim] = poly;
        m
    }

    /// A term with two non-trivial factors (e.g. for covariances).
    pub fn pair(arity: usize, d1: usize, p1: Polynomial, d2: usize, p2: Polynomial) -> Self {
        assert!(d1 != d2, "pair term needs distinct dimensions");
        let mut m = Monomial::single(arity, d1, p1);
        m.factors[d2] = p2;
        m
    }

    /// Highest factor degree — drives the filter's required vanishing
    /// moments.
    pub fn max_degree(&self) -> usize {
        self.factors.iter().map(|p| p.degree()).max().unwrap_or(0)
    }

    /// Evaluates the term at a bin multi-index.
    pub fn eval(&self, idx: &[usize]) -> f64 {
        self.coef * self.factors.iter().zip(idx).map(|(p, &i)| p.eval(i as f64)).product::<f64>()
    }
}

/// A polynomial range-sum query: a bin hyper-rectangle and a polynomial
/// measure in product-term form.
#[derive(Clone, Debug)]
pub struct RangeSumQuery {
    /// Inclusive bin ranges, one per dimension.
    pub ranges: Vec<(usize, usize)>,
    /// The measure polynomial as a sum of product terms.
    pub terms: Vec<Monomial>,
}

impl RangeSumQuery {
    /// COUNT over a bin hyper-rectangle.
    pub fn count(ranges: Vec<(usize, usize)>) -> Self {
        let arity = ranges.len();
        RangeSumQuery { ranges, terms: vec![Monomial::ones(arity)] }
    }

    /// `Σ p(x_dim)` over the rectangle.
    pub fn sum_poly(ranges: Vec<(usize, usize)>, dim: usize, poly: Polynomial) -> Self {
        let arity = ranges.len();
        RangeSumQuery { ranges, terms: vec![Monomial::single(arity, dim, poly)] }
    }

    /// `Σ p(x_d1)·q(x_d2)` over the rectangle.
    pub fn sum_product(
        ranges: Vec<(usize, usize)>,
        d1: usize,
        p1: Polynomial,
        d2: usize,
        p2: Polynomial,
    ) -> Self {
        let arity = ranges.len();
        RangeSumQuery { ranges, terms: vec![Monomial::pair(arity, d1, p1, d2, p2)] }
    }

    /// Number of dimensions.
    pub fn arity(&self) -> usize {
        self.ranges.len()
    }

    /// Highest polynomial degree across terms.
    pub fn max_degree(&self) -> usize {
        self.terms.iter().map(|t| t.max_degree()).max().unwrap_or(0)
    }

    /// Validates against a cube's dimensions.
    ///
    /// # Panics
    /// On arity mismatch, reversed or out-of-bounds ranges, or factor
    /// arity mismatch.
    pub fn validate(&self, dims: &[usize]) {
        assert_eq!(self.ranges.len(), dims.len(), "query arity mismatch");
        for (k, (&(a, b), &d)) in self.ranges.iter().zip(dims).enumerate() {
            assert!(a <= b && b < d, "dimension {k}: bad range [{a},{b}] for {d} bins");
        }
        for t in &self.terms {
            assert_eq!(t.factors.len(), dims.len(), "term arity mismatch");
        }
    }

    /// The drill-down over dimension `dim`: this rectangle split into
    /// `buckets` equal bins along `dim` (a SQL GROUP BY in range form).
    ///
    /// # Panics
    /// If `dim` is out of range or `buckets` does not divide its range.
    pub fn drill_down(&self, dim: usize, buckets: usize) -> Vec<RangeSumQuery> {
        assert!(dim < self.arity(), "dimension out of range");
        let (a, b) = self.ranges[dim];
        let len = b - a + 1;
        assert!(buckets > 0 && len % buckets == 0, "{buckets} buckets must divide range {len}");
        let w = len / buckets;
        (0..buckets)
            .map(|k| {
                let mut q = self.clone();
                q.ranges[dim] = (a + k * w, a + (k + 1) * w - 1);
                q
            })
            .collect()
    }

    /// Reference evaluation by scanning the data cube (exact, O(|R|)).
    pub fn eval_scan(&self, cube: &DataCube) -> f64 {
        self.validate(cube.dims());
        let mut idx: Vec<usize> = self.ranges.iter().map(|&(a, _)| a).collect();
        let mut total = 0.0;
        loop {
            let f = cube.at(&idx);
            if f != 0.0 {
                for t in &self.terms {
                    total += t.eval(&idx) * f;
                }
            }
            // Odometer increment over the rectangle.
            let mut k = self.ranges.len();
            loop {
                if k == 0 {
                    return total;
                }
                k -= 1;
                if idx[k] < self.ranges[k].1 {
                    idx[k] += 1;
                    for (j, &(a, _)) in self.ranges.iter().enumerate().skip(k + 1) {
                        idx[j] = a;
                    }
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::AttributeSpace;

    fn small_cube() -> DataCube {
        let space = AttributeSpace::new(vec![(0.0, 4.0), (0.0, 4.0)], vec![4, 4]);
        DataCube::from_tuples(
            &space,
            vec![vec![0.5, 0.5], vec![1.5, 0.5], vec![1.5, 2.5], vec![3.5, 3.5], vec![3.5, 3.5]],
        )
    }

    #[test]
    fn count_query_scan() {
        let cube = small_cube();
        let all = RangeSumQuery::count(vec![(0, 3), (0, 3)]);
        assert_eq!(all.eval_scan(&cube), 5.0);
        let corner = RangeSumQuery::count(vec![(0, 1), (0, 1)]);
        assert_eq!(corner.eval_scan(&cube), 2.0);
        let empty_region = RangeSumQuery::count(vec![(2, 2), (0, 0)]);
        assert_eq!(empty_region.eval_scan(&cube), 0.0);
    }

    #[test]
    fn sum_query_scan() {
        let cube = small_cube();
        // Σ x_0 over everything: 0 + 1 + 1 + 3 + 3 = 8 (bin indices).
        let q = RangeSumQuery::sum_poly(vec![(0, 3), (0, 3)], 0, Polynomial::monomial(1));
        assert_eq!(q.eval_scan(&cube), 8.0);
    }

    #[test]
    fn product_query_scan() {
        let cube = small_cube();
        // Σ x_0·x_1 = 0·0 + 1·0 + 1·2 + 3·3 + 3·3 = 20.
        let q = RangeSumQuery::sum_product(
            vec![(0, 3), (0, 3)],
            0,
            Polynomial::monomial(1),
            1,
            Polynomial::monomial(1),
        );
        assert_eq!(q.eval_scan(&cube), 20.0);
    }

    #[test]
    fn multi_term_query() {
        let cube = small_cube();
        // COUNT + Σ x_0 = 5 + 8.
        let mut q = RangeSumQuery::count(vec![(0, 3), (0, 3)]);
        q.terms.push(Monomial::single(2, 0, Polynomial::monomial(1)));
        assert_eq!(q.eval_scan(&cube), 13.0);
    }

    #[test]
    fn degrees() {
        let q = RangeSumQuery::sum_product(
            vec![(0, 3), (0, 3)],
            0,
            Polynomial::monomial(2),
            1,
            Polynomial::monomial(1),
        );
        assert_eq!(q.max_degree(), 2);
        assert_eq!(RangeSumQuery::count(vec![(0, 1)]).max_degree(), 0);
    }

    #[test]
    fn drill_down_buckets_partition_the_base() {
        let cube = small_cube();
        let base = RangeSumQuery::count(vec![(0, 3), (0, 3)]);
        for (dim, buckets) in [(0, 2), (1, 4), (1, 1)] {
            let parts = base.drill_down(dim, buckets);
            assert_eq!(parts.len(), buckets);
            let total: f64 = parts.iter().map(|q| q.eval_scan(&cube)).sum();
            assert_eq!(total, base.eval_scan(&cube), "dim {dim}, {buckets} buckets");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn uneven_buckets_panic() {
        RangeSumQuery::count(vec![(0, 2), (0, 3)]).drill_down(0, 2);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn validate_rejects_out_of_bounds() {
        RangeSumQuery::count(vec![(0, 4), (0, 3)]).validate(&[4, 4]);
    }
}
