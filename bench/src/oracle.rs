//! The harness's own source of truth: seeded inputs and exact answers.
//!
//! Nothing here calls into the system under test. The demo cube is
//! re-derived from the seed the server was started with and answered from
//! a summed-area table; tier streams are a seeded integer ring answered
//! from prefix sums. Every value is a small integer, so the reference
//! sums are exact in `f64` and the only tolerance needed is for the
//! wavelet arithmetic on the other side.

/// |estimate − truth| allowed, relative to `1 + |truth|`.
pub const TOLERANCE: f64 = 1e-6;

/// True when `estimate` matches the reference within [`TOLERANCE`].
pub fn close(estimate: f64, truth: f64) -> bool {
    (estimate - truth).abs() <= TOLERANCE * (1.0 + truth.abs())
}

/// SplitMix64: the harness's only random source, so one `--seed` fixes
/// every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds and
    /// from other streams of the same seed by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed handed to `aims-serve --seed`: derived from the run seed and
/// never zero (xorshift's fixed point).
pub fn cube_seed(seed: u64) -> u64 {
    Rng::new(seed, 0xC0BE).next_u64() | 1
}

/// Mirror of `aims-serve`'s demo cube: a side×side grid of counts in
/// `0..9` from one xorshift stream, row-major.
pub fn demo_cube(side: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..side * side)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 9) as f64
        })
        .collect()
}

/// Summed-area table over a square grid: any 2-D range sum in four
/// lookups.
pub struct SummedArea {
    side: usize,
    /// `(side+1)²` prefix sums; entry `(i, j)` sums rows `< i`, cols `< j`.
    table: Vec<u64>,
}

impl SummedArea {
    /// Builds the table from row-major integer-valued cells.
    pub fn new(side: usize, cells: &[f64]) -> Self {
        assert_eq!(cells.len(), side * side, "cube is not side×side");
        let w = side + 1;
        let mut table = vec![0u64; w * w];
        for i in 0..side {
            let mut row = 0u64;
            for j in 0..side {
                row += cells[i * side + j] as u64;
                table[(i + 1) * w + j + 1] = table[i * w + j + 1] + row;
            }
        }
        SummedArea { side, table }
    }

    /// Exact sum over the inclusive box `ranges = [(r0, r1), (c0, c1)]`.
    pub fn sum(&self, ranges: &[(usize, usize)]) -> f64 {
        let [(r0, r1), (c0, c1)] = [ranges[0], ranges[1]];
        let w = self.side + 1;
        let at = |i: usize, j: usize| self.table[i * w + j];
        (at(r1 + 1, c1 + 1) + at(r0, c0) - at(r0, c1 + 1) - at(r1 + 1, c0)) as f64
    }
}

/// The `serve_point_hot` mix: 80 % single cells, 20 % boxes side/8 wide,
/// positions uniform.
pub fn point_hot_query(rng: &mut Rng, side: usize) -> Vec<(usize, usize)> {
    let width = if rng.below(5) == 0 { side / 8 } else { 1 };
    (0..2)
        .map(|_| {
            let lo = rng.below(side - width + 1);
            (lo, lo + width - 1)
        })
        .collect()
}

/// The `serve_range_cold` mix: wide boxes, each lower bound in the first
/// quarter of its dimension and each upper bound in the last.
pub fn range_cold_query(rng: &mut Rng, side: usize) -> Vec<(usize, usize)> {
    (0..2).map(|_| (rng.below(side / 4), side - 1 - rng.below(side / 4))).collect()
}

/// Samples per ingest call on every tier workload.
pub const CHUNK: usize = 256;
/// Chunks in the seeded ring the tier stream repeats.
const RING_CHUNKS: usize = 1024;

/// The tier workloads' sample stream and its prefix sums: an optional
/// head of arbitrary samples (the acquisition session) followed by a
/// seeded ring of integers repeated for as long as the producer runs.
pub struct Stream {
    /// `head_prefix[i]` = sum of the first `i` head samples.
    head_prefix: Vec<f64>,
    ring: Vec<f64>,
    /// `ring_prefix[i]` = sum of the first `i` ring samples.
    ring_prefix: Vec<i64>,
}

impl Stream {
    /// A stream for `seed` whose first samples are `head`.
    pub fn new(seed: u64, head: &[f64]) -> Self {
        let mut rng = Rng::new(seed, 0x5157);
        let ring: Vec<f64> =
            (0..RING_CHUNKS * CHUNK).map(|_| rng.below(361) as f64 - 180.0).collect();
        let mut ring_prefix = Vec::with_capacity(ring.len() + 1);
        ring_prefix.push(0i64);
        for &v in &ring {
            ring_prefix.push(ring_prefix.last().unwrap() + v as i64);
        }
        let mut head_prefix = Vec::with_capacity(head.len() + 1);
        head_prefix.push(0.0);
        for &v in head {
            head_prefix.push(head_prefix.last().unwrap() + v);
        }
        Stream { head_prefix, ring, ring_prefix }
    }

    /// Samples in the head.
    pub fn head_len(&self) -> usize {
        self.head_prefix.len() - 1
    }

    /// The `k`-th 256-sample chunk after the head.
    pub fn chunk(&self, k: u64) -> &[f64] {
        let at = (k as usize % RING_CHUNKS) * CHUNK;
        &self.ring[at..at + CHUNK]
    }

    /// Sum of the first `i` samples of the whole stream.
    fn prefix(&self, i: usize) -> f64 {
        let head = self.head_len();
        if i <= head {
            return self.head_prefix[i];
        }
        let i = i - head;
        let (laps, rest) = (i / self.ring.len(), i % self.ring.len());
        let ring_total = *self.ring_prefix.last().unwrap();
        self.head_prefix[head] + (laps as i64 * ring_total + self.ring_prefix[rest]) as f64
    }

    /// Exact `Σ x[t], t ∈ [a, b]` (inclusive).
    pub fn range_sum(&self, a: usize, b: usize) -> f64 {
        self.prefix(b + 1) - self.prefix(a)
    }
}

/// Widths of the tier query mix: a segment, 2^19 samples, 2^21 samples.
const TIER_WIDTHS: [usize; 3] = [1 << 21, 1 << 19, 1 << 12];

/// The tier query mix over the `n` samples visible when query `k` is
/// planned, in strict rotation: the last 2^21 samples (history plus the
/// hot tail), a 2^19-sample window at a seeded position (history alone),
/// and the last segment (the hot tier). The three cost an order of
/// magnitude apart, so a random mix would make every figure depend on how
/// many of each a window drew; in rotation the median query is the middle
/// kind. The widths are fixed — E32's full-history and middle-half ranges
/// would grow with the store, fourfold over one window — so that a query
/// costs the same at the end of a run as at its start and the rates and
/// medians describe the system, not the moment they were taken. The seed
/// shifts each range by up to a segment.
pub fn tier_query(rng: &mut Rng, k: u64, n: usize, segment_len: usize) -> (usize, usize) {
    let width = TIER_WIDTHS[(k % 3) as usize].min(n);
    let shift = rng.below(segment_len).min(n - width);
    let start = if k % 3 == 1 { rng.below(n - width + 1) } else { n - width - shift };
    (start, start + width - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summed_area_matches_brute_force() {
        let side = 37;
        let cells = demo_cube(side, cube_seed(5));
        let sat = SummedArea::new(side, &cells);
        let mut rng = Rng::new(9, 1);
        for _ in 0..500 {
            let q: Vec<(usize, usize)> = (0..2)
                .map(|_| {
                    let (a, b) = (rng.below(side), rng.below(side));
                    (a.min(b), a.max(b))
                })
                .collect();
            let brute: f64 = (q[0].0..=q[0].1)
                .flat_map(|i| (q[1].0..=q[1].1).map(move |j| (i, j)))
                .map(|(i, j)| cells[i * side + j])
                .sum();
            assert_eq!(sat.sum(&q), brute, "{q:?}");
        }
        assert_eq!(sat.sum(&[(0, side - 1), (0, side - 1)]), cells.iter().sum::<f64>());
    }

    #[test]
    fn generated_queries_stay_inside_the_cube() {
        let mut rng = Rng::new(3, 2);
        for _ in 0..2000 {
            for q in [point_hot_query(&mut rng, 256), range_cold_query(&mut rng, 256)] {
                assert!(q.iter().all(|&(lo, hi)| lo <= hi && hi < 256), "{q:?}");
            }
        }
        let wide = range_cold_query(&mut rng, 1024);
        assert!(wide.iter().all(|&(lo, hi)| lo < 256 && hi >= 768));
    }

    #[test]
    fn tier_queries_rotate_and_stay_inside_the_visible_prefix() {
        let mut rng = Rng::new(3, 5);
        for n in [CHUNK, 4096, 5000, 1 << 20, 9_000_000] {
            for k in 0..300 {
                let (a, b) = tier_query(&mut rng, k, n, 4096);
                assert!(a <= b && b < n, "query {k} over {n}: [{a}, {b}]");
                assert_eq!(b - a + 1, TIER_WIDTHS[(k % 3) as usize].min(n));
                if k % 3 != 1 {
                    assert!(n - 1 - b < 4096, "query {k} is not at the end: [{a}, {b}] of {n}");
                }
            }
        }
    }

    #[test]
    fn stream_prefix_matches_brute_force_across_head_and_laps() {
        let head = [1.5, -2.25, 4.0];
        let s = Stream::new(7, &head);
        let total = head.len() + 2 * RING_CHUNKS * CHUNK + 700;
        let flat: Vec<f64> = head
            .iter()
            .copied()
            .chain((0..).flat_map(|k| s.chunk(k).to_vec()))
            .take(total)
            .collect();
        for (a, b) in
            [(0, 0), (1, 5), (0, total - 1), (2, RING_CHUNKS * CHUNK + 9), (total - 3, total - 1)]
        {
            let brute: f64 = flat[a..=b].iter().sum();
            assert!(close(s.range_sum(a, b), brute), "[{a}, {b}]");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let (mut a, mut b, mut c) = (Rng::new(11, 4), Rng::new(11, 4), Rng::new(12, 4));
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert_ne!(cube_seed(11), 0);
    }
}
