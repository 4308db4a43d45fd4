//! Deterministic random number generation.
//!
//! Everything stochastic in the workspace (dataset synthesis, partitioning
//! tie-breaks, boundary-node sampling, weight init, dropout) flows through
//! [`SeededRng`] so that a run is reproducible from a single `u64` seed.
//!
//! The generator is a self-contained xoshiro256** whose state is expanded
//! from the seed with SplitMix64, so the workspace carries no external
//! RNG dependency and streams are identical on every platform.

/// A seeded random number generator with the distribution helpers the
/// workspace needs (uniform, normal via Box–Muller, permutations,
/// Bernoulli, and weighted choice).
///
/// # Example
///
/// ```
/// use bns_tensor::SeededRng;
///
/// let mut a = SeededRng::new(42);
/// let mut b = SeededRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
    seed: u64,
}

/// One SplitMix64 step; used to expand seeds and mix fork streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates a generator from a `u64` seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { state, seed }
    }

    /// The seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child generator. Used to hand each partition
    /// rank or each epoch its own stream without sharing state.
    pub fn fork(&mut self, stream: u64) -> SeededRng {
        // Mix the parent's seed, a fresh draw and the stream id through
        // SplitMix64 so sibling forks are decorrelated.
        let mut z = self
            .seed
            .wrapping_add(self.next_u64())
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SeededRng::new(z)
    }

    /// Next raw `u64` (xoshiro256**).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, n)` via widening multiply.
    fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform `f32` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform_range requires lo < hi, got [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn usize_below(&mut self, n: usize) -> usize {
        assert!(n > 0, "usize_below requires n > 0");
        self.below(n as u64) as usize
    }

    /// A draw from `N(mean, std^2)` via the Box–Muller transform.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        // Box–Muller; rejecting u1 == 0 keeps ln finite.
        let mut u1 = self.uniform();
        while u1 <= f32::MIN_POSITIVE {
            u1 = self.uniform();
        }
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std * r * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// `p <= 0` always yields `false`; `p >= 1` always yields `true`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Samples `k` distinct indices from `0..n` (Floyd's algorithm), in
    /// unspecified order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct values from 0..{n}");
        if k == 0 {
            return Vec::new();
        }
        // For large k relative to n a shuffle-prefix is cheaper and avoids
        // the hash-set churn of Floyd's algorithm.
        if k * 3 >= n {
            let mut p = self.permutation(n);
            p.truncate(k);
            return p;
        }
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.below(j as u64 + 1) as usize;
            let pick = if chosen.insert(t) { t } else { j };
            if pick != t {
                chosen.insert(pick);
            }
            out.push(pick);
        }
        out
    }

    /// Draws one index in `0..weights.len()` with probability proportional
    /// to `weights[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or the total weight is not positive
    /// and finite.
    pub fn weighted_choice(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "weighted_choice on empty weights");
        let total: f64 = weights.iter().sum();
        assert!(
            total.is_finite() && total > 0.0,
            "weighted_choice requires positive finite total weight, got {total}"
        );
        let mut t = self.unit_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeededRng::new(123);
        let mut b = SeededRng::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn fork_is_deterministic_and_decorrelated() {
        let mut parent1 = SeededRng::new(9);
        let mut parent2 = SeededRng::new(9);
        let mut c1 = parent1.fork(0);
        let mut c2 = parent2.fork(0);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(1);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeededRng::new(5);
        let n = 20_000;
        let xs: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = xs.iter().sum::<f32>() / n as f32;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn uniform_bounds() {
        let mut rng = SeededRng::new(17);
        for _ in 0..1000 {
            let x = rng.uniform_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn uniform_covers_unit_interval() {
        let mut rng = SeededRng::new(29);
        let mut buckets = [0usize; 10];
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
            buckets[(x * 10.0) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 700), "buckets {buckets:?}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SeededRng::new(3);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = SeededRng::new(11);
        let p = rng.permutation(100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = SeededRng::new(13);
        for &(n, k) in &[(10usize, 3usize), (100, 90), (50, 0), (7, 7)] {
            let s = rng.sample_distinct(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "duplicates in sample");
            assert!(s.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_distinct_too_many_panics() {
        SeededRng::new(1).sample_distinct(3, 4);
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let mut rng = SeededRng::new(21);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[rng.weighted_choice(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.4, "ratio {ratio}");
    }
}
