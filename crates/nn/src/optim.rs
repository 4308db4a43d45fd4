//! Optimizers. The paper uses Adam everywhere.

use bns_tensor::simd::{self, AdamHyper};
use bns_tensor::Matrix;

/// The Adam optimizer (Kingma & Ba) with optional weight decay.
///
/// State is lazily initialized on the first [`Adam::step`]; subsequent
/// calls must pass the same number and shapes of parameters.
///
/// # Example
///
/// ```
/// use bns_nn::Adam;
/// use bns_tensor::Matrix;
///
/// // Minimize f(x) = x² from x = 3.
/// let mut x = Matrix::from_rows(&[&[3.0f32]]);
/// let mut opt = Adam::new(0.1);
/// for _ in 0..200 {
///     let g = Matrix::from_rows(&[&[2.0 * x[(0, 0)]]]);
///     opt.step(&mut [&mut x], &[&g]);
/// }
/// assert!(x[(0, 0)].abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay coefficient (0 disables).
    pub weight_decay: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update. `params[i]` is updated using `grads[i]`.
    ///
    /// # Panics
    ///
    /// Panics if counts or shapes differ from the first call.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[&Matrix]) {
        assert_eq!(params.len(), grads.len(), "params/grads count mismatch");
        if self.m.is_empty() {
            for p in params.iter() {
                self.push_moments(p);
            }
        }
        assert_eq!(self.m.len(), params.len(), "parameter count changed");
        let mut step = self.begin_step();
        for (p, g) in params.iter_mut().zip(grads) {
            step.update(p, g);
        }
    }

    /// Adds zeroed moments for one more parameter shaped like `p`.
    /// [`Adam::step`] does this itself on its first call; a caller of
    /// [`Adam::begin_step`] does it once per parameter, in update
    /// order, before the first step.
    pub fn push_moments(&mut self, p: &Matrix) {
        self.m.push(Matrix::zeros(p.rows(), p.cols()));
        self.v.push(Matrix::zeros(p.rows(), p.cols()));
    }

    /// Starts one update: advances the step count and returns the
    /// [`AdamStep`] that updates each `(parameter, gradient)` pair in
    /// turn. Pair `i` of every step uses moment slot `i`, so visiting
    /// the pairs in place gives the bits of [`Adam::step`] over the same
    /// pairs in the same order.
    pub fn begin_step(&mut self) -> AdamStep<'_> {
        self.t += 1;
        let hyper = AdamHyper {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        };
        AdamStep {
            bk: simd::begin_kernel(),
            hyper,
            next: 0,
            adam: self,
        }
    }
}

/// One Adam step in progress, from [`Adam::begin_step`]: each
/// [`AdamStep::update`] takes the next moment slot.
#[derive(Debug)]
pub struct AdamStep<'a> {
    adam: &'a mut Adam,
    hyper: AdamHyper,
    bk: simd::Backend,
    next: usize,
}

impl AdamStep<'_> {
    /// Updates `p` with its gradient `g` using the next moment slot.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ from the moments at this position,
    /// or if every moment slot is used already.
    pub fn update(&mut self, p: &mut Matrix, g: &Matrix) {
        let i = self.next;
        assert!(i < self.adam.m.len(), "parameter count changed");
        let (m, v) = (&mut self.adam.m[i], &mut self.adam.v[i]);
        self.next += 1;
        assert_eq!(p.shape(), g.shape(), "parameter shape changed");
        assert_eq!(
            p.shape(),
            m.shape(),
            "parameter shape differs from first-call shape"
        );
        // `div`/`sqrt` are correctly rounded on every backend, so the
        // vectorized update is bitwise identical to the scalar
        // expression sequence.
        simd::adam_update(
            self.bk,
            p.as_mut_slice(),
            g.as_slice(),
            m.as_mut_slice(),
            v.as_mut_slice(),
            &self.hyper,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_quadratic_bowl() {
        let mut x = Matrix::from_rows(&[&[5.0, -3.0]]);
        let mut opt = Adam::new(0.2);
        for _ in 0..300 {
            let g = Matrix::from_rows(&[&[2.0 * x[(0, 0)], 2.0 * x[(0, 1)]]]);
            opt.step(&mut [&mut x], &[&g]);
        }
        assert!(x[(0, 0)].abs() < 0.05 && x[(0, 1)].abs() < 0.05, "{x:?}");
        assert_eq!(opt.steps(), 300);
    }

    #[test]
    fn multiple_params_updated_independently() {
        let mut a = Matrix::from_rows(&[&[1.0]]);
        let mut b = Matrix::from_rows(&[&[10.0]]);
        let mut opt = Adam::new(0.5);
        for _ in 0..100 {
            let ga = Matrix::from_rows(&[&[2.0 * a[(0, 0)]]]);
            let gb = Matrix::from_rows(&[&[2.0 * (b[(0, 0)] - 4.0)]]);
            opt.step(&mut [&mut a, &mut b], &[&ga, &gb]);
        }
        assert!(a[(0, 0)].abs() < 0.1);
        assert!((b[(0, 0)] - 4.0).abs() < 0.1);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut x = Matrix::from_rows(&[&[2.0]]);
        let mut opt = Adam::new(0.05);
        opt.weight_decay = 0.5;
        for _ in 0..500 {
            let g = Matrix::from_rows(&[&[0.0]]); // no loss gradient
            opt.step(&mut [&mut x], &[&g]);
        }
        assert!(x[(0, 0)].abs() < 0.2, "{}", x[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn mismatched_counts_panic() {
        let mut x = Matrix::zeros(1, 1);
        Adam::new(0.1).step(&mut [&mut x], &[]);
    }

    #[test]
    #[should_panic(expected = "differs from first-call shape")]
    fn reshaped_parameter_panics() {
        // Same param count but a different shape on the second call must
        // not silently apply the stale moments.
        let mut opt = Adam::new(0.1);
        let mut small = Matrix::zeros(2, 2);
        let g_small = Matrix::zeros(2, 2);
        opt.step(&mut [&mut small], &[&g_small]);
        let mut big = Matrix::zeros(3, 4);
        let g_big = Matrix::zeros(3, 4);
        opt.step(&mut [&mut big], &[&g_big]);
    }
}
