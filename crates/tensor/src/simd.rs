//! Runtime-dispatched SIMD backend for the f32 kernels.
//!
//! Every hot loop in the workspace (dense matmul, neighbor aggregation,
//! activations, Adam) funnels through the kernels in this module, which
//! pick a lane width at runtime: AVX-512 (16 lanes), AVX2 (8) or SSE2
//! (4) on x86_64, NEON (4) on aarch64, and a scalar fallback
//! everywhere. The choice is made once per process from CPU feature
//! detection, overridable with the `BNS_SIMD` environment variable
//! (mirroring `BNS_THREADS` from [`crate::pool`]): `scalar`, `sse2`,
//! `avx2`, `avx512`, `neon`, or `auto`.
//!
//! Column tails step down: whatever a kernel's full-width body leaves
//! over runs at the next narrower width of the same ISA
//! (AVX-512 → AVX2 → SSE2 → scalar, NEON → scalar), so a 16-lane
//! backend does not fall back to single columns for a 24-wide row.
//!
//! # Determinism contract
//!
//! Results are **bitwise identical at every lane width**, extending the
//! thread-count invariance established by the pool. Two rules make this
//! hold:
//!
//! * **Reduction order is never changed.** Kernels vectorize across
//!   *independent output elements* (matmul rows broadcast one `a[i][k]`
//!   across contiguous output columns; elementwise ops are lane-local),
//!   so each output element still accumulates its `k` terms in exactly
//!   the scalar program order. No horizontal adds, no per-lane partial
//!   accumulators.
//! * **No FMA, ever.** A fused multiply-add rounds once where `mul`
//!   then `add` rounds twice, so `a*b+c` would differ in the last ulp
//!   between backends. Every kernel multiplies and adds as separate
//!   correctly-rounded IEEE 754 ops (`cargo xtask analyze` bans FMA
//!   intrinsics in kernel files). `div` and `sqrt` are also correctly
//!   rounded on every supported ISA, so the Adam kernel is exact too.
//!   Enabling `avx512f` also enables the `fma` target feature, which
//!   changes nothing: Rust never contracts a separate `a * b + c` into
//!   a fused op, so only an explicit FMA intrinsic could fuse.
//!
//! One caveat: when an add or mul combines **two NaNs with different
//! payloads** (e.g. an injected `f32::NAN` meeting the `0xFFC00000`
//! NaN that `inf * 0.0` generates), which payload survives is
//! unspecified in Rust — LLVM may commute the operands differently per
//! backend. All NaNs of a single payload propagate bit-identically, so
//! the contract holds for every input that does not mix NaN payloads;
//! training never produces mixed payloads (the kernels have no inf
//! constants and quiet all NaNs to the canonical payload on the ReLU
//! path).
//!
//! # Composition with the pool
//!
//! The backend is resolved **once at each top-level kernel entry** (on
//! the calling thread, where a [`force`] override is visible) and the
//! resulting [`Backend`] value is passed into the pool closures — worker
//! threads never consult thread-local state. Threads × lanes compose:
//! the pool splits output rows, the lanes split each row.
//!
//! # Telemetry
//!
//! Top-level kernel entries call [`begin_kernel`], which counts the
//! dispatch per backend in a thread-local [`DispatchStats`]; the engine
//! drains it per rank with [`take_thread_stats`] into the
//! `simd.dispatch.*` counters.

use std::cell::Cell;
use std::sync::OnceLock;

/// Environment variable naming the backend (`scalar`, `sse2`, `avx2`,
/// `avx512`, `neon`, or `auto`). Unknown or unavailable values fall
/// back to [`detect`], like an absent variable.
pub const ENV_SIMD: &str = "BNS_SIMD";

/// Depth-blocking factor for the matmul kernels: an `MM_KC x cols`
/// panel of the right-hand operand is packed once and reused across
/// every row tile of a block while it is hot in cache. Panels ascend
/// and `k` ascends within a panel, so the per-element accumulation
/// order is plain ascending `k` — identical to the untiled loop.
pub(crate) const MM_KC: usize = 128;

/// A SIMD instruction set the kernels can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Backend {
    /// Plain scalar f32 loops — always available, the reference.
    Scalar,
    /// 4-lane x86_64 (baseline on every x86_64 target).
    Sse2,
    /// 8-lane x86_64.
    Avx2,
    /// 16-lane x86_64 (`avx512f`).
    Avx512,
    /// 4-lane aarch64 (baseline on every aarch64 target).
    Neon,
}

impl Backend {
    /// All variants, best-first within each architecture.
    pub const ALL: [Backend; 5] = [
        Backend::Neon,
        Backend::Avx512,
        Backend::Avx2,
        Backend::Sse2,
        Backend::Scalar,
    ];

    /// The `BNS_SIMD` spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
            Backend::Neon => "neon",
        }
    }

    /// f32 lanes per vector op.
    pub fn lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 | Backend::Neon => 4,
            Backend::Avx2 => 8,
            Backend::Avx512 => 16,
        }
    }

    /// Parses a `BNS_SIMD` value (case-insensitive). `None` for
    /// unknown spellings — [`resolve`] maps those to [`detect`].
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL
            .into_iter()
            .find(|bk| s.eq_ignore_ascii_case(bk.name()))
    }

    /// Whether this CPU can execute the backend. `Scalar` always can;
    /// baseline features (SSE2 on x86_64, NEON on aarch64) short-cut
    /// through compile-time knowledge so the check also holds under
    /// interpreters that report no runtime features (Miri).
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 => cfg!(target_feature = "sse2") || is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            Backend::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Panics unless the backend can run on this CPU. Every dispatched
    /// kernel funnels through this, which is what makes the public
    /// kernel functions sound: an unavailable `Backend` value aborts
    /// before any intrinsic executes.
    fn checked(self) -> Backend {
        assert!(
            self.is_available(),
            "SIMD backend `{}` is not available on this CPU (set {ENV_SIMD}=auto)",
            self.name()
        );
        self
    }
}

/// The best backend this CPU supports.
pub fn detect() -> Backend {
    static CACHE: OnceLock<Backend> = OnceLock::new();
    *CACHE.get_or_init(|| {
        Backend::ALL
            .into_iter()
            .find(|bk| bk.is_available())
            .unwrap_or(Backend::Scalar)
    })
}

/// Resolves a `BNS_SIMD` request to a usable backend: absent / empty /
/// `auto` / unknown / unavailable all yield [`detect`]; a recognized,
/// available name is honored (including forcing `scalar` or `sse2` on
/// an AVX2 host). Pure in its argument, so tests can cover the whole
/// table without touching the process environment.
pub fn resolve(request: Option<&str>) -> Backend {
    match request.map(str::trim) {
        None | Some("") => detect(),
        Some(s) if s.eq_ignore_ascii_case("auto") => detect(),
        Some(s) => match Backend::parse(s) {
            Some(bk) if bk.is_available() => bk,
            _ => detect(),
        },
    }
}

fn default_backend() -> Backend {
    static DEFAULT: OnceLock<Backend> = OnceLock::new();
    *DEFAULT.get_or_init(|| resolve(std::env::var(ENV_SIMD).ok().as_deref()))
}

thread_local! {
    static FORCED: Cell<Option<Backend>> = const { Cell::new(None) };
    static STATS: Cell<DispatchStats> = const { Cell::new(DispatchStats::ZERO) };
}

/// The backend top-level kernels use on this thread: a [`force`]
/// override if one is active, else the process-wide `BNS_SIMD` /
/// [`detect`] default.
pub fn active() -> Backend {
    FORCED.with(Cell::get).unwrap_or_else(default_backend)
}

/// Resolves the active backend and counts one top-level kernel
/// dispatch against it (see [`DispatchStats`]). Kernel entry points
/// call this once, before any pool fan-out.
pub fn begin_kernel() -> Backend {
    let bk = active();
    note_dispatch(bk);
    bk
}

/// Counts one top-level kernel dispatch on this thread's stats.
pub fn note_dispatch(bk: Backend) {
    STATS.with(|s| {
        let mut d = s.get();
        *d.slot_mut(bk) += 1;
        s.replace(d);
    });
}

/// Restores the previous per-thread backend override on drop.
#[must_use = "the override ends when the guard drops"]
pub struct ForceGuard {
    prev: Option<Backend>,
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        FORCED.with(|f| f.set(prev));
    }
}

/// Forces `bk` for top-level kernels on **this thread** until the
/// guard drops (tests and benches; production uses `BNS_SIMD`). Pool
/// workers inherit the choice because kernels resolve the backend on
/// the calling thread and pass it into their pool closures.
///
/// # Panics
///
/// Panics if `bk` cannot run on this CPU.
pub fn force(bk: Backend) -> ForceGuard {
    let bk = bk.checked();
    let prev = FORCED.with(|f| f.replace(Some(bk)));
    ForceGuard { prev }
}

/// Per-thread top-level kernel dispatch counts, by backend.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// Dispatches that ran the scalar fallback.
    pub scalar: u64,
    /// Dispatches that ran SSE2 kernels.
    pub sse2: u64,
    /// Dispatches that ran AVX2 kernels.
    pub avx2: u64,
    /// Dispatches that ran AVX-512 kernels.
    pub avx512: u64,
    /// Dispatches that ran NEON kernels.
    pub neon: u64,
}

impl DispatchStats {
    const ZERO: DispatchStats = DispatchStats {
        scalar: 0,
        sse2: 0,
        avx2: 0,
        avx512: 0,
        neon: 0,
    };

    fn slot_mut(&mut self, bk: Backend) -> &mut u64 {
        match bk {
            Backend::Scalar => &mut self.scalar,
            Backend::Sse2 => &mut self.sse2,
            Backend::Avx2 => &mut self.avx2,
            Backend::Avx512 => &mut self.avx512,
            Backend::Neon => &mut self.neon,
        }
    }

    /// The count for one backend.
    pub fn get(&self, bk: Backend) -> u64 {
        match bk {
            Backend::Scalar => self.scalar,
            Backend::Sse2 => self.sse2,
            Backend::Avx2 => self.avx2,
            Backend::Avx512 => self.avx512,
            Backend::Neon => self.neon,
        }
    }

    /// Total dispatches across all backends.
    pub fn total(&self) -> u64 {
        self.scalar + self.sse2 + self.avx2 + self.avx512 + self.neon
    }

    /// Dispatches that used a vector backend.
    pub fn vectorized(&self) -> u64 {
        self.total() - self.scalar
    }
}

/// This thread's dispatch counts since start (or the last take).
pub fn thread_stats() -> DispatchStats {
    STATS.with(Cell::get)
}

/// Drains and resets this thread's dispatch counts — the engine flushes
/// the delta into the `simd.dispatch.*` telemetry counters per rank.
pub fn take_thread_stats() -> DispatchStats {
    STATS.with(|s| s.replace(DispatchStats::ZERO))
}

/// Adam hyper-parameters plus the step-dependent bias corrections,
/// packaged for [`adam_update`]. `b1t`/`b2t` are `1 - βᵢ^t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamHyper {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    /// `1 - beta1.powi(t)` for the current step `t`.
    pub b1t: f32,
    /// `1 - beta2.powi(t)` for the current step `t`.
    pub b2t: f32,
}

/// Lane-parallel f32 primitives, one impl per [`Backend`].
///
/// The methods are safe *functions* whose bodies contain the raw
/// intrinsics. Their CPU-feature obligation is discharged non-locally:
/// the only callers are the generic kernels in [`kernels`], which are
/// `#[inline(always)]` and reachable solely through the
/// `#[target_feature]` wrappers generated by `dispatch_kernels!`, after
/// [`Backend::checked`] verified the feature at runtime. Memory safety
/// is discharged locally: `load`/`store` take slices and assert the
/// lane count before touching pointers.
trait Vf32 {
    /// f32 lanes per vector.
    const LANES: usize;
    /// The next narrower width on the same ISA, which runs the column
    /// tails a full vector leaves over: [`ScalarV`] below the 4-lane
    /// impls, and `ScalarV` for itself. Its features are implied by
    /// this one's, so it is callable wherever this impl is.
    type Half: Vf32;
    /// The vector register type.
    type V: Copy;
    /// All lanes set to `x`.
    fn splat(x: f32) -> Self::V;
    /// Loads `LANES` f32s from the front of `s` (unaligned).
    fn load(s: &[f32]) -> Self::V;
    /// Stores the vector to the front of `s` (unaligned).
    fn store(s: &mut [f32], v: Self::V);
    /// Lanewise `a + b`.
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a - b`.
    fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a * b` (never fused with an add).
    fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a / b` (correctly rounded; no reciprocal estimate).
    fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise square root (correctly rounded; no rsqrt estimate).
    fn sqrt(a: Self::V) -> Self::V;
    /// Lanewise `if c > 0.0 { a } else { b }`; NaN and `-0.0` in `c`
    /// select `b`, exactly like the scalar `>` comparison.
    fn select_gtz(c: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `if a < b { x } else { y }`; a NaN in `a` or `b`
    /// selects `y`, exactly like the scalar `<` comparison.
    fn select_lt(a: Self::V, b: Self::V, x: Self::V, y: Self::V) -> Self::V;
    /// Lanewise round toward zero, [`f32::trunc`] bit for bit (`-0.5`
    /// gives `-0.0`; NaN and ±∞ pass through).
    fn trunc(a: Self::V) -> Self::V;
    /// Stores each lane, converted to an integer toward zero and
    /// saturated to `[0, 255]` (NaN gives 0), as one byte at the front
    /// of `s` — `x as u8` per lane. Lanes must lie below 2³¹.
    fn narrow_u8(s: &mut [u8], v: Self::V);
    /// Lane `i` is `a` where bit `i` of `bits` is set, `+0.0` where it
    /// is clear, selected without a branch (a bit mask ANDed onto `a`'s
    /// bits, or an AVX-512 mask register).
    fn bits_or_zero(bits: u32, a: f32) -> Self::V;
}

/// The scalar reference "backend": one lane, plain f32 arithmetic. The
/// vector impls must match it bit for bit (tests force every backend
/// through the same inputs).
struct ScalarV;

impl Vf32 for ScalarV {
    const LANES: usize = 1;
    type Half = ScalarV;
    type V = f32;

    #[inline(always)]
    fn splat(x: f32) -> f32 {
        x
    }

    #[inline(always)]
    fn load(s: &[f32]) -> f32 {
        s[0]
    }

    #[inline(always)]
    fn store(s: &mut [f32], v: f32) {
        s[0] = v;
    }

    #[inline(always)]
    fn add(a: f32, b: f32) -> f32 {
        a + b
    }

    #[inline(always)]
    fn sub(a: f32, b: f32) -> f32 {
        a - b
    }

    #[inline(always)]
    fn mul(a: f32, b: f32) -> f32 {
        a * b
    }

    #[inline(always)]
    fn div(a: f32, b: f32) -> f32 {
        a / b
    }

    #[inline(always)]
    fn sqrt(a: f32) -> f32 {
        a.sqrt()
    }

    #[inline(always)]
    fn select_gtz(c: f32, a: f32, b: f32) -> f32 {
        if c > 0.0 {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    fn select_lt(a: f32, b: f32, x: f32, y: f32) -> f32 {
        if a < b {
            x
        } else {
            y
        }
    }

    #[inline(always)]
    fn trunc(a: f32) -> f32 {
        a.trunc()
    }

    #[inline(always)]
    fn narrow_u8(s: &mut [u8], v: f32) {
        s[0] = v as u8;
    }

    #[inline(always)]
    fn bits_or_zero(bits: u32, a: f32) -> f32 {
        f32::from_bits(a.to_bits() & 0u32.wrapping_sub(bits & 1))
    }
}

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64 as x86;

/// 4-lane SSE2 (x86_64 baseline).
#[cfg(target_arch = "x86_64")]
struct Sse2V;

#[cfg(target_arch = "x86_64")]
impl Vf32 for Sse2V {
    const LANES: usize = 4;
    type Half = ScalarV;
    type V = x86::__m128;

    #[inline(always)]
    fn splat(x: f32) -> Self::V {
        // SAFETY: SSE2 verified by `Backend::checked` in the dispatcher
        // before this impl is reachable (x86_64 baseline feature).
        unsafe { x86::_mm_set1_ps(x) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self::V {
        assert!(s.len() >= 4);
        // SAFETY: `s` holds at least 4 f32s (asserted above), so the
        // unaligned load stays in bounds; SSE2 per `Backend::checked`.
        unsafe { x86::_mm_loadu_ps(s.as_ptr()) }
    }

    #[inline(always)]
    fn store(s: &mut [f32], v: Self::V) {
        assert!(s.len() >= 4);
        // SAFETY: `s` holds at least 4 f32s (asserted above), so the
        // unaligned store stays in bounds; SSE2 per `Backend::checked`.
        unsafe { x86::_mm_storeu_ps(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm_sub_ps(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm_mul_ps(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm_div_ps(a, b) }
    }

    #[inline(always)]
    fn sqrt(a: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm_sqrt_ps(a) }
    }

    #[inline(always)]
    fn select_gtz(c: Self::V, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`). cmpgt is
        // an ordered compare: NaN lanes produce a zero mask -> `b`.
        unsafe {
            let m = x86::_mm_cmpgt_ps(c, x86::_mm_setzero_ps());
            x86::_mm_or_ps(x86::_mm_and_ps(m, a), x86::_mm_andnot_ps(m, b))
        }
    }

    #[inline(always)]
    fn select_lt(a: Self::V, b: Self::V, x: Self::V, y: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`). cmplt is
        // an ordered compare: NaN lanes produce a zero mask -> `y`.
        unsafe {
            let m = x86::_mm_cmplt_ps(a, b);
            x86::_mm_or_ps(x86::_mm_and_ps(m, x), x86::_mm_andnot_ps(m, y))
        }
    }

    #[inline(always)]
    fn trunc(a: Self::V) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`). SSE2 has no
        // rounding instruction: lanes below 2^23 in magnitude (NaN is
        // not) round-trip through i32, which truncates, and get their
        // sign back (so -0.5 -> -0.0); larger lanes, ±inf and NaN are
        // already whole and pass through.
        unsafe {
            let sign = x86::_mm_set1_ps(-0.0);
            let small =
                x86::_mm_cmplt_ps(x86::_mm_andnot_ps(sign, a), x86::_mm_set1_ps(8_388_608.0));
            let t = x86::_mm_cvtepi32_ps(x86::_mm_cvttps_epi32(a));
            let t = x86::_mm_or_ps(t, x86::_mm_and_ps(a, sign));
            x86::_mm_or_ps(x86::_mm_and_ps(small, t), x86::_mm_andnot_ps(small, a))
        }
    }

    #[inline(always)]
    fn narrow_u8(s: &mut [u8], v: Self::V) {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`). cvtt gives
        // i32::MIN for NaN, which both saturating packs take to 0.
        let word = unsafe {
            let i = x86::_mm_cvttps_epi32(v);
            let w = x86::_mm_packs_epi32(i, i);
            x86::_mm_cvtsi128_si32(x86::_mm_packus_epi16(w, w)) as u32
        };
        s[..4].copy_from_slice(&word.to_le_bytes());
    }

    #[inline(always)]
    fn bits_or_zero(bits: u32, a: f32) -> Self::V {
        // SAFETY: SSE2 per `Backend::checked` (see `splat`). Lane `i`
        // keeps bit `i`; comparing against the lane's own bit widens it
        // to an all-ones or all-zeros lane mask.
        unsafe {
            let lane = x86::_mm_setr_epi32(1, 2, 4, 8);
            let hit = x86::_mm_and_si128(x86::_mm_set1_epi32(bits as i32), lane);
            let m = x86::_mm_castsi128_ps(x86::_mm_cmpeq_epi32(hit, lane));
            x86::_mm_and_ps(m, x86::_mm_set1_ps(a))
        }
    }
}

/// 8-lane AVX2.
#[cfg(target_arch = "x86_64")]
struct Avx2V;

#[cfg(target_arch = "x86_64")]
impl Vf32 for Avx2V {
    const LANES: usize = 8;
    type Half = Sse2V;
    type V = x86::__m256;

    #[inline(always)]
    fn splat(x: f32) -> Self::V {
        // SAFETY: AVX2 verified at runtime by `Backend::checked` in the
        // dispatcher before this impl is reachable.
        unsafe { x86::_mm256_set1_ps(x) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self::V {
        assert!(s.len() >= 8);
        // SAFETY: `s` holds at least 8 f32s (asserted above), so the
        // unaligned load stays in bounds; AVX2 per `Backend::checked`.
        unsafe { x86::_mm256_loadu_ps(s.as_ptr()) }
    }

    #[inline(always)]
    fn store(s: &mut [f32], v: Self::V) {
        assert!(s.len() >= 8);
        // SAFETY: `s` holds at least 8 f32s (asserted above), so the
        // unaligned store stays in bounds; AVX2 per `Backend::checked`.
        unsafe { x86::_mm256_storeu_ps(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_sub_ps(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_mul_ps(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_div_ps(a, b) }
    }

    #[inline(always)]
    fn sqrt(a: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_sqrt_ps(a) }
    }

    #[inline(always)]
    fn select_gtz(c: Self::V, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`). _CMP_GT_OQ
        // is the ordered quiet `>`: NaN lanes give a zero mask -> `b`.
        unsafe {
            let m = x86::_mm256_cmp_ps::<{ x86::_CMP_GT_OQ }>(c, x86::_mm256_setzero_ps());
            x86::_mm256_blendv_ps(b, a, m)
        }
    }

    #[inline(always)]
    fn select_lt(a: Self::V, b: Self::V, x: Self::V, y: Self::V) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`). _CMP_LT_OQ
        // is the ordered quiet `<`: NaN lanes give a zero mask -> `y`.
        unsafe {
            let m = x86::_mm256_cmp_ps::<{ x86::_CMP_LT_OQ }>(a, b);
            x86::_mm256_blendv_ps(y, x, m)
        }
    }

    #[inline(always)]
    fn trunc(a: Self::V) -> Self::V {
        // SAFETY: AVX2 (which implies AVX's vroundps) per
        // `Backend::checked` (see `splat`).
        unsafe { x86::_mm256_round_ps::<{ x86::_MM_FROUND_TO_ZERO | x86::_MM_FROUND_NO_EXC }>(a) }
    }

    #[inline(always)]
    fn narrow_u8(s: &mut [u8], v: Self::V) {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`). cvtt gives
        // i32::MIN for NaN, which both saturating packs take to 0; the
        // two 128-bit halves are packed in lane order.
        let word = unsafe {
            let i = x86::_mm256_cvttps_epi32(v);
            let lo = x86::_mm256_castsi256_si128(i);
            let hi = x86::_mm256_extracti128_si256::<1>(i);
            let w = x86::_mm_packs_epi32(lo, hi);
            x86::_mm_cvtsi128_si64(x86::_mm_packus_epi16(w, w)) as u64
        };
        s[..8].copy_from_slice(&word.to_le_bytes());
    }

    #[inline(always)]
    fn bits_or_zero(bits: u32, a: f32) -> Self::V {
        // SAFETY: AVX2 per `Backend::checked` (see `splat`). Lane `i`
        // keeps bit `i`; comparing against the lane's own bit widens it
        // to an all-ones or all-zeros lane mask.
        unsafe {
            let lane = x86::_mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let hit = x86::_mm256_and_si256(x86::_mm256_set1_epi32(bits as i32), lane);
            let m = x86::_mm256_castsi256_ps(x86::_mm256_cmpeq_epi32(hit, lane));
            x86::_mm256_and_ps(m, x86::_mm256_set1_ps(a))
        }
    }
}

/// 16-lane AVX-512 (`avx512f`).
#[cfg(target_arch = "x86_64")]
struct Avx512V;

#[cfg(target_arch = "x86_64")]
impl Vf32 for Avx512V {
    const LANES: usize = 16;
    type Half = Avx2V;
    type V = x86::__m512;

    #[inline(always)]
    fn splat(x: f32) -> Self::V {
        // SAFETY: AVX-512F verified at runtime by `Backend::checked` in
        // the dispatcher before this impl is reachable.
        unsafe { x86::_mm512_set1_ps(x) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self::V {
        assert!(s.len() >= 16);
        // SAFETY: `s` holds at least 16 f32s (asserted above), so the
        // unaligned load stays in bounds; AVX-512F per `Backend::checked`.
        unsafe { x86::_mm512_loadu_ps(s.as_ptr()) }
    }

    #[inline(always)]
    fn store(s: &mut [f32], v: Self::V) {
        assert!(s.len() >= 16);
        // SAFETY: `s` holds at least 16 f32s (asserted above), so the
        // unaligned store stays in bounds; AVX-512F per `Backend::checked`.
        unsafe { x86::_mm512_storeu_ps(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        unsafe { x86::_mm512_add_ps(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        unsafe { x86::_mm512_sub_ps(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        unsafe { x86::_mm512_mul_ps(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        unsafe { x86::_mm512_div_ps(a, b) }
    }

    #[inline(always)]
    fn sqrt(a: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        unsafe { x86::_mm512_sqrt_ps(a) }
    }

    #[inline(always)]
    fn select_gtz(c: Self::V, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        // _CMP_GT_OQ is the ordered quiet `>`: NaN lanes leave their mask
        // bit clear, and the blend takes `b` where the bit is clear.
        unsafe {
            let m = x86::_mm512_cmp_ps_mask::<{ x86::_CMP_GT_OQ }>(c, x86::_mm512_setzero_ps());
            x86::_mm512_mask_blend_ps(m, b, a)
        }
    }

    #[inline(always)]
    fn select_lt(a: Self::V, b: Self::V, x: Self::V, y: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`).
        // _CMP_LT_OQ is the ordered quiet `<`: NaN lanes leave their mask
        // bit clear, and the blend takes `y` where the bit is clear.
        unsafe {
            let m = x86::_mm512_cmp_ps_mask::<{ x86::_CMP_LT_OQ }>(a, b);
            x86::_mm512_mask_blend_ps(m, y, x)
        }
    }

    #[inline(always)]
    fn trunc(a: Self::V) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`). Scale 0
        // (the immediate's high nibble) rounds to whole numbers.
        unsafe {
            x86::_mm512_roundscale_ps::<{ x86::_MM_FROUND_TO_ZERO | x86::_MM_FROUND_NO_EXC }>(a)
        }
    }

    #[inline(always)]
    fn narrow_u8(s: &mut [u8], v: Self::V) {
        assert!(s.len() >= 16);
        // SAFETY: `s` holds at least 16 bytes (asserted above), so the
        // unaligned 16-byte store stays in bounds; AVX-512F per
        // `Backend::checked`. cvtt gives i32::MIN for NaN, which the max
        // with zero takes to 0 before the unsigned saturating narrow.
        unsafe {
            let i = x86::_mm512_max_epi32(x86::_mm512_cvttps_epi32(v), x86::_mm512_setzero_si512());
            let b = x86::_mm512_cvtusepi32_epi8(i);
            x86::_mm_storeu_si128(s.as_mut_ptr().cast(), b)
        }
    }

    #[inline(always)]
    fn bits_or_zero(bits: u32, a: f32) -> Self::V {
        // SAFETY: AVX-512F per `Backend::checked` (see `splat`). The 16
        // bits are the lane mask itself; clear lanes take `+0.0`.
        unsafe { x86::_mm512_maskz_mov_ps(bits as u16, x86::_mm512_set1_ps(a)) }
    }
}

/// 4-lane NEON (aarch64 baseline).
#[cfg(target_arch = "aarch64")]
struct NeonV;

#[cfg(target_arch = "aarch64")]
impl Vf32 for NeonV {
    const LANES: usize = 4;
    type Half = ScalarV;
    type V = core::arch::aarch64::float32x4_t;

    #[inline(always)]
    fn splat(x: f32) -> Self::V {
        // SAFETY: NEON verified by `Backend::checked` in the dispatcher
        // before this impl is reachable (aarch64 baseline feature).
        unsafe { core::arch::aarch64::vdupq_n_f32(x) }
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self::V {
        assert!(s.len() >= 4);
        // SAFETY: `s` holds at least 4 f32s (asserted above), so the
        // load stays in bounds; NEON per `Backend::checked`.
        unsafe { core::arch::aarch64::vld1q_f32(s.as_ptr()) }
    }

    #[inline(always)]
    fn store(s: &mut [f32], v: Self::V) {
        assert!(s.len() >= 4);
        // SAFETY: `s` holds at least 4 f32s (asserted above), so the
        // store stays in bounds; NEON per `Backend::checked`.
        unsafe { core::arch::aarch64::vst1q_f32(s.as_mut_ptr(), v) }
    }

    #[inline(always)]
    fn add(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`).
        unsafe { core::arch::aarch64::vaddq_f32(a, b) }
    }

    #[inline(always)]
    fn sub(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`).
        unsafe { core::arch::aarch64::vsubq_f32(a, b) }
    }

    #[inline(always)]
    fn mul(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`).
        unsafe { core::arch::aarch64::vmulq_f32(a, b) }
    }

    #[inline(always)]
    fn div(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`).
        unsafe { core::arch::aarch64::vdivq_f32(a, b) }
    }

    #[inline(always)]
    fn sqrt(a: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`).
        unsafe { core::arch::aarch64::vsqrtq_f32(a) }
    }

    #[inline(always)]
    fn select_gtz(c: Self::V, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`). vcgt is an
        // ordered compare: NaN lanes produce a zero mask -> `b`.
        unsafe {
            let m = core::arch::aarch64::vcgtq_f32(c, core::arch::aarch64::vdupq_n_f32(0.0));
            core::arch::aarch64::vbslq_f32(m, a, b)
        }
    }

    #[inline(always)]
    fn select_lt(a: Self::V, b: Self::V, x: Self::V, y: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`). vclt is an
        // ordered compare: NaN lanes produce a zero mask -> `y`.
        unsafe {
            let m = core::arch::aarch64::vcltq_f32(a, b);
            core::arch::aarch64::vbslq_f32(m, x, y)
        }
    }

    #[inline(always)]
    fn trunc(a: Self::V) -> Self::V {
        // SAFETY: NEON per `Backend::checked` (see `splat`); frintz.
        unsafe { core::arch::aarch64::vrndq_f32(a) }
    }

    #[inline(always)]
    fn narrow_u8(s: &mut [u8], v: Self::V) {
        use core::arch::aarch64 as neon;
        // SAFETY: NEON per `Backend::checked` (see `splat`). fcvtzu
        // truncates and saturates (NaN -> 0), then two saturating
        // narrows take u32 -> u16 -> u8.
        let word = unsafe {
            let h = neon::vqmovn_u32(neon::vcvtq_u32_f32(v));
            let b = neon::vqmovn_u16(neon::vcombine_u16(h, h));
            neon::vget_lane_u32::<0>(neon::vreinterpret_u32_u8(b))
        };
        s[..4].copy_from_slice(&word.to_le_bytes());
    }

    #[inline(always)]
    fn bits_or_zero(bits: u32, a: f32) -> Self::V {
        use core::arch::aarch64 as neon;
        // SAFETY: NEON per `Backend::checked` (see `splat`). `vtst`
        // widens lane `i`'s bit to an all-ones or all-zeros lane mask.
        unsafe {
            let lane = neon::vld1q_u32([1u32, 2, 4, 8].as_ptr());
            let m = neon::vtstq_u32(neon::vdupq_n_u32(bits), lane);
            let av = neon::vreinterpretq_u32_f32(neon::vdupq_n_f32(a));
            neon::vreinterpretq_f32_u32(neon::vandq_u32(m, av))
        }
    }
}

/// The kernel bodies, generic over [`Vf32`]. Everything here is
/// `#[inline(always)]` so each instantiation collapses into the
/// `#[target_feature]` wrapper that calls it, letting the intrinsics
/// inline and vectorize. Safe code throughout: all bounds go through
/// slice indexing or `chunks_exact`.
///
/// Tails step down: what a full vector leaves over runs on `S::Half`,
/// then its half, down to [`ScalarV`]. Each op is written once over
/// [`Vf32`], so every width runs the same per-element arithmetic, and
/// the scalar lanes are the reference itself.
mod kernels {
    use super::{AdamHyper, ScalarV, Vf32, MM_KC};
    use std::cell::Cell;

    thread_local! {
        /// [`mm_panels`]' `B` packing buffer, kept per thread so a GEMM
        /// call does not allocate one.
        static PACKED: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
    }

    /// A lanewise op `out[j] = f(out[j], src[j])`, written once for
    /// every width. In-place maps get `out[j]` as both arguments.
    trait Lanewise: Copy {
        fn apply<S: Vf32>(self, o: S::V, x: S::V) -> S::V;
    }

    /// Declares one [`Lanewise`] op per line: its `f32` parameters and
    /// its body over lanes `o` (output) and `x` (source).
    macro_rules! lanewise {
        ($($name:ident { $($p:ident),* } = |$S:ident, $o:ident, $x:ident| $body:expr;)+) => {$(
            #[derive(Clone, Copy)]
            struct $name { $($p: f32),* }

            impl Lanewise for $name {
                #[inline(always)]
                #[allow(unused_variables)]
                fn apply<$S: Vf32>(self, $o: $S::V, $x: $S::V) -> $S::V {
                    let $name { $($p),* } = self;
                    $body
                }
            }
        )+};
    }

    lanewise! {
        Add {} = |S, o, x| S::add(o, x);
        Sub {} = |S, o, x| S::sub(o, x);
        Mul {} = |S, o, x| S::mul(o, x);
        Axpy { alpha } = |S, o, x| S::add(o, S::mul(S::splat(alpha), x));
        Scale { s } = |S, o, x| S::mul(o, S::splat(s));
        ScaledCopy { s } = |S, o, x| S::mul(x, S::splat(s));
        ScaleAxpy { c1, c2 } =
            |S, o, x| S::add(S::mul(S::splat(c1), o), S::mul(S::splat(c2), x));
        Relu {} = |S, o, x| S::select_gtz(o, o, S::splat(0.0));
        LeakyRelu { slope } = |S, o, x| S::select_gtz(o, o, S::mul(S::splat(slope), o));
        ReluBackward {} = |S, o, x| S::mul(o, S::select_gtz(x, S::splat(1.0), S::splat(0.0)));
        LeakyReluBackward { slope } =
            |S, o, x| S::mul(o, S::select_gtz(x, S::splat(1.0), S::splat(slope)));
    }

    /// `out[j] = op(out[j], src[j])`, full vectors then the step-down
    /// tail.
    #[inline(always)]
    fn zip2<S: Vf32>(out: &mut [f32], src: &[f32], op: impl Lanewise) {
        let mut o = out.chunks_exact_mut(S::LANES);
        let mut q = src.chunks_exact(S::LANES);
        for (oc, sc) in (&mut o).zip(&mut q) {
            S::store(oc, op.apply::<S>(S::load(oc), S::load(sc)));
        }
        if S::LANES > 1 {
            zip2::<S::Half>(o.into_remainder(), q.remainder(), op);
        }
    }

    /// `out[j] = op(out[j], out[j])`, full vectors then the step-down
    /// tail.
    #[inline(always)]
    fn map1<S: Vf32>(out: &mut [f32], op: impl Lanewise) {
        let mut o = out.chunks_exact_mut(S::LANES);
        for oc in &mut o {
            let v = S::load(oc);
            S::store(oc, op.apply::<S>(v, v));
        }
        if S::LANES > 1 {
            map1::<S::Half>(o.into_remainder(), op);
        }
    }

    /// `out[j] = op(out[j], factor_j)` where `factor_j` is `scale` if
    /// bit `j` of the packed `bits` (bit `j % 64` of word `j / 64`) is
    /// set and `+0.0` if not: full vectors then the step-down tail.
    /// Every width divides 64 and each tail starts where the wider
    /// vectors stopped, so a lane group never straddles two words.
    #[inline(always)]
    fn zip_bits<S: Vf32>(
        out: &mut [f32],
        bits: &[u64],
        bit0: usize,
        scale: f32,
        op: impl Lanewise,
    ) {
        let lane_mask = (1u64 << S::LANES) - 1;
        let mut o = out.chunks_exact_mut(S::LANES);
        let mut b = bit0;
        for oc in &mut o {
            let w = ((bits[b / 64] >> (b % 64)) & lane_mask) as u32;
            S::store(oc, op.apply::<S>(S::load(oc), S::bits_or_zero(w, scale)));
            b += S::LANES;
        }
        if S::LANES > 1 {
            zip_bits::<S::Half>(o.into_remainder(), bits, b, scale, op);
        }
    }

    #[inline(always)]
    pub(super) fn mask_scale<S: Vf32>(out: &mut [f32], bits: &[u64], scale: f32) {
        assert!(
            bits.len() * 64 >= out.len(),
            "mask has fewer bits than elements"
        );
        zip_bits::<S>(out, bits, 0, scale, Mul {});
    }

    #[inline(always)]
    pub(super) fn add_assign<S: Vf32>(out: &mut [f32], src: &[f32]) {
        zip2::<S>(out, src, Add {});
    }

    #[inline(always)]
    pub(super) fn sub_assign<S: Vf32>(out: &mut [f32], src: &[f32]) {
        zip2::<S>(out, src, Sub {});
    }

    #[inline(always)]
    pub(super) fn hadamard_assign<S: Vf32>(out: &mut [f32], src: &[f32]) {
        zip2::<S>(out, src, Mul {});
    }

    /// `out[j] += alpha * src[j]`: one multiply, one add, no fusing;
    /// identical to the scalar loop per element.
    #[inline(always)]
    pub(super) fn axpy<S: Vf32>(out: &mut [f32], alpha: f32, src: &[f32]) {
        zip2::<S>(out, src, Axpy { alpha });
    }

    #[inline(always)]
    pub(super) fn scale<S: Vf32>(out: &mut [f32], s: f32) {
        map1::<S>(out, Scale { s });
    }

    #[inline(always)]
    pub(super) fn scaled_copy<S: Vf32>(out: &mut [f32], s: f32, src: &[f32]) {
        zip2::<S>(out, src, ScaledCopy { s });
    }

    #[inline(always)]
    pub(super) fn scale_axpy<S: Vf32>(out: &mut [f32], c1: f32, c2: f32, src: &[f32]) {
        zip2::<S>(out, src, ScaleAxpy { c1, c2 });
    }

    #[inline(always)]
    pub(super) fn relu<S: Vf32>(out: &mut [f32]) {
        map1::<S>(out, Relu {});
    }

    #[inline(always)]
    pub(super) fn leaky_relu<S: Vf32>(out: &mut [f32], slope: f32) {
        map1::<S>(out, LeakyRelu { slope });
    }

    #[inline(always)]
    pub(super) fn relu_backward<S: Vf32>(out: &mut [f32], pre: &[f32]) {
        zip2::<S>(out, pre, ReluBackward {});
    }

    #[inline(always)]
    pub(super) fn leaky_relu_backward<S: Vf32>(out: &mut [f32], pre: &[f32], slope: f32) {
        zip2::<S>(out, pre, LeakyReluBackward { slope });
    }

    /// One neighbor's term in a gather-sum: what source row `u` (its
    /// lanes `x`) adds to the accumulator.
    trait Term: Copy {
        fn apply<S: Vf32>(self, u: usize, x: S::V) -> S::V;
    }

    /// `x` as is ([`sum_rows`]).
    #[derive(Clone, Copy)]
    struct Plain;

    impl Term for Plain {
        #[inline(always)]
        fn apply<S: Vf32>(self, _: usize, x: S::V) -> S::V {
            x
        }
    }

    /// `scales[u] * x` ([`sum_rows_scaled`]).
    #[derive(Clone, Copy)]
    struct Scaled<'a>(&'a [f32]);

    impl Term for Scaled<'_> {
        #[inline(always)]
        fn apply<S: Vf32>(self, u: usize, x: S::V) -> S::V {
            S::mul(S::splat(self.0[u]), x)
        }
    }

    /// `c * (scales[u] * x)` ([`sum_rows_rescaled`]).
    #[derive(Clone, Copy)]
    struct Rescaled<'a>(&'a [f32], f32);

    impl Term for Rescaled<'_> {
        #[inline(always)]
        fn apply<S: Vf32>(self, u: usize, x: S::V) -> S::V {
            S::mul(S::splat(self.1), S::mul(S::splat(self.0[u]), x))
        }
    }

    /// Gathers every `V`-vector column strip from `*col` on: the strip
    /// of `acc` stays in registers across the whole neighbor list, so
    /// per element the additions still run in `idx` order (identical
    /// to the scalar loop), but the `acc` traffic drops from one
    /// load+store per neighbor to one per strip.
    #[inline(always)]
    fn gather_strips<S: Vf32, const V: usize>(
        acc: &mut [f32],
        (src, d, offset): (&[f32], usize, usize),
        idx: &[u32],
        col: &mut usize,
        term: impl Term,
    ) {
        while *col + V * S::LANES <= d {
            let c = *col;
            let mut a = [S::splat(0.0); V];
            for (v, x) in a.iter_mut().enumerate() {
                *x = S::load(&acc[c + v * S::LANES..]);
            }
            fold_strip::<S, V>(&mut a, (src, d, offset, c), idx, term);
            for (v, &x) in a.iter().enumerate() {
                S::store(&mut acc[c + v * S::LANES..], x);
            }
            *col = c + V * S::LANES;
        }
    }

    /// The columns left after the two-vector strips: one vector of
    /// `S`, then the step-down tail.
    #[inline(always)]
    fn gather_tail<S: Vf32>(
        acc: &mut [f32],
        src: (&[f32], usize, usize),
        idx: &[u32],
        col: &mut usize,
        term: impl Term,
    ) {
        gather_strips::<S, 1>(acc, src, idx, col, term);
        if S::LANES > 1 {
            gather_tail::<S::Half>(acc, src, idx, col, term);
        }
    }

    /// `acc += term(u, src.row(u - offset))` for each `u` in `idx`, in
    /// order, over rows of width `d`.
    #[inline(always)]
    fn gather<S: Vf32>(acc: &mut [f32], src: (&[f32], usize, usize), idx: &[u32], term: impl Term) {
        let mut col = 0;
        gather_strips::<S, 2>(acc, src, idx, &mut col, term);
        gather_tail::<S>(acc, src, idx, &mut col, term);
    }

    #[inline(always)]
    pub(super) fn sum_rows<S: Vf32>(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        offset: usize,
    ) {
        gather::<S>(acc, (src, d, offset), idx, Plain);
    }

    /// Each neighbor row scaled by `scales[u]` (multiply then add —
    /// never fused).
    #[inline(always)]
    pub(super) fn sum_rows_scaled<S: Vf32>(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        offset: usize,
        scales: &[f32],
    ) {
        gather::<S>(acc, (src, d, offset), idx, Scaled(scales));
    }

    /// `acc += c * (scales[v] * src.row(v))`: the GCN backward gather
    /// term `s_u · (s_v · dz_v)`. Both multiplies round separately,
    /// exactly as the former scale-then-scatter pair did.
    #[inline(always)]
    pub(super) fn sum_rows_rescaled<S: Vf32>(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        scales: &[f32],
        c: f32,
    ) {
        gather::<S>(acc, (src, d, 0), idx, Rescaled(scales, c));
    }

    /// Where a segmented gather row's self term sits: in segment `seg`,
    /// before source position `at`, adding `alpha * src.row(row)`.
    #[derive(Clone, Copy)]
    struct SelfTerm {
        seg: usize,
        at: usize,
        row: usize,
        alpha: f32,
    }

    /// Folds `term(u, src.row(u - offset))` for each `u` in `idx`, in
    /// order, into the `V` vectors `p` of the strip at column `c`.
    #[inline(always)]
    fn fold_strip<S: Vf32, const V: usize>(
        p: &mut [S::V; V],
        (src, d, offset, c): (&[f32], usize, usize, usize),
        idx: &[u32],
        term: impl Term,
    ) {
        for &u in idx {
            let r = (u as usize - offset) * d + c;
            for (v, x) in p.iter_mut().enumerate() {
                let t = term.apply::<S>(u as usize, S::load(&src[r + v * S::LANES..]));
                *x = S::add(*x, t);
            }
        }
    }

    /// [`gather_strips`] for one segmented backward row, overwriting
    /// `acc`: the source list `idx` is cut into segments at `ends`
    /// (segment `b` is `idx[ends[b - 1]..ends[b]]`), each segment's
    /// partial starts at `+0.0` and folds its terms in order, and the
    /// partials are added in segment order — the first one *is* the
    /// row, as if it were folded into a zeroed row. All of it stays in
    /// registers per column strip. Segments with no terms are skipped:
    /// adding a `+0.0` partial to a sum that started at `+0.0` (never
    /// `-0.0`) changes no bit. A row with no terms is `+0.0`.
    #[inline(always)]
    fn gather_segments_strips<S: Vf32, const V: usize>(
        acc: &mut [f32],
        (src, d): (&[f32], usize),
        (idx, ends, self_term): (&[u32], &[usize], Option<SelfTerm>),
        col: &mut usize,
        term: impl Term,
    ) {
        while *col + V * S::LANES <= d {
            let c = *col;
            let mut a = [S::splat(0.0); V];
            let (mut start, mut first) = (0, true);
            for (b, &end) in ends.iter().enumerate() {
                let here = self_term.filter(|t| t.seg == b);
                if end > start || here.is_some() {
                    let mut p = [S::splat(0.0); V];
                    let at = here.map_or(end, |t| t.at);
                    fold_strip::<S, V>(&mut p, (src, d, 0, c), &idx[start..at], term);
                    if let Some(t) = here {
                        let r = t.row * d + c;
                        for (v, x) in p.iter_mut().enumerate() {
                            let y = S::mul(S::splat(t.alpha), S::load(&src[r + v * S::LANES..]));
                            *x = S::add(*x, y);
                        }
                    }
                    fold_strip::<S, V>(&mut p, (src, d, 0, c), &idx[at..end], term);
                    if first {
                        a = p;
                    } else {
                        for (x, y) in a.iter_mut().zip(p) {
                            *x = S::add(*x, y);
                        }
                    }
                    first = false;
                }
                start = end;
            }
            for (v, &x) in a.iter().enumerate() {
                S::store(&mut acc[c + v * S::LANES..], x);
            }
            *col = c + V * S::LANES;
        }
    }

    /// The columns left after the two-vector strips: one vector of
    /// `S`, then the step-down tail.
    #[inline(always)]
    fn gather_segments_tail<S: Vf32>(
        acc: &mut [f32],
        src: (&[f32], usize),
        segs: (&[u32], &[usize], Option<SelfTerm>),
        col: &mut usize,
        term: impl Term,
    ) {
        gather_segments_strips::<S, 1>(acc, src, segs, col, term);
        if S::LANES > 1 {
            gather_segments_tail::<S::Half>(acc, src, segs, col, term);
        }
    }

    #[inline(always)]
    fn gather_segments<S: Vf32>(
        acc: &mut [f32],
        src: (&[f32], usize),
        segs: (&[u32], &[usize], Option<SelfTerm>),
        term: impl Term,
    ) {
        assert_eq!(acc.len(), src.1, "accumulator width");
        let mut col = 0;
        gather_segments_strips::<S, 4>(acc, src, segs, &mut col, term);
        gather_segments_strips::<S, 2>(acc, src, segs, &mut col, term);
        gather_segments_tail::<S>(acc, src, segs, &mut col, term);
    }

    #[inline(always)]
    pub(super) fn segment_sum_rows_scaled<S: Vf32>(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        ends: &[usize],
        scales: &[f32],
    ) {
        gather_segments::<S>(acc, (src, d), (idx, ends, None), Scaled(scales));
    }

    /// The GCN backward row `u`: terms `s_u · (s_v · src_v)`, plus the
    /// self term `s_u² · src_u` in segment `self_seg`, before its first
    /// source `v >= u`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(super) fn segment_sum_rows_rescaled<S: Vf32>(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        ends: &[usize],
        scales: &[f32],
        u: usize,
        self_seg: Option<usize>,
    ) {
        let self_term = self_seg.map(|seg| SelfTerm {
            seg,
            at: idx.partition_point(|&v| (v as usize) < u),
            row: u,
            alpha: scales[u] * scales[u],
        });
        let term = Rescaled(scales, scales[u]);
        gather_segments::<S>(acc, (src, d), (idx, ends, self_term), term);
    }

    /// Output rows per GEMM register tile.
    const MR: usize = 4;

    /// The GEMM micro-kernel: `M` output rows (`out`, row stride `n`)
    /// times `V` vectors of columns from `j`, held in `M x V` vector
    /// registers while `k` runs over one panel:
    /// `out[r][c] += a(r, k) * b(k, c)`. Element `a(r, k)` sits at
    /// `a[a0 + r * rs + k * ks]` (`k` counted from the panel start), so
    /// one body serves `A B` (`rs = kd, ks = 1`) and `A^T B` (`rs = 1,
    /// ks = kd`). `bp` is the panel's packed column strip, `V x LANES`
    /// floats per `k`. Each loaded `B` vector feeds all `M` rows, and
    /// the `M x V` accumulator chains are independent, so the adds
    /// overlap instead of waiting on each other's latency.
    ///
    /// Every output element is still one chain: loaded from `out`,
    /// `+= a * b` (multiply then add, never fused) for ascending `k`,
    /// stored back. Registers round like memory, so the result is the
    /// plain ascending-`k` scalar loop, bit for bit, at any `M` and `V`.
    #[inline(always)]
    fn mm_tile<S: Vf32, const M: usize, const V: usize>(
        a: &[f32],
        (a0, rs, ks): (usize, usize, usize),
        bp: &[f32],
        out: &mut [f32],
        (n, j): (usize, usize),
    ) {
        let mut acc = [[S::splat(0.0); V]; M];
        for (r, ar) in acc.iter_mut().enumerate() {
            for (v, x) in ar.iter_mut().enumerate() {
                *x = S::load(&out[r * n + j + v * S::LANES..]);
            }
        }
        for (k, bk) in bp.chunks_exact(V * S::LANES).enumerate() {
            let mut bv = [S::splat(0.0); V];
            for (v, x) in bv.iter_mut().enumerate() {
                *x = S::load(&bk[v * S::LANES..]);
            }
            let p = a0 + k * ks;
            for (r, ar) in acc.iter_mut().enumerate() {
                let av = S::splat(a[p + r * rs]);
                for (x, &bx) in ar.iter_mut().zip(&bv) {
                    *x = S::add(*x, S::mul(av, bx));
                }
            }
        }
        for (r, ar) in acc.iter().enumerate() {
            for (v, &x) in ar.iter().enumerate() {
                S::store(&mut out[r * n + j + v * S::LANES..], x);
            }
        }
    }

    /// Runs the `V`-vector column strip at `j` over [`MR`] rows of
    /// `out` (fewer for the last tile).
    #[inline(always)]
    fn mm_strip<S: Vf32, const V: usize>(
        a: &[f32],
        at: (usize, usize, usize),
        bp: &[f32],
        tile: &mut [f32],
        nj: (usize, usize),
    ) {
        match tile.len() / nj.0 {
            MR => mm_tile::<S, MR, V>(a, at, bp, tile, nj),
            1 => mm_tile::<S, 1, V>(a, at, bp, tile, nj),
            2 => mm_tile::<S, 2, V>(a, at, bp, tile, nj),
            3 => mm_tile::<S, 3, V>(a, at, bp, tile, nj),
            rows => unreachable!("{rows} rows in a tile of at most MR = {MR}"),
        }
    }

    /// `out += A B` over all of `k`, where `out` is `rows x n`, `B` is
    /// `kd x n` and `A`'s element `(i, k)` sits at `a[a0 + i * rs + k *
    /// ks]`. `k` runs in [`MM_KC`]-deep panels, ascending, so per
    /// element the order is plain ascending `k`. Each panel of `B` is
    /// first copied into column strips of two vectors, then one vector
    /// of `S`, `S::Half` and its half, then single columns (which run
    /// the same tile on one scalar lane), each strip contiguous in `k`;
    /// then every tile of [`MR`] rows sweeps the strips while its `A`
    /// block stays in L1.
    #[inline(always)]
    fn mm_panels<S: Vf32>(
        a: &[f32],
        (a0, rs, ks): (usize, usize, usize),
        b: &[f32],
        kd: usize,
        out: &mut [f32],
        n: usize,
    ) {
        type Half<S> = <S as Vf32>::Half;
        if n == 0 {
            return;
        }
        let (h, hh) = (Half::<S>::LANES, Half::<Half<S>>::LANES);
        let mut strips = Vec::new();
        let mut j = 0;
        for w in [2 * S::LANES, S::LANES, h, hh, 1] {
            while j + w <= n {
                strips.push((j, w));
                j += w;
            }
        }
        // The packing buffer is reused per thread: every span a tile
        // reads is copied in first, so stale contents are never seen.
        let mut packed = PACKED.take();
        if packed.len() < MM_KC.min(kd) * n {
            packed.resize(MM_KC.min(kd) * n, 0.0);
        }
        let mut kb = 0;
        while kb < kd {
            let kend = (kb + MM_KC).min(kd);
            let depth = kend - kb;
            let mut off = 0;
            for &(j, w) in &strips {
                for (k, dst) in packed[off..off + depth * w].chunks_exact_mut(w).enumerate() {
                    dst.copy_from_slice(&b[(kb + k) * n + j..][..w]);
                }
                off += depth * w;
            }
            for (t, tile) in out.chunks_mut(MR * n).enumerate() {
                let at = (a0 + t * MR * rs + kb * ks, rs, ks);
                let mut off = 0;
                for &(j, w) in &strips {
                    let bp = &packed[off..off + depth * w];
                    if w == 2 * S::LANES {
                        mm_strip::<S, 2>(a, at, bp, tile, (n, j));
                    } else if w == S::LANES {
                        mm_strip::<S, 1>(a, at, bp, tile, (n, j));
                    } else if w == h {
                        mm_strip::<Half<S>, 1>(a, at, bp, tile, (n, j));
                    } else if w == hh {
                        mm_strip::<Half<Half<S>>, 1>(a, at, bp, tile, (n, j));
                    } else {
                        mm_strip::<ScalarV, 1>(a, at, bp, tile, (n, j));
                    }
                    off += depth * w;
                }
            }
            kb = kend;
        }
        PACKED.set(packed);
    }

    #[inline(always)]
    pub(super) fn mm_nn_block<S: Vf32>(
        a_block: &[f32],
        b: &[f32],
        out_block: &mut [f32],
        kd: usize,
        n: usize,
    ) {
        mm_panels::<S>(a_block, (0, kd, 1), b, kd, out_block, n);
    }

    #[inline(always)]
    pub(super) fn mm_tn_block<S: Vf32>(
        a: &[f32],
        b: &[f32],
        out_block: &mut [f32],
        (i0, i1): (usize, usize),
        kd: usize,
        n: usize,
    ) {
        let rows = a.len().checked_div(kd).unwrap_or(0);
        mm_panels::<S>(a, (i0, 1, kd), b, rows, &mut out_block[..(i1 - i0) * n], n);
    }

    /// The Adam update, full vectors then the step-down tail; on
    /// [`ScalarV`] the body is the scalar reference expression.
    #[inline(always)]
    pub(super) fn adam_update<S: Vf32>(
        p: &mut [f32],
        g: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        h: &AdamHyper,
    ) {
        let wd = S::splat(h.weight_decay);
        let b1 = S::splat(h.beta1);
        let b2 = S::splat(h.beta2);
        let omb1 = S::splat(1.0 - h.beta1);
        let omb2 = S::splat(1.0 - h.beta2);
        let b1t = S::splat(h.b1t);
        let b2t = S::splat(h.b2t);
        let lr = S::splat(h.lr);
        let eps = S::splat(h.eps);
        let mut pc = p.chunks_exact_mut(S::LANES);
        let mut gc = g.chunks_exact(S::LANES);
        let mut mc = m.chunks_exact_mut(S::LANES);
        let mut vc = v.chunks_exact_mut(S::LANES);
        while let (Some(pp), Some(gg), Some(mm), Some(vv)) =
            (pc.next(), gc.next(), mc.next(), vc.next())
        {
            let gi = S::add(S::load(gg), S::mul(wd, S::load(pp)));
            let mn = S::add(S::mul(b1, S::load(mm)), S::mul(omb1, gi));
            let vn = S::add(S::mul(b2, S::load(vv)), S::mul(S::mul(omb2, gi), gi));
            S::store(mm, mn);
            S::store(vv, vn);
            let mhat = S::div(mn, b1t);
            let vhat = S::div(vn, b2t);
            let step = S::div(S::mul(lr, mhat), S::add(S::sqrt(vhat), eps));
            S::store(pp, S::sub(S::load(pp), step));
        }
        if S::LANES > 1 {
            adam_update::<S::Half>(
                pc.into_remainder(),
                gc.remainder(),
                mc.into_remainder(),
                vc.into_remainder(),
                h,
            );
        }
    }
}

/// Generates the public dispatch wrapper for each kernel: verify the
/// backend is runnable ([`Backend::checked`]), then jump into the
/// matching `#[target_feature]` monomorphization. The wrappers are the
/// *only* route to the vector impls, which is what the `SAFETY`
/// arguments in the impls rely on.
macro_rules! dispatch_kernels {
    ($(
        $(#[$meta:meta])*
        pub fn $name:ident( $($arg:ident : $ty:ty),* $(,)? );
    )+) => {$(
        $(#[$meta])*
        #[allow(clippy::too_many_arguments)]
        pub fn $name(bk: Backend, $($arg: $ty),*) {
            match bk.checked() {
                Backend::Scalar => kernels::$name::<ScalarV>($($arg),*),
                #[cfg(target_arch = "x86_64")]
                Backend::Avx512 => {
                    #[target_feature(enable = "avx512f")]
                    fn with_avx512($($arg: $ty),*) {
                        kernels::$name::<Avx512V>($($arg),*)
                    }
                    // SAFETY: `checked` confirmed AVX-512F on this CPU;
                    // it implies the AVX2 and SSE2 its step-down tails
                    // run, so calling the AVX-512-feature fn cannot fault.
                    unsafe { with_avx512($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 => {
                    #[target_feature(enable = "avx2")]
                    fn with_avx2($($arg: $ty),*) {
                        kernels::$name::<Avx2V>($($arg),*)
                    }
                    // SAFETY: `checked` confirmed AVX2 on this CPU, so
                    // calling the AVX2-feature fn cannot fault.
                    unsafe { with_avx2($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                Backend::Sse2 => {
                    #[target_feature(enable = "sse2")]
                    fn with_sse2($($arg: $ty),*) {
                        kernels::$name::<Sse2V>($($arg),*)
                    }
                    // SAFETY: `checked` confirmed SSE2 on this CPU
                    // (x86_64 baseline), so the call cannot fault.
                    unsafe { with_sse2($($arg),*) }
                }
                #[cfg(target_arch = "aarch64")]
                Backend::Neon => {
                    #[target_feature(enable = "neon")]
                    fn with_neon($($arg: $ty),*) {
                        kernels::$name::<NeonV>($($arg),*)
                    }
                    // SAFETY: `checked` confirmed NEON on this CPU
                    // (aarch64 baseline), so the call cannot fault.
                    unsafe { with_neon($($arg),*) }
                }
                other => unreachable!(
                    "backend {other:?} passed the availability check but has no dispatch arm"
                ),
            }
        }
    )+};
}

dispatch_kernels! {
    /// `out[j] += src[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn add_assign(out: &mut [f32], src: &[f32]);

    /// `out[j] -= src[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn sub_assign(out: &mut [f32], src: &[f32]);

    /// `out[j] *= src[j]` (Hadamard).
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn hadamard_assign(out: &mut [f32], src: &[f32]);

    /// `out[j] += alpha * src[j]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn axpy(out: &mut [f32], alpha: f32, src: &[f32]);

    /// Applies a packed keep mask: `out[j] *= factor_j`, where
    /// `factor_j` is `scale` if bit `j` of `bits` (bit `j % 64` of word
    /// `j / 64`) is set and `+0.0` otherwise. The bit only picks the
    /// *factor*; the product is an ordinary multiply, so a dropped
    /// element is `x * +0.0` — `-0.0` for negative `x`, `NaN` for NaN
    /// or infinite `x` — exactly as a multiply by an f32 mask matrix.
    ///
    /// # Panics
    ///
    /// Panics if `bits` holds fewer than `out.len()` bits.
    pub fn mask_scale(out: &mut [f32], bits: &[u64], scale: f32);

    /// `out[j] *= s`.
    pub fn scale(out: &mut [f32], s: f32);

    /// `out[j] = src[j] * s` (the old contents of `out` are ignored).
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn scaled_copy(out: &mut [f32], s: f32, src: &[f32]);

    /// `out[j] = c1 * out[j] + c2 * src[j]` — the GCN self-loop
    /// finalization with `c1 = s_v`, `c2 = s_v²`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn scale_axpy(out: &mut [f32], c1: f32, c2: f32, src: &[f32]);

    /// In-place ReLU: `out[j] = if out[j] > 0 { out[j] } else { 0.0 }`.
    /// NaN inputs map to `0.0` and `-0.0` maps to `+0.0` on every
    /// backend (a strict select, unlike `f32::max` whose signed-zero
    /// result is documented as unspecified).
    pub fn relu(out: &mut [f32]);

    /// In-place LeakyReLU with the given negative slope.
    pub fn leaky_relu(out: &mut [f32], slope: f32);

    /// Fused ReLU backward: `out[j] *= if pre[j] > 0 { 1.0 } else
    /// { 0.0 }` — the same arithmetic as the former mask-then-hadamard
    /// two-pass, in one sweep (NaN upstream still propagates through
    /// the multiply).
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn relu_backward(out: &mut [f32], pre: &[f32]);

    /// Fused LeakyReLU backward: `out[j] *= if pre[j] > 0 { 1.0 } else
    /// { slope }`.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn leaky_relu_backward(out: &mut [f32], pre: &[f32], slope: f32);

    /// `acc += src.row(idx[i] - offset)` for each index in order, rows
    /// of width `d` — the neighbor-sum inner loop of the aggregation
    /// kernels, dispatched once per target row.
    ///
    /// # Panics
    ///
    /// Panics if an index falls outside `src` or `acc.len() != d`.
    pub fn sum_rows(acc: &mut [f32], src: &[f32], d: usize, idx: &[u32], offset: usize);

    /// `acc += scales[idx[i]] * src.row(idx[i] - offset)` for each
    /// index in order (GCN-normalized neighbor sum).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices or width mismatches.
    pub fn sum_rows_scaled(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        offset: usize,
        scales: &[f32],
    );

    /// `acc += c * (scales[idx[i]] * src.row(idx[i]))` for each index
    /// in order — the GCN backward gather (`c = s_u`).
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices or width mismatches.
    pub fn sum_rows_rescaled(acc: &mut [f32], src: &[f32], d: usize, idx: &[u32], scales: &[f32], c: f32);

    /// One row of the segmented backward gather, overwriting `acc`:
    /// `idx` is cut at `ends` into source segments (segment `b` is
    /// `idx[ends[b - 1]..ends[b]]`, the first starting at 0); each
    /// segment sums `scales[v] * src.row(v)` in order from `+0.0`, and
    /// the segment sums are added in order — the summation tree of a
    /// per-segment partial-buffer reduction, held in registers.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices, `ends` past `idx`, or
    /// `acc.len() != d`.
    pub fn segment_sum_rows_scaled(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        ends: &[usize],
        scales: &[f32],
    );

    /// [`segment_sum_rows_scaled`] for the GCN backward row `u`: each
    /// term is `scales[u] * (scales[v] * src.row(v))`, and with
    /// `self_seg = Some(b)` segment `b` also adds the self term
    /// `(scales[u] * scales[u]) * src.row(u)` before its first source
    /// `v >= u`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices, `ends` past `idx`, or
    /// `acc.len() != d`.
    pub fn segment_sum_rows_rescaled(
        acc: &mut [f32],
        src: &[f32],
        d: usize,
        idx: &[u32],
        ends: &[usize],
        scales: &[f32],
        u: usize,
        self_seg: Option<usize>,
    );

    /// The matmul kernel on one block of output rows: `out[i] +=
    /// a[i][k] * b[k]`, `k` tiled in [`MM_KC`] panels, register tiles
    /// of four output rows vectorized across the `n` output columns.
    /// Per-element accumulation order is ascending `k`, identical to
    /// the untiled scalar loop.
    pub fn mm_nn_block(a_block: &[f32], b: &[f32], out_block: &mut [f32], kd: usize, n: usize);

    /// The `A^T B` kernel on output rows `[i0, i1)` (columns of `A`):
    /// the same register tile as [`mm_nn_block`], reading `A` with its
    /// strides swapped, so `a[r][i]` is broadcast across `B`'s row `r`.
    /// Accumulation order per element is ascending `r`.
    pub fn mm_tn_block(
        a: &[f32],
        b: &[f32],
        out_block: &mut [f32],
        i01: (usize, usize),
        kd: usize,
        n: usize,
    );

    /// One Adam update over a flat parameter tensor, replicating the
    /// scalar expression order exactly (see [`AdamHyper`]); `div` and
    /// `sqrt` are correctly rounded on every backend, so the update is
    /// bitwise identical at any lane width.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn adam_update(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], h: &AdamHyper);
}

pub mod codec;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_and_rejects_unknown() {
        for bk in Backend::ALL {
            assert_eq!(Backend::parse(bk.name()), Some(bk));
            assert_eq!(Backend::parse(&bk.name().to_uppercase()), Some(bk));
        }
        assert_eq!(Backend::parse("avx1024"), None);
        assert_eq!(Backend::parse(""), None);
    }

    #[test]
    fn resolve_table() {
        assert_eq!(resolve(None), detect());
        assert_eq!(resolve(Some("")), detect());
        assert_eq!(resolve(Some("auto")), detect());
        assert_eq!(resolve(Some("AUTO")), detect());
        assert_eq!(resolve(Some("nonsense")), detect());
        assert_eq!(resolve(Some("scalar")), Backend::Scalar);
        assert_eq!(resolve(Some(" scalar ")), Backend::Scalar);
        // A recognized but unavailable backend degrades to detect().
        let foreign = if cfg!(target_arch = "x86_64") {
            "neon"
        } else {
            "avx2"
        };
        assert_eq!(resolve(Some(foreign)), detect());
    }

    #[test]
    fn detect_is_available_and_best() {
        let bk = detect();
        assert!(bk.is_available());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(bk, Backend::Neon);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(bk, Backend::Neon);
    }

    #[test]
    fn force_nests_and_restores() {
        let outer = active();
        {
            let _g1 = force(Backend::Scalar);
            assert_eq!(active(), Backend::Scalar);
            {
                let _g2 = force(detect());
                assert_eq!(active(), detect());
            }
            assert_eq!(active(), Backend::Scalar);
        }
        assert_eq!(active(), outer);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn force_rejects_unavailable_backend() {
        let foreign = if cfg!(target_arch = "x86_64") {
            Backend::Neon
        } else {
            Backend::Avx2
        };
        let _g = force(foreign);
    }

    #[test]
    fn dispatch_stats_count_and_drain() {
        let _ = take_thread_stats();
        let _g = force(Backend::Scalar);
        let mut a = [1.0f32, 2.0, 3.0];
        add_assign(begin_kernel(), &mut a, &[1.0, 1.0, 1.0]);
        let st = thread_stats();
        assert_eq!(st.scalar, 1);
        assert_eq!(st.total(), 1);
        assert_eq!(st.vectorized(), 0);
        let drained = take_thread_stats();
        assert_eq!(drained, st);
        assert_eq!(thread_stats().total(), 0);
    }

    #[test]
    fn lanes_are_consistent() {
        assert_eq!(Backend::Scalar.lanes(), 1);
        assert_eq!(Backend::Sse2.lanes(), 4);
        assert_eq!(Backend::Avx2.lanes(), 8);
        assert_eq!(Backend::Avx512.lanes(), 16);
        assert_eq!(Backend::Neon.lanes(), 4);
    }

    /// Every available backend must agree with scalar bit for bit on a
    /// remainder-heavy length with special values in play.
    #[test]
    fn kernels_match_scalar_bitwise_smoke() {
        let base: Vec<f32> = (0..19)
            .map(|i| match i % 6 {
                0 => f32::NAN,
                1 => -0.0,
                2 => f32::INFINITY,
                3 => -3.5,
                4 => 1.0e-40, // subnormal
                _ => 2.5 + i as f32,
            })
            .collect();
        let src: Vec<f32> = base.iter().map(|x| x * 0.5 - 1.0).collect();
        for bk in Backend::ALL.into_iter().filter(|b| b.is_available()) {
            let mut want = base.clone();
            add_assign(Backend::Scalar, &mut want, &src);
            relu(Backend::Scalar, &mut want);
            let mut got = base.clone();
            add_assign(bk, &mut got, &src);
            relu(bk, &mut got);
            let wb: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            assert_eq!(wb, gb, "backend {bk:?} diverged from scalar");
        }
    }
}
