//! The packed GEMM tier: one BLIS-style loop nest with a
//! register-blocked microtile and the naive kernel's exact rounding
//! chain, for every dtype triple.
//!
//! [`Simd`] is the packed rung of the dispatch ladder (naive →
//! packed). BLIS-style three-level tiling — [`MC`]-row sub-panels,
//! [`NC`]-wide column blocks, [`KC`]-deep k blocks — feeds packed
//! operand panels to a register-blocked microtile. For f32 and f64
//! accumulation the microtile runs on `std::arch` x86-64 intrinsics:
//! an [`MR`]×16 f32 microtile on two 8-wide AVX2 vectors per row, and
//! an [`MR`]×8 f64 microtile on two 4-wide vectors. A portable
//! scalar-unrolled microtile with the identical loop nest runs when the
//! host lacks AVX2, when [`SIMD_ENV`] requests it, and for every
//! triple without a native kernel.
//!
//! ## Why vectorizing cannot change a bit
//!
//! The contract inherited from [`crate::Naive`] rounds every product
//! and every partial sum through the compute type `CT`, ascending in
//! `k`. Two facts make the vector kernel bit-identical to that chain:
//!
//! * **Lanes are independent chains.** A vector lane covers one output
//!   column; there is no horizontal reduction, so each element's sum
//!   order is exactly the naive ascending-`k` order. Vector width,
//!   tile shape, thread count, and row partitioning only change *which*
//!   chains run concurrently, never the order within a chain.
//! * **Native arithmetic equals round-through-f64 arithmetic.** The
//!   reference computes `f32(a_f64 · b_f64)` and `f32(acc_f64 +
//!   p_f64)`. For operands that are exactly representable in f32 the
//!   f64 product/sum double-rounds through 53 bits into 24 bits, and
//!   since `53 ≥ 2·24 + 2` double rounding is exact for `+` and `·`
//!   (Figueroa's theorem): the result equals the correctly-rounded
//!   native f32 operation — precisely what `vmulps`/`vaddps` compute.
//!   The f64 tier is the reference chain verbatim.
//!
//! The kernel therefore issues **separate multiply and add
//! instructions, never FMA**: a fused multiply-add would skip the
//! product's intermediate rounding and break parity. The golden tests
//! in `compute_parity` pin this reduction order.
//!
//! The embeddability premise limits which dtype triples may take the
//! native kernels ([`Simd::supports`]): f64 accumulation takes any
//! input, f32 accumulation requires inputs that convert to f32 exactly
//! (`f32`, `F16`, `Bf16` — not `f64`). Every other triple — notably
//! half-precision accumulation — runs the *chain* kernel through the
//! same loop nest: operands pack as exact f64 and each step rounds the
//! product and the sum through `CT` in software, the naive chain
//! verbatim, on the portable microtile only.
//!
//! ## Parallel structure
//!
//! The tier enters **one** parallel region per call: the output rows
//! are split into one contiguous chunk per rayon worker, and each task
//! runs the full `pc → jc` loop nest over its rows, packing its own A
//! and B panels from the pool. Row partitioning never touches a
//! rounding chain, so results stay thread-count invariant, and the
//! single fork/join lets the 4–8 thread cells scale past n = 1024.
//!
//! Packing buffers and the accumulator come from the crate's packing
//! pool ([`crate::acquire`]), so steady-state repeated GEMMs perform
//! no allocator round-trips.

use core::marker::PhantomData;

use mc_types::{DType, Real};
use rayon::prelude::*;

use crate::params::{ComputeError, Epilogue, GemmParams, Trans};
use crate::pool::{self, PoolElem};
use crate::prof::{self, HostPhase, Lane};
use crate::MatMul;

/// Row-panel height: the `MC`-row sub-panels of a task's rows that
/// keep the A walk L2-resident.
pub const MC: usize = 64;
/// Column-block width: the B panel strip kept hot per microtile sweep.
pub const NC: usize = 128;
/// k-block depth: packed-panel columns sized to stay in L1.
pub const KC: usize = 256;

/// Environment variable selecting the microtile: `off`, `0`,
/// `portable` or `scalar` force the portable microtile; anything else
/// (or unset) runs the vector microtile where the host has it.
pub const SIMD_ENV: &str = "MC_GEMM_SIMD";

/// Microtile height in rows; the register block holds `MR` independent
/// accumulator rows of one vector-width-pair each.
pub const MR: usize = 4;

/// Which inner kernel the tier runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdMode {
    /// The AVX2 intrinsic microtile (requires runtime support).
    Vector,
    /// The scalar-unrolled portable microtile (identical loop nest and
    /// rounding chain; still auto-vectorizable by the compiler because
    /// the lanes are independent).
    Portable,
}

/// The packed GEMM backend.
#[derive(Clone, Copy, Debug)]
pub struct Simd {
    mode: SimdMode,
}

impl Simd {
    /// Backend with an explicit kernel choice. [`SimdMode::Vector`]
    /// silently degrades to the portable kernel when the host lacks
    /// AVX2 (checked at call time).
    pub fn with_mode(mode: SimdMode) -> Self {
        Simd { mode }
    }

    /// Backend configured from [`SIMD_ENV`]: the vector kernel when
    /// available unless the variable asks for the portable one.
    pub fn from_env() -> Self {
        let portable = std::env::var(SIMD_ENV)
            .map(|v| {
                matches!(
                    v.to_ascii_lowercase().as_str(),
                    "off" | "0" | "portable" | "scalar"
                )
            })
            .unwrap_or(false);
        if portable || !Self::vector_available() {
            Simd::with_mode(SimdMode::Portable)
        } else {
            Simd::with_mode(SimdMode::Vector)
        }
    }

    /// The kernel this backend instance runs.
    pub fn mode(&self) -> SimdMode {
        self.mode
    }

    /// Whether the host exposes the AVX2 vector unit the intrinsic
    /// microtile needs.
    pub fn vector_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the tier has a native (vector-capable) kernel for this
    /// dtype pairing: f64 accumulation takes any input dtype (every
    /// supported input embeds exactly in f64), f32 accumulation
    /// requires inputs that embed exactly in f32 (`f32`, `F16`,
    /// `Bf16`). Everything else — notably half-precision accumulation
    /// — runs the portable chain kernel.
    pub fn supports<AB: Real, CT: Real>() -> bool {
        match CT::DTYPE {
            DType::F64 => true,
            DType::F32 => matches!(AB::DTYPE, DType::F32 | DType::F16 | DType::Bf16),
            _ => false,
        }
    }

    /// Whether a GEMM of this dtype pairing runs the vector microtile
    /// on this backend.
    pub(crate) fn runs_vector<AB: Real, CT: Real>(&self) -> bool {
        self.mode == SimdMode::Vector && Self::vector_available() && Self::supports::<AB, CT>()
    }
}

impl Default for Simd {
    fn default() -> Self {
        Simd::from_env()
    }
}

/// The compute rules the loop nest is instantiated at: the scalar the
/// packed panels, the accumulator and the microtile hold, and one step
/// of the rounding chain on it. The pool backs only `f32`/`f64`, so
/// every kernel holds one of them.
trait Kernel {
    /// Packed-operand and accumulator scalar.
    type Elem: Real + PoolElem;

    /// Microtile width in columns (two vector registers per row).
    const NR: usize;

    /// One step of the chain: `acc + a·b` with the product and the sum
    /// each rounded in the compute type.
    fn mac(acc: Self::Elem, a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Runs the full-height ([`MR`]-row) vector microtile:
    /// `tile[r][c] += a[r][p] · b[p][c]` for `p` ascending, with each
    /// product and sum rounded as [`Kernel::mac`] rounds them
    /// (separate mul and add — no FMA).
    ///
    /// # Safety
    ///
    /// Caller must ensure the AVX2 feature is available, `a` covers
    /// `(MR-1)·a_stride + kc` elements, `b` covers `kc·NR`, and `tile`
    /// covers `MR·NR`.
    unsafe fn tile_vector(
        a: &[Self::Elem],
        a_stride: usize,
        b: &[Self::Elem],
        tile: &mut [Self::Elem],
        kc: usize,
    );
}

impl Kernel for f32 {
    type Elem = f32;

    const NR: usize = 16;

    #[inline(always)]
    fn mac(acc: f32, a: f32, b: f32) -> f32 {
        // Two statements on purpose: a separate mul and add is never
        // contracted into an FMA under strict FP.
        let prod = a * b;
        acc + prod
    }

    unsafe fn tile_vector(a: &[f32], a_stride: usize, b: &[f32], tile: &mut [f32], kc: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            tile_f32_avx2(a, a_stride, b, tile, kc);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            tile_portable::<f32>(a, a_stride, b, tile, kc, MR);
        }
    }
}

impl Kernel for f64 {
    type Elem = f64;

    const NR: usize = 8;

    #[inline(always)]
    fn mac(acc: f64, a: f64, b: f64) -> f64 {
        let prod = a * b;
        acc + prod
    }

    unsafe fn tile_vector(a: &[f64], a_stride: usize, b: &[f64], tile: &mut [f64], kc: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            tile_f64_avx2(a, a_stride, b, tile, kc);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            tile_portable::<f64>(a, a_stride, b, tile, kc, MR);
        }
    }
}

/// The chain kernel for triples without a native one: operands pack as
/// exact f64, and each step rounds the product and the sum through
/// `CT` — the naive chain verbatim. The accumulator holds the
/// `CT`-rounded values in f64, which embeds every `CT` exactly.
struct Chain<CT>(PhantomData<CT>);

impl<CT: Real> Kernel for Chain<CT> {
    type Elem = f64;

    const NR: usize = 8;

    #[inline(always)]
    fn mac(acc: f64, a: f64, b: f64) -> f64 {
        let prod = CT::from_f64(a * b);
        CT::from_f64(acc + prod.to_f64()).to_f64()
    }

    /// No vector microtile: the chain rounds through `CT` in software,
    /// so the dispatch never sets the vector flag for it.
    unsafe fn tile_vector(a: &[f64], a_stride: usize, b: &[f64], tile: &mut [f64], kc: usize) {
        tile_portable::<Self>(a, a_stride, b, tile, kc, MR);
    }
}

/// The 4×16 f32 microtile: 8 accumulator vectors (4 rows × two 8-wide
/// halves), B rows loaded once per `p` and shared across the rows.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_f32_avx2(a: &[f32], a_stride: usize, b: &[f32], tile: &mut [f32], kc: usize) {
    use core::arch::x86_64::*;
    debug_assert!(a.len() >= (MR - 1) * a_stride + kc);
    debug_assert!(b.len() >= kc * 16);
    debug_assert!(tile.len() >= MR * 16);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let tp = tile.as_mut_ptr();
    let mut c00 = _mm256_loadu_ps(tp);
    let mut c01 = _mm256_loadu_ps(tp.add(8));
    let mut c10 = _mm256_loadu_ps(tp.add(16));
    let mut c11 = _mm256_loadu_ps(tp.add(24));
    let mut c20 = _mm256_loadu_ps(tp.add(32));
    let mut c21 = _mm256_loadu_ps(tp.add(40));
    let mut c30 = _mm256_loadu_ps(tp.add(48));
    let mut c31 = _mm256_loadu_ps(tp.add(56));
    for p in 0..kc {
        let b0 = _mm256_loadu_ps(bp.add(p * 16));
        let b1 = _mm256_loadu_ps(bp.add(p * 16 + 8));
        // Separate mul then add, never FMA: fusing would skip the
        // product's f32 rounding and break bitwise parity with Naive.
        let a0 = _mm256_set1_ps(*ap.add(p));
        c00 = _mm256_add_ps(c00, _mm256_mul_ps(a0, b0));
        c01 = _mm256_add_ps(c01, _mm256_mul_ps(a0, b1));
        let a1 = _mm256_set1_ps(*ap.add(a_stride + p));
        c10 = _mm256_add_ps(c10, _mm256_mul_ps(a1, b0));
        c11 = _mm256_add_ps(c11, _mm256_mul_ps(a1, b1));
        let a2 = _mm256_set1_ps(*ap.add(2 * a_stride + p));
        c20 = _mm256_add_ps(c20, _mm256_mul_ps(a2, b0));
        c21 = _mm256_add_ps(c21, _mm256_mul_ps(a2, b1));
        let a3 = _mm256_set1_ps(*ap.add(3 * a_stride + p));
        c30 = _mm256_add_ps(c30, _mm256_mul_ps(a3, b0));
        c31 = _mm256_add_ps(c31, _mm256_mul_ps(a3, b1));
    }
    _mm256_storeu_ps(tp, c00);
    _mm256_storeu_ps(tp.add(8), c01);
    _mm256_storeu_ps(tp.add(16), c10);
    _mm256_storeu_ps(tp.add(24), c11);
    _mm256_storeu_ps(tp.add(32), c20);
    _mm256_storeu_ps(tp.add(40), c21);
    _mm256_storeu_ps(tp.add(48), c30);
    _mm256_storeu_ps(tp.add(56), c31);
}

/// The 4×8 f64 microtile, mirroring [`tile_f32_avx2`] on 4-wide
/// vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn tile_f64_avx2(a: &[f64], a_stride: usize, b: &[f64], tile: &mut [f64], kc: usize) {
    use core::arch::x86_64::*;
    debug_assert!(a.len() >= (MR - 1) * a_stride + kc);
    debug_assert!(b.len() >= kc * 8);
    debug_assert!(tile.len() >= MR * 8);
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let tp = tile.as_mut_ptr();
    let mut c00 = _mm256_loadu_pd(tp);
    let mut c01 = _mm256_loadu_pd(tp.add(4));
    let mut c10 = _mm256_loadu_pd(tp.add(8));
    let mut c11 = _mm256_loadu_pd(tp.add(12));
    let mut c20 = _mm256_loadu_pd(tp.add(16));
    let mut c21 = _mm256_loadu_pd(tp.add(20));
    let mut c30 = _mm256_loadu_pd(tp.add(24));
    let mut c31 = _mm256_loadu_pd(tp.add(28));
    for p in 0..kc {
        let b0 = _mm256_loadu_pd(bp.add(p * 8));
        let b1 = _mm256_loadu_pd(bp.add(p * 8 + 4));
        let a0 = _mm256_set1_pd(*ap.add(p));
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(*ap.add(a_stride + p));
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(*ap.add(2 * a_stride + p));
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(*ap.add(3 * a_stride + p));
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
    }
    _mm256_storeu_pd(tp, c00);
    _mm256_storeu_pd(tp.add(4), c01);
    _mm256_storeu_pd(tp.add(8), c10);
    _mm256_storeu_pd(tp.add(12), c11);
    _mm256_storeu_pd(tp.add(16), c20);
    _mm256_storeu_pd(tp.add(20), c21);
    _mm256_storeu_pd(tp.add(24), c30);
    _mm256_storeu_pd(tp.add(28), c31);
}

/// The portable microtile: the same loop nest as the vector kernels
/// with `mr` valid rows (also the remainder-row path under vector
/// mode, and the only path of the chain kernel). The column loop
/// carries independent rounding chains, so the compiler may
/// auto-vectorize it without any reassociation.
fn tile_portable<K: Kernel>(
    a: &[K::Elem],
    a_stride: usize,
    b: &[K::Elem],
    tile: &mut [K::Elem],
    kc: usize,
    mr: usize,
) {
    for p in 0..kc {
        let brow = &b[p * K::NR..(p + 1) * K::NR];
        for r in 0..mr {
            let av = a[r * a_stride + p];
            let trow = &mut tile[r * K::NR..(r + 1) * K::NR];
            for (t, &bv) in trow.iter_mut().zip(brow) {
                *t = K::mac(*t, av, bv);
            }
        }
    }
}

/// Packs `op(A)[row0..row0+mc_len][pc..pc+kc_len]` row-major into
/// `out` in the kernel's scalar (exact by [`Simd::supports`], and
/// always exact for the chain kernel's f64).
fn pack_a_k<AB: Real, K: Kernel>(
    params: &GemmParams,
    a: &[AB],
    row0: usize,
    mc_len: usize,
    pc: usize,
    kc_len: usize,
    out: &mut Vec<K::Elem>,
) {
    out.clear();
    match params.trans_a {
        Trans::None => {
            for il in 0..mc_len {
                let base = (row0 + il) * params.k + pc;
                out.extend(
                    a[base..base + kc_len]
                        .iter()
                        .map(|x| K::Elem::from_f64(x.to_f64())),
                );
            }
        }
        Trans::Trans => {
            for il in 0..mc_len {
                for pl in 0..kc_len {
                    out.push(K::Elem::from_f64(
                        a[(pc + pl) * params.m + row0 + il].to_f64(),
                    ));
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc_len][jc..jc+nc_len]` into `NR`-interleaved
/// strips (`out[strip][p][lane]`), zero-padding lanes past `nc_len` so
/// every vector load is full width. Padded lanes accumulate exact
/// zeros and are never stored back.
fn pack_b_k<AB: Real, K: Kernel>(
    params: &GemmParams,
    b: &[AB],
    pc: usize,
    kc_len: usize,
    jc: usize,
    nc_len: usize,
    out: &mut Vec<K::Elem>,
) {
    out.clear();
    for jl in (0..nc_len).step_by(K::NR) {
        let lanes = K::NR.min(nc_len - jl);
        for pl in 0..kc_len {
            let p = pc + pl;
            for lane in 0..K::NR {
                let v = if lane < lanes {
                    let j = jc + jl + lane;
                    let idx = match params.trans_b {
                        Trans::None => p * params.n + j,
                        Trans::Trans => j * params.k + p,
                    };
                    K::Elem::from_f64(b[idx].to_f64())
                } else {
                    K::Elem::zero()
                };
                out.push(v);
            }
        }
    }
}

/// Runs the microtile sweep for one `(jc, pc)` block over a task's
/// accumulator rows. `MC`-row sub-panels keep the A walk L2-resident;
/// within a sub-panel the B strip stays hot across the `MR`-row tiles.
#[allow(clippy::too_many_arguments)]
fn tiles<K: Kernel>(
    acc_rows: &mut [K::Elem],
    n: usize,
    jc: usize,
    nc_len: usize,
    kc_len: usize,
    a_panel: &[K::Elem],
    b_panel: &[K::Elem],
    vector: bool,
) {
    let mc_len = acc_rows.len() / n;
    let strip_len = kc_len * K::NR;
    // Stack tile sized for the widest kernel (f32: 4×16).
    let mut tile = [K::Elem::zero(); MR * 16];
    for ic in (0..mc_len).step_by(MC) {
        let ic_len = MC.min(mc_len - ic);
        for (strip, jl) in (0..nc_len).step_by(K::NR).enumerate() {
            let nr_len = K::NR.min(nc_len - jl);
            let b_strip = &b_panel[strip * strip_len..(strip + 1) * strip_len];
            for ir in (0..ic_len).step_by(MR) {
                let mr_len = MR.min(ic_len - ir);
                let row = ic + ir;
                for r in 0..mr_len {
                    let base = (row + r) * n + jc + jl;
                    for (c_ix, t) in tile[r * K::NR..r * K::NR + nr_len].iter_mut().enumerate() {
                        *t = acc_rows[base + c_ix];
                    }
                    for t in tile[r * K::NR + nr_len..(r + 1) * K::NR].iter_mut() {
                        *t = K::Elem::zero();
                    }
                }
                let a_rows = &a_panel[row * kc_len..(row + mr_len) * kc_len];
                if vector && mr_len == MR {
                    // SAFETY: `vector` is only true when AVX2 was
                    // detected; the slices cover MR rows × kc_len, the
                    // strip kc_len × NR, and the tile MR × NR.
                    unsafe {
                        K::tile_vector(a_rows, kc_len, b_strip, &mut tile[..MR * K::NR], kc_len)
                    };
                } else {
                    tile_portable::<K>(a_rows, kc_len, b_strip, &mut tile, kc_len, mr_len);
                }
                for r in 0..mr_len {
                    let base = (row + r) * n + jc + jl;
                    for (c_ix, t) in tile[r * K::NR..r * K::NR + nr_len].iter().enumerate() {
                        acc_rows[base + c_ix] = *t;
                    }
                }
            }
        }
    }
}

/// The monomorphic GEMM body at kernel `K`: one parallel region over
/// contiguous row chunks (one per worker), each task packing its own
/// pooled panels and walking `pc` ascending so every element sees the
/// naive rounding chain; the epilogue then rounds through `CT`.
fn gemm_k<AB: Real, CD: Real, CT: Real, K: Kernel>(
    params: &GemmParams,
    a: &[AB],
    b: &[AB],
    c: &[CD],
    d: &mut [CD],
    vector: bool,
) -> Result<(), ComputeError> {
    params.check_buffers(a.len(), b.len(), c.len(), d.len())?;
    let (m, n, k) = (params.m, params.n, params.k);
    if m == 0 || n == 0 {
        return Ok(());
    }

    // Host profiling: one caller-lane fan-out phase around the single
    // parallel region, worker-lane pack/microkernel phases inside it.
    let region = prof::current_region();
    let on = prof::enabled() && region != 0;

    let mut acc = pool::acquire::<K::Elem>(m * n);
    acc.resize(m * n, K::Elem::zero());
    let workers = rayon::current_num_threads().max(1);
    // One chunk per worker, whole MR-row groups. Partitioning splits
    // the *output*, so it cannot touch any rounding chain: results are
    // identical for every worker count.
    let chunk_rows = m.div_ceil(workers).next_multiple_of(MR);
    let kc_max = KC.min(k.max(1));
    let bp_cap = kc_max * NC.min(n).next_multiple_of(K::NR);
    let t_fan = on.then(prof::now_s);
    acc.par_chunks_mut(chunk_rows * n)
        .enumerate()
        .for_each(|(chunk_idx, acc_rows)| {
            let row0 = chunk_idx * chunk_rows;
            let mc_len = acc_rows.len() / n;
            let mut a_panel = pool::acquire::<K::Elem>(mc_len * kc_max);
            let mut b_panel = pool::acquire::<K::Elem>(bp_cap);
            for pc in (0..k).step_by(KC) {
                let kc_len = KC.min(k - pc);
                let t0 = on.then(prof::now_s);
                pack_a_k::<AB, K>(params, a, row0, mc_len, pc, kc_len, &mut a_panel);
                if let Some(t0) = t0 {
                    prof::phase(
                        region,
                        HostPhase::PackA,
                        Lane::Worker(prof::worker_lane()),
                        t0,
                    );
                }
                for jc in (0..n).step_by(NC) {
                    let nc_len = NC.min(n - jc);
                    let t0 = on.then(prof::now_s);
                    pack_b_k::<AB, K>(params, b, pc, kc_len, jc, nc_len, &mut b_panel);
                    if let Some(t0) = t0 {
                        prof::phase(
                            region,
                            HostPhase::PackB,
                            Lane::Worker(prof::worker_lane()),
                            t0,
                        );
                    }
                    let t0 = on.then(prof::now_s);
                    tiles::<K>(acc_rows, n, jc, nc_len, kc_len, &a_panel, &b_panel, vector);
                    if let Some(t0) = t0 {
                        prof::phase(
                            region,
                            HostPhase::Microkernel,
                            Lane::Worker(prof::worker_lane()),
                            t0,
                        );
                    }
                }
            }
        });
    if let Some(t0) = t_fan {
        prof::phase(region, HostPhase::Fanout, Lane::Call(prof::call_lane()), t0);
    }

    apply_epilogue::<CT, K::Elem, CD>(params, &acc, c, d);
    Ok(())
}

/// The α/β epilogue: `d ← epi(α·acc, β·c)` over full rows in parallel,
/// with both products rounded in the compute type `CT`. The
/// accumulator holds `CT`-rounded values in any scalar that embeds
/// them exactly.
fn apply_epilogue<CT: Real, A: Real, CD: Real>(
    params: &GemmParams,
    acc: &[A],
    c: &[CD],
    d: &mut [CD],
) {
    let (m, n) = (params.m, params.n);
    let (alpha, beta) = (params.alpha, params.beta);
    let epilogue = params.epilogue;
    let region = prof::current_region();
    let t0 = (prof::enabled() && region != 0).then(prof::now_s);
    d[..m * n]
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, drow)| {
            for (j, out) in drow.iter_mut().enumerate() {
                let ab = CT::from_f64(alpha * acc[i * n + j].to_f64());
                let bc = CT::from_f64(beta * c[i * n + j].to_f64());
                *out = match epilogue {
                    Epilogue::Direct => CD::from_f64(ab.to_f64() + bc.to_f64()),
                    Epilogue::ComputeRounded => {
                        CD::from_f64(CT::from_f64(ab.to_f64() + bc.to_f64()).to_f64())
                    }
                };
            }
        });
    if let Some(t0) = t0 {
        prof::phase(
            region,
            HostPhase::Epilogue,
            Lane::Call(prof::call_lane()),
            t0,
        );
    }
}

impl MatMul for Simd {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn gemm<AB, CD, CT>(
        &self,
        params: &GemmParams,
        a: &[AB],
        b: &[AB],
        c: &[CD],
        d: &mut [CD],
    ) -> Result<(), ComputeError>
    where
        AB: Real,
        CD: Real,
        CT: Real,
    {
        let vector = self.runs_vector::<AB, CT>();
        // A native kernel runs at the concrete scalar of CT's dtype,
        // which computes the identical chain (the dtype determines the
        // arithmetic); every other triple runs the chain kernel.
        match CT::DTYPE {
            DType::F32 if Self::supports::<AB, CT>() => {
                gemm_k::<AB, CD, CT, f32>(params, a, b, c, d, vector)
            }
            DType::F64 => gemm_k::<AB, CD, CT, f64>(params, a, b, c, d, vector),
            _ => gemm_k::<AB, CD, CT, Chain<CT>>(params, a, b, c, d, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Naive;
    use mc_types::{Bf16, F16};

    fn fill_ab<T: Real>(len: usize, seed: usize) -> Vec<T> {
        (0..len)
            .map(|i| T::from_f64(((i * seed + 3) % 17) as f64 / 8.0 - 1.0))
            .collect()
    }

    fn parity<AB: Real, CD: Real, CT: Real>(backend: &Simd, params: &GemmParams) {
        let (am, ak) = match params.trans_a {
            Trans::None => (params.m, params.k),
            Trans::Trans => (params.k, params.m),
        };
        let (bk, bn) = match params.trans_b {
            Trans::None => (params.k, params.n),
            Trans::Trans => (params.n, params.k),
        };
        let a: Vec<AB> = fill_ab(am * ak, 7);
        let b: Vec<AB> = fill_ab(bk * bn, 13);
        let c: Vec<CD> = fill_ab(params.m * params.n, 5);
        let mut d_naive = vec![CD::zero(); params.m * params.n];
        let mut d_simd = vec![CD::zero(); params.m * params.n];
        Naive
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_naive)
            .unwrap();
        backend
            .gemm::<AB, CD, CT>(params, &a, &b, &c, &mut d_simd)
            .unwrap();
        for (i, (x, y)) in d_naive.iter().zip(&d_simd).enumerate() {
            assert!(x == y, "element {i}: {x:?} vs {y:?} ({params:?})");
        }
    }

    #[test]
    fn both_modes_match_naive_bitwise_across_dtypes() {
        for mode in [SimdMode::Vector, SimdMode::Portable] {
            let backend = Simd::with_mode(mode);
            for (m, n, k) in [(1, 1, 1), (17, 5, 3), (65, 129, 257), (64, 128, 256)] {
                for epilogue in [crate::Epilogue::Direct, crate::Epilogue::ComputeRounded] {
                    let p = GemmParams::new(m, n, k)
                        .with_scaling(0.1, 0.1)
                        .with_epilogue(epilogue);
                    parity::<f64, f64, f64>(&backend, &p);
                    parity::<f32, f32, f32>(&backend, &p);
                    parity::<F16, f32, f32>(&backend, &p);
                    parity::<Bf16, Bf16, f32>(&backend, &p);
                    // Triples without a native kernel run the chain
                    // kernel, still bitwise.
                    parity::<F16, F16, F16>(&backend, &p);
                    parity::<Bf16, Bf16, Bf16>(&backend, &p);
                    parity::<f64, f32, f32>(&backend, &p);
                }
            }
        }
    }

    #[test]
    fn transposed_operands_match_naive() {
        for (ta, tb) in [
            (Trans::None, Trans::Trans),
            (Trans::Trans, Trans::None),
            (Trans::Trans, Trans::Trans),
        ] {
            let p = GemmParams::new(33, 21, 130)
                .with_scaling(-1.0, 1.0)
                .with_transposes(ta, tb);
            parity::<f32, f32, f32>(&Simd::from_env(), &p);
            parity::<f64, f64, f64>(&Simd::from_env(), &p);
            parity::<F16, F16, F16>(&Simd::from_env(), &p);
        }
    }

    #[test]
    fn supports_encodes_the_embeddability_rule() {
        assert!(Simd::supports::<f32, f32>());
        assert!(Simd::supports::<F16, f32>());
        assert!(Simd::supports::<Bf16, f32>());
        assert!(Simd::supports::<f64, f64>());
        assert!(Simd::supports::<f32, f64>());
        assert!(!Simd::supports::<f64, f32>(), "f64 inputs do not embed");
        assert!(
            !Simd::supports::<F16, F16>(),
            "half-precision accumulation runs the chain kernel"
        );
    }

    #[test]
    fn k_zero_runs_the_pure_epilogue() {
        let p = GemmParams::new(3, 2, 0).with_scaling(9.0, 0.5);
        parity::<f32, f32, f32>(&Simd::from_env(), &p);
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let p = GemmParams::new(130, 70, 90).with_scaling(0.1, 0.1);
        let a: Vec<f32> = fill_ab(130 * 90, 11);
        let b: Vec<f32> = fill_ab(90 * 70, 29);
        let c: Vec<f32> = fill_ab(130 * 70, 3);
        let mut runs: Vec<Vec<f32>> = Vec::new();
        for threads in [1, 2, 7] {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build_global()
                .unwrap();
            let mut d = vec![0.0f32; 130 * 70];
            Simd::from_env()
                .gemm::<f32, f32, f32>(&p, &a, &b, &c, &mut d)
                .unwrap();
            runs.push(d);
        }
        rayon::ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn oversized_output_buffer_is_left_untouched_past_mn() {
        let p = GemmParams::new(2, 2, 2).with_scaling(1.0, 0.0);
        let a = vec![1.0f64; 4];
        let b = vec![1.0f64; 4];
        let c = vec![0.0f64; 4];
        let mut d = vec![-7.0f64; 9];
        Simd::from_env()
            .gemm::<f64, f64, f64>(&p, &a, &b, &c, &mut d)
            .unwrap();
        assert_eq!(&d[..4], &[2.0, 2.0, 2.0, 2.0]);
        assert!(d[4..].iter().all(|&x| x == -7.0));
    }

    #[test]
    fn mode_env_round_trips() {
        // from_env picks *some* mode without panicking; Vector implies
        // the host actually has the feature.
        let s = Simd::from_env();
        if s.mode() == SimdMode::Vector {
            assert!(Simd::vector_available());
        }
    }
}
