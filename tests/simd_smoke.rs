//! Gating CI smoke for the SIMD microkernel tier.
//!
//! Asserts the two load-bearing properties of the tier at the bench
//! matrix's headline cell (1024³, one thread, f32): the dispatch
//! actually selects the packed tier, and its vector microtile beats
//! the portable microtile by at least 1.5× (measured 2.8–3.7× on a
//! 2-vCPU AVX2 Xeon guest, so 1.5× is a regression tripwire, not a
//! target). On a runner without AVX2 the vector microtile cannot run;
//! the test prints a notice and passes, so the gate only ever fails
//! for a real regression.
//!
//! The test is `#[ignore]`d because it times a full-dimension GEMM;
//! CI runs it explicitly with `-- --ignored`.

use std::time::Instant;

use amd_matrix_cores::compute::{
    Epilogue, GemmParams, MatMul, Simd, SimdMode, CROSSOVER_ENV, SIMD_ENV,
};

/// Deterministic pseudo-random fill in [-1, 1) (xorshift64*).
fn fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
        *v = (mantissa / (1u64 << 23) as f64 * 2.0 - 1.0) as f32;
    }
}

#[test]
#[ignore = "full-dimension perf smoke; CI runs it with -- --ignored"]
fn simd_tier_is_selected_and_vector_beats_portable_at_1024() {
    if !Simd::vector_available() {
        eprintln!("notice: runner lacks AVX2 — SIMD smoke skipped");
        return;
    }
    if Simd::from_env().mode() != SimdMode::Vector || std::env::var(CROSSOVER_ENV).is_ok() {
        eprintln!("notice: {SIMD_ENV}/{CROSSOVER_ENV} override in force — SIMD smoke skipped");
        return;
    }
    let _ = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global();

    let n = 1024;
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    let auto = amd_matrix_cores::blas::select::host_gemm_backend();
    assert_eq!(
        auto.routed_name::<f32, f32>(&params),
        "simd",
        "the dispatch must route N={n} to the packed tier (edge {})",
        auto.crossover_n()
    );

    let mut a = vec![0.0f32; n * n];
    let mut b = vec![0.0f32; n * n];
    fill(&mut a, 0x9E37_79B9_7F4A_7C15);
    fill(&mut b, 0xD1B5_4A32_D192_ED03);
    let c = vec![0.0f32; n * n];

    let mut portable_s = f64::INFINITY;
    let mut vector_s = f64::INFINITY;
    let mut d_portable = vec![0.0f32; n * n];
    let mut d_vector = vec![0.0f32; n * n];
    for _ in 0..2 {
        let start = Instant::now();
        Simd::with_mode(SimdMode::Portable)
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_portable)
            .unwrap();
        portable_s = portable_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        Simd::with_mode(SimdMode::Vector)
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d_vector)
            .unwrap();
        vector_s = vector_s.min(start.elapsed().as_secs_f64());
    }

    // Same rounding chain, different instructions: the speedup must
    // not come at the cost of a single bit.
    assert!(
        d_portable
            .iter()
            .zip(&d_vector)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "vector microtile diverged from the portable microtile"
    );
    assert!(
        vector_s * 1.5 <= portable_s,
        "vector microtile must be >= 1.5x the portable one at {n}^3/1-thread f32: \
         vector {vector_s:.4}s vs portable {portable_s:.4}s ({:.2}x)",
        portable_s / vector_s
    );
}
