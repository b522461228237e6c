//! Crossover calibration sweep: times the naive and packed tiers at a
//! range of square sizes on the current rayon pool so the `default_crossover`
//! constants can be re-derived on new hardware. Run with
//! `cargo run --release -p mc-compute --example calibrate [sizes...]`.
//!
//! Besides the console table, the sweep lands as a schema-versioned
//! `results/CALIBRATE_crossover.json` (see `mc_compute::calibrate`),
//! which the `regress` gate diffs against the committed baseline so a
//! tier slowdown that invalidates the crossover edges is caught in CI.
//! Set `MC_CALIBRATE_OUT` to redirect the artifact directory.

use std::path::PathBuf;
use std::time::Instant;

use mc_compute::calibrate::{CalibrateFile, CalibrateRow, CALIBRATE_FILE};
use mc_compute::{Epilogue, GemmParams, MatMul, Naive, Simd};

fn fill(buf: &mut [f32], mut state: u64) {
    for v in buf.iter_mut() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let mantissa = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f64;
        *v = (mantissa / (1u64 << 23) as f64 * 2.0 - 1.0) as f32;
    }
}

fn time<K: MatMul>(kernel: &K, n: usize, reps: usize) -> f64 {
    let mut a = vec![0.0f32; n * n];
    let mut b = vec![0.0f32; n * n];
    fill(&mut a, 0x9E37_79B9_7F4A_7C15);
    fill(&mut b, 0xD1B5_4A32_D192_ED03);
    let c = vec![0.0f32; n * n];
    let mut d = vec![0.0f32; n * n];
    let params = GemmParams::new(n, n, n).with_epilogue(Epilogue::ComputeRounded);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        kernel
            .gemm::<f32, f32, f32>(&params, &a, &b, &c, &mut d)
            .unwrap();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes = if sizes.is_empty() {
        vec![32, 48, 64, 96, 128, 192, 256, 512, 1024]
    } else {
        sizes
    };
    let mut file = CalibrateFile::new(rayon::current_num_threads(), Simd::vector_available());
    println!("threads={} simd_vector={}", file.threads, file.simd_vector);
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "N", "naive_s", "simd_s", "simd GF/s"
    );
    for n in sizes {
        let reps = if n >= 512 { 2 } else { 5 };
        let naive = if n <= 512 {
            Some(time(&Naive, n, reps))
        } else {
            None
        };
        let simd = time(&Simd::from_env(), n, reps);
        let gf = 2.0 * (n as f64).powi(3) / simd / 1e9;
        let naive_cell = naive.unwrap_or(f64::NAN);
        println!("{n:>6} {naive_cell:>12.6} {simd:>12.6} {gf:>10.2}");
        file.rows.push(CalibrateRow {
            n: n as u64,
            naive_s: naive,
            simd_s: simd,
            simd_gflops: gf,
        });
    }
    let out_dir = std::env::var("MC_CALIBRATE_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    let path = out_dir.join(CALIBRATE_FILE);
    let write = std::fs::create_dir_all(&out_dir).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&file).expect("timings are always serializable"),
        )
    });
    match write {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("error: could not write {}: {e}", path.display()),
    }
}
