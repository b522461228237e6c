//! The host's own state: its mul+add ceiling, scheduler wait, memory
//! high-water mark, and the provenance stamped on every result.

use std::time::Instant;

/// Independent accumulator chains in the ceiling loop: enough to cover
/// the mul and add latencies on both vector ports.
const CHAINS: usize = 12;

/// Iterations of one ceiling pass (about 50 ms on a 3 GHz core).
const PEAK_ITERS: u64 = 12_000_000;

/// Passes per ceiling measurement; the fastest one is kept.
const PEAK_PASSES: usize = 5;

/// Iterations of the mul+add half of the reference (about 0.5 ms).
const REF_ITERS: u64 = 120_000;

/// Side of the cache-resident f32 GEMM half of the reference.
const REF_MM_N: usize = 64;

/// Single-core GF/s of one pass of an 8-lane f32 mul-then-add loop.
fn pass_gflops(iters: u64) -> f64 {
    let t = Instant::now();
    std::hint::black_box(mul_add_loop(std::hint::black_box(iters)));
    (iters * CHAINS as u64 * 8 * 2) as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// The ceiling of the bitwise (no-FMA) GEMM microkernel on one core:
/// the fastest of a few long mul+add passes.
pub fn peak_gflops() -> f64 {
    (0..PEAK_PASSES)
        .map(|_| pass_gflops(PEAK_ITERS))
        .fold(0.0, f64::max)
}

/// The host-speed reference run before every op. It is benchmark code,
/// so no change to the program can move it.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Default for Reference {
    fn default() -> Self {
        let n2 = REF_MM_N * REF_MM_N;
        Reference {
            a: vec![0.5; n2],
            b: vec![0.25; n2],
            c: vec![0.0; n2],
        }
    }
}

impl Reference {
    /// The host's current speed in GF/s: the geometric mean of one short
    /// mul+add pass and one naive 64³ f32 GEMM held in L1/L2. Unlike
    /// [`peak_gflops`] it is not a best case, so it follows contention
    /// from other tenants: the mul+add pass sees contention for the
    /// vector ports, the GEMM contention for the caches, and measured op
    /// times follow their product more closely than either alone.
    pub fn gflops(&mut self) -> f64 {
        let alu = pass_gflops(REF_ITERS);
        self.c.fill(0.0);
        let t = Instant::now();
        naive_gemm(
            std::hint::black_box(&self.a),
            std::hint::black_box(&self.b),
            &mut self.c,
            std::hint::black_box(REF_MM_N),
        );
        std::hint::black_box(&self.c);
        let mm = (2 * REF_MM_N.pow(3)) as f64 / t.elapsed().as_secs_f64() / 1e9;
        (alu * mm).sqrt()
    }
}

/// `c += a·b` for row-major `n×n` matrices, i-k-j order.
fn naive_gemm(a: &[f32], b: &[f32], c: &mut [f32], n: usize) {
    for i in 0..n {
        for k in 0..n {
            let x = a[i * n + k];
            for j in 0..n {
                c[i * n + j] += x * b[k * n + j];
            }
        }
    }
}

fn mul_add_loop(iters: u64) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was detected at run time just above.
        return unsafe { mul_add_avx2(iters) };
    }
    let mut acc = [[1.0f32; 8]; CHAINS];
    for _ in 0..iters {
        for chain in acc.iter_mut() {
            for x in chain.iter_mut() {
                *x = *x * 0.999_999 + 1e-7;
            }
        }
    }
    acc.iter().flatten().sum()
}

/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_add_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let m = _mm256_set1_ps(0.999_999);
    let a = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = _mm256_add_ps(_mm256_mul_ps(*x, m), a);
        }
    }
    let mut sum = _mm256_setzero_ps();
    for x in acc {
        sum = _mm256_add_ps(sum, x);
    }
    let mut out = [0.0f32; 8];
    // SAFETY: `out` holds the 8 floats the unaligned store writes.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), sum) };
    out.iter().sum()
}

/// Nanoseconds the calling thread has spent runnable but waiting for a
/// CPU (`/proc/thread-self/schedstat`, second field); 0 where absent.
pub fn sched_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// `(steal, total)` clock ticks summed over all CPUs (`/proc/stat`).
pub fn cpu_ticks() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let ticks: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|t| t.parse().ok())
                .collect();
            Some((*ticks.get(7)?, ticks.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Stolen share of the CPU time between two [`cpu_ticks`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The repository's commit, read from `.git` beside the benchmark
/// without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &str| std::fs::read_to_string(git.join(p)).ok();
    let head = read("HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => read(r).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].to_owned())
        }),
        None => Some(head),
    };
    rev.map(|r| r.trim().chars().take(12).collect::<String>())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
