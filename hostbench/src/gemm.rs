//! The GEMM workloads: one large `sgemm` (`gemm-large`), and a fixed
//! bundle of strided-batched, mid-size and tiny calls (`gemm-batched`).

use mc_blas::{
    host_gemm_backend, run_functional, run_functional_with, select_strategy, BatchedGemmDesc,
    BlasError, BlasHandle, GemmDesc, GemmOp, GemmPlan, Transpose,
};
use mc_sim::Gpu;
use mc_types::Real;

use crate::check::{fingerprint, mix, NaiveSamples, HASH_START};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;

/// Output elements per problem compared with the naive oracle.
const SAMPLES: usize = 16;

/// One GEMM call (or one strided-batched call over `batch` packed
/// problems) with its seeded operands and output buffer.
struct Problem<T: Real> {
    desc: GemmDesc,
    batch: usize,
    a: Vec<T>,
    b: Vec<T>,
    c: Vec<T>,
    d: Vec<T>,
    samples: NaiveSamples,
}

impl<T: Real> Problem<T> {
    fn new(desc: GemmDesc, batch: usize, seed: u64, stream: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed, stream);
        let (m, n, k) = (desc.m, desc.n, desc.k);
        let a = rng.vec(batch * m * k);
        let b = rng.vec(batch * k * n);
        let c = rng.vec(batch * m * n);
        let samples = NaiveSamples::new::<T, T, T>(&desc, batch, &a, &b, &c, &mut rng, SAMPLES)?;
        Ok(Problem {
            desc,
            batch,
            a,
            b,
            c,
            d: vec![T::zero(); batch * m * n],
            samples,
        })
    }

    /// One call through the library's public entry point; returns the
    /// simulated launch seconds.
    fn run(&mut self, h: &mut BlasHandle) -> Result<f64, BlasError> {
        let perf = if self.batch == 1 {
            h.gemm_ex::<T, T, T>(&self.desc, &self.a, &self.b, &self.c, &mut self.d)?
        } else {
            let bd = BatchedGemmDesc::packed(self.desc, self.batch);
            h.gemm_strided_batched_ex::<T, T, T>(&bd, &self.a, &self.b, &self.c, &mut self.d)?
        };
        Ok(perf.time_s)
    }

    /// The same call split into its library stages — plan lookup,
    /// functional compute, simulated launch — each in its own span.
    /// Returns the simulated seconds and the launched plan.
    fn run_traced(
        &mut self,
        h: &mut BlasHandle,
        tr: &mut Tracer,
    ) -> Result<(f64, GemmPlan), BlasError> {
        let batch = self.batch;
        let Problem {
            desc, a, b, c, d, ..
        } = self;
        let perf = if batch == 1 {
            let plan = tr.span("blas.plan", |_| h.planned(desc))?;
            tr.span("blas.functional", |_| {
                run_functional::<T, T, T>(desc, &plan.strategy, a, b, c, d)
            })?;
            tr.span("blas.launch", |_| h.gemm_timed(desc))?
        } else {
            let (strategy, backend) =
                tr.span("blas.plan", |_| (select_strategy(desc), host_gemm_backend()));
            let (sa, sb, sc) = (desc.m * desc.k, desc.k * desc.n, desc.m * desc.n);
            tr.span("blas.functional", |_| {
                (0..batch).try_for_each(|i| {
                    run_functional_with::<T, T, T>(
                        &backend,
                        desc,
                        &strategy,
                        &a[i * sa..][..sa],
                        &b[i * sb..][..sb],
                        &c[i * sc..][..sc],
                        &mut d[i * sc..][..sc],
                    )
                })
            })?;
            let bd = BatchedGemmDesc::packed(*desc, batch);
            tr.span("blas.launch", |_| h.gemm_strided_batched_timed(&bd))?
        };
        Ok((perf.time_s, perf.plan))
    }
}

/// A GEMM workload: a fixed list of f32 and f64 problems issued in
/// order through one handle. One op runs every problem once.
pub struct Gemms {
    handle: BlasHandle,
    /// A private simulated GPU for timing `Gpu::launch` on its own,
    /// outside the op, so the probe never perturbs the handle's device.
    probe: Gpu,
    f32s: Vec<Problem<f32>>,
    f64s: Vec<Problem<f64>>,
    sim_s: f64,
    reference: u64,
}

/// `gemm-large`: the side of the single square `sgemm`.
pub const LARGE_N: usize = 1024;

impl Gemms {
    /// `gemm-large`: one f32 1024³ `sgemm`.
    pub fn large(seed: u64) -> Result<Self, String> {
        let desc = GemmDesc::square(GemmOp::Sgemm, LARGE_N);
        Gemms::setup(vec![Problem::new(desc, 1, seed, 1)?], Vec::new())
    }

    /// `gemm-batched`: 32×64³ f32 batched, 256³ `sgemm`, 4×(192×128×96,
    /// Bᵀ) f64 batched, and eight 24³ `dgemm`s (below the `Auto`
    /// crossover, so they route to the naive tier).
    pub fn batched(seed: u64) -> Result<Self, String> {
        let f32s = vec![
            Problem::new(GemmDesc::square(GemmOp::Sgemm, 64), 32, seed, 1)?,
            Problem::new(GemmDesc::square(GemmOp::Sgemm, 256), 1, seed, 2)?,
        ];
        let tall = GemmDesc {
            trans_b: Transpose::Trans,
            ..GemmDesc::new(GemmOp::Dgemm, 192, 128, 96, 0.1, 0.1)
        };
        let mut f64s = vec![Problem::new(tall, 4, seed, 3)?];
        for i in 0..8 {
            f64s.push(Problem::new(
                GemmDesc::square(GemmOp::Dgemm, 24),
                1,
                seed,
                4 + i,
            )?);
        }
        Gemms::setup(f32s, f64s)
    }

    /// Caches the plans, runs one warm op, checks it against the naive
    /// samples, and keeps its output hash as the reference.
    fn setup(f32s: Vec<Problem<f32>>, f64s: Vec<Problem<f64>>) -> Result<Self, String> {
        let mut handle = BlasHandle::new_mi250x_gcd();
        handle.set_plan_search(false);
        for desc in f32s.iter().map(|p| p.desc).chain(f64s.iter().map(|p| p.desc)) {
            handle.planned(&desc).map_err(|e| e.to_string())?;
        }
        let probe = Gpu::new(handle.gpu().config().clone());
        let mut w = Gemms {
            handle,
            probe,
            f32s,
            f64s,
            sim_s: 0.0,
            reference: 0,
        };
        w.op()?;
        w.reference = w.output_hash();
        w.check()?;
        Ok(w)
    }
}

impl Workload for Gemms {
    fn op(&mut self) -> Result<(), String> {
        let h = &mut self.handle;
        let mut sim_s = 0.0;
        for p in &mut self.f32s {
            sim_s += p.run(h).map_err(|e| e.to_string())?;
        }
        for p in &mut self.f64s {
            sim_s += p.run(h).map_err(|e| e.to_string())?;
        }
        self.sim_s = sim_s;
        Ok(())
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let h = &mut self.handle;
        let cache0 = h.plan_cache_stats();
        let (f32s, f64s) = (&mut self.f32s, &mut self.f64s);
        let (sim_s, plans) = tr.span("op", |tr| -> Result<_, BlasError> {
            let mut sim_s = 0.0;
            let mut plans = Vec::new();
            for p in f32s.iter_mut() {
                let (t, plan) = p.run_traced(h, tr)?;
                sim_s += t;
                plans.push(plan);
            }
            for p in f64s.iter_mut() {
                let (t, plan) = p.run_traced(h, tr)?;
                sim_s += t;
                plans.push(plan);
            }
            Ok((sim_s, plans))
        })
        .map_err(|e| e.to_string())?;
        let cache1 = h.plan_cache_stats();
        tr.add("blas.plan_hits", (cache1.hits - cache0.hits) as f64);
        tr.add(
            "blas.plan_lookups",
            (cache1.hits + cache1.misses - cache0.hits - cache0.misses) as f64,
        );
        let die = self.handle.die();
        for plan in &plans {
            tr.span("sim.launch", |_| self.probe.launch(die, &plan.kernel))
                .map_err(|e| e.to_string())?;
        }
        tr.add("sim.simulated_s", sim_s);
        self.sim_s = sim_s;
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.output_hash() != self.reference {
            return Err("output differs from the set-up fingerprint".to_owned());
        }
        for p in &self.f32s {
            p.samples.check(&p.d)?;
        }
        for p in &self.f64s {
            p.samples.check(&p.d)?;
        }
        Ok(())
    }

    fn corrupt(&mut self) {
        let x = &mut self.f32s[0].d[0];
        *x = f32::from_bits(x.to_bits() ^ 1);
    }

    fn output_hash(&self) -> u64 {
        let h = mix(HASH_START, self.sim_s.to_bits());
        let h = self.f32s.iter().fold(h, |h, p| fingerprint(h, &p.d));
        self.f64s.iter().fold(h, |h, p| fingerprint(h, &p.d))
    }
}
