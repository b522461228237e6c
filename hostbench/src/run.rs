//! The closed-loop runner: one client issues the fixed op count, each
//! op after the previous one returned and was checked.

use std::time::Instant;

use mc_compute::{pool_stats, prof};
use mc_hostprof::HostAttributionRecord;

use crate::host;
use crate::stats::{median, OpLog, NOMINAL_GFLOPS, TAIL_MIN_BEYOND, WINDOWS};
use crate::trace::Tracer;
use crate::Kind;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Reference readings before each set-up; their median scales it.
const SETUP_REF_PASSES: usize = 5;

/// Rayon workers of every workload (capped at the host's logical CPUs).
/// One: on a 2-vCPU guest, time stolen by the hypervisor made 2-worker
/// figures spread 0.3–1.0 (IQR over median) between runs, wider than
/// any bound the benchmark may set (see `README.md`).
pub const WORKERS: usize = 1;

/// One run's request.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Requested run length; fixes the op count.
    pub seconds: u64,
    /// Whether every second op is traced (the per-layer run).
    pub trace: bool,
}

impl Config {
    /// Ops the run issues: a function of the workload and `seconds`
    /// only, with enough samples for a p50 tail in every window of both
    /// halves of a traced run.
    pub fn ops(&self) -> usize {
        let n = (self.kind.ops_per_second() * self.seconds as f64).ceil() as usize;
        n.max(4 * WINDOWS * TAIL_MIN_BEYOND)
    }

    /// Rayon workers: [`WORKERS`], never above the host's CPUs.
    pub fn workers(&self) -> usize {
        WORKERS.min(host::nproc())
    }
}

/// Host-GEMM attribution summed over the traced ops' regions.
#[derive(Clone, Debug, Default)]
pub struct ComputeTotals {
    /// GEMM regions (one per `Auto` dispatch).
    pub regions: usize,
    /// Regions the dispatch routed to the naive tier.
    pub naive_regions: usize,
    /// `2·m·n·k` over all regions.
    pub flops: f64,
    /// Region wall seconds.
    pub wall_s: f64,
    /// Worker-lane A packing seconds.
    pub pack_a_s: f64,
    /// Worker-lane B packing seconds.
    pub pack_b_s: f64,
    /// Worker-lane microkernel seconds.
    pub microkernel_s: f64,
    /// Caller-lane epilogue seconds.
    pub epilogue_s: f64,
    /// Caller-lane fan-out window seconds.
    pub fanout_s: f64,
    /// Fan-out window seconds not covered by the average worker's busy
    /// time: spawn, join and imbalance.
    pub fanout_overhead_s: f64,
    /// Worker-lane busy seconds.
    pub worker_busy_s: f64,
    /// Worker lanes available to the fan-outs (`threads` × fan-out time).
    pub worker_capacity_s: f64,
    /// Caller-lane phase seconds (what the phases explain of the wall).
    pub caller_s: f64,
    /// Pool acquisitions served from a freelist.
    pub pool_hits: u64,
    /// Pool acquisitions that allocated.
    pub pool_misses: u64,
    /// Bytes the pool allocated.
    pub pool_alloc_bytes: u64,
    /// Profiling events lost to collector overflow.
    pub dropped: u64,
}

impl ComputeTotals {
    fn add(&mut self, records: &[HostAttributionRecord]) {
        for r in records {
            let threads = r.threads.max(1) as f64;
            self.regions += 1;
            self.naive_regions += usize::from(r.backend == "naive");
            self.flops += 2.0 * r.m as f64 * r.n as f64 * r.k as f64;
            self.wall_s += r.wall_s;
            self.pack_a_s += r.pack_a_s;
            self.pack_b_s += r.pack_b_s;
            self.microkernel_s += r.microkernel_s;
            self.epilogue_s += r.epilogue_s;
            self.fanout_s += r.fanout_s;
            self.fanout_overhead_s += (r.fanout_s - r.worker_busy_s / threads).max(0.0);
            self.worker_busy_s += r.worker_busy_s;
            self.worker_capacity_s += threads * r.fanout_s;
            self.caller_s += r.caller_s;
        }
    }
}

/// Everything one run measured.
pub struct Outcome {
    /// The request.
    pub config: Config,
    /// Untraced ops.
    pub log: OpLog,
    /// Traced ops (trace runs only), timed by their `op` span.
    pub traced: OpLog,
    /// Host-clock seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Each set-up's seconds scaled to the nominal host speed, as the
    /// op times are (see [`crate::stats`]).
    pub setup_norm_s: Vec<f64>,
    /// Host ceiling (GF/s, one core) before the measured phase.
    pub peak_before: f64,
    /// Host ceiling after the measured phase.
    pub peak_after: f64,
    /// Caller-thread runnable-but-waiting share of the measured wall.
    pub sched_wait_frac: f64,
    /// Share of all CPUs' time the hypervisor stole during the
    /// measured phase.
    pub steal_frac: f64,
    /// Spans and counters of the traced ops.
    pub tracer: Tracer,
    /// Host-GEMM attribution of the traced ops.
    pub compute: ComputeTotals,
    /// The first failure seen, if any.
    pub first_error: Option<String>,
}

/// Sets the worker count, runs the set-ups, then the measured loop.
pub fn run(config: Config) -> Result<Outcome, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(config.workers())
        .build_global()
        .map_err(|e| e.to_string())?;

    let mut reference = host::Reference::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_norm_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let refs: Vec<f64> = (0..SETUP_REF_PASSES).map(|_| reference.gflops()).collect();
        let t = Instant::now();
        workload = Some(config.kind.setup(config.seed)?);
        let dt = t.elapsed().as_secs_f64();
        setup_s.push(dt);
        setup_norm_s.push(dt * median(&refs) / NOMINAL_GFLOPS);
    }
    let mut w = workload.expect("SETUP_REPS > 0");

    let peak_before = host::peak_gflops();
    let mut log = OpLog::default();
    let mut traced = OpLog::default();
    let mut tracer = Tracer::default();
    let mut compute = ComputeTotals::default();
    let mut first_error = None;
    let wait0 = host::sched_wait_ns();
    let cpu0 = host::cpu_ticks();
    let t0 = Instant::now();
    for i in 0..config.ops() {
        let ref_gflops = reference.gflops();
        let (result, wall_s, into) = if config.trace && i % 2 == 1 {
            tracer.next_op();
            let pool0 = pool_stats();
            let session = prof::session();
            let result = w.traced_op(&mut tracer);
            let profile = session.finish();
            let pool1 = pool_stats();
            compute.add(&mc_hostprof::attribute(&profile));
            compute.pool_hits += pool1.hits - pool0.hits;
            compute.pool_misses += pool1.misses - pool0.misses;
            compute.pool_alloc_bytes += pool1.allocated_bytes - pool0.allocated_bytes;
            compute.dropped += profile.dropped;
            let wall_s = tracer.last("op").unwrap_or(f64::NAN);
            (result, wall_s, &mut traced)
        } else {
            let t = Instant::now();
            let result = w.op();
            (result, t.elapsed().as_secs_f64(), &mut log)
        };
        let result = result.and_then(|()| w.check());
        if let Err(e) = &result {
            first_error.get_or_insert_with(|| format!("op {i}: {e}"));
        }
        into.push(wall_s, ref_gflops, result.is_ok());
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let sched_wait_frac = host::sched_wait_ns().saturating_sub(wait0) as f64 * 1e-9 / wall_s;
    let steal_frac = host::steal_frac(cpu0, host::cpu_ticks());
    let peak_after = host::peak_gflops();

    Ok(Outcome {
        config,
        log,
        traced,
        setup_s,
        setup_norm_s,
        peak_before,
        peak_after,
        sched_wait_frac,
        steal_frac,
        tracer,
        compute,
        first_error,
    })
}
