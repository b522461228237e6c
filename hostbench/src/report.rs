//! Metric derivation and the printed result. Host-clock and
//! simulated-clock figures never share a metric.

use crate::host;
use crate::run::Outcome;
use crate::stats::{median, NOMINAL_GFLOPS, WINDOWS};

/// Largest aggregate `compute.reconcile_rel_err` at which the kernel
/// phase shares are reported. Above it the caller-lane phases fail to
/// explain the region wall, so the shares print as [`WITHHELD`].
pub const RECONCILE_BOUND: f64 = 0.05;

/// Value printed for a phase share withheld by [`RECONCILE_BOUND`].
pub const WITHHELD: f64 = -1.0;

/// One printed metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not reach).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics of an untraced run. Times are host-clock
/// seconds scaled to the nominal host speed ([`crate::stats`]).
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let s = o.log.normalized();
    let tail = s.tail.expect("the op count keeps a tail");
    vec![
        m("ops_per_s", s.ops_per_s, "1/s"),
        m("op_p50_ms", s.p50_s * 1e3, "ms"),
        m("op_tail_ms", tail.value_s * 1e3, "ms"),
        m("setup_s", median(&o.setup_norm_s), "s"),
        m("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        m("ok_ops_frac", o.log.ok_ops_frac(), "frac"),
    ]
}

/// Aggregate `|region wall − caller-lane phases| / region wall`.
pub fn reconcile_rel_err(o: &Outcome) -> f64 {
    let c = &o.compute;
    ratio((c.wall_s - c.caller_s).abs(), c.wall_s)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let tr = &o.tracer;
    let c = &o.compute;
    let traced_ops = o.traced.attempted() as f64;
    let peak = 0.5 * (o.peak_before + o.peak_after);
    let workers = o.config.workers() as f64;
    let gflops = ratio(c.flops, c.wall_s) / 1e9;
    let reconcile = reconcile_rel_err(o);
    // Worker-lane phases run concurrently on `workers` lanes: dividing
    // by the lane capacity makes them shares of the region wall.
    let lanes_wall = workers * c.wall_s;
    let share = |s: f64, base: f64| {
        if reconcile <= RECONCILE_BOUND {
            ratio(s, base)
        } else {
            WITHHELD
        }
    };
    let (_, op_s) = tr.total("op");
    let (searches, search_s) = tr.total("plan.search");
    let (_, solve_s) = tr.total("solver.potrf");
    let per_search = |counter: &str| ratio(tr.counter(counter), searches as f64);
    let candidates = tr.counter("plan.candidates");
    let solving = solve_s > 0.0;
    vec![
        m("host.peak_gflops", peak, "GF/s"),
        m("host.sched_wait_frac", o.sched_wait_frac, "frac"),
        m("compute.gflops", gflops, "GF/s"),
        m("compute.frac_of_peak", ratio(gflops, peak * workers), "frac"),
        m("compute.microkernel_frac", share(c.microkernel_s, lanes_wall), "frac"),
        m("compute.pack_a_frac", share(c.pack_a_s, lanes_wall), "frac"),
        m("compute.pack_b_frac", share(c.pack_b_s, lanes_wall), "frac"),
        m("compute.epilogue_frac", share(c.epilogue_s, c.wall_s), "frac"),
        m("compute.fanout_frac", share(c.fanout_overhead_s, c.wall_s), "frac"),
        m(
            "compute.parallel_efficiency",
            ratio(c.worker_busy_s, c.worker_capacity_s),
            "frac",
        ),
        m(
            "compute.naive_regions_frac",
            ratio(c.naive_regions as f64, c.regions as f64),
            "frac",
        ),
        m("compute.regions_per_op", ratio(c.regions as f64, traced_ops), "count"),
        m(
            "compute.pool_hit_rate",
            ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
            "frac",
        ),
        m(
            "compute.pool_alloc_bytes_per_op",
            ratio(c.pool_alloc_bytes as f64, traced_ops),
            "B",
        ),
        m("compute.reconcile_rel_err", reconcile, "frac"),
        m(
            "blas.host_compute_frac",
            ratio(tr.total("blas.functional").1, op_s),
            "frac",
        ),
        m("blas.plan_lookup_us", tr.mean("blas.plan") * 1e6, "us"),
        m("blas.launch_us", tr.mean("blas.launch") * 1e6, "us"),
        m(
            "blas.plan_cache_hit_rate",
            ratio(tr.counter("blas.plan_hits"), tr.counter("blas.plan_lookups")),
            "frac",
        ),
        m("plan.search_ms", ratio(search_s, searches as f64) * 1e3, "ms"),
        m("plan.build_frac", ratio(tr.total("plan.build").1, search_s), "frac"),
        m("plan.dry_run_frac", ratio(tr.total("plan.dry_run").1, search_s), "frac"),
        m("plan.candidates_per_search", per_search("plan.candidates"), "count"),
        m("plan.dry_runs_per_search", per_search("plan.dry_runs"), "count"),
        m(
            "plan.dry_run_kept_frac",
            ratio(tr.counter("plan.dry_runs"), candidates),
            "frac",
        ),
        m(
            "plan.rejected_frac",
            ratio(tr.counter("plan.rejected"), candidates),
            "frac",
        ),
        m("sim.launch_us", tr.mean("sim.launch") * 1e6, "us"),
        m(
            "sim.simulated_s_sum",
            ratio(tr.counter("sim.simulated_s"), traced_ops),
            "s",
        ),
        m(
            "sim.search_speedup",
            ratio(tr.counter("sim.static_s"), tr.counter("sim.searched_s")),
            "x",
        ),
        m("solver.potrf_ms", tr.mean("solver.potrf") * 1e3, "ms"),
        m("solver.potrs_ms", tr.mean("solver.potrs") * 1e3, "ms"),
        m("solver.refine_ms", tr.mean("solver.refine") * 1e3, "ms"),
        m(
            "solver.blas3_frac",
            if solving { ratio(c.wall_s, op_s) } else { 0.0 },
            "frac",
        ),
        m(
            "solver.refine_iters",
            ratio(tr.counter("solver.refine_iters"), traced_ops),
            "count",
        ),
        m(
            "solver.scaled_residual",
            ratio(tr.counter("solver.scaled_residual"), traced_ops),
            "1",
        ),
        m(
            "trace.overhead_frac",
            o.traced.normalized().p50_s / o.log.normalized().p50_s - 1.0,
            "frac",
        ),
    ]
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// print as the [`WITHHELD`] sentinel so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{WITHHELD:?}")
    }
}

/// The provenance line printed before the result.
pub fn provenance(o: &Outcome, trace_file: Option<&str>) -> String {
    let cfg = &o.config;
    let norm = o.log.normalized();
    let raw = o.log.raw();
    let tail = norm.tail.map_or((0.0, 0, 0), |t| (t.percentile, t.window, t.beyond));
    let raw_tail_s = raw.tail.map_or(f64::NAN, |t| t.value_s);
    let fields: Vec<(&str, String)> = vec![
        ("workload", json_str(cfg.kind.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", cfg.seconds.to_string()),
        ("trace", cfg.trace.to_string()),
        ("ops", cfg.ops().to_string()),
        ("workers", cfg.workers().to_string()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", json_str(&host::cpu_model())),
        ("avx2", mc_compute::Simd::vector_available().to_string()),
        ("rustc", json_str(env!("HOSTBENCH_RUSTC"))),
        (
            "profile",
            json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        ),
        ("git_rev", json_str(&host::git_rev())),
        ("peak_gflops_before", json_num(o.peak_before)),
        ("peak_gflops_after", json_num(o.peak_after)),
        ("sched_wait_frac", json_num(o.sched_wait_frac)),
        ("op_tail_percentile", json_num(tail.0)),
        ("op_tail_windows", WINDOWS.to_string()),
        ("op_tail_samples_per_window", tail.1.to_string()),
        ("op_tail_beyond_per_window", tail.2.to_string()),
        ("nominal_gflops", json_num(NOMINAL_GFLOPS)),
        ("ref_gflops_median", json_num(o.log.ref_gflops())),
        ("raw_ops_per_s", json_num(raw.ops_per_s)),
        ("raw_op_p50_ms", json_num(raw.p50_s * 1e3)),
        ("raw_op_tail_ms", json_num(raw_tail_s * 1e3)),
        ("raw_setup_s", json_num(median(&o.setup_s))),
        ("steal_frac", json_num(o.steal_frac)),
        ("setup_reps", o.setup_s.len().to_string()),
        ("reconcile_bound", json_num(RECONCILE_BOUND)),
        ("prof_events_dropped", o.compute.dropped.to_string()),
        ("trace_file", trace_file.map_or("null".to_owned(), json_str)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!("{{\"provenance\":{{{}}}}}", body.join(","))
}

/// The result line: the last line the benchmark prints.
pub fn result(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(x.name),
                json_num(x.value),
                json_str(x.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}
