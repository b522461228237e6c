//! The benchmark's own guarantees: the same seed gives the same work and
//! the same outputs, and a corrupted output is counted as a failed op.
//!
//! Run with `cargo test --release --manifest-path hostbench/Cargo.toml`
//! (a debug build works but runs the 1024³ GEMM slowly).

use std::collections::BTreeMap;

use hostbench::run::Config;
use hostbench::stats::OpLog;
use hostbench::trace::Tracer;
use hostbench::Kind;

/// Counters that count work or read the simulated clock only, so they
/// must repeat bit for bit for a seed.
const EXACT: [&str; 11] = [
    "plan.searches",
    "plan.candidates",
    "plan.dry_runs",
    "plan.rejected",
    "blas.plan_hits",
    "blas.plan_lookups",
    "sim.simulated_s",
    "sim.static_s",
    "sim.searched_s",
    "solver.refine_iters",
    "solver.scaled_residual",
];

/// Plan-search counts, which do not depend on the seed at all.
const SEED_FREE: [&str; 4] = [
    "plan.searches",
    "plan.candidates",
    "plan.dry_runs",
    "plan.rejected",
];

/// What one set-up plus two traced ops produced.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    counters: BTreeMap<&'static str, u64>,
    regions: usize,
    naive_regions: usize,
    output_hash: u64,
}

fn fingerprint(kind: Kind, seed: u64) -> Fingerprint {
    let mut w = kind.setup(seed).expect("set-up");
    let mut tr = Tracer::default();
    let session = mc_compute::prof::session();
    for _ in 0..2 {
        tr.next_op();
        w.traced_op(&mut tr).expect("traced op");
        w.check().expect("traced op output");
    }
    let records = mc_hostprof::attribute(&session.finish());
    Fingerprint {
        counters: EXACT
            .iter()
            .map(|&c| (c, tr.counter(c).to_bits()))
            .collect(),
        regions: records.len(),
        naive_regions: records.iter().filter(|r| r.backend == "naive").count(),
        output_hash: w.output_hash(),
    }
}

/// Runs every workload in one test so the global worker count is set
/// for one workload at a time, as the runner sets it.
#[test]
fn same_seed_same_counts_and_outputs() {
    for kind in Kind::ALL {
        let config = Config {
            kind,
            seed: 7,
            seconds: 1,
            trace: true,
        };
        rayon::ThreadPoolBuilder::new()
            .num_threads(config.workers())
            .build_global()
            .expect("worker count");
        let a = fingerprint(kind, 7);
        let b = fingerprint(kind, 7);
        assert_eq!(a, b, "{}", kind.name());
        assert!(a.regions > 0 || kind == Kind::PlanSweep, "{}", kind.name());
        if kind == Kind::PlanSweep {
            let other = fingerprint(kind, 8);
            for c in SEED_FREE {
                assert_eq!(a.counters[c], other.counters[c], "{c} across seeds");
            }
            assert!(a.counters["plan.searches"] > 0);
        }
        if kind == Kind::Solve {
            assert!(f64::from_bits(a.counters["solver.refine_iters"]) >= 4.0);
        }
    }
}

#[test]
fn corrupted_output_counts_as_a_failed_op() {
    for kind in Kind::ALL {
        let mut w = kind.setup(3).expect("set-up");
        let mut log = OpLog::default();
        for corrupt in [false, true, false] {
            w.op().expect("op");
            if corrupt {
                w.corrupt();
            }
            log.push(1.0, hostbench::stats::NOMINAL_GFLOPS, w.check().is_ok());
        }
        assert_eq!(log.failed(), 1, "{}", kind.name());
        assert!(log.ok_ops_frac() < 1.0, "{}", kind.name());
    }
}
