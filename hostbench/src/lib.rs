//! Host-path benchmark for the repository's public GEMM, solver and
//! plan-search entry points. See `README.md` beside this crate for the
//! workloads, the metrics and how to run it.

pub mod check;
pub mod gemm;
pub mod host;
pub mod report;
pub mod rng;
pub mod run;
pub mod solve;
pub mod stats;
pub mod sweep;
pub mod trace;

use trace::Tracer;

/// One workload after set-up: inputs generated, one warm op run and
/// checked, and the reference output fingerprint kept.
pub trait Workload {
    /// Runs one op through the library's public entry points.
    fn op(&mut self) -> Result<(), String>;

    /// Runs the same op with each layer's calls made separately, each in
    /// a span, and records the layer counters into `tr`. The op's own
    /// work sits in one root span named `op`.
    fn traced_op(&mut self, tr: &mut Tracer) -> Result<(), String>;

    /// Checks the last op's output.
    fn check(&self) -> Result<(), String>;

    /// Flips one bit of the last op's output, so a self-test can show
    /// that [`Workload::check`] notices.
    fn corrupt(&mut self);

    /// Hash of the last op's output bits (and simulated times).
    fn output_hash(&self) -> u64;
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One f32 1024³ `sgemm` per op.
    GemmLarge,
    /// A fixed bundle of batched, mid-size and tiny GEMMs.
    GemmBatched,
    /// `potrf` + `potrs` and `refine` at n = 384.
    Solve,
    /// A plan-search sweep over the paper's routines.
    PlanSweep,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [Kind::GemmLarge, Kind::GemmBatched, Kind::Solve, Kind::PlanSweep];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GemmLarge => "gemm-large",
            Kind::GemmBatched => "gemm-batched",
            Kind::Solve => "solve",
            Kind::PlanSweep => "plan-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Ops issued per second of requested run length. The op count is a
    /// function of `--seconds` alone, never of the host's speed, so two
    /// runs (and two commits) at the same length issue the same ops and
    /// share one tail percentile.
    pub fn ops_per_second(self) -> f64 {
        match self {
            Kind::GemmLarge => 15.0,
            Kind::GemmBatched => 180.0,
            Kind::Solve => 44.0,
            Kind::PlanSweep => 18.0,
        }
    }

    /// Generates the seeded inputs and runs one warm, checked op.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::GemmLarge => Box::new(gemm::Gemms::large(seed)?),
            Kind::GemmBatched => Box::new(gemm::Gemms::batched(seed)?),
            Kind::Solve => Box::new(solve::Solve::new(seed)?),
            Kind::PlanSweep => Box::new(sweep::PlanSweep::new(seed)?),
        })
    }
}
