//! `plan-sweep`: a Fig. 6-style sweep with the scored plan search on.
//! No host GEMM runs; the host time is candidate build (lint and flow)
//! plus `mc-sim` dry runs.

use mc_blas::{
    analytic_time_s, build_plan, dry_run_time_s, enumerate_candidates, select_plan, BlasError,
    BlasHandle, GemmDesc, GemmOp, GemmPlan, DRY_RUN_TOP_K,
};
use mc_isa::specs::DieSpec;
use mc_sim::SimConfig;

use crate::check::{mix, HASH_START};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;

/// Square sizes swept for every `GemmOp::PAPER` routine (powers of two,
/// as on Fig. 6's axis).
pub const SWEEP_N: [usize; 8] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// One (routine, size) point with the search outcome found at set-up.
struct Case {
    desc: GemmDesc,
    kernel: String,
}

/// The sweep's points, in seeded order, and the last op's launches.
pub struct PlanSweep {
    cases: Vec<Case>,
    last: Vec<(String, f64)>,
    reference: u64,
}

/// The search's result as the benchmark replays it stage by stage.
struct Searched {
    plan: GemmPlan,
    searched_s: f64,
    static_s: f64,
}

fn fresh_handle() -> BlasHandle {
    let mut h = BlasHandle::new_mi250x_gcd();
    h.set_plan_search(true);
    h
}

/// `select_plan` replayed from its public stages so each is timed on
/// its own: enumerate, build (lint + flow + analytic score), and the
/// engine dry runs of the top `DRY_RUN_TOP_K` plus the static plan.
fn search(
    die: &DieSpec,
    cfg: &SimConfig,
    desc: &GemmDesc,
    tr: &mut Tracer,
) -> Result<Searched, BlasError> {
    let candidates = tr.span("plan.enumerate", |_| enumerate_candidates(desc));
    let enumerated = candidates.len();
    let (mut built, rejected) = tr.span("plan.build", |_| {
        let mut built = Vec::new();
        let mut rejected = 0usize;
        for (idx, strategy) in candidates.into_iter().enumerate() {
            match build_plan(die, desc, strategy) {
                Ok(plan) => {
                    let score = analytic_time_s(die, cfg, &plan);
                    built.push((idx, plan, score));
                }
                Err(BlasError::Lint(_) | BlasError::Flow(_)) => rejected += 1,
                Err(e) => return Err(e),
            }
        }
        Ok((built, rejected))
    })?;
    let static_pos = built
        .iter()
        .position(|(idx, _, _)| *idx == 0)
        .ok_or_else(|| BlasError::Launch("the static plan failed its lint".to_owned()))?;
    let static_entry = built.remove(static_pos);
    built.sort_by(|a, b| a.2.total_cmp(&b.2));
    built.truncate(DRY_RUN_TOP_K);
    built.push(static_entry);
    let times = tr.span("plan.dry_run", |_| {
        built
            .iter()
            .map(|(_, plan, _)| dry_run_time_s(die, cfg, plan))
            .collect::<Result<Vec<f64>, _>>()
    })?;
    tr.add("plan.searches", 1.0);
    tr.add("plan.candidates", enumerated as f64);
    tr.add("plan.dry_runs", built.len() as f64);
    tr.add("plan.rejected", rejected as f64);
    // Strict less-than keeps the better-ranked finalist on ties, as
    // `select_plan` does.
    let mut best = 0;
    for (i, t) in times.iter().enumerate() {
        if *t < times[best] {
            best = i;
        }
    }
    let static_s = *times.last().expect("the static plan is a finalist");
    Ok(Searched {
        searched_s: times[best],
        static_s,
        plan: built.swap_remove(best).1,
    })
}

impl PlanSweep {
    /// Every `GemmOp::PAPER` routine × [`SWEEP_N`], in an order drawn
    /// from the seed. Set-up runs `select_plan` on every point, checks
    /// that the search never loses to the static plan, keeps each
    /// winner, and runs one warm op.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut descs: Vec<GemmDesc> = GemmOp::PAPER
            .iter()
            .flat_map(|&op| SWEEP_N.iter().map(move |&n| GemmDesc::square(op, n)))
            .collect();
        Rng::new(seed, 1).shuffle(&mut descs);
        let h = fresh_handle();
        let (die, cfg) = (&h.gpu().spec().die, h.gpu().config());
        let mut cases = Vec::with_capacity(descs.len());
        for desc in descs {
            let out = select_plan(die, cfg, &desc).map_err(|e| e.to_string())?;
            if !(out.searched_time_s.is_finite() && out.searched_time_s <= out.static_time_s) {
                return Err(format!(
                    "{} n={}: searched {:e} s vs static {:e} s",
                    desc.op, desc.n, out.searched_time_s, out.static_time_s
                ));
            }
            cases.push(Case {
                desc,
                kernel: out.plan.kernel.name,
            });
        }
        let mut w = PlanSweep {
            cases,
            last: Vec::new(),
            reference: 0,
        };
        w.op()?;
        w.reference = w.output_hash();
        w.check()?;
        Ok(w)
    }
}

impl Workload for PlanSweep {
    fn op(&mut self) -> Result<(), String> {
        self.last.clear();
        for case in &self.cases {
            let perf = fresh_handle()
                .gemm_timed(&case.desc)
                .map_err(|e| e.to_string())?;
            self.last.push((perf.plan.kernel.name, perf.time_s));
        }
        Ok(())
    }

    fn traced_op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.last.clear();
        let (cases, last) = (&self.cases, &mut self.last);
        let (static_s, searched_s) = tr
            .span("op", |tr| -> Result<_, String> {
                let (mut static_s, mut searched_s) = (0.0, 0.0);
                for case in cases {
                    let mut h = fresh_handle();
                    let die = h.gpu().spec().die.clone();
                    let cfg = h.gpu().config().clone();
                    let s = tr
                        .span("plan.search", |tr| search(&die, &cfg, &case.desc, tr))
                        .map_err(|e| e.to_string())?;
                    if !(s.searched_s.is_finite() && s.searched_s <= s.static_s) {
                        return Err(format!("search lost to the static plan: {}", case.kernel));
                    }
                    let d = h.die();
                    let pkg = tr
                        .span("sim.launch", |_| h.gpu_mut().launch(d, &s.plan.kernel))
                        .map_err(|e| e.to_string())?;
                    static_s += s.static_s;
                    searched_s += s.searched_s;
                    last.push((s.plan.kernel.name, pkg.time_s));
                }
                Ok((static_s, searched_s))
            })?;
        tr.add("sim.static_s", static_s);
        tr.add("sim.searched_s", searched_s);
        tr.add("sim.simulated_s", self.last.iter().map(|l| l.1).sum());
        Ok(())
    }

    fn check(&self) -> Result<(), String> {
        if self.last.len() != self.cases.len() {
            return Err("sweep incomplete".to_owned());
        }
        for (case, (kernel, t)) in self.cases.iter().zip(&self.last) {
            if *kernel != case.kernel || !t.is_finite() || *t <= 0.0 {
                return Err(format!(
                    "{} n={}: ran {kernel} for {t:e} s, set-up search chose {}",
                    case.desc.op, case.desc.n, case.kernel
                ));
            }
        }
        if self.output_hash() != self.reference {
            return Err("simulated times differ from the set-up fingerprint".to_owned());
        }
        Ok(())
    }

    fn corrupt(&mut self) {
        if let Some(l) = self.last.first_mut() {
            l.1 = f64::from_bits(l.1.to_bits() ^ 1);
        }
    }

    fn output_hash(&self) -> u64 {
        self.last.iter().fold(HASH_START, |h, (kernel, t)| {
            let h = kernel.bytes().fold(h, |h, b| mix(h, u64::from(b)));
            mix(h, t.to_bits())
        })
    }
}
