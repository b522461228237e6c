//! Golden equivalence pin for the two static verifiers.
//!
//! `mc-lint` and `mc-flow` sit on the plan search's hot path, so their
//! internals get optimised; their *output* must not move. This test
//! renders the `LintReport` and `FlowReport` of a fixed corpus and
//! FNV-1a hashes the text, committed as a constant:
//!
//! * every `enumerate_candidates` strategy for each paper routine at
//!   n ∈ {16, 128, 4096} on the MI250X die (rejected candidates hash the
//!   report they were rejected with);
//! * each of those kernels with one `Waitcnt`, one `Barrier` or one
//!   `SNop` deleted (the first, middle and last of each kind);
//! * the hand-built broken kernels of the lint and flow corpora, on the
//!   MI100, MI250X and A100 dies.
//!
//! Any change to a diagnostic's rule, severity, span, message, help or
//! order changes the hash. A deliberate change to the verifiers' output
//! re-pins the constant in the same commit and says why.

use amd_matrix_cores::blas::{
    build_plan, enumerate_candidates, select_strategy, BlasError, GemmDesc, GemmOp, Strategy,
};
use amd_matrix_cores::flow::analyze_kernel;
use amd_matrix_cores::isa::specs::{self, DieSpec};
use amd_matrix_cores::isa::{
    ampere_catalog, cdna2_catalog, Buffering, KernelDesc, LdsAccess, MatrixInstruction, MfmaShape,
    SlotOp, ValuOp, ValuOpKind, WaitSpec, WaveProgram,
};
use amd_matrix_cores::lint::{lint_kernel, required_snop_gap};
use amd_matrix_cores::types::DType;

/// FNV-1a over a byte stream, folded across calls.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes both verifiers' rendered reports for one kernel on one die;
/// returns how many findings they hold.
fn verify_into(h: &mut Fnv, die: &DieSpec, k: &KernelDesc) -> usize {
    let lint = lint_kernel(die, k);
    let flow = analyze_kernel(die, k);
    h.write(lint.render().as_bytes());
    h.write(flow.render().as_bytes());
    lint.diagnostics.len() + flow.diagnostics.len()
}

fn mixed() -> MatrixInstruction {
    *cdna2_catalog()
        .find(DType::F32, DType::F16, 16, 16, 16)
        .unwrap()
}

fn mfma() -> SlotOp {
    SlotOp::Mfma(mixed())
}

fn fma() -> SlotOp {
    SlotOp::Valu(ValuOp::new(ValuOpKind::Fma, DType::F32))
}

/// The lint corpus's clean single-wave MFMA loop.
fn lint_baseline() -> KernelDesc {
    let i = mixed();
    let gap = u8::try_from(required_snop_gap(&i)).unwrap();
    KernelDesc {
        arch_vgprs: i.a_vgprs_per_lane() + i.b_vgprs_per_lane() + 16,
        acc_vgprs: i.cd_agprs_per_lane(),
        ..KernelDesc::new(
            "corpus_baseline",
            WaveProgram {
                prologue: vec![SlotOp::global_load(16), SlotOp::Waitcnt(WaitSpec::vm(0))],
                body: vec![SlotOp::Mfma(i)],
                body_iterations: 64,
                epilogue: vec![SlotOp::SNop(gap), SlotOp::global_store(16)],
            },
        )
    }
}

/// The flow corpus's cooperative multi-wave shell.
fn flow_shell(program: WaveProgram) -> KernelDesc {
    KernelDesc {
        waves_per_workgroup: 4,
        workgroups: 8,
        lds_bytes_per_workgroup: 16 * 1024,
        arch_vgprs: 64,
        acc_vgprs: 16,
        ..KernelDesc::new("flow-corpus", program)
    }
}

/// The hand-built broken kernels of the lint and flow corpora.
fn mutated_corpus() -> Vec<KernelDesc> {
    let mut out = vec![
        lint_baseline(),
        KernelDesc::new("no_program", WaveProgram::default()),
    ];
    let with = |f: &dyn Fn(&mut KernelDesc)| {
        let mut k = lint_baseline();
        f(&mut k);
        k
    };
    let ampere_f64 = *ampere_catalog()
        .find(DType::F64, DType::F64, 8, 8, 4)
        .unwrap();
    let cdna2_f64 = *cdna2_catalog()
        .find(DType::F64, DType::F64, 16, 16, 4)
        .unwrap();
    let mut bogus = mixed();
    bogus.shape = MfmaShape::new(13, 13, 13);
    let mut tampered = mixed();
    tampered.latency_cycles = 4;
    out.extend([
        with(&|k| k.workgroups = 0),
        with(&|k| k.program.body = vec![SlotOp::Mfma(ampere_f64)]),
        with(&|k| k.program.body = vec![SlotOp::Mfma(bogus)]),
        with(&|k| k.program.body = vec![SlotOp::Mfma(tampered); 5]),
        with(&|k| k.program.body = vec![SlotOp::Mfma(tampered), mfma(), SlotOp::Mfma(bogus)]),
        with(&|k| k.program.epilogue = vec![SlotOp::global_store(16)]),
        with(&|k| k.program.body = vec![fma(), mfma()]),
        with(&|k| k.program.prologue.insert(0, SlotOp::SNop(4))),
        with(&|k| {
            k.program.body = vec![mfma(), SlotOp::Mfma(cdna2_f64)];
            k.arch_vgprs = 32;
            k.acc_vgprs = 8;
        }),
        with(&|k| k.arch_vgprs = 1024),
        with(&|k| k.acc_vgprs = 0),
        with(&|k| k.lds_bytes_per_workgroup = 1 << 20),
        with(&|k| {
            k.program.prologue.extend([
                SlotOp::lds_write(8, LdsAccess::fixed(0)),
                SlotOp::lds_read(8, LdsAccess::fixed(0)),
            ]);
        }),
        with(&|k| k.arch_vgprs = 500),
        with(&|k| k.waves_per_workgroup = 64),
    ]);
    for arch_vgprs in [16u32, 64, 128, 256, 500] {
        for waves_per_workgroup in [1u32, 4, 32, 64] {
            out.push(with(&|k| {
                k.arch_vgprs = arch_vgprs.max(k.arch_vgprs);
                k.waves_per_workgroup = waves_per_workgroup;
            }));
        }
    }

    let body = |ops: Vec<SlotOp>, prologue: Vec<SlotOp>| {
        flow_shell(WaveProgram {
            prologue,
            body: ops,
            body_iterations: 64,
            epilogue: vec![SlotOp::global_store(16)],
        })
    };
    let fixed = LdsAccess::fixed(0);
    let staged_prologue = vec![
        SlotOp::global_load(16),
        SlotOp::Waitcnt(WaitSpec::vm(0)),
        SlotOp::lds_write(16, fixed),
        SlotOp::Waitcnt(WaitSpec::lgkm(0)),
        SlotOp::Barrier,
    ];
    out.extend([
        // Missing barrier: RAW/WAW race.
        body(
            vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::lds_read(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
            ],
            vec![],
        ),
        // Stale stage reuse: WAR race.
        body(
            vec![
                SlotOp::global_load(16),
                SlotOp::lds_read(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::rotating(0, 0, 2)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
            ],
            staged_prologue.clone(),
        ),
        // Insufficient waitcnt before the lds write.
        body(
            vec![
                SlotOp::global_load(16),
                SlotOp::lds_write(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
                SlotOp::lds_read(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ],
            vec![],
        ),
        // Barrier with lgkm traffic outstanding.
        body(
            vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, fixed),
                SlotOp::Barrier,
                SlotOp::lds_read(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ],
            vec![],
        ),
        // Dead store to an unread stage.
        body(
            vec![
                SlotOp::global_load(16),
                SlotOp::Waitcnt(WaitSpec::vm(0)),
                SlotOp::lds_write(16, LdsAccess::fixed(1)),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                SlotOp::Barrier,
                SlotOp::lds_read(16, fixed),
                SlotOp::Waitcnt(WaitSpec::lgkm(0)),
                mfma(),
                SlotOp::Scalar,
                SlotOp::Barrier,
            ],
            vec![],
        ),
        // Unretired load feeding a VALU.
        body(vec![SlotOp::global_load(16), fma()], vec![]),
        // Hoarded loads overflow the register file.
        flow_shell(WaveProgram {
            prologue: vec![SlotOp::global_load(64); 40],
            body: vec![SlotOp::Scalar],
            body_iterations: 1,
            epilogue: vec![],
        }),
        // Streaming footprint above the declared budget.
        KernelDesc {
            arch_vgprs: 16,
            ..body(
                vec![
                    SlotOp::global_load(64),
                    SlotOp::Waitcnt(WaitSpec::vm(0)),
                    fma(),
                ],
                vec![],
            )
        },
    ]);

    // The flow corpus's barrier-deletion mutants of a double-buffered plan.
    let d = specs::mi250x().die;
    let desc = GemmDesc::square(GemmOp::Hhs, 1024);
    if let Strategy::MatrixCore {
        instr,
        macro_tile,
        wave_tile,
        k_step,
        ..
    } = select_strategy(&desc)
    {
        let strategy = Strategy::MatrixCore {
            instr,
            macro_tile,
            wave_tile,
            k_step,
            buffering: Buffering::Double,
        };
        let k = build_plan(&d, &desc, strategy).unwrap().kernel;
        out.push(k.clone());
        for (sec, idx) in slots_of(&k, |op| matches!(op, SlotOp::Barrier)) {
            out.push(delete_slot(&k, sec, idx));
        }
    }
    out
}

/// `(section, slot)` of every op matching `pred`, in program order.
fn slots_of(k: &KernelDesc, pred: impl Fn(&SlotOp) -> bool) -> Vec<(usize, usize)> {
    let p = &k.program;
    [&p.prologue, &p.body, &p.epilogue]
        .into_iter()
        .enumerate()
        .flat_map(|(sec, ops)| {
            ops.iter()
                .enumerate()
                .filter(|(_, op)| pred(op))
                .map(move |(i, _)| (sec, i))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn delete_slot(k: &KernelDesc, sec: usize, idx: usize) -> KernelDesc {
    let mut k = k.clone();
    let p = &mut k.program;
    [&mut p.prologue, &mut p.body, &mut p.epilogue][sec].remove(idx);
    k
}

/// The FNV-1a hash of the corpus's rendered reports, computed on the
/// verifiers as they stood before their linear-time rewrite.
const GOLDEN: u64 = 0x19ab_a73a_e588_0c6c;

#[test]
fn verifier_reports_are_pinned() {
    let d = specs::mi250x().die;
    let mut h = Fnv::new();
    let mut kernels = 0usize;
    let mut findings = 0usize;
    for op in GemmOp::PAPER {
        for n in [16usize, 128, 4096] {
            let desc = GemmDesc::square(op, n);
            for strategy in enumerate_candidates(&desc) {
                match build_plan(&d, &desc, strategy) {
                    Ok(plan) => {
                        let k = plan.kernel;
                        findings += verify_into(&mut h, &d, &k);
                        kernels += 1;
                        let kinds: [fn(&SlotOp) -> bool; 3] = [
                            |op| matches!(op, SlotOp::Waitcnt(_)),
                            |op| matches!(op, SlotOp::Barrier),
                            |op| matches!(op, SlotOp::SNop(_)),
                        ];
                        for kind in kinds {
                            let hits = slots_of(&k, kind);
                            let mut picks = vec![0, hits.len() / 2, hits.len().saturating_sub(1)];
                            picks.dedup();
                            for &(sec, idx) in picks.iter().filter_map(|&i| hits.get(i)) {
                                findings += verify_into(&mut h, &d, &delete_slot(&k, sec, idx));
                                kernels += 1;
                            }
                        }
                    }
                    Err(BlasError::Lint(r)) => h.write(r.render().as_bytes()),
                    Err(BlasError::Flow(r)) => h.write(r.render().as_bytes()),
                    Err(e) => panic!("{op} N={n}: {e}"),
                }
            }
        }
    }
    for die in [specs::mi100().die, d, specs::a100().die] {
        for k in mutated_corpus() {
            findings += verify_into(&mut h, &die, &k);
            kernels += 1;
        }
    }
    assert!(kernels > 1500, "corpus shrank to {kernels} kernels");
    assert!(
        findings > 10_000,
        "corpus exercises only {findings} findings"
    );
    assert_eq!(
        h.0, GOLDEN,
        "verifier output changed over {kernels} kernels: {:#018x}",
        h.0
    );
}
