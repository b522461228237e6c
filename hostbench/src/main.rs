//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance line, then the result line (the last line of
//! standard output). A human-readable table goes to standard error.

use std::process::ExitCode;

use hostbench::run::{run, Config};
use hostbench::{report, Kind};

const USAGE: &str = "usage: hostbench --workload <gemm-large|gemm-batched|solve|plan-sweep> \
                     --seed <u64> --seconds <1..=60> --trace <0|1>";

fn parse_args() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be within 1..=60".to_owned());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Config {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads these at handle and dispatch construction; the
    // benchmark fixes its own configuration instead of inheriting one.
    for var in [
        mc_blas::PLAN_SEARCH_ENV,
        mc_blas::PLAN_DB_ENV,
        mc_compute::SIMD_ENV,
        mc_compute::CROSSOVER_ENV,
        "RAYON_NUM_THREADS",
    ] {
        std::env::remove_var(var);
    }

    let outcome = match run(config) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = &outcome.first_error {
        eprintln!("hostbench: first failed op: {e}");
    }

    let mut trace_file = None;
    let metrics = if config.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", config.kind.name(), config.seed));
        match outcome.tracer.write_jsonl(&path) {
            Ok(()) => trace_file = Some(path.display().to_string()),
            Err(e) => eprintln!("hostbench: could not write {}: {e}", path.display()),
        }
        report::per_layer(&outcome)
    } else {
        report::end_to_end(&outcome)
    };
    for x in &metrics {
        eprintln!("{:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    let attempted = outcome.log.attempted() + outcome.traced.attempted();
    let failed = outcome.log.failed() + outcome.traced.failed();
    println!("{}", report::provenance(&outcome, trace_file.as_deref()));
    println!("{}", report::result(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
