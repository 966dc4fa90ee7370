//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one `name value unit` line
//! each, then a JSON result object as the last line of standard output.
//! Exits 1 when an answer is wrong, a request is lost or a traced run
//! diverges from its untraced twin; 2 on a usage error.
//!
//! `--workload all` runs every workload, each in its own process.
//! `--smoke` shrinks every input to test size. `--reference <file>`
//! replaces the committed reference answers; `--write-reference <file>`
//! regenerates them.

use emca_perfbench::bench::{self, Options};
use emca_perfbench::inputs::{tpch_mix, ServeInputs, WorkloadKind, DATA_SEED};
use emca_perfbench::reference::Reference;
use emca_perfbench::report::{END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use volcano_db::tpch::{QuerySpec, TpchData, TpchScale};

const USAGE: &str = "usage: perfbench --workload <sim_mixed|sim_churn|threads_serve|all> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--reference <file>] | --write-reference <file>";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    reference: PathBuf,
    write_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        reference: Path::new(env!("CARGO_MANIFEST_DIR")).join("reference.txt"),
        write_reference: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => args.smoke = true,
            "--reference" => args.reference = PathBuf::from(value()?),
            "--write-reference" => args.write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && args.write_reference.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_reference {
        return write_reference(path);
    }
    let name = args.workload.clone().unwrap_or_default();
    if name == "all" {
        return run_all(&args);
    }
    let Some(workload) = WorkloadKind::parse(&name) else {
        eprintln!("perfbench: unknown workload {name:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    let reference = match Reference::load(&args.reference) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        reference,
    };
    let report = bench::run(&opts);
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let (lines, json) = report.render(catalogue);
    for p in &report.problems {
        eprintln!("perfbench: {}: {p}", workload.name());
    }
    for l in &lines {
        if l.contains(" absent ") {
            eprintln!(
                "perfbench: {}: {l} (could not be measured)",
                workload.name()
            );
        }
        println!("{} {l}", workload.name());
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in its own process (so each reports its own
/// peak RSS) and exits non-zero if any of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WorkloadKind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--reference")
            .arg(&args.reference);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Each query of each workload's mix, run alone on the simulator at the
/// workload's scale (full and smoke), digested into `path`.
fn write_reference(path: &Path) -> ExitCode {
    let serve_mix = ServeInputs::mix();
    let q6 = [QuerySpec::Q6 { variant: 0 }];
    let mut smoke_mix = tpch_mix();
    smoke_mix.extend(q6.iter().copied());
    let sets: Vec<(f64, Vec<QuerySpec>)> = vec![
        (0.25, tpch_mix()),
        (0.05, serve_mix),
        (TpchScale::test_tiny().sf, smoke_mix),
    ];
    let mut reference = Reference::default();
    for (sf, specs) in sets {
        let data = TpchData::generate(TpchScale {
            sf,
            seed: DATA_SEED,
        });
        for (spec, d) in bench::sim_answers(&data, &specs) {
            match d {
                Some(d) => reference.insert(sf, &spec, d),
                None => {
                    eprintln!("perfbench: {spec:?} at sf {sf} did not complete");
                    return ExitCode::from(1);
                }
            }
        }
    }
    match std::fs::write(path, reference.render()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}
