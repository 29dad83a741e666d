//! `ledger` — the repository's benchmark: four served workloads at 100k
//! entities, end-to-end metrics measured over loopback with tracing off,
//! per-layer metrics from a separate traced run, output checks, one
//! command. README.md in this directory is the manual.
//!
//! ```text
//! cargo run --release -p vkg-bench --bin ledger -- --all [--trace] [--seed 1] [--seconds 30]
//! ```
//!
//! Only `vkg::*` and `vkg_server::*` public APIs are used — nothing from
//! the `vkg_bench` harness crate — so edits there cannot move a number.

mod checks;
mod gen;
mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use gen::Tables;
use report::Report;
use serve::{Env, Inputs};
use spec::{Better, Scale, Workload, END_TO_END, TRACED_SERVED_SHARE};

struct Args {
    all: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat: usize,
}

const USAGE: &str = "usage: ledger (--all | --workload NAME) [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--repeat N]
  --all            every workload, each in a process of its own
  --workload NAME  one of topk_cold, topk_hot, agg_mix, write_mix; ends with the driver's JSON line
  --seed N         seed of what is asked: operation streams, hot set, fresh facts,
                   parity sample, retry tokens (default 1); the data set is the same at every seed
  --seconds S      length of the measured phase (default 30; 3 with --smoke)
  --trace [0|1]    also (with --all) or instead (with --workload) make the traced run: per-layer
                   metrics, recovery, aggregate error
  --smoke          10k entities, short phases, every check on
  --repeat N       with --all: run the set N times and print each metric's gap against its bound";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        all: false,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // The driver passes `--trace 0|1`; a bare `--trace` is on.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --all and --workload".to_owned());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".to_owned());
    }
    Ok(args)
}

/// One workload, in this process. Untraced: set-up several times over,
/// warm phase, measured phase of `seconds`, output checks — the
/// end-to-end metrics. Traced: one set-up and a served phase a third as
/// long (enough for the server's own spans and counters), the slow
/// single-workload measurements (recovery, aggregate error), the
/// isolated layers and the in-process traced run — the per-layer metrics.
fn run_workload(
    workload: Workload,
    scale: &Scale,
    env: &Env,
    seconds: f64,
    traced: bool,
) -> Report {
    let mut report = Report::new(workload);
    let inputs = Inputs::generate(scale);
    report.info("stage.datagen_s", inputs.datagen_s, "s");
    let tables = Tables::new(workload, &inputs.graph, env.seed);
    let (served_seconds, builds) = if traced {
        (seconds * TRACED_SERVED_SHARE, 1)
    } else {
        (seconds, scale.setup_builds)
    };
    match serve::run(
        &mut report,
        &inputs,
        &tables,
        scale,
        env,
        served_seconds,
        builds,
    ) {
        Ok(outcome) => {
            let started = std::time::Instant::now();
            checks::run(&mut report, outcome, &inputs, &tables, scale, env, traced);
            report.info("stage.checks_s", started.elapsed().as_secs_f64(), "s");
        }
        Err(e) => report.fail(e),
    }
    if traced {
        let started = std::time::Instant::now();
        if let Err(e) = layers::run(&mut report, &inputs, scale, env) {
            report.fail(e);
        }
        let (warm, ops) = (scale.trace_warm_ops(workload), scale.trace_ops(workload));
        if let Err(e) = trace::run(&mut report, &inputs, &tables, env, warm, ops) {
            report.fail(e);
        }
        report.info("stage.trace_s", started.elapsed().as_secs_f64(), "s");
    } else {
        report.require_gated();
    }
    report
}

/// Metric values parsed back from a child's `workload metric value unit`
/// lines.
type Values = BTreeMap<(String, String), Vec<f64>>;

/// Runs one workload in a child process (so peak memory and allocator
/// state are its own), echoes its metric lines and collects them.
fn run_child(
    args: &Args,
    workload: Workload,
    seconds: f64,
    traced: bool,
    values: &mut Values,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        // The last line is the driver's JSON; `--all` prints metric lines.
        if line.starts_with('{') {
            continue;
        }
        println!("{line}");
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [w, metric, value, _unit] = fields[..] {
            if let Ok(v) = value.parse::<f64>() {
                values
                    .entry((w.to_owned(), metric.to_owned()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(output.status.success())
}

/// Per workload × end-to-end metric: how far the repeats sit apart, as a
/// share of their median, against the metric's bound.
fn print_gaps(values: &Values) -> bool {
    let mut within = true;
    for w in Workload::ALL {
        for m in END_TO_END {
            let Some(runs) = values.get(&(w.name().to_owned(), m.name.to_owned())) else {
                continue;
            };
            let gap = stats::relative_gap(runs);
            let ok = gap <= m.bound;
            within &= ok;
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            println!(
                "{} {} median {:.6} {} ({better} is better) gap {gap:.4} bound {:.2} runs {} {}",
                w.name(),
                m.name,
                stats::median(runs),
                m.unit,
                m.bound,
                runs.len(),
                if ok { "ok" } else { "OVER" }
            );
        }
    }
    within
}

fn run_all(args: &Args, seconds: f64) -> Result<bool, String> {
    let mut values = Values::new();
    let mut ok = true;
    for _ in 0..args.repeat {
        for workload in Workload::ALL {
            ok &= run_child(args, workload, seconds, false, &mut values)?;
            if args.trace {
                ok &= run_child(args, workload, seconds, true, &mut values)?;
            }
        }
    }
    if args.repeat > 1 {
        ok &= print_gaps(&values);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds.unwrap_or(if args.smoke { 3.0 } else { 30.0 });
    let ok = match args.workload {
        None => match run_all(&args, seconds) {
            Ok(ok) => ok,
            Err(e) => {
                eprintln!("ledger: {e}");
                false
            }
        },
        Some(workload) => {
            let scale = if args.smoke {
                Scale::smoke()
            } else {
                Scale::full()
            };
            let report = run_workload(workload, &scale, &Env::new(args.seed), seconds, args.trace);
            print!("{}", report.text(args.trace));
            println!("{}", report.json(args.trace));
            report.correct()
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_manual_command_lines_parse() {
        let a = parse("--workload write_mix --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload, Some(Workload::WriteMix));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(parse("--workload agg_mix --trace 1").unwrap().trace);
        let a = parse("--all --trace --smoke --repeat 2").unwrap();
        assert!(a.all && a.trace && a.smoke && a.repeat == 2);
        assert!(parse("--all --workload topk_hot").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--all --seconds 0").is_err());
        assert!(parse("").is_err());
    }

    /// The whole pipeline at a few hundred entities: the untraced run with
    /// its checks, then the traced run with recovery, aggregate error,
    /// the isolated layers and the chain-against-server comparison.
    #[test]
    fn every_workload_runs_clean_at_tiny_scale() {
        let scale = Scale::tiny();
        for workload in Workload::ALL {
            let mut env = Env::new(11);
            env.scratch =
                std::env::temp_dir().join(format!("vkg-ledger-test-{}", std::process::id()));

            let report = run_workload(workload, &scale, &env, 0.25, false);
            let text = report.text(false);
            assert!(report.correct(), "{text}");
            assert!(report.attempted > 0 && report.failed == 0, "{text}");
            assert!(report.json(false).starts_with("{\"correct\": true"));

            let report = run_workload(workload, &scale, &env, 0.25, true);
            let text = report.text(true);
            assert!(report.correct(), "{text}");
            for (name, only) in [
                ("recover_ms_per_write", Workload::WriteMix),
                ("agg_rel_err", Workload::AggMix),
            ] {
                assert_eq!(report.get(name).is_some(), workload == only, "{text}");
            }
            let coverage = report.get("trace.coverage").unwrap();
            assert!((0.5..=1.01).contains(&coverage), "coverage {coverage}");
            assert!(report.json(true).starts_with("{\"correct\": true"));
            let _ = std::fs::remove_dir_all(&env.scratch);
        }
    }
}
