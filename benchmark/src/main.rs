//! The benchmark of this repository: four ADEPT2 workloads against the
//! engine's public API, fourteen end-to-end metrics, and a traced pass that
//! attributes time to the layers by replaying the workload's own inputs
//! through each layer's public functions. See README.md.
//!
//! ```text
//! adept-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! is the form `../BENCHMARK.json` runs: one workload, one pass, and a JSON
//! object as the last line of standard output. Without `--workload` it runs
//! the whole suite, both passes, and prints `workload metric value unit`.

mod calib;
mod clock;
mod layers;
mod metrics;
mod plan;
mod stats;
mod sut;
mod trace;
mod workloads;

use metrics::{end_to_end, END_TO_END};
use plan::{Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Mode, Rep};

/// Repetitions a run makes at least, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    quick: bool,
    check_repeat: Option<usize>,
    dir: PathBuf,
}

const USAGE: &str =
    "usage: adept-benchmark [--workload lifecycle|change_heavy|interactive_mixed|recovery] \
[--seed <u64>] [--seconds <s>] [--trace 0|1] [--quick] [--check-repeat [<k>]] [--dir <path>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: None,
        quick: false,
        check_repeat: None,
        dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("no workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--check-repeat" => {
                let k = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(k) => {
                        it.next();
                        k
                    }
                    None => 2,
                };
                if k < 2 {
                    return Err("--check-repeat needs at least 2 sets".into());
                }
                args.check_repeat = Some(k);
            }
            "--dir" => args.dir = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// The per-run scratch directory: journals and snapshots of every repetition
/// live under it, and it is removed when the run ends, failed checks included.
struct RunDir(PathBuf);

impl RunDir {
    fn create(base: &Path) -> std::io::Result<Self> {
        let dir = base.join(format!("run-{}", std::process::id()));
        // A stale directory of a killed run with the same pid is not ours to keep.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One pass over one workload: its repetitions and, when traced, the layers.
struct Pass {
    reps: Vec<Rep>,
    layers: Vec<layers::LayerValue>,
}

/// Runs repetitions of `workload` for about `seconds`, a fresh engine each.
fn run_pass(workload: Workload, args: &Args, traced: bool, run_dir: &RunDir) -> Pass {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut n = 0;
    let mut rep_dir = || {
        n += 1;
        run_dir.0.join(format!("rep-{n}"))
    };
    let mode = Mode {
        quick: args.quick,
        durable: true,
        capture: false,
        rss: false,
    };
    let off = trace::Tracer::new(false);
    let mut host = calib::Host::new();
    let mut reps = Vec::new();
    // The traced pass spends two fifths of the run untraced (the baseline of
    // the tracing overhead), two fifths traced, the rest on the replay.
    let untraced_until = if traced { budget * 2 / 5 } else { budget };
    let mut longest = Duration::ZERO;
    loop {
        let t = Instant::now();
        let dir = rep_dir();
        let first = reps.is_empty();
        let mode = Mode { rss: first, ..mode };
        let (_, rep) = workloads::run(workload, args.seed, &dir, &off, &mut host, mode);
        let _ = std::fs::remove_dir_all(&dir);
        reps.push(rep);
        longest = longest.max(t.elapsed());
        let enough = if args.quick { 1 } else { MIN_REPS };
        // Stop when the next repetition would overrun the budget.
        if reps.len() >= enough && (args.quick || started.elapsed() + longest > untraced_until) {
            break;
        }
    }
    let mut layer_values = Vec::new();
    if traced {
        layer_values = layers::traced_pass(
            workload,
            args,
            &reps,
            &mut host,
            &mut rep_dir,
            started,
            budget,
        );
    }
    Pass {
        reps,
        layers: layer_values,
    }
}

fn host_facts(args: &Args) -> Vec<(&'static str, String)> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("load_avg", layers::load_avg().to_string()),
        ("rustc", rustc),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("profile", if args.quick { "quick" } else { "full" }.into()),
        (
            "flush_policy",
            format!(
                "{:?}, {} segments, one sync per timed section",
                sut::FLUSH_POLICY,
                sut::WAL_SEGMENTS
            ),
        ),
    ]
}

fn print_pass(workload: Workload, pass: &Pass, traced: bool) -> (u64, u64) {
    let w = workload.name();
    let attempted: u64 = pass.reps.iter().map(|r| r.tally.attempted).sum();
    let failed: u64 = pass.reps.iter().map(|r| r.tally.failed).sum();
    println!("{w} harness.repetitions {} count", pass.reps.len());
    let speeds: Vec<f64> = pass.reps.iter().map(|r| r.host_speed).collect();
    println!(
        "{w} harness.host_speed {:.3} ratio  # median over the main sections, 1 is nominal; slowest {:.3}",
        stats::median(&speeds),
        speeds.iter().copied().fold(f64::INFINITY, f64::min)
    );
    println!(
        "{w} harness.command_stream_hash {:016x} hash",
        pass.reps[0].stream.0
    );
    for r in &pass.reps {
        for note in &r.tally.notes {
            println!("{w} FAILED {note}");
        }
    }
    if traced {
        for v in &pass.layers {
            println!("{w} {} {} {}", v.name, v.value, v.unit);
        }
    } else {
        for v in end_to_end(&pass.reps) {
            if v.value.is_nan() {
                println!("{w} {} n/a {}  # {}", v.metric.name, v.metric.unit, v.note);
                continue;
            }
            println!(
                "{w} {} {} {}  # {}; least-disturbed repetition {:.6}; {} is better, bound {}",
                v.metric.name,
                v.value,
                v.metric.unit,
                v.note,
                v.best,
                v.metric.better.as_str(),
                v.metric.bound
            );
        }
    }
    (attempted, failed)
}

/// The result line of the driver's form.
fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    )
}

/// `--check-repeat k`: k sets of the untraced suite; every end-to-end
/// metric's spread between the sets against its bound — from four sets on
/// the quartile distance over the median, as the driver computes it, below
/// that the whole range over the median. Returns whether all held.
fn check_repeat(k: usize, args: &Args, run_dir: &RunDir) -> bool {
    let mut sets: Vec<Vec<Vec<metrics::Value>>> = Vec::new();
    let mut clean = true;
    for set in 0..k {
        let mut per_workload = Vec::new();
        for w in WORKLOADS {
            let pass = run_pass(w, args, false, run_dir);
            let (_, failed) = print_pass(w, &pass, false);
            clean &= failed == 0;
            per_workload.push(end_to_end(&pass.reps));
        }
        println!("check-repeat set {} of {k} done", set + 1);
        sets.push(per_workload);
    }
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, metric) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = sets.iter().map(|s| s[wi][mi].value).collect();
            if values.iter().any(|v| v.is_nan()) {
                println!(
                    "check-repeat {} {} not measurable in a suite process",
                    w.name(),
                    metric.name
                );
                continue;
            }
            let spread = if values.len() >= 4 {
                stats::quartile_spread(&values)
            } else {
                let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                (hi - lo) / stats::median(&values)
            };
            let held = spread <= metric.bound;
            println!(
                "check-repeat {} {} spread {:.4} bound {} {}",
                w.name(),
                metric.name,
                spread,
                metric.bound,
                if held { "ok" } else { "VIOLATED" }
            );
            clean &= held;
        }
    }
    clean
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = match RunDir::create(&args.dir) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "cannot create a run directory under {}: {e}",
                args.dir.display()
            );
            return ExitCode::from(2);
        }
    };
    for (fact, value) in host_facts(&args) {
        println!("host {fact} {value}");
    }
    if let Some(k) = args.check_repeat {
        return if check_repeat(k, &args, &run_dir) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match args.workload {
        // The driver's form: one workload, one pass, the JSON line last.
        Some(w) => {
            let traced = args.trace.unwrap_or(false);
            let pass = run_pass(w, &args, traced, &run_dir);
            let (attempted, failed) = print_pass(w, &pass, traced);
            let metrics: Vec<(String, f64, &str)> = if traced {
                pass.layers
                    .iter()
                    .map(|v| (v.name.to_string(), v.value, v.unit))
                    .collect()
            } else {
                end_to_end(&pass.reps)
                    .into_iter()
                    .map(|v| (v.metric.name.to_string(), v.value, v.metric.unit))
                    .collect()
            };
            drop(run_dir);
            println!("{}", result_json(attempted, failed, &metrics));
            // A wrong output is reported in the result, not by the exit code.
            ExitCode::SUCCESS
        }
        // The suite: every workload, untraced then traced.
        None => {
            let mut failed_total = 0;
            for w in WORKLOADS {
                for traced in [false, true] {
                    if args.trace.is_some_and(|only| only != traced) {
                        continue;
                    }
                    let pass = run_pass(w, &args, traced, &run_dir);
                    failed_total += print_pass(w, &pass, traced).1;
                }
            }
            if failed_total == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("{failed_total} calls or checks failed");
                ExitCode::FAILURE
            }
        }
    }
}
