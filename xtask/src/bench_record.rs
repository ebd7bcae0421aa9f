//! `cargo xtask bench-record --pr <n>`: one point of the checked-in
//! benchmark trajectory.
//!
//! Runs `BENCHMARK.json`'s command once per workload (`--workload <w>
//! --seed <s> --seconds <run_seconds> --trace 0`, the form the PR gate
//! runs) and records, per workload, the end-to-end medians of the last
//! stdout line in `BENCH_<n>.json` at the repo root, together with the
//! commit, `nproc`, seed and run length. A file holds one entry per
//! `--label` (default `change`); `--checkout <dir>` measures another
//! checkout — the parent commit's — into the same file, so a PR checks in
//! its before and its after side by side:
//!
//! ```text
//! cargo xtask bench-record --pr 16 --label parent --checkout /root/scratch/parent
//! cargo xtask bench-record --pr 16
//! ```
//!
//! One run per workload is a record, not a verdict: the gate's paired
//! runs decide whether a metric moved.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    pr: u32,
    label: String,
    checkout: Option<PathBuf>,
    seed: u64,
}

const USAGE: &str =
    "usage: cargo xtask bench-record --pr <n> [--label <name>] [--checkout <dir>] [--seed <n>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut pr = None;
    let mut args = Args {
        pr: 0,
        label: "change".into(),
        checkout: None,
        seed: 1,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--pr" => pr = Some(value()?.parse().map_err(|e| format!("--pr: {e}"))?),
            "--label" => args.label = value()?,
            "--checkout" => args.checkout = Some(PathBuf::from(value()?)),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.pr = pr.ok_or("--pr is required")?;
    Ok(args)
}

pub fn run(root: &Path, args: impl Iterator<Item = String>) -> ExitCode {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match record(root, &args) {
        Ok(path) => {
            println!("xtask bench-record: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask bench-record: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn strings(v: &Value, what: &str) -> Result<Vec<String>, String> {
    let Value::Seq(items) = v else {
        return Err(format!("BENCHMARK.json: {what} is not an array"));
    };
    items
        .iter()
        .map(|item| match item {
            Value::Str(s) => Ok(s.clone()),
            Value::Map(_) => match item.get("name") {
                Some(Value::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: a {what} entry has no name")),
            },
            _ => Err(format!("BENCHMARK.json: unexpected {what} entry")),
        })
        .collect()
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.stderr(Stdio::null()).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `HEAD`'s short hash, marked when the work tree differs from it.
fn commit_of(checkout: &Path) -> String {
    let git = |args: &[&str]| stdout_of(Command::new("git").arg("-C").arg(checkout).args(args));
    let head = git(&["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "unknown".into());
    match git(&["status", "--porcelain"]) {
        Some(changes) if !changes.is_empty() => format!("{head}+worktree"),
        _ => head,
    }
}

/// The `metrics` of a single-workload run's last stdout line, as
/// `name → value`, in the benchmark's order.
fn medians(stdout: &str, workload: &str) -> Result<Value, String> {
    let last = stdout.lines().last().unwrap_or_default();
    let bad = |what: &str| format!("{workload}: last stdout line {what}: {last:?}");
    let doc: Value = serde_json::from_str(last).map_err(|e| bad(&e.to_string()))?;
    if doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(bad("does not say \"correct\": true"));
    }
    let Some(Value::Map(metrics)) = doc.get("metrics") else {
        return Err(bad("has no \"metrics\" object"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .ok_or_else(|| bad("has a metric without a value"));
            value.map(|v| (name.clone(), v.clone()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Value::Map)
}

fn record(root: &Path, args: &Args) -> Result<PathBuf, String> {
    let checkout = args.checkout.as_deref().unwrap_or(root);
    let contract = read_json(&checkout.join("BENCHMARK.json"))?;
    let get = |k: &str| {
        contract
            .get(k)
            .ok_or_else(|| format!("BENCHMARK.json: no {k:?}"))
    };
    let command = strings(get("command")?, "command")?;
    let workloads = strings(get("workloads")?, "workload")?;
    let seconds = get("run_seconds")?.clone();
    let seconds_arg = match &seconds {
        Value::Int(s) => s.to_string(),
        Value::Float(s) => s.to_string(),
        other => return Err(format!("BENCHMARK.json: run_seconds is {other:?}")),
    };
    let (program, fixed) = command
        .split_first()
        .ok_or("BENCHMARK.json: empty command")?;

    let mut per_workload = Vec::new();
    for workload in &workloads {
        eprintln!("xtask bench-record: {} {workload} …", args.label);
        let out = Command::new(program)
            .args(fixed)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds_arg, "--trace", "0"])
            .current_dir(checkout)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{program}: {e}"))?;
        if !out.status.success() {
            return Err(format!("{workload}: benchmark exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        per_workload.push((workload.clone(), medians(&stdout, workload)?));
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as i64);
    let entry = Value::Map(vec![
        ("label".into(), Value::Str(args.label.clone())),
        ("commit".into(), Value::Str(commit_of(checkout))),
        ("nproc".into(), Value::Int(nproc)),
        ("seed".into(), Value::UInt(args.seed)),
        ("seconds".into(), seconds),
        ("workloads".into(), Value::Map(per_workload)),
    ]);

    // One entry per label: re-recording a label replaces its entry.
    let path = root.join(format!("BENCH_{}.json", args.pr));
    let mut runs = match read_json(&path).as_ref().map(|doc| doc.get("runs")) {
        Ok(Some(Value::Seq(runs))) => runs.clone(),
        _ => Vec::new(),
    };
    let label = Value::Str(args.label.clone());
    runs.retain(|run| run.get("label") != Some(&label));
    runs.push(entry);
    let doc = Value::Map(vec![
        ("pr".into(), Value::Int(i64::from(args.pr))),
        ("runs".into(), Value::Seq(runs)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
