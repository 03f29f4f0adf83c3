//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-write|serve-read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed`; the
//! library only receives the generated data and requests. Each layer is
//! measured from outside, by timing calls into its public functions.
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding every end-to-end metric of `BENCHMARK.json`; with `--trace 1`
//! it holds every per-layer metric, the span dump is written to
//! `.bench_out/<workload>.trace.jsonl`, and per-layer metrics a workload
//! does not exercise read 0. The line before it is the run's provenance.
//! Any failed correctness gate makes the result `"correct": false` and the
//! exit code 1.

mod outcome;
mod pipeline;
mod schedule;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::outcome::{peak_rss_mib, Outcome};
use crate::trace::Tracer;

/// Spans written to the dump at most; the per-layer metrics use them all.
const DUMP_LIMIT: usize = 200_000;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// `(name, unit)` of every metric of one kind in `BENCHMARK.json`.
fn declared_metrics(manifest: &str, kind: &str) -> Result<Vec<(String, String)>, String> {
    let root: Value = serde_json::from_str(manifest).map_err(|e| e.to_string())?;
    let field = |v: &Value, key: &str| match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Array(items)) = field(&root, kind) else {
        return Err(format!("BENCHMARK.json has no {kind} list"));
    };
    items
        .iter()
        .map(|item| match (field(item, "name"), field(item, "unit")) {
            (Some(Value::String(n)), Some(Value::String(u))) => Ok((n, u)),
            _ => Err(format!("malformed {kind} entry in BENCHMARK.json")),
        })
        .collect()
}

/// The result line: every declared metric, in declared order. An
/// end-to-end metric must have been measured; a per-layer metric the
/// workload does not exercise reads 0.
fn result_line(
    out: &Outcome,
    declared: &[(String, String)],
    fill_missing: bool,
) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if fill_missing => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct(),
        out.attempted,
        out.failed
    ))
}

/// First line of a command's standard output, if it runs.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output
        .status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

/// FNV-1a digest of the sources the benchmark builds, for checkouts that
/// carry no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn provenance(args: &Args, out: &Outcome) -> String {
    let revision = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let sizes: Vec<String> = out
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"provenance\": {{\"revision\": \"{revision}\", \"source_digest\": \"{}\", \"nproc\": {nproc}, \"generator_threads\": 1, \"worker_threads\": 1, \"rustc\": \"{rustc}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sizes\": {{{}}}}}}}",
        source_digest(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        sizes.join(", ")
    )
}

/// Writes the traced run's spans as JSON lines under `.bench_out/`.
pub fn dump_trace(tracer: &Tracer, args: &Args) {
    let path = Path::new(".bench_out").join(format!("{}.trace.jsonl", args.workload));
    match tracer.write_jsonl(&path, DUMP_LIMIT) {
        Ok(n) => eprintln!(
            "trace: {n} of {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn run(args: &Args) -> Result<(String, Outcome), String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared_metrics(&manifest, kind)?;
    let mut out = match args.workload.as_str() {
        "serve-write" => serve::run(&serve::WRITE, args)?,
        "serve-read" => serve::run(&serve::READ, args)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let rss = peak_rss_mib().ok_or("VmHWM is unavailable")?;
    out.metrics.put("peak_rss_mib", rss, "MiB");
    let line = result_line(&out, &declared, args.trace)?;
    Ok((line, out))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, out)) => {
            for (name, v, unit) in &out.metrics.0 {
                eprintln!("{name:>32} {v:>16.6} {unit}");
            }
            println!("{}", provenance(&args, &out));
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse_args(
            [
                "--workload",
                "serve-read",
                "--seed",
                "7",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .unwrap();
        assert_eq!(
            args,
            Args {
                workload: "serve-read".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(["--seed", "x"].map(String::from).into_iter()).is_err());
        assert!(parse_args(["--trace", "2"].map(String::from).into_iter()).is_err());
    }

    #[test]
    fn result_line_lists_declared_metrics_only() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.put("a", 1.5, "s");
        out.metrics.put("extra", 2.0, "s");
        let declared = vec![
            ("a".to_string(), "s".to_string()),
            ("b".into(), "count".into()),
        ];
        assert!(result_line(&out, &declared, false).is_err());
        let line = result_line(&out, &declared, true).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
        out.gate("g", false);
        assert!(result_line(&out, &declared, true)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn manifest_declares_the_metrics_the_workloads_measure() {
        let text = manifest();
        let e2e = declared_metrics(&text, "end_to_end").unwrap();
        let names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        for required in ["setup_s", "train_s", "p50_us", "p99_us", "peak_ops_per_s"] {
            assert!(names.contains(&required), "{required}");
        }
        let layers = declared_metrics(&text, "per_layer").unwrap();
        for kind in serve::ERROR_KINDS {
            let name = format!("serve.errors.{kind}");
            assert!(layers.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
