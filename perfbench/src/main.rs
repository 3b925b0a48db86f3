//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints provenance and check lines, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The traced run also writes its spans to
//! `.bench_trace/<workload>-seed<n>.jsonl` under the working directory.

use perfbench::harness::{run_traced, run_untraced, Report};
use perfbench::trace;
use perfbench::workload::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <mesh_stream|dense_sparsify> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("seconds {value} outside (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn json_line(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> Result<String, String> {
    let dir = std::path::Path::new(".bench_trace");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
    std::fs::write(&path, trace::to_jsonl(spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Library knobs keep their defaults: the benchmark measures the
    // configuration a user gets without setting any. No thread exists
    // yet, so removing variables cannot race with a reader.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("PARLAP_") {
            std::env::remove_var(&key);
        }
    }
    let run = if args.trace { run_traced } else { run_untraced };
    let report = match run(args.workload, args.seed, args.seconds) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    if let Some(spans) = &report.spans {
        println!("trace: span name, count, total ms, self ms");
        for (name, (count, total, own)) in trace::summary(spans) {
            println!("trace: {name:<22} {count:>6} {total:>12.3} {own:>12.3}");
        }
        match write_spans(&args, spans) {
            Ok(path) => println!("trace: {} spans written to {path}", spans.len()),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    println!("{}", json_line(&report));
    ExitCode::SUCCESS
}
