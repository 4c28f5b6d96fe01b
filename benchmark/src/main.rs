//! The repository benchmark: one command per workload, seeded inputs,
//! checked outputs, and one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml \
//!     --target-dir .bench_build -- \
//!     --workload tables-cold|serve-warm --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrument
//! installed; `--trace 1` is a separate run that installs the
//! benchmark's wrappers and probes and reports the per-layer metrics.
//! See `benchmark/README.md` for every metric's definition.

mod harness;
mod layers;
mod serve;
mod stats;
mod tables;

use std::fmt::Write as _;

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "throughput_per_cpu_s",
    "peak_rss_mb",
    "predict_err_pct",
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 47] = [
    "campaign.prefetch_s",
    "campaign.assemble_ms",
    "scheduler.busy_ratio",
    "scheduler.queue_wait_ms_p50",
    "scheduler.queue_wait_ms_tail",
    "engine.batch_ms_p50",
    "engine.batch_ms_tail",
    "serve.batch_size_mean",
    "serve.batches",
    "protocol.parse_us",
    "protocol.encode_us",
    "serve.wait_ms_p50",
    "serve.refused",
    "serve.deadline_shed",
    "provider.requests",
    "provider.hits",
    "provider.backend_hits",
    "provider.executed",
    "analysis.assemble_us",
    "telemetry.events_per_request",
    "mem.rss_kb_per_request",
    "cell.executed",
    "cell.exec_ms_p50",
    "cell.exec_ms_tail",
    "cluster.dispatch_us",
    "comm.messages_per_cell",
    "comm.bytes_per_cell",
    "perf.flops_per_cell",
    "cachesim.lines_per_cell",
    "cachesim.l1_hit_ratio",
    "cachesim.mem_ratio",
    "cachesim.ns_per_line",
    "store.open_ms",
    "store.get_us_p50",
    "store.get_us_tail",
    "store.append_us_p50",
    "store.append_us_tail",
    "store.gets",
    "store.appends",
    "store.flush_ms",
    "gen.late_ms_tail",
    "trace.overhead_pct",
    "latency.p50_ms",
    "latency.tail_ms",
    "error_rate",
    "check.exactly_once_violations",
    "check.mismatches",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A correctness failure: the run's result is marked incorrect.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    pub fn note(&mut self, message: impl Into<String>) {
        self.notes.push(message.into());
    }

    /// Print the human-readable lines and, last, the JSON result.
    /// Returns whether the run was correct.
    fn finish(mut self, expected: &[&str]) -> bool {
        for name in expected {
            if !self.metrics.iter().any(|(n, _, _)| n == name) {
                self.problems
                    .push(format!("metric {name} was not measured"));
            }
        }
        for (name, value, _) in &mut self.metrics {
            if !value.is_finite() {
                self.problems.push(format!("metric {name} is not finite"));
                *value = 0.0;
            }
        }
        for n in &self.notes {
            println!("note: {n}");
        }
        for p in &self.problems {
            println!("FAIL: {p}");
        }
        let mut json = String::from("{\"metrics\": {");
        let mut first = true;
        for (name, value, unit) in &self.metrics {
            if !expected.contains(&name.as_str()) {
                continue;
            }
            println!("metric {name} = {value} {unit}");
            if !first {
                json.push_str(", ");
            }
            first = false;
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let correct = self.problems.is_empty();
        let failed = if correct {
            self.failed
        } else {
            self.failed.max(1)
        };
        let _ = write!(
            json,
            "}}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}}}",
            self.attempted.max(1)
        );
        println!("{json}");
        correct
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: kc-benchmark --workload tables-cold|serve-warm \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new("artifacts/golden").is_dir() {
        eprintln!("error: run from the repository root (artifacts/golden not found)");
        std::process::exit(2);
    }
    let report = match args.workload.as_str() {
        "tables-cold" => tables::run(&args),
        "serve-warm" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !report.finish(expected) {
        std::process::exit(1);
    }
}
