//! motivo benchmark: one workload, one seed, one JSON line of metrics.
//!
//! ```text
//! cargo run --release --frozen --manifest-path perfbench/Cargo.toml -- \
//!     --workload count --seed 1 --seconds 28 --trace 0
//! ```
//!
//! Progress and per-check details go to stderr. The last two lines of
//! stdout are JSON: `{"measured": {...}}` with every metric the run
//! measured, then the result `{"correct", "attempted", "failed",
//! "metrics"}`, whose metrics are the ones `BENCHMARK.json` lists for the
//! mode: `end_to_end` with `--trace 0`, `per_layer` with `--trace 1` (the
//! spans are then written to `.perfbench/traces/`). See README.md for the
//! workloads, checks and metric map.

mod checks;
mod layers;
mod pipeline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Outcome bookkeeping: every check is one operation.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations not explained by a known fault.
    pub unexpected: u64,
}

impl Ledger {
    /// Records one check. `known_fault` marks a check that fails on the
    /// current code because of a named fault (README.md, "Known fault").
    pub fn check(
        &mut self,
        what: &str,
        ok: bool,
        known_fault: bool,
        detail: impl FnOnce() -> String,
    ) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if !known_fault {
                self.unexpected += 1;
            }
            eprintln!(
                "perfbench: check failed{}: {what}: {}",
                if known_fault { " (known fault)" } else { "" },
                detail()
            );
        }
    }
}

/// Named metric values with units, in output order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    fn json(&self, names: impl Iterator<Item = String>) -> Result<String, String> {
        let fields: Result<Vec<String>, String> = names
            .map(|name| match self.0.get(&name) {
                Some((v, unit)) if v.is_finite() => Ok(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                _ => Err(format!("metric {name} was not measured")),
            })
            .collect();
        Ok(format!("{{{}}}", fields?.join(", ")))
    }
}

/// The metric names `BENCHMARK.json` (read from the working directory,
/// the repository root) lists under `kind`.
fn listed_metrics(kind: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let bench: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    bench
        .get(kind)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {kind} list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str().map(str::to_string))
                .ok_or_else(|| format!("BENCHMARK.json: a {kind} metric has no name"))
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <count|serve|ooc-replicate> --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(profile) = pipeline::Profile::named(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    if args.trace {
        trace::enable();
    }
    let out = pipeline::run(&profile, args.seed, args.seconds);
    if args.trace {
        let path = std::path::Path::new(".perfbench/traces")
            .join(format!("{}-seed{}.jsonl", profile.name, args.seed));
        if let Err(e) = trace::write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let listed = match listed_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    }) {
        Ok(names) => names,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (measured, metrics) = match (
        out.metrics.json(out.metrics.0.keys().cloned()),
        out.metrics.json(listed.into_iter()),
    ) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{{\"measured\": {measured}}}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.ledger.unexpected == 0,
        out.ledger.attempted,
        out.ledger.failed,
    );
    ExitCode::SUCCESS
}
