//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <local-scan|remote-scan|sharded-write> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! `perfbench/README.md` for what each metric means and which layer
//! moves it.

mod client;
mod fleet;
mod inputs;
mod layers;
mod oracle;
mod sink;
mod stats;
mod trace;

use client::Client;
use fleet::{set_up, Workload, OUT_DIR};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use trace::Tracer;

/// Requests served and checked before timing starts.
const WARM_UP: usize = 256;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad("expected local-scan, remote-scan or sharded-write"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("expected 1 to 600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(55),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let err = |e: cqc_common::CqcError| e.to_string();
    let inputs = inputs::generate(args.seed);
    let tracer = args.trace.then(|| Arc::new(Tracer::default()));

    let (fleet, _, _) = set_up(args.workload, &inputs, tracer.as_ref(), 0).map_err(err)?;
    let space_bytes = fleet.resident_bytes() as f64;

    let mut client = Client::new(args.workload, &fleet, &inputs);
    client.warm_up(WARM_UP);
    let length = Duration::from_secs(args.seconds);
    let metrics = match &tracer {
        None => {
            let samples = client.measure(length, None);
            let mut m = samples.end_to_end();
            m.insert(1, ("space_bytes", space_bytes, "B"));
            m.insert(2, ("peak_rss_mib", peak_rss_mib()?, "MiB"));
            m
        }
        Some(tracer) => {
            // The first third runs untraced, so the tracing overhead is
            // measured within the run.
            let plain = client.measure(length / 3, None);
            let mut layers =
                layers::Layers::new(&fleet, &inputs, Arc::clone(tracer), client.updates_sent())
                    .map_err(err)?;
            let traced = client.measure(length - length / 3, Some(&mut layers));
            let csv = Path::new(OUT_DIR).join(format!("trace-{}.csv", args.workload.name()));
            layers.report(&fleet, &plain, &traced, &csv)
        }
    };
    let ops = std::mem::take(&mut client.ops);
    drop(client);
    fleet.close();

    if let Some(f) = &ops.first_failure {
        eprintln!("perfbench: first failure: {f}");
    }
    eprintln!(
        "perfbench: {} requests ({} failed), {} updates ({} failed), {} checks ({} failed), \
         {} set-ups ({} failed)",
        ops.requests,
        ops.requests_failed,
        ops.updates,
        ops.updates_failed,
        ops.checks,
        ops.checks_failed,
        ops.setups,
        ops.setups_failed
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        !ops.wrong,
        ops.attempted(),
        ops.failed(),
        fields.join(", ")
    ))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
