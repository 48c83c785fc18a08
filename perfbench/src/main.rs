//! MAMUT benchmark runner.
//!
//! ```text
//! perfbench --workload <server_mamut|fleet_burst|fleet_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload until `--seconds` of host time have passed and
//! prints, as its last line, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a separate traced run
//! (`--trace 1`). Exits 1 when any correctness check fails. See
//! README.md for what each metric means and which layer moves which.

mod host;
mod ladder;
mod metrics;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use ladder::Tracer;
use metrics::Metric;
use workloads::{Name, Outcome, Scale};

/// Fleet worker threads in the measured runs. On the 2-vCPU host the
/// benchmark was sized on, two workers doubled the run-to-run spread of
/// fleet_burst's frames/s (19.5 % against 9.3 % over interleaved seeds):
/// with both vCPUs busy, every epoch waits for the slower one. Results
/// do not depend on the worker count; fleet_burst's check proves it.
const WORKERS: usize = 1;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Name::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probes_before = (host::l2_probe_ns(), host::l3_probe_ns());
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let probes = (
        (probes_before.0 + host::l2_probe_ns()) / 2.0,
        (probes_before.1 + host::l3_probe_ns()) / 2.0,
    );
    println!(
        "host: nproc={} cpu=\"{}\" l2_probe_ns={:.3} l3_probe_ns={:.3}",
        host::nproc(),
        host::cpu_model(),
        probes.0,
        probes.1
    );
    let (mut metrics, attempted, failed, failures) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        metrics.extend(metrics::host(probes.0, probes.1, host::nproc()));
    }
    for f in &failures {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let correct = failures.is_empty();
    match metrics::to_json(correct, attempted, failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

type RunResult = Result<(Vec<Metric>, u64, u64, Vec<String>), String>;

/// Repeats `rep` while one more repetition of average length still
/// fits in `seconds` (always at least once).
fn repeat<T>(seconds: f64, mut rep: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![rep()];
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / out.len() as f64 > seconds {
            return out;
        }
        out.push(rep());
    }
}

fn tally(reps: &[&Outcome]) -> (u64, u64, Vec<String>) {
    let attempted = reps.iter().map(|o| o.offered).sum();
    let failed = reps
        .iter()
        .map(|o| o.offered - o.served.min(o.offered))
        .sum();
    let failures = reps.iter().flat_map(|o| o.failures.clone()).collect();
    (attempted, failed, failures)
}

/// The end-to-end run: untraced repetitions.
fn untraced(args: &Args) -> RunResult {
    let reps = repeat(args.seconds, || {
        workloads::run(args.workload, args.seed, Scale::full(), WORKERS, None)
    });
    let peak_rss_mib = host::peak_rss_mib()?;
    let refs: Vec<&Outcome> = reps.iter().collect();
    let (attempted, failed, mut failures) = tally(&refs);
    if args.workload == Name::FleetBurst {
        // Wrapper transparency and worker-count independence: a wrapped
        // run on two workers must reproduce every measured run byte for
        // byte.
        let tracer = Tracer::new();
        let traced = workloads::run(args.workload, args.seed, Scale::full(), 2, Some(&tracer));
        failures.extend(traced.failures.iter().cloned());
        if reps.iter().any(|r| r.digest != traced.digest) {
            failures.push("fleet_burst: the traced summary differs from the untraced one".into());
        }
    }
    eprintln!(
        "perfbench: {} untraced repetitions, frames/s {:?}",
        reps.len(),
        reps.iter()
            .map(|o| o.frames_per_s().round())
            .collect::<Vec<_>>()
    );
    Ok((
        metrics::end_to_end(&refs, peak_rss_mib),
        attempted,
        failed,
        failures,
    ))
}

/// The traced run: pairs of an untraced and a wrapped repetition, both
/// at one worker so every wrapper call lands on one ordered timeline.
fn traced(args: &Args) -> RunResult {
    let pairs = repeat(args.seconds, || {
        let plain = workloads::run(args.workload, args.seed, Scale::full(), 1, None);
        let tracer = Tracer::new();
        let wrapped = workloads::run(args.workload, args.seed, Scale::full(), 1, Some(&tracer));
        (plain, wrapped, tracer.ladder())
    });
    let refs: Vec<&Outcome> = pairs.iter().flat_map(|(p, w, _)| [p, w]).collect();
    let (attempted, failed, mut failures) = tally(&refs);
    let mismatch = pairs.iter().any(|(p, w, _)| p.digest != w.digest);
    if mismatch && args.workload == Name::FleetBurst {
        failures.push("fleet_burst: the traced summary differs from the untraced one".into());
    }
    eprintln!("perfbench: {} traced pairs", pairs.len());
    Ok((
        metrics::per_layer(&pairs, mismatch),
        attempted,
        failed,
        failures,
    ))
}
