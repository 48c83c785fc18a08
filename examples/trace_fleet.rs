//! Flight-recorded chaos, replayed as a trace you can open in a
//! browser.
//!
//! This demo reruns the `flash_mob` chaos scenario — a 7.5× arrival
//! surge with two mid-ramp node crashes and a thermal throttle — with
//! structured event tracing switched on, then puts the resulting
//! [`FleetTrace`] through its paces:
//!
//! * every dispatch decision, autoscale step, crash, checkpoint,
//!   recovery and migration lands in one deterministic timeline with
//!   simulated-time stamps;
//! * the timeline is serialized with the versioned `MAMUTTL` codec,
//!   decoded back, and re-encoded to the identical bytes (lossless
//!   round trip, asserted);
//! * the summary's counters are folded from this same event stream, so
//!   re-deriving them from the decoded trace (`FleetCounters::from_trace`)
//!   reproduces them, and event conservation holds — one
//!   `dispatch-assign` and one `session-end` per admitted session;
//! * the trace is exported as Chrome `trace_event` JSON (open it at
//!   `chrome://tracing` or <https://ui.perfetto.dev>) and as CSV, and
//!   the whole trace is byte-identical across 1, 2 and 8 worker
//!   threads — observability obeys the same determinism contract as
//!   the simulation it observes.
//!
//! Run with: `cargo run --release --example trace_fleet`

use mamut::fleet::{ControllerFactory, SessionRequest};
use mamut::prelude::*;
use mamut::scenario::catalog;

/// Epoch length: long enough that the surge spans a handful of epochs,
/// short enough that the fault timeline reads naturally.
const EPOCH_S: f64 = 2.0;

fn factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn provisioner() -> mamut::fleet::NodeProvisioner {
    Box::new(|| {
        (
            Platform::xeon_e5_2667_v4(),
            Box::new(|req: &SessionRequest| {
                let threads = if req.hr { 10 } else { 4 };
                Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
                    as Box<dyn Controller>
            }) as ControllerFactory,
        )
    })
}

/// The flash mob surges at t = 32 s (epoch 16): crash two of the
/// original nodes mid-ramp, throttle a third at the peak.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .with_crash(17, 0)
        .with_throttle(18, 2, 1.8, 4)
        .with_crash(19, 1)
        .with_replacement_delay(2)
}

fn run(workers: usize) -> (FleetSummary, FleetTrace) {
    let realized = catalog::flash_mob()
        .realize()
        .expect("catalog preset realizes");
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(EPOCH_S)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        realized.workload(),
    );
    for _ in 0..3 {
        fleet.add_node(factory());
    }
    fleet.set_autoscaler(
        Box::new(
            ThresholdScaler::new()
                .with_limits(3, 12)
                .with_watermarks(0.1, 0.8)
                .with_cooldown(2),
        ),
        provisioner(),
    );
    fleet.set_phase_marks(realized.phase_marks(EPOCH_S));
    fleet.set_checkpoint_policy(CheckpointPolicy::every(3));
    fleet.set_fault_plan(chaos_plan());
    fleet.set_telemetry(TelemetryMode::Full);
    let summary = fleet.run().expect("fleet run completes");
    (summary, fleet.trace())
}

fn main() {
    println!("== flash mob under chaos, fully traced ==\n");
    let (summary, trace) = run(2);
    println!("{summary}");

    // The summary's counters are a fold of this very stream, so a full
    // trace re-derives them; per-session events match the admissions.
    let derived = FleetCounters::from_trace(&trace);
    assert_eq!(derived.crashes, summary.crashes);
    assert_eq!(derived.checkpoints, summary.checkpoints);
    assert_eq!(derived.sessions_recovered, summary.sessions_recovered);
    assert_eq!(derived.scale_ups, summary.scale_ups);
    assert_eq!(derived.migrations(), summary.migrations);
    assert_eq!(trace.count_kind("dispatch-assign"), summary.total_sessions);
    assert_eq!(trace.count_kind("session-end"), summary.total_sessions);
    assert_eq!(trace.count_kind("epoch-begin"), summary.epochs);
    assert_eq!(trace.len() as u64, summary.trace_events);

    // Lossless codec: decode(encode(trace)) re-encodes to the exact
    // same bytes.
    let bytes = trace.encode();
    let decoded = FleetTrace::decode(&bytes).expect("MAMUTTL trace decodes");
    assert_eq!(decoded, trace);
    assert_eq!(decoded.encode(), bytes);

    // Exporters: Chrome trace_event JSON and CSV.
    let json = trace.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    let csv = trace.to_csv();
    assert_eq!(csv.lines().count(), 1 + trace.len());

    let dir = std::env::temp_dir().join("mamut_trace_fleet");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("flash_mob.trace"), &bytes).expect("write trace");
    std::fs::write(dir.join("flash_mob.json"), &json).expect("write json");
    std::fs::write(dir.join("flash_mob.csv"), &csv).expect("write csv");

    // Determinism: the trace — not just the summary — is byte-identical
    // for any worker thread count.
    let reference = run(1).1.encode();
    for workers in [2usize, 8] {
        assert_eq!(
            reference,
            run(workers).1.encode(),
            "trace diverged at {workers} workers"
        );
    }

    println!("== trace digest ==\n");
    println!(
        "events              {:>10}  over {} epochs ({} bytes encoded)",
        trace.len(),
        summary.epochs,
        bytes.len()
    );
    for kind in [
        "dispatch-assign",
        "session-end",
        "autoscale",
        "node-commission",
        "node-crash",
        "session-recovered",
        "checkpoint",
        "throttle-start",
        "session-detach",
        "mark",
    ] {
        println!("  {kind:<18}{:>10}", trace.count_kind(kind));
    }
    println!(
        "\nexported to {} (open flash_mob.json at chrome://tracing)",
        dir.display()
    );
    println!("trace byte-identical across 1/2/8 workers ✓");
}
