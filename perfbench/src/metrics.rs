//! Turns repetitions into the named metrics and the result line.

use crate::ladder::{Kind, Ladder};
use crate::workloads::Outcome;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared in BENCHMARK.json.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
pub fn percentile(mut xs: Vec<f64>, p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics over untraced repetitions: timings are
/// medians across repetitions, simulated statistics are medians too
/// (they repeat exactly unless hash order perturbs a learning run).
pub fn end_to_end(reps: &[&Outcome], peak_rss_mib: f64) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Outcome) -> f64| median(reps.iter().map(|o| f(o)).collect());
    let offered: u64 = reps.iter().map(|o| o.offered).sum();
    let served: u64 = reps.iter().map(|o| o.served).sum();
    vec![
        Metric::new("frames_per_s", each(&Outcome::frames_per_s), "1/s"),
        Metric::new("setup_s", each(&|o| o.setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss_mib, "MiB"),
        Metric::new(
            "requests_served_pct",
            100.0 * ratio(served as f64, offered as f64),
            "%",
        ),
        Metric::new("qos_violation_pct", each(&|o| o.qos_violation_pct), "%"),
        Metric::new(
            "energy_j_per_frame",
            each(&|o| ratio(o.energy_j, o.frames as f64)),
            "J",
        ),
    ]
}

/// The per-layer metrics of one wrapped repetition.
fn layer_metrics(o: &Outcome, l: &Ladder) -> Vec<Metric> {
    let region_ns = o.timed_s * 1e9;
    let share = |ns: f64| 100.0 * ratio(ns, region_ns);
    let per = |ns: u64, n: u64| ratio(ns as f64, n as f64);
    let f = &o.facts;
    let frames = o.frames as f64;
    let begins = l.calls(Kind::Begin);
    let ends = l.calls(Kind::End);
    let core_ns = (l.self_ns(Kind::Begin) + l.self_ns(Kind::End)) as f64;
    let dispatch_ns = (l.self_ns(Kind::Dispatch) + l.admit_gap_ns) as f64;
    let lifecycle_ns = l.lifecycle_ns() as f64;
    let autoscale_ns = l.self_ns(Kind::Autoscale) as f64;
    let rebalance_ns = l.self_ns(Kind::Rebalance) as f64;
    let telemetry_ns = f.trace_encode_s * 1e9;
    let claimed = core_ns
        + l.transcode_gap_ns as f64
        + dispatch_ns
        + lifecycle_ns
        + autoscale_ns
        + rebalance_ns
        + telemetry_ns;
    let epochs_ms: Vec<f64> = l
        .autoscale_starts_ns
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e6)
        .collect();
    vec![
        Metric::new(
            "core.begin_frame_ns",
            per(l.self_ns(Kind::Begin), begins),
            "ns",
        ),
        Metric::new("core.end_frame_ns", per(l.self_ns(Kind::End), ends), "ns"),
        Metric::new("core.calls", (begins + ends) as f64, "count"),
        Metric::new(
            "core.knob_change_pct",
            100.0 * ratio(l.knob_changes as f64, begins as f64),
            "%",
        ),
        Metric::new("core.share_pct", share(core_ns), "%"),
        Metric::new("transcode.events", f.events as f64, "count"),
        Metric::new(
            "transcode.self_ns_per_frame",
            ratio(l.transcode_gap_ns as f64, frames),
            "ns",
        ),
        Metric::new(
            "transcode.rate_epochs_per_kframe",
            1000.0 * ratio(f.rate_epochs as f64, frames),
            "count",
        ),
        Metric::new("transcode.share_pct", share(l.transcode_gap_ns as f64), "%"),
        Metric::new(
            "fleet.dispatch_calls",
            l.calls(Kind::Dispatch) as f64,
            "count",
        ),
        Metric::new(
            "fleet.dispatch_ns",
            per(l.self_ns(Kind::Dispatch), l.calls(Kind::Dispatch)),
            "ns",
        ),
        Metric::new(
            "fleet.admit_gap_ns",
            per(l.admit_gap_ns, l.admit_gaps),
            "ns",
        ),
        Metric::new("fleet.dispatch_share_pct", share(dispatch_ns), "%"),
        Metric::new("fleet.session_builds", l.calls(Kind::Build) as f64, "count"),
        Metric::new(
            "fleet.session_build_ns",
            per(
                l.self_ns(Kind::Build) + l.self_ns(Kind::Restore),
                l.calls(Kind::Build),
            ),
            "ns",
        ),
        Metric::new(
            "fleet.retained_sessions",
            f.retained_sessions as f64,
            "count",
        ),
        Metric::new("fleet.lifecycle_share_pct", share(lifecycle_ns), "%"),
        Metric::new(
            "fleet.autoscale_ns",
            per(l.self_ns(Kind::Autoscale), l.calls(Kind::Autoscale)),
            "ns",
        ),
        Metric::new("fleet.autoscale_share_pct", share(autoscale_ns), "%"),
        Metric::new(
            "fleet.rebalance_ns",
            per(l.self_ns(Kind::Rebalance), l.calls(Kind::Rebalance)),
            "ns",
        ),
        Metric::new("fleet.rebalance_share_pct", share(rebalance_ns), "%"),
        Metric::new("fleet.migrations", f.migrations as f64, "count"),
        Metric::new(
            "fleet.epoch_ms_p50",
            percentile(epochs_ms.clone(), 50.0),
            "ms",
        ),
        Metric::new("fleet.epoch_ms_p99", percentile(epochs_ms, 99.0), "ms"),
        Metric::new("fleet.checkpoints", f.checkpoints as f64, "count"),
        Metric::new(
            "fleet.frames_redone_pct",
            100.0 * ratio(f.frames_redone as f64, frames),
            "%",
        ),
        Metric::new("fleet.checkpoint_bytes", f.checkpoint_bytes as f64, "B"),
        Metric::new(
            "fleet.checkpoint_decode_ms",
            f.checkpoint_decode_s * 1e3,
            "ms",
        ),
        Metric::new("fleet.trace_events", f.trace_events as f64, "count"),
        Metric::new("fleet.trace_encode_ms", f.trace_encode_s * 1e3, "ms"),
        Metric::new("fleet.trace_decode_ms", f.trace_decode_s * 1e3, "ms"),
        Metric::new("fleet.telemetry_share_pct", share(telemetry_ns), "%"),
        Metric::new("fleet.unattributed_share_pct", 100.0 - share(claimed), "%"),
        Metric::new(
            "fleet.overflow_migrations",
            f.overflow_migrations as f64,
            "count",
        ),
        Metric::new("scenario.realize_ms", f.realize_s * 1e3, "ms"),
    ]
}

/// The per-layer metrics over traced pairs `(untraced, wrapped, ladder)`:
/// the median of each metric across wrapped repetitions, plus the
/// tracing overhead and whether any wrapped run diverged from its
/// untraced twin.
pub fn per_layer(pairs: &[(Outcome, Outcome, Ladder)], replay_mismatch: bool) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = pairs.iter().map(|(_, w, l)| layer_metrics(w, l)).collect();
    let mut out: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| Metric {
            value: median(per_rep.iter().map(|r| r[i].value).collect()),
            ..m.clone()
        })
        .collect();
    // Extra host time per frame that the wrappers add.
    let overhead = median(
        pairs
            .iter()
            .map(|(p, w, _)| 100.0 * (p.frames_per_s() / w.frames_per_s() - 1.0))
            .collect(),
    );
    out.push(Metric::new("trace.overhead_pct", overhead, "%"));
    out.push(Metric::new(
        "core.replay_mismatch",
        if replay_mismatch { 1.0 } else { 0.0 },
        "count",
    ));
    out
}

/// The host canary, reported with the per-layer metrics.
pub fn host(l2_probe_ns: f64, l3_probe_ns: f64, nproc: usize) -> Vec<Metric> {
    vec![
        Metric::new("host.l2_probe_ns", l2_probe_ns, "ns"),
        Metric::new("host.l3_probe_ns", l3_probe_ns, "ns"),
        Metric::new("host.nproc", nproc as f64, "count"),
    ]
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn to_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        // `{:?}` prints the shortest form that round-trips, with every
        // digit the value has.
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Tracer;
    use crate::workloads::{Facts, Outcome};

    type Names = Vec<(String, String)>;

    /// Every metric the program prints, as `(name, unit)`: the end-to-end
    /// set (`--trace 0`) and the per-layer set (`--trace 1`).
    fn printed() -> (Names, Names) {
        let outcome = Outcome {
            setup_s: 1.0,
            timed_s: 1.0,
            frames: 1,
            qos_violation_pct: 0.0,
            energy_j: 1.0,
            offered: 1,
            served: 1,
            digest: String::new(),
            failures: Vec::new(),
            facts: Facts::default(),
        };
        let names = |ms: Vec<Metric>| -> Names {
            ms.into_iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        let pairs = [(outcome.clone(), outcome.clone(), Tracer::new().ladder())];
        let mut layers = names(per_layer(&pairs, false));
        layers.extend(names(host(1.0, 1.0, 1)));
        (names(end_to_end(&[&outcome], 1.0)), layers)
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile((1..=100).map(f64::from).collect(), 99.0), 99.0);
        assert_eq!(percentile(vec![5.0], 99.0), 5.0);
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let line = to_json(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(to_json(true, 1, 0, &[Metric::new("setup_s", f64::NAN, "s")]).is_err());
    }

    /// `(name, unit)` pairs of one section of BENCHMARK.json, in order.
    fn benchmark_json(section: &str) -> Names {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section is present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj
                .find(&format!("\"{key}\": \""))
                .expect("field is present")
                + key.len()
                + 5;
            obj[at..at + obj[at..].find('"').expect("string ends")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn every_printed_metric_is_declared_in_benchmark_json() {
        let (e2e, layers) = printed();
        assert_eq!(e2e, benchmark_json("end_to_end"));
        assert_eq!(layers, benchmark_json("per_layer"));
    }
}
