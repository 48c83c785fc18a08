//! The three workloads. Each builds its whole input from the seed before
//! the timed region, runs it, and checks what came out.
//!
//! * `server_mamut` — one `ServerSim` running the paper's Scenario II
//!   (2 HR + 4 LR streams with playlists) under MAMUT controllers that
//!   were pretrained in set-up as `mamut_bench::run_scenario_ii` does.
//!   Controller decisions and the event engine in its knob-churn regime
//!   do the work; no fleet code runs.
//! * `fleet_burst` — the sharded coordinator at 8 × 128 nodes with
//!   fixed-knob controllers: a t=0 burst of ~100 sessions per node,
//!   staggered tails and a late multi-epoch burst that forces
//!   cross-shard overflow. Dispatch, admission, the idle fast path and
//!   the engine in its knob-reuse regime do the work; controllers cost
//!   next to nothing.
//! * `fleet_chaos` — one `FleetSim` on the `daily_vod` scenario with
//!   warm-started MAMUT sessions, seasonal autoscaling, rebalancing,
//!   checkpoints, seeded crashes and full telemetry. Session lifecycle,
//!   autoscale/rebalance, recovery and the telemetry codec do the work.
//!
//! Arrivals are open-loop in simulated time: they are fixed by the seed
//! and never wait on placement.

use std::time::Instant;

use mamut::control::{Constraints, Controller, FixedController, KnobSettings};
use mamut::fleet::{
    warm_start_factory, CheckpointBundle, CheckpointPolicy, ControllerFactory, FaultPlan,
    FleetConfig, FleetSim, FleetSummary, FleetTrace, ForecastScaler, HoltWinters, KnowledgeStore,
    LeastLoaded, MergePolicy, NodeProvisioner, PowerQosBalance, SessionClass, SessionRequest,
    ShardConfig, ShardedFleetSim, SharedKnowledgeStore, TelemetryMode, Workload,
};
use mamut::platform::Platform;
use mamut::scenario::{catalog, sizing, MixProfile, Phase, RealizedScenario, Scenario};
use mamut::transcode::{homogeneous_sessions, scenario_ii_sessions, MixSpec, ServerSim};
use mamut_bench::{ControllerKind, RunPlan};

use crate::ladder::Tracer;

/// A workload by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Paper Scenario II on one server.
    ServerMamut,
    /// Sharded 1k-node burst with fixed controllers.
    FleetBurst,
    /// Elastic MAMUT fleet under chaos with full telemetry.
    FleetChaos,
}

impl Name {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Name; 3] = [Name::ServerMamut, Name::FleetBurst, Name::FleetChaos];

    /// The name used on the command line and in BENCHMARK.json.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ServerMamut => "server_mamut",
            Name::FleetBurst => "fleet_burst",
            Name::FleetChaos => "fleet_chaos",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// How big one repetition of a workload is. [`Scale::full`] is what the
/// benchmark measures; [`Scale::tiny`] keeps the same shape at a size
/// unit tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// server_mamut: independent Scenario II servers per repetition.
    pub servers: usize,
    /// server_mamut: follower videos per stream after the initial one.
    pub followers: usize,
    /// server_mamut: frames per video.
    pub frames_per_video: u64,
    /// server_mamut: pretraining frames per stream.
    pub pretrain_frames: u64,
    /// fleet_burst: shards.
    pub shards: usize,
    /// fleet_burst: nodes per shard.
    pub nodes_per_shard: usize,
    /// fleet_burst: t=0 sessions per node.
    pub burst_per_node: usize,
    /// fleet_chaos: use `daily_vod` (else a short steady scenario).
    pub daily_vod: bool,
    /// server_mamut and fleet_chaos: drive sessions with MAMUT (else
    /// with fixed knobs, which replay bit-exactly; tests only).
    pub mamut: bool,
}

impl Scale {
    /// The measured size.
    pub fn full() -> Scale {
        Scale {
            servers: 40,
            followers: 4,
            frames_per_video: 5_000,
            pretrain_frames: RunPlan::default().pretrain_frames,
            shards: 8,
            nodes_per_shard: 128,
            burst_per_node: 100,
            daily_vod: true,
            mamut: true,
        }
    }

    /// A unit-test size with the same shape.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            servers: 2,
            followers: 2,
            frames_per_video: 200,
            pretrain_frames: 300,
            shards: 3,
            nodes_per_shard: 4,
            burst_per_node: 6,
            daily_vod: false,
            mamut: true,
        }
    }
}

/// Facts about the run that feed the per-layer metrics.
#[derive(Debug, Clone, Default)]
pub struct Facts {
    /// Engine events stepped (server_mamut's traced run only).
    pub events: u64,
    /// Rate epochs across the servers whose engines are reachable.
    pub rate_epochs: u64,
    /// Sessions still held by nodes (or the server) after the run.
    pub retained_sessions: u64,
    /// Sessions migrated between nodes.
    pub migrations: u64,
    /// Sessions moved across shards by the overflow router.
    pub overflow_migrations: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Frames re-done after crashes.
    pub frames_redone: u64,
    /// Size of the latest checkpoint bundle.
    pub checkpoint_bytes: u64,
    /// Host time to decode the latest checkpoint bundle.
    pub checkpoint_decode_s: f64,
    /// Telemetry events recorded.
    pub trace_events: u64,
    /// Host time to encode the trace (inside the timed region).
    pub trace_encode_s: f64,
    /// Host time to decode the encoded trace.
    pub trace_decode_s: f64,
    /// Host time of `Scenario::realize` (part of set-up).
    pub realize_s: f64,
}

/// One repetition's results.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host time to build inputs, sims and controllers.
    pub setup_s: f64,
    /// Host time of the timed region.
    pub timed_s: f64,
    /// Frames delivered.
    pub frames: u64,
    /// ∆: share of delivered frames below target fps (%).
    pub qos_violation_pct: f64,
    /// Simulated energy (J).
    pub energy_j: f64,
    /// Sessions offered.
    pub offered: u64,
    /// Sessions run to their last frame.
    pub served: u64,
    /// The run's summary, rendered: equal strings mean equal runs.
    pub digest: String,
    /// Failed correctness checks (empty when every check passed).
    pub failures: Vec<String>,
    /// Inputs to the per-layer metrics.
    pub facts: Facts,
}

impl Outcome {
    /// Frames per host second of the timed region.
    pub fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.timed_s
    }
}

/// Guard against a runaway simulation (never reached by these inputs).
const MAX_EVENTS: u64 = 1_000_000_000;

/// Runs one repetition. `workers` is the fleet worker-thread count;
/// with a tracer every extension point is wrapped and `ServerSim` is
/// stepped event by event.
pub fn run(
    name: Name,
    seed: u64,
    scale: Scale,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Outcome {
    match name {
        Name::ServerMamut => server_mamut(seed, scale, tracer),
        Name::FleetBurst => fleet_burst(seed, scale, workers, tracer),
        Name::FleetChaos => fleet_chaos(seed, scale, workers, tracer),
    }
}

fn check(failures: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        failures.push(what());
    }
}

/// Scenario II's stream mix: 2 HR + 4 LR.
fn scenario_ii_mix() -> MixSpec {
    MixSpec::new(2, 4)
}

/// Pretrains one MAMUT controller per Scenario II stream as
/// `mamut_bench::run_scenario_ii` does: the same mix shape with shifted
/// content, `frames` per stream. Controllers come back in stream order,
/// HR streams first.
fn pretrain(frames: u64, seed: u64) -> Result<Vec<Box<dyn Controller>>, String> {
    let mix = scenario_ii_mix();
    let mut warm = ServerSim::with_default_platform();
    let shapes = homogeneous_sessions(mix, frames, seed.wrapping_add(50_000));
    for (i, cfg) in shapes.into_iter().enumerate() {
        let ctl = ControllerKind::Mamut.build(
            i < mix.n_hr,
            cfg.constraints,
            seed.wrapping_add(i as u64 * 31),
        );
        warm.add_session(cfg, ctl);
    }
    warm.run_to_completion(MAX_EVENTS)
        .map_err(|e| format!("pretraining failed: {e}"))?;
    Ok(warm.into_controllers())
}

fn server_mamut(seed: u64, scale: Scale, tracer: Option<&Tracer>) -> Outcome {
    let start = Instant::now();
    let mut failures = Vec::new();
    let mut servers = Vec::with_capacity(scale.servers);
    let mut expected_frames = 0;
    for k in 0..scale.servers as u64 {
        let sub_seed = seed.wrapping_mul(scale.servers as u64).wrapping_add(k);
        let sessions = scenario_ii_sessions(
            scenario_ii_mix(),
            scale.followers,
            scale.frames_per_video,
            sub_seed,
        );
        expected_frames += sessions
            .iter()
            .map(|s| s.playlist.total_frames())
            .sum::<u64>();
        let controllers = if scale.mamut {
            match pretrain(scale.pretrain_frames, sub_seed) {
                Ok(c) => c,
                Err(e) => return failed(0.0, 0.0, format!("server_mamut: {e}")),
            }
        } else {
            (0..sessions.len())
                .map(|i| fixed_knobs(i < scenario_ii_mix().n_hr))
                .collect()
        };
        let mut server = ServerSim::with_default_platform();
        for (cfg, ctl) in sessions.into_iter().zip(controllers) {
            server.add_session(
                cfg,
                match tracer {
                    Some(t) => t.controller(ctl),
                    None => ctl,
                },
            );
        }
        servers.push(server);
    }
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let mut events = 0;
    for server in &mut servers {
        if tracer.is_some() {
            while server.step() {
                events += 1;
            }
        } else if let Err(e) = server.run_to_completion(MAX_EVENTS) {
            failures.push(format!("server_mamut: server run failed: {e}"));
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let summaries: Vec<_> = servers.iter().map(ServerSim::summary).collect();
    let sessions = summaries.iter().flat_map(|s| &s.sessions);
    let frames: u64 = sessions.clone().map(|s| s.frames).sum();
    let violations: u64 = sessions.map(|s| s.violations).sum();
    let offered = (scale.servers * scenario_ii_mix().total()) as u64;
    let served = servers
        .iter()
        .flat_map(|s| s.sessions())
        .filter(|s| s.is_finished())
        .count() as u64;
    check(&mut failures, served == offered, || {
        format!("server_mamut: {served} of {offered} sessions ran to their last frame")
    });
    check(&mut failures, frames == expected_frames, || {
        format!("server_mamut: delivered {frames} frames, playlists hold {expected_frames}")
    });
    Outcome {
        setup_s,
        timed_s,
        frames,
        qos_violation_pct: 100.0 * violations as f64 / frames.max(1) as f64,
        energy_j: summaries.iter().map(|s| s.energy_j).sum(),
        offered,
        served,
        digest: format!("{summaries:?}"),
        failures,
        facts: Facts {
            events,
            rate_epochs: servers.iter().map(ServerSim::rate_epochs).sum(),
            retained_sessions: servers.iter().map(|s| s.sessions().len() as u64).sum(),
            ..Facts::default()
        },
    }
}

/// Epoch length of the burst fleet (virtual seconds).
const BURST_EPOCH_S: f64 = 4.0;

/// splitmix64: the burst's arrivals are a pure function of (seed, id).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One shard's arrivals, as in `fleet_scaling`'s sharded series with
/// the seed salting the hash: a t=0 burst of sub-epoch sessions, a
/// thin tail whose horizon grows with the shard index (early shards
/// drain and park), and on the last shard a late burst of multi-epoch
/// sessions once the others are idle, which drives overflow.
fn burst_arrivals(seed: u64, shard: usize, scale: Scale) -> Vec<SessionRequest> {
    let salt = mix64(seed);
    let base = (shard as u64) << 32;
    let request = |id: u64, arrival_s: f64, frames: u64| {
        let h = mix64(id ^ salt);
        SessionRequest {
            id,
            arrival_s,
            hr: h & 1 == 0,
            live: false,
            frames,
            seed: h,
        }
    };
    let short = |id: u64| 6 + (mix64(id ^ salt) >> 8) % 6;
    let mut arrivals = Vec::new();
    for i in 0..scale.nodes_per_shard * scale.burst_per_node {
        let id = base | i as u64;
        arrivals.push(request(id, 0.0, short(id)));
    }
    let tail = scale.nodes_per_shard * 4;
    let horizon_s = (shard as f64 + 1.0) * 12.0 * BURST_EPOCH_S;
    for i in 0..tail {
        let id = base | (1 << 31) | i as u64;
        arrivals.push(request(
            id,
            (i as f64 + 1.0) * horizon_s / tail as f64,
            short(id),
        ));
    }
    if shard == scale.shards - 1 {
        for i in 0..scale.nodes_per_shard * 10 {
            arrivals.push(request(
                base | (1 << 30) | i as u64,
                40.0 * BURST_EPOCH_S,
                480,
            ));
        }
    }
    arrivals
}

/// The fixed-knob controller `fleet_scaling` uses.
fn fixed_knobs(hr: bool) -> Box<dyn Controller> {
    let threads = if hr { 10 } else { 4 };
    Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
}

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| fixed_knobs(req.hr))
}

/// Checks shared by the fleet workloads, over the summaries of every
/// shard: every offered session was admitted or rejected (shed counts
/// as rejected), every admitted session is still held by a node (it ran
/// to its end: the run drained), the delivered frames are exactly the
/// admitted sessions' frames, and no frame was lost. Returns the
/// sessions the nodes hold.
fn check_fleet(
    failures: &mut Vec<String>,
    what: &str,
    summaries: &[&FleetSummary],
    offered: u64,
    offered_frames: u64,
) -> u64 {
    let sum = |f: &dyn Fn(&FleetSummary) -> u64| summaries.iter().map(|s| f(s)).sum::<u64>();
    let admitted = sum(&|s| s.total_sessions);
    let rejected = sum(&|s| s.rejected_sessions);
    let frames = sum(&|s| s.total_frames);
    let lost = sum(&|s| s.frames_lost);
    let sessions = || {
        summaries
            .iter()
            .flat_map(|s| &s.node_runs)
            .flat_map(|r| &r.sessions)
    };
    let resident = sessions().count() as u64;
    let resident_frames: u64 = sessions().map(|s| s.frames).sum();
    check(failures, offered == admitted + rejected, || {
        format!("{what}: offered {offered} != admitted {admitted} + rejected/shed {rejected}")
    });
    check(failures, resident == admitted, || {
        format!("{what}: nodes hold {resident} sessions, {admitted} admitted")
    });
    check(failures, resident_frames == frames, || {
        format!("{what}: sessions hold {resident_frames} frames, summaries count {frames}")
    });
    if rejected == 0 {
        check(failures, frames == offered_frames, || {
            format!("{what}: delivered {frames} frames, the sessions asked for {offered_frames}")
        });
    }
    check(failures, lost == 0, || {
        format!("{what}: {lost} frames lost")
    });
    resident
}

fn fleet_burst(seed: u64, scale: Scale, workers: usize, tracer: Option<&Tracer>) -> Outcome {
    let start = Instant::now();
    let mut sharded = ShardedFleetSim::new(ShardConfig::default());
    let (mut offered, mut offered_frames) = (0, 0);
    for shard in 0..scale.shards {
        let arrivals = burst_arrivals(seed, shard, scale);
        offered += arrivals.len() as u64;
        offered_frames += arrivals.iter().map(|r| r.frames).sum::<u64>();
        let dispatcher = Box::new(LeastLoaded::new());
        let mut sim = FleetSim::new(
            FleetConfig::default()
                .with_epoch_s(BURST_EPOCH_S)
                .with_worker_threads(workers),
            match tracer {
                Some(t) => t.dispatcher(dispatcher),
                None => dispatcher,
            },
            Workload::replay(arrivals),
        );
        for _ in 0..scale.nodes_per_shard {
            sim.add_node(match tracer {
                Some(t) => t.factory(fixed_factory()),
                None => fixed_factory(),
            });
        }
        sharded.add_shard(format!("cell{shard}"), sim);
    }
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let result = sharded.run();
    let timed_s = start.elapsed().as_secs_f64();

    let mut failures = Vec::new();
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            return failed(setup_s, timed_s, format!("fleet_burst run failed: {e}"));
        }
    };
    let shards: Vec<&FleetSummary> = summary.shards.iter().map(|(_, s)| s).collect();
    let retained = check_fleet(
        &mut failures,
        "fleet_burst",
        &shards,
        offered,
        offered_frames,
    );
    Outcome {
        setup_s,
        timed_s,
        frames: summary.total_frames(),
        qos_violation_pct: summary.cluster_violation_percent(),
        energy_j: summary.total_energy_j(),
        offered,
        served: summary.total_sessions(),
        digest: summary.to_string(),
        failures,
        facts: Facts {
            retained_sessions: retained,
            migrations: summary.shards.iter().map(|(_, s)| s.migrations).sum(),
            overflow_migrations: summary.inter_shard_migrations,
            ..Facts::default()
        },
    }
}

fn failed(setup_s: f64, timed_s: f64, why: String) -> Outcome {
    Outcome {
        setup_s,
        timed_s,
        frames: 0,
        qos_violation_pct: 0.0,
        energy_j: 0.0,
        offered: 1,
        served: 0,
        digest: String::new(),
        failures: vec![why],
        facts: Facts::default(),
    }
}

fn session_factory(scale: Scale) -> ControllerFactory {
    if !scale.mamut {
        return fixed_factory();
    }
    Box::new(|req| ControllerKind::Mamut.build(req.hr, Constraints::paper_defaults(), req.seed))
}

/// fleet_chaos's scenario: `daily_vod` reseeded, or (tiny scale) a
/// short steady VOD stream with the same mix.
fn chaos_scenario(seed: u64, scale: Scale) -> Scenario {
    if scale.daily_vod {
        catalog::daily_vod().with_seed(seed)
    } else {
        Scenario::new("tiny_vod", seed).then(Phase::Steady {
            duration_s: 48.0,
            rate_hz: 2.0,
            mix: MixProfile::vod_heavy(),
        })
    }
}

/// Seed of the teacher run behind fleet_chaos's knowledge store. It is
/// fixed, not drawn from the workload seed: the store is the workload's
/// trained model, and the seed varies the traffic and the faults.
const TEACHER_SEED: u64 = 1;

/// A VisitWeighted knowledge store holding the policies of Scenario II
/// teachers pretrained as server_mamut's controllers are. Sessions read
/// it through `warm_start_factory`; it is not attached to the fleet, so
/// finished sessions do not publish back. With publishing on, every
/// session's start depends on the order earlier sessions finished in,
/// and ∆ followed that one chaotic trajectory from 18 % to 80 % across
/// seeds; read-only, each session is an independent draw and ∆ averages
/// over the whole day.
fn teacher_store(scale: Scale) -> Result<SharedKnowledgeStore, String> {
    let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
    if !scale.mamut {
        return Ok(store.into_shared());
    }
    let teachers = pretrain(scale.pretrain_frames, TEACHER_SEED)?;
    for (i, teacher) in teachers.iter().enumerate() {
        let hr = i < scenario_ii_mix().n_hr;
        store.publish(SessionClass::of_hr(hr), &teacher.snapshot());
    }
    Ok(store.into_shared())
}

/// fleet_chaos's epoch length (virtual seconds). `daily_vod`'s clips
/// last 4–10 s, so at 4 s a loaded node carries live sessions across
/// each boundary and a crash there has sessions to recover; at the
/// scenario sweep's 8 s most clips end inside the epoch they start in.
const CHAOS_EPOCH_S: f64 = 4.0;

/// Random crashes (and as many throttles) in fleet_chaos's seeded plan.
const CHAOS_CRASHES: usize = 6;

/// Node ids the seeded plan picks its victims from.
const CHAOS_NODES: usize = 6;

/// The scenario sweep's seasonal scaler (`sizing::seasonal_sweep_scaler`)
/// with its season set to one day on fleet_chaos's epoch grid.
fn seasonal_scaler(realized: &RealizedScenario) -> ForecastScaler {
    let (alpha, beta, gamma) = sizing::SWEEP_SMOOTHING;
    let season = (catalog::DAY_S / CHAOS_EPOCH_S) as usize;
    ForecastScaler::new(Box::new(
        HoltWinters::new(season).with_smoothing(alpha, beta, gamma),
    ))
    .with_lead_epochs(sizing::SWEEP_LEAD_EPOCHS)
    .with_mean_session_s(sizing::trace_mean_session_s(realized))
    .with_sessions_per_node(sizing::SWEEP_SESSIONS_PER_NODE)
    .with_limits(sizing::SWEEP_POOL.0, sizing::SWEEP_POOL.1)
    .with_cooldown(sizing::SWEEP_COOLDOWN_EPOCHS)
}

fn fleet_chaos(seed: u64, scale: Scale, workers: usize, tracer: Option<&Tracer>) -> Outcome {
    let start = Instant::now();
    let scenario = chaos_scenario(seed, scale);
    let realize_start = Instant::now();
    let realized = match scenario.realize() {
        Ok(r) => r,
        Err(e) => {
            return failed(
                0.0,
                0.0,
                format!("fleet_chaos: scenario does not realize: {e}"),
            )
        }
    };
    let realize_s = realize_start.elapsed().as_secs_f64();
    let offered = realized.len() as u64;
    let offered_frames: u64 = realized.arrivals.iter().map(|r| r.frames).sum();
    let store = match teacher_store(scale) {
        Ok(s) => s,
        Err(e) => return failed(0.0, 0.0, format!("fleet_chaos: {e}")),
    };
    let dispatcher = Box::new(LeastLoaded::new());
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(CHAOS_EPOCH_S)
            .with_worker_threads(workers),
        match tracer {
            Some(t) => t.dispatcher(dispatcher),
            None => dispatcher,
        },
        realized.workload(),
    );
    // Every session is seeded from the teacher store; the timing wrapper
    // sits inside `warm_start_factory`, so the seed shows up as a timed
    // `restore` on the wrapped controller.
    let tracer_owned = tracer.cloned();
    let warm_factory = move || {
        let base = session_factory(scale);
        let base = match &tracer_owned {
            Some(t) => t.factory(base),
            None => base,
        };
        warm_start_factory(store.clone(), base)
    };
    for _ in 0..2 {
        fleet.add_node(warm_factory());
    }
    let provisioner: NodeProvisioner =
        Box::new(move || (Platform::xeon_e5_2667_v4(), warm_factory()));
    let scaler = Box::new(seasonal_scaler(&realized));
    match tracer {
        Some(t) => fleet.set_autoscaler(t.autoscaler(scaler), t.provisioner(provisioner)),
        None => fleet.set_autoscaler(scaler, provisioner),
    }
    let rebalancer = Box::new(PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2));
    fleet.set_rebalancer(match tracer {
        Some(t) => t.rebalancer(rebalancer),
        None => rebalancer,
    });
    fleet.set_phase_marks(realized.phase_marks(CHAOS_EPOCH_S));
    fleet.set_checkpoint_policy(CheckpointPolicy::every(3));
    // Faults land in the first third of the run (daily_vod's first day),
    // while the low node ids they name are in service, plus one crash of
    // node 0 at the first day's peak. Later ids come and go with the
    // load, so crashes aimed at them mostly hit retired nodes.
    let epochs = (scenario.horizon_s() / CHAOS_EPOCH_S).ceil() as u64;
    fleet.set_fault_plan(
        FaultPlan::chaos(seed, epochs / 3, CHAOS_NODES, CHAOS_CRASHES)
            .with_crash(epochs / 6, 0)
            .with_replacement_delay(2),
    );
    fleet.set_telemetry(TelemetryMode::Full);
    let setup_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let result = fleet.run();
    let encode_start = Instant::now();
    let trace = fleet.trace();
    let encoded = trace.encode();
    let trace_encode_s = encode_start.elapsed().as_secs_f64();
    let timed_s = start.elapsed().as_secs_f64();

    let summary = match result {
        Ok(s) => s,
        Err(e) => return failed(setup_s, timed_s, format!("fleet_chaos run failed: {e}")),
    };
    let mut failures = Vec::new();
    let retained = check_fleet(
        &mut failures,
        "fleet_chaos",
        &[&summary],
        offered,
        offered_frames,
    );
    check(&mut failures, summary.crashes >= 1, || {
        "fleet_chaos: the fault plan crashed no node".to_owned()
    });
    check(&mut failures, summary.sessions_recovered >= 1, || {
        format!(
            "fleet_chaos: {} crashes recovered no session",
            summary.crashes
        )
    });
    let decode_start = Instant::now();
    let decoded = FleetTrace::decode(&encoded);
    let trace_decode_s = decode_start.elapsed().as_secs_f64();
    match decoded {
        Ok(d) => check(&mut failures, d.encode() == encoded, || {
            "fleet_chaos: trace decode -> encode is not byte-identical".to_owned()
        }),
        Err(e) => failures.push(format!("fleet_chaos: trace does not decode: {e}")),
    }
    check(
        &mut failures,
        trace.len() as u64 == summary.trace_events,
        || {
            format!(
                "fleet_chaos: trace holds {} events, summary counts {}",
                trace.len(),
                summary.trace_events
            )
        },
    );
    let checkpoint = fleet.latest_checkpoint().unwrap_or_default().to_vec();
    let decode_start = Instant::now();
    let bundle = CheckpointBundle::decode(&checkpoint);
    let checkpoint_decode_s = decode_start.elapsed().as_secs_f64();
    if let Err(e) = bundle {
        failures.push(format!(
            "fleet_chaos: latest checkpoint does not decode: {e}"
        ));
    }
    Outcome {
        setup_s,
        timed_s,
        frames: summary.total_frames,
        qos_violation_pct: summary.cluster_violation_percent,
        energy_j: summary.total_energy_j,
        offered,
        served: summary.total_sessions,
        digest: summary.to_string(),
        failures,
        facts: Facts {
            events: 0,
            rate_epochs: fleet.nodes().iter().map(|n| n.server().rate_epochs()).sum(),
            retained_sessions: retained,
            migrations: summary.migrations + summary.drained_sessions,
            overflow_migrations: 0,
            checkpoints: summary.checkpoints,
            frames_redone: summary.frames_redone,
            checkpoint_bytes: checkpoint.len() as u64,
            checkpoint_decode_s,
            trace_events: trace.len() as u64,
            trace_encode_s,
            trace_decode_s,
            realize_s,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::Kind;

    /// The tiny shape with fixed-knob controllers, which replay bit-exactly.
    fn replayable() -> Scale {
        Scale {
            mamut: false,
            ..Scale::tiny()
        }
    }

    /// The wrapped single-worker run reproduces the unwrapped two-worker
    /// run byte for byte, and both pass every check.
    fn assert_transparent(name: Name, scale: Scale) -> crate::ladder::Ladder {
        let plain = run(name, 7, scale, 2, None);
        let tracer = Tracer::new();
        let wrapped = run(name, 7, scale, 1, Some(&tracer));
        assert!(plain.failures.is_empty(), "{:?}", plain.failures);
        assert!(wrapped.failures.is_empty(), "{:?}", wrapped.failures);
        assert_eq!(plain.digest, wrapped.digest, "{}", name.as_str());
        let ladder = tracer.ladder();
        assert!(ladder.calls(Kind::Begin) >= plain.frames);
        // Frames re-done after a crash complete twice.
        assert_eq!(
            ladder.calls(Kind::End),
            plain.frames + plain.facts.frames_redone
        );
        ladder
    }

    #[test]
    fn server_mamut_wrappers_are_transparent() {
        assert_transparent(Name::ServerMamut, replayable());
    }

    #[test]
    fn fleet_burst_wrappers_are_transparent() {
        let ladder = assert_transparent(Name::FleetBurst, Scale::tiny());
        assert!(ladder.calls(Kind::Dispatch) > 0);
        assert!(ladder.admit_gaps > 0);
    }

    #[test]
    fn fleet_chaos_wrappers_are_transparent() {
        let ladder = assert_transparent(Name::FleetChaos, replayable());
        for kind in [
            Kind::Dispatch,
            Kind::Build,
            Kind::Provision,
            Kind::Autoscale,
            Kind::Rebalance,
        ] {
            assert!(ladder.calls(kind) > 0, "no {kind:?} calls");
        }
    }

    #[test]
    fn learning_workloads_pass_their_checks_when_wrapped() {
        for name in [Name::ServerMamut, Name::FleetChaos] {
            let tracer = Tracer::new();
            let outcome = run(name, 3, Scale::tiny(), 1, Some(&tracer));
            assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
            assert_eq!(outcome.served, outcome.offered);
        }
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let scale = Scale::tiny();
        assert_eq!(burst_arrivals(5, 1, scale), burst_arrivals(5, 1, scale));
        assert_ne!(burst_arrivals(5, 1, scale), burst_arrivals(6, 1, scale));
    }
}
