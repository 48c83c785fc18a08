//! Reproducibility: identical seeds must give bit-identical results across
//! the whole stack (content, learning, event loop, metrics).

use mamut::prelude::*;
use mamut::transcode::homogeneous_sessions;

fn mamut_config(cfg: &SessionConfig, seed: u64) -> MamutConfig {
    let is_hr = cfg
        .playlist
        .get(0)
        .expect("non-empty")
        .resolution()
        .is_high_resolution();
    if is_hr {
        MamutConfig::paper_hr()
    } else {
        MamutConfig::paper_lr()
    }
    .with_seed(seed)
}

fn run_sessions(
    sessions: Vec<SessionConfig>,
    controllers: Vec<Box<dyn Controller>>,
) -> (RunSummary, Vec<Box<dyn Controller>>) {
    let mut server = ServerSim::with_default_platform();
    for (cfg, ctl) in sessions.into_iter().zip(controllers) {
        server.add_session(cfg, ctl);
    }
    let summary = server.run_to_completion(10_000_000).expect("run completes");
    (summary, server.into_controllers())
}

fn fresh_controllers(sessions: &[SessionConfig], seed: u64) -> Vec<Box<dyn Controller>> {
    sessions
        .iter()
        .enumerate()
        .map(|(i, cfg)| {
            let mcfg = mamut_config(cfg, seed + i as u64);
            Box::new(MamutController::new(mcfg).expect("valid")) as Box<dyn Controller>
        })
        .collect()
}

fn full_run(seed: u64) -> RunSummary {
    let sessions = homogeneous_sessions(MixSpec::new(2, 1), 150, seed);
    let controllers = fresh_controllers(&sessions, seed);
    run_sessions(sessions, controllers).0
}

/// The paper's 2 HR + 4 LR mix, its controllers pretrained for 8 000
/// frames per stream before a 3 000-frame measured run. Returns the
/// measured run and the number of decisions it took outside exploration.
fn pretrained_run(seed: u64) -> (RunSummary, u64) {
    let mix = MixSpec::new(2, 4);
    let warm = homogeneous_sessions(mix, 8_000, seed + 50_000);
    let controllers = fresh_controllers(&warm, seed);
    let (_, trained) = run_sessions(warm, controllers);
    let (summary, trained) = run_sessions(homogeneous_sessions(mix, 3_000, seed), trained);
    let exploiting = trained
        .iter()
        .map(|c| {
            c.as_any()
                .downcast_ref::<MamutController>()
                .expect("mamut controller")
                .exploitation_decisions()
        })
        .sum();
    (summary, exploiting)
}

fn assert_same_run(a: &RunSummary, b: &RunSummary) {
    assert_eq!(a.duration_s, b.duration_s);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.sessions.len(), b.sessions.len());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x, y);
    }
}

#[test]
fn identical_seeds_are_bit_identical() {
    assert_same_run(&full_run(77), &full_run(77));

    // The short cold run above never leaves exploration, so it never
    // reaches Algorithm 1's cooperative choice, which sums p·V over each
    // (state, action) pair's successors. Pretrained controllers do. On
    // these seeds, summing in hash-map order made repeated runs in one
    // process pick different actions.
    for seed in [70, 99, 102] {
        let (first, exploiting) = pretrained_run(seed);
        assert!(exploiting > 0, "seed {seed}: no decision left exploration");
        for _ in 0..3 {
            let (again, _) = pretrained_run(seed);
            assert_same_run(&first, &again);
        }
    }
}

#[test]
fn different_seeds_differ() {
    let a = full_run(78);
    let b = full_run(79);
    assert_ne!(
        (a.duration_s, a.energy_j),
        (b.duration_s, b.energy_j),
        "different seeds should explore differently"
    );
}

#[test]
fn heuristic_is_deterministic_without_any_seed() {
    let run = || {
        let mut server = ServerSim::with_default_platform();
        for cfg in homogeneous_sessions(MixSpec::new(1, 1), 120, 5) {
            let is_hr = cfg
                .playlist
                .get(0)
                .expect("non-empty")
                .resolution()
                .is_high_resolution();
            let hcfg = if is_hr {
                HeuristicConfig::paper_hr()
            } else {
                HeuristicConfig::paper_lr()
            };
            server.add_session(
                cfg,
                Box::new(HeuristicController::new(hcfg).expect("valid")),
            );
        }
        server.run_to_completion(10_000_000).expect("run completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.sessions, b.sessions);
}
