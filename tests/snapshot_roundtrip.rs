//! Portable-snapshot invariants: the binary codec must round-trip
//! byte-identically for arbitrary learned state, and a restored
//! controller must be indistinguishable from the original.

use mamut::control::snapshot::{AgentSnapshot, PolicySnapshot, SnapshotError, TransitionRecord};
use mamut::control::{AgentKind, STATE_COUNT};
use mamut::prelude::*;
use proptest::prelude::*;

/// Builds a pseudo-random agent table from proptest-drawn scalars. The
/// generator mixes the drawn seed so every case explores a different
/// table, while staying a pure function of the inputs.
fn synth_agent(seed: u64, n_states: usize, n_actions: usize, fill: usize) -> AgentSnapshot {
    let mut x = seed | 1;
    let mut next = move || {
        // SplitMix64 step: cheap, deterministic, well mixed.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let q = (0..n_states * n_actions)
        .map(|_| (next() as i64 as f64) / (1u64 << 40) as f64)
        .collect();
    let action_counts = (0..n_actions).map(|_| (next() % 500) as u32).collect();
    let transitions = (0..fill)
        .map(|_| TransitionRecord {
            state: (next() % n_states as u64) as u32,
            action: (next() % n_actions as u64) as u32,
            next_state: (next() % n_states as u64) as u32,
            count: (next() % 200 + 1) as u32,
        })
        .collect();
    AgentSnapshot {
        kind: AgentKind::Qp,
        n_states: n_states as u32,
        n_actions: n_actions as u32,
        q,
        action_counts,
        transitions,
    }
}

proptest! {
    #[test]
    fn encode_decode_encode_is_byte_identical(
        seed in 0u64..u64::MAX,
        n_states in 1usize..40,
        n_actions in 1usize..16,
        fill in 0usize..64,
        qp in 0u8..52,
        threads in 1u32..16,
    ) {
        let snap = PolicySnapshot {
            controller: "prop".into(),
            knobs: KnobSettings::new(qp, threads, 2.6),
            exploration_decisions: seed % 10_000,
            exploitation_decisions: seed % 7_777,
            agents: vec![
                synth_agent(seed, n_states, n_actions, fill),
                synth_agent(seed ^ 0xABCD, n_actions, n_states, fill / 2),
            ],
            extra: seed.to_le_bytes().to_vec(),
        };
        let bytes = snap.to_bytes();
        let decoded = PolicySnapshot::from_bytes(&bytes).unwrap();
        let reencoded = decoded.to_bytes();
        prop_assert_eq!(&bytes, &reencoded);
        // And a second decode sees the very same structure.
        prop_assert_eq!(decoded, PolicySnapshot::from_bytes(&reencoded).unwrap());
    }

    #[test]
    fn truncated_streams_never_decode(
        seed in 0u64..u64::MAX,
        fill in 0usize..32,
        cut_back in 1usize..48,
    ) {
        let snap = PolicySnapshot {
            controller: "prop".into(),
            knobs: KnobSettings::new(32, 4, 2.6),
            exploration_decisions: 1,
            exploitation_decisions: 2,
            agents: vec![synth_agent(seed, 12, 5, fill)],
            extra: vec![7; (seed % 9) as usize],
        };
        let bytes = snap.to_bytes();
        let cut = bytes.len().saturating_sub(cut_back);
        prop_assert!(PolicySnapshot::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn trained_mamut_snapshot_round_trips_exactly(
        seed in 0u64..1_000,
        frames in 100u64..1_500,
    ) {
        let cfg = MamutConfig::paper_hr().with_seed(seed);
        let mut ctl = MamutController::new(cfg).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..frames {
            let o = Observation {
                fps: 20.0 + (f % 11) as f64,
                psnr_db: 30.0 + (f % 7) as f64,
                bitrate_mbps: 2.0 + (f % 5) as f64,
                power_w: 70.0 + (f % 13) as f64,
            };
            ctl.begin_frame(f, &o, &c);
            ctl.end_frame(f, &o, &c);
        }
        let snap = Controller::snapshot(&ctl);
        let bytes = snap.to_bytes();
        let decoded = PolicySnapshot::from_bytes(&bytes).unwrap();
        prop_assert_eq!(decoded.to_bytes(), bytes);
        prop_assert_eq!(decoded.agents.len(), 3);
        for agent in &decoded.agents {
            prop_assert_eq!(agent.n_states as usize, STATE_COUNT);
        }
    }
}

/// The restored-controller equivalence the tentpole hangs on, end to
/// end through the byte codec: identical decisions from the cut frame
/// onward, driven through a full transcoding session rather than
/// synthetic observations.
#[test]
fn restored_controller_is_indistinguishable_inside_a_server() {
    let spec = catalog::by_name("Kimono")
        .unwrap()
        .with_frame_count(600)
        .unwrap();
    let run = |controller: Box<dyn Controller>| {
        let mut server = ServerSim::with_default_platform();
        let id = server.add_session(SessionConfig::single_video(spec.clone(), 4), controller);
        server.run_to_completion(1_000_000).unwrap();
        let summary = server.summary();
        (
            summary.sessions[id].mean_fps,
            summary.sessions[id].mean_psnr_db,
            summary.duration_s,
            server.into_controllers().remove(0).snapshot().to_bytes(),
        )
    };

    // Train a controller over the first half of the stream.
    let mut trainer = ServerSim::with_default_platform();
    let half = catalog::by_name("Kimono")
        .unwrap()
        .with_frame_count(300)
        .unwrap();
    let cfg = MamutConfig::paper_hr().with_seed(8);
    trainer.add_session(
        SessionConfig::single_video(half, 4),
        Box::new(MamutController::new(cfg.clone()).unwrap()),
    );
    trainer.run_to_completion(1_000_000).unwrap();
    let trained = trainer.into_controllers().remove(0);
    let bytes = trained.snapshot().to_bytes();

    // Clone it through the codec and race the two over the same video.
    let revive = || {
        let snap = PolicySnapshot::from_bytes(&bytes).unwrap();
        let mut ctl = MamutController::new(cfg.clone()).unwrap();
        ctl.restore(&snap).unwrap();
        Box::new(ctl) as Box<dyn Controller>
    };
    assert_eq!(run(revive()), run(revive()));
}

#[test]
fn decode_rejects_garbage_and_wrong_versions() {
    assert_eq!(
        PolicySnapshot::from_bytes(b"garbage"),
        Err(SnapshotError::BadMagic)
    );
    let good = PolicySnapshot::tableless("fixed", KnobSettings::new(32, 4, 2.6)).to_bytes();
    let mut versioned = good.clone();
    versioned[8] = 0x7F; // inflate the version field past SNAPSHOT_VERSION
    assert!(matches!(
        PolicySnapshot::from_bytes(&versioned),
        Err(SnapshotError::UnsupportedVersion(_))
    ));
    assert!(PolicySnapshot::from_bytes(&good).is_ok());
}

/// One encoded stream of each of the seven framed formats, with its
/// decoder (errors only; the decoded value is not needed here).
type Decoder = Box<dyn Fn(&[u8]) -> Result<(), SnapshotError>>;

fn framed_formats() -> Vec<(&'static str, Vec<u8>, Decoder)> {
    use mamut::fleet::{
        CheckpointBundle, Forecaster, HoltWinters, KnowledgeStore, MergePolicy, NodeCheckpoint,
        SessionCheckpoint, SessionClass, SessionRequest,
    };
    let policy = PolicySnapshot {
        controller: "mamut".into(),
        knobs: KnobSettings::new(32, 4, 2.6),
        exploration_decisions: 3,
        exploitation_decisions: 5,
        agents: vec![synth_agent(7, 3, 2, 4)],
        extra: vec![1, 2],
    };
    let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
    store.publish(SessionClass::Hr, &policy.clone().into_knowledge());
    let mut forecaster = HoltWinters::new(3);
    for arrivals in [4, 9, 2, 7, 5] {
        forecaster.observe(arrivals, 1.0);
    }
    let request = |id: u64| SessionRequest {
        id,
        arrival_s: id as f64,
        hr: id.is_multiple_of(2),
        live: false,
        frames: 100,
        seed: id,
    };
    let scenario = RealizedScenario {
        name: "steady".into(),
        seed: 3,
        horizon_s: 10.0,
        arrivals: vec![request(1), request(2)],
        marks: vec![(0.0, "steady".into())],
    };
    let fleet_policy = FleetPolicy::new(4, 11);
    let bundle = CheckpointBundle {
        epoch: 6,
        nodes: vec![NodeCheckpoint {
            node: 1,
            sessions: vec![SessionCheckpoint {
                request: request(4),
                frames_completed: 20,
                bytes: vec![7, 7, 7],
            }],
        }],
        knowledge: Some(vec![1]),
    };
    let trace = FleetTrace {
        epoch_s: 2.0,
        dropped_epochs: 0,
        events: vec![TracedEvent {
            epoch: 0,
            at_us: 0,
            shard: 0,
            event: TelemetryEvent::NodeRetire {
                node: 2,
                sessions_drained: 1,
            },
        }],
    };
    vec![
        (
            "MAMUTPS",
            policy.to_bytes(),
            Box::new(|b: &[u8]| PolicySnapshot::from_bytes(b).map(drop)),
        ),
        (
            "MAMUTKS",
            store.snapshot(),
            Box::new(|b: &[u8]| KnowledgeStore::restore(b).map(drop)),
        ),
        (
            "MAMUTFC",
            forecaster.snapshot_state(),
            Box::new(|b: &[u8]| HoltWinters::new(3).restore_state(b)),
        ),
        (
            "MAMUTSC",
            scenario.to_bytes(),
            Box::new(|b: &[u8]| RealizedScenario::from_bytes(b).map(drop)),
        ),
        (
            "MAMUTFP",
            fleet_policy.snapshot_state(),
            Box::new(|b: &[u8]| FleetPolicy::new(4, 0).restore_state(b)),
        ),
        (
            "MAMUTCK",
            bundle.encode(),
            Box::new(|b: &[u8]| CheckpointBundle::decode(b).map(drop)),
        ),
        (
            "MAMUTTL",
            trace.encode(),
            Box::new(|b: &[u8]| FleetTrace::decode(b).map(drop)),
        ),
    ]
}

#[test]
fn every_framed_format_rejects_bad_frames_alike() {
    for (name, bytes, decode) in framed_formats() {
        assert_eq!(&bytes[..7], name.as_bytes(), "{name}: magic");
        assert_eq!(decode(&bytes), Ok(()), "{name}: the good stream decodes");

        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(decode(&wrong_magic), Err(SnapshotError::BadMagic), "{name}");

        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        let mut newer = bytes.clone();
        newer[8..10].copy_from_slice(&(version + 1).to_le_bytes());
        assert_eq!(
            decode(&newer),
            Err(SnapshotError::UnsupportedVersion(version + 1)),
            "{name}"
        );

        for cut in 0..bytes.len() {
            let result = decode(&bytes[..cut]);
            if cut < 8 {
                // A prefix of the magic is not the magic.
                assert_eq!(result, Err(SnapshotError::BadMagic), "{name}: {cut} bytes");
            } else {
                assert!(result.is_err(), "{name}: {cut}-byte prefix decoded");
            }
        }

        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode(&longer).is_err(), "{name}: trailing byte accepted");
    }
}

#[test]
fn a_crafted_checkpoint_count_is_truncation_not_an_allocation() {
    use mamut::fleet::{CheckpointBundle, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
    let header = |counts: &[u32]| {
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&12u64.to_le_bytes()); // epoch
        for (i, &count) in counts.iter().enumerate() {
            if i > 0 {
                bytes.extend_from_slice(&0u64.to_le_bytes()); // node id
            }
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes
    };
    // Magic, version, epoch, then `n_nodes = u32::MAX`: 22 bytes that
    // once asked `Vec::with_capacity` for ~137 GB and aborted.
    let bytes = header(&[u32::MAX]);
    assert_eq!(bytes.len(), 22);
    assert_eq!(
        CheckpointBundle::decode(&bytes),
        Err(SnapshotError::Truncated)
    );
    // The same guard holds one level down, at a node's session count.
    assert_eq!(
        CheckpointBundle::decode(&header(&[1, u32::MAX])),
        Err(SnapshotError::Truncated)
    );
}
