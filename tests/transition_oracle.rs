//! The flat transition model against a naive ordered-map oracle.
//!
//! `TransitionModel` keeps its counts in one compressed-sparse-row store.
//! These properties drive it and a `BTreeMap<(s, a, s'), u32>` reference
//! through the same random `record`/`record_many` sequences and bulk
//! loads (canonical, shuffled and with repeated transitions) and require
//! every read to agree exactly, successors in ascending order included.

use std::collections::BTreeMap;

use mamut::control::snapshot::{AgentSnapshot, PolicySnapshot, TransitionRecord};
use mamut::control::{Agent, AgentKind, LearningRateParams, TransitionModel};
use mamut::prelude::*;
use proptest::prelude::*;

/// SplitMix64: the case's whole input is a pure function of its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Mostly small counts, with zeros and near-saturating ones mixed in.
    fn count(&mut self) -> u32 {
        match self.below(10) {
            0 => 0,
            1 => u32::MAX - self.below(3) as u32,
            _ => 1 + self.below(5) as u32,
        }
    }
}

/// The reference: successor counts and `Num(s, a)` in ordered maps, with
/// `record_many`'s saturating semantics.
#[derive(Default)]
struct Oracle {
    counts: BTreeMap<(usize, usize, usize), u32>,
    totals: BTreeMap<(usize, usize), u32>,
}

impl Oracle {
    fn record_many(&mut self, s: usize, a: usize, s2: usize, n: u32) {
        let c = self.counts.entry((s, a, s2)).or_insert(0);
        *c = c.saturating_add(n);
        let t = self.totals.entry((s, a)).or_insert(0);
        *t = t.saturating_add(n);
    }

    fn records(&self) -> Vec<(usize, usize, usize, u32)> {
        self.counts
            .iter()
            .map(|(&(s, a, s2), &n)| (s, a, s2, n))
            .collect()
    }
}

fn record(s: usize, a: usize, s2: usize, count: u32) -> TransitionRecord {
    TransitionRecord {
        state: s as u32,
        action: a as u32,
        next_state: s2 as u32,
        count,
    }
}

/// Random records for a bulk load. `mode` 1 gives canonical order, 2 a
/// shuffle of distinct transitions, 3 a shuffle with repeats.
fn bulk_records(
    rng: &mut Mix,
    n_states: usize,
    n_actions: usize,
    mode: u8,
) -> Vec<TransitionRecord> {
    let mut distinct = BTreeMap::new();
    for _ in 0..rng.below(4 * n_states * n_actions + 1) {
        let key = (
            rng.below(n_states),
            rng.below(n_actions),
            rng.below(n_states),
        );
        distinct.insert(key, rng.count());
    }
    let mut records: Vec<TransitionRecord> = distinct
        .into_iter()
        .map(|((s, a, s2), n)| record(s, a, s2, n))
        .collect();
    if mode == 3 && !records.is_empty() {
        for _ in 0..rng.below(records.len() + 1) {
            let mut dup = records[rng.below(records.len())];
            dup.count = rng.count();
            records.push(dup);
        }
    }
    if mode >= 2 {
        for i in (1..records.len()).rev() {
            records.swap(i, rng.below(i + 1));
        }
    }
    records
}

fn check_agrees(model: &TransitionModel, oracle: &Oracle) -> Result<(), String> {
    let (n_states, n_actions) = (model.n_states(), model.n_actions());
    for s in 0..n_states {
        for a in 0..n_actions {
            let total = oracle.totals.get(&(s, a)).copied().unwrap_or(0);
            prop_assert_eq!(model.count(s, a), total, "count({}, {})", s, a);
            let expected: Vec<(usize, f64)> = oracle
                .counts
                .range((s, a, 0)..(s, a, n_states))
                .map(|(&(_, _, s2), &n)| {
                    let p = if total == 0 {
                        0.0
                    } else {
                        f64::from(n) / f64::from(total)
                    };
                    (s2, p)
                })
                .collect();
            let got: Vec<(usize, f64)> = model.successors(s, a).collect();
            prop_assert_eq!(&got, &expected, "successors({}, {})", s, a);
            prop_assert_eq!(model.successor_count(s, a), expected.len());
            for s2 in 0..n_states {
                let n = oracle.counts.get(&(s, a, s2)).copied().unwrap_or(0);
                let p = if total == 0 {
                    0.0
                } else {
                    f64::from(n) / f64::from(total)
                };
                prop_assert_eq!(model.prob(s, a, s2), p, "prob({}, {}, {})", s, a, s2);
            }
        }
    }
    prop_assert_eq!(model.records(), oracle.records());
    Ok(())
}

fn agent(n_states: usize, n_actions: usize) -> Agent {
    Agent::new(
        AgentKind::Qp,
        n_states,
        n_actions,
        LearningRateParams::paper_defaults(),
        0.6,
    )
}

fn encode(agent: &Agent) -> Vec<u8> {
    PolicySnapshot {
        controller: "oracle".into(),
        knobs: KnobSettings::new(32, 4, 2.6),
        exploration_decisions: 0,
        exploitation_decisions: 0,
        agents: vec![agent.to_snapshot()],
        extra: Vec::new(),
    }
    .to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn flat_model_matches_ordered_map_oracle(
        seed in 0u64..u64::MAX,
        n_states in 1usize..12,
        n_actions in 1usize..6,
        ops in 0usize..120,
        mode in 0u8..4,
    ) {
        let mut rng = Mix(seed);
        let mut model = TransitionModel::new(n_states, n_actions);
        let mut oracle = Oracle::default();
        if mode > 0 {
            let records = bulk_records(&mut rng, n_states, n_actions, mode);
            // Loading replaces whatever the model held before.
            model.record(0, 0, 0);
            model.load_records(&records);
            for t in &records {
                oracle.record_many(
                    t.state as usize,
                    t.action as usize,
                    t.next_state as usize,
                    t.count,
                );
            }
            check_agrees(&model, &oracle)?;
        }
        for _ in 0..ops {
            let (s, a, s2) = (
                rng.below(n_states),
                rng.below(n_actions),
                rng.below(n_states),
            );
            if rng.below(2) == 0 {
                model.record(s, a, s2);
                oracle.record_many(s, a, s2, 1);
            } else {
                let n = rng.count();
                model.record_many(s, a, s2, n);
                oracle.record_many(s, a, s2, n);
            }
        }
        check_agrees(&model, &oracle)?;

        // Reloading the model's own records rebuilds an equal model.
        let own: Vec<TransitionRecord> = model
            .records()
            .into_iter()
            .map(|(s, a, s2, n)| record(s, a, s2, n))
            .collect();
        let mut reloaded = TransitionModel::new(n_states, n_actions);
        reloaded.load_records(&own);
        prop_assert!(reloaded == model);
        model.clear();
        check_agrees(&model, &Oracle::default())?;
    }

    #[test]
    fn snapshot_restore_snapshot_is_byte_identical(
        seed in 0u64..u64::MAX,
        n_states in 1usize..12,
        n_actions in 1usize..6,
        mode in 1u8..4,
    ) {
        let mut rng = Mix(seed);
        let records = bulk_records(&mut rng, n_states, n_actions, mode);
        let mut oracle = Oracle::default();
        for t in &records {
            oracle.record_many(
                t.state as usize,
                t.action as usize,
                t.next_state as usize,
                t.count,
            );
        }
        let snap = AgentSnapshot {
            kind: AgentKind::Qp,
            n_states: n_states as u32,
            n_actions: n_actions as u32,
            q: (0..n_states * n_actions).map(|i| i as f64 * 0.25).collect(),
            action_counts: (0..n_actions).map(|a| a as u32).collect(),
            transitions: records,
        };
        let mut first = agent(n_states, n_actions);
        first.restore_snapshot(&snap).expect("shape fits");
        check_agrees(first.transitions(), &oracle)?;
        let bytes = encode(&first);

        let decoded = PolicySnapshot::from_bytes(&bytes).expect("decodes");
        let mut second = agent(n_states, n_actions);
        second.restore_snapshot(&decoded.agents[0]).expect("shape fits");
        prop_assert!(second.transitions() == first.transitions());
        prop_assert_eq!(encode(&second), bytes);
    }
}
