use crate::snapshot::TransitionRecord;

/// Empirical state-transition model `P(s --a--> s')`.
///
/// §IV-A of the paper: the environment is stochastic (content varies, other
/// agents act, other videos share the machine), so every observed transition
/// is counted and `P(s --a--> s') = Num(s --a--> s') / Num(s, a)` is updated
/// throughout learning. Algorithm 1 consumes these probabilities to compute
/// expected Q-values along the agent chain.
///
/// The counts live in one flat, ordered store (compressed sparse rows):
/// each (state, action) pair owns one contiguous run of `(next_state,
/// count)` entries, sorted by next state and found in O(1) through a
/// per-pair offset. Successors therefore iterate in ascending next-state
/// order, which fixes the order of Algorithm 1's floating-point sums and
/// makes its decisions reproducible across processes.
///
/// # Example
///
/// ```
/// let mut t = mamut_core::TransitionModel::new(4, 2);
/// t.record(0, 1, 2);
/// t.record(0, 1, 2);
/// t.record(0, 1, 3);
/// assert_eq!(t.count(0, 1), 3);
/// assert!((t.prob(0, 1, 2) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((t.prob(0, 1, 3) - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(t.prob(0, 1, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionModel {
    n_states: usize,
    n_actions: usize,
    /// Pair `i`'s successors are `entries[start[i]..start[i + 1]]`
    /// (`n_states × n_actions + 1` offsets).
    start: Vec<u32>,
    /// `(next_state, count)` runs, grouped by pair in pair order and
    /// sorted by next state within each pair.
    entries: Vec<(u32, u32)>,
    /// Total visits per (state, action) — the paper's `Num(s, a)`.
    totals: Vec<u32>,
}

impl TransitionModel {
    /// Creates an empty model.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `n_states` exceeds `u32::MAX`.
    pub fn new(n_states: usize, n_actions: usize) -> Self {
        assert!(n_states > 0, "TransitionModel needs at least one state");
        assert!(n_actions > 0, "TransitionModel needs at least one action");
        assert!(
            u32::try_from(n_states).is_ok(),
            "TransitionModel state indices must fit in u32"
        );
        let pairs = n_states * n_actions;
        TransitionModel {
            n_states,
            n_actions,
            start: vec![0; pairs + 1],
            entries: Vec::new(),
            totals: vec![0; pairs],
        }
    }

    #[inline]
    fn idx(&self, state: usize, action: usize) -> usize {
        debug_assert!(state < self.n_states);
        debug_assert!(action < self.n_actions);
        state * self.n_actions + action
    }

    /// The successor run of pair `i`.
    #[inline]
    fn run(&self, i: usize) -> &[(u32, u32)] {
        &self.entries[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// Records one observed transition.
    ///
    /// Counts saturate at `u32::MAX` rather than wrapping — models
    /// restored from visit-weighted knowledge merges (which saturate by
    /// design) can arrive here already near the ceiling.
    pub fn record(&mut self, state: usize, action: usize, next_state: usize) {
        self.record_many(state, action, next_state, 1);
    }

    /// `Num(s, a)` — times `action` was taken in `state`.
    pub fn count(&self, state: usize, action: usize) -> u32 {
        self.totals[self.idx(state, action)]
    }

    /// `P(s --a--> s')`, 0.0 if the pair was never visited.
    pub fn prob(&self, state: usize, action: usize, next_state: usize) -> f64 {
        let i = self.idx(state, action);
        let total = self.totals[i];
        if total == 0 {
            return 0.0;
        }
        let run = self.run(i);
        let n = match run.binary_search_by_key(&next_state, |&(s2, _)| s2 as usize) {
            Ok(k) => run[k].1,
            Err(_) => 0,
        };
        f64::from(n) / f64::from(total)
    }

    /// Iterates over `(next_state, probability)` successors of `(s, a)`,
    /// in ascending next-state order.
    ///
    /// Empty if the pair was never visited. Probabilities sum to 1 otherwise.
    pub fn successors(
        &self,
        state: usize,
        action: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let i = self.idx(state, action);
        let total = self.totals[i];
        self.run(i).iter().map(move |&(s2, n)| {
            let p = if total == 0 {
                0.0
            } else {
                f64::from(n) / f64::from(total)
            };
            (s2 as usize, p)
        })
    }

    /// Number of distinct successors observed for `(s, a)`.
    pub fn successor_count(&self, state: usize, action: usize) -> usize {
        self.run(self.idx(state, action)).len()
    }

    /// Every recorded transition as `(state, action, next_state, count)`,
    /// in ascending order — the canonical order portable snapshots
    /// serialize, and the store's own layout, so nothing is sorted here.
    pub fn records(&self) -> Vec<(usize, usize, usize, u32)> {
        self.iter_records().collect()
    }

    /// [`TransitionModel::records`] without collecting.
    pub(crate) fn iter_records(&self) -> impl Iterator<Item = (usize, usize, usize, u32)> + '_ {
        (0..self.totals.len()).flat_map(move |i| {
            let (state, action) = (i / self.n_actions, i % self.n_actions);
            self.run(i)
                .iter()
                .map(move |&(next, count)| (state, action, next as usize, count))
        })
    }

    /// Adds `count` observations of `(state, action) → next_state` in one
    /// step.
    ///
    /// A successor not seen before is inserted in place, which shifts the
    /// entries and offsets behind it: O(entries + pairs), but models stay
    /// small (a few hundred entries per agent after the paper's
    /// pretraining) and a new successor is rare next to a repeated one.
    pub fn record_many(&mut self, state: usize, action: usize, next_state: usize, count: u32) {
        debug_assert!(next_state < self.n_states);
        let i = self.idx(state, action);
        let lo = self.start[i] as usize;
        let key = next_state as u32;
        match self.run(i).binary_search_by_key(&key, |&(s2, _)| s2) {
            Ok(k) => {
                let slot = &mut self.entries[lo + k].1;
                *slot = slot.saturating_add(count);
            }
            Err(k) => {
                assert!(
                    self.entries.len() < u32::MAX as usize,
                    "TransitionModel holds at most u32::MAX successors"
                );
                self.entries.insert(lo + k, (key, count));
                for offset in &mut self.start[i + 1..] {
                    *offset += 1;
                }
            }
        }
        self.totals[i] = self.totals[i].saturating_add(count);
    }

    /// Replaces the model's contents with `records`, as if it were
    /// cleared and every record were added with
    /// [`TransitionModel::record_many`].
    ///
    /// Records in strictly ascending `(state, action, next_state)` order —
    /// what [`TransitionModel::records`] and the snapshot codec produce —
    /// load in one pass with no per-record search. Any other order, and
    /// repeated transitions, go through a sort-and-merge first.
    ///
    /// # Panics
    ///
    /// Panics if a record's state, action or next state is out of range.
    pub fn load_records(&mut self, records: &[TransitionRecord]) {
        let key = |t: &TransitionRecord| (t.state, t.action, t.next_state);
        let mut canonical = true;
        for (k, t) in records.iter().enumerate() {
            assert!(
                (t.state as usize) < self.n_states
                    && (t.next_state as usize) < self.n_states
                    && (t.action as usize) < self.n_actions,
                "transition record out of range"
            );
            canonical &= k == 0 || key(&records[k - 1]) < key(t);
        }
        if canonical {
            self.load_canonical(records);
        } else {
            let mut merged = records.to_vec();
            merged.sort_unstable_by_key(key);
            merged.dedup_by(|later, kept| {
                let same = key(later) == key(kept);
                if same {
                    kept.count = kept.count.saturating_add(later.count);
                }
                same
            });
            self.load_canonical(&merged);
        }
    }

    /// Builds the store from in-range records in strictly ascending order.
    fn load_canonical(&mut self, records: &[TransitionRecord]) {
        assert!(
            records.len() <= u32::MAX as usize,
            "TransitionModel holds at most u32::MAX successors"
        );
        self.clear();
        self.entries
            .extend(records.iter().map(|t| (t.next_state, t.count)));
        for t in records {
            let i = t.state as usize * self.n_actions + t.action as usize;
            self.start[i + 1] += 1;
            self.totals[i] = self.totals[i].saturating_add(t.count);
        }
        for i in 1..self.start.len() {
            self.start[i] += self.start[i - 1];
        }
    }

    /// Resets the model to empty.
    pub fn clear(&mut self) {
        self.start.fill(0);
        self.entries.clear();
        self.totals.fill(0);
    }

    /// Number of states this model covers.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions this model covers.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_pairs_have_zero_probability_everywhere() {
        let t = TransitionModel::new(3, 2);
        assert_eq!(t.count(0, 0), 0);
        assert_eq!(t.prob(0, 0, 1), 0.0);
        assert_eq!(t.successors(0, 0).count(), 0);
    }

    #[test]
    fn probabilities_normalize() {
        let mut t = TransitionModel::new(5, 1);
        for s2 in [1usize, 1, 2, 3, 3, 3] {
            t.record(0, 0, s2);
        }
        let sum: f64 = t.successors(0, 0).map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((t.prob(0, 0, 3) - 0.5).abs() < 1e-12);
        assert_eq!(t.successor_count(0, 0), 3);
    }

    #[test]
    fn counts_are_per_state_action_pair() {
        let mut t = TransitionModel::new(3, 2);
        t.record(0, 0, 1);
        t.record(0, 1, 2);
        t.record(1, 0, 0);
        assert_eq!(t.count(0, 0), 1);
        assert_eq!(t.count(0, 1), 1);
        assert_eq!(t.count(1, 0), 1);
        assert_eq!(t.count(1, 1), 0);
    }

    #[test]
    fn deterministic_transition_has_probability_one() {
        let mut t = TransitionModel::new(2, 1);
        for _ in 0..10 {
            t.record(0, 0, 1);
        }
        assert_eq!(t.prob(0, 0, 1), 1.0);
        assert_eq!(t.prob(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_states_panics() {
        let _ = TransitionModel::new(0, 1);
    }

    #[test]
    fn self_transitions_are_allowed() {
        let mut t = TransitionModel::new(2, 1);
        t.record(1, 0, 1);
        assert_eq!(t.prob(1, 0, 1), 1.0);
    }
}
