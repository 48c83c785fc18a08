//! The layer ladder: timing wrappers around the extension traits the
//! program calls back into, and the rule that turns their spans into
//! per-layer self time and attributed gaps.
//!
//! Every wrapper forwards each trait method to the wrapped value
//! unchanged, so a wrapped run makes exactly the decisions an unwrapped
//! one makes; it only stamps `Instant`s around the calls and folds each
//! span into a shared [`Ladder`]. Spans are folded as they arrive rather
//! than stored, so a traced run of millions of frames keeps a constant
//! footprint.
//!
//! # Gap rule
//!
//! Time *between* two consecutive calls of the same layer on the same
//! thread belongs to the phase that makes those calls: between two
//! controller calls it is the transcode engine (the advance phase runs
//! on its own thread each epoch, so a thread change ends the chain),
//! between two dispatch calls it is admission plus the `NodeView`
//! refresh of the dispatch round. Session-lifecycle calls (controller
//! construction, `restore`, `snapshot`, node provisioning) run nested
//! inside those gaps; they are charged to the lifecycle layer and
//! subtracted from the gap that contains them. A call of any other
//! layer ends the chain, so a gap never spans two phases. Whatever no
//! span or gap claims is reported as unattributed coordinator time.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mamut::control::{Constraints, Controller, KnobSettings, Observation};
use mamut::control::{PolicySnapshot, SnapshotError};
use mamut::fleet::{
    Autoscaler, ControllerFactory, DispatchDecision, Dispatcher, MigrationDirective,
    NodeProvisioner, NodeView, PolicySource, Rebalancer, ScaleDecision, ScaleSignals,
    SessionRequest,
};

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Controller::begin_frame`.
    Begin,
    /// `Controller::end_frame`.
    End,
    /// `Dispatcher::dispatch`.
    Dispatch,
    /// A controller factory call (session construction).
    Build,
    /// A `NodeProvisioner` call (node commissioning).
    Provision,
    /// `Controller::restore` (warm-start seed or crash recovery).
    Restore,
    /// `Controller::snapshot` (knowledge publish or checkpoint capture).
    Snapshot,
    /// `Autoscaler::plan`.
    Autoscale,
    /// `Rebalancer::plan`.
    Rebalance,
}

/// Span families that chain: consecutive spans of one family on one
/// thread charge the time between them to the family's calling phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Core,
    Dispatch,
    Autoscale,
    Rebalance,
}

impl Kind {
    /// `None` for lifecycle spans, which nest inside other families' gaps.
    fn family(self) -> Option<Family> {
        match self {
            Kind::Begin | Kind::End => Some(Family::Core),
            Kind::Dispatch => Some(Family::Dispatch),
            Kind::Autoscale => Some(Family::Autoscale),
            Kind::Rebalance => Some(Family::Rebalance),
            Kind::Build | Kind::Provision | Kind::Restore | Kind::Snapshot => None,
        }
    }

    const ALL: [Kind; 9] = [
        Kind::Begin,
        Kind::End,
        Kind::Dispatch,
        Kind::Build,
        Kind::Provision,
        Kind::Restore,
        Kind::Snapshot,
        Kind::Autoscale,
        Kind::Rebalance,
    ];

    fn index(self) -> usize {
        Kind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("every kind is listed")
    }
}

/// One timed call: nanoseconds since the ladder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Calling thread (see [`thread_tag`]).
    pub thread: u64,
    /// Call entry.
    pub start_ns: u64,
    /// Call return.
    pub end_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct Chain {
    family: Family,
    thread: u64,
    end_ns: u64,
}

/// Running totals folded from spans.
#[derive(Debug, Clone, Default)]
pub struct Ladder {
    calls: [u64; 9],
    self_ns: [u64; 9],
    /// Engine time: gaps between consecutive controller calls.
    pub transcode_gap_ns: u64,
    /// Admission time: gaps between consecutive dispatch calls.
    pub admit_gap_ns: u64,
    /// Admission gaps counted (dispatch calls that continued a round).
    pub admit_gaps: u64,
    /// `begin_frame` calls that returned new knobs.
    pub knob_changes: u64,
    /// Start of every autoscaler call (epoch cadence).
    pub autoscale_starts_ns: Vec<u64>,
    chain: Option<Chain>,
    nested_ns: u64,
}

impl Ladder {
    /// Folds one span in arrival order.
    pub fn push(&mut self, span: Span) {
        let dur = span.end_ns.saturating_sub(span.start_ns);
        let k = span.kind.index();
        self.calls[k] += 1;
        self.self_ns[k] += dur;
        if span.kind == Kind::Autoscale {
            self.autoscale_starts_ns.push(span.start_ns);
        }
        let Some(family) = span.kind.family() else {
            self.nested_ns += dur;
            return;
        };
        if let Some(prev) = self.chain {
            if prev.family == family && prev.thread == span.thread {
                let gap = span
                    .start_ns
                    .saturating_sub(prev.end_ns)
                    .saturating_sub(self.nested_ns);
                match family {
                    Family::Core => self.transcode_gap_ns += gap,
                    Family::Dispatch => {
                        self.admit_gap_ns += gap;
                        self.admit_gaps += 1;
                    }
                    // Between two planning calls lies a whole epoch: the
                    // cadence is reported, the time is not claimed.
                    Family::Autoscale | Family::Rebalance => {}
                }
            }
        }
        self.chain = Some(Chain {
            family,
            thread: span.thread,
            end_ns: span.end_ns,
        });
        self.nested_ns = 0;
    }

    /// Calls of `kind` folded so far.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.calls[kind.index()]
    }

    /// Total time inside calls of `kind`.
    pub fn self_ns(&self, kind: Kind) -> u64 {
        self.self_ns[kind.index()]
    }

    /// Total time inside lifecycle calls.
    pub fn lifecycle_ns(&self) -> u64 {
        [Kind::Build, Kind::Provision, Kind::Restore, Kind::Snapshot]
            .iter()
            .map(|k| self.self_ns(*k))
            .sum()
    }
}

/// A small per-thread tag: cheaper than `std::thread::current().id()`
/// and never reused within a process.
pub fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static TAG: Cell<u64> = const { Cell::new(0) });
    TAG.with(|tag| {
        if tag.get() == 0 {
            tag.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        tag.get()
    })
}

/// Shared handle the wrappers record into.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    ladder: Arc<Mutex<Ladder>>,
}

impl Tracer {
    /// A tracer whose span times count from now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            ladder: Arc::new(Mutex::new(Ladder::default())),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&self, kind: Kind, start: Instant, end: Instant, knob_change: bool) {
        let span = Span {
            kind,
            thread: thread_tag(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        let mut ladder = self.ladder.lock().expect("ladder lock poisoned");
        ladder.push(span);
        if knob_change {
            ladder.knob_changes += 1;
        }
    }

    /// A copy of the totals so far.
    pub fn ladder(&self) -> Ladder {
        self.ladder.lock().expect("ladder lock poisoned").clone()
    }

    /// Times `f` as one span of `kind`.
    fn time<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(kind, start, Instant::now(), false);
        out
    }

    /// Wraps a controller.
    pub fn controller(&self, inner: Box<dyn Controller>) -> Box<dyn Controller> {
        Box::new(TimedController {
            inner,
            tracer: self.clone(),
        })
    }

    /// Wraps a controller factory: construction is a lifecycle span and
    /// every controller it builds is wrapped.
    pub fn factory(&self, inner: ControllerFactory) -> ControllerFactory {
        let tracer = self.clone();
        Box::new(move |request: &SessionRequest| {
            let controller = tracer.time(Kind::Build, || inner(request));
            tracer.controller(controller)
        })
    }

    /// Wraps a node provisioner. Only the call is timed: the caller
    /// decides how the factory it hands out is wrapped.
    pub fn provisioner(&self, mut inner: NodeProvisioner) -> NodeProvisioner {
        let tracer = self.clone();
        Box::new(move || tracer.time(Kind::Provision, &mut inner))
    }

    /// Wraps a dispatch policy.
    pub fn dispatcher(&self, inner: Box<dyn Dispatcher>) -> Box<dyn Dispatcher> {
        Box::new(TimedDispatcher {
            inner,
            tracer: self.clone(),
        })
    }

    /// Wraps a pool-sizing policy.
    pub fn autoscaler(&self, inner: Box<dyn Autoscaler>) -> Box<dyn Autoscaler> {
        Box::new(TimedAutoscaler {
            inner,
            tracer: self.clone(),
        })
    }

    /// Wraps a rebalance policy.
    pub fn rebalancer(&self, inner: Box<dyn Rebalancer>) -> Box<dyn Rebalancer> {
        Box::new(TimedRebalancer {
            inner,
            tracer: self.clone(),
        })
    }
}

struct TimedController {
    inner: Box<dyn Controller>,
    tracer: Tracer,
}

impl Controller for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_frame(
        &mut self,
        frame: u64,
        obs: &Observation,
        constraints: &Constraints,
    ) -> Option<KnobSettings> {
        let start = Instant::now();
        let knobs = self.inner.begin_frame(frame, obs, constraints);
        self.tracer
            .record(Kind::Begin, start, Instant::now(), knobs.is_some());
        knobs
    }

    fn end_frame(&mut self, frame: u64, obs: &Observation, constraints: &Constraints) {
        let start = Instant::now();
        self.inner.end_frame(frame, obs, constraints);
        self.tracer.record(Kind::End, start, Instant::now(), false);
    }

    fn snapshot(&self) -> PolicySnapshot {
        self.tracer.time(Kind::Snapshot, || self.inner.snapshot())
    }

    fn restore(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Restore, || inner.restore(snapshot))
    }

    // Downcasts reach the wrapped controller, as they would unwrapped.
    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

struct TimedDispatcher {
    inner: Box<dyn Dispatcher>,
    tracer: Tracer,
}

impl Dispatcher for TimedDispatcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        let inner = &mut self.inner;
        self.tracer
            .time(Kind::Dispatch, || inner.dispatch(request, nodes))
    }
}

struct TimedAutoscaler {
    inner: Box<dyn Autoscaler>,
    tracer: Tracer,
}

impl Autoscaler for TimedAutoscaler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        let inner = &mut self.inner;
        self.tracer.time(Kind::Autoscale, || inner.plan(signals))
    }

    fn decision_source(&self) -> PolicySource {
        self.inner.decision_source()
    }

    fn decision_detail(&self) -> Option<String> {
        self.inner.decision_detail()
    }
}

struct TimedRebalancer {
    inner: Box<dyn Rebalancer>,
    tracer: Tracer,
}

impl Rebalancer for TimedRebalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, epoch: u64, nodes: &[NodeView]) -> Vec<MigrationDirective> {
        let inner = &mut self.inner;
        self.tracer
            .time(Kind::Rebalance, || inner.plan(epoch, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, thread: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            thread,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn gaps_between_controller_calls_are_engine_time() {
        let mut l = Ladder::default();
        l.push(span(Kind::Begin, 1, 0, 10));
        l.push(span(Kind::End, 1, 50, 55));
        l.push(span(Kind::Begin, 1, 100, 110));
        assert_eq!(l.self_ns(Kind::Begin), 20);
        assert_eq!(l.self_ns(Kind::End), 5);
        assert_eq!(l.transcode_gap_ns, 40 + 45);
    }

    #[test]
    fn a_thread_change_ends_the_engine_chain() {
        // Epoch k's advance thread, then epoch k+1's: the coordinator
        // work between them is not engine time.
        let mut l = Ladder::default();
        l.push(span(Kind::Begin, 1, 0, 10));
        l.push(span(Kind::Begin, 2, 1_000, 1_010));
        l.push(span(Kind::End, 2, 1_030, 1_040));
        assert_eq!(l.transcode_gap_ns, 20);
    }

    #[test]
    fn nested_lifecycle_time_leaves_the_admission_gap() {
        // dispatch, then admit builds and seeds a controller, then the
        // next dispatch of the same round.
        let mut l = Ladder::default();
        l.push(span(Kind::Dispatch, 7, 0, 5));
        l.push(span(Kind::Build, 7, 10, 40));
        l.push(span(Kind::Restore, 7, 41, 51));
        l.push(span(Kind::Dispatch, 7, 60, 65));
        assert_eq!(l.admit_gap_ns, 55 - 40);
        assert_eq!(l.admit_gaps, 1);
        assert_eq!(l.lifecycle_ns(), 40);
        assert_eq!(l.self_ns(Kind::Dispatch), 10);
    }

    #[test]
    fn another_family_ends_the_chain() {
        // A dispatch round, the advance phase, the next round: the time
        // from the last dispatch to the next round is not admission.
        let mut l = Ladder::default();
        l.push(span(Kind::Dispatch, 7, 0, 5));
        l.push(span(Kind::Begin, 8, 100, 110));
        l.push(span(Kind::Autoscale, 7, 200, 220));
        l.push(span(Kind::Dispatch, 7, 230, 235));
        l.push(span(Kind::Autoscale, 7, 900, 910));
        assert_eq!(l.admit_gap_ns, 0);
        assert_eq!(l.admit_gaps, 0);
        assert_eq!(l.transcode_gap_ns, 0);
        assert_eq!(l.autoscale_starts_ns, vec![200, 900]);
    }

    #[test]
    fn the_ladder_accounts_for_the_whole_timeline() {
        // Self time + attributed gaps + the rest = the region, exactly.
        let spans = [
            span(Kind::Autoscale, 1, 0, 10),
            span(Kind::Dispatch, 1, 12, 15),
            span(Kind::Build, 1, 16, 30),
            span(Kind::Dispatch, 1, 35, 38),
            span(Kind::Begin, 2, 50, 60),
            span(Kind::End, 2, 90, 95),
            span(Kind::Rebalance, 1, 120, 125),
        ];
        let mut l = Ladder::default();
        for s in spans {
            l.push(s);
        }
        let region = 130;
        let claimed: u64 = Kind::ALL.iter().map(|k| l.self_ns(*k)).sum::<u64>()
            + l.transcode_gap_ns
            + l.admit_gap_ns;
        assert_eq!(l.admit_gap_ns, 20 - 14);
        assert_eq!(l.transcode_gap_ns, 30);
        let unattributed = region - claimed;
        assert_eq!(unattributed, 130 - (10 + 6 + 14 + 10 + 5 + 5) - 30 - 6);
    }
}
