//! Deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the simulation substrate of the TrainBox reproduction. The
//! paper's evaluation is a *system-level simulator* built from profiled
//! performance models (§VI-A); this engine provides the event queue, the
//! simulated clock, and the statistics machinery that the server-architecture
//! model in `trainbox-core` is built on.
//!
//! # Design
//!
//! * Time is an integral number of **picoseconds** ([`SimTime`]). Integral time
//!   keeps the simulation fully deterministic: two events scheduled for the
//!   same instant compare equal exactly, and are then ordered by their
//!   scheduling sequence number (FIFO among ties).
//! * The engine is generic over a user-defined [`Model`]. Events are values of
//!   the model's associated `Event` type; the engine owns the queue and the
//!   clock and hands each popped event back to the model together with a
//!   [`Scheduler`] for follow-up events. This avoids `Rc<RefCell<...>>`
//!   callback graphs entirely — the model is plain owned data.
//! * Events whose times arrive in order on some stream — the completions of
//!   one FIFO server slot — can be put on a numbered **FIFO lane**
//!   ([`Scheduler::schedule_fifo_at`]). Only a lane's head sits in the binary
//!   heap; the rest wait in the lane's deque at O(1) per event. Every event
//!   keeps the sequence number it was scheduled with, so lanes change the
//!   queue's cost, never the `(time, seq)` firing order.
//! * A model's revisable estimate — the next flow completion of a
//!   bandwidth-shared network — is armed on a numbered **timer**
//!   ([`Scheduler::rearm`]). A timer holds at most one pending event, in a
//!   slot of its own beside the heap: re-arming it overwrites the slot, so
//!   a superseded event never enters the heap, and each step fires the
//!   earlier of the heap's top and the earliest armed slot.
//!
//! # Example
//!
//! ```
//! use trainbox_sim::{Engine, Model, Scheduler, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl Model for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, now: SimTime, ev: &'static str, sched: &mut Scheduler<&'static str>) {
//!         self.fired += 1;
//!         if ev == "tick" && self.fired < 3 {
//!             sched.schedule_in(now, SimTime::from_nanos(5), "tick");
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.schedule_at(SimTime::ZERO, "tick");
//! engine.run_while_deadline(u64::MAX, None, |_| false).expect("no overflow");
//! assert_eq!(engine.model().fired, 3);
//! assert_eq!(engine.now(), SimTime::from_nanos(10));
//! ```
//!
//! # Errors
//!
//! Relative scheduling ([`Scheduler::schedule_in`]) can push past
//! [`SimTime::MAX`]; instead of panicking mid-run, the engine latches an
//! overflow flag and [`Engine::run_while_deadline`] returns
//! [`SimError::TimeOverflow`]. Scheduling an event in the *past* remains a
//! panic — that is a model bug, not an input condition.

pub mod hash;
pub mod json;
pub mod par;
pub mod queue;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{FxHashMap, SeqTable};
pub use queue::FifoServer;
pub use stats::{Gauge, Histogram};
pub use time::SimTime;
pub use trace::{
    chrome_trace_json, Component, NoopTracer, RingTracer,
    TraceRecord, TraceSummary, Tracer,
};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Why a simulation run could not complete normally.
///
/// Returned by [`Engine::run_while_deadline`] and the runners built on it,
/// so that adversarial configurations (fault storms, enormous service times)
/// surface as typed errors rather than aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A relative schedule pushed past [`SimTime::MAX`]. `at` is the clock
    /// value when the overflow was detected.
    TimeOverflow {
        /// Simulated time at which the overflowing schedule was attempted.
        at: SimTime,
    },
    /// The model stopped making progress: an event budget was exhausted
    /// before the model reached its termination condition.
    Stalled {
        /// Events processed before the budget ran out.
        events: u64,
        /// Live events still queued when the run gave up.
        queued: usize,
    },
    /// A wall-clock deadline expired before the run completed
    /// ([`Engine::run_while_deadline`]). The model keeps whatever state it
    /// reached, so callers can extract partial statistics.
    DeadlineExceeded {
        /// Events processed before the deadline expired.
        events: u64,
        /// Live events still queued when the run was cancelled.
        queued: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TimeOverflow { at } => {
                write!(f, "simulated time overflowed SimTime::MAX at t={at}")
            }
            SimError::Stalled { events, queued } => write!(
                f,
                "simulation stalled: event budget exhausted after {events} events \
                 with {queued} still queued"
            ),
            SimError::DeadlineExceeded { events, queued } => write!(
                f,
                "simulation deadline exceeded after {events} events \
                 with {queued} still queued"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// A simulation model: owns all mutable simulation state and interprets events.
///
/// The engine calls [`Model::handle`] once per popped event, in nondecreasing
/// time order. Events scheduled for the same instant are delivered in the
/// order they were scheduled.
pub trait Model {
    /// The event payload type interpreted by this model.
    type Event;

    /// Handle one event occurring at simulated time `now`.
    ///
    /// Follow-up events are scheduled through `sched`; they must not be
    /// scheduled in the past (the engine panics on time-travel).
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// One deferred scheduling operation recorded by a [`Scheduler`]. Ops are
/// replayed by the engine in recording order after the handler returns, so
/// several re-arms of one timer inside one handler behave as written.
enum SchedOp<E> {
    /// A plain event, or one on the FIFO lane given.
    Schedule {
        at: SimTime,
        lane: Option<usize>,
        event: E,
    },
    /// Timer `n` supersedes its pending event and arms the one given, if
    /// any.
    Rearm(usize, Option<(SimTime, E)>),
}

/// Handle used by a [`Model`] to schedule follow-up events during handling.
pub struct Scheduler<E> {
    ops: Vec<SchedOp<E>>,
    /// Set when a relative schedule overflowed `SimTime::MAX`; adopted by the
    /// engine after the handler, which then fails the run with
    /// [`SimError::TimeOverflow`].
    overflowed: bool,
}

impl<E> std::fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("pending_ops", &self.ops.len())
            .finish()
    }
}

impl<E> Scheduler<E> {
    /// Schedule `event` at absolute simulated time `at`.
    ///
    /// # Panics
    ///
    /// The engine panics when draining this scheduler if `at` is earlier than
    /// the current simulation time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.ops.push(SchedOp::Schedule { at, lane: None, event });
    }

    /// Schedule `event` at absolute time `at` on FIFO lane `lane`; see
    /// [`Engine::schedule_fifo_at`].
    ///
    /// # Panics
    ///
    /// The engine panics when draining this scheduler if `at` is in the past
    /// or earlier than the lane's previous event.
    pub fn schedule_fifo_at(&mut self, lane: usize, at: SimTime, event: E) {
        self.ops.push(SchedOp::Schedule { at, lane: Some(lane), event });
    }

    /// Schedule `event` to fire `delay` after `now`.
    ///
    /// If `now + delay` overflows [`SimTime::MAX`] the event is dropped and
    /// the engine's next run call returns [`SimError::TimeOverflow`].
    pub fn schedule_in(&mut self, now: SimTime, delay: SimTime, event: E) {
        match now.checked_add(delay) {
            Some(at) => self.schedule_at(at, event),
            None => self.overflowed = true,
        }
    }

    /// Re-arm timer `timer`: its pending event, if it has one, is
    /// superseded and never fires, and `next`, if given, becomes its pending
    /// event. `None` disarms the timer.
    ///
    /// A timer suits an estimate that later changes revise, such as the
    /// next flow completion under the current rates. The armed event takes
    /// a fresh sequence number like any other schedule, so it fires where
    /// a plain event scheduled instead would. Timers are numbered from 0
    /// and need no registration; keep the numbers dense.
    ///
    /// # Panics
    ///
    /// The engine panics when draining this scheduler if `next`'s time is
    /// in the past.
    pub fn rearm(&mut self, timer: usize, next: Option<(SimTime, E)>) {
        self.ops.push(SchedOp::Rearm(timer, next));
    }
}

/// An entry in the event queue. Ordered by `(time, seq)`: earlier time first,
/// then FIFO among same-time events.
struct QueueEntry<E> {
    at: SimTime,
    seq: u64,
    /// The FIFO lane whose head this is (firing it promotes the lane's next
    /// event), or `None` for a plain event.
    lane: Option<usize>,
    event: E,
}

/// A FIFO lane: events scheduled in nondecreasing time order, of which only
/// the head is in the engine's heap.
struct Lane<E> {
    /// Events behind the head as `(at, seq, event)`, in scheduling order
    /// (and so in time order). Their origin is this lane, so they leave it
    /// out: that keeps a waiting event two words smaller than a heap entry.
    waiting: std::collections::VecDeque<(SimTime, u64, E)>,
    /// Time of the lane's latest event; the next one may not be earlier.
    last_at: SimTime,
    /// Whether the lane's head is in the heap (the lane holds any event).
    head_queued: bool,
}

impl<E> Default for Lane<E> {
    fn default() -> Self {
        Lane {
            waiting: std::collections::VecDeque::new(),
            last_at: SimTime::ZERO,
            head_queued: false,
        }
    }
}

impl<E> PartialEq for QueueEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for QueueEntry<E> {}
impl<E> PartialOrd for QueueEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for QueueEntry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event simulation engine.
///
/// Owns the event queue, the simulated clock, and the user [`Model`].
pub struct Engine<M: Model> {
    model: M,
    now: SimTime,
    seq: u64,
    events_processed: u64,
    queue: BinaryHeap<Reverse<QueueEntry<M::Event>>>,
    /// FIFO lanes, indexed by lane number and grown on first use.
    lanes: Vec<Lane<M::Event>>,
    /// Events waiting behind their lane's head (outside the heap).
    lane_held: usize,
    /// Latched when a handler's relative schedule overflowed
    /// `SimTime::MAX`; the run loop reports it as [`SimError::TimeOverflow`].
    overflowed: bool,
    /// Each timer's pending event as `(at, seq, event)`, indexed by timer
    /// number and grown on first use; `None` while the timer is idle. The
    /// slots stand beside the heap: a re-arm overwrites one.
    timers: Vec<Option<(SimTime, u64, M::Event)>>,
    /// Timers holding a pending event.
    armed: usize,
    /// Recycled op buffer handed to each [`Scheduler`], so handling an event
    /// costs no allocation once the buffer has grown to the working set.
    ops_scratch: Vec<SchedOp<M::Event>>,
}

impl<M: Model> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queued", &self.queued())
            .field("queue_len", &self.queue.len())
            .field("lane_held", &self.lane_held)
            .field("armed", &self.armed)
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

impl<M: Model> Engine<M> {
    /// Create an engine wrapping `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
            queue: BinaryHeap::new(),
            lanes: Vec::new(),
            lane_held: 0,
            overflowed: false,
            timers: Vec::new(),
            armed: 0,
            ops_scratch: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Borrow the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrow the model (for configuration between runs).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consume the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Number of events currently queued: in the heap, behind their FIFO
    /// lane's head, or armed on a timer.
    pub fn queued(&self) -> usize {
        self.queue.len() + self.lane_held + self.armed
    }

    /// Schedule an event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        self.push_entry(at, None, event);
    }

    /// Schedule an event at absolute time `at` on FIFO lane `lane`.
    ///
    /// A lane's events must be scheduled in nondecreasing time order, as a
    /// FIFO server slot's completions are. Then only the lane's head needs
    /// a heap slot: the others wait in the lane's deque and are promoted
    /// one at a time as the head fires, at O(1) each. They fire exactly
    /// where plain events would, in `(time, seq)` order. Lanes are numbered
    /// from 0 and need no registration; keep the numbers dense.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or earlier than the lane's previous
    /// event.
    pub fn schedule_fifo_at(&mut self, lane: usize, at: SimTime, event: M::Event) {
        self.push_entry(at, Some(lane), event);
    }

    fn check_overflow(&self) -> Result<(), SimError> {
        if self.overflowed {
            Err(SimError::TimeOverflow { at: self.now })
        } else {
            Ok(())
        }
    }

    /// The next sequence number, for an event scheduled at `at`.
    fn next_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        self.seq += 1;
        self.seq - 1
    }

    /// Overwrite timer `n`'s slot: its pending event, if any, is dropped
    /// unfired, and `next`, if given, is armed with a fresh sequence number.
    fn rearm(&mut self, n: usize, next: Option<(SimTime, M::Event)>) {
        if n >= self.timers.len() {
            self.timers.resize_with(n + 1, || None);
        }
        let next = next.map(|(at, event)| (at, self.next_seq(at), event));
        self.armed += usize::from(next.is_some());
        if std::mem::replace(&mut self.timers[n], next).is_some() {
            self.armed -= 1;
        }
    }

    fn push_entry(&mut self, at: SimTime, lane: Option<usize>, event: M::Event) {
        let seq = self.next_seq(at);
        if let Some(n) = lane {
            if n >= self.lanes.len() {
                self.lanes.resize_with(n + 1, Lane::default);
            }
            let lane = &mut self.lanes[n];
            assert!(
                at >= lane.last_at,
                "FIFO lane {n} went backwards: at={at:?} after {:?}",
                lane.last_at
            );
            lane.last_at = at;
            if lane.head_queued {
                // Behind the head in both time and seq: it cannot fire
                // before the head does, so it waits outside the heap.
                lane.waiting.push_back((at, seq, event));
                self.lane_held += 1;
                return;
            }
            lane.head_queued = true;
        }
        self.queue.push(Reverse(QueueEntry { at, seq, lane, event }));
    }

    /// The armed timer whose event comes first in `(time, seq)` order, with
    /// that key. A scan: models arm a handful of timers.
    fn earliest_timer(&self) -> Option<(usize, (SimTime, u64))> {
        if self.armed == 0 {
            return None;
        }
        self.timers
            .iter()
            .enumerate()
            .filter_map(|(n, slot)| slot.as_ref().map(|&(at, seq, _)| (n, (at, seq))))
            .min_by_key(|&(_, key)| key)
    }

    /// Take the next event in `(time, seq)` order: the heap's top or the
    /// earliest armed timer's, whichever comes first.
    fn pop_next(&mut self) -> Option<(SimTime, M::Event)> {
        let timer = self.earliest_timer();
        let heap_first = match (self.queue.peek(), timer) {
            (Some(Reverse(top)), Some((_, key))) => (top.at, top.seq) < key,
            (top, _) => top.is_some(),
        };
        if !heap_first {
            let (n, _) = timer?;
            self.armed -= 1;
            let (at, _, event) = self.timers[n].take().expect("the earliest timer is armed");
            return Some((at, event));
        }
        let Reverse(entry) = self.queue.pop().expect("the heap's top was peeked");
        if let Some(n) = entry.lane {
            // The lane's next event, if any, becomes its head: the earliest
            // of the lane's events in `(time, seq)` order.
            let lane = &mut self.lanes[n];
            match lane.waiting.pop_front() {
                Some((at, seq, event)) => {
                    self.lane_held -= 1;
                    self.queue.push(Reverse(QueueEntry { at, seq, lane: entry.lane, event }));
                }
                None => lane.head_queued = false,
            }
        }
        Some((entry.at, entry.event))
    }

    /// Pop and handle a single event. Returns `false` if no events remain.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.pop_next() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue yielded past event");
        self.now = at;
        self.events_processed += 1;
        let mut sched = Scheduler {
            ops: std::mem::take(&mut self.ops_scratch),
            overflowed: false,
        };
        self.model.handle(self.now, event, &mut sched);
        self.overflowed |= sched.overflowed;
        let mut ops = sched.ops;
        for op in ops.drain(..) {
            match op {
                SchedOp::Schedule { at, lane, event } => self.push_entry(at, lane, event),
                SchedOp::Rearm(n, next) => self.rearm(n, next),
            }
        }
        self.ops_scratch = ops;
        true
    }

    /// Run until `predicate(model)` becomes true after handling some event,
    /// the queue empties, `max_events` are processed, or the optional
    /// wall-clock `deadline` expires. Returns `true` if the predicate fired.
    ///
    /// With `deadline: None` the clock is never read. With a deadline, the
    /// clock is consulted before the first event and then once every
    /// [`Self::DEADLINE_CHECK_INTERVAL`] events (amortizing the
    /// `Instant::now` syscall to noise), and the run is cancelled
    /// cooperatively once it expires. The model keeps whatever state it had
    /// reached, so callers can report partial statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] when the deadline expires mid-run;
    /// [`SimError::TimeOverflow`] when a handler's relative schedule pushed
    /// past [`SimTime::MAX`]. The run stops right after that handler, and
    /// the events handled before it keep their effects on the model.
    pub fn run_while_deadline(
        &mut self,
        max_events: u64,
        deadline: Option<Instant>,
        mut predicate: impl FnMut(&M) -> bool,
    ) -> Result<bool, SimError> {
        let expired = |e: &Self, deadline: Instant| {
            (Instant::now() >= deadline).then(|| SimError::DeadlineExceeded {
                events: e.events_processed(),
                queued: e.queued(),
            })
        };
        if let Some(err) = deadline.and_then(|d| expired(self, d)) {
            return Err(err);
        }
        let mut until_check = Self::DEADLINE_CHECK_INTERVAL;
        for _ in 0..max_events {
            let stepped = self.step();
            self.check_overflow()?;
            if !stepped {
                return Ok(false);
            }
            if predicate(&self.model) {
                return Ok(true);
            }
            if let Some(d) = deadline {
                until_check -= 1;
                if until_check == 0 {
                    until_check = Self::DEADLINE_CHECK_INTERVAL;
                    if let Some(err) = expired(self, d) {
                        return Err(err);
                    }
                }
            }
        }
        Ok(false)
    }

    /// Events between wall-clock deadline checks in
    /// [`Self::run_while_deadline`]. At the engine's measured millions of
    /// events per second this polls every millisecond or two — fine-grained
    /// enough for request deadlines, coarse enough to keep `Instant::now`
    /// off the hot path.
    pub const DEADLINE_CHECK_INTERVAL: u64 = 4096;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now, ev));
            // Event 100 fans out two follow-ups.
            if ev == 100 {
                sched.schedule_in(now, SimTime::from_nanos(1), 101);
                sched.schedule_in(now, SimTime::from_nanos(1), 102);
            }
        }
    }

    fn engine() -> Engine<Recorder> {
        Engine::new(Recorder { log: Vec::new() })
    }

    /// Run `e` until its queue empties.
    fn run<M: Model>(e: &mut Engine<M>) -> Result<(), SimError> {
        e.run_while_deadline(u64::MAX, None, |_| false).map(drop)
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(30), 3);
        e.schedule_at(SimTime::from_nanos(10), 1);
        e.schedule_at(SimTime::from_nanos(20), 2);
        run(&mut e).unwrap();
        assert_eq!(
            e.model().log,
            vec![
                (SimTime::from_nanos(10), 1),
                (SimTime::from_nanos(20), 2),
                (SimTime::from_nanos(30), 3),
            ]
        );
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut e = engine();
        for i in 0..100 {
            e.schedule_at(SimTime::from_nanos(5), i);
        }
        run(&mut e).unwrap();
        let order: Vec<u32> = e.model().log.iter().map(|&(_, ev)| ev).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn follow_up_events_fire() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(10), 100);
        run(&mut e).unwrap();
        assert_eq!(e.model().log.len(), 3);
        assert_eq!(e.model().log[1], (SimTime::from_nanos(11), 101));
        assert_eq!(e.model().log[2], (SimTime::from_nanos(11), 102));
        assert_eq!(e.events_processed(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(10), 0);
        run(&mut e).unwrap();
        e.schedule_at(SimTime::from_nanos(5), 1);
    }

    #[test]
    fn run_while_predicate() {
        let mut e = engine();
        for i in 0..10 {
            e.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let hit = e.run_while_deadline(u64::MAX, None, |m| m.log.len() == 4).unwrap();
        assert!(hit);
        assert_eq!(e.model().log.len(), 4);
        let hit = e.run_while_deadline(2, None, |m| m.log.len() == 100).unwrap();
        assert!(!hit);
        assert_eq!(e.model().log.len(), 6);
    }

    #[test]
    fn empty_engine_runs_to_completion() {
        let mut e = engine();
        run(&mut e).unwrap();
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.events_processed(), 0);
        assert!(!e.step());
    }

    /// Its first event schedules one event 1 ns later and one past
    /// `SimTime::MAX`.
    struct OverflowModel;

    impl Model for OverflowModel {
        type Event = u8;
        fn handle(&mut self, now: SimTime, ev: u8, sched: &mut Scheduler<u8>) {
            if ev == 0 {
                sched.schedule_in(now, SimTime::from_nanos(1), 1);
                sched.schedule_in(now, SimTime::MAX, 2);
            }
        }
    }

    #[test]
    fn scheduler_overflow_inside_handler_fails_the_run() {
        let mut e = Engine::new(OverflowModel);
        e.schedule_at(SimTime::from_nanos(1), 0);
        let err = run(&mut e).unwrap_err();
        assert_eq!(err, SimError::TimeOverflow { at: SimTime::from_nanos(1) });
        // The queued non-overflowing event was never delivered: the run
        // failed fast instead of silently continuing.
        assert_eq!(e.events_processed(), 1);
        assert_eq!(e.queued(), 1);
    }

    #[test]
    fn sim_error_displays() {
        let e = SimError::TimeOverflow { at: SimTime::from_secs(2) };
        assert!(e.to_string().contains("overflow"));
        let s = SimError::Stalled { events: 10, queued: 3 };
        assert!(s.to_string().contains("stalled"));
        let d = SimError::DeadlineExceeded { events: 5, queued: 1 };
        assert!(d.to_string().contains("deadline"));
    }

    /// An event loop that reschedules itself forever: without the deadline
    /// this would spin until the event budget; with one it must cancel
    /// cooperatively, keeping the partial model state.
    struct Forever {
        fired: u64,
    }

    impl Model for Forever {
        type Event = ();
        fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
            self.fired += 1;
            sched.schedule_in(now, SimTime::from_nanos(1), ());
        }
    }

    #[test]
    fn expired_deadline_cancels_the_run_with_partial_state() {
        let mut e = Engine::new(Forever { fired: 0 });
        e.schedule_at(SimTime::ZERO, ());
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(20);
        let err = e
            .run_while_deadline(u64::MAX, Some(deadline), |_| false)
            .unwrap_err();
        let SimError::DeadlineExceeded { events, queued } = err else {
            panic!("expected DeadlineExceeded, got {err:?}");
        };
        assert!(events > 0, "some events ran before the deadline");
        assert_eq!(queued, 1, "the self-rescheduled event is still pending");
        assert_eq!(e.model().fired, events, "partial model state is preserved");
    }

    #[test]
    fn already_expired_deadline_fails_before_stepping() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(1), 1);
        let err = e
            .run_while_deadline(u64::MAX, Some(std::time::Instant::now()), |_| false)
            .unwrap_err();
        assert!(matches!(err, SimError::DeadlineExceeded { events: 0, .. }));
        assert!(e.model().log.is_empty(), "no event fired past the dead deadline");
    }

    /// Re-arming a timer three times inside one handler leaves one live
    /// event, at the last time; the superseded events never reach the heap
    /// and are neither queued nor counted as events.
    #[test]
    fn rearmed_timer_fires_once_at_its_last_time() {
        let mut e = scripted(vec![vec![
            Op::Rearm(0, Some(10)),
            Op::Rearm(0, Some(5)),
            Op::Plain(30),
            Op::Rearm(0, Some(20)),
        ]]);
        assert!(e.step());
        assert_eq!(e.queue.len(), 1, "the heap holds the plain event alone");
        assert_eq!(e.queued(), 2, "the armed timer is a queued event");
        run(&mut e).unwrap();
        assert_eq!(
            e.model().log,
            vec![(SimTime::ZERO, START), (SimTime::from_nanos(20), 3), (SimTime::from_nanos(30), 2)]
        );
        assert_eq!(e.events_processed(), 3, "superseded events are not events");
        assert_eq!((e.queue.len(), e.queued()), (0, 0));
        assert!(e.timers.iter().all(Option::is_none));
    }

    /// A thousand re-arms of one timer inside one handler push nothing on
    /// the heap, and the timer fires once, at its last time.
    #[test]
    fn rearms_never_grow_the_heap() {
        let mut block = vec![Op::Plain(5000)];
        block.extend((0..1000).map(|i| Op::Rearm(0, Some(2000 - i))));
        let mut e = scripted(vec![block]);
        let heap = e.queue.len();
        assert!(e.step(), "the START event re-arms the timer");
        assert_eq!(e.queue.len(), heap, "START left the heap and the plain event joined it");
        assert_eq!(e.queued(), 2);
        run(&mut e).unwrap();
        assert_eq!(
            e.model().log,
            vec![
                (SimTime::ZERO, START),
                (SimTime::from_nanos(1001), 1000),
                (SimTime::from_nanos(5000), 0),
            ]
        );
    }

    /// Disarming supersedes the pending event without arming another;
    /// disarming an idle timer supersedes nothing.
    #[test]
    fn disarmed_timer_fires_nothing() {
        let mut e = scripted(vec![
            vec![Op::Rearm(1, Some(10)), Op::Plain(5), Op::Rearm(2, None)],
            vec![Op::Rearm(1, None)],
        ]);
        assert!(e.step());
        assert_eq!((e.queued(), e.queue.len()), (2, 1), "timer 1 is armed, timer 2 idle");
        assert!(e.step(), "the plain event at 5 ns disarms timer 1");
        assert_eq!((e.queued(), e.queue.len()), (0, 0));
        run(&mut e).unwrap();
        assert_eq!(e.model().log, vec![(SimTime::ZERO, START), (SimTime::from_nanos(5), 1)]);
        assert_eq!(e.events_processed(), 2);
    }

    /// A timer whose event fired is idle: disarming it then is a no-op, and
    /// re-arming it arms a new event that fires in turn.
    #[test]
    fn fired_timer_is_idle_until_rearmed() {
        let mut e = scripted(vec![
            vec![Op::Rearm(0, Some(3))],
            vec![Op::Rearm(0, None), Op::Rearm(0, Some(4))],
        ]);
        assert!(e.step());
        assert!(e.step(), "the timer fires at 3 ns and re-arms itself");
        assert_eq!((e.queue.len(), e.queued()), (0, 1));
        run(&mut e).unwrap();
        assert_eq!(
            e.model().log,
            vec![(SimTime::ZERO, START), (SimTime::from_nanos(3), 0), (SimTime::from_nanos(7), 2)]
        );
    }

    #[test]
    fn queued_counts_lane_held_events() {
        let mut e = engine();
        for i in 0..5 {
            e.schedule_fifo_at(0, SimTime::from_nanos(10 + i), i as u32);
        }
        e.schedule_at(SimTime::from_nanos(1), 99);
        assert_eq!(e.queue.len(), 2, "the heap holds the lane's head and the plain event");
        assert_eq!(e.queued(), 6, "lane-held events are queued events");
        assert!(e.step());
        assert!(e.step());
        assert_eq!((e.queue.len(), e.queued()), (1, 4));
        run(&mut e).unwrap();
        assert_eq!(e.queued(), 0);
        let fired: Vec<u32> = e.model().log.iter().map(|&(_, ev)| ev).collect();
        assert_eq!(fired, vec![99, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn deadline_error_counts_lane_held_events() {
        let mut e = engine();
        for i in 0..3 {
            e.schedule_fifo_at(7, SimTime::from_nanos(i), i as u32);
        }
        let err = e
            .run_while_deadline(u64::MAX, Some(std::time::Instant::now()), |_| false)
            .unwrap_err();
        assert_eq!(err, SimError::DeadlineExceeded { events: 0, queued: 3 });
    }

    #[test]
    #[should_panic(expected = "FIFO lane 3 went backwards")]
    fn lane_going_back_in_time_is_rejected() {
        let mut e = engine();
        e.schedule_fifo_at(3, SimTime::from_nanos(20), 0);
        e.schedule_fifo_at(3, SimTime::from_nanos(10), 1);
    }

    /// Four lanes of 1 000 events each, interleaved with plain events: the
    /// heap never holds more than one event per lane plus the plain ones.
    #[test]
    fn lanes_keep_the_heap_at_one_entry_per_lane() {
        struct Watch {
            fired: Vec<u32>,
        }
        impl Model for Watch {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, _s: &mut Scheduler<u32>) {
                self.fired.push(ev);
            }
        }
        let mut e = Engine::new(Watch { fired: Vec::new() });
        let plain = 10;
        for i in 0..1000u64 {
            for lane in 0..4 {
                let tag = (i * 4 + lane) as u32;
                e.schedule_fifo_at(lane as usize, SimTime::from_nanos(i * 3 + lane), tag);
            }
        }
        for p in 0..plain {
            e.schedule_at(SimTime::from_nanos(p * 400), 10_000 + p as u32);
        }
        assert_eq!(e.queued(), 4000 + plain as usize);
        while e.queued() > 0 {
            assert!(e.queue.len() <= 4 + plain as usize, "heap {} too long", e.queue.len());
            assert!(e.step());
        }
        let fired = &e.model().fired;
        assert_eq!(fired.len(), 4010);
        let lane_order: Vec<u32> = fired.iter().copied().filter(|&t| t < 10_000).collect();
        assert_eq!(lane_order, (0..4000).collect::<Vec<_>>());
    }

    /// One scheduling decision of [`Script`], with a delay in nanoseconds.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Plain(u64),
        Fifo(usize, u64),
        /// Re-arm a timer `delay` from now, or disarm it.
        Rearm(usize, Option<u64>),
    }

    /// A scheduling request [`Script::react`] makes.
    #[derive(Clone, Copy, Debug)]
    enum Req {
        Plain(SimTime, u32),
        Fifo(usize, SimTime, u32),
        Rearm(usize, Option<(SimTime, u32)>),
    }

    /// Tag of the plain event at t = 0 that runs a script's first block.
    const START: u32 = u32::MAX;

    /// The decisions shared by the engine under test and the reference
    /// queue: each fired event runs the next block of ops. Every op takes
    /// the next tag, in order.
    #[derive(Clone)]
    struct Script {
        blocks: Vec<Vec<Op>>,
        next_block: usize,
        next_tag: u32,
        lane_last: Vec<SimTime>,
    }

    impl Script {
        fn new(blocks: Vec<Vec<Op>>) -> Self {
            Script { blocks, next_block: 0, next_tag: 0, lane_last: vec![SimTime::ZERO; 3] }
        }

        fn react(&mut self, now: SimTime) -> Vec<Req> {
            let Some(block) = self.blocks.get(self.next_block) else {
                return Vec::new();
            };
            self.next_block += 1;
            let mut reqs = Vec::with_capacity(block.len());
            for &op in block {
                let tag = self.next_tag;
                self.next_tag += 1;
                reqs.push(match op {
                    Op::Plain(d) => Req::Plain(now + SimTime::from_nanos(d), tag),
                    Op::Fifo(lane, d) => {
                        let at = now.max(self.lane_last[lane]) + SimTime::from_nanos(d);
                        self.lane_last[lane] = at;
                        Req::Fifo(lane, at, tag)
                    }
                    Op::Rearm(timer, d) => {
                        Req::Rearm(timer, d.map(|d| (now + SimTime::from_nanos(d), tag)))
                    }
                });
            }
            reqs
        }
    }

    struct Scripted {
        script: Script,
        log: Vec<(SimTime, u32)>,
    }

    impl Model for Scripted {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.log.push((now, ev));
            for req in self.script.react(now) {
                match req {
                    Req::Plain(at, t) => sched.schedule_at(at, t),
                    Req::Fifo(lane, at, t) => sched.schedule_fifo_at(lane, at, t),
                    Req::Rearm(timer, next) => sched.rearm(timer, next),
                }
            }
        }
    }

    /// An engine that runs `blocks` from a plain `START` event at t = 0.
    fn scripted(blocks: Vec<Vec<Op>>) -> Engine<Scripted> {
        let mut e = Engine::new(Scripted { script: Script::new(blocks), log: Vec::new() });
        e.schedule_at(SimTime::ZERO, START);
        e
    }

    /// The firing order by definition: repeatedly fire the pending event
    /// with the least `(time, schedule order)`, by a linear scan; a re-arm
    /// removes its timer's pending event. Also returns the number of
    /// pending events after each fired event's reactions.
    fn reference_order(mut script: Script) -> (Vec<(SimTime, u32)>, Vec<usize>) {
        // (at, seq, tag, timer)
        let mut pending: Vec<(SimTime, u64, u32, Option<usize>)> =
            vec![(SimTime::ZERO, 0, START, None)];
        let mut seq = 1u64;
        let (mut log, mut queued) = (Vec::new(), Vec::new());
        while let Some(i) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
            let (at, _, tag, _) = pending.swap_remove(i);
            log.push((at, tag));
            for req in script.react(at) {
                let (at, tag, timer) = match req {
                    Req::Plain(at, t) | Req::Fifo(_, at, t) => (at, t, None),
                    Req::Rearm(n, next) => {
                        pending.retain(|p| p.3 != Some(n));
                        let Some((at, t)) = next else { continue };
                        (at, t, Some(n))
                    }
                };
                pending.push((at, seq, tag, timer));
                seq += 1;
            }
            queued.push(pending.len());
        }
        (log, queued)
    }

    /// Decode a generated `(kind, lane or timer, delay)` triple.
    fn op_of((kind, n, d): (u8, usize, u64)) -> Op {
        match kind {
            0 => Op::Plain(d),
            1 => Op::Fifo(n % 3, d),
            2 | 3 => Op::Rearm(n % 3, Some(d)),
            _ => Op::Rearm(n % 3, None),
        }
    }

    /// Its first event schedules every delay, relative to its time.
    struct Burst(Vec<SimTime>);

    impl Model for Burst {
        type Event = ();
        fn handle(&mut self, now: SimTime, _: (), sched: &mut Scheduler<()>) {
            for d in self.0.drain(..) {
                sched.schedule_in(now, d, ());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The engine fires events exactly in `(time, schedule order)`:
        /// plain, timer and FIFO-lane events, re-arms and disarms (several
        /// of one timer in one handler among them), ties at equal instants,
        /// all scheduled from inside handlers, compared unsorted against a
        /// linear-scan reference queue. `queued()` matches the reference's
        /// pending count after every event.
        #[test]
        fn firing_order_is_time_then_schedule_order(
            blocks in collection::vec(collection::vec((0u8..5, 0usize..8, 0u64..4), 0..6), 1..40),
        ) {
            let mut e = scripted(
                blocks.into_iter().map(|b| b.into_iter().map(op_of).collect()).collect(),
            );
            let (expected, expected_queued) = reference_order(e.model().script.clone());
            let mut queued = Vec::new();
            while e.step() {
                queued.push(e.queued());
            }
            prop_assert_eq!(&e.model().log, &expected);
            prop_assert_eq!(queued, expected_queued);
            prop_assert_eq!((e.queue.len(), e.lane_held, e.queued()), (0, 0, 0));
            prop_assert!(e.timers.iter().all(Option::is_none));
        }

        /// Adversarial schedules — including deltas that push far past
        /// `SimTime::MAX` — never panic the engine. A run ends in `Ok` or in
        /// a typed `SimError::TimeOverflow`, and overflow is reported exactly
        /// when some relative schedule overflowed.
        #[test]
        fn adversarial_schedules_never_panic(
            start in 1u64..=u64::MAX,
            deltas in collection::vec(0u64..=u64::MAX, 1..30),
        ) {
            // Start the clock off zero so `now + delta` can actually
            // overflow the u64 picosecond domain.
            let now = SimTime::from_picos(start);
            let delays = deltas.iter().map(|&d| SimTime::from_picos(d)).collect();
            let mut e = Engine::new(Burst(delays));
            e.schedule_at(now, ());
            let would_overflow =
                deltas.iter().any(|&d| now.checked_add(SimTime::from_picos(d)).is_none());
            match run(&mut e) {
                Ok(()) => {
                    prop_assert!(!would_overflow);
                    prop_assert_eq!(e.events_processed(), 1 + deltas.len() as u64);
                }
                Err(SimError::TimeOverflow { at }) => {
                    prop_assert!(would_overflow);
                    prop_assert_eq!((at, e.events_processed()), (now, 1));
                }
                Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
        }
    }
}
