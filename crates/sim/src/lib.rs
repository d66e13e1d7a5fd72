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
//! engine.run().expect("no overflow");
//! assert_eq!(engine.model().fired, 3);
//! assert_eq!(engine.now(), SimTime::from_nanos(10));
//! ```
//!
//! # Errors
//!
//! Relative scheduling (`schedule_in`/`schedule_keyed_in`) can push past
//! [`SimTime::MAX`]; instead of panicking mid-run, the engine latches an
//! overflow flag and the run methods return [`SimError::TimeOverflow`].
//! Scheduling an event in the *past* remains a panic — that is a model bug,
//! not an input condition.

pub mod hash;
pub mod json;
pub mod par;
pub mod queue;
pub mod stats;
pub mod time;
pub mod trace;

pub use hash::{FxHashMap, FxHashSet};
pub use par::{imbalance, run_windows, work_span_speedup, Coordinator, RunStats, WindowedLp};
pub use queue::FifoServer;
pub use stats::{Counter, Gauge, Histogram, TimeWeighted};
pub use time::SimTime;
pub use trace::{
    chrome_trace_json, Component, ForkTracer, NoopTracer, RingTracer,
    TraceRecord, TraceSummary, Tracer,
};

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Why a simulation run could not complete normally.
///
/// Returned by [`Engine::run`] / [`Engine::run_while`]
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

/// Generation-stamped handle to a cancellable scheduled event.
///
/// Returned by [`Engine::schedule_keyed_at`] / [`Scheduler::schedule_keyed_at`]
/// and accepted by the matching `cancel` methods. Keys are unique for the
/// lifetime of an engine (a monotonically increasing generation counter), so a
/// stale handle can never accidentally cancel a newer event that reused its
/// queue slot — there are no slots to reuse.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventKey(u64);

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
/// replayed by the engine in recording order after the handler returns, so a
/// cancel-then-reschedule sequence inside one handler behaves as written.
enum SchedOp<E> {
    Schedule {
        at: SimTime,
        key: Option<EventKey>,
        event: E,
    },
    Cancel(EventKey),
}

/// Handle used by a [`Model`] to schedule follow-up events during handling.
pub struct Scheduler<E> {
    ops: Vec<SchedOp<E>>,
    /// Next key generation; seeded from the engine so keys allocated here are
    /// globally unique, and adopted back by the engine after the handler.
    next_key: u64,
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
        self.ops.push(SchedOp::Schedule { at, key: None, event });
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

    /// Schedule a cancellable `event` at absolute time `at`; see
    /// [`Engine::schedule_keyed_at`].
    pub fn schedule_keyed_at(&mut self, at: SimTime, event: E) -> EventKey {
        let key = EventKey(self.next_key);
        self.next_key += 1;
        self.ops.push(SchedOp::Schedule { at, key: Some(key), event });
        key
    }

    /// Schedule a cancellable `event` to fire `delay` after `now`.
    ///
    /// On overflow of `now + delay` the event is dropped (the run will fail
    /// with [`SimError::TimeOverflow`]); the returned key is valid but inert —
    /// cancelling it is a harmless no-op.
    pub fn schedule_keyed_in(&mut self, now: SimTime, delay: SimTime, event: E) -> EventKey {
        match now.checked_add(delay) {
            Some(at) => self.schedule_keyed_at(at, event),
            None => {
                self.overflowed = true;
                let key = EventKey(self.next_key);
                self.next_key += 1;
                key
            }
        }
    }

    /// Lazily cancel a keyed event; see [`Engine::cancel`]. The cancellation
    /// takes effect when the engine replays this scheduler's operations, in
    /// order with any schedules recorded around it.
    pub fn cancel(&mut self, key: EventKey) {
        self.ops.push(SchedOp::Cancel(key));
    }
}

/// An entry in the event queue. Ordered by `(time, seq)`: earlier time first,
/// then FIFO among same-time events.
struct QueueEntry<E> {
    at: SimTime,
    seq: u64,
    key: Option<EventKey>,
    event: E,
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
    /// Latched when any relative schedule overflowed `SimTime::MAX`; run
    /// methods report it as [`SimError::TimeOverflow`].
    overflowed: bool,
    /// Keys of keyed events that have been scheduled but neither fired nor
    /// cancelled. A keyed queue entry whose key is absent here is stale.
    live: FxHashSet<EventKey>,
    next_key: u64,
    /// Cancelled entries still sitting in the heap (lazy cancellation).
    stale_in_queue: usize,
    /// Cancelled entries popped and dropped so far.
    stale_dropped: u64,
    /// Recycled op buffer handed to each [`Scheduler`], so handling an event
    /// costs no allocation once the buffer has grown to the working set.
    ops_scratch: Vec<SchedOp<M::Event>>,
}

impl<M: Model> std::fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("queued", &self.queued())
            .field("queue_len", &self.queue_len())
            .field("stale_in_queue", &self.stale_in_queue)
            .field("stale_dropped", &self.stale_dropped)
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
            overflowed: false,
            live: FxHashSet::default(),
            next_key: 0,
            stale_in_queue: 0,
            stale_dropped: 0,
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

    /// Number of *live* events currently queued (stale cancelled entries are
    /// excluded; see [`Engine::queue_len`] for the raw heap size).
    pub fn queued(&self) -> usize {
        self.queue.len() - self.stale_in_queue
    }

    /// Raw heap size, including lazily-cancelled entries not yet dropped.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Cancelled entries still occupying heap slots (lazy cancellation debt).
    pub fn stale_in_queue(&self) -> usize {
        self.stale_in_queue
    }

    /// Total cancelled entries popped and dropped over the engine's lifetime.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Schedule an event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        self.push_entry(at, None, event);
    }

    /// Schedule an event `delay` after the current time.
    ///
    /// If `now + delay` overflows [`SimTime::MAX`] the event is dropped and
    /// the next run call returns [`SimError::TimeOverflow`].
    pub fn schedule_in(&mut self, delay: SimTime, event: M::Event) {
        match self.now.checked_add(delay) {
            Some(at) => self.schedule_at(at, event),
            None => self.overflowed = true,
        }
    }

    /// Schedule a cancellable event at absolute time `at`, returning a handle
    /// that [`Engine::cancel`] (or [`Scheduler::cancel`]) accepts.
    ///
    /// Keyed events cost one `HashSet` insert over plain ones; use them for
    /// completion estimates that may be superseded (rate changes, faults).
    pub fn schedule_keyed_at(&mut self, at: SimTime, event: M::Event) -> EventKey {
        let key = EventKey(self.next_key);
        self.next_key += 1;
        self.live.insert(key);
        self.push_entry(at, Some(key), event);
        key
    }

    /// Schedule a cancellable event `delay` after the current time.
    ///
    /// On overflow of `now + delay` the event is dropped (the run will fail
    /// with [`SimError::TimeOverflow`]); the returned key is valid but inert —
    /// cancelling it is a harmless no-op.
    pub fn schedule_keyed_in(&mut self, delay: SimTime, event: M::Event) -> EventKey {
        match self.now.checked_add(delay) {
            Some(at) => self.schedule_keyed_at(at, event),
            None => {
                self.overflowed = true;
                let key = EventKey(self.next_key);
                self.next_key += 1;
                key
            }
        }
    }

    /// Whether a relative schedule has overflowed [`SimTime::MAX`]. Latched;
    /// the run methods surface it as [`SimError::TimeOverflow`].
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    fn check_overflow(&self) -> Result<(), SimError> {
        if self.overflowed {
            Err(SimError::TimeOverflow { at: self.now })
        } else {
            Ok(())
        }
    }

    /// Lazily cancel a keyed event. Returns `true` if the event was still
    /// pending (it will never fire), `false` if it already fired or was
    /// already cancelled. O(1): the heap entry is dropped when popped, not
    /// searched for now.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        let was_live = self.live.remove(&key);
        if was_live {
            self.stale_in_queue += 1;
        }
        was_live
    }

    fn push_entry(&mut self, at: SimTime, key: Option<EventKey>, event: M::Event) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry { at, seq, key, event }));
    }

    /// Drop cancelled entries off the front of the heap so `peek`/emptiness
    /// reflect live events only.
    fn purge_stale_front(&mut self) {
        while let Some(Reverse(entry)) = self.queue.peek() {
            match entry.key {
                Some(k) if !self.live.contains(&k) => {
                    self.queue.pop();
                    self.stale_in_queue -= 1;
                    self.stale_dropped += 1;
                }
                _ => break,
            }
        }
    }

    /// Pop and handle a single live event. Returns `false` if no live events
    /// remain (stale cancelled entries are discarded, not delivered).
    pub fn step(&mut self) -> bool {
        self.purge_stale_front();
        let Some(Reverse(entry)) = self.queue.pop() else {
            return false;
        };
        if let Some(k) = entry.key {
            self.live.remove(&k);
        }
        debug_assert!(entry.at >= self.now, "event queue yielded past event");
        self.now = entry.at;
        self.events_processed += 1;
        let mut sched = Scheduler {
            ops: std::mem::take(&mut self.ops_scratch),
            next_key: self.next_key,
            overflowed: false,
        };
        self.model.handle(self.now, entry.event, &mut sched);
        self.next_key = sched.next_key;
        self.overflowed |= sched.overflowed;
        let mut ops = sched.ops;
        for op in ops.drain(..) {
            match op {
                SchedOp::Schedule { at, key, event } => {
                    if let Some(k) = key {
                        self.live.insert(k);
                    }
                    self.push_entry(at, key, event);
                }
                SchedOp::Cancel(key) => {
                    self.cancel(key);
                }
            }
        }
        self.ops_scratch = ops;
        true
    }

    /// Run until the queue is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeOverflow`] if any relative schedule pushed
    /// past [`SimTime::MAX`]; events already queued before the overflow keep
    /// their effects on the model (the run stops at the first check after
    /// the overflowing handler).
    pub fn run(&mut self) -> Result<(), SimError> {
        loop {
            self.check_overflow()?;
            if !self.step() {
                break;
            }
        }
        self.check_overflow()?;
        Ok(())
    }

    /// Run until `predicate(model)` becomes true after handling some event, the
    /// queue empties, or `max_events` are processed. Returns `true` if the
    /// predicate fired.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TimeOverflow`] on scheduling overflow; see
    /// [`Engine::run`].
    pub fn run_while(
        &mut self,
        max_events: u64,
        mut predicate: impl FnMut(&M) -> bool,
    ) -> Result<bool, SimError> {
        for _ in 0..max_events {
            let stepped = self.step();
            self.check_overflow()?;
            if !stepped {
                return Ok(false);
            }
            if predicate(&self.model) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// [`Engine::run_while`] under an optional wall-clock deadline.
    ///
    /// With `deadline: None` this *is* `run_while` — same code path, same
    /// event order, same results. With a deadline, the clock is consulted
    /// once every [`Self::DEADLINE_CHECK_INTERVAL`] events (amortizing the
    /// `Instant::now` syscall to noise) and the run is cancelled
    /// cooperatively once it expires. The model keeps whatever state it had
    /// reached, so callers can report partial statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::DeadlineExceeded`] when the deadline expires mid-run;
    /// [`SimError::TimeOverflow`] on scheduling overflow (see
    /// [`Engine::run`]).
    pub fn run_while_deadline(
        &mut self,
        max_events: u64,
        deadline: Option<Instant>,
        mut predicate: impl FnMut(&M) -> bool,
    ) -> Result<bool, SimError> {
        let Some(deadline) = deadline else {
            return self.run_while(max_events, predicate);
        };
        let deadline_err = |e: &Self| SimError::DeadlineExceeded {
            events: e.events_processed(),
            queued: e.queued(),
        };
        if Instant::now() >= deadline {
            return Err(deadline_err(self));
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
            until_check -= 1;
            if until_check == 0 {
                until_check = Self::DEADLINE_CHECK_INTERVAL;
                if Instant::now() >= deadline {
                    return Err(deadline_err(self));
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

    #[test]
    fn events_fire_in_time_order() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(30), 3);
        e.schedule_at(SimTime::from_nanos(10), 1);
        e.schedule_at(SimTime::from_nanos(20), 2);
        e.run().unwrap();
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
        e.run().unwrap();
        let order: Vec<u32> = e.model().log.iter().map(|&(_, ev)| ev).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn follow_up_events_fire() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(10), 100);
        e.run().unwrap();
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
        e.run().unwrap();
        e.schedule_at(SimTime::from_nanos(5), 1);
    }

    #[test]
    fn run_while_predicate() {
        let mut e = engine();
        for i in 0..10 {
            e.schedule_at(SimTime::from_nanos(i), i as u32);
        }
        let hit = e.run_while(u64::MAX, |m| m.log.len() == 4).unwrap();
        assert!(hit);
        assert_eq!(e.model().log.len(), 4);
        let hit = e.run_while(2, |m| m.log.len() == 100).unwrap();
        assert!(!hit);
        assert_eq!(e.model().log.len(), 6);
    }

    #[test]
    fn empty_engine_runs_to_completion() {
        let mut e = engine();
        e.run().unwrap();
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.events_processed(), 0);
        assert!(!e.step());
    }

    #[test]
    fn cancelled_event_never_fires() {
        let mut e = engine();
        let k = e.schedule_keyed_at(SimTime::from_nanos(10), 7);
        e.schedule_at(SimTime::from_nanos(20), 8);
        assert_eq!(e.queued(), 2);
        assert!(e.cancel(k));
        assert!(!e.cancel(k), "double-cancel reports not-pending");
        assert_eq!(e.queued(), 1, "live count excludes the stale entry");
        assert_eq!(e.queue_len(), 2, "heap still holds it (lazy)");
        assert_eq!(e.stale_in_queue(), 1);
        e.run().unwrap();
        assert_eq!(e.model().log, vec![(SimTime::from_nanos(20), 8)]);
        assert_eq!(e.stale_dropped(), 1);
        assert_eq!(e.stale_in_queue(), 0);
        assert_eq!(e.events_processed(), 1, "stale entries are not events");
    }

    #[test]
    fn cancel_after_fire_is_a_noop() {
        let mut e = engine();
        let k = e.schedule_keyed_at(SimTime::from_nanos(1), 1);
        e.run().unwrap();
        assert_eq!(e.model().log.len(), 1);
        assert!(!e.cancel(k));
        assert_eq!(e.stale_in_queue(), 0);
    }

    #[test]
    fn engine_schedule_in_overflow_is_reported_not_panicked() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(1), 1);
        e.run().unwrap(); // advance the clock off zero
        e.schedule_at(SimTime::from_nanos(10), 2);
        e.schedule_in(SimTime::MAX, 3); // 1ns + MAX overflows
        assert!(e.overflowed());
        let err = e.run().unwrap_err();
        assert!(matches!(err, SimError::TimeOverflow { .. }));
        // The queued non-overflowing event was never delivered: the run
        // failed fast instead of silently continuing.
        assert_eq!(e.model().log.len(), 1);
    }

    #[test]
    fn engine_keyed_overflow_key_is_inert() {
        let mut e = engine();
        e.schedule_at(SimTime::from_nanos(1), 1);
        e.run().unwrap(); // advance the clock off zero
        let k = e.schedule_keyed_in(SimTime::MAX, 9);
        assert!(e.overflowed());
        assert!(!e.cancel(k), "overflow key was never live");
        assert_eq!(e.stale_in_queue(), 0);
        assert!(matches!(e.run(), Err(SimError::TimeOverflow { .. })));
    }

    struct OverflowModel;

    impl Model for OverflowModel {
        type Event = u8;
        fn handle(&mut self, now: SimTime, ev: u8, sched: &mut Scheduler<u8>) {
            if ev == 0 {
                sched.schedule_in(now, SimTime::MAX, 1);
            } else if ev == 2 {
                let _ = sched.schedule_keyed_in(now, SimTime::MAX, 3);
            }
        }
    }

    #[test]
    fn scheduler_overflow_inside_handler_fails_the_run() {
        for trigger in [0u8, 2u8] {
            let mut e = Engine::new(OverflowModel);
            e.schedule_at(SimTime::from_nanos(1), trigger);
            let err = e.run().unwrap_err();
            assert_eq!(err, SimError::TimeOverflow { at: SimTime::from_nanos(1) });
            assert_eq!(e.events_processed(), 1);
        }
    }

    #[test]
    fn run_while_reports_overflow() {
        let mut e = Engine::new(OverflowModel);
        e.schedule_at(SimTime::from_nanos(1), 0);
        assert!(matches!(
            e.run_while(u64::MAX, |_| false),
            Err(SimError::TimeOverflow { .. })
        ));
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

    #[test]
    fn run_while_deadline_none_matches_run_while() {
        let mut timed = engine();
        let mut plain = engine();
        for e in [&mut timed, &mut plain] {
            for i in 0..10 {
                e.schedule_at(SimTime::from_nanos(i * 3), i as u32);
            }
        }
        let hit = timed.run_while_deadline(u64::MAX, None, |m| m.log.len() == 7).unwrap();
        assert!(hit);
        plain.run_while(u64::MAX, |m| m.log.len() == 7).unwrap();
        assert_eq!(timed.model().log, plain.model().log, "None must be the untimed path");
        assert_eq!(timed.now(), plain.now());
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

    struct Rescheduler {
        fired: Vec<u32>,
        pending: Option<EventKey>,
    }

    impl Model for Rescheduler {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
            self.fired.push(ev);
            if ev == 0 {
                // Supersede the previously scheduled completion estimate.
                if let Some(k) = self.pending.take() {
                    sched.cancel(k);
                }
                self.pending = Some(sched.schedule_keyed_in(now, SimTime::from_nanos(100), 99));
            }
        }
    }

    #[test]
    fn scheduler_cancel_and_reschedule_within_handler() {
        let mut e = Engine::new(Rescheduler { fired: Vec::new(), pending: None });
        let k0 = e.schedule_keyed_at(SimTime::from_nanos(500), 99);
        e.model_mut().pending = Some(k0);
        e.schedule_at(SimTime::from_nanos(1), 0);
        e.schedule_at(SimTime::from_nanos(2), 0);
        e.run().unwrap();
        // The two triggers each cancel the outstanding 99 and schedule a new
        // one; exactly one 99 fires, at 2+100.
        assert_eq!(e.model().fired, vec![0, 0, 99]);
        assert_eq!(e.now(), SimTime::from_nanos(102));
        assert_eq!(e.stale_dropped(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite property: adversarial schedules — including deltas that
        /// push far past `SimTime::MAX` — never panic the engine. A run ends
        /// in `Ok` or in a typed `SimError::TimeOverflow`, and overflow is
        /// reported exactly when some relative schedule overflowed.
        #[test]
        fn adversarial_schedules_never_panic(
            start in 1u64..=u64::MAX,
            deltas in collection::vec(0u64..=u64::MAX, 1..30),
        ) {
            let mut e = engine();
            // Advance the clock off zero so `now + delta` can actually
            // overflow the u64 nanosecond domain.
            let now = SimTime::from_picos(start);
            e.schedule_at(now, 0);
            e.run().unwrap();
            for (i, &d) in deltas.iter().enumerate() {
                // Relative scheduling only: absolute past-scheduling is a
                // documented programming-error panic, not an input error.
                e.schedule_in(SimTime::from_picos(d), i as u32 + 1);
            }
            let would_overflow =
                deltas.iter().any(|&d| now.checked_add(SimTime::from_picos(d)).is_none());
            prop_assert_eq!(e.overflowed(), would_overflow);
            match e.run() {
                Ok(()) => prop_assert!(!would_overflow),
                Err(SimError::TimeOverflow { .. }) => prop_assert!(would_overflow),
                Err(other) => prop_assert!(false, "unexpected error: {other:?}"),
            }
        }

        /// Lazy-cancelled events never fire, regardless of the interleaving of
        /// keyed/unkeyed schedules and cancels, and live events all do.
        #[test]
        fn cancelled_events_never_fire(
            ops in collection::vec((0u8..3, 0u64..1000), 1..60),
        ) {
            let mut e = engine();
            let mut keys: Vec<(EventKey, u32)> = Vec::new();
            let mut expected: Vec<(SimTime, u32)> = Vec::new();
            let mut tag = 0u32;
            for &(op, v) in &ops {
                match op {
                    0 => {
                        let at = SimTime::from_nanos(v);
                        e.schedule_at(at, tag);
                        expected.push((at, tag));
                        tag += 1;
                    }
                    1 => {
                        let at = SimTime::from_nanos(v);
                        let k = e.schedule_keyed_at(at, tag);
                        keys.push((k, tag));
                        expected.push((at, tag));
                        tag += 1;
                    }
                    _ => {
                        if keys.is_empty() {
                            continue;
                        }
                        let (k, t) = keys.remove((v as usize) % keys.len());
                        prop_assert!(e.cancel(k));
                        expected.retain(|&(_, et)| et != t);
                    }
                }
            }
            e.run().unwrap();
            expected.sort_by_key(|&(at, t)| (at, t));
            let mut fired = e.model().log.clone();
            fired.sort_by_key(|&(at, t)| (at, t));
            prop_assert_eq!(fired, expected);
            prop_assert_eq!(e.stale_in_queue(), 0);
            prop_assert_eq!(e.queue_len(), 0);
        }
    }
}
