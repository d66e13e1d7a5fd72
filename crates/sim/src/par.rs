//! Conservative parallel DES: window-synchronized logical processes with a
//! byte-identical sequential reference.
//!
//! The engine in [`crate::Engine`] is strictly sequential: one event queue,
//! one clock. This module scales that engine across cores **conservatively**
//! — no speculation, no rollback — by partitioning the simulated system into
//! *logical processes* (LPs), each owning a private engine, and running them
//! in lockstep windows:
//!
//! 1. **Advance.** Every LP runs its own event queue forward until it reaches
//!    a window boundary (a point where it could next interact with another
//!    LP) and emits an *offer* describing its state at the boundary. LPs
//!    share nothing while advancing, so this phase parallelizes freely.
//! 2. **Exchange.** A coordinator folds the offers — **always in LP-index
//!    order, regardless of which worker finished first** — and produces one
//!    *grant* per LP (e.g. the global time at which all may resume).
//! 3. **Apply.** Each grant is applied to its LP sequentially, again in index
//!    order, scheduling the cross-LP events inside the LP's own queue.
//!
//! Determinism falls out of the structure rather than from locking: the only
//! inter-LP communication happens in `exchange`/`apply`, which observe offers
//! in index order no matter how many workers advanced them. A run with
//! `workers == 0` (the sequential reference, same discipline as
//! `max_min_rates_ref` in `trainbox-pcie`) therefore produces *byte-identical*
//! results to a run with any worker count — a property the proptests in
//! `trainbox-core` pin across seeds, worker counts, server kinds and fault
//! storms.
//!
//! The runner also records per-window, per-LP event counts so callers can
//! report load balance honestly: [`imbalance`] (max/mean share across LPs)
//! and [`work_span_speedup`] (the critical-path bound a given worker count
//! could achieve — what a perfectly parallel host would measure, and the
//! number to compare wall-clock scaling against).

use crate::SimError;

/// One logical process: a private simulation that can run to a window
/// boundary on its own and accept cross-partition grants between windows.
///
/// Implementations wrap an [`crate::Engine`] plus whatever bookkeeping the
/// partition needs (event budget, deadline). `Send` is required so the
/// parallel path can hand disjoint LPs to scoped worker threads.
pub trait WindowedLp: Send {
    /// What the LP reports at a window boundary (e.g. "blocked at the
    /// all-reduce barrier at local time t" or "finished").
    type Offer: Send;
    /// What the coordinator hands back (e.g. "resume at global time t").
    type Grant;

    /// Run the private event queue to the next window boundary.
    ///
    /// Must be deterministic given the LP's state — wall-clock effects
    /// (deadline cancellation) may only surface as an `Err`.
    fn advance(&mut self) -> Result<Self::Offer, SimError>;

    /// Apply a cross-partition grant, scheduling any induced events.
    fn apply(&mut self, grant: Self::Grant) -> Result<(), SimError>;

    /// Total events this LP has processed so far (monotone; used for the
    /// per-window load accounting in [`RunStats`]).
    fn events_processed(&self) -> u64;
}

/// The synchronization authority: folds index-ordered offers into per-LP
/// grants at each window boundary.
pub trait Coordinator {
    /// The logical-process type this coordinator synchronizes.
    type Lp: WindowedLp;

    /// Observe this window's offers (index `i` belongs to `lps[i]`) and
    /// either grant every LP its resume instruction (`Some`, length must
    /// equal the LP count) or declare the simulation finished (`None`).
    #[allow(clippy::type_complexity)]
    fn exchange(
        &mut self,
        offers: Vec<<Self::Lp as WindowedLp>::Offer>,
    ) -> Result<Option<Vec<<Self::Lp as WindowedLp>::Grant>>, SimError>;
}

/// Load/progress accounting from a [`run_windows`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Window boundaries crossed (coordinator `exchange` calls).
    pub windows: u64,
    /// Final per-LP event totals, index-aligned with the LP slice.
    pub lp_events: Vec<u64>,
    /// Events each LP processed in each window: `window_events[w][i]` is
    /// LP `i`'s share of window `w`. Feeds [`imbalance`] and
    /// [`work_span_speedup`].
    pub window_events: Vec<Vec<u64>>,
}

impl RunStats {
    /// Total events processed across all LPs.
    pub fn total_events(&self) -> u64 {
        self.lp_events.iter().sum()
    }
}

/// Max/mean ratio of per-LP event totals (1.0 = perfectly balanced
/// partitions; higher means some LP dominates the critical path).
pub fn imbalance(lp_events: &[u64]) -> f64 {
    if lp_events.is_empty() {
        return 1.0;
    }
    let total: u64 = lp_events.iter().sum();
    let max = lp_events.iter().copied().max().unwrap_or(0);
    if total == 0 {
        return 1.0;
    }
    max as f64 * lp_events.len() as f64 / total as f64
}

/// Work-span speedup bound for `workers` threads under the runner's static
/// round-robin partition: total work divided by the per-window critical path
/// (the busiest worker bucket each window, summed over windows).
///
/// This is what a host with at least `workers` idle cores could achieve,
/// ignoring barrier constants — deterministic, derived from the actual
/// per-window event counts, and independent of the measuring host's core
/// count (single-core CI measures wall-clock speedup ≈ 1 while this bound
/// reports the partition quality).
pub fn work_span_speedup(window_events: &[Vec<u64>], workers: usize) -> f64 {
    let workers = workers.max(1);
    let mut total: u64 = 0;
    let mut span: u64 = 0;
    for window in window_events {
        let k = workers.min(window.len()).max(1);
        let mut buckets = vec![0u64; k];
        for (i, &ev) in window.iter().enumerate() {
            buckets[i % k] += ev;
        }
        total += window.iter().sum::<u64>();
        span += buckets.iter().copied().max().unwrap_or(0);
    }
    if span == 0 {
        1.0
    } else {
        total as f64 / span as f64
    }
}

/// Windows cheaper than this many events (in total, over all LPs) cost less
/// than spawning and joining scoped threads, so [`run_windows`] advances the
/// *next* window inline. Fine-grained partitions (intra-server lanes, one
/// ring sync of lookahead) live below it; cluster windows hold tens of
/// thousands of events and stay on the threaded path.
const CHEAP_WINDOW_EVENTS: u64 = 2048;

/// Run `lps` to completion under `coord`'s window protocol.
///
/// `workers <= 1` is the sequential reference: each window advances LPs one
/// by one in index order on the calling thread. `workers >= 2` advances them
/// on that many scoped threads (LPs dealt round-robin by index), then merges
/// offers back into index order before the exchange — so the coordinator
/// observes the exact same sequence either way, and results are
/// byte-identical by construction.
///
/// A window whose predecessor processed fewer than [`CHEAP_WINDOW_EVENTS`]
/// runs inline even with `workers >= 2` (the first window always takes the
/// threaded path). That decision reads only the previous window's event
/// count, itself worker-invariant, so it moves work between threads without
/// ever changing results.
///
/// Errors are deterministic modulo wall-clock deadline cancellation: the
/// error of the smallest-index failing LP in the failing window propagates.
pub fn run_windows<C: Coordinator>(
    coord: &mut C,
    lps: &mut [C::Lp],
    workers: usize,
) -> Result<RunStats, SimError> {
    let n = lps.len();
    let mut stats =
        RunStats { windows: 0, lp_events: vec![0; n], window_events: Vec::new() };
    if n == 0 {
        return Ok(stats);
    }
    // The first window has no history; assume it is worth parallelizing.
    let mut prev_window_events = u64::MAX;
    loop {
        let before: Vec<u64> = lps.iter().map(|lp| lp.events_processed()).collect();
        let cheap = prev_window_events < CHEAP_WINDOW_EVENTS;
        let advanced = if workers <= 1 || n == 1 || cheap {
            advance_sequential(lps)
        } else {
            advance_parallel(lps, workers)
        };
        let window: Vec<u64> = lps
            .iter()
            .zip(&before)
            .map(|(lp, b)| lp.events_processed().saturating_sub(*b))
            .collect();
        prev_window_events = window.iter().sum();
        stats.window_events.push(window);
        stats.windows += 1;
        for (slot, lp) in stats.lp_events.iter_mut().zip(lps.iter()) {
            *slot = lp.events_processed();
        }
        let offers = advanced?;
        match coord.exchange(offers)? {
            None => break,
            Some(grants) => {
                assert_eq!(
                    grants.len(),
                    n,
                    "coordinator must grant every LP exactly once per window"
                );
                for (lp, grant) in lps.iter_mut().zip(grants) {
                    lp.apply(grant)?;
                }
            }
        }
    }
    Ok(stats)
}

/// The sequential reference path: index order, calling thread.
fn advance_sequential<L: WindowedLp>(lps: &mut [L]) -> Result<Vec<L::Offer>, SimError> {
    let mut offers = Vec::with_capacity(lps.len());
    for lp in lps.iter_mut() {
        offers.push(lp.advance()?);
    }
    Ok(offers)
}

/// One worker's share of an advance phase: `(lp_index, offer_or_error)`.
type AdvanceOut<L> = Vec<(usize, Result<<L as WindowedLp>::Offer, SimError>)>;

/// The parallel path: deal LPs round-robin to `workers` scoped threads, then
/// re-assemble offers into index order so downstream observes the same
/// sequence the sequential path produces.
fn advance_parallel<L: WindowedLp>(
    lps: &mut [L],
    workers: usize,
) -> Result<Vec<L::Offer>, SimError> {
    let n = lps.len();
    let k = workers.min(n);
    let mut buckets: Vec<Vec<(usize, &mut L)>> = (0..k).map(|_| Vec::new()).collect();
    for (i, lp) in lps.iter_mut().enumerate() {
        buckets[i % k].push((i, lp));
    }
    let mut slots: Vec<Option<Result<L::Offer, SimError>>> = Vec::new();
    slots.resize_with(n, || None);
    let outs: Vec<AdvanceOut<L>> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket
                        .into_iter()
                        .map(|(i, lp)| (i, lp.advance()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(out) => out,
                // An LP panic is a model bug; re-raise it on the caller so it
                // is never silently swallowed by the scope.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    for out in outs {
        for (i, r) in out {
            slots[i] = Some(r);
        }
    }
    // Index-order scan: the first error seen is the smallest-index failure,
    // matching what the sequential reference would have returned.
    let mut offers = Vec::with_capacity(n);
    for slot in slots {
        match slot.expect("every LP is dealt to exactly one bucket") {
            Ok(offer) => offers.push(offer),
            Err(e) => return Err(e),
        }
    }
    Ok(offers)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::thread::{self, ThreadId};

    /// Toy LP: counts down `steps` barriers, doing `cost` fake events per
    /// window; blocks at each barrier reporting its local "time". Records,
    /// per `advance`, whether it ran on the thread that called the runner.
    struct ToyLp {
        id: u64,
        steps: u32,
        cost: u64,
        events: u64,
        clock: u64,
        fail_at_step: Option<u32>,
        done_steps: u32,
        caller: ThreadId,
        inline: Vec<bool>,
    }

    impl WindowedLp for ToyLp {
        type Offer = Option<u64>; // Some(local clock) at barrier, None when done
        type Grant = u64; // global resume time

        fn advance(&mut self) -> Result<Self::Offer, SimError> {
            self.inline.push(thread::current().id() == self.caller);
            if self.done_steps >= self.steps {
                return Ok(None);
            }
            if self.fail_at_step == Some(self.done_steps) {
                return Err(SimError::Stalled { events: self.events, queued: 1 });
            }
            self.events += self.cost;
            self.clock += self.id + 1;
            Ok(Some(self.clock))
        }

        fn apply(&mut self, grant: Self::Grant) -> Result<(), SimError> {
            assert!(grant >= self.clock, "grant must not travel backwards");
            self.clock = grant;
            self.done_steps += 1;
            Ok(())
        }

        fn events_processed(&self) -> u64 {
            self.events
        }
    }

    /// Barrier coordinator: release everyone at max(local clocks) + 1.
    struct MaxBarrier {
        releases: Vec<u64>,
    }

    impl Coordinator for MaxBarrier {
        type Lp = ToyLp;

        fn exchange(
            &mut self,
            offers: Vec<Option<u64>>,
        ) -> Result<Option<Vec<u64>>, SimError> {
            let at_barrier: Vec<u64> = offers.iter().filter_map(|o| *o).collect();
            if at_barrier.is_empty() {
                return Ok(None);
            }
            assert_eq!(
                at_barrier.len(),
                offers.len(),
                "lockstep windows: all LPs block or all finish"
            );
            let release = at_barrier.iter().copied().max().unwrap_or(0) + 1;
            self.releases.push(release);
            Ok(Some(vec![release; offers.len()]))
        }
    }

    /// `n` toys whose windows cost `base + i` events each (LP `i`).
    fn toys(n: usize, steps: u32, base: u64) -> Vec<ToyLp> {
        (0..n)
            .map(|i| ToyLp {
                id: i as u64,
                steps,
                cost: base + i as u64,
                events: 0,
                clock: 0,
                fail_at_step: None,
                done_steps: 0,
                caller: thread::current().id(),
                inline: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential_reference_exactly() {
        // One toy set whose windows fall below the cheap-window threshold
        // (9 LPs x ~14 events) and one above it (9 LPs x ~1000 events):
        // after the threaded first window, the first runs inline and the
        // second stays threaded. Either way every worker count must agree
        // with the sequential reference bit for bit.
        for (base, cheap) in [(10u64, true), (1000, false)] {
            let window_events: u64 = (0..9).map(|i| base + i).sum();
            assert_eq!(window_events < CHEAP_WINDOW_EVENTS, cheap);
            let mut reference: Option<(Vec<u64>, RunStats, Vec<u64>)> = None;
            for workers in [0usize, 1, 2, 3, 7, 16] {
                let mut lps = toys(9, 5, base);
                let mut coord = MaxBarrier { releases: Vec::new() };
                let stats = run_windows(&mut coord, &mut lps, workers).expect("run ok");
                for lp in &lps {
                    // 5 barrier windows + the all-done window.
                    let threaded = workers >= 2;
                    let mut expected = vec![!threaded || cheap; 6];
                    expected[0] = !threaded;
                    assert_eq!(lp.inline, expected, "base={base} workers={workers}");
                }
                let clocks: Vec<u64> = lps.iter().map(|l| l.clock).collect();
                match &reference {
                    None => reference = Some((coord.releases, stats, clocks)),
                    Some((rel, st, cl)) => {
                        assert_eq!(&coord.releases, rel, "base={base} workers={workers}");
                        assert_eq!(&stats, st, "base={base} workers={workers}");
                        assert_eq!(&clocks, cl, "base={base} workers={workers}");
                    }
                }
            }
            let (_, stats, _) = reference.unwrap();
            assert_eq!(stats.windows, 6, "5 barrier windows + 1 all-done window");
            assert_eq!(stats.total_events(), window_events * 5);
        }
    }

    #[test]
    fn error_propagates_smallest_failing_index_for_any_worker_count() {
        for workers in [0usize, 2, 5] {
            let mut lps = toys(6, 4, 10);
            lps[4].fail_at_step = Some(2);
            lps[1].fail_at_step = Some(2);
            let mut coord = MaxBarrier { releases: Vec::new() };
            let err = run_windows(&mut coord, &mut lps, workers).unwrap_err();
            // LP 1 and LP 4 both fail in window 2; index order picks LP 1.
            assert_eq!(
                err,
                SimError::Stalled { events: lps[1].events, queued: 1 },
                "workers={workers}"
            );
        }
    }

    #[test]
    fn empty_lp_set_finishes_immediately() {
        let mut coord = MaxBarrier { releases: Vec::new() };
        let mut lps: Vec<ToyLp> = Vec::new();
        let stats = run_windows(&mut coord, &mut lps, 4).expect("empty run ok");
        assert_eq!(stats.windows, 0);
        assert_eq!(stats.total_events(), 0);
    }

    #[test]
    fn imbalance_and_work_span_accounting() {
        assert_eq!(imbalance(&[]), 1.0);
        assert_eq!(imbalance(&[0, 0]), 1.0);
        assert_eq!(imbalance(&[5, 5, 5, 5]), 1.0);
        // One LP does half the work of a 4-LP system: max/mean = 100/50 = 2.
        assert_eq!(imbalance(&[100, 40, 30, 30]), 2.0);

        // Two windows, 4 equal LPs: 2 workers halve the span, 4 quarter it.
        let w = vec![vec![10, 10, 10, 10], vec![10, 10, 10, 10]];
        assert_eq!(work_span_speedup(&w, 1), 1.0);
        assert_eq!(work_span_speedup(&w, 2), 2.0);
        assert_eq!(work_span_speedup(&w, 4), 4.0);
        // More workers than LPs cannot beat the LP count.
        assert_eq!(work_span_speedup(&w, 16), 4.0);
        // A dominant LP caps the bound at total/max.
        let skew = vec![vec![30, 10, 10, 10]];
        assert_eq!(work_span_speedup(&skew, 4), 2.0);
        assert_eq!(work_span_speedup(&[], 4), 1.0);
    }
}
