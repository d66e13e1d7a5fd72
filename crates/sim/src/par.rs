//! Conservative parallel DES: barrier-synchronized logical processes with a
//! byte-identical sequential reference.
//!
//! The engine in [`crate::Engine`] is strictly sequential: one event queue,
//! one clock. This module scales that engine across cores **conservatively**
//! — no speculation, no rollback — by partitioning the simulated system into
//! *logical processes* (LPs), each owning a private engine, that interact
//! only at a shared barrier. [`run_windows`] runs them in lockstep windows:
//!
//! 1. **Advance.** Every LP runs its own event queue forward until it parks
//!    at the barrier or finishes. LPs share nothing while advancing, so this
//!    phase parallelizes freely.
//! 2. **Release.** The runner folds the park times — **always in LP-index
//!    order, regardless of which worker finished first** — into one release
//!    time, `max(park times) + hold`, and hands it to every parked LP, again
//!    in index order. A window in which no LP parked ends the run.
//!
//! Determinism falls out of the structure rather than from locking: the only
//! inter-LP communication is the release, computed from park times observed
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

use crate::{SimError, SimTime};

/// One logical process: a private simulation that runs on its own until it
/// parks at the barrier, and resumes when the runner releases it.
///
/// Implementations wrap an [`crate::Engine`] plus whatever bookkeeping the
/// partition needs (event budget, deadline). `Send` is required so the
/// parallel path can hand disjoint LPs to scoped worker threads.
pub trait BarrierLp: Send {
    /// Run the private event queue until the LP parks at the barrier
    /// (`Some(local time)`) or has finished (`None`).
    ///
    /// Must be deterministic given the LP's state — wall-clock effects
    /// (deadline cancellation) may only surface as an `Err`.
    fn advance(&mut self) -> Result<Option<SimTime>, SimError>;

    /// Resume a parked LP at global time `at`, scheduling the release
    /// inside its own queue.
    fn release(&mut self, at: SimTime);

    /// Total events this LP has processed so far (monotone; used for the
    /// per-window load accounting in [`RunStats`]).
    fn events_processed(&self) -> u64;
}

/// Load/progress accounting from a [`run_windows`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Windows advanced (every release, plus the final all-done window).
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

/// Run `lps` to completion, releasing every parked LP at
/// `max(park times) + hold` after each window. Returns the load accounting
/// and the release time of every window that had one.
///
/// `workers <= 1` is the sequential reference: each window advances LPs one
/// by one in index order on the calling thread. `workers >= 2` advances them
/// on that many scoped threads (LPs dealt round-robin by index), then merges
/// park times back into index order before the fold — so the release sees
/// the exact same sequence either way, and results are byte-identical by
/// construction.
///
/// A window whose predecessor processed fewer than `CHEAP_WINDOW_EVENTS`
/// runs inline even with `workers >= 2` (the first window always takes the
/// threaded path). That decision reads only the previous window's event
/// count, itself worker-invariant, so it moves work between threads without
/// ever changing results.
///
/// Errors are deterministic modulo wall-clock deadline cancellation: the
/// error of the smallest-index failing LP in the failing window propagates.
pub fn run_windows<L: BarrierLp>(
    lps: &mut [L],
    hold: SimTime,
    workers: usize,
) -> Result<(RunStats, Vec<SimTime>), SimError> {
    let n = lps.len();
    let mut stats =
        RunStats { windows: 0, lp_events: vec![0; n], window_events: Vec::new() };
    let mut releases = Vec::new();
    if n == 0 {
        return Ok((stats, releases));
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
        let parked = advanced?;
        // Every LP finished its last generation: nothing left to release.
        let Some(latest) = parked.iter().flatten().max() else {
            break;
        };
        let release = latest.saturating_add(hold);
        releases.push(release);
        for (lp, at) in lps.iter_mut().zip(&parked) {
            if at.is_some() {
                lp.release(release);
            }
        }
    }
    Ok((stats, releases))
}

/// The sequential reference path: index order, calling thread.
fn advance_sequential<L: BarrierLp>(lps: &mut [L]) -> Result<Vec<Option<SimTime>>, SimError> {
    lps.iter_mut().map(BarrierLp::advance).collect()
}

/// The parallel path: deal LPs round-robin to `workers` scoped threads, then
/// re-assemble park times into index order so downstream observes the same
/// sequence the sequential path produces.
fn advance_parallel<L: BarrierLp>(
    lps: &mut [L],
    workers: usize,
) -> Result<Vec<Option<SimTime>>, SimError> {
    let n = lps.len();
    let k = workers.min(n);
    let mut buckets: Vec<Vec<(usize, &mut L)>> = (0..k).map(|_| Vec::new()).collect();
    for (i, lp) in lps.iter_mut().enumerate() {
        buckets[i % k].push((i, lp));
    }
    let mut slots: Vec<Option<Result<Option<SimTime>, SimError>>> = vec![None; n];
    std::thread::scope(|scope| {
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
        for h in handles {
            match h.join() {
                Ok(out) => {
                    for (i, r) in out {
                        slots[i] = Some(r);
                    }
                }
                // An LP panic is a model bug; re-raise it on the caller so it
                // is never silently swallowed by the scope.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // Index-order collect: the first error seen is the smallest-index
    // failure, matching what the sequential reference would have returned.
    slots
        .into_iter()
        .map(|slot| slot.expect("every LP is dealt to exactly one bucket"))
        .collect()
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

    impl BarrierLp for ToyLp {
        fn advance(&mut self) -> Result<Option<SimTime>, SimError> {
            self.inline.push(thread::current().id() == self.caller);
            if self.done_steps >= self.steps {
                return Ok(None);
            }
            if self.fail_at_step == Some(self.done_steps) {
                return Err(SimError::Stalled { events: self.events, queued: 1 });
            }
            self.events += self.cost;
            self.clock += self.id + 1;
            Ok(Some(SimTime::from_picos(self.clock)))
        }

        fn release(&mut self, at: SimTime) {
            let at = at.as_picos();
            assert!(at >= self.clock, "a release must not travel backwards");
            self.clock = at;
            self.done_steps += 1;
        }

        fn events_processed(&self) -> u64 {
            self.events
        }
    }

    /// The toys' barrier: release everyone 1 ps after the latest arrival.
    const HOLD: SimTime = SimTime::from_picos(1);

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
            let mut reference: Option<(Vec<SimTime>, RunStats, Vec<u64>)> = None;
            for workers in [0usize, 1, 2, 3, 7, 16] {
                let mut lps = toys(9, 5, base);
                let (stats, releases) = run_windows(&mut lps, HOLD, workers).expect("run ok");
                for lp in &lps {
                    // 5 barrier windows + the all-done window.
                    let threaded = workers >= 2;
                    let mut expected = vec![!threaded || cheap; 6];
                    expected[0] = !threaded;
                    assert_eq!(lp.inline, expected, "base={base} workers={workers}");
                }
                let clocks: Vec<u64> = lps.iter().map(|l| l.clock).collect();
                match &reference {
                    None => reference = Some((releases, stats, clocks)),
                    Some((rel, st, cl)) => {
                        assert_eq!(&releases, rel, "base={base} workers={workers}");
                        assert_eq!(&stats, st, "base={base} workers={workers}");
                        assert_eq!(&clocks, cl, "base={base} workers={workers}");
                    }
                }
            }
            let (releases, stats, _) = reference.unwrap();
            // LP 8 arrives last each window, 9 ps after the previous release.
            let expected: Vec<SimTime> = (1..=5).map(|g| SimTime::from_picos(10 * g)).collect();
            assert_eq!(releases, expected);
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
            let err = run_windows(&mut lps, HOLD, workers).unwrap_err();
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
        let mut lps: Vec<ToyLp> = Vec::new();
        let (stats, releases) = run_windows(&mut lps, HOLD, 4).expect("empty run ok");
        assert_eq!(stats.windows, 0);
        assert!(releases.is_empty());
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
