//! Queueing helpers for simulation models.

use crate::SimTime;

/// A work-conserving FIFO server with `servers` parallel service slots.
///
/// Models a device that can process up to `servers` jobs at a time, each job
/// occupying one slot for its service time. Jobs are admitted in arrival
/// order; the earliest-free slot serves the next job. This captures, e.g., an
/// SSD with a fixed queue-depth worth of parallelism, or a pool of identical
/// data-preparation engines in front of a shared queue.
///
/// # Example
///
/// ```
/// use trainbox_sim::{FifoServer, SimTime};
///
/// // Two parallel engines, each job takes 10 ns.
/// let mut s = FifoServer::new(2);
/// let svc = SimTime::from_nanos(10);
/// let t0 = SimTime::ZERO;
/// assert_eq!(s.enqueue(t0, svc), SimTime::from_nanos(10)); // slot 0
/// assert_eq!(s.enqueue(t0, svc), SimTime::from_nanos(10)); // slot 1
/// assert_eq!(s.enqueue(t0, svc), SimTime::from_nanos(20)); // waits for slot 0
/// ```
#[derive(Debug, Clone)]
pub struct FifoServer {
    /// Time at which each slot becomes free.
    free_at: Vec<SimTime>,
    busy_total: SimTime,
    jobs: u64,
}

impl FifoServer {
    /// Create a server with `servers` parallel slots.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "FifoServer requires at least one server");
        FifoServer {
            free_at: vec![SimTime::ZERO; servers],
            busy_total: SimTime::ZERO,
            jobs: 0,
        }
    }

    /// Number of parallel slots.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Admit a job arriving at `arrival` needing `service` time; returns its
    /// completion time.
    pub fn enqueue(&mut self, arrival: SimTime, service: SimTime) -> SimTime {
        let slot = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|&(_, &t)| t)
            .map(|(i, _)| i)
            // invariant: `new` asserts servers > 0, so `free_at` is non-empty.
            .expect("at least one slot");
        let start = self.free_at[slot].max(arrival);
        // Saturate rather than wrap at the end of simulated time: a server
        // pinned at SimTime::MAX stays there instead of corrupting the queue.
        let done = start.saturating_add(service);
        self.free_at[slot] = done;
        self.busy_total = self.busy_total.saturating_add(service);
        self.jobs += 1;
        done
    }

    /// Total busy time summed over all slots.
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }

    /// Number of jobs admitted.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Mean utilization over `[0, horizon]` across all slots (0..=1).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        assert!(horizon > SimTime::ZERO, "horizon must be positive");
        self.busy_total.as_secs_f64() / (horizon.as_secs_f64() * self.free_at.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_server_serializes_jobs() {
        let mut s = FifoServer::new(1);
        let svc = SimTime::from_nanos(5);
        assert_eq!(s.enqueue(SimTime::ZERO, svc), SimTime::from_nanos(5));
        assert_eq!(s.enqueue(SimTime::ZERO, svc), SimTime::from_nanos(10));
        // A job arriving after the backlog drains starts immediately.
        assert_eq!(
            s.enqueue(SimTime::from_nanos(100), svc),
            SimTime::from_nanos(105)
        );
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.busy_total(), SimTime::from_nanos(15));
    }

    #[test]
    fn parallel_slots_overlap() {
        let mut s = FifoServer::new(3);
        let svc = SimTime::from_nanos(10);
        for _ in 0..3 {
            assert_eq!(s.enqueue(SimTime::ZERO, svc), SimTime::from_nanos(10));
        }
        assert_eq!(s.enqueue(SimTime::ZERO, svc), SimTime::from_nanos(20));
    }

    #[test]
    fn utilization_accounts_all_slots() {
        let mut s = FifoServer::new(2);
        s.enqueue(SimTime::ZERO, SimTime::from_nanos(10));
        // One slot busy 10ns out of 2 slots * 10ns horizon = 50%.
        assert!((s.utilization(SimTime::from_nanos(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        FifoServer::new(0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Conservation: total busy time equals jobs x service, completion
        /// times never precede arrivals, and drain time is bounded by the
        /// perfectly-balanced and fully-serialized extremes.
        #[test]
        fn fifo_server_invariants(
            servers in 1usize..6,
            jobs in proptest::collection::vec((0u64..1000, 1u64..100), 1..40),
        ) {
            let mut s = FifoServer::new(servers);
            let mut total_service = SimTime::ZERO;
            let mut drain = SimTime::ZERO;
            let mut sorted = jobs.clone();
            sorted.sort_by_key(|&(a, _)| a);
            for &(arrival, service) in &sorted {
                let (at, svc) = (SimTime::from_nanos(arrival), SimTime::from_nanos(service));
                let done = s.enqueue(at, svc);
                prop_assert!(done >= at + svc, "completion precedes arrival+service");
                total_service += svc;
                drain = drain.max(done);
            }
            prop_assert_eq!(s.busy_total(), total_service);
            prop_assert_eq!(s.jobs(), sorted.len() as u64);
            // Serialized upper bound.
            let last_arrival = SimTime::from_nanos(sorted.last().unwrap().0);
            prop_assert!(drain <= last_arrival + total_service);
        }
    }

    #[test]
    fn throughput_matches_service_rate_under_saturation() {
        // 4 servers, 1us service each, 1000 jobs arriving at t=0:
        // drain time should be 250us (perfect load balance).
        let mut s = FifoServer::new(4);
        let mut drain = SimTime::ZERO;
        for _ in 0..1000 {
            drain = drain.max(s.enqueue(SimTime::ZERO, SimTime::from_micros(1)));
        }
        assert_eq!(drain, SimTime::from_micros(250));
    }
}
