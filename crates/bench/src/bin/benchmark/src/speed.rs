//! The host-speed reference: two fixed kernels timed throughout every run,
//! which the end-to-end CPU times are scaled by.
//!
//! On the shared calibration host the CPU time of the same work drifts by
//! up to 2× over minutes with what the machine's other tenants do, and the
//! workloads drift together. The two kernels stand for the two kinds of
//! work the stack does: a discrete-event loop (pop the earliest event from
//! a binary heap, update per-entity state in a hash map, push a follow-up),
//! as the simulator does, and loopback TCP round trips, the kernel's socket
//! path the serve tier spends its time in. Both live in the benchmark and
//! call none of the repository's crates, so their speed moves with the
//! host and never with the code under test. The host's speed is the
//! geometric mean of the two kernels' speeds: a workload that is all
//! simulation or all sockets follows one kernel more closely, and in a
//! ten-run set per workload on the calibration host, scaling by the mean
//! left spreads close to those of scaling by whichever kernel suited the
//! workload better (README, "Calibration record").

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::{cpu, stats};

/// Events per run of the event kernel: about 10 ms of CPU time on the
/// calibration host.
const EVENTS: usize = 120_000;
/// Entities the events touch: a hash map of ~1.5 MB, like a mid-sized
/// simulation's state.
const ENTITIES: u32 = 1 << 16;
/// Round trips per run of the socket kernel: about 2 ms of CPU time.
const ROUND_TRIPS: usize = 400;
/// The geometric mean of the two kernels' CPU times on a host of the
/// reference speed, in seconds: this defines the reference speed. The
/// calibration host measured 1.2 to 1.7 times this while busy (README).
pub const REFERENCE_S: f64 = 0.005;
/// Kernel runs are at least this far apart, so they cost 3–5% of a run
/// and sample all of it.
const EVERY: Duration = Duration::from_millis(500);

/// One run of the event kernel; returns a digest so the work cannot be
/// elided.
fn events(n: usize) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // A fixed hasher: the map's layout, and so its cost, is the same in
    // every process.
    let mut state: HashMap<u32, (u64, f64), BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(ENTITIES as usize, Default::default());
    let mut queue = BinaryHeap::with_capacity(8192);
    for id in 0..4096 {
        queue.push(Reverse((rnd() % 1000, id)));
    }
    let mut digest = 0u64;
    for _ in 0..n {
        let Reverse((t, id)) = queue.pop().expect("every pop is followed by a push");
        let s = state.entry(id).or_insert((0, 1.0));
        s.0 += t;
        s.1 = s.1 * 0.999 + (t as f64).sqrt();
        digest = digest.wrapping_add(s.0 ^ s.1.to_bits());
        let r = rnd();
        queue.push(Reverse((t + 1 + r % 1000, (r >> 20) as u32 % ENTITIES)));
    }
    digest
}

/// One run of the socket kernel: `n` round trips of 256 bytes over a fresh
/// loopback connection, both ends on this thread (each read finds its data
/// already delivered, so the thread never sleeps).
fn sockets(n: usize) -> std::io::Result<u64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut a = TcpStream::connect(listener.local_addr()?)?;
    let (mut b, _) = listener.accept()?;
    a.set_nodelay(true)?;
    b.set_nodelay(true)?;
    let mut buf = [7u8; 256];
    let mut digest = 0u64;
    for _ in 0..n {
        a.write_all(&buf)?;
        b.read_exact(&mut buf)?;
        b.write_all(&buf)?;
        a.read_exact(&mut buf)?;
        digest = digest.wrapping_add(u64::from(buf[0]));
    }
    Ok(digest)
}

/// Kernel runs taken so far in this process: CPU seconds of each.
#[derive(Debug, Default)]
pub struct Speed {
    events_s: Vec<f64>,
    sockets_s: Vec<f64>,
    last: Option<Instant>,
}

impl Speed {
    /// Run both kernels once on this thread and keep their CPU times.
    pub fn sample(&mut self) -> Result<(), String> {
        let cpu0 = cpu::thread();
        std::hint::black_box(events(std::hint::black_box(EVENTS)));
        let cpu1 = cpu::thread();
        std::hint::black_box(
            sockets(std::hint::black_box(ROUND_TRIPS))
                .map_err(|e| format!("socket reference kernel: {e}"))?,
        );
        self.events_s.push(cpu1 - cpu0);
        self.sockets_s.push(cpu::thread() - cpu1);
        self.last = Some(Instant::now());
        Ok(())
    }

    /// [`Speed::sample`], unless the last sample is under [`EVERY`] old.
    /// Workloads call this between operations.
    pub fn tick(&mut self) -> Result<(), String> {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample()?;
        }
        Ok(())
    }

    /// Median CPU seconds of each kernel, and the number of samples.
    pub fn medians(&self) -> Option<(f64, f64, usize)> {
        (!self.events_s.is_empty()).then(|| {
            (
                stats::median(&self.events_s),
                stats::median(&self.sockets_s),
                self.events_s.len(),
            )
        })
    }

    /// How much slower than the reference speed this host ran: the
    /// geometric mean of the kernels' median CPU times over
    /// [`REFERENCE_S`]. A CPU time divided by it reads as on a host of the
    /// reference speed.
    pub fn slowdown(&self) -> Option<f64> {
        self.medians()
            .map(|(e, s, _)| stats::geomean(&[e, s]) / REFERENCE_S)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernels_are_deterministic_and_scale_with_their_size() {
        assert_eq!(events(5_000), events(5_000));
        assert_ne!(events(5_000), events(5_001));
        assert_eq!(sockets(10).unwrap(), 70);
        let time = |f: &dyn Fn()| {
            let t0 = cpu::thread();
            f();
            cpu::thread() - t0
        };
        let small = time(&|| {
            std::hint::black_box(events(std::hint::black_box(EVENTS)));
        });
        let large = time(&|| {
            std::hint::black_box(events(std::hint::black_box(4 * EVENTS)));
        });
        assert!(large > 2.0 * small, "{large} vs {small}");
    }

    #[test]
    fn ticks_are_spaced_and_give_a_slowdown() {
        let mut speed = Speed::default();
        assert_eq!(speed.slowdown(), None);
        speed.tick().unwrap();
        speed.tick().unwrap();
        let (e, s, n) = speed.medians().unwrap();
        assert_eq!(n, 1);
        assert!(e > 0.0 && s > 0.0);
        let slowdown = speed.slowdown().unwrap();
        assert!((slowdown * REFERENCE_S - (e * s).sqrt()).abs() < 1e-12);
    }
}
