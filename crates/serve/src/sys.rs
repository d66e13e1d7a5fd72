//! Readiness notification for the non-blocking serve tier, vendored
//! against the platform C library the Rust binary already links — no
//! `libc`/`mio` crates, per the repo's std-only rule.
//!
//! Linux gets a real `epoll` [`Poller`]; every other Unix falls back to a
//! `poll(2)` implementation behind the same API. Both are level-triggered:
//! the event loop re-arms interest explicitly (write interest only while
//! bytes are pending), which keeps the loop logic free of edge-trigger
//! bookkeeping. Cross-thread wakeups ride a Unix socket pair
//! ([`wake_pair`]) that std builds, so no pipe or eventfd binding is
//! needed.

use std::io::{self, Read, Write};
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;

/// What a registered fd should be watched for. Level-triggered: a readable
/// fd keeps reporting until drained, a writable one until the socket
/// buffer fills — so only subscribe `writable` while output is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest { readable: true, writable: false };
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    pub const BOTH: Interest = Interest { readable: true, writable: true };
    /// No I/O interest; errors and hangups are still reported (the kernel
    /// always delivers those), which lets a loop reap dead peers while a
    /// connection waits on the compute pool.
    pub const NONE: Interest = Interest { readable: false, writable: false };
}

/// One readiness event. `hangup` folds the platform's HUP/ERR signals
/// together: either way the peer is gone and the connection should be
/// reaped once pending work allows.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

/// Cap on events returned per wait; the loop drains the rest next turn.
pub const MAX_EVENTS: usize = 256;

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest, MAX_EVENTS};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    // x86 packs epoll_event to match the 32-bit layout; other Linux
    // architectures use natural alignment.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall wrapper; a negative return is errno.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS] })
        }

        fn ctl(&self, op: i32, fd: RawFd, interest: Interest, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent { events: mask(interest), data: token };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, Interest::NONE, 0)
        }

        /// Wait for readiness; `None` blocks until something happens.
        pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let timeout_ms = match timeout {
                // Round up so a 0.4 ms deadline does not busy-spin at 0.
                Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
                None => -1,
            };
            // SAFETY: buf is MAX_EVENTS long and lives across the call.
            let n = unsafe {
                epoll_wait(self.epfd, self.buf.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms)
            };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for ev in &self.buf[..n as usize] {
                let events = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: events & EPOLLIN != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd came from epoll_create1 and is closed once.
            unsafe {
                close(self.epfd);
            }
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{Event, Interest};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Pollfd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    extern "C" {
        // nfds_t is u32 on the BSD family this fallback serves.
        fn poll(fds: *mut Pollfd, nfds: u32, timeout: i32) -> i32;
    }

    /// `poll(2)`-backed fallback with the same level-triggered contract as
    /// the Linux epoll poller. O(n) per wait — fine for the connection
    /// counts a dev laptop sees; production deploys on Linux.
    pub struct Poller {
        registered: HashMap<RawFd, (u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { registered: HashMap::new() })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.registered.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, timeout: Option<Duration>, out: &mut Vec<Event>) -> io::Result<()> {
            out.clear();
            let mut fds: Vec<Pollfd> = Vec::with_capacity(self.registered.len());
            let mut tokens: Vec<u64> = Vec::with_capacity(self.registered.len());
            for (&fd, &(token, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                fds.push(Pollfd { fd, events, revents: 0 });
                tokens.push(token);
            }
            let timeout_ms = match timeout {
                Some(t) => i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX),
                None => -1,
            };
            // SAFETY: fds is a live contiguous buffer for the call.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pfd, &token) in fds.iter().zip(&tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLHUP | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(not(unix))]
compile_error!("trainbox-serve's event loop needs a Unix readiness API (epoll or poll)");

pub use imp::Poller;

/// Sender half of a cross-thread wakeup channel: any thread may signal the
/// owning event loop. Writes are non-blocking and take no lock (a one-byte
/// write to a Unix stream is atomic); a full socket buffer means wakeups
/// are already pending, so dropping the byte loses nothing.
pub struct WakeSender {
    tx: UnixStream,
}

impl WakeSender {
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Receiver half; registered with the poller and drained on wakeup.
pub struct WakeReceiver {
    rx: UnixStream,
}

impl WakeReceiver {
    pub fn raw_fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    /// Swallow all pending wakeup bytes.
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// A connected Unix socket pair serving as a self-wakeup channel — pure
/// std, no pipes or eventfd bindings.
pub fn wake_pair() -> io::Result<(WakeSender, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((WakeSender { tx }, WakeReceiver { rx }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    #[test]
    fn wake_pair_delivers_readiness_through_the_poller() {
        let (tx, mut rx) = wake_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(rx.raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a short wait returns empty.
        poller.wait(Some(Duration::from_millis(10)), &mut events).unwrap();
        assert!(events.is_empty(), "no wakeup sent yet");
        tx.wake();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");
        rx.drain();
        poller.wait(Some(Duration::from_millis(10)), &mut events).unwrap();
        assert!(
            events.iter().all(|e| e.token != 7 || !e.readable),
            "drained receiver must go quiet: {events:?}"
        );
    }

    #[test]
    fn concurrent_wakes_are_never_lost() {
        // Producers push and wake in a tight loop, so the socket buffer
        // may fill and drop wake bytes; the receiver
        // follows the shard's order (wait, drain, then take). Every item
        // must arrive, and a wait may only time out when nothing is queued.
        const PRODUCERS: usize = 4;
        const ITEMS: usize = 20_000;
        let (tx, mut rx) = wake_pair().unwrap();
        let tx = Arc::new(tx);
        let queue = Arc::new(Mutex::new(Vec::new()));
        let mut poller = Poller::new().unwrap();
        poller.register(rx.raw_fd(), 3, Interest::READ).unwrap();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (tx, queue) = (Arc::clone(&tx), Arc::clone(&queue));
                std::thread::spawn(move || {
                    for i in 0..ITEMS {
                        queue.lock().unwrap().push(p * ITEMS + i);
                        tx.wake();
                    }
                })
            })
            .collect();
        let mut seen = vec![false; PRODUCERS * ITEMS];
        let mut received = 0;
        let mut events = Vec::new();
        while received < seen.len() {
            poller.wait(Some(Duration::from_secs(1)), &mut events).unwrap();
            if events.is_empty() {
                assert!(queue.lock().unwrap().is_empty(), "a wakeup was lost with items queued");
            }
            rx.drain();
            for item in std::mem::take(&mut *queue.lock().unwrap()) {
                assert!(!std::mem::replace(&mut seen[item], true), "item {item} twice");
                received += 1;
            }
        }
        for p in producers {
            p.join().unwrap();
        }
    }

    #[test]
    fn write_interest_reports_until_buffer_full() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(client.as_raw_fd(), 1, Interest::WRITE).unwrap();
        let mut events = Vec::new();
        poller.wait(Some(Duration::from_millis(1000)), &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable), "{events:?}");
        // Dropping interest silences it (level-triggered re-arm contract).
        poller.modify(client.as_raw_fd(), 1, Interest::NONE).unwrap();
        poller.wait(Some(Duration::from_millis(10)), &mut events).unwrap();
        assert!(events.iter().all(|e| !e.writable), "{events:?}");
    }
}
