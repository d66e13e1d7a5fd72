//! Load generation against a live server on loopback.
//!
//! Two shapes, both from one process with at most `threads` generator
//! threads, each holding at most one connection (the server closes every
//! connection after its response, so one request is one connection):
//!
//! * **Open loop** ([`open_loop`]): requests are due on a fixed schedule,
//!   independent of how fast the server answers. Each request's latency is
//!   timed from its *due* time, not from when it was sent, so a stall is
//!   charged to every request that queued behind it instead of being hidden
//!   (coordinated omission). How late the generator sent each request is
//!   reported separately as lag.
//! * **Closed loop** ([`closed_loop`]): every thread sends its next request
//!   as soon as the previous one answered; the wall time of a fixed request
//!   count measures capacity.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use trainbox_core::request::canonical_hash_of;

use crate::cpu;

/// One scheduled request: when it is due (offset from the phase start) and
/// the exact bytes to send.
#[derive(Debug, Clone)]
pub struct Shot {
    pub due: Duration,
    /// Index of the question this request asks (the caller's numbering).
    pub question: usize,
    pub bytes: std::sync::Arc<[u8]>,
}

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    /// Header names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The outcome of one scheduled request.
#[derive(Debug)]
pub struct Sample {
    pub shot: usize,
    /// Due time to last response byte.
    pub latency: Duration,
    /// Due time to send time: how late the generator ran.
    pub lag: Duration,
    /// The HTTP status, or why no response arrived.
    pub status: Result<u16, String>,
}

impl Sample {
    /// A refused or failed request: anything but a 200.
    pub fn failed(&self) -> bool {
        self.status != Ok(200)
    }
}

/// The first reply of every distinct (question, body hash) pair. Only these
/// are kept, so a long phase holds a few hundred bodies, not every one.
pub type Replies = BTreeMap<(usize, u64), Reply>;

/// What one phase of load produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// One per shot, in shot order.
    pub samples: Vec<Sample>,
    pub replies: Replies,
    /// CPU seconds the generator threads spent: to subtract from the
    /// process's CPU time, leaving the in-process server's.
    pub generator_cpu_s: f64,
}

/// The bytes of a `POST path` request carrying `body`.
pub fn post_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\
         connection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Send raw request bytes on a fresh connection and read the response until
/// the server closes it.
pub fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<Reply, String> {
    let raw = exchange_raw(addr, bytes)?;
    parse_reply(&raw)
}

/// [`exchange`] without parsing: the full response bytes.
pub fn exchange_raw(addr: SocketAddr, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream.write_all(bytes).map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::with_capacity(2048);
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    close_with_reset(stream);
    Ok(raw)
}

/// Close a connection whose response has been read in full with a reset
/// rather than a FIN, so neither end keeps it in TIME_WAIT. Thousands of
/// connections a second otherwise fill the kernel's TIME_WAIT table, and
/// each new connection's cost grows with it: by 30% within one run, and
/// by how recently the previous run ended.
fn close_with_reset(stream: TcpStream) {
    #[repr(C)]
    struct Linger {
        onoff: i32,
        seconds: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        onoff: 1,
        seconds: 0,
    };
    // SAFETY: the descriptor is `stream`'s open socket, borrowed for the
    // call; `linger` is a live `struct linger` (two C ints) and `len` is its
    // size. setsockopt only reads it.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "SO_LINGER on an open TCP socket failed");
}

pub fn get(addr: SocketAddr, path: &str) -> Result<Reply, String> {
    let req = format!("GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n");
    exchange(addr, req.as_bytes())
}

/// Split a `content-length`-framed response into status, headers and body.
pub fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("response is not UTF-8: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("no header/body split in {} bytes", raw.len()))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    Ok(Reply {
        status,
        headers,
        body: body.to_string(),
    })
}

/// Decode a chunked transfer-encoding body.
pub fn dechunk(body: &str) -> Result<String, String> {
    let mut rest = body;
    let mut out = String::new();
    loop {
        let (size, tail) = rest.split_once("\r\n").ok_or("truncated chunk size line")?;
        let size = usize::from_str_radix(size.trim(), 16)
            .map_err(|e| format!("bad chunk size {size:?}: {e}"))?;
        if size == 0 {
            return Ok(out);
        }
        let chunk = tail.get(..size).ok_or("truncated chunk")?;
        out.push_str(chunk);
        rest = tail.get(size + 2..).ok_or("truncated chunk trailer")?;
    }
}

/// Sleep until `deadline` (no busy-wait: the generator shares the host's
/// cores with the server it measures).
fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Run `shots` (sorted by due time) open-loop on `threads` threads. Each
/// thread claims the next unsent shot, waits for its due time if it is
/// early, and sends it; a thread busy with a slow response delays only the
/// shots it would have claimed, and their latency shows it.
pub fn open_loop(addr: SocketAddr, shots: &[Shot], threads: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Phase::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                let cpu0 = cpu::thread();
                let mut mine = Phase::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(shot) = shots.get(i) else { break };
                    let due = start + shot.due;
                    sleep_until(due);
                    let sent = Instant::now();
                    let reply = exchange(addr, &shot.bytes);
                    let done = Instant::now();
                    let status = reply.map(|r| {
                        let status = r.status;
                        mine.replies
                            .entry((shot.question, canonical_hash_of(&r.body)))
                            .or_insert(r);
                        status
                    });
                    mine.samples.push(Sample {
                        shot: i,
                        latency: done.saturating_duration_since(due),
                        lag: sent.saturating_duration_since(due),
                        status,
                    });
                }
                let mut out = out.lock().expect("sample sink poisoned");
                out.samples.append(&mut mine.samples);
                for (k, r) in mine.replies {
                    out.replies.entry(k).or_insert(r);
                }
                out.generator_cpu_s += cpu::thread() - cpu0;
            });
        }
    });
    let mut phase = out.into_inner().expect("sample sink poisoned");
    phase.samples.sort_by_key(|s| s.shot);
    phase
}

/// Send every request of `shots` closed-loop on `threads` threads (due
/// times ignored); returns the wall time and what the requests produced.
pub fn closed_loop(addr: SocketAddr, shots: &[Shot], threads: usize) -> (Duration, Phase) {
    let zero: Vec<Shot> = shots
        .iter()
        .map(|s| Shot {
            due: Duration::ZERO,
            ..s.clone()
        })
        .collect();
    let start = Instant::now();
    let phase = open_loop(addr, &zero, threads);
    (start.elapsed(), phase)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread server that answers every request with a fixed body,
    /// stalling `stall` before answering request number `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
        total: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for (i, stream) in listener.incoming().take(total).enumerate() {
                let mut stream = stream.unwrap();
                let mut buf = [0u8; 4096];
                let mut got = Vec::new();
                // The request is headers plus the two-byte body `{}`; read
                // it all so closing the socket sends FIN, not RST.
                while !got.ends_with(b"{}") {
                    let n = stream.read(&mut buf).unwrap();
                    got.extend_from_slice(&buf[..n]);
                }
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nx-cache: hit\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // Forty requests due every 10 ms on one connection; the server
        // stalls 200 ms on the third. Requests due during the stall were
        // sent late, and due-time latency must include that wait.
        let n = 40;
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(2, stall, n);
        let bytes: std::sync::Arc<[u8]> = post_bytes("/simulate", "{}").into();
        let shots: Vec<Shot> = (0..n)
            .map(|i| Shot {
                due: Duration::from_millis(10 * i as u64),
                question: i,
                bytes: bytes.clone(),
            })
            .collect();
        let phase = open_loop(addr, &shots, 1);
        server.join().unwrap();
        let samples = &phase.samples;
        assert_eq!(samples.len(), n);
        assert!(samples.iter().all(|s| !s.failed()));
        assert_eq!(phase.replies.len(), n, "one distinct reply per question");
        assert_eq!(
            phase.replies[&(0, canonical_hash_of("ok"))].header("x-cache"),
            Some("hit")
        );
        // The stalled request itself.
        assert!(samples[2].latency >= stall);
        // Request 5 was due 30 ms after the stalled one started, so it
        // waited the remaining ~170 ms: the generator reports the lag and
        // the latency covers it.
        let s5 = &samples[5];
        assert!(s5.lag >= Duration::from_millis(150), "lag {:?}", s5.lag);
        assert!(
            s5.latency >= s5.lag,
            "latency {:?} < lag {:?}",
            s5.latency,
            s5.lag
        );
        // Timed from send instead, request 5 would look fast.
        assert!(s5.latency - s5.lag < Duration::from_millis(50));
        // The generator catches up: the last request is on time again.
        assert!(
            samples[n - 1].lag < Duration::from_millis(50),
            "lag {:?}",
            samples[n - 1].lag
        );
    }

    #[test]
    fn replies_and_chunks_parse() {
        let r = parse_reply(b"HTTP/1.1 429 Too Many\r\nRetry-After: 3\r\n\r\nbusy").unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.header("retry-after"), Some("3"));
        assert_eq!(r.body, "busy");
        assert_eq!(
            dechunk("3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n").unwrap(),
            "ab\ncd"
        );
        assert!(dechunk("5\r\nab").is_err());
    }
}
