//! Event-loop shards: nonblocking connection ownership for the serve tier.
//!
//! Each shard is one thread running a level-triggered readiness loop
//! ([`crate::sys::Poller`]) over the connections the acceptor handed it.
//! A connection is a small state machine:
//!
//! ```text
//!   Reading ──parsed──▶ Waiting ──completion──▶ Writing ──drained──▶ close
//!      │                                           ▲
//!      ├─inline route (metrics/healthz/…) ─────────┘
//!      └─POST /sweep ─▶ Sweeping (stream chunks until done) ─▶ close
//! ```
//!
//! The shard never simulates: `/simulate` bodies and sweep points are
//! pushed onto the bounded job queue and the connection parks in `Waiting`
//! (no I/O interest) until the compute pool posts a [`Completion`] back
//! through the shard's wakeup channel. Timeouts are the shard's own
//! bookkeeping — read-inactivity, the total header budget, and write
//! stalls — so a malicious client costs a connection slot, never a thread.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, ParseError, ParseStatus, RequestParser, Request};
use crate::metrics::Metrics;
use crate::sweep::{self, SweepState};
use crate::sys::{Interest, Poller, WakeReceiver, WakeSender};
use crate::{breaker::BreakerState, retry_after_secs, Ctx, Job};

/// Poller token reserved for the shard's wakeup receiver.
const WAKE_TOKEN: u64 = 0;

/// How soon to retry dispatching a sweep that has points pending but
/// nothing in flight (the job queue was full and no completion of our own
/// will wake us).
const STARVED_SWEEP_RETRY: Duration = Duration::from_millis(5);

/// A finished unit of compute, routed back to the shard that owns the
/// connection. Completions for connections that died in the meantime are
/// dropped silently — the work was already paid for, nobody is listening.
pub(crate) enum Completion {
    /// Full response bytes for a `/simulate` (ready to write verbatim).
    Simulate { conn_id: u64, bytes: Vec<u8> },
    /// One answered sweep point; the shard re-orders and streams it.
    SweepPoint { conn_id: u64, index: usize, line: String, ok: bool },
}

/// The cross-thread face of one shard: the acceptor submits connections,
/// the compute pool posts completions, anyone may wake it.
pub(crate) struct ShardHandle {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<Vec<Completion>>,
    waker: WakeSender,
}

impl ShardHandle {
    pub(crate) fn new(waker: WakeSender) -> Self {
        ShardHandle { inbox: Mutex::new(Vec::new()), completions: Mutex::new(Vec::new()), waker }
    }

    pub(crate) fn submit(&self, stream: TcpStream) {
        self.inbox.lock().unwrap().push(stream);
        self.waker.wake();
    }

    pub(crate) fn post(&self, c: Completion) {
        self.completions.lock().unwrap().push(c);
        self.waker.wake();
    }

    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn take_inbox(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.inbox.lock().unwrap())
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap())
    }

    fn is_drained(&self) -> bool {
        self.inbox.lock().unwrap().is_empty() && self.completions.lock().unwrap().is_empty()
    }
}

enum State {
    /// Request line/headers/body still arriving through the push parser.
    Reading,
    /// A job is in the compute pool; no I/O interest until it completes.
    Waiting,
    /// Final response queued in `out`; close once drained.
    Writing,
    /// Streaming an NDJSON sweep; closes once the done line is drained.
    Sweeping(SweepState),
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    state: State,
    parser: RequestParser,
    /// Outbound bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    started: Instant,
    /// Last byte of I/O progress in either direction (timeout anchor).
    last_activity: Instant,
    /// Peer half-closed its write side (EOF seen); stop reading but keep
    /// serving — only a write error proves it is really gone.
    read_closed: bool,
    registered: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        let fd = stream.as_raw_fd();
        let now = Instant::now();
        Conn {
            stream,
            fd,
            state: State::Reading,
            parser: RequestParser::new(),
            out: Vec::new(),
            out_pos: 0,
            started: now,
            last_activity: now,
            read_closed: false,
            registered: Interest::READ,
        }
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Queue a complete response and move to the final-write state.
    fn respond(&mut self, status: u16, headers: &[(&str, &str)], body: &str) {
        self.queue(&http::response_bytes(status, headers, body));
        self.state = State::Writing;
    }

    /// Push pending bytes at the socket until it would block. `Err` means
    /// the peer is gone (reset/EPIPE) and the connection should be reaped.
    fn flush(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// All work done: final bytes flushed, nothing more will be produced.
    fn finished(&self) -> bool {
        if self.out_pending() {
            return false;
        }
        match &self.state {
            State::Writing => true,
            State::Sweeping(st) => st.finished,
            _ => false,
        }
    }

    fn desired_interest(&self) -> Interest {
        let readable = !self.read_closed
            && matches!(self.state, State::Reading | State::Sweeping(_));
        Interest { readable, writable: self.out_pending() }
    }

    fn update_interest(&mut self, poller: &mut Poller, id: u64) -> io::Result<()> {
        let want = self.desired_interest();
        if want != self.registered {
            poller.modify(self.fd, id, want)?;
            self.registered = want;
        }
        Ok(())
    }

    /// The instant at which this connection times out, if any applies.
    fn deadline(&self, ctx: &Ctx) -> Option<Instant> {
        let mut deadline: Option<Instant> = None;
        let mut consider = |d: Instant| {
            deadline = Some(deadline.map_or(d, |cur| cur.min(d)));
        };
        if matches!(self.state, State::Reading) {
            if let Some(t) = ctx.read_timeout {
                consider(self.last_activity + t);
                if self.parser.headers_incomplete() {
                    consider(self.started + ctx.header_budget);
                }
            }
        }
        if self.out_pending() {
            if let Some(t) = ctx.write_timeout {
                consider(self.last_activity + t);
            }
        }
        deadline
    }
}

/// One shard's event loop. Exits when shutdown is flagged, the acceptor has
/// stopped, and every owned connection has drained.
pub(crate) fn run_shard(ctx: Arc<Ctx>, shard_idx: usize, mut wake_rx: WakeReceiver) {
    let mut poller = match Poller::new() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trainbox-serve shard {shard_idx}: poller setup failed: {e}");
            return;
        }
    };
    if poller.register(wake_rx.raw_fd(), WAKE_TOKEN, Interest::READ).is_err() {
        return;
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 1;
    let mut events = Vec::new();
    let mut dead: Vec<u64> = Vec::new();

    loop {
        // 1. Adopt newly accepted connections.
        for stream in ctx.shards[shard_idx].take_inbox() {
            if stream.set_nonblocking(true).is_err() {
                ctx.active_connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let id = next_id;
            next_id += 1;
            ctx.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
            let conn = Conn::new(stream);
            if poller.register(conn.fd, id, Interest::READ).is_err() {
                ctx.active_connections.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            conns.insert(id, conn);
        }

        // 2. Apply completions from the compute pool.
        for completion in ctx.shards[shard_idx].take_completions() {
            match completion {
                Completion::Simulate { conn_id, bytes } => {
                    if let Some(conn) = conns.get_mut(&conn_id) {
                        conn.queue(&bytes);
                        conn.state = State::Writing;
                    }
                }
                Completion::SweepPoint { conn_id, index, line, ok } => {
                    if let Some(conn) = conns.get_mut(&conn_id) {
                        if let State::Sweeping(ref mut st) = conn.state {
                            let chunks = sweep::on_point(&ctx, st, index, &line, ok);
                            conn.out.extend_from_slice(&chunks);
                        }
                    }
                }
            }
        }

        // 3. Keep sweeps fed (completions free queue slots; retry after a
        // full-queue backoff too).
        for (&id, conn) in conns.iter_mut() {
            if let State::Sweeping(ref mut st) = conn.state {
                if !st.finished {
                    sweep::dispatch(&ctx, shard_idx, id, st);
                }
            }
        }

        // 4. Flush opportunistically, reap finished/dead conns, re-arm
        // interest before sleeping.
        dead.clear();
        for (&id, conn) in conns.iter_mut() {
            if conn.out_pending() && conn.flush().is_err() {
                dead.push(id);
                continue;
            }
            if conn.finished() {
                dead.push(id);
                continue;
            }
            if conn.update_interest(&mut poller, id).is_err() {
                dead.push(id);
            }
        }
        for &id in &dead {
            remove_conn(&ctx, &mut conns, &mut poller, id);
        }

        // 5. Exit when nothing can arrive anymore and nothing is owned.
        if ctx.acceptor_done.load(Ordering::SeqCst)
            && conns.is_empty()
            && ctx.shards[shard_idx].is_drained()
        {
            break;
        }

        // 6. Sleep until the nearest deadline (or a wakeup).
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        let mut consider = |d: Duration| {
            timeout = Some(timeout.map_or(d, |cur| cur.min(d)));
        };
        for conn in conns.values() {
            if let Some(d) = conn.deadline(&ctx) {
                consider(d.saturating_duration_since(now).max(Duration::from_millis(1)));
            }
            if let State::Sweeping(ref st) = conn.state {
                if !st.finished && st.starved() {
                    consider(STARVED_SWEEP_RETRY);
                }
            }
        }
        if poller.wait(timeout, &mut events).is_err() {
            // Transient poller failure: behave like a timeout tick.
            events.clear();
        }

        // 7. Handle readiness.
        for ev in events.iter().copied() {
            if ev.token == WAKE_TOKEN {
                wake_rx.drain();
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else { continue };
            let mut drop_conn = false;
            if ev.readable {
                drop_conn = handle_read(&ctx, shard_idx, ev.token, conn);
            }
            if !drop_conn && ev.writable && conn.out_pending() {
                drop_conn = conn.flush().is_err();
            }
            if !drop_conn && ev.hangup && !ev.readable {
                drop_conn = true;
            }
            if !drop_conn && conn.finished() {
                drop_conn = true;
            }
            if drop_conn {
                remove_conn(&ctx, &mut conns, &mut poller, ev.token);
            } else if let Some(conn) = conns.get_mut(&ev.token) {
                if conn.update_interest(&mut poller, ev.token).is_err() {
                    remove_conn(&ctx, &mut conns, &mut poller, ev.token);
                }
            }
        }

        // 8. Expire deadlines.
        let now = Instant::now();
        dead.clear();
        let mut timed_out: Vec<u64> = Vec::new();
        for (&id, conn) in conns.iter() {
            if let Some(d) = conn.deadline(&ctx) {
                if now >= d {
                    if matches!(conn.state, State::Reading) {
                        timed_out.push(id);
                    } else {
                        dead.push(id); // write stall: nothing more to say
                    }
                }
            }
        }
        for id in timed_out {
            if let Some(conn) = conns.get_mut(&id) {
                // A trickling or stalled client: answer 408 if it is still
                // listening and close either way.
                ctx.metrics.http_408.fetch_add(1, Ordering::Relaxed);
                conn.respond(
                    408,
                    &[],
                    "{\"error\":\"timed out waiting for the request\",\"field\":\"\"}",
                );
                if conn.flush().is_err()
                    || !conn.out_pending()
                    || conn.update_interest(&mut poller, id).is_err()
                {
                    dead.push(id);
                }
            }
        }
        for &id in &dead {
            remove_conn(&ctx, &mut conns, &mut poller, id);
        }
    }
}

fn remove_conn(ctx: &Ctx, conns: &mut HashMap<u64, Conn>, poller: &mut Poller, id: u64) {
    if let Some(conn) = conns.remove(&id) {
        let _ = poller.deregister(conn.fd);
        if let State::Sweeping(st) = &conn.state {
            if !st.finished {
                // Aborted mid-stream: free the sweep slot; in-flight point
                // completions for this conn id will be dropped on arrival.
                ctx.active_sweeps.fetch_sub(1, Ordering::SeqCst);
            }
        }
        ctx.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drain the socket. Returns true when the connection must be dropped
/// (transport error, or EOF before any answerable request).
fn handle_read(ctx: &Ctx, shard_idx: usize, id: u64, conn: &mut Conn) -> bool {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.read_closed = true;
                return match conn.state {
                    State::Reading => match conn.parser.finish_eof() {
                        // Clean connect-then-close: nothing to answer.
                        ParseError::Io(_) => true,
                        e => {
                            queue_parse_error(&ctx.metrics, conn, e);
                            false
                        }
                    },
                    // Half-close after a complete request: the peer may
                    // still be reading; keep serving until a write fails.
                    _ => false,
                };
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                if matches!(conn.state, State::Reading) {
                    match conn.parser.feed(&buf[..n]) {
                        Ok(ParseStatus::Done(req)) => route(ctx, shard_idx, id, conn, req),
                        Ok(ParseStatus::NeedMore) => {
                            if conn.parser.take_continue_request() {
                                conn.queue(http::CONTINUE_100);
                            }
                        }
                        Err(e) => {
                            queue_parse_error(&ctx.metrics, conn, e);
                            return false;
                        }
                    }
                }
                // In any later state, trailing bytes are discarded (one
                // request per connection; we never keep-alive).
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Map a parse failure to its wire answer and counters — the same contract
/// the blocking tier had, plus the explicit 501 for chunked uploads.
fn queue_parse_error(metrics: &Metrics, conn: &mut Conn, e: ParseError) {
    match e {
        ParseError::Bad(_) => {
            metrics.http_400.fetch_add(1, Ordering::Relaxed);
            let body = format!("{{\"error\":{:?},\"field\":\"body\"}}", e.to_string());
            conn.respond(400, &[], &body);
        }
        ParseError::TooLarge => {
            metrics.http_400.fetch_add(1, Ordering::Relaxed);
            conn.respond(413, &[], "{\"error\":\"request body too large\",\"field\":\"body\"}");
        }
        ParseError::HeadersTooLarge(_) => {
            metrics.http_431.fetch_add(1, Ordering::Relaxed);
            let body = format!("{{\"error\":{:?},\"field\":\"\"}}", e.to_string());
            conn.respond(431, &[], &body);
        }
        ParseError::NotImplemented(_) => {
            metrics.http_501.fetch_add(1, Ordering::Relaxed);
            let body = format!("{{\"error\":{:?},\"field\":\"\"}}", e.to_string());
            conn.respond(501, &[], &body);
        }
        ParseError::Timeout => {
            metrics.http_408.fetch_add(1, Ordering::Relaxed);
            conn.respond(408, &[], "{\"error\":\"timed out waiting for the request\",\"field\":\"\"}");
        }
        // Transport errors are handled by the caller (silent close).
        ParseError::Io(_) => {
            conn.state = State::Writing;
        }
    }
}

/// Dispatch a complete request: compute-pool work for `/simulate` and
/// `/sweep`, everything else answered inline on the shard.
fn route(ctx: &Ctx, shard_idx: usize, id: u64, conn: &mut Conn, req: Request) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/simulate") => {
            let job = Job::Simulate {
                conn_id: id,
                shard: shard_idx,
                body: req.body,
                deadline_ms: req.deadline_ms,
                started: Instant::now(),
            };
            match ctx.jobs.push(job) {
                Ok(()) => {
                    ctx.metrics.simulate_requests.fetch_add(1, Ordering::Relaxed);
                    conn.state = State::Waiting;
                }
                Err(_) => {
                    ctx.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    let ra = retry_after_secs(ctx).to_string();
                    conn.respond(
                        429,
                        &[("retry-after", &ra)],
                        "{\"error\":\"admission queue full, retry later\",\"field\":\"\"}",
                    );
                }
            }
        }
        ("POST", "/sweep") => match sweep::begin(ctx, &req.body) {
            Ok(state) => {
                conn.queue(&http::streaming_head_bytes(200, &[]));
                conn.state = State::Sweeping(state);
                // First dispatch happens on the next loop pass.
            }
            Err((status, body)) => {
                if status == 429 {
                    let ra = retry_after_secs(ctx).to_string();
                    conn.respond(429, &[("retry-after", &ra)], &body);
                } else {
                    conn.respond(status, &[], &body);
                }
            }
        },
        ("GET", "/metrics") => {
            let body = ctx.metrics.render(
                ctx.jobs.len(),
                ctx.cache.len(),
                ctx.breaker.state().name(),
                ctx.breaker.trips(),
                ctx.active_connections.load(Ordering::SeqCst),
            );
            conn.respond(200, &[], &body);
        }
        ("GET", "/workloads") => {
            conn.respond(200, &[], trainbox_core::request::workload_catalog_json());
        }
        ("GET", "/healthz") => conn.respond(200, &[], "{\"status\":\"ok\"}"),
        ("GET", "/readyz") => {
            let breaker = ctx.breaker.state();
            let shutting_down = ctx.shutdown.load(Ordering::SeqCst);
            let queue_depth = ctx.jobs.len();
            let queue_capacity = ctx.jobs.capacity();
            // Ready = this instance should receive new traffic. A half-open
            // breaker counts as ready: the tier is probing its way back.
            let ready =
                !shutting_down && breaker != BreakerState::Open && queue_depth < queue_capacity;
            let body = format!(
                "{{\"ready\":{ready},\"shutting_down\":{shutting_down},\
                 \"breaker\":\"{}\",\"queue_depth\":{queue_depth},\
                 \"queue_capacity\":{queue_capacity}}}",
                breaker.name()
            );
            conn.respond(if ready { 200 } else { 503 }, &[], &body);
        }
        ("POST", "/admin/shutdown") => {
            conn.respond(200, &[], "{\"status\":\"shutting down\"}");
            crate::initiate_shutdown(ctx);
        }
        (
            _,
            "/simulate" | "/sweep" | "/workloads" | "/metrics" | "/healthz" | "/readyz"
            | "/admin/shutdown",
        ) => {
            conn.respond(405, &[], "{\"error\":\"method not allowed\",\"field\":\"\"}");
        }
        _ => conn.respond(404, &[], "{\"error\":\"no such endpoint\",\"field\":\"\"}"),
    }
}
