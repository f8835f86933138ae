//! The server proper: event-driven acceptor, bounded admission queue,
//! worker pool, routing, and crash-only shutdown (DESIGN.md §7.8, §7.9).
//!
//! Topology since PR 8: a single **reactor** thread owns the listener and
//! every connection that is not mid-request — it accepts, reads request
//! heads with readiness-driven non-blocking I/O
//! ([`crate::reactor::Poller`]), and pushes *parsed* requests onto the
//! bounded [`Admission`] queue. Idle keep-alive connections cost an epoll
//! slot, not a parked thread. When the queue is full the reactor queues the
//! `429` bytes on the connection's write buffer and flushes them as the
//! socket drains — overload never blocks the acceptor. Workers pop
//! requests, execute them through the engine (single-flight claims handed
//! to the one executor thread, `crate::batch`), write the response with
//! blocking I/O, and hand the still-alive connection back to the reactor.
//! This is the only transport, and it needs epoll: serving is Linux-only
//! ([`Server::start`] is `Unsupported` elsewhere; the rest of the
//! workspace builds everywhere).
//!
//! Every worker turn is wrapped in `catch_unwind`: a panicking request
//! burns one connection, never a worker, never the process.

use crate::admission::{Admission, PushError};
use crate::batch::{Batcher, Flights};
use crate::cache::ResultCache;
use crate::config::ServerConfig;
use crate::engine::{self, EngineCtx, Shard};
use crate::flightrec::{FlightRecorder, Outcome, ReqRecord, RequestScope};
use crate::http::{head_end, Request, Response, MAX_HEAD_BYTES};
use crate::stats::{ServeCounter, Stats};
use indigo_graph::gen::{Scale, SuiteGraph, SUITE_GRAPHS};
use indigo_graph::stats::FEATURE_NAMES;
use indigo_obs::{json_num, json_str};
use indigo_styles::{Algorithm, Model, StyleConfig};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
#[cfg(target_os = "linux")]
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-connection stream deadlines once a worker owns the socket: a client
/// that stops reading or writing cannot pin a worker forever.
const STREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// One unit of work for the worker pool: a request whose head the reactor
/// already read and parsed; `leftover` holds pipelined bytes past it.
struct Job {
    stream: TcpStream,
    req: Result<Request, String>,
    arrived: Instant,
    leftover: Vec<u8>,
}

/// A keep-alive connection a worker handed back for more requests.
#[cfg(target_os = "linux")]
struct Parked {
    stream: TcpStream,
    leftover: Vec<u8>,
    reused: bool,
}

/// The worker-facing half of the reactor: a wake pipe plus the parking lot.
#[cfg(target_os = "linux")]
struct ReactorShared {
    wake_tx: Mutex<std::os::unix::net::UnixStream>,
    parked: Mutex<Vec<Parked>>,
}

#[cfg(target_os = "linux")]
impl ReactorShared {
    /// Nudges the reactor out of `wait`. A full pipe means wakes are
    /// already pending, so `WouldBlock` is success.
    fn wake(&self) {
        let mut tx = self.wake_tx.lock().unwrap_or_else(|e| e.into_inner());
        let _ = tx.write(&[1u8]);
    }
}

struct Inner {
    cfg: ServerConfig,
    cache: Arc<ResultCache>,
    shards: HashMap<&'static str, Shard>,
    queue: Admission<Job>,
    stats: Arc<Stats>,
    flights: Arc<Flights>,
    batcher: Batcher,
    advisors: crate::advise::AdvisorHub,
    shutdown: AtomicBool,
    /// Request sequence counter; `next_seq` starts at 1 so `served_by == 0`
    /// always means "executed its own cells".
    req_seq: AtomicU64,
    recorder: FlightRecorder,
    /// Connections the reactor is currently watching (the `/metrics`
    /// `parked_connections` gauge; updated once per reactor turn).
    watched: AtomicUsize,
    #[cfg(target_os = "linux")]
    reactor: ReactorShared,
}

/// The next request sequence number (1-based).
fn next_seq(inner: &Inner) -> u64 {
    inner.req_seq.fetch_add(1, Ordering::Relaxed) + 1
}

/// A running server; dropping it shuts down and joins every thread.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, replays the journal, opens the reactor, and spawns it and
    /// the worker pool. Every transport set-up step (epoll instance, wake
    /// pair, listener registration) happens here, so its failure is an
    /// `Err`, never a running server that accepts nothing.
    #[cfg(target_os = "linux")]
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let (poller, wake_tx, wake_rx) = reactor_impl::open(&listener)?;
        let cache = Arc::new(ResultCache::open(cfg.journal.as_deref())?);
        let stats = Arc::new(Stats::new());
        let mut shards = HashMap::new();
        for g in SUITE_GRAPHS {
            shards.insert(g.label(), Shard::new(g, cfg.breaker));
        }
        let queue = Admission::new(cfg.queue);
        let workers_n = cfg.workers.max(1);
        let batcher = Batcher::spawn(Arc::clone(&cache), Arc::clone(&stats), cfg.jobs)?;

        let inner = Arc::new(Inner {
            cfg,
            cache,
            shards,
            queue,
            stats,
            flights: Arc::new(Flights::new()),
            batcher,
            advisors: crate::advise::AdvisorHub::new(),
            shutdown: AtomicBool::new(false),
            req_seq: AtomicU64::new(0),
            recorder: FlightRecorder::new(),
            watched: AtomicUsize::new(0),
            reactor: ReactorShared {
                wake_tx: Mutex::new(wake_tx),
                parked: Mutex::new(Vec::new()),
            },
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-reactor".into())
                .spawn(move || reactor_impl::reactor_loop(&inner, &listener, &poller, &wake_rx))?
        };
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// Serving is Linux-only: elsewhere this is the `Unsupported` error of
    /// the [`crate::reactor::Poller`] stub.
    #[cfg(not(target_os = "linux"))]
    pub fn start(_cfg: ServerConfig) -> std::io::Result<Server> {
        crate::reactor::Poller::new()?;
        unreachable!("Poller::new() succeeds only on Linux")
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time stats snapshot.
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Cells recovered from the journal at startup.
    pub fn recovered_cells(&self) -> usize {
        self.inner.cache.recovered
    }

    /// Stops accepting, drains in-flight work, joins every thread.
    pub fn shutdown(&mut self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // the reactor blocks in `wait`; its wake pipe gets it to the flag
        #[cfg(target_os = "linux")]
        self.inner.reactor.wake();
        self.inner.queue.close();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.inner.batcher.shutdown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---- reactor path (Linux) -------------------------------------------------

#[cfg(target_os = "linux")]
mod reactor_impl {
    use super::*;
    use crate::reactor::{Interest, Poller};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKE: u64 = 1;

    /// A connection the reactor is watching: accumulating a request head,
    /// flushing a queued response (sheds, 400s), or idle between keep-alive
    /// requests.
    struct ConnBuf {
        stream: TcpStream,
        buf: Vec<u8>,
        write_buf: Vec<u8>,
        wpos: usize,
        arrived: Instant,
        reused: bool,
        close_after_write: bool,
    }

    enum Verdict {
        Keep,
        Drop,
        /// A complete head landed: dispatch to the worker pool.
        Dispatch(usize),
    }

    /// Creates the poller and the wake pair and registers the listener
    /// and the wake pipe: every step of reactor set-up that can fail, run
    /// by [`Server::start`] before any thread exists.
    pub(super) fn open(
        listener: &TcpListener,
    ) -> std::io::Result<(Poller, UnixStream, UnixStream)> {
        let poller = Poller::new()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)?;
        Ok((poller, wake_tx, wake_rx))
    }

    pub(super) fn reactor_loop(
        inner: &Inner,
        listener: &TcpListener,
        poller: &Poller,
        wake_rx: &UnixStream,
    ) {
        let shared = &inner.reactor;
        let mut conns: HashMap<u64, ConnBuf> = HashMap::new();
        let mut next_token: u64 = 2;
        let mut events = Vec::with_capacity(64);
        loop {
            let _ = poller.wait(&mut events, Some(Duration::from_millis(250)));
            if inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => {
                        accept_ready(inner, listener, poller, &mut conns, &mut next_token)
                    }
                    TOKEN_WAKE => {
                        let mut scratch = [0u8; 64];
                        let mut rx = wake_rx;
                        while matches!(rx.read(&mut scratch), Ok(n) if n > 0) {}
                        let parked: Vec<Parked> = std::mem::take(
                            &mut *shared.parked.lock().unwrap_or_else(|e| e.into_inner()),
                        );
                        for p in parked {
                            register(inner, poller, &mut conns, &mut next_token, p);
                        }
                    }
                    token => {
                        let Some(mut cb) = conns.remove(&token) else {
                            continue;
                        };
                        let verdict = on_event(inner, &mut cb, ev.writable, ev.readable);
                        settle(inner, poller, &mut conns, token, cb, verdict);
                    }
                }
            }
            inner.watched.store(conns.len(), Ordering::Relaxed);
            indigo_obs::Gauge::ServeParkedConns.set(conns.len() as i64);
            // reap connections dribbling a head (slow-loris) or wedged on a
            // pending write
            let deadline = inner.cfg.header_timeout;
            let dead: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| {
                    (!c.buf.is_empty() || c.wpos < c.write_buf.len())
                        && c.arrived.elapsed() > deadline
                })
                .map(|(t, _)| *t)
                .collect();
            for t in dead {
                if let Some(cb) = conns.remove(&t) {
                    let _ = poller.remove(cb.stream.as_raw_fd());
                }
            }
        }
        // shutdown: tear everything down
        for (_, cb) in conns.drain() {
            let _ = poller.remove(cb.stream.as_raw_fd());
        }
        let _ = poller.remove(listener.as_raw_fd());
        let _ = poller.remove(wake_rx.as_raw_fd());
    }

    fn accept_ready(
        inner: &Inner,
        listener: &TcpListener,
        poller: &Poller,
        conns: &mut HashMap<u64, ConnBuf>,
        next_token: &mut u64,
    ) {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    register(
                        inner,
                        poller,
                        conns,
                        next_token,
                        Parked {
                            stream,
                            leftover: Vec::new(),
                            reused: false,
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Starts watching a fresh or parked connection. A parked connection
    /// whose leftover already holds a full pipelined head dispatches
    /// immediately.
    fn register(
        inner: &Inner,
        poller: &Poller,
        conns: &mut HashMap<u64, ConnBuf>,
        next_token: &mut u64,
        p: Parked,
    ) {
        if p.stream.set_nonblocking(true).is_err() {
            return;
        }
        let token = *next_token;
        *next_token += 1;
        let mut cb = ConnBuf {
            stream: p.stream,
            buf: p.leftover,
            write_buf: Vec::new(),
            wpos: 0,
            arrived: Instant::now(),
            reused: p.reused,
            close_after_write: false,
        };
        if poller
            .add(cb.stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        if let Some(end) = head_end(&cb.buf) {
            let verdict = Verdict::Dispatch(end);
            settle(inner, poller, conns, token, cb, verdict);
            return;
        }
        // drain whatever is already readable so a request that raced the
        // registration isn't stuck waiting for the *next* byte
        let verdict = on_event(inner, &mut cb, false, true);
        settle(inner, poller, conns, token, cb, verdict);
    }

    /// Applies readiness to one connection.
    fn on_event(inner: &Inner, cb: &mut ConnBuf, writable: bool, readable: bool) -> Verdict {
        if writable || (cb.wpos < cb.write_buf.len()) {
            match flush_pending(cb) {
                Ok(true) if cb.close_after_write => return Verdict::Drop,
                Ok(_) => {}
                Err(_) => return Verdict::Drop,
            }
        }
        if !readable {
            return Verdict::Keep;
        }
        let mut chunk = [0u8; 1024];
        loop {
            match cb.stream.read(&mut chunk) {
                Ok(0) => {
                    // EOF: half-closed or done. If a write is still
                    // pending, keep flushing; otherwise reap
                    return if cb.wpos < cb.write_buf.len() {
                        Verdict::Keep
                    } else {
                        Verdict::Drop
                    };
                }
                Ok(n) => {
                    if cb.buf.is_empty() {
                        cb.arrived = Instant::now(); // new request head starts
                    }
                    cb.buf.extend_from_slice(&chunk[..n]);
                    if let Some(end) = head_end(&cb.buf) {
                        return Verdict::Dispatch(end);
                    }
                    if cb.buf.len() > MAX_HEAD_BYTES {
                        inner.stats.bump(ServeCounter::Requests);
                        inner.stats.bump(ServeCounter::BadRequests);
                        let mut scope = RequestScope::new(next_seq(inner), None, cb.arrived);
                        scope.outcome = Outcome::BadRequest;
                        inner
                            .recorder
                            .push(ReqRecord::from_scope(&scope, "<unparsed>", 400, 0));
                        let resp = Response::json(
                            400,
                            format!(
                                "{{\"status\":\"bad-request\",\"error\":\"request head exceeds {MAX_HEAD_BYTES} bytes\"}}"
                            ),
                        )
                        .with_close()
                        .with_request_id(scope.echo);
                        cb.buf.clear();
                        cb.write_buf = resp.to_bytes();
                        cb.wpos = 0;
                        cb.close_after_write = true;
                        return match flush_pending(cb) {
                            Ok(true) => Verdict::Drop,
                            Ok(false) => Verdict::Keep,
                            Err(_) => Verdict::Drop,
                        };
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Drop,
            }
        }
    }

    /// Flushes as much of the queued response as the socket takes.
    /// `Ok(true)` = fully flushed.
    fn flush_pending(cb: &mut ConnBuf) -> std::io::Result<bool> {
        while cb.wpos < cb.write_buf.len() {
            match cb.stream.write(&cb.write_buf[cb.wpos..]) {
                Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero)),
                Ok(n) => cb.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Carries out a verdict: re-watch, tear down, or hand to the workers.
    fn settle(
        inner: &Inner,
        poller: &Poller,
        conns: &mut HashMap<u64, ConnBuf>,
        token: u64,
        mut cb: ConnBuf,
        verdict: Verdict,
    ) {
        match verdict {
            Verdict::Keep => {
                let interest = if cb.wpos < cb.write_buf.len() {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                let _ = poller.modify(cb.stream.as_raw_fd(), token, interest);
                conns.insert(token, cb);
            }
            Verdict::Drop => {
                let _ = poller.remove(cb.stream.as_raw_fd());
            }
            Verdict::Dispatch(end) => {
                inner.stats.bump(ServeCounter::Requests);
                if cb.reused {
                    inner.stats.bump(ServeCounter::KeepAliveReuses);
                }
                let head = String::from_utf8_lossy(&cb.buf[..end]).into_owned();
                let req = Request::parse(&head);
                let leftover = cb.buf[end..].to_vec();
                let fd = cb.stream.as_raw_fd();
                let job = Job {
                    stream: cb.stream,
                    req,
                    arrived: cb.arrived,
                    leftover,
                };
                match inner.queue.try_push(job) {
                    Ok(()) => {
                        let _ = poller.remove(fd);
                    }
                    Err(PushError::Full(job)) => {
                        // shed without blocking: queue the 429 on the
                        // connection and let readiness flush it
                        let Job {
                            stream,
                            req,
                            arrived,
                            ..
                        } = job;
                        inner.stats.bump(ServeCounter::Shed);
                        let mut scope = RequestScope::new(
                            next_seq(inner),
                            req.as_ref().ok().and_then(|r| r.request_id.clone()),
                            arrived,
                        );
                        scope.queue_us = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
                        scope.outcome = Outcome::Shed;
                        let target = req
                            .as_ref()
                            .map(req_target)
                            .unwrap_or_else(|_| "<unparsed>".into());
                        inner
                            .recorder
                            .push(ReqRecord::from_scope(&scope, &target, 429, 0));
                        let secs = inner.stats.retry_after_secs(inner.queue.depth());
                        let resp = Response::json(
                            429,
                            format!(
                                "{{\"status\":\"shed\",\"error\":\"admission queue full\",\"retry_after_s\":{secs}}}"
                            ),
                        )
                        .with_retry_after(secs)
                        .with_close()
                        .with_request_id(scope.echo);
                        cb = ConnBuf {
                            stream,
                            buf: Vec::new(),
                            write_buf: resp.to_bytes(),
                            wpos: 0,
                            arrived: Instant::now(),
                            reused: cb.reused,
                            close_after_write: true,
                        };
                        match flush_pending(&mut cb) {
                            Ok(true) | Err(_) => {
                                let _ = poller.remove(cb.stream.as_raw_fd());
                            }
                            Ok(false) => {
                                let _ = poller.modify(
                                    cb.stream.as_raw_fd(),
                                    token,
                                    Interest::READ_WRITE,
                                );
                                conns.insert(token, cb);
                            }
                        }
                    }
                    Err(PushError::Closed(_)) => {
                        let _ = poller.remove(fd);
                    }
                }
            }
        }
    }

    /// Parks a keep-alive connection back with the reactor after a worker
    /// finishes a request on it.
    pub(super) fn park(inner: &Inner, stream: TcpStream, leftover: Vec<u8>) {
        let shared = &inner.reactor;
        {
            let mut parked = shared.parked.lock().unwrap_or_else(|e| e.into_inner());
            parked.push(Parked {
                stream,
                leftover,
                reused: true,
            });
        }
        shared.wake();
    }
}

// ---- worker pool ----------------------------------------------------------

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        // a panic anywhere in request handling burns this connection only
        let _ = catch_unwind(AssertUnwindSafe(|| handle_ready(inner, job)));
    }
}

/// The original request target, path + query, for flight-recorder records.
fn req_target(req: &Request) -> String {
    if req.params.is_empty() {
        return req.path.clone();
    }
    let qs: Vec<String> = req
        .params
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    format!("{}?{}", req.path, qs.join("&"))
}

/// Stamps the execute stage, splices the `rid`/`served_by`/`timing`
/// fragment into engine-route JSON bodies, and sets the `X-Request-Id`
/// echo header (DESIGN.md §7.10). `total_us` is stamped here, at body
/// assembly, so `queue_us + execute_us ≈ total_us` holds in the body.
fn finalize(mut resp: Response, path: &str, scope: &mut RequestScope) -> Response {
    scope.execute_us = scope.total_us().saturating_sub(scope.queue_us);
    if matches!(path, "/run" | "/sweep" | "/cell") && resp.body.ends_with('}') {
        resp.body.pop();
        resp.body.push_str(&scope.body_fragment());
        resp.body.push('}');
    }
    resp.with_request_id(scope.echo.clone())
}

/// Writes a routed response and folds the request into the stage
/// histograms and the flight recorder. Returns whether the write succeeded.
///
/// A 5xx is recorded, and the ring dumped to `cfg.flightrec_dir`
/// (best-effort, budget-capped — see [`FlightRecorder::dump`]), *before*
/// the write: a client that has read its 5xx finds the record and the dump
/// already there. Such a record carries `write_us: 0`; the write-time
/// histogram still sees every response.
fn send(
    inner: &Inner,
    stream: &mut TcpStream,
    resp: &Response,
    scope: &RequestScope,
    target: &str,
    arrived: Instant,
) -> bool {
    let failing = resp.status >= 500;
    if failing {
        inner
            .recorder
            .push(ReqRecord::from_scope(scope, target, resp.status, 0));
        if let Some(dir) = &inner.cfg.flightrec_dir {
            let _ = inner.recorder.dump(dir, scope.seq, &scope.echo);
        }
    }
    let write_start = Instant::now();
    let wrote = resp.write_to(stream).is_ok();
    let write_us = write_start.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let micros = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
    inner.stats.record_latency(micros);
    indigo_obs::Hist::ServeQueueWaitMicros.record(scope.queue_us);
    indigo_obs::Hist::ServeExecuteMicros.record(scope.execute_us);
    indigo_obs::Hist::ServeWriteMicros.record(write_us);
    if indigo_obs::enabled() {
        let total = scope.total_us();
        let start = indigo_obs::now_micros().saturating_sub(total);
        indigo_obs::emit(
            &indigo_obs::TraceEvent::span("request", target, start, total)
                .with_arg("rid", scope.echo.clone())
                .with_arg("status", resp.status.to_string()),
        );
    }
    if !failing {
        inner
            .recorder
            .push(ReqRecord::from_scope(scope, target, resp.status, write_us));
    }
    wrote
}

/// Serves one reactor-parsed request, then parks the connection back with
/// the reactor when it stays alive.
fn handle_ready(inner: &Inner, job: Job) {
    let Job {
        mut stream,
        req,
        arrived,
        leftover,
    } = job;
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(STREAM_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STREAM_TIMEOUT));
    let mut scope = RequestScope::new(
        next_seq(inner),
        req.as_ref().ok().and_then(|r| r.request_id.clone()),
        arrived,
    );
    scope.queue_us = arrived.elapsed().as_micros().min(u64::MAX as u128) as u64;
    let (resp, req_close, target) = match &req {
        Ok(r) => {
            let resp = route(inner, r, arrived, &mut scope);
            (finalize(resp, &r.path, &mut scope), r.close, req_target(r))
        }
        Err(e) => {
            inner.stats.bump(ServeCounter::BadRequests);
            scope.outcome = Outcome::BadRequest;
            let resp = Response::json(
                400,
                format!("{{\"status\":\"bad-request\",\"error\":{}}}", json_str(e)),
            )
            .with_close();
            (finalize(resp, "", &mut scope), true, "<unparsed>".into())
        }
    };
    let resp = finish_response(inner, resp, req_close);
    let wrote = send(inner, &mut stream, &resp, &scope, &target, arrived);
    #[cfg(target_os = "linux")]
    if wrote && !resp.close && !inner.shutdown.load(Ordering::SeqCst) {
        reactor_impl::park(inner, stream, leftover);
    }
}

/// Applies connection policy to a routed response: the connection closes
/// when the client asked to or when shutting down.
fn finish_response(inner: &Inner, mut resp: Response, req_close: bool) -> Response {
    if (200..300).contains(&resp.status) {
        inner.stats.bump(ServeCounter::Ok);
    }
    if req_close || inner.shutdown.load(Ordering::SeqCst) {
        resp = resp.with_close();
    }
    resp
}

// ---- routing ---------------------------------------------------------------

fn route(inner: &Inner, req: &Request, arrived: Instant, scope: &mut RequestScope) -> Response {
    if req.method != "GET" {
        inner.stats.bump(ServeCounter::BadRequests);
        scope.outcome = Outcome::BadRequest;
        return Response::json(
            405,
            "{\"status\":\"bad-request\",\"error\":\"only GET is supported\"}",
        );
    }
    let path = req.path.as_str();
    match path {
        "/health" => health(inner),
        "/stats" => Response::json(200, inner.stats.snapshot().to_json()),
        "/metrics" => metrics_page(inner),
        "/debug/flightrec" => Response::json(200, inner.recorder.to_json()),
        "/cell" => cell(inner, req, scope),
        "/advise" => advise(inner, req, scope),
        "/run" | "/sweep" => run(inner, req, arrived, path == "/sweep", scope),
        _ => {
            inner.stats.bump(ServeCounter::BadRequests);
            scope.outcome = Outcome::BadRequest;
            Response::json(
                404,
                format!(
                    "{{\"status\":\"bad-request\",\"error\":{}}}",
                    json_str(&format!(
                        "no route `{path}` (/health /stats /metrics /cell /advise /run /sweep /debug/flightrec)"
                    ))
                ),
            )
        }
    }
}

/// `/metrics`: the whole observability surface in Prometheus text
/// exposition. The `indigo_serve_*` family renders from the same coherent
/// [`Stats::snapshot`] sweep `/stats` reports, so the two endpoints agree
/// by construction (the CI chaos stage cross-checks them).
fn metrics_page(inner: &Inner) -> Response {
    indigo_obs::Counter::ServeMetricsScrapes.incr();
    let stats = inner.stats.snapshot();
    let open_breakers = inner
        .shards
        .values()
        .filter(|s| s.breaker.state_label() != "closed")
        .count();
    let view = crate::metrics::MetricsView {
        stats: &stats,
        rolling: inner.stats.rolling_snapshot(),
        queue_depth: inner.queue.depth(),
        live_flights: inner.flights.in_flight(),
        parked_conns: inner.watched.load(Ordering::Relaxed),
        open_breakers,
        recorder_pushed: inner.recorder.pushed(),
        recorder_dumps: inner.recorder.dumps_written(),
        slo_micros: inner.cfg.slo_micros,
    };
    Response::text(200, crate::metrics::render(&view))
}

fn health(inner: &Inner) -> Response {
    let mut breakers: Vec<String> = inner
        .shards
        .iter()
        .map(|(label, s)| format!("{}:{}", json_str(label), json_str(s.breaker.state_label())))
        .collect();
    breakers.sort(); // deterministic body
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"queue_depth\":{},\"cached_cells\":{},\
             \"recovered_cells\":{},\"skipped_journal_lines\":{},\"breakers\":{{{}}}}}",
            inner.queue.depth(),
            inner.cache.len(),
            inner.cache.recovered,
            inner.cache.skipped,
            breakers.join(",")
        ),
    )
}

fn cell(inner: &Inner, req: &Request, scope: &mut RequestScope) -> Response {
    let Some(fp_hex) = req.param("fp") else {
        inner.stats.bump(ServeCounter::BadRequests);
        scope.outcome = Outcome::BadRequest;
        return Response::json(
            400,
            "{\"status\":\"bad-request\",\"error\":\"missing `fp` parameter (hex fingerprint)\"}",
        );
    };
    let Ok(fp) = u64::from_str_radix(fp_hex.trim_start_matches("0x"), 16) else {
        inner.stats.bump(ServeCounter::BadRequests);
        scope.outcome = Outcome::BadRequest;
        return Response::json(
            400,
            format!(
                "{{\"status\":\"bad-request\",\"error\":{}}}",
                json_str(&format!("`fp` is not hex: `{fp_hex}`"))
            ),
        );
    };
    match inner.cache.get(fp) {
        Some(c) => {
            inner.stats.bump(ServeCounter::CacheHits);
            scope.outcome = Outcome::Cached;
            Response::json(
                200,
                format!(
                    "{{\"status\":\"ok\",\"cached\":true,\"fp\":\"{fp:016x}\",\
                     \"variant\":{},\"graph\":{},\"target\":{},\"geps\":{},\
                     \"geps_bits\":\"{:016x}\",\"iterations\":{}}}",
                    json_str(&c.variant),
                    json_str(&c.graph),
                    json_str(&c.target),
                    json_num(c.geps()),
                    c.geps_bits,
                    c.iterations
                ),
            )
        }
        None => Response::json(404, format!("{{\"status\":\"miss\",\"fp\":\"{fp:016x}\"}}")),
    }
}

/// `/advise`: read-only style prediction for one (algo, model, graph,
/// scale) — nothing executes, nothing is cached. The returned `style` is
/// exactly what `style=auto` on `/run` would resolve to against the same
/// cache generation (DESIGN.md §7.11).
fn advise(inner: &Inner, req: &Request, scope: &mut RequestScope) -> Response {
    let parsed = (|| -> Result<(Algorithm, Model, SuiteGraph, Scale), String> {
        let algo = engine::parse_algo(req.param("algo").ok_or("missing `algo` parameter")?)?;
        let model = engine::parse_model(req.param("model"))?;
        let graph = engine::parse_graph(req.param("graph").ok_or("missing `graph` parameter")?)?;
        let scale = match req.param("scale") {
            None => inner.cfg.default_scale,
            Some(s) => crate::config::parse_scale(s)?,
        };
        Ok((algo, model, graph, scale))
    })();
    let (algo, model, graph, scale) = match parsed {
        Ok(p) => p,
        Err(e) => {
            inner.stats.bump(ServeCounter::BadRequests);
            scope.outcome = Outcome::BadRequest;
            return Response::json(
                400,
                format!("{{\"status\":\"bad-request\",\"error\":{}}}", json_str(&e)),
            );
        }
    };
    let shard = &inner.shards[graph.label()];
    let a = crate::advise::advise(
        &inner.advisors,
        &inner.cache,
        &inner.shards,
        shard,
        scale,
        algo,
        model,
    );
    inner.stats.bump(ServeCounter::Advised);
    let features: Vec<String> = FEATURE_NAMES
        .iter()
        .map(|n| {
            format!(
                "{}:{}",
                json_str(n),
                json_num(a.features.get(n).unwrap_or(0.0))
            )
        })
        .collect();
    let ranked: Vec<String> = a
        .advice
        .ranked
        .iter()
        .take(5)
        .map(|v| json_str(v))
        .collect();
    let neighbor = match &a.advice.neighbor {
        Some((label, d)) => format!(
            "{{\"graph\":{},\"distance\":{}}}",
            json_str(label),
            json_num(*d)
        ),
        None => "null".into(),
    };
    Response::json(
        200,
        format!(
            "{{\"status\":\"ok\",\"algo\":{},\"model\":{},\"graph\":{},\"scale\":{},\
             \"style\":{},\"method\":{},\"neighbor\":{neighbor},\"ranked\":[{}],\
             \"features\":{{{}}},\"training_cells\":{},\"training_graphs\":{}}}",
            json_str(algo.label()),
            json_str(model.label()),
            json_str(graph.label()),
            json_str(crate::config::scale_label(scale)),
            json_str(a.advice.best()),
            json_str(a.advice.method.label()),
            ranked.join(","),
            features.join(","),
            a.training_cells,
            a.training_graphs,
        ),
    )
}

fn run(
    inner: &Inner,
    req: &Request,
    arrived: Instant,
    sweep: bool,
    scope: &mut RequestScope,
) -> Response {
    let mut q = match engine::parse_query(req, &inner.cfg, sweep) {
        Ok(q) => q,
        Err(e) => {
            inner.stats.bump(ServeCounter::BadRequests);
            scope.outcome = Outcome::BadRequest;
            return Response::json(
                400,
                format!("{{\"status\":\"bad-request\",\"error\":{}}}", json_str(&e)),
            );
        }
    };
    if q.auto {
        // `style=auto`: resolve to the advisor's predicted-best variant
        // before execution. From here on the request is indistinguishable
        // from one that asked for that variant explicitly — same cells,
        // same fingerprints, same (bit-identical) body; the chosen style is
        // echoed in the body's `cells[].variant` (DESIGN.md §7.11).
        let shard = &inner.shards[q.graph.label()];
        let advised = crate::advise::advise(
            &inner.advisors,
            &inner.cache,
            &inner.shards,
            shard,
            q.scale,
            q.algo,
            q.model,
        );
        let chosen = advised
            .advice
            .ranked
            .iter()
            .find_map(|name| engine::resolve_variant(name, q.algo, q.model))
            .unwrap_or_else(|| StyleConfig::baseline(q.algo, q.model));
        q.variants = vec![chosen];
        inner.stats.bump(ServeCounter::Advised);
    }
    // the deadline started at accept: queue wait already spent part of it
    let deadline_at = arrived + q.deadline;
    if deadline_at.saturating_duration_since(Instant::now()) < Duration::from_millis(5) {
        inner.stats.bump(ServeCounter::Timeouts);
        scope.outcome = Outcome::Timeout;
        return Response::json(
            504,
            format!(
                "{{\"status\":\"timeout\",\"error\":{}}}",
                json_str(&format!(
                    "deadline of {} ms expired while queued",
                    q.deadline.as_millis()
                ))
            ),
        );
    }
    let shard = &inner.shards[q.graph.label()];
    let ctx = EngineCtx {
        cfg: &inner.cfg,
        cache: &inner.cache,
        stats: &inner.stats,
        flights: &inner.flights,
        batcher: &inner.batcher,
    };
    engine::execute(&ctx, shard, &q, deadline_at, scope)
}
