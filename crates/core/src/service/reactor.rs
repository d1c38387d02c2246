//! The readiness reactor behind [`Server::run`](super::Server::run):
//! one poll loop owning every socket, a fixed worker pool running
//! [`MapService::handle`](super::MapService::handle), and bounded
//! admission queues between them.
//!
//! # Shape
//!
//! The reactor thread does all I/O: it accepts connections, reads
//! whatever bytes are ready into each connection's incremental
//! [`Parser`](super::http::Parser), dispatches complete heavy requests
//! (`POST /map`, `/compare`, `/sta`, `/batch`) to the worker pool,
//! answers light endpoints inline, and writes buffered responses back
//! when sockets are writable. Workers never touch sockets — they
//! receive a parsed request, run the service, and hand the response
//! back over a channel, waking the poll loop through a self-wake pipe.
//!
//! # Ordering
//!
//! Pipelined requests on one connection are sequence-numbered at parse
//! time; responses are buffered in a per-connection reorder map and
//! flushed strictly in sequence, so the pool may *complete* requests
//! in any order but the wire never reorders. A `Connection: close`
//! request (or a protocol error) stops parsing; the connection closes
//! once everything up to that response has flushed.
//!
//! # Backpressure and self-protection
//!
//! Each heavy endpoint has a depth-bounded admission queue; a request
//! arriving past `max_queue` is answered `429` + `Retry-After` without
//! ever reaching a worker. Per-connection pipelining is capped, idle
//! and half-dead connections (slowloris dribbles, clients that never
//! read) are reaped on a deadline, and the total connection count is
//! bounded. [`MapService::handle`](super::MapService::handle) never
//! unwinds (a panicking endpoint answers `500`), so neither a worker
//! nor the poll loop, which answers light endpoints inline, can be
//! lost to one bad request. On shutdown the reactor stops accepting and reading,
//! finishes in-flight requests, flushes every buffered response (with
//! a hard deadline), and joins its workers.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use qspr_obs::Gauge;

use super::http::{self, Request, Response};
use super::poll::{poll_fds, PollFd, Waker, POLLIN, POLLOUT};
use super::{access_log, MapService};

/// The transport knobs [`super::Server::bind`] resolved from its
/// [`super::ServeConfig`].
#[derive(Debug, Clone)]
pub(crate) struct ReactorConfig {
    /// Worker-pool size (≥ 1).
    pub threads: usize,
    /// Emit access-log lines.
    pub log: bool,
    /// Keep-alive idle timeout in seconds; 0 disables persistence
    /// (every response carries `Connection: close`).
    pub keep_alive_secs: u64,
    /// Per-endpoint admission-queue bound (≥ 1).
    pub max_queue: usize,
}

/// The heavy endpoints, in admission-queue slot order.
const HEAVY: [&str; 4] = ["/map", "/compare", "/sta", "/batch"];

/// Most requests one connection may have outstanding (dispatched or
/// awaiting flush) before the reactor stops reading from it.
const PIPELINE_CAP: usize = 64;

/// Most concurrently open connections; accepts beyond it are dropped.
const MAX_CONNS: usize = 1024;

/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 16 * 1024;

/// Poll timeout — the reactor's housekeeping tick (timeout reaping,
/// shutdown-flag checks) when no I/O happens.
const TICK_MS: i32 = 200;

/// How long a drain may take before buffered-but-unread responses are
/// abandoned.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Longest wait for the *rest* of a partially received request before
/// the connection is dropped (the slowloris bound), further capped by
/// the keep-alive timeout when that is shorter.
const PARTIAL_TIMEOUT: Duration = Duration::from_secs(10);

/// The admission-queue slot for a request the worker pool must run,
/// or `None` for light endpoints the reactor answers inline.
fn heavy_slot(request: &Request) -> Option<usize> {
    if request.method != "POST" {
        return None;
    }
    HEAVY.iter().position(|&path| path == request.path)
}

/// A request dispatched to the worker pool.
struct Job {
    conn: usize,
    gen: u64,
    seq: u64,
    request: Request,
    close: bool,
    slot: usize,
    queued: Instant,
}

/// A completed response on its way back to the reactor.
struct Done {
    conn: usize,
    gen: u64,
    seq: u64,
    response: Response,
    close: bool,
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    parser: http::Parser,
    /// Encoded responses awaiting the socket.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number for the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to flush.
    next_write: u64,
    /// Completed responses waiting for their turn on the wire.
    pending: BTreeMap<u64, (Response, bool)>,
    /// Requests currently in the worker pool.
    inflight: usize,
    /// Generation tag; completions for a recycled slot are discarded.
    gen: u64,
    last_activity: Instant,
    /// The response stream ends here: flush, then close.
    close_after_flush: bool,
    /// Stop reading bytes (EOF, error, or hang-up observed).
    read_done: bool,
    /// Stop parsing buffered bytes (a close-requested request or a
    /// protocol error was seen; EOF alone still parses the tail).
    parse_done: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            parser: http::Parser::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            inflight: 0,
            gen,
            last_activity: Instant::now(),
            close_after_flush: false,
            read_done: false,
            parse_done: false,
        }
    }

    /// Requests admitted but not yet flushed.
    fn outstanding(&self) -> usize {
        self.inflight + self.pending.len()
    }

    /// `true` when the write buffer is fully on the wire.
    fn flushed(&self) -> bool {
        self.out_pos == self.out.len()
    }

    /// `true` when nothing more will happen on this connection.
    fn finished(&self) -> bool {
        (self.read_done || self.close_after_flush)
            && self.inflight == 0
            && self.pending.is_empty()
            && self.flushed()
    }

    /// Moves in-order completed responses into the write buffer.
    fn flush_pending(&mut self) {
        while let Some((response, close)) = self.pending.remove(&self.next_write) {
            self.out
                .extend_from_slice(&http::encode_response(&response, !close));
            self.next_write += 1;
            if close {
                self.close_after_flush = true;
                // Anything sequenced after a close never reaches the
                // wire; drop it.
                self.pending.clear();
                break;
            }
        }
    }
}

/// What a pollfd slot refers to.
enum Role {
    Listener,
    Waker,
    Conn(usize),
}

/// Runs the reactor until a graceful drain completes or a fatal
/// listener/poll error occurs.
pub(crate) fn run(
    listener: TcpListener,
    service: &Arc<MapService>,
    config: &ReactorConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let waker = Waker::new()?;
    let wake_handles = (0..config.threads)
        .map(|_| waker.handle())
        .collect::<io::Result<Vec<_>>>()?;
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let job_rx = Mutex::new(job_rx);
    let depths: [AtomicUsize; 4] = Default::default();
    let gauges: Vec<Arc<Gauge>> = HEAVY
        .iter()
        .map(|&endpoint| {
            service.metrics().gauge(
                "qspr_queue_depth",
                "Requests queued for the worker pool, by endpoint.",
                &[("endpoint", endpoint)],
            )
        })
        .collect();
    let wait_hist = service.metrics().histogram(
        "qspr_queue_wait_us",
        "Time requests spent queued for a worker, microseconds.",
        &[],
    );

    thread::scope(|scope| {
        for wake in wake_handles {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            let depths = &depths;
            let gauges = &gauges;
            let wait_hist = &wait_hist;
            let log = config.log;
            scope.spawn(move || loop {
                // Hold the receiver lock only to pull the next job,
                // never while serving it.
                let job = match job_rx.lock().expect("job queue lock").recv() {
                    Ok(job) => job,
                    Err(_) => break, // sender dropped: drain done
                };
                let depth = depths[job.slot].fetch_sub(1, Ordering::Relaxed) - 1;
                gauges[job.slot].set(depth as i64);
                let wait_us = job.queued.elapsed().as_micros() as u64;
                wait_hist.record(wait_us);
                let t0 = Instant::now();
                let response = service.handle(&job.request);
                if log {
                    access_log(
                        &job.request.method,
                        &job.request.path,
                        &response,
                        wait_us,
                        t0,
                    );
                }
                let _ = done_tx.send(Done {
                    conn: job.conn,
                    gen: job.gen,
                    seq: job.seq,
                    response,
                    close: job.close,
                });
                wake.notify();
            });
        }

        let mut reactor = Reactor {
            service,
            config,
            listener: Some(listener),
            waker: &waker,
            conns: Vec::new(),
            next_gen: 0,
            job_tx: Some(job_tx),
            done_rx,
            depths: &depths,
            gauges: &gauges,
            draining: false,
            drain_deadline: None,
        };
        let result = reactor.run();
        // Disconnect the job channel so idle workers exit; the scope
        // then joins them (in-flight handlers finish first).
        reactor.job_tx = None;
        result
    })
}

/// The poll loop and all its state; lives on the thread that called
/// [`super::Server::run`].
struct Reactor<'a> {
    service: &'a Arc<MapService>,
    config: &'a ReactorConfig,
    /// `None` once draining (closing the listener refuses new peers).
    listener: Option<TcpListener>,
    waker: &'a Waker,
    /// Connection slab; `None` slots are recycled by `accept`.
    conns: Vec<Option<Conn>>,
    next_gen: u64,
    /// `None` after drain, which disconnects the workers.
    job_tx: Option<mpsc::Sender<Job>>,
    done_rx: mpsc::Receiver<Done>,
    depths: &'a [AtomicUsize; 4],
    gauges: &'a [Arc<Gauge>],
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor<'_> {
    fn run(&mut self) -> io::Result<()> {
        let mut fds: Vec<PollFd> = Vec::new();
        let mut roles: Vec<Role> = Vec::new();
        loop {
            if !self.draining && self.service.shutdown_requested() {
                self.draining = true;
                self.listener = None; // refuse new connections
                self.drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
            }
            if self.draining {
                self.reap_drained();
                let live = self.conns.iter().flatten().count();
                if live == 0 {
                    return Ok(());
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    return Ok(()); // abandon unread responses
                }
            }

            fds.clear();
            roles.clear();
            if let Some(listener) = &self.listener {
                fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
                roles.push(Role::Listener);
            }
            fds.push(PollFd::new(self.waker.fd(), POLLIN));
            roles.push(Role::Waker);
            for (i, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                let mut events = 0i16;
                let readable = !conn.read_done
                    && !conn.close_after_flush
                    && !self.draining
                    && conn.outstanding() < PIPELINE_CAP;
                if readable {
                    events |= POLLIN;
                }
                if !conn.flushed() {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
                roles.push(Role::Conn(i));
            }

            poll_fds(&mut fds, TICK_MS)?;
            self.waker.drain();
            self.apply_completions();
            for (fd, role) in fds.iter().zip(&roles) {
                match role {
                    Role::Listener => {
                        if fd.has(POLLIN) {
                            self.accept_ready()?;
                        }
                    }
                    Role::Waker => {}
                    Role::Conn(i) => self.service_conn(*i, fd),
                }
            }
            self.reap_idle();
        }
    }

    /// Accepts every ready connection (the listener is non-blocking).
    fn accept_ready(&mut self) -> io::Result<()> {
        loop {
            let Some(listener) = &self.listener else {
                return Ok(());
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let live = self.conns.iter().flatten().count();
                    if self.draining || live >= MAX_CONNS {
                        drop(stream); // refused
                        continue;
                    }
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    self.next_gen += 1;
                    let conn = Conn::new(stream, self.next_gen);
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Applies every completion the workers queued: reorder, flush,
    /// and resume parsing on connections that freed pipeline slots.
    fn apply_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            let Some(conn) = self.conns.get_mut(done.conn).and_then(Option::as_mut) else {
                continue; // connection died while the worker ran
            };
            if conn.gen != done.gen {
                continue; // slot was recycled
            }
            conn.inflight -= 1;
            conn.last_activity = Instant::now();
            conn.pending.insert(done.seq, (done.response, done.close));
            conn.flush_pending();
            self.flush_conn(done.conn);
            self.process_parsed(done.conn);
        }
    }

    /// Reads ready bytes, parses, dispatches, flushes — one
    /// connection's turn after poll.
    fn service_conn(&mut self, i: usize, fd: &PollFd) {
        {
            let Some(conn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
                return;
            };
            if fd.failed() {
                conn.read_done = true;
            }
            if fd.has(POLLIN) && !conn.read_done {
                let mut buf = [0u8; READ_CHUNK];
                loop {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            conn.read_done = true;
                            break;
                        }
                        Ok(n) => {
                            conn.parser.feed(&buf[..n]);
                            conn.last_activity = Instant::now();
                            if conn.outstanding() >= PIPELINE_CAP {
                                break; // stop pulling; poll re-arms later
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.read_done = true;
                            break;
                        }
                    }
                }
            }
        }
        self.process_parsed(i);
        self.flush_conn(i);
    }

    /// Drains the connection's parser: dispatches heavy requests
    /// (admission-control permitting), answers light ones inline, and
    /// turns protocol errors into terminal `400`/`413` responses.
    fn process_parsed(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
                return;
            };
            if conn.parse_done || self.draining || conn.outstanding() >= PIPELINE_CAP {
                break;
            }
            match conn.parser.next_request() {
                Ok(None) => break,
                Ok(Some(request)) => {
                    let shutdown = request.method == "POST" && request.path == "/shutdown";
                    let close = request.close || self.config.keep_alive_secs == 0 || shutdown;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    if close {
                        conn.parse_done = true;
                    }
                    match heavy_slot(&request) {
                        Some(slot) => {
                            if self.depths[slot].load(Ordering::Relaxed) >= self.config.max_queue {
                                let response = self.service.reject(HEAVY[slot]);
                                if self.config.log {
                                    access_log(
                                        &request.method,
                                        &request.path,
                                        &response,
                                        0,
                                        Instant::now(),
                                    );
                                }
                                conn.pending.insert(seq, (response, close));
                            } else {
                                let depth = self.depths[slot].fetch_add(1, Ordering::Relaxed) + 1;
                                self.gauges[slot].set(depth as i64);
                                conn.inflight += 1;
                                let job = Job {
                                    conn: i,
                                    gen: conn.gen,
                                    seq,
                                    request,
                                    close,
                                    slot,
                                    queued: Instant::now(),
                                };
                                if let Some(tx) = &self.job_tx {
                                    let _ = tx.send(job);
                                }
                            }
                        }
                        None => {
                            let t0 = Instant::now();
                            let response = self.service.handle(&request);
                            if self.config.log {
                                access_log(&request.method, &request.path, &response, 0, t0);
                            }
                            conn.pending.insert(seq, (response, close));
                        }
                    }
                }
                Err(e) => {
                    // The connection is unsalvageable after a protocol
                    // error (no resynchronization), but everything
                    // already admitted still answers in order before
                    // the terminal error response closes it.
                    let response = self.service.protocol_response(&e);
                    if self.config.log {
                        access_log("-", "-", &response, 0, Instant::now());
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(seq, (response, true));
                    conn.parse_done = true;
                    conn.read_done = true;
                    break;
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(i).and_then(Option::as_mut) {
            conn.flush_pending();
        }
        self.flush_conn(i);
    }

    /// Writes as much buffered response data as the socket accepts,
    /// then retires the connection if it is finished.
    fn flush_conn(&mut self, i: usize) {
        let Some(conn) = self.conns.get_mut(i).and_then(Option::as_mut) else {
            return;
        };
        let mut dead = false;
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if conn.flushed() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        if dead || conn.finished() {
            self.conns[i] = None;
        }
    }

    /// Drops connections that sit idle past their deadline. In-flight
    /// work always pins its connection (the response deserves a flush
    /// attempt); everything else — idle keep-alive peers, slowloris
    /// dribbles, clients that never read their response — times out.
    fn reap_idle(&mut self) {
        let now = Instant::now();
        let idle_timeout = Duration::from_secs(match self.config.keep_alive_secs {
            0 => 30, // close-per-request mode: the old blocking read timeout
            secs => secs,
        });
        let partial_timeout = idle_timeout.min(PARTIAL_TIMEOUT);
        for slot in self.conns.iter_mut() {
            let Some(conn) = slot else { continue };
            if conn.inflight > 0 {
                continue;
            }
            let idle = now.saturating_duration_since(conn.last_activity);
            let limit = if conn.parser.has_partial() {
                partial_timeout
            } else {
                idle_timeout
            };
            if idle >= limit {
                *slot = None;
            }
        }
    }

    /// During drain: retires every connection with nothing left to do
    /// (no in-flight work, nothing awaiting flush).
    fn reap_drained(&mut self) {
        for slot in self.conns.iter_mut() {
            let done = slot
                .as_ref()
                .is_some_and(|c| c.inflight == 0 && c.pending.is_empty() && c.flushed());
            if done {
                *slot = None;
            }
        }
    }
}
