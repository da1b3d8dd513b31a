//! The TCP front-end: line-delimited JSON over localhost, served by a
//! single-threaded event loop.
//!
//! The loop multiplexes every connection over nonblocking sockets: one
//! `accept` pass, one read/parse pass, one pending-verb poll, one write
//! pass, then (only when nothing moved) a short idle sleep. No thread is
//! ever spawned per connection, so the old failure mode — a refused
//! `thread::spawn` silently dropping the socket — cannot exist; instead a
//! connection beyond [`ServeConfig::max_connections`] receives a
//! structured `error` response, is counted in the `metrics` verb, and is
//! closed.
//!
//! The framing layer stays deliberately paranoid — a frame longer than
//! [`MAX_FRAME_BYTES`] gets a structured error and the connection is
//! closed (there is no way to resynchronise mid-frame); malformed JSON or
//! unknown verbs get a structured error and the connection *stays open*;
//! a truncated final line before EOF is answered as a (garbage) frame.
//! Nothing a client sends can panic or stall the server: requests are
//! handled with the core's non-blocking verb surface, so a slow `wait` on
//! one connection never delays another.
//!
//! [`ServeConfig::max_connections`]: crate::service::ServeConfig::max_connections

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::faults::StallPhase;
use crate::protocol::{Request, MAX_FRAME_BYTES};
use crate::service::{Response, ServeCore};

/// How long the loop sleeps when a full pass made no progress.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// How often an otherwise-busy loop still runs a supervision pass (an
/// idle loop supervises every idle sleep anyway).
const SUPERVISE_EVERY: Duration = Duration::from_millis(25);

/// Read chunk size per `read` call.
const READ_CHUNK: usize = 4096;

/// A verb whose response is not ready yet; re-polled by the loop.
#[derive(Debug)]
enum Pending {
    /// `wait`: resolves when the job turns terminal or the deadline
    /// passes.
    Wait { job: u64, deadline: Instant },
    /// `drain`: resolves when nothing is pending in the registry.
    Drain,
    /// `shutdown`: resolves when the pool is idle and joined.
    Shutdown {
        evicted_queued: u64,
        cancelled_running: u64,
    },
}

/// Per-connection state in the event loop.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// At most one in-flight slow verb; while set, later frames stay
    /// buffered so responses keep request order.
    pending: Option<Pending>,
    /// Close once `write_buf` drains (oversized frame or shutdown).
    close_after_flush: bool,
    saw_eof: bool,
    dead: bool,
    /// Per-connection shutdown flush deadline: set when a stop begins and
    /// this connection still has bytes (or a verb) in flight. Reaped —
    /// and counted — once exceeded, so one unread socket cannot hold the
    /// process (or other connections' flushes) hostage.
    flush_deadline: Option<Instant>,
    /// Chaos-injected I/O stall: the named phase makes no progress until
    /// the instant passes (purely a scheduling deferral — no sleeping).
    stall: Option<(StallPhase, Instant)>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            pending: None,
            close_after_flush: false,
            saw_eof: false,
            dead: false,
            flush_deadline: None,
            stall: None,
        }
    }

    /// Whether a chaos stall currently defers `phase` for this
    /// connection (an `Accept` stall defers every phase). Clears the
    /// stall once its window has passed.
    fn stalled(&mut self, phase: StallPhase, now: Instant) -> bool {
        match self.stall {
            Some((_, until)) if now >= until => {
                self.stall = None;
                false
            }
            Some((p, _)) => p == phase || p == StallPhase::Accept,
            None => false,
        }
    }

    /// Queues one response line for the write pass.
    fn push_line(&mut self, line: &str) {
        self.write_buf.extend_from_slice(line.as_bytes());
        self.write_buf.push(b'\n');
    }

    /// Drains the socket into `read_buf` without blocking. Returns
    /// whether anything happened.
    fn pump_reads(&mut self) -> bool {
        if self.dead || self.saw_eof || self.close_after_flush {
            return false;
        }
        let mut progress = false;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            // Past the frame bound there is nothing useful to buffer —
            // the parse pass will answer Oversized and close.
            if self.read_buf.len() > MAX_FRAME_BYTES {
                break;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    progress = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf
                        .extend_from_slice(chunk.get(..n).unwrap_or_default());
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    /// Parses and handles buffered frames until one goes pending, the
    /// buffer runs dry, or the connection turns unrecoverable.
    fn process_frames(&mut self, core: &Arc<ServeCore>, stopping: &mut bool) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        while self.pending.is_none() && !self.close_after_flush {
            let line = match self.read_buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    let mut line: Vec<u8> = self.read_buf.drain(..=pos).collect();
                    while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    line
                }
                // No newline within the frame bound: unrecoverable.
                None if self.read_buf.len() > MAX_FRAME_BYTES => {
                    let message =
                        format!("frame exceeds {MAX_FRAME_BYTES} bytes; closing connection");
                    self.push_line(&Response::Error { message }.render());
                    self.close_after_flush = true;
                    progress = true;
                    break;
                }
                // Peer hung up mid-line: answer the truncated tail as a
                // complete (garbage) frame before the close.
                None if self.saw_eof && !self.read_buf.is_empty() => {
                    let mut line = std::mem::take(&mut self.read_buf);
                    while line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    line
                }
                None => break,
            };
            progress = true;
            if line.len() > MAX_FRAME_BYTES {
                let message = format!("frame exceeds {MAX_FRAME_BYTES} bytes; closing connection");
                self.push_line(&Response::Error { message }.render());
                self.close_after_flush = true;
                break;
            }
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue; // ignore blank keep-alive lines
            }
            let text = match std::str::from_utf8(&line) {
                Ok(t) => t,
                Err(_) => {
                    let message = "frame is not valid UTF-8".into();
                    self.push_line(&Response::Error { message }.render());
                    continue;
                }
            };
            match Request::parse(text) {
                Err(message) => self.push_line(&Response::Error { message }.render()),
                Ok(Request::Wait { job, timeout }) => match core.poll_wait(job) {
                    Some(resp) => self.push_line(&resp.render()),
                    None => {
                        self.pending = Some(Pending::Wait {
                            job,
                            deadline: Instant::now() + timeout,
                        });
                    }
                },
                Ok(Request::Drain) => {
                    core.begin_drain();
                    match core.try_drain() {
                        Some(resp) => self.push_line(&resp.render()),
                        None => self.pending = Some(Pending::Drain),
                    }
                }
                Ok(Request::Shutdown) => {
                    let (evicted_queued, cancelled_running) = core.begin_shutdown();
                    match core.try_complete_shutdown(evicted_queued, cancelled_running) {
                        Some(resp) => {
                            self.push_line(&resp.render());
                            self.close_after_flush = true;
                            *stopping = true;
                        }
                        None => {
                            self.pending = Some(Pending::Shutdown {
                                evicted_queued,
                                cancelled_running,
                            });
                        }
                    }
                }
                // submit / status / metrics never block.
                Ok(req) => self.push_line(&core.handle(req).render()),
            }
        }
        progress
    }

    /// Re-polls this connection's pending verb, if any.
    fn poll_pending(
        &mut self,
        core: &Arc<ServeCore>,
        epoch_moved: bool,
        now: Instant,
        stopping: &mut bool,
    ) -> bool {
        match self.pending {
            None => false,
            Some(Pending::Wait { job, deadline }) => {
                if !(epoch_moved || *stopping || now >= deadline) {
                    return false;
                }
                if let Some(resp) = core.poll_wait(job) {
                    self.pending = None;
                    self.push_line(&resp.render());
                    return true;
                }
                if now >= deadline {
                    self.pending = None;
                    let resp = Response::Error {
                        message: format!("timed out waiting for job {job}"),
                    };
                    self.push_line(&resp.render());
                    return true;
                }
                false
            }
            Some(Pending::Drain) => match core.try_drain() {
                Some(resp) => {
                    self.pending = None;
                    self.push_line(&resp.render());
                    true
                }
                None => false,
            },
            Some(Pending::Shutdown {
                evicted_queued,
                cancelled_running,
            }) => match core.try_complete_shutdown(evicted_queued, cancelled_running) {
                Some(resp) => {
                    self.pending = None;
                    self.push_line(&resp.render());
                    self.close_after_flush = true;
                    *stopping = true;
                    true
                }
                None => false,
            },
        }
    }

    /// Writes as much of `write_buf` as the socket accepts without
    /// blocking; marks the connection dead once a close-after-flush has
    /// fully drained (or the peer is gone).
    fn flush_writes(&mut self) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        while !self.write_buf.is_empty() {
            match self.stream.write(&self.write_buf) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.write_buf.drain(..n);
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.write_buf.is_empty() && self.close_after_flush {
            self.dead = true;
        }
        progress
    }

    /// Whether the connection has nothing left to do and can be dropped.
    fn finished(&self) -> bool {
        self.dead
            || (self.saw_eof
                && self.read_buf.is_empty()
                && self.pending.is_none()
                && self.write_buf.is_empty())
    }
}

/// Best-effort structured refusal for a connection over the cap; bounded
/// by a short write timeout so a hostile peer cannot stall the loop.
fn refuse_connection(mut stream: TcpStream) {
    crate::lockaudit::blocking_op("refuse connection over cap");
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let line = Response::Error {
        message: "server connection limit reached; retry later".into(),
    }
    .render();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// A bound TCP server wrapping a [`ServeCore`].
#[derive(Debug)]
pub struct Server {
    core: Arc<ServeCore>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Binds to `127.0.0.1:port` (`port = 0` picks an ephemeral port;
    /// read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(core: Arc<ServeCore>, port: u16) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        Ok(Server {
            core,
            listener,
            addr,
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the event loop until a `shutdown` request completes and its
    /// response has been flushed (or the flush grace expires). Blocks the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Propagates listener-level I/O failures (per-connection errors are
    /// contained to their connection).
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let core = self.core;
        let mut conns: Vec<Conn> = Vec::new();
        let mut stopping = false;
        let mut last_epoch = core.completion_epoch();
        let mut conn_seq: u64 = 0;
        let mut last_supervise = Instant::now();
        loop {
            let mut progress = false;

            // 0. Supervision pass: reap dead workers, recover orphaned
            // jobs, respawn under budget. Bounded to one pass per
            // interval while the loop is busy; an idle loop supervises
            // on every idle wakeup.
            let now = Instant::now();
            if now.saturating_duration_since(last_supervise) >= SUPERVISE_EVERY {
                last_supervise = now;
                core.supervise();
            }

            // 1. Accept everything waiting (unless stopping).
            if !stopping {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            progress = true;
                            if conns.len() >= core.config().max_connections {
                                core.note_connection_rejected();
                                refuse_connection(stream);
                                continue;
                            }
                            if stream.set_nonblocking(true).is_err() {
                                core.note_connection_rejected();
                                continue;
                            }
                            core.note_connection_accepted();
                            let mut conn = Conn::new(stream);
                            if let Some((phase, dur)) =
                                core.config().fault_plan.conn_stall(conn_seq)
                            {
                                conn.stall = Some((phase, Instant::now() + dur));
                            }
                            conn_seq += 1;
                            conns.push(conn);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => break,
                        Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                        Err(e) => return Err(e),
                    }
                }
            }

            // 2. Read and handle what each connection has buffered.
            let now = Instant::now();
            for conn in &mut conns {
                if conn.stalled(StallPhase::Read, now) {
                    continue;
                }
                progress |= conn.pump_reads();
                progress |= conn.process_frames(&core, &mut stopping);
            }

            // 3. Re-poll pending slow verbs when anything completed.
            let epoch = core.completion_epoch();
            let epoch_moved = epoch != last_epoch;
            last_epoch = epoch;
            let now = Instant::now();
            for conn in &mut conns {
                progress |= conn.poll_pending(&core, epoch_moved, now, &mut stopping);
            }

            // 4. Write pass.
            let now = Instant::now();
            for conn in &mut conns {
                if conn.stalled(StallPhase::Write, now) {
                    continue;
                }
                progress |= conn.flush_writes();
            }

            // 5. Reap finished connections.
            let before = conns.len();
            conns.retain(|c| !c.finished());
            progress |= conns.len() != before;

            if stopping {
                // Each connection gets its *own* flush grace, so one
                // peer that never reads cannot spend the whole window
                // and starve everyone else's flush (the old global
                // deadline did exactly that under a slow-loris reader).
                let now = Instant::now();
                let grace = core.config().shutdown_conn_flush_grace;
                for conn in &mut conns {
                    if conn.dead || (conn.write_buf.is_empty() && conn.pending.is_none()) {
                        continue;
                    }
                    let deadline = *conn.flush_deadline.get_or_insert(now + grace);
                    if now >= deadline {
                        conn.dead = true;
                        core.note_connection_reaped();
                        progress = true;
                    }
                }
                let drained = conns
                    .iter()
                    .all(|c| c.dead || (c.write_buf.is_empty() && c.pending.is_none()));
                if drained {
                    return Ok(());
                }
            }
            if !progress {
                crate::lockaudit::blocking_op("event-loop idle sleep");
                core.supervise();
                last_supervise = Instant::now();
                crate::backoff::sleep(IDLE_SLEEP);
            }
        }
    }
}
