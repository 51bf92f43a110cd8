//! The single-threaded epoll event loop: every connection, one thread.
//!
//! One `epoll` instance watches the listener, an eventfd doorbell, and
//! every connection socket. Request lines are framed incrementally by
//! [`LineFramer`], dispatched into the engine's worker pool, and
//! completed through a mutex-guarded completion queue the loop drains
//! when the doorbell rings. The loop itself never blocks on a socket and
//! never executes a query — OS thread count stays O(engine workers), not
//! O(connections).
//!
//! **Ordering and backpressure:**
//!
//! * v1 (and untagged v2) lines are strictly serial: a `run`/`trace`
//!   submits to the engine and *holds* the connection — no further line
//!   is processed (or read) until its completion writes the reply.
//! * v2 tagged `run`s batch while consecutive against one database and
//!   submit together, pinning one catalog snapshot per batch; tagged
//!   catalog verbs flush the batch first, preserving serial equivalence
//!   around `use`/`load`/`add`.
//! * A full in-flight window **deregisters read interest** — the unread
//!   socket stalls the peer's writes in TCP. The loop never answers
//!   window pressure with `Overloaded`; rejection remains the engine's
//!   admission decision.
//! * Completions append to a bounded per-connection output buffer,
//!   flushed opportunistically and on `EPOLLOUT`; overflow (a peer that
//!   stopped reading) closes the connection with
//!   [`CloseReason::OutbufOverflow`].
//!
//! The idle (slow-loris) timeout rides the [`TimerWheel`]: expiry is
//! lazy, so per-request activity only stamps `last_activity`, and a
//! fired timer either closes a genuinely idle connection or re-files
//! itself for the remainder.

use std::collections::HashSet;
use std::io::{ErrorKind, Read, Write};
use std::mem;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{EngineHandle, ReplyFn, Request};
use crate::protocol::{self, Command, ExplainReport, LineFramer, TraceReport};
use crate::server::{self, Dispatch, ReplyShape, MAX_CONNECTIONS, OUTBUF_LIMIT, WINDOW};
use crate::ServiceError;

use super::sys::{
    Epoll, EpollEvent, EventFd, EMFILE, ENFILE, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use super::timer::TimerWheel;
use super::{CloseReason, NetMetrics};

/// Token for the listening socket.
const LISTENER: u64 = u64::MAX;
/// Token for the completion-queue doorbell.
const DOORBELL: u64 = u64::MAX - 1;

/// How long accepts stay paused after an fd-pressure failure.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling on bytes read from one connection per readiness event, so a
/// firehose peer cannot starve its neighbors inside one loop iteration
/// (level-triggered epoll re-reports whatever is left).
const READ_QUANTUM: usize = 256 * 1024;

/// Graceful-drain budget at shutdown: in-flight completions get this
/// long to finish and flush before remaining connections are dropped.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// What the loop is handed by [`crate::server::ServerBuilder`].
pub(crate) struct LoopConfig {
    pub engine: EngineHandle,
    pub metrics: Arc<NetMetrics>,
    pub idle_timeout: Option<Duration>,
}

/// One finished engine job headed back to its connection.
struct Completion {
    /// Slot/generation token of the owning connection at submit time.
    token: u64,
    /// The fully encoded reply line (tagged if the request was).
    line: String,
    /// v2 window id to free; `None` completes a serial hold.
    release: Option<u64>,
}

/// The worker→loop handoff: a locked vector plus the eventfd doorbell.
/// A push that makes the vector non-empty rings; the loop drains the
/// whole vector on readiness, so later pushes before that drain ride on
/// the same ring. `wake` alone is the shutdown signal.
pub(crate) struct CompletionQueue {
    ready: Mutex<Vec<Completion>>,
    doorbell: EventFd,
}

impl CompletionQueue {
    fn push(&self, completion: Completion) {
        let first = {
            let mut ready = self.ready.lock().expect("completion queue");
            ready.push(completion);
            ready.len() == 1
        };
        if first {
            self.doorbell.signal();
        }
    }

    /// Takes every pending completion. The doorbell is cleared *before*
    /// the vector is taken: a push landing between the two finds the
    /// vector non-empty and its completion is taken here, and a push after
    /// the take finds it empty and rings again — no completion waits for
    /// a ring that never comes.
    fn drain(&self) -> Vec<Completion> {
        self.doorbell.drain();
        mem::take(&mut *self.ready.lock().expect("completion queue"))
    }

    /// Rings the doorbell without a completion (shutdown wakeup).
    pub(crate) fn wake(&self) {
        self.doorbell.signal();
    }
}

/// A running event loop; dropping or [`shutdown`]ing it stops the loop
/// and drains in-flight replies.
///
/// [`shutdown`]: EventLoopHandle::shutdown
pub(crate) struct EventLoopHandle {
    stop: Arc<AtomicBool>,
    queue: Arc<CompletionQueue>,
    thread: Option<JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Stops accepting, drains in-flight work, and joins the loop
    /// thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.queue.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for EventLoopHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the loop over an already-bound listener and starts it on its
/// own thread. Fails fast (before the thread spawns) if the epoll or
/// eventfd plumbing cannot be created.
pub(crate) fn spawn(listener: TcpListener, cfg: LoopConfig) -> std::io::Result<EventLoopHandle> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let queue = Arc::new(CompletionQueue {
        ready: Mutex::new(Vec::new()),
        doorbell: EventFd::new()?,
    });
    epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
    epoll.add(queue.doorbell.raw(), EPOLLIN, DOORBELL)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut looper = Loop {
        epoll,
        listener,
        queue: queue.clone(),
        stop: stop.clone(),
        engine: cfg.engine,
        metrics: cfg.metrics,
        idle_timeout: cfg.idle_timeout,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        open: 0,
        wheel: cfg.idle_timeout.map(|t| TimerWheel::new(t, Instant::now())),
        accept_registered: true,
        accept_resume_at: None,
    };
    let thread = std::thread::Builder::new()
        .name("ppr-event-loop".into())
        .spawn(move || looper.run())?;
    Ok(EventLoopHandle {
        stop,
        queue,
        thread: Some(thread),
    })
}

/// Per-connection state. The read side is a [`LineFramer`]; the write
/// side a single buffer with a flush cursor; `proto` and `session_db`
/// are the protocol state [`server::dispatch_command`] advances.
struct Conn {
    stream: TcpStream,
    token: u64,
    framer: LineFramer,
    out: Vec<u8>,
    out_pos: usize,
    /// Interest set currently registered with epoll.
    interest: u32,
    proto: u32,
    session_db: Option<String>,
    /// v2 tagged ids in flight (doubles as the duplicate-id detector).
    inflight: HashSet<u64>,
    /// Effective window: [`WINDOW`] capped by the engine's safe window.
    window: usize,
    /// A v1/untagged `run`/`trace` is in flight: strictly serial, so no
    /// further line is processed until its completion lands.
    serial_hold: bool,
    last_activity: Instant,
    /// Peer shut down its write half; finish in-flight replies, then close.
    peer_closed: bool,
    /// Server is shutting down; stop reading, drain, then close.
    draining: bool,
}

impl Conn {
    fn busy(&self) -> bool {
        self.serial_hold || !self.inflight.is_empty()
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn desired_interest(&self) -> u32 {
        let mut want = 0;
        let reading = !self.peer_closed
            && !self.draining
            && !self.serial_hold
            && self.inflight.len() < self.window;
        if reading {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if self.out_pending() > 0 {
            want |= EPOLLOUT;
        }
        want
    }
}

struct Loop {
    epoll: Epoll,
    listener: TcpListener,
    queue: Arc<CompletionQueue>,
    stop: Arc<AtomicBool>,
    engine: EngineHandle,
    metrics: Arc<NetMetrics>,
    idle_timeout: Option<Duration>,
    /// Connection slab: slot-indexed, with per-slot generations so a
    /// completion for a closed connection's token falls on the floor
    /// instead of a stranger's socket.
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    wheel: Option<TimerWheel>,
    accept_registered: bool,
    /// Set while accepts are backing off from fd pressure.
    accept_resume_at: Option<Instant>,
}

fn token_of(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

impl Loop {
    fn run(&mut self) {
        let mut events = vec![
            EpollEvent {
                events: 0,
                token: 0
            };
            1024
        ];
        while !self.stop.load(Ordering::Acquire) {
            let timeout = self.wait_timeout_ms();
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n).copied() {
                match ev.token {
                    LISTENER => self.accept_ready(),
                    DOORBELL => self.apply_completions(),
                    token => {
                        let readable = ev.events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0;
                        let writable = ev.events & EPOLLOUT != 0;
                        let errored = ev.events & EPOLLERR != 0;
                        self.service_conn(token, readable, writable, errored);
                    }
                }
            }
            self.fire_timers();
            self.maybe_resume_accept();
        }
        self.drain_shutdown();
    }

    /// Sleep no longer than the next timer tick or accept-backoff expiry.
    fn wait_timeout_ms(&self) -> i32 {
        let now = Instant::now();
        let mut deadline: Option<Instant> = self.wheel.as_ref().map(|w| w.next_deadline());
        if let Some(at) = self.accept_resume_at {
            deadline = Some(deadline.map_or(at, |d| d.min(at)));
        }
        match deadline {
            Some(at) => at
                .saturating_duration_since(now)
                .as_millis()
                .clamp(1, 1_000) as i32,
            None => 1_000,
        }
    }

    // ---- accept path ----------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            if self.open >= MAX_CONNECTIONS {
                // At capacity: park the listener (level-triggered epoll
                // would spin otherwise); closing a connection resumes it.
                self.pause_accept(None);
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => self.install(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) => {
                    let fd_pressure = matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE));
                    self.metrics.note_accept_error(&e, fd_pressure);
                    if fd_pressure {
                        // Out of fds: accepting again immediately would
                        // fail immediately. Park the listener briefly.
                        self.pause_accept(Some(Instant::now() + ACCEPT_BACKOFF));
                    }
                    return;
                }
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = token_of(slot, self.gens[slot]);
        let interest = EPOLLIN | EPOLLRDHUP;
        if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
            self.free.push(slot);
            return;
        }
        let now = Instant::now();
        self.conns[slot] = Some(Conn {
            stream,
            token,
            framer: LineFramer::new(),
            out: Vec::new(),
            out_pos: 0,
            interest,
            proto: 1,
            session_db: None,
            inflight: HashSet::new(),
            window: WINDOW.min(self.engine.safe_window()),
            serial_hold: false,
            last_activity: now,
            peer_closed: false,
            draining: false,
        });
        self.open += 1;
        self.metrics.connections_accepted.inc();
        self.metrics.connections_open.inc();
        if let (Some(wheel), Some(timeout)) = (self.wheel.as_mut(), self.idle_timeout) {
            wheel.schedule(token, timeout, now);
        }
    }

    fn pause_accept(&mut self, resume_at: Option<Instant>) {
        if self.accept_registered {
            let _ = self.epoll.delete(self.listener.as_raw_fd());
            self.accept_registered = false;
        }
        self.accept_resume_at = resume_at;
    }

    fn maybe_resume_accept(&mut self) {
        if self.accept_registered {
            return;
        }
        let backoff_over = self.accept_resume_at.is_none_or(|at| Instant::now() >= at);
        if backoff_over
            && self.open < MAX_CONNECTIONS
            && self
                .epoll
                .add(self.listener.as_raw_fd(), EPOLLIN, LISTENER)
                .is_ok()
        {
            self.accept_registered = true;
            self.accept_resume_at = None;
        }
    }

    // ---- connection servicing -------------------------------------------

    fn conn_slot(&self, token: u64) -> Option<usize> {
        let (slot, gen) = split_token(token);
        (slot < self.gens.len() && self.gens[slot] == gen && self.conns[slot].is_some())
            .then_some(slot)
    }

    fn service_conn(&mut self, token: u64, readable: bool, writable: bool, errored: bool) {
        let Some(slot) = self.conn_slot(token) else {
            return;
        };
        let mut conn = self.conns[slot].take().expect("live slot");
        let mut close: Option<CloseReason> = if errored {
            Some(CloseReason::Io("socket error (EPOLLERR)".into()))
        } else {
            None
        };
        if close.is_none() && writable {
            close = self.flush_out(&mut conn).err();
        }
        if close.is_none() && readable {
            close = self.read_ready(&mut conn).err();
        }
        if close.is_none() {
            close = self.process(&mut conn).err();
        }
        self.finish_service(slot, conn, close);
    }

    /// Re-installs or closes a just-serviced connection.
    fn finish_service(&mut self, slot: usize, mut conn: Conn, mut close: Option<CloseReason>) {
        if close.is_none() && conn.peer_closed && !conn.busy() && conn.out_pending() == 0 {
            close = Some(CloseReason::PeerClosed);
        }
        match close {
            Some(reason) => self.close_conn(slot, conn, reason),
            None => {
                let want = conn.desired_interest();
                if want != conn.interest {
                    if self
                        .epoll
                        .modify(conn.stream.as_raw_fd(), want, conn.token)
                        .is_err()
                    {
                        self.close_conn(slot, conn, CloseReason::Io("epoll_ctl failed".into()));
                        return;
                    }
                    conn.interest = want;
                }
                self.conns[slot] = Some(conn);
            }
        }
    }

    fn close_conn(&mut self, slot: usize, conn: Conn, reason: CloseReason) {
        let _ = self.epoll.delete(conn.stream.as_raw_fd());
        if matches!(
            reason,
            CloseReason::OutbufOverflow { .. } | CloseReason::Protocol(_)
        ) {
            ppr_obs::ppr_warn!("closing connection: {reason}");
        }
        self.metrics.record_close(&reason);
        self.metrics.connections_open.dec();
        self.open -= 1;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        drop(conn);
        // A parked listener (connection cap) can accept again now.
        if self.accept_resume_at.is_none() {
            self.maybe_resume_accept();
        }
    }

    fn read_ready(&self, conn: &mut Conn) -> Result<(), CloseReason> {
        let mut chunk = [0u8; 16 * 1024];
        let mut consumed = 0usize;
        while consumed < READ_QUANTUM && !conn.peer_closed {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.peer_closed = true,
                Ok(n) => {
                    conn.framer.push(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    consumed += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(CloseReason::Io(e.to_string())),
            }
        }
        Ok(())
    }

    /// Processes framed lines until the connection blocks on input, a
    /// serial hold, or a full window. Consecutive tagged `run`s against
    /// the same effective database accumulate into one batch, submitted —
    /// pinning its catalog snapshot — before any other command is
    /// handled, which keeps pipelined execution serially equivalent
    /// around `use`/`load`/`add`.
    fn process(&mut self, conn: &mut Conn) -> Result<(), CloseReason> {
        let mut batch: Vec<(Request, ReplyFn)> = Vec::new();
        let mut result = Ok(());
        loop {
            if conn.draining || conn.serial_hold || conn.inflight.len() >= conn.window {
                break;
            }
            let line = match conn.framer.next_line() {
                Ok(Some(line)) => line,
                Ok(None) => break,
                Err(_) => {
                    // Best-effort farewell; the close follows regardless.
                    let _ = self.send_line(conn, "err kind=protocol msg=line too long");
                    result = Err(CloseReason::Protocol("line too long".into()));
                    break;
                }
            };
            if let Err(reason) = self.handle_line(conn, &line, &mut batch) {
                result = Err(reason);
                break;
            }
        }
        self.engine.submit(batch);
        result
    }

    fn handle_line(
        &self,
        conn: &mut Conn,
        line: &str,
        batch: &mut Vec<(Request, ReplyFn)>,
    ) -> Result<(), CloseReason> {
        if conn.proto < 2 {
            return self.serial_line(conn, line);
        }
        match protocol::split_request_tag(line) {
            Ok((Some(id), rest)) => match protocol::decode_command(&rest) {
                Ok(cmd) => {
                    // Every verb but `run` comes after the pending runs
                    // have pinned their snapshots.
                    if !matches!(cmd, Command::Run(_)) {
                        self.engine.submit(mem::take(batch));
                    }
                    if conn.inflight.contains(&id) {
                        return self
                            .send_line(conn, &protocol::tag_reply(id, &server::duplicate_id(id)));
                    }
                    match server::dispatch_command(
                        cmd,
                        &self.engine,
                        &mut conn.proto,
                        &mut conn.session_db,
                        conn.window,
                    ) {
                        Dispatch::Submit(request, ReplyShape::Rows) => {
                            if batch.first().is_some_and(|(r, _)| r.db != request.db) {
                                self.engine.submit(mem::take(batch));
                            }
                            conn.inflight.insert(id);
                            let reply = self.on_reply(conn.token, Some(id), ReplyShape::Rows, true);
                            batch.push((request, reply));
                            Ok(())
                        }
                        dispatch => self.answer(conn, dispatch, Some(id)),
                    }
                }
                Err(e) => self.send_line(
                    conn,
                    &protocol::tag_reply(id, &protocol::encode_result(&Err(e))),
                ),
            },
            Ok((None, _)) => {
                // Untagged lines remain legal after the upgrade and run
                // serially, exactly like v1.
                self.engine.submit(mem::take(batch));
                self.serial_line(conn, line)
            }
            Err(e) => {
                // A malformed id cannot tag its own error reply.
                self.send_line(conn, &protocol::encode_result(&Err(e)))
            }
        }
    }

    /// One strictly serial line: synchronous verbs answer inline;
    /// `run`/`trace`/`explain` submit to the worker pool and hold the
    /// connection until the completion lands.
    fn serial_line(&self, conn: &mut Conn, line: &str) -> Result<(), CloseReason> {
        if line.trim().is_empty() {
            return self.send_line(
                conn,
                &protocol::encode_result(&Err(ServiceError::Protocol("empty line".into()))),
            );
        }
        match protocol::decode_command(line) {
            Ok(cmd) => {
                let dispatch = server::dispatch_command(
                    cmd,
                    &self.engine,
                    &mut conn.proto,
                    &mut conn.session_db,
                    conn.window,
                );
                self.answer(conn, dispatch, None)
            }
            Err(e) => self.send_line(conn, &protocol::encode_result(&Err(e))),
        }
    }

    /// Answers one dispatched command outside a batch: a reply goes out
    /// now, tagged if the request was; a submission holds the connection
    /// until its completion lands.
    fn answer(
        &self,
        conn: &mut Conn,
        dispatch: Dispatch,
        tag: Option<u64>,
    ) -> Result<(), CloseReason> {
        match (dispatch, tag) {
            (Dispatch::Reply(reply), None) => self.send_line(conn, &reply),
            (Dispatch::Reply(reply), Some(id)) => {
                self.send_line(conn, &protocol::tag_reply(id, &reply))
            }
            (Dispatch::Submit(request, shape), tag) => {
                conn.serial_hold = true;
                let reply = self.on_reply(conn.token, tag, shape, false);
                self.engine.submit(vec![(request, reply)]);
                Ok(())
            }
        }
    }

    /// The completion callback of one submission: encodes the answer as
    /// `shape` says, tags it if the request was, and hands the line to
    /// the loop. A `windowed` reply frees its id's window slot; any other
    /// ends the connection's serial hold.
    fn on_reply(&self, token: u64, tag: Option<u64>, shape: ReplyShape, windowed: bool) -> ReplyFn {
        let queue = self.queue.clone();
        let started = Instant::now();
        Box::new(move |result| {
            let reply = match shape {
                ReplyShape::Rows => protocol::encode_answer(&result),
                ReplyShape::Trace => {
                    let total_us = started.elapsed().as_micros() as u64;
                    protocol::encode_trace_report(
                        &result.map(|answer| TraceReport::of(&answer, total_us)),
                    )
                }
                ReplyShape::Explain => {
                    let total_us = started.elapsed().as_micros() as u64;
                    protocol::encode_explain_report(
                        &result.map(|answer| ExplainReport::of(answer, total_us)),
                    )
                }
            };
            let line = match tag {
                Some(id) => protocol::tag_reply(id, &reply),
                None => reply,
            };
            queue.push(Completion {
                token,
                line,
                release: tag.filter(|_| windowed),
            });
        })
    }

    // ---- write path ------------------------------------------------------

    fn send_line(&self, conn: &mut Conn, line: &str) -> Result<(), CloseReason> {
        conn.out.reserve(line.len() + 1);
        conn.out.extend_from_slice(line.as_bytes());
        conn.out.push(b'\n');
        self.flush_out(conn)?;
        let buffered = conn.out_pending();
        if buffered > OUTBUF_LIMIT {
            return Err(CloseReason::OutbufOverflow {
                buffered,
                limit: OUTBUF_LIMIT,
            });
        }
        Ok(())
    }

    fn flush_out(&self, conn: &mut Conn) -> Result<(), CloseReason> {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(CloseReason::Io("write returned zero".into())),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(CloseReason::Io(e.to_string())),
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 * 1024 {
            // Reclaim the flushed prefix so the buffer tracks the
            // backlog, not the connection's lifetime high-water mark.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        Ok(())
    }

    // ---- completions -----------------------------------------------------

    fn apply_completions(&mut self) {
        let completions = self.queue.drain();
        let mut touched: Vec<usize> = Vec::new();
        for completion in completions {
            let Some(slot) = self.conn_slot(completion.token) else {
                continue; // connection closed while the job ran
            };
            let conn = self.conns[slot].as_mut().expect("live slot");
            conn.out.extend_from_slice(completion.line.as_bytes());
            conn.out.push(b'\n');
            match completion.release {
                Some(id) => {
                    conn.inflight.remove(&id);
                }
                None => conn.serial_hold = false,
            }
            conn.last_activity = Instant::now();
            touched.push(slot);
        }
        // Flush and resume per connection once, after the whole drain:
        // a burst of completions for one peer becomes one write syscall.
        // (Flush order across connections is observable by none of them.)
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let mut close = self.flush_out(&mut conn).err();
            if close.is_none() && conn.out_pending() > OUTBUF_LIMIT {
                close = Some(CloseReason::OutbufOverflow {
                    buffered: conn.out_pending(),
                    limit: OUTBUF_LIMIT,
                });
            }
            if close.is_none() {
                close = self.process(&mut conn).err();
            }
            self.finish_service(slot, conn, close);
        }
    }

    // ---- timers ----------------------------------------------------------

    fn fire_timers(&mut self) {
        let Some(timeout) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let mut expired = Vec::new();
        if let Some(wheel) = self.wheel.as_mut() {
            wheel.tick(now, &mut expired);
        }
        for token in expired {
            let Some(slot) = self.conn_slot(token) else {
                continue;
            };
            let conn = self.conns[slot].as_ref().expect("live slot");
            let idle = now.saturating_duration_since(conn.last_activity);
            if !conn.busy() && idle >= timeout {
                let conn = self.conns[slot].take().expect("live slot");
                self.close_conn(slot, conn, CloseReason::IdleTimeout);
            } else if let Some(wheel) = self.wheel.as_mut() {
                // Lazy expiry: re-file for the remainder (or a fresh
                // period while the connection has work in flight).
                let remaining = timeout.saturating_sub(idle).max(Duration::from_millis(10));
                wheel.schedule(token, remaining, now);
            }
        }
    }

    // ---- shutdown --------------------------------------------------------

    /// Graceful drain: stop accepting and reading, let in-flight jobs
    /// complete and their replies flush, then close everything.
    fn drain_shutdown(&mut self) {
        self.pause_accept(None);
        for conn in self.conns.iter_mut().flatten() {
            conn.draining = true;
        }
        let deadline = Instant::now() + DRAIN_DEADLINE;
        let mut events = vec![
            EpollEvent {
                events: 0,
                token: 0
            };
            256
        ];
        loop {
            // Close everything that has no work left.
            for slot in 0..self.conns.len() {
                let done = self.conns[slot]
                    .as_ref()
                    .is_some_and(|c| !c.busy() && c.out_pending() == 0);
                if done {
                    let conn = self.conns[slot].take().expect("live slot");
                    self.close_conn(slot, conn, CloseReason::Shutdown);
                }
            }
            if self.open == 0 || Instant::now() >= deadline {
                break;
            }
            let n = match self.epoll.wait(&mut events, 50) {
                Ok(n) => n,
                Err(_) => break,
            };
            for ev in events.iter().take(n).copied() {
                match ev.token {
                    DOORBELL => self.apply_completions(),
                    LISTENER => {}
                    token => {
                        let writable = ev.events & EPOLLOUT != 0;
                        let errored = ev.events & (EPOLLERR | EPOLLHUP) != 0;
                        self.service_conn(token, false, writable, errored);
                    }
                }
            }
        }
        // Whatever is left exceeded the drain budget.
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].take() {
                self.close_conn(slot, conn, CloseReason::Shutdown);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(token: u64) -> Completion {
        Completion {
            token,
            line: String::new(),
            release: None,
        }
    }

    #[test]
    fn the_doorbell_rings_once_per_drain() {
        let queue = CompletionQueue {
            ready: Mutex::new(Vec::new()),
            doorbell: EventFd::new().unwrap(),
        };
        queue.push(completion(1));
        queue.push(completion(2));
        assert_eq!(queue.doorbell.drain(), 1, "two pushes, one ring");
        let tokens: Vec<u64> = queue.drain().iter().map(|c| c.token).collect();
        assert_eq!(tokens, [1, 2], "one drain returns both");
        assert_eq!(queue.doorbell.drain(), 0);
        queue.push(completion(3));
        assert_eq!(
            queue.doorbell.drain(),
            1,
            "a push after a drain rings again"
        );
        assert_eq!(queue.drain().len(), 1);
    }
}
