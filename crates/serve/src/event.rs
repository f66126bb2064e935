//! The serving core — the only connection loop in the workspace, for
//! replicas and the cluster coordinator alike. One event thread owns
//! accept, read, and write buffering over non-blocking sockets, driven
//! by a raw `epoll` readiness loop on Linux (thin FFI — the workspace
//! is std-only) with a portable `poll(2)` fallback on other Unixes.
//!
//! The division of labour:
//!
//! * the **event thread** accepts connections, accumulates inbound
//!   bytes, parses each pipelined request once, straight out of the
//!   connection's input buffer ([`crate::http::parse_request`]),
//!   dispatches complete requests to the worker pool over a bounded
//!   channel, and writes responses back through per-connection output
//!   queues **in request order**;
//! * the **worker pool** runs [`Handler::handle`] and encodes the
//!   response. When that response is next in request order with no
//!   output buffered, the worker writes it to the socket itself, so the
//!   reply does not wait on an event-thread wakeup; either way it posts
//!   a completion (carrying any bytes left unwritten) back, waking the
//!   event thread through a self-pipe (a `UnixStream` pair).
//!
//! Thousands of idle keep-alive connections therefore cost one `fd` +
//! a few hundred bytes each, not a parked thread. When the dispatch
//! queue is full the event loop **sheds** instead of blocking: the
//! request is answered immediately with `503` + `Retry-After` and a
//! structured error body, and the connection stays usable. Shutdown
//! drains: the listener closes first, in-flight requests finish, and
//! buffered responses are flushed before connections are dropped.

#![cfg(unix)]

use crate::envelope::json_error;
use crate::http::{encode_response, parse_request, Parsed, Request, Response, REQUEST_ID_HEADER};
use crate::server::{Handler, ServeConfig, ServeStats};
use lantern_obs::{Recorder, Stage};
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `Retry-After` seconds advertised on load-shed `503`s.
const SHED_RETRY_AFTER_SECS: u32 = 1;
/// How long shutdown waits for in-flight requests and buffered
/// responses before dropping what remains.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Idle-sweep granularity: the idle scan runs once per interval, and
/// the loop never sleeps past the next one, so idle timeouts are
/// enforced within this bound.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

// ---------------------------------------------------------------------
// Readiness backend: epoll on Linux, poll(2) elsewhere.
// ---------------------------------------------------------------------

/// One readiness report from the poller.
struct PollEvent {
    token: u64,
    readable: bool,
    writable: bool,
    /// Error or hangup — the connection is torn down.
    failed: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    //! Raw `epoll` via FFI on the already-linked libc — level
    //! triggered, one epoll instance per server.

    use super::PollEvent;
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// `struct epoll_event`; packed on x86 per the kernel ABI.
    #[derive(Clone, Copy)]
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    pub struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: c_int, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            let mut flags = EPOLLRDHUP;
            if read {
                flags |= EPOLLIN;
            }
            if write {
                flags |= EPOLLOUT;
            }
            let mut ev = EpollEvent {
                events: flags,
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub fn remove(&mut self, fd: RawFd) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    ms,
                )
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
                let data = ev.data;
                out.push(PollEvent {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    failed: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    //! Portable fallback: a registration table replayed through
    //! `poll(2)` each wait. O(n) per wait, which is fine for the
    //! connection counts a non-Linux dev box sees.

    use super::PollEvent;
    use std::io;
    use std::os::raw::{c_int, c_short};
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_uint, timeout: c_int) -> c_int;
    }

    pub struct Poller {
        slots: Vec<(RawFd, u64, bool, bool)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller { slots: Vec::new() })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            self.slots.push((fd, token, read, write));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
            for slot in &mut self.slots {
                if slot.0 == fd {
                    *slot = (fd, token, read, write);
                    return Ok(());
                }
            }
            self.add(fd, token, read, write)
        }

        pub fn remove(&mut self, fd: RawFd) {
            self.slots.retain(|slot| slot.0 != fd);
        }

        pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Duration) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .slots
                .iter()
                .map(|&(fd, _, read, write)| PollFd {
                    fd,
                    events: if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 },
                    revents: 0,
                })
                .collect();
            let ms = timeout.as_millis().min(i32::MAX as u128) as c_int;
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_uint, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(err);
            }
            for (pollfd, &(_, token, _, _)) in fds.iter().zip(&self.slots) {
                if pollfd.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: pollfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pollfd.revents & POLLOUT != 0,
                    failed: pollfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

use sys::Poller;

// ---------------------------------------------------------------------
// Event-thread <-> worker-pool plumbing.
// ---------------------------------------------------------------------

/// A parsed request travelling to the worker pool.
struct Job {
    token: u64,
    seq: u64,
    request: Request,
    keep_alive: bool,
    /// The connection's socket when this response is next in request
    /// order with no output buffered: nothing else can be written to
    /// the socket until this job completes, so the worker writes the
    /// response itself instead of waiting on an event-thread wakeup.
    direct: Option<Arc<Wire>>,
}

/// A finished request travelling back: the encoded response bytes the
/// worker did not write itself. `unwritten: None` means the handler
/// panicked — the connection is torn down (one connection per contained
/// panic, never a worker).
struct Completion {
    token: u64,
    seq: u64,
    unwritten: Option<Vec<u8>>,
    keep_alive: bool,
}

/// Write as much of `bytes` as the non-blocking socket takes right now.
fn write_now(mut stream: &TcpStream, bytes: &[u8]) -> usize {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    written
}

fn encoded(response: &Response, keep_alive: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_response(&mut bytes, response, keep_alive);
    bytes
}

/// Everything the event thread shares with workers and the handle.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    waker: UnixStream,
    handler: Arc<dyn Handler>,
}

impl Shared {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = (&self.waker).write(&[1u8]);
    }

    fn stats(&self) -> &ServeStats {
        self.handler.stats()
    }

    /// The handler's recorder: the event thread records the socket
    /// `read`/`write` stages there (requests execute on workers, so
    /// those stages can't ride the worker-thread trace).
    fn obs(&self) -> &Recorder {
        self.handler.recorder()
    }
}

// ---------------------------------------------------------------------
// Per-connection state.
// ---------------------------------------------------------------------

/// A connection's socket, shared with the worker writing a response
/// directly.
struct Wire {
    stream: TcpStream,
    /// One past the last request whose response a worker has begun
    /// writing directly. The event thread learns of that response only
    /// when its completion is drained, which can be after the client
    /// has read it and sent its next request; this claim keeps such a
    /// request from counting as pipelined. It publishes no other data:
    /// the worker's `Release` store precedes its write to the socket,
    /// and the event thread's `Acquire` load follows its read of the
    /// bytes it then parses.
    answered: AtomicU64,
}

struct Conn {
    /// Shared with a worker writing a response directly (see
    /// [`Job::direct`]).
    wire: Arc<Wire>,
    /// Generation stamp; the full poller token is `gen << 32 | slot`,
    /// so late completions or stale readiness events for a recycled
    /// slot are discarded instead of hitting the wrong peer.
    gen: u64,
    /// Unparsed inbound bytes.
    inbuf: Vec<u8>,
    /// Serialized, not-yet-written outbound bytes.
    outbuf: Vec<u8>,
    outpos: usize,
    /// Next request sequence number to assign on this connection.
    next_seq: u64,
    /// Next sequence number eligible for serialization — responses are
    /// written strictly in request order (HTTP/1.1 pipelining).
    next_write: u64,
    /// Encoded responses waiting for an earlier sequence number.
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Requests dispatched to the pool and not yet completed.
    in_flight: usize,
    /// No further requests are parsed (close requested, protocol
    /// error, peer EOF, or shutdown drain).
    no_more_reads: bool,
    /// Close once the output buffer drains and nothing is pending.
    close_after_write: bool,
    /// The (read, write) interest registered with the poller, so an
    /// unchanged interest costs no `epoll_ctl`.
    interest: (bool, bool),
    last_activity: Instant,
}

impl Conn {
    fn has_pending_output(&self) -> bool {
        self.outpos < self.outbuf.len()
    }

    fn is_drained(&self) -> bool {
        self.in_flight == 0 && self.ready.is_empty() && !self.has_pending_output()
    }
}

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

fn token_of(slot: usize, gen: u64) -> u64 {
    (gen << 32) | slot as u64
}

fn slot_of(token: u64) -> usize {
    (token & 0xFFFF_FFFF) as usize
}

// ---------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------

/// Spawn the event thread + worker pool over an already-bound
/// listener. Returns the joinable threads (event thread first) and the
/// write end of the self-pipe, which the shutdown path writes to.
pub(crate) fn spawn(
    listener: TcpListener,
    handler: Arc<dyn Handler>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(Vec<JoinHandle<()>>, UnixStream)> {
    listener.set_nonblocking(true)?;
    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let external_waker = wake_tx.try_clone()?;
    let shared = Arc::new(Shared {
        completions: Mutex::new(Vec::new()),
        waker: wake_tx,
        handler,
    });

    let poller = Poller::new()?;
    let (job_tx, job_rx) = sync_channel::<Job>(config.queue_depth.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers = config.effective_workers();
    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let job_rx = Arc::clone(&job_rx);
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&job_rx, &shared)));
    }

    let event_thread = std::thread::spawn(move || {
        let mut state = EventLoop {
            listener,
            poller,
            wake_rx,
            shared,
            job_tx,
            config,
            shutdown,
            conns: Vec::new(),
            free: Vec::new(),
            gen: 0,
            live: 0,
        };
        state.run();
    });
    threads.insert(0, event_thread);
    Ok((threads, external_waker))
}

fn worker_loop(job_rx: &Mutex<Receiver<Job>>, shared: &Shared) {
    loop {
        let job = match job_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        shared.stats().queue_depth.fetch_sub(1, Ordering::Relaxed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.handler.handle(&job.request)
        }));
        let unwritten = match outcome {
            Ok(response) => {
                let started = Instant::now();
                let mut bytes = encoded(&response, job.keep_alive);
                if let Some(wire) = &job.direct {
                    // Claimed before the write, so the client cannot
                    // answer this response before the claim is visible.
                    wire.answered.store(job.seq + 1, Ordering::Release);
                    bytes.drain(..write_now(&wire.stream, &bytes));
                }
                shared
                    .obs()
                    .record_stage(Stage::Write, started.elapsed().as_nanos() as u64);
                Some(bytes)
            }
            Err(_) => {
                shared.stats().panics.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        if let Ok(mut completions) = shared.completions.lock() {
            completions.push(Completion {
                token: job.token,
                seq: job.seq,
                unwritten,
                keep_alive: job.keep_alive,
            });
        }
        shared.wake();
    }
}

// ---------------------------------------------------------------------
// The loop itself.
// ---------------------------------------------------------------------

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    wake_rx: UnixStream,
    shared: Arc<Shared>,
    job_tx: SyncSender<Job>,
    config: ServeConfig,
    shutdown: Arc<AtomicBool>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    gen: u64,
    live: usize,
}

impl EventLoop {
    fn run(&mut self) {
        if self
            .poller
            .add(self.listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
        {
            return;
        }
        if self
            .poller
            .add(self.wake_rx.as_raw_fd(), WAKER_TOKEN, true, false)
            .is_err()
        {
            return;
        }
        let mut events: Vec<PollEvent> = Vec::new();
        let mut draining_since: Option<Instant> = None;
        let mut next_sweep = Instant::now() + SWEEP_INTERVAL;
        loop {
            let shutting_down = self.shutdown.load(Ordering::SeqCst);
            if shutting_down && draining_since.is_none() {
                draining_since = Some(Instant::now());
                self.begin_drain();
            }
            if let Some(since) = draining_since {
                let deadline_passed = since.elapsed() >= DRAIN_DEADLINE;
                if self.live == 0 || deadline_passed {
                    return; // dropping job_tx stops the workers
                }
            }

            events.clear();
            let until_sweep = next_sweep.saturating_duration_since(Instant::now());
            if self.poller.wait(&mut events, until_sweep).is_err() {
                return;
            }
            // Completions first: they may unblock ordered writes that
            // this batch's writable events then flush.
            self.drain_completions();
            for &PollEvent {
                token,
                readable,
                writable,
                failed,
            } in &events
            {
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => {
                        let mut sink = [0u8; 64];
                        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
                    }
                    token => self.conn_ready(token, readable, writable, failed),
                }
            }
            self.drain_completions();
            // The idle scan costs O(connections): run it once per
            // interval, not after every wakeup.
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep_idle(now);
                next_sweep = now + SWEEP_INTERVAL;
            }
        }
    }

    /// Shutdown begins: stop accepting, finish what's in flight.
    fn begin_drain(&mut self) {
        self.poller.remove(self.listener.as_raw_fd());
        for slot in 0..self.conns.len() {
            let Some(conn) = &mut self.conns[slot] else {
                continue;
            };
            conn.no_more_reads = true;
            conn.close_after_write = true;
            if conn.is_drained() {
                self.close_conn(slot);
            } else {
                self.update_interest(slot);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.shared
                        .stats()
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    if self.live >= self.config.max_conns.max(1) {
                        // Admission control at the front door: past the
                        // connection cap the socket is closed outright
                        // (clients see a reset, not a silent queue).
                        self.shared
                            .stats()
                            .shed_requests
                            .fetch_add(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.gen = (self.gen + 1) & 0xFFFF_FFFF;
                    let token = token_of(slot, self.gen);
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.conns[slot] = Some(Conn {
                        wire: Arc::new(Wire {
                            stream,
                            answered: AtomicU64::new(0),
                        }),
                        gen: self.gen,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        outpos: 0,
                        next_seq: 0,
                        next_write: 0,
                        ready: BTreeMap::new(),
                        in_flight: 0,
                        no_more_reads: false,
                        close_after_write: false,
                        interest: (true, false),
                        last_activity: Instant::now(),
                    });
                    self.live += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u64, readable: bool, writable: bool, failed: bool) {
        let slot = slot_of(token);
        let gen = token >> 32;
        let Some(Some(conn)) = self.conns.get(slot) else {
            return;
        };
        if conn.gen != gen {
            return; // stale event for a recycled slot
        }
        if failed && !readable {
            self.close_conn(slot);
            return;
        }
        if readable {
            self.read_ready(slot);
        }
        if writable {
            self.write_ready(slot);
        }
    }

    /// Pull everything the socket has, then parse + dispatch requests.
    fn read_ready(&mut self, slot: usize) {
        let mut closed = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.no_more_reads {
                // Still readable but no longer parsing: swallow bytes so
                // level-triggered polling doesn't spin. EOF closes.
                let mut sink = [0u8; 4096];
                loop {
                    match (&conn.wire.stream).read(&mut sink) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(_) => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
            } else {
                let started = Instant::now();
                let mut got_bytes = false;
                let mut chunk = [0u8; 16 * 1024];
                loop {
                    match (&conn.wire.stream).read(&mut chunk) {
                        Ok(0) => {
                            closed = true;
                            break;
                        }
                        Ok(n) => {
                            conn.inbuf.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                            got_bytes = true;
                            // A short read drained the socket; polling is
                            // level-triggered, so anything arriving later
                            // (EOF included) is reported again.
                            if n < chunk.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            closed = true;
                            break;
                        }
                    }
                }
                if got_bytes {
                    self.shared
                        .obs()
                        .record_stage(Stage::Read, started.elapsed().as_nanos() as u64);
                }
            }
        }
        self.parse_and_dispatch(slot);
        if closed {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            conn.no_more_reads = true;
            conn.close_after_write = true;
            if conn.is_drained() {
                self.close_conn(slot);
                return;
            }
        }
        self.flush(slot);
    }

    /// Parse as many pipelined requests as the buffer holds and hand
    /// them to the pool (or shed).
    fn parse_and_dispatch(&mut self, slot: usize) {
        // Read once, before any of these bytes is dispatched: a request
        // in this batch must not look answered because an earlier one
        // in the same batch already was.
        let Some(answered) = self.conns[slot]
            .as_ref()
            .map(|conn| conn.wire.answered.load(Ordering::Acquire))
        else {
            return;
        };
        loop {
            let shutting_down = self.shutdown.load(Ordering::SeqCst);
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.no_more_reads {
                return;
            }
            let request = match parse_request(&conn.inbuf, self.config.max_body_bytes) {
                Parsed::Incomplete => return,
                Parsed::Done(request, consumed) => {
                    conn.inbuf.drain(..consumed);
                    request
                }
                Parsed::Failed(err) => {
                    // Protocol errors get a structured best-effort
                    // reply, then the connection closes.
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.no_more_reads = true;
                    conn.inbuf.clear();
                    self.shared
                        .stats()
                        .error_responses
                        .fetch_add(1, Ordering::Relaxed);
                    let response = json_error("http", &err.message(), err.status());
                    self.complete(slot, seq, encoded(&response, false), false);
                    return;
                }
            };
            let keep_alive = request.keep_alive && !shutting_down;
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if !keep_alive {
                conn.no_more_reads = true;
            }
            let next = seq == conn.next_write && !conn.has_pending_output();
            let direct = next.then(|| Arc::clone(&conn.wire));
            let token = token_of(slot, conn.gen);
            if seq > conn.next_write.max(answered) {
                self.shared
                    .stats()
                    .pipelined_requests
                    .fetch_add(1, Ordering::Relaxed);
            }
            match self.job_tx.try_send(Job {
                token,
                seq,
                request,
                keep_alive,
                direct,
            }) {
                Ok(()) => {
                    self.shared
                        .stats()
                        .queue_depth
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.conns[slot].as_mut() {
                        conn.in_flight += 1;
                    }
                }
                Err(TrySendError::Full(job)) => {
                    // Admission control: answer 503 now instead of
                    // blocking the event loop on a full queue. The
                    // connection stays usable.
                    self.shared
                        .stats()
                        .shed_requests
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .stats()
                        .error_responses
                        .fetch_add(1, Ordering::Relaxed);
                    // Shed responses never reach the handler, so the
                    // request id is resolved here — kept from the
                    // request when present, minted otherwise — and
                    // stays traceable.
                    let id = match job.request.header(REQUEST_ID_HEADER) {
                        Some(id) if !id.is_empty() => id.to_string(),
                        _ => self.shared.obs().mint_id(),
                    };
                    let response =
                        json_error("overloaded", "dispatch queue is full; retry shortly", 503)
                            .with_header("Retry-After", SHED_RETRY_AFTER_SECS.to_string())
                            .with_request_id(&id);
                    self.complete(slot, seq, encoded(&response, keep_alive), keep_alive);
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
    }

    /// Worker completions: route each back to its connection, preserve
    /// request order, then flush.
    fn drain_completions(&mut self) {
        let completions = {
            let Ok(mut guard) = self.shared.completions.lock() else {
                return;
            };
            std::mem::take(&mut *guard)
        };
        for completion in completions {
            let slot = slot_of(completion.token);
            let gen = completion.token >> 32;
            let Some(Some(conn)) = self.conns.get_mut(slot) else {
                continue; // connection died while the request ran
            };
            if conn.gen != gen {
                continue;
            }
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.last_activity = Instant::now();
            match completion.unwritten {
                Some(bytes) => {
                    self.complete(slot, completion.seq, bytes, completion.keep_alive);
                    self.flush(slot);
                }
                None => {
                    // Handler panic: drop the connection — the client
                    // sees a reset, pipelined siblings die with it, the
                    // worker survives.
                    self.close_conn(slot);
                }
            }
        }
    }

    /// Insert a finished response's encoded bytes and queue every
    /// response that is now next in request order for writing.
    fn complete(&mut self, slot: usize, seq: u64, bytes: Vec<u8>, keep_alive: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.ready.insert(seq, (bytes, keep_alive));
        while let Some((bytes, keep_alive)) = conn.ready.remove(&conn.next_write) {
            conn.outbuf.extend_from_slice(&bytes);
            conn.next_write += 1;
            if !keep_alive {
                conn.no_more_reads = true;
                conn.close_after_write = true;
                conn.ready.clear();
                break;
            }
        }
    }

    /// Write as much buffered output as the socket takes.
    fn flush(&mut self, slot: usize) {
        let mut close = false;
        let mut broken = false;
        {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            while conn.outpos < conn.outbuf.len() {
                match (&conn.wire.stream).write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        broken = true;
                        break;
                    }
                    Ok(n) => {
                        conn.outpos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            if !conn.has_pending_output() {
                conn.outbuf.clear();
                conn.outpos = 0;
                if conn.close_after_write && conn.in_flight == 0 && conn.ready.is_empty() {
                    close = true;
                }
            }
        }
        if broken || close {
            self.close_conn(slot);
        } else {
            self.update_interest(slot);
        }
    }

    fn write_ready(&mut self, slot: usize) {
        self.flush(slot);
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let interest = (
            !conn.no_more_reads || !conn.close_after_write,
            conn.has_pending_output(),
        );
        if interest == conn.interest {
            return;
        }
        conn.interest = interest;
        let token = token_of(slot, conn.gen);
        let fd = conn.wire.stream.as_raw_fd();
        let _ = self.poller.modify(fd, token, interest.0, interest.1);
    }

    /// Close idle connections past the configured read timeout —
    /// including slow-loris peers parked on a partial request head.
    fn sweep_idle(&mut self, now: Instant) {
        let timeout = self.config.read_timeout;
        if timeout.is_zero() {
            return;
        }
        for slot in 0..self.conns.len() {
            let expired = match &self.conns[slot] {
                Some(conn) => {
                    conn.in_flight == 0
                        && conn.ready.is_empty()
                        && !conn.has_pending_output()
                        && now.saturating_duration_since(conn.last_activity) >= timeout
                }
                None => false,
            };
            if expired {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            self.poller.remove(conn.wire.stream.as_raw_fd());
            self.free.push(slot);
            self.live -= 1;
        }
    }
}
