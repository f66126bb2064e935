//! One load-generating connection: writes pre-encoded requests on a
//! keep-alive socket, either closed-loop (next request after the
//! previous answer) or open-loop (at scheduled arrival times,
//! pipelined), reads the answers in order, and checks each body.
//!
//! A single thread owns the socket and waits with `ppoll(2)`, whose
//! nanosecond timeout lets it wake for the next due send and for
//! arriving answers alike — no second thread per connection.

use crate::schedule::{ReqKind, Schedule};
use lantern::cache::{Fingerprint, Hasher128};
use lantern::text::json::JsonValue;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest single wait when nothing is due (answers still wake it).
const IDLE_WAIT: Duration = Duration::from_millis(100);
/// An answer slower than this is a transport failure.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// What the connection sends and what it expects back.
#[derive(Clone, Copy)]
pub struct Target<'a> {
    pub addr: SocketAddr,
    pub schedule: &'a Schedule,
    /// Expected body digest ([`body_digest`]) per request of
    /// `schedule.reqs`; `None` checks the status only.
    pub expected: Option<&'a [Fingerprint]>,
}

/// How requests are paced.
pub enum Pacing<'a> {
    /// Send the schedule position `next` hands out as soon as the
    /// previous answer arrives; stop sending at `until` or at position
    /// `end`.
    Closed {
        next: &'a AtomicUsize,
        until: Instant,
        end: usize,
    },
    /// Send `(due offset ns, schedule position)` arrivals on time, with
    /// at most `window` unanswered; stop sending (the step is lost) once
    /// more than `abort_backlog` arrivals are due but unsent.
    Open {
        arrivals: &'a [(u64, usize)],
        window: usize,
        abort_backlog: usize,
    },
}

/// One answered request; times are ns since the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub req: u32,
    /// Intended send time.
    pub due: u64,
    pub done: u64,
    /// 2xx and a body equal to the reference.
    pub ok: bool,
    /// Open loop: how late the generator sent the request, counted from
    /// its due time or, when it waited for the in-flight window, from
    /// the answer that freed a slot — so server backlog is not counted
    /// as generator lag. `None` in closed loop.
    pub lag: Option<u64>,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.done.saturating_sub(self.due)
    }
}

/// Everything one connection saw in one phase.
#[derive(Debug, Default)]
pub struct ConnRun {
    pub samples: Vec<Sample>,
    /// Open loop: arrivals never sent because the step was abandoned.
    pub unsent: usize,
}

struct Pending {
    req: u32,
    due: u64,
    lag: Option<u64>,
}

/// Drive one connection until its pacing is exhausted and every sent
/// request is answered.
pub fn drive(target: Target<'_>, pacing: &Pacing<'_>, start: Instant) -> Result<ConnRun, String> {
    sys::exact_timeouts().map_err(|e| format!("set timer slack: {e}"))?;
    let mut stream =
        TcpStream::connect(target.addr).map_err(|e| format!("connect {}: {e}", target.addr))?;
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_nonblocking(true))
        .map_err(|e| format!("configure socket: {e}"))?;
    let ops = &target.schedule.ops;
    let reqs = &target.schedule.reqs;
    let mut out: Vec<u8> = Vec::new();
    let mut out_pos = 0;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut run = ConnRun::default();
    let mut next_arrival = 0;
    let mut abandoned = false;
    let mut closed_done = false;
    let mut last_answer = Instant::now();
    // When the in-flight window last went from full to not full.
    let mut room_since = 0;
    let elapsed = |start: Instant| start.elapsed().as_nanos() as u64;

    loop {
        let now = elapsed(start);
        match pacing {
            Pacing::Closed { next, until, end } => {
                if inflight.is_empty() && !closed_done && Instant::now() < *until {
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= *end {
                        closed_done = true;
                        continue;
                    }
                    let req = ops[pos % ops.len()];
                    target.schedule.encode(req, &mut out);
                    inflight.push_back(Pending {
                        req,
                        due: now,
                        lag: None,
                    });
                }
            }
            Pacing::Open {
                arrivals,
                window,
                abort_backlog,
            } => {
                while !abandoned
                    && next_arrival < arrivals.len()
                    && arrivals[next_arrival].0 <= now
                    && inflight.len() < *window
                {
                    let (due, pos) = arrivals[next_arrival];
                    let req = ops[pos % ops.len()];
                    target.schedule.encode(req, &mut out);
                    inflight.push_back(Pending {
                        req,
                        due,
                        lag: Some(now.saturating_sub(due.max(room_since))),
                    });
                    next_arrival += 1;
                }
                let due_unsent = arrivals[next_arrival..].partition_point(|&(due, _)| due <= now);
                if !abandoned && due_unsent > *abort_backlog {
                    abandoned = true;
                    run.unsent = arrivals.len() - next_arrival;
                }
            }
        }

        if out_pos < out.len() {
            match stream.write(&out[out_pos..]) {
                Ok(n) => out_pos += n,
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
            if out_pos == out.len() {
                out.clear();
                out_pos = 0;
            }
        }

        let sending_done = match pacing {
            Pacing::Closed { until, .. } => closed_done || Instant::now() >= *until,
            Pacing::Open { arrivals, .. } => abandoned || next_arrival == arrivals.len(),
        };
        if sending_done && inflight.is_empty() {
            return Ok(run);
        }

        let timeout = match pacing {
            Pacing::Open {
                arrivals, window, ..
            } if !abandoned && next_arrival < arrivals.len() && inflight.len() < *window => {
                Duration::from_nanos(arrivals[next_arrival].0.saturating_sub(elapsed(start)))
                    .min(IDLE_WAIT)
            }
            _ => IDLE_WAIT,
        };
        let want_write = out_pos < out.len();
        sys::wait(stream.as_raw_fd(), want_write, timeout)
            .map_err(|e| format!("wait for socket: {e}"))?;

        loop {
            match stream.read(&mut chunk) {
                Ok(0) => return Err("server closed the connection".to_string()),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let mut consumed = 0;
        while let Some((status, body)) = parse_response(&inbuf[consumed..])? {
            let full = matches!(pacing, Pacing::Open { window, .. } if inflight.len() >= *window);
            let pending = inflight
                .pop_front()
                .ok_or_else(|| "answer without a request".to_string())?;
            let req = &reqs[pending.req as usize];
            let len = body.end;
            let body = &inbuf[consumed + body.start..consumed + body.end];
            let ok = status == 200
                && match req.kind {
                    ReqKind::Write { .. } => catalog_ack_ok(body),
                    _ => target
                        .expected
                        .is_none_or(|expected| body_digest(body) == expected[pending.req as usize]),
                };
            let done = elapsed(start);
            if full {
                room_since = done;
            }
            run.samples.push(Sample {
                req: pending.req,
                due: pending.due,
                done,
                ok,
                lag: pending.lag,
            });
            consumed += len;
            last_answer = Instant::now();
        }
        inbuf.drain(..consumed);
        if !inflight.is_empty() && last_answer.elapsed() > ANSWER_TIMEOUT {
            return Err(format!("no answer for {ANSWER_TIMEOUT:?}"));
        }
    }
}

/// Frame one response at the start of `buf`: its status and body byte
/// range (which ends where the response ends), or `None` while
/// incomplete. The service always sends `Content-Length`.
fn parse_response(buf: &[u8]) -> Result<Option<(u16, Range<usize>)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line in {head:?}"))?;
    let length = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse::<usize>().ok())
        .ok_or_else(|| "response without Content-Length".to_string())?;
    let body_start = head_end + 4;
    if buf.len() < body_start + length {
        return Ok(None);
    }
    Ok(Some((status, body_start..body_start + length)))
}

/// The 128-bit digest answers are checked by: an answer that differs
/// from its reference in any byte has another digest unless the hash
/// collides, and the references take 16 bytes each instead of a whole
/// body, which would count in `peak_rss_mb`.
pub fn body_digest(body: &[u8]) -> Fingerprint {
    let mut h = Hasher128::new("servebench/body/v1");
    h.write(body);
    h.finish()
}

/// A coordinator catalog write succeeded on every replica.
pub fn catalog_ack_ok(body: &[u8]) -> bool {
    let Some(ack) = std::str::from_utf8(body)
        .ok()
        .and_then(|b| JsonValue::parse(b).ok())
    else {
        return false;
    };
    ack.get("replicas")
        .and_then(JsonValue::as_array)
        .is_some_and(|replicas| {
            !replicas.is_empty()
                && replicas
                    .iter()
                    .all(|r| r.get("status").and_then(JsonValue::as_str) == Some("applied"))
        })
}

mod sys {
    //! `ppoll(2)` on one descriptor and the thread's timer slack
    //! (`prctl(2)`), via the already-linked libc.

    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    /// `prctl` option that sets the calling thread's timer slack.
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Let this thread's timed waits end within 1 ns of their deadline
    /// instead of the default 50 µs late, which would count as
    /// generator lag in every open-loop request.
    pub fn exact_timeouts() -> io::Result<()> {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
        // touches no memory of ours.
        let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait until `fd` is readable (or writable, with `want_write`) or
    /// `timeout` passes.
    pub fn wait(fd: c_int, want_write: bool, timeout: Duration) -> io::Result<()> {
        let mut pfd = PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `pfd` and `ts` are live, correctly laid-out locals for
        // the whole call; `nfds` is 1, matching the single entry; a null
        // `sigmask` leaves the signal mask unchanged.
        let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
}
