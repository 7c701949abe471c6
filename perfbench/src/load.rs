//! Open-loop load generator.
//!
//! Each connection gets its own Poisson schedule (drawn by the caller from
//! the workload seed) and one thread that sends every request at its
//! scheduled time, whether or not earlier replies have arrived, and reads
//! replies in between. Latency is measured from the *scheduled* send time,
//! so a server stall also charges the requests that queued behind it.
//! How late the thread actually sent (`lag_ms`) is recorded, so a run in
//! which the generator itself fell behind can be told apart.

use serve::poll::{poll, PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled write: a pre-framed request.
pub struct Send {
    /// Seconds after the run's start.
    pub at: f64,
    /// Shared, so a request sent many times is held once.
    pub bytes: Arc<[u8]>,
    /// Caller's tag, echoed in its reply.
    pub tag: usize,
}

/// One reply, in send order per connection.
#[derive(Clone)]
pub struct Reply {
    /// Scheduled send time, seconds after the run's start.
    pub at: f64,
    pub tag: usize,
    pub latency_ms: f64,
    pub ok: bool,
    pub hash: u64,
    pub error: Option<String>,
    /// Model fingerprint the reply names.
    pub model: Option<String>,
}

#[derive(Default)]
pub struct Outcome {
    pub replies: Vec<Reply>,
    /// Send lateness per write, ms.
    pub lag_ms: Vec<f64>,
    /// Requests sent and never answered before the drain deadline.
    pub unanswered: usize,
    /// Requests still unanswered when the last scheduled write went out.
    pub backlog_at_end: usize,
    /// Request bytes written.
    pub bytes_sent: usize,
    /// First scheduled send to the last reply, seconds.
    pub span_s: f64,
    /// Transport errors (closed connection, I/O failure).
    pub io_errors: Vec<String>,
    /// Steal share of each latency slot of the schedule, when the
    /// caller sampled it (see `crate::serve_wl::summarize`).
    pub slot_steals: Vec<f64>,
}

impl Outcome {
    pub fn sent(&self) -> usize {
        self.replies.len() + self.unanswered
    }

    pub fn failures(&self) -> usize {
        self.replies.iter().filter(|r| !r.ok).count() + self.unanswered
    }

    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.replies.iter().map(|r| r.latency_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// A raw protocol connection whose frames the generator reads itself.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("cannot configure socket: {e}"))?;
        Ok(Conn {
            stream,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Next complete frame already buffered, as (start, len).
    fn buffered_frame(&self) -> Option<(usize, usize)> {
        let avail = self.end - self.start;
        if avail < 4 {
            return None;
        }
        let b = &self.buf[self.start..self.start + 4];
        let len = u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize;
        (avail >= 4 + len).then_some((self.start + 4, len))
    }

    /// Wait up to `wait` for the socket to become ready for `events`.
    /// `poll` sleeps whole milliseconds on a high-resolution timer; the
    /// sub-millisecond rest is slept precisely, so sends stay on time.
    fn wait_ready(&self, events: i16, wait: Duration) {
        let whole_ms = wait.as_millis().min(i32::MAX as u128) as i32;
        if whole_ms >= 1 {
            let mut fds = [PollFd::new(self.stream.as_raw_fd(), events)];
            let _ = poll(&mut fds, whole_ms);
        } else if !wait.is_zero() {
            std::thread::sleep(wait);
        }
    }

    /// Read more bytes, waiting at most `wait`. Returns false when none
    /// arrived.
    fn fill(&mut self, wait: Duration) -> Result<bool, String> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.buf.len() - self.end < 1 << 14 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < 1 << 14 {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        for attempt in 0..2 {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    if attempt == 0 {
                        self.wait_ready(POLLIN, wait);
                    }
                }
                Err(e) => return Err(format!("read failed: {e}")),
            }
        }
        Ok(false)
    }

    /// Write all of `bytes` on the non-blocking socket, waiting for room.
    fn write_all(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    self.wait_ready(POLLOUT, Duration::from_millis(10));
                }
                Err(e) => return Err(format!("write failed: {e}")),
            }
        }
        Ok(())
    }
}

pub fn reply_of(payload: &[u8], at: f64, tag: usize, latency_ms: f64) -> Reply {
    let ok = !payload.starts_with(b"{\"error\"");
    let error = (!ok).then(|| {
        let text = String::from_utf8_lossy(payload);
        text.split("\"type\":\"")
            .nth(1)
            .and_then(|t| t.split('"').next())
            .unwrap_or("unknown")
            .to_string()
    });
    // `score` replies lead with the model; the other replies' keys are
    // sorted, so their top-level `model` follows the body.
    const KEY: &[u8] = b"\"model\":\"";
    let key_at = if payload.starts_with(b"{\"model\":\"") {
        Some(1)
    } else {
        payload.windows(KEY.len()).rposition(|w| w == KEY)
    };
    let model = key_at
        .and_then(|at| payload.get(at + KEY.len()..at + KEY.len() + 16))
        .map(|hex| String::from_utf8_lossy(hex).into_owned());
    Reply {
        at,
        tag,
        latency_ms,
        ok,
        hash: pipeline::fnv::hash_bytes(payload),
        error,
        model,
    }
}

/// Drive one connection through its schedule; replies are collected
/// until all are in or `drain` seconds pass after the last send.
fn drive(conn: &mut Conn, sends: &[Send], t0: Instant, drain: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let deadline = sends.last().map_or(0.0, |s| s.at) + drain;
    let mut next = 0;
    let mut last_reply = 0.0f64;
    loop {
        let mut now = t0.elapsed().as_secs_f64();
        while next < sends.len() && sends[next].at <= now {
            let send = &sends[next];
            out.lag_ms.push((now - send.at) * 1e3);
            if let Err(e) = conn.write_all(&send.bytes) {
                out.io_errors.push(e);
                out.unanswered += outstanding.len() + 1;
                return out;
            }
            out.bytes_sent += send.bytes.len();
            outstanding.push_back(next);
            next += 1;
            if next == sends.len() {
                out.backlog_at_end = outstanding.len();
            }
            now = t0.elapsed().as_secs_f64();
        }
        while let Some((at, len)) = conn.buffered_frame() {
            let Some(index) = outstanding.pop_front() else {
                out.io_errors.push("reply without a request".into());
                return out;
            };
            let now = t0.elapsed().as_secs_f64();
            let send = &sends[index];
            out.replies.push(reply_of(
                &conn.buf[at..at + len],
                send.at,
                send.tag,
                (now - send.at) * 1e3,
            ));
            last_reply = now;
            conn.start = at + len;
        }
        if next == sends.len() && (outstanding.is_empty() || now >= deadline) {
            break;
        }
        let wait = if next < sends.len() {
            sends[next].at - now
        } else {
            deadline - now
        };
        if let Err(e) = conn.fill(Duration::from_secs_f64(wait.max(0.0))) {
            out.io_errors.push(e);
            break;
        }
    }
    out.unanswered += outstanding.len();
    out.span_s = last_reply - sends.first().map_or(0.0, |s| s.at);
    out
}

/// Run every connection's schedule concurrently, one thread each, from a
/// common start instant; outcomes are merged.
pub fn run(conns: &mut [Conn], schedules: &[Vec<Send>], drain: f64) -> Outcome {
    assert_eq!(conns.len(), schedules.len());
    let t0 = Instant::now() + Duration::from_millis(5);
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(schedules)
            .map(|(conn, sends)| scope.spawn(move || drive(conn, sends, t0, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut merged = Outcome::default();
    for o in outcomes {
        merged.replies.extend(o.replies);
        merged.lag_ms.extend(o.lag_ms);
        merged.unanswered += o.unanswered;
        merged.backlog_at_end += o.backlog_at_end;
        merged.bytes_sent += o.bytes_sent;
        merged.span_s = merged.span_s.max(o.span_s);
        merged.io_errors.extend(o.io_errors);
    }
    merged
}

/// Poisson arrivals at `rate`/s over `[0, seconds)`, conditioned on their
/// expected count: given its count, a Poisson process's arrival times are
/// independent uniform draws, sorted. Fixing the count keeps the work per
/// run the same without smoothing the arrivals' burstiness.
pub fn poisson(rng: &mut crate::inputs::Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let n = (rate * seconds).round() as usize;
    let mut times: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    times.sort_by(f64::total_cmp);
    times
}
