//! Small shared helpers: order statistics, process accounting, JSON text.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency percentile with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    /// The quantile actually reported, in (0, 1).
    pub q: f64,
    pub value: f64,
    /// Samples at or below the reported value's rank, and beyond it.
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank quantile of a sorted sample.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest of `target` and the quantiles below it that still leaves
/// at least ten samples beyond it: p99 needs 1000 samples, smaller
/// samples fall back to the highest percentile they support.
pub fn tail_percentile(sorted: &[f64], target: f64) -> Percentile {
    let n = sorted.len();
    let supported = if n > 10 {
        (1.0 - 10.0 / n as f64).max(0.5)
    } else {
        0.5
    };
    let q = target.min(supported);
    let rank = ((n as f64) * q).ceil().max(1.0) as usize;
    Percentile {
        q,
        value: quantile_sorted(sorted, q),
        samples: n,
        beyond: n.saturating_sub(rank.min(n)),
    }
}

/// `VmHWM` (peak resident set) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds a process (this one for `None`) has used,
/// from `/proc`.
pub fn cpu_seconds(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/stat"),
        None => "/proc/self/stat".to_string(),
    };
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (100 Hz on Linux).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Machine-wide CPU ticks `(stolen by the hypervisor, total)` from
/// `/proc/stat`; the share stolen over a phase tells a run disturbed by
/// other guests on the host from a slow program.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time stolen between two [`cpu_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1).max(1);
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Share of the machine's CPU time the hypervisor may steal during the
/// part of a phase that is judged; above it the phase measured the host's
/// other guests, not this program, and is measured again.
pub const STEAL_LIMIT: f64 = 0.01;
/// Most times one phase is measured.
pub const ATTEMPTS: usize = 2;

/// Run `measure` until the hypervisor stole at most `STEAL_LIMIT` of the
/// CPU time it judges by (each attempt reports its own steal share), at
/// most `ATTEMPTS` times. Returns the least stolen attempt's result and
/// every attempt's steal share. Each attempt's outputs are checked inside
/// `measure`; an error ends the retries.
pub fn steady<T>(
    mut measure: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut steals = Vec::new();
    let mut best: Option<(f64, T)> = None;
    loop {
        let (result, steal) = measure()?;
        steals.push(steal);
        if best.as_ref().is_none_or(|(least, _)| steal < *least) {
            best = Some((steal, result));
        }
        if steal <= STEAL_LIMIT || steals.len() == ATTEMPTS {
            let (_, result) = best.expect("one attempt ran");
            return Ok((result, steals));
        }
    }
}

/// Steal shares of consecutive windows of a phase: a thread reads the
/// machine's CPU ticks at every window boundary from its start until
/// [`StealSampler::finish`], whose share covers the last, partial window.
pub struct StealSampler {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<Vec<f64>>,
}

impl StealSampler {
    pub fn start(window: Duration) -> StealSampler {
        let (stop, stopped) = mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            let mut last = cpu_ticks();
            let mut shares = Vec::new();
            loop {
                let due = t0 + window * (shares.len() as u32 + 1);
                let wait = due.saturating_duration_since(Instant::now());
                let done = !matches!(
                    stopped.recv_timeout(wait),
                    Err(mpsc::RecvTimeoutError::Timeout)
                );
                let now = cpu_ticks();
                shares.push(steal_share(last, now));
                last = now;
                if done {
                    return shares;
                }
            }
        });
        StealSampler { stop, handle }
    }

    pub fn finish(self) -> Vec<f64> {
        drop(self.stop);
        self.handle.join().expect("steal sampler panicked")
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` when the tree is not a git checkout.
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number (non-finite values render as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
