//! The serve workload: a daemon child fed the request mix.
//!
//! A run trains the served battery, times daemon starts at its start,
//! middle and end (their median is `setup_s`), measures latency in a
//! closed loop for half of `--seconds` (`p50_ms`) and offers the nominal
//! rate open-loop in the other half (replies per daemon CPU-second).
//! Every ok reply is compared with its offline reference after the phase
//! that produced it.

use crate::calib::Plan;
use crate::daemon::{json_num, Daemon};
use crate::inputs::Rng;
use crate::load::{self, Conn, Outcome, Send};
use crate::model::{write_served, Battery, Served};
use crate::report::Report;
use crate::traffic::Features;
use crate::util::{
    cpu_seconds, cpu_ticks, median, steady, steal_share, tail_percentile, Percentile, StealSampler,
};
use clairvoyant::report::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// Load connections: one per core, each with its own generator thread.
pub fn load_conns() -> usize {
    crate::util::cores().clamp(1, 2)
}

/// Daemon starts timed at each of three points of a run (start, after
/// the nominal phase, end); `setup_s` is the median of all. The machine's
/// speed drifts within a run, so samples spread over it.
const SETUPS: usize = 5;
/// Retrain-and-redeploy cycles at each of three points of a run (after
/// the warm-up, the latency phase and the nominal phase); `redeploy_s`
/// and `retrain_s` are medians over all of them (the first, cold training
/// serves the daemon).
const REDEPLOYS: usize = 3;
/// Untimed traffic at the nominal rate before the measured phase.
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` spent on the closed-loop latency phase; the rest
/// is the open-loop nominal phase.
const LATENCY_SHARE: f64 = 0.5;
/// A median send later than the nominal rate's mean gap between
/// arrivals means the generator, not the server, fell behind, and the
/// run is invalid. (A stall of the whole machine delays a burst of sends
/// and shows in the tail of the lag, not in its median.)
fn lag_limit_ms(plan: &Plan) -> f64 {
    1e3 / plan.nominal_rps
}
/// Distinct feature vectors the traffic cycles through.
pub const FEATURE_APPS: usize = 64;

/// One open-loop phase at `rate` requests/s for `seconds`, with the
/// steal share of each of its latency windows.
pub fn phase(
    conns: &mut [Conn],
    traffic: &Features,
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    drain: f64,
) -> Outcome {
    let per_conn = rate / conns.len() as f64;
    let schedules: Vec<Vec<Send>> = (0..conns.len())
        .map(|_| {
            load::poisson(rng, per_conn, seconds)
                .into_iter()
                .map(|at| {
                    let (bytes, tag) = traffic.make(rng);
                    Send { at, bytes, tag }
                })
                .collect()
        })
        .collect();
    let sampler = StealSampler::start(Duration::from_secs_f64(SLOT_S));
    let mut outcome = load::run(conns, &schedules, drain);
    outcome.slot_steals = sampler.finish();
    outcome
}

/// Closed-loop latency: one connection with one request in flight, each
/// drawn from the mix and sent as soon as the previous reply arrived, for
/// `seconds`. Each reply's latency is its own service and wire time: no
/// queue of open-loop arrivals amplifies a hiccup of the shared machine,
/// and the machine's cores stay awake between requests.
fn closed_loop(
    daemon: &Daemon,
    traffic: &Features,
    rng: &mut Rng,
    seconds: f64,
) -> Result<Outcome, String> {
    let mut client = daemon.client()?;
    let mut out = Outcome::default();
    let sampler = StealSampler::start(Duration::from_secs_f64(SLOT_S));
    let t0 = Instant::now();
    loop {
        let at = t0.elapsed().as_secs_f64();
        if at >= seconds {
            break;
        }
        let (bytes, tag) = traffic.make(rng);
        client.send_framed(&bytes)?;
        out.bytes_sent += bytes.len();
        let payload = client.recv_payload()?;
        let latency_ms = (t0.elapsed().as_secs_f64() - at) * 1e3;
        out.replies
            .push(load::reply_of(payload, at, tag, latency_ms));
    }
    out.slot_steals = sampler.finish();
    out.span_s = t0.elapsed().as_secs_f64();
    Ok(out)
}

/// `p50_ms` (and the recorded p99): a closed-loop phase of `seconds`
/// against `daemon` (see [`closed_loop`]), every reply checked,
/// summarized over its quiet slots (see [`summarize`]). When even the
/// kept slots were stolen from, the phase is measured once more and the
/// quieter attempt kept.
pub fn latency(
    daemon: &Daemon,
    traffic: &Features,
    rng: &mut Rng,
    seconds: f64,
    report: &mut Report,
) -> Result<(Outcome, Summary), String> {
    let ((outcome, summary), steals) = steady(|| {
        let outcome = closed_loop(daemon, traffic, rng, seconds)?;
        traffic.check(&outcome.replies)?;
        let summary = summarize(&outcome);
        let quiet = summary.kept_steal;
        Ok(((outcome, summary), quiet))
    })?;
    report.info_num("latency_s", seconds);
    report.info_num("latency_samples", outcome.replies.len() as f64);
    report.info("latency_kept_steal_shares", format!("{steals:?}"));
    summary.record(report);
    Ok((outcome, summary))
}

/// Record the generator's lag over a nominal phase; a median send later
/// than [`lag_limit_ms`] makes the run invalid.
pub fn lag_gate(outcome: &Outcome, plan: &Plan, report: &mut Report) -> Result<(), String> {
    let mut lag = outcome.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    let lag_p50 = median(&lag);
    report.info_num("gen_lag_p50_ms", lag_p50);
    report.info_num("gen_lag_p99_ms", tail_percentile(&lag, 0.99).value);
    let lag_limit = lag_limit_ms(plan);
    if lag_p50 > lag_limit {
        return Err(format!(
            "gate: invalid run, the generator's median send was {lag_p50:.2} ms late (limit {lag_limit} ms)"
        ));
    }
    Ok(())
}

/// Latency of a phase, over the time the hypervisor left the machine
/// alone. The phase is cut by send time into slots of `SLOT_S`, and the
/// steal share of each slot is sampled (`Outcome::slot_steals`). The
/// slots in which nothing was stolen are kept; when they hold fewer than
/// half of the replies, the next quietest slots (ties by send time) are
/// added until half are kept. `p50_ms` and `p99_ms` are percentiles of
/// the kept replies, pooled; p99 is the highest percentile with ten
/// samples beyond it, p99 itself from 1000 samples up. A slot the host's
/// other guests took time from measured them, not this program, and a
/// stall only ever adds latency; a regression of the program shows in
/// every slot, kept or not.
pub struct Summary {
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// The tail percentile actually reported, with its samples.
    pub tail: Percentile,
    pub slots: usize,
    pub kept_slots: usize,
    /// Largest and mean steal share of the kept slots.
    pub kept_steal: f64,
    pub kept_mean_steal: f64,
    /// Over every reply, kept or not (for the record).
    pub all_p50_ms: f64,
    pub all_p99_ms: f64,
}

/// Seconds of send time per steal-sampled slot: ten `/proc/stat` ticks
/// per core, so a slot with any stolen tick shows it.
const SLOT_S: f64 = 0.1;

pub fn summarize(outcome: &Outcome) -> Summary {
    let mut slots: Vec<Vec<f64>> = Vec::new();
    for r in &outcome.replies {
        let k = (r.at / SLOT_S).max(0.0) as usize;
        if slots.len() <= k {
            slots.resize(k + 1, Vec::new());
        }
        slots[k].push(r.latency_ms);
    }
    let steal = |k: usize| outcome.slot_steals.get(k).copied().unwrap_or(1.0);
    let mut order: Vec<usize> = (0..slots.len()).filter(|&k| !slots[k].is_empty()).collect();
    order.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)).then(a.cmp(&b)));
    let total = outcome.replies.len();
    let mut kept: Vec<f64> = Vec::with_capacity(total);
    let mut kept_steals = Vec::new();
    for &k in &order {
        if steal(k) > 0.0 && 2 * kept.len() >= total {
            break;
        }
        kept.extend(&slots[k]);
        kept_steals.push(steal(k));
    }
    kept.sort_by(f64::total_cmp);
    let all = outcome.sorted_latencies();
    let tail = tail_percentile(&kept, 0.99);
    Summary {
        p50_ms: median(&kept),
        p99_ms: tail.value,
        tail,
        slots: order.len(),
        kept_slots: kept_steals.len(),
        kept_steal: kept_steals.iter().copied().fold(0.0, f64::max),
        kept_mean_steal: crate::util::mean(&kept_steals),
        all_p50_ms: median(&all),
        all_p99_ms: tail_percentile(&all, 0.99).value,
    }
}

impl Summary {
    pub fn record(&self, report: &mut Report) {
        report.info_num("latency_p50_ms", self.p50_ms);
        report.info_num("latency_p99_ms", self.p99_ms);
        report.info_num("latency_slots", self.slots as f64);
        report.info_num("latency_slots_kept", self.kept_slots as f64);
        report.info_num("latency_kept_max_steal", self.kept_steal);
        report.info_num("latency_kept_mean_steal", self.kept_mean_steal);
        report.info_num("p99_quantile", self.tail.q);
        report.info_num("p99_samples", self.tail.samples as f64);
        report.info_num("p99_samples_beyond", self.tail.beyond as f64);
        report.info_num("all_replies_p50_ms", self.all_p50_ms);
        report.info_num("all_replies_p99_ms", self.all_p99_ms);
    }
}

/// Counter and histogram deltas of the daemon's `stats` over one phase.
pub struct StatsDelta {
    pub requests: f64,
    pub scored_apps: f64,
    pub batches: f64,
    pub wakeups: f64,
    pub busy: f64,
    /// Incremental-store lookups (hits + misses): extraction ran.
    pub incr_lookups: f64,
    /// Merged latency-bucket deltas of the scoring endpoints: (upper
    /// bound µs, count).
    pub buckets: Vec<(f64, f64)>,
}

fn buckets(stats: &Json, endpoint: &str) -> Vec<(f64, f64)> {
    let Json::Object(o) = stats else {
        return Vec::new();
    };
    let Some(Json::Object(eps)) = o.get("endpoints") else {
        return Vec::new();
    };
    let Some(Json::Object(ep)) = eps.get(endpoint) else {
        return Vec::new();
    };
    let Some(Json::Array(list)) = ep.get("latency_buckets") else {
        return Vec::new();
    };
    list.iter()
        .map(|b| (json_num(b, "us_lt"), json_num(b, "count")))
        .collect()
}

impl StatsDelta {
    pub fn between(before: &Json, after: &Json) -> StatsDelta {
        let d = |path: &str| json_num(after, path) - json_num(before, path);
        let endpoints = ["score", "explain", "compare"];
        let mut merged: std::collections::BTreeMap<u64, f64> = Default::default();
        for ep in endpoints {
            for (ub, c) in buckets(after, ep) {
                *merged.entry(ub as u64).or_default() += c;
            }
            for (ub, c) in buckets(before, ep) {
                *merged.entry(ub as u64).or_default() -= c;
            }
        }
        StatsDelta {
            requests: endpoints
                .iter()
                .map(|ep| d(&format!("endpoints.{ep}.requests")))
                .sum(),
            scored_apps: d("scored_apps"),
            batches: d("batches"),
            wakeups: d("reactor_wakeups"),
            busy: d("rejected_busy"),
            incr_lookups: d("incr_hits") + d("incr_misses"),
            buckets: merged.into_iter().map(|(ub, c)| (ub as f64, c)).collect(),
        }
    }

    /// Server-side latency quantile, ms, interpolated linearly inside
    /// its power-of-two bucket `[ub/2, ub)`.
    pub fn server_quantile_ms(&self, q: f64) -> f64 {
        let total: f64 = self.buckets.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (total * q).ceil().max(1.0);
        let mut seen = 0.0;
        for (ub, c) in &self.buckets {
            if seen + c >= rank && *c > 0.0 {
                let lo = ub / 2.0;
                return (lo + (ub - lo) * (rank - seen) / c) / 1e3;
            }
            seen += c;
        }
        self.buckets.last().map_or(0.0, |b| b.0 / 1e3)
    }
}

/// Time `SETUPS` daemon starts into `setups`; keep the last daemon
/// running when `keep`, shut every one down otherwise.
pub fn start_daemons(
    served: &Served,
    setups: &mut Vec<f64>,
    keep: bool,
) -> Result<Option<Daemon>, String> {
    for i in 0..SETUPS {
        let daemon = Daemon::spawn(&served.path)?;
        setups.push(daemon.setup_s);
        if keep && i + 1 == SETUPS {
            return Ok(Some(daemon));
        }
        daemon.shutdown()?;
    }
    Ok(None)
}

/// Start the daemon that serves the run, timing `SETUPS` starts.
pub fn start_daemon(served: &Served, setups: &mut Vec<f64>) -> Result<Daemon, String> {
    Ok(start_daemons(served, setups, true)?.expect("the last start is kept"))
}

/// Retrain the battery, write CLVY and hot-reload the daemon with it,
/// `REDEPLOYS` times, appending (training seconds, whole-cycle seconds)
/// per cycle to `cycles` and the group's steal shares to `steals`. The
/// group is measured once more when the hypervisor stole time during it
/// (see [`steady`]). Training is deterministic, so each cycle's bytes
/// must equal `served`'s (the traffic's references stay valid); each
/// reload must answer with the new file's fingerprint.
fn redeploy(
    daemon: &Daemon,
    battery: &Battery,
    served: &Served,
    dir: &Path,
    cycles: &mut Vec<(f64, f64)>,
    steals: &mut Vec<f64>,
) -> Result<(), String> {
    let mut client = daemon.client()?;
    let (group, group_steals) = steady(|| {
        let before = cpu_ticks();
        let group = (0..REDEPLOYS)
            .map(|k| {
                let t = Instant::now();
                let (bytes, trained) = battery.train();
                let fingerprint = format!("{:016x}", pipeline::fnv::hash_bytes(&bytes));
                if fingerprint != served.fingerprint {
                    return Err("gate: retraining the battery gave different bytes".into());
                }
                let path = dir.join(format!("redeploy-{}.clvy", cycles.len() + k));
                std::fs::write(&path, &bytes).map_err(|e| format!("cannot write model: {e}"))?;
                let response = client.reload(Some(&path.to_string_lossy()))?;
                let took = t.elapsed().as_secs_f64();
                if json_str(&response, "model") != Some(fingerprint.as_str()) {
                    return Err(format!(
                        "gate: reload did not serve the new model: {response}"
                    ));
                }
                Ok((trained, took))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok((group, steal_share(before, cpu_ticks())))
    })?;
    cycles.extend(group);
    steals.extend(group_steals);
    Ok(())
}

fn json_str<'a>(value: &'a Json, key: &str) -> Option<&'a str> {
    match value {
        Json::Object(o) => match o.get(key) {
            Some(Json::String(s)) => Some(s),
            _ => None,
        },
        _ => None,
    }
}

/// Everything one serve run measured, for the trace to build on.
pub struct ServeRun {
    pub traffic: Features,
    pub served: Served,
    pub nominal: Outcome,
    pub delta: StatsDelta,
}

/// Open the load connections to `daemon`.
pub fn connect(daemon: &Daemon) -> Result<Vec<Conn>, String> {
    (0..load_conns())
        .map(|_| Conn::connect(daemon.addr))
        .collect()
}

/// Run the serve workload. With `trace`, no metric is reported: the
/// traced replay follows, on the inputs of the nominal phase.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
    report: &mut Report,
) -> Result<ServeRun, String> {
    let plan = crate::calib::serve_plan();
    report.info_str("rationale", &plan.rationale);
    report.info_num("nominal_rps", plan.nominal_rps);

    let battery = Battery::new();
    let (bytes, _) = battery.train();
    let served = write_served(&work.join("served.clvy"), &bytes)?;
    let mut rng = Rng::new(seed);
    let mut traffic = Features::new(seed, 0xfea7, FEATURE_APPS);
    traffic.retarget(&served);
    let mut setups = Vec::new();
    let daemon = start_daemon(&served, &mut setups)?;
    // Peak RSS over a fixed amount of work: set-up and every distinct
    // request once, one at a time. Open-loop traffic leaves a backlog
    // that depends on the machine's hiccups, and the daemon's buffers
    // with it.
    let mut client = daemon.client()?;
    traffic.check(&traffic.sequential(&mut client)?)?;
    drop(client);
    let peak_rss = crate::util::peak_rss_mb(Some(daemon.pid()));
    let mut conns = connect(&daemon)?;

    // Warm-up, closed-loop latency, then the nominal phase.
    let warmup = phase(
        &mut conns,
        &traffic,
        &mut rng,
        plan.nominal_rps,
        WARMUP_S,
        60.0,
    );
    if warmup.unanswered > 0 || !warmup.io_errors.is_empty() {
        return Err(format!("warm-up lost replies: {:?}", warmup.io_errors));
    }
    traffic.check(&warmup.replies)?;
    let (mut cycles, mut redeploy_steals) = (Vec::new(), Vec::new());
    redeploy(
        &daemon,
        &battery,
        &served,
        work,
        &mut cycles,
        &mut redeploy_steals,
    )?;
    let (closed, summary) = latency(&daemon, &traffic, &mut rng, seconds * LATENCY_SHARE, report)?;
    redeploy(
        &daemon,
        &battery,
        &served,
        work,
        &mut cycles,
        &mut redeploy_steals,
    )?;
    // The nominal phase: open-loop traffic at the fixed offered rate, for
    // the daemon's CPU per reply and its own counters.
    let nominal_s = seconds * (1.0 - LATENCY_SHARE);
    let before = daemon.stats()?;
    let cpu0 = cpu_seconds(Some(daemon.pid()));
    let nominal = phase(
        &mut conns,
        &traffic,
        &mut rng,
        plan.nominal_rps,
        nominal_s,
        60.0,
    );
    let daemon_cpu_s = cpu_seconds(Some(daemon.pid())) - cpu0;
    let delta = StatsDelta::between(&before, &daemon.stats()?);
    let checked = traffic.check(&nominal.replies)?;
    let open = summarize(&nominal);
    report.attempted = closed.sent() + nominal.sent();
    report.failed = closed.failures() + nominal.failures() + nominal.io_errors.len();
    report.info_num("offered_rps", plan.nominal_rps);
    report.info_num("nominal_s", nominal_s);
    report.info_num("nominal_samples", nominal.replies.len() as f64);
    report.info_num("nominal_open_loop_p50_ms", open.p50_ms);
    report.info_num("nominal_open_loop_p99_ms", open.p99_ms);
    report.info_num("replies_checked", checked as f64);
    report.info_num("daemon_cpu_s", daemon_cpu_s);
    report.info_num(
        "peak_rss_after_nominal_mb",
        crate::util::peak_rss_mb(Some(daemon.pid())),
    );
    lag_gate(&nominal, &plan, report)?;
    start_daemons(&served, &mut setups, false)?;

    drop(conns);
    redeploy(
        &daemon,
        &battery,
        &served,
        work,
        &mut cycles,
        &mut redeploy_steals,
    )?;
    daemon.shutdown()?;
    start_daemons(&served, &mut setups, false)?;
    report.info("setup_samples_s", format!("{setups:?}"));
    report.info("redeploy_steal_shares", format!("{redeploy_steals:?}"));
    let trainings: Vec<f64> = cycles.iter().map(|c| c.0).collect();
    let redeploys: Vec<f64> = cycles.iter().map(|c| c.1).collect();

    if !trace {
        let ok = nominal.replies.iter().filter(|r| r.ok).count();
        report.metric("setup_s", median(&setups), "s");
        report.metric("p50_ms", summary.p50_ms, "ms");
        report.metric("peak_rss_mb", peak_rss, "MB");
        // Replies per CPU-second the daemon spent on them: the offered
        // rate is fixed, so replies per wall second would only echo it.
        report.metric("apps_per_s", ok as f64 / daemon_cpu_s.max(1e-9), "apps/s");
        report.metric("redeploy_s", median(&redeploys), "s");
        report.metric("retrain_s", median(&trainings), "s");
    }
    report.info("retrain_samples_s", format!("{trainings:?}"));
    report.info("redeploy_samples_s", format!("{redeploys:?}"));
    Ok(ServeRun {
        traffic,
        served,
        nominal,
        delta,
    })
}

/// `perfbench calibrate`: sweep a geometric ladder of open-loop rates
/// and print each rate's latency, backlog, generator lag and batch size,
/// so the nominal rate in `calibration.json` rests on this machine's
/// measured capacity.
pub fn calibrate(args: &[String]) -> Result<(), String> {
    let get = |name: &str, default: &str| -> Result<f64, String> {
        crate::flag(args, name)
            .unwrap_or(default)
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seed = get("--seed", "1")? as u64;
    let (from, ratio, rungs, probe_s) = (
        get("--from", "500")?,
        get("--ratio", "1.25")?,
        get("--rungs", "12")? as usize,
        get("--probe", "4")?,
    );
    let work = crate::WorkDir::new("calibrate")?;
    let served = write_served(&work.0.join("served.clvy"), &Battery::new().train().0)?;
    let mut rng = Rng::new(seed);
    let mut traffic = Features::new(seed, 0xfea7, FEATURE_APPS);
    traffic.retarget(&served);
    let daemon = start_daemon(&served, &mut Vec::new())?;
    let mut conns = connect(&daemon)?;
    for k in 0..rungs {
        let rate = (from * ratio.powi(k as i32) * 10.0).round() / 10.0;
        let before = daemon.stats()?;
        let outcome = phase(&mut conns, &traffic, &mut rng, rate, probe_s, 60.0);
        traffic.check(&outcome.replies)?;
        let delta = StatsDelta::between(&before, &daemon.stats()?);
        let summary = summarize(&outcome);
        let mut lag = outcome.lag_ms.clone();
        lag.sort_by(f64::total_cmp);
        println!(
            "{{\"rate_rps\":{rate},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"samples\":{},\"failures\":{},\"backlog\":{},\"lag_p50_ms\":{:.3},\"lag_p99_ms\":{:.3},\"batch_rows_mean\":{:.2}}}",
            summary.p50_ms,
            summary.p99_ms,
            outcome.replies.len(),
            outcome.failures(),
            outcome.backlog_at_end,
            median(&lag),
            tail_percentile(&lag, 0.99).value,
            delta.scored_apps / delta.batches.max(1.0),
        );
        if outcome.failures() > 0 || summary.p99_ms > 2000.0 {
            break;
        }
    }
    drop(conns);
    daemon.shutdown()
}
