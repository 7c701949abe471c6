//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1
//! perfbench calibrate [--seed N] [--from R] [--ratio X] [--rungs K] [--probe S]
//! perfbench smoke
//! ```
//!
//! Workloads: `serve_features` (a daemon child answering the request
//! mix) and `batch_replay` (the longitudinal replay, redeploying a
//! daemon). The last line of standard output is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics, or with `--trace 1` the per-layer metrics of
//! the traced replay. The line before it records how they were measured.

mod calib;
mod daemon;
mod inputs;
mod load;
mod model;
mod replay_wl;
mod report;
mod serve_wl;
mod trace;
mod traffic;
mod util;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 2] = ["serve_features", "batch_replay"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let workload = flag(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}`; one of {WORKLOADS:?}"
        ));
    }
    let number = |name: &str, default: Option<&str>| -> Result<f64, String> {
        flag(args, name)
            .or(default)
            .ok_or(format!("{name} is required"))?
            .parse::<f64>()
            .map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed", Some("1"))? as u64,
        seconds,
        trace: number("--trace", Some("0"))? != 0.0,
    })
}

/// One run's working directory, inside the current directory, removed
/// on drop.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Run one workload and print the record line and the result line;
/// returns whether every correctness gate passed.
fn bench(args: &Args) -> Result<bool, String> {
    let work = WorkDir::new(&args.workload)?;
    let mut report = Report::default();
    report.info_str("workload", &args.workload);
    report.info_num("seed", args.seed as f64);
    report.info_num("seconds", args.seconds);
    report.info_num("trace", f64::from(u8::from(args.trace)));
    report.info_num("cores", util::cores() as f64);
    report.info_str("rev", &util::git_rev());
    report.info_str(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.info_num("load_connections", serve_wl::load_conns() as f64);
    let outcome = if args.workload == "batch_replay" {
        replay_wl::run(args.seed, args.seconds, args.trace, &work.0, &mut report)
    } else {
        serve_wl::run(args.seed, args.seconds, args.trace, &work.0, &mut report).and_then(|run| {
            if args.trace {
                trace::serve(run, &mut report)
            } else {
                Ok(())
            }
        })
    };
    // A failed correctness gate is a result (`correct: false`); any other
    // error means nothing was measured.
    let correct = match outcome {
        Ok(()) => report.failed == 0 && report.attempted > 0,
        Err(message) if message.starts_with("gate: ") => {
            eprintln!("perfbench: {message}");
            report.info_str("gate_failure", &message);
            false
        }
        Err(message) => return Err(message),
    };
    println!("PERFBENCH_RECORD {}", report.record_json());
    println!("{}", report.result_json(correct));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => daemon::daemon_main(&args[1..]),
        Some("calibrate") => serve_wl::calibrate(&args[1..]),
        Some("smoke") => smoke(),
        _ => parse_args(&args).and_then(|a| bench(&a)).map(|_| ()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload at tiny scale, untraced and traced, all gates on.
fn smoke() -> Result<(), String> {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: 2.0,
                trace,
            };
            eprintln!("smoke: {workload} trace={trace}");
            if !bench(&args)? {
                return Err(format!("smoke: {workload} (trace={trace}) failed a gate"));
            }
        }
    }
    Ok(())
}
