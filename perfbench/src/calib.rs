//! Per-workload load and size, fixed once (the serve rate by `perfbench
//! calibrate`) on the reference machine and committed in
//! `calibration.json` with their rationale, so later changes are measured
//! against the same offered load.

use clairvoyant::report::Json;

const CALIBRATION: &str = include_str!("../calibration.json");

/// The serve workload's load plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Offered rate of the open-loop nominal phase, requests/s.
    pub nominal_rps: f64,
    pub rationale: String,
}

/// The batch workload's size.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Population per second of `--seconds`.
    pub apps_per_run_second: f64,
    pub epochs: usize,
    pub rationale: String,
}

fn table() -> Json {
    serve::json::parse(CALIBRATION).expect("calibration.json is valid JSON")
}

fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Object(o) => o
            .get(key)
            .unwrap_or_else(|| panic!("calibration.json lacks `{key}`")),
        _ => panic!("calibration.json: `{key}` is not inside an object"),
    }
}

fn number(value: &Json, key: &str) -> f64 {
    match field(value, key) {
        Json::Number(n) => *n,
        _ => panic!("calibration.json: `{key}` must be a number"),
    }
}

fn text(value: &Json, key: &str) -> String {
    match field(value, key) {
        Json::String(s) => s.clone(),
        _ => panic!("calibration.json: `{key}` must be a string"),
    }
}

pub fn serve_plan() -> Plan {
    let table = table();
    let entry = field(&table, "serve_features");
    Plan {
        nominal_rps: number(entry, "nominal_rps"),
        rationale: text(entry, "rationale"),
    }
}

pub fn batch_plan() -> BatchPlan {
    let table = table();
    let entry = field(&table, "batch_replay");
    BatchPlan {
        apps_per_run_second: number(entry, "apps_per_run_second"),
        epochs: number(entry, "epochs") as usize,
        rationale: text(entry, "rationale"),
    }
}
