//! The served model and the offline reference renderings every served
//! reply is checked against.

use clairvoyant::prelude::*;
use clairvoyant::report::{comparison_value, explanation_value, write_security_report, Json};
use clairvoyant::{Comparison, Explanation};
use serve::protocol::ok_response;
use static_analysis::FeatureVector;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed of the training corpus. The model is part of the system under
/// test, not of the workload, so it is the same for every workload seed.
const TRAIN_SEED: u64 = 20170408;
const TRAIN_APPS: usize = 40;

/// A trained battery as the daemon serves it: its CLVY file, the decoded
/// and linked model for offline references, and its wire fingerprint.
pub struct Served {
    pub path: PathBuf,
    pub compiled: CompiledModel,
    pub fingerprint: String,
}

/// The served battery's trainer and its fixed training corpus.
pub struct Battery {
    corpus: Corpus,
    trainer: Trainer,
}

impl Battery {
    pub fn new() -> Battery {
        Battery {
            corpus: Corpus::generate(&CorpusConfig::small(TRAIN_APPS, TRAIN_SEED)),
            trainer: Trainer::with_config(TrainerConfig {
                learner: Learner::RandomForest,
                ..Default::default()
            }),
        }
    }

    /// Train and compile: the CLVY bytes and the wall time it took.
    pub fn train(&self) -> (Vec<u8>, f64) {
        let t0 = Instant::now();
        let model = self.trainer.train(&self.corpus).compile();
        let took = t0.elapsed().as_secs_f64();
        (model.to_bytes(), took)
    }
}

/// Write CLVY bytes to `path` and load them as the daemon would.
pub fn write_served(path: &Path, bytes: &[u8]) -> Result<Served, String> {
    std::fs::write(path, bytes).map_err(|e| format!("cannot write model: {e}"))?;
    load_served(path)
}

/// Decode and link a CLVY file the way the daemon does.
pub fn load_served(path: &Path) -> Result<Served, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read model: {e}"))?;
    let compiled = CompiledModel::from_bytes(&bytes)?;
    compiled.optimize();
    Ok(Served {
        path: path.to_path_buf(),
        compiled,
        fingerprint: format!("{:016x}", pipeline::fnv::hash_bytes(&bytes)),
    })
}

impl Served {
    /// The daemon's `score` reply for one app, byte for byte.
    pub fn score_reply(&self, name: &str, fv: &FeatureVector) -> String {
        let report = self
            .compiled
            .evaluate_batch(&[(name.to_string(), fv.clone())], 1)
            .pop()
            .expect("one app in, one report out");
        let mut text = format!(
            "{{\"model\":\"{}\",\"ok\":true,\"op\":\"score\",\"report\":",
            self.fingerprint
        );
        write_security_report(&report, &mut text).expect("writing into a String cannot fail");
        text.push('}');
        text
    }

    pub fn explain(&self, name: &str, fv: &FeatureVector) -> Explanation {
        self.compiled
            .explain_batch(&[(name.to_string(), fv.clone())], 1)
            .pop()
            .expect("one app in, one explanation out")
    }

    /// The daemon's `explain` reply for a feature-vector submission.
    pub fn explain_reply(&self, name: &str, fv: &FeatureVector) -> String {
        ok_response(
            "explain",
            vec![
                ("model", Json::String(self.fingerprint.clone())),
                ("explanation", explanation_value(&self.explain(name, fv))),
            ],
        )
        .to_string()
    }

    /// The daemon's `compare` reply for two submissions.
    pub fn compare_reply(&self, a: &Explanation, b: &Explanation) -> String {
        ok_response(
            "compare",
            vec![
                ("model", Json::String(self.fingerprint.clone())),
                (
                    "comparison",
                    comparison_value(&Comparison::from_explanations(a, b)),
                ),
            ],
        )
        .to_string()
    }
}

/// Request frames, built exactly as a client would send them.
pub mod request {
    use clairvoyant::report::Json;
    use serve::protocol::frame_into;
    use static_analysis::FeatureVector;

    fn features(fv: &FeatureVector) -> Json {
        Json::Object(
            fv.iter()
                .map(|(k, v)| (k.to_string(), Json::Number(v)))
                .collect(),
        )
    }

    pub fn frame(out: &mut Vec<u8>, value: &Json) {
        frame_into(out, value);
    }

    pub fn compare_features(a: &str, fa: &FeatureVector, b: &str, fb: &FeatureVector) -> Json {
        let side = |name: &str, fv: &FeatureVector| {
            Json::object(vec![
                ("name", Json::String(name.to_string())),
                ("features", features(fv)),
            ])
        };
        Json::object(vec![
            ("op", Json::String("compare".into())),
            ("a", side(a, fa)),
            ("b", side(b, fb)),
        ])
    }

    pub fn features_op(op: &str, name: &str, fv: &FeatureVector) -> Json {
        Json::object(vec![
            ("op", Json::String(op.to_string())),
            ("name", Json::String(name.to_string())),
            ("features", features(fv)),
        ])
    }
}
