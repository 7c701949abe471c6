//! The serve request stream — a seeded mix of `score`, `explain` and
//! `compare` on pre-extracted feature vectors — and the offline reference
//! each served reply must equal byte for byte.

use crate::inputs::{population, Rng};
use crate::load::Reply;
use crate::model::{request, Served};
use clairvoyant::Testbed;
use static_analysis::FeatureVector;
use std::sync::Arc;

fn hash(text: &str) -> u64 {
    pipeline::fnv::hash_bytes(text.as_bytes())
}

fn framed(value: &clairvoyant::report::Json) -> Arc<[u8]> {
    let mut out = Vec::new();
    request::frame(&mut out, value);
    out.into()
}

/// Operations of the feature mix, by index.
pub const SCORE: usize = 0;
pub const EXPLAIN: usize = 1;
/// `compare` of app `i` (side `a`) against app `i + 1` (side `b`).
pub const COMPARE: usize = 2;
const OPS: usize = 3;

/// The request mix, the same for every workload. The paper's use of the
/// metric (§5.3) is one workflow: score a codebase, explain the score,
/// compare a change against it (the CI gate). It gives no frequencies, so
/// each step is an equal share — an assumption, not a measured mix.
pub const MIX: [f64; OPS] = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0];

/// Pre-extracted feature vectors, requested in the [`MIX`].
pub struct Features {
    pub apps: Vec<(String, FeatureVector)>,
    requests: Vec<[Arc<[u8]>; OPS]>,
    expected: Vec<[u64; OPS]>,
}

impl Features {
    /// `apps` seeded apps, extracted up front; replies are expected from
    /// the model set with [`Features::retarget`].
    pub fn new(seed: u64, salt: u64, apps: usize) -> Features {
        let stream = population(seed, salt, apps);
        let indices: Vec<usize> = (0..apps).collect();
        let apps: Vec<(String, FeatureVector)> =
            pipeline::parallel_map(crate::util::cores(), &indices, |_, &i| {
                let (app, _) = stream.materialize(i, 0);
                (app.spec.name, Testbed::new().extract(&app.program))
            });
        let requests = (0..apps.len())
            .map(|i| {
                let (name, fv) = &apps[i];
                let (other, other_fv) = &apps[(i + 1) % apps.len()];
                [
                    framed(&request::features_op("score", name, fv)),
                    framed(&request::features_op("explain", name, fv)),
                    framed(&request::compare_features(name, fv, other, other_fv)),
                ]
            })
            .collect();
        Features {
            apps,
            requests,
            expected: Vec::new(),
        }
    }

    /// Expect the replies of `served`.
    pub fn retarget(&mut self, served: &Served) {
        let explanations: Vec<_> = self
            .apps
            .iter()
            .map(|(name, fv)| served.explain(name, fv))
            .collect();
        self.expected = (0..self.apps.len())
            .map(|i| {
                let (name, fv) = &self.apps[i];
                let next = (i + 1) % self.apps.len();
                [
                    hash(&served.score_reply(name, fv)),
                    hash(&served.explain_reply(name, fv)),
                    hash(&served.compare_reply(&explanations[i], &explanations[next])),
                ]
            })
            .collect();
    }

    /// Expected reply hashes per app, by operation.
    pub fn expected(&self) -> &[[u64; OPS]] {
        &self.expected
    }

    /// The app and operation behind a tag.
    pub fn decode(tag: usize) -> (usize, usize) {
        (tag / OPS, tag % OPS)
    }

    /// `(framed bytes, tag)` of the next request: a seeded app and an
    /// operation drawn from the [`MIX`].
    pub fn make(&self, rng: &mut Rng) -> (Arc<[u8]>, usize) {
        let i = rng.below(self.apps.len());
        let mut roll = rng.unit();
        let mut op = SCORE;
        while op + 1 < OPS && roll >= MIX[op] {
            roll -= MIX[op];
            op += 1;
        }
        (self.requests[i][op].clone(), i * OPS + op)
    }

    /// Every distinct request once, one at a time, in tag order: a fixed
    /// amount of work that leaves nothing queued in the daemon.
    pub fn sequential(&self, client: &mut serve::Client) -> Result<Vec<Reply>, String> {
        let mut replies = Vec::with_capacity(self.requests.len() * OPS);
        for (i, ops) in self.requests.iter().enumerate() {
            for (op, bytes) in ops.iter().enumerate() {
                client.send_framed(bytes)?;
                let payload = client.recv_payload()?;
                replies.push(crate::load::reply_of(payload, 0.0, i * OPS + op, 0.0));
            }
        }
        Ok(replies)
    }

    /// Check every ok reply against its offline reference; returns the
    /// number checked.
    pub fn check(&self, replies: &[Reply]) -> Result<usize, String> {
        for r in replies.iter().filter(|r| r.ok) {
            let (i, op) = Self::decode(r.tag);
            if r.hash != self.expected[i][op] {
                return Err(format!(
                    "gate: reply for tag {} differs from the offline reference",
                    r.tag
                ));
            }
        }
        Ok(replies.iter().filter(|r| r.ok).count())
    }
}
