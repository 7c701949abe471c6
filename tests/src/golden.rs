//! The golden-vector gate for the analysis engine.
//!
//! `tests/fixtures/legacy_vectors.tsv` holds the feature vectors the
//! retired string-keyed extraction path produced, recorded as data before
//! that path was deleted. This module regenerates the programs those rows
//! were recorded on and compares an extracted vector with its row bit for
//! bit. Each row carries a digest of its program's generated sources, so a
//! change to the corpus generator surfaces as "fixture stale: inputs
//! changed" rather than as a misleading feature diff.

use corpus::{AppSpec, Corpus, CorpusConfig, Domain};
use cvedb::Cwe;
use minilang::ast::Program;
use minilang::Dialect;
use pipeline::fnv::Fnv1a;
use static_analysis::FeatureVector;
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("../fixtures/legacy_vectors.tsv");

/// One program a golden row was recorded on.
pub struct GoldenInput {
    /// Fixture set: `property` or `bench_small_<n>`.
    pub set: String,
    /// Position within the set.
    pub index: usize,
    pub name: String,
    /// `(path, source)` files the program was parsed from.
    pub files: Vec<(String, String)>,
    pub program: Program,
}

fn property_spec(i: u64, dialect: Dialect, domain: Domain) -> AppSpec {
    AppSpec {
        name: format!("prop-app-{i}"),
        dialect,
        domain,
        // Small programs keep ~50 cases tractable in debug builds; the
        // synthesizer still emits branches, loops, buffers and endpoints
        // at this size.
        target_kloc: 0.25 + (i % 5) as f64 * 0.1,
        maturity: (i % 7) as f64 / 6.0,
        review: (i % 3) as f64 / 2.0,
        expertise: (i % 4) as f64 / 3.0,
        first_release_year: 1998 + (i % 20) as i32,
        seed: 0x5eed_0000 + i * 7919,
    }
}

fn property_cwe_seeds(i: u64) -> Vec<(Cwe, bool)> {
    match i % 4 {
        0 => vec![],
        1 => vec![(Cwe::StackBufferOverflow, true)],
        2 => vec![(Cwe::FormatString, false), (Cwe::PathTraversal, true)],
        _ => vec![
            (Cwe::CommandInjection, true),
            (Cwe::HardcodedCredentials, false),
        ],
    }
}

/// The 48 property programs: every dialect crossed with every domain,
/// with varied sizes, seeds and CWE seeding.
pub fn property_programs() -> Vec<GoldenInput> {
    let dialects = [Dialect::C, Dialect::Cpp, Dialect::Python, Dialect::Java];
    let domains = [
        Domain::Server,
        Domain::Library,
        Domain::CliTool,
        Domain::Desktop,
    ];
    (0..48u64)
        .map(|i| {
            let spec = property_spec(
                i,
                dialects[(i % 4) as usize],
                domains[((i / 4) % 4) as usize],
            );
            let out = corpus::synth::synthesize(&spec, &property_cwe_seeds(i));
            GoldenInput {
                set: "property".into(),
                index: i as usize,
                name: spec.name,
                files: out.files,
                program: out.program,
            }
        })
        .collect()
}

/// The `analysis_throughput` bench corpus `CorpusConfig::small(n, 4242)`.
pub fn bench_corpus(n: usize) -> Vec<GoldenInput> {
    Corpus::generate(&CorpusConfig::small(n, 4242))
        .apps
        .into_iter()
        .enumerate()
        .map(|(index, app)| GoldenInput {
            set: format!("bench_small_{n}"),
            index,
            name: app.spec.name,
            files: app.files,
            program: app.program,
        })
        .collect()
}

/// FNV-1a over every file's path and text, each length-prefixed.
pub fn source_digest(files: &[(String, String)]) -> u64 {
    let mut h = Fnv1a::new();
    for (path, source) in files {
        h.write_str(path);
        h.write_str(source);
    }
    h.finish()
}

struct Row {
    name: String,
    digest: u64,
    values: Vec<String>,
}

/// The parsed fixture.
pub struct Golden {
    names: Vec<String>,
    rows: BTreeMap<(String, usize), Row>,
}

impl Golden {
    /// Parse the committed fixture; panics if it is malformed.
    pub fn load() -> Golden {
        let mut names = Vec::new();
        let mut rows = BTreeMap::new();
        for line in FIXTURE.lines().filter(|l| !l.starts_with('#')) {
            let mut cells = line.split('\t');
            let head = cells.next().expect("non-empty line");
            if head == "names" {
                names = cells.map(str::to_string).collect();
                continue;
            }
            let index = cells.next().and_then(|c| c.parse().ok());
            let name = cells.next().map(str::to_string);
            let digest = cells.next().and_then(|c| u64::from_str_radix(c, 16).ok());
            let (Some(index), Some(name), Some(digest)) = (index, name, digest) else {
                panic!("malformed fixture row: {line}");
            };
            let values: Vec<String> = cells.map(str::to_string).collect();
            assert_eq!(
                values.len(),
                names.len(),
                "short fixture row: {head} {index}"
            );
            rows.insert(
                (head.to_string(), index),
                Row {
                    name,
                    digest,
                    values,
                },
            );
        }
        assert!(!names.is_empty(), "fixture has no `names` line");
        Golden { names, rows }
    }

    /// Number of rows across every set.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Check that `inputs` (one whole set) regenerates exactly the
    /// programs the fixture's rows were recorded on, before any vector is
    /// compared.
    pub fn check_inputs(&self, inputs: &[GoldenInput]) -> Result<(), String> {
        let set = inputs.first().map_or("", |i| i.set.as_str());
        let recorded = self.rows.keys().filter(|(s, _)| s == set).count();
        if recorded != inputs.len() {
            return Err(format!(
                "fixture stale: inputs changed: set {set} now has {} programs, the fixture {recorded}",
                inputs.len()
            ));
        }
        for input in inputs {
            let row = self.row(input)?;
            let digest = source_digest(&input.files);
            if row.name != input.name || row.digest != digest {
                return Err(format!(
                    "fixture stale: inputs changed: {} #{} is {} with sources {digest:016x}, \
                     recorded as {} with sources {:016x}",
                    input.set, input.index, input.name, row.name, row.digest
                ));
            }
        }
        Ok(())
    }

    /// Compare one extracted vector with its recorded row: same feature
    /// names in the same order, and every value with the same `{:?}` text
    /// (the shortest form that round-trips, so equal text means equal
    /// bits).
    pub fn check(&self, input: &GoldenInput, fv: &FeatureVector) -> Result<(), String> {
        let row = self.row(input)?;
        if fv.names() != self.names {
            return Err(format!(
                "{} #{} {}: feature names differ from the fixture's",
                input.set, input.index, input.name
            ));
        }
        let diffs: Vec<String> = fv
            .iter()
            .zip(&row.values)
            .filter(|((_, v), recorded)| format!("{v:?}") != **recorded)
            .map(|((name, v), recorded)| format!("{name}: {v:?}, recorded {recorded}"))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} #{} {} diverged from the fixture: {}",
                input.set,
                input.index,
                input.name,
                diffs.join("; ")
            ))
        }
    }

    fn row(&self, input: &GoldenInput) -> Result<&Row, String> {
        self.rows
            .get(&(input.set.clone(), input.index))
            .ok_or_else(|| {
                format!(
                    "fixture stale: inputs changed: no row for {} #{}",
                    input.set, input.index
                )
            })
    }
}
