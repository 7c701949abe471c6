//! Golden gate for the analysis engine: `Testbed::extract`, with context
//! construction at 1 and at 4 per-function workers, must reproduce the
//! feature vectors the retired string-keyed extraction path recorded in
//! `tests/fixtures/legacy_vectors.tsv`, bit for bit — on the 48 property
//! programs (every dialect and domain, varied seeds and CWE seeding) and on
//! both `analysis_throughput` bench corpora.

use clairvoyant::testbed::Testbed;
use integration_tests::golden::{self, Golden};

#[test]
fn fused_engine_is_bit_identical_to_legacy_across_dialects_and_workers() {
    let golden = Golden::load();
    let sequential = Testbed::new();
    let parallel = Testbed::new().with_fn_jobs(4);
    let sets = [
        golden::property_programs(),
        golden::bench_corpus(4),
        golden::bench_corpus(12),
    ];
    let mut checked = 0;
    for inputs in &sets {
        if let Err(e) = golden.check_inputs(inputs) {
            panic!("{e}");
        }
        for input in inputs {
            for (workers, testbed) in [(1, &sequential), (4, &parallel)] {
                if let Err(e) = golden.check(input, &testbed.extract(&input.program)) {
                    panic!("{workers} worker(s): {e}");
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, golden.row_count(), "every fixture row is checked");
}

#[test]
fn changed_inputs_report_a_stale_fixture() {
    let golden = Golden::load();
    let mut inputs = golden::property_programs();
    inputs[3].files[0].1.push_str("\n// edited\n");
    let err = golden.check_inputs(&inputs).unwrap_err();
    assert!(err.starts_with("fixture stale: inputs changed"), "{err}");

    inputs.pop();
    let err = golden.check_inputs(&inputs).unwrap_err();
    assert!(err.starts_with("fixture stale: inputs changed"), "{err}");
}

#[test]
fn a_one_ulp_change_is_a_divergence() {
    let golden = Golden::load();
    let input = &golden::property_programs()[0];
    let mut fv = Testbed::new().extract(&input.program);
    let bumped = f64::from_bits(fv.get("halstead.volume").unwrap().to_bits() + 1);
    fv.set("halstead.volume", bumped);
    let err = golden.check(input, &fv).unwrap_err();
    assert!(err.contains("halstead.volume"), "{err}");
}
