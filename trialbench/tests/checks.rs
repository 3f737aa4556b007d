//! The output checks bite: a corrupted digest or snapshot blob makes the
//! run report failed trials.

use trialbench::runner::tiny;
use trialbench::workload::{Tamper, Workload};

fn failed_frac(workload: Workload, tamper: Tamper) -> f64 {
    let out = tiny(workload, 5, false, tamper);
    assert!(out.attempted > 0);
    assert!(out.result.contains(&format!("\"failed\": {}", out.failed)));
    out.failed as f64 / out.attempted as f64
}

#[test]
fn clean_runs_fail_nothing() {
    for workload in Workload::ALL {
        assert_eq!(failed_frac(workload, Tamper::None), 0.0, "{workload:?}");
    }
}

#[test]
fn a_corrupted_reference_digest_fails_trials() {
    for workload in Workload::ALL {
        assert!(
            failed_frac(workload, Tamper::Reference) > 0.0,
            "{workload:?}"
        );
    }
}

#[test]
fn a_corrupted_snapshot_blob_fails_trials() {
    let out = tiny(Workload::MetroDurable, 5, false, Tamper::SnapshotBlob);
    assert_eq!(
        out.failed, out.attempted,
        "every durable trial restores a damaged blob"
    );
    assert!(out.result.starts_with("{\"correct\": false"));
}
