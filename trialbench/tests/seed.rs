//! Workload generation is a pure function of the seed argument.

use bundler_sim::snapshot::fingerprint;
use trialbench::workload::{inputs, trial_seed, Size, Workload};

/// What a trial's inputs amount to: each simulation's flows and the
/// fingerprint of its configuration.
fn generated(workload: Workload, seed: u64) -> Vec<(u64, Vec<bundler_sim::workload::FlowSpec>)> {
    inputs(workload, seed, Size::Paper, false)
        .into_iter()
        .map(|i| (fingerprint(&i.config, &i.flows), i.flows))
        .collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in Workload::ALL {
        let seed = trial_seed(7, 3);
        let a = generated(workload, seed);
        assert_eq!(
            a,
            generated(workload, seed),
            "{workload:?} is not a pure function of its seed"
        );
        assert_ne!(
            a,
            generated(workload, trial_seed(8, 3)),
            "{workload:?} ignores the run seed"
        );
        assert_ne!(
            a,
            generated(workload, trial_seed(7, 4)),
            "{workload:?} ignores the trial index"
        );
    }
}

#[test]
fn trial_seeds_are_distinct() {
    let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| trial_seed(42, i)).collect();
    assert_eq!(seeds.len(), 1000);
}
