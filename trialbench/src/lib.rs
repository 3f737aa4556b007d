//! The repository benchmark: named workloads run as sweeps of timed
//! simulation trials, with output checks, and a traced mode that breaks
//! a trial's cost down per layer.
//!
//! Run one workload with
//! `cargo run --release --manifest-path trialbench/Cargo.toml -- --workload
//! paper_fct --seed 1 --seconds 20 --trace 0`; see `trialbench/README.md`.

pub mod cli;
pub mod digest;
pub mod host;
pub mod layers;
pub mod report;
pub mod runner;
pub mod stats;
pub mod workload;

/// The splitmix64 finalizer: seeds trials and probe inputs.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
