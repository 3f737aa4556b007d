//! A structural digest of a simulation's deterministic outputs.
//!
//! The digest is FNV-1a over every [`SimStats`] field in declaration
//! order, integers as little-endian bytes and floats by their bit
//! patterns, so it moves exactly when the simulated results move.

use bundler_core::{SendboxStats, SendboxTelemetry};
use bundler_sim::SimStats;
use bundler_types::Nanos;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    fn series(&mut self, s: &[(Nanos, f64)]) {
        self.u64(s.len() as u64);
        for &(t, v) in s {
            self.u64(t.as_nanos());
            self.f64(v);
        }
    }

    fn sendbox_stats(&mut self, s: &SendboxStats) {
        for v in [
            s.packets_sent,
            s.bytes_sent,
            s.boundaries,
            s.acks_received,
            s.ticks,
            s.epoch_changes,
            s.feedback_timeouts,
        ] {
            self.u64(v);
        }
    }

    fn telemetry(&mut self, t: &SendboxTelemetry) {
        self.u64(t.bundle.0 as u64);
        self.bytes(format!("{:?}", t.mode).as_bytes());
        self.u64(t.rate.as_bps());
        self.u64(t.epoch_size as u64);
        self.opt(t.min_rtt.map(|d| d.as_nanos()));
        self.opt(t.rtt.map(|d| d.as_nanos()));
        self.opt(t.recv_rate.map(|r| r.as_bps()));
        self.f64(t.out_of_order_fraction);
        self.sendbox_stats(&t.stats);
        self.bytes(format!("{:?}", t.measurement).as_bytes());
        self.u64(t.mode_transitions as u64);
    }
}

/// Digest of one simulation's [`SimStats`].
pub fn of(stats: &SimStats) -> u64 {
    let mut h = Fnv::new();
    for v in [
        stats.completed as u64,
        stats.unfinished as u64,
        stats.events_processed,
        stats.packets_created,
        stats.bottleneck_drops,
        stats.bytes_delivered,
    ] {
        h.u64(v);
    }
    h.u64(stats.fcts.len() as u64);
    for &(size, start, fct, bundle) in &stats.fcts {
        h.u64(size);
        h.u64(start);
        h.u64(fct);
        h.opt(bundle.map(|b| b as u64));
    }
    h.u64(stats.ping_rtts_ms.len() as u64);
    for rtts in &stats.ping_rtts_ms {
        h.u64(rtts.len() as u64);
        rtts.iter().for_each(|&v| h.f64(v));
    }
    h.series(&stats.bottleneck_queue_delay);
    h.series(&stats.actual_rtt);
    h.series(&stats.cross_throughput);
    h.u64(stats.bundle_series.len() as u64);
    for series in &stats.bundle_series {
        series.iter().for_each(|s| h.series(s));
    }
    h.u64(stats.mode_timeline.len() as u64);
    for timeline in &stats.mode_timeline {
        h.u64(timeline.len() as u64);
        for (t, mode) in timeline {
            h.u64(t.as_nanos());
            h.bytes(mode.as_bytes());
        }
    }
    h.u64(stats.out_of_order_fraction.len() as u64);
    stats.out_of_order_fraction.iter().for_each(|&v| h.f64(v));
    match &stats.telemetry {
        None => h.u64(0),
        Some(bundles) => {
            h.u64(1 + bundles.len() as u64);
            for (index, t) in bundles {
                h.u64(*index as u64);
                h.telemetry(t);
            }
        }
    }
    match &stats.agent_stats {
        None => h.u64(0),
        Some(a) => {
            h.u64(1);
            for v in [
                a.packets_classified,
                a.packets_unclassified,
                a.acks_delivered,
                a.acks_unknown,
                a.ticks_run,
                a.advances,
            ] {
                h.u64(v);
            }
        }
    }
    match &stats.telemetry_totals {
        None => h.u64(0),
        Some(t) => {
            h.u64(1);
            h.sendbox_stats(t);
        }
    }
    h.0
}

/// Digest of several simulations taken as one output (a paired trial).
pub fn of_all(stats: &[SimStats]) -> u64 {
    let mut h = Fnv::new();
    for s in stats {
        h.u64(of(s));
    }
    h.0
}
