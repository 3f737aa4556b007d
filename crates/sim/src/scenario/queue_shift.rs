//! Figure 2: Bundler shifts the queue from the bottleneck to the sendbox.
//!
//! A single long-running flow saturates an emulated path. Without Bundler,
//! the queue (and therefore the scheduling opportunity) lives at the
//! in-network bottleneck; with Bundler, the inner control loop keeps the
//! bottleneck queue small and the backlog accumulates at the sendbox
//! instead.

use bundler_core::BundlerConfig;
use bundler_types::{Duration, Nanos, Rate};

use crate::edge::BundleMode;
use crate::sim::{Simulation, SimulationConfig};
use crate::stats::TimeSeries;
use crate::workload::FlowSpec;

/// Output of the queue-shift experiment: queue-delay time series at both
/// queues, with and without Bundler.
#[derive(Debug, Clone)]
pub struct QueueShiftResult {
    /// Bottleneck queue delay without Bundler (status quo), ms.
    pub status_quo_bottleneck_ms: TimeSeries,
    /// Edge (sendbox position) queue delay without Bundler — always ~0, ms.
    pub status_quo_edge_ms: TimeSeries,
    /// Bottleneck queue delay with Bundler, ms.
    pub bundler_bottleneck_ms: TimeSeries,
    /// Sendbox queue delay with Bundler, ms.
    pub bundler_sendbox_ms: TimeSeries,
    /// Mean throughput of the flow with Bundler (Mbit/s), to confirm the
    /// shift does not cost throughput.
    pub bundler_throughput_mbps: f64,
    /// Mean throughput without Bundler (Mbit/s).
    pub status_quo_throughput_mbps: f64,
}

/// Configuration for the queue-shift experiment.
#[derive(Debug, Clone, Copy)]
pub struct QueueShiftScenario {
    /// Bottleneck rate (paper: 96 Mbit/s).
    pub bottleneck: Rate,
    /// Base RTT (paper: 50 ms).
    pub rtt: Duration,
    /// How long to run each configuration.
    pub duration: Duration,
}

impl Default for QueueShiftScenario {
    fn default() -> Self {
        QueueShiftScenario {
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            duration: Duration::from_secs(30),
        }
    }
}

impl QueueShiftScenario {
    fn run_one(&self, bundler: bool) -> crate::stats::SimReport {
        let mode = if bundler {
            BundleMode::Bundler(BundlerConfig::default())
        } else {
            BundleMode::StatusQuo
        };
        let config = SimulationConfig {
            duration: self.duration,
            bottleneck_rate: self.bottleneck,
            rtt: self.rtt,
            bundles: vec![mode],
            ..Default::default()
        };
        // A single infinitely backlogged flow, as in the paper's
        // illustrative example.
        let workload = vec![FlowSpec::bundled(1, FlowSpec::BACKLOGGED, Nanos::ZERO, 0)];
        Simulation::new(config, workload).run()
    }

    /// Runs both configurations and collects the queue-delay series.
    pub fn run(&self) -> QueueShiftResult {
        let quo = self.run_one(false);
        let bun = self.run_one(true);
        let warmup = Nanos::ZERO + Duration::from_secs(5);
        QueueShiftResult {
            status_quo_bottleneck_ms: quo.bottleneck_queue_delay_ms.clone(),
            status_quo_edge_ms: TimeSeries::new(),
            bundler_bottleneck_ms: bun.bottleneck_queue_delay_ms.clone(),
            bundler_sendbox_ms: bun.sendbox_queue_delay_ms[0].clone(),
            bundler_throughput_mbps: bun.bundle_throughput_mbps[0]
                .mean_between(warmup, Nanos::MAX)
                .unwrap_or(0.0),
            status_quo_throughput_mbps: quo.bundle_throughput_mbps[0]
                .mean_between(warmup, Nanos::MAX)
                .unwrap_or(0.0),
        }
    }
}

impl QueueShiftResult {
    /// Mean bottleneck queue delay (ms) after warm-up, without Bundler.
    pub fn mean_status_quo_bottleneck_ms(&self) -> f64 {
        self.status_quo_bottleneck_ms
            .mean_between(Nanos::from_secs(5), Nanos::MAX)
            .unwrap_or(0.0)
    }

    /// Mean bottleneck queue delay (ms) after warm-up, with Bundler.
    pub fn mean_bundler_bottleneck_ms(&self) -> f64 {
        self.bundler_bottleneck_ms
            .mean_between(Nanos::from_secs(5), Nanos::MAX)
            .unwrap_or(0.0)
    }

    /// Mean sendbox queue delay (ms) after warm-up, with Bundler.
    pub fn mean_bundler_sendbox_ms(&self) -> f64 {
        self.bundler_sendbox_ms
            .mean_between(Nanos::from_secs(5), Nanos::MAX)
            .unwrap_or(0.0)
    }

    /// True if the queue moved: the sendbox now holds (most of) the queue
    /// and the bottleneck queue shrank substantially.
    pub fn queue_shifted(&self) -> bool {
        self.mean_bundler_sendbox_ms() > self.mean_bundler_bottleneck_ms()
            && self.mean_bundler_bottleneck_ms() < 0.5 * self.mean_status_quo_bottleneck_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_shifts_without_losing_throughput() {
        let scenario = QueueShiftScenario {
            bottleneck: Rate::from_mbps(24),
            rtt: Duration::from_millis(50),
            duration: Duration::from_secs(20),
        };
        let result = scenario.run();
        assert!(
            result.queue_shifted(),
            "queue should shift to the sendbox: status-quo bottleneck {:.1} ms, \
             bundler bottleneck {:.1} ms, bundler sendbox {:.1} ms",
            result.mean_status_quo_bottleneck_ms(),
            result.mean_bundler_bottleneck_ms(),
            result.mean_bundler_sendbox_ms()
        );
        // Throughput must stay in the same ballpark as the status quo (the
        // single-flow microbenchmark is the worst case for edge queueing:
        // one Cubic flow repeatedly dumps its whole window into the sendbox).
        assert!(
            result.bundler_throughput_mbps > 0.55 * result.status_quo_throughput_mbps,
            "throughput {:.1} vs {:.1}",
            result.bundler_throughput_mbps,
            result.status_quo_throughput_mbps
        );
    }
}
