//! The simulation engine: wires endhosts, site edges, the bottleneck and
//! the Bundler control loop together and runs the event loop.
//!
//! The hot path is allocation-free in steady state: packets live in a
//! [`PacketArena`] and move through queues and events as 4-byte
//! [`PacketId`](bundler_types::PacketId)s, endhosts emit into reusable
//! scratch buffers, and the
//! event queue is a calendar queue with O(1) amortized operations
//! (selectable via [`SimulationConfig::event_engine`] for A/B
//! measurement against the reference binary heap).
//!
//! [`Simulation`] is the *single-threaded host*: it composes one
//! [`WorkerCore`] owning every site-side logical process with the
//! [`NetCore`] bottleneck over a single event queue. The multi-threaded
//! host lives in the `bundler-shard` crate and composes the same cores,
//! one worker per thread — [`SimulationConfig::shards`] selects how many.
//! Because event order is canonical (see [`crate::event`]), both hosts
//! produce bit-identical reports for the same config and workload.

use bundler_core::feedback::BundleId;
use bundler_types::{Duration, FlowKey, Nanos, PacketArena, Rate};
use serde::binary::{Decode, Encode};

use crate::edge::{BundleMode, MultiBundle, MultiBundleSpec};
use crate::event::{Event, EventEngine, EventQueue};
use crate::runtime::{
    assemble_report, is_net_event, Delivery, NetCore, Partition, ToNet, WorkerCore,
};
use crate::stats::SimReport;
use crate::workload::{FlowSpec, Origin};

/// Static configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Total simulated time.
    pub duration: Duration,
    /// Aggregate bottleneck rate (split evenly across `num_paths`).
    pub bottleneck_rate: Rate,
    /// Base round-trip propagation delay (no queueing).
    pub rtt: Duration,
    /// Bottleneck buffer size in packets per sub-path. `0` means "2 × BDP".
    pub buffer_pkts: usize,
    /// Number of load-balanced bottleneck sub-paths.
    pub num_paths: usize,
    /// Additional one-way delay added to sub-path `i` (`i × spread`); a
    /// non-zero value creates the imbalanced-multipath scenarios of §5.2.
    pub path_delay_spread: Duration,
    /// Per-packet (rather than per-flow) load balancing; off by default.
    pub packet_spraying: bool,
    /// Use the ideal fair queue at the bottleneck instead of drop-tail FIFO
    /// (the paper's undeployable "In-Network" baseline).
    pub in_network_fq: bool,
    /// One entry per bundle index used by the workload.
    pub bundles: Vec<BundleMode>,
    /// When set, the source site edge is a [`MultiBundle`] agent managing
    /// one bundle per spec behind a destination-prefix classifier, and
    /// `bundles` is ignored. Workload origins must still name bundle
    /// indices consistent with the specs' prefixes.
    pub multi_bundle: Option<MultiBundleMode>,
    /// Interval between statistics samples.
    pub sample_interval: Duration,
    /// Which event-queue engine orders the simulation. The engines are
    /// behaviourally identical (verified by property test and by
    /// `bench_report` on every run); the calendar wheel is the fast one and
    /// the binary heap exists as the reference/baseline.
    pub event_engine: EventEngine,
    /// How many worker shards the simulation runs on. `1` (the default) is
    /// today's engine: this crate's single-threaded [`Simulation`],
    /// unchanged. Larger values are honoured by the multi-threaded host in
    /// `bundler-shard` (`ShardedSimulation`), which partitions bundles
    /// across that many worker threads and produces bit-identical results;
    /// the plain [`Simulation`] ignores the field.
    pub shards: usize,
    /// How the sharded host assigns bundles to worker shards (ignored by
    /// the plain [`Simulation`] and when `shards == 1`). Every mode
    /// produces bit-identical results — placement is invisible by
    /// construction — so this only trades load balance against migration
    /// work.
    pub balance: ShardBalance,
    /// How many net shards the bottleneck runs on. `1` (the default) keeps
    /// today's single net core. Larger values are honoured by the
    /// multi-threaded host, which partitions the bottleneck sub-paths
    /// round-robin across that many dedicated net threads (net shard `k`
    /// owns paths `{gid : gid % net_shards == k}`) and produces
    /// bit-identical results; values above `num_paths` are clamped. The
    /// plain [`Simulation`] ignores the field.
    pub net_shards: usize,
    /// Route every mailbox envelope through the versioned `NETENV` wire
    /// format (encode → decode at the sending edge) in the sharded host.
    /// Purely a transport exercise — results are bit-identical either way
    /// (property-tested) — kept as a run-time switch so the differential
    /// matrix proves the codec before shards ever cross a process
    /// boundary. Ignored by the plain [`Simulation`].
    pub wire_envelopes: bool,
    /// Observability level. `Off` (the default) reduces every
    /// instrumentation site to a skipped branch on this enum; `Metrics`
    /// records counters/histograms and the sharded phase profile; `Full`
    /// additionally records the structured trace (Perfetto export). No
    /// level ever changes a simulation result: the output rides on
    /// [`SimReport::obs`], which `SimStats` digests exclude.
    pub obs: bundler_obs::ObsLevel,
    /// When set, the hosts take a whole-simulation snapshot roughly every
    /// this much simulated time (at the exact multiple in the
    /// single-threaded host; at the first window barrier past the multiple
    /// in the sharded host — both stamped so restore resumes
    /// bit-identically). Collected via [`Simulation::run_collecting`];
    /// `None` (the default) disables checkpointing entirely. Never affects
    /// simulation results.
    pub checkpoint_every: Option<Duration>,
    /// Deterministic fault plan injected into the run: bottleneck faults
    /// applied on the net core's canonical event stream plus control-plane
    /// blackouts applied at feedback delivery. `None` (the default) injects
    /// nothing. Same plan + workload ⇒ same digest for any shard count.
    pub faults: Option<crate::fault::FaultPlan>,
    /// Fluid cross-traffic tier: background aggregates simulated as rate
    /// processes at the bottleneck instead of per-packet (see
    /// [`crate::fluid`]). `None` (the default) disables the tier — every
    /// background flow is packet-level, exactly as before the tier existed.
    pub cross_traffic: Option<crate::fluid::FluidCrossTraffic>,
    /// Flow-span tracing: a seeded, pure sampler picks flows at admission
    /// and their full lifecycle (classify, sendbox sojourn, bottleneck
    /// sojourn, FCT) is recorded as linked trace records. Only active at
    /// [`bundler_obs::ObsLevel::Full`]; `None` (the default) disables flow
    /// spans entirely. Never affects simulation results.
    pub flow_trace: Option<bundler_obs::FlowTrace>,
    /// Streaming telemetry sink: trace rings and metrics flush here
    /// incrementally at sample/window barriers instead of accumulating in
    /// memory, so observability memory is ring-capacity sized rather than
    /// run-length sized. `None` (the default) keeps the in-memory
    /// [`crate::stats::SimReport::obs`] path. Cloning a config clones the
    /// handle — every shard of a run shares one sink.
    pub stream: Option<bundler_obs::StreamSink>,
}

/// Bundle-to-shard assignment policy for the multi-threaded host.
///
/// Results are **identical** across all modes (and to the single-threaded
/// engine): event order is canonical and re-partitioning happens only at
/// window barriers, where no cross-shard message is in flight. The choice
/// affects wall-clock only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBalance {
    /// Static round-robin (`bundle % shards`) — PR 4's partition. A heavy
    /// bundle serializes its shard while the others idle at the barrier.
    #[default]
    RoundRobin,
    /// Rate-aware: periodically re-pack bundles across shards with a
    /// deterministic greedy bin-pack (longest processing time first) over
    /// the measured per-bundle event rates, migrating whole bundle
    /// complexes at window barriers.
    Rate,
    /// Adversarial schedule for tests: rotate **every** bundle to the next
    /// shard at every rebalancing barrier, regardless of load. Maximizes
    /// migration churn to prove any schedule is bit-identical; never worth
    /// running for performance.
    Rotate,
}

/// Configuration of a [`MultiBundle`] source edge.
#[derive(Debug, Clone)]
pub struct MultiBundleMode {
    /// Agent-wide tunables (tick-wheel quantum).
    pub agent: bundler_agent::AgentConfig,
    /// One bundle per remote site: its prefixes and Bundler configuration.
    pub specs: Vec<MultiBundleSpec>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            duration: Duration::from_secs(30),
            bottleneck_rate: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            buffer_pkts: 0,
            num_paths: 1,
            path_delay_spread: Duration::ZERO,
            packet_spraying: false,
            in_network_fq: false,
            bundles: vec![BundleMode::StatusQuo],
            multi_bundle: None,
            sample_interval: Duration::from_millis(50),
            event_engine: EventEngine::default(),
            shards: 1,
            balance: ShardBalance::default(),
            net_shards: 1,
            wire_envelopes: false,
            obs: bundler_obs::ObsLevel::default(),
            checkpoint_every: None,
            faults: None,
            cross_traffic: None,
            flow_trace: None,
            stream: None,
        }
    }
}

impl SimulationConfig {
    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bottleneck_rate.as_bytes_per_sec() * self.rtt.as_secs_f64()) as u64
    }

    /// Number of bundle indices this configuration defines.
    pub fn n_bundles(&self) -> usize {
        match &self.multi_bundle {
            Some(mode) => mode.specs.len(),
            None => self.bundles.len(),
        }
    }

    pub(crate) fn effective_buffer_pkts(&self) -> usize {
        if self.buffer_pkts > 0 {
            self.buffer_pkts
        } else {
            ((2 * self.bdp_bytes()) / 1500).max(40) as usize
        }
    }

    /// The net-shard count the sharded host actually runs: at least one,
    /// at most one shard per bottleneck sub-path.
    pub fn effective_net_shards(&self) -> usize {
        self.net_shards.clamp(1, self.num_paths.max(1))
    }
}

/// The single-threaded simulator host.
pub struct Simulation {
    config: SimulationConfig,
    /// The workload the run was built from (kept for snapshot
    /// fingerprinting).
    workload: Vec<FlowSpec>,
    queue: EventQueue,
    /// Every in-flight packet; events and queues reference it by id.
    arena: PacketArena,
    worker: WorkerCore,
    net: NetCore,
    /// Reusable scratch for worker → net messages.
    to_net: Vec<ToNet>,
    /// Reusable scratch for net → worker deliveries.
    deliveries: Vec<Delivery>,
    /// Simulated time the run starts from (`ZERO` for a fresh run, the
    /// snapshot's stamp after a restore).
    start: Nanos,
    /// True while every arena insert is one endhost/net creation, which
    /// makes `finalize`'s accounting cross-check exact. Checkpointing and
    /// restoring churn packets through the arena by value, so they clear
    /// it.
    arena_exact: bool,
}

impl Simulation {
    /// Builds a simulation from a configuration and a workload (flow
    /// arrivals). Panics if a bundle configuration is invalid.
    pub fn new(config: SimulationConfig, workload: Vec<FlowSpec>) -> Self {
        let mut queue = EventQueue::with_engine(config.event_engine);
        let mut worker = WorkerCore::new(&config, &workload, Partition::solo());
        let mut net = NetCore::new(&config);
        worker.schedule_initial(&mut queue);
        net.schedule_initial(&mut queue);
        Simulation {
            config,
            workload,
            queue,
            arena: PacketArena::with_capacity(1024),
            worker,
            net,
            to_net: Vec::with_capacity(64),
            deliveries: Vec::with_capacity(64),
            start: Nanos::ZERO,
            arena_exact: true,
        }
    }

    /// Rebuilds a simulation from a snapshot taken at some earlier instant
    /// of a run with an equivalent config and the same workload, positioned
    /// to resume bit-identically. "Equivalent" means the result-affecting
    /// fields match (checked via the snapshot fingerprint); observability,
    /// partitioning and checkpoint cadence may differ.
    pub fn restore(
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        bytes: &[u8],
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError;
        let corrupt = |e: serde::binary::DecodeError| SnapshotError::Corrupt(e.to_string());
        let fp = crate::snapshot::fingerprint(&config, &workload);
        let mut r = serde::binary::Reader::new(bytes);
        let at = crate::snapshot::read_header(&mut r, fp)?;
        let mut queue = EventQueue::with_engine(config.event_engine);
        let mut arena = PacketArena::with_capacity(1024);
        let n_bundles = config.n_bundles();
        // Start from an empty worker (it owns nothing, schedules nothing)
        // and pour the snapshot in: every pending event — including future
        // flow arrivals — comes from the snapshot, not `schedule_initial`.
        let mut worker = WorkerCore::with_owned(
            &config,
            &workload,
            Partition::solo(),
            vec![false; n_bundles],
        );
        let residue = crate::runtime::WorkerResidue::decode(&mut r).map_err(corrupt)?;
        worker.apply_residue(residue);
        worker
            .load_direct_state(&mut queue, &mut arena, &mut r)
            .map_err(corrupt)?;
        let count = u64::decode(&mut r).map_err(corrupt)? as usize;
        if count != n_bundles {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {count} bundles, config defines {n_bundles}"
            )));
        }
        for _ in 0..count {
            let parcel =
                crate::runtime::BundleParcel::from_state(&config, &mut r).map_err(corrupt)?;
            worker.adopt_bundle(parcel, &mut queue, &mut arena, at);
        }
        let mut net = NetCore::new(&config);
        for gid in 0..config.num_paths.max(1) {
            net.load_path_section(gid, &mut queue, &mut arena, &mut r)
                .map_err(corrupt)?;
        }
        if !r.is_empty() {
            return Err(SnapshotError::Corrupt(
                "trailing bytes after snapshot payload".into(),
            ));
        }
        Ok(Simulation {
            config,
            workload,
            queue,
            arena,
            worker,
            net,
            to_net: Vec::with_capacity(64),
            deliveries: Vec::with_capacity(64),
            start: at,
            arena_exact: false,
        })
    }

    /// The configuration this simulation was built with.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The five-tuple assigned to a flow (exposed for tests).
    pub fn flow_key(flow_id: u64, origin: Origin) -> FlowKey {
        crate::runtime::flow_key(flow_id, origin)
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(self) -> SimReport {
        self.run_inner(None)
    }

    /// Runs to completion, pushing a `(time, bytes)` whole-simulation
    /// snapshot into `sink` at every [`SimulationConfig::checkpoint_every`]
    /// multiple. With `checkpoint_every` unset this is exactly [`run`].
    /// Checkpointing never changes the report.
    ///
    /// [`run`]: Simulation::run
    pub fn run_collecting(self, sink: &mut Vec<(Nanos, Vec<u8>)>) -> SimReport {
        self.run_with_checkpoints(|at, blob| sink.push((at, blob)))
    }

    /// Runs to completion, invoking `sink` with each `(time, bytes)`
    /// checkpoint as it is taken — the streaming form of
    /// [`run_collecting`](Simulation::run_collecting), for callers that
    /// persist checkpoints externally (e.g. to disk, so a killed process
    /// can be resumed via [`Simulation::restore`]).
    pub fn run_with_checkpoints(self, mut sink: impl FnMut(Nanos, Vec<u8>)) -> SimReport {
        self.run_inner(Some(&mut sink))
    }

    fn run_inner(mut self, mut sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>) -> SimReport {
        let end = Nanos::ZERO + self.config.duration;
        // The next checkpoint instant: the first interval multiple strictly
        // after the run's start (so a restored run does not re-write the
        // checkpoint it was restored from).
        let mut next_ckpt = match (self.config.checkpoint_every, sink.as_ref()) {
            (Some(iv), Some(_)) if iv.as_nanos() > 0 => {
                let iv = iv.as_nanos();
                Some((iv, Nanos((self.start.as_nanos() / iv + 1) * iv)))
            }
            _ => None,
        };
        // One event per iteration, in canonical `(timestamp, key)` order:
        // peek, take any checkpoint that is due, stop at `end`, pop and
        // dispatch. Checkpoints fall between two pops, where every event
        // before `at` has been processed and none at or after it.
        while let Some((peek_t, _)) = self.queue.peek() {
            if let Some((iv, at)) = next_ckpt {
                if at < end && peek_t >= at {
                    let blob = self.snapshot(at);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink(at, blob);
                    }
                    next_ckpt = Some((iv, at + Duration(iv)));
                    continue;
                }
            }
            if peek_t >= end {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked event must pop");
            if is_net_event(&event) {
                self.net.handle(
                    event,
                    now,
                    &mut self.arena,
                    &mut self.queue,
                    &mut self.deliveries,
                );
                for d in self.deliveries.drain(..) {
                    self.queue
                        .schedule(d.at, d.key, Event::ArriveDestination { pkt: d.pkt });
                }
            } else {
                self.worker.handle(
                    event,
                    now,
                    &mut self.arena,
                    &mut self.queue,
                    &mut self.to_net,
                );
                for m in self.to_net.drain(..) {
                    debug_assert_eq!(m.at, now, "bottleneck entry is a zero-latency hop");
                    self.queue
                        .schedule(m.at, m.key, Event::ArriveBottleneck { pkt: m.pkt });
                }
            }
        }
        self.finalize()
    }

    /// Serializes the complete simulation state, stamped as the state at
    /// simulated time `at`. Callers must guarantee every event strictly
    /// before `at` has been processed and none at or after it has — which
    /// is exactly the situation between two event pops (the checkpoint loop
    /// in [`Simulation::run_collecting`] enforces it). Non-destructive: the
    /// run continues unchanged afterwards. Panics if a configured queue
    /// discipline does not support checkpointing.
    pub fn snapshot(&mut self, at: Nanos) -> Vec<u8> {
        // Extract/adopt below re-inserts migrated packets, so the arena's
        // insert counter stops matching logical packet creation.
        self.arena_exact = false;
        // Streamed telemetry: publish everything recorded strictly before
        // the snapshot instant, so a restore resumes from a complete
        // prefix and (crashed ∪ restored) line sets cover the full run.
        self.worker.obs.flush(at);
        self.net.obs.flush(at);
        if let Some(stream) = &self.config.stream {
            stream.flush_io();
        }
        let fp = crate::snapshot::fingerprint(&self.config, &self.workload);
        let mut out = Vec::new();
        crate::snapshot::write_header(&mut out, at, fp);
        self.worker.residue().encode(&mut out);
        self.worker
            .save_direct_state(&mut self.queue, &mut self.arena, &mut out);
        let n = self.config.n_bundles();
        (n as u64).encode(&mut out);
        for b in 0..n {
            let parcel = self
                .worker
                .extract_bundle(b, &mut self.queue, &mut self.arena);
            let ok = parcel.save_state(&mut out);
            self.worker
                .adopt_bundle(parcel, &mut self.queue, &mut self.arena, at);
            assert!(
                ok,
                "checkpointing requires a snapshot-capable sendbox queue discipline (bundle {b})"
            );
        }
        for gid in 0..self.config.num_paths.max(1) {
            let ok = self
                .net
                .save_path_section(gid, &mut self.queue, &mut self.arena, &mut out);
            assert!(
                ok,
                "checkpointing requires a snapshot-capable bottleneck queue discipline (path {gid})"
            );
        }
        out
    }

    fn finalize(self) -> SimReport {
        // In the single-arena host every creation is one insert, so the
        // logical counters must agree with the arena's — unless a
        // checkpoint/restore churned packets through the arena by value.
        if self.arena_exact {
            debug_assert_eq!(
                self.worker_packets_created() + self.net.packets_created(),
                self.arena.inserted()
            );
        }
        assemble_report(
            &self.config,
            vec![self.worker],
            vec![self.net],
            self.arena.recycled(),
        )
    }

    fn worker_packets_created(&self) -> u64 {
        self.worker.packets_created()
    }

    /// Convenience accessor used by tests: the sendbox control plane of a
    /// bundle, if it is deployed.
    pub fn bundle_control(&self, bundle: usize) -> Option<&bundler_core::Sendbox> {
        self.worker.bundle_control(bundle)
    }

    /// Convenience accessor: the receivebox of a bundle, if deployed.
    pub fn bundle_receivebox(&self, bundle: usize) -> Option<&bundler_core::Receivebox> {
        self.worker.bundle_receivebox(bundle)
    }

    /// The multi-bundle site edge, if this run uses one.
    pub fn multi_bundle(&self) -> Option<&MultiBundle> {
        self.worker.multi_bundle()
    }

    /// Bundle id type helper (exposed for integration tests).
    pub fn bundle_id(index: usize) -> BundleId {
        BundleId(index as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FlowSpec;
    use bundler_core::BundlerConfig;

    fn single_flow_config(bundler: bool) -> SimulationConfig {
        SimulationConfig {
            duration: Duration::from_secs(12),
            bottleneck_rate: Rate::from_mbps(24),
            rtt: Duration::from_millis(50),
            bundles: vec![if bundler {
                BundleMode::Bundler(BundlerConfig::default())
            } else {
                BundleMode::StatusQuo
            }],
            ..Default::default()
        }
    }

    #[test]
    fn single_flow_completes_and_uses_most_of_the_link() {
        // A 6 MB transfer over a 24 Mbit/s, 50 ms path takes ~2.2 s of pure
        // serialization; allow generous slack for slow start and recovery.
        let workload = vec![FlowSpec::bundled(1, 6_000_000, Nanos::ZERO, 0)];
        let report = Simulation::new(single_flow_config(false), workload).run();
        assert_eq!(
            report.completed, 1,
            "flow must finish (unfinished={})",
            report.unfinished
        );
        let fct = report.fcts[0].fct;
        assert!(fct >= Duration::from_secs(2), "fct {fct} suspiciously fast");
        assert!(fct <= Duration::from_secs(10), "fct {fct} too slow");
    }

    #[test]
    fn single_flow_with_bundler_also_completes() {
        let workload = vec![FlowSpec::bundled(1, 6_000_000, Nanos::ZERO, 0)];
        let report = Simulation::new(single_flow_config(true), workload).run();
        assert_eq!(report.completed, 1, "flow must finish under Bundler");
        let fct = report.fcts[0].fct;
        assert!(
            fct <= Duration::from_secs(11),
            "fct {fct} too slow under Bundler"
        );
    }

    #[test]
    fn bundler_shifts_queue_from_bottleneck_to_sendbox() {
        // One backlogged flow. Without Bundler the bottleneck FIFO holds the
        // queue; with Bundler the sendbox does.
        let mk_workload = || vec![FlowSpec::bundled(1, FlowSpec::BACKLOGGED, Nanos::ZERO, 0)];
        let mut quo_cfg = single_flow_config(false);
        quo_cfg.duration = Duration::from_secs(20);
        let quo = Simulation::new(quo_cfg, mk_workload()).run();
        let mut bundler_cfg = single_flow_config(true);
        bundler_cfg.duration = Duration::from_secs(20);
        let bun = Simulation::new(bundler_cfg, mk_workload()).run();

        let late = Nanos::from_secs(10);
        let quo_bottleneck = quo
            .bottleneck_queue_delay_ms
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        let bun_bottleneck = bun
            .bottleneck_queue_delay_ms
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        let bun_sendbox = bun.sendbox_queue_delay_ms[0]
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        assert!(
            quo_bottleneck > 20.0,
            "status quo should build a large bottleneck queue, got {quo_bottleneck:.1} ms"
        );
        assert!(
            bun_bottleneck < quo_bottleneck / 2.0,
            "Bundler should shrink the bottleneck queue: {bun_bottleneck:.1} vs {quo_bottleneck:.1} ms"
        );
        assert!(
            bun_sendbox > bun_bottleneck,
            "the queue should now live at the sendbox ({bun_sendbox:.1} ms vs {bun_bottleneck:.1} ms)"
        );
        // Throughput must not collapse: the backlogged flow should still get
        // the majority of the 24 Mbit/s link.
        let tput = bun.mean_bundle_throughput_mbps(0).unwrap_or(0.0);
        assert!(tput > 12.0, "bundle throughput {tput:.1} Mbit/s too low");
    }

    #[test]
    fn ping_flows_record_rtts() {
        let mut cfg = single_flow_config(false);
        cfg.duration = Duration::from_secs(2);
        let workload = vec![FlowSpec::bundled(7, 40, Nanos::ZERO, 0).as_ping()];
        let report = Simulation::new(cfg, workload).run();
        let rtts = &report.ping_rtts_ms[0];
        assert!(
            rtts.len() > 10,
            "closed-loop pings should cycle many times, got {}",
            rtts.len()
        );
        // Base RTT is 50 ms plus a tiny serialization delay.
        assert!(
            rtts.iter().all(|&r| r >= 49.0),
            "RTT below propagation delay?"
        );
        assert!(rtts[0] < 60.0);
    }

    #[test]
    fn cross_traffic_is_not_attributed_to_bundles() {
        let mut cfg = single_flow_config(false);
        cfg.duration = Duration::from_secs(5);
        let workload = vec![
            FlowSpec::bundled(1, 100_000, Nanos::ZERO, 0),
            FlowSpec::direct(2, 100_000, Nanos::ZERO),
        ];
        let report = Simulation::new(cfg, workload).run();
        assert_eq!(report.completed, 2);
        let bundled: Vec<_> = report.fcts.iter().filter(|f| f.bundle.is_some()).collect();
        assert_eq!(bundled.len(), 1);
    }

    #[test]
    fn calendar_and_heap_engines_produce_identical_runs() {
        // The engine swap must be invisible: same seed, byte-identical
        // report. This exercises every event type through both engines.
        let workload = || {
            vec![
                FlowSpec::bundled(1, 400_000, Nanos::ZERO, 0),
                FlowSpec::bundled(2, 25_000, Nanos::from_millis(90), 0),
                FlowSpec::direct(3, 150_000, Nanos::from_millis(40)),
                FlowSpec::bundled(4, 40, Nanos::from_millis(10), 0).as_ping(),
            ]
        };
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(5);
        let run = |engine| {
            let mut c = cfg.clone();
            c.event_engine = engine;
            Simulation::new(c, workload()).run()
        };
        let wheel = run(EventEngine::CalendarWheel);
        let heap = run(EventEngine::BinaryHeap);
        assert_eq!(wheel.completed, heap.completed);
        assert_eq!(wheel.events_processed, heap.events_processed);
        assert_eq!(wheel.packets_created, heap.packets_created);
        let fw: Vec<u64> = wheel.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        let fh: Vec<u64> = heap.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_eq!(fw, fh, "engines must be byte-identical");
        assert_eq!(wheel.ping_rtts_ms[0], heap.ping_rtts_ms[0]);
        assert_eq!(
            wheel.bottleneck_queue_delay_ms.samples,
            heap.bottleneck_queue_delay_ms.samples
        );
    }

    /// The retired batching main loop, kept only as a test oracle for the
    /// one-pop loop in `run_inner`: it drains whole `(timestamp, lp)` runs
    /// with [`EventQueue::pop_run`] and merges events that handlers schedule
    /// mid-run back in at the spot a per-pop loop would reach them.
    /// Checkpoints (into `ckpts`, when `checkpoint_every` is set) are taken
    /// only with the run buffer drained.
    fn run_pop_run_loop(mut sim: Simulation, ckpts: &mut Vec<(Nanos, Vec<u8>)>) -> SimReport {
        let end = Nanos::ZERO + sim.config.duration;
        let mut next_ckpt = sim.config.checkpoint_every.map(|iv| {
            let iv = iv.as_nanos();
            (iv, Nanos((sim.start.as_nanos() / iv + 1) * iv))
        });
        let mut run: Vec<(Nanos, crate::event::EventKey, Event)> = Vec::new();
        let mut run_idx = 0;
        loop {
            if run_idx == run.len() {
                let Some((peek_t, _)) = sim.queue.peek() else {
                    break;
                };
                if let Some((iv, at)) = next_ckpt {
                    if at < end && peek_t >= at {
                        ckpts.push((at, sim.snapshot(at)));
                        next_ckpt = Some((iv, at + Duration(iv)));
                        continue;
                    }
                }
                if sim.queue.pop_run(&mut run) == 0 {
                    break;
                }
                run_idx = 0;
                if run[0].0 >= end {
                    break;
                }
            }
            let (t, key, _) = run[run_idx];
            let (now, event) = match sim.queue.peek() {
                Some((qt, qk)) if (qt, qk) < (t, key) => {
                    sim.queue.pop().expect("peeked event must pop")
                }
                _ => {
                    let (_, _, e) = run[run_idx];
                    run_idx += 1;
                    (t, e)
                }
            };
            if now >= end {
                break;
            }
            if is_net_event(&event) {
                sim.net.handle(
                    event,
                    now,
                    &mut sim.arena,
                    &mut sim.queue,
                    &mut sim.deliveries,
                );
                for d in sim.deliveries.drain(..) {
                    sim.queue
                        .schedule(d.at, d.key, Event::ArriveDestination { pkt: d.pkt });
                }
            } else {
                sim.worker
                    .handle(event, now, &mut sim.arena, &mut sim.queue, &mut sim.to_net);
                for m in sim.to_net.drain(..) {
                    sim.queue
                        .schedule(m.at, m.key, Event::ArriveBottleneck { pkt: m.pkt });
                }
            }
        }
        sim.finalize()
    }

    /// Runs `cfg` through the one-pop main loop and the retired `pop_run`
    /// oracle, asserting identical digests and identical checkpoint blobs.
    fn assert_loops_agree(cfg: SimulationConfig, workload: Vec<FlowSpec>, what: &str) {
        use crate::stats::SimStats;
        let mut ckpts = Vec::new();
        let one_pop = SimStats::of(
            &Simulation::new(cfg.clone(), workload.clone()).run_collecting(&mut ckpts),
        );
        let mut oracle_ckpts = Vec::new();
        let oracle = SimStats::of(&run_pop_run_loop(
            Simulation::new(cfg.clone(), workload),
            &mut oracle_ckpts,
        ));
        assert!(one_pop.completed > 0, "{what}: the run must do real work");
        assert_eq!(one_pop, oracle, "{what}");
        if cfg.checkpoint_every.is_some() {
            assert!(ckpts.len() >= 2, "{what}: {} checkpoints", ckpts.len());
        }
        assert!(ckpts == oracle_ckpts, "{what}: checkpoint blobs differ");
    }

    #[test]
    fn pop_run_loop_matches_one_at_a_time_pops() {
        use crate::scenario::fct::{FctScenario, SendboxMode};
        use crate::scenario::many_sites::ManySitesScenario;
        // The one-pop main loop must reproduce the retired `pop_run` +
        // merge loop exactly: same digest, same checkpoint bytes — with and
        // without the fluid tier on both engines, then across seeds in
        // classic (per-bundle) and multi-bundle (site agent) modes.
        let workload = || {
            vec![
                FlowSpec::bundled(1, 400_000, Nanos::ZERO, 0),
                FlowSpec::bundled(2, 25_000, Nanos::from_millis(90), 0),
                FlowSpec::direct(3, 150_000, Nanos::from_millis(40)),
                FlowSpec::bundled(4, 40, Nanos::from_millis(10), 0).as_ping(),
            ]
        };
        let every = Some(Duration::from_millis(500));
        for fluid in [false, true] {
            for engine in [EventEngine::CalendarWheel, EventEngine::BinaryHeap] {
                let mut cfg = single_flow_config(true);
                cfg.duration = Duration::from_secs(5);
                cfg.event_engine = engine;
                if fluid {
                    cfg.cross_traffic = Some(crate::fluid::FluidCrossTraffic::new(vec![
                        crate::fluid::FluidAggregate::new(16, Duration::from_millis(50)),
                    ]));
                }
                assert_loops_agree(
                    cfg.clone(),
                    workload(),
                    &format!("fluid={fluid} {engine:?}"),
                );
                cfg.checkpoint_every = every;
                assert_loops_agree(cfg, workload(), &format!("fluid={fluid} {engine:?} ckpt"));
            }
        }
        for seed in [3, 7, 11] {
            let classic = FctScenario::builder()
                .requests(120)
                .seed(seed)
                .background_bulk_flows(1)
                .mode(SendboxMode::BundlerSfq)
                .build();
            let mut cfg = classic.sim_config();
            cfg.checkpoint_every = every;
            assert_loops_agree(cfg, classic.workload(), &format!("classic seed {seed}"));
            let multi = ManySitesScenario::builder()
                .sites(3)
                .requests_per_site(6)
                .offered_load_per_site(Rate::from_mbps(8))
                .bottleneck(Rate::from_mbps(60))
                .drain(Duration::from_secs(2))
                .seed(seed)
                .build();
            let mut cfg = multi.sim_config();
            cfg.checkpoint_every = every;
            assert_loops_agree(cfg, multi.workload(), &format!("multi-bundle seed {seed}"));
        }
    }

    #[test]
    fn packet_arena_recycles_in_steady_state() {
        // A multi-second run creates hundreds of thousands of packets but
        // only ever has a bounded number in flight: nearly every allocation
        // must come from the arena free list.
        let workload = vec![FlowSpec::bundled(1, FlowSpec::BACKLOGGED, Nanos::ZERO, 0)];
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(10);
        let report = Simulation::new(cfg, workload).run();
        assert!(report.packets_created > 10_000);
        let fresh = report.packets_created - report.packets_recycled;
        assert!(
            fresh < report.packets_created / 10,
            "steady state should recycle: {fresh} fresh of {} total",
            report.packets_created
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let workload = || {
            vec![
                FlowSpec::bundled(1, 500_000, Nanos::ZERO, 0),
                FlowSpec::bundled(2, 20_000, Nanos::from_millis(100), 0),
                FlowSpec::direct(3, 200_000, Nanos::from_millis(50)),
            ]
        };
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(5);
        let a = Simulation::new(cfg.clone(), workload()).run();
        let b = Simulation::new(cfg, workload()).run();
        assert_eq!(a.completed, b.completed);
        let fct_a: Vec<u64> = a.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        let fct_b: Vec<u64> = b.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_eq!(fct_a, fct_b, "simulation must be deterministic");
    }

    #[test]
    fn multipath_spread_produces_out_of_order_measurements() {
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(15);
        cfg.num_paths = 4;
        cfg.path_delay_spread = Duration::from_millis(30);
        // Many flows so the load balancer actually uses several paths.
        let workload: Vec<FlowSpec> = (0..24)
            .map(|i| FlowSpec::bundled(i, FlowSpec::BACKLOGGED, Nanos::from_millis(i * 10), 0))
            .collect();
        let report = Simulation::new(cfg, workload).run();
        assert!(
            report.out_of_order_fraction[0] > 0.05,
            "imbalanced paths should cause out-of-order measurements, got {}",
            report.out_of_order_fraction[0]
        );
    }
}
