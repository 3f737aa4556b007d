//! Layer probes: per-operation costs of the layers that have no
//! micro-benchmark of their own, measured by calling each layer's public
//! functions with inputs shaped like the workload (link rate, RTT, buffer,
//! bundles, sites and cross traffic are read from the workload's
//! configuration).
//!
//! Each probe repeats a timed batch until [`BATCH`] has elapsed, over
//! [`REPEATS`] batches, and reports the median nanoseconds per operation.
//! The shapes follow the Criterion benches in `crates/bench/benches`
//! (classifier, agent tick, sendbox, scheduler) without sharing their code.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration as WallDuration, Instant};

use bundler_agent::{AgentConfig, SiteAgent};
use bundler_core::feedback::BundleId;
use bundler_core::{BundlerConfig, Receivebox, Sendbox};
use bundler_sched::{Enqueued, Policy};
use bundler_shard::mailbox;
use bundler_shard::wire::{self, WireDir};
use bundler_sim::event::{Event, EventKey, EventQueue};
use bundler_sim::fluid::{FluidAggregate, FluidCrossTraffic, FluidState};
use bundler_sim::path::BottleneckPath;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::tcp::TcpSender;
use bundler_sim::SimulationConfig;
use bundler_types::{
    ipv4, Duration, FlowId, FlowKey, Nanos, Packet, PacketArena, Rate, TrafficClass,
};

/// Wall time of one timed batch.
pub const BATCH: WallDuration = WallDuration::from_millis(12);
/// Timed batches per probe; the median batch is reported.
pub const REPEATS: usize = 5;

const MTU: u64 = 1500;

/// The workload properties the probes take their inputs from.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Bottleneck link rate.
    pub rate: Rate,
    /// Base round-trip time.
    pub rtt: Duration,
    /// Bottleneck buffer, in packets.
    pub buffer_pkts: usize,
    /// Control loops (bundles) the edge runs.
    pub bundles: usize,
    /// Site prefixes the agent classifies over (1 without an agent).
    pub sites: usize,
    /// Packets one bundle forwards per control interval. [`Shape::of`]
    /// assumes each bundle fills its share of the link; a traced run
    /// replaces that with the measured packets per control tick.
    pub pkts_per_tick: u64,
    /// The fluid cross traffic, or one stand-in aggregate when the
    /// workload has none, so the probe always measures something.
    pub fluid: FluidCrossTraffic,
}

impl Shape {
    /// The shape of a workload's simulation.
    pub fn of(config: &SimulationConfig) -> Shape {
        let bdp = (config.bottleneck_rate.as_bytes_per_sec() * config.rtt.as_secs_f64()) as u64;
        let buffer_pkts = if config.buffer_pkts > 0 {
            config.buffer_pkts
        } else {
            ((2 * bdp) / MTU).max(40) as usize
        };
        let bundles = config.n_bundles().max(1);
        let share = Rate::from_bps(config.bottleneck_rate.as_bps() / bundles as u64);
        Shape {
            rate: config.bottleneck_rate,
            rtt: config.rtt,
            buffer_pkts,
            bundles,
            sites: config
                .multi_bundle
                .as_ref()
                .map_or(1, |m| m.specs.len().max(1)),
            pkts_per_tick: (share.bytes_over(BundlerConfig::default().control_interval) / MTU)
                .max(1),
            fluid: config.cross_traffic.clone().unwrap_or_else(|| {
                FluidCrossTraffic::new(vec![FluidAggregate::new(100, config.rtt)])
            }),
        }
    }

    /// Packets one bandwidth-delay product holds (at least 16).
    fn bdp_pkts(&self) -> usize {
        ((self.rate.as_bytes_per_sec() * self.rtt.as_secs_f64()) as u64 / MTU).max(16) as usize
    }

    /// Serialization time of one full-sized packet on the bottleneck.
    fn tx_time(&self) -> Duration {
        self.rate.transmit_time(MTU)
    }
}

/// Per-operation costs, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// `EventQueue`: one `schedule` plus its share of `pop_run`.
    pub event_ns: f64,
    /// `PacketArena`: one `insert` plus one `free`.
    pub arena_ns: f64,
    /// `TcpSender`: one ACK, including the packets it releases.
    pub tcp_ack_ns: f64,
    /// `BottleneckPath`: one `try_transmit` plus one `enqueue`.
    pub path_pkt_ns: f64,
    /// SFQ: one enqueue plus one dequeue.
    pub sched_pkt_ns: f64,
    /// Sendbox and its congestion controller over one control interval:
    /// the interval's forwarded packets, their congestion ACKs, one tick.
    pub core_tick_ns: f64,
    /// `SiteAgent::classify_packet`.
    pub agent_classify_ns: f64,
    /// `SiteAgent::tick_bundle` of an idle bundle, the entry point the
    /// simulator's per-bundle control-tick events call.
    pub agent_tick_ns: f64,
    /// `FluidState::update_path`.
    pub fluid_update_ns: f64,
    /// One mailbox message: its `send` and its share of `drain_into`.
    pub mailbox_msg_ns: f64,
    /// One `NETENV` frame encoded and decoded.
    pub wire_frame_ns: f64,
}

/// Times `op` (which does `n` operations per call and returns how many
/// it did) and returns the median nanoseconds per operation.
fn per_op(mut op: impl FnMut() -> u64) -> f64 {
    op(); // warm-up
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            let mut ops = 0u64;
            while start.elapsed() < BATCH {
                ops += op();
            }
            start.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A small deterministic generator for probe inputs.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = crate::splitmix64(self.0);
        self.0 % n.max(1)
    }
}

fn data_packet(flow: u64, site: usize, seq: u64) -> Packet {
    Packet::data(
        FlowId(flow),
        FlowKey::tcp(
            ipv4(10, 0, (flow % 200) as u8, 1),
            (2000 + flow % 10_000) as u16,
            ipv4(10, 1, site as u8, 9),
            443,
        ),
        seq,
        MTU as u32 - 40,
        Nanos::ZERO,
    )
    .with_ip_id(seq as u16)
}

/// Measures every probe on one shape.
pub fn measure(shape: &Shape) -> Costs {
    Costs {
        event_ns: event_queue(shape),
        arena_ns: arena(shape),
        tcp_ack_ns: tcp(shape),
        path_pkt_ns: path(shape),
        sched_pkt_ns: sfq(shape),
        core_tick_ns: core(shape),
        agent_classify_ns: agent_classify(shape),
        agent_tick_ns: agent_tick(shape),
        fluid_update_ns: fluid(shape),
        mailbox_msg_ns: mailbox_msgs(),
        wire_frame_ns: wire_frames(),
    }
}

/// Two events per in-flight packet (its data and ACK legs) pending over
/// one RTT, across the edge's logical processes.
fn event_queue(shape: &Shape) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = Rng(1);
    let lps = shape.bundles as u64 + 2;
    let horizon = shape.rtt.as_nanos();
    let mut seq = 0u64;
    for _ in 0..2 * shape.bdp_pkts() {
        seq += 1;
        let at = Nanos(rng.below(horizon));
        q.schedule(
            at,
            EventKey::new(rng.below(lps) as u16, seq),
            Event::PathDequeue { path: 0 },
        );
    }
    let mut run = Vec::with_capacity(64);
    per_op(|| {
        let n = q.pop_run(&mut run);
        for &(t, _, ev) in &run {
            seq += 1;
            let at = t + Duration(1 + rng.below(horizon));
            q.schedule(at, EventKey::new(rng.below(lps) as u16, seq), black_box(ev));
        }
        n as u64
    })
}

/// The arena at a steady live population of two bandwidth-delay products.
fn arena(shape: &Shape) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let template = data_packet(1, 0, 0);
    let mut live: VecDeque<_> = (0..2 * shape.bdp_pkts())
        .map(|_| arena.insert(template.clone()))
        .collect();
    per_op(|| {
        for _ in 0..64 {
            let old = live.pop_front().expect("live population");
            arena.free(old);
            live.push_back(arena.insert(black_box(template.clone())));
        }
        64
    })
}

/// One Cubic flow of four bandwidth-delay products, ACK-clocked with no
/// loss; a finished flow is replaced by a fresh one.
fn tcp(shape: &Shape) -> f64 {
    let size = (4 * shape.bdp_pkts() as u64 * MTU).max(1 << 20);
    let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 7000, ipv4(10, 1, 0, 9), 443);
    let mut arena = PacketArena::with_capacity(1024);
    let new_flow = |id: u64| {
        TcpSender::new(
            FlowId(id),
            key,
            size,
            bundler_cc::EndhostAlg::Cubic,
            TrafficClass::BEST_EFFORT,
            Nanos::ZERO,
        )
    };
    let mut flow_id = 1;
    let mut sender = new_flow(flow_id);
    let mut inflight: VecDeque<_> = VecDeque::new();
    let mut out = Vec::new();
    let mut now = Nanos::ZERO;
    let step = shape.tx_time();
    per_op(|| {
        let mut acks = 0;
        for _ in 0..64 {
            if inflight.is_empty() {
                if sender.is_complete() {
                    flow_id += 1;
                    sender = new_flow(flow_id);
                }
                sender.maybe_send(now, &mut arena, &mut out);
                inflight.extend(out.drain(..));
                continue;
            }
            let id = inflight.pop_front().expect("non-empty");
            let pkt = arena.remove(id);
            now += step;
            sender.on_ack(pkt.seq + pkt.payload as u64, now, &mut arena, &mut out);
            inflight.extend(out.drain(..));
            acks += 1;
        }
        acks
    })
}

/// The bottleneck held half full: every transmitted packet re-enters the
/// queue, so the probe measures the path, not the arena.
fn path(shape: &Shape) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let mut link = BottleneckPath::drop_tail(shape.rate, shape.rtt.mul_f64(0.5), shape.buffer_pkts);
    for i in 0..(shape.buffer_pkts / 2).max(1) as u64 {
        let id = arena.insert(data_packet(i % 64, 0, i));
        link.enqueue(id, &mut arena, Nanos::ZERO);
    }
    let mut now = Nanos::ZERO;
    per_op(|| {
        for _ in 0..64 {
            now = now.max(link.busy_until());
            let (id, _, _) = link
                .try_transmit(&mut arena, now)
                .expect("the queue is never empty");
            link.enqueue(black_box(id), &mut arena, now);
        }
        64
    })
}

/// The sendbox's SFQ over 64 flows, four packets each, recirculated.
fn sfq(shape: &Shape) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let capacity = BundlerConfig::default().sendbox_queue_capacity_pkts;
    let mut s = Policy::Sfq.build(capacity);
    let mut t = 0u64;
    for i in 0..256u64 {
        let id = arena.insert(data_packet(i % 64, 0, i));
        if let Enqueued::Dropped(victim) = s.enqueue(id, &mut arena, Nanos(t)) {
            arena.free(victim);
        }
    }
    let step = shape.tx_time().as_nanos();
    per_op(|| {
        for _ in 0..64 {
            t += step;
            let id = s
                .dequeue(&mut arena, Nanos(t))
                .expect("the queue is never empty");
            if let Enqueued::Dropped(victim) = s.enqueue(black_box(id), &mut arena, Nanos(t)) {
                arena.free(victim);
            }
        }
        64
    })
}

/// One control interval of one bundle: the interval's forwarded packets
/// through the sendbox and the receivebox, congestion ACKs fed back, then
/// the control tick.
fn core(shape: &Shape) -> f64 {
    let config = BundlerConfig::default();
    let gap = Duration(config.control_interval.as_nanos() / shape.pkts_per_tick);
    let mut sb = Sendbox::new(BundleId(0), config).expect("default config is valid");
    let mut rb = Receivebox::new(BundleId(0), 1);
    let half_rtt = shape.rtt.mul_f64(0.5);
    let mut now = Nanos::ZERO;
    let mut seq = 0u64;
    per_op(|| {
        for _ in 0..shape.pkts_per_tick {
            seq += 1;
            now += gap;
            let pkt = data_packet(seq % 16, 0, seq);
            sb.on_packet_forwarded(&pkt, now);
            if let Some(ack) = rb.on_packet(&pkt, now + half_rtt) {
                sb.on_congestion_ack(&ack, now + shape.rtt);
            }
        }
        black_box(sb.on_tick(0, now));
        1
    })
}

fn agent_with_sites(sites: usize) -> SiteAgent {
    let mut agent = SiteAgent::new(AgentConfig::default());
    for site in 0..sites {
        agent
            .add_bundle(
                &[ManySitesScenario::site_prefix(site)],
                BundlerConfig::default(),
                Nanos::ZERO,
            )
            .expect("valid bundle");
    }
    agent
}

/// Packets spread over the workload's site prefixes.
fn agent_classify(shape: &Shape) -> f64 {
    let mut agent = agent_with_sites(shape.sites);
    let mut i = 0u64;
    per_op(|| {
        for _ in 0..64 {
            i += 1;
            let pkt = data_packet(i, (i % shape.sites as u64) as usize, i);
            black_box(agent.classify_packet(black_box(&pkt)));
        }
        64
    })
}

/// Control ticks of idle bundles, round-robin over the workload's sites.
fn agent_tick(shape: &Shape) -> f64 {
    let mut agent = agent_with_sites(shape.sites);
    let interval = BundlerConfig::default().control_interval;
    let mut now = Nanos::ZERO;
    per_op(|| {
        now += interval;
        for bundle in 0..shape.sites {
            black_box(agent.tick_bundle(bundle, 0, now));
        }
        shape.sites as u64
    })
}

/// One integration step per call, cycling over the workload's paths.
fn fluid(shape: &Shape) -> f64 {
    let paths = shape
        .fluid
        .aggregates
        .iter()
        .map(|a| a.path as usize + 1)
        .max()
        .unwrap_or(1);
    let mut state = FluidState::new(&shape.fluid, paths, shape.buffer_pkts);
    let mut links: Vec<BottleneckPath> = (0..paths)
        .map(|_| BottleneckPath::drop_tail(shape.rate, shape.rtt.mul_f64(0.5), shape.buffer_pkts))
        .collect();
    let interval = state.update_interval();
    let mut now = Nanos::ZERO;
    per_op(|| {
        now += interval;
        for (gid, link) in links.iter_mut().enumerate() {
            state.update_path(now, gid, black_box(link));
        }
        paths as u64
    })
}

/// Bursts of 64 envelopes through one mailbox, drained after each burst.
fn mailbox_msgs() -> f64 {
    let (mut tx, mut rx) = mailbox::channel::<(Nanos, EventKey, Packet)>(1024);
    let mut out = Vec::with_capacity(64);
    let mut seq = 0u64;
    per_op(|| {
        for _ in 0..64 {
            seq += 1;
            tx.send((Nanos(seq), EventKey::new(0, seq), data_packet(seq, 0, seq)));
        }
        out.clear();
        rx.drain_into(&mut out);
        black_box(&out);
        64
    })
}

/// One data-packet envelope encoded and decoded.
fn wire_frames() -> f64 {
    let mut buf = Vec::with_capacity(128);
    let mut seq = 0u64;
    per_op(|| {
        for _ in 0..64 {
            seq += 1;
            buf.clear();
            let pkt = data_packet(seq, 0, seq);
            wire::encode(
                WireDir::ToNet,
                Nanos(seq),
                EventKey::new(0, seq),
                &pkt,
                &mut buf,
            );
            black_box(wire::decode(&buf).expect("a frame just encoded decodes"));
        }
        64
    })
}
