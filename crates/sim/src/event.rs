//! The discrete-event queue and the canonical event-ordering keys.
//!
//! Events are ordered by `(timestamp, key)`. The key is not a global
//! insertion counter: it is `(logical process, per-process sequence)`,
//! assigned by whichever logical process *scheduled* the event. A logical
//! process (LP) is a unit of simulation state that only interacts with the
//! rest of the world through timestamped events: each bundle complex (its
//! flows' endhosts, its sendbox datapath and its remote receivebox) is one
//! LP, the direct cross-traffic endhosts are one LP, and the shared
//! bottleneck (paths + load balancer) is the net LP.
//!
//! Because each LP's sequence numbers depend only on that LP's own
//! execution history, the total `(timestamp, key)` order is *canonical*:
//! it does not change when LPs are partitioned across shards. That is the
//! property that lets `bundler-shard` run workers in parallel and still
//! merge cross-shard mailboxes into exactly the order the single-threaded
//! engine produces — bit-identical results for any shard count.
//!
//! Two interchangeable engines sit behind [`EventQueue`]:
//!
//! * [`EventEngine::CalendarWheel`] (default) — a hierarchical calendar
//!   queue ([`bundler_core::wheel::CalendarQueue`]): O(1) amortized
//!   push/pop with per-level occupancy bitmaps, the hot-path engine.
//! * [`EventEngine::BinaryHeap`] — the straightforward binary heap, kept as
//!   the reference implementation for property tests and A/B benchmarks
//!   (`bench_report` measures both in the same run).
//!
//! The two engines produce byte-identical simulations; `bench_report`
//! asserts this on every run.
//!
//! [`Event`] itself is deliberately small: packets live in a
//! [`PacketArena`](bundler_types::PacketArena) and events carry 4-byte
//! [`PacketId`]s, flow arrivals reference the workload table by index, and
//! the out-of-band feedback messages are small `Copy` structs. A
//! compile-time guard keeps future variants from re-bloating the enum (it
//! used to carry whole ~100-byte `Packet`s through every heap sift).

use bundler_core::feedback::{CongestionAck, EpochSizeUpdate};
use bundler_core::wheel::{BinaryHeapQueue, CalendarQueue};
use bundler_types::{Duration, FlowId, Nanos, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Canonical event-ordering key: logical process in the top 16 bits, that
/// process's schedule sequence in the low 48. Ties on timestamp resolve by
/// key, so the total order is `(timestamp, lp, lp sequence)` — invariant
/// under sharding (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(pub u64);

impl EventKey {
    /// Bits reserved for the per-LP sequence.
    pub const SEQ_BITS: u32 = 48;

    /// Builds a key. `seq` must fit in 48 bits (≈ 2.8 × 10^14 schedules
    /// per LP — unreachable in practice, checked in debug builds).
    #[inline]
    pub fn new(lp: u16, seq: u64) -> Self {
        debug_assert!(seq < (1u64 << Self::SEQ_BITS), "LP sequence overflow");
        EventKey(((lp as u64) << Self::SEQ_BITS) | seq)
    }

    /// The logical process that scheduled the event.
    #[inline]
    pub fn lp(self) -> u16 {
        (self.0 >> Self::SEQ_BITS) as u16
    }

    /// The scheduling process's sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1u64 << Self::SEQ_BITS) - 1)
    }
}

impl std::fmt::Display for EventKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lp{}#{}", self.lp(), self.seq())
    }
}

/// Everything that can happen in the simulated network.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A new application flow starts at its sender. The payload indexes the
    /// simulation's workload table ([`crate::workload::FlowSpec`]s are too
    /// big to carry in every event).
    FlowArrival {
        /// Index into the simulation's workload table.
        spec: u32,
    },
    /// A data or ACK packet reaches the bottleneck stage (net LP). The
    /// sub-path is picked by the load balancer when the event is handled,
    /// so the pick sequence is part of the net LP's canonical history.
    ArriveBottleneck {
        /// The packet.
        pkt: PacketId,
    },
    /// The given path finished serializing its current packet and should
    /// pick the next one (net LP).
    PathDequeue {
        /// Index of the path.
        path: u32,
    },
    /// A packet arrives at the destination site (after the bottleneck and
    /// forward propagation delay).
    ArriveDestination {
        /// The packet.
        pkt: PacketId,
    },
    /// A transport ACK (or response packet) arrives back at the source site.
    ArriveSource {
        /// The packet.
        pkt: PacketId,
    },
    /// A Bundler congestion ACK reaches the sendbox (routed by the bundle
    /// id the ACK itself carries).
    CongestionAckArrive {
        /// The ACK.
        ack: CongestionAck,
    },
    /// A Bundler epoch-size update reaches the receivebox (routed by the
    /// bundle id the update itself carries).
    EpochUpdateArrive {
        /// The update.
        update: EpochSizeUpdate,
    },
    /// Periodic control-plane tick for the given bundle's sendbox — one
    /// event per bundle in every edge mode, so tick order is canonical per
    /// LP regardless of how bundles are sharded.
    ControlTick {
        /// Index of the bundle.
        bundle: u32,
    },
    /// The given bundle's token bucket may have tokens to release another
    /// packet.
    SendboxRelease {
        /// Index of the bundle.
        bundle: u32,
    },
    /// Retransmission-timeout check for a flow.
    RtoCheck {
        /// The flow to check.
        flow: FlowId,
    },
    /// Periodic statistics sample for one logical process: each bundle LP
    /// samples its own series, the direct LP samples cross-traffic
    /// throughput. (One global sample event would have to read every
    /// shard's state at once; the bottleneck paths sample per-path via
    /// [`Event::PathSample`] for the same reason.)
    Sample {
        /// The logical process to sample.
        lp: u16,
    },
    /// Integration step for the fluid cross-traffic tier of one bottleneck
    /// path (keyed on [`crate::runtime::LP_FLUID`] with the path's own
    /// sequence stream, so fluid steps interleave canonically with packet
    /// events at the same timestamp and touch only that path's state —
    /// which is what lets a net shard integrate its owned paths without
    /// seeing the others). Only scheduled when
    /// [`crate::sim::SimulationConfig::cross_traffic`] is set.
    FluidUpdate {
        /// Global index of the path to integrate.
        path: u32,
    },
    /// Periodic statistics sample for one bottleneck path (net LP, on the
    /// path's own sequence stream). Per-path rather than one net-wide
    /// sample so the event touches only state its owning net shard holds.
    PathSample {
        /// Global index of the path to sample.
        path: u32,
    },
}

impl Encode for EventKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for EventKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EventKey(u64::decode(r)?))
    }
}

impl Encode for Event {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Event::FlowArrival { spec } => {
                0u8.encode(out);
                spec.encode(out);
            }
            Event::ArriveBottleneck { pkt } => {
                1u8.encode(out);
                pkt.encode(out);
            }
            Event::PathDequeue { path } => {
                2u8.encode(out);
                path.encode(out);
            }
            Event::ArriveDestination { pkt } => {
                3u8.encode(out);
                pkt.encode(out);
            }
            Event::ArriveSource { pkt } => {
                4u8.encode(out);
                pkt.encode(out);
            }
            Event::CongestionAckArrive { ack } => {
                5u8.encode(out);
                ack.encode(out);
            }
            Event::EpochUpdateArrive { update } => {
                6u8.encode(out);
                update.encode(out);
            }
            Event::ControlTick { bundle } => {
                7u8.encode(out);
                bundle.encode(out);
            }
            Event::SendboxRelease { bundle } => {
                8u8.encode(out);
                bundle.encode(out);
            }
            Event::RtoCheck { flow } => {
                9u8.encode(out);
                flow.encode(out);
            }
            Event::Sample { lp } => {
                10u8.encode(out);
                lp.encode(out);
            }
            Event::FluidUpdate { path } => {
                11u8.encode(out);
                path.encode(out);
            }
            Event::PathSample { path } => {
                12u8.encode(out);
                path.encode(out);
            }
        }
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => Event::FlowArrival {
                spec: u32::decode(r)?,
            },
            1 => Event::ArriveBottleneck {
                pkt: PacketId::decode(r)?,
            },
            2 => Event::PathDequeue {
                path: u32::decode(r)?,
            },
            3 => Event::ArriveDestination {
                pkt: PacketId::decode(r)?,
            },
            4 => Event::ArriveSource {
                pkt: PacketId::decode(r)?,
            },
            5 => Event::CongestionAckArrive {
                ack: CongestionAck::decode(r)?,
            },
            6 => Event::EpochUpdateArrive {
                update: EpochSizeUpdate::decode(r)?,
            },
            7 => Event::ControlTick {
                bundle: u32::decode(r)?,
            },
            8 => Event::SendboxRelease {
                bundle: u32::decode(r)?,
            },
            9 => Event::RtoCheck {
                flow: FlowId::decode(r)?,
            },
            10 => Event::Sample {
                lp: u16::decode(r)?,
            },
            11 => Event::FluidUpdate {
                path: u32::decode(r)?,
            },
            12 => Event::PathSample {
                path: u32::decode(r)?,
            },
            _ => return Err(r.error("unknown event tag")),
        })
    }
}

/// Hard ceiling on the event size: the largest variant is
/// `CongestionAckArrive` (a 40-byte `CongestionAck` plus the tag). Packets
/// are referenced by [`PacketId`]; if a future variant pushes past this,
/// put its payload in an arena or a side table instead.
pub const MAX_EVENT_SIZE: usize = 48;

const _: () = assert!(
    std::mem::size_of::<Event>() <= MAX_EVENT_SIZE,
    "Event grew past MAX_EVENT_SIZE: move the new variant's payload into an \
     arena or side table instead of carrying it inline"
);

/// Which backing structure orders the events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventEngine {
    /// Hierarchical calendar queue (the default hot-path engine).
    #[default]
    CalendarWheel,
    /// Reference binary heap (for property tests and A/B benchmarks).
    BinaryHeap,
}

/// The calendar queue's finest slot width: 2^13 ns ≈ 8.2 µs, stated as
/// the exact power of two because [`CalendarQueue::new`] rounds down to
/// one. Sub-slot ordering is exact regardless (the current slot drains
/// through a small sorted buffer), so this only trades bucket occupancy
/// against slot hops; this width measured best across the canonical
/// scenarios (see `bench_report`) at the simulated link rates.
const WHEEL_QUANTUM: Duration = Duration(1 << 13);

enum Inner {
    Wheel(CalendarQueue<Event>),
    Heap(BinaryHeapQueue<Event>),
}

/// Time-ordered event queue over `(timestamp, EventKey)`.
pub struct EventQueue {
    inner: Inner,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue at time zero on the default engine.
    pub fn new() -> Self {
        Self::with_engine(EventEngine::default())
    }

    /// Creates an empty queue on the given engine.
    pub fn with_engine(engine: EventEngine) -> Self {
        let inner = match engine {
            EventEngine::CalendarWheel => Inner::Wheel(CalendarQueue::new(WHEEL_QUANTUM)),
            EventEngine::BinaryHeap => Inner::Heap(BinaryHeapQueue::new()),
        };
        EventQueue { inner }
    }

    /// The engine backing this queue.
    pub fn engine(&self) -> EventEngine {
        match self.inner {
            Inner::Wheel(_) => EventEngine::CalendarWheel,
            Inner::Heap(_) => EventEngine::BinaryHeap,
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        match &self.inner {
            Inner::Wheel(q) => q.now(),
            Inner::Heap(q) => q.now(),
        }
    }

    /// Schedules `event` at absolute time `at` under the canonical `key`.
    /// Events scheduled in the past are clamped to the current time (they
    /// run "immediately").
    #[inline]
    pub fn schedule(&mut self, at: Nanos, key: EventKey, event: Event) {
        match &mut self.inner {
            Inner::Wheel(q) => q.schedule_keyed(at, key.0, event),
            Inner::Heap(q) => q.schedule_keyed(at, key.0, event),
        }
    }

    /// The `(timestamp, key)` of the next event without popping it — how
    /// the sharded driver decides whether the next event still belongs to
    /// the current time window.
    #[inline]
    pub fn peek(&mut self) -> Option<(Nanos, EventKey)> {
        match &mut self.inner {
            Inner::Wheel(q) => q.peek_key().map(|(t, k)| (t, EventKey(k))),
            Inner::Heap(q) => q.peek_key().map(|(t, k)| (t, EventKey(k))),
        }
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, Event)> {
        match &mut self.inner {
            Inner::Wheel(q) => q.pop(),
            Inner::Heap(q) => q.pop(),
        }
    }

    /// Pops the maximal *run* of pending events sharing the next event's
    /// `(timestamp, logical process)` into `buf` (cleared first), advancing
    /// the clock. Returns the run length (0 when the queue is empty).
    ///
    /// Within one `(timestamp, lp)` pair keys are totally ordered by the
    /// LP's own sequence, so the run is exactly the consecutive prefix of
    /// the canonical order. The simulation main loop does not use it: it
    /// pops one event at a time, since each event is dispatched on its own
    /// and batching amortized nothing. `pop_run` stays for the
    /// benchmark's event-queue probe and as the test oracle of the retired
    /// batching loop. A caller that schedules while consuming a run must
    /// merge new events against the buffer: a handler can schedule a
    /// *different* LP's event at the same timestamp with a key that sorts
    /// before the rest of the run. Same-LP events scheduled mid-run always
    /// carry higher sequences and sort after the run.
    pub fn pop_run(&mut self, buf: &mut Vec<(Nanos, EventKey, Event)>) -> usize {
        buf.clear();
        let Some((t0, k0)) = self.peek() else {
            return 0;
        };
        let lp = k0.lp();
        loop {
            let (t, key) = match self.peek() {
                Some((t, key)) if t == t0 && key.lp() == lp => (t, key),
                _ => break,
            };
            let (_, event) = self.pop().expect("peeked event must pop");
            buf.push((t, key, event));
        }
        buf.len()
    }

    /// Removes and returns every pending event matching `pred`, sorted by
    /// the canonical `(timestamp, key)` order; everything else stays
    /// queued, undisturbed. O(pending) — this is how the sharded runtime
    /// migrates a logical process's pending events between shards at a
    /// window barrier, never how the hot path runs.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Event) -> bool,
    ) -> Vec<(Nanos, EventKey, Event)> {
        let mut out: Vec<(Nanos, EventKey, Event)> = match &mut self.inner {
            Inner::Wheel(q) => q.extract_if(&mut pred),
            Inner::Heap(q) => q.extract_if(&mut pred),
        }
        .into_iter()
        .map(|(at, key, event)| (at, EventKey(key), event))
        .collect();
        out.sort_unstable_by_key(|&(at, key, _)| (at, key));
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Wheel(q) => q.len(),
            Inner::Heap(q) => q.len(),
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engines() -> [EventEngine; 2] {
        [EventEngine::CalendarWheel, EventEngine::BinaryHeap]
    }

    fn key(lp: u16, seq: u64) -> EventKey {
        EventKey::new(lp, seq)
    }

    #[test]
    fn event_key_packs_lp_and_seq() {
        let k = key(7, 42);
        assert_eq!(k.lp(), 7);
        assert_eq!(k.seq(), 42);
        assert_eq!(k.to_string(), "lp7#42");
        // Order is (lp, seq) lexicographic on the packed word.
        assert!(key(0, u64::MAX >> 17) < key(1, 0));
        assert!(key(3, 5) < key(3, 6));
    }

    #[test]
    fn events_pop_in_time_order_on_both_engines() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            q.schedule(Nanos::from_millis(5), key(0, 1), Event::Sample { lp: 0 });
            q.schedule(Nanos::from_millis(1), key(0, 2), Event::Sample { lp: 0 });
            q.schedule(Nanos::from_millis(3), key(0, 3), Event::Sample { lp: 0 });
            let times: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(t, _)| t.as_nanos() / 1_000_000)
                .collect();
            assert_eq!(times, vec![1, 3, 5], "{engine:?}");
        }
    }

    #[test]
    fn ties_break_by_key_on_both_engines() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            // Scheduled out of key order: pops must sort by (lp, seq).
            q.schedule(
                Nanos::from_millis(1),
                key(2, 1),
                Event::ControlTick { bundle: 2 },
            );
            q.schedule(
                Nanos::from_millis(1),
                key(0, 9),
                Event::ControlTick { bundle: 0 },
            );
            q.schedule(
                Nanos::from_millis(1),
                key(1, 4),
                Event::ControlTick { bundle: 1 },
            );
            let order: Vec<u32> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::ControlTick { bundle } => bundle,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![0, 1, 2], "{engine:?}");
        }
    }

    #[test]
    fn clock_advances_and_past_events_clamp() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            q.schedule(Nanos::from_millis(10), key(0, 1), Event::Sample { lp: 0 });
            assert_eq!(q.pop().unwrap().0, Nanos::from_millis(10));
            assert_eq!(q.now(), Nanos::from_millis(10));
            // Scheduling "in the past" runs at the current time, never earlier.
            q.schedule(Nanos::from_millis(1), key(0, 2), Event::Sample { lp: 0 });
            assert_eq!(q.pop().unwrap().0, Nanos::from_millis(10));
        }
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            assert_eq!(q.peek(), None);
            q.schedule(Nanos::from_millis(2), key(1, 3), Event::Sample { lp: 1 });
            q.schedule(Nanos::from_millis(1), key(4, 7), Event::Sample { lp: 4 });
            assert_eq!(
                q.peek(),
                Some((Nanos::from_millis(1), key(4, 7))),
                "{engine:?}"
            );
            assert_eq!(q.len(), 2, "peek must not consume");
            assert_eq!(q.pop().unwrap().0, Nanos::from_millis(1));
            assert_eq!(q.peek(), Some((Nanos::from_millis(2), key(1, 3))));
        }
    }

    #[test]
    fn len_and_empty() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            assert!(q.is_empty());
            q.schedule(Nanos::ZERO, key(0, 1), Event::Sample { lp: 0 });
            assert_eq!(q.len(), 1);
            q.pop();
            assert!(q.is_empty());
            assert!(q.pop().is_none());
        }
    }

    #[test]
    fn pop_run_pulls_whole_same_timestamp_lp_runs() {
        for engine in engines() {
            let mut q = EventQueue::with_engine(engine);
            let t1 = Nanos::from_millis(1);
            let t2 = Nanos::from_millis(2);
            q.schedule(t1, key(3, 1), Event::ControlTick { bundle: 3 });
            q.schedule(t1, key(3, 2), Event::SendboxRelease { bundle: 3 });
            q.schedule(t1, key(5, 1), Event::ControlTick { bundle: 5 });
            q.schedule(t2, key(3, 3), Event::ControlTick { bundle: 3 });
            let mut buf = Vec::new();
            // Run 1: both lp-3 events at t1, not the lp-5 one.
            assert_eq!(q.pop_run(&mut buf), 2, "{engine:?}");
            assert_eq!(
                buf.iter().map(|&(t, k, _)| (t, k)).collect::<Vec<_>>(),
                vec![(t1, key(3, 1)), (t1, key(3, 2))]
            );
            // Run 2: lp 5 at t1. Run 3: lp 3 again at t2.
            assert_eq!(q.pop_run(&mut buf), 1);
            assert_eq!(buf[0].1, key(5, 1));
            assert_eq!(q.pop_run(&mut buf), 1);
            assert_eq!((buf[0].0, buf[0].1), (t2, key(3, 3)));
            assert_eq!(q.pop_run(&mut buf), 0, "empty queue yields no run");
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn pop_run_sequence_matches_one_at_a_time_pops() {
        // Property: concatenating pop_run buffers replays exactly the pop()
        // sequence, on both engines, for an adversarial schedule (many ties,
        // interleaved LPs, clamped past events).
        for engine in engines() {
            let mut a = EventQueue::with_engine(engine);
            let mut b = EventQueue::with_engine(engine);
            let mut x: u64 = 0x2545_f491_4f6c_dd1d;
            for i in 0..500u64 {
                // xorshift: cheap deterministic pseudo-randomness.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let t = Nanos::from_micros((x % 97) * ((x >> 32) & 7));
                let lp = (x % 5) as u16;
                let k = key(lp, i);
                let ev = Event::Sample { lp };
                a.schedule(t, k, ev);
                b.schedule(t, k, ev);
            }
            let singles: Vec<(Nanos, u16)> = std::iter::from_fn(|| {
                let (t, k) = b.peek()?;
                b.pop();
                Some((t, k.lp()))
            })
            .collect();
            let mut runs = Vec::new();
            let mut buf = Vec::new();
            while a.pop_run(&mut buf) > 0 {
                runs.extend(buf.iter().map(|&(t, k, _)| (t, k.lp())));
            }
            assert_eq!(runs, singles, "{engine:?}");
        }
    }

    #[test]
    fn default_engine_is_the_calendar_wheel() {
        assert_eq!(EventQueue::new().engine(), EventEngine::CalendarWheel);
    }

    #[test]
    fn event_stays_arena_sized() {
        // The compile-time guard enforces the bound; this records the
        // actual number so a future bump is a conscious decision.
        let size = std::mem::size_of::<Event>();
        assert!(
            size <= MAX_EVENT_SIZE,
            "Event is {size} bytes (cap {MAX_EVENT_SIZE})"
        );
    }
}
