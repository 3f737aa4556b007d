//! Streaming telemetry export: trace rings and metrics flush incrementally
//! to a JSONL sink at window barriers, so a long run's observability
//! memory is ring-capacity sized, not run-length sized.
//!
//! ## Line protocol
//!
//! One JSON object per line, all-numeric except the `"k"` kind tag:
//!
//! ```text
//! {"at":12500000,"shard":1,"seq":42,"k":"rate","bundle":3,"rate_bps":12000000}
//! ```
//!
//! * `at` — sim-time ns; `shard` — producing shard ([`crate::NET_SHARD`]
//!   = 65535 for the net side); `seq` — per-shard push counter.
//! * Wall-clock stamps are deliberately **not** exported on a record's
//!   envelope (host-side span kinds carry their wall-derived payload
//!   fields), so two runs of the same simulation stream the same portable
//!   bytes.
//! * Metrics piggyback as meta lines (`{"meta":"metrics",...}`) at each
//!   flush; consumers that only want the trace skip lines containing a
//!   `meta` key.
//!
//! ## Canonical order
//!
//! Lines are appended flush-by-flush, so the *file* order interleaves
//! shards nondeterministically. Sorting parsed records by
//! `(at, shard, seq)` ([`sort_canonical`]) reproduces exactly the order of
//! the in-memory merged trace (`assemble_report` concatenates shards in
//! index order — net last — then stable-sorts by `at`), which is what
//! makes the streamed path byte-equivalent to
//! [`crate::ObsReport::to_jsonl`].

use std::io::Write;
use std::sync::{Arc, Mutex};

use bundler_types::Nanos;

use crate::metrics::MetricsShard;
use crate::trace::{TraceKind, TraceRecord, TraceRing};

/// Locks the sink, recovering from a poisoned mutex (a panicking thread
/// can only have poisoned it mid-write; the stream is best-effort output).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct StreamInner {
    out: Box<dyn Write + Send>,
    /// Sticky failure: after the first write error the sink goes quiet
    /// (streaming is pure output — it must never panic a run).
    failed: bool,
    lines: u64,
    /// The line being written, reused across lines and flushes.
    line: Vec<u8>,
}

impl StreamInner {
    /// Writes the buffered line and its newline in one `write_all`.
    fn emit_line(&mut self) {
        self.line.push(b'\n');
        if self.out.write_all(&self.line).is_err() {
            self.failed = true;
        } else {
            self.lines += 1;
        }
    }
}

/// A shared, thread-safe JSONL sink. Clones share the underlying writer,
/// so one sink serves every shard of a run; `SimulationConfig` carries it
/// by value (cloning a config clones the handle, not the stream).
#[derive(Clone)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamInner>>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("lines", &lock(&self.inner).lines)
            .finish_non_exhaustive()
    }
}

/// The in-memory buffer behind [`StreamSink::to_shared_vec`] (tests and
/// in-process consumers).
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&lock(&self.0)).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StreamSink {
    /// Wraps any writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        StreamSink {
            inner: Arc::new(Mutex::new(StreamInner {
                out,
                failed: false,
                lines: 0,
                line: Vec::with_capacity(128),
            })),
        }
    }

    /// Streams to a file (buffered).
    pub fn to_path(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(StreamSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Streams into a shared in-memory buffer (tests).
    pub fn to_shared_vec() -> (Self, SharedBuf) {
        let buf = SharedBuf::default();
        (StreamSink::new(Box::new(buf.clone())), buf)
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        lock(&self.inner).lines
    }

    /// Serializes one barrier's worth of trace records, assigning
    /// per-shard sequence numbers from `seq` in push order, and clears the
    /// ring. Dropped-record counts stay in the ring (they surface through
    /// `HostMetrics::trace_ring_dropped`).
    pub fn flush_ring(&self, ring: &mut TraceRing, seq: &mut u64) {
        if ring.pending().is_empty() {
            return;
        }
        let inner = &mut *lock(&self.inner);
        for rec in ring.pending() {
            if !inner.failed {
                inner.line.clear();
                render_line_into(&mut inner.line, rec, *seq);
                inner.emit_line();
            }
            *seq += 1;
        }
        ring.clear_pending();
    }

    /// Emits a cumulative-counters meta line for one shard (skipped by
    /// trace consumers; `obs_query` can plot counter series from these).
    pub fn write_metrics(&self, at: Nanos, shard: u16, metrics: &MetricsShard) {
        let inner = &mut *lock(&self.inner);
        if inner.failed {
            return;
        }
        let line = &mut inner.line;
        line.clear();
        line.extend_from_slice(b"{\"meta\":\"metrics\",\"at\":");
        push_decimal(line, at.as_nanos());
        line.extend_from_slice(b",\"shard\":");
        push_decimal(line, shard as u64);
        line.extend_from_slice(b",\"c\":[");
        for (i, &c) in metrics.counters().iter().enumerate() {
            if i > 0 {
                line.push(b',');
            }
            push_decimal(line, c);
        }
        line.extend_from_slice(b"]}");
        inner.emit_line();
    }

    /// Flushes the underlying writer (end of run, and before a snapshot is
    /// published so a restore resumes from a complete prefix).
    pub fn flush_io(&self) {
        let inner = &mut *lock(&self.inner);
        if !inner.failed && inner.out.flush().is_err() {
            inner.failed = true;
        }
    }
}

/// Stable lowercase tag per record kind.
fn kind_tag(kind: &TraceKind) -> &'static str {
    match kind {
        TraceKind::Enqueue { .. } => "enq",
        TraceKind::Dequeue { .. } => "deq",
        TraceKind::Drop { .. } => "drop",
        TraceKind::ModeChange { .. } => "mode",
        TraceKind::RateChange { .. } => "rate",
        TraceKind::Epoch { .. } => "epoch",
        TraceKind::Migration { .. } => "migrate",
        TraceKind::WorkerWindow { .. } => "window",
        TraceKind::NetPhase { .. } => "netphase",
        TraceKind::FluidLevel { .. } => "fluid",
        TraceKind::FlowAdmit { .. } => "flow_admit",
        TraceKind::FlowSendbox { .. } => "flow_sendbox",
        TraceKind::FlowBottleneck { .. } => "flow_bn",
        TraceKind::FlowEnd { .. } => "flow_end",
        TraceKind::Health { .. } => "health",
        TraceKind::FluidAgg { .. } => "fluid_agg",
    }
}

/// Appends `v` in decimal: the digits `core::fmt` prints, without its
/// formatting machinery (the stream renders tens of thousands of lines a
/// run).
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

fn render_line_into(out: &mut Vec<u8>, rec: &TraceRecord, seq: u64) {
    out.extend_from_slice(b"{\"at\":");
    push_decimal(out, rec.at.as_nanos());
    out.extend_from_slice(b",\"shard\":");
    push_decimal(out, rec.shard as u64);
    out.extend_from_slice(b",\"seq\":");
    push_decimal(out, seq);
    out.extend_from_slice(b",\"k\":\"");
    out.extend_from_slice(kind_tag(&rec.kind).as_bytes());
    out.push(b'"');
    let mut f = |name: &str, v: u64| {
        out.extend_from_slice(b",\"");
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b"\":");
        push_decimal(out, v);
    };
    match rec.kind {
        TraceKind::Enqueue { bundle } => f("bundle", bundle as u64),
        TraceKind::Dequeue { bundle, sojourn_ns } => {
            f("bundle", bundle as u64);
            f("sojourn_ns", sojourn_ns);
        }
        TraceKind::Drop { bundle } => f("bundle", bundle as u64),
        TraceKind::ModeChange { bundle, mode } => {
            f("bundle", bundle as u64);
            f("mode", mode as u64);
        }
        TraceKind::RateChange { bundle, rate_bps } => {
            f("bundle", bundle as u64);
            f("rate_bps", rate_bps);
        }
        TraceKind::Epoch { bundle, size_pkts } => {
            f("bundle", bundle as u64);
            f("size_pkts", size_pkts);
        }
        TraceKind::Migration {
            bundle,
            from,
            to,
            pkts,
            bytes,
        } => {
            f("bundle", bundle as u64);
            f("from", from as u64);
            f("to", to as u64);
            f("pkts", pkts);
            f("bytes", bytes);
        }
        TraceKind::WorkerWindow {
            windex,
            width_ns,
            busy_ns,
            stall_ns,
            events,
        } => {
            f("windex", windex);
            f("width_ns", width_ns);
            f("busy_ns", busy_ns);
            f("stall_ns", stall_ns);
            f("events", events);
        }
        TraceKind::NetPhase {
            windex,
            width_ns,
            wall_dur_ns,
            events,
        } => {
            f("windex", windex);
            f("width_ns", width_ns);
            f("wall_dur_ns", wall_dur_ns);
            f("events", events);
        }
        TraceKind::FluidLevel {
            path,
            backlog_bytes,
            rate_bps,
        } => {
            f("path", path as u64);
            f("backlog_bytes", backlog_bytes);
            f("rate_bps", rate_bps);
        }
        TraceKind::FlowAdmit {
            flow,
            bundle,
            size_bytes,
        } => {
            f("flow", flow);
            f("bundle", bundle as u64);
            f("size_bytes", size_bytes);
        }
        TraceKind::FlowSendbox { flow, sojourn_ns } => {
            f("flow", flow);
            f("sojourn_ns", sojourn_ns);
        }
        TraceKind::FlowBottleneck { flow, sojourn_ns } => {
            f("flow", flow);
            f("sojourn_ns", sojourn_ns);
        }
        TraceKind::FlowEnd {
            flow,
            fct_ns,
            sendbox_ns,
            slowdown_milli,
        } => {
            f("flow", flow);
            f("fct_ns", fct_ns);
            f("sendbox_ns", sendbox_ns);
            f("slowdown_milli", slowdown_milli);
        }
        TraceKind::Health {
            kind,
            subject,
            value,
        } => {
            f("kind", kind as u64);
            f("subject", subject as u64);
            f("value", value);
        }
        TraceKind::FluidAgg {
            agg,
            path,
            rate_bps,
        } => {
            f("agg", agg as u64);
            f("path", path as u64);
            f("rate_bps", rate_bps);
        }
    }
    out.push(b'}');
}

/// Renders one record as its canonical stream line (no trailing newline).
pub fn render_line(rec: &TraceRecord, seq: u64) -> String {
    let mut line = Vec::with_capacity(128);
    render_line_into(&mut line, rec, seq);
    String::from_utf8(line).expect("stream lines are ASCII")
}

/// One parsed stream line: the record (with `wall_ns` zeroed — the stream
/// deliberately carries no envelope wall stamp) and its per-shard sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedRecord {
    /// Per-shard sequence number.
    pub seq: u64,
    /// The reconstructed record.
    pub rec: TraceRecord,
}

/// Extracts a numeric field from a flat JSON object line.
fn num_field(line: &str, name: &str) -> Option<u64> {
    let pat = format!("\"{name}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts a string field from a flat JSON object line.
fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("\"{name}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Parses one stream line back into a record. Returns `None` for meta
/// lines, blank lines and anything malformed — consumers iterate
/// `lines().filter_map(parse_line)`.
pub fn parse_line(line: &str) -> Option<StreamedRecord> {
    if line.is_empty() || line.contains("\"meta\":") {
        return None;
    }
    let at = Nanos(num_field(line, "at")?);
    let shard = num_field(line, "shard")? as u16;
    let seq = num_field(line, "seq")?;
    let k = str_field(line, "k")?;
    let n = |name: &str| num_field(line, name);
    let kind = match k {
        "enq" => TraceKind::Enqueue {
            bundle: n("bundle")? as u32,
        },
        "deq" => TraceKind::Dequeue {
            bundle: n("bundle")? as u32,
            sojourn_ns: n("sojourn_ns")?,
        },
        "drop" => TraceKind::Drop {
            bundle: n("bundle")? as u32,
        },
        "mode" => TraceKind::ModeChange {
            bundle: n("bundle")? as u32,
            mode: n("mode")? as u8,
        },
        "rate" => TraceKind::RateChange {
            bundle: n("bundle")? as u32,
            rate_bps: n("rate_bps")?,
        },
        "epoch" => TraceKind::Epoch {
            bundle: n("bundle")? as u32,
            size_pkts: n("size_pkts")?,
        },
        "migrate" => TraceKind::Migration {
            bundle: n("bundle")? as u32,
            from: n("from")? as u16,
            to: n("to")? as u16,
            pkts: n("pkts")?,
            bytes: n("bytes")?,
        },
        "window" => TraceKind::WorkerWindow {
            windex: n("windex")?,
            width_ns: n("width_ns")?,
            busy_ns: n("busy_ns")?,
            stall_ns: n("stall_ns")?,
            events: n("events")?,
        },
        "netphase" => TraceKind::NetPhase {
            windex: n("windex")?,
            width_ns: n("width_ns")?,
            wall_dur_ns: n("wall_dur_ns")?,
            events: n("events")?,
        },
        "fluid" => TraceKind::FluidLevel {
            path: n("path")? as u32,
            backlog_bytes: n("backlog_bytes")?,
            rate_bps: n("rate_bps")?,
        },
        "flow_admit" => TraceKind::FlowAdmit {
            flow: n("flow")?,
            bundle: n("bundle")? as u32,
            size_bytes: n("size_bytes")?,
        },
        "flow_sendbox" => TraceKind::FlowSendbox {
            flow: n("flow")?,
            sojourn_ns: n("sojourn_ns")?,
        },
        "flow_bn" => TraceKind::FlowBottleneck {
            flow: n("flow")?,
            sojourn_ns: n("sojourn_ns")?,
        },
        "flow_end" => TraceKind::FlowEnd {
            flow: n("flow")?,
            fct_ns: n("fct_ns")?,
            sendbox_ns: n("sendbox_ns")?,
            slowdown_milli: n("slowdown_milli")?,
        },
        "health" => TraceKind::Health {
            kind: n("kind")? as u8,
            subject: n("subject")? as u32,
            value: n("value")?,
        },
        "fluid_agg" => TraceKind::FluidAgg {
            agg: n("agg")? as u32,
            path: n("path")? as u32,
            rate_bps: n("rate_bps")?,
        },
        _ => return None,
    };
    Some(StreamedRecord {
        seq,
        rec: TraceRecord {
            at,
            wall_ns: 0,
            shard,
            kind,
        },
    })
}

/// Sorts parsed records into the canonical merged-trace order:
/// `(at, shard, seq)`. [`crate::NET_SHARD`] is `u16::MAX`, so net records
/// land after every worker at the same sim-time — exactly the in-memory
/// merge order.
pub fn sort_canonical(records: &mut [StreamedRecord]) {
    records.sort_by_key(|r| (r.rec.at, r.rec.shard, r.seq));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CounterId;

    fn rec(at: u64, shard: u16, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: Nanos(at),
            wall_ns: 777, // must never appear in the line
            shard,
            kind,
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_line_protocol() {
        let kinds = vec![
            TraceKind::Enqueue { bundle: 1 },
            TraceKind::Dequeue {
                bundle: 2,
                sojourn_ns: 3,
            },
            TraceKind::Drop { bundle: 4 },
            TraceKind::ModeChange { bundle: 5, mode: 1 },
            TraceKind::RateChange {
                bundle: 6,
                rate_bps: 7_000_000,
            },
            TraceKind::Epoch {
                bundle: 8,
                size_pkts: 16,
            },
            TraceKind::Migration {
                bundle: 9,
                from: 0,
                to: 1,
                pkts: 10,
                bytes: 11,
            },
            TraceKind::WorkerWindow {
                windex: 12,
                width_ns: 13,
                busy_ns: 14,
                stall_ns: 15,
                events: 16,
            },
            TraceKind::NetPhase {
                windex: 17,
                width_ns: 18,
                wall_dur_ns: 19,
                events: 20,
            },
            TraceKind::FluidLevel {
                path: 21,
                backlog_bytes: 22,
                rate_bps: 23,
            },
            TraceKind::FlowAdmit {
                flow: 24,
                bundle: 25,
                size_bytes: 26,
            },
            TraceKind::FlowSendbox {
                flow: 27,
                sojourn_ns: 28,
            },
            TraceKind::FlowBottleneck {
                flow: 29,
                sojourn_ns: 30,
            },
            TraceKind::FlowEnd {
                flow: 31,
                fct_ns: 32,
                sendbox_ns: 33,
                slowdown_milli: 34,
            },
            TraceKind::Health {
                kind: 2,
                subject: 35,
                value: 36,
            },
            TraceKind::FluidAgg {
                agg: 37,
                path: 38,
                rate_bps: 39,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let r = rec(1000 + i as u64, i as u16, kind);
            let line = render_line(&r, i as u64);
            assert!(!line.contains("777"), "wall stamp leaked: {line}");
            let parsed = parse_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(parsed.seq, i as u64);
            assert_eq!(parsed.rec.at, r.at);
            assert_eq!(parsed.rec.shard, r.shard);
            assert_eq!(parsed.rec.kind, r.kind);
        }
    }

    /// One record of every kind with every field set to `v`, narrowed
    /// fields saturating at their type's maximum.
    fn every_kind_at(v: u64) -> Vec<TraceKind> {
        let v8 = v.min(u8::MAX as u64) as u8;
        let v16 = v.min(u16::MAX as u64) as u16;
        let v32 = v.min(u32::MAX as u64) as u32;
        vec![
            TraceKind::Enqueue { bundle: v32 },
            TraceKind::Dequeue {
                bundle: v32,
                sojourn_ns: v,
            },
            TraceKind::Drop { bundle: v32 },
            TraceKind::ModeChange {
                bundle: v32,
                mode: v8,
            },
            TraceKind::RateChange {
                bundle: v32,
                rate_bps: v,
            },
            TraceKind::Epoch {
                bundle: v32,
                size_pkts: v,
            },
            TraceKind::Migration {
                bundle: v32,
                from: v16,
                to: v16,
                pkts: v,
                bytes: v,
            },
            TraceKind::WorkerWindow {
                windex: v,
                width_ns: v,
                busy_ns: v,
                stall_ns: v,
                events: v,
            },
            TraceKind::NetPhase {
                windex: v,
                width_ns: v,
                wall_dur_ns: v,
                events: v,
            },
            TraceKind::FluidLevel {
                path: v32,
                backlog_bytes: v,
                rate_bps: v,
            },
            TraceKind::FlowAdmit {
                flow: v,
                bundle: v32,
                size_bytes: v,
            },
            TraceKind::FlowSendbox {
                flow: v,
                sojourn_ns: v,
            },
            TraceKind::FlowBottleneck {
                flow: v,
                sojourn_ns: v,
            },
            TraceKind::FlowEnd {
                flow: v,
                fct_ns: v,
                sendbox_ns: v,
                slowdown_milli: v,
            },
            TraceKind::Health {
                kind: v8,
                subject: v32,
                value: v,
            },
            TraceKind::FluidAgg {
                agg: v32,
                path: v32,
                rate_bps: v,
            },
        ]
    }

    /// The exact bytes of every record kind at field values 0, 9, 10 and
    /// `u64::MAX`, then one metrics meta line. Pinned from the
    /// `core::fmt` renderer, so any change of digits, spacing or field
    /// order in the line protocol fails here, not only in a round trip.
    const GOLDEN: &str = r#"{"at":0,"shard":0,"seq":0,"k":"enq","bundle":0}
{"at":0,"shard":0,"seq":0,"k":"deq","bundle":0,"sojourn_ns":0}
{"at":0,"shard":0,"seq":0,"k":"drop","bundle":0}
{"at":0,"shard":0,"seq":0,"k":"mode","bundle":0,"mode":0}
{"at":0,"shard":0,"seq":0,"k":"rate","bundle":0,"rate_bps":0}
{"at":0,"shard":0,"seq":0,"k":"epoch","bundle":0,"size_pkts":0}
{"at":0,"shard":0,"seq":0,"k":"migrate","bundle":0,"from":0,"to":0,"pkts":0,"bytes":0}
{"at":0,"shard":0,"seq":0,"k":"window","windex":0,"width_ns":0,"busy_ns":0,"stall_ns":0,"events":0}
{"at":0,"shard":0,"seq":0,"k":"netphase","windex":0,"width_ns":0,"wall_dur_ns":0,"events":0}
{"at":0,"shard":0,"seq":0,"k":"fluid","path":0,"backlog_bytes":0,"rate_bps":0}
{"at":0,"shard":0,"seq":0,"k":"flow_admit","flow":0,"bundle":0,"size_bytes":0}
{"at":0,"shard":0,"seq":0,"k":"flow_sendbox","flow":0,"sojourn_ns":0}
{"at":0,"shard":0,"seq":0,"k":"flow_bn","flow":0,"sojourn_ns":0}
{"at":0,"shard":0,"seq":0,"k":"flow_end","flow":0,"fct_ns":0,"sendbox_ns":0,"slowdown_milli":0}
{"at":0,"shard":0,"seq":0,"k":"health","kind":0,"subject":0,"value":0}
{"at":0,"shard":0,"seq":0,"k":"fluid_agg","agg":0,"path":0,"rate_bps":0}
{"at":9,"shard":9,"seq":9,"k":"enq","bundle":9}
{"at":9,"shard":9,"seq":9,"k":"deq","bundle":9,"sojourn_ns":9}
{"at":9,"shard":9,"seq":9,"k":"drop","bundle":9}
{"at":9,"shard":9,"seq":9,"k":"mode","bundle":9,"mode":9}
{"at":9,"shard":9,"seq":9,"k":"rate","bundle":9,"rate_bps":9}
{"at":9,"shard":9,"seq":9,"k":"epoch","bundle":9,"size_pkts":9}
{"at":9,"shard":9,"seq":9,"k":"migrate","bundle":9,"from":9,"to":9,"pkts":9,"bytes":9}
{"at":9,"shard":9,"seq":9,"k":"window","windex":9,"width_ns":9,"busy_ns":9,"stall_ns":9,"events":9}
{"at":9,"shard":9,"seq":9,"k":"netphase","windex":9,"width_ns":9,"wall_dur_ns":9,"events":9}
{"at":9,"shard":9,"seq":9,"k":"fluid","path":9,"backlog_bytes":9,"rate_bps":9}
{"at":9,"shard":9,"seq":9,"k":"flow_admit","flow":9,"bundle":9,"size_bytes":9}
{"at":9,"shard":9,"seq":9,"k":"flow_sendbox","flow":9,"sojourn_ns":9}
{"at":9,"shard":9,"seq":9,"k":"flow_bn","flow":9,"sojourn_ns":9}
{"at":9,"shard":9,"seq":9,"k":"flow_end","flow":9,"fct_ns":9,"sendbox_ns":9,"slowdown_milli":9}
{"at":9,"shard":9,"seq":9,"k":"health","kind":9,"subject":9,"value":9}
{"at":9,"shard":9,"seq":9,"k":"fluid_agg","agg":9,"path":9,"rate_bps":9}
{"at":10,"shard":10,"seq":10,"k":"enq","bundle":10}
{"at":10,"shard":10,"seq":10,"k":"deq","bundle":10,"sojourn_ns":10}
{"at":10,"shard":10,"seq":10,"k":"drop","bundle":10}
{"at":10,"shard":10,"seq":10,"k":"mode","bundle":10,"mode":10}
{"at":10,"shard":10,"seq":10,"k":"rate","bundle":10,"rate_bps":10}
{"at":10,"shard":10,"seq":10,"k":"epoch","bundle":10,"size_pkts":10}
{"at":10,"shard":10,"seq":10,"k":"migrate","bundle":10,"from":10,"to":10,"pkts":10,"bytes":10}
{"at":10,"shard":10,"seq":10,"k":"window","windex":10,"width_ns":10,"busy_ns":10,"stall_ns":10,"events":10}
{"at":10,"shard":10,"seq":10,"k":"netphase","windex":10,"width_ns":10,"wall_dur_ns":10,"events":10}
{"at":10,"shard":10,"seq":10,"k":"fluid","path":10,"backlog_bytes":10,"rate_bps":10}
{"at":10,"shard":10,"seq":10,"k":"flow_admit","flow":10,"bundle":10,"size_bytes":10}
{"at":10,"shard":10,"seq":10,"k":"flow_sendbox","flow":10,"sojourn_ns":10}
{"at":10,"shard":10,"seq":10,"k":"flow_bn","flow":10,"sojourn_ns":10}
{"at":10,"shard":10,"seq":10,"k":"flow_end","flow":10,"fct_ns":10,"sendbox_ns":10,"slowdown_milli":10}
{"at":10,"shard":10,"seq":10,"k":"health","kind":10,"subject":10,"value":10}
{"at":10,"shard":10,"seq":10,"k":"fluid_agg","agg":10,"path":10,"rate_bps":10}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"enq","bundle":4294967295}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"deq","bundle":4294967295,"sojourn_ns":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"drop","bundle":4294967295}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"mode","bundle":4294967295,"mode":255}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"rate","bundle":4294967295,"rate_bps":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"epoch","bundle":4294967295,"size_pkts":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"migrate","bundle":4294967295,"from":65535,"to":65535,"pkts":18446744073709551615,"bytes":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"window","windex":18446744073709551615,"width_ns":18446744073709551615,"busy_ns":18446744073709551615,"stall_ns":18446744073709551615,"events":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"netphase","windex":18446744073709551615,"width_ns":18446744073709551615,"wall_dur_ns":18446744073709551615,"events":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"fluid","path":4294967295,"backlog_bytes":18446744073709551615,"rate_bps":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"flow_admit","flow":18446744073709551615,"bundle":4294967295,"size_bytes":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"flow_sendbox","flow":18446744073709551615,"sojourn_ns":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"flow_bn","flow":18446744073709551615,"sojourn_ns":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"flow_end","flow":18446744073709551615,"fct_ns":18446744073709551615,"sendbox_ns":18446744073709551615,"slowdown_milli":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"health","kind":255,"subject":4294967295,"value":18446744073709551615}
{"at":18446744073709551615,"shard":65535,"seq":18446744073709551615,"k":"fluid_agg","agg":4294967295,"path":4294967295,"rate_bps":18446744073709551615}
{"meta":"metrics","at":18446744073709551615,"shard":9,"c":[0,9,10,18446744073709551615,0,0,0,0,0,0,0,0]}
"#;

    #[test]
    fn stream_bytes_match_the_golden_lines() {
        let records: Vec<(TraceRecord, u64)> = [0, 9, 10, u64::MAX]
            .into_iter()
            .flat_map(|v| {
                let shard = v.min(u16::MAX as u64) as u16;
                every_kind_at(v)
                    .into_iter()
                    .map(move |k| (rec(v, shard, k), v))
            })
            .collect();
        let mut text = String::new();
        for (r, seq) in &records {
            text.push_str(&render_line(r, *seq));
            text.push('\n');
        }
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut m = MetricsShard::default();
        m.add(CounterId::SendboxDropped, 9);
        m.add(CounterId::AqmDrops, 10);
        m.add(CounterId::CodelDropEntries, u64::MAX);
        sink.write_metrics(Nanos(u64::MAX), 9, &m);
        text.push_str(&buf.contents());
        assert_eq!(text, GOLDEN);

        // The sink writes exactly the rendered line plus a newline.
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut ring = TraceRing::with_capacity(records.len(), records.len());
        let mut expected = String::new();
        for (i, (r, _)) in records.iter().enumerate() {
            ring.push(*r);
            expected.push_str(&render_line(r, i as u64));
            expected.push('\n');
        }
        let mut seq = 0;
        sink.flush_ring(&mut ring, &mut seq);
        assert_eq!(buf.contents(), expected);
        assert_eq!(sink.lines(), records.len() as u64);
    }

    #[test]
    fn meta_and_garbage_lines_are_skipped() {
        assert!(parse_line("").is_none());
        assert!(parse_line("{\"meta\":\"metrics\",\"at\":1,\"shard\":0,\"c\":[1,2]}").is_none());
        assert!(parse_line("not json at all").is_none());
        assert!(parse_line("{\"at\":1,\"shard\":0,\"seq\":0,\"k\":\"unknown\"}").is_none());
    }

    #[test]
    fn sink_streams_ring_contents_and_clears_it() {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut ring = TraceRing::with_capacity(8, 8);
        let mut seq = 0u64;
        for i in 0..3u64 {
            ring.push(rec(i * 10, 0, TraceKind::Enqueue { bundle: i as u32 }));
        }
        sink.flush_ring(&mut ring, &mut seq);
        assert_eq!(seq, 3);
        assert!(ring.is_empty());
        // A second barrier keeps counting from where the first stopped.
        ring.push(rec(100, 0, TraceKind::Drop { bundle: 9 }));
        sink.flush_ring(&mut ring, &mut seq);
        assert_eq!(seq, 4);
        sink.flush_io();
        let text = buf.contents();
        let parsed: Vec<StreamedRecord> = text.lines().filter_map(parse_line).collect();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[3].seq, 3);
        assert_eq!(parsed[3].rec.kind, TraceKind::Drop { bundle: 9 });
        assert_eq!(sink.lines(), 4);
    }

    /// Accepts `ok_writes` writes into a shared buffer, then fails every
    /// call (counting them).
    struct FailingWriter {
        buf: SharedBuf,
        ok_writes: usize,
        calls: Arc<Mutex<usize>>,
    }

    impl Write for FailingWriter {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            let mut calls = lock(&self.calls);
            *calls += 1;
            if *calls > self.ok_writes {
                return Err(std::io::Error::other("disk full"));
            }
            self.buf.write(data)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::Error::other("disk full"))
        }
    }

    #[test]
    fn a_write_error_mid_flush_makes_the_sink_quiet() {
        let buf = SharedBuf::default();
        let calls = Arc::new(Mutex::new(0));
        let sink = StreamSink::new(Box::new(FailingWriter {
            buf: buf.clone(),
            ok_writes: 2,
            calls: calls.clone(),
        }));
        let mut ring = TraceRing::with_capacity(8, 8);
        for i in 0..5u64 {
            ring.push(rec(i, 0, TraceKind::Drop { bundle: i as u32 }));
        }
        let mut seq = 0;
        sink.flush_ring(&mut ring, &mut seq);
        // Sequence numbers stay in step with the ring even when lines are
        // lost, and the ring is still cleared.
        assert_eq!(seq, 5);
        assert!(ring.is_empty());
        assert_eq!(sink.lines(), 2);
        assert_eq!(*lock(&calls), 3, "writes continued after the first error");

        // Later flushes, meta lines and the final flush stay silent.
        ring.push(rec(9, 0, TraceKind::Drop { bundle: 9 }));
        sink.flush_ring(&mut ring, &mut seq);
        sink.write_metrics(Nanos(9), 0, &MetricsShard::default());
        sink.flush_io();
        assert_eq!(seq, 6);
        assert_eq!(sink.lines(), 2);
        assert_eq!(*lock(&calls), 3);
        let text = buf.contents();
        let expected: Vec<String> = (0..2u64)
            .map(|i| render_line(&rec(i, 0, TraceKind::Drop { bundle: i as u32 }), i))
            .collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn metrics_meta_lines_are_valid_but_not_records() {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut m = MetricsShard::default();
        m.add(crate::metrics::CounterId::FlowsCompleted, 5);
        sink.write_metrics(Nanos(123), 2, &m);
        let text = buf.contents();
        assert!(text.starts_with("{\"meta\":\"metrics\",\"at\":123,\"shard\":2,\"c\":["));
        assert!(text.lines().filter_map(parse_line).next().is_none());
    }

    #[test]
    fn canonical_sort_puts_net_last_within_a_timestamp() {
        let mut records = vec![
            StreamedRecord {
                seq: 0,
                rec: rec(10, crate::NET_SHARD, TraceKind::Enqueue { bundle: 0 }),
            },
            StreamedRecord {
                seq: 1,
                rec: rec(10, 0, TraceKind::Enqueue { bundle: 1 }),
            },
            StreamedRecord {
                seq: 0,
                rec: rec(10, 0, TraceKind::Enqueue { bundle: 2 }),
            },
        ];
        sort_canonical(&mut records);
        let bundles: Vec<u32> = records
            .iter()
            .map(|r| match r.rec.kind {
                TraceKind::Enqueue { bundle } => bundle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(bundles, vec![2, 1, 0]);
    }
}
