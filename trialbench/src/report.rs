//! The metrics the command prints, and the result line.
//!
//! Both tables must match `BENCHMARK.json` entry for entry; a test holds
//! them to it.

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as declared.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("best_trial_ms_p50", "ms"),
    m("best_trial_ms_tail", "ms"),
    m("flows_per_s", "1/s"),
    m("sim_s_per_wall_s", "s/s"),
    m("peak_rss_mb", "MiB"),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("scenario.workload_ms", "ms"),
    m("scenario.flows", "count"),
    m("sim.build_ms", "ms"),
    m("sim.run_ms", "ms"),
    m("sim.events", "count"),
    m("sim.events_per_s", "1/s"),
    m("sim.packets", "count"),
    m("sim.packets_recycled_frac", "frac"),
    m("sim.bottleneck_drops", "count"),
    m("sim.event.ns_per_op", "ns"),
    m("types.arena.ns_per_op", "ns"),
    m("sim.tcp.ns_per_ack", "ns"),
    m("sim.path.ns_per_pkt", "ns"),
    m("sched.enqueued", "count"),
    m("sched.dropped", "count"),
    m("sched.drop_frac", "frac"),
    m("sched.ns_per_pkt", "ns"),
    m("core.control_ticks", "count"),
    m("core.epoch_updates", "count"),
    m("core.mode_changes", "count"),
    m("core.ns_per_tick", "ns"),
    m("agent.classified", "count"),
    m("agent.acks_delivered", "count"),
    m("agent.ticks_run", "count"),
    m("agent.advances", "count"),
    m("agent.classify_ns", "ns"),
    m("agent.tick_ns", "ns"),
    m("shard.windows", "count"),
    m("shard.inbox_messages", "count"),
    m("shard.mailbox_spills", "count"),
    m("shard.migrations", "count"),
    m("shard.busy_frac", "frac"),
    m("shard.stall_frac", "frac"),
    m("shard.net_frac", "frac"),
    m("shard.mailbox_ns_per_msg", "ns"),
    m("shard.wire_ns_per_frame", "ns"),
    m("sim.fluid.updates", "count"),
    m("sim.fluid.ns_per_update", "ns"),
    m("snapshot.count", "count"),
    m("snapshot.bytes", "bytes"),
    m("snapshot.encode_ms", "ms"),
    m("snapshot.restore_ms", "ms"),
    m("snapshot.resume_run_ms", "ms"),
    m("obs.stream_lines", "count"),
    m("obs.sampled_flows", "count"),
    m("obs.health_events", "count"),
    m("obs.trace_ring_dropped", "count"),
    m("obs.reduce_ms", "ms"),
    m("ledger.explained_frac", "frac"),
    m("ledger.residue_ms", "ms"),
    m("trace.overhead_frac", "frac"),
    m("host.parallelism", "count"),
    m("host.ref_loop_ms_start", "ms"),
    m("host.ref_loop_ms_end", "ms"),
];

/// Metric values by name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets a metric's value. Panics on a name set twice, which is a bug
    /// in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} is set twice");
        self.0.push((name, value));
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Formats a measured number with all its digits. Non-finite values,
/// which JSON cannot carry, print as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: one JSON object with every metric of `defs`, in
/// table order. Panics when `values` misses a metric of `defs` or holds
/// one that is not in it, so a printed metric is always a declared one.
pub fn result_line(defs: &[MetricDef], values: &Values, attempted: u64, failed: u64) -> String {
    for (name, _) in &values.0 {
        assert!(
            defs.iter().any(|d| d.name == *name),
            "metric {name} is not declared"
        );
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}
