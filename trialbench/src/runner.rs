//! One run of the benchmark: set-up, the measured phase, and the result.
//!
//! A set-up generates the check seed's inputs and runs them as an untimed
//! warm-up trial. An untraced run (`--trace 0`) sets up once, then starts
//! one worker thread per core, at most [`WORKERS`]. Each worker sweeps the
//! run's [`Size::inputs`] inputs round-robin, from its own starting input,
//! until `--seconds` have passed; the first also sets up again at evenly
//! spaced points. The run keeps each input's fastest trial over all
//! workers and prints the end-to-end metrics.
//!
//! A traced run (`--trace 1`) sets up the same way, then alternates an
//! untraced and a traced round of the same [`ROUND`] trials for
//! [`TRACED_SHARE`] of `--seconds`, reading the program's own reports
//! (metrics registry on) in the traced rounds. It spends the rest driving
//! single layers ([`crate::layers`]), checkpointing (`paper_fct`) or
//! sharding (`metro_durable`) the check seed once. It prints the
//! per-layer metrics and the ledger that sets their summed costs against
//! the trial's run time.

use std::collections::BTreeMap;
use std::time::Instant;

use bundler_obs::{stream, CounterId, ObsLevel};
use bundler_shard::ShardedSimulation;
use bundler_sim::{SimReport, SimStats, Simulation};
use bundler_types::Duration;

use crate::cli::Options;
use crate::layers::{self, Costs, Shape};
use crate::report::{self, Values};
use crate::stats;
use crate::workload::{self, SimInput, Size, Tamper, TrialOutput, Workload};

/// Set-ups per untraced run; `setup_s` is their median. The first runs
/// before the measured phase, the others at evenly spaced points in it.
pub const SETUPS: usize = 17;
/// Most worker threads an untraced run sweeps its inputs with.
pub const WORKERS: usize = 2;
/// Trials per round of a traced run.
pub const ROUND: u64 = 6;
/// Share of `--seconds` a traced run spends on trial rounds.
pub const TRACED_SHARE: f64 = 0.7;

/// What a run prints: report lines, then the JSON result line.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The JSON result (the last line printed).
    pub result: String,
    /// Trials whose output was checked.
    pub attempted: u64,
    /// Trials whose check failed.
    pub failed: u64,
}

/// Counts failed checks against attempted ones.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(format!("{label}: {e}"));
            }
        }
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The check seed's set-ups, and the digest every later run of each input
/// is held to.
struct Setup {
    setup_s: Vec<f64>,
    /// Digest of each input's first run, by trial index. Index 0 holds the
    /// first set-up's digest, so every later set-up and every trial of the
    /// check seed is held to it.
    digests: Vec<Option<u64>>,
    first: TrialOutput,
}

impl Setup {
    /// The first set-up, timed from process start.
    fn new(opts: &Options, process_start: Instant, tally: &mut Tally) -> Setup {
        let first = run_input(opts, 0, false);
        let mut setup = Setup {
            setup_s: vec![secs(process_start)],
            digests: vec![None; opts.size.inputs() as usize],
            first,
        };
        let mut reference = setup.first.digest();
        if opts.tamper == Tamper::Reference {
            reference ^= 1;
        }
        setup.digests[0] = Some(reference);
        tally.record("set-up 0", workload::check(&setup.first, Some(reference)));
        setup
    }

    /// The check seed's reference digest.
    fn reference(&self) -> u64 {
        self.digests[0].expect("the first set-up records the check seed's digest")
    }
}

/// Runs the trial of input `index`. A set-up is the untraced trial of
/// input 0, the check seed.
fn run_input(opts: &Options, index: u64, traced: bool) -> TrialOutput {
    workload::run_trial(
        opts.workload,
        workload::trial_seed(opts.seed, index),
        opts.size,
        traced,
        opts.tamper,
    )
}

/// Runs the trial of input `index` and checks it: against the input's
/// first run, or, for that first run of the check seed, against the
/// set-up's reference.
fn trial(
    opts: &Options,
    setup: &mut Setup,
    index: u64,
    traced: bool,
    tally: &mut Tally,
) -> (f64, TrialOutput) {
    let start = Instant::now();
    let out = run_input(opts, index, traced);
    let ms = secs(start) * 1e3;
    let reference = &mut setup.digests[index as usize];
    tally.record(&format!("input {index}"), workload::check(&out, *reference));
    reference.get_or_insert(out.digest());
    (ms, out)
}

/// Runs one workload as `opts` says.
pub fn run(opts: &Options, process_start: Instant) -> Outcome {
    let mut tally = Tally::default();
    let mut setup = Setup::new(opts, process_start, &mut tally);
    let ref_loop_start = crate::host::reference_loop_ms();
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} trace {} host_parallelism {}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        crate::host::parallelism(),
    )];
    lines.push(checked_outputs(opts.workload, &setup));
    let mut values = Values::default();
    let defs = if opts.trace {
        traced(opts, &mut setup, &mut tally, &mut values, &mut lines);
        report::PER_LAYER
    } else {
        untraced(opts, &mut setup, &mut tally, &mut values, &mut lines);
        report::END_TO_END
    };
    let ref_loop_end = crate::host::reference_loop_ms();
    lines.push(format!(
        "host ref_loop_ms start {ref_loop_start:.3} end {ref_loop_end:.3}"
    ));
    if opts.trace {
        values.set("host.parallelism", crate::host::parallelism() as f64);
        values.set("host.ref_loop_ms_start", ref_loop_start);
        values.set("host.ref_loop_ms_end", ref_loop_end);
    }
    lines.push(format!(
        "failed_frac {} ({} of {} attempted trials failed)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    lines.extend(tally.errors.iter().map(|e| format!("FAILED {e}")));
    let result = report::result_line(defs, &values, tally.attempted, tally.failed);
    Outcome {
        lines,
        result,
        attempted: tally.attempted,
        failed: tally.failed,
    }
}

/// The check seed's digest and, for `paper_fct`, the headline: outputs
/// that performance work must leave unchanged.
fn checked_outputs(workload: Workload, setup: &Setup) -> String {
    let mut line = format!(
        "checked digest {:#018x} (check seed, {} simulation(s))",
        setup.reference(),
        setup.first.reports.len()
    );
    if let (Workload::PaperFct, [bundler, status_quo]) = (workload, setup.first.reports.as_slice())
    {
        let (b, q) = (
            bundler.median_slowdown().unwrap_or(f64::NAN),
            status_quo.median_slowdown().unwrap_or(f64::NAN),
        );
        line += &format!(
            "; headline median slowdown {q:.4} (status quo) -> {b:.4} (Bundler-SFQ), cut {:.2}%",
            100.0 * (1.0 - b / q)
        );
    }
    line
}

/// One timed run in a worker: a trial of input `index`, or a set-up when
/// `index` is `None`. The digest is checked after the workers end.
struct Sample {
    index: Option<u64>,
    ms: f64,
    digest: u64,
    flows: u64,
    sim_secs: f64,
    check: Result<(), String>,
}

impl Sample {
    fn of(index: Option<u64>, start: Instant, out: &TrialOutput) -> Sample {
        let ms = secs(start) * 1e3;
        Sample {
            index,
            ms,
            digest: out.digest(),
            flows: out.flows(),
            sim_secs: out.sim_secs,
            check: workload::check(out, None),
        }
    }
}

/// One worker's share of the measured phase: every input at least once,
/// round-robin from the worker's own starting input, then on until
/// `--seconds` have passed since `phase`. Worker 0 also runs the set-ups
/// after the first, at evenly spaced points.
fn sweep(opts: &Options, worker: usize, workers: usize, phase: Instant) -> Vec<Sample> {
    let inputs = opts.size.inputs() as usize;
    let offset = worker * inputs / workers;
    let spacing = opts.seconds / SETUPS as f64;
    let timed = |index: Option<u64>| {
        let start = Instant::now();
        let out = run_input(opts, index.unwrap_or(0), false);
        Sample::of(index, start, &out)
    };
    // Set-ups done so far; the first ran before the phase.
    let mut setups = if worker == 0 { 1 } else { SETUPS };
    let mut samples = Vec::new();
    let mut i = 0;
    while i < inputs || secs(phase) < opts.seconds {
        if setups < SETUPS && secs(phase) >= spacing * setups as f64 {
            samples.push(timed(None));
            setups += 1;
        } else {
            samples.push(timed(Some(((offset + i) % inputs) as u64)));
            i += 1;
        }
    }
    samples.extend((setups..SETUPS).map(|_| timed(None)));
    samples
}

fn untraced(
    opts: &Options,
    setup: &mut Setup,
    tally: &mut Tally,
    values: &mut Values,
    lines: &mut Vec<String>,
) {
    let inputs = opts.size.inputs() as usize;
    let workers = crate::host::parallelism().min(WORKERS);
    let phase = Instant::now();
    let per_worker: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || sweep(opts, w, workers, phase)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a worker thread panicked"))
            .collect()
    });
    let mut best_ms = vec![f64::INFINITY; inputs];
    // Completed flows and simulated seconds of each input: the same on
    // every run of it, since its digest is checked.
    let mut work = vec![(0u64, 0.0f64); inputs];
    let mut trial_ms = Vec::new();
    for (w, samples) in per_worker.iter().enumerate() {
        for s in samples {
            let Some(index) = s.index else {
                setup.setup_s.push(s.ms / 1e3);
                let result = s
                    .check
                    .clone()
                    .and_then(|()| workload::check_digest(s.digest, Some(setup.reference())));
                tally.record(&format!("worker {w} set-up"), result);
                continue;
            };
            let reference = &mut setup.digests[index as usize];
            let result = s
                .check
                .clone()
                .and_then(|()| workload::check_digest(s.digest, *reference));
            tally.record(&format!("worker {w} input {index}"), result);
            reference.get_or_insert(s.digest);
            let index = index as usize;
            trial_ms.push(s.ms);
            best_ms[index] = best_ms[index].min(s.ms);
            work[index] = (s.flows, s.sim_secs);
        }
    }
    let best_s = best_ms.iter().sum::<f64>() / 1e3;
    let flows: u64 = work.iter().map(|w| w.0).sum();
    let sim_secs: f64 = work.iter().map(|w| w.1).sum();
    let tail = stats::tail(&best_ms);
    values.set("setup_s", stats::median(&setup.setup_s));
    values.set("best_trial_ms_p50", stats::median(&best_ms));
    values.set("best_trial_ms_tail", tail.value);
    values.set("flows_per_s", flows as f64 / best_s);
    values.set("sim_s_per_wall_s", sim_secs / best_s);
    values.set(
        "peak_rss_mb",
        crate::host::peak_rss_mb().unwrap_or(f64::NAN),
    );
    lines.push(format!(
        "setup_s samples {:?}",
        setup
            .setup_s
            .iter()
            .map(|s| round(*s, 4))
            .collect::<Vec<_>>()
    ));
    lines.push(format!(
        "best_trial_ms per input {:?}",
        best_ms.iter().map(|v| round(*v, 2)).collect::<Vec<_>>()
    ));
    lines.push(format!(
        "best_trial_ms p50 {:.3} tail p{:.1} {:.3}{} over {} inputs",
        stats::median(&best_ms),
        tail.percentile,
        tail.value,
        if tail.supported {
            ""
        } else {
            " (fewer than 11 inputs: maximum)"
        },
        tail.count,
    ));
    let all = stats::tail(&trial_ms);
    lines.push(format!(
        "trial_ms p50 {:.3} tail p{:.1} {:.3} over {} trials ({:.1} per input) on {workers} worker(s)",
        stats::median(&trial_ms),
        all.percentile,
        all.value,
        all.count,
        all.count as f64 / inputs as f64
    ));
    for (w, samples) in per_worker.iter().enumerate() {
        lines.push(format!(
            "trial_ms_series worker {w} {:?}",
            samples
                .iter()
                .filter(|s| s.index.is_some())
                .map(|s| round(s.ms, 2))
                .collect::<Vec<_>>()
        ));
    }
}

fn round(v: f64, digits: i32) -> f64 {
    let f = 10f64.powi(digits);
    (v * f).round() / f
}

/// Counters read from the program's own reports, summed over trials and
/// keyed by the per-layer metric they are printed as. `run_ms`,
/// `recycled` and `checkpoint_bytes` are inputs to derived metrics.
#[derive(Debug, Default, Clone)]
struct Counts(BTreeMap<&'static str, f64>);

/// Counts printed as they are, as per-trial means.
const PRINTED_COUNTS: &[&str] = &[
    "scenario.flows",
    "sim.events",
    "sim.packets",
    "sim.bottleneck_drops",
    "sched.enqueued",
    "sched.dropped",
    "core.control_ticks",
    "core.epoch_updates",
    "core.mode_changes",
    "agent.classified",
    "agent.acks_delivered",
    "agent.ticks_run",
    "agent.advances",
    "sim.fluid.updates",
    "snapshot.count",
    "obs.stream_lines",
    "obs.sampled_flows",
    "obs.health_events",
    "obs.trace_ring_dropped",
];

impl Counts {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn add_trial(&mut self, out: &TrialOutput) {
        self.add("scenario.flows", out.flows_generated as f64);
        self.add("run_ms", out.spans.run_ms);
        for r in &out.reports {
            self.add_report(r);
        }
        if let Some(d) = &out.durable {
            self.add("snapshot.count", d.checkpoints as f64);
            self.add("checkpoint_bytes", d.middle_bytes as f64);
        }
        if let Some(buf) = &out.streamed {
            self.add("obs.stream_lines", buf.contents().lines().count() as f64);
        }
    }

    fn add_report(&mut self, r: &SimReport) {
        self.add("sim.events", r.events_processed as f64);
        self.add("sim.packets", r.packets_created as f64);
        self.add("recycled", r.packets_recycled as f64);
        self.add("sim.bottleneck_drops", r.bottleneck_drops as f64);
        if let Some(a) = &r.agent_stats {
            self.add("agent.classified", a.packets_classified as f64);
            self.add("agent.acks_delivered", a.acks_delivered as f64);
            self.add("agent.ticks_run", a.ticks_run as f64);
            self.add("agent.advances", a.advances as f64);
        }
        if let Some(obs) = &r.obs {
            for (name, id) in [
                ("sched.enqueued", CounterId::SendboxEnqueued),
                ("sched.dropped", CounterId::SendboxDropped),
                ("core.control_ticks", CounterId::ControlTicks),
                ("core.epoch_updates", CounterId::EpochUpdates),
                ("core.mode_changes", CounterId::ModeChanges),
                ("sim.fluid.updates", CounterId::FluidUpdates),
                ("obs.sampled_flows", CounterId::FlowsSampled),
                ("obs.health_events", CounterId::HealthEvents),
            ] {
                self.add(name, obs.metrics.counter(id) as f64);
            }
            self.add("obs.trace_ring_dropped", obs.host.trace_ring_dropped as f64);
        }
    }

    fn scaled(mut self, by: f64) -> Counts {
        self.0.values_mut().for_each(|v| *v *= by);
        self
    }
}

/// Snapshot-layer costs on one simulation of the check seed, for the
/// workloads whose trials never checkpoint: the run is checkpointed once
/// at its midpoint, then restored, re-encoded and resumed.
struct SnapshotCosts {
    bytes: f64,
    encode_ms: f64,
    restore_ms: f64,
    resume_run_ms: f64,
}

fn snapshot_probe(opts: &Options) -> SnapshotCosts {
    let seed = workload::trial_seed(opts.seed, 0);
    let input = workload::inputs(opts.workload, seed, opts.size, false).swap_remove(0);
    let mut config = input.config;
    config.shards = 1;
    config.checkpoint_every = Some(Duration(config.duration.as_nanos() / 2));
    let mut checkpoints = Vec::new();
    Simulation::new(config.clone(), input.flows.clone()).run_collecting(&mut checkpoints);
    let (at, blob) = checkpoints
        .into_iter()
        .next()
        .expect("a run checkpoints at its midpoint");
    let (mut restore, mut encode, mut resume) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..3 {
        let start = Instant::now();
        let mut sim = Simulation::restore(config.clone(), input.flows.clone(), &blob)
            .expect("a fresh checkpoint restores");
        restore.push(secs(start) * 1e3);
        let start = Instant::now();
        let again = sim.snapshot(at);
        encode.push(secs(start) * 1e3);
        assert_eq!(
            again, blob,
            "re-encoding a restored checkpoint reproduces it"
        );
        if resume.is_empty() {
            let start = Instant::now();
            sim.run();
            resume.push(secs(start) * 1e3);
        }
    }
    SnapshotCosts {
        bytes: blob.len() as f64,
        encode_ms: stats::median(&encode),
        restore_ms: stats::median(&restore),
        resume_run_ms: resume[0],
    }
}

/// The sharded host's view of a workload that runs several control
/// loops: the check seed's first simulation, run once on the sharded host
/// with two worker shards (one on a one-core host) and the metrics
/// registry on. The trials themselves run single-threaded, so this probe
/// is what measures the shard layer; its digest must equal the
/// single-threaded reference.
struct ShardProbe {
    windows: f64,
    inbox_messages: f64,
    mailbox_spills: f64,
    migrations: f64,
    phases: bundler_obs::PhaseBreakdown,
}

fn shard_probe(opts: &Options, setup: &Setup, tally: &mut Tally) -> Option<ShardProbe> {
    let seed = workload::trial_seed(opts.seed, 0);
    let SimInput { mut config, flows } =
        workload::inputs(opts.workload, seed, opts.size, true).swap_remove(0);
    if config.n_bundles() < 2 {
        return None;
    }
    config.shards = crate::host::parallelism().min(2);
    config.checkpoint_every = None;
    config.obs = ObsLevel::Metrics;
    let report = ShardedSimulation::new(config, flows).run();
    let digest = crate::digest::of_all(&[SimStats::of(&report)]);
    tally.record(
        "sharded probe",
        (digest == setup.reference()).then_some(()).ok_or_else(|| {
            format!(
                "sharded digest {digest:#018x} differs from the single-threaded {:#018x}",
                setup.reference()
            )
        }),
    );
    let obs = report.obs.as_deref().expect("the metrics registry is on");
    Some(ShardProbe {
        windows: obs.host.windows as f64,
        inbox_messages: obs.host.inbox_messages as f64,
        mailbox_spills: obs.host.mailbox_spills as f64,
        migrations: obs.host.migrations as f64,
        phases: obs.phase_breakdown(),
    })
}

/// Time to reduce a trial's streamed telemetry the way `obs_query` does:
/// parse every line, sort canonically, decompose per flow.
fn reduce_ms(out: &TrialOutput) -> f64 {
    let text = out
        .streamed
        .as_ref()
        .map(|b| b.contents())
        .unwrap_or_default();
    let start = Instant::now();
    let mut records: Vec<_> = text.lines().filter_map(stream::parse_line).collect();
    stream::sort_canonical(&mut records);
    let trace: Vec<_> = records.into_iter().map(|r| r.rec).collect();
    std::hint::black_box(bundler_obs::flow::decompose(&trace));
    secs(start) * 1e3
}

fn traced(
    opts: &Options,
    setup: &mut Setup,
    tally: &mut Tally,
    values: &mut Values,
    lines: &mut Vec<String>,
) {
    let budget = TRACED_SHARE * opts.seconds;
    let phase = Instant::now();
    let mut ratios = Vec::new();
    let mut first_round: Option<Counts> = None;
    let (mut workload_ms, mut build_ms, mut run_ms_samples, mut reduce) =
        (vec![], vec![], vec![], vec![]);
    let (mut restore_ms, mut encode_ms, mut resume_ms) = (vec![], vec![], vec![]);
    // A round runs the first ROUND inputs, wrapping when the run has fewer.
    let round = || (0..ROUND).map(|i| i % opts.size.inputs());
    while ratios.is_empty() || secs(phase) < budget {
        let untraced: f64 = round().map(|i| trial(opts, setup, i, false, tally).0).sum();
        let mut traced_ms = 0.0;
        let mut counts = Counts::default();
        for i in round() {
            let (ms, out) = trial(opts, setup, i, true, tally);
            traced_ms += ms;
            counts.add_trial(&out);
            workload_ms.push(out.spans.workload_ms);
            build_ms.push(out.spans.build_ms);
            run_ms_samples.push(out.spans.run_ms);
            if out.durable.is_some() {
                restore_ms.push(out.spans.restore_ms);
                encode_ms.push(out.spans.encode_ms);
                resume_ms.push(out.spans.resume_run_ms);
            }
            reduce.push(reduce_ms(&out));
        }
        first_round.get_or_insert(counts.scaled(1.0 / ROUND as f64));
        ratios.push(traced_ms / untraced);
    }
    let c = first_round.expect("at least one traced round");
    let mut shape = Shape::of(
        &workload::inputs(
            opts.workload,
            workload::trial_seed(opts.seed, 0),
            opts.size,
            false,
        )[0]
        .config,
    );
    if c.get("core.control_ticks") > 0.0 {
        let per_tick = c.get("sched.enqueued") / c.get("core.control_ticks");
        shape.pkts_per_tick = (per_tick.round() as u64).max(1);
    }
    let costs = layers::measure(&shape);
    let snapshot = if opts.workload == Workload::MetroDurable {
        SnapshotCosts {
            bytes: c.get("checkpoint_bytes"),
            encode_ms: stats::median(&encode_ms),
            restore_ms: stats::median(&restore_ms),
            resume_run_ms: stats::median(&resume_ms),
        }
    } else {
        snapshot_probe(opts)
    };
    let shard = shard_probe(opts, setup, tally);
    let ledger = Ledger::of(&c, &costs, snapshot.encode_ms);
    let run_ms = c.get("run_ms");
    for &name in PRINTED_COUNTS {
        values.set(name, c.get(name));
    }
    values.set("scenario.workload_ms", stats::median(&workload_ms));
    values.set("sim.build_ms", stats::median(&build_ms));
    values.set("sim.run_ms", stats::median(&run_ms_samples));
    values.set("sim.events_per_s", c.get("sim.events") / (run_ms / 1e3));
    values.set(
        "sim.packets_recycled_frac",
        c.get("recycled") / c.get("sim.packets").max(1.0),
    );
    values.set("sim.event.ns_per_op", costs.event_ns);
    values.set("types.arena.ns_per_op", costs.arena_ns);
    values.set("sim.tcp.ns_per_ack", costs.tcp_ack_ns);
    values.set("sim.path.ns_per_pkt", costs.path_pkt_ns);
    values.set(
        "sched.drop_frac",
        c.get("sched.dropped") / c.get("sched.enqueued").max(1.0),
    );
    values.set("sched.ns_per_pkt", costs.sched_pkt_ns);
    values.set("core.ns_per_tick", costs.core_tick_ns);
    values.set("agent.classify_ns", costs.agent_classify_ns);
    values.set("agent.tick_ns", costs.agent_tick_ns);
    let probed = |f: fn(&ShardProbe) -> f64| shard.as_ref().map_or(0.0, f);
    values.set("shard.windows", probed(|p| p.windows));
    values.set("shard.inbox_messages", probed(|p| p.inbox_messages));
    values.set("shard.mailbox_spills", probed(|p| p.mailbox_spills));
    values.set("shard.migrations", probed(|p| p.migrations));
    values.set("shard.busy_frac", probed(|p| p.phases.busy_frac));
    values.set("shard.stall_frac", probed(|p| p.phases.stall_frac));
    values.set("shard.net_frac", probed(|p| p.phases.net_frac));
    values.set("shard.mailbox_ns_per_msg", costs.mailbox_msg_ns);
    values.set("shard.wire_ns_per_frame", costs.wire_frame_ns);
    values.set("sim.fluid.ns_per_update", costs.fluid_update_ns);
    values.set("snapshot.bytes", snapshot.bytes);
    values.set("snapshot.encode_ms", snapshot.encode_ms);
    values.set("snapshot.restore_ms", snapshot.restore_ms);
    values.set("snapshot.resume_run_ms", snapshot.resume_run_ms);
    values.set("obs.reduce_ms", stats::median(&reduce));
    values.set("ledger.explained_frac", ledger.explained_ms / run_ms);
    values.set("ledger.residue_ms", run_ms - ledger.explained_ms);
    values.set("trace.overhead_frac", stats::median(&ratios) - 1.0);
    lines.push(format!(
        "traced {} round pair(s) of {ROUND} trials; per-trial counts are the first traced round's means",
        ratios.len()
    ));
    lines.push(format!(
        "ledger per trial: sim.run_ms {:.3} = {} + residue {:.3}",
        run_ms,
        ledger
            .terms
            .iter()
            .map(|(name, ms)| format!("{name} {ms:.3}"))
            .collect::<Vec<_>>()
            .join(" + "),
        run_ms - ledger.explained_ms
    ));
}

/// The cost ledger of one trial: each layer's count times its cost per
/// operation, set against the trial's measured run time.
struct Ledger {
    terms: Vec<(&'static str, f64)>,
    explained_ms: f64,
}

impl Ledger {
    fn of(c: &Counts, costs: &Costs, encode_ms: f64) -> Ledger {
        let ns = |name: &str, per_op: f64| c.get(name) * per_op / 1e6;
        let terms = vec![
            ("event", ns("sim.events", costs.event_ns)),
            ("arena", ns("sim.packets", costs.arena_ns)),
            // Every data packet is acknowledged once: about half the
            // packets created are ACKs.
            ("tcp", ns("sim.packets", costs.tcp_ack_ns) / 2.0),
            ("path", ns("sim.packets", costs.path_pkt_ns)),
            ("sched", ns("sched.enqueued", costs.sched_pkt_ns)),
            ("core", ns("core.control_ticks", costs.core_tick_ns)),
            // The agent's control ticks run the sendbox tick the core
            // term already counts, so only classification is added here.
            ("agent", ns("agent.classified", costs.agent_classify_ns)),
            ("fluid", ns("sim.fluid.updates", costs.fluid_update_ns)),
            ("snapshot", c.get("snapshot.count") * encode_ms),
        ];
        let explained_ms = terms.iter().map(|(_, ms)| ms).sum();
        Ledger {
            terms,
            explained_ms,
        }
    }
}

/// Runs `workload` at [`Size::Tiny`] for a fraction of a second: the
/// shape the benchmark's own tests use.
pub fn tiny(workload: Workload, seed: u64, trace: bool, tamper: Tamper) -> Outcome {
    let opts = Options {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Tiny,
        tamper,
    };
    run(&opts, Instant::now())
}
