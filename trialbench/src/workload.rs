//! The trial workloads: what one trial runs and how its output is checked.
//!
//! A trial is the unit a user of the simulator waits for. Its inputs are a
//! pure function of `(workload, seed, size)`; the seed of trial `i` of a
//! run is derived from the run's seed by [`trial_seed`].

use std::time::Instant;

use bundler_obs::stream::SharedBuf;
use bundler_obs::{FlowTrace, ObsLevel, StreamSink};
use bundler_sim::fluid::CrossTrafficTier;
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};
use bundler_sim::scenario::metro::MetroScenario;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimReport, SimStats, Simulation, SimulationConfig};
use bundler_types::{Duration, Rate};

/// The named workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One Fig. 9 data point: Bundler-SFQ then the status quo on the same
    /// request trace, single-threaded, observability off.
    PaperFct,
    /// One observed, checkpointed `metro` run on the fluid tier, then a
    /// restore of its middle checkpoint and a resume to the end.
    MetroDurable,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::PaperFct, Workload::MetroDurable];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFct => "paper_fct",
            Workload::MetroDurable => "metro_durable",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input scale. The command always runs [`Size::Paper`]; [`Size::Tiny`]
/// keeps the benchmark's own tests fast in unoptimized builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The scale the workloads are defined at.
    Paper,
    /// A few flows per simulation.
    Tiny,
}

/// Deliberate corruption, for tests that prove the checks bite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tamper {
    /// Nothing is corrupted.
    #[default]
    None,
    /// The stored reference digest of the check seed is wrong.
    Reference,
    /// The middle checkpoint is damaged before it is restored.
    SnapshotBlob,
}

/// Trial `index` of a run seeded with `run_seed`. Index 0 is the run's
/// check seed.
pub fn trial_seed(run_seed: u64, index: u64) -> u64 {
    crate::splitmix64(run_seed ^ crate::splitmix64(index.wrapping_add(1)))
}

impl Size {
    /// Inputs a run sweeps: the trials of indices `0..inputs()`,
    /// round-robin, for as long as the run measures. Each input runs many
    /// times, and the run keeps each input's fastest time.
    pub fn inputs(self) -> u64 {
        match self {
            Size::Paper => 32,
            Size::Tiny => 4,
        }
    }
}

/// Checkpoint cadence of a durable trial.
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);

/// A configured trial, before its inputs are generated.
#[derive(Debug, Clone)]
enum Scenario {
    /// Bundler-SFQ and status-quo scenarios over the same request trace.
    PaperFct {
        /// The Bundler-SFQ half.
        bundler: FctScenario,
        /// The status-quo half.
        status_quo: FctScenario,
    },
    /// The metro scenario on the fluid tier.
    MetroDurable(MetroScenario),
}

/// The scenario of one trial.
fn scenario(workload: Workload, seed: u64, size: Size) -> Scenario {
    let paper = size == Size::Paper;
    match workload {
        Workload::PaperFct => {
            let fct = |mode| {
                FctScenario::builder()
                    .requests(if paper { 1200 } else { 40 })
                    .offered_load(Rate::from_mbps(70))
                    .background_bulk_flows(1)
                    .seed(seed)
                    .mode(mode)
                    .build()
            };
            Scenario::PaperFct {
                bundler: fct(SendboxMode::BundlerSfq),
                status_quo: fct(SendboxMode::StatusQuo),
            }
        }
        Workload::MetroDurable => Scenario::MetroDurable(
            MetroScenario::builder()
                .sites(if paper { 12 } else { 3 })
                .users_per_site(if paper { 6000 } else { 200 })
                .requests_per_site(if paper { 30 } else { 6 })
                .bottleneck(Rate::from_mbps(if paper { 192 } else { 48 }))
                .drain(Duration::from_secs(if paper { 4 } else { 2 }))
                .tier(CrossTrafficTier::Fluid)
                .obs(ObsLevel::Full)
                .seed(seed)
                .build(),
        ),
    }
}

/// One simulation's generated inputs.
#[derive(Debug, Clone)]
pub struct SimInput {
    /// The simulation configuration, with the workload's host settings.
    pub config: SimulationConfig,
    /// The flow arrivals.
    pub flows: Vec<FlowSpec>,
}

/// Generates the inputs of one trial: every simulation's configuration
/// and flow arrivals. `traced` turns the metrics registry on where the
/// workload runs with observability off. Streams are attached by
/// [`run_trial`], not here, so inputs compare by value.
pub fn inputs(workload: Workload, seed: u64, size: Size, traced: bool) -> Vec<SimInput> {
    let obs = if traced {
        ObsLevel::Metrics
    } else {
        ObsLevel::Off
    };
    let input = |mut config: SimulationConfig, flows| {
        if config.obs == ObsLevel::Off {
            config.obs = obs;
        }
        SimInput { config, flows }
    };
    match scenario(workload, seed, size) {
        Scenario::PaperFct {
            bundler,
            status_quo,
        } => [bundler, status_quo]
            .iter()
            .map(|sc| input(sc.sim_config(), sc.workload()))
            .collect(),
        Scenario::MetroDurable(sc) => {
            let mut config = sc.sim_config();
            config.flow_trace = Some(FlowTrace::all(seed));
            config.checkpoint_every = Some(CHECKPOINT_EVERY);
            vec![input(config, sc.workload())]
        }
    }
}

/// Wall-time spans the benchmark records around its own calls in one
/// trial, in milliseconds (0 where the trial makes no such call).
#[derive(Debug, Clone, Copy, Default)]
pub struct Spans {
    /// `workload()` and `sim_config()` of every simulation.
    pub workload_ms: f64,
    /// Building the simulations.
    pub build_ms: f64,
    /// Running the simulations (the collecting run of a durable trial).
    pub run_ms: f64,
    /// `Simulation::restore` of the middle checkpoint.
    pub restore_ms: f64,
    /// Re-encoding the restored simulation at the checkpoint instant.
    pub encode_ms: f64,
    /// Running the restored simulation to the end.
    pub resume_run_ms: f64,
}

/// What the durable half of a metro trial produced.
#[derive(Debug)]
pub struct Durable {
    /// Checkpoints the collecting run took.
    pub checkpoints: usize,
    /// Size of the middle checkpoint, in bytes.
    pub middle_bytes: usize,
    /// The restore's error, if it failed.
    pub restore_error: Option<String>,
    /// Whether re-encoding the restored simulation reproduced the blob.
    pub reencoded_identical: bool,
    /// The resumed run's digest input, when the restore succeeded.
    pub resumed: Option<SimStats>,
}

/// Everything one trial produced.
#[derive(Debug)]
pub struct TrialOutput {
    /// One report per simulation (the collecting run's for a durable trial).
    pub reports: Vec<SimReport>,
    /// Spans around the benchmark's calls.
    pub spans: Spans,
    /// Simulated seconds the trial covered (the resumed run included).
    pub sim_secs: f64,
    /// Flows the trial's inputs define, over all its simulations.
    pub flows_generated: u64,
    /// The durable half, for a metro trial.
    pub durable: Option<Durable>,
    /// The telemetry the collecting run streamed, for a metro trial.
    pub streamed: Option<SharedBuf>,
}

impl TrialOutput {
    /// Flows that completed (counted once per simulated world).
    pub fn flows(&self) -> u64 {
        self.reports.iter().map(|r| r.completed as u64).sum()
    }

    /// Digest of the trial's simulated results.
    pub fn digest(&self) -> u64 {
        crate::digest::of_all(&self.stats())
    }

    /// The deterministic digest inputs of every simulation.
    pub fn stats(&self) -> Vec<SimStats> {
        self.reports.iter().map(SimStats::of).collect()
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs one trial: generates its inputs, builds and runs its simulations
/// and, for a durable trial, restores, re-encodes and resumes.
pub fn run_trial(
    workload: Workload,
    seed: u64,
    size: Size,
    traced: bool,
    tamper: Tamper,
) -> TrialOutput {
    let mut spans = Spans::default();
    let t = Instant::now();
    let inputs = inputs(workload, seed, size, traced);
    spans.workload_ms = ms_since(t);
    let flows_generated = inputs.iter().map(|i| i.flows.len() as u64).sum();
    let sim_secs: f64 = inputs.iter().map(|i| i.config.duration.as_secs_f64()).sum();
    match workload {
        Workload::PaperFct => {
            let mut reports = Vec::with_capacity(inputs.len());
            for input in inputs {
                let t = Instant::now();
                let sim = Simulation::new(input.config, input.flows);
                spans.build_ms += ms_since(t);
                let t = Instant::now();
                reports.push(sim.run());
                spans.run_ms += ms_since(t);
            }
            TrialOutput {
                reports,
                spans,
                sim_secs,
                flows_generated,
                durable: None,
                streamed: None,
            }
        }
        Workload::MetroDurable => {
            let SimInput { mut config, flows } = inputs.into_iter().next().expect("one simulation");
            let (sink, streamed) = StreamSink::to_shared_vec();
            config.stream = Some(sink);
            let t = Instant::now();
            let sim = Simulation::new(config.clone(), flows.clone());
            spans.build_ms = ms_since(t);
            let t = Instant::now();
            let mut checkpoints = Vec::new();
            let report = sim.run_collecting(&mut checkpoints);
            spans.run_ms = ms_since(t);
            let (durable, resumed_secs) =
                resume_middle(config, flows, &checkpoints, tamper, &mut spans);
            TrialOutput {
                reports: vec![report],
                spans,
                sim_secs: sim_secs + resumed_secs,
                flows_generated,
                durable: Some(durable),
                streamed: Some(streamed),
            }
        }
    }
}

/// Restores the middle checkpoint of a collecting run, re-encodes it at
/// the same instant and resumes to the end. Returns the outcome and the
/// simulated seconds the resumed run covered.
fn resume_middle(
    mut config: SimulationConfig,
    flows: Vec<FlowSpec>,
    checkpoints: &[(bundler_types::Nanos, Vec<u8>)],
    tamper: Tamper,
    spans: &mut Spans,
) -> (Durable, f64) {
    let mut durable = Durable {
        checkpoints: checkpoints.len(),
        middle_bytes: 0,
        restore_error: None,
        reencoded_identical: false,
        resumed: None,
    };
    let Some((at, stored)) = checkpoints.get(checkpoints.len() / 2) else {
        durable.restore_error = Some("the run took no checkpoint".into());
        return (durable, 0.0);
    };
    durable.middle_bytes = stored.len();
    let mut blob = stored.clone();
    if tamper == Tamper::SnapshotBlob {
        let mid = blob.len() / 2;
        blob[mid] ^= 0xff;
    }
    // The resumed run streams to a sink of its own, as a process resuming
    // after a crash would.
    config.stream = Some(StreamSink::to_shared_vec().0);
    let remaining = config.duration.as_secs_f64() - at.as_secs_f64();
    let t = Instant::now();
    let restored = Simulation::restore(config, flows, &blob);
    spans.restore_ms = ms_since(t);
    match restored {
        Err(e) => durable.restore_error = Some(e.to_string()),
        Ok(mut sim) => {
            let t = Instant::now();
            let reencoded = sim.snapshot(*at);
            spans.encode_ms = ms_since(t);
            durable.reencoded_identical = reencoded == *stored;
            let t = Instant::now();
            let resumed = sim.run();
            spans.resume_run_ms = ms_since(t);
            durable.resumed = Some(SimStats::of(&resumed));
        }
    }
    (durable, remaining)
}

/// Checks one trial's output: every simulation completed flows, a
/// durable trial's restore, re-encode and resume agree with its
/// collecting run, and, when `expected` is given, the trial's digest is
/// that reference (its input's first run, or the check seed's set-up).
pub fn check(out: &TrialOutput, expected: Option<u64>) -> Result<(), String> {
    for (i, r) in out.reports.iter().enumerate() {
        if r.completed == 0 || r.events_processed == 0 {
            return Err(format!("simulation {i} completed no flow"));
        }
    }
    check_digest(out.digest(), expected)?;
    if let Some(d) = &out.durable {
        if let Some(e) = &d.restore_error {
            return Err(format!("restore failed: {e}"));
        }
        if !d.reencoded_identical {
            return Err("re-encoded snapshot differs from the restored blob".into());
        }
        if d.resumed.as_ref() != out.stats().first() {
            return Err("resumed run's results differ from the collecting run's".into());
        }
    }
    Ok(())
}

/// Checks a trial's digest against its reference, when there is one.
pub fn check_digest(got: u64, expected: Option<u64>) -> Result<(), String> {
    match expected {
        Some(reference) if got != reference => Err(format!(
            "digest {got:#018x} differs from its input's reference {reference:#018x}"
        )),
        _ => Ok(()),
    }
}
