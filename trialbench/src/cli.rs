//! Command-line options.

use crate::workload::{Size, Tamper, Workload};

/// One run of the benchmark.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every trial's inputs derive from.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run that prints per-layer metrics.
    pub trace: bool,
    /// Input scale ([`Size::Paper`] from the command line).
    pub size: Size,
    /// Deliberate corruption ([`Tamper::None`] from the command line).
    pub tamper: Tamper,
}

const USAGE: &str = "usage: trialbench --workload <paper_fct|metro_durable> \
                     --seed <u64> --seconds <s> --trace <0|1>";

/// Parses `--workload`, `--seed`, `--seconds` and `--trace`, all required.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    let missing = |name: &str| format!("{name} is required\n{USAGE}");
    Ok(Options {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        size: Size::Paper,
        tamper: Tamper::None,
    })
}
