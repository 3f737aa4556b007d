//! `trialbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics, the last line being the JSON
//! result.

use std::time::Instant;

fn main() {
    let process_start = Instant::now();
    let opts = match trialbench::cli::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let outcome = trialbench::runner::run(&opts, process_start);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", outcome.result);
}
