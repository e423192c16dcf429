//! Benchmark of the MalNet study pipeline.
//!
//! Runs one workload for about `--seconds` and prints every metric by
//! name with its unit, then one JSON result line:
//!
//! ```text
//! cargo run --release --manifest-path studybench/Cargo.toml -- \
//!     --workload flood_eavesdrop --seed 22 --seconds 35 --trace 0
//! ```
//!
//! `--trace 0` times whole studies (end-to-end metrics); `--trace 1`
//! times each layer's calls and checks the replays against the study
//! (per-layer metrics). The exit code is non-zero when any output check
//! fails. See README.md for the metrics and workloads.

mod e2e;
mod metrics;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::{Workload, DEFAULT_WORLD_SEED, PARALLELISM};

const USAGE: &str = "usage: studybench --workload <flood_eavesdrop|census_1447|probe_sweep> \
[--seed N] [--seconds N] [--trace 0|1] [--world-seed N]";

/// Command-line settings.
#[derive(Debug)]
struct Args {
    workload: Workload,
    /// Pipeline RNG seed.
    seed: u64,
    /// World (corpus and Internet) seed.
    world_seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut world_seed) = (22, DEFAULT_WORLD_SEED);
        let (mut seconds, mut trace) = (10.0, false);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--world-seed" => world_seed = value.parse().map_err(|_| bad())?,
                "--seconds" => seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            world_seed,
            seconds,
            trace,
        })
    }
}

/// The commit being measured: `.git/HEAD` of the working directory, or
/// "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
        }),
    });
    head.unwrap_or_else(|| "unknown".to_string())
}

/// Provenance of a result: results from different machines or builds
/// are never compared silently.
fn stamp(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "stamp {{\"workload\": \"{}\", \"trace\": {}, \"commit\": \"{}\", \"cores\": {cores}, \
\"parallelism\": {PARALLELISM}, \"seed\": {}, \"world_seed\": {}, \"samples\": {}, \"rustc\": \"{}\"}}",
        args.workload.name(),
        u8::from(args.trace),
        commit(),
        args.seed,
        args.world_seed,
        args.workload.samples(),
        env!("STUDYBENCH_RUSTC"),
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", stamp(&args));
    let wl = args.workload;
    let (seed, world_seed, samples, seconds) =
        (args.seed, args.world_seed, wl.samples(), args.seconds);
    let (report, specs) = if args.trace {
        let r = trace::run(wl, seed, world_seed, samples, seconds);
        (r, metrics::PER_LAYER)
    } else {
        let r = e2e::run(wl, seed, world_seed, samples, seconds);
        (r, metrics::END_TO_END)
    };
    let (lines, json, correct) = report.render(specs);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload census_1447 --seed 5 --seconds 25 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Census1447);
        assert_eq!((a.seed, a.world_seed), (5, DEFAULT_WORLD_SEED));
        assert!(a.trace && a.seconds == 25.0);
        assert!(parse("--seed 5").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload probe_sweep --trace 2").is_err());
        assert!(parse("--workload probe_sweep --bogus 1").is_err());
    }

    /// Every workload runs, untraced and traced, at a tiny corpus size
    /// with every output and replay check passing.
    #[test]
    fn each_workload_completes_at_a_tiny_corpus_size() {
        for wl in Workload::ALL {
            let r = e2e::run(wl, 3, DEFAULT_WORLD_SEED, 4, 0.0);
            let (_, json, ok) = r.render(metrics::END_TO_END);
            assert!(ok, "{}: {json}", wl.name());
            assert_eq!(r.attempted, e2e::MIN_STUDIES);
            let r = trace::run(wl, 3, DEFAULT_WORLD_SEED, 4, 0.0);
            let (lines, json, ok) = r.render(metrics::PER_LAYER);
            assert!(ok, "{}: {json}\n{}", wl.name(), lines.join("\n"));
        }
    }
}
