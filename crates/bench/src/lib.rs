//! # malnet-bench — table/figure regeneration and benchmarks
//!
//! The `repro` binary runs the study once and prints every paper
//! artefact (`table1` … `fig13`, `stats`, `evaluation`; see
//! [`render::ARTEFACTS`]) next to the paper's reported values;
//! `repro --only table3,fig4` prints just the named ones.
//! Component benches (`benches/components.rs`, on the in-repo
//! [`timing`] harness) measure the performance of every pipeline
//! component; `par_sweep` measures the pipeline at several parallelism
//! levels; `ablations` sweeps the design knobs DESIGN.md calls out.
//!
//! All study binaries accept `--samples N` (default 1447) and `--seed S`
//! (default 22); smaller corpora run in seconds and preserve the shapes.
//! An unknown flag or a missing or unparseable value exits 2 with a
//! usage line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod render;
pub mod timing;

use std::path::Path;

use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{Datasets, Pipeline, PipelineOpts};
use malnet_intel::VendorDb;

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Corpus size.
    pub samples: usize,
    /// Seed.
    pub seed: u64,
    /// Use fast (reduced-duration) pipeline settings.
    pub fast: bool,
    /// Chaos fault seed override (`--fault-seed N`); the chaos binaries
    /// fall back to their own fixed default when absent.
    pub fault_seed: Option<u64>,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            samples: 1447,
            seed: 22,
            fast: false,
            fault_seed: None,
        }
    }
}

/// The flags every study binary accepts.
const COMMON_USAGE: &str = "[--samples N] [--seed S] [--fast] [--fault-seed N]";

/// Parse `--samples N --seed S --fast --fault-seed N` from argv.
/// Exits 2 with a usage line on anything else.
pub fn parse_args() -> RunOpts {
    parse_args_with([]).0
}

/// [`parse_args`] plus the value-taking flags in `extra`; their values
/// come back in the same order (`None` when absent).
pub fn parse_args_with<const N: usize>(extra: [&str; N]) -> (RunOpts, [Option<String>; N]) {
    let args: Vec<String> = std::env::args().collect();
    match parse_from(args.get(1..).unwrap_or_default(), extra) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let bin = args
                .first()
                .and_then(|a| Path::new(a).file_name())
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            let extra_usage: String = extra.iter().map(|f| format!(" [{f} V]")).collect();
            eprintln!("error: {msg}\nusage: {bin} {COMMON_USAGE}{extra_usage}");
            std::process::exit(2);
        }
    }
}

/// The argument parser behind [`parse_args_with`], over `args` without
/// the program name.
fn parse_from<const N: usize>(
    args: &[String],
    extra: [&str; N],
) -> Result<(RunOpts, [Option<String>; N]), String> {
    fn value<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }
    let mut opts = RunOpts::default();
    let mut extras: [Option<String>; N] = std::array::from_fn(|_| None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--samples" => opts.samples = value(arg, it.next())?,
            "--seed" => opts.seed = value(arg, it.next())?,
            "--fault-seed" => opts.fault_seed = Some(value(arg, it.next())?),
            "--fast" => opts.fast = true,
            other => match extra.iter().position(|f| *f == other) {
                Some(slot) => extras[slot] = Some(value(arg, it.next())?),
                None => return Err(format!("unknown argument {other:?}")),
            },
        }
    }
    Ok((opts, extras))
}

/// Generate the study world for `opts.seed` and `opts.samples`.
pub fn world(opts: &RunOpts) -> World {
    World::generate(WorldConfig {
        seed: opts.seed,
        n_samples: opts.samples,
        cal: Calibration::default(),
    })
}

/// Generate the world and run the full pipeline once.
pub fn run_study(opts: &RunOpts) -> (World, Datasets, VendorDb) {
    let world = world(opts);
    let popts = if opts.fast {
        PipelineOpts {
            seed: opts.seed,
            ..PipelineOpts::fast()
        }
    } else {
        PipelineOpts {
            seed: opts.seed,
            // The paper's parameters, scaled to what the discrete-event
            // simulation needs: a 7-minute contained run reaches the
            // handshaker threshold; restricted sessions must outlast the
            // latest scheduled command (28 min + attack duration).
            contained_secs: 420,
            restricted_secs: 4200,
            probe_rounds: 84,
            probe_hosts_per_subnet: 120,
            ..Default::default()
        }
    };
    let (data, vendors) = Pipeline::new(popts).run(&world);
    (world, data, vendors)
}

/// Write a `results/` artifact, creating its directory, and report its
/// size on stdout. A failed write exits 1: a gate whose artifact is
/// missing has checked nothing.
pub fn write_artifact(path: &Path, contents: &str) {
    let written = match path.parent() {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
    .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("wrote {} ({} bytes)", path.display(), contents.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_common_and_extra_flags() {
        let (opts, [only]) = parse_from(
            &args(&[
                "--samples",
                "60",
                "--fast",
                "--only",
                "table1",
                "--seed",
                "5",
            ]),
            ["--only"],
        )
        .unwrap();
        assert_eq!(
            opts,
            RunOpts {
                samples: 60,
                seed: 5,
                fast: true,
                fault_seed: None,
            }
        );
        assert_eq!(only.as_deref(), Some("table1"));
        let (opts, []) = parse_from(&args(&[]), []).unwrap();
        assert_eq!(opts, RunOpts::default());
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            &["--bogus"][..],
            &["--samples", "abc"],
            &["--samples"],
            &["--seed", "-1"],
            &["--fault-seed", "x"],
            &["--only", "table1"],
            &["60"],
        ] {
            assert!(parse_from(&args(bad), []).is_err(), "{bad:?} accepted");
        }
        assert!(parse_from(&args(&["--only"]), ["--only"]).is_err());
    }
}
