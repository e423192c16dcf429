//! Parallelism sweep for the pipeline's fan-out stages.
//!
//! Times the full pipeline (phase A + parallel phase B + D-PC2 probing)
//! at several `PipelineOpts::parallelism` worker counts. Because every
//! fan-out merges back in canonical order, the outputs are
//! byte-identical at every N; the sweep quantifies the wall-clock side
//! of that trade **and enforces the byte side**: each parallel run's
//! datasets and vendor state are diffed against the sequential
//! baseline, and any divergence exits non-zero (the CI gate).
//!
//! A second sweep exercises the day-epoch axis (`PipelineOpts::
//! day_shards`): the study's day range is partitioned into contiguous
//! epochs that run as independent units and merge through the canonical
//! reduce, so every `day_shards × parallelism` cell must also be
//! byte-identical to the sequential baseline. Divergent cells land in
//! `divergent_day_shards` and fail the run the same way.
//!
//! Besides the stdout tables, the sweep writes a machine-readable
//! artifact to `results/par_sweep.json` (`malnet.par_sweep` v4): both
//! sweeps, a per-N phase-A/phase-B/probing wall-time breakdown,
//! both divergence verdicts, plus the full telemetry
//! [`RunReport`](malnet_telemetry::RunReport) of the final instrumented
//! pipeline run. EXPERIMENTS.md documents the format.
//!
//! Usage:
//! `cargo run -p malnet-bench --release --bin par_sweep -- [--samples N] [--seed S]`

use std::fmt::Write as _;
use std::time::Instant;

use malnet_bench::timing::fmt_duration;
use malnet_bench::{parse_args, world, write_artifact};
use malnet_core::{Pipeline, PipelineOpts};
use malnet_telemetry::Telemetry;

/// Worker counts the end-to-end sweep measures.
const SWEEP_N: [usize; 4] = [1, 2, 4, 8];

/// `(day_shards, parallelism)` cells of the epoch sweep. `(1, 1)` is
/// the sequential baseline every other cell is byte-diffed against.
const SHARD_CELLS: [(usize, usize); 6] = [(1, 1), (2, 1), (2, 8), (4, 8), (8, 1), (8, 8)];

/// One end-to-end measurement: wall time plus the coordinator-side
/// wall-time of each pipeline phase, read from that run's telemetry.
struct PipelineRow {
    parallelism: usize,
    wall_us: u64,
    phase_a_us: u64,
    phase_b_us: u64,
    probing_us: u64,
}

/// One cell of the day-epoch sweep: the study split into `day_shards`
/// contiguous epochs, run on a pool of `parallelism` workers.
struct ShardRow {
    day_shards: usize,
    parallelism: usize,
    wall_us: u64,
}

fn main() {
    let mut opts = parse_args();
    if opts.samples == 1447 {
        opts.samples = 96; // the sweep runs every batch several times
    }
    let world = world(&opts);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallelism sweep: {} samples, seed {}, {} cores visible",
        opts.samples, opts.seed, cores
    );

    println!("\n== end to end: Pipeline::run (phase A + phase B + probing) ==");
    println!(
        "{:>4} {:>14} {:>10} {:>12} {:>12} {:>12}",
        "N", "wall", "speedup", "phase A", "phase B", "probing"
    );
    let mut pipeline_rows: Vec<PipelineRow> = Vec::new();
    let mut last_report = None;
    let mut baseline = None;
    let mut baseline_dumps: Option<(String, String)> = None;
    let mut divergent: Vec<usize> = Vec::new();
    for n in SWEEP_N {
        let popts = PipelineOpts {
            seed: opts.seed,
            parallelism: n,
            max_samples: Some(opts.samples),
            ..PipelineOpts::fast()
        };
        // Telemetry + event streaming on for every end-to-end run: the
        // sweep doubles as a demonstration that instrumentation does not
        // break scaling, and the last run's report lands in the JSON
        // artifact. `File::create` truncates, so the streamed artifact
        // CI validates is the widest run's — every width must produce a
        // valid stream for the final file to exist at all.
        let sink = malnet_telemetry::EventSink::create(std::path::Path::new(
            "results/events_par_sweep.jsonl",
        ))
        .expect("create event stream");
        let tel = Telemetry::enabled_with_events(sink);
        let t0 = Instant::now();
        let (data, vendors) = Pipeline::with_telemetry(popts, tel.clone()).run(&world);
        let wall = t0.elapsed();
        let report = tel.report();
        let span_us = |name: &str| report.span(name).map_or(0, |s| s.total_us);
        let row = PipelineRow {
            parallelism: n,
            wall_us: wall.as_micros() as u64,
            phase_a_us: span_us("pipeline.phase_a"),
            phase_b_us: span_us("pipeline.phase_b"),
            probing_us: span_us("pipeline.probing"),
        };
        let base = *baseline.get_or_insert(wall);
        println!(
            "{n:>4} {:>14} {:>9.2}x {:>12} {:>12} {:>12}",
            fmt_duration(wall),
            base.as_secs_f64() / wall.as_secs_f64(),
            fmt_duration(std::time::Duration::from_micros(row.phase_a_us)),
            fmt_duration(std::time::Duration::from_micros(row.phase_b_us)),
            fmt_duration(std::time::Duration::from_micros(row.probing_us)),
        );
        // The byte gate: every parallel run must reproduce the
        // sequential baseline exactly, or the sweep fails.
        let dumps = (data.canonical_dump(), vendors.canonical_dump());
        match &baseline_dumps {
            None => baseline_dumps = Some(dumps),
            Some(base_dumps) => {
                if *base_dumps != dumps {
                    eprintln!("DIVERGENCE: parallelism {n} produced different bytes than 1");
                    divergent.push(n);
                }
            }
        }
        pipeline_rows.push(row);
        last_report = Some(report);
    }

    println!("\n== day-epoch sharding: Pipeline::run at day_shards x parallelism ==");
    println!(
        "{:>7} {:>4} {:>14} {:>10}",
        "shards", "N", "wall", "speedup"
    );
    let mut shard_rows: Vec<ShardRow> = Vec::new();
    let mut shard_baseline = None;
    let mut divergent_day_shards: Vec<(usize, usize)> = Vec::new();
    for (shards, n) in SHARD_CELLS {
        let popts = PipelineOpts {
            seed: opts.seed,
            parallelism: n,
            day_shards: shards,
            max_samples: Some(opts.samples),
            ..PipelineOpts::fast()
        };
        // Same streaming discipline as the end-to-end sweep: the file
        // is truncated per run, so the surviving stream CI validates is
        // the widest epoch-sharded cell's — every cell must stream a
        // valid `malnet.events` file for the final one to exist.
        let sink = malnet_telemetry::EventSink::create(std::path::Path::new(
            "results/events_par_sweep.jsonl",
        ))
        .expect("create event stream");
        let tel = Telemetry::enabled_with_events(sink);
        let t0 = Instant::now();
        let (data, vendors) = Pipeline::with_telemetry(popts, tel.clone()).run(&world);
        let wall = t0.elapsed();
        let base = *shard_baseline.get_or_insert(wall);
        println!(
            "{shards:>7} {n:>4} {:>14} {:>9.2}x",
            fmt_duration(wall),
            base.as_secs_f64() / wall.as_secs_f64(),
        );
        // Every epoch-sharded run must reproduce the sequential
        // baseline (day_shards 1, parallelism 1 of this sweep — which
        // itself matched the end-to-end sweep's baseline above, since
        // day_shards 1 runs through the same epoch machinery).
        let dumps = (data.canonical_dump(), vendors.canonical_dump());
        match &baseline_dumps {
            None => baseline_dumps = Some(dumps),
            Some(base_dumps) => {
                if *base_dumps != dumps {
                    eprintln!(
                        "DIVERGENCE: day_shards {shards} x parallelism {n} produced \
                         different bytes than the sequential baseline"
                    );
                    divergent_day_shards.push((shards, n));
                }
            }
        }
        shard_rows.push(ShardRow {
            day_shards: shards,
            parallelism: n,
            wall_us: wall.as_micros() as u64,
        });
        last_report = Some(tel.report());
    }

    let report = last_report.expect("at least one pipeline run");
    let json = sweep_json(
        opts.samples,
        opts.seed,
        &pipeline_rows,
        &shard_rows,
        &divergent,
        &divergent_day_shards,
        &report,
    );
    println!();
    write_artifact(std::path::Path::new("results/par_sweep.json"), &json);
    if divergent.is_empty() && divergent_day_shards.is_empty() {
        println!("byte check: all parallel and epoch-sharded runs match the sequential baseline");
    } else {
        if !divergent.is_empty() {
            eprintln!(
                "byte check FAILED: parallelism {divergent:?} diverged from the sequential baseline"
            );
        }
        if !divergent_day_shards.is_empty() {
            eprintln!(
                "byte check FAILED: day-shard cells {divergent_day_shards:?} \
                 (day_shards, parallelism) diverged from the sequential baseline"
            );
        }
        std::process::exit(1);
    }
}

/// Assemble the `malnet.par_sweep` v4 artifact (see EXPERIMENTS.md).
fn sweep_json(
    samples: usize,
    seed: u64,
    pipeline: &[PipelineRow],
    shards: &[ShardRow],
    divergent: &[usize],
    divergent_day_shards: &[(usize, usize)],
    report: &malnet_telemetry::RunReport,
) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\":\"malnet.par_sweep\",\"version\":4,");
    let _ = write!(out, "\"samples\":{samples},\"seed\":{seed},");
    out.push_str("\"pipeline_sweep\":[");
    for (i, row) in pipeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"parallelism\":{},\"wall_us\":{}}}",
            row.parallelism, row.wall_us
        );
    }
    out.push_str("],\"phase_breakdown\":[");
    for (i, row) in pipeline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"parallelism\":{},\"phase_a_us\":{},\"phase_b_us\":{},\"probing_us\":{}}}",
            row.parallelism, row.phase_a_us, row.phase_b_us, row.probing_us
        );
    }
    out.push_str("],\"shard_sweep\":[");
    for (i, row) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"day_shards\":{},\"parallelism\":{},\"wall_us\":{}}}",
            row.day_shards, row.parallelism, row.wall_us
        );
    }
    out.push_str("],");
    let _ = write!(
        out,
        "\"divergent\":[{}],",
        divergent
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = write!(
        out,
        "\"divergent_day_shards\":[{}],",
        divergent_day_shards
            .iter()
            .map(|(s, n)| format!("{{\"day_shards\":{s},\"parallelism\":{n}}}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = write!(out, "\"run_report\":{}}}", report.to_json());
    out
}
