//! The untraced run: repeated set-up, then a closed loop of whole
//! studies with telemetry disabled, each timed from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};

use malnet_botgen::world::World;
use malnet_core::eval;
use malnet_core::Pipeline;

use crate::metrics::Report;
use crate::stats::{disagreeing, median, peak_rss_mib, ratio, study_digest, timed, Clock};
use crate::workload::{self, Workload};

/// Fewest set-ups timed per run; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
/// Set-ups continue until this many seconds are spent on them (or
/// [`SETUP_MAX_REPS`] is reached), so small worlds get many samples.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 400;
/// Fewest studies per run: the digest check needs several to compare.
pub const MIN_STUDIES: usize = 3;

/// Generate the workload's world repeatedly; return the last one and
/// the median generation time in seconds.
pub fn set_up(world_seed: u64, samples: usize) -> (World, f64) {
    let clock = Clock::start();
    let mut times = Vec::new();
    loop {
        let (s, world) = timed(|| workload::world(world_seed, samples));
        times.push(s);
        let enough = times.len() >= SETUP_MIN_REPS && clock.secs() >= SETUP_BUDGET_S;
        if enough || times.len() >= SETUP_MAX_REPS {
            return (world, median(&times));
        }
    }
}

/// Run `wl` for about `seconds` and report every end-to-end metric.
pub fn run(wl: Workload, seed: u64, world_seed: u64, samples: usize, seconds: f64) -> Report {
    let (world, setup_s) = set_up(world_seed, samples);
    let opts = wl.opts(seed);
    let clock = Clock::start();
    let mut walls = Vec::new();
    let mut digests = Vec::new();
    let mut first = None;
    loop {
        let (wall, out) =
            timed(|| catch_unwind(AssertUnwindSafe(|| Pipeline::new(opts.clone()).run(&world))));
        match out {
            Ok((data, vendors)) => {
                walls.push(wall);
                digests.push(Some(study_digest(&data, &vendors.canonical_dump())));
                first.get_or_insert(data);
            }
            Err(_) => digests.push(None),
        }
        // Closed loop: start another study only if it should finish
        // within the run's time.
        let next_end = clock.secs() + median(&walls);
        if digests.len() >= MIN_STUDIES && next_end > seconds {
            break;
        }
    }

    let mut rep = Report::default();
    rep.attempted = digests.len();
    rep.failed = disagreeing(&digests);
    rep.set("study_wall_s", median(&walls));
    rep.set("setup_s", setup_s);
    rep.set("peak_rss_mib", peak_rss_mib());
    rep.note(
        "failed_share",
        ratio(rep.failed as f64, rep.attempted as f64),
        "share",
    );
    let Some(data) = first else {
        return rep;
    };
    let ev = eval::evaluate(&world, &data);
    let quarantined = ratio(data.health.rows.len() as f64, data.samples.len() as f64);
    rep.set("activation_pct", ev.activation_rate);
    rep.set("c2_precision_pct", ev.c2_precision);
    rep.set("c2_recall_pct", ev.c2_recall);
    rep.set("exploit_recall_pct", ev.exploit_recall);
    rep.set("healthy_share", 1.0 - quarantined);
    rep.note("quarantined_share", quarantined, "share");
    rep.note("ddos_recall_pct", ev.ddos_recall, "%");
    rep.note(
        "c2_lifetime_err",
        eval::c2_lifetime_error(&world, &data),
        "days",
    );
    rep.correct = rep.failed == 0 && !data.samples.is_empty();
    rep
}
