//! The three workloads: one study configuration each, chosen so that a
//! different layer carries the wall time (see README.md).

use malnet_botgen::world::{Calibration, World, WorldConfig};
use malnet_core::{FaultPlan, PipelineOpts};

/// World seed every workload studies unless `--world-seed` says
/// otherwise (the paper-calibrated corpus the repository reports on).
pub const DEFAULT_WORLD_SEED: u64 = 22;

/// Worker threads for every fan-out stage.
pub const PARALLELISM: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 96 samples; restricted DDoS sessions carry the wall time.
    FloodEavesdrop,
    /// The paper's 1447 samples with DDoS observation cut to 60 virtual
    /// seconds; contained activation and the reduce carry it.
    Census1447,
    /// 8 samples plus the full 84-round D-PC2 sweep; probing carries it.
    ProbeSweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FloodEavesdrop,
        Workload::Census1447,
        Workload::ProbeSweep,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FloodEavesdrop => "flood_eavesdrop",
            Workload::Census1447 => "census_1447",
            Workload::ProbeSweep => "probe_sweep",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Corpus size.
    pub fn samples(self) -> usize {
        match self {
            Workload::FloodEavesdrop => 96,
            Workload::Census1447 => 1447,
            Workload::ProbeSweep => 8,
        }
    }

    /// The study settings, with `seed` as the pipeline's RNG seed.
    pub fn opts(self, seed: u64) -> PipelineOpts {
        let fast = PipelineOpts::fast();
        let opts = match self {
            Workload::FloodEavesdrop => PipelineOpts {
                run_probing: false,
                ..fast
            },
            Workload::Census1447 => PipelineOpts {
                contained_secs: 420,
                restricted_secs: 60,
                run_probing: false,
                ..fast
            },
            Workload::ProbeSweep => PipelineOpts {
                probe_rounds: 84,
                probe_hosts_per_subnet: 254,
                ..fast
            },
        };
        PipelineOpts {
            seed,
            parallelism: PARALLELISM,
            day_shards: 1,
            faults: FaultPlan::none(),
            ..opts
        }
    }
}

/// Generate a world of `samples` samples from `seed`.
pub fn world(seed: u64, samples: usize) -> World {
    World::generate(WorldConfig {
        seed,
        n_samples: samples,
        cal: Calibration::default(),
    })
}
