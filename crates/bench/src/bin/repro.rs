//! Regenerates the paper's tables and figures from one pipeline run.
//!
//! With no selection it prints every artefact in paper order
//! ([`render::ARTEFACTS`]); `--only table3,fig4` prints just the named
//! ones, in the order given. An unknown name exits 2 with the list of
//! valid names before the study runs.
//!
//! Usage: `cargo run -p malnet-bench --release --bin repro -- [--samples N] [--seed S] [--fast] [--only NAME,...]`

use malnet_bench::render::{self, Render, Study, ARTEFACTS};
use malnet_bench::{parse_args_with, run_study};

fn main() {
    let (opts, [only]) = parse_args_with(["--only"]);
    let selected: Option<Vec<Render>> = only.map(|list| {
        list.split(',')
            .map(|name| {
                render::find(name).unwrap_or_else(|| {
                    let valid: Vec<&str> = ARTEFACTS.iter().map(|&(n, _)| n).collect();
                    eprintln!(
                        "unknown artefact {name:?}; valid names: {}",
                        valid.join(",")
                    );
                    std::process::exit(2);
                })
            })
            .collect()
    });
    let (world, data, vendors) = run_study(&opts);
    let study = Study {
        world: &world,
        data: &data,
        vendors: &vendors,
        late_day: malnet_netsim::time::STUDY_DAYS + 45,
    };
    match selected {
        None => print!("{}", render::all(&study)),
        Some(selected) => print!("{}", render::render(&study, &selected)),
    }
}
