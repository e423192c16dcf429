//! End-to-end tests for the `repro` binary: the artefact registry and
//! `render::all` agree, every registered name renders, and bad
//! arguments exit 2 before any study runs.

use std::process::Output;

use malnet_bench::render::ARTEFACTS;

fn repro(args: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn only_every_name_in_order_equals_the_full_report() {
    let full = repro(&["--samples", "12", "--fast"]);
    assert!(full.status.success(), "{full:?}");
    let names: Vec<&str> = ARTEFACTS.iter().map(|&(n, _)| n).collect();
    let only = repro(&["--samples", "12", "--fast", "--only", &names.join(",")]);
    assert!(only.status.success(), "{only:?}");
    assert!(!full.stdout.is_empty());
    assert!(full.stdout == only.stdout, "--only <every name> differs");
}

#[test]
fn bad_arguments_exit_2_with_empty_stdout() {
    for args in [&["--only", "nosuch"][..], &["--samples", "abc"]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}
