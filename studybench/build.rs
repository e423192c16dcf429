//! Embeds the version of the compiler that builds the benchmark, so
//! every result line can be stamped with it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=STUDYBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
