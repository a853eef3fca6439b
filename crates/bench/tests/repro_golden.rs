//! Golden gate for the paper reproduction: `repro all` must print exactly the
//! bytes in `golden/repro_all.txt`. Every table row of the experiment index is
//! in that file, so any refactor behind the experiments either keeps every
//! digit or shows up here as a diff.
//!
//! The output is deterministic (exact engines, fixed seeds, chunk-order
//! merges), so byte equality is the right comparison. When an experiment's
//! output changes on purpose, regenerate the file with
//! `cargo run -p bench --release --bin repro -- all > crates/bench/tests/golden/repro_all.txt`.

use std::process::Command;

#[test]
fn repro_all_prints_the_golden_tables() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("all")
        .output()
        .expect("repro runs");
    assert!(
        output.status.success(),
        "repro all exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("repro prints UTF-8");
    let golden = include_str!("golden/repro_all.txt");
    if actual != golden {
        let first_diff = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "repro all diverged from the golden file at line {}:\n  golden: {:?}\n  actual: {:?}",
            first_diff + 1,
            golden.lines().nth(first_diff),
            actual.lines().nth(first_diff)
        );
    }
}
