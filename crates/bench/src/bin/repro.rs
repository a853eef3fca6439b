//! `repro` — regenerates every table and quantitative claim from the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --release --bin repro -- all
//! cargo run -p bench --release --bin repro -- table1 table2 claim-tradeoff
//! cargo run -p bench --release --bin repro -- --list
//! cargo run -p bench --release --bin repro -- --bench   # writes BENCH_analysis.json
//! cargo run -p bench --release --bin repro -- serve     # NDJSON service on stdio
//! cargo run -p bench --release --bin repro -- serve --tcp 127.0.0.1:7878
//! ```

use std::process::ExitCode;
use std::sync::Arc;

/// `repro serve`: the analysis service — NDJSON requests on stdin (or TCP
/// connections), streamed cell records out. See the `repro-server` crate docs
/// for the protocol.
fn run_serve(args: &[String]) -> ExitCode {
    let server = Arc::new(repro_server::Server::new());
    let result = match args {
        [] => repro_server::serve_stdio(&server),
        [flag, addr] if flag == "--tcp" => repro_server::serve_tcp(&server, addr.as_str()),
        _ => {
            eprintln!("usage: repro serve [--tcp ADDR]");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: serve failed: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Times the analysis hot paths and writes the `BENCH_analysis.json` baseline to the
/// current directory.
fn run_bench_baseline() -> ExitCode {
    let budget_ms = std::env::var("REPRO_BENCH_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    let measurements = bench::analysis_benchmarks(budget_ms);
    for m in &measurements {
        println!(
            "{:<32} {:>12.1} ns/iter  ({} iters)",
            m.id, m.mean_ns, m.iters
        );
    }
    let json = bench::benchmarks_to_json(
        &measurements,
        bench::rare_event_sample_efficiency(),
        bench::divergence_smoke(),
        bench::epistemic_interval_width(),
        bench::optimizer_frontier_size(),
    );
    match std::fs::write("BENCH_analysis.json", &json) {
        Ok(()) => {
            println!("\nwrote BENCH_analysis.json");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("error: could not write BENCH_analysis.json: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run_experiment(id: &str) -> Result<(), String> {
    match id {
        "table1" => println!("{}", bench::table1()),
        "table2" => println!("{}", bench::table2()),
        "claim-three-nines" => println!("{}", bench::claim_three_nines()),
        "claim-cheap-nodes" => {
            let (table, eq) = bench::claim_cheap_nodes();
            println!("{table}");
            println!(
                "Cost reduction: {:.2}x (paper: ~3x with 10x cheaper nodes)\n",
                eq.cost_reduction_factor()
            );
        }
        "claim-quorum-overkill" => println!("{}", bench::claim_quorum_overkill().0),
        "claim-heterogeneous" => println!("{}", bench::claim_heterogeneous().0),
        "claim-tradeoff" => println!("{}", bench::claim_tradeoff().0),
        "claim-durability" => {
            let (table, _) = bench::claim_durability();
            println!("{table}");
        }
        "claim-durability-correlated" => {
            let (table, c) = bench::claim_durability_correlated();
            println!("{table}");
            println!(
                "Independent case: {:.0}x fewer samples than plain Monte Carlo at equal CI width\n",
                c.independent.efficiency_factor()
            );
        }
        "optimize-durability" => {
            let (table, report) = bench::optimize_durability();
            println!("{table}");
            let winner = report
                .cheapest()
                .ok_or("the durability search found no feasible deployment")?;
            println!(
                "Search rediscovered {} at p(loss) = {:.2e} ({} candidates screened, {} refined)\n",
                winner.label,
                winner.failure_probability(),
                report.screened,
                report.refined
            );
        }
        "sim-validation" => {
            let (table, _) = bench::sim_validation(&[3, 5], 0.08, 200, 2026);
            println!("{table}");
        }
        "native-quorum" => println!("{}", bench::native_quorum()),
        "native-leader" => println!("{}", bench::native_leader()),
        "native-committee" => println!("{}", bench::native_committee()),
        "fault-curves" => println!("{}", bench::fault_curves()),
        other => return Err(format!("unknown experiment id '{other}'")),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("repro — regenerate the paper's tables and claims\n");
        println!("usage: repro [--list | --bench] <experiment-id>... | all");
        println!("       repro serve [--tcp ADDR]\n");
        println!("experiments:");
        for id in bench::EXPERIMENT_IDS {
            println!("  {id}");
        }
        return ExitCode::SUCCESS;
    }
    if args[0] == "serve" {
        return run_serve(&args[1..]);
    }
    if args.iter().any(|a| a == "--bench") {
        if args.len() > 1 {
            eprintln!("error: --bench cannot be combined with other arguments");
            eprintln!("run the experiments and the baseline as separate invocations");
            return ExitCode::FAILURE;
        }
        return run_bench_baseline();
    }
    if args.iter().any(|a| a == "--list") {
        for id in bench::EXPERIMENT_IDS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    let ids: Vec<&str> = if args.iter().any(|a| a == "all") {
        bench::EXPERIMENT_IDS.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    for id in ids {
        println!("=== {id} ===");
        if let Err(err) = run_experiment(id) {
            eprintln!("error: {err}");
            eprintln!("run with --list to see the available experiments");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
