//! Experiment runner: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p parlap-bench --bin experiments -- all
//! cargo run --release -p parlap-bench --bin experiments -- e10 --quick
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if ids.is_empty() {
        eprintln!("usage: experiments <e1..e25|all> [--quick]");
        std::process::exit(2);
    }
    for id in ids {
        if !parlap_bench::experiments::run(id, quick) {
            eprintln!("unknown experiment id: {id} (expected e1..e25 or all)");
            std::process::exit(2);
        }
        println!();
    }
}
