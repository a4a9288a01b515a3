//! Fig 14 — whole-network inference and training speedups ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig14")
}
