//! Fig 18 — lane load-balancing techniques ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig18")
}
