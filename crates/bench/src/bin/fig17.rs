//! Fig 17 — broadcast-cache designs ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig17")
}
