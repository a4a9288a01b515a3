//! Fig 16 — histogram of per-kernel speedup caps ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig16")
}
