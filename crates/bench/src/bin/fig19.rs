//! Fig 19 — the mixed-precision technique ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig19")
}
