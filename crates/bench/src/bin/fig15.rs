//! Fig 15 — speedup over the NBS x BS grid, ResNet2_2 MP forward ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("fig15")
}
