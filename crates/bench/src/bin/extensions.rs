//! Related-work synergies from §VIII, made quantitative ([`save_bench::figures`]).
fn main() -> std::process::ExitCode {
    save_bench::figures::main("extensions")
}
