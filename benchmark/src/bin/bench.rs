//! The untraced benchmark: system allocator, observer off, no spans.
//! The only source of end-to-end numbers.

fn main() -> std::process::ExitCode {
    arm_benchmark::cli::main_with(None)
}
