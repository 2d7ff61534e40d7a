//! The traced benchmark: counting allocator, spans around every layer
//! call, `Obs::recording` in the traced passes. The source of the
//! per-layer ledger; its timings carry the tracing overhead it reports.

#[global_allocator]
static ALLOC: arm_alloc_counter::CountingAlloc = arm_alloc_counter::CountingAlloc;

fn main() -> std::process::ExitCode {
    arm_benchmark::cli::main_with(Some(arm_alloc_counter::allocation_count))
}
