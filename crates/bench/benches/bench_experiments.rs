//! Whole-experiment benchmarks: one timed run per paper artefact, so a
//! regression in any layer of the stack shows up as an end-to-end
//! slowdown.
//!
//! * `fig5_meeting_*` — the Figure 5 replay (trace generation + the
//!   server's event loop) per strategy,
//! * `fig6_point` — one Figure 6 simulation point,
//! * `sec71_office_case` — the §7.1 workweek analysis,
//! * `trace_generation` — the mobility generators alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use arm_bench::fig5;
use arm_core::driver::fig6::{self, AdmissionPolicy, Fig6Params};
use arm_core::driver::office;
use arm_core::Strategy;
use arm_mobility::environment::Figure4;
use arm_mobility::models::{meeting, office_case};
use arm_sim::SimRng;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_meeting");
    group.sample_size(10);
    for strategy in [Strategy::BruteForce, Strategy::Aggregate, Strategy::Paper] {
        group.bench_with_input(
            BenchmarkId::new("run35", strategy.label()),
            &strategy,
            |b, s| b.iter(|| fig5::run(*s, 35, 42)),
        );
    }
    group.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6");
    group.sample_size(10);
    let params = Fig6Params {
        span_units: 500.0,
        ..Default::default()
    };
    group.bench_function("probabilistic_point", |b| {
        b.iter(|| {
            fig6::run(
                AdmissionPolicy::Probabilistic {
                    window_t: 0.05,
                    p_qos: 0.01,
                },
                params,
            )
        });
    });
    group.bench_function("unprotected_point", |b| {
        b.iter(|| fig6::run(AdmissionPolicy::None, params));
    });
    group.finish();
}

fn bench_sec71(c: &mut Criterion) {
    let mut group = c.benchmark_group("sec71");
    group.sample_size(10);
    group.bench_function("office_case_full", |b| b.iter(|| office::run(42)));
    group.finish();
}

fn bench_generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.bench_function("office_week", |b| {
        let f4 = Figure4::build();
        let params = office_case::OfficeCaseParams::default();
        b.iter(|| office_case::generate(&f4, &params, &mut SimRng::new(1)));
    });
    group.bench_function("meeting_55", |b| {
        let menv = meeting::MeetingEnv::build();
        let params = meeting::MeetingParams {
            attendees: 55,
            ..Default::default()
        };
        b.iter(|| meeting::generate(&menv, &params, &mut SimRng::new(1)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig5,
    bench_fig6,
    bench_sec71,
    bench_generators
);
criterion_main!(benches);
