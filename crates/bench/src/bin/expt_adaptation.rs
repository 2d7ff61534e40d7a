//! QoS adaptation under a time-varying wireless channel (§2.1 + §5.3).
//!
//! The paper's adaptation machinery has no figure of its own — it is
//! motivated by "the time-varying effective capacity of the wireless
//! link" and exercised implicitly. This harness makes it visible:
//! adaptive connections (`[b_min, b_max]` bounds) ride a Gilbert–Elliott
//! fading medium; their aggregate allocation tracks the effective
//! capacity (never exceeding it, never dropping a floor unless the fade
//! is deeper than the floors), and the δ threshold of eqn 2 trades
//! adaptation rounds for excess utilisation.

use arm_bench::report;
use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::channel::{self, ChannelEvent, ChannelParams};
use arm_mobility::environment::IndoorEnvironment;
use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, PortableId};
use arm_obs::RunReport;
use arm_profiles::CellClass;
use arm_sim::{SimDuration, SimRng, SimTime};

/// The office cell with three adaptive `[100, 1600]` connections in
/// it, under eqn 2's threshold `delta`.
fn build(delta: f64) -> (ResourceManager, CellId) {
    let mut env = IndoorEnvironment::new();
    let cell = env.add_cell("office", CellClass::Office);
    let corridor = env.add_cell("corridor", CellClass::Corridor);
    env.connect(cell, corridor);
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        delta,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(env, net, cfg);
    for i in 0..3u32 {
        let (t, portable) = (SimTime::ZERO, PortableId(i));
        let appear = ManagerEvent::Appear { t, portable, cell };
        let _ = mgr.apply(&appear).expect("a well-formed event");
        let qos = QosRequest::bandwidth(100.0, 1600.0)
            .with_delay(10.0)
            .with_jitter(10.0)
            .with_loss(1.0);
        let t = SimTime::from_secs(u64::from(i) + 1);
        let request = ManagerEvent::Request { t, portable, qos };
        let admitted = mgr.apply(&request).expect("a well-formed event").decision;
        assert!(matches!(admitted, Decision::Admitted(_)), "admits");
    }
    (mgr, cell)
}

/// Apply one generated fade.
fn fade(mgr: &mut ResourceManager, ev: &ChannelEvent) -> Decision {
    let (t, cell, fraction) = (ev.time, ev.cell, ev.effective_fraction);
    let fade = ManagerEvent::ChannelChange { t, cell, fraction };
    mgr.apply(&fade)
        .expect("generated fractions are valid")
        .decision
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    println!("== QoS adaptation under channel fades (seed {seed}) ==\n");
    let params = ChannelParams {
        mean_good: SimDuration::from_mins(3),
        mean_bad: SimDuration::from_secs(60),
        bad_fraction: 0.5,
    };
    let span = SimDuration::from_mins(30);

    // Part 1: the allocation trace under fades (δ = 0).
    let (mut mgr, cell) = build(0.0);
    let fades =
        channel::generate(cell, &params, span, &mut SimRng::new(seed)).expect("in-range fraction");
    println!("time(s)  effective-capacity  aggregate-allocation");
    let show = |mgr: &ResourceManager, t: SimTime, frac: f64| {
        let total: f64 = mgr.net.live_connections().map(|c| c.b_current).sum();
        println!(
            "{:>7.0}  {:>18.0}  {:>20.0}",
            t.as_secs_f64(),
            1600.0 * frac,
            total
        );
    };
    show(&mgr, SimTime::from_secs(3), 1.0);
    for ev in &fades {
        let no_drop = Decision::Faded { dropped: vec![] };
        assert_eq!(
            fade(&mut mgr, ev),
            no_drop,
            "floors (300) always fit a 50% fade"
        );
        show(&mgr, ev.time, ev.effective_fraction);
    }
    println!(
        "\nadaptation rounds: {}; forced renegotiations: {}\n",
        mgr.adaptation_rounds, mgr.channel_renegotiations
    );
    let mut rep = RunReport::new("expt_adaptation", "qos-adaptation-under-fades");
    rep.seed = Some(seed);
    rep.notes.push(format!(
        "delta=0: {} adaptation rounds, {} forced renegotiations over {} fades",
        mgr.adaptation_rounds,
        mgr.channel_renegotiations,
        fades.len()
    ));

    // Part 2: the δ ablation — same fade schedule, growing thresholds.
    println!("--- eqn 2 δ ablation (same fade schedule) ---");
    println!(
        "{:>8}  {:>10}  {:>22}",
        "δ (kbps)", "rounds", "mean excess utilised"
    );
    for delta in [0.0, 25.0, 100.0, 400.0, 1600.0] {
        let (mut mgr, _) = build(delta);
        // Integrate allocation over the fade schedule.
        let mut weighted = 0.0;
        let mut last_t = SimTime::from_secs(3);
        let mut last_total: f64 = mgr.net.live_connections().map(|c| c.b_current).sum();
        for ev in &fades {
            weighted += last_total * ev.time.since(last_t).as_secs_f64();
            fade(&mut mgr, ev);
            last_t = ev.time;
            last_total = mgr.net.live_connections().map(|c| c.b_current).sum();
        }
        let end = SimTime::ZERO + span;
        weighted += last_total * end.saturating_since(last_t).as_secs_f64();
        let mean = weighted / end.since(SimTime::from_secs(3)).as_secs_f64();
        println!(
            "{:>8.0}  {:>10}  {:>17.0} kbps",
            delta, mgr.adaptation_rounds, mean
        );
        rep.notes.push(format!(
            "delta={delta:.0}: {} rounds, mean excess utilised {mean:.0} kbps",
            mgr.adaptation_rounds
        ));
    }
    println!("\nlarger δ ⇒ fewer adaptation rounds but slower reclamation of");
    println!("recovered capacity (lower mean utilisation) — the control/benefit");
    println!("trade-off the paper introduces δ for.");
    report::emit_or_warn(&rep);
}
