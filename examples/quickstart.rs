//! Quickstart: build an indoor environment, admit QoS-bounded
//! connections, watch a handoff use an advance reservation.
//!
//! ```text
//! cargo run --release -p arm-core --example quickstart
//! ```

use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::PortableId;
use arm_sim::{SimDuration, SimTime};

/// Every event goes in through `ResourceManager::apply`, which refuses a
/// malformed one (an unknown cell, a move to the portable's own cell,
/// ...) before it touches anything, and otherwise says what it decided.
fn apply(mgr: &mut ResourceManager, ev: ManagerEvent) -> Decision {
    mgr.apply(&ev)
        .expect("the walk below is well-formed")
        .decision
}

fn main() {
    // 1. The paper's Figure 4 floor plan: offices A and B, corridors C–G,
    //    each cell a 1.6 Mbps shared wireless medium on a wired backbone.
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.01, 100_000.0);

    // 2. The integrated resource manager, running the paper's full
    //    strategy: three-level prediction, per-class advance reservation,
    //    B_dyn pools, conflict resolution.
    let cfg = ManagerConfig {
        strategy: Strategy::Paper,
        resolve_excess: true,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);

    // 3. A user appears in corridor C and opens an adaptive video
    //    connection: guaranteed 64 kbps, usable up to 600 kbps.
    let (mut t, portable, cell) = (SimTime::ZERO, PortableId(42), f4.c);
    apply(&mut mgr, ManagerEvent::Appear { t, portable, cell });
    let qos = QosRequest::bandwidth(64.0, 600.0)
        .with_delay(1.0)
        .with_jitter(1.0)
        .with_loss(0.05);
    let request = ManagerEvent::Request { t, portable, qos };
    let Decision::Admitted(conn) = apply(&mut mgr, request) else {
        panic!("an empty cell admits the request");
    };
    println!(
        "admitted {conn} in cell C at {} kbps (floor {} kbps)",
        mgr.net.get(conn).expect("installed").b_current,
        qos.b_min
    );

    // 4. Teach the profile server a habit: C → D → A, four times.
    let mut move_to = |mgr: &mut ResourceManager, to, dwell| {
        t += SimDuration::from_secs(dwell);
        apply(mgr, ManagerEvent::Move { t, portable, to })
    };
    for _ in 0..4 {
        move_to(&mut mgr, f4.d, 60);
        move_to(&mut mgr, f4.a, 30);
        move_to(&mut mgr, f4.d, 120);
        move_to(&mut mgr, f4.c, 30);
    }
    let pred = mgr.profiles().predict(portable);
    println!(
        "profile learned: from C (having come from D) the user heads to {:?} (level {:?})",
        pred.cell, pred.level
    );

    // 5. Move along the habitual path: entering D triggers an advance
    //    reservation in the predicted office A, which the next handoff
    //    then consumes.
    let carried =
        |d: Decision| matches!(d, Decision::Handoff { dropped, .. } if dropped.is_empty());
    assert!(carried(move_to(&mut mgr, f4.d, 60)));
    let wl_a = mgr.net.topology().wireless_link(f4.a);
    let claim = mgr
        .net
        .link(wl_a)
        .claim(arm_net::link::ResvClaim::Conn(conn));
    println!("advance reservation waiting in office A: {claim} kbps");
    assert!(carried(move_to(&mut mgr, f4.a, 30)));
    println!(
        "handed off into office A without renegotiation ({} of {} handoffs \
         succeeded this run)",
        mgr.metrics.handoff_successes.get(),
        mgr.metrics.handoff_attempts.get(),
    );

    // 6. After dwelling past T_th the portable turns static and its rate
    //    is upgraded toward b_max by the maxmin conflict resolver.
    t += SimDuration::from_mins(6);
    apply(&mut mgr, ManagerEvent::SlotTick { t });
    println!(
        "now static in A: rate adapted up to {} kbps (b_max {})",
        mgr.net.get(conn).expect("live").b_current,
        qos.b_max
    );
}
