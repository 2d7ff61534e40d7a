//! The observability layer's zero-interference contract, on the path
//! only a directly driven manager takes.
//!
//! Observation must be strictly passive; the scenario-level halves of
//! that contract (a plain and a faulted replay, observer off vs on) are
//! `crates/server/tests/obs_differential.rs`. Scenarios leave the eqn-2
//! adaptation path off, so its emission point is exercised here.

use arm_core::{Decision, ManagerConfig, ManagerEvent, ResourceManager, Strategy};
use arm_mobility::environment::Figure4;
use arm_net::flowspec::QosRequest;
use arm_net::ids::PortableId;
use arm_obs::{EventKind, Obs};
use arm_sim::{SimDuration, SimTime};

/// Scenarios leave the eqn-2 adaptation path off; drive it directly so
/// the [`EventKind::MaxminRound`] emission point is exercised too.
#[test]
fn maxmin_rounds_are_traced_on_the_adaptation_path() {
    let f4 = Figure4::build();
    let net = f4.env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::None,
        resolve_excess: true,
        dyn_pool: None,
        t_th: SimDuration::from_secs(0),
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(f4.env.clone(), net, cfg);
    mgr.set_obs(Obs::recording(256));
    let adaptive = QosRequest::bandwidth(200.0, 1600.0)
        .with_delay(10.0)
        .with_jitter(10.0)
        .with_loss(1.0);
    let mut apply = |ev| mgr.apply(&ev).expect("a well-formed event");
    let cell = f4.c;
    for i in 0..2u32 {
        let (t, portable) = (SimTime::ZERO, PortableId(i));
        let _ = apply(ManagerEvent::Appear { t, portable, cell });
        let t = SimTime::from_secs(1 + u64::from(i));
        let qos = adaptive;
        let admitted = apply(ManagerEvent::Request { t, portable, qos });
        assert!(matches!(admitted.decision, Decision::Admitted(_)), "admits");
    }
    // Fade and recovery both trigger the eqn-2 maxmin re-solve.
    for (secs, fraction) in [(10, 0.4), (60, 1.0)] {
        let t = SimTime::from_secs(secs);
        let fade = apply(ManagerEvent::ChannelChange { t, cell, fraction });
        assert!(fade.round_ran);
    }
    let obs = mgr.take_obs();
    assert!(obs.count(EventKind::MaxminRound) > 0);
    assert!(obs.count(EventKind::AdmitDecision) >= 2);
}
