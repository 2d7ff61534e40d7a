//! The observability layer's zero-interference contract, on the path
//! only a directly driven manager takes.
//!
//! Observation must be strictly passive; the scenario-level halves of
//! that contract (a plain and a faulted replay, observer off vs on) are
//! `crates/server/tests/obs_differential.rs`. Scenarios leave the eqn-2
//! adaptation path off, so its emission point is exercised here.

use arm_core::{ManagerConfig, ResourceManager, Strategy};
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
    for i in 0..2u32 {
        let p = PortableId(i);
        mgr.portable_appears(p, f4.c, SimTime::ZERO);
        mgr.request_connection(p, adaptive, SimTime::from_secs(1 + u64::from(i)))
            .expect("admits");
    }
    // Fade and recovery both trigger the eqn-2 maxmin re-solve.
    mgr.channel_change(f4.c, 0.4, SimTime::from_secs(10))
        .expect("valid fraction");
    mgr.channel_change(f4.c, 1.0, SimTime::from_secs(60))
        .expect("valid fraction");
    let obs = mgr.take_obs();
    assert!(obs.count(EventKind::MaxminRound) > 0);
    assert!(obs.count(EventKind::AdmitDecision) >= 2);
}
