//! Adaptive streams: loose QoS bounds and maxmin adaptation in action.
//!
//! Three video users share one 1.6 Mbps cell with `[b_min, b_max]`
//! bounds; as they arrive and leave, the resource manager re-divides the
//! excess bandwidth maxmin-fairly — the §5 machinery end to end, plus
//! the distributed ADVERTISE/UPDATE protocol computing the same rates by
//! message passing.
//!
//! ```text
//! cargo run --release -p arm-core --example adaptive_streams
//! ```

use arm_core::{Decision, ManagerConfig, ManagerEvent, Outcome, ResourceManager, Strategy};
use arm_mobility::environment::IndoorEnvironment;
use arm_net::flowspec::QosRequest;
use arm_net::ids::PortableId;
use arm_profiles::CellClass;
use arm_qos::maxmin::distributed::{DistributedMaxmin, Ev, Variant};
use arm_sim::{Engine, SimDuration, SimTime};

fn main() {
    // One office cell; everyone is static (arrives, then dwells).
    let mut env = IndoorEnvironment::new();
    let office = env.add_cell("office", CellClass::Office);
    let corridor = env.add_cell("corridor", CellClass::Corridor);
    env.connect(office, corridor);
    let net = env.build_network(1600.0, 0.0, 100_000.0);
    let cfg = ManagerConfig {
        strategy: Strategy::Paper,
        t_th: SimDuration::from_secs(1), // everyone is static immediately
        dyn_pool: None,
        resolve_excess: true,
        ..Default::default()
    };
    let mut mgr = ResourceManager::new(env, net, cfg);

    let specs = [
        ("video-a", 64.0, 1200.0),
        ("video-b", 64.0, 800.0),
        ("audio-c", 16.0, 128.0),
    ];
    let mut conns = Vec::new();
    let mut t = SimTime::ZERO;
    println!("arrivals (each admission re-runs maxmin conflict resolution):");
    for (i, (name, lo, hi)) in specs.iter().enumerate() {
        t += SimDuration::from_secs(10);
        let portable = PortableId(i as u32);
        let appear = ManagerEvent::Appear {
            t: SimTime::ZERO,
            portable,
            cell: office,
        };
        let _ = mgr.apply(&appear).expect("a well-formed event");
        let qos = QosRequest::bandwidth(*lo, *hi)
            .with_delay(5.0)
            .with_jitter(5.0)
            .with_loss(1.0);
        let request = ManagerEvent::Request { t, portable, qos };
        let Ok(Outcome {
            decision: Decision::Admitted(id),
            ..
        }) = mgr.apply(&request)
        else {
            panic!("admits");
        };
        conns.push((*name, id));
        let rates: Vec<String> = conns
            .iter()
            .map(|(n, c)| format!("{n}={:.0}", mgr.net.get(*c).expect("live").b_current))
            .collect();
        println!("  after {name:<8} rates: {}", rates.join("  "));
    }

    println!("\ndeparture of video-a frees its share:");
    let (t, portable) = (t + SimDuration::from_secs(60), PortableId(0));
    let hang_up = ManagerEvent::Terminate { t, portable };
    let _ = mgr.apply(&hang_up).expect("video-a holds its connection");
    for (n, c) in &conns[1..] {
        println!(
            "  {n}: {:.0} kbps",
            mgr.net.get(*c).expect("live").b_current
        );
    }

    // The same division computed by the distributed protocol.
    println!("\ndistributed ADVERTISE/UPDATE protocol on the same problem:");
    let wl = mgr.net.topology().wireless_link(office);
    let mut proto = DistributedMaxmin::new(Variant::Refined, SimDuration::from_millis(1));
    let excess = 1600.0 - 64.0 - 16.0; // floors of b and c
    proto.add_link(wl, excess);
    proto.add_conn(conns[1].1, vec![wl], 800.0 - 64.0);
    proto.add_conn(conns[2].1, vec![wl], 128.0 - 16.0);
    let mut engine = Engine::new(proto);
    engine.schedule_at(SimTime::ZERO, Ev::ChangeExcess { link: wl, excess });
    engine.run();
    for (n, c) in &conns[1..] {
        let floor = mgr.net.get(*c).expect("live").qos.b_min;
        let excess_rate = engine.model().rates().get(c).copied().unwrap_or(0.0);
        println!(
            "  {n}: floor {floor:.0} + converged excess {excess_rate:.0} = {:.0} kbps",
            floor + excess_rate
        );
    }
    let stats = engine.model().stats();
    println!(
        "  ({} ADVERTISE hops, {} UPDATE hops, {} adaptation processes)",
        stats.advertise_hops, stats.update_hops, stats.sessions
    );
}
