//! Table 2: the admission test for a new connection request, walked row
//! by row on a worked example.
//!
//! A 64–256 kbps connection with (σ=8 kb, ρ=64 kbps, L_max=1 kb), delay
//! bound 1 s, jitter bound 1 s, loss bound 5%, routed over four hops
//! (wireless 1.6 Mbps with 1% error → backbone 10 Mbps ×2 → wireless),
//! under both WFQ and RCSP.

use arm_bench::report;
use arm_net::flowspec::{QosRequest, TrafficSpec};
use arm_net::routing::shortest_path;
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_obs::RunReport;
use arm_qos::admission::{admit, AdmissionRequest, Discipline, MobilityClass, RequestKind};
use arm_sim::SimTime;

fn main() {
    println!("== Table 2: admission test for a new connection request ==\n");
    let mut t = Topology::new();
    let sw = t.add_switch("sw");
    let c0 = t.add_cell("c0", 1600.0, 0.01);
    let c1 = t.add_cell("c1", 1600.0, 0.01);
    t.add_wired_duplex(sw, t.base_station(c0), 10_000.0, 0.0);
    t.add_wired_duplex(sw, t.base_station(c1), 10_000.0, 0.0);
    let mut net = Network::new(t);

    let qos = QosRequest::bandwidth(64.0, 256.0)
        .with_delay(1.0)
        .with_jitter(1.0)
        .with_loss(0.05)
        .with_traffic(TrafficSpec::new(8.0, 64.0));
    println!(
        "request: [b_min, b_max] = [{}, {}] kbps, d = {} s, σ̄ = {} s,",
        qos.b_min, qos.b_max, qos.delay_bound, qos.jitter_bound
    );
    println!(
        "         p_e = {}, (σ, ρ) = ({}, {}), L_max = {} kb\n",
        qos.loss_bound, qos.traffic.sigma, qos.traffic.rho, qos.traffic.l_max
    );

    let mut rep = RunReport::new("expt_table2", "table-2-admission-test");
    for (discipline, name) in [(Discipline::Wfq, "WFQ"), (Discipline::Rcsp, "RCSP")] {
        for (mobility, mname) in [
            (MobilityClass::Static, "static portable"),
            (MobilityClass::Mobile, "mobile portable"),
        ] {
            let id = net.next_conn_id();
            let route = shortest_path(
                net.topology(),
                net.topology().air_node(c0),
                net.topology().air_node(c1),
            )
            .expect("connected");
            net.install(Connection::new(
                id,
                arm_net::ids::PortableId(0),
                c0,
                arm_net::ids::NodeId(0),
                qos,
                route,
                SimTime::ZERO,
            ));
            let out = admit(
                &mut net,
                AdmissionRequest {
                    conn: id,
                    discipline,
                    mobility,
                    kind: RequestKind::New,
                },
            )
            .expect("feasible request");
            println!("--- {name}, {mname} ---");
            println!("  forward pass: bandwidth ok on 4 hops; stamped rate collected");
            println!("    b_stamp = {:.1} kbps", out.b_stamp);
            println!(
                "  destination: d_min = {:.4} s ≤ d = {} s; loss = {:.4} ≤ {}",
                out.d_min, qos.delay_bound, out.loss, qos.loss_bound
            );
            println!("  reverse pass:");
            println!(
                "    granted rate b = {:.1} kbps ({})",
                out.b_granted,
                if mobility == MobilityClass::Static {
                    "b_min + b_stamp"
                } else {
                    "b_min"
                }
            );
            let budgets: Vec<String> = out
                .hop_delay_budgets
                .iter()
                .map(|d| format!("{d:.4}"))
                .collect();
            println!(
                "    relaxed per-hop delay budgets d'_l = [{}] s (sum = {:.4})",
                budgets.join(", "),
                out.hop_delay_budgets.iter().sum::<f64>()
            );
            let bufs: Vec<String> = out.hop_buffers.iter().map(|b| format!("{b:.2}")).collect();
            println!("    buffers reserved per hop = [{}] kb\n", bufs.join(", "));
            rep.notes.push(format!(
                "{name}/{mname}: b_granted={:.1} kbps, d_min={:.4} s, loss={:.4}",
                out.b_granted, out.d_min, out.loss
            ));
            // Clean up for the next variant.
            net.finish(id);
        }
    }

    println!("rejection rows (each tested in `arm-qos` unit tests):");
    println!("  bandwidth:  b_min > C_l − b_resv,l − Σ b_min,i at some link");
    println!("  jitter:     (σ + l·L_max)/b_min > σ̄ at hop l (or end-to-end)");
    println!("  delay:      (σ + n·L_max)/b_min + Σ L_max/C_i > d");
    println!("  loss:       1 − Π(1 − p_e,i) > p_e");
    println!("  buffer:     discipline-specific demand exceeds the node pool");
    report::emit_or_warn(&rep);
}
