//! The Table 2 round trip as it stood while every request collected the
//! §5.3.1 stamp on its forward pass, whether or not its grant read it:
//! the oracle [`super::admit_with`] is tested against, compiled for
//! tests only so nothing else can call it.

use arm_net::link::LedgerError;
use arm_net::Network;
use arm_sim::Audited;

use super::{
    link_advertised_rate, rcsp, wfq, AdmissionRequest, AdmissionScratch, Discipline, MobilityClass,
    Rejection, RequestKind, TestKind,
};

/// What the oracle grants: [`super::AdmissionGrant`] with the stamp of
/// every request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Grant {
    pub(crate) b_granted: f64,
    pub(crate) b_stamp: f64,
    pub(crate) d_min: f64,
    pub(crate) loss: f64,
}

/// [`super::admit_with`] as it stood: the stamp folded in at every hop of
/// the forward pass.
pub(crate) fn admit_with(
    net: &mut Network,
    req: AdmissionRequest,
    scratch: &mut AdmissionScratch,
) -> Result<Grant, Rejection> {
    let AdmissionScratch {
        route_links,
        hop_delays,
        fwd_buffers,
        budgets,
        rev_buffers,
    } = scratch;
    let qos = {
        let c = net
            .get(req.conn)
            .precondition("connection must be installed");
        route_links.clear();
        route_links.extend_from_slice(&c.route.links);
        c.qos
    };
    qos.validate()
        .precondition("caller validates the QoS request");
    let n = route_links.len();
    hop_delays.clear();
    fwd_buffers.clear();
    budgets.clear();
    rev_buffers.clear();
    if n == 0 {
        // Degenerate single-node route: nothing to reserve.
        return Ok(Grant {
            b_granted: qos.b_min,
            b_stamp: 0.0,
            d_min: 0.0,
            loss: 0.0,
        });
    }
    let sigma = qos.traffic.sigma;
    let l_max = qos.traffic.l_max;
    let b_min = qos.b_min;

    // ---------------- forward pass ----------------
    let mut sum_inv_c = 0.0; // Σ L_max / C_i
    let mut survive = 1.0; // Π (1 − p_e,i)
    let mut b_stamp = qos.adaptable_range();
    for (hop0, lid) in route_links.iter().enumerate() {
        let hop = hop0 + 1; // Table 2 indexes hops from 1
        let ls = net.link(*lid);
        let cap = ls.capacity();

        // Bandwidth row.
        let bw_ok = match req.kind {
            RequestKind::New => ls.admits(b_min),
            RequestKind::Handoff => ls.admits_with_claim(req.conn, b_min),
        };
        if !bw_ok {
            return Err(Rejection {
                test: TestKind::Bandwidth,
                link: Some(*lid),
            });
        }

        // Delay row: accumulate the per-hop worst case.
        let d_l = l_max / b_min + l_max / cap;
        hop_delays.push(d_l);
        sum_inv_c += l_max / cap;

        // Jitter row at hop l.
        if (sigma + hop as f64 * l_max) / b_min > qos.jitter_bound + 1e-12 {
            return Err(Rejection {
                test: TestKind::Jitter,
                link: Some(*lid),
            });
        }

        // Buffer row (worst case, using b_max on the forward pass).
        let buf = match req.discipline {
            Discipline::Wfq => wfq::buffer_demand(sigma, l_max, hop),
            Discipline::Rcsp => {
                let d_prev = if hop == 1 {
                    None
                } else {
                    Some(hop_delays[hop0 - 1])
                };
                rcsp::buffer_demand(sigma, l_max, qos.b_max, d_prev, d_l)
            }
        };
        fwd_buffers.push(buf);

        // Loss row: accumulate survival probability.
        let p = net.topology().link(*lid).error_prob;
        survive *= 1.0 - p;

        // Stamped rate: clamped by each link's advertised rate (§5.3.1).
        let mu = link_advertised_rate(net, *lid);
        b_stamp = b_stamp.min(mu.max(0.0));
    }

    // ---------------- destination tests ----------------
    let d_min = (sigma + n as f64 * l_max) / b_min + sum_inv_c;
    if d_min > qos.delay_bound + 1e-12 {
        return Err(Rejection {
            test: TestKind::Delay,
            link: None,
        });
    }
    if (sigma + n as f64 * l_max) / b_min > qos.jitter_bound + 1e-12 {
        return Err(Rejection {
            test: TestKind::Jitter,
            link: None,
        });
    }
    let loss = 1.0 - survive;
    if loss > qos.loss_bound + 1e-12 {
        return Err(Rejection {
            test: TestKind::PacketLoss,
            link: None,
        });
    }

    // ---------------- reverse pass ----------------
    // Uniform relaxation: spread the end-to-end slack (and the burst
    // drain term) evenly across hops; budgets then sum exactly to d_j.
    let slack = (qos.delay_bound - d_min) / n as f64 + sigma / (n as f64 * b_min);
    budgets.extend(hop_delays.iter().map(|d| d + slack));

    // Granted rate: static portables take their stamped excess share;
    // mobile (and handoff) connections are pinned to the floor.
    let b_granted = match (req.mobility, req.kind) {
        (MobilityClass::Static, RequestKind::New) => b_min + b_stamp,
        _ => b_min,
    };

    // Buffers recomputed from the granted rate and relaxed budgets
    // (Table 2's reverse-pass buffer column).
    rev_buffers.extend((0..n).map(|hop0| {
        let hop = hop0 + 1;
        match req.discipline {
            Discipline::Wfq => wfq::buffer_demand(sigma, l_max, hop),
            Discipline::Rcsp => {
                let d_prev = if hop == 1 {
                    None
                } else {
                    Some(budgets[hop0 - 1])
                };
                rcsp::buffer_reserved(sigma, l_max, b_granted, d_prev, budgets[hop0])
            }
        }
    }));

    // ---------------- firm reservation ----------------
    let as_handoff = req.kind == RequestKind::Handoff;
    if let Err((lid, e)) = net.reserve_route(req.conn, route_links, b_min, rev_buffers, as_handoff)
    {
        // The forward test passed but the ledger refused — only possible
        // for the buffer pool (bandwidth was tested identically above).
        let test = match e {
            LedgerError::BufferExhausted => TestKind::Buffer,
            _ => TestKind::Bandwidth,
        };
        return Err(Rejection {
            test,
            link: Some(lid),
        });
    }
    if b_granted > b_min {
        // Raise toward the granted rate where the links allow it today;
        // the adaptation machinery keeps it maxmin-fair afterwards.
        let mut grant = b_granted;
        for lid in route_links.iter() {
            let ls = net.link(*lid);
            let own = ls.alloc(req.conn).map_or(0.0, |a| a.b_alloc);
            let room = (ls.capacity() - ls.b_resv() - ls.sum_b_alloc() + own).max(b_min);
            grant = grant.min(room);
        }
        net.set_conn_rate(req.conn, grant.max(b_min))
            .invariant("grant was clamped to fit");
    }

    Ok(Grant {
        b_granted: net.get(req.conn).map_or(b_granted, |c| c.b_current),
        b_stamp,
        d_min,
        loss,
    })
}
