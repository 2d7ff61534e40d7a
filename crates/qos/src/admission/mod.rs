//! The round-trip admission test of Table 2.
//!
//! Admission control "converts end-to-end QoS requirements into per-hop
//! requirements and tests for the availability of resources at
//! intermediate nodes" (§4.1). For a request with traffic envelope
//! `(σ_j, ρ)`, maximum packet `L_max`, bounds `[b_min, b_max]`, delay
//! bound `d_j`, jitter bound `σ̄` and loss bound `p_e`:
//!
//! **Forward pass** (at each hop `l` of the `n`-hop route):
//!
//! * bandwidth — `b_min,j ≤ C_l − b_resv,l − Σ_i b_min,i`,
//! * delay — accumulate the per-hop worst case
//!   `d_l,j := L_max/b_min,j + L_max/C_l`,
//! * jitter — `(σ_j + l·L_max)/b_min,j ≤ σ̄`,
//! * buffer — discipline-specific demand (`wfq`, `rcsp`),
//! * loss — accumulate `p_e,l`.
//!
//! **Destination**:
//!
//! * `d_min,j := (σ_j + n·L_max)/b_min,j + Σ_i L_max/C_i ≤ d_j`,
//! * `(σ_j + n·L_max)/b_min,j ≤ σ̄`,
//! * `1 − Π_i (1 − p_e,i) ≤ p_e`.
//!
//! **Reverse pass** (reclaiming over-reservation):
//!
//! * bandwidth — a *static* portable's connection is granted
//!   `b_j := b_min,j + b_stamp` where `b_stamp` is the stamped rate the
//!   forward packet collected (`min(b_max − b_min, min_l μ_l)`, §5.3.1);
//!   a *mobile* portable's connection is pinned to `b_min,j` (§3.4.2),
//! * delay — the "uniform relaxation policy": each hop's budget becomes
//!   `d'_l,j := d_l,j + (d_j − d_min,j)/n + σ_j/(n·b_min,j)`, so that the
//!   per-hop budgets sum exactly to `d_j`,
//! * buffer — recomputed from the granted rate and relaxed budgets.
//!
//! A *handoff* connection runs the same test but may consume its own
//! advance-reserved claim (`b_resv,l`), and is treated as mobile.

pub(crate) mod rcsp;
pub(crate) mod wfq;

use arm_net::ids::{ConnId, LinkId};
use arm_net::link::LedgerError;
use arm_net::Network;
use arm_sim::Audited;
use serde::{Deserialize, Serialize};

use crate::maxmin::advertised::advertised_rate_iter;

/// Scheduling discipline at intermediate nodes (§5.1 uses these two as
/// representative work-conserving / non-work-conserving disciplines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Discipline {
    /// Work-conserving weighted fair queueing.
    Wfq,
    /// Non-work-conserving rate-controlled static priority with
    /// rate-jitter regulators.
    Rcsp,
}

/// Is the requesting portable static or mobile? (§3.4.2: static portables
/// are upgraded toward `b_max`; mobile portables are pinned at `b_min`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MobilityClass {
    /// In the same cell for at least `T_th`.
    Static,
    /// Recently moved; expected to keep moving.
    Mobile,
}

/// New connection or handoff of an ongoing one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// Fresh request — may not touch advance reservations.
    New,
    /// Connection handing off into this route — may consume its own
    /// advance-reserved claim on each link.
    Handoff,
}

/// Everything the admission test needs to know about one request.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionRequest {
    /// The (pre-installed) connection this request concerns.
    pub conn: ConnId,
    /// Scheduler model for the buffer/delay rows of Table 2.
    pub discipline: Discipline,
    /// Static or mobile portable.
    pub mobility: MobilityClass,
    /// New connection or handoff.
    pub kind: RequestKind,
}

/// Which Table 2 row failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TestKind {
    /// Bandwidth row (forward).
    Bandwidth,
    /// Delay row (destination).
    Delay,
    /// Jitter row (forward or destination).
    Jitter,
    /// Buffer row (forward).
    Buffer,
    /// Packet-loss row (destination).
    PacketLoss,
}

/// A failed admission.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use]
pub struct Rejection {
    /// Which test failed.
    pub(crate) test: TestKind,
    /// The link at which it failed (`None` for end-to-end destination
    /// tests).
    pub(crate) link: Option<LinkId>,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.link {
            Some(l) => write!(f, "{:?} test failed at {l}", self.test),
            None => write!(f, "end-to-end {:?} test failed", self.test),
        }
    }
}

/// A successful admission.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct AdmissionOutcome {
    /// Rate granted on the reverse pass (kbps):
    /// `b_min + b_stamp` for static portables, `b_min` for mobile.
    pub b_granted: f64,
    /// The stamped rate collected on the forward pass (excess kbps).
    pub b_stamp: f64,
    /// Worst-case end-to-end delay `d_min,j` (seconds).
    pub d_min: f64,
    /// Relaxed per-hop delay budgets `d'_l,j` (seconds), summing to the
    /// requested bound `d_j`.
    pub hop_delay_budgets: Vec<f64>,
    /// Buffer reserved at each hop (kilobits), after the reverse pass.
    pub hop_buffers: Vec<f64>,
    /// Achieved end-to-end loss probability.
    pub loss: f64,
}

/// A successful admission, without the per-hop vectors: everything the
/// manager's hot admission sites need, in a `Copy` struct. The per-hop
/// delay budgets and buffers stay behind in the [`AdmissionScratch`]
/// (`budgets` / `rev_buffers`) for callers that want them.
#[derive(Clone, Copy, Debug, PartialEq)]
#[must_use]
pub struct AdmissionGrant {
    /// Rate granted on the reverse pass (kbps).
    pub b_granted: f64,
    /// The stamped rate collected on the forward pass (excess kbps).
    pub(crate) b_stamp: f64,
    /// Worst-case end-to-end delay `d_min,j` (seconds).
    pub(crate) d_min: f64,
    /// Achieved end-to-end loss probability.
    pub(crate) loss: f64,
}

/// Resident buffers for [`admit_with`], so a steady-state admission
/// round trip allocates nothing: the caller keeps one of these alive
/// across requests and every per-hop vector reuses its capacity.
#[derive(Clone, Debug, Default)]
pub struct AdmissionScratch {
    /// The request's route, copied out of the connection record so the
    /// ledgers can be walked while the network is mutated.
    route_links: Vec<LinkId>,
    /// Forward-pass per-hop worst-case delays `d_l,j`.
    hop_delays: Vec<f64>,
    /// Forward-pass worst-case buffer demands (Table 2's forward buffer
    /// column; informational — the ledger test runs on the reverse pass).
    fwd_buffers: Vec<f64>,
    /// Reverse-pass relaxed per-hop delay budgets `d'_l,j`, summing to
    /// the requested bound. Valid after an `Ok` from [`admit_with`].
    pub(crate) budgets: Vec<f64>,
    /// Reverse-pass per-hop buffer reservations (kilobits). Valid after
    /// an `Ok` from [`admit_with`].
    pub(crate) rev_buffers: Vec<f64>,
}

/// Run the full Table 2 round trip for an installed connection and, on
/// success, firm up the reservation in the ledgers (floors + buffers on
/// every hop; allocation raised to the granted rate).
///
/// On rejection nothing is reserved.
///
/// Allocating convenience wrapper over [`admit_with`]; hot callers keep
/// a resident [`AdmissionScratch`] and call that directly.
pub fn admit(net: &mut Network, req: AdmissionRequest) -> Result<AdmissionOutcome, Rejection> {
    let mut scratch = AdmissionScratch::default();
    let g = admit_with(net, req, &mut scratch)?;
    Ok(AdmissionOutcome {
        b_granted: g.b_granted,
        b_stamp: g.b_stamp,
        d_min: g.d_min,
        hop_delay_budgets: std::mem::take(&mut scratch.budgets),
        hop_buffers: std::mem::take(&mut scratch.rev_buffers),
        loss: g.loss,
    })
}

/// [`admit`] against caller-resident scratch buffers. Identical
/// semantics and arithmetic; the per-hop outputs are left in
/// `scratch.budgets` / `scratch.rev_buffers` instead of being returned
/// by value.
pub fn admit_with(
    net: &mut Network,
    req: AdmissionRequest,
    scratch: &mut AdmissionScratch,
) -> Result<AdmissionGrant, Rejection> {
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
        return Ok(AdmissionGrant {
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
    if let Err((lid, e)) =
        net.reserve_route_links(req.conn, route_links, b_min, rev_buffers, as_handoff)
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

    Ok(AdmissionGrant {
        b_granted: net.get(req.conn).map_or(b_granted, |c| c.b_current),
        b_stamp,
        d_min,
        loss,
    })
}

/// The advertised rate `μ_l` a link would quote a newcomer, computed from
/// the current excess allocations of its ongoing connections (§5.3.1's
/// admission shortcut: the forward packet collects
/// `min(b_max − b_min, min_l μ_l)`). Streams the recorded rates straight
/// off the link's membership index — no per-hop rate vector.
pub(crate) fn link_advertised_rate(net: &Network, lid: LinkId) -> f64 {
    let ls = net.link(lid);
    let n = net.conns_on_link(lid).count();
    advertised_rate_iter(ls.excess_available(), n, || {
        net.conns_on_link(lid)
            .map(|c| (c.b_current - c.qos.b_min).max(0.0))
    })
}

#[cfg(test)]
mod tests;
