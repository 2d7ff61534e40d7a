//! Exhaustive small-topology sweep for both protocol models.
//!
//! Enumerates *every* topology in the bounded family — 1..=3 links,
//! 1..=4 connections, each connection routed over any non-empty link
//! subset (multisets of routes, since two connections may share a
//! route) — and model-checks the maxmin and admission transition
//! systems on each. Capacities, demands, floors and delays come from
//! fixed palettes chosen to exercise bottlenecks, contention, and
//! destination-test rejections. A handful of canonical topologies are
//! additionally swept with a control-plane loss budget (the loss
//! dimension multiplies the state space, so it is bounded to the
//! canonical set to stay inside the time budget).
//!
//! The whole sweep is the static proof obligation from the roadmap:
//! 4-RTT convergence to the maxmin optimum and `b_min` preservation on
//! all small topologies, in bounded wall time.

use serde::Serialize;

use super::admission::AdmissionSystem;
use super::maxmin::MaxminSystem;
use super::{Checker, Counterexample, TransitionSystem};

/// Aggregate results of a full sweep (the protocol sweep here, the
/// engine sweep in [`super::engine`]).
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct SweepReport {
    /// Model-check runs performed.
    pub runs: usize,
    /// Total distinct states across runs.
    pub states: usize,
    /// Total transitions across runs.
    pub transitions: usize,
    /// Wall time of the sweep in milliseconds.
    pub elapsed_ms: u64,
}

/// Capacity palette (cycled per link index): a wide link, a tight
/// bottleneck, a middling link.
const CAPS: [f64; 3] = [10.0, 4.0, 6.0];
/// Demand palette (cycled per connection): mostly unbounded, one small.
const DEMANDS: [f64; 4] = [100.0, 100.0, 2.0, 100.0];
/// Admission floor palette (cycled per request).
const FLOORS: [u16; 4] = [7, 4, 3, 5];
/// Admission capacity palette.
const ACAPS: [u16; 3] = [10, 6, 8];

/// Every non-empty subset of `0..n_links` as an ordered route.
pub(super) fn all_routes(n_links: u8) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for mask in 1u8..(1 << n_links) {
        out.push((0..n_links).filter(|l| mask & (1 << l) != 0).collect());
    }
    out
}

/// Every multiset of `k` route indices drawn from `n` routes
/// (non-decreasing index vectors).
pub(super) fn route_multisets(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; k];
    loop {
        out.push(cur.clone());
        // Next non-decreasing vector.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] + 1 < n {
                cur[i] += 1;
                let v = cur[i];
                for c in cur.iter_mut().skip(i + 1) {
                    *c = v;
                }
                break;
            }
        }
    }
}

/// Visit every bounded topology as `(link_count, routes-per-conn)`.
fn for_each_topology(
    mut f: impl FnMut(u8, &[Vec<u8>]) -> Result<(), Counterexample>,
) -> Result<(), Counterexample> {
    for n_links in 1u8..=3 {
        let routes = all_routes(n_links);
        for n_conns in 1usize..=4 {
            for pick in route_multisets(routes.len(), n_conns) {
                let conn_routes: Vec<Vec<u8>> = pick.iter().map(|i| routes[*i].clone()).collect();
                f(n_links, &conn_routes)?;
            }
        }
    }
    Ok(())
}

pub(super) fn check_into(
    report: &mut SweepReport,
    checker: &Checker,
    name: &str,
    sys: &impl TransitionSystem,
) -> Result<(), Counterexample> {
    let t = std::time::Instant::now();
    let stats = checker.run(name, sys)?;
    if std::env::var_os("ARM_CHECK_SWEEP_DEBUG").is_some() && stats.states > 20_000 {
        eprintln!(
            "[sweep] {name} run {}: {} states, {} transitions, {} ms",
            report.runs,
            stats.states,
            stats.transitions,
            t.elapsed().as_millis()
        );
    }
    report.runs += 1;
    report.states += stats.states;
    report.transitions += stats.transitions;
    Ok(())
}

/// Model-check the distributed maxmin protocol on every bounded
/// topology, plus the canonical set under control-plane loss.
pub fn sweep_maxmin(report: &mut SweepReport) -> Result<(), Counterexample> {
    let checker = Checker::default();
    for_each_topology(|n_links, conn_routes| {
        let excess: Vec<f64> = (0..n_links as usize)
            .map(|l| CAPS[l % CAPS.len()])
            .collect();
        let demands: Vec<f64> = (0..conn_routes.len())
            .map(|c| DEMANDS[c % DEMANDS.len()])
            .collect();
        let sys = MaxminSystem::new(excess, conn_routes.to_vec(), demands);
        check_into(report, &checker, "maxmin", &sys)
    })?;
    // Loss dimension on canonical contended topologies only.
    let canonical: [(Vec<f64>, Vec<Vec<u8>>); 3] = [
        (vec![10.0], vec![vec![0], vec![0]]),
        (vec![10.0, 4.0], vec![vec![0, 1], vec![0], vec![1]]),
        (vec![10.0, 4.0, 6.0], vec![vec![0, 1, 2], vec![1]]),
    ];
    for (excess, routes) in canonical {
        let demands = vec![100.0; routes.len()];
        let sys = MaxminSystem::new(excess, routes, demands).with_loss_budget(2);
        check_into(report, &checker, "maxmin+loss", &sys)?;
    }
    Ok(())
}

/// Model-check round-trip admission on every bounded topology, with a
/// delay-bounded variant on multi-hop routes.
pub fn sweep_admission(report: &mut SweepReport) -> Result<(), Counterexample> {
    let checker = Checker::default();
    for_each_topology(|n_links, conn_routes| {
        let cap: Vec<u16> = (0..n_links as usize)
            .map(|l| ACAPS[l % ACAPS.len()])
            .collect();
        let floors: Vec<u16> = (0..conn_routes.len())
            .map(|r| FLOORS[r % FLOORS.len()])
            .collect();
        let sys = AdmissionSystem::new(cap.clone(), conn_routes.to_vec(), floors.clone());
        check_into(report, &checker, "admission", &sys)?;
        // Delay-bounded variant: per-hop delay 5, one tight budget.
        let d_max: Vec<u16> = (0..conn_routes.len())
            .map(|r| if r == 0 { 8 } else { 100 })
            .collect();
        let sys = AdmissionSystem::new(cap, conn_routes.to_vec(), floors)
            .with_delays(vec![5; n_links as usize], d_max);
        check_into(report, &checker, "admission+delay", &sys)
    })
}

/// The full proof obligation: both protocol sweeps. Returns the
/// aggregate report, or the first counterexample found.
pub fn sweep_all() -> Result<SweepReport, Box<Counterexample>> {
    let start = std::time::Instant::now();
    let mut report = SweepReport::default();
    sweep_maxmin(&mut report).map_err(Box::new)?;
    sweep_admission(&mut report).map_err(Box::new)?;
    report.elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_enumeration_counts() {
        assert_eq!(all_routes(1).len(), 1);
        assert_eq!(all_routes(2).len(), 3);
        assert_eq!(all_routes(3).len(), 7);
        // Multisets of size 4 from 7 routes: C(10, 4) = 210.
        assert_eq!(route_multisets(7, 4).len(), 210);
        assert_eq!(route_multisets(3, 2).len(), 6);
    }

    #[test]
    fn topology_family_size() {
        let mut n = 0usize;
        for_each_topology(|_, _| {
            n += 1;
            Ok(())
        })
        .expect("no checking here");
        // Σ over links L of Σ over conns k of C(routes(L)+k-1, k):
        // L=1: 4, L=2: 34, L=3: 329.
        assert_eq!(n, 4 + 34 + 329);
    }

    #[test]
    fn admission_sweep_verifies() {
        let mut report = SweepReport::default();
        sweep_admission(&mut report).expect("admission family verified");
        assert!(report.runs > 700);
    }

    // The maxmin half of the sweep is the expensive one; `cargo xtask
    // check` runs it (with the wall-time budget asserted) so the plain
    // test suite stays fast.
    #[test]
    #[ignore = "run via `cargo xtask check` or `cargo test -- --ignored`"]
    fn full_sweep_verifies_under_budget() {
        let report = sweep_all().expect("bounded family verified");
        assert!(
            report.elapsed_ms < 60_000,
            "sweep took {} ms, budget is 60s",
            report.elapsed_ms
        );
    }
}
