//! Multicast pre-setup on the wired backbone (§4).
//!
//! "To reduce transient behavior of connections to a mobile upon handoff,
//! the backbone network will also set up multicast routes for the
//! connection in all neighboring cells so that the network can multicast
//! the packets to the pre-allocated buffer space in these neighbors. To
//! set up these multicast routes on the wired network, end-to-end
//! admission control test\[s\] and associated resource reservation are also
//! performed for them. However, the failure of the end-to-end test along
//! any route will not cause the forced termination of the connection."
//!
//! Mechanically: for a mobile portable's connection homed in cell `c`,
//! the manager reserves, along the *wired* part of a route to each
//! neighbour's base station, the connection's floor plus buffer — under a
//! dedicated multicast claim so the wireless media of the neighbours are
//! untouched (those are governed by the advance-reservation claims).
//! Failures are recorded but non-fatal, exactly per the paper.

use std::collections::BTreeMap;
use std::ops::Range;

use arm_net::ids::{CellId, ConnId, LinkId};
use arm_net::link::ResvClaim;
use arm_net::Network;
use serde::{Deserialize, Serialize, Value};

/// One wired link of one branch: `(connection, neighbour, link)`.
type Row = (ConnId, CellId, LinkId);

/// The wired legs currently reserved for every connection's multicast
/// fan-out, as one flat table reused in place: a handoff re-wires its
/// connection's rows where they stand, and within the table's capacity
/// neither [`establish`](Self::establish) nor
/// [`teardown`](Self::teardown) allocates.
///
/// It serialises as the map it replaced — connection → neighbour →
/// wired links, `{conn: {neighbour: [links]}}` in the vendored model's
/// pair encoding — so snapshot bytes and the schema fingerprints are
/// unchanged; the text is streamed with no tree built, and
/// [`to_value`](Serialize::to_value)'s tree is kept as its oracle.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MulticastState {
    /// One row per wired link of every branch, ascending by connection
    /// and then by neighbour, each branch's links in route order: a
    /// connection's rows are contiguous, and so are a branch's.
    rows: Vec<Row>,
    /// Branch set-up attempts that failed admission (non-fatal).
    pub(crate) failed_branches: u64,
    /// Branches currently established.
    pub active_branches: usize,
}

impl MulticastState {
    /// Fresh, empty state.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// (Re)establish the multicast branches for `conn` along `legs`, its
    /// home cell's row of the manager's neighbour route table
    /// (`arm_net::routing::neighbor_legs`, ascending by neighbour).
    /// Existing branches are torn down first (the neighbour set changes
    /// with every handoff), and the new rows take the old ones' place.
    /// Reserves `b_min` on the *wired* links of each branch under
    /// [`ResvClaim::Conn`]; the wireless media are deliberately excluded.
    pub(crate) fn establish(
        &mut self,
        net: &mut Network,
        conn: ConnId,
        b_min: f64,
        legs: &[(CellId, Option<Vec<LinkId>>)],
    ) {
        debug_assert!(legs.windows(2).all(|w| w[0].0 < w[1].0), "legs ascend");
        let old = self.release(net, conn);
        // The new rows go to the end of the table first ...
        let fresh = self.rows.len();
        for (n, wired) in legs {
            // Admission on the wired legs only: every link must fit the
            // floor beside its existing floors and claims. A neighbour
            // the backbone cannot reach fails the same way.
            let Some(wired) = wired
                .as_ref()
                .filter(|w| w.iter().all(|l| net.link(*l).admits(b_min)))
            else {
                self.failed_branches += 1;
                continue;
            };
            debug_assert!(!wired.is_empty(), "base stations are wired apart");
            for l in wired {
                let cur = net.link(*l).claim(ResvClaim::Conn(conn));
                net.link_mut(*l)
                    .set_claim(ResvClaim::Conn(conn), cur + b_min);
            }
            self.rows.extend(wired.iter().map(|l| (conn, *n, *l)));
            self.active_branches += 1;
        }
        // ... and then replace the old ones: rotated in front of them,
        // which are then drained.
        let added = self.rows.len() - fresh;
        self.rows[old.start..].rotate_right(added);
        self.rows.drain(old.start + added..old.end + added);
    }

    /// Tear down every branch of `conn` (termination, drop, a portable
    /// that settled, or before re-establishing after a handoff).
    pub(crate) fn teardown(&mut self, net: &mut Network, conn: ConnId) {
        let old = self.release(net, conn);
        self.rows.drain(old);
    }

    /// Release `conn`'s claims branch by branch, link by link, and
    /// return where its rows stand.
    fn release(&mut self, net: &mut Network, conn: ConnId) -> Range<usize> {
        let span = self.span(conn);
        let mut branch = None;
        for &(_, n, l) in &self.rows[span.clone()] {
            if branch != Some(n) {
                branch = Some(n);
                self.active_branches = self.active_branches.saturating_sub(1);
            }
            net.link_mut(l).release_claim(ResvClaim::Conn(conn));
        }
        span
    }

    /// Where `conn`'s rows stand (empty, at its place, if it has none).
    fn span(&self, conn: ConnId) -> Range<usize> {
        let start = self.rows.partition_point(|r| r.0 < conn);
        start..start + self.rows[start..].partition_point(|r| r.0 == conn)
    }

    /// The neighbours currently receiving `conn`'s multicast.
    #[cfg(test)]
    pub(crate) fn branches_of(&self, conn: ConnId) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self.rows[self.span(conn)].iter().map(|r| r.1).collect();
        cells.dedup();
        cells
    }

    /// Every connection with a branch, ascending.
    pub(crate) fn connections(&self) -> impl Iterator<Item = ConnId> + '_ {
        Self::runs(&self.rows, |r| r.0).map(|run| run[0].0)
    }

    /// The rows in runs of equal `key`, in order.
    fn runs<'a, K: PartialEq>(
        rows: &'a [Row],
        key: impl Fn(&Row) -> K + 'a,
    ) -> impl Iterator<Item = &'a [Row]> + 'a {
        let mut rest = rows;
        std::iter::from_fn(move || {
            let first = rest.first()?;
            let k = key(first);
            let len = rest.iter().position(|r| key(r) != k).unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            rest = tail;
            Some(run)
        })
    }
}

impl Serialize for MulticastState {
    fn to_value(&self) -> Value {
        let branches = Self::runs(&self.rows, |r| r.0)
            .map(|conn| {
                let cells = Self::runs(conn, |r| r.1)
                    .map(|branch| {
                        let links = branch.iter().map(|r| r.2.to_value()).collect();
                        Value::Array(vec![branch[0].1.to_value(), Value::Array(links)])
                    })
                    .collect();
                Value::Array(vec![conn[0].0.to_value(), Value::Array(cells)])
            })
            .collect();
        Value::Object(vec![
            ("branches".to_string(), Value::Array(branches)),
            (
                "failed_branches".to_string(),
                self.failed_branches.to_value(),
            ),
            (
                "active_branches".to_string(),
                self.active_branches.to_value(),
            ),
        ])
    }
    /// The text of [`to_value`](Serialize::to_value)'s tree, with no tree
    /// built: that tree is kept as the oracle this is tested against.
    fn write_json(&self, out: &mut serde::JsonWriter) {
        out.raw("{\"branches\":[");
        for (i, conn) in Self::runs(&self.rows, |r| r.0).enumerate() {
            out.raw(if i > 0 { ",[" } else { "[" });
            conn[0].0.write_json(out);
            out.raw(",[");
            for (j, branch) in Self::runs(conn, |r| r.1).enumerate() {
                out.raw(if j > 0 { ",[" } else { "[" });
                branch[0].1.write_json(out);
                out.raw(",");
                out.seq(branch.iter().map(|r| r.2));
                out.raw("]");
            }
            out.raw("]]");
        }
        out.raw("],\"failed_branches\":");
        self.failed_branches.write_json(out);
        out.raw(",\"active_branches\":");
        self.active_branches.write_json(out);
        out.raw("}");
    }
}

impl Deserialize for MulticastState {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        wire::MulticastState::from_value(v)?.try_into()
    }
    fn read_json(r: &mut serde::JsonReader<'_>) -> Result<Self, serde::Error> {
        wire::MulticastState::read_json(r)?.try_into()
    }
}

/// The fields of a [`MulticastState`](super::MulticastState) as the
/// document spells them, under its name so the derive's error texts
/// carry it.
mod wire {
    use super::{BTreeMap, CellId, ConnId, LinkId};

    #[derive(serde::Deserialize)]
    pub(super) struct MulticastState {
        pub(super) branches: BTreeMap<ConnId, BTreeMap<CellId, Vec<LinkId>>>,
        pub(super) failed_branches: u64,
        pub(super) active_branches: usize,
    }
}

/// The maps are read as maps read them (ascending, the last of a
/// duplicated key wins) and laid out as rows. A connection with no
/// branch, or a branch with no link, has no row to stand in — no
/// writer emits one — so it is refused rather than dropped.
impl TryFrom<wire::MulticastState> for MulticastState {
    type Error = serde::Error;

    fn try_from(w: wire::MulticastState) -> Result<Self, serde::Error> {
        let mut rows = Vec::new();
        for (conn, branches) in w.branches {
            if branches.is_empty() {
                return Err(serde::Error::custom(
                    "MulticastState: a connection with no branch",
                ));
            }
            for (n, links) in branches {
                if links.is_empty() {
                    return Err(serde::Error::custom(
                        "MulticastState: a branch with no wired link",
                    ));
                }
                rows.extend(links.into_iter().map(|l| (conn, n, l)));
            }
        }
        Ok(MulticastState {
            rows,
            failed_branches: w.failed_branches,
            active_branches: w.active_branches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arm_mobility::environment::Figure4;
    use arm_net::routing::{neighbor_legs, shortest_path, NeighborLegs};

    fn setup() -> (Network, Figure4, Vec<NeighborLegs>) {
        let f4 = Figure4::build();
        // Modest backbone so multicast reservations can actually fail.
        let net = f4.env.build_network(1600.0, 0.0, 1000.0);
        let legs = neighbor_legs(net.topology(), |c| f4.env.neighbors(c));
        (net, f4, legs)
    }

    #[test]
    fn branches_reserve_only_wired_links() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        assert_eq!(
            mc.branches_of(conn),
            f4.env.neighbors(f4.d).collect::<Vec<_>>()
        );
        // Wireless media untouched.
        for (cell, _) in f4.env.cells() {
            let wl = net.topology().wireless_link(cell);
            assert_eq!(net.link(wl).claim(ResvClaim::Conn(conn)), 0.0);
        }
        // Wired links toward each neighbour hold the claim.
        let dst = net.topology().base_station(f4.a);
        let src = net.topology().base_station(f4.d);
        let route = shortest_path(net.topology(), src, dst).expect("connected");
        let wired: Vec<LinkId> = route
            .links
            .iter()
            .copied()
            .filter(|l| net.topology().link(*l).wireless_cell.is_none())
            .collect();
        assert!(!wired.is_empty());
        for l in wired {
            assert!(net.link(l).claim(ResvClaim::Conn(conn)) >= 64.0);
        }
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn reestablish_moves_branches_with_the_portable() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        let before = mc.branches_of(conn);
        assert!(before.contains(&f4.a));
        // Handoff D → E: branches now cover E's neighbours only.
        mc.establish(&mut net, conn, 64.0, &legs[f4.e.index()]);
        let after = mc.branches_of(conn);
        assert!(after.contains(&f4.b));
        assert!(!after.contains(&f4.a));
        // No leaked claims on the old branches beyond the new ones.
        mc.teardown(&mut net, conn);
        for i in 0..net.topology().link_count() {
            let l = LinkId::from_index(i);
            assert_eq!(net.link(l).claim(ResvClaim::Conn(conn)), 0.0, "{l:?}");
        }
        assert!(net.check_invariants().is_ok());
    }

    #[test]
    fn branch_failure_is_nonfatal_and_counted() {
        let (mut net, f4, legs) = setup();
        // Saturate the backbone toward A.
        let bs_a = net.topology().base_station(f4.a);
        let hub = arm_net::ids::NodeId(0);
        let route = shortest_path(net.topology(), hub, bs_a).expect("connected");
        for l in &route.links {
            if net.topology().link(*l).wireless_cell.is_none() {
                let cap = net.link(*l).capacity();
                net.link_mut(*l).set_claim(ResvClaim::DynPool, cap);
            }
        }
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()]);
        // The A branch failed; the others stand.
        assert!(mc.failed_branches >= 1);
        assert!(!mc.branches_of(conn).contains(&f4.a));
        assert!(mc.branches_of(conn).contains(&f4.e));
    }

    /// The per-connection map the flat table replaced, with its
    /// `establish`/`teardown` verbatim: the oracle of
    /// [`the_table_is_the_map_it_replaced`]. Its derived codec writes
    /// the text the table must stream.
    #[derive(Default, Serialize)]
    struct MapModel {
        branches: BTreeMap<ConnId, BTreeMap<CellId, Vec<LinkId>>>,
        failed_branches: u64,
        active_branches: usize,
    }

    impl MapModel {
        fn establish(
            &mut self,
            net: &mut Network,
            conn: ConnId,
            b_min: f64,
            legs: &[(CellId, Option<Vec<LinkId>>)],
        ) {
            self.teardown(net, conn);
            let mut branches = BTreeMap::new();
            for (n, wired) in legs {
                let Some(wired) = wired
                    .as_ref()
                    .filter(|w| w.iter().all(|l| net.link(*l).admits(b_min)))
                else {
                    self.failed_branches += 1;
                    continue;
                };
                for l in wired {
                    let cur = net.link(*l).claim(ResvClaim::Conn(conn));
                    net.link_mut(*l)
                        .set_claim(ResvClaim::Conn(conn), cur + b_min);
                }
                branches.insert(*n, wired.clone());
            }
            self.active_branches += branches.len();
            if !branches.is_empty() {
                self.branches.insert(conn, branches);
            }
        }

        fn teardown(&mut self, net: &mut Network, conn: ConnId) {
            if let Some(branches) = self.branches.remove(&conn) {
                for (_, links) in branches {
                    self.active_branches = self.active_branches.saturating_sub(1);
                    for l in links {
                        net.link_mut(l).release_claim(ResvClaim::Conn(conn));
                    }
                }
            }
        }
    }

    fn text<T: Serialize>(v: &T) -> String {
        let mut out = serde::JsonWriter::new();
        v.write_json(&mut out);
        out.into_string()
    }

    /// The tree writer's text over `to_value()`.
    fn tree_text<T: Serialize>(v: &T) -> String {
        let mut out = serde::JsonWriter::new();
        v.to_value().write_json(&mut out);
        out.into_string()
    }

    /// One link's claims and running sums, as bits.
    type LedgerBits = (Vec<(ResvClaim, u64)>, [u64; 4]);

    /// Every link's [`LedgerBits`].
    fn ledger_bits(net: &Network) -> Vec<LedgerBits> {
        net.links()
            .map(|(_, l)| {
                (
                    l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
                    l.sum_bits(),
                )
            })
            .collect()
    }

    #[derive(Clone, Debug)]
    enum Step {
        /// Connection, home cell (index), floor (index).
        Establish(u32, usize, usize),
        Teardown(u32),
        /// Replace the table with its clone.
        Clone,
        /// Replace the table with what its text decodes to.
        RoundTrip,
    }

    fn step() -> impl Strategy<Value = Step> {
        let establish =
            || (0..6u32, 0..7usize, 0..3usize).prop_map(|(c, n, b)| Step::Establish(c, n, b));
        prop_oneof![
            establish(),
            establish(),
            (0..6u32).prop_map(Step::Teardown),
            Just(Step::Clone),
            Just(Step::RoundTrip),
        ]
    }

    use proptest::prelude::*;

    proptest! {
        /// Random establish / teardown / clone / round-trip steps on the
        /// modest Figure 4 backbone, where branches are refused: after
        /// every step the table streams the tree writer's text over its
        /// own `to_value()`, and the text of the map it replaced driven
        /// through the same steps on a twin network, whose every ledger
        /// is the same bits. Its text decodes, by the one-pass reader and
        /// through the tree alike, to an equal table.
        #[test]
        fn the_table_is_the_map_it_replaced(steps in prop::collection::vec(step(), 1..48)) {
            let (mut net, f4, legs) = setup();
            let mut model_net = net.clone();
            let cells: Vec<CellId> = f4.env.cells().map(|(c, _)| c).collect();
            let (mut mc, mut model) = (MulticastState::new(), MapModel::default());
            for s in steps {
                match s {
                    Step::Establish(c, n, b) => {
                        let b_min = [64.0, 256.0, 448.0][b];
                        let row = &legs[cells[n].index()];
                        mc.establish(&mut net, ConnId(c), b_min, row);
                        model.establish(&mut model_net, ConnId(c), b_min, row);
                    }
                    Step::Teardown(c) => {
                        mc.teardown(&mut net, ConnId(c));
                        model.teardown(&mut model_net, ConnId(c));
                    }
                    Step::Clone => mc = mc.clone(),
                    Step::RoundTrip => {
                        let t = text(&mc);
                        let mut r = serde::JsonReader::new(&t);
                        let back = MulticastState::read_json(&mut r).expect("decodes");
                        r.finish().expect("whole");
                        let tree = serde_json::from_str::<Value>(&t).expect("parses");
                        prop_assert_eq!(&MulticastState::from_value(&tree).expect("decodes"), &back);
                        prop_assert_eq!(&back, &mc);
                        mc = back;
                    }
                }
                let t = text(&mc);
                prop_assert_eq!(&t, &tree_text(&mc));
                prop_assert_eq!(&t, &text(&model));
                prop_assert_eq!(ledger_bits(&net), ledger_bits(&model_net));
                for c in (0..6).map(ConnId) {
                    let want: Vec<CellId> = model
                        .branches
                        .get(&c)
                        .map(|b| b.keys().copied().collect())
                        .unwrap_or_default();
                    prop_assert_eq!(mc.branches_of(c), want);
                }
            }
        }
    }

    /// A connection with no branch and a branch with no link have no
    /// rows to stand in: refused, by either decoder, with the reason.
    #[test]
    fn empty_maps_and_lists_are_refused() {
        for (doc, why) in [
            (
                r#"{"branches":[[3,[]]],"failed_branches":0,"active_branches":0}"#,
                "a connection with no branch",
            ),
            (
                r#"{"branches":[[3,[[1,[]]]]],"failed_branches":0,"active_branches":1}"#,
                "a branch with no wired link",
            ),
        ] {
            let one_pass = MulticastState::read_json(&mut serde::JsonReader::new(doc));
            let tree = serde_json::from_str::<Value>(doc).expect("parses");
            for got in [one_pass, MulticastState::from_value(&tree)] {
                let e = got.expect_err("refused").to_string();
                assert!(e.contains(why), "{e}");
            }
        }
        // Keys out of order and repeated read as a map reads them.
        let doc = r#"{"branches":[[5,[[2,[7]]]],[3,[[4,[9]],[1,[8,6]],[4,[2]]]]],"failed_branches":1,"active_branches":3}"#;
        let mc = MulticastState::read_json(&mut serde::JsonReader::new(doc)).expect("decodes");
        assert_eq!(
            text(&mc),
            r#"{"branches":[[3,[[1,[8,6]],[4,[2]]]],[5,[[2,[7]]]]],"failed_branches":1,"active_branches":3}"#
        );
        assert_eq!(
            mc.connections().collect::<Vec<_>>(),
            vec![ConnId(3), ConnId(5)]
        );
    }

    #[test]
    fn teardown_is_idempotent() {
        let (mut net, f4, legs) = setup();
        let mut mc = MulticastState::new();
        let conn = ConnId(0);
        mc.establish(&mut net, conn, 64.0, &legs[f4.d.index()][..1]);
        assert_eq!(mc.branches_of(conn), vec![f4.a]);
        mc.teardown(&mut net, conn);
        mc.teardown(&mut net, conn);
        assert_eq!(mc.branches_of(conn).len(), 0);
    }
}
