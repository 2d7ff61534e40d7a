//! Property-based tests for link ledgers and routing.

use arm_net::flowspec::QosRequest;
use arm_net::ids::{CellId, ConnId, NodeId, PortableId};
use arm_net::link::{LinkState, ResvClaim};
use arm_net::routing::{shortest_path, Route};
use arm_net::topology::Topology;
use arm_net::{Connection, Network};
use arm_sim::SimTime;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// A random ledger operation. `AdmitHandoff` consumes the connection's
/// own claim; `RetainClaims` keeps the claims whose [`claim_kind`] bit is
/// set in `kinds`.
#[derive(Clone, Debug)]
enum Op {
    Admit { conn: u32, b_min: f64, buffer: f64 },
    Release { conn: u32 },
    SetAlloc { conn: u32, b: f64 },
    SetClaim { key: u8, amount: f64 },
    ReleaseClaim { key: u8 },
    AdmitHandoff { conn: u32, b_min: f64 },
    RetainClaims { kinds: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..8, 0.1f64..50.0, 0.0f64..10.0).prop_map(|(conn, b_min, buffer)| Op::Admit {
            conn,
            b_min,
            buffer
        }),
        (0u32..8).prop_map(|conn| Op::Release { conn }),
        (0u32..8, 0.0f64..120.0).prop_map(|(conn, b)| Op::SetAlloc { conn, b }),
        (0u8..8, 0.0f64..80.0).prop_map(|(key, amount)| Op::SetClaim { key, amount }),
        (0u8..8).prop_map(|key| Op::ReleaseClaim { key }),
        (0u32..8, 0.1f64..50.0).prop_map(|(conn, b_min)| Op::AdmitHandoff { conn, b_min }),
        (0u8..32).prop_map(|kinds| Op::RetainClaims { kinds }),
    ]
}

fn claim_key(k: u8) -> ResvClaim {
    match k {
        0 => ResvClaim::DynPool,
        1 => ResvClaim::Cell(CellId(0)),
        2 => ResvClaim::Cell(CellId(1)),
        3 => ResvClaim::Conn(ConnId(99)),
        4 => ResvClaim::Conn(ConnId(2)),
        5 => ResvClaim::Channel,
        6 => ResvClaim::Outage,
        _ => ResvClaim::Conn(ConnId(5)),
    }
}

/// Which of the five claim owners `k` belongs to, as a bit.
fn claim_kind(k: ResvClaim) -> u8 {
    1 << match k {
        ResvClaim::Conn(_) => 0,
        ResvClaim::Cell(_) => 1,
        ResvClaim::DynPool => 2,
        ResvClaim::Channel => 3,
        ResvClaim::Outage => 4,
    }
}

/// The claim table as it was kept before it went flat — a `BTreeMap` —
/// with `b_resv` as the running sum the ledger's claim operations kept
/// over it: the same expressions, the same order, the same clamp.
#[derive(Default)]
struct ClaimModel {
    advance: std::collections::BTreeMap<ResvClaim, f64>,
    sum_resv: f64,
}

impl ClaimModel {
    const EPS: f64 = 1e-6;

    fn clamp(&mut self) {
        if self.sum_resv < 0.0 && self.sum_resv > -Self::EPS {
            self.sum_resv = 0.0;
        }
    }

    /// `set_claim` on a link of `capacity` whose floors sum to `sum_b_min`.
    fn set(&mut self, key: ResvClaim, amount: f64, capacity: f64, sum_b_min: f64) -> f64 {
        let old = self.advance.get(&key).copied().unwrap_or(0.0);
        let headroom = (capacity - sum_b_min - (self.sum_resv - old)).max(0.0);
        let granted = amount.min(headroom);
        if granted <= Self::EPS {
            self.advance.remove(&key);
            self.sum_resv -= old;
        } else {
            self.advance.insert(key, granted);
            self.sum_resv += granted - old;
        }
        self.clamp();
        granted
    }

    fn release(&mut self, key: ResvClaim) -> f64 {
        match self.advance.remove(&key) {
            Some(v) => {
                self.sum_resv -= v;
                self.clamp();
                v
            }
            None => 0.0,
        }
    }

    /// `BTreeMap::retain`: released in ascending key order, each clamped.
    fn retain(&mut self, keep: impl Fn(ResvClaim) -> bool) {
        let Self { advance, sum_resv } = self;
        advance.retain(|k, v| {
            if keep(*k) {
                return true;
            }
            *sum_resv -= *v;
            if *sum_resv < 0.0 && *sum_resv > -Self::EPS {
                *sum_resv = 0.0;
            }
            false
        });
    }
}

/// One step against the connection table. `nth` picks among the ids
/// issued so far, live or retired.
#[derive(Clone, Debug)]
enum TableOp {
    Install { portable: u32 },
    Finish { nth: usize },
    Block { nth: usize },
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u32..5).prop_map(|portable| TableOp::Install { portable }),
        (0u32..5).prop_map(|portable| TableOp::Install { portable }),
        (0usize..64).prop_map(|nth| TableOp::Finish { nth }),
        (0usize..64).prop_map(|nth| TableOp::Block { nth }),
    ]
}

/// Every bit of a ledger a write can move: the claims, the allocations
/// (`b_min`, `b_alloc`, buffer) and the four running sums.
type LedgerBits = (Vec<(ResvClaim, u64)>, Vec<(ConnId, [u64; 3])>, [u64; 4]);

fn ledger_bits(l: &LinkState) -> LedgerBits {
    (
        l.claims().map(|(k, v)| (k, v.to_bits())).collect(),
        l.allocs()
            .map(|(c, a)| {
                (
                    c,
                    [a.b_min.to_bits(), a.b_alloc.to_bits(), a.buffer.to_bits()],
                )
            })
            .collect(),
        l.sum_bits(),
    )
}

/// The compact JSON text of a ledger.
fn link_json(l: &LinkState) -> String {
    let mut out = serde::JsonWriter::new();
    l.write_json(&mut out);
    out.into_string()
}

/// The compact JSON text of a network.
fn network_json(net: &Network) -> String {
    let mut out = serde::JsonWriter::new();
    net.write_json(&mut out);
    out.into_string()
}

proptest! {
    /// The table holds exactly the live records, after any mix of
    /// installs, teardowns and refusals: a retired id reads `None` and is
    /// never issued again, the per-portable index answers what a model
    /// of the live set answers, the invariant sweep accepts every such
    /// state, and the JSON text — retired slots and all — decodes to a
    /// network that writes the same bytes and issues the same next id.
    /// The network records the owner of every record it installs or
    /// retires, nobody else's, and a decoded network has recorded nothing
    /// but says it is unseen, as a new one does.
    #[test]
    fn portable_index_matches_a_table_scan(
        ops in prop::collection::vec(table_op_strategy(), 0..80),
    ) {
        let mut topo = Topology::new();
        topo.add_switch("sw");
        let mut net = Network::new(topo);
        // Every id issued, in order, and the portable of each live one.
        let mut issued: Vec<ConnId> = Vec::new();
        let mut live: std::collections::BTreeMap<ConnId, PortableId> = Default::default();
        let mut changed = Vec::new();
        prop_assert!(net.read_changed(0, &mut changed), "a new network is unseen");
        for op in ops {
            let mut touched = None;
            let pick = |nth: usize| (!issued.is_empty()).then(|| issued[nth % issued.len()]);
            match op {
                TableOp::Install { portable } => {
                    touched = Some(PortableId(portable));
                    let id = net.next_conn_id();
                    prop_assert_eq!(id, ConnId::from_index(issued.len()), "an id was reissued");
                    // A route with no links: live without touching a ledger.
                    net.install(Connection::new(
                        id,
                        PortableId(portable),
                        CellId(0),
                        NodeId(0),
                        QosRequest::fixed(10.0),
                        Route::trivial(NodeId(0)),
                        SimTime::ZERO,
                    ));
                    issued.push(id);
                    live.insert(id, PortableId(portable));
                }
                // `finish` is a no-op on a retired id.
                TableOp::Finish { nth } => {
                    if let Some(id) = pick(nth) {
                        net.finish(id);
                        touched = live.remove(&id);
                    }
                }
                // `mark_blocked` requires an installed record.
                TableOp::Block { nth } => {
                    if let Some(id) = pick(nth).filter(|id| live.contains_key(id)) {
                        net.mark_blocked(id);
                        touched = live.remove(&id);
                    }
                }
            }
            prop_assert!(net.check_invariants().is_ok(), "{:?}", net.check_invariants());
            prop_assert!(!net.read_changed(0, &mut changed));
            prop_assert_eq!(&changed, &touched.into_iter().collect::<Vec<_>>());
            for id in &issued {
                prop_assert_eq!(net.get(*id).map(|c| c.portable), live.get(id).copied());
            }
            prop_assert!(net.live_connections().map(|c| c.id).eq(live.keys().copied()));
            let text = network_json(&net);
            let mut back = Network::read_json(&mut serde::JsonReader::new(&text)).expect("decodes");
            prop_assert_eq!(network_json(&back), text);
            prop_assert!(back.check_invariants().is_ok());
            prop_assert!(back.read_changed(0, &mut changed), "a decoded network is unseen");
            prop_assert!(changed.is_empty(), "a decoded network recorded {:?}", changed);
            let (mut ended, mut written) = (Vec::new(), Vec::new());
            prop_assert!(back.read_ended(&mut ended) && ended.is_empty());
            prop_assert!(back.read_written(&mut written) && written.is_empty());
            for p in (0..5).map(PortableId) {
                let want: Vec<ConnId> =
                    live.iter().filter(|(_, q)| **q == p).map(|(id, _)| *id).collect();
                let of = |n: &Network| -> Vec<ConnId> {
                    n.connections_of_portable(p).map(|c| c.id).collect()
                };
                prop_assert_eq!(&of(&net), &want);
                prop_assert_eq!(&of(&back), &want);
            }
            prop_assert_eq!(back.next_conn_id(), ConnId::from_index(issued.len()));
        }
    }

    /// No sequence of ledger operations — successful or failed — ever
    /// breaks the ledger invariants, and the flat claim table is, bit for
    /// bit, the `BTreeMap` it replaced: the same claims in the same key
    /// order, and the same running `b_resv`. A write that moves any bit
    /// of the ledger moves its revision, and the revision is nobody's to
    /// supply: a decoded ledger, whatever the document says, and a cloned
    /// one each start at a revision no ledger has had, and the decoded
    /// one writes the document's bytes back.
    #[test]
    fn ledger_never_breaks_under_random_ops(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut l = LinkState::new(100.0).with_buffer_capacity(50.0);
        let mut model = ClaimModel::default();
        for op in ops {
            let (capacity, sum_b_min) = (l.capacity(), l.sum_b_min());
            let (bits, rev) = (ledger_bits(&l), l.revision());
            match op {
                Op::Admit { conn, b_min, buffer } => {
                    let _ = l.admit(ConnId(conn), b_min, buffer);
                }
                Op::Release { conn } => {
                    let _ = l.release(ConnId(conn));
                }
                Op::SetAlloc { conn, b } => {
                    let _ = l.set_alloc(ConnId(conn), b);
                }
                Op::SetClaim { key, amount } => {
                    let granted = l.set_claim(claim_key(key), amount);
                    prop_assert!(granted <= amount + 1e-9);
                    let want = model.set(claim_key(key), amount, capacity, sum_b_min);
                    prop_assert_eq!(granted.to_bits(), want.to_bits());
                }
                Op::ReleaseClaim { key } => {
                    let released = l.release_claim(claim_key(key));
                    prop_assert_eq!(released.to_bits(), model.release(claim_key(key)).to_bits());
                }
                Op::AdmitHandoff { conn, b_min } => {
                    if l.admit_handoff(ConnId(conn), b_min, 0.0).is_ok() {
                        model.release(ResvClaim::Conn(ConnId(conn)));
                    }
                }
                Op::RetainClaims { kinds } => {
                    let keep = |k: ResvClaim| kinds & claim_kind(k) != 0;
                    l.retain_claims(keep);
                    model.retain(keep);
                }
            }
            let flat: Vec<(ResvClaim, u64)> = l.claims().map(|(k, v)| (k, v.to_bits())).collect();
            let tree: Vec<(ResvClaim, u64)> =
                model.advance.iter().map(|(k, v)| (*k, v.to_bits())).collect();
            prop_assert_eq!(flat, tree);
            prop_assert_eq!(l.b_resv().to_bits(), model.sum_resv.to_bits());
            prop_assert!(l.check_invariants().is_ok(), "{:?}", l.check_invariants());
            // The paper's guarantee: floors plus advance reservations fit.
            prop_assert!(l.sum_b_min() + l.b_resv() <= l.capacity() + 1e-6);
            if ledger_bits(&l) != bits {
                prop_assert_ne!(l.revision(), rev, "a write moved ledger bits, not the revision");
            }
            let copy = l.clone();
            prop_assert_eq!(ledger_bits(&copy), ledger_bits(&l));
            let mut read = vec![rev, l.revision(), copy.revision()];
            prop_assert_ne!(read[2], read[1], "a clone took its original's revision");
            let text = link_json(&l);
            prop_assert!(!text.contains("rev"), "{}", text);
            let forged = text.replacen('{', "{\"rev\":12345,", 1);
            for doc in [&text, &forged] {
                let back = LinkState::read_json(&mut serde::JsonReader::new(doc)).expect("decodes");
                prop_assert!(!read.contains(&back.revision()), "a decoded ledger took a revision already read");
                read.push(back.revision());
                prop_assert_eq!(ledger_bits(&back), ledger_bits(&l));
                prop_assert_eq!(link_json(&back), text.clone());
            }
        }
    }

    /// Admission honours the Table 2 bandwidth inequality exactly.
    #[test]
    fn admit_iff_table2_inequality(
        floors in prop::collection::vec(0.1f64..40.0, 0..6),
        resv in 0.0f64..50.0,
        b_new in 0.1f64..120.0,
    ) {
        let mut l = LinkState::new(100.0);
        let mut ok = true;
        for (i, f) in floors.iter().enumerate() {
            ok &= l.admit(ConnId(i as u32), *f, 0.0).is_ok();
        }
        prop_assume!(ok);
        let granted = l.set_claim(ResvClaim::DynPool, resv);
        let expect = b_new <= l.capacity() - granted - l.sum_b_min() + 1e-6;
        prop_assert_eq!(l.admits(b_new), expect);
        prop_assert_eq!(l.admit(ConnId(99), b_new, 0.0).is_ok(), expect);
    }

    /// On random connected graphs, Dijkstra returns hop-minimal loop-free
    /// routes, symmetric endpoints, and never fabricates unreachable paths.
    #[test]
    fn routing_on_random_ring_with_chords(
        n in 3usize..12,
        chords in prop::collection::vec((0usize..12, 0usize..12), 0..8),
        src in 0usize..12,
        dst in 0usize..12,
    ) {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| t.add_switch(format!("s{i}"))).collect();
        for i in 0..n {
            t.add_wired_duplex(nodes[i], nodes[(i + 1) % n], 100.0, 0.001);
        }
        for (a, b) in chords {
            let (a, b) = (a % n, b % n);
            if a != b {
                t.add_wired_duplex(nodes[a], nodes[b], 100.0, 0.001);
            }
        }
        let (src, dst) = (nodes[src % n], nodes[dst % n]);
        let r = shortest_path(&t, src, dst).expect("ring is connected");
        prop_assert_eq!(r.source(), src);
        prop_assert_eq!(r.destination(), dst);
        // Loop-free.
        let mut seen = std::collections::HashSet::new();
        for node in &r.nodes {
            prop_assert!(seen.insert(*node));
        }
        // Hop count never exceeds the ring bound.
        prop_assert!(r.hop_count() <= n / 2 + 1);
        // Consecutive nodes are actually connected by the listed link.
        for (i, l) in r.links.iter().enumerate() {
            let from = r.nodes[i];
            let found = t
                .out_edges(from)
                .any(|e| e.link == *l && e.to == r.nodes[i + 1]);
            prop_assert!(found, "edge missing for hop {i}");
        }
    }
}

/// One step on a [`ChangeLog`]: log an id, read as one of two readers,
/// set `all`, or replace the log by its clone.
#[derive(Clone, Debug)]
enum LogOp {
    Log(u32),
    Read(usize),
    SetAll,
    Clone,
}

fn log_op_strategy() -> impl Strategy<Value = LogOp> {
    // Six logs to three reads to one `set_all` to one clone.
    (0u32..11, 0u32..12).prop_map(|(kind, k)| match kind {
        0..=5 => LogOp::Log(k),
        6..=8 => LogOp::Read(k as usize % 2),
        9 => LogOp::SetAll,
        _ => LogOp::Clone,
    })
}

/// `ops` on `log` against a model that keeps, per reader, the set of ids
/// logged since its last read (`None` before its first read, when it
/// holds nothing) and its `all` bit; and, for a dense log, the epoch of
/// each id's last log. Every read hands out exactly the model's set,
/// ascending, and the model's `all`; `Traffic::drained` is the sum of
/// what the reads handed out.
fn run_against_model<I, const R: usize>(
    mut log: arm_net::ChangeLog<I, R>,
    id: fn(u32) -> I,
    dense: bool,
    ops: &[LogOp],
) where
    I: Copy + Ord + Into<usize> + std::fmt::Debug,
{
    use std::collections::{BTreeMap, BTreeSet};
    let mut pending: Vec<Option<BTreeSet<I>>> = vec![None; R];
    let mut all = vec![true; R];
    let (mut logged, mut epochs, mut drained) = (0u64, 0u64, 0u64);
    let mut stamps: BTreeMap<u32, u64> = BTreeMap::new();
    let mut into = Vec::new();
    for op in ops {
        match *op {
            LogOp::Log(k) => {
                log.log(id(k));
                logged += 1;
                epochs += 1;
                stamps.insert(k, epochs);
                for set in pending.iter_mut().flatten() {
                    set.insert(id(k));
                }
            }
            LogOp::Read(r) => {
                let r = r % R;
                let said_all = log.read(r, &mut into);
                prop_assert_eq!(said_all, all[r], "reader {}'s all", r);
                let want: Vec<I> = pending[r].take().unwrap_or_default().into_iter().collect();
                prop_assert_eq!(&into, &want, "reader {} since its cursor", r);
                drained += want.len() as u64;
                pending[r] = Some(BTreeSet::new());
                all[r] = false;
            }
            LogOp::SetAll => {
                log.set_all();
                all.iter_mut().for_each(|a| *a = true);
            }
            LogOp::Clone => {
                log = log.clone();
                pending = vec![None; R];
                all = vec![true; R];
                logged = 0;
                drained = 0;
            }
        }
        let t = log.traffic();
        prop_assert_eq!(t.logged, logged);
        prop_assert_eq!(t.drained, drained);
        if dense {
            for k in 0..12 {
                prop_assert_eq!(log.epoch(id(k)), stamps.get(&k).copied().unwrap_or(0));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A dense log with one reader, as the refresh's queues use it: every
    /// id logged is handed out exactly once, ascending, at the next read;
    /// a new or cloned log says `all` first; an id's epoch moves exactly
    /// when it is logged, across a clone too.
    #[test]
    fn a_dense_log_hands_out_every_logged_id_once(
        ops in prop::collection::vec(log_op_strategy(), 0..120),
    ) {
        let log: arm_net::ChangeLog<CellId> = arm_net::ChangeLog::dense(12);
        run_against_model(log, CellId, true, &ops);
    }

    /// A sparse log with two readers at different cadences, as the
    /// refresh and the adaptation round read the network's: each reader
    /// sees every id logged since its own cursor, once and ascending,
    /// however the other reads, and through the folds a filling log
    /// makes.
    #[test]
    fn two_readers_each_see_every_write_since_their_cursor(
        ops in prop::collection::vec(log_op_strategy(), 0..200),
    ) {
        let log: arm_net::ChangeLog<PortableId, 2> = arm_net::ChangeLog::sparse();
        run_against_model(log, PortableId, false, &ops);
    }
}
