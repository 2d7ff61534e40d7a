//! Cell maps.
//!
//! An [`IndoorEnvironment`] is the logical floor plan: cells with a
//! class, symmetric neighbour relations, and (for offices) regular
//! occupants. It materialises into an `arm-net` topology (one base
//! station per cell on a backbone star) with **identical cell ids**, so
//! the profile/reservation layers can use one id space throughout.

use std::collections::BTreeSet;

use arm_net::ids::{CellId, PortableId, ZoneId};
use arm_net::topology::Topology;
use arm_net::Network;
use arm_profiles::{CellClass, LoungeKind};
use arm_sim::Audited;
use serde::{Deserialize, Serialize};

/// One cell of the floor plan.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CellInfo {
    /// Human-readable name ("A", "corridor-3", …).
    pub name: String,
    /// Location-dependent class.
    pub class: CellClass,
    /// Symmetric neighbour set.
    pub neighbors: BTreeSet<CellId>,
    /// Regular occupants (offices).
    pub occupants: BTreeSet<PortableId>,
    /// Zone this cell belongs to (default: zone 0).
    pub zone: ZoneId,
}

/// A logical floor plan.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IndoorEnvironment {
    cells: Vec<CellInfo>,
}

impl IndoorEnvironment {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a cell; ids are dense and assigned in call order.
    pub fn add_cell(&mut self, name: impl Into<String>, class: CellClass) -> CellId {
        let id = CellId::from_index(self.cells.len());
        self.cells.push(CellInfo {
            name: name.into(),
            class,
            neighbors: BTreeSet::new(),
            occupants: BTreeSet::new(),
            zone: ZoneId(0),
        });
        id
    }

    /// Assign a cell to a zone (§3.4.1; everything defaults to zone 0).
    pub fn set_zone(&mut self, cell: CellId, zone: ZoneId) {
        self.cells[cell.index()].zone = zone;
    }

    /// Declare a symmetric neighbour relation (handoff possible between
    /// the two cells).
    pub fn connect(&mut self, a: CellId, b: CellId) {
        assert_ne!(a, b, "a cell is not its own neighbour");
        self.cells[a.index()].neighbors.insert(b);
        self.cells[b.index()].neighbors.insert(a);
    }

    /// Register a regular occupant of an office cell.
    pub fn add_occupant(&mut self, cell: CellId, p: PortableId) {
        debug_assert!(self.cells[cell.index()].class.tracks_occupants());
        self.cells[cell.index()].occupants.insert(p);
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Cell metadata.
    pub fn cell(&self, c: CellId) -> &CellInfo {
        &self.cells[c.index()]
    }

    /// All cells in id order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &CellInfo)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Neighbours of a cell.
    pub fn neighbors(&self, c: CellId) -> impl Iterator<Item = CellId> + '_ {
        self.cells[c.index()].neighbors.iter().copied()
    }

    /// Are `a` and `b` neighbours?
    pub fn are_neighbors(&self, a: CellId, b: CellId) -> bool {
        self.cells[a.index()].neighbors.contains(&b)
    }

    /// Cells of a given class.
    pub fn cells_of_class(&self, class: CellClass) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| c.class == class)
            .map(|(id, _)| id)
            .collect()
    }

    /// Find a cell by name.
    pub fn by_name(&self, name: &str) -> Option<CellId> {
        self.cells().find(|(_, c)| c.name == name).map(|(id, _)| id)
    }

    /// Materialise into a network: one cell per environment cell (same
    /// ids), base stations on a backbone star around one switch.
    ///
    /// `cell_throughput` is the shared-medium capacity per cell (kbps;
    /// §7.1 uses 1600), `wireless_error` the per-hop packet error
    /// probability, `backbone_capacity` the wired link speed.
    pub fn build_network(
        &self,
        cell_throughput: f64,
        wireless_error: f64,
        backbone_capacity: f64,
    ) -> Network {
        let mut topo = Topology::new();
        let sw = topo.add_switch("backbone");
        for (_, info) in self.cells() {
            let c = topo.add_cell(&info.name, cell_throughput, wireless_error);
            topo.add_wired_duplex(sw, topo.base_station(c), backbone_capacity, 0.0);
        }
        Network::new(topo)
    }

    /// Seed a profile server with every cell (classes, neighbours,
    /// occupants).
    pub fn seed_profiles(&self, server: &mut arm_profiles::ProfileServer) {
        for (id, info) in self.cells() {
            let profile = arm_profiles::CellProfile::with_default_capacity(id, info.class)
                .with_neighbors(info.neighbors.iter().copied())
                .with_occupants(info.occupants.iter().copied());
            server.register_cell(profile);
        }
    }

    /// Seed a zoned universe: every cell registered under its assigned
    /// zone (§3.4.1).
    pub fn seed_zoned_profiles(&self, zones: &mut arm_profiles::ZonedProfiles) {
        for (id, info) in self.cells() {
            let profile = arm_profiles::CellProfile::with_default_capacity(id, info.class)
                .with_neighbors(info.neighbors.iter().copied())
                .with_occupants(info.occupants.iter().copied());
            zones.register_cell(info.zone, profile);
        }
    }
}

/// The paper's Figure 4 environment: faculty office **A**, student office
/// **B**, corridor cells **C–G**, arranged so the measured movements make
/// sense: C–D–E–F–G in a line, A off D, B off E.
#[derive(Clone, Debug)]
pub struct Figure4 {
    /// The floor plan.
    pub env: IndoorEnvironment,
    /// Faculty office A.
    pub a: CellId,
    /// Student office B.
    pub b: CellId,
    /// Corridor cells C, D, E, F, G.
    pub c: CellId,
    /// Corridor D (adjacent to office A).
    pub d: CellId,
    /// Corridor E (adjacent to office B).
    pub e: CellId,
    /// Corridor F.
    pub f: CellId,
    /// Corridor G.
    pub g: CellId,
    /// The faculty member (occupant of A, also occupant of B per §7.1).
    pub faculty: PortableId,
    /// The three students (occupants of B).
    pub students: [PortableId; 3],
}

impl Figure4 {
    /// Build the Figure 4 floor plan with its §7.1 cast.
    pub fn build() -> Self {
        let mut env = IndoorEnvironment::new();
        let a = env.add_cell("A", CellClass::Office);
        let b = env.add_cell("B", CellClass::Office);
        let c = env.add_cell("C", CellClass::Corridor);
        let d = env.add_cell("D", CellClass::Corridor);
        let e = env.add_cell("E", CellClass::Corridor);
        let f = env.add_cell("F", CellClass::Corridor);
        let g = env.add_cell("G", CellClass::Corridor);
        env.connect(c, d);
        env.connect(d, e);
        env.connect(e, f);
        env.connect(f, g);
        env.connect(a, d);
        env.connect(b, e);
        let faculty = PortableId(0);
        let students = [PortableId(1), PortableId(2), PortableId(3)];
        env.add_occupant(a, faculty);
        // §7.1: the student office has four regular occupants — three
        // students and the faculty member.
        env.add_occupant(b, faculty);
        for s in students {
            env.add_occupant(b, s);
        }
        Figure4 {
            env,
            a,
            b,
            c,
            d,
            e,
            f,
            g,
            faculty,
            students,
        }
    }
}

/// A parametric office wing: `n_offices` offices along a corridor of
/// `n_offices` segments, a meeting room at one end and a cafeteria plus a
/// default lounge at the other — the generic scenario for scaling
/// experiments beyond Figure 4.
pub fn office_wing(n_offices: usize) -> IndoorEnvironment {
    assert!(n_offices >= 1);
    let mut env = IndoorEnvironment::new();
    let corridor: Vec<CellId> = (0..n_offices)
        .map(|i| env.add_cell(format!("corridor-{i}"), CellClass::Corridor))
        .collect();
    for w in corridor.windows(2) {
        env.connect(w[0], w[1]);
    }
    for (i, seg) in corridor.iter().enumerate() {
        let office = env.add_cell(format!("office-{i}"), CellClass::Office);
        env.connect(office, *seg);
        env.add_occupant(office, PortableId(i as u32));
    }
    let meeting = env.add_cell("meeting-room", CellClass::Lounge(LoungeKind::MeetingRoom));
    env.connect(meeting, corridor[0]);
    let cafeteria = env.add_cell("cafeteria", CellClass::Lounge(LoungeKind::Cafeteria));
    env.connect(cafeteria, *corridor.last().invariant("non-empty corridor"));
    let lounge = env.add_cell("lounge", CellClass::Lounge(LoungeKind::Default));
    env.connect(lounge, *corridor.last().invariant("non-empty corridor"));
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_adjacency_matches_the_measured_movements() {
        let f4 = Figure4::build();
        let env = &f4.env;
        // C → D is the tracked corridor traversal.
        assert!(env.are_neighbors(f4.c, f4.d));
        // From D one can enter A, or continue to E.
        assert!(env.are_neighbors(f4.d, f4.a));
        assert!(env.are_neighbors(f4.d, f4.e));
        // From E one can enter B, or continue toward F → G.
        assert!(env.are_neighbors(f4.e, f4.b));
        assert!(env.are_neighbors(f4.e, f4.f));
        assert!(env.are_neighbors(f4.f, f4.g));
        // Offices are not directly adjacent.
        assert!(!env.are_neighbors(f4.a, f4.b));
        // Cast: faculty occupies A and B; students occupy B.
        assert!(env.cell(f4.a).occupants.contains(&f4.faculty));
        assert!(env.cell(f4.b).occupants.contains(&f4.faculty));
        for s in f4.students {
            assert!(env.cell(f4.b).occupants.contains(&s));
        }
    }

    #[test]
    fn network_materialisation_aligns_ids() {
        let f4 = Figure4::build();
        let net = f4.env.build_network(1600.0, 0.01, 100_000.0);
        assert_eq!(net.topology().cell_count(), f4.env.cell_count());
        for (id, info) in f4.env.cells() {
            // Wireless capacity as configured, name propagated.
            let wl = net.topology().wireless_link(id);
            assert_eq!(net.link(wl).capacity(), 1600.0);
            let bs = net.topology().base_station(id);
            assert!(net.topology().node(bs).name.contains(&info.name));
        }
    }

    #[test]
    fn profile_seeding_copies_classes_and_occupants() {
        let f4 = Figure4::build();
        let mut server = arm_profiles::ProfileServer::new(arm_net::ids::ZoneId(0));
        f4.env.seed_profiles(&mut server);
        assert_eq!(server.cell(f4.a).unwrap().class, CellClass::Office);
        assert!(server.cell(f4.a).unwrap().is_occupant(f4.faculty));
        assert_eq!(server.cell(f4.c).unwrap().class, CellClass::Corridor);
        assert!(server.cell(f4.d).unwrap().neighbors.contains(&f4.e));
    }

    #[test]
    fn office_wing_structure() {
        let env = office_wing(4);
        // 4 corridors + 4 offices + meeting + cafeteria + lounge.
        assert_eq!(env.cell_count(), 11);
        assert_eq!(env.cells_of_class(CellClass::Office).len(), 4);
        assert_eq!(env.cells_of_class(CellClass::Corridor).len(), 4);
        assert_eq!(
            env.cells_of_class(CellClass::Lounge(LoungeKind::MeetingRoom))
                .len(),
            1
        );
        let m = env.by_name("meeting-room").unwrap();
        let c0 = env.by_name("corridor-0").unwrap();
        assert!(env.are_neighbors(m, c0));
        assert!(env.by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "not its own neighbour")]
    fn self_loop_rejected() {
        let mut env = IndoorEnvironment::new();
        let c = env.add_cell("x", CellClass::Corridor);
        env.connect(c, c);
    }
}
