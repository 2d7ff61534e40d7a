//! The maxmin optimality criterion (§5.2) and its solvers.
//!
//! The paper distributes *excess* bandwidth — capacity beyond the
//! guaranteed floors and advance reservations — among connections
//! according to the maxmin criterion, "fair in the sense that all
//! connections constrained by a bottleneck link get an equal share of
//! this bottleneck capacity; efficient in the sense that the bottleneck
//! resource is utilized up to its capacity".
//!
//! Submodules:
//!
//! * [`advertised`] — the advertised-rate `μ_l` computation with the
//!   restricted-set two-pass refinement (§5.3.1),
//! * [`centralized`] — a water-filling reference solver: ground truth
//!   for the Theorem 1 convergence tests and for the resident engines,
//! * [`distributed`] — the event-driven ADVERTISE/UPDATE protocol of
//!   §5.3.1, in both the flooding base variant and the `M(l)`-restricted
//!   refinement,
//! * [`incremental`] — the resident engine the resource manager's
//!   conflict-resolution path runs: it keeps the solved allocation, the
//!   reverse link→connection index, and per-link bottleneck sets `M(l)`
//!   between events and re-fills only the dirty region's transitive
//!   closure (one connected component of the sharing graph per dirty
//!   link), bit-identical to a from-scratch solve. Components are found
//!   by that walk alone; nothing partitions the state ahead of it
//!   (DESIGN.md §12 has the trial that removed the shard planner).
//!
//! ## Bottleneck definitions (§5.2)
//!
//! With `b'_(av,j),l` the excess bandwidth available to connection `j` at
//! link `l`, a link `l` is a **connection bottleneck** for an unsatisfied
//! `j` if it minimises `b'_(av,j),i` over `j`'s path. A link is a
//! **network bottleneck** if it minimises `b'_av,i / N_i` over all links
//! (applied recursively after removing satisfied connections). Every
//! network bottleneck is a connection bottleneck for all its connections;
//! the converse need not hold. These predicates are exposed from
//! [`centralized`] and verified in tests.

pub mod advertised;
pub mod centralized;
pub mod distributed;
pub mod incremental;
