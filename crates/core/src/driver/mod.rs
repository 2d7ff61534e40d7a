//! End-to-end experiment drivers that need no manager replay (Figure 5
//! replays through the server's event loop in `arm_bench::fig5`).
//!
//! * [`fig6`] — Figure 6: the two-cell probabilistic-reservation model,
//!   producing `P_d` vs `P_b` curves over the window `T`,
//! * [`office`] — §7.1: the office-case workweek, prediction accuracy
//!   and reservation-waste accounting.

pub mod fig6;
pub mod office;
