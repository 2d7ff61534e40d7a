//! Mobility-trace generators, one per behavioural pattern the paper
//! measures or assumes.
//!
//! * [`office_case`] — the §7.1 workweek: faculty, students, and crowd
//!   traversing corridor C→D with the published fan-out,
//! * [`meeting`] — Figure 5: attendees converging on a classroom around
//!   the start time and leaving after the end, over corridor walk-by
//!   traffic,
//! * [`cafeteria`] — a slow lunch-hour ramp of visitors,
//! * [`random_walk`] — memoryless wandering (the default-lounge pattern),
//! * `markov` — the general dwell-and-move walker the other models are
//!   built from.

pub mod cafeteria;
pub(crate) mod markov;
pub mod meeting;
pub mod office_case;
pub mod random_walk;
