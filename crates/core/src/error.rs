//! Typed control-plane errors.
//!
//! Invalid *scenario inputs* — values a driver or trace file can feed the
//! manager — surface as [`ControlError`]s instead of panics, so a chaos
//! harness (or a malformed trace) degrades into a recoverable rejection
//! rather than killing the run. Internal invariant violations remain
//! `expect`s: those are bugs, not inputs.

use std::fmt;

use arm_net::ids::CellId;

/// A control-plane entry point was handed an invalid input.
#[derive(Clone, Debug, PartialEq)]
pub enum ControlError {
    /// `channel_change` was given an effective fraction outside `(0, 1]`
    /// (NaN included).
    BadChannelFraction {
        /// The cell whose channel supposedly changed.
        cell: CellId,
        /// The offending fraction.
        fraction: f64,
    },
    /// A scenario paired an environment with a mobility model or
    /// workload built for a different environment.
    IncompatibleScenario {
        /// The environment's name.
        environment: String,
        /// What was incompatibly combined with it.
        combined_with: String,
    },
    /// A scenario carried a numeric parameter outside its valid range
    /// (e.g. a zero mean dwell, which would feed an exponential sampler
    /// a zero mean, or a non-positive cell capacity).
    BadParameter {
        /// Which parameter was rejected.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::BadChannelFraction { cell, fraction } => write!(
                f,
                "channel_change({cell:?}): effective fraction {fraction} outside (0, 1]"
            ),
            ControlError::IncompatibleScenario {
                environment,
                combined_with,
            } => write!(
                f,
                "incompatible scenario: environment {environment} cannot run {combined_with}"
            ),
            ControlError::BadParameter { what, value } => {
                write!(f, "bad scenario parameter: {what} = {value}")
            }
        }
    }
}

impl std::error::Error for ControlError {}
