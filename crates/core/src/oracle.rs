//! Sim-oracle cross-check: analytic energy vs the `sdem-sim` meter.
//!
//! Every SDEM scheme returns a [`Solution`] whose `predicted_energy` comes
//! from a closed form. The oracle re-prices the *same* schedule with the
//! interval-sweep meter and fails loudly when the two disagree beyond a
//! relative tolerance — catching accounting drift between the analytic
//! layer (`sdem-core`) and the simulator (`sdem-sim`) the moment it
//! happens, instead of in a downstream figure.
//!
//! The caller picks the metering convention through
//! [`OracleOptions::sim`]: the default gap-convention
//! [`SimOptions`](sdem_sim::SimOptions) matches
//! [`Solution::from_schedule`] and the online schemes, while the §7
//! overhead schemes price under the horizon convention
//! (`SimOptions::default().with_horizon(t0, t1)`).
//!
//! # Examples
//!
//! ```
//! use sdem_core::{OracleOptions, Scheme, Scheduler};
//! use sdem_power::Platform;
//! use sdem_types::{Cycles, Task, TaskSet, Time};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::paper_defaults();
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::ZERO, Time::from_millis(90.0), Cycles::new(6.0e6)),
//!     Task::new(1, Time::from_millis(10.0), Time::from_millis(60.0), Cycles::new(9.0e6)),
//! ])?;
//! let solution = Scheme::Online.solve(&tasks, &platform)?;
//! let metered = solution.verify_against_meter(&tasks, &platform, OracleOptions::default())?;
//! assert!(metered.value() > 0.0);
//! # Ok(())
//! # }
//! ```

use core::fmt;

use sdem_power::Platform;
use sdem_sim::{simulate_with_options, SimOptions};
use sdem_types::{Joules, ScheduleError, TaskSet};

use crate::Solution;

/// Relative tolerance the oracle applies when none is given explicitly.
pub const DEFAULT_ORACLE_TOLERANCE: f64 = 1e-6;

/// Options for [`Solution::verify_against_meter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleOptions {
    /// Metering convention (policies, validation, horizon). Must match the
    /// convention of the scheme that produced the prediction; the default
    /// (gap convention, profitable sleeping) matches
    /// [`Solution::from_schedule`].
    pub sim: SimOptions,
    /// Maximum allowed relative divergence between the analytic and the
    /// metered total energy.
    pub rel_tol: f64,
}

impl OracleOptions {
    /// Oracle with the given metering convention and the default tolerance.
    pub fn with_sim(sim: SimOptions) -> Self {
        Self {
            sim,
            rel_tol: DEFAULT_ORACLE_TOLERANCE,
        }
    }

    /// Returns a copy with the relative tolerance set.
    ///
    /// # Panics
    ///
    /// Panics if `rel_tol` is negative or non-finite.
    #[must_use]
    pub fn with_tolerance(mut self, rel_tol: f64) -> Self {
        assert!(
            rel_tol.is_finite() && rel_tol >= 0.0,
            "oracle tolerance must be finite and non-negative"
        );
        self.rel_tol = rel_tol;
        self
    }
}

impl Default for OracleOptions {
    fn default() -> Self {
        Self::with_sim(SimOptions::default())
    }
}

/// Failure modes of the sim-oracle cross-check.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OracleError {
    /// The schedule failed the meter's validation (timing or speed limit).
    Schedule(ScheduleError),
    /// Analytic and metered energy diverge beyond the tolerance.
    Mismatch {
        /// The scheme's analytic energy.
        predicted: Joules,
        /// The meter's total for the same schedule.
        metered: Joules,
        /// Observed relative divergence.
        relative: f64,
        /// The tolerance that was exceeded.
        tolerance: f64,
    },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Schedule(e) => write!(f, "oracle: schedule rejected by the meter: {e}"),
            Self::Mismatch {
                predicted,
                metered,
                relative,
                tolerance,
            } => write!(
                f,
                "oracle: analytic energy {} J vs metered {} J \
                 (relative divergence {relative:.3e} > tolerance {tolerance:.3e})",
                predicted.value(),
                metered.value(),
            ),
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Schedule(e) => Some(e),
            Self::Mismatch { .. } => None,
        }
    }
}

impl From<ScheduleError> for OracleError {
    fn from(e: ScheduleError) -> Self {
        Self::Schedule(e)
    }
}

/// Relative divergence of two energies, scaled by the larger magnitude
/// (zero when both are zero, infinite when either is not finite — an
/// infinite or NaN energy never agrees with anything). Every sim-oracle
/// comparison measures divergence with this function.
pub fn relative_divergence(a: Joules, b: Joules) -> f64 {
    if !(a.value().is_finite() && b.value().is_finite()) {
        return f64::INFINITY;
    }
    let scale = a.value().abs().max(b.value().abs());
    if scale == 0.0 {
        0.0
    } else {
        (a.value() - b.value()).abs() / scale
    }
}

impl Solution {
    /// Meters this solution's schedule with `sdem-sim` and checks the
    /// analytic `predicted_energy` against the meter's total.
    ///
    /// Returns the metered total on agreement.
    ///
    /// # Errors
    ///
    /// [`OracleError::Schedule`] when the schedule fails validation,
    /// [`OracleError::Mismatch`] when the energies diverge beyond
    /// `options.rel_tol`.
    pub fn verify_against_meter(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        options: OracleOptions,
    ) -> Result<Joules, OracleError> {
        sdem_obs::registry::incr(sdem_obs::Counter::OracleChecks);
        let _span = sdem_obs::trace::span("oracle/verify");
        let report = simulate_with_options(self.schedule(), tasks, platform, options.sim)?;
        let metered = report.total();
        let relative = relative_divergence(self.predicted_energy(), metered);
        if relative > options.rel_tol {
            sdem_obs::registry::incr(sdem_obs::Counter::OracleFailures);
            return Err(OracleError::Mismatch {
                predicted: self.predicted_energy(),
                metered,
                relative,
                tolerance: options.rel_tol,
            });
        }
        Ok(metered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scheduler, Scheme};
    use sdem_types::{Cycles, Task, Time};

    fn general_set() -> TaskSet {
        TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_millis(90.0), Cycles::new(6.0e6)),
            Task::new(
                1,
                Time::from_millis(10.0),
                Time::from_millis(60.0),
                Cycles::new(9.0e6),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn online_prediction_matches_meter() {
        let platform = Platform::paper_defaults();
        let tasks = general_set();
        let sol = Scheme::Online.solve(&tasks, &platform).unwrap();
        let metered = sol
            .verify_against_meter(&tasks, &platform, OracleOptions::default())
            .unwrap();
        assert!(relative_divergence(sol.predicted_energy(), metered) <= DEFAULT_ORACLE_TOLERANCE);
    }

    #[test]
    fn mismatch_is_reported_with_both_energies() {
        let platform = Platform::paper_defaults();
        let tasks = general_set();
        let sol = Scheme::Online.solve(&tasks, &platform).unwrap();
        // Corrupt the prediction: doubling it must trip the oracle.
        let bad = Solution::new(
            sol.schedule().clone(),
            sol.predicted_energy() + sol.predicted_energy(),
            sol.memory_sleep(),
        );
        let err = bad
            .verify_against_meter(&tasks, &platform, OracleOptions::default())
            .unwrap_err();
        match err {
            OracleError::Mismatch {
                relative,
                tolerance,
                ..
            } => {
                assert!(relative > 0.4, "expected ~0.5, got {relative}");
                assert_eq!(tolerance, DEFAULT_ORACLE_TOLERANCE);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        assert!(bad
            .verify_against_meter(
                &tasks,
                &platform,
                OracleOptions::default().with_tolerance(1.0)
            )
            .is_ok());
    }

    #[test]
    fn invalid_schedule_is_a_schedule_error() {
        let platform = Platform::paper_defaults();
        let tasks = general_set();
        // An empty schedule misses every task.
        let sol = Solution::new(sdem_types::Schedule::empty(), Joules::ZERO, Time::ZERO);
        let err = sol
            .verify_against_meter(&tasks, &platform, OracleOptions::default())
            .unwrap_err();
        assert!(matches!(err, OracleError::Schedule(_)), "{err:?}");
        assert!(err.to_string().contains("rejected"));
    }

    #[test]
    fn relative_divergence_handles_zero() {
        assert_eq!(relative_divergence(Joules::ZERO, Joules::ZERO), 0.0);
        assert!((relative_divergence(Joules::new(1.0), Joules::new(2.0)) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn non_finite_energies_never_agree() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let (bad, fine) = (Joules::new(bad), Joules::new(1.0));
            assert_eq!(relative_divergence(bad, fine), f64::INFINITY);
            assert_eq!(relative_divergence(fine, bad), f64::INFINITY);
            assert_eq!(relative_divergence(bad, bad), f64::INFINITY);
        }
        // An infinite or NaN prediction on a valid schedule is a mismatch.
        let platform = Platform::paper_defaults();
        let tasks = general_set();
        let sol = Scheme::Online.solve(&tasks, &platform).unwrap();
        for bad in [f64::INFINITY, f64::NAN] {
            let bad = Solution::new(sol.schedule().clone(), Joules::new(bad), sol.memory_sleep());
            let err = bad
                .verify_against_meter(&tasks, &platform, OracleOptions::default())
                .unwrap_err();
            assert!(
                matches!(err, OracleError::Mismatch { relative, .. } if relative == f64::INFINITY),
                "{err:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn rejects_negative_tolerance() {
        let _ = OracleOptions::default().with_tolerance(-1.0);
    }
}
