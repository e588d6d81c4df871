//! Domain types shared by every crate in the `sdem` workspace.
//!
//! The workspace reproduces the SDEM (Sleep and DVS-aware system-wide Energy
//! Minimization) problem from Fu, Chau, Li and Xue, *"Race to idle or not:
//! balancing the memory sleep time with DVS for energy minimization"*
//! (DATE 2015 / Real-Time Systems 2017). This crate holds the vocabulary that
//! the algorithms, simulator and benchmarks all speak:
//!
//! * strongly-typed scalar quantities ([`Time`], [`Speed`], [`Cycles`],
//!   [`Watts`], [`Joules`]) so that seconds can never be added to hertz;
//! * the real-time [`Task`] model and validated [`TaskSet`] collections with
//!   structural classification (common release time, agreeable deadlines);
//! * explicit [`Schedule`]s — per-core, per-task execution [`Segment`]s —
//!   which every scheduler in the workspace produces and the simulator
//!   consumes;
//! * the canonical interval kernel ([`IntervalSet`]): sorted,
//!   coalesced, half-open `[start, end)` intervals with union, intersection,
//!   complement and gap iteration — the single implementation behind every
//!   busy/idle computation in the workspace;
//! * numeric helpers ([`numeric`]) used by the convex minimizations in the
//!   scheduling algorithms.
//!
//! # Examples
//!
//! ```
//! use sdem_types::{Task, TaskSet, Time, Cycles};
//!
//! # fn main() -> Result<(), sdem_types::TaskSetError> {
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::from_millis(0.0), Time::from_millis(40.0), Cycles::new(3.0e6)),
//!     Task::new(1, Time::from_millis(0.0), Time::from_millis(90.0), Cycles::new(4.5e6)),
//! ])?;
//! assert!(tasks.is_common_release());
//! assert!(tasks.is_agreeable());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod interval;
mod kind;
pub mod numeric;
pub mod partition;
mod schedule;
pub mod soa;
mod task;
mod units;
mod workspace;

pub use error::{ScheduleError, TaskSetError};
pub use interval::IntervalSet;
pub use kind::{payload_text, ErrorKind, ERROR_KINDS};
pub use partition::Partition;
pub use schedule::{CoreId, Placement, Schedule, Segment};
pub use soa::{TaskRow, TaskSoa};
pub use task::{Task, TaskId, TaskSet};
pub use units::{Cycles, Joules, Speed, Time, Watts};
pub use workspace::Workspace;
