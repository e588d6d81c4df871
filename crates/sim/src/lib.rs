//! Multi-core + shared-memory schedule simulator and energy meter.
//!
//! Every scheduler in the `sdem` workspace emits an explicit
//! [`sdem_types::Schedule`]; this crate replays such schedules against a
//! [`sdem_power::Platform`] and reports where the energy went.
//!
//! Two independent implementations are provided and cross-checked in tests:
//!
//! * [`simulate`] — an interval-sweep meter that merges busy intervals and
//!   prices each busy span and idle gap directly;
//! * [`simulate_event_driven`] — a chronological event engine with explicit
//!   per-core and memory state machines (`Off → Busy ↔ Idle ↔ Asleep`),
//!   which is the authoritative reference for transition accounting. It
//!   tables every core's runs once and classifies each slice between
//!   consecutive segment boundaries with monotone per-component cursors,
//!   so a run costs O(slices × cores) after an O(segments · log segments)
//!   build ([`simulate_event_driven_in`] draws its tables from a
//!   [`sdem_types::Workspace`]).
//!
//! # Energy accounting conventions
//!
//! * A core is *on* from its first to its last execution instant; outside
//!   that span it is off and free. Within the span, idle gaps either stay
//!   awake (paying `α·g`) or sleep (paying the round-trip `α·ξ`), according
//!   to the [`SleepPolicy`].
//! * The memory is on from the first instant *any* core is busy to the last;
//!   common-idle gaps within that span follow the memory [`SleepPolicy`]
//!   (`α_m·g` awake vs `α_m·ξ_m` round trip).
//! * With this *gap convention*, a schedule with `k` memory busy blocks pays
//!   `k − 1` memory transitions. The paper's §7 DP instead charges one
//!   transition per block (`k` total); the two differ by the constant
//!   `α_m·ξ_m`, so they rank schedules identically. Comparisons in
//!   `EXPERIMENTS.md` use the gap convention throughout.
//!
//! # Examples
//!
//! ```
//! use sdem_sim::{simulate, SleepPolicy};
//! use sdem_power::Platform;
//! use sdem_types::{Task, TaskSet, Schedule, Placement, TaskId, CoreId, Time, Speed, Cycles};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::paper_defaults();
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::ZERO, Time::from_millis(50.0), Cycles::new(8.0e6)),
//! ])?;
//! let schedule = Schedule::new(vec![Placement::single(
//!     TaskId(0), CoreId(0), Time::ZERO, Time::from_millis(10.0), Speed::from_mhz(800.0),
//! )]);
//! let report = simulate(&schedule, &tasks, &platform, SleepPolicy::WhenProfitable)?;
//! assert!(report.memory_static.value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod meter;
mod options;
mod power_trace;
mod report;
mod summary;
mod timeline;
mod trace;

pub use engine::{simulate_event_driven, simulate_event_driven_in};
pub use meter::{simulate, simulate_with_options, simulate_with_options_in};
pub use options::{SimOptions, SleepPolicy};
pub use power_trace::{power_trace, power_trace_in, trace_to_csv, PowerSample};
pub use report::EnergyReport;
pub use summary::{schedule_stats, ScheduleStats};
pub use trace::render_gantt;
