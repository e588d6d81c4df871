//! Structure-of-arrays hot view of a [`TaskSet`].
//!
//! The AoS [`Task`] remains the constructor and storage form — validation,
//! the public API and the wire protocol all speak `Task`. The sweep hot
//! path, however, spends its time in sort/scan loops over one field at a
//! time (releases for arrival order, deadlines for EDF order, works for
//! feasibility), where a struct-of-arrays layout keeps each loop on one
//! contiguous `f64` slice. [`TaskSoa`] is that view: parallel
//! `ids/releases/deadlines/works/flags` columns materialized into
//! [`Workspace`](crate::Workspace) pools via
//! [`TaskSet::fill_soa`](crate::TaskSet::fill_soa), so a warmed workspace
//! re-materializes it allocation-free every trial.
//!
//! The view is plain scalars on purpose: releases/deadlines are seconds
//! (`Time::as_secs`), works are cycles (`Cycles::value`). Converting back
//! through `Time::from_secs`/`Cycles::new` is a newtype round trip, so
//! algorithms running on the view are bit-identical to their AoS
//! counterparts.

#[cfg(doc)]
use crate::TaskSet;
use crate::{Cycles, Task, Time};

/// A task flattened to plain scalars: `(id, release_s, deadline_s, work)`.
///
/// This is the row form shared by the single-core baseline policies (as
/// both their job and run representation) and the SoA view, so one
/// `Workspace` pool serves them all.
pub type TaskRow = (crate::TaskId, f64, f64, f64);

/// Parallel per-field columns of a task set (see the module docs).
///
/// Invariant: all five columns have equal length. The columns are public
/// so hot loops can borrow them independently (e.g. sort an index vector
/// by `releases` while reading `deadlines`).
///
/// # Examples
///
/// ```
/// use sdem_types::{Cycles, Task, TaskSet, Time, Workspace};
///
/// # fn main() -> Result<(), sdem_types::TaskSetError> {
/// let set = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_secs(2.0), Cycles::new(3.0)),
///     Task::new(1, Time::ZERO, Time::from_secs(5.0), Cycles::new(0.0)),
/// ])?;
/// let mut ws = Workspace::new();
/// let mut soa = ws.take_soa();
/// set.fill_soa(&mut soa);
/// assert_eq!(soa.len(), 2);
/// assert_eq!(soa.deadlines, [2.0, 5.0]);
/// assert_eq!(soa.flags, [true, false]); // flags[i] = task i has work
/// assert!(soa.is_common_release());
/// ws.recycle_soa(soa);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TaskSoa {
    /// Raw task ids (`TaskId::0`), in the source set's order.
    pub ids: Vec<usize>,
    /// Release times in seconds.
    pub releases: Vec<f64>,
    /// Deadlines in seconds.
    pub deadlines: Vec<f64>,
    /// Workloads in cycles.
    pub works: Vec<f64>,
    /// `true` when the task has non-zero work (zero-work tasks never
    /// execute, so schedulers special-case them without touching `works`).
    pub flags: Vec<bool>,
}

impl TaskSoa {
    /// Number of tasks in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the view holds no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Empties every column, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.releases.clear();
        self.deadlines.clear();
        self.works.clear();
        self.flags.clear();
    }

    /// Reconstructs row `i` as an AoS [`Task`] (a newtype round trip, so
    /// the result is bit-identical to the task the view was filled from).
    #[inline]
    pub fn task(&self, i: usize) -> Task {
        Task::new(
            self.ids[i],
            Time::from_secs(self.releases[i]),
            Time::from_secs(self.deadlines[i]),
            Cycles::new(self.works[i]),
        )
    }

    /// Slice-level [`TaskSet::is_common_release`]: identical comparison,
    /// contiguous column scan.
    pub fn is_common_release(&self) -> bool {
        let Some(&r0) = self.releases.first() else {
            return true;
        };
        self.releases
            .iter()
            .all(|&r| (r - r0).abs() <= f64::EPSILON)
    }

    /// Fills `out` with `0..len` sorted by (release, deadline, id) — the
    /// arrival order of [`TaskSet::sorted_by_release`], as an argsort over
    /// the columns. Same total comparator, so the orders are identical.
    pub fn arrival_order_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend(0..self.len());
        out.sort_unstable_by(|&a, &b| {
            self.releases[a]
                .total_cmp(&self.releases[b])
                .then(self.deadlines[a].total_cmp(&self.deadlines[b]))
                .then(self.ids[a].cmp(&self.ids[b]))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TaskSet, Workspace};

    fn set(specs: &[(usize, f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .map(|&(id, r, d, w)| {
                    Task::new(id, Time::from_secs(r), Time::from_secs(d), Cycles::new(w))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn fill_round_trips_bit_exactly() {
        let s = set(&[(3, 0.5, 2.0, 1.5), (0, -0.0, 9.0, 0.0), (7, 1.0, 4.0, 2.5)]);
        let mut soa = TaskSoa::default();
        s.fill_soa(&mut soa);
        assert_eq!(soa.len(), 3);
        for (i, t) in s.iter().enumerate() {
            assert_eq!(&soa.task(i), t);
        }
        // -0.0 survives the round trip bit-exactly.
        assert_eq!(soa.releases[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(soa.flags, [true, false, true]);
    }

    #[test]
    fn common_release_matches_aos() {
        let common = set(&[(0, 1.0, 2.0, 1.0), (1, 1.0, 3.0, 1.0)]);
        let spread = set(&[(0, 1.0, 2.0, 1.0), (1, 1.5, 3.0, 1.0)]);
        let mut soa = TaskSoa::default();
        for s in [&common, &spread] {
            s.fill_soa(&mut soa);
            assert_eq!(soa.is_common_release(), s.is_common_release());
        }
    }

    #[test]
    fn arrival_order_matches_sorted_by_release() {
        let s = set(&[
            (3, 1.0, 10.0, 2.0),
            (1, 0.0, 10.0, 2.0),
            (2, 0.0, 8.0, 1.0),
            (0, 1.0, 10.0, 1.0),
        ]);
        let mut soa = TaskSoa::default();
        s.fill_soa(&mut soa);
        let mut order = Vec::new();
        soa.arrival_order_into(&mut order);
        let by_order: Vec<Task> = order.iter().map(|&i| soa.task(i)).collect();
        assert_eq!(by_order, s.sorted_by_release());
    }

    #[test]
    fn soa_pool_recycles_column_capacity() {
        let s = set(&[(0, 0.0, 1.0, 1.0), (1, 0.0, 2.0, 1.0)]);
        let mut ws = Workspace::new();
        let mut soa = ws.take_soa();
        s.fill_soa(&mut soa);
        let cap = soa.ids.capacity();
        ws.recycle_soa(soa);
        let soa = ws.take_soa();
        assert!(soa.is_empty());
        assert!(soa.ids.capacity() >= cap);
    }
}
