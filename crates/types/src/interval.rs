//! The canonical interval kernel: sorted, coalesced, half-open
//! `[start, end)` time intervals.
//!
//! Every interval computation in the workspace — a core's busy windows,
//! the memory's union of busy windows, the idle gaps a sleep policy
//! prices against `ξ`/`ξ_m` — routes through [`IntervalSet`]. Keeping
//! one implementation makes the analytic schemes, the simulator and the
//! figure pipelines agree bit-for-bit on what "a gap" is.
//!
//! # Conventions
//!
//! * Intervals are half-open `[start, end)`; degenerate spans
//!   (`end <= start`, or any non-finite ordering) are dropped on
//!   construction.
//! * A set is always sorted by start and coalesced: touching or
//!   overlapping spans are merged, so consecutive intervals are
//!   separated by strictly positive gaps.
//! * [`IntervalSet::gaps`] follows the workspace's two powered-span
//!   conventions (see `sdem-sim`): with no horizon a component is only
//!   powered between its own first and last busy instant, so only the
//!   *inner* gaps exist; with a horizon `(t0, t1)` the component is
//!   powered across the whole window and the leading/trailing idle
//!   become gaps too. An empty busy set yields no gaps under either
//!   convention (a component that never runs is never powered) — use
//!   [`IntervalSet::complement_within`] for the true set complement.

use crate::units::Time;

/// A sorted, coalesced set of half-open `[start, end)` intervals.
///
/// Dereferences to `&[(Time, Time)]`, so slice iteration, indexing and
/// `windows()` all work directly on the set.
///
/// # Examples
///
/// ```
/// use sdem_types::{IntervalSet, Time};
///
/// let s = |x: f64| Time::from_secs(x);
/// let set = IntervalSet::from_spans(vec![(s(4.0), s(6.0)), (s(0.0), s(2.0)), (s(1.0), s(3.0))]);
/// assert_eq!(set.as_slice(), &[(s(0.0), s(3.0)), (s(4.0), s(6.0))]);
/// assert_eq!(set.total(), s(5.0));
/// assert_eq!(set.gaps(None).as_slice(), &[(s(3.0), s(4.0))]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalSet {
    intervals: Vec<(Time, Time)>,
}

impl IntervalSet {
    /// The empty set.
    pub const fn new() -> Self {
        Self {
            intervals: Vec::new(),
        }
    }

    /// Builds a set from arbitrary spans: drops degenerate spans
    /// (`end <= start`), sorts by start, and coalesces touching or
    /// overlapping spans.
    pub fn from_spans(spans: Vec<(Time, Time)>) -> Self {
        let mut out = Self { intervals: spans };
        Self::normalize(&mut out.intervals);
        out
    }

    /// Sorts and coalesces raw spans in place. The relative order of spans
    /// sharing a start is irrelevant: they always overlap, so coalescing
    /// merges them to the same maximal end either way — an unstable sort is
    /// therefore observationally identical to a stable one here.
    fn normalize(spans: &mut Vec<(Time, Time)>) {
        spans.retain(|&(a, b)| b > a);
        spans.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let mut write = 0;
        for read in 0..spans.len() {
            let (a, b) = spans[read];
            if write > 0 && a <= spans[write - 1].1 {
                spans[write - 1].1 = spans[write - 1].1.max(b);
            } else {
                spans[write] = (a, b);
                write += 1;
            }
        }
        spans.truncate(write);
    }

    /// Empties the set, keeping its allocation for reuse.
    #[inline]
    pub fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Capacity of the underlying buffer (pool diagnostics).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.intervals.capacity()
    }

    /// Rebuilds `out` from arbitrary raw spans without allocating (beyond
    /// growing `out`'s buffer): `out` is cleared, filled from `iter`, then
    /// sorted and coalesced exactly like [`Self::from_spans`].
    pub fn collect_into<I: IntoIterator<Item = (Time, Time)>>(iter: I, out: &mut Self) {
        out.intervals.clear();
        out.intervals.extend(iter);
        Self::normalize(&mut out.intervals);
    }

    /// The intervals as a slice (also available through `Deref`).
    #[inline]
    pub fn as_slice(&self) -> &[(Time, Time)] {
        &self.intervals
    }

    /// Consumes the set, returning the underlying intervals.
    #[inline]
    pub fn into_vec(self) -> Vec<(Time, Time)> {
        self.intervals
    }

    /// Sum of interval lengths, accumulated left to right.
    pub fn total(&self) -> Time {
        self.intervals.iter().map(|&(a, b)| b - a).sum()
    }

    /// The convex hull `(first start, last end)`, or `None` when empty.
    pub fn span(&self) -> Option<(Time, Time)> {
        match (self.intervals.first(), self.intervals.last()) {
            (Some(&(a, _)), Some(&(_, b))) => Some((a, b)),
            _ => None,
        }
    }

    /// `true` when `t` lies inside some interval (`start <= t < end`).
    pub fn contains(&self, t: Time) -> bool {
        let idx = self.intervals.partition_point(|&(a, _)| a <= t);
        idx > 0 && t < self.intervals[idx - 1].1
    }

    /// Set union; both inputs stay sorted so this is a linear merge.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = Self::new();
        self.union_into(other, &mut out);
        out
    }

    /// In-place [`Self::union`]: clears `out` and fills it with the merge,
    /// reusing `out`'s allocation.
    pub fn union_into(&self, other: &Self, out: &mut Self) {
        out.intervals.clear();
        out.intervals
            .reserve(self.intervals.len() + other.intervals.len());
        let (mut xs, mut ys) = (self.iter().peekable(), other.iter().peekable());
        loop {
            let take_x = match (xs.peek(), ys.peek()) {
                (Some(x), Some(y)) => x.0 <= y.0,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let &(a, b) = if take_x {
                xs.next().unwrap()
            } else {
                ys.next().unwrap()
            };
            match out.intervals.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => out.intervals.push((a, b)),
            }
        }
    }

    /// Set intersection: the time covered by both sets.
    pub fn intersect(&self, other: &Self) -> Self {
        let mut out = Self::new();
        self.intersect_into(other, &mut out);
        out
    }

    /// In-place [`Self::intersect`]: clears `out` and fills it with the
    /// intersection, reusing `out`'s allocation.
    pub fn intersect_into(&self, other: &Self, out: &mut Self) {
        out.intervals.clear();
        let (mut i, mut j) = (0, 0);
        while i < self.intervals.len() && j < other.intervals.len() {
            let (a0, a1) = self.intervals[i];
            let (b0, b1) = other.intervals[j];
            let lo = a0.max(b0);
            let hi = a1.min(b1);
            if hi > lo {
                out.intervals.push((lo, hi));
            }
            if a1 <= b1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        out.debug_check_sorted();
    }

    /// The true set complement clipped to `span`: everything inside
    /// `[span.0, span.1)` not covered by this set. The complement of an
    /// empty set is the whole (non-degenerate) span.
    pub fn complement_within(&self, span: (Time, Time)) -> Self {
        let mut out = Self::new();
        self.complement_within_into(span, &mut out);
        out
    }

    /// In-place [`Self::complement_within`]: clears `out` and fills it with
    /// the clipped complement, reusing `out`'s allocation.
    pub fn complement_within_into(&self, span: (Time, Time), out: &mut Self) {
        out.intervals.clear();
        let (t0, t1) = span;
        if t1 <= t0 {
            return;
        }
        let mut cursor = t0;
        for &(a, b) in &self.intervals {
            if b <= cursor {
                continue;
            }
            if a >= t1 {
                break;
            }
            if a > cursor {
                out.intervals.push((cursor, a.min(t1)));
            }
            cursor = cursor.max(b);
            if cursor >= t1 {
                break;
            }
        }
        if cursor < t1 {
            out.intervals.push((cursor, t1));
        }
        out.debug_check_sorted();
    }

    /// The idle gaps of a busy set under the workspace's powered-span
    /// conventions, in chronological order.
    ///
    /// With `horizon = None` only the strictly positive gaps *between*
    /// consecutive busy intervals are returned. With a horizon
    /// `(t0, t1)` the leading idle `[t0, first start)` and trailing idle
    /// `[last end, t1)` are appended when non-empty. An empty busy set
    /// produces no gaps under either convention (the component is never
    /// powered); use [`Self::complement_within`] when the true
    /// complement is wanted instead.
    pub fn gaps(&self, horizon: Option<(Time, Time)>) -> Self {
        let mut out = Self::new();
        self.gaps_into(horizon, &mut out);
        out
    }

    /// In-place [`Self::gaps`]: clears `out` and fills it with the priced
    /// idle gaps, reusing `out`'s allocation.
    pub fn gaps_into(&self, horizon: Option<(Time, Time)>, out: &mut Self) {
        out.intervals.clear();
        let (Some(&first), Some(&last)) = (self.intervals.first(), self.intervals.last()) else {
            return;
        };
        if let Some((t0, _)) = horizon {
            if first.0 - t0 > Time::ZERO {
                out.intervals.push((t0, first.0));
            }
        }
        out.intervals.extend(
            self.intervals
                .windows(2)
                .map(|w| (w[0].1, w[1].0))
                .filter(|&(a, b)| b - a > Time::ZERO),
        );
        if let Some((_, t1)) = horizon {
            if t1 - last.1 > Time::ZERO {
                out.intervals.push((last.1, t1));
            }
        }
        out.debug_check_sorted();
    }

    /// Batched union: clears `out` and fills it with the union of every
    /// set in `sets`, in one coalescing pass.
    ///
    /// Folding [`Self::union_into`] over n sets re-merges the running
    /// result n − 1 times; this entry point concatenates all spans once
    /// and normalizes once. Coalescing does no arithmetic (endpoints are
    /// copied bits, merges take a max under the total order), and the
    /// canonical sorted-disjoint representation of a point set is unique,
    /// so the result is bit-identical to the pairwise fold.
    pub fn union_many_into(sets: &[Self], out: &mut Self) {
        out.intervals.clear();
        out.intervals
            .reserve(sets.iter().map(|s| s.intervals.len()).sum());
        for set in sets {
            out.intervals.extend_from_slice(&set.intervals);
        }
        Self::normalize(&mut out.intervals);
    }

    /// Batched intersection: clears `out` and fills it with the time
    /// covered by *every* set in `sets`, in one k-pointer sweep.
    ///
    /// `cursors` is caller-provided scratch (one index per set — take it
    /// from a [`crate::Workspace`] to keep the call allocation-free).
    /// An empty `sets` slice yields the empty set. Like the batched
    /// union, the sweep does no arithmetic, so the result is
    /// bit-identical to folding [`Self::intersect_into`].
    pub fn intersect_many_into(sets: &[Self], cursors: &mut Vec<usize>, out: &mut Self) {
        out.intervals.clear();
        if sets.is_empty() {
            return;
        }
        cursors.clear();
        cursors.resize(sets.len(), 0);
        'sweep: loop {
            // The candidate piece is bounded by the latest current start
            // and the earliest current end across all k fronts.
            let mut lo = Time::from_secs(f64::NEG_INFINITY);
            let mut hi = Time::from_secs(f64::INFINITY);
            let mut min_end_at = 0;
            for (k, set) in sets.iter().enumerate() {
                let Some(&(a, b)) = set.intervals.get(cursors[k]) else {
                    break 'sweep;
                };
                lo = lo.max(a);
                if b < hi {
                    hi = b;
                    min_end_at = k;
                }
            }
            if hi > lo {
                out.intervals.push((lo, hi));
            }
            // Only the set whose interval ends first can contribute more
            // overlap later; advance its cursor.
            cursors[min_end_at] += 1;
        }
        out.debug_check_sorted();
    }

    /// Batched [`Self::gaps_into`]: computes every set's priced idle gaps
    /// in one pass, appending them to `flat` with `offsets` recording the
    /// per-set ranges (`offsets[i]..offsets[i + 1]` are set i's gaps).
    ///
    /// Both buffers are cleared first; `offsets` comes back with
    /// `sets.len() + 1` entries. Each per-set gap list is bit-identical
    /// to what [`Self::gaps_into`] would produce for that set under the
    /// same `horizon`.
    pub fn gaps_many_into(
        sets: &[Self],
        horizon: Option<(Time, Time)>,
        flat: &mut Vec<(Time, Time)>,
        offsets: &mut Vec<usize>,
    ) {
        flat.clear();
        offsets.clear();
        offsets.push(0);
        for set in sets {
            if let (Some(&first), Some(&last)) = (set.intervals.first(), set.intervals.last()) {
                if let Some((t0, _)) = horizon {
                    if first.0 - t0 > Time::ZERO {
                        flat.push((t0, first.0));
                    }
                }
                flat.extend(
                    set.intervals
                        .windows(2)
                        .map(|w| (w[0].1, w[1].0))
                        .filter(|&(a, b)| b - a > Time::ZERO),
                );
                if let Some((_, t1)) = horizon {
                    if t1 - last.1 > Time::ZERO {
                        flat.push((last.1, t1));
                    }
                }
            }
            offsets.push(flat.len());
        }
    }

    /// Debug-build check that the invariants (sorted, disjoint,
    /// non-degenerate) hold; compiles to nothing in release builds.
    #[inline]
    fn debug_check_sorted(&self) {
        debug_assert!(self.intervals.iter().all(|&(a, b)| b > a));
        debug_assert!(self.intervals.windows(2).all(|w| w[0].1 < w[1].0));
    }
}

impl std::ops::Deref for IntervalSet {
    type Target = [(Time, Time)];

    #[inline]
    fn deref(&self) -> &Self::Target {
        &self.intervals
    }
}

impl FromIterator<(Time, Time)> for IntervalSet {
    fn from_iter<I: IntoIterator<Item = (Time, Time)>>(iter: I) -> Self {
        Self::from_spans(iter.into_iter().collect())
    }
}

impl IntoIterator for IntervalSet {
    type Item = (Time, Time);
    type IntoIter = std::vec::IntoIter<(Time, Time)>;

    fn into_iter(self) -> Self::IntoIter {
        self.intervals.into_iter()
    }
}

impl<'a> IntoIterator for &'a IntervalSet {
    type Item = &'a (Time, Time);
    type IntoIter = std::slice::Iter<'a, (Time, Time)>;

    fn into_iter(self) -> Self::IntoIter {
        self.intervals.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> Time {
        Time::from_secs(x)
    }

    fn set(spans: &[(f64, f64)]) -> IntervalSet {
        IntervalSet::from_spans(spans.iter().map(|&(a, b)| (s(a), s(b))).collect())
    }

    fn raw(set: &IntervalSet) -> Vec<(f64, f64)> {
        set.iter().map(|&(a, b)| (a.value(), b.value())).collect()
    }

    #[test]
    fn from_spans_drops_degenerate_sorts_and_coalesces() {
        let got = set(&[(5.0, 5.0), (3.0, 1.0), (4.0, 6.0), (0.0, 2.0), (1.5, 3.0)]);
        assert_eq!(raw(&got), vec![(0.0, 3.0), (4.0, 6.0)]);
        // Touching intervals coalesce.
        assert_eq!(raw(&set(&[(0.0, 1.0), (1.0, 2.0)])), vec![(0.0, 2.0)]);
    }

    #[test]
    fn coalescing_is_idempotent() {
        let once = set(&[(0.0, 2.0), (1.0, 4.0), (6.0, 7.0)]);
        let twice = IntervalSet::from_spans(once.to_vec());
        assert_eq!(once, twice);
    }

    #[test]
    fn total_span_and_contains() {
        let st = set(&[(1.0, 2.0), (4.0, 7.0)]);
        assert_eq!(st.total(), s(4.0));
        assert_eq!(st.span(), Some((s(1.0), s(7.0))));
        assert!(st.contains(s(1.0)));
        assert!(!st.contains(s(2.0))); // half-open
        assert!(!st.contains(s(3.0)));
        assert!(st.contains(s(6.999)));
        assert!(!st.contains(s(7.0)));
        assert!(!IntervalSet::new().contains(s(0.0)));
        assert_eq!(IntervalSet::new().span(), None);
    }

    #[test]
    fn union_matches_rebuild() {
        let a = set(&[(0.0, 2.0), (5.0, 6.0)]);
        let b = set(&[(1.0, 3.0), (6.0, 8.0), (10.0, 11.0)]);
        let via_merge = a.union(&b);
        let via_rebuild = IntervalSet::from_spans(a.iter().chain(b.iter()).copied().collect());
        assert_eq!(via_merge, via_rebuild);
        assert_eq!(raw(&via_merge), vec![(0.0, 3.0), (5.0, 8.0), (10.0, 11.0)]);
    }

    #[test]
    fn intersect_keeps_shared_time_only() {
        let a = set(&[(0.0, 4.0), (6.0, 9.0)]);
        let b = set(&[(2.0, 7.0), (8.5, 12.0)]);
        assert_eq!(
            raw(&a.intersect(&b)),
            vec![(2.0, 4.0), (6.0, 7.0), (8.5, 9.0)]
        );
        assert_eq!(a.intersect(&IntervalSet::new()), IntervalSet::new());
    }

    #[test]
    fn complement_within_inverts() {
        let a = set(&[(1.0, 2.0), (4.0, 5.0)]);
        let span = (s(0.0), s(6.0));
        let comp = a.complement_within(span);
        assert_eq!(raw(&comp), vec![(0.0, 1.0), (2.0, 4.0), (5.0, 6.0)]);
        // complement ∪ set covers the span exactly.
        assert_eq!(comp.union(&a).as_slice(), &[(s(0.0), s(6.0))]);
        // Empty set: complement is the whole span.
        assert_eq!(
            raw(&IntervalSet::new().complement_within(span)),
            vec![(0.0, 6.0)]
        );
        // Degenerate span: empty.
        assert!(a.complement_within((s(3.0), s(3.0))).is_empty());
    }

    #[test]
    fn gaps_follow_both_powered_span_conventions() {
        let a = set(&[(2.0, 3.0), (5.0, 7.0)]);
        assert_eq!(raw(&a.gaps(None)), vec![(3.0, 5.0)]);
        assert_eq!(
            raw(&a.gaps(Some((s(0.0), s(10.0))))),
            vec![(0.0, 2.0), (3.0, 5.0), (5.0 + 2.0, 10.0)]
        );
        // Horizon flush with the busy span adds nothing.
        assert_eq!(raw(&a.gaps(Some((s(2.0), s(7.0))))), vec![(3.0, 5.0)]);
        // Empty set: no gaps even under a horizon.
        assert!(IntervalSet::new().gaps(Some((s(0.0), s(1.0)))).is_empty());
    }

    #[test]
    fn into_variants_match_allocating_ops_and_clear_stale_state() {
        let a = set(&[(0.0, 2.0), (5.0, 6.0), (8.0, 9.0)]);
        let b = set(&[(1.0, 3.0), (6.0, 8.5)]);
        // Pre-fill the output with garbage to prove it is cleared, not
        // appended to.
        let mut out = set(&[(100.0, 200.0)]);
        a.union_into(&b, &mut out);
        assert_eq!(out, a.union(&b));
        a.intersect_into(&b, &mut out);
        assert_eq!(out, a.intersect(&b));
        let span = (s(0.0), s(10.0));
        a.complement_within_into(span, &mut out);
        assert_eq!(out, a.complement_within(span));
        a.gaps_into(None, &mut out);
        assert_eq!(out, a.gaps(None));
        a.gaps_into(Some(span), &mut out);
        assert_eq!(out, a.gaps(Some(span)));
        // Empty-result paths also clear.
        let mut out = set(&[(100.0, 200.0)]);
        IntervalSet::new().gaps_into(Some(span), &mut out);
        assert!(out.is_empty());
        let mut out = set(&[(100.0, 200.0)]);
        a.complement_within_into((s(3.0), s(3.0)), &mut out);
        assert!(out.is_empty());
        // collect_into matches from_spans on unsorted, degenerate input.
        let raw_spans = vec![(s(5.0), s(5.0)), (s(4.0), s(6.0)), (s(0.0), s(2.0))];
        let mut out = set(&[(100.0, 200.0)]);
        IntervalSet::collect_into(raw_spans.iter().copied(), &mut out);
        assert_eq!(out, IntervalSet::from_spans(raw_spans));
        // clear keeps nothing behind.
        out.clear();
        assert!(out.is_empty());
    }

    #[test]
    fn batched_kernels_match_pairwise_folds() {
        let sets = [
            set(&[(0.0, 2.0), (5.0, 6.0), (8.0, 9.0)]),
            set(&[(1.0, 3.0), (6.0, 8.5)]),
            set(&[(0.5, 9.5)]),
            set(&[(2.5, 4.0), (7.0, 11.0)]),
        ];
        for n in 0..=sets.len() {
            let subset = &sets[..n];
            // union_many vs pairwise fold.
            let mut batched = IntervalSet::new();
            IntervalSet::union_many_into(subset, &mut batched);
            let folded = subset
                .iter()
                .fold(IntervalSet::new(), |acc, s| acc.union(s));
            assert_eq!(batched, folded, "union over {n} sets");
            // intersect_many vs pairwise fold (fold of zero sets is empty
            // by the batched convention; seed the fold with the first set).
            let mut cursors = Vec::new();
            IntervalSet::intersect_many_into(subset, &mut cursors, &mut batched);
            match subset {
                [] => assert!(batched.is_empty()),
                [first, rest @ ..] => {
                    let folded = rest.iter().fold(first.clone(), |acc, s| acc.intersect(s));
                    assert_eq!(batched, folded, "intersect over {n} sets");
                }
            }
        }
    }

    #[test]
    fn gaps_many_matches_per_set_gaps() {
        let sets = [
            set(&[(2.0, 3.0), (5.0, 7.0)]),
            IntervalSet::new(),
            set(&[(0.0, 10.0)]),
            set(&[(1.0, 2.0), (2.5, 4.0), (9.0, 9.5)]),
        ];
        for horizon in [None, Some((s(0.0), s(10.0)))] {
            let mut flat = vec![(s(-1.0), s(-1.0))];
            let mut offsets = vec![7usize];
            IntervalSet::gaps_many_into(&sets, horizon, &mut flat, &mut offsets);
            assert_eq!(offsets.len(), sets.len() + 1);
            assert_eq!(offsets[0], 0);
            assert_eq!(*offsets.last().unwrap(), flat.len());
            for (i, set) in sets.iter().enumerate() {
                let expect = set.gaps(horizon);
                assert_eq!(
                    &flat[offsets[i]..offsets[i + 1]],
                    expect.as_slice(),
                    "set {i}, horizon {horizon:?}"
                );
            }
        }
    }
}
