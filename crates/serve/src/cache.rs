//! The canonicalized task-set solve cache.
//!
//! Sustained traffic repeats task-set *shapes*: periodic workloads replan
//! the same window layout over and over, often with tasks listed in a
//! different order. The cache keys on the canonical form — the
//! [`TaskSet::canonical_hash`] of the task multiset plus every solve
//! parameter that affects the outcome — so a repeated shape costs a hash
//! lookup instead of a solve, and a permuted repeat hits the same entry.
//!
//! Hits are **bit-identical** to cold solves by construction: the cached
//! value is the response summary the cold solve produced, with the bytes
//! of its rendered line after the id, and the solver path is itself
//! canonicalize-then-solve, so the cold solve of any permutation produces
//! the same bits. A hit writes the id and copies those bytes; nothing is
//! rendered again. On a hash hit the stored canonical task set is
//! compared for equality before the entry is trusted — an FNV collision
//! degrades to a miss, never to a wrong answer.
//!
//! Capacity is bounded; insertion beyond capacity evicts in FIFO order
//! (oldest insertion first). Hit/miss/evict totals feed the
//! `sdem-obs` counters `cache_hits`/`cache_misses`/`cache_evictions`.

use std::collections::{HashMap, VecDeque};

use sdem_obs::Counter;
use sdem_types::TaskSet;

use crate::api::{self, SolveResponse};

/// Everything besides the task multiset that changes a solve's outcome.
///
/// Two requests with equal [`CacheParams`] and equal canonicalized task
/// sets produce bit-identical responses (modulo the echoed `id`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// The requested scheme name (distinct names may route identically,
    /// but keying on the name keeps the mapping trivially sound).
    pub scheme: String,
    /// Core budget.
    pub cores: usize,
    /// Memory awake power, exact bits.
    pub alpha_m_bits: u64,
    /// Memory break-even, exact bits.
    pub xi_m_bits: u64,
    /// Whether the degraded-mode fallback chain is engaged.
    pub fallback: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    task_hash: u64,
    params: CacheParams,
}

/// The memoized outcome of one solve, id-free so one entry answers any
/// request id.
///
/// It keeps the bytes of its response line that follow the id, taken from
/// the line rendered when the entry is made: a hit's line is
/// `{"v":1,"id":<id>` plus those bytes. They hold the requested scheme
/// name, which [`CacheParams`] keys on, so they depend on the key alone.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSolve {
    /// Label of the scheme that ran.
    pub resolved: &'static str,
    /// Number of tasks.
    pub tasks: usize,
    /// Cores used by the schedule.
    pub cores_used: usize,
    /// Predicted energy, joules (exact bits preserved).
    pub energy_j: f64,
    /// Memory sleep, milliseconds (exact bits preserved).
    pub memory_sleep_ms: f64,
    /// Degraded-mode flag.
    pub degraded: bool,
    /// The response line after its id, from `,"ok":true` on.
    line_tail: String,
}

impl CachedSolve {
    /// Captures the id-independent part of a response, rendering its
    /// line to take the bytes after the id.
    pub fn from_response(r: &SolveResponse) -> Self {
        let (line, tail) = r.render();
        Self::from_rendered(r, &line[tail..])
    }

    /// Captures the id-independent part of `r`, whose rendered line holds
    /// `line_tail` after its id: the service takes it from the line its
    /// miss has just rendered, so a miss renders once.
    pub(crate) fn from_rendered(r: &SolveResponse, line_tail: &str) -> Self {
        Self {
            resolved: r.resolved,
            tasks: r.tasks,
            cores_used: r.cores_used,
            energy_j: r.energy_j,
            memory_sleep_ms: r.memory_sleep_ms,
            degraded: r.degraded,
            line_tail: line_tail.to_string(),
        }
    }

    /// Rehydrates a response for a new request id.
    pub fn to_response(&self, id: u64, scheme: String) -> SolveResponse {
        SolveResponse {
            id,
            scheme,
            resolved: self.resolved,
            tasks: self.tasks,
            cores_used: self.cores_used,
            energy_j: self.energy_j,
            memory_sleep_ms: self.memory_sleep_ms,
            degraded: self.degraded,
        }
    }

    /// The response line for request `id`: the bytes
    /// [`SolveResponse::to_json_line`] renders for the response this
    /// entry was made from, with `id` as its id.
    pub fn response_line(&self, id: u64) -> String {
        // `{"v":1,"id":` and at most 20 digits.
        let mut line = String::with_capacity(32 + self.line_tail.len());
        api::push_line_head(&mut line, id);
        line.push_str(&self.line_tail);
        line
    }
}

struct Entry {
    /// The canonicalized task set, kept to verify hash hits exactly.
    canonical: TaskSet,
    value: CachedSolve,
}

/// A bounded FIFO solve cache keyed on canonical task sets.
///
/// Not internally synchronized — the service wraps one instance in a
/// `Mutex`, which is also what keeps the hit/miss accounting exact.
pub struct SolveCache {
    capacity: usize,
    map: HashMap<Key, Entry>,
    order: VecDeque<Key>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl SolveCache {
    /// An empty cache holding at most `capacity` entries. A capacity of 0
    /// disables caching (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 16)),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up the solve for `canonical` tasks under `params`, lending
    /// the entry: a hit copies only what it uses (the service, the line
    /// bytes after the id).
    ///
    /// `canonical` must already be in canonical order (the service
    /// canonicalizes once and reuses the result for both the lookup and
    /// the solve), so its key is hashed in place, allocation-free. Counts
    /// a hit or a miss on the obs registry.
    pub fn get(&mut self, canonical: &TaskSet, params: &CacheParams) -> Option<&CachedSolve> {
        let key = Key {
            task_hash: canonical.canonical_hash(),
            params: params.clone(),
        };
        match self.map.get(&key) {
            Some(entry) if entry.canonical == *canonical => {
                self.hits += 1;
                sdem_obs::registry::incr(Counter::CacheHits);
                Some(&entry.value)
            }
            _ => {
                self.misses += 1;
                sdem_obs::registry::incr(Counter::CacheMisses);
                None
            }
        }
    }

    /// Stores a solve outcome for `canonical` tasks (in canonical order,
    /// as for [`Self::get`]), evicting the oldest entry at capacity.
    pub fn insert(&mut self, canonical: TaskSet, params: CacheParams, value: CachedSolve) {
        if self.capacity == 0 {
            return;
        }
        let key = Key {
            task_hash: canonical.canonical_hash(),
            params,
        };
        if self.map.contains_key(&key) {
            // Concurrent identical misses race to insert; first write wins
            // and the values are identical anyway (pure function of key).
            return;
        }
        if self.map.len() >= self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.map.remove(&oldest);
                self.evictions += 1;
                sdem_obs::registry::incr(Counter::CacheEvictions);
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, Entry { canonical, value });
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime totals: `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_core::Scheme;
    use sdem_types::{Cycles, Task, Time};

    fn tasks(ids: &[usize]) -> TaskSet {
        TaskSet::new(
            ids.iter()
                .map(|&i| {
                    Task::new(
                        i,
                        Time::ZERO,
                        Time::from_millis(40.0 + 10.0 * i as f64),
                        Cycles::new(1.0e6 * (i + 1) as f64),
                    )
                })
                .collect(),
        )
        .unwrap()
        .canonicalize()
    }

    fn params() -> CacheParams {
        CacheParams {
            scheme: "auto".into(),
            cores: 8,
            alpha_m_bits: 4.0_f64.to_bits(),
            xi_m_bits: 40.0_f64.to_bits(),
            fallback: false,
        }
    }

    fn response(scheme: &str, energy_j: f64) -> SolveResponse {
        SolveResponse {
            id: 0,
            scheme: scheme.into(),
            resolved: Scheme::CommonReleaseOverhead.solve_label(),
            tasks: 2,
            cores_used: 1,
            energy_j,
            memory_sleep_ms: 1.0,
            degraded: false,
        }
    }

    fn value(tag: f64) -> CachedSolve {
        CachedSolve::from_response(&response("auto", tag))
    }

    #[test]
    fn hit_lines_are_the_rendered_response_with_the_new_id() {
        for scheme in ["auto", "bounded-auto", "quote\" back\\slash \u{1}é"] {
            let cached = CachedSolve::from_response(&response(scheme, 0.1 + 0.2));
            for id in [0, 7, 1_000_000, u64::MAX] {
                let want = cached.to_response(id, scheme.into()).to_json_line();
                assert_eq!(cached.response_line(id), want);
            }
        }
    }

    #[test]
    fn hit_returns_the_exact_stored_bits() {
        let mut cache = SolveCache::new(4);
        let ts = tasks(&[0, 1]);
        assert!(cache.get(&ts, &params()).is_none());
        cache.insert(ts.clone(), params(), value(0.1 + 0.2));
        let hit = cache.get(&ts, &params()).unwrap();
        assert_eq!(hit.energy_j.to_bits(), (0.1_f64 + 0.2).to_bits());
        assert_eq!(cache.stats(), (1, 1, 0));
    }

    #[test]
    fn params_partition_the_key_space() {
        let mut cache = SolveCache::new(4);
        let ts = tasks(&[0, 1]);
        cache.insert(ts.clone(), params(), value(1.0));
        let mut other = params();
        other.cores = 2;
        assert!(cache.get(&ts, &other).is_none());
        let mut other = params();
        other.fallback = true;
        assert!(cache.get(&ts, &other).is_none());
        let mut other = params();
        other.alpha_m_bits = 2.0_f64.to_bits();
        assert!(cache.get(&ts, &other).is_none());
        assert!(cache.get(&ts, &params()).is_some());
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut cache = SolveCache::new(2);
        cache.insert(tasks(&[0]), params(), value(0.0));
        cache.insert(tasks(&[1]), params(), value(1.0));
        cache.insert(tasks(&[2]), params(), value(2.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&tasks(&[0]), &params()).is_none(), "oldest gone");
        assert!(cache.get(&tasks(&[1]), &params()).is_some());
        assert!(cache.get(&tasks(&[2]), &params()).is_some());
        let (_, _, evictions) = cache.stats();
        assert_eq!(evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut cache = SolveCache::new(0);
        cache.insert(tasks(&[0]), params(), value(0.0));
        assert!(cache.is_empty());
        assert!(cache.get(&tasks(&[0]), &params()).is_none());
    }

    #[test]
    fn duplicate_insert_keeps_first_value() {
        let mut cache = SolveCache::new(4);
        cache.insert(tasks(&[0]), params(), value(1.0));
        cache.insert(tasks(&[0]), params(), value(2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&tasks(&[0]), &params()).unwrap().energy_j, 1.0);
    }
}
