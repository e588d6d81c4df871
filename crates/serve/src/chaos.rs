//! Seeded chaos injection for replay runs.
//!
//! A [`ChaosSpec`] names how much of each fault class to inject; a
//! [`ChaosPlan`] materializes it against a concrete event count into
//! four *disjoint* seq sets:
//!
//! * **panics** — the worker thread panics at that seq *outside* the
//!   per-request solver guard, exercising the supervisor (restart budget,
//!   workspace rebuild, backoff). The panic payload is deterministic, so
//!   the resulting `worker-panic` error line is byte-identical across
//!   worker counts.
//! * **poison** — the replay driver corrupts the request line before
//!   submission (a non-finite `alpha_m_w`), exercising the admission
//!   boundary's typed `bad-request` path.
//! * **queue-full** — the request is treated as arriving under overload
//!   and forced through the graceful-degradation tier (race-to-idle with
//!   an explicit `degraded` flag) instead of being shed. This is the only
//!   way into that tier.
//! * **latency** — the worker sleeps briefly before solving; perturbs
//!   timing without changing a single output byte, which is exactly what
//!   the byte-identity tests want to stress.
//!
//! Disjointness keeps the ledger exact: every injected seq maps to one
//! observable outcome, so `stats --check` can compare counters against
//! the plan with equality, not inequalities.

use core::fmt;

use sdem_prng::SplitMix64;

/// Domain-separation tag for chaos seq sampling.
const TAG_CHAOS: u64 = 0xC4A0_5000;

/// How much chaos to inject, independent of trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Seed for seq selection (decorrelated from the trace seed).
    pub seed: u64,
    /// Worker panics to inject.
    pub panics: usize,
    /// Requests to poison before submission.
    pub poison: usize,
    /// Requests to force through the degradation tier.
    pub queue_full: usize,
    /// Requests to delay (timing-only perturbation).
    pub latency: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            seed: 0xC4A0,
            panics: 0,
            poison: 0,
            queue_full: 0,
            latency: 0,
        }
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seed={:#x},panics={},poison={},queue-full={},latency={}",
            self.seed, self.panics, self.poison, self.queue_full, self.latency
        )
    }
}

impl ChaosSpec {
    /// Parses a `key=value` comma list (`seed=0x9,panics=4,poison=2,
    /// queue-full=3,latency=8`); omitted keys default to zero injections.
    ///
    /// # Errors
    ///
    /// Unknown keys and unparsable values are reported as human-readable
    /// strings (the CLI maps them to usage errors).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: `{part}` is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |k: &str, v: &str| format!("chaos spec: `{k}` has unparsable value `{v}`");
            match key {
                "seed" => {
                    out.seed = match value
                        .strip_prefix("0x")
                        .or_else(|| value.strip_prefix("0X"))
                    {
                        Some(hex) => u64::from_str_radix(hex, 16),
                        None => value.parse(),
                    }
                    .map_err(|_| bad(key, value))?;
                }
                "panics" => out.panics = value.parse().map_err(|_| bad(key, value))?,
                "poison" => out.poison = value.parse().map_err(|_| bad(key, value))?,
                "queue-full" => out.queue_full = value.parse().map_err(|_| bad(key, value))?,
                "latency" => out.latency = value.parse().map_err(|_| bad(key, value))?,
                other => return Err(format!("chaos spec: unknown key `{other}`")),
            }
        }
        Ok(out)
    }

    /// Total injections the spec asks for.
    pub fn total(&self) -> usize {
        self.panics + self.poison + self.queue_full + self.latency
    }
}

/// The spec materialized against a concrete event count: four disjoint,
/// sorted seq sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    panics: Vec<u64>,
    poison: Vec<u64>,
    queue_full: Vec<u64>,
    latency: Vec<u64>,
}

impl ChaosPlan {
    /// Samples the plan's seq sets for a trace of `events` arrivals.
    ///
    /// Sampling is rejection-based over a single SplitMix64 stream, so
    /// the same `(spec, events)` pair always yields the same plan and the
    /// four classes never overlap.
    ///
    /// # Errors
    ///
    /// Rejects specs that ask for more injections than there are events.
    pub fn materialize(spec: &ChaosSpec, events: u64) -> Result<Self, String> {
        let total = spec.total() as u64;
        if total > events {
            return Err(format!(
                "chaos spec asks for {total} injections but the trace has only {events} events"
            ));
        }
        let mut rng = SplitMix64::new(SplitMix64::mix(&[spec.seed, TAG_CHAOS, events]));
        let mut taken = std::collections::BTreeSet::new();
        let mut draw = |count: usize| -> Vec<u64> {
            let mut set = Vec::with_capacity(count);
            while set.len() < count {
                let seq = rng.next_value() % events;
                if taken.insert(seq) {
                    set.push(seq);
                }
            }
            set.sort_unstable();
            set
        };
        Ok(Self {
            panics: draw(spec.panics),
            poison: draw(spec.poison),
            queue_full: draw(spec.queue_full),
            latency: draw(spec.latency),
        })
    }

    /// An empty plan (no injections) — what a chaos-free replay uses.
    pub fn none() -> Self {
        Self {
            panics: Vec::new(),
            poison: Vec::new(),
            queue_full: Vec::new(),
            latency: Vec::new(),
        }
    }

    /// Should the worker panic on this seq?
    pub fn panic_at(&self, seq: u64) -> bool {
        self.panics.binary_search(&seq).is_ok()
    }

    /// Should the driver poison this request line?
    pub fn poison_at(&self, seq: u64) -> bool {
        self.poison.binary_search(&seq).is_ok()
    }

    /// Should this request be forced through the degradation tier?
    pub fn queue_full_at(&self, seq: u64) -> bool {
        self.queue_full.binary_search(&seq).is_ok()
    }

    /// Should the worker inject latency before solving this seq?
    pub fn latency_at(&self, seq: u64) -> bool {
        self.latency.binary_search(&seq).is_ok()
    }

    /// Count of injections of each class with seq ≥ `from` — the portion
    /// of the plan a resumed replay will actually execute (earlier seqs
    /// were recovered from the journal, not re-run).
    pub fn counts_from(&self, from: u64) -> ChaosCounts {
        let tail = |set: &[u64]| set.iter().filter(|&&s| s >= from).count() as u64;
        ChaosCounts {
            panics: tail(&self.panics),
            poison: tail(&self.poison),
            queue_full: tail(&self.queue_full),
            latency: tail(&self.latency),
        }
    }
}

/// Per-class injection counts (used to validate observed counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounts {
    /// Worker panics expected.
    pub panics: u64,
    /// Poisoned requests expected.
    pub poison: u64,
    /// Forced degradations expected.
    pub queue_full: u64,
    /// Latency injections expected.
    pub latency: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_its_canonical_rendering() {
        let spec = ChaosSpec {
            seed: 0x1F,
            panics: 3,
            poison: 2,
            queue_full: 5,
            latency: 7,
        };
        assert_eq!(ChaosSpec::parse(&spec.to_string()).unwrap(), spec);
        let partial = ChaosSpec::parse("panics=2").unwrap();
        assert_eq!(partial.panics, 2);
        assert_eq!(partial.poison, 0);
        assert!(ChaosSpec::parse("panics=x").is_err());
        assert!(ChaosSpec::parse("zap=1").is_err());
        assert!(ChaosSpec::parse("panics").is_err());
    }

    #[test]
    fn plan_is_deterministic_disjoint_and_in_range() {
        let spec = ChaosSpec {
            seed: 7,
            panics: 10,
            poison: 10,
            queue_full: 10,
            latency: 10,
        };
        let a = ChaosPlan::materialize(&spec, 500).unwrap();
        let b = ChaosPlan::materialize(&spec, 500).unwrap();
        assert_eq!(a, b, "same (spec, events) ⇒ same plan");
        let mut all: Vec<u64> = [&a.panics, &a.poison, &a.queue_full, &a.latency]
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        assert!(all.iter().all(|&s| s < 500));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "classes must be disjoint");
        // A different event count reselects.
        let c = ChaosPlan::materialize(&spec, 501).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn overfull_specs_are_rejected() {
        let spec = ChaosSpec {
            panics: 5,
            poison: 5,
            ..ChaosSpec::default()
        };
        assert!(ChaosPlan::materialize(&spec, 9).is_err());
        assert!(ChaosPlan::materialize(&spec, 10).is_ok());
    }

    #[test]
    fn lookups_and_resume_counts_agree_with_the_sets() {
        let spec = ChaosSpec {
            seed: 3,
            panics: 4,
            poison: 3,
            queue_full: 2,
            latency: 1,
        };
        let plan = ChaosPlan::materialize(&spec, 100).unwrap();
        for &s in &plan.panics {
            assert!(plan.panic_at(s) && !plan.poison_at(s));
        }
        for &s in &plan.poison {
            assert!(plan.poison_at(s) && !plan.queue_full_at(s));
        }
        let full = plan.counts_from(0);
        assert_eq!(
            full,
            ChaosCounts {
                panics: 4,
                poison: 3,
                queue_full: 2,
                latency: 1
            }
        );
        assert_eq!(plan.counts_from(100), ChaosCounts::default());
        // Partial resume point: counts must partition.
        let mid = plan.counts_from(50);
        assert!(mid.panics <= full.panics && mid.poison <= full.poison);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = ChaosPlan::none();
        for seq in 0..32 {
            assert!(!plan.panic_at(seq));
            assert!(!plan.poison_at(seq));
            assert!(!plan.queue_full_at(seq));
            assert!(!plan.latency_at(seq));
        }
    }
}
