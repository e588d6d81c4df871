//! Pins the cache-key hash to its historical byte sequence.
//!
//! The solve cache keys on [`TaskSet::canonical_hash`], and cached entries
//! survive across code versions in spirit (the daemon's warm cache must
//! not silently re-key when internals change). This suite re-implements
//! the original per-`&Task` FNV-1a fold verbatim and checks the
//! production hash matches it bit-for-bit on hostile inputs: `-0.0`
//! releases, denormals, duplicated fields, shuffled orders.

use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem_types::{Cycles, Task, TaskSet, Time};

/// The pre-SoA reference: collect `&Task`s, sort by the canonical total
/// order (release, deadline, work, id), FNV-1a over the length and each
/// task's id and field bit patterns. Copied from the historical
/// implementation — do not "improve" it; its byte sequence is the pin.
fn reference_hash(set: &TaskSet) -> u64 {
    let mut order: Vec<&Task> = set.iter().collect();
    order.sort_unstable_by(|a, b| {
        a.release()
            .total_cmp(&b.release())
            .then(a.deadline().total_cmp(&b.deadline()))
            .then(a.work().total_cmp(&b.work()))
            .then(a.id().cmp(&b.id()))
    });
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(set.len() as u64);
    for t in order {
        eat(t.id().0 as u64);
        eat(t.release().as_secs().to_bits());
        eat(t.deadline().as_secs().to_bits());
        eat(t.work().value().to_bits());
    }
    h
}

fn random_set(rng: &mut ChaCha8Rng) -> TaskSet {
    let n = 1 + (rng.next_u64() % 24) as usize;
    let tasks = (0..n)
        .map(|i| {
            // Mix ordinary magnitudes with ties and signed zeros so the
            // canonical sort exercises every tie-break level.
            let release = match rng.next_u64() % 4 {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_f64() * 10.0,
            };
            let deadline = release.abs() + 0.001 + rng.gen_f64() * 5.0;
            let work = match rng.next_u64() % 5 {
                0 => 0.0,
                1 => f64::MIN_POSITIVE * rng.gen_f64().max(0.5),
                _ => rng.gen_f64() * 1.0e7,
            };
            Task::new(
                i,
                Time::from_secs(release),
                Time::from_secs(deadline),
                Cycles::new(work),
            )
        })
        .collect();
    TaskSet::new(tasks).expect("valid set")
}

#[test]
fn soa_hash_matches_historical_per_task_hash() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A5_000);
    for _ in 0..200 {
        let set = random_set(&mut rng);
        assert_eq!(
            set.canonical_hash(),
            reference_hash(&set),
            "SoA slice hash diverged from the pinned byte sequence"
        );
    }
}

#[test]
fn hash_is_order_invariant_and_warm_workspace_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9A5_001);
    for _ in 0..50 {
        let set = random_set(&mut rng);
        let cold = set.canonical_hash();
        // The canonical set the daemon's cache hashes, folded in place.
        assert_eq!(set.canonicalize().canonical_hash(), cold);
        // Reversing the task order must not move the key.
        let mut reversed: Vec<Task> = set.iter().copied().collect();
        reversed.reverse();
        let reversed = TaskSet::new(reversed).expect("valid set");
        assert_eq!(reversed.canonical_hash(), cold);
    }
}

#[test]
fn signed_zero_and_field_swaps_change_the_key() {
    let base = TaskSet::new(vec![Task::new(
        0,
        Time::from_secs(0.0),
        Time::from_secs(2.0),
        Cycles::new(3.0),
    )])
    .expect("valid");
    let neg_zero = TaskSet::new(vec![Task::new(
        0,
        Time::from_secs(-0.0),
        Time::from_secs(2.0),
        Cycles::new(3.0),
    )])
    .expect("valid");
    // The solvers see the bit patterns, so the cache key must too.
    assert_ne!(base.canonical_hash(), neg_zero.canonical_hash());
    assert_eq!(neg_zero.canonical_hash(), reference_hash(&neg_zero));

    let swapped = TaskSet::new(vec![Task::new(
        0,
        Time::from_secs(0.0),
        Time::from_secs(3.0),
        Cycles::new(2.0),
    )])
    .expect("valid");
    assert_ne!(base.canonical_hash(), swapped.canonical_hash());
}
