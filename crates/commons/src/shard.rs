//! Striped locks for partitioned serving state.
//!
//! Every serving tier in the paper is built around partitioned state —
//! Espresso partitions databases, Kafka partitions topics, Voldemort
//! partitions the ring — yet a naive in-process reproduction funnels all
//! of it through one mutex per system. [`ShardedLock`] is the shared
//! substrate that fixes that: state is split over `N` independently
//! locked stripes, a key's stripe is chosen by hash, and multi-stripe
//! operations acquire their stripes in ascending index order so no two
//! transactions can deadlock no matter which keys they touch.
//!
//! Every user of this primitive keeps a deterministic twin:
//! [`ShardMode::Deterministic`] degenerates to one logical stripe, which
//! makes the sharded code path byte-identical to the old single-lock
//! behavior — the property the seeded chaos harness relies on for
//! replayable traces.

use parking_lot::{Mutex, MutexGuard};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The one execution mode of every tier: how a sharded structure spreads
/// its state over stripes, and whether fan-outs (Voldemort quorums,
/// Espresso multi-key requests) run inline or on a
/// [`crate::exec::FanOutPool`]. A tier holds such a pool iff its mode is
/// `Parallel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMode {
    /// One logical stripe: every key contends on the same lock, exactly
    /// reproducing the pre-sharding serial behavior, and fan-outs run
    /// inline in submission order. The default, so a config that does
    /// not choose stays replayable (seeded chaos replays depend on it).
    #[default]
    Deterministic,
    /// The configured stripe count: disjoint keys proceed concurrently,
    /// and fan-outs run on real threads.
    Parallel,
}

/// `N` hash-striped instances of `S` behind independent mutexes.
///
/// Lock-ordering contract: any operation that holds more than one stripe
/// must acquire them in ascending stripe-index order ([`Self::lock_many`]
/// and [`Self::lock_all`] do this for you). Callers layering another lock
/// on top (e.g. a commit-point lock) must acquire it strictly *after*
/// all stripes, never before.
pub struct ShardedLock<S> {
    stripes: Vec<Mutex<S>>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for ShardedLock<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLock")
            .field("stripes", &self.stripes.len())
            .finish()
    }
}

impl<S> ShardedLock<S> {
    /// Creates `stripes` stripes, each initialized by `init` (at least 1).
    pub fn new(stripes: usize, init: impl Fn() -> S) -> Self {
        ShardedLock {
            stripes: (0..stripes.max(1)).map(|_| Mutex::new(init())).collect(),
        }
    }

    /// [`Self::new`], but [`ShardMode::Deterministic`] collapses to one
    /// stripe regardless of `stripes`.
    pub fn with_mode(mode: ShardMode, stripes: usize, init: impl Fn() -> S) -> Self {
        match mode {
            ShardMode::Deterministic => Self::new(1, init),
            ShardMode::Parallel => Self::new(stripes, init),
        }
    }

    /// Number of stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe a key hashes to. Stable for the lifetime of the value
    /// (`DefaultHasher` with default keys is deterministic), but callers
    /// must not persist stripe indices — they are an in-memory layout.
    pub fn stripe_of<K: Hash + ?Sized>(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.stripes.len() as u64) as usize
    }

    /// Locks the stripe holding `key`.
    pub fn lock<K: Hash + ?Sized>(&self, key: &K) -> MutexGuard<'_, S> {
        self.lock_stripe(self.stripe_of(key))
    }

    /// Locks stripe `index` directly.
    pub fn lock_stripe(&self, index: usize) -> MutexGuard<'_, S> {
        self.stripes[index].lock()
    }

    /// The sorted, deduplicated stripe set covering `keys` — the exact
    /// acquisition order [`Self::lock_many`] will use.
    pub fn stripe_set<K: Hash>(&self, keys: impl IntoIterator<Item = K>) -> Vec<usize> {
        let mut ids: Vec<usize> = keys.into_iter().map(|k| self.stripe_of(&k)).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Locks the given stripes in ascending order (deadlock-free against
    /// any other multi-stripe holder). `indices` must be sorted and
    /// deduplicated — use [`Self::stripe_set`]. Guards are returned in the
    /// same order as `indices`.
    pub fn lock_many(&self, indices: &[usize]) -> Vec<MutexGuard<'_, S>> {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        indices.iter().map(|&i| self.stripes[i].lock()).collect()
    }

    /// Locks the two stripes covering `a` and `b` in ascending order — the
    /// two-row read-modify-write case (one guard when they collide).
    pub fn lock_pair<'l, A: Hash, B: Hash>(
        &'l self,
        a: &A,
        b: &B,
    ) -> (MutexGuard<'l, S>, Option<MutexGuard<'l, S>>) {
        let (ia, ib) = (self.stripe_of(a), self.stripe_of(b));
        if ia == ib {
            (self.lock_stripe(ia), None)
        } else {
            let (lo, hi) = (ia.min(ib), ia.max(ib));
            (self.lock_stripe(lo), Some(self.lock_stripe(hi)))
        }
    }

    /// Locks every stripe in ascending order (whole-structure operations:
    /// scans, fingerprints, recovery).
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, S>> {
        self.stripes.iter().map(Mutex::lock).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn deterministic_mode_is_one_stripe() {
        let sharded: ShardedLock<u32> = ShardedLock::with_mode(ShardMode::Deterministic, 64, || 0);
        assert_eq!(sharded.stripe_count(), 1);
        let sharded: ShardedLock<u32> = ShardedLock::with_mode(ShardMode::Parallel, 64, || 0);
        assert_eq!(sharded.stripe_count(), 64);
    }

    #[test]
    fn stripe_of_is_stable_and_in_range() {
        let sharded: ShardedLock<()> = ShardedLock::new(16, || ());
        for key in 0..1000u64 {
            let s = sharded.stripe_of(&key);
            assert!(s < 16);
            assert_eq!(s, sharded.stripe_of(&key));
        }
    }

    #[test]
    fn stripe_set_is_sorted_and_deduped() {
        let sharded: ShardedLock<()> = ShardedLock::new(8, || ());
        let set = sharded.stripe_set(0..100u64);
        assert!(set.windows(2).all(|w| w[0] < w[1]));
        let guards = sharded.lock_many(&set);
        assert_eq!(guards.len(), set.len());
    }

    #[test]
    fn lock_pair_collapses_colliding_keys() {
        let sharded: ShardedLock<()> = ShardedLock::new(1, || ());
        let (_a, b) = sharded.lock_pair(&1u64, &2u64);
        assert!(b.is_none(), "single stripe: one guard, no self-deadlock");
    }

    #[test]
    fn disjoint_keys_do_not_serialize() {
        // Hold key A's stripe; an operation on a key in a different stripe
        // must complete while A is held.
        let sharded: Arc<ShardedLock<u64>> = Arc::new(ShardedLock::new(8, || 0));
        let a = 0u64;
        let b = (1..100u64)
            .find(|k| sharded.stripe_of(k) != sharded.stripe_of(&a))
            .unwrap();
        let guard = sharded.lock(&a);
        let other = sharded.clone();
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = done.clone();
        let h = std::thread::spawn(move || {
            *other.lock(&b) += 1;
            done2.store(1, Ordering::SeqCst);
        });
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1, "disjoint stripe not blocked");
        drop(guard);
    }

    #[test]
    fn ordered_acquisition_survives_crossing_transactions() {
        // Two threads repeatedly locking overlapping stripe pairs in
        // opposite key order must not deadlock (both go through the
        // sorted path).
        let sharded: Arc<ShardedLock<u64>> = Arc::new(ShardedLock::new(4, || 0));
        let mut handles = Vec::new();
        for t in 0..2 {
            let sharded = sharded.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    let (x, y) = if t == 0 { (i, i + 1) } else { (i + 1, i) };
                    let set = sharded.stripe_set([x, y]);
                    let mut guards = sharded.lock_many(&set);
                    for g in &mut guards {
                        **g += 1;
                    }
                }
            }));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        for h in handles {
            assert!(std::time::Instant::now() < deadline, "deadlock tripwire");
            h.join().unwrap();
        }
    }
}
