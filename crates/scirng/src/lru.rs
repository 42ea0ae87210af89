//! The workspace's one LRU: a weight-bounded map ([`Lru`]) and a
//! count-bounded set ([`Quarantine`]) built on it.
//!
//! Recency is a monotone tick, never wall-clock, and both indexes are
//! `BTreeMap`s, so the same operation sequence always evicts the same
//! victims in the same order (the simulator's determinism rule). Ticks are
//! unique, so the first row of the recency index is always the
//! least-recently-used key and eviction is `O(log n)`.

use std::collections::BTreeMap;

#[derive(Debug)]
struct Slot<V> {
    value: V,
    weight: u64,
    tick: u64,
}

/// Weight-bounded LRU map. Resident weight never exceeds the capacity:
/// [`Lru::insert`] and [`Lru::shrink_to`] evict least-recently-used entries
/// until it fits. [`Lru::get`] and [`Lru::insert`] bump recency;
/// [`Lru::contains`] does not.
#[derive(Debug)]
pub struct Lru<K, V> {
    cap: u64,
    weight: u64,
    tick: u64,
    evictions: u64,
    map: BTreeMap<K, Slot<V>>,
    /// Recency index: last-use tick → key, in lockstep with `map`.
    order: BTreeMap<u64, K>,
}

impl<K: Ord + Copy, V> Lru<K, V> {
    pub fn new(cap: u64) -> Lru<K, V> {
        Lru {
            cap,
            weight: 0,
            tick: 0,
            evictions: 0,
            map: BTreeMap::new(),
            order: BTreeMap::new(),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.cap
    }

    /// Total weight of the resident entries.
    pub fn weight(&self) -> u64 {
        self.weight
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries evicted to honour the bound since creation (explicit
    /// [`Lru::remove`] and [`Lru::clear`] are not evictions).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Residency probe that leaves recency untouched.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Look up `key`, making it the most recently used entry on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        self.order.remove(&slot.tick);
        slot.tick = self.tick;
        self.order.insert(self.tick, *key);
        Some(&slot.value)
    }

    /// Store `value` under `key` as the most recently used entry (replacing
    /// any previous value), then evict least-recently-used entries until
    /// the resident weight fits. An entry heavier than the whole capacity
    /// is refused and leaves the map unchanged.
    pub fn insert(&mut self, key: K, value: V, weight: u64) -> bool {
        if weight > self.cap {
            return false;
        }
        self.remove(&key);
        self.tick += 1;
        let tick = self.tick;
        self.map.insert(
            key,
            Slot {
                value,
                weight,
                tick,
            },
        );
        self.order.insert(tick, key);
        self.weight += weight;
        self.shrink_to(self.cap);
        true
    }

    /// Drop `key` without counting an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.order.remove(&slot.tick);
        self.weight -= slot.weight;
        Some(slot.value)
    }

    /// Evict the least-recently-used entry, or `None` when there is none.
    fn pop_lru(&mut self) -> Option<(K, V)> {
        let key = *self.order.values().next()?;
        let value = self.remove(&key)?;
        self.evictions += 1;
        Some((key, value))
    }

    /// Set the capacity to `cap` and evict least-recently-used entries
    /// until the resident weight fits it.
    pub fn shrink_to(&mut self, cap: u64) {
        self.cap = cap;
        while self.weight > cap && self.pop_lru().is_some() {}
    }

    /// Drop every entry (the eviction count is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.weight = 0;
    }
}

/// Count-bounded touch-LRU set of known-bad keys: a long-lived process
/// meeting many corrupt chunks must not grow the set without limit, so the
/// least-recently-touched key is evicted past the bound (an evicted chunk
/// is merely re-detected if met again). Both [`Quarantine::touch`] and a
/// positive [`Quarantine::contains`] bump recency — keys that readers keep
/// tripping over stay resident.
#[derive(Debug)]
pub struct Quarantine<K> {
    keys: Lru<K, ()>,
}

impl<K: Ord + Copy> Quarantine<K> {
    /// A set holding at most `cap` keys (a bound of 0 is clamped to 1).
    pub fn new(cap: usize) -> Quarantine<K> {
        Quarantine {
            keys: Lru::new(cap.max(1) as u64),
        }
    }

    /// Add `key`, or refresh it if already present.
    pub fn touch(&mut self, key: K) {
        self.keys.insert(key, (), 1);
    }

    /// Whether `key` is in the set; a hit counts as a touch.
    pub fn contains(&mut self, key: &K) -> bool {
        self.keys.get(key).is_some()
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Keys evicted by the bound since creation.
    pub fn evicted(&self) -> u64 {
        self.keys.evictions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;

    /// Naive reference: entries in recency order (front = LRU), every
    /// operation a linear scan.
    #[derive(Default)]
    struct Model {
        cap: u64,
        entries: Vec<(u64, bool, u64)>, // key, value, weight
        evicted: Vec<u64>,
    }

    impl Model {
        fn weight(&self) -> u64 {
            self.entries.iter().map(|e| e.2).sum()
        }
        fn get(&mut self, key: u64) -> Option<bool> {
            let pos = self.entries.iter().position(|e| e.0 == key)?;
            let e = self.entries.remove(pos);
            self.entries.push(e);
            Some(e.1)
        }
        fn remove(&mut self, key: u64) -> bool {
            let before = self.entries.len();
            self.entries.retain(|e| e.0 != key);
            self.entries.len() < before
        }
        fn pop(&mut self) -> Option<u64> {
            if self.entries.is_empty() {
                return None;
            }
            let key = self.entries.remove(0).0;
            self.evicted.push(key);
            Some(key)
        }
        fn shrink_to(&mut self, cap: u64) {
            self.cap = cap;
            while self.weight() > cap && self.pop().is_some() {}
        }
        fn insert(&mut self, key: u64, value: bool, weight: u64) -> bool {
            if weight > self.cap {
                return false;
            }
            self.remove(key);
            self.entries.push((key, value, weight));
            self.shrink_to(self.cap);
            true
        }
    }

    #[test]
    fn random_ops_match_the_naive_model() {
        for seed in 0..4u64 {
            let mut rng = Rng::seed_from_u64(0xfeed + seed);
            let mut lru: Lru<u64, bool> = Lru::new(500);
            let mut model = Model {
                cap: 500,
                ..Model::default()
            };
            let mut victims = Vec::new();
            for step in 0..3000 {
                let key = rng.below(12) as u64;
                match rng.below(12) {
                    0..=4 => {
                        let (value, w) = (rng.below(4) == 0, 20 + rng.below(180) as u64);
                        let before: Vec<u64> = model.entries.iter().map(|e| e.0).collect();
                        assert_eq!(
                            lru.insert(key, value, w),
                            model.insert(key, value, w),
                            "step {step}"
                        );
                        // Plain insert reports its victims only through
                        // residency: every key that left must be gone.
                        for k in before {
                            assert_eq!(
                                lru.contains(&k),
                                model.entries.iter().any(|e| e.0 == k),
                                "step {step} key {k}"
                            );
                        }
                    }
                    5..=7 => assert_eq!(lru.get(&key).copied(), model.get(key), "step {step}"),
                    8 => assert_eq!(lru.remove(&key).is_some(), model.remove(key)),
                    9 => {
                        let got = lru.pop_lru().map(|(k, _)| k);
                        assert_eq!(got, model.pop(), "step {step}");
                        victims.extend(got);
                    }
                    10 => {
                        let cap = 100 + rng.below(500) as u64;
                        lru.shrink_to(cap);
                        model.shrink_to(cap);
                    }
                    _ => assert_eq!(lru.contains(&key), model.entries.iter().any(|e| e.0 == key)),
                }
                assert_eq!(lru.evictions(), model.evicted.len() as u64, "step {step}");
                assert_eq!(lru.weight(), model.weight(), "step {step}");
                assert_eq!(lru.len(), model.entries.len(), "step {step}");
                assert!(lru.weight() <= lru.capacity(), "step {step}");
            }
            assert!(model.evicted.len() > 100, "exercise enough evictions");
            assert!(victims.len() > 50, "exercise explicit pops");
            // Drain both: the full recency order agrees, victim by victim.
            while let Some((k, _)) = lru.pop_lru() {
                assert_eq!(Some(k), model.pop());
            }
            assert!(model.entries.is_empty() && lru.is_empty());
        }
    }

    #[test]
    fn oversized_insert_is_refused_and_clear_keeps_counts() {
        let mut lru: Lru<u8, &str> = Lru::new(10);
        assert!(lru.insert(1, "a", 6));
        assert!(!lru.insert(1, "huge", 11), "heavier than the capacity");
        assert_eq!(lru.get(&1), Some(&"a"), "refusal leaves the old value");
        assert!(lru.insert(2, "b", 6), "evicts 1 to fit");
        assert!(!lru.contains(&1));
        assert_eq!((lru.evictions(), lru.weight(), lru.len()), (1, 6, 1));
        lru.clear();
        assert_eq!((lru.evictions(), lru.weight(), lru.len()), (1, 0, 0));
    }

    #[test]
    fn quarantine_set_is_bounded_touch_lru() {
        let mut q = Quarantine::new(3);
        for k in 0..3u64 {
            q.touch((k, 0u64));
        }
        assert_eq!((q.len(), q.evicted()), (3, 0));
        // Touch (0,0) so it becomes most-recent; (1,0) is now the victim.
        assert!(q.contains(&(0, 0)));
        q.touch((3, 0));
        assert_eq!((q.len(), q.evicted()), (3, 1), "bound holds");
        assert!(!q.contains(&(1, 0)), "LRU entry evicted");
        assert!(q.contains(&(0, 0)), "recently touched entry survives");
        assert!(q.contains(&(2, 0)));
        assert!(q.contains(&(3, 0)));
        // Re-touching a resident key refreshes it instead of growing.
        q.touch((0, 0));
        assert_eq!((q.len(), q.evicted()), (3, 1));
        // A zero bound is clamped to one key.
        let mut one = Quarantine::new(0);
        one.touch(1u8);
        one.touch(2u8);
        assert_eq!((one.len(), one.evicted()), (1, 1));
        assert!(one.contains(&2) && !one.contains(&1));
    }
}
