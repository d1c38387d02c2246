//! The service's result cache: one least-recently-used map of response
//! bodies behind one lock.
//!
//! Keys are the canonical flow fingerprints of
//! [`Flow::fingerprint`](crate::Flow::fingerprint); values are the
//! exact response bodies the service sent on the cold path, so a cache
//! hit is byte-identical by construction.
//!
//! The map is a `HashMap` plus an intrusive recency list in a slab of
//! indices — no `unsafe`, O(1) get/insert/evict. It accounts the bytes
//! it holds and counts its own hits, misses and evictions, which
//! `GET /stats` reports.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Sentinel for "no neighbor" in the intrusive recency list.
const NONE: usize = usize::MAX;

/// The result cache shared by every worker thread: [`Lru`] behind one
/// mutex. Capacity 0 disables it: every lookup misses and nothing is
/// stored.
#[derive(Debug)]
pub(crate) struct ResultCache {
    lru: Mutex<Lru>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> ResultCache {
        ResultCache {
            lru: Mutex::new(Lru::new(capacity)),
        }
    }

    /// Locks the cache, poisoned or not: a panic under the lock never
    /// fails later requests. When the panic struck mid-update, which may
    /// have left the recency list inconsistent, the entries are dropped
    /// (later lookups miss and re-map; the counters stay).
    fn lock(&self) -> MutexGuard<'_, Lru> {
        let mut lru = self.lru.lock().unwrap_or_else(PoisonError::into_inner);
        if lru.updating {
            lru.clear();
        }
        lru
    }

    /// Runs one mutation of the LRU, flagged so that a panic inside it
    /// is detected by the next [`ResultCache::lock`].
    fn update<R>(&self, op: impl FnOnce(&mut Lru) -> R) -> R {
        let mut lru = self.lock();
        lru.updating = true;
        let out = op(&mut lru);
        lru.updating = false;
        out
    }

    /// Looks up `key`, promoting it on a hit; counts the hit or miss.
    pub(crate) fn get(&self, key: &str) -> Option<String> {
        self.update(|lru| lru.get(key))
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry when full.
    pub(crate) fn insert(&self, key: String, value: String) {
        self.update(|lru| lru.insert(key, value));
    }

    /// The configured entry capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.lock().capacity
    }

    /// Entries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Bytes currently cached (keys + values).
    pub(crate) fn bytes(&self) -> u64 {
        self.lock().bytes as u64
    }

    /// Lookups answered from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that found nothing.
    pub(crate) fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Entries removed by capacity pressure.
    pub(crate) fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// Test-only invariant check: recomputes the byte total from the
    /// slab, asserts it matches the incremental counter, and returns it.
    #[cfg(test)]
    pub(crate) fn audit_bytes(&self) -> u64 {
        let lru = self.lock();
        let recomputed: usize = lru.map.values().map(|&slot| lru.slab[slot].bytes).sum();
        assert_eq!(
            recomputed, lru.bytes,
            "byte accounting drifted from the slab"
        );
        recomputed as u64
    }
}

/// A slab LRU with byte accounting and counters.
#[derive(Debug)]
struct Lru {
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry>,
    /// Most recently used entry (list head).
    head: usize,
    /// Least recently used entry (list tail, next eviction victim).
    tail: usize,
    /// Recycled slab slots.
    free: Vec<usize>,
    /// Bytes currently held, maintained incrementally.
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Set for the duration of each [`ResultCache::update`]; still set
    /// afterwards only if the update panicked.
    updating: bool,
}

/// One slab slot: a key/value pair threaded into the recency list.
#[derive(Debug)]
struct Entry {
    key: String,
    value: String,
    /// `key.len() + value.len()` at insert time.
    bytes: usize,
    prev: usize,
    next: usize,
}

impl Lru {
    fn new(capacity: usize) -> Lru {
        Lru {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            head: NONE,
            tail: NONE,
            free: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            updating: false,
        }
    }

    /// Drops every entry, keeping the capacity and the counters.
    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.bytes = 0;
        self.updating = false;
    }

    /// Looks `key` up: a hit is promoted and cloned out.
    fn get(&mut self, key: &str) -> Option<String> {
        let Some(&slot) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.promote(slot);
        self.hits += 1;
        Some(self.slab[slot].value.clone())
    }

    fn insert(&mut self, key: String, value: String) {
        if self.capacity == 0 {
            return;
        }
        let entry_bytes = key.len() + value.len();
        if let Some(&slot) = self.map.get(&key) {
            self.bytes = self.bytes - self.slab[slot].bytes + entry_bytes;
            self.slab[slot].value = value;
            self.slab[slot].bytes = entry_bytes;
            self.promote(slot);
            return;
        }
        if self.map.len() == self.capacity {
            self.evict_tail();
        }
        let entry = Entry {
            key: key.clone(),
            value,
            bytes: entry_bytes,
            prev: NONE,
            next: self.head,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
        self.map.insert(key, slot);
        self.bytes += entry_bytes;
    }

    /// Unlinks `slot` from the recency list and relinks it at the head.
    fn promote(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NONE {
            self.slab[prev].next = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        }
        if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NONE;
        self.slab[slot].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
    }

    /// Removes the least recently used entry.
    fn evict_tail(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NONE, "evict called on an empty cache");
        let prev = self.slab[victim].prev;
        if prev != NONE {
            self.slab[prev].next = NONE;
        } else {
            self.head = NONE;
        }
        self.tail = prev;
        self.bytes -= self.slab[victim].bytes;
        self.map.remove(&self.slab[victim].key);
        self.free.push(victim);
        self.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Keys in recency order, most recent first (test-only walk).
    fn recency(cache: &ResultCache) -> Vec<String> {
        let lru = cache.lock();
        let mut keys = Vec::new();
        let mut at = lru.head;
        while at != NONE {
            keys.push(lru.slab[at].key.clone());
            at = lru.slab[at].next;
        }
        keys
    }

    fn put(cache: &ResultCache, key: &str, value: &str) {
        cache.insert(key.into(), value.into());
    }

    /// Panics on a scoped thread while `op` runs under the cache lock.
    fn panic_under_lock(cache: &ResultCache, op: impl FnOnce(&ResultCache) + Send) {
        let joined = std::thread::scope(|scope| scope.spawn(|| op(cache)).join());
        assert!(joined.is_err());
        assert!(cache.lru.is_poisoned());
    }

    #[test]
    fn a_poisoned_cache_keeps_serving() {
        let cache = ResultCache::new(4);
        put(&cache, "a", "1");
        assert_eq!(cache.get("a").as_deref(), Some("1"));

        // A panic while merely holding the lock leaves the entries.
        panic_under_lock(&cache, |cache| {
            let _held = cache.lock();
            panic!("deliberate panic under the cache lock");
        });
        assert_eq!(cache.get("a").as_deref(), Some("1"));

        // A panic mid-update drops them; the counters survive and the
        // cache works on, still poisoned, without further resets.
        panic_under_lock(&cache, |cache| {
            cache.update(|lru| {
                lru.head = NONE;
                panic!("deliberate panic mid-update");
            })
        });
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.audit_bytes(), 0);
        assert_eq!((cache.hits(), cache.misses()), (2, 0));
        assert_eq!(cache.get("a"), None);
        put(&cache, "b", "2");
        put(&cache, "c", "3");
        assert_eq!(cache.get("b").as_deref(), Some("2"));
        assert_eq!(recency(&cache), ["b", "c"]);
    }

    #[test]
    fn evicts_in_lru_order() {
        let cache = ResultCache::new(3);
        for (k, v) in [("a", "1"), ("b", "2"), ("c", "3")] {
            put(&cache, k, v);
        }
        assert_eq!(recency(&cache), ["c", "b", "a"]);
        put(&cache, "d", "4"); // evicts "a"
        assert_eq!(cache.get("a"), None);
        put(&cache, "e", "5"); // evicts "b"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("c").as_deref(), Some("3"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn get_promotes_against_eviction() {
        let cache = ResultCache::new(2);
        put(&cache, "a", "1");
        put(&cache, "b", "2");
        assert_eq!(cache.get("a").as_deref(), Some("1")); // "b" becomes LRU
        put(&cache, "c", "3");
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a").as_deref(), Some("1"));
        assert_eq!(cache.get("c").as_deref(), Some("3"));
        assert_eq!((cache.hits(), cache.misses()), (3, 1));
    }

    #[test]
    fn insert_replaces_and_promotes_existing_keys() {
        let cache = ResultCache::new(2);
        put(&cache, "a", "1");
        put(&cache, "b", "2");
        put(&cache, "a", "10"); // replace, promote; len stays 2
        assert_eq!(cache.len(), 2);
        assert_eq!(recency(&cache), ["a", "b"]);
        assert_eq!(cache.get("a").as_deref(), Some("10"));
        put(&cache, "c", "3"); // evicts "b", not "a"
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a").as_deref(), Some("10"));
    }

    #[test]
    fn capacity_one_and_zero_degenerate_cleanly() {
        let one = ResultCache::new(1);
        put(&one, "a", "1");
        put(&one, "b", "2");
        assert_eq!(one.get("a"), None);
        assert_eq!(one.get("b").as_deref(), Some("2"));
        assert_eq!(one.len(), 1);

        let off = ResultCache::new(0);
        put(&off, "a", "1");
        assert_eq!(off.get("a"), None);
        assert_eq!((off.len(), off.bytes(), off.evictions()), (0, 0, 0));
        assert_eq!(off.capacity(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let cache = ResultCache::new(2);
        for i in 0..100 {
            cache.insert(format!("k{i}"), i.to_string());
        }
        assert_eq!(cache.len(), 2);
        let slab = cache.lock().slab.len();
        assert!(slab <= 3, "slab grew: {slab}");
        assert_eq!(cache.get("k99").as_deref(), Some("99"));
        assert_eq!(cache.get("k98").as_deref(), Some("98"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Op-for-op replay against an obviously correct model: a `Vec`
        /// of `(key, value)` pairs kept most recent first. Every lookup
        /// answers alike, and after every operation the recency order,
        /// byte total and hit/miss/eviction counts agree.
        #[test]
        fn replays_match_a_recency_ordered_vec(
            ops in collection::vec((any::<bool>(), 0u8..12, 0usize..4), 1..250),
            capacity in 0usize..6,
        ) {
            let cache = ResultCache::new(capacity);
            let mut model: Vec<(String, String)> = Vec::new();
            let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
            for (is_insert, key, len) in ops {
                let key = format!("k{key}");
                let at = model.iter().position(|(k, _)| *k == key);
                if is_insert {
                    let value = "v".repeat(len);
                    cache.insert(key.clone(), value.clone());
                    if capacity == 0 {
                        continue;
                    }
                    match at {
                        Some(i) => {
                            model.remove(i);
                        }
                        None if model.len() == capacity => {
                            model.pop();
                            evictions += 1;
                        }
                        None => {}
                    }
                    model.insert(0, (key, value));
                } else {
                    let expected = at.map(|i| {
                        let entry = model.remove(i);
                        let value = entry.1.clone();
                        model.insert(0, entry);
                        value
                    });
                    match expected {
                        Some(_) => hits += 1,
                        None => misses += 1,
                    }
                    prop_assert_eq!(cache.get(&key), expected);
                }
                let keys: Vec<String> = model.iter().map(|(k, _)| k.clone()).collect();
                prop_assert_eq!(recency(&cache), keys);
                let bytes: usize = model.iter().map(|(k, v)| k.len() + v.len()).sum();
                prop_assert_eq!(cache.audit_bytes(), bytes as u64);
                prop_assert_eq!(
                    (cache.hits(), cache.misses(), cache.evictions()),
                    (hits, misses, evictions)
                );
            }
        }
    }
}
