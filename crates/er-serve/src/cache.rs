//! A bounded least-recently-used cache over a slab-backed intrusive list.
//!
//! The serving executor keys one of these per shard on pair id, so repeated
//! pairs in skewed traffic are answered without re-scoring. All operations
//! are `O(1)`: the entries live in a slab (`Vec`) threaded with an intrusive
//! doubly-linked recency list, and a `HashMap` maps keys to slab slots.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// A bounded LRU map. Capacity 0 is allowed and caches nothing.
#[derive(Debug, Clone)]
pub struct LruCache<K: Eq + Hash + Copy, V: Copy> {
    capacity: usize,
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot.
    tail: usize,
}

impl<K: Eq + Hash + Copy, V: Copy> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. Nothing is
    /// reserved up front: the slab and the map grow with the entries
    /// actually cached, so a large, mostly empty capacity costs no memory.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let slot = *self.map.get(key)?;
        self.move_to_front(slot);
        Some(self.nodes[slot].value)
    }

    /// Inserts or refreshes an entry, evicting the least recently used entry
    /// when at capacity.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.nodes[slot].value = value;
            self.move_to_front(slot);
            return;
        }
        let slot = if self.map.len() == self.capacity {
            // Recycle the LRU slot in place.
            let slot = self.tail;
            self.detach(slot);
            self.map.remove(&self.nodes[slot].key);
            self.nodes[slot].key = key;
            self.nodes[slot].value = value;
            slot
        } else {
            self.nodes.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, slot);
        self.attach_front(slot);
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next].prev = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn move_to_front(&mut self, slot: usize) {
        if self.head != slot {
            self.detach(slot);
            self.attach_front(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert(1u64, 10.0f64);
        cache.insert(2, 20.0);
        assert_eq!(cache.get(&1), Some(10.0)); // 1 is now MRU
        cache.insert(3, 30.0); // evicts 2
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10.0));
        assert_eq!(cache.get(&3), Some(30.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn insert_refreshes_existing_keys() {
        let mut cache = LruCache::new(2);
        cache.insert(1u32, 1i32);
        cache.insert(2, 2);
        cache.insert(1, 11); // refresh value and recency
        cache.insert(3, 3); // evicts 2, not 1
        assert_eq!(cache.get(&1), Some(11));
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(3));
    }

    #[test]
    fn a_new_cache_reserves_nothing_up_front() {
        let mut cache: LruCache<u64, f64> = LruCache::new(1024);
        assert_eq!((cache.nodes.capacity(), cache.map.capacity()), (0, 0));
        cache.insert(1, 0.5);
        assert!(cache.nodes.capacity() < 1024, "the slab grows with the entries cached");
        assert_eq!(cache.capacity(), 1024);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cache = LruCache::new(0);
        cache.insert(1u64, 1.0f64);
        assert_eq!(cache.get(&1), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn single_slot_cache_keeps_the_latest() {
        let mut cache = LruCache::new(1);
        for k in 0u64..10 {
            cache.insert(k, k as f64);
            assert_eq!(cache.get(&k), Some(k as f64));
            if k > 0 {
                assert_eq!(cache.get(&(k - 1)), None);
            }
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_insert_then_insert_again_stays_empty() {
        // Re-inserting into a capacity-0 cache must not panic or leak slots
        // (the eviction branch must never run when nothing was stored).
        let mut cache = LruCache::new(0);
        for _ in 0..3 {
            cache.insert(42u64, 1.0f64);
            cache.insert(42u64, 2.0f64);
        }
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.get(&42), None);
        assert_eq!(cache.capacity(), 0);
    }

    #[test]
    fn evicted_key_can_be_reinserted() {
        // Eviction recycles the slab slot in place; a re-insert of the
        // evicted key must land in a (possibly recycled) slot with the new
        // value and full recency, not resurrect the stale mapping.
        let mut cache = LruCache::new(2);
        cache.insert(1u64, 10.0f64);
        cache.insert(2, 20.0);
        cache.insert(3, 30.0); // evicts 1
        assert_eq!(cache.get(&1), None);
        cache.insert(1, 11.0); // re-insert the evicted key (evicts 2)
        assert_eq!(cache.get(&1), Some(11.0), "re-inserted key serves the new value");
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&3), Some(30.0));
        assert_eq!(cache.len(), 2);
        // The slab must not have grown beyond capacity while recycling.
        cache.insert(4, 40.0);
        cache.insert(5, 50.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn a_hit_reorders_eviction_to_spare_the_touched_key() {
        // Fill to capacity, touch the oldest entry, then insert: the victim
        // must be the least recently *used* entry, not the oldest insert.
        let mut cache = LruCache::new(3);
        cache.insert(1u64, 1.0f64);
        cache.insert(2, 2.0);
        cache.insert(3, 3.0);
        assert_eq!(cache.get(&1), Some(1.0)); // recency now [1, 3, 2]
        cache.insert(4, 4.0); // must evict 2
        assert_eq!(cache.get(&2), None, "hit on 1 must redirect eviction to 2");
        assert_eq!(cache.get(&1), Some(1.0));
        assert_eq!(cache.get(&3), Some(3.0));
        assert_eq!(cache.get(&4), Some(4.0));
        // Chain of hits: touching 3 then 1 leaves 4 as the victim.
        cache.get(&3);
        cache.get(&1);
        cache.insert(5, 5.0);
        assert_eq!(cache.get(&4), None);
        assert_eq!(cache.get(&3), Some(3.0));
    }

    #[test]
    fn single_slot_refresh_does_not_evict_itself() {
        // Capacity 1 + insert of the *same* key must take the refresh path,
        // not evict-then-reinsert (which would churn the slab pointlessly
        // and, with a buggy detach, corrupt the single-node list).
        let mut cache = LruCache::new(1);
        cache.insert(9u64, 1.0f64);
        cache.insert(9, 2.0);
        assert_eq!(cache.get(&9), Some(2.0));
        assert_eq!(cache.len(), 1);
        // And a hit on the only entry must be a no-op reorder.
        assert_eq!(cache.get(&9), Some(2.0));
        cache.insert(10, 3.0);
        assert_eq!(cache.get(&9), None);
        assert_eq!(cache.get(&10), Some(3.0));
    }

    #[test]
    fn stress_against_a_naive_model() {
        // Mirror the cache against a brute-force recency list.
        let mut cache = LruCache::new(8);
        let mut model: Vec<(u64, f64)> = Vec::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..10_000 {
            // xorshift64* — deterministic operation stream.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let key = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) % 24; // 24 hot keys
            let value = key as f64 * 1.5;
            if x & 1 == 0 {
                cache.insert(key, value);
                if let Some(pos) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(pos);
                }
                model.insert(0, (key, value));
                model.truncate(8);
            } else {
                let expected = model.iter().position(|&(k, _)| k == key).map(|pos| {
                    let entry = model.remove(pos);
                    model.insert(0, entry);
                    entry.1
                });
                assert_eq!(cache.get(&key), expected, "key {key}");
            }
            assert_eq!(cache.len(), model.len());
        }
    }
}
