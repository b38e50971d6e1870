//! A sequence-ordered ledger: `(u64, V)` pairs kept in ascending key
//! order in a `VecDeque`.
//!
//! The transport send ledgers (TCP segments and message markers keyed by
//! stream offset, QUIC packets keyed by packet number) are written in
//! key order and retired mostly from the front. Both ends are O(1) here,
//! where an ordered map pays a tree search per packet. Out-of-order
//! inserts (TCP retransmissions) and middle removals (SACK, QUIC loss)
//! binary-search with `partition_point` and shift the shorter side.
//!
//! Iteration and query order is ascending by key, exactly that of a
//! `BTreeMap<u64, V>` holding the same entries.

use std::collections::VecDeque;

/// Key-ordered `(u64, V)` pairs with O(1) append and front removal.
#[derive(Debug, Clone)]
pub(crate) struct SeqDeque<V> {
    items: VecDeque<(u64, V)>,
}

impl<V> SeqDeque<V> {
    /// An empty ledger.
    pub(crate) fn new() -> Self {
        SeqDeque {
            items: VecDeque::new(),
        }
    }

    /// Whether the ledger holds no entries.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Position of the first entry whose key is at least `key`.
    fn lower_bound(&self, key: u64) -> usize {
        self.items.partition_point(|&(k, _)| k < key)
    }

    /// Position just past the last entry whose key is at most `key`.
    fn upper_bound(&self, key: u64) -> usize {
        self.items.partition_point(|&(k, _)| k <= key)
    }

    /// Inserts `value` under `key`, returning the value it replaces (as
    /// `BTreeMap::insert` does). A key above every stored key appends in
    /// O(1).
    pub(crate) fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if self.items.back().is_none_or(|&(last, _)| key > last) {
            self.items.push_back((key, value));
            return None;
        }
        let at = self.lower_bound(key);
        match self.items.get_mut(at) {
            Some(slot) if slot.0 == key => Some(std::mem::replace(&mut slot.1, value)),
            _ => {
                self.items.insert(at, (key, value));
                None
            }
        }
    }

    /// Removes and returns the value stored under `key`.
    pub(crate) fn remove(&mut self, key: u64) -> Option<V> {
        let at = self.lower_bound(key);
        if self.items.get(at)?.0 != key {
            return None;
        }
        self.items.remove(at).map(|(_, v)| v)
    }

    /// The entry with the smallest key.
    pub(crate) fn first(&self) -> Option<(u64, &V)> {
        self.items.front().map(|(k, v)| (*k, v))
    }

    /// Removes the entry with the smallest key.
    pub(crate) fn pop_first(&mut self) -> Option<(u64, V)> {
        self.items.pop_front()
    }

    /// Removes the entry with the smallest key if `pred` accepts it.
    pub(crate) fn pop_first_if(&mut self, pred: impl FnOnce(u64, &V) -> bool) -> Option<(u64, V)> {
        let (k, v) = self.items.front()?;
        if pred(*k, v) {
            self.items.pop_front()
        } else {
            None
        }
    }

    /// Removes the entry with the largest key.
    pub(crate) fn pop_last(&mut self) -> Option<(u64, V)> {
        self.items.pop_back()
    }

    /// Every entry, ascending by key.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.items.iter().map(|(k, v)| (*k, v))
    }

    /// Entries with keys below `key`, ascending (`range(..key)`).
    pub(crate) fn below(&self, key: u64) -> impl Iterator<Item = (u64, &V)> {
        self.items
            .range(..self.lower_bound(key))
            .map(|(k, v)| (*k, v))
    }

    /// Entries with keys in `lo..=hi`, ascending; empty when `lo > hi`.
    pub(crate) fn between(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &V)> {
        let start = self.lower_bound(lo);
        let end = self.upper_bound(hi).max(start);
        self.items.range(start..end).map(|(k, v)| (*k, v))
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pairs<'a>(it: impl Iterator<Item = (u64, &'a u32)>) -> Vec<(u64, u32)> {
        it.map(|(k, &v)| (k, v)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 256,
            ..ProptestConfig::default()
        })]

        /// Every operation returns what a `BTreeMap<u64, V>` returns, and
        /// both hold the same entries in the same order after each step.
        /// Keys come from a small space so inserts hit existing keys and
        /// land out of order, and removals find their targets.
        #[test]
        fn agrees_with_btreemap(
            appends in prop::collection::vec(0u64..4, 0..24),
            ops in prop::collection::vec(((0u8..16, 0u64..70), (0u64..70, 0u32..1000)), 0..200),
        ) {
            let mut deque = SeqDeque::new();
            let mut oracle = BTreeMap::new();
            // Ascending appends first (with repeats), like a send ledger.
            let mut key = 0;
            for step in appends {
                key += step;
                prop_assert_eq!(deque.insert(key, 0), oracle.insert(key, 0));
            }
            for ((code, a), (b, value)) in ops {
                match code {
                    // Inserts: above every key (append) or anywhere.
                    0..=2 => {
                        let k = deque.iter().last().map_or(a, |(last, _)| last + 1 + a % 3);
                        prop_assert_eq!(deque.insert(k, value), oracle.insert(k, value));
                    }
                    3..=6 => prop_assert_eq!(deque.insert(a, value), oracle.insert(a, value)),
                    7..=8 => prop_assert_eq!(deque.remove(a), oracle.remove(&a)),
                    9 => prop_assert_eq!(deque.pop_first(), oracle.pop_first()),
                    10 => {
                        let expected = match oracle.first_key_value() {
                            Some((&k, _)) if k <= a => oracle.pop_first(),
                            _ => None,
                        };
                        prop_assert_eq!(deque.pop_first_if(|k, _| k <= a), expected);
                    }
                    11 => prop_assert_eq!(deque.pop_last(), oracle.pop_last()),
                    12 => prop_assert_eq!(
                        pairs(deque.below(a)),
                        pairs(oracle.range(..a).map(|(&k, v)| (k, v)))
                    ),
                    13..=14 => {
                        let expected = if a <= b {
                            pairs(oracle.range(a..=b).map(|(&k, v)| (k, v)))
                        } else {
                            Vec::new()
                        };
                        prop_assert_eq!(pairs(deque.between(a, b)), expected);
                    }
                    _ => {
                        deque.clear();
                        oracle.clear();
                    }
                }
                prop_assert_eq!(pairs(deque.iter()), pairs(oracle.iter().map(|(&k, v)| (k, v))));
                prop_assert_eq!(deque.first(), oracle.first_key_value().map(|(&k, v)| (k, v)));
                prop_assert_eq!(deque.is_empty(), oracle.is_empty());
            }
        }
    }
}
