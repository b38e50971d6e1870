//! A time-ordered FIFO for deferred work.
//!
//! Servers hold requests until their processing time has passed, and the
//! browser parks requests until their domain resolves or a re-dial
//! backoff ends. Both release items in `(due time, insertion)` order.
//! [`DueQueue`] keeps that order in one `VecDeque`: deferrals arrive
//! almost always in due-time order, so an insert is an append in
//! practice, and a release pops from the front. Nothing allocates once
//! the buffer has grown to the peak backlog.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Items each released once its due time has come, earliest first and
/// FIFO among equal due times.
///
/// # Example
///
/// ```
/// use h3cdn_sim_core::{DueQueue, SimTime};
///
/// let mut q = DueQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.next_due(), Some(SimTime::from_nanos(10)));
/// assert_eq!(q.pop_due(SimTime::from_nanos(15)), Some("early"));
/// assert_eq!(q.pop_due(SimTime::from_nanos(15)), None);
/// ```
#[derive(Debug, Clone)]
pub struct DueQueue<T> {
    /// Sorted by due time; equal times in insertion order.
    items: VecDeque<(SimTime, T)>,
}

impl<T> DueQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        DueQueue {
            items: VecDeque::new(),
        }
    }

    /// Defers `item` until `at`, behind every item already due at or
    /// before `at`.
    pub fn push(&mut self, at: SimTime, item: T) {
        let pos = self.items.partition_point(|(t, _)| *t <= at);
        self.items.insert(pos, (at, item));
    }

    /// Removes and returns the earliest item if it is due at or before
    /// `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<T> {
        if self.items.front()?.0 > now {
            return None;
        }
        self.items.pop_front().map(|(_, item)| item)
    }

    /// Due time of the earliest item.
    pub fn next_due(&self) -> Option<SimTime> {
        self.items.front().map(|&(t, _)| t)
    }
}

impl<T> Default for DueQueue<T> {
    fn default() -> Self {
        DueQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn equal_times_pop_fifo_and_earlier_inserts_jump_ahead() {
        let mut q = DueQueue::new();
        q.push(t(5), 'a');
        q.push(t(5), 'b');
        q.push(t(9), 'd');
        q.push(t(5), 'c');
        // Inserted last, due first.
        q.push(t(2), 'z');
        assert_eq!(q.next_due(), Some(t(2)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop_due(t(100))).collect();
        assert_eq!(order, vec!['z', 'a', 'b', 'c', 'd']);
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn items_wait_for_their_due_time() {
        let mut q = DueQueue::new();
        q.push(t(10), 1);
        q.push(t(30), 2);
        assert_eq!(q.pop_due(t(9)), None);
        assert_eq!(q.pop_due(t(10)), Some(1));
        assert_eq!(q.pop_due(t(29)), None);
        assert_eq!(q.next_due(), Some(t(30)));
        assert_eq!(q.pop_due(t(30)), Some(2));
        assert_eq!(q.next_due(), None);
    }

    #[test]
    fn matches_a_btreemap_of_batches() {
        // The structure it replaces: batches keyed by due time, drained
        // key by key up to `now`.
        let mut q = DueQueue::new();
        let mut batches: std::collections::BTreeMap<SimTime, Vec<u64>> = Default::default();
        let mut state = 7u64;
        let mut now = 0u64;
        for i in 0..2_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if state >> 63 == 0 {
                let at = t(now + (state >> 40) % 50);
                q.push(at, i);
                batches.entry(at).or_default().push(i);
            } else {
                now += (state >> 40) % 20;
                let due: Vec<SimTime> = batches.range(..=t(now)).map(|(&k, _)| k).collect();
                let expected: Vec<u64> = due
                    .into_iter()
                    .flat_map(|k| batches.remove(&k).unwrap_or_default())
                    .collect();
                let got: Vec<u64> = std::iter::from_fn(|| q.pop_due(t(now))).collect();
                assert_eq!(got, expected);
            }
            assert_eq!(q.next_due(), batches.keys().next().copied());
        }
    }
}
