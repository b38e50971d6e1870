//! A stable, timestamped event queue.
//!
//! [`EventQueue`] orders events primarily by their scheduled [`SimTime`] and
//! secondarily by insertion order, so events scheduled for the same instant
//! pop in FIFO order. Stability matters for determinism: without it, the
//! relative order of simultaneous packet arrivals would depend on queue
//! internals and reruns would diverge.
//!
//! # Implementation: a two-level timer wheel
//!
//! The queue is a hierarchical timer wheel, not a binary heap — the heap's
//! `O(log n)` sift per operation and pointer-chasing comparisons were the
//! single hottest queue cost in the simulator profile. The wheel gives
//! amortised `O(1)` schedule/pop for the near future:
//!
//! * **Level 0**: 256 slots of 2^16 ns (≈65 µs) each, covering exactly one
//!   level-1 slot (≈16.8 ms). L0 is *aligned* to the cursor's L1 slot, so
//!   slot index grows monotonically with time and the level never wraps
//!   mid-window.
//! * **Level 1**: 256 slots of 2^24 ns (≈16.8 ms) each, a ≈4.3 s window —
//!   comfortably past every RTT, RTO and congestion timer in the stack.
//!   When L0 drains, the next occupied L1 slot is redistributed into L0.
//! * **Overflow**: a `(time, seq)`-ordered heap for events beyond the L1
//!   window (visit deadlines, idle timers, `SimTime::MAX` sentinels).
//!   Whenever the window advances, newly in-window events are promoted.
//!
//! Occupied slots are tracked in per-level bitmaps so finding the next
//! event is a couple of `u64::trailing_zeros`.
//!
//! Every pending event, whichever level holds it, lives in one node of a
//! single `Vec` arena. A slot is a singly linked list of `u32` node
//! indices (head and tail per slot, `NIL` when empty), and the overflow
//! heap orders `(time, seq, index)` keys rather than whole events. Popped
//! nodes go onto a free list threaded through the same `next` field and
//! are reused before the arena grows, so the arena is never longer than
//! the peak number of pending events and a fresh queue grows exactly one
//! buffer. Moving events between levels (L1→L0 redistribution, overflow
//! promotion) relinks indices; the events themselves never move.
//!
//! Level-0 lists are kept in full `(time, seq)` order, which is what
//! preserves the FIFO stability contract *exactly*: the next event is the
//! head of the first occupied L0 slot, by the same total order the old
//! heap used, merely bucketed. Events mostly arrive in time order, so a
//! sorted insert is usually an append after the tail; otherwise it walks
//! a list of the few events in one ≈65 µs slot. Level-1 lists are in
//! arrival order (an L1 slot can hold hundreds of events, and a sorted
//! insert there would walk them); they are sorted as they move down into
//! 256 short L0 lists.
//!
//! Events scheduled at or before the cursor (the engine schedules wakeups
//! at `now` routinely) go into the cursor's current slot; ordering by full
//! key keeps them correct against everything else there, and no earlier
//! slot can be non-empty.
//!
//! The old heap survives as [`LegacyEventQueue`] (behind the default
//! `legacy-queue` feature) purely as a differential-test oracle — see
//! `tests/wheel_vs_heap.rs`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in nanoseconds (≈65 µs).
const L0_SHIFT: u32 = 16;
/// log2 of the level-1 slot width in nanoseconds (≈16.8 ms).
const L1_SHIFT: u32 = L0_SHIFT + SLOT_BITS;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Ring-index mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// A priority queue of `(SimTime, E)` pairs popped in chronological order,
/// FIFO among ties.
///
/// # Example
///
/// ```
/// use h3cdn_sim_core::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_nanos(7);
/// q.schedule(t, "first");
/// q.schedule(t, "second");
/// assert_eq!(q.pop(), Some((t, "first")));
/// assert_eq!(q.pop(), Some((t, "second")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Every pending event, plus the free nodes awaiting reuse.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list.
    free: u32,
    /// Level-0 slot lists, aligned to the cursor's L1 slot.
    l0: [List; SLOTS],
    /// Level-1 slot lists, a ring over the L1 window.
    l1: [List; SLOTS],
    /// Occupancy bitmap per level, one bit per slot.
    l0_occ: [u64; SLOTS / 64],
    l1_occ: [u64; SLOTS / 64],
    /// Keys of the events beyond the L1 window, earliest `(time, seq)` on
    /// top; each entry's payload is its node index.
    overflow: BinaryHeap<Entry<u32>>,
    /// Time floor in nanoseconds: every event ever popped was ≤ `cursor`'s
    /// slot, and no pending event lives in a slot before it.
    cursor: u64,
    /// Pending event count (tracked, not recomputed).
    len: usize,
    next_seq: u64,
}

/// One arena node: a pending event linked into its slot list, or a free
/// node (`event: None`) linked into the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

impl<E> Node<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// One slot: a singly linked list of node indices. Level-0 lists are kept
/// in `(time, seq)` order, so the head is the slot's next event; level-1
/// lists are in arrival order and sorted only as they move down.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

const EMPTY: List = List {
    head: NIL,
    tail: NIL,
};

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total order the whole queue sorts by.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest (time, seq)
        // pops first.
        other.key().cmp(&self.key())
    }
}

/// Occupancy snapshot reported by [`EventQueue::stats`], so callers (the
/// engine's stall watchdog) read counters instead of recomputing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Total pending events.
    pub len: usize,
    /// Pending events in the far-future overflow level.
    pub overflow_len: usize,
    /// Allocated capacity of the overflow level.
    pub overflow_capacity: usize,
}

fn occ_set(occ: &mut [u64; SLOTS / 64], slot: usize) {
    if let Some(word) = occ.get_mut(slot >> 6) {
        *word |= 1 << (slot & 63);
    }
}

fn occ_clear(occ: &mut [u64; SLOTS / 64], slot: usize) {
    if let Some(word) = occ.get_mut(slot >> 6) {
        *word &= !(1 << (slot & 63));
    }
}

/// First occupied slot index ≥ `from`, without wrapping.
fn occ_next(occ: &[u64; SLOTS / 64], from: usize) -> Option<usize> {
    let mut word = from >> 6;
    let mut mask = !0u64 << (from & 63);
    while let Some(bits) = occ.get(word).map(|w| w & mask) {
        if bits != 0 {
            return Some((word << 6) + bits.trailing_zeros() as usize);
        }
        word += 1;
        mask = !0u64;
    }
    None
}

/// Distance (1..SLOTS) from ring index `from` to the nearest occupied slot,
/// scanning forward with wrap-around. The slot at `from` itself is never
/// occupied at the call sites (its events would have been placed a level
/// down), so distance 0 is not reported.
fn occ_next_wrap(occ: &[u64; SLOTS / 64], from: usize) -> Option<usize> {
    if let Some(slot) = occ_next(occ, from + 1) {
        return Some(slot - from);
    }
    occ_next(occ, 0).map(|slot| SLOTS - from + slot)
}

/// Level-0 slot of time `t` (nanoseconds).
fn l0_slot(t: u64) -> usize {
    ((t >> L0_SHIFT) & SLOT_MASK) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the node arena or the overflow level reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            l0: [EMPTY; SLOTS],
            l1: [EMPTY; SLOTS],
            l0_occ: [0; SLOTS / 64],
            l1_occ: [0; SLOTS / 64],
            overflow: BinaryHeap::with_capacity(capacity),
            cursor: 0,
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let idx = self.alloc(at, event);
        self.place(idx);
    }

    /// Schedules `event` at the current instant `now` (the time of the
    /// event being dispatched). Placement is the same constant-time
    /// bucketing as [`EventQueue::schedule`]; events at or before the
    /// cursor join the cursor's slot.
    pub fn schedule_now(&mut self, now: SimTime, event: E) {
        self.schedule(now, event);
    }

    /// Stores a new pending event in a free node (growing the arena only
    /// when none is free) and returns its index, unlinked.
    fn alloc(&mut self, at: SimTime, event: E) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let node = Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let idx = self.free;
        if let Some(slot) = self.nodes.get_mut(idx as usize) {
            self.free = slot.next;
            *slot = node;
            return idx;
        }
        // Indices stay below `NIL`: four billion pending events would
        // exhaust memory long before the arena reached it.
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        idx
    }

    /// Buckets node `idx` by its distance from the cursor. Events at or
    /// before the cursor join the cursor's slot: no earlier slot can hold
    /// pending events, and slot lists are ordered by the full
    /// `(time, seq)` key, so ordering is preserved.
    fn place(&mut self, idx: u32) {
        let Some(node) = self.nodes.get(idx as usize) else {
            return;
        };
        let (at, seq) = node.key();
        let t = at.as_nanos();
        let cur = self.cursor;
        let wheel = if t <= cur {
            Some((&mut self.l0, &mut self.l0_occ, l0_slot(cur), true))
        } else if t >> L1_SHIFT == cur >> L1_SHIFT {
            Some((&mut self.l0, &mut self.l0_occ, l0_slot(t), true))
        } else if (t >> L1_SHIFT) - (cur >> L1_SHIFT) < SLOTS as u64 {
            let slot = ((t >> L1_SHIFT) & SLOT_MASK) as usize;
            Some((&mut self.l1, &mut self.l1_occ, slot, false))
        } else {
            None
        };
        if let Some((lists, occ, slot, sorted)) = wheel {
            if let Some(list) = lists.get_mut(slot) {
                if link(&mut self.nodes, list, idx, sorted) {
                    occ_set(occ, slot);
                    return;
                }
            }
        }
        // Beyond the L1 window. The overflow heap is also a correct (if
        // slower) home for any event, so a failed link degrades to it
        // instead of panicking.
        self.overflow.push(Entry {
            at,
            seq,
            event: idx,
        });
    }

    /// Moves overflow events that the advancing window now covers into the
    /// wheel. Must be called whenever the cursor's L1 slot changes.
    fn promote_overflow(&mut self) {
        let c1 = self.cursor >> L1_SHIFT;
        loop {
            let idx = match self.overflow.peek_mut() {
                Some(top) if (top.at.as_nanos() >> L1_SHIFT) - c1 < SLOTS as u64 => {
                    std::collections::binary_heap::PeekMut::pop(top).event
                }
                _ => break,
            };
            self.place(idx);
        }
    }

    /// Advances the cursor until level 0 holds the next pending event and
    /// returns the first occupied L0 slot (whose head is the global
    /// minimum), or `None` when the queue is empty.
    fn advance_to_l0(&mut self) -> Option<usize> {
        loop {
            if let Some(slot) = occ_next(&self.l0_occ, l0_slot(self.cursor)) {
                return Some(slot);
            }
            // L0 exhausted: redistribute the next occupied L1 slot.
            let c1 = self.cursor >> L1_SHIFT;
            if let Some(dist) = occ_next_wrap(&self.l1_occ, (c1 & SLOT_MASK) as usize) {
                // The slot holds an event with `t >> L1_SHIFT == abs`, so
                // `abs << L1_SHIFT` cannot overflow.
                let abs = c1 + dist as u64;
                let slot = (abs & SLOT_MASK) as usize;
                self.cursor = abs << L1_SHIFT;
                occ_clear(&mut self.l1_occ, slot);
                // Detach the whole list (the bit is already cleared, so an
                // unreachable miss still makes progress), then relink its
                // nodes one level down. The L1 slot spreads over 256 L0
                // slots, so the sorted inserts walk short lists.
                let mut idx = self
                    .l1
                    .get_mut(slot)
                    .map_or(NIL, |list| std::mem::replace(list, EMPTY).head);
                self.promote_overflow();
                while let Some(node) = self.nodes.get(idx as usize) {
                    let next = node.next;
                    self.place(idx);
                    idx = next;
                }
                continue;
            }
            // Both levels empty: jump to the overflow minimum, if any.
            let top = self.overflow.peek()?;
            self.cursor = top.at.as_nanos();
            self.promote_overflow();
        }
    }

    /// Time of the first event in the sorted (level-0) `list`.
    fn head_time(&self, list: Option<&List>) -> Option<SimTime> {
        self.nodes.get(list?.head as usize).map(|node| node.at)
    }

    /// Earliest event time in the arrival-ordered (level-1) `list`.
    fn min_time(&self, list: Option<&List>) -> Option<SimTime> {
        let mut idx = list?.head;
        let mut min = None;
        while let Some(node) = self.nodes.get(idx as usize) {
            min = Some(min.map_or(node.at, |m: SimTime| m.min(node.at)));
            idx = node.next;
        }
        min
    }

    /// Unlinks the head of L0 slot `slot`, returns its node to the free
    /// list and yields its event.
    fn pop_head(&mut self, slot: usize) -> Option<(SimTime, E)> {
        let list = self.l0.get_mut(slot)?;
        let idx = list.head;
        let node = self.nodes.get_mut(idx as usize)?;
        let event = node.event.take()?;
        list.head = std::mem::replace(&mut node.next, self.free);
        self.free = idx;
        if list.head == NIL {
            *list = EMPTY;
            occ_clear(&mut self.l0_occ, slot);
        }
        self.len -= 1;
        Some((node.at, event))
    }

    /// Removes and returns the chronologically next event, or `None` when
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let slot = self.advance_to_l0()?;
        // Advance the cursor to the slot being drained (bit-or: the slot
        // lives in the cursor's L1 window, so this cannot overflow).
        self.cursor = self
            .cursor
            .max((self.cursor >> L1_SHIFT << L1_SHIFT) | ((slot as u64) << L0_SHIFT));
        self.pop_head(slot)
    }

    /// Removes and returns the next event if it is due at or before
    /// `deadline`. A single wheel walk — one occupancy scan, one head
    /// read — replaces the `peek_time` + `pop` pair on the engine hot
    /// path.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        let slot = self.advance_to_l0()?;
        if self.head_time(self.l0.get(slot))? > deadline {
            return None;
        }
        let slot_start = (self.cursor >> L1_SHIFT << L1_SHIFT) | ((slot as u64) << L0_SHIFT);
        self.cursor = self.cursor.max(slot_start);
        self.pop_head(slot)
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Layering invariant: L0 events precede all L1 events, which
        // precede all overflow events, so peek the first non-empty level.
        if let Some(slot) = occ_next(&self.l0_occ, l0_slot(self.cursor)) {
            return self.head_time(self.l0.get(slot));
        }
        let c1 = self.cursor >> L1_SHIFT;
        match occ_next_wrap(&self.l1_occ, (c1 & SLOT_MASK) as usize) {
            Some(dist) => self.min_time(self.l1.get(((c1 + dist as u64) & SLOT_MASK) as usize)),
            None => self.overflow.peek().map(|e| e.at),
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns occupancy counters for watchdog diagnostics.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            len: self.len,
            overflow_len: self.overflow.len(),
            overflow_capacity: self.overflow.capacity(),
        }
    }

    /// Drops all pending events, keeping the sequence counter so stability
    /// is preserved across the clear, and keeping the arena's capacity so
    /// a reused queue does not re-allocate.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.l0 = [EMPTY; SLOTS];
        self.l1 = [EMPTY; SLOTS];
        self.l0_occ = [0; SLOTS / 64];
        self.l1_occ = [0; SLOTS / 64];
        self.overflow.clear();
        self.len = 0;
    }
}

/// Links node `idx` into `list`: after the tail when `sorted` is off,
/// else behind every node with a smaller `(time, seq)` key. Events mostly
/// arrive in key order, so a sorted link is usually an append too;
/// otherwise the walk starts at the head. Returns `false` (linking
/// nothing) when `idx` is out of range.
fn link<E>(nodes: &mut [Node<E>], list: &mut List, idx: u32, sorted: bool) -> bool {
    let Some(key) = nodes.get(idx as usize).map(Node::key) else {
        return false;
    };
    // Insert after `prev`; `NIL` inserts at the head.
    let mut prev = NIL;
    let tail = nodes.get(list.tail as usize);
    if tail.is_some_and(|tail| !sorted || tail.key() < key) {
        prev = list.tail;
    } else {
        let mut cur = list.head;
        while let Some(node) = nodes.get(cur as usize) {
            if node.key() > key {
                break;
            }
            prev = cur;
            cur = node.next;
        }
    }
    let next = match nodes.get_mut(prev as usize) {
        Some(before) => std::mem::replace(&mut before.next, idx),
        None => std::mem::replace(&mut list.head, idx),
    };
    if next == NIL {
        list.tail = idx;
    }
    if let Some(node) = nodes.get_mut(idx as usize) {
        node.next = next;
    }
    true
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The pre-wheel `BinaryHeap` implementation, kept as the differential-test
/// oracle: it is the simplest possible embodiment of the `(time, seq)`
/// stability contract, against which the wheel's pop order is checked
/// event-for-event (see `tests/wheel_vs_heap.rs`). Not used on any hot
/// path; compiled behind the default `legacy-queue` feature.
#[cfg(feature = "legacy-queue")]
#[derive(Debug, Clone)]
pub struct LegacyEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[cfg(feature = "legacy-queue")]
impl<E> LegacyEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        LegacyEventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the chronologically next event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Oracle mirror of [`EventQueue::pop_at_or_before`].
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > deadline {
            return None;
        }
        self.pop()
    }

    /// Oracle mirror of [`EventQueue::schedule_now`] (no fast path).
    pub fn schedule_now(&mut self, now: SimTime, event: E) {
        self.schedule(now, event);
    }

    /// Oracle mirror of [`EventQueue::with_capacity`].
    pub fn with_capacity(capacity: usize) -> Self {
        LegacyEventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Oracle mirror of [`EventQueue::stats`].
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            len: self.heap.len(),
            overflow_len: 0,
            overflow_capacity: self.heap.capacity(),
        }
    }

    /// Returns the timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(feature = "legacy-queue")]
impl<E> Default for LegacyEventQueue<E> {
    fn default() -> Self {
        LegacyEventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(3), 'c');
        q.schedule(at(1), 'a');
        q.schedule(at(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_preserve_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(at(1), "early-1");
        q.schedule(at(2), "late-1");
        q.schedule(at(1), "early-2");
        q.schedule(at(2), "late-2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early-1", "early-2", "late-1", "late-2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(at(9), ());
        assert_eq!(q.peek_time(), Some(at(9)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_but_keeps_stability() {
        let mut q = EventQueue::new();
        q.schedule(at(1), 1);
        q.clear();
        assert!(q.is_empty());
        q.schedule(at(1), 2);
        q.schedule(at(1), 3);
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert_eq!(q.pop().map(|(_, e)| e), Some(3));
    }

    #[test]
    fn spans_every_level() {
        // One event per level (L0 / L1 / overflow), scheduled out of order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "sentinel");
        q.schedule(at(10_000), "overflow");
        q.schedule(at(100), "l1");
        q.schedule(SimTime::from_nanos(50), "l0");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["l0", "l1", "overflow", "sentinel"]);
    }

    #[test]
    fn past_events_pop_before_future_ones() {
        let mut q = EventQueue::new();
        q.schedule(at(50), "future");
        assert_eq!(q.pop().map(|(_, e)| e), Some("future"));
        // The cursor now sits at ~50 ms; schedule into the past.
        q.schedule(at(10), "past");
        q.schedule(at(60), "later");
        assert_eq!(q.pop(), Some((at(10), "past")));
        assert_eq!(q.pop(), Some((at(60), "later")));
    }

    #[test]
    fn l1_window_slides_without_missing_events() {
        // Events spaced one L1 slot apart, then denser ones interleaved
        // after the window has advanced — exercises promotion + drain.
        let mut q = EventQueue::new();
        for i in 0..600u64 {
            q.schedule(SimTime::from_nanos(i << L1_SHIFT), i);
        }
        let mut prev = None;
        while let Some((t, i)) = q.pop() {
            assert_eq!(t.as_nanos(), i << L1_SHIFT);
            assert!(prev < Some(i), "must pop in order");
            prev = Some(i);
        }
        assert_eq!(prev, Some(599));
    }

    #[test]
    fn schedule_now_matches_schedule_ordering() {
        let mut q = EventQueue::new();
        q.schedule(at(5), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.schedule_now(at(5), "now-1");
        q.schedule(at(5), "then");
        q.schedule_now(at(5), "now-2");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["now-1", "then", "now-2"]);
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(at(10), "early");
        q.schedule(at(30), "late");
        assert_eq!(q.pop_at_or_before(at(5)), None);
        assert_eq!(q.pop_at_or_before(at(10)), Some((at(10), "early")));
        assert_eq!(q.pop_at_or_before(at(20)), None);
        assert_eq!(q.pop_at_or_before(SimTime::MAX), Some((at(30), "late")));
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn pop_at_or_before_handles_same_slot_deadline() {
        // Deadline inside the same L0 slot as a pending event that is
        // after it: the slot-start pre-check alone must not admit it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ());
        assert_eq!(q.pop_at_or_before(SimTime::from_nanos(50)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_nanos(100)),
            Some((SimTime::from_nanos(100), ()))
        );
    }

    #[test]
    fn stats_track_levels() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.stats().overflow_capacity >= 16);
        q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::MAX, ());
        let stats = q.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.overflow_len, 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn arena_reuses_nodes_up_to_the_peak_pending_count() {
        // A deterministic interleaving across every level: bursts of
        // schedules (near, mid-window and far-future times, some at the
        // cursor) alternating with partial drains.
        let mut q = EventQueue::new();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut peak = 0;
        for round in 0..400u64 {
            for _ in 0..(round % 13) {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let offset_ns = match state >> 62 {
                    0 => 0,
                    1 => (state >> 20) % (1 << L0_SHIFT),
                    2 => (state >> 20) % (1 << (L1_SHIFT + SLOT_BITS)),
                    _ => (state >> 20) % (1 << 40),
                };
                let now = q.peek_time().unwrap_or(SimTime::ZERO);
                q.schedule(SimTime::from_nanos(now.as_nanos() + offset_ns), round);
                peak = peak.max(q.len());
            }
            for _ in 0..(round % 7) {
                q.pop();
            }
            assert!(q.nodes.len() <= peak, "arena outgrew the pending peak");
        }
        assert_eq!(q.nodes.len(), peak, "the arena grows only at a new peak");
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
        }
        assert_eq!(q.nodes.len(), peak, "popping frees nodes, never shrinks");
        q.schedule(at(1), 0);
        q.clear();
        assert!(q.nodes.is_empty(), "clear empties the arena");
        assert!(q.is_empty());
        q.schedule(at(2), 7);
        assert_eq!(q.pop(), Some((at(2), 7)));
    }

    #[cfg(feature = "legacy-queue")]
    #[test]
    fn legacy_oracle_agrees_on_ties() {
        let mut wheel = EventQueue::new();
        let mut oracle = LegacyEventQueue::new();
        for i in 0..50u64 {
            let t = at(i % 7);
            wheel.schedule(t, i);
            oracle.schedule(t, i);
        }
        assert_eq!(wheel.peek_time(), oracle.peek_time());
        while let Some(expected) = oracle.pop() {
            assert_eq!(wheel.pop(), Some(expected));
        }
        assert!(wheel.is_empty());
    }
}
