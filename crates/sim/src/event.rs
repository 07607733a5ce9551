//! A stable, timestamped event queue.
//!
//! The engine drives the simulation by repeatedly popping the earliest event.
//! Two properties matter for reproducibility:
//!
//! 1. **Stability** — events scheduled for the same instant pop in the order
//!    they were pushed (FIFO within a timestamp), so runs are deterministic.
//! 2. **Cheap invalidation** — reallocation changes an application's progress
//!    rate, which invalidates its pending completion events. Rather than
//!    removing entries from the heap (an O(n) scan), callers push entries
//!    under a *key* and later [`invalidate_key`](EventQueue::invalidate_key)
//!    it: the queue tags each keyed entry with the key's generation at push
//!    time and lazily discards entries whose generation has since moved on.
//!    Invalidation is an O(1) hash bump; the stale entry costs one extra
//!    O(log n) pop when its turn comes.
//!
//! Large traces additionally benefit from
//! [`push_batch`](EventQueue::push_batch), which rebuilds the heap
//! bottom-up in O(n) instead of n × O(log n) sifts.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::time::SimTime;

/// A point-in-time snapshot of a queue's traffic counters, as returned by
/// [`EventQueue::stats`]. Health monitors sample these per shard each
/// heartbeat instead of calling four getters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events pushed over the queue's lifetime.
    pub pushed: u64,
    /// Total events popped, stale discards included.
    pub popped: u64,
    /// Total keyed entries discarded as stale.
    pub stale_drops: u64,
    /// Current backlog, stale entries included.
    pub len: usize,
}

/// A priority queue of `(SimTime, payload)` entries with FIFO tie-breaking
/// and generation-keyed lazy deletion.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Current generation per key; keyed entries pushed under an older
    /// generation are stale. Generations only grow, so a key reused after
    /// retirement can never collide with an entry still buried in the heap.
    generations: HashMap<u64, u64>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    stale: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    /// `(key, generation at push time)` for invalidatable entries.
    key: Option<(u64, u64)>,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            generations: HashMap::new(),
            next_seq: 0,
            pushed: 0,
            popped: 0,
            stale: 0,
        }
    }

    /// Schedules `payload` at instant `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        self.heap.push(Entry {
            at,
            seq,
            key: None,
            payload,
        });
    }

    /// Schedules `payload` at instant `at` under `key`, so a later
    /// [`invalidate_key`](Self::invalidate_key) can lazily discard it.
    /// Entries pushed after an invalidation are live again — the queue
    /// snapshots the key's generation at push time.
    pub fn push_keyed(&mut self, at: SimTime, key: u64, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let generation = self.generations.get(&key).copied().unwrap_or(0);
        self.heap.push(Entry {
            at,
            seq,
            key: Some((key, generation)),
            payload,
        });
    }

    /// Schedules a batch of events in one O(n) heap rebuild instead of
    /// n individual O(log n) sifts. Entries receive sequence numbers in
    /// slice order, so same-instant batch entries pop FIFO exactly as if
    /// pushed one by one.
    pub fn push_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let mut batch: BinaryHeap<Entry<E>> = events
            .into_iter()
            .map(|(at, payload)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pushed += 1;
                Entry {
                    at,
                    seq,
                    key: None,
                    payload,
                }
            })
            .collect();
        self.heap.append(&mut batch);
    }

    /// Marks every entry currently pushed under `key` as stale; they are
    /// discarded (and counted by [`stale_drops`](Self::stale_drops)) when
    /// they reach the head of the queue. O(1).
    pub fn invalidate_key(&mut self, key: u64) {
        *self.generations.entry(key).or_insert(0) += 1;
    }

    /// True if `entry` was invalidated after it was pushed.
    fn is_stale(&self, entry: &Entry<E>) -> bool {
        match entry.key {
            Some((key, generation)) => {
                self.generations.get(&key).copied().unwrap_or(0) != generation
            }
            None => false,
        }
    }

    /// The timestamp of the earliest live event, or `None` when none is
    /// pending. Stale keyed heads are discarded first and counted exactly
    /// like the discards inside [`pop`](Self::pop), so the answer never
    /// depends on which invalidated entries happen to still be buried.
    pub fn peek_live_time(&mut self) -> Option<SimTime> {
        loop {
            let head = self.heap.peek()?;
            if !self.is_stale(head) {
                return Some(head.at);
            }
            self.heap.pop();
            self.popped += 1;
            self.stale += 1;
        }
    }

    /// Removes and returns the earliest live event, or `None` when empty.
    /// Stale keyed entries are discarded along the way; discards count
    /// toward [`total_popped`](Self::total_popped) and
    /// [`stale_drops`](Self::stale_drops).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.peek_live_time()?;
        Some(self.take_head())
    }

    /// Removes and returns the earliest live event whose timestamp is at
    /// or before `t`, or `None` when the earliest live event is after `t`
    /// (or the queue is empty). Stale heads are discarded along the way,
    /// as in [`peek_live_time`](Self::peek_live_time).
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.peek_live_time()? > t {
            return None;
        }
        Some(self.take_head())
    }

    /// Removes the head, which the caller has checked is live.
    fn take_head(&mut self) -> (SimTime, E) {
        let e = self.heap.pop().expect("live head exists");
        self.popped += 1;
        (e.at, e.payload)
    }

    /// Number of pending entries, stale ones included.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total events popped over the queue's lifetime, stale discards
    /// included.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Total keyed entries discarded as stale over the queue's lifetime.
    pub fn stale_drops(&self) -> u64 {
        self.stale
    }

    /// One-call snapshot of the queue-op counters, for health monitors
    /// that sample many queues at once.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.pushed,
            popped: self.popped,
            stale_drops: self.stale,
            len: self.len(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), "c");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn interleaved_times_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b2");
        q.push(t(0.5), "z");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["z", "a", "b1", "b2"]);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(t(4.0), ());
        assert_eq!(q.peek_live_time(), Some(t(4.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(t(1.0), ());
        q.push(t(2.0), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.peek_live_time().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn batch_pushes_preserve_order_and_ties() {
        let mut q = EventQueue::new();
        q.push(t(1.5), "single");
        q.push_batch(vec![(t(2.0), "b1"), (t(1.0), "a"), (t(2.0), "b2")]);
        q.push(t(2.0), "b3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        // Batch entries tie-break FIFO in slice order, interleaved
        // correctly with singly-pushed entries.
        assert_eq!(order, vec!["a", "single", "b1", "b2", "b3"]);
        assert_eq!(q.total_pushed(), 5);
    }

    #[test]
    fn batch_matches_sequential_pushes_exactly() {
        let events: Vec<(SimTime, u32)> =
            (0..200).map(|i| (t(f64::from(i * 7919 % 97)), i)).collect();
        let mut batched = EventQueue::new();
        batched.push_batch(events.clone());
        let mut sequential = EventQueue::new();
        for (at, e) in events {
            sequential.push(at, e);
        }
        loop {
            let (a, b) = (batched.pop(), sequential.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn invalidated_keys_drop_lazily() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 7, "old");
        q.push(t(2.0), "plain");
        q.invalidate_key(7);
        q.push_keyed(t(3.0), 7, "new");
        assert_eq!(q.pop(), Some((t(2.0), "plain")), "stale head skipped");
        assert_eq!(q.pop(), Some((t(3.0), "new")), "re-pushed key is live");
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_drops(), 1);
        // Discards still count as pops.
        assert_eq!(q.total_popped(), 3);
    }

    #[test]
    fn invalidation_is_scoped_to_one_key() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 1, "one");
        q.push_keyed(t(2.0), 2, "two");
        q.invalidate_key(1);
        assert_eq!(q.pop(), Some((t(2.0), "two")));
        assert_eq!(q.stale_drops(), 1);
    }

    #[test]
    fn generations_survive_key_reuse() {
        let mut q = EventQueue::new();
        // A long-buried entry for key 9, then many invalidate/push cycles.
        q.push_keyed(t(100.0), 9, 0);
        for round in 1..=5 {
            q.invalidate_key(9);
            q.push_keyed(t(100.0 - f64::from(round)), 9, round);
        }
        // Only the latest generation survives.
        assert_eq!(q.pop(), Some((t(95.0), 5)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stale_drops(), 5);
    }

    #[test]
    fn pop_due_respects_the_barrier() {
        let mut q = EventQueue::new();
        q.push(t(1.0), "a");
        q.push(t(2.0), "b");
        q.push(t(3.0), "c");
        assert_eq!(q.pop_due(t(2.0)), Some((t(1.0), "a")));
        assert_eq!(q.pop_due(t(2.0)), Some((t(2.0), "b")), "barrier inclusive");
        assert_eq!(q.pop_due(t(2.0)), None, "later event stays queued");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(t(3.0)), Some((t(3.0), "c")));
    }

    #[test]
    fn pop_due_discards_stale_heads_without_over_advancing() {
        let mut q = EventQueue::new();
        // A stale entry sits at t=1 while the earliest live event is t=5:
        // pop_due(2.0) must drop the stale head and report nothing due
        // rather than return the t=5 event.
        q.push_keyed(t(1.0), 7, "stale");
        q.push(t(5.0), "live");
        q.invalidate_key(7);
        assert_eq!(q.pop_due(t(2.0)), None);
        assert_eq!(q.stale_drops(), 1);
        assert_eq!(q.pop_due(t(5.0)), Some((t(5.0), "live")));
        assert!(q.is_empty());
    }

    #[test]
    fn live_peek_discards_stale_heads_like_pop() {
        let mut q = EventQueue::new();
        q.push_keyed(t(1.0), 7, "stale");
        q.push_keyed(t(2.0), 8, "stale too");
        q.push(t(5.0), "live");
        q.invalidate_key(7);
        q.invalidate_key(8);
        assert_eq!(q.peek_live_time(), Some(t(5.0)), "stale heads never show");
        assert_eq!(q.stale_drops(), 2);
        assert_eq!(q.total_popped(), 2, "discards count as pops");
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_live_time(), Some(t(5.0)), "idempotent once live");
        assert_eq!(q.total_popped(), 2);
    }
}
