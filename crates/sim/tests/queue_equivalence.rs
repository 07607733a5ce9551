//! Model test: [`EventQueue`] behaves exactly like a naive reference.
//!
//! The reference keeps every entry in a `Vec` sorted by `(time, push
//! sequence)` plus a key → generation map, and implements lazy deletion
//! the obvious way. A randomized script of `push`, `push_keyed`,
//! `push_batch`, `invalidate_key`, `pop`, `pop_due` and `peek_live_time`
//! operations runs against both, asserting after every step that the
//! results, lengths and pushed/popped/stale counters agree. Timestamps mix
//! dense clusters with exact ties, spread-out values and far-future
//! outliers, so FIFO tie-breaking and stale heads ahead of live ones both
//! occur often.

use std::collections::HashMap;

use proptest::prelude::*;

use pdpa_sim::{EventQueue, SimTime};

/// One scripted queue operation.
#[derive(Clone, Debug)]
enum Op {
    Push(f64),
    PushKeyed(f64, u64),
    PushBatch(Vec<f64>),
    InvalidateKey(u64),
    Pop,
    PopDue(f64),
    PeekLive,
}

/// One reference entry.
struct Entry {
    at: SimTime,
    seq: u64,
    /// `(key, generation at push time)` for keyed entries.
    key: Option<(u64, u64)>,
    payload: u64,
}

/// The reference queue: a sorted `Vec` and a generation map.
#[derive(Default)]
struct Model {
    /// Ascending by `(at, seq)`.
    entries: Vec<Entry>,
    generations: HashMap<u64, u64>,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    stale: u64,
}

impl Model {
    fn push(&mut self, at: SimTime, key: Option<u64>, payload: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed += 1;
        let key = key.map(|k| (k, self.generations.get(&k).copied().unwrap_or(0)));
        let i = self.entries.partition_point(|e| (e.at, e.seq) < (at, seq));
        self.entries.insert(
            i,
            Entry {
                at,
                seq,
                key,
                payload,
            },
        );
    }

    fn invalidate(&mut self, key: u64) {
        *self.generations.entry(key).or_insert(0) += 1;
    }

    fn peek_live_time(&mut self) -> Option<SimTime> {
        loop {
            let head = self.entries.first()?;
            let stale = head
                .key
                .is_some_and(|(k, g)| self.generations.get(&k).copied().unwrap_or(0) != g);
            if !stale {
                return Some(head.at);
            }
            self.entries.remove(0);
            self.popped += 1;
            self.stale += 1;
        }
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.peek_live_time()?;
        let head = self.entries.remove(0);
        self.popped += 1;
        Some((head.at, head.payload))
    }

    fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, u64)> {
        if self.peek_live_time()? > t {
            return None;
        }
        self.pop()
    }
}

fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        // Dense cluster with frequent exact ties.
        (0u32..200).prop_map(|k| f64::from(k) * 0.5),
        // Spread-out mid-range times.
        0.0f64..10_000.0,
        // Sparse far-future outliers.
        1.0e6f64..1.0e8,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! picks uniformly; duplicate the hot arms
    // to weight pushes and pops over the rarer structural ops.
    prop_oneof![
        arb_time().prop_map(Op::Push),
        (arb_time(), 0u64..24).prop_map(|(t, k)| Op::PushKeyed(t, k)),
        (arb_time(), 0u64..24).prop_map(|(t, k)| Op::PushKeyed(t, k)),
        proptest::collection::vec(arb_time(), 1..40).prop_map(Op::PushBatch),
        (0u64..24).prop_map(Op::InvalidateKey),
        (0u64..24).prop_map(Op::InvalidateKey),
        Just(Op::Pop),
        Just(Op::Pop),
        arb_time().prop_map(Op::PopDue),
        Just(Op::PeekLive),
    ]
}

/// What one op returned, in a shape both queues share.
#[derive(Debug, PartialEq)]
enum Out {
    Nothing,
    Popped(Option<(SimTime, u64)>),
    Peeked(Option<SimTime>),
}

fn run_script(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = Model::default();
    let mut payload: u64 = 0;
    for op in ops {
        let (got, want) = match op {
            Op::Push(t) => {
                let at = SimTime::from_secs(*t);
                queue.push(at, payload);
                model.push(at, None, payload);
                (Out::Nothing, Out::Nothing)
            }
            Op::PushKeyed(t, k) => {
                let at = SimTime::from_secs(*t);
                queue.push_keyed(at, *k, payload);
                model.push(at, Some(*k), payload);
                (Out::Nothing, Out::Nothing)
            }
            Op::PushBatch(ts) => {
                let batch: Vec<(SimTime, u64)> = ts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (SimTime::from_secs(*t), payload + i as u64))
                    .collect();
                for &(at, p) in &batch {
                    model.push(at, None, p);
                }
                queue.push_batch(batch);
                (Out::Nothing, Out::Nothing)
            }
            Op::InvalidateKey(k) => {
                queue.invalidate_key(*k);
                model.invalidate(*k);
                (Out::Nothing, Out::Nothing)
            }
            Op::Pop => (Out::Popped(queue.pop()), Out::Popped(model.pop())),
            Op::PopDue(t) => {
                let t = SimTime::from_secs(*t);
                (Out::Popped(queue.pop_due(t)), Out::Popped(model.pop_due(t)))
            }
            Op::PeekLive => (
                Out::Peeked(queue.peek_live_time()),
                Out::Peeked(model.peek_live_time()),
            ),
        };
        payload += match op {
            Op::PushBatch(ts) => ts.len() as u64,
            _ => 1,
        };
        prop_assert_eq!(&got, &want, "result mismatch on {:?}", op);
        prop_assert_eq!(queue.len(), model.entries.len(), "len after {:?}", op);
        prop_assert_eq!(queue.is_empty(), model.entries.is_empty());
        let stats = queue.stats();
        prop_assert_eq!(stats.pushed, model.pushed, "pushed after {:?}", op);
        prop_assert_eq!(stats.popped, model.popped, "popped after {:?}", op);
        prop_assert_eq!(stats.stale_drops, model.stale, "stale after {:?}", op);
    }
    // Drain everything left: the full remaining pop order must agree.
    loop {
        let got = queue.pop();
        prop_assert_eq!(&got, &model.pop());
        if got.is_none() {
            break;
        }
    }
    prop_assert_eq!(queue.stats().popped, model.popped);
    prop_assert_eq!(queue.stats().stale_drops, model.stale);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short mixed scripts: every op interleaving matches the reference.
    #[test]
    fn mixed_scripts_match_the_reference(ops in proptest::collection::vec(arb_op(), 1..160)) {
        run_script(&ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long push-heavy scripts: a deep backlog with many buried stale
    /// entries drains in the reference order with identical counters.
    #[test]
    fn deep_backlogs_match_the_reference(
        times in proptest::collection::vec(arb_time(), 2_000..3_000),
        invalidate in proptest::collection::vec(0u64..24, 0..10),
    ) {
        let mut ops: Vec<Op> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                if i % 3 == 0 {
                    Op::PushKeyed(t, (i % 24) as u64)
                } else {
                    Op::Push(t)
                }
            })
            .collect();
        for k in invalidate {
            ops.push(Op::InvalidateKey(k));
        }
        for i in 0..64 {
            ops.push(if i % 2 == 0 { Op::Pop } else { Op::PopDue(5_000.0) });
        }
        run_script(&ops)?;
    }
}
