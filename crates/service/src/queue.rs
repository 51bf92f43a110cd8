//! A bounded MPMC queue with fast-fail admission.
//!
//! `std::sync::mpsc` channels are single-consumer; the engine's worker
//! pool needs many consumers, and admission control needs a non-blocking
//! push that reports "full" without ever waiting. This is the smallest
//! queue with those two properties: a `Mutex<VecDeque>` plus one condvar.
//! The lock is held for the push or pop only — the expensive work
//! (planning, execution) happens outside. Producers enqueue a burst under
//! one lock; consumers always take one item per wake, and a burst wakes
//! one consumer per item, so pipelined requests run side by side instead
//! of queueing behind whichever worker woke first.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue is closed; the item is handed back.
    Closed(T),
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Bounded multi-producer multi-consumer FIFO.
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a whole batch without blocking, under **one** lock
    /// acquisition — the point of pipelined submission is that a burst of
    /// requests costs one mutex round trip, not one per request. Fails
    /// fast: items that do not fit are handed back, `Full(tail)` carrying
    /// the unpushed suffix (everything before it was enqueued) and
    /// `Closed(all)` the whole batch.
    /// Wakes one consumer per enqueued item, so a burst of `k` spreads
    /// over `k` idle consumers instead of waking the pool to race for it.
    pub fn try_push_batch(&self, mut items: Vec<T>) -> Result<(), PushError<Vec<T>>> {
        if items.is_empty() {
            return Ok(());
        }
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushError::Closed(items));
        }
        let free = self.capacity.saturating_sub(state.items.len());
        let take = free.min(items.len());
        state.items.extend(items.drain(..take));
        drop(state);
        for _ in 0..take {
            self.available.notify_one();
        }
        if items.is_empty() {
            Ok(())
        } else {
            Err(PushError::Full(items))
        }
    }

    /// Dequeues one item, blocking while the queue is open and empty.
    /// Returns `None` once the queue is closed *and* drained — consumers
    /// see every item pushed before `close`, which is what makes engine
    /// shutdown graceful. One item per wake is what lets a pipelined
    /// burst run on as many consumers as it has items.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }

    /// Closes the queue: pushes fail from now on, pops drain the backlog.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// The queue's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy; for stats only — the metrics
    /// endpoint reports it as the queue-depth gauge).
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new(4);
        q.try_push_batch(vec![1]).unwrap();
        q.try_push_batch(vec![2]).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_fails_fast() {
        let q = BoundedQueue::new(1);
        q.try_push_batch(vec![1]).unwrap();
        assert_eq!(q.try_push_batch(vec![2]), Err(PushError::Full(vec![2])));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batch_push_fills_then_hands_back_the_tail() {
        let q = BoundedQueue::new(3);
        q.try_push_batch(vec![0]).unwrap();
        // 3 items into 2 free slots: 1 and 2 land, 3 comes back.
        let leftover = match q.try_push_batch(vec![1, 2, 3]) {
            Err(PushError::Full(tail)) => tail,
            other => panic!("{other:?}"),
        };
        assert_eq!(leftover, vec![3]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // With room again, the whole batch fits.
        q.try_push_batch(vec![7, 8]).unwrap();
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push_batch(vec![9]), Err(PushError::Closed(vec![9])));
        assert_eq!(q.try_push_batch(Vec::new()), Ok(()));
    }

    #[test]
    fn a_burst_of_k_is_taken_by_k_different_consumers() {
        // Each consumer takes one item and then holds at the barrier, so
        // the k items arrive only if the push woke k different consumers.
        let k = 4;
        let q = Arc::new(BoundedQueue::<u32>::new(16));
        let barrier = Arc::new(std::sync::Barrier::new(k + 1));
        let (tx, rx) = std::sync::mpsc::channel();
        let consumers: Vec<_> = (0..k)
            .map(|_| {
                let (q, barrier, tx) = (q.clone(), barrier.clone(), tx.clone());
                std::thread::spawn(move || {
                    tx.send(q.pop().expect("an item")).unwrap();
                    barrier.wait();
                })
            })
            .collect();
        // Let every consumer block in `pop` before the burst lands.
        std::thread::sleep(std::time::Duration::from_millis(50));
        q.try_push_batch((0..k as u32).collect()).unwrap();
        let timeout = std::time::Duration::from_secs(5);
        let mut items: Vec<u32> = (0..k)
            .map(|_| rx.recv_timeout(timeout).expect("a consumer left asleep"))
            .collect();
        barrier.wait();
        for c in consumers {
            c.join().unwrap();
        }
        items.sort_unstable();
        assert_eq!(items, [0, 1, 2, 3]);
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push_batch(vec![1]).unwrap();
        q.close();
        assert_eq!(q.try_push_batch(vec![2]), Err(PushError::Closed(vec![2])));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = Arc::new(BoundedQueue::<u32>::new(1024));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    q.try_push_batch(vec![t * 100 + i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut seen = Vec::new();
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = q.clone();
            consumers.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(x) = q.pop() {
                    got.push(x);
                }
                got
            }));
        }
        for c in consumers {
            seen.extend(c.join().unwrap());
        }
        seen.sort_unstable();
        assert_eq!(seen.len(), 400);
        seen.dedup();
        assert_eq!(seen.len(), 400);
    }
}
