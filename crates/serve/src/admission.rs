//! Bounded admission queue (DESIGN.md §7.8).
//!
//! The first stage of the request pipeline: accepted connections either fit
//! in a fixed-capacity queue or are shed immediately with `429 +
//! Retry-After`. The queue is the *only* unbounded-work choke point in the
//! server — everything past it is deadline-bounded — so a full queue is the
//! signal that the server is saturated and honesty (shed now) beats
//! buffering (time out later).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// Queue at capacity: shed the item.
    Full(T),
    /// Queue closed (server shutting down).
    Closed(T),
}

struct State<T> {
    queue: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity MPMC queue with blocking pop and non-blocking push.
pub struct Admission<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    record_depth: bool,
}

impl<T> Admission<T> {
    /// An open queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Admission<T> {
        Admission {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            record_depth: true,
        }
    }

    /// Like [`Admission::new`] but without `serve.queue_depth` telemetry —
    /// for internal queues (the plan executor's) whose depth would pollute
    /// the request-queue histogram.
    pub fn new_unrecorded(capacity: usize) -> Admission<T> {
        Admission {
            record_depth: false,
            ..Admission::new(capacity)
        }
    }

    /// Enqueues `item`, or returns it when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.queue.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        st.queue.push_back(item);
        if self.record_depth {
            indigo_obs::Hist::ServeQueueDepth.record(st.queue.len() as u64);
            indigo_obs::Gauge::ServeQueueDepth.set(st.queue.len() as i64);
        }
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once the queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = st.queue.pop_front() {
                if self.record_depth {
                    indigo_obs::Gauge::ServeQueueDepth.set(st.queue.len() as i64);
                }
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked poppers wake up.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .queue
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_sheds_and_returns_the_item() {
        let q = Admission::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_unblocks_poppers() {
        let q = Admission::new(4);
        q.try_push(7).unwrap();
        q.close();
        match q.try_push(8) {
            Err(PushError::Closed(8)) => {}
            other => panic!("expected Closed(8), got {other:?}"),
        }
        // pending items still drain after close...
        assert_eq!(q.pop(), Some(7));
        // ...and a pop on an empty closed queue returns None immediately
        assert_eq!(q.pop(), None);
    }
}
