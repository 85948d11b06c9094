//! Bounded, two-class admission control.
//!
//! The tele-immersion coordination literature (Hosseini et al., PAPERS.md)
//! motivates the shape: when many sessions contend for the same streams,
//! interactive work must not starve behind batch work, and overload must
//! surface as an explicit, typed rejection at the door rather than as an
//! unbounded queue that collapses latency for everyone. The controller is
//! generic over the ticket type so it can be tested standalone.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::error::ServiceError;

/// Scheduling class of a request.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum Priority {
    /// Latency-sensitive; drained before any batch work.
    Interactive,
    /// Throughput work; runs when no interactive work is queued.
    Batch,
}

impl Priority {
    /// Stable wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }

    /// Decodes the wire encoding.
    pub fn from_wire(b: u8) -> Option<Priority> {
        match b {
            0 => Some(Priority::Interactive),
            1 => Some(Priority::Batch),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Queues<T> {
    interactive: VecDeque<T>,
    batch: VecDeque<T>,
    closed: bool,
}

impl<T> Queues<T> {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }
}

/// A capacity-bounded two-class request queue.
///
/// `submit_all` never blocks: at capacity it returns
/// [`ServiceError::QueueFull`] immediately. `drain` pops interactive
/// tickets before batch tickets and can wait (bounded) for work.
#[derive(Debug)]
pub struct AdmissionController<T> {
    queues: Mutex<Queues<T>>,
    capacity: usize,
    available: Condvar,
}

impl<T> AdmissionController<T> {
    /// A controller admitting at most `capacity` queued tickets.
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission capacity must be positive");
        AdmissionController {
            queues: Mutex::new(Queues {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                closed: false,
            }),
            capacity,
            available: Condvar::new(),
        }
    }

    /// Enqueues a cohort of tickets under one lock, all or nothing, or
    /// rejects it with a typed error: a cohort that does not fit in the
    /// free capacity ⇒ [`ServiceError::QueueFull`], draining ⇒
    /// [`ServiceError::ShuttingDown`]. A `drain` sees every ticket of a
    /// cohort or none. Never blocks.
    pub fn submit_all<I>(&self, tickets: I) -> Result<(), ServiceError>
    where
        I: IntoIterator<Item = (Priority, T)>,
        I::IntoIter: ExactSizeIterator,
    {
        let tickets = tickets.into_iter();
        let mut q = self.queues.lock().unwrap();
        if q.closed {
            return Err(ServiceError::ShuttingDown);
        }
        if q.len() + tickets.len() > self.capacity {
            return Err(ServiceError::QueueFull { capacity: self.capacity });
        }
        for (priority, ticket) in tickets {
            match priority {
                Priority::Interactive => q.interactive.push_back(ticket),
                Priority::Batch => q.batch.push_back(ticket),
            }
        }
        self.available.notify_one();
        Ok(())
    }

    /// Pops up to `max` tickets, interactive first. When the queue is
    /// empty (and not closed), waits up to `wait` for work to arrive.
    pub fn drain(&self, max: usize, wait: Duration) -> Vec<T> {
        let mut q = self.queues.lock().unwrap();
        if q.len() == 0 && !q.closed && !wait.is_zero() {
            let (guard, _) = self.available.wait_timeout(q, wait).unwrap();
            q = guard;
        }
        let mut out = Vec::new();
        while out.len() < max {
            if let Some(t) = q.interactive.pop_front() {
                out.push(t);
            } else if let Some(t) = q.batch.pop_front() {
                out.push(t);
            } else {
                break;
            }
        }
        out
    }

    /// Queued tickets per class: `(interactive, batch)`.
    pub fn depth(&self) -> (usize, usize) {
        let q = self.queues.lock().unwrap();
        (q.interactive.len(), q.batch.len())
    }

    /// Queue fullness in `[0, 1]` — the overload signal the adaptive QoS
    /// controller maps to a degradation tier, so graduated shedding
    /// engages well before `submit_all` starts returning
    /// [`ServiceError::QueueFull`].
    pub fn pressure(&self) -> f64 {
        self.queues.lock().unwrap().len() as f64 / self.capacity as f64
    }

    /// Closes the door (subsequent `submit_all`s get `ShuttingDown`) and
    /// returns every still-queued ticket so the caller can notify owners.
    pub fn close(&self) -> Vec<T> {
        let mut q = self.queues.lock().unwrap();
        q.closed = true;
        let mut drained: Vec<T> = q.interactive.drain(..).collect();
        drained.extend(q.batch.drain(..));
        self.available.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interactive_drains_before_batch() {
        let a = AdmissionController::new(8);
        let cohort = [
            (Priority::Batch, "b1"),
            (Priority::Interactive, "i1"),
            (Priority::Batch, "b2"),
            (Priority::Interactive, "i2"),
        ];
        a.submit_all(cohort).unwrap();
        assert_eq!(a.drain(3, Duration::ZERO), vec!["i1", "i2", "b1"]);
        assert_eq!(a.drain(3, Duration::ZERO), vec!["b2"]);
    }

    #[test]
    fn overload_is_a_typed_rejection() {
        let a = AdmissionController::new(2);
        a.submit_all([(Priority::Interactive, 1)]).unwrap();
        a.submit_all([(Priority::Batch, 2)]).unwrap();
        match a.submit_all([(Priority::Interactive, 3)]) {
            Err(ServiceError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        // Draining frees capacity again.
        assert_eq!(a.drain(1, Duration::ZERO), vec![1]);
        a.submit_all([(Priority::Interactive, 3)]).unwrap();
    }

    #[test]
    fn close_rejects_and_returns_stragglers() {
        let a = AdmissionController::new(4);
        a.submit_all([(Priority::Batch, 10)]).unwrap();
        let stragglers = a.close();
        assert_eq!(stragglers, vec![10]);
        assert!(matches!(a.submit_all([(Priority::Batch, 11)]), Err(ServiceError::ShuttingDown)));
        assert!(a.drain(4, Duration::from_millis(50)).is_empty());
    }

    #[test]
    fn drain_wakes_on_submit_from_another_thread() {
        let a = std::sync::Arc::new(AdmissionController::new(4));
        let b = std::sync::Arc::clone(&a);
        let waiter = std::thread::spawn(move || b.drain(1, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        a.submit_all([(Priority::Interactive, 7)]).unwrap();
        assert_eq!(waiter.join().unwrap(), vec![7]);
    }

    #[test]
    fn pressure_tracks_fullness() {
        let a = AdmissionController::new(4);
        assert_eq!(a.pressure(), 0.0);
        a.submit_all([(Priority::Interactive, 1)]).unwrap();
        a.submit_all([(Priority::Batch, 2)]).unwrap();
        assert_eq!(a.pressure(), 0.5);
        a.drain(2, Duration::ZERO);
        assert_eq!(a.pressure(), 0.0);
    }

    #[test]
    fn priority_wire_roundtrip() {
        for p in [Priority::Interactive, Priority::Batch] {
            assert_eq!(Priority::from_wire(p.to_wire()), Some(p));
        }
        assert_eq!(Priority::from_wire(9), None);
    }
}
