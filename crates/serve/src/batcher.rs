//! The dynamic micro-batcher: max-batch-size / max-delay policy over a
//! bounded admission queue, stepped on the simulated clock.
//!
//! [`Batcher::next`] is the one decision function. The serving loop
//! (`serve::sim`) asks it for the next batch with the instant the device
//! finished the previous one, runs that batch, and asks again with the
//! device's new free time. Batch composition therefore follows the
//! simulated clock: it is identical across host thread counts and
//! buffer-pool settings (the determinism contract, because the clock is),
//! but not across models — a slower forward holds the device longer, and
//! more requests gather behind it. The rules:
//!
//! * a batch *opens* when a request is admitted to an empty queue and
//!   *closes* at the earliest of three instants: the arrival that fills
//!   it to `max_batch`; its first request's arrival plus `max_delay`; and
//!   the later of that arrival and the device's free time — so a request
//!   that reaches an idle device closes its batch on arrival, and no
//!   request ever waits in the admission queue longer than `max_delay`;
//! * a request arriving exactly at the close misses the batch;
//! * a request arriving while the queue holds `queue_capacity` waiting
//!   requests is rejected ([`RejectReason::QueueFull`]) as backpressure;
//! * requests within a batch keep FIFO (arrival/id) order and no request
//!   is lost or duplicated.
//!
//! [`form_batches`] steps the same function with a device that is never
//! idle, which leaves only the size and delay triggers: a pure function of
//! (arrival plan × policy) whose properties `tests/proptests.rs` checks
//! exactly.

use crate::request::Request;
use crate::RejectReason;
use pipad_gpu_sim::SimNanos;

/// Micro-batching policy.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Close a batch as soon as it holds this many requests.
    pub max_batch: usize,
    /// Close an open batch this long (ns) after its first request arrived.
    pub max_delay_ns: u64,
    /// Admission-queue bound; arrivals beyond it are rejected.
    pub queue_capacity: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 4,
            max_delay_ns: 250_000,
            queue_capacity: 16,
        }
    }
}

/// One formed micro-batch.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Formation sequence number.
    pub seq: usize,
    /// When the batch closed on the simulated clock.
    pub formed_at: SimNanos,
    /// Members in FIFO order.
    pub requests: Vec<Request>,
}

/// A device free time that never comes: stepped with it, the batcher
/// closes batches on the size and delay triggers alone.
const NEVER_IDLE: SimNanos = SimNanos(u64::MAX);

/// The stepped micro-batcher over a sorted arrival plan.
#[derive(Debug)]
pub struct Batcher<'a> {
    policy: BatchPolicy,
    /// Arrivals not yet admitted or rejected, in order.
    pending: &'a [Request],
    /// The open batch: admitted requests waiting for its close.
    queue: Vec<Request>,
    seq: usize,
    queue_high_water: usize,
    /// Rejections since the last [`Batcher::take_rejected`].
    rejected: Vec<(Request, RejectReason)>,
}

impl<'a> Batcher<'a> {
    /// A batcher over `requests`, which must be sorted by arrival.
    pub fn new(requests: &'a [Request], policy: &BatchPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            policy.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        debug_assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "arrival plan must be sorted"
        );
        Batcher {
            policy: *policy,
            pending: requests,
            queue: Vec::new(),
            seq: 0,
            queue_high_water: 0,
            rejected: Vec::new(),
        }
    }

    /// Admit arrivals until the next batch closes and return it, given
    /// the instant `device_free` at which the device finished the
    /// previous batch. `None` once every request is batched or rejected.
    pub fn next(&mut self, device_free: SimNanos) -> Option<Batch> {
        loop {
            if let Some(head) = self.queue.first() {
                let deadline = head.arrival + SimNanos::from_nanos(self.policy.max_delay_ns);
                let close = deadline.min(head.arrival.max(device_free));
                if self.pending.first().is_none_or(|r| close <= r.arrival) {
                    return Some(self.close(close));
                }
            }
            let (r, rest) = self.pending.split_first()?;
            self.pending = rest;
            if self.queue.len() >= self.policy.queue_capacity {
                let reason = RejectReason::QueueFull {
                    capacity: self.policy.queue_capacity,
                };
                self.rejected.push((r.clone(), reason));
                continue;
            }
            self.queue.push(r.clone());
            self.queue_high_water = self.queue_high_water.max(self.queue.len());
            if self.queue.len() >= self.policy.max_batch {
                return Some(self.close(r.arrival));
            }
        }
    }

    /// The requests rejected since the last call, in arrival order, with
    /// their typed reasons.
    pub fn take_rejected(&mut self) -> Vec<(Request, RejectReason)> {
        std::mem::take(&mut self.rejected)
    }

    /// The admission queue's high-water mark so far.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    fn close(&mut self, at: SimNanos) -> Batch {
        let batch = Batch {
            seq: self.seq,
            formed_at: at,
            requests: std::mem::take(&mut self.queue),
        };
        self.seq += 1;
        batch
    }
}

/// Form micro-batches from a sorted arrival plan on a device that is
/// never idle. Returns the batches in formation order, the rejected
/// requests with their typed reasons, and the admission queue's
/// high-water mark.
pub fn form_batches(
    requests: &[Request],
    policy: &BatchPolicy,
) -> (Vec<Batch>, Vec<(Request, RejectReason)>, usize) {
    let mut batcher = Batcher::new(requests, policy);
    let batches = std::iter::from_fn(|| batcher.next(NEVER_IDLE)).collect();
    (batches, batcher.take_rejected(), batcher.queue_high_water())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, at: u64) -> Request {
        Request {
            id,
            arrival: SimNanos::from_nanos(at),
            frame: 0,
            targets: vec![0],
        }
    }

    #[test]
    fn full_batch_closes_immediately() {
        let plan = vec![req(0, 10), req(1, 20), req(2, 30), req(3, 40)];
        let policy = BatchPolicy {
            max_batch: 2,
            max_delay_ns: 1_000_000,
            queue_capacity: 8,
        };
        let (batches, rejected, high_water) = form_batches(&plan, &policy);
        assert!(rejected.is_empty());
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].formed_at, SimNanos::from_nanos(20));
        assert_eq!(batches[1].formed_at, SimNanos::from_nanos(40));
        assert!(batches.iter().all(|b| b.requests.len() == 2));
        assert_eq!(high_water, 2);
    }

    #[test]
    fn max_delay_closes_a_partial_batch() {
        let plan = vec![req(0, 10), req(1, 5000)];
        let policy = BatchPolicy {
            max_batch: 8,
            max_delay_ns: 100,
            queue_capacity: 8,
        };
        let (batches, _, _) = form_batches(&plan, &policy);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].formed_at, SimNanos::from_nanos(110));
        assert_eq!(batches[0].requests.len(), 1);
    }

    #[test]
    fn overflowing_arrivals_are_rejected_with_capacity() {
        let plan = vec![req(0, 10), req(1, 11), req(2, 12)];
        let policy = BatchPolicy {
            max_batch: 8,
            max_delay_ns: 1_000_000,
            queue_capacity: 2,
        };
        let (batches, rejected, _) = form_batches(&plan, &policy);
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0.id, 2);
        assert!(matches!(
            rejected[0].1,
            RejectReason::QueueFull { capacity: 2 }
        ));
        assert_eq!(batches.iter().map(|b| b.requests.len()).sum::<usize>(), 2);
    }

    #[test]
    fn an_idle_device_closes_a_batch_on_arrival() {
        let plan = vec![req(0, 10), req(1, 20), req(2, 30), req(3, 500)];
        let policy = BatchPolicy {
            max_batch: 8,
            max_delay_ns: 1_000,
            queue_capacity: 8,
        };
        let mut batcher = Batcher::new(&plan, &policy);
        // Idle since 0: request 0 closes its batch as it arrives.
        let b0 = batcher.next(SimNanos::ZERO).unwrap();
        assert_eq!((b0.formed_at, b0.requests.len()), (SimNanos(10), 1));
        // Busy until 25: request 1 waits for the device and request 2
        // arrives after it frees, so the batch closes at 25.
        let b1 = batcher.next(SimNanos(25)).unwrap();
        assert_eq!((b1.formed_at, b1.requests.len()), (SimNanos(25), 1));
        // Busy far past the deadline: the delay trigger closes at 1 030.
        let b2 = batcher.next(SimNanos(10_000)).unwrap();
        assert_eq!(b2.formed_at, SimNanos(1_030));
        assert_eq!(b2.requests.len(), 2);
        assert!(batcher.next(SimNanos(20_000)).is_none());
        assert!(batcher.take_rejected().is_empty());
    }
}
