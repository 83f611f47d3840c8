//! The dynamic micro-batcher: max-batch-size / max-delay policy over a
//! bounded admission queue.
//!
//! Batch formation is a *pure* function of the arrival plan and the
//! policy — deliberately independent of how fast the engine drains
//! batches. That keeps batch composition identical across models, thread
//! counts and buffer-pool settings (the determinism contract), and makes
//! the policy properties (`tests/proptests.rs`) exactly checkable:
//!
//! * a batch *opens* when a request is admitted to an empty queue and
//!   *closes* `max_delay` later, or immediately once `max_batch` requests
//!   are queued — so no request ever waits in the admission queue longer
//!   than `max_delay`;
//! * a request arriving while the queue holds `queue_capacity` waiting
//!   requests is rejected ([`RejectReason::QueueFull`]) as backpressure;
//! * requests within a batch keep FIFO (arrival/id) order and no request
//!   is lost or duplicated.

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

/// Form micro-batches from a sorted arrival plan. Returns the batches in
/// formation order, the rejected requests with their typed reasons, and
/// the admission queue's high-water mark.
pub fn form_batches(
    requests: &[Request],
    policy: &BatchPolicy,
) -> (Vec<Batch>, Vec<(Request, RejectReason)>, usize) {
    assert!(policy.max_batch >= 1, "max_batch must be at least 1");
    assert!(
        policy.queue_capacity >= 1,
        "queue_capacity must be at least 1"
    );
    debug_assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "arrival plan must be sorted"
    );

    fn close(queue: &mut Vec<Request>, at: SimNanos, batches: &mut Vec<Batch>) {
        if queue.is_empty() {
            return;
        }
        batches.push(Batch {
            seq: batches.len(),
            formed_at: at,
            requests: std::mem::take(queue),
        });
    }

    let mut batches = Vec::new();
    let mut rejected = Vec::new();
    let mut queue_high_water = 0;
    let mut queue: Vec<Request> = Vec::new();

    for r in requests {
        // The open batch's deadline may pass before (or exactly when) this
        // request arrives; a request arriving exactly at the deadline
        // misses the closing batch.
        if let Some(first) = queue.first() {
            let deadline = first.arrival + SimNanos::from_nanos(policy.max_delay_ns);
            if deadline <= r.arrival {
                close(&mut queue, deadline, &mut batches);
            }
        }
        if queue.len() >= policy.queue_capacity {
            rejected.push((
                r.clone(),
                RejectReason::QueueFull {
                    capacity: policy.queue_capacity,
                },
            ));
            continue;
        }
        queue.push(r.clone());
        queue_high_water = queue_high_water.max(queue.len());
        if queue.len() >= policy.max_batch {
            let at = r.arrival;
            close(&mut queue, at, &mut batches);
        }
    }
    if let Some(first) = queue.first() {
        let deadline = first.arrival + SimNanos::from_nanos(policy.max_delay_ns);
        close(&mut queue, deadline, &mut batches);
    }
    (batches, rejected, queue_high_water)
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
}
