//! Gateway-local subscriptions: a subscriber living in the gateway's own
//! process takes publishes from a bounded in-memory queue instead of over
//! a second MQTT-SN leg.
//!
//! The broker pushes an accepted publish here where it would otherwise
//! encode a PUBLISH, allocate a message id and track a retransmission
//! copy; the consumer blocks on the queue and takes everything queued per
//! wake-up. Nothing can be lost between the two, so there is no handshake:
//! the publisher's acknowledgement is the promise, and the broker refuses
//! a QoS ≥ 1 publish *before* acknowledging it once the queue is full (the
//! queue's depth counts as one session's backlog in the congestion
//! watermarks). Payload buffers cycle between the two sides through a free
//! list, so the steady state allocates nothing.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Payload buffers kept for reuse between deliveries.
const MAX_FREE_BUFFERS: usize = 64;

/// One publish delivered to a local subscription.
#[derive(Debug, Default)]
pub struct LocalMessage {
    /// Gateway-assigned id of the topic the message was published to.
    pub topic_id: u16,
    /// The published payload, in a buffer the queue takes back on the next
    /// [`LocalSubscription::recv`].
    pub payload: Vec<u8>,
}

#[derive(Debug, Default)]
struct Inbox {
    queue: VecDeque<LocalMessage>,
    free: Vec<Vec<u8>>,
    /// The consumer is blocked in `recv`; a push has to wake it.
    waiting: bool,
    /// The gateway has stopped: nothing more will be pushed.
    closed: bool,
}

/// The broker's end of a local subscription.
#[derive(Debug)]
pub(crate) struct LocalQueue {
    filter: String,
    /// Messages the queue holds before a publish is refused (QoS ≥ 1, at
    /// the congestion watermarks) or dropped (QoS 0, here).
    cap: usize,
    /// `inbox.queue.len()`, readable without the lock: the broker sums it
    /// into its backlog on every publish. Only ever written under the
    /// lock, and guards no other data, so `Relaxed` is enough.
    depth: AtomicUsize,
    inbox: Mutex<Inbox>,
    ready: Condvar,
}

impl LocalQueue {
    pub(crate) fn new(filter: &str, cap: usize) -> LocalQueue {
        LocalQueue {
            filter: filter.to_owned(),
            cap: cap.max(1),
            depth: AtomicUsize::new(0),
            inbox: Mutex::with_rank(parking_lot::rank::INBOX, Inbox::default()),
            ready: Condvar::new(),
        }
    }

    pub(crate) fn filter(&self) -> &str {
        &self.filter
    }

    /// Messages queued and not yet taken by the consumer.
    pub(crate) fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Queues one publish. With `droppable` set (QoS 0) a full queue
    /// refuses it and `false` comes back for the caller to count; an
    /// acknowledged publish always goes in — the broker admits those only
    /// below the cap, under its lock.
    pub(crate) fn push(&self, topic_id: u16, payload: &[u8], droppable: bool) -> bool {
        // lint: zero-alloc-begin
        let mut inbox = self.inbox.lock();
        if inbox.closed || (droppable && inbox.queue.len() >= self.cap) {
            return false;
        }
        let mut buf = inbox.free.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        inbox.queue.push_back(LocalMessage {
            topic_id,
            payload: buf,
        });
        self.depth.store(inbox.queue.len(), Ordering::Relaxed);
        let wake = std::mem::take(&mut inbox.waiting);
        drop(inbox);
        if wake {
            self.ready.notify_one();
        }
        true
        // lint: zero-alloc-end
    }

    /// Marks the end of the stream and releases a blocked consumer. What
    /// is queued stays there for it to take.
    pub(crate) fn close(&self) {
        self.inbox.lock().closed = true;
        self.ready.notify_all();
    }
}

/// The consuming end of a gateway-local subscription (see
/// [`Broker::subscribe_local`](crate::broker::Broker::subscribe_local) and
/// `UdpBroker::subscribe_local` in [`crate::net`]). It lives as long as
/// its gateway process: it is not part of a gateway snapshot, and a
/// resumed gateway is subscribed to again.
#[derive(Debug)]
pub struct LocalSubscription {
    queue: Arc<LocalQueue>,
}

impl LocalSubscription {
    pub(crate) fn new(queue: Arc<LocalQueue>) -> LocalSubscription {
        LocalSubscription { queue }
    }

    /// Gives the buffers of the previous batch back to the queue, then
    /// moves everything queued into `batch`, in publish order per
    /// publisher. Blocks while the queue is empty and the gateway runs;
    /// returns `false`, with `batch` empty, once the gateway has stopped
    /// and the queue is drained.
    pub fn recv(&mut self, batch: &mut Vec<LocalMessage>) -> bool {
        self.take(batch, true)
    }

    /// [`LocalSubscription::recv`] without the wait: `batch` comes back
    /// empty when nothing is queued.
    pub fn try_recv(&mut self, batch: &mut Vec<LocalMessage>) {
        self.take(batch, false);
    }

    fn take(&mut self, batch: &mut Vec<LocalMessage>, block: bool) -> bool {
        // lint: zero-alloc-begin
        let mut inbox = self.queue.inbox.lock();
        for message in batch.drain(..) {
            if inbox.free.len() < MAX_FREE_BUFFERS {
                inbox.free.push(message.payload);
            }
        }
        while block && inbox.queue.is_empty() && !inbox.closed {
            inbox.waiting = true;
            self.queue.ready.wait(&mut inbox);
        }
        batch.extend(inbox.queue.drain(..));
        self.queue.depth.store(0, Ordering::Relaxed);
        !batch.is_empty() || !inbox.closed
        // lint: zero-alloc-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_blocked_consumer_is_woken_by_a_push_and_released_by_close() {
        let queue = Arc::new(LocalQueue::new("t/#", 4));
        let mut sub = LocalSubscription::new(Arc::clone(&queue));
        // The consumer raises `waiting` under the lock it then releases by
        // blocking, so seeing it set means the consumer is parked.
        let parked = |queue: &LocalQueue| {
            while !queue.inbox.lock().waiting {
                std::thread::yield_now();
            }
        };
        let consumer = std::thread::spawn(move || {
            let mut batch = Vec::new();
            let mut seen = Vec::new();
            while sub.recv(&mut batch) {
                seen.extend(batch.iter().map(|m| (m.topic_id, m.payload.clone())));
            }
            assert!(batch.is_empty());
            seen
        });
        parked(&queue);
        assert!(queue.push(7, b"one", false));
        assert!(queue.push(8, b"two", true));
        parked(&queue);
        queue.close();
        assert!(!queue.push(9, b"late", false), "closed queue takes nothing");
        let seen = consumer.join().unwrap();
        assert_eq!(seen, vec![(7, b"one".to_vec()), (8, b"two".to_vec())]);
    }

    #[test]
    fn only_a_droppable_push_is_refused_at_the_cap() {
        let queue = Arc::new(LocalQueue::new("#", 2));
        let mut sub = LocalSubscription::new(Arc::clone(&queue));
        assert!(queue.push(1, b"a", true));
        assert!(queue.push(1, b"b", true));
        assert_eq!(queue.depth(), 2);
        assert!(!queue.push(1, b"c", true), "QoS 0 at the cap is refused");
        assert!(
            queue.push(1, b"d", false),
            "an acknowledged publish goes in"
        );
        let mut batch = Vec::new();
        sub.try_recv(&mut batch);
        let payloads: Vec<&[u8]> = batch.iter().map(|m| &m.payload[..]).collect();
        assert_eq!(payloads, [b"a", b"b", b"d"]);
        assert_eq!(queue.depth(), 0);
        sub.try_recv(&mut batch);
        assert!(batch.is_empty());
    }
}
