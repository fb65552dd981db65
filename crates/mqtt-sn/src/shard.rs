//! Cross-shard forwarding fabric for the sharded gateway.
//!
//! A sharded gateway runs N independent [`crate::broker::Broker`] state
//! machines, each owning the sessions of the clients hashed to it. A
//! publish whose subscribers live on other shards crosses the boundary
//! through a bounded SPSC ring per directed shard pair, carrying the
//! publish as a **pre-encoded patchable wire image** (see
//! [`crate::packet::encode_publish_into`]): the owning shard encodes the
//! PUBLISH exactly once into a recycled frame, and every receiving shard
//! fans it out to its local subscribers through the single-encode
//! [`crate::broker::BrokerOutputs`] path.
//!
//! Frames recycle through a companion free ring, so the steady-state
//! forwarding path performs **zero heap allocations**: a frame buffer
//! grows to its working size once and then shuttles between the free and
//! data rings forever. When a ring is full the forward is *dropped and
//! accounted* (the sending shard folds it into
//! [`crate::broker::BrokerStats::drops`] via
//! [`crate::broker::Broker::note_ring_drops`]) — bounded memory with
//! exact loss accounting, the same discipline as the broker's per-session
//! buffering caps.

use crate::packet::{encode_publish_into, QoS, TopicRef};
use crossbeam::queue::ArrayQueue;

/// One publish crossing a shard boundary: the encoded PUBLISH wire image
/// plus the offsets a receiving shard needs to deliver it.
#[derive(Debug)]
pub struct ForwardFrame {
    /// Encoded PUBLISH datagram (flags/msg-id patchable per subscriber).
    pub wire: Vec<u8>,
    /// Topic id in the shared registry.
    pub topic_id: u16,
    /// Publish QoS; each delivery is capped at the subscriber's grant.
    pub qos: QoS,
    /// Start of the payload within `wire`.
    pub payload_at: usize,
}

impl ForwardFrame {
    fn empty() -> Self {
        ForwardFrame {
            wire: Vec::new(),
            topic_id: 0,
            qos: QoS::AtMostOnce,
            payload_at: 0,
        }
    }

    /// The payload bytes carried by this frame.
    pub fn payload(&self) -> &[u8] {
        self.wire.get(self.payload_at..).unwrap_or(&[])
    }
}

/// A bounded SPSC forwarding ring for one directed shard pair: a data
/// ring of in-flight frames and a companion free ring the consumer
/// returns them through.
#[derive(Debug)]
pub struct ForwardRing {
    data: ArrayQueue<ForwardFrame>,
    free: ArrayQueue<ForwardFrame>,
}

impl ForwardRing {
    /// Creates a ring with `cap` in-flight slots and `cap` pre-built
    /// recyclable frames.
    pub fn new(cap: usize) -> Self {
        let ring = ForwardRing {
            data: ArrayQueue::new(cap),
            free: ArrayQueue::new(cap),
        };
        for _ in 0..cap {
            let _ = ring.free.push(ForwardFrame::empty());
        }
        ring
    }

    /// True when no frames are in flight.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Slots per direction.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Producer side: copies `image` into a recycled frame and enqueues
    /// it, returning the post-enqueue ring depth. `Err(())` means the
    /// ring (or its frame pool) is exhausted — the caller must account
    /// the forward as dropped.
    #[allow(clippy::result_unit_err)] // "full" carries no further detail
    pub fn try_send(
        &self,
        image: &[u8],
        topic_id: u16,
        qos: QoS,
        payload_at: usize,
    ) -> Result<u64, ()> {
        // lint: zero-alloc-begin
        let Some(mut frame) = self.free.pop() else {
            return Err(());
        };
        frame.wire.clear();
        frame.wire.extend_from_slice(image);
        frame.topic_id = topic_id;
        frame.qos = qos;
        frame.payload_at = payload_at;
        match self.data.push(frame) {
            Ok(()) => Ok(self.data.len() as u64),
            Err(frame) => {
                // Both rings hold `cap` slots, so the returned frame
                // always fits back into the free ring.
                let _ = self.free.push(frame);
                Err(())
            }
        }
        // lint: zero-alloc-end
    }

    /// Consumer side: takes the next in-flight frame.
    pub fn recv(&self) -> Option<ForwardFrame> {
        self.data.pop()
    }

    /// Consumer side: returns a delivered frame to the free pool so its
    /// buffer is reused by a later `try_send`.
    pub fn recycle(&self, frame: ForwardFrame) {
        let _ = self.free.push(frame);
    }
}

/// What happened to one publish offered to [`ForwardFabric::forward`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwardOutcome {
    /// Rings the publish was enqueued into.
    pub forwards: u64,
    /// Deepest post-enqueue ring occupancy observed.
    pub max_depth: u64,
    /// Rings that were full (each is one accounted drop).
    pub drops: u64,
}

/// The full mesh of forwarding rings for an N-shard gateway: one
/// [`ForwardRing`] per directed pair of *distinct* shards — `n·(n−1)`
/// rings, so a one-shard gateway owns none.
#[derive(Debug)]
pub struct ForwardFabric {
    shards: usize,
    rings: Vec<ForwardRing>,
}

impl ForwardFabric {
    /// Builds the mesh for `shards` shards with `cap` slots per directed
    /// pair.
    pub fn new(shards: usize, cap: usize) -> Self {
        let shards = shards.max(1);
        let rings = (0..shards * (shards - 1))
            .map(|_| ForwardRing::new(cap))
            .collect();
        ForwardFabric { shards, rings }
    }

    /// Shard count the mesh was built for.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The ring carrying frames from shard `from` to shard `to`. The two
    /// must differ: a shard never forwards to itself, and no such ring
    /// exists.
    pub fn ring(&self, from: usize, to: usize) -> &ForwardRing {
        debug_assert!(from != to && from < self.shards && to < self.shards);
        // Row `from` holds every destination but `from` itself.
        &self.rings[from * (self.shards - 1) + to - usize::from(to > from)]
    }

    /// Encodes `payload` as a PUBLISH **once** into `scratch` and fans
    /// the image into the ring of every shard named by `mask` (a bitmask
    /// of shard indices), skipping `from` itself. Full rings count as
    /// drops in the outcome; the caller folds them into its shard's
    /// stats.
    pub fn forward(
        &self,
        from: usize,
        mask: u64,
        topic_id: u16,
        qos: QoS,
        payload: &[u8],
        scratch: &mut Vec<u8>,
    ) -> ForwardOutcome {
        // lint: zero-alloc-begin
        let mut outcome = ForwardOutcome::default();
        let others = mask & !(1u64 << (from as u32 % 64));
        if others == 0 {
            return outcome;
        }
        scratch.clear();
        let wire = encode_publish_into(
            false,
            qos,
            false,
            &TopicRef::Id(topic_id),
            0,
            payload,
            scratch,
        );
        let payload_at = wire.end - payload.len();
        for to in 0..self.shards {
            if to == from || others & (1u64 << (to as u32 % 64)) == 0 {
                continue;
            }
            match self.ring(from, to).try_send(
                &scratch[wire.start..wire.end],
                topic_id,
                qos,
                payload_at,
            ) {
                Ok(depth) => {
                    outcome.forwards += 1;
                    outcome.max_depth = outcome.max_depth.max(depth);
                }
                Err(()) => outcome.drops += 1,
            }
        }
        outcome
        // lint: zero-alloc-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_carry_the_image_and_recycle() {
        let ring = ForwardRing::new(2);
        assert_eq!(ring.capacity(), 2);
        let image = [0x0b, 0x0c, 0x62, 0x00, 0x07, 0x00, 0x00, 0xAA, 0xBB];
        assert_eq!(ring.try_send(&image, 7, QoS::AtLeastOnce, 7), Ok(1));
        assert_eq!(ring.try_send(&image, 7, QoS::AtLeastOnce, 7), Ok(2));
        // Data ring full: the frame goes back to the free pool, not lost.
        assert_eq!(ring.try_send(&image, 7, QoS::AtLeastOnce, 7), Err(()));
        let frame = ring.recv().expect("frame in flight");
        assert_eq!(frame.wire, image);
        assert_eq!(frame.topic_id, 7);
        assert_eq!(frame.qos, QoS::AtLeastOnce);
        assert_eq!(frame.payload(), &[0xAA, 0xBB]);
        ring.recycle(frame);
        assert_eq!(ring.try_send(&image, 8, QoS::AtMostOnce, 7), Ok(2));
    }

    #[test]
    fn exhausted_free_pool_is_a_drop_not_a_block() {
        let ring = ForwardRing::new(1);
        assert!(ring.try_send(&[1], 1, QoS::AtMostOnce, 0).is_ok());
        // One slot, one frame: both exhausted until the consumer drains.
        assert_eq!(ring.try_send(&[1], 1, QoS::AtMostOnce, 0), Err(()));
        let f = ring.recv().expect("in flight");
        ring.recycle(f);
        assert!(ring.try_send(&[2], 1, QoS::AtMostOnce, 0).is_ok());
    }

    #[test]
    fn fabric_fans_one_encode_into_masked_rings() {
        let fabric = ForwardFabric::new(4, 8);
        let mut scratch = Vec::new();
        // Shards 1 and 3 subscribe; shard 0 publishes. Shard 0's own bit
        // in the mask must be ignored.
        let outcome = fabric.forward(
            0,
            0b1011,
            42,
            QoS::ExactlyOnce,
            b"edge-record",
            &mut scratch,
        );
        assert_eq!(outcome.forwards, 2);
        assert_eq!(outcome.drops, 0);
        assert!(outcome.max_depth >= 1);
        assert!(fabric.ring(0, 2).is_empty());
        for to in [1usize, 3] {
            let frame = fabric.ring(0, to).recv().expect("forwarded frame");
            assert_eq!(frame.topic_id, 42);
            assert_eq!(frame.qos, QoS::ExactlyOnce);
            assert_eq!(frame.payload(), b"edge-record");
            // The image is a decodable PUBLISH.
            match crate::packet::Packet::decode(&frame.wire).expect("valid image") {
                crate::packet::Packet::Publish {
                    topic,
                    payload,
                    qos,
                    ..
                } => {
                    assert_eq!(topic, TopicRef::Id(42));
                    assert_eq!(payload, b"edge-record");
                    assert_eq!(qos, QoS::ExactlyOnce);
                }
                p => panic!("unexpected {p:?}"),
            }
            fabric.ring(0, to).recycle(frame);
        }
    }

    #[test]
    fn full_rings_count_drops() {
        let fabric = ForwardFabric::new(2, 1);
        let mut scratch = Vec::new();
        assert_eq!(
            fabric
                .forward(0, 0b10, 1, QoS::AtMostOnce, b"x", &mut scratch)
                .forwards,
            1
        );
        let outcome = fabric.forward(0, 0b10, 1, QoS::AtMostOnce, b"x", &mut scratch);
        assert_eq!(outcome.forwards, 0);
        assert_eq!(outcome.drops, 1);
    }
}
