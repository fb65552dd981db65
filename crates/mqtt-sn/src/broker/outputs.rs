//! The wire format out of the broker: every outbound message is encoded
//! into one shared buffer and addressed by byte range, and the copies of a
//! fanned-out PUBLISH share one image that is patched per subscriber.
//! Nothing outside this module knows how a send is laid out.

use crate::packet::{encode_publish_into, publish_flags, Packet, PublishWire, QoS, TopicRef};

/// Everything a broker call sends, in a caller-owned, recycled buffer:
/// every outbound packet is encoded into one shared wire buffer and
/// addressed by byte range, so a serve loop flushes with plain `send_to`
/// calls and the steady state performs no per-packet heap traffic.
///
/// Fan-out sharing: when one PUBLISH routes to N subscribers the wire
/// image is encoded **once**; the per-subscriber copies reference the same
/// range with a 3-byte header patch (flags byte + message id) applied in
/// [`BrokerOutputs::emit`] order, so QoS-downgraded or msg-id-bearing
/// copies never re-encode the payload.
#[derive(Debug, Default)]
pub struct BrokerOutputs<A> {
    wire: Vec<u8>,
    sends: Vec<SendOp<A>>,
}

#[derive(Debug)]
struct SendOp<A> {
    to: A,
    range: std::ops::Range<usize>,
    patch: Option<PublishPatch>,
}

#[derive(Debug)]
struct PublishPatch {
    flags_at: usize,
    msg_id_at: usize,
    flags: u8,
    msg_id: u16,
}

impl PublishPatch {
    fn apply(&self, wire: &mut [u8]) {
        wire[self.flags_at] = self.flags;
        wire[self.msg_id_at..self.msg_id_at + 2].copy_from_slice(&self.msg_id.to_be_bytes());
    }
}

/// Largest datagram [`BrokerOutputs::emit_merged`] builds out of several
/// messages: what fits any IPv6 path unfragmented (1280-byte minimum MTU
/// less IP and UDP headers), so merging acknowledgements never turns one
/// lost fragment into many lost messages.
pub(crate) const MERGED_DATAGRAM_MAX: usize = 1232;

impl<A> BrokerOutputs<A> {
    /// Creates an empty output buffer (allocates lazily on first use).
    pub fn new() -> Self {
        BrokerOutputs {
            wire: Vec::new(),
            sends: Vec::new(),
        }
    }

    /// Resets for the next batch, retaining capacity.
    pub fn clear(&mut self) {
        self.wire.clear();
        self.sends.clear();
    }

    /// Number of datagrams produced.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether no datagrams were produced.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }

    /// Applies pending header patches and yields `(destination, datagram)`
    /// in production order. Safe to call repeatedly; patches are
    /// idempotent and applied immediately before each datagram is yielded,
    /// which is what makes sharing one wire image across subscribers with
    /// distinct message ids correct.
    pub fn emit(&mut self, mut f: impl FnMut(&A, &[u8])) {
        // lint: zero-alloc-begin
        for op in &self.sends {
            if let Some(p) = &op.patch {
                p.apply(&mut self.wire);
            }
            f(&op.to, &self.wire[op.range.start..op.range.end]);
        }
        // lint: zero-alloc-end
    }

    /// [`BrokerOutputs::emit`] for a transport whose peers split datagrams
    /// with [`crate::packet::frames`]: consecutive unpatched messages to
    /// one destination — the acknowledgements and control replies of one
    /// batch, which lie back to back in the wire buffer — are yielded as
    /// one datagram of up to 1232 bytes (`MERGED_DATAGRAM_MAX`). A fan-out
    /// PUBLISH (always patched) is never merged, so a subscriber that is
    /// not ours still gets one message per datagram.
    pub fn emit_merged(&mut self, mut f: impl FnMut(&A, &[u8]))
    where
        A: PartialEq,
    {
        // lint: zero-alloc-begin
        let mut next = 0;
        while let Some(op) = self.sends.get(next) {
            next += 1;
            let mut end = op.range.end;
            match &op.patch {
                Some(p) => p.apply(&mut self.wire),
                None => {
                    while let Some(more) = self.sends.get(next) {
                        let rides = more.patch.is_none()
                            && more.to == op.to
                            && more.range.start == end
                            && more.range.end - op.range.start <= MERGED_DATAGRAM_MAX;
                        if !rides {
                            break;
                        }
                        end = more.range.end;
                        next += 1;
                    }
                }
            }
            f(&op.to, &self.wire[op.range.start..end]);
        }
        // lint: zero-alloc-end
    }

    /// Decodes every produced datagram back into an owned packet: the
    /// harness view (tests, benches, set-up code), not a hot path.
    pub fn packets(&mut self) -> Vec<(A, Packet)>
    where
        A: Clone,
    {
        let mut out = Vec::with_capacity(self.sends.len());
        self.emit(|to, bytes| {
            out.push((
                to.clone(),
                // lint:allow(no-panic): decoding datagrams this broker just encoded; harness-only collection path
                Packet::decode(bytes).expect("broker-encoded datagram decodes"),
            ));
        });
        out
    }
}

/// The writer of a [`BrokerOutputs`] for the length of one broker call.
pub(super) struct WireSink<'o, A> {
    out: &'o mut BrokerOutputs<A>,
    /// Identity of the last publish wire image, for fan-out reuse. The
    /// pointer is compared, never dereferenced; it stays meaningful
    /// because a sink lives within a single broker call, during which
    /// the payload slice is pinned.
    cached: Option<CachedPublish>,
}

struct CachedPublish {
    payload_ptr: *const u8,
    payload_len: usize,
    topic_id: u16,
    dup: bool,
    wire: PublishWire,
}

impl<'o, A> WireSink<'o, A> {
    pub(super) fn new(out: &'o mut BrokerOutputs<A>) -> Self {
        WireSink { out, cached: None }
    }

    /// Appends one control message for `to`.
    pub(super) fn push(&mut self, to: A, packet: Packet) {
        let start = self.out.wire.len();
        packet.encode_into(&mut self.out.wire);
        self.out.sends.push(SendOp {
            to,
            range: start..self.out.wire.len(),
            patch: None,
        });
    }

    /// Appends a PUBLISH for `to`. Consecutive calls with the same
    /// payload slice, topic and DUP flag — one fan-out — share the first
    /// call's wire image.
    pub(super) fn push_publish(
        &mut self,
        to: A,
        dup: bool,
        qos: QoS,
        topic_id: u16,
        msg_id: u16,
        payload: &[u8],
    ) {
        // lint: zero-alloc-begin
        let topic = TopicRef::Id(topic_id);
        let shared = self.cached.as_ref().filter(|c| {
            c.payload_ptr == payload.as_ptr()
                && c.payload_len == payload.len()
                && c.topic_id == topic_id
                && c.dup == dup
        });
        let wire = match shared {
            Some(c) => c.wire,
            None => {
                let buf = &mut self.out.wire;
                let wire = encode_publish_into(dup, qos, false, &topic, msg_id, payload, buf);
                self.cached = Some(CachedPublish {
                    payload_ptr: payload.as_ptr(),
                    payload_len: payload.len(),
                    topic_id,
                    dup,
                    wire,
                });
                wire
            }
        };
        // The first copy records its header values as a patch too: later
        // copies patch the shared bytes in place, so every send must
        // restore its own header for `emit` to stay repeatable.
        self.out.sends.push(SendOp {
            to,
            range: wire.start..wire.end,
            patch: Some(PublishPatch {
                flags_at: wire.flags_at,
                msg_id_at: wire.msg_id_at,
                flags: publish_flags(dup, qos, false, &topic),
                msg_id,
            }),
        });
        // lint: zero-alloc-end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve loop that owns a `BrokerOutputs` may hand it to another
    /// thread; the fan-out cache compares a payload address per call and
    /// must never become a pointer the public type carries.
    #[test]
    fn outputs_cross_threads() {
        fn crosses<T: Send + Sync>() {}
        crosses::<BrokerOutputs<std::net::SocketAddr>>();
    }

    #[test]
    fn a_wire_image_is_shared_by_payload_topic_and_dup_only() {
        let mut out = BrokerOutputs::new();
        let mut sink = WireSink::new(&mut out);
        let (payload, other) = ([7u8; 40], [7u8; 40]);
        // One fan-out: whatever the QoS and message id, one image.
        sink.push_publish(1u8, false, QoS::AtMostOnce, 9, 0, &payload);
        sink.push_publish(2, false, QoS::AtLeastOnce, 9, 5, &payload);
        sink.push_publish(3, false, QoS::ExactlyOnce, 9, 6, &payload);
        // A retransmission, another topic, equal bytes elsewhere: new ones.
        sink.push_publish(2, true, QoS::AtLeastOnce, 9, 5, &payload);
        sink.push_publish(2, false, QoS::AtLeastOnce, 10, 7, &payload);
        sink.push_publish(2, false, QoS::AtLeastOnce, 10, 8, &other);
        let image = 7 + payload.len();
        assert_eq!(out.wire.len(), 4 * image);
        let starts: Vec<usize> = out.sends.iter().map(|op| op.range.start).collect();
        assert_eq!(starts, [0, 0, 0, image, 2 * image, 3 * image]);
        assert_eq!(out.packets().len(), 6);
    }
}
