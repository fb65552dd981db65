//! MQTT-SN v1.2 wire format.
//!
//! Every message starts with a length (1 byte, or `0x01` + 2 bytes for
//! larger messages) and a message-type byte. The tiny fixed header —
//! 7 bytes for a PUBLISH against HTTP's hundreds — is a key ingredient in
//! the paper's network-usage numbers (Fig. 6c).
//!
//! Because every message carries its own length, a datagram may carry
//! several back to back; [`frames`] splits one where it enters a
//! transport, and everything past that point sees one message at a time.

use crate::Error;

/// Quality-of-service level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QoS {
    /// Fire and forget.
    #[default]
    AtMostOnce,
    /// Acknowledged delivery (PUBACK), at-least-once.
    AtLeastOnce,
    /// Assured delivery (PUBREC/PUBREL/PUBCOMP), exactly-once. The level
    /// ProvLight uses (paper Table VI).
    ExactlyOnce,
}

impl QoS {
    fn bits(self) -> u8 {
        match self {
            QoS::AtMostOnce => 0b00,
            QoS::AtLeastOnce => 0b01,
            QoS::ExactlyOnce => 0b10,
        }
    }

    fn from_bits(bits: u8) -> Result<QoS, Error> {
        match bits & 0b11 {
            0b00 => Ok(QoS::AtMostOnce),
            0b01 => Ok(QoS::AtLeastOnce),
            0b10 => Ok(QoS::ExactlyOnce),
            _ => Err(Error::Malformed("QoS -1 not supported")),
        }
    }
}

/// CONNACK / REGACK / PUBACK / SUBACK return codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReturnCode {
    /// Accepted.
    Accepted,
    /// Rejected: congestion.
    Congestion,
    /// Rejected: invalid topic id.
    InvalidTopicId,
    /// Rejected: not supported.
    NotSupported,
}

impl ReturnCode {
    fn byte(self) -> u8 {
        match self {
            ReturnCode::Accepted => 0x00,
            ReturnCode::Congestion => 0x01,
            ReturnCode::InvalidTopicId => 0x02,
            ReturnCode::NotSupported => 0x03,
        }
    }

    fn from_byte(b: u8) -> Result<Self, Error> {
        match b {
            0x00 => Ok(ReturnCode::Accepted),
            0x01 => Ok(ReturnCode::Congestion),
            0x02 => Ok(ReturnCode::InvalidTopicId),
            0x03 => Ok(ReturnCode::NotSupported),
            _ => Err(Error::Malformed("unknown return code")),
        }
    }
}

/// How a PUBLISH / SUBSCRIBE refers to its topic.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TopicRef {
    /// A previously REGISTERed (or SUBACK-assigned) 16-bit id. SUBSCRIBE
    /// and UNSUBSCRIBE have no form of their own for one (v1.2 §5.4.15: a
    /// name, a predefined id or a short name): there it goes on the wire
    /// as [`TopicRef::Predefined`], which a broker resolves through the
    /// same registry, and decodes as that.
    Id(u16),
    /// A predefined id agreed out of band.
    Predefined(u16),
    /// A full topic name (SUBSCRIBE only; PUBLISH always uses ids).
    Name(String),
}

impl TopicRef {
    fn type_bits(&self) -> u8 {
        match self {
            TopicRef::Id(_) => 0b00,
            TopicRef::Predefined(_) => 0b01,
            TopicRef::Name(_) => 0b10, // "short" slot reused for names in SUBSCRIBE
        }
    }

    /// The type bits in a SUBSCRIBE or UNSUBSCRIBE, where `0b00` announces
    /// a name: every id takes the predefined form.
    fn subscription_type_bits(&self) -> u8 {
        match self {
            TopicRef::Id(_) | TopicRef::Predefined(_) => 0b01,
            TopicRef::Name(_) => 0b10,
        }
    }
}

/// Message-type bytes (MQTT-SN v1.2 §5.2.2).
mod msg_type {
    pub const ADVERTISE: u8 = 0x00;
    pub const SEARCHGW: u8 = 0x01;
    pub const GWINFO: u8 = 0x02;
    pub const CONNECT: u8 = 0x04;
    pub const CONNACK: u8 = 0x05;
    pub const REGISTER: u8 = 0x0A;
    pub const REGACK: u8 = 0x0B;
    pub const PUBLISH: u8 = 0x0C;
    pub const PUBACK: u8 = 0x0D;
    pub const PUBCOMP: u8 = 0x0E;
    pub const PUBREC: u8 = 0x0F;
    pub const PUBREL: u8 = 0x10;
    pub const SUBSCRIBE: u8 = 0x12;
    pub const SUBACK: u8 = 0x13;
    pub const UNSUBSCRIBE: u8 = 0x14;
    pub const UNSUBACK: u8 = 0x15;
    pub const PINGREQ: u8 = 0x16;
    pub const PINGRESP: u8 = 0x17;
    pub const DISCONNECT: u8 = 0x18;
    /// Vendor extension (spec reserves 0x1A..=0xFD): broker→client
    /// congestion advisory carrying the current backpressure level.
    pub const CONGESTION: u8 = 0x1E;
}

mod flag {
    pub const DUP: u8 = 0x80;
    pub const QOS_SHIFT: u8 = 5;
    pub const QOS_MASK: u8 = 0x60;
    pub const RETAIN: u8 = 0x10;
    pub const CLEAN_SESSION: u8 = 0x04;
    pub const TOPIC_TYPE_MASK: u8 = 0x03;
}

/// A decoded MQTT-SN message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// Gateway advertisement broadcast.
    Advertise {
        /// Gateway id.
        gw_id: u8,
        /// Seconds until the next ADVERTISE.
        duration: u16,
    },
    /// Gateway discovery probe.
    SearchGw {
        /// Broadcast radius.
        radius: u8,
    },
    /// Gateway discovery answer.
    GwInfo {
        /// Gateway id.
        gw_id: u8,
    },
    /// Client connection request.
    Connect {
        /// Start a clean session.
        clean_session: bool,
        /// Keep-alive period, seconds.
        duration: u16,
        /// Client identifier (1..=23 bytes per spec).
        client_id: String,
    },
    /// Connection response.
    ConnAck {
        /// Result.
        code: ReturnCode,
    },
    /// Topic-name registration (client→broker or broker→client).
    Register {
        /// Assigned id (0 when client-initiated).
        topic_id: u16,
        /// Transaction id.
        msg_id: u16,
        /// Topic name.
        topic_name: String,
    },
    /// Registration response.
    RegAck {
        /// Assigned topic id.
        topic_id: u16,
        /// Transaction id.
        msg_id: u16,
        /// Result.
        code: ReturnCode,
    },
    /// Application message.
    Publish {
        /// Retransmission flag.
        dup: bool,
        /// Delivery QoS.
        qos: QoS,
        /// Retain flag.
        retain: bool,
        /// Topic reference (id or predefined id).
        topic: TopicRef,
        /// Message id (0 for QoS 0).
        msg_id: u16,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// QoS 1 acknowledgment.
    PubAck {
        /// Topic id being acknowledged.
        topic_id: u16,
        /// Message id.
        msg_id: u16,
        /// Result.
        code: ReturnCode,
    },
    /// QoS 2 step 1 (receiver got the message).
    PubRec {
        /// Message id.
        msg_id: u16,
    },
    /// QoS 2 step 2 (sender releases the message).
    PubRel {
        /// Message id.
        msg_id: u16,
    },
    /// QoS 2 step 3 (receiver completed).
    PubComp {
        /// Message id.
        msg_id: u16,
    },
    /// Subscription request.
    Subscribe {
        /// Retransmission flag.
        dup: bool,
        /// Requested QoS.
        qos: QoS,
        /// Transaction id.
        msg_id: u16,
        /// Topic (name with optional wildcards, or id).
        topic: TopicRef,
    },
    /// Subscription response.
    SubAck {
        /// Granted QoS.
        qos: QoS,
        /// Assigned topic id (0 for wildcard filters).
        topic_id: u16,
        /// Transaction id.
        msg_id: u16,
        /// Result.
        code: ReturnCode,
    },
    /// Unsubscribe request.
    Unsubscribe {
        /// Transaction id.
        msg_id: u16,
        /// Topic (name or id).
        topic: TopicRef,
    },
    /// Unsubscribe response.
    UnsubAck {
        /// Transaction id.
        msg_id: u16,
    },
    /// Keep-alive probe.
    PingReq,
    /// Keep-alive response.
    PingResp,
    /// Disconnect notification (optionally entering sleep for `duration`).
    Disconnect {
        /// Sleep duration in seconds, if going to sleep.
        duration: Option<u16>,
    },
    /// Vendor extension (type `0x1E`, from the spec's reserved range):
    /// broker→client advisory that the gateway's buffers are filling.
    /// `level` 0 means congestion cleared, 1 means soft (publishers should
    /// pace and coalesce), 2 means hard (QoS ≥ 1 publishes are being
    /// rejected with [`ReturnCode::Congestion`]). Clients that don't
    /// understand the type ignore it — advisory delivery is best-effort
    /// and never required for correctness.
    CongestionAdvisory {
        /// Current congestion level (0 = clear, 1 = soft, 2 = hard).
        level: u8,
    },
}

/// A decoded message whose PUBLISH payload borrows the datagram buffer.
///
/// The broker's per-subscriber fan-out makes PUBLISH the only message type
/// whose decode cost scales with size; [`Packet::decode_borrowed`] parses it
/// without copying the payload into an owned `Vec`, so a gateway can route a
/// datagram straight from its receive buffer to its send buffer. Every
/// other (control) message type is cold and decodes to the owned [`Packet`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketRef<'a> {
    /// Application message, payload borrowed from the datagram.
    Publish {
        /// Retransmission flag.
        dup: bool,
        /// Delivery QoS.
        qos: QoS,
        /// Retain flag.
        retain: bool,
        /// Topic reference (PUBLISH only carries ids, never names).
        topic: TopicRef,
        /// Message id (0 for QoS 0).
        msg_id: u16,
        /// Application payload, borrowed from the input buffer.
        payload: &'a [u8],
    },
    /// Any non-PUBLISH message, decoded owned.
    Owned(Packet),
}

impl PacketRef<'_> {
    /// Converts to an owned [`Packet`], copying the payload if borrowed.
    pub fn into_owned(self) -> Packet {
        match self {
            PacketRef::Publish {
                dup,
                qos,
                retain,
                topic,
                msg_id,
                payload,
            } => Packet::Publish {
                dup,
                qos,
                retain,
                topic,
                msg_id,
                payload: payload.to_vec(),
            },
            PacketRef::Owned(p) => p,
        }
    }
}

/// Byte positions of the patchable PUBLISH header fields inside a wire
/// buffer, as produced by [`encode_publish_into`]. When a broker fans one
/// message out to several subscribers the wire image differs only in the
/// flags byte (effective QoS) and the message id — rewriting those three
/// bytes in place replaces a full re-encode per subscriber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PublishWire {
    /// Start of the datagram within the buffer.
    pub start: usize,
    /// One past the end of the datagram.
    pub end: usize,
    /// Absolute offset of the flags byte.
    pub flags_at: usize,
    /// Absolute offset of the big-endian message id (2 bytes).
    pub msg_id_at: usize,
}

/// The PUBLISH flags byte for the given delivery options.
pub fn publish_flags(dup: bool, qos: QoS, retain: bool, topic: &TopicRef) -> u8 {
    let mut flags = (qos.bits() << flag::QOS_SHIFT) | topic.type_bits();
    if dup {
        flags |= flag::DUP;
    }
    if retain {
        flags |= flag::RETAIN;
    }
    flags
}

/// Appends a PUBLISH wire image to `out` without materializing a
/// [`Packet`], returning the patchable field offsets. Bytes are identical
/// to encoding the equivalent [`Packet::Publish`].
pub fn encode_publish_into(
    dup: bool,
    qos: QoS,
    retain: bool,
    topic: &TopicRef,
    msg_id: u16,
    payload: &[u8],
    out: &mut Vec<u8>,
) -> PublishWire {
    let start = out.len();
    // type + flags + topic id + msg id + payload
    let body_len = 6 + payload.len();
    if body_len + 1 < 256 {
        out.push((body_len + 1) as u8);
    } else {
        out.push(0x01);
        out.extend_from_slice(&((body_len + 3) as u16).to_be_bytes());
    }
    out.push(msg_type::PUBLISH);
    let flags_at = out.len();
    out.push(publish_flags(dup, qos, retain, topic));
    match topic {
        TopicRef::Id(id) | TopicRef::Predefined(id) => push_u16(out, *id),
        TopicRef::Name(_) => push_u16(out, 0),
    }
    let msg_id_at = out.len();
    push_u16(out, msg_id);
    out.extend_from_slice(payload);
    PublishWire {
        start,
        end: out.len(),
        flags_at,
        msg_id_at,
    }
}

fn push_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// The length prefix of the message starting at `buf[0]`: the total length
/// it declares (prefix included) and the size of the prefix itself.
fn length_prefix(buf: &[u8]) -> Result<(usize, usize), Error> {
    match buf {
        [] => Err(Error::Malformed("empty datagram")),
        [0x01, hi, lo, ..] => Ok((u16::from_be_bytes([*hi, *lo]) as usize, 3)),
        [0x01, ..] => Err(Error::Malformed("truncated long length")),
        [len, ..] => Ok((*len as usize, 1)),
    }
}

/// Splits a datagram into the length-prefixed MQTT-SN messages it carries,
/// without copying or allocating: the frames partition `datagram`, in
/// order. Every frame is handed to [`Packet::decode`] /
/// [`Packet::decode_borrowed`] on its own, which keep accepting exactly
/// one message.
///
/// Only the length prefixes are read here. A prefix that cannot be
/// followed — zero, shorter than itself plus a type byte, or longer than
/// what is left — ends the split: the rest of the datagram (for an empty
/// datagram, the empty slice) comes out as the last frame, which no
/// decoder accepts, so a datagram of garbage is still one frame and one
/// decode error.
pub fn frames(datagram: &[u8]) -> Frames<'_> {
    Frames {
        rest: Some(datagram),
    }
}

/// Iterator returned by [`frames`].
#[derive(Clone, Debug)]
pub struct Frames<'a> {
    /// What is still to be split; `None` once the last frame is out.
    rest: Option<&'a [u8]>,
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = self.rest.take()?;
        if let Ok((declared, prefix)) = length_prefix(rest) {
            if declared > prefix && declared < rest.len() {
                let (frame, tail) = rest.split_at(declared);
                self.rest = Some(tail);
                return Some(frame);
            }
        }
        Some(rest)
    }
}

impl std::iter::FusedIterator for Frames<'_> {}

/// What the gateway's acknowledgement hold needs to know of one message,
/// read off its header without decoding it. A message that would not decode
/// may be misread; the hold only decides when replies leave, not what they
/// say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Glance {
    /// A PUBLISH, and whether its DUP flag is set.
    Publish { dup: bool },
    /// A PUBREL.
    PubRel,
    /// A PUBREC, a PUBCOMP or an accepted PUBACK: an acknowledgement that
    /// reports success and asks nothing of its reader at once.
    Success,
    /// Anything else.
    Other,
}

/// Reads a [`Glance`] of the message `frame` starts with.
pub(crate) fn glance(frame: &[u8]) -> Glance {
    let Ok((_, prefix)) = length_prefix(frame) else {
        return Glance::Other;
    };
    let byte = |at: usize| frame.get(prefix + at).copied();
    match byte(0) {
        Some(msg_type::PUBLISH) => Glance::Publish {
            dup: byte(1).is_some_and(|flags| flags & flag::DUP != 0),
        },
        Some(msg_type::PUBREL) => Glance::PubRel,
        Some(msg_type::PUBREC | msg_type::PUBCOMP) => Glance::Success,
        // Type, topic id, message id, then the return code.
        Some(msg_type::PUBACK) if byte(5) == Some(ReturnCode::Accepted.byte()) => Glance::Success,
        _ => Glance::Other,
    }
}

impl Packet {
    /// Serializes to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_into(&mut out);
        out
    }

    /// Serializes to wire bytes appended to `out` (not cleared), so callers
    /// can reuse one write buffer across packets instead of allocating per
    /// datagram. Bytes are identical to [`Packet::encode`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // Encode the body after a 3-byte placeholder, then fix the length
        // field up in place (1-byte form shifts the body back by two).
        let start = out.len();
        out.extend_from_slice(&[0, 0, 0]);
        self.encode_body(out);
        let body_len = out.len() - start - 3;
        if body_len < 255 {
            out[start] = (body_len + 1) as u8;
            out.copy_within(start + 3.., start + 1);
            out.truncate(out.len() - 2);
        } else {
            let total = (body_len + 3) as u16;
            out[start] = 0x01;
            out[start + 1..start + 3].copy_from_slice(&total.to_be_bytes());
        }
    }

    fn encode_body(&self, b: &mut Vec<u8>) {
        match self {
            Packet::Advertise { gw_id, duration } => {
                b.push(msg_type::ADVERTISE);
                b.push(*gw_id);
                push_u16(b, *duration);
            }
            Packet::SearchGw { radius } => {
                b.push(msg_type::SEARCHGW);
                b.push(*radius);
            }
            Packet::GwInfo { gw_id } => {
                b.push(msg_type::GWINFO);
                b.push(*gw_id);
            }
            Packet::Connect {
                clean_session,
                duration,
                client_id,
            } => {
                b.push(msg_type::CONNECT);
                let mut flags = 0;
                if *clean_session {
                    flags |= flag::CLEAN_SESSION;
                }
                b.push(flags);
                b.push(0x01); // protocol id
                push_u16(b, *duration);
                b.extend_from_slice(client_id.as_bytes());
            }
            Packet::ConnAck { code } => {
                b.push(msg_type::CONNACK);
                b.push(code.byte());
            }
            Packet::Register {
                topic_id,
                msg_id,
                topic_name,
            } => {
                b.push(msg_type::REGISTER);
                push_u16(b, *topic_id);
                push_u16(b, *msg_id);
                b.extend_from_slice(topic_name.as_bytes());
            }
            Packet::RegAck {
                topic_id,
                msg_id,
                code,
            } => {
                b.push(msg_type::REGACK);
                push_u16(b, *topic_id);
                push_u16(b, *msg_id);
                b.push(code.byte());
            }
            Packet::Publish {
                dup,
                qos,
                retain,
                topic,
                msg_id,
                payload,
            } => {
                b.push(msg_type::PUBLISH);
                let mut flags = (qos.bits() << flag::QOS_SHIFT) | topic.type_bits();
                if *dup {
                    flags |= flag::DUP;
                }
                if *retain {
                    flags |= flag::RETAIN;
                }
                b.push(flags);
                match topic {
                    TopicRef::Id(id) | TopicRef::Predefined(id) => push_u16(b, *id),
                    TopicRef::Name(_) => push_u16(b, 0),
                }
                push_u16(b, *msg_id);
                b.extend_from_slice(payload);
            }
            Packet::PubAck {
                topic_id,
                msg_id,
                code,
            } => {
                b.push(msg_type::PUBACK);
                push_u16(b, *topic_id);
                push_u16(b, *msg_id);
                b.push(code.byte());
            }
            Packet::PubRec { msg_id } => {
                b.push(msg_type::PUBREC);
                push_u16(b, *msg_id);
            }
            Packet::PubRel { msg_id } => {
                b.push(msg_type::PUBREL);
                push_u16(b, *msg_id);
            }
            Packet::PubComp { msg_id } => {
                b.push(msg_type::PUBCOMP);
                push_u16(b, *msg_id);
            }
            Packet::Subscribe {
                dup,
                qos,
                msg_id,
                topic,
            } => {
                b.push(msg_type::SUBSCRIBE);
                let mut flags = (qos.bits() << flag::QOS_SHIFT) | topic.subscription_type_bits();
                if *dup {
                    flags |= flag::DUP;
                }
                b.push(flags);
                push_u16(b, *msg_id);
                match topic {
                    TopicRef::Id(id) | TopicRef::Predefined(id) => push_u16(b, *id),
                    TopicRef::Name(name) => b.extend_from_slice(name.as_bytes()),
                }
            }
            Packet::SubAck {
                qos,
                topic_id,
                msg_id,
                code,
            } => {
                b.push(msg_type::SUBACK);
                b.push(qos.bits() << flag::QOS_SHIFT);
                push_u16(b, *topic_id);
                push_u16(b, *msg_id);
                b.push(code.byte());
            }
            Packet::Unsubscribe { msg_id, topic } => {
                b.push(msg_type::UNSUBSCRIBE);
                b.push(topic.subscription_type_bits());
                push_u16(b, *msg_id);
                match topic {
                    TopicRef::Id(id) | TopicRef::Predefined(id) => push_u16(b, *id),
                    TopicRef::Name(name) => b.extend_from_slice(name.as_bytes()),
                }
            }
            Packet::UnsubAck { msg_id } => {
                b.push(msg_type::UNSUBACK);
                push_u16(b, *msg_id);
            }
            Packet::PingReq => b.push(msg_type::PINGREQ),
            Packet::PingResp => b.push(msg_type::PINGRESP),
            Packet::Disconnect { duration } => {
                b.push(msg_type::DISCONNECT);
                if let Some(d) = duration {
                    push_u16(b, *d);
                }
            }
            Packet::CongestionAdvisory { level } => {
                b.push(msg_type::CONGESTION);
                b.push(*level);
            }
        }
    }

    /// Encoded length without allocating a fresh buffer (thread-local
    /// scratch; used heavily by simulator cost accounting).
    pub fn encoded_len(&self) -> usize {
        thread_local! {
            static LEN_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
        }
        LEN_BUF.with(|cell| {
            let mut buf = cell.borrow_mut();
            buf.clear();
            self.encode_into(&mut buf);
            buf.len()
        })
    }

    /// Parses one message, borrowing the PUBLISH payload from `buf`
    /// instead of copying it. Control messages decode owned (they are
    /// small and off the hot path). This is the one PUBLISH parser:
    /// [`Packet::decode`] copies what it borrows, so both accept and reject
    /// exactly the same inputs.
    pub fn decode_borrowed(buf: &[u8]) -> Result<PacketRef<'_>, Error> {
        let (declared, header) = length_prefix(buf)?;
        if declared != buf.len() {
            return Err(Error::Malformed("length mismatch"));
        }
        let body = &buf[header..];
        if body.first() != Some(&msg_type::PUBLISH) {
            return Packet::decode(buf).map(PacketRef::Owned);
        }
        let rest = &body[1..];
        if rest.len() < 5 {
            return Err(Error::Malformed("truncated body"));
        }
        let flags = rest[0];
        let qos = QoS::from_bits((flags & flag::QOS_MASK) >> flag::QOS_SHIFT)?;
        let topic_id = u16::from_be_bytes([rest[1], rest[2]]);
        let topic = match flags & flag::TOPIC_TYPE_MASK {
            0b00 => TopicRef::Id(topic_id),
            0b01 => TopicRef::Predefined(topic_id),
            _ => return Err(Error::Malformed("short topics not supported in PUBLISH")),
        };
        Ok(PacketRef::Publish {
            dup: flags & flag::DUP != 0,
            qos,
            retain: flags & flag::RETAIN != 0,
            topic,
            msg_id: u16::from_be_bytes([rest[3], rest[4]]),
            payload: &rest[5..],
        })
    }

    /// Parses one message from wire bytes. The buffer must contain exactly
    /// one datagram.
    pub fn decode(buf: &[u8]) -> Result<Packet, Error> {
        let (declared, header) = length_prefix(buf)?;
        if declared != buf.len() {
            return Err(Error::Malformed("length mismatch"));
        }
        let body = &buf[header..];
        if body.is_empty() {
            return Err(Error::Malformed("missing message type"));
        }
        let ty = body[0];
        let rest = &body[1..];
        let need = |n: usize| -> Result<(), Error> {
            if rest.len() < n {
                Err(Error::Malformed("truncated body"))
            } else {
                Ok(())
            }
        };
        let u16_at = |i: usize| u16::from_be_bytes([rest[i], rest[i + 1]]);
        let str_from = |bytes: &[u8]| -> Result<String, Error> {
            std::str::from_utf8(bytes)
                .map(str::to_owned)
                .map_err(|_| Error::Malformed("invalid UTF-8"))
        };

        match ty {
            msg_type::ADVERTISE => {
                need(3)?;
                Ok(Packet::Advertise {
                    gw_id: rest[0],
                    duration: u16_at(1),
                })
            }
            msg_type::SEARCHGW => {
                need(1)?;
                Ok(Packet::SearchGw { radius: rest[0] })
            }
            msg_type::GWINFO => {
                need(1)?;
                Ok(Packet::GwInfo { gw_id: rest[0] })
            }
            msg_type::CONNECT => {
                need(4)?;
                let flags = rest[0];
                if rest[1] != 0x01 {
                    return Err(Error::Malformed("bad protocol id"));
                }
                Ok(Packet::Connect {
                    clean_session: flags & flag::CLEAN_SESSION != 0,
                    duration: u16_at(2),
                    client_id: str_from(&rest[4..])?,
                })
            }
            msg_type::CONNACK => {
                need(1)?;
                Ok(Packet::ConnAck {
                    code: ReturnCode::from_byte(rest[0])?,
                })
            }
            msg_type::REGISTER => {
                need(4)?;
                Ok(Packet::Register {
                    topic_id: u16_at(0),
                    msg_id: u16_at(2),
                    topic_name: str_from(&rest[4..])?,
                })
            }
            msg_type::REGACK => {
                need(5)?;
                Ok(Packet::RegAck {
                    topic_id: u16_at(0),
                    msg_id: u16_at(2),
                    code: ReturnCode::from_byte(rest[4])?,
                })
            }
            msg_type::PUBLISH => Packet::decode_borrowed(buf).map(PacketRef::into_owned),
            msg_type::PUBACK => {
                need(5)?;
                Ok(Packet::PubAck {
                    topic_id: u16_at(0),
                    msg_id: u16_at(2),
                    code: ReturnCode::from_byte(rest[4])?,
                })
            }
            msg_type::PUBREC => {
                need(2)?;
                Ok(Packet::PubRec { msg_id: u16_at(0) })
            }
            msg_type::PUBREL => {
                need(2)?;
                Ok(Packet::PubRel { msg_id: u16_at(0) })
            }
            msg_type::PUBCOMP => {
                need(2)?;
                Ok(Packet::PubComp { msg_id: u16_at(0) })
            }
            msg_type::SUBSCRIBE => {
                need(3)?;
                let flags = rest[0];
                let qos = QoS::from_bits((flags & flag::QOS_MASK) >> flag::QOS_SHIFT)?;
                let msg_id = u16_at(1);
                let topic = match flags & flag::TOPIC_TYPE_MASK {
                    0b00 | 0b10 => TopicRef::Name(str_from(&rest[3..])?),
                    0b01 => {
                        need(5)?;
                        TopicRef::Predefined(u16_at(3))
                    }
                    _ => return Err(Error::Malformed("bad topic type")),
                };
                Ok(Packet::Subscribe {
                    dup: flags & flag::DUP != 0,
                    qos,
                    msg_id,
                    topic,
                })
            }
            msg_type::SUBACK => {
                need(6)?;
                let qos = QoS::from_bits((rest[0] & flag::QOS_MASK) >> flag::QOS_SHIFT)?;
                Ok(Packet::SubAck {
                    qos,
                    topic_id: u16_at(1),
                    msg_id: u16_at(3),
                    code: ReturnCode::from_byte(rest[5])?,
                })
            }
            msg_type::UNSUBSCRIBE => {
                need(3)?;
                let flags = rest[0];
                let msg_id = u16_at(1);
                let topic = match flags & flag::TOPIC_TYPE_MASK {
                    0b00 | 0b10 => TopicRef::Name(str_from(&rest[3..])?),
                    0b01 => {
                        need(5)?;
                        TopicRef::Predefined(u16_at(3))
                    }
                    _ => return Err(Error::Malformed("bad topic type")),
                };
                Ok(Packet::Unsubscribe { msg_id, topic })
            }
            msg_type::UNSUBACK => {
                need(2)?;
                Ok(Packet::UnsubAck { msg_id: u16_at(0) })
            }
            msg_type::PINGREQ => Ok(Packet::PingReq),
            msg_type::PINGRESP => Ok(Packet::PingResp),
            msg_type::DISCONNECT => {
                if rest.len() >= 2 {
                    Ok(Packet::Disconnect {
                        duration: Some(u16_at(0)),
                    })
                } else {
                    Ok(Packet::Disconnect { duration: None })
                }
            }
            msg_type::CONGESTION => {
                need(1)?;
                Ok(Packet::CongestionAdvisory { level: rest[0] })
            }
            _ => Err(Error::Malformed("unknown message type")),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(p: Packet) {
        let wire = p.encode();
        assert_eq!(Packet::decode(&wire).unwrap(), p, "wire: {wire:02x?}");
    }

    #[test]
    fn roundtrip_every_variant() {
        roundtrip(Packet::Advertise {
            gw_id: 1,
            duration: 900,
        });
        roundtrip(Packet::SearchGw { radius: 2 });
        roundtrip(Packet::GwInfo { gw_id: 1 });
        roundtrip(Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "edge-device-17".into(),
        });
        roundtrip(Packet::ConnAck {
            code: ReturnCode::Accepted,
        });
        roundtrip(Packet::Register {
            topic_id: 0,
            msg_id: 7,
            topic_name: "provlight/wf1/device3".into(),
        });
        roundtrip(Packet::RegAck {
            topic_id: 12,
            msg_id: 7,
            code: ReturnCode::Accepted,
        });
        roundtrip(Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(12),
            msg_id: 99,
            payload: vec![1, 2, 3, 4],
        });
        roundtrip(Packet::PubAck {
            topic_id: 12,
            msg_id: 99,
            code: ReturnCode::Accepted,
        });
        roundtrip(Packet::PubRec { msg_id: 99 });
        roundtrip(Packet::PubRel { msg_id: 99 });
        roundtrip(Packet::PubComp { msg_id: 99 });
        roundtrip(Packet::Subscribe {
            dup: false,
            qos: QoS::AtLeastOnce,
            msg_id: 3,
            topic: TopicRef::Name("provlight/+/device1".into()),
        });
        roundtrip(Packet::SubAck {
            qos: QoS::AtLeastOnce,
            topic_id: 0,
            msg_id: 3,
            code: ReturnCode::Accepted,
        });
        roundtrip(Packet::Unsubscribe {
            msg_id: 4,
            topic: TopicRef::Name("provlight/#".into()),
        });
        roundtrip(Packet::UnsubAck { msg_id: 4 });
        // By id, the two carry the one id form they have.
        for id in [TopicRef::Id(0x6162), TopicRef::Predefined(0x6162)] {
            let predefined = TopicRef::Predefined(0x6162);
            let unsubscribe = Packet::Unsubscribe {
                msg_id: 5,
                topic: id.clone(),
            };
            assert_eq!(
                Packet::decode(&unsubscribe.encode()),
                Ok(Packet::Unsubscribe {
                    msg_id: 5,
                    topic: predefined.clone(),
                })
            );
            let subscribe = |topic| Packet::Subscribe {
                dup: false,
                qos: QoS::ExactlyOnce,
                msg_id: 6,
                topic,
            };
            assert_eq!(
                Packet::decode(&subscribe(id).encode()),
                Ok(subscribe(predefined))
            );
        }
        roundtrip(Packet::PingReq);
        roundtrip(Packet::PingResp);
        roundtrip(Packet::Disconnect { duration: None });
        roundtrip(Packet::Disconnect {
            duration: Some(300),
        });
        roundtrip(Packet::CongestionAdvisory { level: 0 });
        roundtrip(Packet::CongestionAdvisory { level: 2 });
    }

    #[test]
    fn publish_header_is_seven_bytes() {
        // The paper's Table VI contrast: MQTT-SN adds 7 bytes to a QoS 0/2
        // publish, vs. hundreds for HTTP.
        let p = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(1),
            msg_id: 1,
            payload: vec![0u8; 100],
        };
        assert_eq!(p.encoded_len(), 107);
    }

    #[test]
    fn long_payload_uses_extended_length() {
        let p = Packet::Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic: TopicRef::Id(1),
            msg_id: 0,
            payload: vec![0xaa; 1000],
        };
        let wire = p.encode();
        assert_eq!(wire[0], 0x01);
        assert_eq!(wire.len(), 1000 + 9);
        assert_eq!(Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn decode_rejects_bad_input() {
        assert!(Packet::decode(&[]).is_err());
        assert!(Packet::decode(&[3, 0xff, 0]).is_err()); // unknown type
        assert!(Packet::decode(&[5, 0x0c, 0]).is_err()); // declared 5, got 3
        assert!(Packet::decode(&[2, 0x05]).is_err()); // CONNACK missing code
                                                      // QoS bits 0b11 (QoS -1) rejected.
        let bad_pub = [8u8, 0x0c, 0x60, 0, 1, 0, 1, 0];
        assert!(Packet::decode(&bad_pub).is_err());
    }

    #[test]
    fn dup_and_retain_flags_roundtrip() {
        let p = Packet::Publish {
            dup: true,
            qos: QoS::AtLeastOnce,
            retain: true,
            topic: TopicRef::Predefined(5),
            msg_id: 2,
            payload: vec![],
        };
        roundtrip(p);
    }

    #[test]
    fn decode_borrowed_matches_owned_decode() {
        let publish = Packet::Publish {
            dup: true,
            qos: QoS::AtLeastOnce,
            retain: true,
            topic: TopicRef::Predefined(9),
            msg_id: 77,
            payload: vec![1, 2, 3],
        };
        let wire = publish.encode();
        match Packet::decode_borrowed(&wire).unwrap() {
            PacketRef::Publish { payload, .. } => assert_eq!(payload, &[1, 2, 3]),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            Packet::decode_borrowed(&wire).unwrap().into_owned(),
            publish
        );

        // Control traffic decodes owned, identically to Packet::decode.
        let connect = Packet::Connect {
            clean_session: false,
            duration: 30,
            client_id: "dev".into(),
        }
        .encode();
        assert_eq!(
            Packet::decode_borrowed(&connect).unwrap(),
            PacketRef::Owned(Packet::decode(&connect).unwrap())
        );

        // Rejections match too.
        assert!(Packet::decode_borrowed(&[]).is_err());
        assert!(Packet::decode_borrowed(&[5, 0x0c, 0]).is_err());
        let bad_qos = [8u8, 0x0c, 0x60, 0, 1, 0, 1, 0];
        assert!(Packet::decode_borrowed(&bad_qos).is_err());
    }

    #[test]
    fn encode_publish_into_matches_packet_encode_and_patches() {
        for payload_len in [0usize, 4, 300] {
            let payload = vec![0x5a; payload_len];
            let p = Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(12),
                msg_id: 41,
                payload: payload.clone(),
            };
            let mut wire = vec![0xEE; 3]; // pre-existing bytes must be preserved
            let w = encode_publish_into(
                false,
                QoS::AtLeastOnce,
                false,
                &TopicRef::Id(12),
                41,
                &payload,
                &mut wire,
            );
            assert_eq!(w.start, 3);
            assert_eq!(&wire[w.start..w.end], p.encode().as_slice());

            // Patching flags + msg id in place yields the re-encoded form.
            let q = Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(12),
                msg_id: 42,
                payload: payload.clone(),
            };
            wire[w.flags_at] = publish_flags(false, QoS::ExactlyOnce, false, &TopicRef::Id(12));
            wire[w.msg_id_at..w.msg_id_at + 2].copy_from_slice(&42u16.to_be_bytes());
            assert_eq!(&wire[w.start..w.end], q.encode().as_slice());
        }
    }

    #[test]
    fn frames_split_a_bundle_and_leave_a_lone_message_whole() {
        let rel = Packet::PubRel { msg_id: 7 }.encode();
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(3),
            msg_id: 8,
            payload: vec![0xab; 300], // long-form length prefix
        }
        .encode();
        let bundle = [rel.as_slice(), &publish, &rel].concat();
        let split: Vec<&[u8]> = frames(&bundle).collect();
        assert_eq!(split, [rel.as_slice(), &publish, &rel]);
        assert_eq!(frames(&publish).collect::<Vec<_>>(), [publish.as_slice()]);
    }

    #[test]
    fn a_glance_reads_the_kinds_the_hold_tells_apart() {
        let publish = |dup, payload: usize| Packet::Publish {
            dup,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(3),
            msg_id: 8,
            payload: vec![0xab; payload],
        };
        let puback = |code| Packet::PubAck {
            topic_id: 3,
            msg_id: 8,
            code,
        };
        let cases = [
            (publish(false, 3), Glance::Publish { dup: false }),
            // Long-form length prefix.
            (publish(true, 300), Glance::Publish { dup: true }),
            (Packet::PubRel { msg_id: 8 }, Glance::PubRel),
            (Packet::PubRec { msg_id: 8 }, Glance::Success),
            (Packet::PubComp { msg_id: 8 }, Glance::Success),
            (puback(ReturnCode::Accepted), Glance::Success),
            (puback(ReturnCode::Congestion), Glance::Other),
            (puback(ReturnCode::InvalidTopicId), Glance::Other),
            (Packet::PingReq, Glance::Other),
            (Packet::PingResp, Glance::Other),
            (Packet::CongestionAdvisory { level: 1 }, Glance::Other),
        ];
        for (packet, kind) in cases {
            assert_eq!(glance(&packet.encode()), kind, "{packet:?}");
        }
        assert_eq!(glance(&[]), Glance::Other);
        assert_eq!(glance(&[0x01, 0x00]), Glance::Other);
    }

    #[test]
    fn frames_end_at_a_prefix_that_cannot_be_followed() {
        let good = Packet::PubRel { msg_id: 7 }.encode();
        let tails: [&[u8]; 6] = [
            &[0, 1, 2, 3],          // zero length
            &[9, 0x0c, 0],          // longer than what is left
            &[0x01, 0x00],          // long form cut inside the prefix
            &[0x01, 0x00, 0x02, 0], // long form shorter than its own prefix
            &[0x01, 0x00, 0x03, 0], // long form with no room for a type
            &[0x01, 0x40, 0x00, 0], // long form longer than what is left
        ];
        for tail in tails {
            let datagram = [good.as_slice(), &good, tail].concat();
            let split: Vec<&[u8]> = frames(&datagram).collect();
            assert_eq!(split, [good.as_slice(), &good, tail], "{tail:02x?}");
            assert!(Packet::decode(tail).is_err(), "{tail:02x?}");
            // Alone in a datagram it is one frame too: garbage still counts once.
            assert_eq!(frames(tail).collect::<Vec<_>>(), [tail]);
        }
        // An empty datagram is one (empty) frame for the decoder to refuse.
        assert_eq!(frames(&[]).collect::<Vec<_>>(), [&[] as &[u8]]);
    }

    /// Checks what [`frames`] promises for any input: at least one frame,
    /// the frames tile the input in order (so each lies inside it and no
    /// two overlap), every frame but the last is one whole message by its
    /// own prefix, and the last is either that or something no decoder
    /// accepts. Returns the frames.
    fn assert_frames_tile(input: &[u8]) -> Vec<&[u8]> {
        let split: Vec<&[u8]> = frames(input).collect();
        assert!(!split.is_empty());
        let mut at = input.as_ptr();
        for frame in &split {
            assert_eq!(frame.as_ptr(), at, "frames must be adjacent and in order");
            at = at.wrapping_add(frame.len());
        }
        assert_eq!(at, input.as_ptr().wrapping_add(input.len()));
        let whole =
            |f: &[u8]| matches!(length_prefix(f), Ok((n, prefix)) if n == f.len() && n > prefix);
        let (last, init) = split.split_last().unwrap();
        assert!(init.iter().all(|f| whole(f)), "{split:02x?}");
        assert!(whole(last) || Packet::decode(last).is_err(), "{last:02x?}");
        split
    }

    /// Any packet variant, with field values that survive a round trip.
    pub(crate) fn arb_packet() -> impl Strategy<Value = Packet> {
        let fields = (
            0u8..15,
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
            "[a-z0-9/]{1,12}",
            proptest::collection::vec(any::<u8>(), 0..400),
        );
        // SUBSCRIBE and UNSUBSCRIBE name their topic in any of three ways.
        let topic = |b: u16, name: String| match b % 3 {
            0 => TopicRef::Name(name),
            1 => TopicRef::Id(b),
            _ => TopicRef::Predefined(b),
        };
        fields.prop_map(move |(kind, a, b, flag, name, payload)| match kind {
            0 => Packet::Connect {
                clean_session: flag,
                duration: a,
                client_id: name,
            },
            1 => Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            2 => Packet::Register {
                topic_id: a,
                msg_id: b,
                topic_name: name,
            },
            3 => Packet::RegAck {
                topic_id: a,
                msg_id: b,
                code: ReturnCode::InvalidTopicId,
            },
            4 | 5 => Packet::Publish {
                dup: flag,
                qos: if kind == 4 {
                    QoS::ExactlyOnce
                } else {
                    QoS::AtMostOnce
                },
                retain: false,
                topic: TopicRef::Id(a),
                msg_id: b,
                payload,
            },
            6 => Packet::PubAck {
                topic_id: a,
                msg_id: b,
                code: ReturnCode::Congestion,
            },
            7 => Packet::PubRec { msg_id: a },
            8 => Packet::PubRel { msg_id: a },
            9 => Packet::PubComp { msg_id: a },
            10 => Packet::Subscribe {
                dup: flag,
                qos: QoS::AtLeastOnce,
                msg_id: a,
                topic: topic(b, name),
            },
            11 => Packet::PingReq,
            12 => Packet::Disconnect {
                duration: flag.then_some(a),
            },
            13 => Packet::Unsubscribe {
                msg_id: a,
                topic: topic(b, name),
            },
            _ => Packet::CongestionAdvisory { level: a as u8 },
        })
    }

    /// What `packet` comes back as: itself, but that a registered id in a
    /// SUBSCRIBE or UNSUBSCRIBE travels in the predefined form (see
    /// [`TopicRef::Id`]).
    fn as_decoded(mut packet: Packet) -> Packet {
        if let Packet::Subscribe { topic, .. } | Packet::Unsubscribe { topic, .. } = &mut packet {
            if let TopicRef::Id(id) = *topic {
                *topic = TopicRef::Predefined(id);
            }
        }
        packet
    }

    /// One valid message of every type, and of every kind the hold tells
    /// apart (a PUBACK that accepts and one that refuses, a DUP PUBLISH,
    /// a long-form length prefix).
    fn every_type() -> Vec<Packet> {
        let publish = |dup, qos, payload: usize| Packet::Publish {
            dup,
            qos,
            retain: !dup,
            topic: TopicRef::Predefined(5),
            msg_id: 0x0102,
            payload: vec![0x60; payload],
        };
        let puback = |code| Packet::PubAck {
            topic_id: 3,
            msg_id: 9,
            code,
        };
        vec![
            Packet::Advertise {
                gw_id: 1,
                duration: 900,
            },
            Packet::SearchGw { radius: 2 },
            Packet::GwInfo { gw_id: 1 },
            Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: "dev".into(),
            },
            Packet::ConnAck {
                code: ReturnCode::NotSupported,
            },
            Packet::Register {
                topic_id: 0,
                msg_id: 7,
                topic_name: "w/d".into(),
            },
            Packet::RegAck {
                topic_id: 12,
                msg_id: 7,
                code: ReturnCode::Accepted,
            },
            publish(false, QoS::ExactlyOnce, 4),
            publish(true, QoS::AtLeastOnce, 300),
            publish(false, QoS::AtMostOnce, 0),
            puback(ReturnCode::Accepted),
            puback(ReturnCode::Congestion),
            Packet::PubRec { msg_id: 9 },
            Packet::PubRel { msg_id: 9 },
            Packet::PubComp { msg_id: 9 },
            Packet::Subscribe {
                dup: false,
                qos: QoS::ExactlyOnce,
                msg_id: 4,
                topic: TopicRef::Name("w/#".into()),
            },
            Packet::SubAck {
                qos: QoS::AtLeastOnce,
                topic_id: 0,
                msg_id: 4,
                code: ReturnCode::Accepted,
            },
            Packet::Unsubscribe {
                msg_id: 5,
                topic: TopicRef::Predefined(8),
            },
            Packet::UnsubAck { msg_id: 5 },
            Packet::PingReq,
            Packet::PingResp,
            Packet::Disconnect { duration: Some(30) },
            Packet::Disconnect { duration: None },
            Packet::CongestionAdvisory { level: 2 },
        ]
    }

    /// The kind [`glance`] must read a message as that decodes to `packet`.
    fn kind_of(packet: &Packet) -> Glance {
        match packet {
            Packet::Publish { dup, .. } => Glance::Publish { dup: *dup },
            Packet::PubRel { .. } => Glance::PubRel,
            Packet::PubRec { .. } | Packet::PubComp { .. } => Glance::Success,
            Packet::PubAck { code, .. } if *code == ReturnCode::Accepted => Glance::Success,
            _ => Glance::Other,
        }
    }

    /// Every frame of `bytes` that [`Packet::decode`] accepts glances as
    /// the kind it decoded to, and re-encodes to bytes that decode to the
    /// same packet.
    fn assert_glance_agrees_with_decode(bytes: &[u8]) {
        for frame in frames(bytes) {
            let Ok(packet) = Packet::decode(frame) else {
                continue;
            };
            assert_eq!(glance(frame), kind_of(&packet), "{frame:02x?}");
            let again = Packet::decode(&packet.encode());
            assert_eq!(again.as_ref(), Ok(&packet), "{frame:02x?}");
        }
    }

    /// `bytes`, cut at every length, and with every byte in turn set to
    /// 0x00, to 0xFF and flipped in one bit.
    fn hostile(bytes: &[u8], flip: u8) -> impl Iterator<Item = Vec<u8>> + '_ {
        let cuts = (0..=bytes.len()).map(|len| bytes[..len].to_vec());
        let damaged = (0..bytes.len()).flat_map(move |at| {
            [0x00, 0xFF, bytes[at] ^ (1 << (flip % 8))].map(|byte| {
                let mut damaged = bytes.to_vec();
                damaged[at] = byte;
                damaged
            })
        });
        cuts.chain(damaged)
    }

    #[test]
    fn a_glance_agrees_with_decode_on_every_type_under_hostile_bytes() {
        for packet in every_type() {
            let wire = packet.encode();
            assert_eq!(glance(&wire), kind_of(&packet), "{packet:?}");
            for flip in 0..8 {
                hostile(&wire, flip).for_each(|bytes| assert_glance_agrees_with_decode(&bytes));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_frames_tile_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            for frame in assert_frames_tile(&bytes) {
                let _ = Packet::decode(frame);
                let _ = Packet::decode_borrowed(frame);
            }
        }

        #[test]
        fn prop_bundle_roundtrips_every_packet(
            packets in proptest::collection::vec(arb_packet(), 1..6),
        ) {
            let mut bundle = Vec::new();
            for p in &packets {
                p.encode_into(&mut bundle);
            }
            let decoded: Vec<Packet> = assert_frames_tile(&bundle)
                .into_iter()
                .map(|frame| Packet::decode(frame).unwrap())
                .collect();
            let sent: Vec<Packet> = packets.into_iter().map(as_decoded).collect();
            prop_assert_eq!(decoded, sent);
        }

        #[test]
        fn prop_frames_survive_a_damaged_bundle(
            packets in proptest::collection::vec(arb_packet(), 1..5),
            cut in 0usize..2048,
            flip in 0usize..2048,
            mask in 1u8..=255,
        ) {
            let mut bundle = Vec::new();
            for p in &packets {
                p.encode_into(&mut bundle);
            }
            bundle.truncate(cut % (bundle.len() + 1));
            if !bundle.is_empty() {
                let at = flip % bundle.len();
                bundle[at] ^= mask;
            }
            for frame in assert_frames_tile(&bundle) {
                let _ = Packet::decode_borrowed(frame);
            }
        }

        #[test]
        fn prop_publish_roundtrip(
            dup: bool,
            retain: bool,
            id: u16,
            msg_id: u16,
            payload in proptest::collection::vec(any::<u8>(), 0..2048),
            qos_sel in 0u8..3,
        ) {
            let qos = match qos_sel {
                0 => QoS::AtMostOnce,
                1 => QoS::AtLeastOnce,
                _ => QoS::ExactlyOnce,
            };
            let p = Packet::Publish {
                dup, qos, retain,
                topic: TopicRef::Id(id),
                msg_id,
                payload,
            };
            let wire = p.encode();
            prop_assert_eq!(Packet::decode(&wire).unwrap(), p);
        }

        #[test]
        fn prop_a_glance_agrees_with_decode_in_a_damaged_bundle(
            packets in proptest::collection::vec(arb_packet(), 1..5),
            flip: u8,
        ) {
            let mut bundle = Vec::new();
            for p in &packets {
                p.encode_into(&mut bundle);
            }
            assert_glance_agrees_with_decode(&bundle);
            for damaged in hostile(&bundle, flip) {
                assert_glance_agrees_with_decode(&damaged);
            }
        }

        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = Packet::decode(&bytes);
        }

        #[test]
        fn prop_decode_borrowed_equivalent(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            match (Packet::decode(&bytes), Packet::decode_borrowed(&bytes)) {
                (Ok(p), Ok(r)) => prop_assert_eq!(p, r.into_owned()),
                (Err(_), Err(_)) => {}
                (p, r) => prop_assert!(false, "accept/reject divergence: {p:?} vs {r:?}"),
            }
        }

        #[test]
        fn prop_connect_roundtrip(clean: bool, duration: u16, id in "[a-zA-Z0-9_-]{1,23}") {
            let p = Packet::Connect { clean_session: clean, duration, client_id: id };
            let wire = p.encode();
            prop_assert_eq!(Packet::decode(&wire).unwrap(), p);
        }
    }
}
