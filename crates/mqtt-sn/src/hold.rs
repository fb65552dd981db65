//! The stream holds: which acknowledgements each end of the device leg keeps
//! back, and when they leave — decided here, on [`Nanos`] clocks, without
//! a socket.
//!
//! A device that publishes faster than it needs each answer *streams*, and
//! both ends hold what a stream can wait for, the way TCP's delayed ACK
//! (RFC 1122 §4.2.3.2) answers a stream once per window rather than once
//! per segment:
//!
//! - [`GatewayHold`] keeps back the PUBREC, PUBCOMP or accepted PUBACK that
//!   answers a streaming PUBLISH, and sends what it holds for one device as
//!   one datagram;
//! - [`DeviceHold`] turns the packets a [`Client`] sends into datagrams: it
//!   keeps a PUBREL back for the next datagram to carry, and knows when
//!   what the gateway holds for the device's stream has left.
//!
//! Both ends ask one question, `continues`, of every PUBLISH. Each hold
//! hands the datagrams it sends to a callback; the socket is the caller's.

use crate::broker::{BrokerOutputs, MERGED_DATAGRAM_MAX};
use crate::client::{Client, ClientConfig, Nanos};
use crate::packet::{frames, glance, Glance, Packet, QoS};
use std::collections::HashMap;
use std::hash::Hash;

/// A PUBLISH that arrives within this of its device's previous one
/// continues a stream, and what the gateway holds for a stream leaves at
/// its first release this long after the first of it was held.
pub const STREAM_GAP: Nanos = 10_000_000;
/// The device's side of [`STREAM_GAP`]: a PUBLISH that leaves within this
/// of the device's previous one continues its stream, and what the gateway
/// holds for a stream has left by this long after its last PUBLISH. Twice
/// the gateway's figure, because the two ends may disagree one way only: a
/// device that counts a publish as streaming when its gateway does not
/// reads the answer a little later, but one that waited on its socket for
/// an answer the gateway held would block for the length of the hold — and
/// a datagram that waited in a socket buffer makes the gap the gateway
/// measures shorter than the one its device did.
pub(crate) const DEVICE_STREAM_GAP: Nanos = 2 * STREAM_GAP;
/// Hold buffers the gateway keeps for reuse once their streams have ended.
const SPARE_HOLDS: usize = 64;
/// Encoded size of a PUBREL: length, type, message id.
const PUBREL_LEN: usize = 4;
/// Encoded size of a PINGREQ without a client id: length, type.
const PINGREQ_LEN: usize = 2;
/// Largest payload a UDP datagram carries over IPv4 (65 535 less the IP
/// and UDP headers).
const UDP_PAYLOAD_MAX: usize = 65_507;

/// Where the gateway's datagrams go: each to the device at its address.
pub type ToDevice<'a, A> = &'a mut dyn FnMut(&A, &[u8]);
/// Where a device's datagrams go, and how sending one can fail.
pub type ToGateway<'a, E> = &'a mut dyn FnMut(&[u8]) -> Result<(), E>;

/// Whether a PUBLISH at `now` continues the stream whose last PUBLISH was
/// at `last`: it is no retransmission (`dup`), and it follows within
/// `gap` — [`STREAM_GAP`] at the gateway, [`DEVICE_STREAM_GAP`] on the
/// device.
pub(crate) fn continues(dup: bool, last: Option<Nanos>, now: Nanos, gap: Nanos) -> bool {
    !dup && last.is_some_and(|at| now.saturating_sub(at) < gap)
}

/// The success acknowledgements a gateway owes its *streaming* devices and
/// has not sent yet, over any address type `A`, like
/// [`Broker`](crate::broker::Broker). A device whose PUBLISH continues a
/// stream (`continues` with [`STREAM_GAP`]) publishes faster than it
/// needs each answer, so the PUBREC, PUBCOMP or accepted PUBACK that
/// answers such a datagram waits. What is held for one device leaves as one
/// datagram of at most 1232 bytes, at the first release [`STREAM_GAP`] or
/// more after the first of it was held, or earlier, in front of anything
/// else going to that device. The rest is answered at once, with what is
/// held in front:
///
/// - a datagram that carries no PUBLISH: a device that sends PUBRELs or a
///   PINGREQ on their own is waiting for its answers;
/// - a PUBLISH that starts a stream, a DUP PUBLISH, and a PUBLISH with
///   anything but PUBRELs beside it in its datagram;
/// - a reply that is no success acknowledgement: a refusal, a congestion
///   advisory, CONNACK, REGACK, SUBACK, PINGRESP;
/// - a fan-out PUBLISH, which still travels alone.
///
/// To its device a held acknowledgement is a late one, and nothing is
/// retransmitted before `Tretry`. A serve batch is answered by
/// [`GatewayHold::note`] for each datagram read, then
/// [`GatewayHold::flush`] of the broker's replies.
pub struct GatewayHold<A> {
    streams: HashMap<A, Stream>,
    /// Serve batches answered so far, plus one: the one being answered.
    batch: u64,
    /// Devices that sent a datagram to be answered at once while something
    /// was held for them: what is held leaves at this flush even if the
    /// datagram draws no reply (a PUBACK a subscribing device sends).
    asked: Vec<A>,
    /// Buffers of streams that ended, for the next ones.
    spare: Vec<Vec<u8>>,
}

/// A device that has published lately, as its gateway sees it.
struct Stream {
    /// When its last PUBLISH came in.
    last_publish: Nanos,
    /// The last batch in which it sent a datagram that continued its
    /// stream, and the last in which it sent one to be answered at once.
    /// Its replies in a batch may wait only when the first is that batch
    /// and the second is not.
    continued: u64,
    prompted: u64,
    /// Its held acknowledgements, back to back, and when the first of them
    /// was held.
    acks: Vec<u8>,
    since: Option<Nanos>,
}

impl Stream {
    /// Hands what is held to `send` as one datagram.
    fn leave<A>(&mut self, to: &A, send: ToDevice<A>) {
        if !self.acks.is_empty() {
            send(to, &self.acks);
            self.acks.clear();
            self.since = None;
        }
    }
}

impl<A: Copy + Eq + Hash> Default for GatewayHold<A> {
    fn default() -> Self {
        GatewayHold {
            streams: HashMap::new(),
            batch: 1,
            asked: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<A: Copy + Eq + Hash> GatewayHold<A> {
    /// Notes a datagram of the serve batch being answered, read from `from`
    /// at `now`: whether it continues its device's stream.
    pub fn note(&mut self, from: &A, datagram: &[u8], now: Nanos) {
        // lint: zero-alloc-begin
        let (mut publish, mut dup, mut other) = (false, false, false);
        for message in frames(datagram) {
            match glance(message) {
                Glance::Publish { dup: again } => {
                    publish = true;
                    dup |= again;
                }
                Glance::PubRel => {}
                Glance::Success | Glance::Other => other = true,
            }
        }
        let batch = self.batch;
        match self.streams.get_mut(from) {
            Some(stream) => {
                let last = Some(stream.last_publish);
                if publish && !other && continues(dup, last, now, STREAM_GAP) {
                    stream.continued = batch;
                } else {
                    stream.prompted = batch;
                    if stream.since.is_some() {
                        self.asked.push(*from);
                    }
                }
                if publish {
                    stream.last_publish = now;
                }
            }
            None if publish => {
                let stream = Stream {
                    last_publish: now,
                    continued: 0,
                    prompted: batch,
                    acks: self.spare.pop().unwrap_or_default(),
                    since: None,
                };
                self.streams.insert(*from, stream);
            }
            None => {}
        }
        // lint: zero-alloc-end
    }

    /// Answers the batch: hands `send` the replies in `out`, merged one
    /// datagram per device (see [`BrokerOutputs::emit_merged`]), except
    /// those it holds, and clears `out`; then what was held for a device
    /// that asked in this batch, and what has been held long enough by
    /// `now`.
    pub fn flush(&mut self, out: &mut BrokerOutputs<A>, now: Nanos, send: ToDevice<A>) {
        out.emit_merged(|to, bytes| self.answer(to, bytes, now, send));
        out.clear();
        for to in self.asked.drain(..) {
            if let Some(stream) = self.streams.get_mut(&to) {
                stream.leave(&to, send);
            }
        }
        self.release(now, send);
        self.batch += 1;
    }

    /// Sends one datagram's worth of this batch's replies to `to`, or holds
    /// it.
    fn answer(&mut self, to: &A, bytes: &[u8], now: Nanos, send: ToDevice<A>) {
        // lint: zero-alloc-begin
        let batch = self.batch;
        let Some(stream) = self.streams.get_mut(to) else {
            return send(to, bytes);
        };
        let fits = stream.acks.len() + bytes.len() <= MERGED_DATAGRAM_MAX;
        let waits = stream.continued == batch
            && stream.prompted != batch
            && frames(bytes).all(|message| glance(message) == Glance::Success);
        if waits {
            if !fits {
                stream.leave(to, send);
            }
            stream.acks.extend_from_slice(bytes);
            stream.since.get_or_insert(now);
            return;
        }
        let fan_out = matches!(glance(bytes), Glance::Publish { .. });
        if fits && !fan_out && !stream.acks.is_empty() {
            stream.acks.extend_from_slice(bytes);
            return stream.leave(to, send);
        }
        stream.leave(to, send);
        send(to, bytes);
        // lint: zero-alloc-end
    }

    /// Hands `send` what has been held for [`STREAM_GAP`] by `now`: all of
    /// it at `Nanos::MAX`.
    pub(crate) fn release(&mut self, now: Nanos, send: ToDevice<A>) {
        for (to, stream) in &mut self.streams {
            let Some(since) = stream.since else { continue };
            if since.saturating_add(STREAM_GAP) <= now {
                stream.leave(to, send);
            }
        }
    }

    /// Forgets the devices that stopped streaming — nothing held, no
    /// PUBLISH for [`STREAM_GAP`] — keeping some of their buffers.
    pub(crate) fn prune(&mut self, now: Nanos) {
        let spare = &mut self.spare;
        self.streams.retain(|_, stream| {
            let streaming = stream.since.is_some()
                || continues(false, Some(stream.last_publish), now, STREAM_GAP);
            if !streaming && spare.len() < SPARE_HOLDS {
                spare.push(std::mem::take(&mut stream.acks));
            }
            streaming
        });
    }
}

/// The device's way from its [`Client`] to the wire: every packet the
/// client sends goes through [`DeviceHold::send`], which hands the
/// datagrams to send to a callback.
///
/// A PUBREL is not sent but held: it moves no data — the gateway fanned
/// the publish out when it first saw it — so it can wait for company.
/// Anything else leaves at once, with the held PUBRELs in front of it in
/// the same datagram, except session control (CONNECT, REGISTER,
/// SUBSCRIBE, UNSUBSCRIBE), which always travels alone, after the held
/// PUBRELs have left on their own. Nothing else is ever held, and no
/// message id is held twice.
///
/// It also keeps the device's view of its stream: whether the gateway may
/// be holding acknowledgements for it, when that has left, and how to ask
/// for it at once.
#[derive(Default)]
pub struct DeviceHold {
    /// The held PUBRELs, encoded back to back.
    held: Vec<u8>,
    /// Bytes `held` may reach: one PUBREL per slot of the in-flight window
    /// is all that live handshakes can owe.
    cap: usize,
    /// When the oldest held PUBREL leaves alone, company or not: half a
    /// `Tretry` after it was held, so always before its slot's retransmit
    /// timer (which started when the PUBREC came in) could ask for it
    /// again. `None` while nothing is held.
    release_by: Option<Nanos>,
    /// Half of `ClientConfig::retry_timeout`, the tick period
    /// [`Client::on_tick`] asks for.
    hold_for: Nanos,
    /// Reused for every outbound datagram.
    wbuf: Vec<u8>,
    /// A QoS 0 PUBLISH has left since the socket was last read. Nothing
    /// acknowledges it, but the gateway answers a publish of any QoS with
    /// a congestion advisory when its level has risen, so one read is owed.
    qos0_unheard: bool,
    /// When the last PUBLISH left.
    last_publish: Option<Nanos>,
    /// When the last QoS 1/2 PUBLISH that continued a stream left, while
    /// the gateway may be holding acknowledgements for it: until a
    /// datagram the gateway answers at once leaves, or nothing is owed.
    stream: Option<Nanos>,
    /// The next PUBLISH carries a PINGREQ behind it, should it continue a
    /// stream, so the gateway answers it at once.
    asking: bool,
}

impl DeviceHold {
    /// The hold of a client configured with `config`.
    pub fn new(config: &ClientConfig) -> DeviceHold {
        DeviceHold {
            cap: PUBREL_LEN * config.max_inflight.max(1),
            hold_for: (config.retry_timeout / 2).as_nanos() as Nanos,
            ..DeviceHold::default()
        }
    }

    /// Hands `send` the datagram, if any, that carries `p` sent at `now`,
    /// with the held PUBRELs in front, or holds `p` (see [`DeviceHold`]). A
    /// PUBLISH that continues a stream carries a PINGREQ behind it when its
    /// caller is about to block on it. A PUBREL asked for again while its
    /// first copy is held sends that copy, which is the retransmission.
    pub fn send<E>(&mut self, p: &Packet, now: Nanos, send: ToGateway<E>) -> Result<(), E> {
        if let Packet::PubRel { msg_id } = p {
            // Length, type, then the id: see `PUBREL_LEN`.
            let id = msg_id.to_be_bytes();
            let mut held = self.held.chunks_exact(PUBREL_LEN);
            if held.any(|pubrel| pubrel[2..] == id) {
                return self.release(send);
            }
            if self.held.len() >= self.cap {
                self.release(send)?;
            }
            // lint: zero-alloc-begin
            p.encode_into(&mut self.held);
            // lint: zero-alloc-end
            self.release_by
                .get_or_insert(now.saturating_add(self.hold_for));
            return Ok(());
        }
        let alone = matches!(
            p,
            Packet::Connect { .. }
                | Packet::Register { .. }
                | Packet::Subscribe { .. }
                | Packet::Unsubscribe { .. }
        );
        if alone {
            self.release(send)?;
        }
        // lint: zero-alloc-begin
        let riders = self.take_held();
        p.encode_into(&mut self.wbuf);
        // lint: zero-alloc-end
        let asking = std::mem::take(&mut self.asking);
        self.stream = match p {
            Packet::Publish { dup, qos, .. } => {
                let streams = continues(*dup, self.last_publish, now, DEVICE_STREAM_GAP);
                self.last_publish = Some(now);
                let asks = streams
                    && asking
                    && *qos != QoS::AtMostOnce
                    && self.wbuf.len() + PINGREQ_LEN <= UDP_PAYLOAD_MAX;
                if asks {
                    // lint: zero-alloc-begin
                    Packet::PingReq.encode_into(&mut self.wbuf);
                    // lint: zero-alloc-end
                }
                match (streams && !asks, qos) {
                    (false, _) => None,
                    // Owed nothing: what may be held stays as it was.
                    (true, QoS::AtMostOnce) => self.stream,
                    (true, _) => Some(now),
                }
            }
            // Answered at once, with whatever is held in front.
            _ => None,
        };
        if self.wbuf.len() > UDP_PAYLOAD_MAX && riders > 0 {
            // Together they exceed what UDP carries: two sends.
            let (acks, packet) = self.wbuf.split_at(riders);
            send(acks)?;
            send(packet)?;
        } else {
            send(&self.wbuf)?;
        }
        if let Packet::Publish { qos, .. } = p {
            self.qos0_unheard |= *qos == QoS::AtMostOnce;
        }
        Ok(())
    }

    /// Whether the next PUBLISH asks to be answered at once, should it
    /// continue a stream: set by a caller about to block on it.
    pub(crate) fn ask_next(&mut self, asking: bool) {
        self.asking = asking;
    }

    /// Starts a datagram in `wbuf` with the held PUBRELs, which are held no
    /// longer; returns how many bytes they are.
    fn take_held(&mut self) -> usize {
        self.wbuf.clear();
        self.wbuf.append(&mut self.held);
        self.release_by = None;
        self.wbuf.len()
    }

    /// Hands `send` the held PUBRELs as one datagram of their own, which
    /// the gateway answers at once.
    pub(crate) fn release<E>(&mut self, send: ToGateway<E>) -> Result<(), E> {
        if self.take_held() > 0 {
            self.stream = None;
            send(&self.wbuf)?;
        }
        Ok(())
    }

    /// A blocking read is about to start: what is held leaves first, so
    /// nobody waits on an acknowledgement that is held, and the read hears
    /// whatever a QoS 0 PUBLISH drew.
    pub(crate) fn read_starts<E>(&mut self, send: ToGateway<E>) -> Result<(), E> {
        self.qos0_unheard = false;
        self.release(send)
    }

    /// The timers at `now`: what is held past its release time leaves
    /// alone.
    pub(crate) fn tick<E>(&mut self, now: Nanos, send: ToGateway<E>) -> Result<(), E> {
        if self.release_by.is_some_and(|at| at <= now) {
            return self.release(send);
        }
        Ok(())
    }

    /// Asks the gateway for what it may be holding for this device's
    /// stream: the held PUBRELs leave on their own or, none being held, a
    /// PINGREQ does, and the gateway answers either at once with
    /// everything it holds in front. Sends nothing while nothing can be
    /// held.
    pub(crate) fn ask<E>(&mut self, client: &Client, send: ToGateway<E>) -> Result<(), E> {
        if self.stream.is_none() || !self.owed(client) {
            return Ok(());
        }
        if !self.held.is_empty() {
            return self.release(send);
        }
        self.stream = None;
        self.wbuf.clear();
        // lint: zero-alloc-begin
        Packet::PingReq.encode_into(&mut self.wbuf);
        // lint: zero-alloc-end
        send(&self.wbuf)
    }

    /// What `client` answered to a read has been sent: a stream that is
    /// owed nothing more is over.
    pub(crate) fn answered(&mut self, client: &Client) {
        if !self.owed(client) {
            self.stream = None;
        }
    }

    /// The link is new: the held PUBRELs go with the old one — a resumed
    /// session re-emits the PUBREL of every handshake still in that phase —
    /// and so does what the old gateway held, for the new one answers at
    /// once.
    pub(crate) fn reset(&mut self) {
        self.held.clear();
        self.release_by = None;
        self.stream = None;
        self.last_publish = None;
    }

    /// Whether the gateway may be holding acknowledgements for this
    /// device's stream.
    pub(crate) fn streaming(&self) -> bool {
        self.stream.is_some()
    }

    /// Whether a handshake of `client` waits on the gateway: a PUBLISH
    /// without its PUBREC or PUBACK, or a PUBREL that has left without its
    /// PUBCOMP. A handshake whose PUBREL is still held waits on the device.
    fn owed(&self, client: &Client) -> bool {
        client.inflight_len() > self.held.len() / PUBREL_LEN
    }

    /// Whether a datagram from the gateway can be on its way to `client`
    /// at `now`: a PUBLISH without its PUBREC or PUBACK, a PUBREL that has
    /// left without its PUBCOMP, a control transaction, a PINGREQ — or the
    /// advisory a QoS 0 PUBLISH may have drawn. A handshake whose PUBREL is
    /// still held is owed nothing until the PUBREL leaves, and the
    /// acknowledgements of a stream are not on their way until the gateway
    /// lets its hold go, by [`DEVICE_STREAM_GAP`] after the stream's last
    /// PUBLISH.
    pub(crate) fn reply_expected(&self, client: &Client, now: Nanos) -> bool {
        let held = continues(false, self.stream, now, DEVICE_STREAM_GAP);
        (self.owed(client) && !held) || client.control_outstanding() || self.qos0_unheard
    }

    /// The earliest time at which [`DeviceHold::tick`] lets a held PUBREL
    /// go, or what the gateway may hold for this device's stream has left.
    pub(crate) fn next_deadline(&self) -> Option<Nanos> {
        let stream = self
            .stream
            .map(|last| last.saturating_add(DEVICE_STREAM_GAP));
        self.release_by.into_iter().chain(stream).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::{Broker, BrokerConfig};
    use crate::client::{ClientEvent, Output};
    use crate::packet::{ReturnCode, TopicRef};
    use proptest::prelude::*;
    use std::collections::VecDeque;
    use std::time::Duration;

    const MS: Nanos = 1_000_000;
    /// The device's address at the gateway.
    const DEV: u8 = 1;

    fn packets(datagram: &[u8]) -> Vec<Packet> {
        frames(datagram)
            .map(|f| Packet::decode(f).unwrap())
            .collect()
    }

    fn publish(msg_id: u16, qos: QoS, dup: bool, topic: u16) -> Vec<u8> {
        let publish = Packet::Publish {
            dup,
            qos,
            retain: false,
            topic: TopicRef::Id(topic),
            msg_id,
            payload: vec![msg_id as u8],
        };
        publish.encode()
    }

    /// A broker and its acknowledgement hold, served the way `net::serve`
    /// serves them, on virtual time.
    struct Gateway {
        broker: Broker<u8>,
        hold: GatewayHold<u8>,
        out: BrokerOutputs<u8>,
    }

    impl Gateway {
        /// A gateway [`DEV`] is connected to and has registered a topic
        /// with; and the topic's id.
        fn new() -> (Gateway, u16) {
            let mut gw = Gateway {
                broker: Broker::new(BrokerConfig::default()),
                hold: GatewayHold::default(),
                out: BrokerOutputs::new(),
            };
            let connect = Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: "dev".into(),
            };
            gw.batch(0, &[connect.encode()]);
            let register = Packet::Register {
                topic_id: 0,
                msg_id: 1,
                topic_name: "s/dev".into(),
            };
            match gw.batch(0, &[register.encode()])[..] {
                [(_, ref answer)] => match answer[..] {
                    [Packet::RegAck { topic_id, .. }] => (gw, topic_id),
                    ref other => panic!("unexpected {other:?}"),
                },
                ref other => panic!("unexpected {other:?}"),
            }
        }

        /// One serve batch of datagrams from [`DEV`] read at `now`: what
        /// leaves, as raw datagrams and split into packets.
        fn batch(&mut self, now: Nanos, datagrams: &[Vec<u8>]) -> Vec<(Vec<u8>, Vec<Packet>)> {
            for datagram in datagrams {
                self.hold.note(&DEV, datagram, now);
                for message in frames(datagram) {
                    let _ = self
                        .broker
                        .on_datagram_into(now, DEV, message, &mut self.out);
                }
            }
            let mut sent = Vec::new();
            let mut collect = |_: &u8, bytes: &[u8]| sent.push((bytes.to_vec(), packets(bytes)));
            self.hold.flush(&mut self.out, now, &mut collect);
            sent
        }

        /// The serve loop's wake at `now` with nothing read: what leaves.
        fn release(&mut self, now: Nanos) -> Vec<Vec<Packet>> {
            let mut sent = Vec::new();
            self.hold
                .release(now, &mut |_, bytes| sent.push(packets(bytes)));
            sent
        }

        /// The bytes held for [`DEV`].
        fn held(&self) -> usize {
            self.hold.streams.get(&DEV).map_or(0, |s| s.acks.len())
        }
    }

    /// [`Gateway::batch`] of one datagram, packets only.
    fn answer(gw: &mut Gateway, now: Nanos, datagram: Vec<u8>) -> Vec<Vec<Packet>> {
        let sent = gw.batch(now, &[datagram]);
        sent.into_iter().map(|(_, packets)| packets).collect()
    }

    fn pubrecs(ids: &[u16]) -> Vec<Packet> {
        ids.iter()
            .map(|&msg_id| Packet::PubRec { msg_id })
            .collect()
    }

    #[test]
    fn a_streams_pubrecs_leave_as_one_datagram_a_gap_after_the_first_was_held() {
        let (mut gw, tid) = Gateway::new();
        let qos2 = |id| publish(id, QoS::ExactlyOnce, false, tid);
        assert_eq!(answer(&mut gw, 0, qos2(1)), [pubrecs(&[1])]);
        assert!(answer(&mut gw, 2 * MS, qos2(2)).is_empty());
        assert!(answer(&mut gw, 4 * MS, qos2(3)).is_empty());
        assert!(gw.release(2 * MS + STREAM_GAP - 1).is_empty());
        assert_eq!(gw.release(2 * MS + STREAM_GAP), [pubrecs(&[2, 3])]);
        assert!(gw.release(Nanos::MAX).is_empty(), "sent once");
    }

    #[test]
    fn a_stream_start_a_dup_or_no_publish_is_answered_at_once_behind_what_is_held() {
        let (mut gw, tid) = Gateway::new();
        let qos2 = |id| publish(id, QoS::ExactlyOnce, false, tid);
        // The start of a stream.
        assert_eq!(answer(&mut gw, 0, qos2(1)), [pubrecs(&[1])]);
        assert!(answer(&mut gw, MS, qos2(2)).is_empty());
        // A DUP PUBLISH.
        let dup = publish(3, QoS::ExactlyOnce, true, tid);
        assert_eq!(answer(&mut gw, 2 * MS, dup), [pubrecs(&[2, 3])]);
        // A datagram without a PUBLISH: lone PUBRELs, a PINGREQ.
        assert!(answer(&mut gw, 3 * MS, qos2(4)).is_empty());
        let pubrel = Packet::PubRel { msg_id: 1 }.encode();
        assert_eq!(
            answer(&mut gw, 4 * MS, pubrel),
            [vec![
                Packet::PubRec { msg_id: 4 },
                Packet::PubComp { msg_id: 1 }
            ]]
        );
        assert!(answer(&mut gw, 5 * MS, qos2(5)).is_empty());
        assert_eq!(
            answer(&mut gw, 6 * MS, Packet::PingReq.encode()),
            [vec![Packet::PubRec { msg_id: 5 }, Packet::PingResp]]
        );
        // A pause ends the stream: the next PUBLISH starts one.
        let later = 6 * MS + STREAM_GAP;
        assert_eq!(answer(&mut gw, later, qos2(6)), [pubrecs(&[6])]);
        assert!(gw.release(Nanos::MAX).is_empty());
    }

    #[test]
    fn a_fan_out_publish_travels_alone() {
        let (mut gw, tid) = Gateway::new();
        let subscribe = Packet::Subscribe {
            dup: false,
            qos: QoS::AtLeastOnce,
            msg_id: 2,
            topic: TopicRef::Name("s/dev".into()),
        };
        gw.batch(0, &[subscribe.encode()]);
        let mut sent = Vec::new();
        for i in 1..=20u16 {
            let now = Nanos::from(i) * MS;
            let datagram = publish(100 + i, QoS::ExactlyOnce, false, tid);
            sent.extend(answer(&mut gw, now, datagram));
        }
        sent.extend(gw.release(Nanos::MAX));
        let fan_outs = sent
            .iter()
            .filter(|d| d.iter().any(|p| matches!(p, Packet::Publish { .. })));
        assert_eq!(fan_outs.clone().count(), 20);
        assert!(fan_outs.clone().all(|d| d.len() == 1), "{sent:?}");
        let recs = sent.iter().flatten();
        let recs = recs.filter(|p| matches!(p, Packet::PubRec { .. }));
        assert_eq!(recs.count(), 20);
    }

    #[test]
    fn held_bytes_never_exceed_one_merged_datagram() {
        let (mut gw, tid) = Gateway::new();
        const N: u16 = 600;
        let mut acks = 0;
        for i in 1..=N {
            let datagram = publish(i, QoS::AtLeastOnce, false, tid);
            for (bytes, packets) in gw.batch(Nanos::from(i) * 1_000, &[datagram]) {
                assert!(bytes.len() <= MERGED_DATAGRAM_MAX);
                acks += packets.len();
            }
            assert!(gw.held() <= MERGED_DATAGRAM_MAX, "{} held", gw.held());
        }
        assert!(gw.held() > 0);
        acks += gw.release(Nanos::MAX).iter().map(Vec::len).sum::<usize>();
        assert_eq!(acks, usize::from(N));
    }

    /// A device's way to the gateway that queues what it is handed and
    /// never fails.
    fn queue(to: &mut VecDeque<Vec<u8>>) -> impl FnMut(&[u8]) -> Result<(), ()> + '_ {
        |datagram| {
            to.push_back(datagram.to_vec());
            Ok(())
        }
    }

    fn split(datagrams: VecDeque<Vec<u8>>) -> Vec<Vec<Packet>> {
        datagrams.iter().map(|d| packets(d)).collect()
    }

    fn device() -> DeviceHold {
        DeviceHold::new(&ClientConfig::new("dev"))
    }

    /// [`DeviceHold::send`] of `p` at `now`: the datagrams it sends.
    fn sent(hold: &mut DeviceHold, p: Packet, now: Nanos) -> Vec<Vec<Packet>> {
        let mut sent = VecDeque::new();
        hold.send(&p, now, &mut queue(&mut sent)).unwrap();
        split(sent)
    }

    #[test]
    fn a_reasked_held_pubrel_leaves_once() {
        let mut hold = device();
        assert!(sent(&mut hold, Packet::PubRel { msg_id: 7 }, 0).is_empty());
        let deadline = hold.next_deadline().expect("a held PUBREL has a deadline");
        assert_eq!(deadline, 5_000 * MS, "half a Tretry");
        // The retry timer asks again: the held copy leaves, and is the
        // retransmission.
        let again = sent(&mut hold, Packet::PubRel { msg_id: 7 }, MS);
        assert_eq!(again, [vec![Packet::PubRel { msg_id: 7 }]]);
        assert_eq!(hold.next_deadline(), None);
        let mut late = VecDeque::new();
        hold.tick(deadline, &mut queue(&mut late)).unwrap();
        assert!(late.is_empty(), "nothing is held to leave again");
    }

    #[test]
    fn session_control_travels_alone_after_the_held_pubrels() {
        let mut hold = device();
        let pubrels = |ids: &[u16]| -> Vec<Packet> {
            ids.iter()
                .map(|&msg_id| Packet::PubRel { msg_id })
                .collect()
        };
        for id in [1, 2] {
            assert!(sent(&mut hold, Packet::PubRel { msg_id: id }, 0).is_empty());
        }
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 3,
            topic_name: "s/dev".into(),
        };
        assert_eq!(
            sent(&mut hold, register.clone(), MS),
            [pubrels(&[1, 2]), vec![register]]
        );
        // What is not session control carries them.
        assert!(sent(&mut hold, Packet::PubRel { msg_id: 4 }, 2 * MS).is_empty());
        assert_eq!(
            sent(&mut hold, Packet::PingReq, 3 * MS),
            [vec![Packet::PubRel { msg_id: 4 }, Packet::PingReq]]
        );
    }

    /// A client connected at 0, and its hold.
    fn connected() -> (Client, DeviceHold) {
        let config = ClientConfig::new("dev");
        let hold = DeviceHold::new(&config);
        let mut client = Client::new(config);
        client.connect(0);
        let accepted = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        client.on_datagram(&accepted.encode(), 0).unwrap();
        (client, hold)
    }

    /// Publishes a QoS 2 message at `now` through `hold`; the datagrams.
    fn publish_through(client: &mut Client, hold: &mut DeviceHold, now: Nanos) -> Vec<Vec<Packet>> {
        let (_, outputs) = client
            .publish(TopicRef::Id(1), vec![0x5c], QoS::ExactlyOnce, now)
            .unwrap();
        let mut datagrams = Vec::new();
        for output in outputs {
            if let Output::Send(p) = output {
                datagrams.extend(sent(hold, p, now));
            }
        }
        datagrams
    }

    #[test]
    fn reply_expected_is_false_within_the_device_gap_of_a_streaming_publish() {
        let (mut client, mut hold) = connected();
        publish_through(&mut client, &mut hold, 0);
        assert!(hold.reply_expected(&client, 0), "a lone publish");
        let at = MS;
        publish_through(&mut client, &mut hold, at);
        for now in [at, at + DEVICE_STREAM_GAP - 1] {
            assert!(!hold.reply_expected(&client, now), "held at {now}");
        }
        assert_eq!(hold.next_deadline(), Some(at + DEVICE_STREAM_GAP));
        assert!(hold.reply_expected(&client, at + DEVICE_STREAM_GAP));
        // A caller about to block asks: the PINGREQ rides behind, and the
        // answer is expected at once.
        hold.ask_next(true);
        let asked = publish_through(&mut client, &mut hold, 2 * at);
        assert!(matches!(asked[..], [ref d] if d.last() == Some(&Packet::PingReq)));
        assert!(hold.reply_expected(&client, 2 * at));
        // So is the answer to an ask after a stream.
        publish_through(&mut client, &mut hold, 3 * at);
        assert!(!hold.reply_expected(&client, 3 * at));
        let mut asks = VecDeque::new();
        hold.ask(&client, &mut queue(&mut asks)).unwrap();
        assert_eq!(split(asks), [vec![Packet::PingReq]]);
        assert!(hold.reply_expected(&client, 3 * at));
    }

    /// A device and its gateway on virtual time, with the datagrams in
    /// flight each way queued between them.
    struct Pair {
        client: Client,
        device: DeviceHold,
        gw: Gateway,
        topic: u16,
        up: VecDeque<Vec<u8>>,
        down: VecDeque<Vec<u8>>,
        now: Nanos,
        done: usize,
    }

    impl Pair {
        fn new() -> Pair {
            let config = ClientConfig {
                retry_timeout: Duration::from_millis(60),
                ..ClientConfig::new("dev")
            };
            let (gw, topic) = Gateway::new();
            let mut client = Client::new(config.clone());
            client.connect(0);
            let accepted = Packet::ConnAck {
                code: ReturnCode::Accepted,
            };
            client.on_datagram(&accepted.encode(), 0).unwrap();
            Pair {
                client,
                device: DeviceHold::new(&config),
                gw,
                topic,
                up: VecDeque::new(),
                down: VecDeque::new(),
                now: 0,
                done: 0,
            }
        }

        fn run(&mut self, outputs: Vec<Output>) {
            for output in outputs {
                match output {
                    Output::Send(p) => {
                        let up = &mut queue(&mut self.up);
                        self.device.send(&p, self.now, up).unwrap();
                    }
                    Output::Event(ClientEvent::PublishDone { .. }) => self.done += 1,
                    Output::Event(_) => {}
                }
            }
        }

        fn publish(&mut self, qos: QoS) {
            if self.client.can_publish() {
                let topic = TopicRef::Id(self.topic);
                let (_, outputs) = self.client.publish(topic, vec![1], qos, self.now).unwrap();
                self.run(outputs);
            }
        }

        fn arrive_up(&mut self) {
            if let Some(datagram) = self.up.pop_front() {
                for (bytes, _) in self.gw.batch(self.now, &[datagram]) {
                    self.down.push_back(bytes);
                }
            }
        }

        fn arrive_down(&mut self) {
            if let Some(datagram) = self.down.pop_front() {
                for message in frames(&datagram) {
                    let outputs = self.client.on_datagram(message, self.now).unwrap();
                    self.run(outputs);
                }
                self.device.answered(&self.client);
            }
        }

        fn ask(&mut self) {
            let up = &mut queue(&mut self.up);
            self.device.ask(&self.client, up).unwrap();
        }

        /// Time moves on by `dt`, no more than one release period, and both
        /// ends release what is due.
        fn advance(&mut self, dt: Nanos) {
            self.now += dt;
            // Nothing is held past its deadline plus one release period.
            for stream in self.gw.hold.streams.values() {
                if let Some(since) = stream.since {
                    assert!(
                        self.now <= since + STREAM_GAP + STREAM_GAP,
                        "gateway held since {since}"
                    );
                }
            }
            if let Some(at) = self.device.release_by {
                assert!(self.now <= at + STREAM_GAP, "device held until {at}");
            }
            let (now, down) = (self.now, &mut self.down);
            self.gw
                .hold
                .release(now, &mut |_, bytes| down.push_back(bytes.to_vec()));
            let outputs = self.client.on_tick(now);
            self.run(outputs);
            let up = &mut queue(&mut self.up);
            self.device.tick(now, up).unwrap();
        }

        /// No message id is held twice, and no hold outgrows its bound.
        fn check(&self) {
            let held = &self.device.held;
            assert!(held.len() <= self.device.cap);
            let ids: Vec<&[u8]> = held.chunks_exact(PUBREL_LEN).map(|p| &p[2..]).collect();
            for (i, id) in ids.iter().enumerate() {
                assert!(!ids[..i].contains(id), "PUBREL {id:?} held twice");
            }
            assert!(self.gw.held() <= MERGED_DATAGRAM_MAX);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules of publish, arrival each way, ask and release:
        /// the holds keep their bounds at every step, and once the link is
        /// left to settle every handshake completes.
        #[test]
        fn prop_holds_keep_their_deadlines_and_hold_no_id_twice(
            steps in collection::vec((0u8..7, 0u64..=STREAM_GAP), 1..300),
        ) {
            let mut pair = Pair::new();
            let mut published = 0;
            for (op, dt) in steps {
                match op {
                    0 | 1 => {
                        let qos = if op == 0 { QoS::ExactlyOnce } else { QoS::AtLeastOnce };
                        let before = pair.client.inflight_len();
                        pair.publish(qos);
                        published += pair.client.inflight_len() - before;
                    }
                    2 => pair.arrive_up(),
                    3 => pair.arrive_down(),
                    4 => pair.ask(),
                    _ => pair.advance(dt),
                }
                pair.check();
            }
            for _ in 0..1_000 {
                if pair.client.inflight_len() == 0 && pair.up.is_empty() && pair.down.is_empty() {
                    break;
                }
                while !pair.up.is_empty() || !pair.down.is_empty() {
                    pair.arrive_up();
                    pair.arrive_down();
                    pair.check();
                }
                pair.advance(STREAM_GAP);
            }
            prop_assert_eq!(pair.client.inflight_len(), 0);
            prop_assert_eq!(pair.done, published);
        }
    }
}
