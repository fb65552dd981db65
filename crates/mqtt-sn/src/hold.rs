//! The acknowledgement holds: which acknowledgements each end of the device
//! leg keeps back, and when they leave — decided here, on [`Nanos`] clocks,
//! without a socket.
//!
//! A device rarely needs each answer at once, so both ends answer late and
//! let the device ask, the way TCP's delayed ACK (RFC 1122 §4.2.3.2)
//! answers once per window rather than once per segment, and the way an
//! MQTT-SN sleeping client sends a PINGREQ to collect what its gateway
//! buffered for it:
//!
//! - [`GatewayHold`] keeps back the PUBREC, PUBCOMP or accepted PUBACK that
//!   answers a datagram its device did not ask to be answered, and sends
//!   what it holds for one device as one datagram, [`ACK_HOLD`] later or
//!   in front of the answer to an ask;
//! - [`DeviceHold`] turns the packets a [`Client`] sends into datagrams: it
//!   keeps a PUBREL back for the next datagram to carry, asks when it needs
//!   its answers, and otherwise reads them once per hold.
//!
//! Each hold hands the datagrams it sends to a callback; the socket is the
//! caller's.

use crate::broker::{BrokerOutputs, MERGED_DATAGRAM_MAX};
use crate::client::{Client, ClientConfig, Nanos};
use crate::packet::{frames, glance, Glance, Packet, QoS};
use std::collections::HashMap;
use std::hash::Hash;

/// How long the gateway holds an acknowledgement nobody asked for: what it
/// holds for a device leaves at its first serve wake this long after the
/// first of it was held. A tenth of a second: the gateway's own timer tick,
/// long enough that a device sending a message every 20–40 ms (the paper's
/// Table I pace) is answered once per several, and short enough that a
/// handshake ends well inside the default 10 s `Tretry` and the in-flight
/// window of a device sending a few hundred messages a second stays under
/// half full. The device reads its socket [`2 × ACK_HOLD`](DeviceHold)
/// after what it sent, so a hold that ends a serve wake late is still
/// read in the same pass.
pub const ACK_HOLD: Nanos = 100_000_000;
/// Hold buffers the gateway keeps for reuse once their devices hold nothing.
const SPARE_HOLDS: usize = 64;
/// Encoded size of a PUBREL: length, type, message id.
const PUBREL_LEN: usize = 4;
/// Encoded size of a PINGREQ without a client id: length, type.
const PINGREQ_LEN: usize = 2;
/// How long after its last send a device waits before it drains its
/// socket: a small message just sent reaches the store in about a third
/// of this (the median on the benchmark's `sparse_tasks`, on its two-core
/// host), so the drain does not compete with it for a core.
const QUIET: Nanos = 1_000_000;
/// Largest payload a UDP datagram carries over IPv4 (65 535 less the IP
/// and UDP headers).
const UDP_PAYLOAD_MAX: usize = 65_507;

/// Where the gateway's datagrams go: each to the device at its address.
pub type ToDevice<'a, A> = &'a mut dyn FnMut(&A, &[u8]);
/// Where a device's datagrams go, and how sending one can fail.
pub type ToGateway<'a, E> = &'a mut dyn FnMut(&[u8]) -> Result<(), E>;

/// The success acknowledgements a gateway owes its devices and has not sent
/// yet, over any address type `A`, like [`Broker`](crate::broker::Broker).
/// The PUBREC, PUBCOMP or accepted PUBACK that answers a datagram of
/// non-DUP PUBLISHes and PUBRELs waits: its device did not ask for it. What
/// is held for one device leaves as one datagram of at most 1232 bytes, at
/// the first release [`ACK_HOLD`] or more after the first of it was held,
/// when the next acknowledgement would not fit, or in front of anything
/// else going to that device. An ask is answered at once, with what is held
/// in front:
///
/// - a datagram that carries no PUBLISH: a PINGREQ, PUBRELs on their own,
///   session control, or the PUBACK a subscribing device sends;
/// - a DUP PUBLISH, and a PUBLISH with anything but PUBRELs beside it in
///   its datagram (a PINGREQ behind it, say).
///
/// A reply that is no success acknowledgement — a refusal, a congestion
/// advisory, CONNACK, REGACK, SUBACK, PINGRESP — leaves at once too, and a
/// fan-out PUBLISH still travels alone. To its device a held acknowledgement
/// is a late one, and the device asks before its `Tretry` could run out
/// (see [`DeviceHold`]). A serve batch is answered by [`GatewayHold::note`]
/// for each datagram read, then [`GatewayHold::flush`] of the broker's
/// replies.
pub struct GatewayHold<A> {
    devices: HashMap<A, Held>,
    /// Serve batches answered so far, plus one: the one being answered.
    batch: u64,
    /// Devices that asked in this batch while something was held for them:
    /// what is held leaves at this flush even if the ask draws no reply.
    asked: Vec<A>,
    /// Buffers of devices that hold nothing, for the next ones.
    spare: Vec<Vec<u8>>,
}

/// What the gateway holds for one device.
struct Held {
    /// The last batch in which the device sent a datagram whose answer may
    /// wait, and the last in which it asked. Its replies in a batch may
    /// wait only when the first is that batch and the second is not.
    quiet: u64,
    asked: u64,
    /// Its held acknowledgements, back to back, and when the first of them
    /// was held.
    acks: Vec<u8>,
    since: Option<Nanos>,
}

impl Held {
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
            devices: HashMap::new(),
            batch: 1,
            asked: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<A: Copy + Eq + Hash> GatewayHold<A> {
    /// Notes a datagram of the serve batch being answered, read from
    /// `from`: whether it asks to be answered at once.
    pub fn note(&mut self, from: &A, datagram: &[u8]) {
        // lint: zero-alloc-begin
        let (mut publish, mut asks) = (false, false);
        for message in frames(datagram) {
            match glance(message) {
                Glance::Publish { dup } => {
                    publish = true;
                    asks |= dup;
                }
                Glance::PubRel => {}
                Glance::Success | Glance::Other => asks = true,
            }
        }
        let (batch, spare) = (self.batch, &mut self.spare);
        if publish && !asks {
            // lint:allow(zero-alloc): an entry per device with acks held, so it grows with the devices streaming at once, not with their messages
            let held = self.devices.entry(*from).or_insert_with(|| Held {
                quiet: 0,
                asked: 0,
                acks: spare.pop().unwrap_or_default(),
                since: None,
            });
            held.quiet = batch;
        } else if let Some(held) = self.devices.get_mut(from) {
            held.asked = batch;
            if held.since.is_some() {
                self.asked.push(*from);
            }
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
            if let Some(held) = self.devices.get_mut(&to) {
                held.leave(&to, send);
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
        let Some(held) = self.devices.get_mut(to) else {
            return send(to, bytes);
        };
        let fits = held.acks.len() + bytes.len() <= MERGED_DATAGRAM_MAX;
        let waits = held.quiet == batch
            && held.asked != batch
            && frames(bytes).all(|message| glance(message) == Glance::Success);
        if waits {
            if !fits {
                held.leave(to, send);
            }
            held.acks.extend_from_slice(bytes);
            held.since.get_or_insert(now);
            return;
        }
        let fan_out = matches!(glance(bytes), Glance::Publish { .. });
        if fits && !fan_out && !held.acks.is_empty() {
            held.acks.extend_from_slice(bytes);
            return held.leave(to, send);
        }
        held.leave(to, send);
        send(to, bytes);
        // lint: zero-alloc-end
    }

    /// Hands `send` what has been held for [`ACK_HOLD`] by `now` — all of
    /// it at `Nanos::MAX` — and forgets the devices it holds nothing for,
    /// keeping some of their buffers.
    pub(crate) fn release(&mut self, now: Nanos, send: ToDevice<A>) {
        let spare = &mut self.spare;
        self.devices.retain(|to, held| {
            if held
                .since
                .is_some_and(|since| since.saturating_add(ACK_HOLD) <= now)
            {
                held.leave(to, send);
            }
            if held.since.is_none() && spare.len() < SPARE_HOLDS {
                spare.push(std::mem::take(&mut held.acks));
            }
            held.since.is_some()
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
/// It also keeps the device's side of the gateway's hold. A datagram the
/// gateway may answer late sets a read deadline, 2 × [`ACK_HOLD`] after
/// it and no sooner than `QUIET` after the last send: the device drains
/// its socket then, once per hold, and never waits on it for an answer it
/// did not ask for. It asks — with a PINGREQ behind
/// a PUBLISH, or with the held PUBRELs on their own — when its caller is
/// about to block, when a PUBLISH brings the in-flight window to half full,
/// and half a `Tretry` after its oldest unanswered message was sent, so no
/// held answer ever meets a retransmit timer.
#[derive(Default)]
pub struct DeviceHold {
    /// The held PUBRELs, encoded back to back.
    held: Vec<u8>,
    /// Bytes `held` may reach: one PUBREL per slot of the in-flight window
    /// is all that live handshakes can owe.
    cap: usize,
    /// Half the in-flight window: a PUBLISH that fills it this far asks.
    half_window: usize,
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
    /// When the oldest message left that the gateway may still hold an
    /// answer to, while it may hold one: from the first datagram it may
    /// answer late until an ask leaves or nothing is owed, moved on by each
    /// drain of the socket. The device drains its socket 2 × [`ACK_HOLD`]
    /// after it, and asks half a `Tretry` after it.
    unanswered: Option<Nanos>,
    /// When the first such message left a hold or more after
    /// `unanswered`: the gateway has let go of what it held for the ones
    /// before it by the drain, so it is the oldest still unanswered then.
    later: Option<Nanos>,
    /// When the last datagram left.
    sent: Nanos,
    /// The next PUBLISH carries a PINGREQ behind it.
    asking: bool,
}

impl DeviceHold {
    /// The hold of a client configured with `config`.
    pub fn new(config: &ClientConfig) -> DeviceHold {
        DeviceHold {
            cap: PUBREL_LEN * config.max_inflight.max(1),
            half_window: config.max_inflight.div_ceil(2),
            hold_for: (config.retry_timeout / 2).as_nanos() as Nanos,
            ..DeviceHold::default()
        }
    }

    /// Hands `send` the datagram, if any, that carries `p` sent at `now`,
    /// with the held PUBRELs in front, or holds `p` (see [`DeviceHold`]). A
    /// PUBLISH carries a PINGREQ behind it when it asks (see `ask_next`). A
    /// PUBREL asked for again while its first copy is held sends that copy,
    /// which is the retransmission.
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
        self.sent = now;
        match p {
            Packet::Publish {
                dup: false, qos, ..
            } => {
                let asks = asking
                    && *qos != QoS::AtMostOnce
                    && self.wbuf.len() + PINGREQ_LEN <= UDP_PAYLOAD_MAX;
                if asks {
                    // lint: zero-alloc-begin
                    Packet::PingReq.encode_into(&mut self.wbuf);
                    // lint: zero-alloc-end
                    (self.unanswered, self.later) = (None, None);
                } else if *qos != QoS::AtMostOnce || riders > 0 {
                    // The gateway may hold what answers it.
                    let oldest = *self.unanswered.get_or_insert(now);
                    if now >= oldest.saturating_add(ACK_HOLD) {
                        self.later.get_or_insert(now);
                    }
                }
            }
            // Answered at once, with whatever is held in front.
            _ => (self.unanswered, self.later) = (None, None),
        }
        if self.wbuf.len() > UDP_PAYLOAD_MAX && riders > 0 {
            // Together they exceed what UDP carries: two sends.
            let (acks, packet) = self.wbuf.split_at(riders);
            send(acks)?;
            send(packet)?;
        } else {
            send(&self.wbuf)?;
        }
        Ok(())
    }

    /// Whether the next PUBLISH asks to be answered at once: when its
    /// caller is about to block on it (`blocks`), or when it brings
    /// `client`'s in-flight window to half full or more. For a PUBLISH
    /// `client` has just taken into its window.
    pub(crate) fn ask_next(&mut self, client: &Client, blocks: bool) {
        self.asking = blocks || client.inflight_len() >= self.half_window;
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
    /// the gateway answers at once. A blocking read starts with it, so
    /// nobody waits on an acknowledgement that is held.
    pub fn release<E>(&mut self, send: ToGateway<E>) -> Result<(), E> {
        if self.take_held() > 0 {
            (self.unanswered, self.later) = (None, None);
            send(&self.wbuf)?;
        }
        Ok(())
    }

    /// The timers at `now`: what is held past its release time leaves
    /// alone, and half a `Tretry` after the oldest message the gateway may
    /// still hold an answer to the device asks for it.
    pub(crate) fn tick<E>(&mut self, now: Nanos, send: ToGateway<E>) -> Result<(), E> {
        if self.release_by.is_some_and(|at| at <= now) {
            return self.release(send);
        }
        if self.ask_by().is_some_and(|at| at <= now) {
            return self.asks(send);
        }
        Ok(())
    }

    /// Whether the socket is to be drained at `now`, 2 × [`ACK_HOLD`]
    /// after the oldest message the gateway may still hold an answer to.
    /// If so, the oldest one still unanswered after the drain is the first
    /// that left a hold or more after it; failing one, what is late is
    /// read again a hold later.
    pub fn drain_due(&mut self, now: Nanos) -> bool {
        let due = self.read_by().is_some_and(|at| at <= now);
        if due {
            self.unanswered = Some(self.later.take().unwrap_or(now.saturating_sub(ACK_HOLD)));
        }
        due
    }

    /// Asks the gateway for what it may be holding for this device (see
    /// `DeviceHold::asks`). Sends nothing while nothing can be held.
    pub fn ask<E>(&mut self, client: &Client, send: ToGateway<E>) -> Result<(), E> {
        if !self.would_ask(client) {
            return Ok(());
        }
        self.asks(send)
    }

    /// Whether [`DeviceHold::ask`] would send: a handshake of `client`
    /// waits on the gateway, which may hold its answer.
    pub fn would_ask(&self, client: &Client) -> bool {
        self.unanswered.is_some() && self.owed(client)
    }

    /// The held PUBRELs leave on their own or, none being held, a PINGREQ
    /// does, and the gateway answers either at once with everything it
    /// holds in front.
    fn asks<E>(&mut self, send: ToGateway<E>) -> Result<(), E> {
        if !self.held.is_empty() {
            return self.release(send);
        }
        (self.unanswered, self.later) = (None, None);
        self.wbuf.clear();
        // lint: zero-alloc-begin
        Packet::PingReq.encode_into(&mut self.wbuf);
        // lint: zero-alloc-end
        send(&self.wbuf)
    }

    /// What `client` answered to a read has been sent: the gateway holds
    /// nothing for a device that is owed nothing.
    pub(crate) fn answered(&mut self, client: &Client) {
        if !self.owed(client) {
            (self.unanswered, self.later) = (None, None);
        }
    }

    /// The link is new: the held PUBRELs go with the old one — a resumed
    /// session re-emits the PUBREL of every handshake still in that phase —
    /// and so does what the old gateway held, for the new one answers at
    /// once.
    pub(crate) fn reset(&mut self) {
        self.held.clear();
        self.release_by = None;
        (self.unanswered, self.later) = (None, None);
    }

    /// Whether a handshake of `client` waits on the gateway: a PUBLISH
    /// without its PUBREC or PUBACK, or a PUBREL that has left without its
    /// PUBCOMP. A handshake whose PUBREL is still held waits on the device.
    fn owed(&self, client: &Client) -> bool {
        client.inflight_len() > self.held.len() / PUBREL_LEN
    }

    /// The read deadline: 2 × [`ACK_HOLD`] after the oldest message the
    /// gateway may still hold an answer to, and [`QUIET`] after the last
    /// send.
    fn read_by(&self) -> Option<Nanos> {
        let after = self.unanswered?.saturating_add(2 * ACK_HOLD);
        Some(after.max(self.sent.saturating_add(QUIET)))
    }

    /// When the device asks: half a `Tretry` after the oldest message the
    /// gateway may still hold an answer to, so before its retransmit timer
    /// could run out.
    fn ask_by(&self) -> Option<Nanos> {
        Some(self.unanswered?.saturating_add(self.hold_for))
    }

    /// Whether a datagram from the gateway can be on its way to `client`:
    /// a PUBLISH without its PUBREC or PUBACK, a PUBREL that has left
    /// without its PUBCOMP, a control transaction, a PINGREQ. A handshake
    /// whose PUBREL is still held is owed nothing until the PUBREL leaves,
    /// and an answer the gateway may hold is not on its way until the
    /// device asks for it.
    pub fn reply_expected(&self, client: &Client) -> bool {
        (self.owed(client) && self.unanswered.is_none()) || client.control_outstanding()
    }

    /// The earliest time at which `DeviceHold::tick` or
    /// [`DeviceHold::drain_due`] has something to do: a held PUBREL's
    /// release, the read deadline, or the ask half a `Tretry` on.
    pub fn next_deadline(&self) -> Option<Nanos> {
        [self.release_by, self.read_by(), self.ask_by()]
            .into_iter()
            .flatten()
            .min()
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
    /// The longest the gateway's serve loop sleeps: its socket's read
    /// time-out.
    const WAKE: Nanos = 10 * MS;
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

    /// The messages `packets`, back to back in one datagram.
    fn bundle(packets: &[Packet]) -> Vec<u8> {
        let mut datagram = Vec::new();
        for p in packets {
            p.encode_into(&mut datagram);
        }
        datagram
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
                self.hold.note(&DEV, datagram);
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
            self.hold
                .devices
                .get(&DEV)
                .map_or(0, |held| held.acks.len())
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
        assert!(answer(&mut gw, 0, qos2(1)).is_empty());
        assert!(answer(&mut gw, 2 * MS, qos2(2)).is_empty());
        assert!(answer(&mut gw, 4 * MS, qos2(3)).is_empty());
        assert!(gw.release(ACK_HOLD - 1).is_empty());
        assert_eq!(gw.release(ACK_HOLD), [pubrecs(&[1, 2, 3])]);
        assert!(gw.release(Nanos::MAX).is_empty(), "sent once");
    }

    #[test]
    fn a_lone_publish_is_answered_a_hold_later_and_not_before_unless_asked() {
        let (mut gw, tid) = Gateway::new();
        let qos2 = |id| publish(id, QoS::ExactlyOnce, false, tid);
        // However long the pause before it, a PUBLISH that does not ask
        // waits: the device asked for nothing.
        assert!(answer(&mut gw, 0, qos2(1)).is_empty());
        for now in [MS, ACK_HOLD / 2, ACK_HOLD - 1] {
            assert!(gw.release(now).is_empty(), "released at {now}");
        }
        assert_eq!(gw.release(ACK_HOLD), [pubrecs(&[1])]);
        // A serve wake that comes late lets it go at that wake.
        let later = 10 * ACK_HOLD;
        assert!(answer(&mut gw, later, qos2(2)).is_empty());
        assert_eq!(gw.release(later + ACK_HOLD + WAKE), [pubrecs(&[2])]);
        // Asked, it leaves at once.
        let asked = 20 * ACK_HOLD;
        assert!(answer(&mut gw, asked, qos2(3)).is_empty());
        assert_eq!(
            answer(&mut gw, asked + MS, Packet::PingReq.encode()),
            [vec![Packet::PubRec { msg_id: 3 }, Packet::PingResp]]
        );
        assert!(gw.release(Nanos::MAX).is_empty());
    }

    #[test]
    fn a_dup_or_no_publish_is_answered_at_once_behind_what_is_held() {
        let (mut gw, tid) = Gateway::new();
        let qos2 = |id| publish(id, QoS::ExactlyOnce, false, tid);
        assert!(answer(&mut gw, 0, qos2(1)).is_empty());
        assert!(answer(&mut gw, MS, qos2(2)).is_empty());
        // A DUP PUBLISH.
        let dup = publish(3, QoS::ExactlyOnce, true, tid);
        assert_eq!(answer(&mut gw, 2 * MS, dup), [pubrecs(&[1, 2, 3])]);
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
        // A pause is no ask: the next PUBLISH waits like the others.
        let later = 6 * MS + ACK_HOLD;
        assert!(answer(&mut gw, later, qos2(6)).is_empty());
        assert_eq!(gw.release(later + ACK_HOLD), [pubrecs(&[6])]);
        assert!(gw.release(Nanos::MAX).is_empty());
    }

    #[test]
    fn every_kind_of_ask_is_answered_in_its_batch_behind_what_is_held() {
        let (mut gw, tid) = Gateway::new();
        let qos2 = |id| Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: id,
            payload: vec![1],
        };
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 900,
            topic_name: "s/dev/2".into(),
        };
        let puback = |msg_id| Packet::PubAck {
            topic_id: tid,
            msg_id,
            code: ReturnCode::Accepted,
        };
        // Each ask, and how many messages it draws itself.
        let asks: [(&str, Vec<Vec<u8>>, usize); 8] = [
            ("a PINGREQ", vec![Packet::PingReq.encode()], 1),
            (
                "PUBRELs alone",
                vec![bundle(&[Packet::PubRel { msg_id: 7 }])],
                1,
            ),
            (
                "a DUP PUBLISH",
                vec![publish(8, QoS::AtLeastOnce, true, tid)],
                1,
            ),
            ("session control", vec![register.encode()], 1),
            (
                "a PINGREQ behind a PUBLISH",
                vec![bundle(&[qos2(9), Packet::PingReq])],
                2,
            ),
            (
                "a PUBLISH beside a PUBACK",
                vec![bundle(&[qos2(10), puback(11)])],
                1,
            ),
            (
                "a PINGREQ in the batch of a PUBLISH that waits",
                vec![
                    publish(12, QoS::AtLeastOnce, false, tid),
                    Packet::PingReq.encode(),
                ],
                2,
            ),
            (
                "the PUBACK a subscribing device sends",
                vec![puback(13).encode()],
                0,
            ),
        ];
        for (i, (kind, datagrams, draws)) in asks.into_iter().enumerate() {
            let now = (i as Nanos + 1) * ACK_HOLD;
            let held = 100 + i as u16;
            assert!(answer(&mut gw, now, publish(held, QoS::ExactlyOnce, false, tid)).is_empty());
            let sent = gw.batch(now + MS, &datagrams);
            assert_eq!(gw.held(), 0, "{kind}: still held");
            let first = sent.first().map(|(_, packets)| &packets[..]);
            assert_eq!(
                first.and_then(<[Packet]>::first),
                Some(&Packet::PubRec { msg_id: held }),
                "{kind}: {sent:?}"
            );
            let answered = sent.iter().flat_map(|(_, packets)| packets).count();
            assert_eq!(answered, 1 + draws, "{kind}: {sent:?}");
        }
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

    /// A client configured with `config` and connected at 0, and its hold.
    fn connected_with(config: ClientConfig) -> (Client, DeviceHold) {
        let hold = DeviceHold::new(&config);
        let mut client = Client::new(config);
        client.connect(0);
        let accepted = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        client.on_datagram(&accepted.encode(), 0).unwrap();
        (client, hold)
    }

    fn connected() -> (Client, DeviceHold) {
        connected_with(ClientConfig::new("dev"))
    }

    /// Publishes a QoS 2 message at `now` through `hold`, asking for its
    /// answer if the caller `blocks` on it (or the window is half full);
    /// the datagrams.
    fn publish_through(
        client: &mut Client,
        hold: &mut DeviceHold,
        now: Nanos,
        blocks: bool,
    ) -> Vec<Vec<Packet>> {
        let (_, outputs) = client
            .publish(TopicRef::Id(1), vec![0x5c], QoS::ExactlyOnce, now)
            .unwrap();
        hold.ask_next(client, blocks);
        let mut datagrams = Vec::new();
        for output in outputs {
            if let Output::Send(p) = output {
                datagrams.extend(sent(hold, p, now));
            }
        }
        datagrams
    }

    fn asks(datagrams: &[Vec<Packet>]) -> bool {
        matches!(datagrams, [ref d] if d.last() == Some(&Packet::PingReq))
    }

    #[test]
    fn reply_expected_is_false_within_the_device_gap_of_a_streaming_publish() {
        let (mut client, mut hold) = connected();
        let first = publish_through(&mut client, &mut hold, 0, false);
        assert!(!asks(&first), "{first:?}");
        assert!(!hold.reply_expected(&client), "a lone publish waits too");
        // The device reads at its deadline instead: 2 × ACK_HOLD after the
        // PUBLISH, then a hold after each drain while it is owed.
        assert_eq!(hold.next_deadline(), Some(2 * ACK_HOLD));
        assert!(!hold.drain_due(2 * ACK_HOLD - 1));
        assert!(hold.drain_due(2 * ACK_HOLD));
        assert_eq!(hold.next_deadline(), Some(3 * ACK_HOLD));
        assert!(!hold.reply_expected(&client));
        // A caller about to block asks: the PINGREQ rides behind, and the
        // answer is expected at once.
        let at = 3 * ACK_HOLD;
        let asked = publish_through(&mut client, &mut hold, at, true);
        assert!(asks(&asked), "{asked:?}");
        assert!(hold.reply_expected(&client));
        assert_eq!(hold.next_deadline(), None);
        // So is the answer to an ask after a PUBLISH that did not ask.
        publish_through(&mut client, &mut hold, at + MS, false);
        assert!(!hold.reply_expected(&client));
        let mut ask = VecDeque::new();
        hold.ask(&client, &mut queue(&mut ask)).unwrap();
        assert_eq!(split(ask), [vec![Packet::PingReq]]);
        assert!(hold.reply_expected(&client));
        // Nothing can be held: nothing to ask for.
        let mut again = VecDeque::new();
        hold.ask(&client, &mut queue(&mut again)).unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn the_read_deadline_follows_the_oldest_unanswered_publish() {
        let (mut client, mut hold) = connected();
        // Messages a hold apart fall in different holds of the gateway's.
        let later = ACK_HOLD + 20 * MS;
        for at in [0, 50 * MS, later] {
            publish_through(&mut client, &mut hold, at, false);
            assert_eq!(hold.next_deadline(), Some(2 * ACK_HOLD), "at {at}");
        }
        // A send just before the deadline moves the drain off it.
        let last = 2 * ACK_HOLD - QUIET / 2;
        publish_through(&mut client, &mut hold, last, false);
        assert_eq!(hold.next_deadline(), Some(last + QUIET));
        assert!(!hold.drain_due(2 * ACK_HOLD));
        // The drain reads the first hold's answers: the oldest still
        // unanswered is the first of the next.
        assert!(hold.drain_due(last + QUIET));
        assert_eq!(hold.next_deadline(), Some(later + 2 * ACK_HOLD));
        // With none after it, whatever is late is read a hold on.
        let now = later + 2 * ACK_HOLD;
        assert!(hold.drain_due(now));
        assert_eq!(hold.next_deadline(), Some(now + ACK_HOLD));
    }

    #[test]
    fn the_device_asks_at_half_its_window_and_half_a_tretry_on() {
        // Half the window: the fourth of eight slots asks.
        let (mut client, mut hold) = connected_with(ClientConfig {
            max_inflight: 8,
            ..ClientConfig::new("dev")
        });
        for i in 1..4 {
            let datagrams = publish_through(&mut client, &mut hold, i * MS, false);
            assert!(!asks(&datagrams), "{i} of 8 asked: {datagrams:?}");
        }
        let half = publish_through(&mut client, &mut hold, 4 * MS, false);
        assert!(asks(&half), "{half:?}");
        assert!(hold.reply_expected(&client));

        // Half a Tretry: before the read deadline when `Tretry` is shorter
        // than four holds, and with the held PUBRELs when there are some.
        let retry = Duration::from_millis(300);
        let config = ClientConfig {
            retry_timeout: retry,
            ..ClientConfig::new("dev")
        };
        let (mut client, mut hold) = connected_with(config);
        publish_through(&mut client, &mut hold, 0, false);
        let ask_by = (retry / 2).as_nanos() as Nanos;
        assert_eq!(hold.next_deadline(), Some(ask_by));
        let mut early = VecDeque::new();
        hold.tick(ask_by - 1, &mut queue(&mut early)).unwrap();
        assert!(early.is_empty());
        let mut ask = VecDeque::new();
        hold.tick(ask_by, &mut queue(&mut ask)).unwrap();
        assert_eq!(split(ask), [vec![Packet::PingReq]]);
        assert!(hold.reply_expected(&client));
        let pubrec = |client: &mut Client, id| {
            let pubrec = Packet::PubRec { msg_id: id }.encode();
            client.on_datagram(&pubrec, ask_by).unwrap()
        };
        // The answer: the PUBREL is held, then a PUBLISH carries it.
        for output in pubrec(&mut client, 1) {
            if let Output::Send(p) = output {
                assert!(sent(&mut hold, p, ask_by).is_empty());
            }
        }
        let at = ask_by + MS;
        publish_through(&mut client, &mut hold, at, false);
        for output in pubrec(&mut client, 2) {
            if let Output::Send(p) = output {
                assert!(sent(&mut hold, p, at).is_empty());
            }
        }
        let mut pubrels = VecDeque::new();
        hold.tick(at + ask_by, &mut queue(&mut pubrels)).unwrap();
        assert_eq!(split(pubrels), [vec![Packet::PubRel { msg_id: 2 }]]);
    }

    /// A device and its gateway on virtual time, the way the transmitter
    /// and the serve loop drive them: what the device sends arrives and is
    /// served at once, the gateway wakes at least every [`WAKE`], and the
    /// device reads its socket only at its read deadline or when it
    /// expects a reply.
    struct Pair {
        client: Client,
        device: DeviceHold,
        gw: Gateway,
        topic: u16,
        up: VecDeque<Vec<u8>>,
        down: VecDeque<Vec<u8>>,
        now: Nanos,
        done: usize,
        /// Socket reads, at the read deadline and in all.
        drains: usize,
        reads: usize,
        retransmissions: usize,
    }

    impl Pair {
        fn new(config: ClientConfig) -> Pair {
            let (gw, topic) = Gateway::new();
            let (client, device) = connected_with(config);
            Pair {
                client,
                device,
                gw,
                topic,
                up: VecDeque::new(),
                down: VecDeque::new(),
                now: 0,
                done: 0,
                drains: 0,
                reads: 0,
                retransmissions: 0,
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

        /// Publishes at QoS `qos` if the window has room; whether it did.
        fn publish(&mut self, qos: QoS, blocks: bool) -> bool {
            if !self.client.can_publish() {
                return false;
            }
            let topic = TopicRef::Id(self.topic);
            let (_, outputs) = self.client.publish(topic, vec![1], qos, self.now).unwrap();
            self.device.ask_next(&self.client, blocks);
            self.run(outputs);
            self.serve();
            true
        }

        /// The gateway reads what has come, as one batch: an ask is
        /// answered in it, with nothing left held.
        fn serve(&mut self) {
            let datagrams: Vec<Vec<u8>> = self.up.drain(..).collect();
            if datagrams.is_empty() {
                return;
            }
            let asked = datagrams.iter().any(|datagram| {
                let mut kinds = frames(datagram).map(glance);
                let publishes = kinds.clone().any(|k| matches!(k, Glance::Publish { .. }));
                !publishes
                    || kinds.any(|k| !matches!(k, Glance::Publish { dup: false } | Glance::PubRel))
            });
            for (bytes, _) in self.gw.batch(self.now, &datagrams) {
                self.down.push_back(bytes);
            }
            if asked {
                assert_eq!(self.gw.held(), 0, "an ask left something held");
            }
        }

        /// The device reads everything queued on its socket.
        fn read(&mut self) {
            self.reads += 1;
            while let Some(datagram) = self.down.pop_front() {
                for message in frames(&datagram) {
                    let outputs = self.client.on_datagram(message, self.now).unwrap();
                    self.run(outputs);
                }
            }
            self.device.answered(&self.client);
            self.serve();
        }

        /// A caller about to block: it asks, then reads while a reply is
        /// expected — which must then be on its way.
        fn block(&mut self) {
            self.device
                .ask(&self.client, &mut queue(&mut self.up))
                .unwrap();
            self.serve();
            self.settle_reads();
        }

        /// Reads while the device expects a reply: never one it did not
        /// ask for.
        fn settle_reads(&mut self) {
            while self.device.reply_expected(&self.client) {
                assert!(
                    !self.down.is_empty(),
                    "the device would wait on its socket for an answer it did not ask for"
                );
                self.read();
            }
        }

        /// Time moves on by `dt`, one serve wake at a time: the gateway
        /// releases what is due, and the device drains its socket at its
        /// read deadline and runs its timers.
        fn advance(&mut self, dt: Nanos) {
            let end = self.now + dt;
            while self.now < end {
                self.now = end.min(self.now + WAKE);
                // Nothing is held past its deadline plus one serve wake.
                for held in self.gw.hold.devices.values() {
                    if let Some(since) = held.since {
                        assert!(self.now <= since + ACK_HOLD + WAKE, "held since {since}");
                    }
                }
                if let Some(at) = self.device.release_by {
                    assert!(self.now <= at + WAKE, "device held until {at}");
                }
                let (now, down) = (self.now, &mut self.down);
                self.gw
                    .hold
                    .release(now, &mut |_, bytes| down.push_back(bytes.to_vec()));
                if self.device.drain_due(now) {
                    self.drains += 1;
                    self.read();
                }
                let outputs = self.client.on_tick(now);
                let resends = outputs.iter().filter(|o| {
                    matches!(
                        o,
                        Output::Send(Packet::Publish { dup: true, .. } | Packet::PubRel { .. })
                    )
                });
                self.retransmissions += resends.count();
                self.run(outputs);
                self.device.tick(now, &mut queue(&mut self.up)).unwrap();
                self.serve();
                self.settle_reads();
            }
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

        /// Time runs on until every handshake is over.
        fn settle(&mut self) {
            for _ in 0..1_000 {
                if self.client.inflight_len() == 0 {
                    return;
                }
                self.advance(WAKE);
                self.check();
            }
        }
    }

    #[test]
    fn a_stream_is_drained_once_per_hold() {
        // A window wide enough that no PUBLISH fills half of it: only the
        // read deadline reads.
        let (mut pair, n) = (
            Pair::new(ClientConfig {
                max_inflight: 1_024,
                ..ClientConfig::new("dev")
            }),
            1_000,
        );
        for _ in 0..n {
            assert!(pair.publish(QoS::ExactlyOnce, false));
            pair.advance(MS);
            pair.check();
        }
        let streamed = pair.now;
        assert!(
            pair.drains as Nanos <= streamed / ACK_HOLD + 1,
            "{} drains in {streamed} ns",
            pair.drains
        );
        assert_eq!(pair.reads, pair.drains, "read only at the deadline");
        pair.settle();
        assert_eq!((pair.done, pair.retransmissions), (n, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random schedules of publishes, blocking callers and time, under
        /// the default `Tretry`: nothing is held at the gateway past
        /// `ACK_HOLD` plus one serve wake, an ask is answered in its batch,
        /// no PUBREL id is held twice, the device never waits on its socket
        /// for an answer it did not ask for, and once the link is left to
        /// settle every handshake completes, none retransmitted.
        #[test]
        fn prop_holds_keep_their_deadlines_and_hold_no_id_twice(
            steps in collection::vec((0u8..7, 0u64..=ACK_HOLD), 1..300),
        ) {
            let mut pair = Pair::new(ClientConfig::new("dev"));
            let mut published = 0;
            for (op, dt) in steps {
                match op {
                    0 | 1 => {
                        let qos = if op == 0 { QoS::ExactlyOnce } else { QoS::AtLeastOnce };
                        published += usize::from(pair.publish(qos, false));
                    }
                    2 => published += usize::from(pair.publish(QoS::ExactlyOnce, true)),
                    3 => pair.block(),
                    _ => pair.advance(dt),
                }
                pair.settle_reads();
                pair.check();
            }
            pair.block();
            pair.settle();
            prop_assert_eq!(pair.client.inflight_len(), 0);
            prop_assert_eq!(pair.done, published);
            prop_assert_eq!(pair.retransmissions, 0);
        }
    }
}
