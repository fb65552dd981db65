//! Sans-io MQTT-SN client state machine.
//!
//! The client never touches a socket or a clock: callers feed it inbound
//! datagrams ([`Client::on_datagram`]) and time ([`Client::on_tick`]), and it
//! returns packets to send plus events to surface. The same machine backs
//! the real-UDP binding in [`crate::net`] and the discrete-event simulator
//! used for the paper's experiments.
//!
//! Retransmission follows the spec's `Tretry`/`Nretry` scheme: QoS 1/2
//! messages are re-sent with the DUP flag until acknowledged or the retry
//! budget is exhausted.

use crate::packet::{Packet, PacketRef, QoS, ReturnCode, TopicRef};
use crate::qos::{Ack, Due, Receiver, SendWindow, Slot};
use crate::Error;
use std::collections::HashMap;
use std::time::Duration;

/// Monotonic virtual or real time in nanoseconds.
pub type Nanos = u64;

/// Client configuration.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Client identifier (1..=23 bytes per spec).
    pub client_id: String,
    /// Keep-alive period; a PINGREQ is sent after this much idle time.
    pub keep_alive: Duration,
    /// Request a clean session on connect.
    pub clean_session: bool,
    /// Retransmission timeout (spec `Tretry`, typically 10–15 s; shorter
    /// in tests).
    pub retry_timeout: Duration,
    /// Maximum retransmissions (spec `Nretry`).
    pub max_retries: u32,
    /// Maximum unacknowledged QoS 1/2 publishes in flight.
    pub max_inflight: usize,
}

impl ClientConfig {
    /// Reasonable defaults for an edge device.
    pub fn new(client_id: impl Into<String>) -> Self {
        ClientConfig {
            client_id: client_id.into(),
            keep_alive: Duration::from_secs(60),
            clean_session: true,
            retry_timeout: Duration::from_secs(10),
            max_retries: 5,
            max_inflight: 64,
        }
    }
}

/// Connection state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientState {
    /// Not connected.
    Disconnected,
    /// CONNECT sent, awaiting CONNACK.
    Connecting,
    /// Session established.
    Connected,
}

/// Events surfaced to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientEvent {
    /// CONNACK accepted.
    Connected,
    /// CONNACK rejected.
    ConnectFailed(ReturnCode),
    /// REGACK received for a topic registration.
    Registered {
        /// The registered topic name.
        topic_name: String,
        /// The broker-assigned id.
        topic_id: u16,
    },
    /// SUBACK received.
    Subscribed {
        /// Transaction id of the SUBSCRIBE.
        msg_id: u16,
        /// Assigned topic id (0 for wildcard filters).
        topic_id: u16,
        /// Granted QoS.
        qos: QoS,
    },
    /// A QoS 1 publish was acknowledged or a QoS 2 publish completed its
    /// 4-way handshake.
    PublishDone {
        /// The publish's message id.
        msg_id: u16,
    },
    /// Retries exhausted for an in-flight message, which leaves the window.
    PublishFailed {
        /// The publish's message id.
        msg_id: u16,
        /// The message, for the caller to publish again once the link is
        /// back, while nothing proves the broker holds it; `None` past its
        /// PUBREC, when sending it again would deliver it twice.
        payload: Option<Vec<u8>>,
    },
    /// The broker rejected a publish, which leaves the window:
    /// `Congestion` under hard backpressure, `InvalidTopicId` from a broker
    /// that no longer knows the session (restarted without its state), for
    /// which the way back is [`Client::reconnect`].
    PublishRejected {
        /// The publish's message id.
        msg_id: u16,
        /// The broker's rejection code.
        code: ReturnCode,
        /// The message to publish again, as in
        /// [`ClientEvent::PublishFailed`].
        payload: Option<Vec<u8>>,
    },
    /// An application message arrived (QoS 2 duplicates already filtered).
    Message {
        /// Topic reference it was published to.
        topic: TopicRef,
        /// Payload bytes.
        payload: Vec<u8>,
    },
    /// The broker stopped answering keep-alive pings.
    PingTimeout,
    /// Broker confirmed disconnect.
    Disconnected,
    /// The broker advertised its congestion level (vendor
    /// [`Packet::CongestionAdvisory`]): 0 = clear, 1 = soft (pace and
    /// coalesce), 2 = hard (QoS ≥ 1 publishes are being rejected).
    Congestion {
        /// Advertised level.
        level: u8,
    },
}

/// What the state machine wants the caller to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Output {
    /// Transmit this packet to the broker.
    Send(Packet),
    /// Surface this event to the application.
    Event(ClientEvent),
}

/// A CONNECT, REGISTER or SUBSCRIBE awaiting its reply, retransmitted on
/// `Tretry` per spec §6.13. The packet is what was asked: the reply that
/// completes it is of its own kind and, but for the CONNACK, carries its
/// message id.
#[derive(Clone, Debug)]
struct Control {
    packet: Packet,
    last_sent: Nanos,
    retries: u32,
}

impl Control {
    /// The message id its reply carries; a CONNECT's carries none.
    fn msg_id(&self) -> Option<u16> {
        match self.packet {
            Packet::Register { msg_id, .. } | Packet::Subscribe { msg_id, .. } => Some(msg_id),
            _ => None,
        }
    }
}

/// The client state machine.
#[derive(Debug)]
pub struct Client {
    config: ClientConfig,
    state: ClientState,
    /// The control transactions awaiting their replies, in send order:
    /// each one once, with what it asked.
    controls: Vec<Control>,
    /// Unacknowledged QoS 1/2 publishes in publish order, and the
    /// message-id allocator, whose id space the REGISTERs and SUBSCRIBEs
    /// above share.
    out: SendWindow<TopicRef>,
    /// Exactly-once dedup of QoS 2 messages from the broker.
    inbound: Receiver,
    /// Cleared payload buffers reclaimed from completed publishes, handed
    /// back to callers via [`Client::take_spare_payload`] so the publish
    /// path can run without per-message allocation.
    spare_payloads: Vec<Vec<u8>>,
    /// Topic name → broker-assigned id learned from REGACKs, `None` for a
    /// topic tracked before its first ([`Client::track`]); registered
    /// again on session resumption.
    registered_topics: HashMap<String, Option<u16>>,
    /// Acknowledged subscriptions, re-subscribed on session resumption.
    subscribed_filters: Vec<(String, QoS)>,
    /// True between [`Client::reconnect`] and the accepted CONNACK.
    resuming: bool,
    /// Whether a CONNACK has ever accepted this client: a reconnect then
    /// asks to continue that session.
    had_session: bool,
    /// During resumption: topic names awaiting a fresh REGACK → the id they
    /// had in the previous session, if any, so in-flight publishes can be
    /// remapped if the broker (e.g. after a restart) assigns a different id.
    resume_pending: HashMap<String, Option<u16>>,
    last_tx: Nanos,
    ping_outstanding_since: Option<Nanos>,
}

impl Client {
    /// Creates a disconnected client.
    pub fn new(config: ClientConfig) -> Self {
        Client {
            config,
            state: ClientState::Disconnected,
            controls: Vec::new(),
            out: SendWindow::new(),
            inbound: Receiver::default(),
            spare_payloads: Vec::new(),
            registered_topics: HashMap::new(),
            subscribed_filters: Vec::new(),
            resuming: false,
            had_session: false,
            resume_pending: HashMap::new(),
            last_tx: 0,
            ping_outstanding_since: None,
        }
    }

    /// Takes a reclaimed payload buffer (cleared, capacity retained) from a
    /// completed publish, if one is available. Encoding the next message
    /// into such a buffer makes the steady-state publish path allocation-free.
    pub fn take_spare_payload(&mut self) -> Option<Vec<u8>> {
        self.spare_payloads.pop()
    }

    /// Hands a no-longer-needed payload buffer back for reuse. Transports
    /// call this with the buffer out of an encoded `Publish` packet (QoS 0
    /// publishes never reach the completion path, so this is their only way
    /// back into the pool).
    pub fn reclaim_payload(&mut self, payload: Vec<u8>) {
        Self::reclaim_into(&mut self.spare_payloads, self.config.max_inflight, payload);
    }

    /// Keeps `payload` for reuse while the pool holds fewer than `cap`:
    /// the in-flight window, since one held acknowledgement can complete
    /// a window's worth of publishes at once.
    fn reclaim_into(pool: &mut Vec<Vec<u8>>, cap: usize, mut payload: Vec<u8>) {
        if pool.len() < cap {
            payload.clear();
            pool.push(payload);
        }
    }

    /// What a message that leaves the window unfinished hands back: its
    /// payload while nothing proves the peer holds it, for the caller to
    /// publish again; past its PUBREC sending it again would deliver it
    /// twice, so the buffer goes back to the pool.
    fn give_back(pool: &mut Vec<Vec<u8>>, cap: usize, slot: Slot<TopicRef>) -> Option<Vec<u8>> {
        if slot.republish_qos().is_some() {
            return Some(slot.payload);
        }
        Self::reclaim_into(pool, cap, slot.payload);
        None
    }

    /// A copy of `payload` in a pooled buffer, so the steady-state publish
    /// and retransmission paths allocate nothing.
    fn wire_copy(pool: &mut Vec<Vec<u8>>, payload: &[u8]) -> Vec<u8> {
        let mut copy = pool.pop().unwrap_or_default();
        copy.clear();
        copy.extend_from_slice(payload);
        copy
    }

    /// Current connection state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Number of unacknowledged QoS 1/2 publishes.
    pub fn inflight_len(&self) -> usize {
        self.out.len()
    }

    /// Whether another QoS 1/2 publish can be started.
    pub fn can_publish(&self) -> bool {
        self.out.len() < self.config.max_inflight
    }

    /// Broker-assigned id of a topic registered in this (or, after
    /// resumption, the previous) session.
    pub fn topic_id(&self, topic_name: &str) -> Option<u16> {
        self.registered_topics.get(topic_name).copied().flatten()
    }

    /// Tracks `topic_name` before the client has an id for it: the
    /// resumption at the accepted CONNACK of the next
    /// [`Client::reconnect`] registers it with every other tracked topic,
    /// and [`Client::topic_id`] reads its id once the REGACK is in. A
    /// topic tracked already keeps its id.
    pub fn track(&mut self, topic_name: &str) {
        if !self.registered_topics.contains_key(topic_name) {
            self.registered_topics.insert(topic_name.to_owned(), None);
        }
    }

    /// False while session resumption is still in progress: the CONNACK
    /// has not arrived or tracked topics still await their fresh REGACK.
    pub fn resume_complete(&self) -> bool {
        !self.resuming && self.resume_pending.is_empty()
    }

    /// A message id free for a new transaction. A live id may belong to a
    /// data publish OR a control transaction (REGISTER and SUBSCRIBE share
    /// the message-id space with PUBLISH per spec §5.4) — handing a
    /// publish an outstanding control id would overwrite that
    /// transaction's retransmission state.
    fn fresh_msg_id(&mut self) -> u16 {
        let controls = &self.controls;
        self.out
            .alloc_msg_id(|id| controls.iter().any(|c| c.msg_id() == Some(id)))
    }

    /// Sends a control packet and keeps it, for retransmission until the
    /// reply of its own kind arrives.
    fn ask(&mut self, packet: Packet, now: Nanos) -> Output {
        self.last_tx = now;
        self.controls.push(Control {
            packet: packet.clone(),
            last_sent: now,
            retries: 0,
        });
        Output::Send(packet)
    }

    /// Takes the pending transaction whose packet `answers` says the reply
    /// is for; `None` leaves every transaction as it was.
    fn complete(&mut self, answers: impl Fn(&Packet) -> bool) -> Option<Packet> {
        let at = self.controls.iter().position(|c| answers(&c.packet))?;
        Some(self.controls.remove(at).packet)
    }

    /// Initiates the connection handshake. The CONNECT is retransmitted
    /// on `Tretry` until the CONNACK arrives or retries are exhausted.
    pub fn connect(&mut self, now: Nanos) -> Vec<Output> {
        self.start_connect(self.config.clean_session, now)
    }

    /// Sends a CONNECT in place of any still pending.
    fn start_connect(&mut self, clean_session: bool, now: Nanos) -> Vec<Output> {
        self.state = ClientState::Connecting;
        self.controls
            .retain(|c| !matches!(c.packet, Packet::Connect { .. }));
        let packet = Packet::Connect {
            clean_session,
            duration: self.config.keep_alive.as_secs().min(u16::MAX as u64) as u16,
            client_id: self.config.client_id.clone(),
        };
        vec![self.ask(packet, now)]
    }

    /// Re-initiates the connection handshake after a lost connection,
    /// requesting session continuation (`clean_session = false`) once a
    /// CONNACK has accepted the client; before, there is no session to
    /// continue, and the CONNECT asks as [`ClientConfig::clean_session`]
    /// says. On the accepted CONNACK the client registers every tracked
    /// topic, re-subscribes every acknowledged filter, and retransmits
    /// in-flight QoS 1/2 publishes with the DUP flag — remapping their
    /// topic ids if the broker (e.g. after a restart) assigns different
    /// ones.
    pub fn reconnect(&mut self, now: Nanos) -> Vec<Output> {
        self.ping_outstanding_since = None;
        self.resuming = true;
        // Stale control transactions from the dead connection are dropped;
        // resumed state is rebuilt from the tracked registrations and
        // subscriptions once the CONNACK arrives.
        self.controls.clear();
        self.resume_pending.clear();
        // The completed-QoS2 window only guards against datagrams delayed
        // *within* one connection epoch; across a reconnect it must reset,
        // because a broker restarted with fresh state legitimately reuses
        // msg_ids for new messages.
        self.inbound.new_epoch();
        let clean_session = !self.had_session && self.config.clean_session;
        self.start_connect(clean_session, now)
    }

    /// Requests a topic-id for `topic_name`. The id arrives via
    /// [`ClientEvent::Registered`].
    pub fn register(&mut self, topic_name: &str, now: Nanos) -> Result<(u16, Vec<Output>), Error> {
        if self.state != ClientState::Connected {
            return Err(Error::BadState("register before connected"));
        }
        let msg_id = self.fresh_msg_id();
        let packet = Packet::Register {
            topic_id: 0,
            msg_id,
            topic_name: topic_name.to_owned(),
        };
        Ok((msg_id, vec![self.ask(packet, now)]))
    }

    /// Publishes a payload to a registered topic id.
    ///
    /// Returns the message id (0 for QoS 0) and the packets to send. QoS
    /// 1/2 completion is signalled by [`ClientEvent::PublishDone`].
    pub fn publish(
        &mut self,
        topic: TopicRef,
        payload: Vec<u8>,
        qos: QoS,
        now: Nanos,
    ) -> Result<(u16, Vec<Output>), Error> {
        if self.state != ClientState::Connected {
            return Err(Error::BadState("publish before connected"));
        }
        if matches!(topic, TopicRef::Name(_)) {
            return Err(Error::BadState("PUBLISH requires a topic id"));
        }
        self.last_tx = now;
        // QoS 1/2: the send window keeps `payload` as the retransmission
        // copy and the wire packet carries a pooled one.
        let (msg_id, wire_payload) = if qos == QoS::AtMostOnce {
            (0, payload)
        } else {
            if !self.can_publish() {
                return Err(Error::InflightFull);
            }
            let msg_id = self.fresh_msg_id();
            let copy = Self::wire_copy(&mut self.spare_payloads, &payload);
            self.out.start(msg_id, qos, topic.clone(), payload, now);
            (msg_id, copy)
        };
        let packet = Packet::Publish {
            dup: false,
            qos,
            retain: false,
            topic,
            msg_id,
            payload: wire_payload,
        };
        Ok((msg_id, vec![Output::Send(packet)]))
    }

    /// Subscribes to a topic filter.
    pub fn subscribe(
        &mut self,
        filter: &str,
        qos: QoS,
        now: Nanos,
    ) -> Result<(u16, Vec<Output>), Error> {
        if self.state != ClientState::Connected {
            return Err(Error::BadState("subscribe before connected"));
        }
        if !crate::topic::filter_is_valid(filter) {
            return Err(Error::BadState("invalid topic filter"));
        }
        let msg_id = self.fresh_msg_id();
        let packet = Packet::Subscribe {
            dup: false,
            qos,
            msg_id,
            topic: TopicRef::Name(filter.to_owned()),
        };
        Ok((msg_id, vec![self.ask(packet, now)]))
    }

    /// Starts a graceful disconnect: the session transitions to
    /// `Disconnected` immediately (spec §6.15 — the client is disconnected
    /// the moment it sends DISCONNECT, whether or not the broker's reply
    /// arrives) and timer state is cleared so no keep-alive or control
    /// retransmission fires on the torn-down session. In-flight publishes
    /// and tracked registrations are retained for a later
    /// [`Client::reconnect`].
    pub fn disconnect(&mut self, now: Nanos) -> Vec<Output> {
        self.last_tx = now;
        self.state = ClientState::Disconnected;
        self.ping_outstanding_since = None;
        self.controls.clear();
        vec![Output::Send(Packet::Disconnect { duration: None })]
    }

    /// Feeds one raw inbound datagram. PUBLISH payloads decode borrowed
    /// and are copied once into a buffer from the spare-payload pool, so
    /// a subscriber's steady-state receive path reuses the same backing
    /// allocations instead of building a fresh `Vec` per message.
    pub fn on_datagram(&mut self, datagram: &[u8], now: Nanos) -> Result<Vec<Output>, Error> {
        match Packet::decode_borrowed(datagram)? {
            PacketRef::Publish {
                dup,
                qos,
                retain,
                topic,
                msg_id,
                payload,
            } => {
                let mut owned = self.take_spare_payload().unwrap_or_default();
                owned.extend_from_slice(payload);
                Ok(self.on_packet(
                    Packet::Publish {
                        dup,
                        qos,
                        retain,
                        topic,
                        msg_id,
                        payload: owned,
                    },
                    now,
                ))
            }
            PacketRef::Owned(p) => Ok(self.on_packet(p, now)),
        }
    }

    /// Feeds one decoded inbound packet.
    fn on_packet(&mut self, packet: Packet, now: Nanos) -> Vec<Output> {
        let mut out = Vec::new();
        match packet {
            Packet::ConnAck { code } => {
                self.complete(|asked| matches!(asked, Packet::Connect { .. }));
                if code == ReturnCode::Accepted {
                    self.state = ClientState::Connected;
                    self.had_session = true;
                    self.ping_outstanding_since = None;
                    out.push(Output::Event(ClientEvent::Connected));
                    if self.resuming {
                        self.resuming = false;
                        self.resume_session(now, &mut out);
                    }
                } else {
                    self.state = ClientState::Disconnected;
                    self.resuming = false;
                    out.push(Output::Event(ClientEvent::ConnectFailed(code)));
                }
            }
            Packet::RegAck {
                topic_id,
                msg_id,
                code,
            } => {
                let asked = self.complete(
                    |asked| matches!(asked, Packet::Register { msg_id: m, .. } if *m == msg_id),
                );
                if let Some(Packet::Register { topic_name, .. }) = asked {
                    if code == ReturnCode::Accepted {
                        self.registered_topics
                            .insert(topic_name.clone(), Some(topic_id));
                        // A topic resumed under a (possibly) new id: its
                        // in-flight publishes move to it and go out again.
                        if let Some(Some(old_id)) = self.resume_pending.remove(&topic_name) {
                            for id in self.out.ids_in_order(|s| s.topic == TopicRef::Id(old_id)) {
                                self.retransmit_inflight(id, Some(topic_id), now, &mut out);
                            }
                        }
                        out.push(Output::Event(ClientEvent::Registered {
                            topic_name,
                            topic_id,
                        }));
                    } else if let Some(old_id) = self.resume_pending.remove(&topic_name) {
                        // The broker refused to resume this registration:
                        // stop tracking the topic (so resume_complete()
                        // can report success) and hand its in-flight
                        // publishes back instead of leaving them stuck
                        // un-remapped forever.
                        self.registered_topics.remove(&topic_name);
                        let old = old_id.map(TopicRef::Id);
                        for id in self.out.ids_in_order(|s| Some(&s.topic) == old.as_ref()) {
                            self.reject(id, code, &mut out);
                        }
                    }
                }
            }
            Packet::SubAck {
                qos,
                topic_id,
                msg_id,
                code,
            } => {
                let asked = self.complete(
                    |asked| matches!(asked, Packet::Subscribe { msg_id: m, .. } if *m == msg_id),
                );
                if let Some(Packet::Subscribe {
                    qos: asked_qos,
                    topic: TopicRef::Name(filter),
                    ..
                }) = asked.filter(|_| code == ReturnCode::Accepted)
                {
                    self.subscribed_filters.retain(|(f, _)| f != &filter);
                    self.subscribed_filters.push((filter, asked_qos));
                    out.push(Output::Event(ClientEvent::Subscribed {
                        msg_id,
                        topic_id,
                        qos,
                    }));
                }
            }
            Packet::PubAck { msg_id, code, .. } => {
                if code != ReturnCode::Accepted {
                    // A rejection (e.g. InvalidTopicId from a broker that
                    // lost the session across a restart) terminates the
                    // exchange for QoS 1 *and* QoS 2 — reporting it as
                    // PublishDone would silently lose the record. The
                    // payload goes back with the event.
                    self.reject(msg_id, code, &mut out);
                } else {
                    self.on_ack(msg_id, Ack::Puback, now, &mut out);
                }
            }
            Packet::PubRec { msg_id } => {
                self.on_ack(msg_id, Ack::Pubrec, now, &mut out);
                // Always answer PUBREC (idempotent PUBREL).
                self.last_tx = now;
                out.push(Output::Send(Packet::PubRel { msg_id }));
            }
            Packet::PubComp { msg_id } => self.on_ack(msg_id, Ack::Pubcomp, now, &mut out),
            Packet::Publish {
                qos,
                topic,
                msg_id,
                payload,
                ..
            } => match qos {
                QoS::AtMostOnce => {
                    out.push(Output::Event(ClientEvent::Message { topic, payload }));
                }
                QoS::AtLeastOnce => {
                    out.push(Output::Event(ClientEvent::Message {
                        topic: topic.clone(),
                        payload,
                    }));
                    self.last_tx = now;
                    let topic_id = match topic {
                        TopicRef::Id(id) | TopicRef::Predefined(id) => id,
                        TopicRef::Name(_) => 0,
                    };
                    out.push(Output::Send(Packet::PubAck {
                        topic_id,
                        msg_id,
                        code: ReturnCode::Accepted,
                    }));
                }
                QoS::ExactlyOnce => {
                    // Deliver on first receipt; DUP re-deliveries and late
                    // copies of a completed handshake only get the PUBREC.
                    if self.inbound.first_receipt(msg_id) {
                        out.push(Output::Event(ClientEvent::Message { topic, payload }));
                    }
                    self.last_tx = now;
                    out.push(Output::Send(Packet::PubRec { msg_id }));
                }
            },
            Packet::PubRel { msg_id } => {
                self.inbound.release(msg_id);
                self.last_tx = now;
                out.push(Output::Send(Packet::PubComp { msg_id }));
            }
            Packet::PingResp => {
                self.ping_outstanding_since = None;
            }
            Packet::PingReq => {
                self.last_tx = now;
                out.push(Output::Send(Packet::PingResp));
            }
            Packet::Disconnect { .. } => {
                self.state = ClientState::Disconnected;
                out.push(Output::Event(ClientEvent::Disconnected));
            }
            // Broker-originated REGISTER (topic id assignment for
            // wildcard subscribers): acknowledge.
            Packet::Register {
                topic_id, msg_id, ..
            } => {
                self.last_tx = now;
                out.push(Output::Send(Packet::RegAck {
                    topic_id,
                    msg_id,
                    code: ReturnCode::Accepted,
                }));
            }
            Packet::CongestionAdvisory { level } => {
                out.push(Output::Event(ClientEvent::Congestion { level }));
            }
            _ => {}
        }
        out
    }

    /// Takes a message the broker refused with `code` out of the window,
    /// if it is there, and surfaces [`ClientEvent::PublishRejected`] with
    /// what it hands back ([`Client::give_back`]).
    fn reject(&mut self, msg_id: u16, code: ReturnCode, out: &mut Vec<Output>) {
        if let Some(slot) = self.out.abandon(msg_id) {
            let cap = self.config.max_inflight;
            let payload = Self::give_back(&mut self.spare_payloads, cap, slot);
            let rejected = ClientEvent::PublishRejected {
                msg_id,
                code,
                payload,
            };
            out.push(Output::Event(rejected));
        }
    }

    /// Runs an acknowledgement through the send window; the one that
    /// completes a handshake frees the payload buffer and surfaces
    /// [`ClientEvent::PublishDone`].
    fn on_ack(&mut self, msg_id: u16, ack: Ack, now: Nanos, out: &mut Vec<Output>) {
        if let Some(payload) = self.out.on_ack(msg_id, ack, now) {
            self.reclaim_payload(payload);
            out.push(Output::Event(ClientEvent::PublishDone { msg_id }));
        }
    }

    /// Emits the session-resumption traffic after a reconnect CONNACK:
    /// fresh REGISTERs for every tracked topic, fresh SUBSCRIBEs for every
    /// acknowledged filter, and immediate DUP retransmission of in-flight
    /// publishes whose topic ids cannot change (predefined ids). In-flight
    /// publishes on registered ids wait for their fresh REGACK so they can
    /// be remapped if the broker assigns a different id.
    fn resume_session(&mut self, now: Nanos, out: &mut Vec<Output>) {
        let mut filters: Vec<(String, QoS)> = self.subscribed_filters.clone();
        filters.sort_by(|a, b| a.0.cmp(&b.0));
        for (filter, qos) in filters {
            let msg_id = self.fresh_msg_id();
            let packet = Packet::Subscribe {
                dup: false,
                qos,
                msg_id,
                topic: TopicRef::Name(filter),
            };
            out.push(self.ask(packet, now));
        }
        let mut topics: Vec<(String, Option<u16>)> = self
            .registered_topics
            .iter()
            .map(|(n, id)| (n.clone(), *id))
            .collect();
        topics.sort();
        for (name, old_id) in topics {
            self.resume_pending.insert(name.clone(), old_id);
            let msg_id = self.fresh_msg_id();
            let packet = Packet::Register {
                topic_id: 0,
                msg_id,
                topic_name: name,
            };
            out.push(self.ask(packet, now));
        }
        // In-flight publishes whose topic reference is not subject to
        // re-registration retransmit immediately.
        let resume_pending = &self.resume_pending;
        let ids = self.out.ids_in_order(|s| match s.topic {
            TopicRef::Predefined(_) | TopicRef::Name(_) => true,
            TopicRef::Id(id) => !resume_pending.values().any(|old| *old == Some(id)),
        });
        for id in ids {
            self.retransmit_inflight(id, None, now, out);
        }
        self.last_tx = now;
    }

    /// Re-sends one in-flight message with a reset retry budget, first
    /// moving it to topic id `remap` when the broker re-registered its
    /// topic under a new one.
    fn retransmit_inflight(
        &mut self,
        id: u16,
        remap: Option<u16>,
        now: Nanos,
        out: &mut Vec<Output>,
    ) {
        if let Some(slot) = self.out.rearm(id, now) {
            if let Some(new_id) = remap {
                slot.topic = TopicRef::Id(new_id);
            }
            let packet = Self::resend_packet(&mut self.spare_payloads, id, slot);
            self.last_tx = now;
            out.push(Output::Send(packet));
        }
    }

    /// The retransmission of an in-flight message: its PUBLISH with DUP
    /// until the PUBREC is in, the PUBREL after.
    fn resend_packet(pool: &mut Vec<Vec<u8>>, msg_id: u16, slot: &Slot<TopicRef>) -> Packet {
        match slot.republish_qos() {
            Some(qos) => Packet::Publish {
                dup: true,
                qos,
                retain: false,
                topic: slot.topic.clone(),
                msg_id,
                payload: Self::wire_copy(pool, &slot.payload),
            },
            None => Packet::PubRel { msg_id },
        }
    }

    /// Drives timers: retransmissions and keep-alive. Call at least every
    /// `retry_timeout / 2`.
    pub fn on_tick(&mut self, now: Nanos) -> Vec<Output> {
        let mut out = Vec::new();
        let retry_ns = self.config.retry_timeout.as_nanos() as u64;

        // Control-packet retransmission (spec: retransmit any message
        // awaiting a reply on Tretry, up to Nretry times), in send order.
        // Runs in the Connecting state too, so lost CONNECTs self-heal; a
        // transaction out of retries is dropped whole.
        let (max_retries, last_tx) = (self.config.max_retries, &mut self.last_tx);
        let mut connect_failed = false;
        self.controls.retain_mut(|c| {
            if now.saturating_sub(c.last_sent) < retry_ns {
                return true;
            }
            if c.retries >= max_retries {
                connect_failed |= matches!(c.packet, Packet::Connect { .. });
                return false;
            }
            c.retries += 1;
            c.last_sent = now;
            let mut packet = c.packet.clone();
            if let Packet::Subscribe { dup, .. } = &mut packet {
                *dup = true;
            }
            *last_tx = now;
            out.push(Output::Send(packet));
            true
        });
        if connect_failed {
            self.state = ClientState::Disconnected;
            out.push(Output::Event(ClientEvent::ConnectFailed(
                ReturnCode::Congestion,
            )));
        }

        if self.state != ClientState::Connected {
            return out;
        }

        let (pool, cap, last_tx) = (
            &mut self.spare_payloads,
            self.config.max_inflight,
            &mut self.last_tx,
        );
        self.out.due(
            now,
            retry_ns,
            self.config.max_retries,
            |msg_id, due| match due {
                Due::Resend(slot) => {
                    *last_tx = now;
                    out.push(Output::Send(Self::resend_packet(pool, msg_id, slot)));
                }
                Due::Expired(slot) => {
                    // Retry exhaustion usually means the link is down, not
                    // that the record is unwanted: the payload goes back
                    // for replay after a reconnect, unless a PUBREC proved
                    // the broker holds (and forwarded) the message.
                    let payload = Self::give_back(pool, cap, slot);
                    out.push(Output::Event(ClientEvent::PublishFailed {
                        msg_id,
                        payload,
                    }));
                }
            },
        );

        // Keep-alive.
        let ka_ns = self.config.keep_alive.as_nanos() as u64;
        if ka_ns > 0 {
            match self.ping_outstanding_since {
                Some(since) if now.saturating_sub(since) > retry_ns => {
                    self.ping_outstanding_since = None;
                    out.push(Output::Event(ClientEvent::PingTimeout));
                }
                None if now.saturating_sub(self.last_tx) >= ka_ns => {
                    self.ping_outstanding_since = Some(now);
                    self.last_tx = now;
                    out.push(Output::Send(Packet::PingReq));
                }
                _ => {}
            }
        }
        out
    }

    /// When [`Client::on_tick`] will next have something to do, so a
    /// caller with nothing else to wait for can sleep until then instead
    /// of polling: the earliest retransmission of a control packet or an
    /// in-flight publish, and the keep-alive (the PINGREQ falling due, or
    /// the outstanding one timing out). `None` when no timer is running.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let retry_ns = self.config.retry_timeout.as_nanos() as u64;
        let control = self
            .controls
            .iter()
            .map(|c| c.last_sent.saturating_add(retry_ns))
            .min();
        if self.state != ClientState::Connected {
            return control;
        }
        let ka_ns = self.config.keep_alive.as_nanos() as u64;
        let keep_alive = match self.ping_outstanding_since {
            _ if ka_ns == 0 => None,
            // `on_tick` gives up strictly after `Tretry`.
            Some(since) => Some(since.saturating_add(retry_ns).saturating_add(1)),
            None => Some(self.last_tx.saturating_add(ka_ns)),
        };
        [control, self.out.next_due(retry_ns), keep_alive]
            .into_iter()
            .flatten()
            .min()
    }

    /// Whether the broker owes a reply to something other than a publish:
    /// a CONNECT, REGISTER or SUBSCRIBE transaction, or a PINGREQ.
    pub fn control_outstanding(&self) -> bool {
        !self.controls.is_empty() || self.ping_outstanding_since.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_client() -> Client {
        connected(ClientConfig::new("dev1"))
    }

    /// A connected client whose `Tretry` is 1 s.
    fn connected_quick_retry() -> Client {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        connected(cfg)
    }

    fn connected(cfg: ClientConfig) -> Client {
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        assert_eq!(c.state(), ClientState::Connected);
        c
    }

    fn sends(outputs: &[Output]) -> Vec<&Packet> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Send(p) => Some(p),
                _ => None,
            })
            .collect()
    }

    fn events(outputs: &[Output]) -> Vec<&ClientEvent> {
        outputs
            .iter()
            .filter_map(|o| match o {
                Output::Event(e) => Some(e),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn connect_handshake() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        let out = c.connect(0);
        assert!(matches!(out[0], Output::Send(Packet::Connect { .. })));
        assert_eq!(c.state(), ClientState::Connecting);
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            1,
        );
        assert_eq!(events(&out), vec![&ClientEvent::Connected]);
    }

    #[test]
    fn connect_rejection_reported() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        c.connect(0);
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Congestion,
            },
            1,
        );
        assert_eq!(
            events(&out),
            vec![&ClientEvent::ConnectFailed(ReturnCode::Congestion)]
        );
        assert_eq!(c.state(), ClientState::Disconnected);
    }

    #[test]
    fn register_roundtrip() {
        let mut c = connected_client();
        let (msg_id, out) = c.register("provlight/wf1/dev1", 10).unwrap();
        assert!(matches!(
            sends(&out)[0],
            Packet::Register { topic_id: 0, .. }
        ));
        let out = c.on_packet(
            Packet::RegAck {
                topic_id: 42,
                msg_id,
                code: ReturnCode::Accepted,
            },
            20,
        );
        assert_eq!(
            events(&out),
            vec![&ClientEvent::Registered {
                topic_name: "provlight/wf1/dev1".into(),
                topic_id: 42
            }]
        );
    }

    /// A first connection made as a reconnect: a client no CONNACK has
    /// accepted asks for a clean session as configured, and the topic it
    /// tracked is registered at the CONNACK; once it has had a session, a
    /// reconnect asks to continue it, and registers the topic again.
    #[test]
    fn a_tracked_topic_is_registered_at_a_first_reconnect() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        c.track("provlight/wf1/dev1");
        assert_eq!(c.topic_id("provlight/wf1/dev1"), None);
        let accepted = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        for (at, clean) in [(0, true), (100, false)] {
            let out = c.reconnect(at);
            assert!(matches!(
                sends(&out)[..],
                [Packet::Connect { clean_session, .. }] if *clean_session == clean
            ));
            let out = c.on_packet(accepted.clone(), at + 1);
            let msg_id = match sends(&out)[..] {
                [Packet::Register {
                    msg_id, topic_name, ..
                }] if topic_name == "provlight/wf1/dev1" => *msg_id,
                ref other => panic!("no REGISTER at the CONNACK: {other:?}"),
            };
            assert!(!c.resume_complete());
            let regack = Packet::RegAck {
                topic_id: 42,
                msg_id,
                code: ReturnCode::Accepted,
            };
            c.on_packet(regack, at + 2);
            assert!(c.resume_complete());
            assert_eq!(c.topic_id("provlight/wf1/dev1"), Some(42));
        }
    }

    #[test]
    fn qos0_publish_has_no_state() {
        let mut c = connected_client();
        let (id, out) = c
            .publish(TopicRef::Id(1), vec![1, 2], QoS::AtMostOnce, 5)
            .unwrap();
        assert_eq!(id, 0);
        assert_eq!(sends(&out).len(), 1);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn qos1_publish_completes_on_puback() {
        let mut c = connected_client();
        let (id, _) = c
            .publish(TopicRef::Id(1), vec![1], QoS::AtLeastOnce, 5)
            .unwrap();
        assert_eq!(c.inflight_len(), 1);
        let out = c.on_packet(
            Packet::PubAck {
                topic_id: 1,
                msg_id: id,
                code: ReturnCode::Accepted,
            },
            6,
        );
        assert_eq!(events(&out), vec![&ClientEvent::PublishDone { msg_id: id }]);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn qos2_four_way_handshake() {
        let mut c = connected_client();
        let (id, _) = c
            .publish(TopicRef::Id(1), vec![9], QoS::ExactlyOnce, 5)
            .unwrap();
        // PUBREC -> client answers PUBREL.
        let out = c.on_packet(Packet::PubRec { msg_id: id }, 6);
        assert_eq!(sends(&out), vec![&Packet::PubRel { msg_id: id }]);
        assert_eq!(c.inflight_len(), 1);
        // PUBCOMP -> done.
        let out = c.on_packet(Packet::PubComp { msg_id: id }, 7);
        assert_eq!(events(&out), vec![&ClientEvent::PublishDone { msg_id: id }]);
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn publish_retransmits_with_dup_then_fails() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 2;
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let (id, _) = c
            .publish(TopicRef::Id(1), vec![1], QoS::ExactlyOnce, 0)
            .unwrap();
        let s = 1_000_000_000u64;
        // First retry.
        let out = c.on_tick(s + 1);
        match sends(&out)[0] {
            Packet::Publish { dup, msg_id, .. } => {
                assert!(*dup);
                assert_eq!(*msg_id, id);
            }
            p => panic!("unexpected {p:?}"),
        }
        // Second retry.
        assert_eq!(sends(&c.on_tick(2 * s + 2)).len(), 1);
        // Exhausted: the payload goes back with the event.
        let out = c.on_tick(3 * s + 3);
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishFailed {
                msg_id: id,
                payload: Some(vec![1])
            }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn inflight_window_enforced() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.max_inflight = 2;
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        c.publish(TopicRef::Id(1), vec![], QoS::ExactlyOnce, 0)
            .unwrap();
        c.publish(TopicRef::Id(1), vec![], QoS::ExactlyOnce, 0)
            .unwrap();
        assert!(!c.can_publish());
        let err = c
            .publish(TopicRef::Id(1), vec![], QoS::ExactlyOnce, 0)
            .unwrap_err();
        assert_eq!(err, Error::InflightFull);
    }

    #[test]
    fn inbound_qos2_delivers_exactly_once() {
        let mut c = connected_client();
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(3),
            msg_id: 77,
            payload: vec![5],
        };
        let out = c.on_packet(publish.clone(), 1);
        assert_eq!(events(&out).len(), 1);
        assert_eq!(sends(&out), vec![&Packet::PubRec { msg_id: 77 }]);
        // DUP redelivery before PUBREL: no second Message event.
        let out = c.on_packet(publish, 2);
        assert_eq!(events(&out).len(), 0);
        assert_eq!(sends(&out), vec![&Packet::PubRec { msg_id: 77 }]);
        // PUBREL clears the id and is answered with PUBCOMP.
        let out = c.on_packet(Packet::PubRel { msg_id: 77 }, 3);
        assert_eq!(sends(&out), vec![&Packet::PubComp { msg_id: 77 }]);
    }

    #[test]
    fn late_duplicate_after_pubrel_is_still_suppressed() {
        crate::qos::tests::late_duplicate_scenario(
            &mut connected_client(),
            3,
            |c, packet| {
                let out = c.on_packet(packet, 1);
                let replies = sends(&out).into_iter().cloned().collect();
                (events(&out).len(), replies)
            },
            |_| {},
        );
    }

    #[test]
    fn acks_out_of_phase_complete_nothing() {
        let mut c = connected_quick_retry();
        let (qos1, _) = c
            .publish(TopicRef::Id(1), vec![1], QoS::AtLeastOnce, 0)
            .unwrap();
        let (qos2, _) = c
            .publish(TopicRef::Id(1), vec![2], QoS::ExactlyOnce, 0)
            .unwrap();
        // A PUBREC for the QoS 1 message still gets its idempotent PUBREL,
        // but neither it nor a PUBCOMP moves the message off its PUBACK.
        let out = c.on_packet(Packet::PubRec { msg_id: qos1 }, 1);
        assert_eq!(sends(&out), vec![&Packet::PubRel { msg_id: qos1 }]);
        assert!(c.on_packet(Packet::PubComp { msg_id: qos1 }, 2).is_empty());
        // A PUBCOMP ahead of the PUBREC does not complete the QoS 2 message,
        // and a PUBACK never does.
        assert!(c.on_packet(Packet::PubComp { msg_id: qos2 }, 3).is_empty());
        let accepted = Packet::PubAck {
            topic_id: 1,
            msg_id: qos2,
            code: ReturnCode::Accepted,
        };
        assert!(c.on_packet(accepted, 4).is_empty());
        assert_eq!(c.inflight_len(), 2);
        // Both are still retransmitted as what they were: DUP PUBLISHes at
        // their own QoS, not PUBRELs.
        let out = c.on_tick(1_000_000_000);
        let resent: Vec<(u16, QoS)> = sends(&out)
            .iter()
            .map(|p| match p {
                Packet::Publish {
                    dup: true,
                    qos,
                    msg_id,
                    ..
                } => (*msg_id, *qos),
                p => panic!("unexpected {p:?}"),
            })
            .collect();
        assert_eq!(
            resent,
            vec![(qos1, QoS::AtLeastOnce), (qos2, QoS::ExactlyOnce)]
        );
        // The acks each phase does accept still finish both.
        let accepted = Packet::PubAck {
            topic_id: 1,
            msg_id: qos1,
            code: ReturnCode::Accepted,
        };
        let out = c.on_packet(accepted, 5);
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishDone { msg_id: qos1 }]
        );
        c.on_packet(Packet::PubRec { msg_id: qos2 }, 6);
        let out = c.on_packet(Packet::PubComp { msg_id: qos2 }, 7);
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishDone { msg_id: qos2 }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn retransmits_in_publish_order_across_msg_id_wrap() {
        let mut c = connected_quick_retry();
        c.out.set_next_id(65534);
        for i in 0..4u8 {
            c.publish(TopicRef::Id(1), vec![i], QoS::AtLeastOnce, 0)
                .unwrap();
        }
        let out = c.on_tick(1_000_000_000);
        let resent: Vec<(u16, u8)> = sends(&out)
            .iter()
            .map(|p| match p {
                Packet::Publish {
                    msg_id, payload, ..
                } => (*msg_id, payload[0]),
                p => panic!("unexpected {p:?}"),
            })
            .collect();
        assert_eq!(resent, vec![(65534, 0), (65535, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn keepalive_ping_and_timeout() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.keep_alive = Duration::from_secs(10);
        cfg.retry_timeout = Duration::from_secs(2);
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let s = 1_000_000_000u64;
        let out = c.on_tick(10 * s);
        assert_eq!(sends(&out), vec![&Packet::PingReq]);
        // PINGRESP clears it.
        c.on_packet(Packet::PingResp, 10 * s + 1);
        assert!(events(&c.on_tick(11 * s)).is_empty());
        // Next ping unanswered long enough -> timeout event.
        let out = c.on_tick(21 * s);
        assert_eq!(sends(&out), vec![&Packet::PingReq]);
        let out = c.on_tick(24 * s);
        assert_eq!(events(&out), vec![&ClientEvent::PingTimeout]);
    }

    /// `next_deadline` is exact: a tick just before it does nothing, the
    /// tick at it does something — through a CONNECT retransmission, an
    /// idle keep-alive, a publish retransmitted until it expires, and a
    /// PINGREQ nobody answers.
    #[test]
    fn next_deadline_is_the_first_tick_that_acts() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.keep_alive = Duration::from_secs(7);
        cfg.retry_timeout = Duration::from_secs(2);
        cfg.max_retries = 1;
        let mut c = Client::new(cfg);
        assert_eq!(c.next_deadline(), None, "nothing started, nothing due");
        let s = 1_000_000_000u64;
        let acts_at = |c: &mut Client, at: Nanos| {
            assert_eq!(c.next_deadline(), Some(at));
            assert!(c.on_tick(at - 1).is_empty(), "acted before {at}");
            let out = c.on_tick(at);
            assert!(!out.is_empty(), "nothing to do at {at}");
            out
        };

        c.connect(0);
        assert!(c.control_outstanding());
        let out = acts_at(&mut c, 2 * s);
        assert!(matches!(sends(&out)[..], [Packet::Connect { .. }]));
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            3 * s,
        );
        assert!(!c.control_outstanding());

        // The window's timer is nearer than the keep-alive's: one
        // retransmission, then expiry, then the line is idle for 7 s.
        c.publish(TopicRef::Id(1), vec![1], QoS::AtLeastOnce, 4 * s)
            .unwrap();
        let out = acts_at(&mut c, 6 * s);
        assert!(matches!(
            sends(&out)[..],
            [Packet::Publish { dup: true, .. }]
        ));
        let out = acts_at(&mut c, 8 * s);
        assert!(matches!(
            events(&out)[..],
            [ClientEvent::PublishFailed { .. }]
        ));
        let out = acts_at(&mut c, 13 * s);
        assert_eq!(sends(&out), vec![&Packet::PingReq]);
        assert!(c.control_outstanding());
        let out = acts_at(&mut c, 15 * s + 1);
        assert_eq!(events(&out), vec![&ClientEvent::PingTimeout]);
    }

    #[test]
    fn operations_require_connection() {
        let mut c = Client::new(ClientConfig::new("dev1"));
        assert!(c.register("t", 0).is_err());
        assert!(c
            .publish(TopicRef::Id(1), vec![], QoS::AtMostOnce, 0)
            .is_err());
        assert!(c.subscribe("t/#", QoS::AtMostOnce, 0).is_err());
    }

    #[test]
    fn subscribe_validates_filter() {
        let mut c = connected_client();
        assert!(c.subscribe("a/#/b", QoS::AtMostOnce, 0).is_err());
        let (_, out) = c.subscribe("a/+/b", QoS::ExactlyOnce, 0).unwrap();
        assert!(matches!(sends(&out)[0], Packet::Subscribe { .. }));
    }

    #[test]
    fn connect_retransmits_until_connack() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 3;
        let mut c = Client::new(cfg);
        c.connect(0);
        let s = 1_000_000_000u64;
        // Lost CONNACK: the client re-sends CONNECT on each Tretry.
        let out = c.on_tick(s + 1);
        assert!(matches!(sends(&out)[0], Packet::Connect { .. }));
        assert_eq!(c.state(), ClientState::Connecting);
        // CONNACK finally arrives; retransmission stops.
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            s + 2,
        );
        assert!(sends(&c.on_tick(3 * s))
            .iter()
            .all(|p| !matches!(p, Packet::Connect { .. })));
    }

    #[test]
    fn connect_gives_up_after_retries() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 2;
        let mut c = Client::new(cfg);
        c.connect(0);
        let s = 1_000_000_000u64;
        assert_eq!(sends(&c.on_tick(s + 1)).len(), 1);
        assert_eq!(sends(&c.on_tick(2 * s + 2)).len(), 1);
        let out = c.on_tick(3 * s + 3);
        assert!(matches!(events(&out)[0], ClientEvent::ConnectFailed(_)));
        assert_eq!(c.state(), ClientState::Disconnected);
    }

    #[test]
    fn register_and_subscribe_retransmit() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let (reg_id, _) = c.register("topic/a", 0).unwrap();
        let (sub_id, _) = c.subscribe("topic/#", QoS::AtLeastOnce, 0).unwrap();
        let s = 1_000_000_000u64;
        let out = c.on_tick(s + 1);
        let resent = sends(&out);
        assert!(resent
            .iter()
            .any(|p| matches!(p, Packet::Register { msg_id, .. } if *msg_id == reg_id)));
        assert!(resent.iter().any(
            |p| matches!(p, Packet::Subscribe { msg_id, dup: true, .. } if *msg_id == sub_id)
        ));
        // Acks stop the retransmission.
        c.on_packet(
            Packet::RegAck {
                topic_id: 5,
                msg_id: reg_id,
                code: ReturnCode::Accepted,
            },
            s + 2,
        );
        c.on_packet(
            Packet::SubAck {
                qos: QoS::AtLeastOnce,
                topic_id: 0,
                msg_id: sub_id,
                code: ReturnCode::Accepted,
            },
            s + 2,
        );
        let out = c.on_tick(3 * s);
        assert!(sends(&out)
            .iter()
            .all(|p| !matches!(p, Packet::Register { .. } | Packet::Subscribe { .. })));
    }

    /// A connected client (`Tretry` 1 s, `Nretry` 1) with a REGISTER and
    /// a SUBSCRIBE pending, and their message ids.
    fn register_and_subscribe_pending() -> (Client, u16, u16) {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 1;
        let mut c = connected(cfg);
        let (reg_id, _) = c.register("topic/a", 0).unwrap();
        let (sub_id, _) = c.subscribe("topic/#", QoS::AtLeastOnce, 0).unwrap();
        (c, reg_id, sub_id)
    }

    /// The message ids of the REGISTERs and SUBSCRIBEs among `outputs`.
    fn control_ids(outputs: &[Output]) -> Vec<u16> {
        let ids = sends(outputs).into_iter().filter_map(|p| match p {
            Packet::Register { msg_id, .. } | Packet::Subscribe { msg_id, .. } => Some(*msg_id),
            _ => None,
        });
        ids.collect()
    }

    /// Feeds the ack `ack(reg_id, sub_id)` makes to a client with a
    /// REGISTER and a SUBSCRIBE pending: it surfaces nothing, sends
    /// nothing and completes neither, so both go out again at `Tretry`.
    fn completes_nothing(ack: impl Fn(u16, u16) -> Packet) {
        let (mut c, reg_id, sub_id) = register_and_subscribe_pending();
        let out = c.on_packet(ack(reg_id, sub_id), 1);
        assert!(out.is_empty(), "{out:?}");
        let out = c.on_tick(1_000_000_000);
        assert_eq!(control_ids(&out), vec![reg_id, sub_id]);
        assert_eq!(c.topic_id("topic/a"), None);
        assert!(c.subscribed_filters.is_empty());
    }

    #[test]
    fn a_regack_carrying_a_subscribe_id_completes_nothing() {
        completes_nothing(|_, sub_id| Packet::RegAck {
            topic_id: 5,
            msg_id: sub_id,
            code: ReturnCode::Accepted,
        });
    }

    #[test]
    fn a_suback_carrying_a_register_id_completes_nothing() {
        completes_nothing(|reg_id, _| Packet::SubAck {
            qos: QoS::AtLeastOnce,
            topic_id: 0,
            msg_id: reg_id,
            code: ReturnCode::Accepted,
        });
    }

    #[test]
    fn an_unprompted_unsuback_completes_nothing() {
        completes_nothing(|reg_id, _| Packet::UnsubAck { msg_id: reg_id });
        completes_nothing(|_, sub_id| Packet::UnsubAck { msg_id: sub_id });
    }

    /// Replies to transactions that are gone — out of retries, or dropped
    /// at a reconnect — find nothing to complete: no event, no topic id, no
    /// filter to re-subscribe.
    fn late_acks_complete_nothing(mut c: Client, reg_id: u16, sub_id: u16, now: Nanos) {
        assert!(c.controls.is_empty());
        let regack = Packet::RegAck {
            topic_id: 5,
            msg_id: reg_id,
            code: ReturnCode::Accepted,
        };
        let suback = Packet::SubAck {
            qos: QoS::AtLeastOnce,
            topic_id: 0,
            msg_id: sub_id,
            code: ReturnCode::Accepted,
        };
        for ack in [regack, suback] {
            let out = c.on_packet(ack, now);
            assert!(out.is_empty(), "{out:?}");
        }
        assert_eq!(c.topic_id("topic/a"), None);
        assert!(c.subscribed_filters.is_empty());
        assert!(c.on_tick(now + 10_000_000_000).is_empty());
    }

    #[test]
    fn an_exhausted_register_or_subscribe_leaves_nothing_behind() {
        let (mut c, reg_id, sub_id) = register_and_subscribe_pending();
        let s = 1_000_000_000u64;
        assert_eq!(control_ids(&c.on_tick(s)), vec![reg_id, sub_id]);
        assert!(c.on_tick(2 * s).is_empty(), "Nretry spent: nothing resent");
        assert!(!c.control_outstanding());
        late_acks_complete_nothing(c, reg_id, sub_id, 3 * s);
    }

    #[test]
    fn a_register_or_subscribe_outstanding_at_reconnect_leaves_nothing_behind() {
        let (mut c, reg_id, sub_id) = register_and_subscribe_pending();
        c.reconnect(10);
        let accepted = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        let out = c.on_packet(accepted, 11);
        assert_eq!(events(&out), vec![&ClientEvent::Connected]);
        assert!(control_ids(&out).is_empty(), "nothing was acknowledged");
        assert!(c.resume_complete());
        late_acks_complete_nothing(c, reg_id, sub_id, 12);
    }

    #[test]
    fn alloc_msg_id_skips_outstanding_control_ids() {
        let mut c = connected_client();
        // SUBSCRIBE takes msg id 1 and parks it in the control table.
        let (sub_id, _) = c.subscribe("t/#", QoS::AtLeastOnce, 0).unwrap();
        assert_eq!(sub_id, 1);
        // Force the allocator to wrap back onto the outstanding control id.
        c.out.set_next_id(sub_id);
        let (pub_id, _) = c
            .publish(TopicRef::Id(1), vec![1], QoS::AtLeastOnce, 0)
            .unwrap();
        assert_ne!(
            pub_id, sub_id,
            "publish must not reuse an outstanding SUBSCRIBE id"
        );
        // The SUBSCRIBE's retransmission state survived the allocation.
        assert!(c
            .controls
            .iter()
            .any(|control| control.msg_id() == Some(sub_id)));
    }

    #[test]
    fn disconnect_transitions_state_and_clears_timers() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.keep_alive = Duration::from_secs(1);
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let out = c.disconnect(5);
        assert!(matches!(sends(&out)[0], Packet::Disconnect { .. }));
        assert_eq!(c.state(), ClientState::Disconnected);
        // Publishing on the torn-down session is rejected.
        assert!(c
            .publish(TopicRef::Id(1), vec![], QoS::AtMostOnce, 6)
            .is_err());
        // No keep-alive pings fire on a disconnected session.
        let s = 1_000_000_000u64;
        assert!(c.on_tick(100 * s).is_empty());
    }

    #[test]
    fn puback_rejection_is_surfaced_not_publish_done() {
        let mut c = connected_client();
        let (id, _) = c
            .publish(TopicRef::Id(9), vec![42], QoS::AtLeastOnce, 0)
            .unwrap();
        let out = c.on_packet(
            Packet::PubAck {
                topic_id: 9,
                msg_id: id,
                code: ReturnCode::InvalidTopicId,
            },
            1,
        );
        // The payload goes back with the event, for replay on a fresh
        // session.
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishRejected {
                msg_id: id,
                code: ReturnCode::InvalidTopicId,
                payload: Some(vec![42])
            }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    /// A rejection that comes after the PUBREC ends the handshake too, but
    /// the broker holds the message: nothing goes back to publish again.
    #[test]
    fn a_rejection_past_the_pubrec_hands_back_no_payload() {
        let mut c = connected_client();
        let (id, _) = c
            .publish(TopicRef::Id(9), vec![42], QoS::ExactlyOnce, 0)
            .unwrap();
        c.on_packet(Packet::PubRec { msg_id: id }, 1);
        let rejection = Packet::PubAck {
            topic_id: 9,
            msg_id: id,
            code: ReturnCode::InvalidTopicId,
        };
        let out = c.on_packet(rejection, 2);
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishRejected {
                msg_id: id,
                code: ReturnCode::InvalidTopicId,
                payload: None
            }]
        );
        assert_eq!(c.inflight_len(), 0);
    }

    #[test]
    fn reconnect_resumes_registrations_and_remaps_inflight() {
        let mut c = connected_client();
        let (reg_id, _) = c.register("prov/dev1", 0).unwrap();
        c.on_packet(
            Packet::RegAck {
                topic_id: 42,
                msg_id: reg_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
        assert_eq!(c.topic_id("prov/dev1"), Some(42));
        let (pub_id, _) = c
            .publish(TopicRef::Id(42), vec![7], QoS::AtLeastOnce, 2)
            .unwrap();

        // Connection lost; reconnect requests session continuation.
        let out = c.reconnect(10);
        match sends(&out)[0] {
            Packet::Connect { clean_session, .. } => assert!(!clean_session),
            p => panic!("unexpected {p:?}"),
        }
        assert!(!c.resume_complete());

        // CONNACK: the tracked topic is re-registered; the in-flight
        // publish waits for the fresh REGACK (its id may have changed).
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            11,
        );
        let resent = sends(&out);
        let new_reg_id = resent
            .iter()
            .find_map(|p| match p {
                Packet::Register {
                    msg_id, topic_name, ..
                } if topic_name == "prov/dev1" => Some(*msg_id),
                _ => None,
            })
            .expect("tracked topic re-registered");
        assert!(resent.iter().all(|p| !matches!(p, Packet::Publish { .. })));

        // The restarted broker hands out a different id: the in-flight
        // publish is remapped and retransmitted with DUP.
        let out = c.on_packet(
            Packet::RegAck {
                topic_id: 77,
                msg_id: new_reg_id,
                code: ReturnCode::Accepted,
            },
            12,
        );
        let resent = sends(&out);
        match resent
            .iter()
            .find(|p| matches!(p, Packet::Publish { .. }))
            .expect("in-flight retransmitted")
        {
            Packet::Publish {
                dup,
                topic,
                msg_id,
                payload,
                ..
            } => {
                assert!(*dup);
                assert_eq!(*topic, TopicRef::Id(77));
                assert_eq!(*msg_id, pub_id);
                assert_eq!(payload, &vec![7]);
            }
            _ => unreachable!(),
        }
        assert!(c.resume_complete());
        assert_eq!(c.topic_id("prov/dev1"), Some(77));

        // Completion still works on the resumed session.
        let out = c.on_packet(
            Packet::PubAck {
                topic_id: 77,
                msg_id: pub_id,
                code: ReturnCode::Accepted,
            },
            13,
        );
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishDone { msg_id: pub_id }]
        );
    }

    #[test]
    fn rejected_resume_registration_dead_letters_inflight() {
        let mut c = connected_client();
        let (reg_id, _) = c.register("gone/topic", 0).unwrap();
        c.on_packet(
            Packet::RegAck {
                topic_id: 8,
                msg_id: reg_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
        let (pub_id, _) = c
            .publish(TopicRef::Id(8), vec![5], QoS::AtLeastOnce, 2)
            .unwrap();
        c.reconnect(10);
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            11,
        );
        let new_reg_id = sends(&out)
            .iter()
            .find_map(|p| match p {
                Packet::Register { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .unwrap();
        // The broker refuses the re-registration: resumption must still
        // complete, and the stuck in-flight publish must surface as a
        // rejection with its payload recoverable.
        let out = c.on_packet(
            Packet::RegAck {
                topic_id: 0,
                msg_id: new_reg_id,
                code: ReturnCode::NotSupported,
            },
            12,
        );
        assert!(c.resume_complete(), "rejection must not wedge resumption");
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishRejected {
                msg_id: pub_id,
                code: ReturnCode::NotSupported,
                payload: Some(vec![5])
            }]
        );
        assert_eq!(c.inflight_len(), 0);
        assert_eq!(c.topic_id("gone/topic"), None);
    }

    #[test]
    fn reconnect_resubscribes_acknowledged_filters() {
        let mut c = connected_client();
        let (sub_id, _) = c.subscribe("prov/#", QoS::ExactlyOnce, 0).unwrap();
        c.on_packet(
            Packet::SubAck {
                qos: QoS::ExactlyOnce,
                topic_id: 0,
                msg_id: sub_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
        c.reconnect(10);
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            11,
        );
        assert!(
            sends(&out).iter().any(|p| matches!(
                p,
                Packet::Subscribe { topic: TopicRef::Name(f), qos: QoS::ExactlyOnce, .. }
                    if f == "prov/#"
            )),
            "acknowledged filter must be re-subscribed on resumption"
        );
    }

    #[test]
    fn reconnect_retransmits_pubrel_phase_as_pubrel() {
        let mut c = connected_client();
        let (reg_id, _) = c.register("t", 0).unwrap();
        c.on_packet(
            Packet::RegAck {
                topic_id: 5,
                msg_id: reg_id,
                code: ReturnCode::Accepted,
            },
            1,
        );
        let (pub_id, _) = c
            .publish(TopicRef::Id(5), vec![1], QoS::ExactlyOnce, 2)
            .unwrap();
        // PUBREC received: the exchange is in the PUBREL phase.
        c.on_packet(Packet::PubRec { msg_id: pub_id }, 3);
        c.reconnect(10);
        let out = c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            11,
        );
        let reg_msg_id = sends(&out)
            .iter()
            .find_map(|p| match p {
                Packet::Register { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .unwrap();
        let out = c.on_packet(
            Packet::RegAck {
                topic_id: 5,
                msg_id: reg_msg_id,
                code: ReturnCode::Accepted,
            },
            12,
        );
        // Second half of the QoS 2 handshake resumes with PUBREL, not a
        // duplicate PUBLISH (which could double-deliver).
        assert!(sends(&out)
            .iter()
            .any(|p| matches!(p, Packet::PubRel { msg_id } if *msg_id == pub_id)));
        assert!(sends(&out)
            .iter()
            .all(|p| !matches!(p, Packet::Publish { .. })));
    }

    #[test]
    fn exhausted_retries_park_payload_in_dead_letters() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 1;
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let (id, _) = c
            .publish(TopicRef::Id(1), vec![9, 9], QoS::AtLeastOnce, 0)
            .unwrap();
        let s = 1_000_000_000u64;
        c.on_tick(s + 1); // retry 1
        let out = c.on_tick(3 * s); // exhausted
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishFailed {
                msg_id: id,
                payload: Some(vec![9, 9])
            }]
        );
    }

    #[test]
    fn pubcomp_phase_exhaustion_never_dead_letters() {
        let mut cfg = ClientConfig::new("dev1");
        cfg.retry_timeout = Duration::from_secs(1);
        cfg.max_retries = 1;
        let mut c = Client::new(cfg);
        c.connect(0);
        c.on_packet(
            Packet::ConnAck {
                code: ReturnCode::Accepted,
            },
            0,
        );
        let (id, _) = c
            .publish(TopicRef::Id(1), vec![4], QoS::ExactlyOnce, 0)
            .unwrap();
        // PUBREC arrives: the broker provably holds (and forwarded) the
        // message; only the PUBREL/PUBCOMP leg remains.
        c.on_packet(Packet::PubRec { msg_id: id }, 1);
        let s = 1_000_000_000u64;
        c.on_tick(2 * s); // PUBREL retry
        let out = c.on_tick(4 * s); // exhausted
                                    // Replaying this payload as a fresh publish would double-deliver.
        assert_eq!(
            events(&out),
            vec![&ClientEvent::PublishFailed {
                msg_id: id,
                payload: None
            }]
        );
    }

    #[test]
    fn broker_register_is_acked() {
        let mut c = connected_client();
        let out = c.on_packet(
            Packet::Register {
                topic_id: 9,
                msg_id: 4,
                topic_name: "t".into(),
            },
            0,
        );
        assert_eq!(
            sends(&out),
            vec![&Packet::RegAck {
                topic_id: 9,
                msg_id: 4,
                code: ReturnCode::Accepted
            }]
        );
    }
}
