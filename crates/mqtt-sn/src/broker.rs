//! Sans-io MQTT-SN broker (the role Eclipse RSMB plays in the paper's
//! Fig. 3 architecture).
//!
//! The broker is generic over the peer address type `A` (a `SocketAddr`
//! for the real-UDP binding, a small actor id in the simulator). It keeps
//! per-client sessions, a shared topic registry, subscription state, and
//! QoS state machines in both directions:
//!
//! * **inbound QoS 2** (publisher → broker): the message is forwarded to
//!   subscribers on *first* receipt and duplicate PUBLISHes are suppressed
//!   until the PUBREL clears the message id — exactly-once semantics;
//! * **outbound QoS 1/2** (broker → subscriber): per-subscriber message-id
//!   allocation, retransmission with DUP on [`Broker::on_tick_into`], and
//!   the 4-way handshake for QoS 2 subscribers.
//!
//! One door in, one way out. A client's traffic enters as the bytes of its
//! datagram ([`Broker::on_datagram_into`]); beside it there is only time
//! ([`Broker::on_tick_into`]). Everything the broker sends leaves through
//! a [`BrokerOutputs`].

use crate::client::Nanos;
use crate::local::{LocalQueue, LocalSubscription};
use crate::packet::{Packet, PacketRef, QoS, ReturnCode, TopicRef};
use crate::qos::{Ack, Due, Receiver, SendWindow};
use crate::topic::{filter_is_valid, topic_matches, TopicRegistry};
use crate::Error;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Arc;
use std::time::Duration;

mod outputs;
mod state;

pub use outputs::BrokerOutputs;
use outputs::WireSink;
pub(crate) use outputs::MERGED_DATAGRAM_MAX;
#[cfg(test)]
pub(crate) use state::{state_as_v5, STATS_END};
pub use state::{wire, PersistAddr};

/// Broker configuration.
#[derive(Clone, Debug)]
pub struct BrokerConfig {
    /// Gateway id used in ADVERTISE/GWINFO.
    pub gw_id: u8,
    /// Retransmission timeout for broker→subscriber QoS traffic.
    pub retry_timeout: Duration,
    /// Maximum retransmissions before dropping an outbound message.
    pub max_retries: u32,
    /// Per-session cap on messages buffered while the subscriber is asleep
    /// or away (durable session). At the cap a new message evicts the
    /// oldest one buffered for delivery at QoS 0, or is itself dropped
    /// when there is none; either way one drop is counted in
    /// [`BrokerStats::drops`]. A session at the cap trips the hard
    /// congestion level, which refuses QoS ≥ 1 publishes before their ack,
    /// so what arrives there is QoS 0 and a message owed at QoS 1/2 is
    /// never evicted.
    pub max_buffered: usize,
    /// Broker-wide backlog (buffered + unacknowledged outbound messages,
    /// summed over every session) at which the broker advertises *soft*
    /// congestion to publishers via [`Packet::CongestionAdvisory`] —
    /// publishers should pace and coalesce, nothing is rejected yet.
    pub congestion_soft: usize,
    /// Broker-wide backlog at which congestion turns *hard*: QoS ≥ 1
    /// publishes are rejected with [`ReturnCode::Congestion`] (counted in
    /// [`BrokerStats::congestion_rejects`]) before they are acknowledged,
    /// so no acknowledged message meets a full buffer or queue. A single
    /// session or local queue reaching [`BrokerConfig::max_buffered`]
    /// also trips this level.
    pub congestion_hard: usize,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            gw_id: 1,
            retry_timeout: Duration::from_secs(10),
            max_retries: 5,
            max_buffered: 4096,
            // Soft well before any single session's drop cap so pacing
            // starts while drops are still avoidable; hard at 2× the
            // per-session cap means multiple subscribers are backed up.
            congestion_soft: 2048,
            congestion_hard: 8192,
        }
    }
}

/// Routing statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// PUBLISH packets received from publishers.
    pub publishes_in: u64,
    /// PUBLISH packets sent to subscribers.
    pub publishes_out: u64,
    /// Duplicate QoS 2 publishes suppressed.
    pub duplicates_suppressed: u64,
    /// Retransmissions performed.
    pub retransmissions: u64,
    /// Outbound messages dropped after retry exhaustion.
    pub drops: u64,
    /// Inbound datagrams that failed to decode (malformed or truncated).
    pub decode_errors: u64,
    /// Transient socket errors a transport binding backed off on.
    pub io_errors: u64,
    /// QoS ≥ 1 publishes rejected with [`ReturnCode::Congestion`] while
    /// the backlog was past the hard watermark.
    pub congestion_rejects: u64,
    /// [`Packet::CongestionAdvisory`] packets sent to clients.
    pub advisories_sent: u64,
    /// High-water mark of the broker-wide backlog (buffered +
    /// unacknowledged outbound messages across all sessions).
    pub backlog_high_water: u64,
    /// State snapshots that could not be written (see
    /// `UdpBroker::snapshot_to_file` in [`crate::net`]).
    pub snapshot_failures: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SessionState {
    Active,
    /// DISCONNECT with a duration: the device sleeps; publishes are
    /// buffered and flushed on its next PINGREQ (spec §6.14 — the
    /// feature that lets battery-powered devices duty-cycle their radio).
    Asleep,
    Disconnected,
}

#[derive(Clone, Debug)]
struct Session {
    client_id: String,
    state: SessionState,
    /// Connected with `clean_session = false`: the session (subscriptions,
    /// QoS state, buffered messages) survives disconnection and is resumed
    /// on the next CONNECT with this client id — even from a different
    /// transport address.
    durable: bool,
    /// Messages buffered while asleep or away: (topic id, payload, qos).
    /// A deque so cap-overflow eviction of the oldest message is O(1).
    buffered: VecDeque<(u16, Vec<u8>, QoS)>,
    subscriptions: Vec<(String, QoS)>,
    /// Unacknowledged QoS 1/2 messages toward this subscriber, keyed by
    /// the per-session message ids the window allocates.
    out: SendWindow<u16>,
    /// Exactly-once dedup of this publisher's QoS 2 messages.
    inbound: Receiver,
    last_seen: Nanos,
    /// Last congestion level advertised to this client, so advisories are
    /// only sent on level changes. Transient (not persisted in
    /// snapshots): a restarted broker simply re-advises on the next
    /// publish.
    advised_level: u8,
}

impl Session {
    fn new(client_id: String, now: Nanos) -> Self {
        Session {
            client_id,
            state: SessionState::Active,
            durable: false,
            buffered: VecDeque::new(),
            subscriptions: Vec::new(),
            out: SendWindow::new(),
            inbound: Receiver::default(),
            last_seen: now,
            advised_level: 0,
        }
    }
}

/// The broker state machine.
///
/// `Clone` copies the complete session/registry state; the persisted
/// form of the same state is [`Broker::encode_state`], which a gateway
/// wraps in its snapshot file (see `UdpBroker::snapshot_to_file` in
/// [`crate::net`]) so a restart loses neither durable sessions nor topic
/// registrations.
#[derive(Clone, Debug)]
pub struct Broker<A: Clone + Eq + Hash> {
    config: BrokerConfig,
    registry: TopicRegistry,
    sessions: HashMap<A, Session>,
    /// Insertion order of sessions, for deterministic fan-out.
    order: Vec<A>,
    /// Gateway-local subscriptions (see [`crate::local`]): attachments of
    /// the running process, never persisted.
    locals: Vec<Arc<LocalQueue>>,
    stats: BrokerStats,
    /// Bumped whenever sessions or subscriptions mutate; validates
    /// `routes` entries.
    route_epoch: u64,
    /// Per-topic fan-out cache. Routing a PUBLISH in steady state is then
    /// one hash lookup instead of a scan over every session's
    /// subscription list.
    routes: HashMap<u16, CachedRoute<A>>,
    /// Recycled payload buffers for outbound QoS state and away-session
    /// buffering, so steady-state QoS 1/2 forwarding stores its required
    /// retransmission copy without allocating.
    payload_pool: Vec<Vec<u8>>,
}

/// One cached fan-out route.
#[derive(Clone, Debug)]
struct CachedRoute<A> {
    /// The [`Broker::route_epoch`] the route was computed at.
    epoch: u64,
    /// Matching sessions as (address, subscription QoS, away).
    targets: Vec<(A, QoS, bool)>,
    /// Matching local subscriptions, as indices into `Broker::locals`.
    locals: Vec<usize>,
}

/// Upper bound on payload buffers retained for reuse.
const MAX_POOLED_PAYLOADS: usize = 64;

impl<A: Clone + Eq + Hash> Broker<A> {
    /// Creates an empty broker.
    pub fn new(config: BrokerConfig) -> Self {
        Broker {
            config,
            registry: TopicRegistry::new(),
            sessions: HashMap::new(),
            order: Vec::new(),
            locals: Vec::new(),
            stats: BrokerStats::default(),
            route_epoch: 0,
            routes: HashMap::new(),
            payload_pool: Vec::new(),
        }
    }

    /// Invalidates every cached fan-out route; called on any mutation
    /// that can change routing (session create/remove/migrate/state,
    /// subscription change).
    fn invalidate_routes(&mut self) {
        self.route_epoch = self.route_epoch.wrapping_add(1);
    }

    /// Routing statistics.
    pub fn stats(&self) -> &BrokerStats {
        &self.stats
    }

    /// Folds transient socket-error counts observed by a transport
    /// binding into the stats surface (see [`BrokerStats::io_errors`]).
    pub fn note_io_errors(&mut self, n: u64) {
        self.stats.io_errors += n;
    }

    /// Records a failed state snapshot (see
    /// [`BrokerStats::snapshot_failures`]); called by transport bindings
    /// whose snapshot write did not reach the disk.
    pub fn note_snapshot_failure(&mut self) {
        self.stats.snapshot_failures += 1;
    }

    /// Broker-wide backlog and the most-backed-up single session, both as
    /// buffered + unacknowledged outbound message counts; a local
    /// subscription's queue depth counts as one session's. O(sessions) —
    /// no allocation, and session counts are tiny next to per-publish
    /// encode work.
    fn backlog_scan(&self) -> (usize, usize) {
        let mut total = 0;
        let mut worst = 0;
        let sessions = self
            .sessions
            .values()
            .map(|s| s.buffered.len() + s.out.len());
        for n in sessions.chain(self.locals.iter().map(|q| q.depth())) {
            total += n;
            worst = worst.max(n);
        }
        (total, worst)
    }

    /// Current broker-wide backlog: messages buffered for away/sleeping
    /// sessions, unacknowledged outbound QoS traffic, and messages queued
    /// for local subscriptions. A slow subscriber — e.g. a translator that
    /// stopped draining its queue — shows up here, which is how
    /// server-side lag propagates back to the gateway's congestion signal.
    pub fn backlog(&self) -> usize {
        self.backlog_scan().0
    }

    fn level_from(&self, total: usize, worst_session: usize) -> u8 {
        let session_soft = (self.config.max_buffered / 4).max(1) * 3;
        if total >= self.config.congestion_hard || worst_session >= self.config.max_buffered {
            2
        } else if total >= self.config.congestion_soft || worst_session >= session_soft {
            1
        } else {
            0
        }
    }

    /// Current congestion level: 0 = clear, 1 = soft (publishers are
    /// advised to pace), 2 = hard (QoS ≥ 1 publishes are rejected).
    pub fn congestion_level(&self) -> u8 {
        let (total, worst) = self.backlog_scan();
        self.level_from(total, worst)
    }

    fn pooled_copy(pool: &mut Vec<Vec<u8>>, payload: &[u8]) -> Vec<u8> {
        let mut buf = pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        buf
    }

    fn reclaim_payload(pool: &mut Vec<Vec<u8>>, payload: Vec<u8>) {
        if pool.len() < MAX_POOLED_PAYLOADS {
            pool.push(payload);
        }
    }

    /// Subscribes a consumer living in this process: from now on every
    /// publish this broker accepts on a topic matching `filter` (wildcards
    /// allowed) is pushed into the returned subscription's queue — at the
    /// publisher's QoS, with no handshake of its own — and the queue's
    /// depth counts in the backlog as one session's, capped like one at
    /// [`BrokerConfig::max_buffered`]. An invalid filter is refused with
    /// the code a remote SUBSCRIBE would get.
    pub fn subscribe_local(&mut self, filter: &str) -> Result<LocalSubscription, Error> {
        if !filter_is_valid(filter) {
            return Err(Error::Rejected(ReturnCode::NotSupported));
        }
        let queue = Arc::new(LocalQueue::new(filter, self.config.max_buffered));
        self.invalidate_routes();
        self.locals.push(Arc::clone(&queue));
        Ok(LocalSubscription::new(queue))
    }

    /// Ends every local subscription's stream (the transport has stopped
    /// feeding this broker); what is queued stays for the consumers.
    pub(crate) fn close_locals(&self) {
        for queue in &self.locals {
            queue.close();
        }
    }

    /// Access to the topic registry (e.g. to seed predefined topics).
    /// Conservatively invalidates the fan-out route cache: remapping a
    /// topic id changes which subscriptions a publish to it matches.
    pub fn registry_mut(&mut self) -> &mut TopicRegistry {
        self.invalidate_routes();
        &mut self.registry
    }

    /// Number of active (awake) sessions.
    pub fn session_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.state == SessionState::Active)
            .count()
    }

    /// Number of sleeping sessions.
    pub fn sleeping_count(&self) -> usize {
        self.sessions
            .values()
            .filter(|s| s.state == SessionState::Asleep)
            .count()
    }

    /// Handles one raw datagram end to end: borrowed decode (PUBLISH
    /// payloads are never copied into an owned `Vec`), state-machine
    /// dispatch, and wire encoding into `out`. Decode failures are
    /// counted in [`BrokerStats::decode_errors`] and returned.
    ///
    /// The `Ok` value is the fan-out verdict: `true` when the datagram
    /// carried a PUBLISH that this broker accepted for fan-out (first
    /// receipt, valid topic id, not congestion-rejected). QoS 2 duplicates
    /// and rejected publishes give `false`, like any other message.
    pub fn on_datagram_into(
        &mut self,
        now: Nanos,
        from: A,
        datagram: &[u8],
        out: &mut BrokerOutputs<A>,
    ) -> Result<bool, Error> {
        // lint: zero-alloc-begin
        let mut sink = WireSink::new(out);
        match Packet::decode_borrowed(datagram) {
            Ok(PacketRef::Publish {
                qos,
                topic,
                msg_id,
                payload,
                ..
            }) => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.last_seen = now;
                }
                Ok(self.handle_publish(now, from, qos, topic, msg_id, payload, &mut sink))
            }
            Ok(PacketRef::Owned(p)) => {
                self.dispatch(now, from, p, &mut sink);
                Ok(false)
            }
            Err(e) => {
                self.stats.decode_errors += 1;
                Err(e)
            }
        }
        // lint: zero-alloc-end
    }

    fn dispatch(&mut self, now: Nanos, from: A, packet: Packet, sink: &mut WireSink<'_, A>) {
        if let Some(s) = self.sessions.get_mut(&from) {
            s.last_seen = now;
        }
        match packet {
            Packet::SearchGw { .. } => sink.push(
                from,
                Packet::GwInfo {
                    gw_id: self.config.gw_id,
                },
            ),
            Packet::Connect {
                clean_session,
                client_id,
                ..
            } => self.handle_connect(now, from, clean_session, client_id, sink),
            Packet::Register {
                msg_id, topic_name, ..
            } => {
                let (topic_id, code) = match self.registry.register(&topic_name) {
                    Some(id) => (id, ReturnCode::Accepted),
                    None => (0, ReturnCode::NotSupported),
                };
                sink.push(
                    from,
                    Packet::RegAck {
                        topic_id,
                        msg_id,
                        code,
                    },
                );
            }
            Packet::Subscribe {
                qos, msg_id, topic, ..
            } => self.handle_subscribe(from, qos, msg_id, topic, sink),
            Packet::Unsubscribe { msg_id, topic } => {
                self.invalidate_routes();
                if let Some(session) = self.sessions.get_mut(&from) {
                    let name = match &topic {
                        TopicRef::Name(n) => Some(n.as_str()),
                        TopicRef::Id(id) | TopicRef::Predefined(id) => self.registry.name_of(*id),
                    };
                    if let Some(name) = name {
                        session.subscriptions.retain(|(f, _)| f != name);
                    }
                }
                sink.push(from, Packet::UnsubAck { msg_id });
            }
            Packet::PubRel { msg_id } => {
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.inbound.release(msg_id);
                }
                sink.push(from, Packet::PubComp { msg_id });
            }
            Packet::PubAck { msg_id, .. } => self.on_ack(now, &from, msg_id, Ack::Puback),
            Packet::PubRec { msg_id } => {
                self.on_ack(now, &from, msg_id, Ack::Pubrec);
                sink.push(from, Packet::PubRel { msg_id });
            }
            Packet::PubComp { msg_id } => self.on_ack(now, &from, msg_id, Ack::Pubcomp),
            Packet::PingReq => {
                // A sleeping client's PINGREQ triggers delivery of
                // everything buffered while it slept, then the PINGRESP.
                if matches!(
                    self.sessions.get(&from).map(|s| s.state),
                    Some(SessionState::Asleep)
                ) {
                    self.deliver_buffered(now, from.clone(), sink);
                }
                sink.push(from, Packet::PingResp);
            }
            Packet::Disconnect { duration } => {
                self.invalidate_routes();
                if let Some(s) = self.sessions.get_mut(&from) {
                    s.state = if duration.is_some() {
                        SessionState::Asleep
                    } else {
                        SessionState::Disconnected
                    };
                }
                sink.push(from, Packet::Disconnect { duration: None });
            }
            _ => {}
        }
    }

    /// Runs a subscriber's acknowledgement through its session's send
    /// window; the one that completes a handshake frees the stored copy.
    fn on_ack(&mut self, now: Nanos, from: &A, msg_id: u16, ack: Ack) {
        let session = self.sessions.get_mut(from);
        if let Some(payload) = session.and_then(|s| s.out.on_ack(msg_id, ack, now)) {
            Self::reclaim_payload(&mut self.payload_pool, payload);
        }
    }

    /// CONNECT: create, reactivate, or migrate a session.
    ///
    /// `clean_session = false` asks for session continuation: if a session
    /// with this client id exists anywhere — including at a *different*
    /// transport address, the normal case for an edge device that rebound
    /// its socket after a network outage — it is moved to the new address
    /// with subscriptions, QoS handshake state, and buffered messages
    /// intact, and everything buffered while the client was away is
    /// delivered right after the CONNACK.
    fn handle_connect(
        &mut self,
        now: Nanos,
        from: A,
        clean_session: bool,
        client_id: String,
        sink: &mut WireSink<'_, A>,
    ) {
        self.invalidate_routes();
        let connack = Packet::ConnAck {
            code: ReturnCode::Accepted,
        };
        if clean_session {
            // Clean start; drop any stale session this client id left at a
            // previous address so it cannot keep receiving fan-out.
            let stale: Vec<A> = self
                .sessions
                .iter()
                .filter(|(a, s)| **a != from && !client_id.is_empty() && s.client_id == client_id)
                .map(|(a, _)| a.clone())
                .collect();
            for a in stale {
                self.sessions.remove(&a);
                self.order.retain(|x| *x != a);
            }
            if !self.sessions.contains_key(&from) {
                self.order.push(from.clone());
            }
            self.sessions
                .insert(from.clone(), Session::new(client_id, now));
            sink.push(from, connack);
            return;
        }

        let prior = self
            .sessions
            .iter()
            .find(|(_, s)| !client_id.is_empty() && s.client_id == client_id)
            .map(|(a, _)| a.clone());
        match prior {
            // The `prior` address was found in the map above; both lookups
            // degrade to the fresh-session arm if it has since vanished.
            Some(old_addr) if old_addr != from => {
                if let Some(mut session) = self.sessions.remove(&old_addr) {
                    session.state = SessionState::Active;
                    session.durable = true;
                    session.last_seen = now;
                    session.inbound.new_epoch();
                    // Unacked outbound messages retransmit promptly — with
                    // a fresh retry budget — toward the new address.
                    session.out.reset_clock(true);
                    // The migrated session keeps its fan-out position; any
                    // stale session already at the new address is dropped.
                    self.sessions.remove(&from);
                    self.order.retain(|a| *a != from);
                    if let Some(pos) = self.order.iter().position(|a| *a == old_addr) {
                        self.order[pos] = from.clone();
                    } else {
                        self.order.push(from.clone());
                    }
                    self.sessions.insert(from.clone(), session);
                } else {
                    if !self.sessions.contains_key(&from) {
                        self.order.push(from.clone());
                    }
                    let mut session = Session::new(client_id, now);
                    session.durable = true;
                    self.sessions.insert(from.clone(), session);
                }
            }
            Some(_) => {
                if let Some(session) = self.sessions.get_mut(&from) {
                    session.state = SessionState::Active;
                    session.durable = true;
                    session.last_seen = now;
                    session.inbound.new_epoch();
                }
            }
            None => {
                if !self.sessions.contains_key(&from) {
                    self.order.push(from.clone());
                }
                let mut session = Session::new(client_id, now);
                session.durable = true;
                self.sessions.insert(from.clone(), session);
            }
        }
        sink.push(from.clone(), connack);
        self.deliver_buffered(now, from, sink);
    }

    /// Delivers everything buffered for `to` while it was asleep or away,
    /// arming outbound QoS 1/2 state for each message.
    fn deliver_buffered(&mut self, now: Nanos, to: A, sink: &mut WireSink<'_, A>) {
        let buffered = match self.sessions.get_mut(&to) {
            Some(s) => std::mem::take(&mut s.buffered),
            None => return,
        };
        for (topic_id, payload, qos) in buffered {
            let Some(session) = self.sessions.get_mut(&to) else {
                break;
            };
            let msg_id = if qos == QoS::AtMostOnce {
                0
            } else {
                session.out.alloc_msg_id(|_| false)
            };
            sink.push_publish(to.clone(), false, qos, topic_id, msg_id, &payload);
            if qos != QoS::AtMostOnce {
                session.out.start(msg_id, qos, topic_id, payload, now);
            } else {
                Self::reclaim_payload(&mut self.payload_pool, payload);
            }
            self.stats.publishes_out += 1;
        }
    }

    /// Rebases per-session timestamps to zero. Used when a persisted
    /// snapshot is resumed by a broker whose monotonic clock restarted —
    /// otherwise retransmission timers would stall until the new clock
    /// catches up with the old one.
    pub fn reset_clock(&mut self) {
        for s in self.sessions.values_mut() {
            s.last_seen = 0;
            s.out.reset_clock(false);
        }
    }

    fn handle_subscribe(
        &mut self,
        from: A,
        qos: QoS,
        msg_id: u16,
        topic: TopicRef,
        sink: &mut WireSink<'_, A>,
    ) {
        self.invalidate_routes();
        let Some(session) = self.sessions.get_mut(&from) else {
            sink.push(
                from,
                Packet::SubAck {
                    qos,
                    topic_id: 0,
                    msg_id,
                    code: ReturnCode::NotSupported,
                },
            );
            return;
        };
        let (filter, topic_id, code) = match &topic {
            TopicRef::Name(name) => {
                if !filter_is_valid(name) {
                    (None, 0, ReturnCode::NotSupported)
                } else if name.contains('+') || name.contains('#') {
                    (Some(name.clone()), 0, ReturnCode::Accepted)
                } else {
                    // Concrete names get a topic id assigned in the SUBACK.
                    match self.registry.register(name) {
                        Some(id) => (Some(name.clone()), id, ReturnCode::Accepted),
                        None => (None, 0, ReturnCode::NotSupported),
                    }
                }
            }
            TopicRef::Id(id) | TopicRef::Predefined(id) => match self.registry.name_of(*id) {
                Some(name) => (Some(name.to_owned()), *id, ReturnCode::Accepted),
                None => (None, 0, ReturnCode::InvalidTopicId),
            },
        };
        if let Some(filter) = filter {
            session.subscriptions.retain(|(f, _)| f != &filter);
            session.subscriptions.push((filter, qos));
        }
        sink.push(
            from,
            Packet::SubAck {
                qos,
                topic_id,
                msg_id,
                code,
            },
        );
    }

    /// One PUBLISH from `from`: acknowledged or refused toward the
    /// publisher, then fanned out. Returns whether it was accepted for
    /// fan-out — the verdict [`Broker::on_datagram_into`] reports.
    #[allow(clippy::too_many_arguments)]
    fn handle_publish(
        &mut self,
        now: Nanos,
        from: A,
        qos: QoS,
        topic: TopicRef,
        msg_id: u16,
        payload: &[u8],
        sink: &mut WireSink<'_, A>,
    ) -> bool {
        // A PUBLISH carries a topic id: `decode_borrowed` refuses one by
        // name as malformed before it gets here.
        let (TopicRef::Id(topic_id) | TopicRef::Predefined(topic_id)) = topic else {
            return false;
        };
        self.stats.publishes_in += 1;

        if self.registry.name_of(topic_id).is_none() {
            sink.push(
                from,
                Packet::PubAck {
                    topic_id,
                    msg_id,
                    code: ReturnCode::InvalidTopicId,
                },
            );
            return false;
        }

        // End-to-end backpressure. Rising congestion is advertised to the
        // publisher the moment its level changes, and past the hard
        // watermark QoS ≥ 1 publishes are rejected with `Congestion` —
        // the publisher re-buffers and paces instead of feeding buffers
        // that are already shedding. QoS 0 is never rejected (there is no
        // ack to carry the code); it keeps flowing toward the per-session
        // drop cap.
        let (total, worst) = self.backlog_scan();
        self.stats.backlog_high_water = self.stats.backlog_high_water.max(total as u64);
        let level = self.level_from(total, worst);
        let advised = self
            .sessions
            .get(&from)
            .map(|s| s.advised_level)
            .unwrap_or(0);
        if advised != level {
            if let Some(s) = self.sessions.get_mut(&from) {
                s.advised_level = level;
                self.stats.advisories_sent += 1;
                sink.push(from.clone(), Packet::CongestionAdvisory { level });
            }
        }
        if level >= 2 && qos != QoS::AtMostOnce {
            // A QoS 2 retransmission of a message already forwarded must
            // complete its handshake normally — rejecting it would make the
            // publisher replay a delivered message.
            let qos2_dup = qos == QoS::ExactlyOnce
                && self
                    .sessions
                    .get(&from)
                    .is_some_and(|s| s.inbound.seen(msg_id));
            if !qos2_dup {
                self.stats.congestion_rejects += 1;
                sink.push(
                    from,
                    Packet::PubAck {
                        topic_id,
                        msg_id,
                        code: ReturnCode::Congestion,
                    },
                );
                return false;
            }
        }

        // QoS-level acknowledgments toward the publisher, with QoS 2
        // exactly-once forwarding.
        match qos {
            QoS::AtMostOnce => {}
            QoS::AtLeastOnce => {
                sink.push(
                    from.clone(),
                    Packet::PubAck {
                        topic_id,
                        msg_id,
                        code: ReturnCode::Accepted,
                    },
                );
            }
            QoS::ExactlyOnce => {
                let session = self
                    .sessions
                    .entry(from.clone())
                    .or_insert_with(|| Session::new(String::new(), now));
                let first_receipt = session.inbound.first_receipt(msg_id);
                sink.push(from.clone(), Packet::PubRec { msg_id });
                if !first_receipt {
                    self.stats.duplicates_suppressed += 1;
                    return false;
                }
            }
        }

        self.fan_out(now, topic_id, qos, payload, sink);
        true
    }

    /// Fans one accepted publish out to every matching subscriber, local
    /// subscriptions first, then sessions in deterministic session order.
    /// Sleeping subscribers and away durable subscribers (disconnected,
    /// `clean_session = false`) get their messages buffered for delivery
    /// on the next PINGREQ / reconnect.
    ///
    /// Targets come from the per-topic route cache when its epoch is
    /// current — one hash lookup instead of matching every session's
    /// subscription list — and are rebuilt into the entry's recycled
    /// vector otherwise. The topic name stays borrowed from the
    /// registry (no per-publish `String`).
    ///
    /// A local subscription takes the payload in a pooled buffer: no
    /// PUBLISH is encoded, no message id allocated, no retransmission
    /// copy tracked. An acknowledged publish always goes in —
    /// `handle_publish` refused it before the ack if the queue was full —
    /// while a QoS 0 one is dropped and counted at the cap. An away
    /// session at its cap makes room by evicting the oldest message it
    /// holds for QoS 0 delivery; holding none, it drops the incoming
    /// message, which is QoS 0 for the same reason.
    fn fan_out(
        &mut self,
        now: Nanos,
        topic_id: u16,
        qos: QoS,
        payload: &[u8],
        sink: &mut WireSink<'_, A>,
    ) {
        let epoch = self.route_epoch;
        let CachedRoute {
            epoch: cached_epoch,
            targets,
            locals,
        } = self.routes.entry(topic_id).or_insert_with(|| CachedRoute {
            epoch: epoch.wrapping_sub(1),
            targets: Vec::new(),
            locals: Vec::new(),
        });
        if *cached_epoch != epoch {
            targets.clear();
            locals.clear();
            let Some(topic_name) = self.registry.name_of(topic_id) else {
                // Validated at entry; an empty rebuild delivers to no one,
                // which is exactly what an unregistered topic gets.
                return;
            };
            for addr in &self.order {
                let Some(s) = self.sessions.get(addr) else {
                    continue;
                };
                if s.state == SessionState::Disconnected && !s.durable {
                    continue;
                }
                let Some(best) = s
                    .subscriptions
                    .iter()
                    .filter(|(f, _)| topic_matches(f, topic_name))
                    .map(|(_, q)| *q)
                    .max()
                else {
                    continue;
                };
                targets.push((addr.clone(), best, s.state != SessionState::Active));
            }
            for (i, queue) in self.locals.iter().enumerate() {
                if topic_matches(queue.filter(), topic_name) {
                    locals.push(i);
                }
            }
            *cached_epoch = epoch;
        }

        let droppable = qos == QoS::AtMostOnce;
        for &i in locals.iter() {
            if self.locals[i].push(topic_id, payload, droppable) {
                self.stats.publishes_out += 1;
            } else {
                self.stats.drops += 1;
            }
        }

        for (addr, best, away) in targets.iter() {
            let (sub_qos, away) = ((*best).min(qos), *away);
            // The common steady-state target — active subscriber,
            // effective QoS 0 — needs no session state at all: no msg id,
            // no retransmission copy, just the shared wire image.
            if !away && sub_qos == QoS::AtMostOnce {
                sink.push_publish(addr.clone(), false, sub_qos, topic_id, 0, payload);
                self.stats.publishes_out += 1;
                continue;
            }
            let Some(session) = self.sessions.get_mut(addr) else {
                continue;
            };
            if away {
                if session.buffered.len() >= self.config.max_buffered {
                    self.stats.drops += 1;
                    let oldest_qos0 = session
                        .buffered
                        .iter()
                        .position(|&(_, _, q)| q == QoS::AtMostOnce);
                    let Some((_, old, _)) = oldest_qos0.and_then(|i| session.buffered.remove(i))
                    else {
                        continue;
                    };
                    Self::reclaim_payload(&mut self.payload_pool, old);
                }
                let owned = Self::pooled_copy(&mut self.payload_pool, payload);
                session.buffered.push_back((topic_id, owned, sub_qos));
                continue;
            }
            // An active subscriber at QoS 1/2: the copy is tracked until
            // its handshake completes.
            let fwd_msg_id = session.out.alloc_msg_id(|_| false);
            sink.push_publish(addr.clone(), false, sub_qos, topic_id, fwd_msg_id, payload);
            let owned = Self::pooled_copy(&mut self.payload_pool, payload);
            session.out.start(fwd_msg_id, sub_qos, topic_id, owned, now);
            self.stats.publishes_out += 1;
        }
    }

    /// Drives outbound retransmissions into a recycled output buffer. Call
    /// periodically.
    pub fn on_tick_into(&mut self, now: Nanos, out: &mut BrokerOutputs<A>) {
        let mut sink = WireSink::new(out);
        // Falling congestion is advertised on the tick: a paced publisher
        // that stopped publishing would otherwise never learn that the
        // pressure cleared. Rising congestion is advertised inline in
        // `handle_publish`, so idle clients are never woken for bad news
        // they can't act on.
        let (total, worst) = self.backlog_scan();
        let level = self.level_from(total, worst);
        for idx in 0..self.order.len() {
            let addr = self.order[idx].clone();
            let Some(session) = self.sessions.get_mut(&addr) else {
                continue;
            };
            if session.state == SessionState::Active && session.advised_level > level {
                session.advised_level = level;
                self.stats.advisories_sent += 1;
                sink.push(addr, Packet::CongestionAdvisory { level });
            }
        }

        let retry_ns = self.config.retry_timeout.as_nanos() as u64;
        let max_retries = self.config.max_retries;
        for idx in 0..self.order.len() {
            let addr = self.order[idx].clone();
            // Disjoint field borrows: the pool and stats stay usable
            // while the session is borrowed from `sessions`.
            let pool = &mut self.payload_pool;
            let stats = &mut self.stats;
            let Some(session) = self.sessions.get_mut(&addr) else {
                continue;
            };
            // An away durable session has no reachable transport address;
            // retransmission resumes (with a fresh budget) once the client
            // reconnects and the session migrates.
            if session.state == SessionState::Disconnected && session.durable {
                continue;
            }
            session
                .out
                .due(now, retry_ns, max_retries, |msg_id, due| match due {
                    Due::Resend(slot) => {
                        stats.retransmissions += 1;
                        match slot.republish_qos() {
                            Some(qos) => {
                                let (to, topic_id) = (addr.clone(), slot.topic);
                                sink.push_publish(to, true, qos, topic_id, msg_id, &slot.payload);
                            }
                            None => sink.push(addr.clone(), Packet::PubRel { msg_id }),
                        }
                    }
                    Due::Expired(slot) => {
                        Self::reclaim_payload(pool, slot.payload);
                        stats.drops += 1;
                    }
                });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::outputs::MERGED_DATAGRAM_MAX;
    use super::state::STATE_VERSION;
    use super::*;
    use proptest::prelude::*;

    type Addr = u32;

    fn broker() -> Broker<Addr> {
        Broker::new(BrokerConfig::default())
    }

    /// Hands `packet` to the broker as the datagram `from` would send and
    /// returns what the broker sends back, decoded.
    fn feed(b: &mut Broker<Addr>, now: Nanos, from: Addr, packet: Packet) -> Vec<(Addr, Packet)> {
        let mut out = BrokerOutputs::new();
        b.on_datagram_into(now, from, &packet.encode(), &mut out)
            .expect("test packet decodes");
        out.packets()
    }

    /// What a tick at `now` makes the broker send, decoded.
    fn tick(b: &mut Broker<Addr>, now: Nanos) -> Vec<(Addr, Packet)> {
        let mut out = BrokerOutputs::new();
        b.on_tick_into(now, &mut out);
        out.packets()
    }

    fn connect(b: &mut Broker<Addr>, addr: Addr, id: &str) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: id.into(),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::ConnAck {
                code: ReturnCode::Accepted
            }
        ));
    }

    fn register(b: &mut Broker<Addr>, addr: Addr, name: &str) -> u16 {
        let out = feed(
            b,
            0,
            addr,
            Packet::Register {
                topic_id: 0,
                msg_id: 1,
                topic_name: name.into(),
            },
        );
        match out[0].1 {
            Packet::RegAck {
                topic_id,
                code: ReturnCode::Accepted,
                ..
            } => topic_id,
            ref p => panic!("unexpected {p:?}"),
        }
    }

    fn subscribe(b: &mut Broker<Addr>, addr: Addr, filter: &str, qos: QoS) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Subscribe {
                dup: false,
                qos,
                msg_id: 2,
                topic: TopicRef::Name(filter.into()),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::SubAck {
                code: ReturnCode::Accepted,
                ..
            }
        ));
    }

    #[test]
    fn qos0_pub_sub_roundtrip() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/x");
        subscribe(&mut b, 2, "t/x", QoS::AtMostOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![7],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
        assert!(matches!(&out[0].1, Packet::Publish { payload, .. } if payload == &vec![7]));
        assert_eq!(b.stats().publishes_out, 1);
    }

    #[test]
    fn wildcard_subscription_receives() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "provlight/wf1/dev1");
        subscribe(&mut b, 2, "provlight/#", QoS::AtMostOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![1],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
    }

    #[test]
    fn qos2_publisher_handshake_and_dedup() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 10,
            payload: vec![1],
        };
        let out = feed(&mut b, 0, 1, publish.clone());
        // PUBREC to publisher + forward to subscriber (downgraded to its
        // subscription QoS 0).
        assert!(out
            .iter()
            .any(|(a, p)| *a == 1 && matches!(p, Packet::PubRec { msg_id: 10 })));
        assert!(out.iter().any(|(a, p)| *a == 2
            && matches!(
                p,
                Packet::Publish {
                    qos: QoS::AtMostOnce,
                    ..
                }
            )));

        // DUP retransmission before PUBREL: PUBREC again, no re-forward.
        let out = feed(&mut b, 1, 1, publish);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 10 }));
        assert_eq!(b.stats().duplicates_suppressed, 1);
        assert_eq!(b.stats().publishes_out, 1);

        // PUBREL completes the exchange.
        let out = feed(&mut b, 2, 1, Packet::PubRel { msg_id: 10 });
        assert!(matches!(out[0].1, Packet::PubComp { msg_id: 10 }));
    }

    #[test]
    fn late_duplicate_publish_after_pubrel_is_suppressed() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        let from_publisher = |b: &mut Broker<Addr>, packet| {
            let out = feed(b, 0, 1, packet);
            let forwards = out.iter().filter(|(to, _)| *to == 2).count();
            let replies = out.into_iter().filter(|(to, _)| *to == 1);
            (forwards, replies.map(|(_, p)| p).collect())
        };
        crate::qos::tests::late_duplicate_scenario(&mut b, tid, from_publisher, |b| {
            assert_eq!(b.stats().publishes_out, 1);
            assert_eq!(b.stats().duplicates_suppressed, 1);

            // The recently-completed window survives a snapshot round-trip,
            // so a late duplicate straddling a gateway restart is also
            // caught.
            let mut restored = Broker::<Addr>::decode_state(&b.encode_state()).unwrap();
            let out = feed(b, 3, 1, Packet::PubRel { msg_id: 77 });
            assert!(matches!(out[0].1, Packet::PubComp { msg_id: 77 }));
            let out = feed(
                &mut restored,
                3,
                1,
                Packet::Publish {
                    dup: true,
                    qos: QoS::ExactlyOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 77,
                    payload: vec![5],
                },
            );
            assert!(matches!(out[0].1, Packet::PubRec { msg_id: 77 }));
            assert_eq!(restored.stats().publishes_out, 1);
            assert_eq!(restored.stats().duplicates_suppressed, 2);
        });
    }

    #[test]
    fn qos2_subscriber_receives_via_four_way() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::ExactlyOnce);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 5,
                payload: vec![1],
            },
        );
        let fwd_id = out
            .iter()
            .find_map(|(a, p)| match p {
                Packet::Publish {
                    qos: QoS::ExactlyOnce,
                    msg_id,
                    ..
                } if *a == 2 => Some(*msg_id),
                _ => None,
            })
            .expect("forwarded at QoS 2");
        // Subscriber answers PUBREC -> broker sends PUBREL.
        let out = feed(&mut b, 1, 2, Packet::PubRec { msg_id: fwd_id });
        assert!(matches!(out[0].1, Packet::PubRel { .. }));
        // Subscriber PUBCOMP clears broker state; tick produces nothing.
        feed(&mut b, 2, 2, Packet::PubComp { msg_id: fwd_id });
        assert!(tick(&mut b, u64::MAX / 2).is_empty());
    }

    #[test]
    fn broker_retransmits_unacked_qos1_then_drops() {
        let cfg = BrokerConfig {
            retry_timeout: Duration::from_secs(1),
            max_retries: 1,
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 3,
                payload: vec![1],
            },
        );
        let s = 1_000_000_000u64;
        let out = tick(&mut b, 2 * s);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, Packet::Publish { dup: true, .. }));
        assert_eq!(b.stats().retransmissions, 1);
        // Exhausted on the next tick.
        let out = tick(&mut b, 4 * s);
        assert!(out.is_empty());
        assert_eq!(b.stats().drops, 1);
    }

    /// A publish from address 1 (the tests' publisher), and what it made
    /// the broker send.
    fn publish(
        b: &mut Broker<Addr>,
        now: Nanos,
        tid: u16,
        qos: QoS,
        msg_id: u16,
        payload: u8,
    ) -> Vec<(Addr, Packet)> {
        feed(
            b,
            now,
            1,
            Packet::Publish {
                dup: false,
                qos,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id,
                payload: vec![payload],
            },
        )
    }

    /// What a tick re-sent, as `(destination, msg id, QoS, payload)` for a
    /// DUP PUBLISH and `(destination, msg id, None, 0)` for a PUBREL.
    fn resent(out: &[(Addr, Packet)]) -> Vec<(Addr, u16, Option<QoS>, u8)> {
        out.iter()
            .map(|(to, p)| match p {
                Packet::Publish {
                    dup: true,
                    qos,
                    msg_id,
                    payload,
                    ..
                } => (*to, *msg_id, Some(*qos), payload[0]),
                Packet::PubRel { msg_id } => (*to, *msg_id, None, 0),
                p => panic!("unexpected {p:?}"),
            })
            .collect()
    }

    #[test]
    fn acks_out_of_phase_free_nothing() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub-qos1");
        connect(&mut b, 3, "sub-qos2");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        subscribe(&mut b, 3, "t", QoS::ExactlyOnce);
        publish(&mut b, 0, tid, QoS::ExactlyOnce, 5, 9);
        assert_eq!(b.backlog(), 2);

        // A PUBREC for the QoS 1 copy still gets its idempotent PUBREL, but
        // neither it nor a PUBCOMP moves the copy off its PUBACK.
        let out = feed(&mut b, 1, 2, Packet::PubRec { msg_id: 1 });
        assert_eq!(out, vec![(2, Packet::PubRel { msg_id: 1 })]);
        assert!(feed(&mut b, 2, 2, Packet::PubComp { msg_id: 1 }).is_empty());
        // A PUBCOMP ahead of the PUBREC does not free the QoS 2 copy, and
        // a PUBACK never does.
        assert!(feed(&mut b, 3, 3, Packet::PubComp { msg_id: 1 }).is_empty());
        let puback = Packet::PubAck {
            topic_id: tid,
            msg_id: 1,
            code: ReturnCode::Accepted,
        };
        assert!(feed(&mut b, 4, 3, puback.clone()).is_empty());
        assert_eq!(b.backlog(), 2);
        // Both are still retransmitted as what they were.
        let s = 1_000_000_000u64;
        assert_eq!(
            resent(&tick(&mut b, 11 * s)),
            vec![
                (2, 1, Some(QoS::AtLeastOnce), 9),
                (3, 1, Some(QoS::ExactlyOnce), 9)
            ]
        );
        // The acks each phase does accept still finish both.
        feed(&mut b, 12 * s, 2, puback);
        feed(&mut b, 12 * s, 3, Packet::PubRec { msg_id: 1 });
        assert_eq!(b.backlog(), 1);
        feed(&mut b, 12 * s, 3, Packet::PubComp { msg_id: 1 });
        assert_eq!(b.backlog(), 0);
    }

    #[test]
    fn retransmits_in_publish_order_across_msg_id_wrap() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        b.sessions.get_mut(&2).unwrap().out.set_next_id(65534);
        for i in 0..4u8 {
            publish(&mut b, 0, tid, QoS::AtLeastOnce, 1 + i as u16, i);
        }
        // The order is a function of the persisted ids and allocator
        // position alone, so a restored gateway replays in it too.
        let mut restored = Broker::<Addr>::decode_state(&b.encode_state()).unwrap();
        let s = 1_000_000_000u64;
        for b in [&mut b, &mut restored] {
            let order: Vec<(u16, u8)> = resent(&tick(b, 11 * s))
                .iter()
                .map(|(_, msg_id, _, payload)| (*msg_id, *payload))
                .collect();
            assert_eq!(order, vec![(65534, 0), (65535, 1), (1, 2), (2, 3)]);
        }
    }

    /// `encode_state()` of a scenario that populates every QoS structure a
    /// snapshot carries, pinned to the bytes the pre-`qos`-module broker
    /// (PR 13) produced for it — in their `STATE_VERSION` 5 form, and in
    /// today's, which is that less two counters: snapshots written before
    /// either change must keep loading.
    #[test]
    fn snapshot_bytes_match_the_pre_refactor_golden() {
        let s = 1_000_000_000u64;
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "away");
        connect(&mut b, 3, "sub-qos1");
        connect(&mut b, 4, "sub-qos2");
        let tid = register(&mut b, 1, "t/golden");
        subscribe(&mut b, 2, "t/#", QoS::ExactlyOnce);
        subscribe(&mut b, 3, "t/golden", QoS::AtLeastOnce);
        subscribe(&mut b, 4, "t/golden", QoS::ExactlyOnce);
        // The durable subscriber goes away and accumulates a backlog.
        feed(&mut b, s, 2, Packet::Disconnect { duration: None });
        // Four QoS 2 publishes and a QoS 1 one: sessions 3 and 4 get
        // outbound ids 1..=5 (QoS 1 at session 3; QoS 2, but for the last,
        // at session 4).
        for msg_id in 10..14u16 {
            publish(&mut b, 2 * s, tid, QoS::ExactlyOnce, msg_id, msg_id as u8);
        }
        publish(&mut b, 3 * s, tid, QoS::AtLeastOnce, 14, 14);
        // One retransmission each, then acks leave session 3 with ids 2..=5
        // awaiting PUBACK and session 4 with 1 awaiting PUBCOMP (timer
        // restarted by its PUBREC), 2 done, 3 and 4 awaiting PUBREC, 5
        // awaiting PUBACK.
        assert_eq!(tick(&mut b, 13 * s).len(), 10);
        let puback = Packet::PubAck {
            topic_id: tid,
            msg_id: 1,
            code: ReturnCode::Accepted,
        };
        feed(&mut b, 14 * s, 3, puback);
        feed(&mut b, 15 * s, 4, Packet::PubRec { msg_id: 1 });
        feed(&mut b, 15 * s, 4, Packet::PubRec { msg_id: 2 });
        feed(&mut b, 16 * s, 4, Packet::PubComp { msg_id: 2 });
        // The publisher released three of its four QoS 2 publishes: a
        // part-filled completed window, one handshake still pending.
        for msg_id in [11, 10, 13] {
            feed(&mut b, 17 * s, 1, Packet::PubRel { msg_id });
        }

        // 64-bit FNV-1a.
        let fnv1a = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
                (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let bytes = b.encode_state();
        assert_eq!(
            (bytes.len(), fnv1a(&bytes)),
            (624, 0xbe32_a80f_e464_2eaa),
            "snapshot layout drifted from the pinned bytes"
        );
        let v5 = state_as_v5(&bytes);
        assert_eq!(
            (v5.len(), fnv1a(&v5)),
            (640, 0xdd03_db5f_1169_814d),
            "no longer the v5 bytes less their two closing counters"
        );
        let restored = Broker::<Addr>::decode_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes);
    }

    #[test]
    fn publish_to_unknown_topic_rejected() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(999),
                msg_id: 1,
                payload: vec![],
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::PubAck {
                code: ReturnCode::InvalidTopicId,
                ..
            }
        ));
    }

    #[test]
    fn disconnect_stops_delivery() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        assert_eq!(b.session_count(), 1);
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![],
            },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn per_device_topics_route_independently() {
        // The Fig. 5 deployment: 64 devices each publishing to their own
        // topic, one translator subscription per topic.
        let mut b = broker();
        for dev in 0..8u32 {
            connect(&mut b, dev, &format!("dev{dev}"));
        }
        let translator = 100;
        connect(&mut b, translator, "translator");
        let mut tids = Vec::new();
        for dev in 0..8u32 {
            let tid = register(&mut b, dev, &format!("provlight/wf/dev{dev}"));
            tids.push(tid);
        }
        for dev in 0..8u32 {
            subscribe(
                &mut b,
                translator,
                &format!("provlight/wf/dev{dev}"),
                QoS::AtMostOnce,
            );
        }
        for (dev, tid) in tids.iter().enumerate() {
            let out = feed(
                &mut b,
                0,
                dev as u32,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(*tid),
                    msg_id: 0,
                    payload: vec![dev as u8],
                },
            );
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].0, translator);
        }
        assert_eq!(b.stats().publishes_out, 8);
    }

    #[test]
    fn searchgw_answered() {
        let mut b = broker();
        let out = feed(&mut b, 0, 9, Packet::SearchGw { radius: 1 });
        assert!(matches!(out[0].1, Packet::GwInfo { gw_id: 1 }));
    }

    #[test]
    fn sleeping_client_buffers_until_ping() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sleeper");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        // Client 2 goes to sleep (DISCONNECT with duration).
        let out = feed(
            &mut b,
            0,
            2,
            Packet::Disconnect {
                duration: Some(300),
            },
        );
        assert!(matches!(out[0].1, Packet::Disconnect { .. }));
        assert_eq!(b.session_count(), 1);
        assert_eq!(b.sleeping_count(), 1);

        // Publishes while asleep are buffered, not sent.
        for i in 0..3u8 {
            let out = feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
            assert!(out.is_empty(), "asleep client must not receive directly");
        }

        // PINGREQ flushes the buffer then answers PINGRESP, in order.
        let out = feed(&mut b, 2, 2, Packet::PingReq);
        assert_eq!(out.len(), 4);
        for (i, (to, p)) in out[..3].iter().enumerate() {
            assert_eq!(*to, 2);
            assert!(
                matches!(p, Packet::Publish { payload, .. } if payload == &vec![i as u8]),
                "unexpected {p:?}"
            );
        }
        assert!(matches!(out[3].1, Packet::PingResp));

        // Buffer is drained: next ping is just a pong.
        let out = feed(&mut b, 3, 2, Packet::PingReq);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sleeping_qos1_buffered_delivery_uses_outbound_state() {
        let cfg = BrokerConfig {
            retry_timeout: Duration::from_secs(1),
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sleeper");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: Some(60) });
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 9,
                payload: vec![7],
            },
        );
        let out = feed(&mut b, 1, 2, Packet::PingReq);
        let msg_id = out
            .iter()
            .find_map(|(_, p)| match p {
                Packet::Publish { msg_id, .. } => Some(*msg_id),
                _ => None,
            })
            .expect("buffered publish delivered");
        // Unacked buffered delivery retransmits like any outbound QoS 1.
        let s = 1_000_000_000u64;
        let out = tick(&mut b, 3 * s);
        assert!(matches!(out[0].1, Packet::Publish { dup: true, .. }));
        // Ack clears it.
        feed(
            &mut b,
            4 * s,
            2,
            Packet::PubAck {
                topic_id: tid,
                msg_id,
                code: ReturnCode::Accepted,
            },
        );
        assert!(tick(&mut b, 10 * s).is_empty());
    }

    fn connect_durable(b: &mut Broker<Addr>, addr: Addr, id: &str) {
        let out = feed(
            b,
            0,
            addr,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: id.into(),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::ConnAck {
                code: ReturnCode::Accepted
            }
        ));
    }

    #[test]
    fn durable_session_buffers_while_away_and_migrates_on_reconnect() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "translator");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtLeastOnce);

        // The durable subscriber's transport dies (graceful disconnect
        // stands in for the lost link).
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        // Publishes while away are buffered, not dropped.
        for i in 0..3u8 {
            let out = feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtLeastOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
            // Only the publisher's PUBACK comes back; nothing is forwarded.
            assert!(out.iter().all(|(a, _)| *a == 1), "away session got traffic");
        }

        // Reconnect from a NEW address (rebound socket): the session
        // migrates and the buffered messages follow the CONNACK in order.
        let out = feed(
            &mut b,
            2,
            99,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "translator".into(),
            },
        );
        assert!(matches!(out[0].1, Packet::ConnAck { .. }));
        let delivered: Vec<u8> = out[1..]
            .iter()
            .map(|(a, p)| {
                assert_eq!(*a, 99);
                match p {
                    Packet::Publish { payload, .. } => payload[0],
                    p => panic!("unexpected {p:?}"),
                }
            })
            .collect();
        assert_eq!(delivered, vec![0, 1, 2]);
        // The old address no longer exists as a session.
        assert_eq!(b.session_count(), 2);
        // New deliveries flow directly to the new address.
        let out = feed(
            &mut b,
            3,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![9],
            },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 99);
    }

    #[test]
    fn migration_preserves_qos2_dedup_state() {
        let mut b = broker();
        connect_durable(&mut b, 1, "edge-device");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);

        // QoS 2 publish forwarded on first receipt; PUBREC lost on the way
        // back (the client never learns).
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 7,
            payload: vec![1],
        };
        feed(&mut b, 0, 1, publish.clone());
        assert_eq!(b.stats().publishes_out, 1);

        // The publisher reconnects from a new address and retransmits the
        // unacked publish with DUP: the migrated session's dedup state
        // suppresses the re-forward — exactly-once survives the reconnect.
        feed(
            &mut b,
            1,
            50,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "edge-device".into(),
            },
        );
        let mut dup = publish;
        if let Packet::Publish { dup: d, .. } = &mut dup {
            *d = true;
        }
        let out = feed(&mut b, 2, 50, dup);
        assert_eq!(out.len(), 1, "duplicate must only be PUBRECed: {out:?}");
        assert!(matches!(out[0].1, Packet::PubRec { msg_id: 7 }));
        assert_eq!(b.stats().duplicates_suppressed, 1);
        assert_eq!(b.stats().publishes_out, 1);
    }

    #[test]
    fn away_buffer_is_bounded_oldest_first() {
        let cfg = BrokerConfig {
            max_buffered: 2,
            ..BrokerConfig::default()
        };
        let mut b: Broker<Addr> = Broker::new(cfg);
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        for i in 0..5u8 {
            feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: 0,
                    payload: vec![i],
                },
            );
        }
        assert_eq!(b.stats().drops, 3);
        // Reconnect delivers only the newest two, in order.
        let out = feed(
            &mut b,
            2,
            2,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "sub".into(),
            },
        );
        let delivered: Vec<u8> = out[1..]
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![3, 4]);
    }

    #[test]
    fn clean_connect_drops_stale_session_at_old_address() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "mover");
        let tid = register(&mut b, 1, "t");
        subscribe(&mut b, 2, "t", QoS::AtMostOnce);
        // Same client id reconnects cleanly from a new address.
        connect(&mut b, 3, "mover");
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 0,
                payload: vec![1],
            },
        );
        // The stale session at addr 2 is gone; the clean session at addr 3
        // has no subscriptions yet, so nothing is delivered anywhere.
        assert!(out.is_empty());
        assert_eq!(b.session_count(), 2);
    }

    #[test]
    fn state_roundtrip_preserves_sessions_and_qos_state() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "translator");
        let tid = register(&mut b, 1, "t/persist");
        subscribe(&mut b, 2, "t/persist", QoS::ExactlyOnce);
        // A durable subscriber goes away and accumulates buffered messages.
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        for i in 0..3u8 {
            feed(
                &mut b,
                1,
                1,
                Packet::Publish {
                    dup: false,
                    qos: QoS::AtLeastOnce,
                    retain: false,
                    topic: TopicRef::Id(tid),
                    msg_id: i as u16 + 1,
                    payload: vec![i],
                },
            );
        }
        // An inbound QoS 2 exchange parked mid-handshake (PUBREL pending).
        feed(
            &mut b,
            2,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 42,
                payload: vec![9],
            },
        );

        let bytes = b.encode_state();
        let restored = Broker::<Addr>::decode_state(&bytes).unwrap();
        // Deterministic encoding: a re-encode of the decoded state is
        // byte-identical, so every field round-tripped.
        assert_eq!(restored.encode_state(), bytes);
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.session_count(), b.session_count());
        assert_eq!(restored.registry.entries(), b.registry.entries());

        // Behavioural check: the restored broker still dedups the QoS 2
        // retransmission and delivers the buffered backlog on reconnect.
        let mut restored = restored;
        let out = feed(
            &mut restored,
            3,
            1,
            Packet::Publish {
                dup: true,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 42,
                payload: vec![9],
            },
        );
        assert_eq!(out.len(), 1, "duplicate must only be PUBRECed: {out:?}");
        let out = feed(
            &mut restored,
            4,
            7,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "translator".into(),
            },
        );
        let delivered: Vec<u8> = out[1..]
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect();
        // The three QoS 1 publishes plus the first-receipt QoS 2 forward.
        assert_eq!(
            delivered,
            vec![0, 1, 2, 9],
            "buffered backlog lost in persistence"
        );
    }

    #[test]
    fn old_snapshots_migrate_with_zeroed_new_counters() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/v1");
        subscribe(&mut b, 2, "t/v1", QoS::AtLeastOnce);
        feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 3,
                payload: vec![9],
            },
        );
        assert_eq!(b.stats().decode_errors, 0);
        assert_eq!(b.stats().io_errors, 0);

        let v6 = b.encode_state();
        assert_eq!(
            v6[0], STATE_VERSION,
            "bumping STATE_VERSION requires extending this migration test"
        );

        // The v5 wire form: version byte 5, and two more counters closing
        // the stats block — what a sharded gateway counted there is read
        // and discarded.
        let mut v5 = state_as_v5(&v6);
        assert_eq!(v5.len(), v6.len() + 16);
        v5[STATS_END] = 48;
        v5[STATS_END + 8] = 24;
        let restored = Broker::<Addr>::decode_state(&v5).expect("v5 snapshot accepted");
        assert_eq!(restored.stats(), b.stats());
        assert_eq!(restored.session_count(), b.session_count());
        // Re-encoding a migrated snapshot produces the v6 form.
        assert_eq!(restored.encode_state(), v6);

        // Current + one previous: anything older is refused, not guessed
        // at.
        for old in 1..=4u8 {
            v5[0] = old;
            assert_eq!(
                Broker::<Addr>::decode_state(&v5).err(),
                Some("unsupported broker snapshot version"),
                "v{old}"
            );
        }

        // The snapshot-failure counter: counted, persisted, and restored in
        // the current wire form.
        b.note_snapshot_failure();
        assert_eq!(b.stats().snapshot_failures, 1);
        let restored =
            Broker::<Addr>::decode_state(&b.encode_state()).expect("current snapshot accepted");
        assert_eq!(restored.stats().snapshot_failures, 1);
    }

    #[test]
    fn predefined_topic_seeded_after_traffic_routes_fresh() {
        // `registry_mut` conservatively invalidates the route cache, so a
        // topic seeded mid-flight is routable immediately — no stale
        // "unknown id" or empty route can be served from the cache.
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        subscribe(&mut b, 2, "pre/#", QoS::AtMostOnce);
        let publish = || Packet::Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic: TopicRef::Predefined(500),
            msg_id: 0,
            payload: vec![1],
        };
        // Unknown predefined id is rejected toward the publisher.
        let out = feed(&mut b, 0, 1, publish());
        assert!(matches!(
            out[0].1,
            Packet::PubAck {
                code: ReturnCode::InvalidTopicId,
                ..
            }
        ));
        assert!(b.registry_mut().register_predefined(500, "pre/x"));
        // An id collision is refused, never silently remapped (remapping
        // would also require a route-cache invalidation to be correct).
        assert!(!b.registry_mut().register_predefined(500, "pre/other"));
        let out = feed(&mut b, 1, 1, publish());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2, "seeded topic must route to the wildcard sub");
    }

    #[test]
    fn decode_state_rejects_corrupt_bytes() {
        let b = broker();
        let mut bytes = b.encode_state();
        assert!(Broker::<Addr>::decode_state(&bytes[..bytes.len() - 1]).is_err());
        // A count the input cannot back — here the registry's, after the
        // next topic id — is a truncated snapshot, not an allocation of
        // what it claims.
        let n_topics_at = STATS_END + 2;
        let mut claims = bytes.clone();
        claims[n_topics_at..n_topics_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Broker::<Addr>::decode_state(&claims).err(),
            Some("snapshot truncated")
        );
        bytes[0] = 99; // unknown version
        assert!(Broker::<Addr>::decode_state(&bytes).is_err());
    }

    /// A QoS 2 publish fanning out at three effective QoS levels: encoded
    /// once, and each subscriber's datagram is that image with its own
    /// flags byte and message id patched in.
    #[test]
    fn fan_out_at_three_qos_shares_one_patched_image() {
        let mut b = broker();
        let accepted = ReturnCode::Accepted;
        for (addr, id) in [(1, "pub"), (2, "s0"), (3, "s1"), (4, "s2")] {
            let connect = Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: id.into(),
            };
            let connack = Packet::ConnAck { code: accepted };
            assert_eq!(feed(&mut b, 7, addr, connect), [(addr, connack)]);
        }
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "t/eq".into(),
        };
        let regack = Packet::RegAck {
            topic_id: 1,
            msg_id: 1,
            code: accepted,
        };
        assert_eq!(feed(&mut b, 7, 1, register), [(1, regack)]);
        for (addr, qos) in [
            (2, QoS::AtMostOnce),
            (3, QoS::AtLeastOnce),
            (4, QoS::ExactlyOnce),
        ] {
            let subscribe = Packet::Subscribe {
                dup: false,
                qos,
                msg_id: 2,
                topic: TopicRef::Name("t/eq".into()),
            };
            let suback = Packet::SubAck {
                qos,
                topic_id: 1,
                msg_id: 2,
                code: accepted,
            };
            assert_eq!(feed(&mut b, 7, addr, subscribe), [(addr, suback)]);
        }

        let copy = |dup, qos, msg_id| Packet::Publish {
            dup,
            qos,
            retain: false,
            topic: TopicRef::Id(1),
            msg_id,
            payload: vec![0xAB; 100],
        };
        let mut out = BrokerOutputs::new();
        for (msg_id, fwd_id) in [(10u16, 1u16), (11, 2)] {
            out.clear();
            let publish = copy(false, QoS::ExactlyOnce, msg_id).encode();
            assert_eq!(b.on_datagram_into(7, 1, &publish, &mut out), Ok(true));
            assert_eq!(
                out.packets(),
                [
                    (1, Packet::PubRec { msg_id }),
                    (2, copy(false, QoS::AtMostOnce, 0)),
                    (3, copy(false, QoS::AtLeastOnce, fwd_id)),
                    (4, copy(false, QoS::ExactlyOnce, fwd_id)),
                ]
            );
            // On the wire the three copies are one image: they differ in
            // the flags byte and the two message-id bytes, nowhere else.
            let mut datagrams = Vec::new();
            out.emit(|_, bytes| datagrams.push(bytes.to_vec()));
            assert_eq!(datagrams[1], copy(false, QoS::AtMostOnce, 0).encode());
            let patched = |flags: u8, msg_id: u16| {
                let mut image = datagrams[1].clone();
                image[2] = flags;
                image[5..7].copy_from_slice(&msg_id.to_be_bytes());
                image
            };
            assert_eq!(datagrams[2], patched(0x20, fwd_id));
            assert_eq!(datagrams[3], patched(0x40, fwd_id));

            let pubrel = Packet::PubRel { msg_id };
            assert_eq!(
                feed(&mut b, 7, 1, pubrel),
                [(1, Packet::PubComp { msg_id })]
            );
        }

        // A tick retransmits the unacknowledged QoS 1 and QoS 2 forwards,
        // per subscriber in publish order.
        assert_eq!(
            tick(&mut b, u64::MAX / 2),
            [
                (3, copy(true, QoS::AtLeastOnce, 1)),
                (3, copy(true, QoS::AtLeastOnce, 2)),
                (4, copy(true, QoS::ExactlyOnce, 1)),
                (4, copy(true, QoS::ExactlyOnce, 2)),
            ]
        );
        let stats = b.stats();
        assert_eq!((stats.publishes_in, stats.publishes_out), (2, 6));
        assert_eq!(stats.retransmissions, 4);
    }

    #[test]
    fn datagram_path_decodes_and_counts_errors() {
        let mut b = broker();
        let mut out = BrokerOutputs::new();
        b.on_datagram_into(
            0,
            1,
            &Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: "d".into(),
            }
            .encode(),
            &mut out,
        )
        .unwrap();
        assert!(matches!(out.packets()[0].1, Packet::ConnAck { .. }));

        out.clear();
        assert!(b.on_datagram_into(0, 1, b"\xff garbage", &mut out).is_err());
        assert!(b.on_datagram_into(0, 1, &[], &mut out).is_err());
        assert_eq!(b.stats().decode_errors, 2);
        assert!(out.is_empty());

        b.note_io_errors(3);
        assert_eq!(b.stats().io_errors, 3);
    }

    /// What `emit_merged` yields, each datagram split back into packets.
    fn merged_datagrams(out: &mut BrokerOutputs<Addr>) -> Vec<(Addr, Vec<Packet>)> {
        let mut datagrams = Vec::new();
        out.emit_merged(|to, bytes| {
            assert!(bytes.len() <= MERGED_DATAGRAM_MAX);
            let split = crate::packet::frames(bytes).map(|f| Packet::decode(f).unwrap());
            datagrams.push((*to, split.collect()));
        });
        datagrams
    }

    #[test]
    fn emit_merged_joins_consecutive_replies_to_one_destination() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        connect(&mut b, 3, "other");
        let tid = register(&mut b, 1, "t/merge");
        let publish = |qos, msg_id| {
            Packet::Publish {
                dup: false,
                qos,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id,
                payload: vec![0x42; 64],
            }
            .encode()
        };
        let pubrel = Packet::PubRel { msg_id: 5 }.encode();
        let ping = Packet::PingReq.encode();

        // The bundle a device sends, then someone else's traffic.
        let mut out = BrokerOutputs::new();
        b.on_datagram_into(0, 1, &pubrel, &mut out).unwrap();
        let accepted = b.on_datagram_into(0, 1, &publish(QoS::ExactlyOnce, 6), &mut out);
        assert_eq!(accepted, Ok(true));
        b.on_datagram_into(0, 3, &ping, &mut out).unwrap();
        b.on_datagram_into(0, 1, &ping, &mut out).unwrap();
        assert_eq!(
            merged_datagrams(&mut out),
            [
                (
                    1,
                    vec![Packet::PubComp { msg_id: 5 }, Packet::PubRec { msg_id: 6 }]
                ),
                (3, vec![Packet::PingResp]),
                (1, vec![Packet::PingResp]),
            ]
        );
        // The one-message surface still yields one message per datagram.
        assert_eq!(out.packets().len(), 4);

        // A fan-out PUBLISH is patched: it travels alone and ends the run.
        subscribe(&mut b, 2, "t/merge", QoS::AtLeastOnce);
        out.clear();
        b.on_datagram_into(1, 1, &publish(QoS::AtLeastOnce, 7), &mut out)
            .unwrap();
        b.on_datagram_into(1, 1, &ping, &mut out).unwrap();
        let datagrams = merged_datagrams(&mut out);
        let shape: Vec<(Addr, usize)> = datagrams.iter().map(|(to, p)| (*to, p.len())).collect();
        assert_eq!(shape, [(1, 1), (2, 1), (1, 1)]);
        assert!(matches!(
            datagrams[1].1[0],
            Packet::Publish { msg_id: 1, .. }
        ));

        // A long run is cut at the size cap, never dropped or reordered.
        out.clear();
        for _ in 0..MERGED_DATAGRAM_MAX {
            b.on_datagram_into(2, 1, &ping, &mut out).unwrap();
        }
        let datagrams = merged_datagrams(&mut out);
        assert_eq!(datagrams.len(), 2, "2 bytes each: twice the cap in all");
        let total: usize = datagrams.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, MERGED_DATAGRAM_MAX);
    }

    #[test]
    fn fanout_shares_one_wire_image_with_patched_headers() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        for addr in 2..6u32 {
            connect(&mut b, addr, &format!("s{addr}"));
        }
        let tid = register(&mut b, 1, "t/fan");
        for addr in 2..4u32 {
            subscribe(&mut b, addr, "t/fan", QoS::AtMostOnce);
        }
        // Two QoS 1 subscribers get distinct msg ids via header patches.
        for addr in 4..6u32 {
            subscribe(&mut b, addr, "t/fan", QoS::AtLeastOnce);
        }
        let mut out = BrokerOutputs::new();
        let wire = Packet::Publish {
            dup: false,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id: 9,
            payload: vec![0x42; 64],
        }
        .encode();
        b.on_datagram_into(0, 1, &wire, &mut out).unwrap();

        let packets = out.packets();
        // PUBACK to the publisher + 4 forwards.
        assert_eq!(packets.len(), 5);
        let mut qos1_ids = Vec::new();
        for (to, p) in &packets[1..] {
            match p {
                Packet::Publish {
                    qos: QoS::AtMostOnce,
                    msg_id: 0,
                    payload,
                    ..
                } => {
                    assert!(*to == 2 || *to == 3);
                    assert_eq!(payload, &vec![0x42; 64]);
                }
                Packet::Publish {
                    qos: QoS::AtLeastOnce,
                    msg_id,
                    payload,
                    ..
                } => {
                    assert!(*to == 4 || *to == 5);
                    assert_eq!(payload, &vec![0x42; 64]);
                    qos1_ids.push(*msg_id);
                }
                p => panic!("unexpected {p:?}"),
            }
        }
        // Message ids are allocated per subscriber session: both QoS 1
        // copies carry id 1 here, patched over the QoS 0 image's id 0.
        assert_eq!(qos1_ids, vec![1, 1]);
        // emit() is repeatable: patches restore every copy's own header.
        assert_eq!(out.packets(), packets);

        // A second publish advances each subscriber's msg id to 2,
        // proving the patch really is per-copy, not a stale shared value.
        out.clear();
        b.on_datagram_into(1, 1, &wire, &mut out).unwrap();
        let ids: Vec<u16> = out
            .packets()
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish {
                    qos: QoS::AtLeastOnce,
                    msg_id,
                    ..
                } => Some(*msg_id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![2, 2]);
    }

    #[test]
    fn subscribe_to_registered_id() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        connect(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/id");
        let out = feed(
            &mut b,
            0,
            2,
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtMostOnce,
                msg_id: 9,
                // By id a SUBSCRIBE names a predefined topic; the two id
                // kinds share the broker's registry.
                topic: TopicRef::Predefined(tid),
            },
        );
        assert!(matches!(
            out[0].1,
            Packet::SubAck {
                code: ReturnCode::Accepted,
                topic_id,
                ..
            } if topic_id == tid
        ));
    }

    /// A broker with tiny watermarks, a durable subscriber that went away,
    /// and a publisher flooding it.
    fn congested_broker() -> (Broker<Addr>, u16) {
        let mut b = Broker::new(BrokerConfig {
            congestion_soft: 2,
            congestion_hard: 4,
            ..BrokerConfig::default()
        });
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/cong");
        subscribe(&mut b, 2, "t/cong", QoS::AtLeastOnce);
        // The subscriber goes away; everything published now buffers.
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        (b, tid)
    }

    fn publish_qos1(b: &mut Broker<Addr>, tid: u16, msg_id: u16) -> Vec<(Addr, Packet)> {
        feed(
            b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id,
                payload: vec![1],
            },
        )
    }

    #[test]
    fn congestion_advises_then_rejects_qos1() {
        let (mut b, tid) = congested_broker();
        let mut saw_advisory = false;
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for i in 1..=8u16 {
            for (to, p) in publish_qos1(&mut b, tid, i) {
                assert_eq!(to, 1, "all responses go to the publisher");
                match p {
                    Packet::CongestionAdvisory { level } if level > 0 => saw_advisory = true,
                    Packet::PubAck {
                        code: ReturnCode::Accepted,
                        ..
                    } => accepted += 1,
                    Packet::PubAck {
                        code: ReturnCode::Congestion,
                        ..
                    } => rejected += 1,
                    p => panic!("unexpected {p:?}"),
                }
            }
        }
        assert!(saw_advisory, "soft watermark must raise an advisory");
        assert!(rejected > 0, "hard watermark must reject QoS 1 publishes");
        assert_eq!(b.stats().congestion_rejects as u32, rejected);
        assert!(b.stats().advisories_sent > 0);
        assert!(b.stats().backlog_high_water >= 4);
        // Exact accounting: every accepted publish is buffered, every
        // rejected one bounced — nothing vanished.
        assert_eq!(b.backlog() as u32, accepted);
        assert_eq!(accepted + rejected, 8);
    }

    #[test]
    fn congestion_clears_via_tick_advisory() {
        let (mut b, tid) = congested_broker();
        for i in 1..=8u16 {
            publish_qos1(&mut b, tid, i);
        }
        assert_eq!(b.congestion_level(), 2);
        // The subscriber comes back; the durable reconnect delivers its
        // backlog, and acknowledging each message drains the broker.
        let delivered = feed(
            &mut b,
            1,
            2,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "sub".into(),
            },
        );
        for (_, p) in delivered {
            if let Packet::Publish { msg_id, .. } = p {
                feed(
                    &mut b,
                    2,
                    2,
                    Packet::PubAck {
                        topic_id: tid,
                        msg_id,
                        code: ReturnCode::Accepted,
                    },
                );
            }
        }
        assert_eq!(b.congestion_level(), 0);
        // The next tick tells the (still-advised) publisher it cleared.
        let out = tick(&mut b, u64::MAX / 2);
        assert!(
            out.iter()
                .any(|(to, p)| *to == 1 && matches!(p, Packet::CongestionAdvisory { level: 0 })),
            "falling congestion must be advertised on the tick: {out:?}"
        );
    }

    /// A broker whose one durable QoS 2 subscriber went away with room for
    /// four buffered messages.
    fn away_subscriber_with_room_for_four() -> (Broker<Addr>, u16) {
        let mut b = Broker::new(BrokerConfig {
            max_buffered: 4,
            ..BrokerConfig::default()
        });
        connect(&mut b, 1, "pub");
        connect_durable(&mut b, 2, "sub");
        let tid = register(&mut b, 1, "t/away");
        subscribe(&mut b, 2, "t/away", QoS::ExactlyOnce);
        feed(&mut b, 0, 2, Packet::Disconnect { duration: None });
        (b, tid)
    }

    /// The payloads the away subscriber gets when it comes back.
    fn buffered_on_return(b: &mut Broker<Addr>) -> Vec<u8> {
        let out = feed(
            b,
            1,
            2,
            Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: "sub".into(),
            },
        );
        out.iter()
            .filter_map(|(_, p)| match p {
                Packet::Publish { payload, .. } => Some(payload[0]),
                _ => None,
            })
            .collect()
    }

    /// The PUBACK code a publish got, if it got one.
    fn puback_code(out: &[(Addr, Packet)]) -> Option<ReturnCode> {
        out.iter().find_map(|(_, p)| match p {
            Packet::PubAck { code, .. } => Some(*code),
            _ => None,
        })
    }

    #[test]
    fn a_qos0_publish_never_evicts_an_acknowledged_message() {
        let (mut b, tid) = away_subscriber_with_room_for_four();
        for i in 1..=6u8 {
            let out = publish(&mut b, 0, tid, QoS::AtLeastOnce, u16::from(i), i);
            let expected = if i <= 4 {
                ReturnCode::Accepted
            } else {
                ReturnCode::Congestion
            };
            assert_eq!(puback_code(&out), Some(expected), "publish {i}: {out:?}");
        }
        assert_eq!(b.stats().drops, 0);
        // The session is full of acknowledged messages: the QoS 0 publish
        // is the one that goes.
        publish(&mut b, 0, tid, QoS::AtMostOnce, 0, 99);
        assert_eq!(b.stats().drops, 1);
        assert_eq!(buffered_on_return(&mut b), [1, 2, 3, 4]);
    }

    #[test]
    fn a_full_away_session_evicts_its_oldest_qos0_message() {
        let (mut b, tid) = away_subscriber_with_room_for_four();
        let first = [
            QoS::AtLeastOnce,
            QoS::AtMostOnce,
            QoS::AtLeastOnce,
            QoS::AtMostOnce,
        ];
        for (payload, qos) in (1..).zip(first) {
            publish(&mut b, 0, tid, qos, u16::from(payload), payload);
        }
        // Each QoS 0 publish past the cap makes room by evicting the
        // oldest buffered QoS 0 message: 2, then 4.
        publish(&mut b, 0, tid, QoS::AtMostOnce, 0, 5);
        publish(&mut b, 0, tid, QoS::AtMostOnce, 0, 6);
        assert_eq!(b.stats().drops, 2);
        assert_eq!(buffered_on_return(&mut b), [1, 3, 5, 6]);
    }

    /// What is queued for a local subscription, as `(topic id, payload)`.
    fn taken(sub: &mut LocalSubscription) -> Vec<(u16, u8)> {
        let mut batch = Vec::new();
        sub.try_recv(&mut batch);
        batch.iter().map(|m| (m.topic_id, m.payload[0])).collect()
    }

    #[test]
    fn duplicate_qos2_publish_reaches_a_local_subscription_once() {
        let mut b = broker();
        connect(&mut b, 1, "pub");
        let tid = register(&mut b, 1, "provlight/wf/dev");
        let mut sub = b.subscribe_local("provlight/#").unwrap();
        for _ in 0..2 {
            let out = publish(&mut b, 0, tid, QoS::ExactlyOnce, 10, 7);
            assert_eq!(out, [(1, Packet::PubRec { msg_id: 10 })], "and no PUBLISH");
        }
        assert_eq!(taken(&mut sub), [(tid, 7)]);
        feed(&mut b, 0, 1, Packet::PubRel { msg_id: 10 });
        assert!(taken(&mut sub).is_empty());
        let stats = b.stats();
        assert_eq!((stats.publishes_in, stats.publishes_out), (2, 1));
        assert_eq!(stats.duplicates_suppressed, 1);
        assert_eq!(b.backlog(), 0, "a local delivery leaves no QoS state");
        assert_eq!(b.session_count(), 1, "a local subscription is no session");
    }

    #[test]
    fn local_filters_match_as_remote_ones_do() {
        // Fig. 5 layout: one subscription per device topic, next to
        // wildcard ones; a remote session per filter is the reference.
        let mut b = broker();
        connect(&mut b, 1, "pub");
        let topics = ["provlight/wf/dev0", "provlight/wf/dev1", "other/dev0"];
        let tids: Vec<u16> = topics.iter().map(|t| register(&mut b, 1, t)).collect();
        let filters = [
            "provlight/wf/dev0",
            "provlight/wf/dev1",
            "provlight/#",
            "+/dev0",
        ];
        let mut locals = Vec::new();
        for (i, filter) in filters.iter().enumerate() {
            let remote = 10 + i as Addr;
            connect(&mut b, remote, &format!("remote{i}"));
            subscribe(&mut b, remote, filter, QoS::AtMostOnce);
            locals.push((remote, b.subscribe_local(filter).unwrap()));
        }
        assert_eq!(
            b.subscribe_local("provlight/#/dev").unwrap_err(),
            Error::Rejected(ReturnCode::NotSupported)
        );
        let mut remote_got: HashMap<Addr, Vec<(u16, u8)>> = HashMap::new();
        for (i, &tid) in tids.iter().enumerate() {
            for (to, p) in publish(&mut b, 0, tid, QoS::AtMostOnce, 0, i as u8) {
                match p {
                    Packet::Publish { payload, .. } => {
                        remote_got.entry(to).or_default().push((tid, payload[0]))
                    }
                    p => panic!("unexpected {p:?}"),
                }
            }
        }
        for (filter, (remote, local)) in filters.iter().zip(&mut locals) {
            assert_eq!(taken(local), remote_got[remote], "{filter}");
        }
        assert_eq!(remote_got[&12].len(), 2, "provlight/# takes both devices");
        assert_eq!(remote_got[&13].len(), 1, "+/dev0 is two levels deep");
    }

    #[test]
    fn full_local_queue_refuses_before_the_ack() {
        let mut b = Broker::new(BrokerConfig {
            max_buffered: 4,
            ..BrokerConfig::default()
        });
        connect(&mut b, 1, "pub");
        let tid = register(&mut b, 1, "t/full");
        let mut sub = b.subscribe_local("t/full").unwrap();

        let mut advised = 0;
        for id in 1..=4u16 {
            for (_, p) in publish(&mut b, 0, tid, QoS::ExactlyOnce, id, id as u8) {
                match p {
                    Packet::PubRec { msg_id } => assert_eq!(msg_id, id),
                    Packet::CongestionAdvisory { level } => advised = level,
                    p => panic!("unexpected {p:?}"),
                }
            }
        }
        assert_eq!(advised, 1, "three of four queued is the soft level");
        assert_eq!((b.backlog(), b.congestion_level()), (4, 2));

        // At the cap: refused with the congestion code, and nothing that
        // would tell the publisher the message was taken.
        let refused = |msg_id| Packet::PubAck {
            topic_id: tid,
            msg_id,
            code: ReturnCode::Congestion,
        };
        let out = publish(&mut b, 0, tid, QoS::ExactlyOnce, 5, 5);
        let advisory = Packet::CongestionAdvisory { level: 2 };
        assert_eq!(out, [(1, advisory), (1, refused(5))]);
        let out = publish(&mut b, 0, tid, QoS::AtLeastOnce, 6, 6);
        assert_eq!(out, [(1, refused(6))]);
        // QoS 0 has no ack to carry a refusal: dropped and counted, as
        // for an away session at its cap.
        assert!(publish(&mut b, 0, tid, QoS::AtMostOnce, 0, 7).is_empty());
        // A retransmission of an accepted publish completes its handshake.
        let out = publish(&mut b, 0, tid, QoS::ExactlyOnce, 1, 1);
        assert_eq!(out, [(1, Packet::PubRec { msg_id: 1 })]);

        let stats = *b.stats();
        assert_eq!(stats.congestion_rejects, 2);
        assert_eq!(stats.drops, 1);
        assert_eq!(stats.duplicates_suppressed, 1);
        assert_eq!(stats.publishes_out, 4);
        assert_eq!(
            stats.publishes_in,
            stats.publishes_out
                + stats.drops
                + stats.congestion_rejects
                + stats.duplicates_suppressed
        );

        // The consumer catches up: exactly the acknowledged publishes, in
        // order, and the next tick tells the publisher the pressure is off.
        let acknowledged: Vec<_> = (1..=4u8).map(|id| (tid, id)).collect();
        assert_eq!(taken(&mut sub), acknowledged);
        assert_eq!((b.backlog(), b.congestion_level()), (0, 0));
        let out = tick(&mut b, 1);
        assert_eq!(out, [(1, Packet::CongestionAdvisory { level: 0 })]);
        let out = publish(&mut b, 1, tid, QoS::ExactlyOnce, 8, 8);
        assert_eq!(out, [(1, Packet::PubRec { msg_id: 8 })]);
    }

    #[test]
    fn hard_congestion_spares_qos2_duplicates() {
        let (mut b, tid) = congested_broker();
        // First QoS 2 publish while clear: accepted, forwarded (buffered).
        let out = feed(
            &mut b,
            0,
            1,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 77,
                payload: vec![2],
            },
        );
        assert!(out
            .iter()
            .any(|(_, p)| matches!(p, Packet::PubRec { msg_id: 77 })));
        // Flood until hard congestion.
        for i in 1..=8u16 {
            publish_qos1(&mut b, tid, i);
        }
        assert_eq!(b.congestion_level(), 2);
        // A DUP retransmission of the already-forwarded QoS 2 message
        // still completes the handshake; rejecting it would trigger a
        // duplicate replay of a delivered message.
        let out = feed(
            &mut b,
            1,
            1,
            Packet::Publish {
                dup: true,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id: 77,
                payload: vec![2],
            },
        );
        assert!(
            out.iter()
                .any(|(_, p)| matches!(p, Packet::PubRec { msg_id: 77 })),
            "QoS 2 dup must get PUBREC, not a congestion reject: {out:?}"
        );
        assert!(!out.iter().any(|(_, p)| matches!(
            p,
            Packet::PubAck {
                code: ReturnCode::Congestion,
                ..
            }
        )));
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes at the one door, from an address with a live
        /// session, one whose durable session is away and one the broker
        /// has never heard of: arbitrary bytes, well-formed packets and
        /// well-formed packets with a byte damaged. Nothing panics, every
        /// refused datagram is counted once, everything the broker answers
        /// decodes, and with one QoS 0 subscriber to `#` every publish
        /// counted in is counted out, suppressed, rejected or refused.
        #[test]
        fn prop_arbitrary_datagrams_never_panic_and_every_reply_decodes(
            steps in proptest::collection::vec(
                (
                    0usize..3,
                    crate::packet::tests::arb_packet(),
                    proptest::collection::vec(any::<u8>(), 0..48),
                    0u8..4,
                    0usize..4096,
                    1u8..=255,
                ),
                1..24,
            ),
        ) {
            let (publisher, away, unknown) = (1, 3, 9);
            let mut b = broker();
            connect(&mut b, publisher, "pub");
            connect(&mut b, 2, "sub");
            connect_durable(&mut b, away, "away");
            feed(&mut b, 0, away, Packet::Disconnect { duration: None });
            let tid = register(&mut b, publisher, "t");
            subscribe(&mut b, 2, "#", QoS::AtMostOnce);

            let mut out = BrokerOutputs::new();
            // Refusals for an unknown topic id have no counter of their
            // own; they are read off the replies. `reshaped`: some session
            // other than the subscriber's now matches publishes too, or
            // the subscriber's was taken over — one-in-one-out is off.
            let (mut errs, mut refused, mut reshaped) = (0u64, 0u64, false);
            for (now, (from, mut packet, noise, mode, at, mask)) in steps.into_iter().enumerate() {
                // Half the well-formed publishes go to the live topic on a
                // handful of message ids, so duplicates and releases meet.
                match &mut packet {
                    Packet::Publish { topic, msg_id, .. } if at % 2 == 0 => {
                        *topic = TopicRef::Id(tid);
                        *msg_id %= 4;
                    }
                    Packet::PubRel { msg_id } => *msg_id %= 4,
                    _ => {}
                }
                let mut datagram = if mode == 0 { noise } else { packet.encode() };
                if mode == 1 {
                    let at = at % datagram.len();
                    datagram[at] ^= mask;
                }
                reshaped |= matches!(
                    Packet::decode(&datagram),
                    Ok(Packet::Connect { client_id, .. }) if client_id == "sub"
                );

                out.clear();
                let from = [publisher, away, unknown][from];
                if b.on_datagram_into(now as Nanos, from, &datagram, &mut out).is_err() {
                    errs += 1;
                }
                prop_assert_eq!(b.stats().decode_errors, errs);
                out.emit(|_, bytes| match Packet::decode(bytes) {
                    Ok(Packet::PubAck { code: ReturnCode::InvalidTopicId, .. }) => refused += 1,
                    Ok(Packet::SubAck { code: ReturnCode::Accepted, .. }) => reshaped = true,
                    Ok(_) => {}
                    Err(e) => panic!("reply {bytes:02x?} does not decode: {e}"),
                });
                out.emit_merged(|_, bytes| {
                    for frame in crate::packet::frames(bytes) {
                        assert!(Packet::decode(frame).is_ok(), "merged {bytes:02x?}");
                    }
                });
            }
            if !reshaped {
                let s = b.stats();
                prop_assert_eq!(
                    s.publishes_in,
                    s.publishes_out
                        + s.drops
                        + s.congestion_rejects
                        + s.duplicates_suppressed
                        + refused
                );
            }
        }
    }
}
