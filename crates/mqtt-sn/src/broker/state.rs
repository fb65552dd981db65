//! The snapshot format: the broker's complete state as a version-tagged
//! byte blob and back. A child of [`crate::broker`] so it reads and
//! rebuilds the private session fields without any of them turning `pub`.

use super::{Broker, BrokerConfig, BrokerStats, Session, SessionState};
use crate::packet::QoS;
use crate::qos::{Receiver, SendWindow};
use crate::topic::TopicRegistry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::time::Duration;

/// Minimal little-endian wire helpers for snapshot persistence.
pub mod wire {
    use prov_wal::le_bytes;

    /// Sequential reader over a persisted byte slice.
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Wraps a byte slice.
        pub fn new(buf: &'a [u8]) -> Reader<'a> {
            Reader { buf, pos: 0 }
        }

        fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
            let end = self.pos.checked_add(n).ok_or("length overflow")?;
            if end > self.buf.len() {
                return Err("snapshot truncated");
            }
            let slice = &self.buf[self.pos..end];
            self.pos = end;
            Ok(slice)
        }

        /// What to pre-allocate for a claimed `count` of elements taking at
        /// least `min_entry` bytes each: no more of them than the unread
        /// bytes can hold. A count the input cannot back then surfaces as
        /// "snapshot truncated" while the elements are read, not as an
        /// allocation of whatever the field claims.
        pub fn capacity_for(&self, count: u32, min_entry: usize) -> usize {
            (count as usize).min((self.buf.len() - self.pos) / min_entry.max(1))
        }

        /// Reads one byte.
        pub fn u8(&mut self) -> Result<u8, &'static str> {
            Ok(self.take(1)?[0])
        }

        /// Reads a little-endian `u16`.
        pub fn u16(&mut self) -> Result<u16, &'static str> {
            Ok(u16::from_le_bytes(le_bytes(self.take(2)?)))
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, &'static str> {
            Ok(u32::from_le_bytes(le_bytes(self.take(4)?)))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, &'static str> {
            Ok(u64::from_le_bytes(le_bytes(self.take(8)?)))
        }

        /// Reads a `u32`-length-prefixed byte string.
        pub fn bytes(&mut self) -> Result<Vec<u8>, &'static str> {
            let len = self.u32()? as usize;
            Ok(self.take(len)?.to_vec())
        }

        /// Reads a `u32`-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<String, &'static str> {
            String::from_utf8(self.bytes()?).map_err(|_| "invalid UTF-8 in snapshot")
        }
    }

    /// Appends a `u32`-length-prefixed byte string.
    pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_bytes(out, s.as_bytes());
    }
}

/// Peer addresses that can be persisted in a broker snapshot: the real-UDP
/// `SocketAddr` and the simulator's small integer ids.
pub trait PersistAddr: Clone + Eq + Hash + Sized {
    /// Appends the address to a snapshot buffer.
    fn encode_addr(&self, out: &mut Vec<u8>);
    /// Reads an address back.
    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str>;
}

impl PersistAddr for std::net::SocketAddr {
    fn encode_addr(&self, out: &mut Vec<u8>) {
        match self.ip() {
            std::net::IpAddr::V4(ip) => {
                out.push(4);
                out.extend_from_slice(&ip.octets());
            }
            std::net::IpAddr::V6(ip) => {
                out.push(6);
                out.extend_from_slice(&ip.octets());
            }
        }
        out.extend_from_slice(&self.port().to_le_bytes());
    }

    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str> {
        let ip: std::net::IpAddr = match r.u8()? {
            4 => {
                let mut octets = [0u8; 4];
                for o in &mut octets {
                    *o = r.u8()?;
                }
                std::net::Ipv4Addr::from(octets).into()
            }
            6 => {
                let mut octets = [0u8; 16];
                for o in &mut octets {
                    *o = r.u8()?;
                }
                std::net::Ipv6Addr::from(octets).into()
            }
            _ => return Err("unknown address family"),
        };
        let port = r.u16()?;
        Ok(std::net::SocketAddr::new(ip, port))
    }
}

impl PersistAddr for u32 {
    fn encode_addr(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode_addr(r: &mut wire::Reader<'_>) -> Result<Self, &'static str> {
        r.u32()
    }
}

// v6 is v5 without the two counters of the deleted sharded gateway
// (cross_shard_forwards / forward_ring_high_water) that closed v5's stats
// block. Decoding accepts the current version and the one before it;
// anything older is refused.
pub(super) const STATE_VERSION: u8 = 6;

/// Fewest bytes one element of each counted sequence encodes to (see
/// [`wire::Reader::capacity_for`]): an address of any kind is a byte at
/// least; a registry entry is an id and a string length; a session an
/// address, a string length, two flags, a clock, a message id and four
/// counts; a buffered message a topic id, a QoS byte and a payload length;
/// a subscription a string length and a QoS byte.
const ADDR_MIN: usize = 1;
const TOPIC_MIN: usize = 2 + 4;
const SESSION_MIN: usize = ADDR_MIN + 4 + 1 + 1 + 8 + 2 + 4 * 4;
const BUFFERED_MIN: usize = 2 + 1 + 4;
const SUBSCRIPTION_MIN: usize = 4 + 1;

fn qos_byte(q: QoS) -> u8 {
    match q {
        QoS::AtMostOnce => 0,
        QoS::AtLeastOnce => 1,
        QoS::ExactlyOnce => 2,
    }
}

fn qos_from(b: u8) -> Result<QoS, &'static str> {
    match b {
        0 => Ok(QoS::AtMostOnce),
        1 => Ok(QoS::AtLeastOnce),
        2 => Ok(QoS::ExactlyOnce),
        _ => Err("invalid QoS byte"),
    }
}

impl<A: PersistAddr> Broker<A> {
    /// Serializes the complete broker state — config, topic registry,
    /// sessions (QoS handshake state, subscriptions, buffered messages),
    /// fan-out order, and stats — into a version-tagged byte blob.
    /// `UdpBroker::snapshot_to_file` wraps the blob in a checksummed,
    /// atomically-written file so a gateway survives process death.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        // Config.
        out.push(self.config.gw_id);
        out.extend_from_slice(&(self.config.retry_timeout.as_nanos() as u64).to_le_bytes());
        out.extend_from_slice(&self.config.max_retries.to_le_bytes());
        out.extend_from_slice(&(self.config.max_buffered as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.congestion_soft as u64).to_le_bytes());
        out.extend_from_slice(&(self.config.congestion_hard as u64).to_le_bytes());
        // A retired congestion-signalling switch, written as `1` so the
        // layout stays `STATE_VERSION` 6.
        out.push(1);
        // Stats.
        for v in [
            self.stats.publishes_in,
            self.stats.publishes_out,
            self.stats.duplicates_suppressed,
            self.stats.retransmissions,
            self.stats.drops,
            self.stats.decode_errors,
            self.stats.io_errors,
            self.stats.congestion_rejects,
            self.stats.advisories_sent,
            self.stats.backlog_high_water,
            self.stats.snapshot_failures,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        // Registry.
        out.extend_from_slice(&self.registry.next_id().to_le_bytes());
        let entries = self.registry.entries();
        out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (id, name) in entries {
            out.extend_from_slice(&id.to_le_bytes());
            wire::put_str(&mut out, name);
        }
        // Fan-out order.
        out.extend_from_slice(&(self.order.len() as u32).to_le_bytes());
        for addr in &self.order {
            addr.encode_addr(&mut out);
        }
        // Sessions: the ones in fan-out order first, then any anonymous
        // publisher sessions the order list never tracked, sorted by their
        // encoded address so the whole encoding is deterministic (and the
        // membership check is O(1), not a per-session scan of `order`).
        let in_order: HashSet<&A> = self.order.iter().collect();
        let mut anonymous: Vec<(Vec<u8>, &A)> = self
            .sessions
            .keys()
            .filter(|a| !in_order.contains(a))
            .map(|a| {
                let mut key = Vec::new();
                a.encode_addr(&mut key);
                (key, a)
            })
            .collect();
        anonymous.sort_by(|x, y| x.0.cmp(&y.0));
        let ordered: Vec<&A> = self
            .order
            .iter()
            .filter(|a| self.sessions.contains_key(*a))
            .chain(anonymous.iter().map(|(_, a)| *a))
            .collect();
        out.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
        for addr in &ordered {
            let s = &self.sessions[*addr];
            addr.encode_addr(&mut out);
            wire::put_str(&mut out, &s.client_id);
            out.push(match s.state {
                SessionState::Active => 0,
                SessionState::Asleep => 1,
                SessionState::Disconnected => 2,
            });
            out.push(s.durable as u8);
            out.extend_from_slice(&s.last_seen.to_le_bytes());
            out.extend_from_slice(&s.out.next_id().to_le_bytes());
            out.extend_from_slice(&(s.buffered.len() as u32).to_le_bytes());
            for (topic_id, payload, qos) in &s.buffered {
                out.extend_from_slice(&topic_id.to_le_bytes());
                out.push(qos_byte(*qos));
                wire::put_bytes(&mut out, payload);
            }
            out.extend_from_slice(&(s.subscriptions.len() as u32).to_le_bytes());
            for (filter, qos) in &s.subscriptions {
                wire::put_str(&mut out, filter);
                out.push(qos_byte(*qos));
            }
            s.out.encode_slots(&mut out);
            s.inbound.encode_pending(&mut out);
        }
        // Appendix: per-session recently-completed inbound QoS 2
        // windows, in session order, FIFO order preserved so eviction
        // order survives a restart.
        out.extend_from_slice(&(ordered.len() as u32).to_le_bytes());
        for addr in &ordered {
            self.sessions[*addr].inbound.encode_completed(&mut out);
        }
        out
    }

    /// Rebuilds a broker from [`Broker::encode_state`] bytes: the current
    /// version, or the previous one (v5, whose two extra counters are read
    /// and discarded), so a gateway upgrade does not discard the durable
    /// sessions its snapshot file exists to preserve.
    pub fn decode_state(bytes: &[u8]) -> Result<Broker<A>, &'static str> {
        let r = &mut wire::Reader::new(bytes);
        let version = r.u8()?;
        if !(STATE_VERSION - 1..=STATE_VERSION).contains(&version) {
            return Err("unsupported broker snapshot version");
        }
        let config = BrokerConfig {
            gw_id: r.u8()?,
            retry_timeout: Duration::from_nanos(r.u64()?),
            max_retries: r.u32()?,
            max_buffered: r.u64()? as usize,
            congestion_soft: r.u64()? as usize,
            congestion_hard: r.u64()? as usize,
        };
        // The retired congestion-signalling switch (see `encode_state`).
        r.u8()?;
        let stats = BrokerStats {
            publishes_in: r.u64()?,
            publishes_out: r.u64()?,
            duplicates_suppressed: r.u64()?,
            retransmissions: r.u64()?,
            drops: r.u64()?,
            decode_errors: r.u64()?,
            io_errors: r.u64()?,
            congestion_rejects: r.u64()?,
            advisories_sent: r.u64()?,
            backlog_high_water: r.u64()?,
            snapshot_failures: r.u64()?,
        };
        if version < STATE_VERSION {
            // v5's two extra counters.
            r.u64()?;
            r.u64()?;
        }
        let next_id = r.u16()?;
        let n_topics = r.u32()?;
        let mut topics = Vec::with_capacity(r.capacity_for(n_topics, TOPIC_MIN));
        for _ in 0..n_topics {
            let id = r.u16()?;
            topics.push((id, r.str()?));
        }
        let registry =
            TopicRegistry::from_entries(next_id, topics.iter().map(|(id, n)| (*id, n.as_str())));
        let n_order = r.u32()?;
        let mut order = Vec::with_capacity(r.capacity_for(n_order, ADDR_MIN));
        for _ in 0..n_order {
            order.push(A::decode_addr(r)?);
        }
        if order.iter().collect::<HashSet<&A>>().len() != order.len() {
            return Err("address twice in fan-out order");
        }
        let n_sessions = r.u32()?;
        let session_cap = r.capacity_for(n_sessions, SESSION_MIN);
        let mut sessions = HashMap::with_capacity(session_cap);
        let mut read_order: Vec<A> = Vec::with_capacity(session_cap);
        for _ in 0..n_sessions {
            let addr = A::decode_addr(r)?;
            let client_id = r.str()?;
            let state = match r.u8()? {
                0 => SessionState::Active,
                1 => SessionState::Asleep,
                2 => SessionState::Disconnected,
                _ => return Err("invalid session state"),
            };
            let durable = r.u8()? != 0;
            let last_seen = r.u64()?;
            let next_msg_id = r.u16()?;
            let n_buffered = r.u32()?;
            let mut buffered = VecDeque::with_capacity(r.capacity_for(n_buffered, BUFFERED_MIN));
            for _ in 0..n_buffered {
                let topic_id = r.u16()?;
                let qos = qos_from(r.u8()?)?;
                buffered.push_back((topic_id, r.bytes()?, qos));
            }
            let n_subs = r.u32()?;
            let mut subscriptions = Vec::with_capacity(r.capacity_for(n_subs, SUBSCRIPTION_MIN));
            for _ in 0..n_subs {
                let filter = r.str()?;
                subscriptions.push((filter, qos_from(r.u8()?)?));
            }
            let out = SendWindow::decode_slots(next_msg_id, r)?;
            let inbound = Receiver::decode_pending(r)?;
            read_order.push(addr.clone());
            let session = Session {
                client_id,
                state,
                durable,
                buffered,
                subscriptions,
                out,
                inbound,
                last_seen,
                advised_level: 0,
            };
            if sessions.insert(addr, session).is_some() {
                return Err("session twice in snapshot");
            }
        }
        // Appendix: recently-completed inbound QoS 2 windows, matched to
        // sessions by encode order.
        let n_appendix = r.u32()?;
        if n_appendix as usize != read_order.len() {
            return Err("completed-qos2 appendix session count mismatch");
        }
        for addr in &read_order {
            let s = sessions.get_mut(addr).ok_or("appendix session missing")?;
            s.inbound.decode_completed(r)?;
        }
        Ok(Broker {
            config,
            registry,
            sessions,
            order,
            locals: Vec::new(),
            stats,
            route_epoch: 0,
            routes: HashMap::new(),
            payload_pool: Vec::new(),
        })
    }
}

/// Where the stats block of a current blob ends, and the registry (next
/// topic id, entry count, entries) starts: after the version, the config
/// (gw id, retry timeout, retries, buffer cap, two congestion watermarks,
/// the retired signal flag) and eleven counters.
#[cfg(test)]
pub(crate) const STATS_END: usize = 1 + (1 + 8 + 4 + 8 + 8 + 8 + 1) + 11 * 8;

/// The `STATE_VERSION` 5 form of a current blob: version byte 5, and the
/// two counters v5 carried at the end of the stats block, zeroed.
#[cfg(test)]
pub(crate) fn state_as_v5(current: &[u8]) -> Vec<u8> {
    let mut v5 = current.to_vec();
    v5[0] = 5;
    v5.splice(STATS_END..STATS_END, [0u8; 16]);
    v5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::BrokerOutputs;
    use crate::net::decode_snapshot;
    use crate::packet::{Packet, TopicRef};
    use proptest::prelude::*;
    use std::net::SocketAddr;

    /// A broker holding one of everything a snapshot carries: a durable
    /// session that went away with a wildcard subscription and `buffered`
    /// messages waiting, live QoS 1 and QoS 2 subscribers with a message
    /// each in flight, and a publisher with one QoS 2 handshake pending and
    /// one completed.
    fn populated<A: PersistAddr>(
        addr: impl Fn(u8) -> A,
        buffered: u16,
        payload: &[u8],
    ) -> Broker<A> {
        let mut b = Broker::new(BrokerConfig::default());
        let mut feed = |from: u8, packet: Packet| {
            b.on_datagram_into(0, addr(from), &packet.encode(), &mut BrokerOutputs::new())
                .expect("a well-formed packet decodes");
        };
        for (from, id) in [(1, "pub"), (2, "away"), (3, "sub-qos1"), (4, "sub-qos2")] {
            let connect = Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: id.into(),
            };
            feed(from, connect);
        }
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "snap/t".into(),
        };
        feed(1, register);
        let subscriptions = [
            (2, "snap/#", QoS::ExactlyOnce),
            (3, "snap/t", QoS::AtLeastOnce),
            (4, "snap/t", QoS::ExactlyOnce),
        ];
        for (from, filter, qos) in subscriptions {
            let subscribe = Packet::Subscribe {
                dup: false,
                qos,
                msg_id: 1,
                topic: TopicRef::Name(filter.into()),
            };
            feed(from, subscribe);
        }
        feed(2, Packet::Disconnect { duration: None });
        for msg_id in 1..=buffered.max(2) {
            let publish = Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(1),
                msg_id,
                payload: payload.to_vec(),
            };
            feed(1, publish);
        }
        feed(1, Packet::PubRel { msg_id: 1 });
        b
    }

    fn socket_addr(n: u8) -> SocketAddr {
        SocketAddr::from(([10, 0, 0, n], 1883))
    }

    /// `bytes` as the broker section of a `PVSH` file.
    fn wrapped(bytes: &[u8]) -> Vec<u8> {
        let mut file = b"PVSH\x02".to_vec();
        wire::put_bytes(&mut file, bytes);
        file
    }

    /// What decoding untrusted bytes may do: refuse them, or build a
    /// broker whose own encoding is stable — never panic, never abort.
    /// Returns whether the bytes were accepted.
    fn refuses_or_settles<A: PersistAddr>(
        decode: impl Fn(&[u8]) -> Result<Broker<A>, &'static str>,
        rewrap: impl Fn(&[u8]) -> Vec<u8>,
        bytes: &[u8],
    ) -> bool {
        let Ok(broker) = decode(bytes) else {
            return false;
        };
        let encoded = broker.encode_state();
        let again = decode(&rewrap(&encoded)).expect("a broker's own encoding decodes");
        assert_eq!(again.encode_state(), encoded);
        true
    }

    /// Every way of damaging a valid `blob` that has a shape: cut at every
    /// length, one byte flipped by `mask` at every offset, and every four
    /// bytes that could be a count — the count fields among them —
    /// claiming more than any input holds. `accepts` says whether bytes
    /// decoded; it panics if they decoded into something unstable.
    fn damage_everywhere(blob: &[u8], mask: u8, accepts: impl Fn(&[u8]) -> bool) {
        assert!(accepts(blob), "a valid blob decodes");
        assert!(accepts(&state_as_v5(blob)), "and so does its v5 form");
        // The decoder reads to the last byte, so a strict prefix is
        // always short of something.
        for cut in 0..blob.len() {
            assert!(!accepts(&blob[..cut]), "cut at {cut}");
        }
        let mut damaged = blob.to_vec();
        for at in 0..blob.len() {
            damaged[at] ^= mask;
            accepts(&damaged);
            damaged[at] = blob[at];
        }
        for at in 0..blob.len() - 3 {
            damaged[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            accepts(&damaged);
            damaged[at..at + 4].copy_from_slice(&blob[at..at + 4]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn prop_arbitrary_and_damaged_snapshots_never_panic(
            noise in collection::vec(any::<u8>(), 1..512),
            buffered in 0u16..6,
            payload in collection::vec(any::<u8>(), 0..24),
            mask in 1u8..=255,
        ) {
            let as_blob =
                |bytes: &[u8]| refuses_or_settles(Broker::<u32>::decode_state, <[u8]>::to_vec, bytes);
            let as_file = |bytes: &[u8]| refuses_or_settles(decode_snapshot, wrapped, bytes);
            let as_section = |bytes: &[u8]| as_file(&wrapped(bytes));

            // Arbitrary bytes: as a blob, as a file, as a file's section,
            // and behind each version byte the decoder goes on from.
            as_file(&noise);
            let mut versioned = noise;
            for version in [versioned[0], STATE_VERSION - 1, STATE_VERSION] {
                versioned[0] = version;
                as_blob(&versioned);
                as_section(&versioned);
            }

            let blob = populated(|n| n as u32, buffered, &payload).encode_state();
            damage_everywhere(&blob, mask, as_blob);
            let blob = populated(socket_addr, buffered, &payload).encode_state();
            damage_everywhere(&blob, mask, as_section);
        }
    }

    #[test]
    fn socket_addrs_round_trip_in_both_families_and_refuse_a_cut() {
        for addr in ["127.0.0.1:1883", "[2001:db8::7]:65535"] {
            let addr: SocketAddr = addr.parse().unwrap();
            let mut bytes = Vec::new();
            addr.encode_addr(&mut bytes);
            let decode = |bytes: &[u8]| SocketAddr::decode_addr(&mut wire::Reader::new(bytes));
            assert_eq!(decode(&bytes), Ok(addr));
            for cut in 0..bytes.len() {
                assert_eq!(decode(&bytes[..cut]), Err("snapshot truncated"), "{cut}");
            }
            bytes[0] = 5;
            assert_eq!(decode(&bytes), Err("unknown address family"));
        }
    }

    #[test]
    fn reader_refuses_a_length_it_cannot_follow() {
        let mut bytes = Vec::new();
        wire::put_str(&mut bytes, "prov/t");
        assert_eq!(wire::Reader::new(&bytes).str().as_deref(), Ok("prov/t"));
        for claimed in [7u32, u32::MAX] {
            bytes[..4].copy_from_slice(&claimed.to_le_bytes());
            assert_eq!(wire::Reader::new(&bytes).str(), Err("snapshot truncated"));
        }
        bytes[..4].copy_from_slice(&6u32.to_le_bytes());
        bytes[4] = 0xFF;
        let refused = wire::Reader::new(&bytes).str();
        assert_eq!(refused, Err("invalid UTF-8 in snapshot"));
    }
}
