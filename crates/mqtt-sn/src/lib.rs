//! # mqtt-sn
//!
//! An implementation of the **MQTT-SN v1.2** protocol (MQTT for Sensor
//! Networks), the transport the paper picked for ProvLight (Table VI:
//! "MQTT-SN, QoS 2: exactly once" over UDP, publish/subscribe).
//!
//! Layers:
//!
//! * [`packet`] — the wire format: every MQTT-SN v1.2 message type with
//!   encode/decode (2-byte fixed headers, 16-bit topic ids — the reason the
//!   protocol suits constrained links);
//! * [`topic`] — topic names, ids, registry, and MQTT wildcard matching;
//! * [`client`] — a *sans-io* client state machine: CONNECT / REGISTER /
//!   PUBLISH (QoS 0/1/2 with retransmission and DUP) / SUBSCRIBE /
//!   keep-alive;
//! * [`broker`] — a *sans-io* broker (the paper uses Eclipse RSMB):
//!   sessions, topic registry, subscription matching, QoS 2 exactly-once
//!   inbound handling, and outbound QoS state machines per subscriber;
//! * [`local`] — gateway-local subscriptions: a subscriber in the
//!   gateway's own process takes accepted publishes from a bounded queue,
//!   with no second MQTT-SN leg;
//! * [`hold`] — what each end of the device leg holds back, and when it
//!   leaves: the gateway's acknowledgements until the device asks or a
//!   hold passes, and the device's PUBRELs, decided on virtual time,
//!   without a socket;
//! * `qos` (private) — the QoS 1/2 delivery machine both of them run: one
//!   transition table, one retransmit-or-expire pass, one QoS 2 dedup
//!   window, so the delivery guarantee is written down once;
//! * [`session`] — a device's end of the link without a socket or a clock:
//!   the client, its hold, and the events and replies a read leaves;
//! * [`net`] — bindings of the sans-io cores to real `std::net::UdpSocket`s
//!   (the gateway — one broker served by one loop on one thread — the one
//!   datagram `Endpoint` both ends use, and a blocking client) so the
//!   library is usable outside the simulator.
//!
//! The same state machines drive both the real sockets and the
//! discrete-event simulator used for the paper's experiments; QoS
//! correctness is therefore tested once and holds in both modes.

pub mod broker;
pub mod client;
pub mod hold;
pub mod local;
pub mod net;
pub mod packet;
mod qos;
pub mod session;
pub mod topic;

pub use broker::{Broker, BrokerConfig};
pub use client::{Client, ClientConfig, ClientEvent, ClientState};
pub use local::{LocalMessage, LocalSubscription};
pub use net::{
    DatagramFate, DatagramFault, FaultDir, GatewayBuilder, NetError, UdpBroker, UdpClient,
};
pub use packet::{Packet, QoS, ReturnCode, TopicRef};
pub use topic::{topic_matches, TopicRegistry};

/// Protocol errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// Packet bytes could not be decoded.
    Malformed(&'static str),
    /// Operation invalid in the current state.
    BadState(&'static str),
    /// The broker rejected a request.
    Rejected(packet::ReturnCode),
    /// Too many unacknowledged messages in flight.
    InflightFull,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Malformed(m) => write!(f, "malformed packet: {m}"),
            Error::BadState(m) => write!(f, "operation invalid in current state: {m}"),
            Error::Rejected(c) => write!(f, "rejected by broker: {c:?}"),
            Error::InflightFull => f.write_str("in-flight window full"),
        }
    }
}

impl std::error::Error for Error {}
