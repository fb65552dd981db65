//! Client-side capture configuration.

use std::time::Duration;

/// When the client transmits buffered records (paper §IV-C "data capture
/// grouping").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupPolicy {
    /// Every record is its own message (the paper's "0 messages grouped").
    Immediate,
    /// Accumulate `size` records per message.
    Grouped {
        /// Records per message.
        size: usize,
    },
    /// Begin events are sent immediately — so users can still track
    /// *started* tasks at runtime — while end events are grouped `size`
    /// per message (the behaviour the paper describes).
    EndedOnly {
        /// End-records per message.
        size: usize,
    },
}

impl GroupPolicy {
    /// The paper's table axis: 0 → immediate, n → grouped(n).
    pub fn from_group_count(n: usize) -> GroupPolicy {
        if n == 0 {
            GroupPolicy::Immediate
        } else {
            GroupPolicy::Grouped { size: n }
        }
    }
}

/// A disk fault-injection hook for the spill WAL, cloneable into the
/// transmitter thread. Equality is pointer identity (two configs are
/// "equal" when they share the same hook instance), which keeps
/// [`CaptureConfig`] comparable in tests without asking fault hooks to be.
#[derive(Clone, Debug)]
pub struct SpillFault(pub std::sync::Arc<dyn prov_wal::IoFault>);

impl PartialEq for SpillFault {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}
impl Eq for SpillFault {}

/// A datagram fault-injection hook for the transmitter's UDP link
/// (see [`mqtt_sn::DatagramFault`]); same pointer-identity equality
/// convention as [`SpillFault`].
#[derive(Clone, Debug)]
pub struct LinkFault(pub std::sync::Arc<dyn mqtt_sn::DatagramFault>);

impl PartialEq for LinkFault {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}
impl Eq for LinkFault {}

/// Capture pipeline configuration.
///
/// A device publishes at QoS 2, exactly once, as in the paper; there is no
/// QoS option. The model's QoS 0 and QoS 1 ablation rows are set in
/// [`ProvLightSimConfig::qos`](crate::sim::ProvLightSimConfig::qos).
///
/// Not `Copy` since the durability extension: [`CaptureConfig::spill_dir`]
/// owns a path. Clone it where the old code copied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureConfig {
    /// Grouping policy.
    pub group: GroupPolicy,
    /// Maximum publishes awaiting completion of their QoS 2 handshake.
    pub max_inflight: usize,
    /// Coalescing high-water mark: the transmitter drains every queued batch
    /// per wakeup and packs them into one envelope, cutting a new message
    /// once the pending records reach approximately this many bytes. A
    /// single batch is never split, so one envelope can overshoot by at most
    /// one batch. Must leave headroom under the 64 KiB UDP datagram limit.
    pub max_payload: usize,
    /// Disconnection buffer cap: encoded records held for replay while the
    /// broker is unreachable (paper §IV — capture continues during network
    /// disconnections). When exceeded, the *oldest* buffered envelope is
    /// evicted and its records counted in
    /// [`TransmitterStats::records_dropped`](crate::transmitter::TransmitterStats).
    pub buffer_max_records: usize,
    /// Companion byte cap on the disconnection buffer (payload bytes).
    pub buffer_max_bytes: usize,
    /// Delay before the second reconnection attempt; doubles per failed
    /// attempt up to [`CaptureConfig::reconnect_max_backoff`].
    pub reconnect_initial_backoff: Duration,
    /// Ceiling of the exponential reconnection backoff. The transmitter
    /// never gives up — an edge partition can outlast any fixed budget —
    /// it just retries at this cadence.
    pub reconnect_max_backoff: Duration,
    /// MQTT-SN keep-alive period: an idle transmitter pings the broker
    /// this often, which doubles as the disconnection detector when no
    /// publishes are failing.
    pub keep_alive: Duration,
    /// MQTT-SN retransmission timeout (spec `Tretry`).
    pub retry_timeout: Duration,
    /// MQTT-SN retransmission budget (spec `Nretry`); exhausted publishes
    /// move to the disconnection buffer instead of being lost.
    pub max_retries: u32,
    /// Directory for the spill-to-flash write-ahead log. When set, records
    /// evicted from the full in-RAM disconnection buffer spill to
    /// CRC-framed WAL segments instead of being dropped, replay drains
    /// disk-first in original order after reconnection, and a restarted
    /// process recovers every unsent spilled envelope
    /// ([`TransmitterStats::recovered_records`](crate::transmitter::TransmitterStats)).
    /// `None` (the default) keeps the RAM-only PR 3 behaviour.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Total on-disk cap for the spill WAL. When an outage outgrows even
    /// the flash budget, the *oldest segment* is evicted with exact drop
    /// accounting
    /// ([`TransmitterStats::wal_drops`](crate::transmitter::TransmitterStats)).
    pub spill_max_bytes: usize,
    /// WAL segment rotation size (smaller segments ⇒ finer-grained
    /// eviction and reclamation, more files).
    pub spill_segment_bytes: usize,
    /// Disk fault-injection hook for the spill WAL (chaos testing only);
    /// `None` in production.
    pub spill_fault: Option<SpillFault>,
    /// Datagram fault-injection hook for the transmitter's UDP link (chaos
    /// testing only); `None` in production. Installed *after* the initial
    /// connect + registration handshake, so a hostile plan cannot keep the
    /// transmitter from ever starting.
    pub datagram_fault: Option<LinkFault>,
}

/// Default coalescing high-water mark (bytes of pending records).
pub const DEFAULT_MAX_PAYLOAD: usize = 48 * 1024;

/// Default disconnection-buffer caps: enough for minutes of bursty capture
/// without threatening an edge device's memory budget.
pub const DEFAULT_BUFFER_MAX_RECORDS: usize = 65_536;
/// Byte companion to [`DEFAULT_BUFFER_MAX_RECORDS`].
pub const DEFAULT_BUFFER_MAX_BYTES: usize = 8 * 1024 * 1024;

/// Default spill-WAL disk cap: an order of magnitude beyond the RAM caps —
/// hours of outage on a Raspberry-class device — while staying well inside
/// an edge flash budget.
pub const DEFAULT_SPILL_MAX_BYTES: usize = 64 * 1024 * 1024;
/// Default spill-WAL segment rotation size.
pub const DEFAULT_SPILL_SEGMENT_BYTES: usize = 1024 * 1024;

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig {
            group: GroupPolicy::Immediate,
            max_inflight: 256,
            max_payload: DEFAULT_MAX_PAYLOAD,
            buffer_max_records: DEFAULT_BUFFER_MAX_RECORDS,
            buffer_max_bytes: DEFAULT_BUFFER_MAX_BYTES,
            reconnect_initial_backoff: Duration::from_millis(100),
            reconnect_max_backoff: Duration::from_secs(5),
            keep_alive: Duration::from_secs(60),
            retry_timeout: Duration::from_secs(10),
            max_retries: 5,
            spill_dir: None,
            spill_max_bytes: DEFAULT_SPILL_MAX_BYTES,
            spill_segment_bytes: DEFAULT_SPILL_SEGMENT_BYTES,
            spill_fault: None,
            datagram_fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_configuration() {
        let c = CaptureConfig::default();
        assert_eq!(c.group, GroupPolicy::Immediate);
        let model = crate::sim::ProvLightSimConfig::default();
        assert_eq!(model.qos, mqtt_sn::QoS::ExactlyOnce);
    }

    #[test]
    fn group_count_axis() {
        assert_eq!(GroupPolicy::from_group_count(0), GroupPolicy::Immediate);
        assert_eq!(
            GroupPolicy::from_group_count(50),
            GroupPolicy::Grouped { size: 50 }
        );
    }
}
