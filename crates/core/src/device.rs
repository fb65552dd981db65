//! The device end as one sans-io machine.
//!
//! A [`Device`] is everything a capturing device does between the capture
//! calls and the datagrams: it coalesces records into envelopes, keeps the
//! backlog, paces under congestion, reconnects with jittered exponential
//! back-off and replays in capture order. It owns no socket and reads no
//! clock: its inputs are capture commands, the datagrams its driver reads
//! ([`Device::hear`]), the outcome of each read and `now`; its outputs are
//! the datagrams it hands to a sink, a redial when a reconnect attempt
//! falls due ([`Device::redial_due`]), and what its driver waits for next
//! ([`Device::next_deadline`], [`Device::awaits_gateway`]). The transmitter
//! ([`crate::transmitter`]) drives one with a socket, a channel and a
//! clock; a test drives one on virtual time against a sans-io gateway.
//!
//! ## Coalescing and buffer reuse
//!
//! The records of every queued capture command pack into as few envelopes
//! as possible, cutting a new message once the pending records reach
//! [`CaptureConfig::max_payload`] approximate bytes (a batch is never split
//! across envelopes). Under bursty capture this collapses hundreds of
//! queued single-record messages into a handful of
//! string-table-deduplicated, compressed envelopes. Payload buffers come
//! back from the MQTT-SN client once a publish completes, so the steady
//! state allocates nothing per record beyond what the client spends.
//!
//! ## Disconnection resilience
//!
//! Capture continues while the broker is unreachable (paper §IV — the
//! third headline design point). A transport error moves encoded envelopes
//! into the backlog and schedules a reconnect attempt with jittered
//! exponential back-off. The backlog holds RAM under two caps; what
//! overflows them moves oldest first to the flash spill log when
//! [`CaptureConfig::spill_dir`] is set, and is dropped with exact
//! accounting when it is not. An attempt sends a CONNECT; the link is up
//! once the MQTT-SN session has resumed — topic re-registration, DUP
//! retransmission of in-flight publishes — and the backlog then replays in
//! original order. An attempt that gets no CONNACK and no resumption in
//! [`RECONNECT_ATTEMPT_TIMEOUT`] fails, and the back-off doubles.
//!
//! The first connection is the first attempt: a new device is down with
//! its first attempt due at once, and its first CONNECT registers its
//! topic at the CONNACK as every later one re-registers it. A device that
//! boots before its gateway, or whose gateway refuses it, captures all the
//! same, into the backlog, and keeps trying; the first link-up is not
//! counted as a reconnect.
//!
//! Each outcome of a publish travels one way. A completed handshake
//! settles it. A publish that fails (retries exhausted) or is rejected
//! leaves the client's window with its payload in the event, unless its
//! PUBREC proved the gateway holds it, and the payload goes back to the
//! backlog's front in publish order. A congestion rejection then paces the
//! link; a retry exhaustion, or a rejection from a gateway that no longer
//! knows the device (`InvalidTopicId`: it restarted without its state),
//! marks the link down, and the one way back is the reconnect above, whose
//! CONNECT opens the session the gateway forgot. [`TransmitterStats`]
//! surfaces the whole story (reconnects, buffered high-water mark, drops,
//! publish failures), mirroring `ProvenanceManager::server_stats()` on the
//! capture side.
//!
//! A full in-flight window drops and reorders nothing: the envelope that
//! finds it full waits at the backlog's front, where no cap evicts it, and
//! the device takes no capture ([`Device::takes_capture`]) until an
//! acknowledgement frees a slot, so the capture channel back-pressures the
//! workflow as a bounded queue should.

use crate::config::CaptureConfig;
use mqtt_sn::hold::ToGateway;
use mqtt_sn::session::Session;
use mqtt_sn::{ClientConfig, ClientEvent, ClientState, NetError, QoS, ReturnCode};
use parking_lot::Mutex;
use prov_codec::frame::Envelope;
use prov_model::Record;
use prov_wal::{Wal, WalConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Monotonic time in nanoseconds, on the clock of the device's session.
pub type Nanos = mqtt_sn::client::Nanos;

/// Where a device's datagrams go: each to its gateway.
pub type Sink<'a> = ToGateway<'a, io::Error>;

/// Hard ceiling (in `Record::approx_size` bytes) on one coalesced envelope,
/// regardless of `max_payload`: approx bytes comfortably over-estimate wire
/// bytes, so staying under this keeps the datagram below the 65507-byte UDP
/// limit even before compression. A single batch larger than this is not
/// split here; `Device::send_records` splits it if its envelope is too
/// large.
const MAX_COALESCE_BYTES: usize = 60_000;

/// Largest payload handed to one MQTT-SN publish. Leaves room for the
/// packet header under the 65507-byte UDP datagram limit.
const MAX_DATAGRAM_PAYLOAD: usize = 65_000;

/// How long a reconnect attempt waits for its CONNACK and its session's
/// resumption before it fails.
pub const RECONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(1);

/// Jitter fraction on the reconnect back-off: after a gateway restart every
/// disconnected device's timer would otherwise fire in lockstep (the
/// reconnect stampede).
pub(crate) const RECONNECT_JITTER: f64 = 0.25;

/// Spreads `backoff` uniformly over `[(1 − j)·b, (1 + j)·b]`, `j` being
/// [`RECONNECT_JITTER`].
pub(crate) fn jitter_backoff(backoff: Duration, rng: &mut impl Rng) -> Duration {
    let unit: f64 = rng.gen(); // [0, 1)
    let factor = 1.0 - RECONNECT_JITTER + 2.0 * RECONNECT_JITTER * unit;
    Duration::from_nanos((backoff.as_nanos() as f64 * factor) as u64)
}

/// Envelope spacing under *soft* congestion (broker advisory level 1): the
/// broker asked for headroom, so sends trickle out instead of bursting and
/// new records coalesce more deeply behind the queue.
const SOFT_PACE: Duration = Duration::from_millis(5);

/// Hold-off under *hard* congestion (level 2, or a PUBACK `Congestion`
/// rejection): everything queues, with one probe envelope per interval so
/// the device notices drain even if the broker's falling advisory is lost.
const HARD_PACE: Duration = Duration::from_millis(50);

/// `d` in nanoseconds.
fn nanos(d: Duration) -> Nanos {
    d.as_nanos() as Nanos
}

/// Capture-side transport statistics — the client mirror of
/// `ProvenanceManager::server_stats()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransmitterStats {
    /// Whether the device currently believes the broker is reachable.
    pub connected: bool,
    /// Successful reconnections after a detected disconnection.
    pub reconnects: u64,
    /// Publishes that failed (socket-level send failures, retry
    /// exhaustion, broker rejections).
    pub publish_failures: u64,
    /// Records currently parked in the disconnection buffer.
    pub buffered_records: u64,
    /// Payload bytes currently parked in the disconnection buffer.
    pub buffered_bytes: u64,
    /// Most records the disconnection buffer ever held at once.
    pub buffered_high_water: u64,
    /// Records lost to buffer eviction, unsendable envelopes, or shutdown
    /// with the broker still unreachable.
    pub records_dropped: u64,
    /// Records replayed out of the buffer after a reconnection.
    pub records_replayed: u64,
    /// Records spilled from the full RAM buffer to the flash WAL
    /// (cumulative, this process).
    pub spilled_records: u64,
    /// Payload bytes spilled to the flash WAL (cumulative, this process).
    pub spill_bytes: u64,
    /// Records recovered from the WAL at startup — a previous process's
    /// unsent spill, replayed once connected.
    pub recovered_records: u64,
    /// Records the WAL itself dropped (disk-cap oldest-segment eviction,
    /// unrecoverable corruption). A subset of `records_dropped`.
    pub wal_drops: u64,
    /// Congestion signals received from the broker: CONGESTION advisories
    /// plus PUBACK `Congestion` rejections.
    pub congestion_signals: u64,
    /// Envelopes the adaptive pacing window deferred to the buffer instead
    /// of putting on the wire while the broker reported congestion.
    pub paced_sends: u64,
    /// Low-priority (begin-edge) records shed under sustained hard
    /// congestion. A subset of `records_dropped`.
    pub records_shed: u64,
    /// Times the transmitter's loop came back from its blocking wait: the
    /// command channel, or the socket while the gateway owed a reply. What
    /// the device's CPU is woken for — two per message at a steady rate,
    /// none while there is nothing to send and nothing to hear.
    pub wakeups: u64,
}

/// A counted FIFO of encoded envelopes, `(payload, records)`. It holds no
/// policy: [`Backlog`] decides what enters, where, and what leaves.
#[derive(Debug, Default)]
pub(crate) struct Fifo {
    queue: VecDeque<(Vec<u8>, usize)>,
    pub(crate) records: usize,
    pub(crate) bytes: usize,
}

impl Fifo {
    fn push_back(&mut self, payload: Vec<u8>, records: usize) {
        self.records += records;
        self.bytes += payload.len();
        self.queue.push_back((payload, records));
    }

    fn push_front(&mut self, payload: Vec<u8>, records: usize) {
        self.records += records;
        self.bytes += payload.len();
        self.queue.push_front((payload, records));
    }

    fn pop_front(&mut self) -> Option<(Vec<u8>, usize)> {
        let (payload, records) = self.queue.pop_front()?;
        self.records -= records;
        self.bytes -= payload.len();
        Some((payload, records))
    }

    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// The envelopes the device holds back while the broker is unreachable or
/// the pacing window or the in-flight window is shut, replayed in capture
/// order.
///
/// Oldest first: envelopes put back at the front (a replay that failed
/// mid-way, in-flight publishes the client handed back, an envelope that
/// found the window full), then the spill log when
/// [`CaptureConfig::spill_dir`] is set, then RAM. New envelopes enter RAM's
/// tail under two caps, `buffer_max_records` and `buffer_max_bytes`.
/// Overflow leaves RAM oldest first (edge provenance favours the recent
/// tail of a run over the head an operator can often re-derive) for the
/// log's tail, which keeps the order since everything in the log is older,
/// or, without a log, for a counted drop. An envelope over a cap by itself
/// never enters RAM. Every record lost on the way is counted once, and
/// [`Backlog::drain_drops`] hands the count to the device.
pub(crate) struct Backlog {
    front: Fifo,
    wal: Option<Wal>,
    pub(crate) ram: Fifo,
    max_records: usize,
    max_bytes: usize,
    /// Drops the WAL's own counter does not see: RAM overflow without a
    /// log, and appends the disk refused.
    drops: u64,
    /// Portion of `wal.dropped_records()` already handed to the device.
    wal_drops_accounted: u64,
}

impl Backlog {
    /// Builds the backlog, opening (and recovering) the WAL when configured.
    pub(crate) fn new(config: &CaptureConfig) -> io::Result<Backlog> {
        let wal = match &config.spill_dir {
            Some(dir) => Some(Wal::open(WalConfig {
                dir: dir.clone(),
                segment_max_bytes: config.spill_segment_bytes.max(1) as u64,
                max_total_bytes: config.spill_max_bytes.max(1) as u64,
                sync_on_append: false,
                fault: config.spill_fault.as_ref().map(|f| f.0.clone()),
            })?),
            None => None,
        };
        Ok(Backlog {
            front: Fifo::default(),
            wal,
            ram: Fifo::default(),
            max_records: config.buffer_max_records.max(1),
            max_bytes: config.buffer_max_bytes.max(1),
            drops: 0,
            wal_drops_accounted: 0,
        })
    }

    /// Appends a new (newest) envelope to RAM, moving RAM's oldest
    /// envelopes out until both caps hold.
    pub(crate) fn push_back(&mut self, payload: Vec<u8>, records: usize) {
        if records > self.max_records || payload.len() > self.max_bytes {
            // It can never live in RAM. With a log, everything in RAM is
            // older and must reach it first; without one, the residents
            // stay, since no eviction could make room.
            if self.wal.is_some() {
                while let Some((p, n)) = self.ram.pop_front() {
                    self.spill(&p, n);
                }
            }
            self.spill(&payload, records);
            return;
        }
        while self.ram.records + records > self.max_records
            || self.ram.bytes + payload.len() > self.max_bytes
        {
            let Some((p, n)) = self.ram.pop_front() else {
                break;
            };
            self.spill(&p, n);
        }
        self.ram.push_back(payload, records);
    }

    /// Puts an envelope back at the very front. Never evicts: the front
    /// may overshoot RAM's caps by what is in flight.
    pub(crate) fn push_front(&mut self, payload: Vec<u8>, records: usize) {
        self.front.push_front(payload, records);
    }

    /// Takes the oldest envelope: the front, then the log, then RAM.
    pub(crate) fn pop_front(&mut self) -> Option<(Vec<u8>, usize)> {
        if let Some(envelope) = self.front.pop_front() {
            return Some(envelope);
        }
        if let Some(wal) = self.wal.as_mut() {
            match wal.pop_front() {
                Ok(Some(frame)) => return Some(frame),
                Ok(None) => {}
                // Transient I/O trouble establishing the reader (fd
                // pressure, a momentary filesystem hiccup): the frames are
                // still durable on disk, so end this replay round and let
                // the next pass retry. Never fall through to RAM — that
                // would reorder newer envelopes ahead of the log.
                // (Corruption inside a segment is handled by the WAL
                // itself: the segment is skipped with its records counted
                // in `dropped_records`.)
                Err(_) => return None,
            }
        }
        self.ram.pop_front()
    }

    /// The log's tail, or a counted drop when there is no log or the disk
    /// refuses the append.
    fn spill(&mut self, payload: &[u8], records: usize) {
        let logged = self
            .wal
            .as_mut()
            .is_some_and(|w| w.append(payload, records).is_ok());
        if !logged {
            self.drops += records as u64;
        }
    }

    /// Drops found since the last call (RAM overflow without a log, the
    /// log's cap evictions and I/O losses), for the device to fold into
    /// `records_dropped` exactly once.
    pub(crate) fn drain_drops(&mut self) -> u64 {
        let wal_total = self.wal_drops();
        let delta = wal_total - self.wal_drops_accounted;
        self.wal_drops_accounted = wal_total;
        delta + std::mem::take(&mut self.drops)
    }

    /// At shutdown, spills the front and RAM: with a log they persist for
    /// the next process to recover, without one they are counted dropped.
    /// The front reaches the log's tail although it is the oldest, so when
    /// the log already holds frames (in-flight publishes handed back while
    /// newer capture was spilling, or a replay interrupted mid-way) the
    /// next process replays the front after them. The reordering is
    /// bounded by the in-flight window; delivery still happens once.
    pub(crate) fn close(&mut self) {
        while let Some((p, n)) = self.front.pop_front() {
            self.spill(&p, n);
        }
        while let Some((p, n)) = self.ram.pop_front() {
            self.spill(&p, n);
        }
        if let Some(wal) = self.wal.as_mut() {
            let _ = wal.sync();
        }
    }

    pub(crate) fn records(&self) -> usize {
        self.front.records
            + self.wal.as_ref().map_or(0, |w| w.records() as usize)
            + self.ram.records
    }

    pub(crate) fn bytes(&self) -> usize {
        self.front.bytes + self.wal.as_ref().map_or(0, |w| w.bytes() as usize) + self.ram.bytes
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.front.is_empty() && self.wal.as_ref().is_none_or(Wal::is_empty) && self.ram.is_empty()
    }

    /// Records found durable on disk at startup.
    fn recovered_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::recovered_records)
    }

    /// Cumulative records spilled to flash this process.
    fn spilled_records(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::appended_records)
    }

    /// Cumulative payload bytes spilled to flash this process.
    fn spilled_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::appended_bytes)
    }

    /// Cumulative records the WAL dropped (cap eviction, corruption).
    fn wal_drops(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::dropped_records)
    }
}

/// Pending coalesced records plus their approximate encoded size.
struct Coalescer {
    records: Vec<Record>,
    approx_bytes: usize,
    max_payload: usize,
}

impl Coalescer {
    fn new(max_payload: usize) -> Self {
        Coalescer {
            records: Vec::new(),
            approx_bytes: 0,
            max_payload: max_payload.max(1),
        }
    }

    // lint: zero-alloc-begin
    fn push(&mut self, record: Record) {
        self.approx_bytes += record.approx_size();
        self.records.push(record);
    }

    fn absorb(&mut self, batch: &mut Vec<Record>) {
        for r in batch.drain(..) {
            self.push(r);
        }
    }
    // lint: zero-alloc-end

    /// True when absorbing `incoming` more approx bytes would push the
    /// envelope past the hard wire-size ceiling; the pending records must be
    /// cut into an envelope first.
    fn would_overflow(&self, incoming: usize) -> bool {
        !self.is_empty() && self.approx_bytes + incoming > MAX_COALESCE_BYTES
    }

    /// True once the pending records reached the high-water mark and should
    /// be cut into an envelope before absorbing more.
    fn full(&self) -> bool {
        self.approx_bytes >= self.max_payload
    }

    fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn clear(&mut self) {
        self.records.clear();
        self.approx_bytes = 0;
    }
}

/// Low-priority records under graceful degradation: begin edges announce
/// work an operator can usually re-derive, while end edges carry completion
/// status and outputs — the provenance that cannot be reconstructed.
pub(crate) fn is_low_priority(record: &Record) -> bool {
    matches!(
        record,
        Record::WorkflowBegin { .. } | Record::TaskBegin { .. }
    )
}

/// Sheds begin-edge records from `batch` with exact accounting (counted in
/// both `records_shed` and `records_dropped`). Called only while
/// `Device::shedding` holds.
pub(crate) fn shed_low_priority(stats: &mut TransmitterStats, batch: &mut Vec<Record>) {
    let before = batch.len();
    batch.retain(|r| !is_low_priority(r));
    let shed = (before - batch.len()) as u64;
    stats.records_shed += shed;
    stats.records_dropped += shed;
}

/// Where the link to the gateway stands. A device starts `Down`, its first
/// attempt due at once: the first connection is the first reconnect
/// attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    /// Connected: envelopes go out as the windows allow.
    Up,
    /// Not connected; the next attempt falls due at `retry_at`.
    Down { retry_at: Nanos },
    /// A CONNECT is out on a new socket; the attempt fails at
    /// `gives_up_at` unless the session has resumed by then.
    Dialing { gives_up_at: Nanos },
}

/// The device end: see the module documentation. No method ever fails —
/// every transport error degrades to buffering and a scheduled reconnect
/// attempt.
pub struct Device {
    session: Session,
    topic: String,
    /// The id the gateway gave `topic`, read from the client each time the
    /// link comes up.
    topic_id: u16,
    config: CaptureConfig,
    link: Link,
    /// Whether the link has been up: a link that comes up again is a
    /// reconnect, the first one is not.
    was_up: bool,
    /// The back-off after the attempt under way, or the next one, fails.
    backoff: Duration,
    pub(crate) buffer: Backlog,
    pending: Coalescer,
    /// Record count per in-flight message id, in publish order as the
    /// client's send window holds them, so payloads the client hands back
    /// keep accurate drop/replay accounting and return in publish order.
    inflight_records: VecDeque<(u16, usize)>,
    /// Back-off jitter source (see [`RECONNECT_JITTER`]).
    rng: StdRng,
    stats: TransmitterStats,
    /// The copy of `stats` a handle reads while the device is driven
    /// elsewhere, brought up to date at every gauge sync.
    published: Arc<Mutex<TransmitterStats>>,
    /// Latest broker-advertised congestion level (0 clear / 1 soft /
    /// 2 hard).
    congestion_level: u8,
    /// No envelope leaves before this time while congested — the adaptive
    /// pacing window. New sends queue behind the backlog instead, which
    /// deepens coalescing and lets replay meter the drain.
    pace_until: Nanos,
}

impl Device {
    /// The device of a fresh `session` configured with [`client_config`],
    /// publishing to `topic`, opening (and recovering) the spill log when
    /// `config` names one — the one step that can fail. The link is down,
    /// its first attempt due at once ([`Device::redial_due`]). Back-off
    /// jitter is drawn from an RNG seeded with `seed`.
    pub fn new(
        session: Session,
        topic: String,
        mut config: CaptureConfig,
        seed: u64,
    ) -> io::Result<Device> {
        let buffer = Backlog::new(&config)?;
        // A back-off of zero would redial in a hot loop.
        let least = Duration::from_millis(1);
        config.reconnect_initial_backoff = config.reconnect_initial_backoff.max(least);
        config.reconnect_max_backoff = config.reconnect_max_backoff.max(least);
        let stats = TransmitterStats::default();
        let mut device = Device {
            session,
            topic,
            topic_id: 0,
            link: Link::Down { retry_at: 0 },
            was_up: false,
            backoff: config.reconnect_initial_backoff,
            buffer,
            pending: Coalescer::new(config.max_payload),
            inflight_records: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            stats,
            published: Arc::new(Mutex::new(stats)),
            congestion_level: 0,
            pace_until: 0,
            config,
        };
        device.sync_gauges();
        Ok(device)
    }

    /// The transport statistics.
    pub fn stats(&self) -> TransmitterStats {
        self.stats
    }

    /// Where the statistics are published, for a handle that reads them
    /// while the device is driven elsewhere.
    pub(crate) fn published_stats(&self) -> Arc<Mutex<TransmitterStats>> {
        Arc::clone(&self.published)
    }

    /// Counts one return of the driver from its wait.
    pub fn count_wakeup(&mut self) {
        self.stats.wakeups += 1;
    }

    /// Takes a ready batch from the grouper: its records coalesce with
    /// what is pending, which leaves as an envelope first if the batch
    /// would push it past the datagram ceiling, and once it reaches
    /// `max_payload`.
    pub fn capture(&mut self, batch: &mut Vec<Record>, now: Nanos, send: Sink) {
        if self.shedding() {
            shed_low_priority(&mut self.stats, batch);
        }
        let incoming: usize = batch.iter().map(Record::approx_size).sum();
        if self.pending.would_overflow(incoming) {
            self.send_pending(now, send);
        }
        self.pending.absorb(batch);
        if self.pending.full() {
            self.send_pending(now, send);
        }
    }

    /// Takes a single passthrough record, as [`Device::capture`] takes a
    /// batch of one.
    pub fn capture_one(&mut self, record: Record, now: Nanos, send: Sink) {
        if self.shedding() && is_low_priority(&record) {
            self.stats.records_shed += 1;
            self.stats.records_dropped += 1;
        } else {
            if self.pending.would_overflow(record.approx_size()) {
                self.send_pending(now, send);
            }
            self.pending.push(record);
        }
        if self.pending.full() {
            self.send_pending(now, send);
        }
    }

    /// Cuts what is pending into an envelope and sends it: the end of a
    /// burst of capture commands.
    pub fn cut(&mut self, now: Nanos, send: Sink) {
        self.send_pending(now, send);
    }

    /// Whether the device takes capture commands: not while the link is up
    /// and the in-flight window is full. The commands then wait in their
    /// channel, whose bound back-pressures capture.
    pub fn takes_capture(&self) -> bool {
        self.link != Link::Up || self.session.client.can_publish()
    }

    /// Takes a datagram read off the socket at `now`; [`Device::poll`]
    /// ends the read.
    pub fn hear(&mut self, datagram: &[u8], now: Nanos) {
        self.session.hear(datagram, now);
    }

    /// Advances the device to `now` after a read of its socket that ended
    /// in `read` — `Ok(())` when no read was made: what the datagrams
    /// handed to [`Device::hear`] made the session answer leaves, the
    /// timers run, events fold in, a reconnect attempt succeeds, is
    /// refused or runs out of time, and the backlog replays as far as the
    /// link and the windows allow. A link comes up at the end of a poll
    /// and replays from the next, so its driver sees it up
    /// ([`Device::is_up`]) before anything is sent on it.
    pub fn poll(&mut self, read: io::Result<()>, now: Nanos, send: Sink) {
        // Nothing is read while the link is down, and its timers wait for
        // the next link.
        let polled = match self.link {
            Link::Down { .. } => Ok(()),
            _ => self.session.poll(now, send),
        };
        if let Err(e) = read.and(polled) {
            self.trouble(e, now);
        }
        self.absorb_events(now);
        if let Link::Dialing { gives_up_at } = self.link {
            let client = &self.session.client;
            if client.state() == ClientState::Connected && client.resume_complete() {
                // The session has resumed; the topic's id is read afresh,
                // for the broker can hand out a different one after a
                // restart. A gateway that refused the topic refuses the
                // device, for good as a refused CONNECT does.
                match client.topic_id(&self.topic) {
                    Some(id) => self.came_up(id, now),
                    None => self.attempt_failed(false, now),
                }
            } else if now >= gives_up_at {
                // No CONNACK or no resumption in time: a partition or a
                // slow link, worth the usual doubling.
                self.attempt_failed(true, now);
            }
        } else if self.link == Link::Up && !self.buffer.is_empty() {
            self.replay(now, send);
        }
        self.sync_gauges();
    }

    /// Before a read that waits on the socket: asks the gateway for what it
    /// may be holding for this device, and sends the held PUBRELs alone, so
    /// nobody waits on an acknowledgement that is held (see
    /// [`DeviceHold::ask`](mqtt_sn::hold::DeviceHold::ask)).
    pub fn ask(&mut self, now: Nanos, send: Sink) {
        let hold = &mut self.session.hold;
        let asked = hold.ask(&self.session.client, send);
        let asked = asked.and_then(|()| hold.release(send));
        if let Err(e) = asked {
            self.trouble(e, now);
        }
    }

    /// Whether [`Device::ask`] would ask the gateway for what it may hold.
    /// The driver then first takes what already sits in its socket: the
    /// PUBRELs that answer it then make the ask, and save a datagram.
    pub fn would_ask(&self) -> bool {
        self.session.hold.would_ask(&self.session.client)
    }

    /// Whether the socket is to be drained at `now`, once per hold of the
    /// gateway's, before [`Device::poll`].
    pub fn drain_due(&mut self, now: Nanos) -> bool {
        !matches!(self.link, Link::Down { .. }) && self.session.hold.drain_due(now)
    }

    /// Whether an attempt to connect falls due at `now` — the first at
    /// once: the driver then puts a new socket under the link and reports
    /// it with [`Device::dialed`].
    pub fn redial_due(&self, now: Nanos) -> bool {
        matches!(self.link, Link::Down { retry_at } if now >= retry_at)
    }

    /// An attempt starts on the new socket `dialed` — an error when none
    /// could be had: the CONNECT leaves, and the link is up once the
    /// session has resumed with the device's topic registered, or the
    /// attempt fails [`RECONNECT_ATTEMPT_TIMEOUT`] from now. The first
    /// attempt is the first connection: until a CONNACK has accepted the
    /// device, its CONNECT asks for a clean session as [`client_config`]
    /// says, and every later one to continue the session
    /// ([`mqtt_sn::Client::reconnect`]).
    pub fn dialed(&mut self, dialed: io::Result<()>, now: Nanos, send: Sink) {
        self.link = Link::Dialing {
            gives_up_at: now.saturating_add(nanos(RECONNECT_ATTEMPT_TIMEOUT)),
        };
        // Tracked again in case a gateway refused it: its registration
        // goes with each CONNECT's resumption.
        self.session.client.track(&self.topic);
        let started = dialed.and_then(|()| self.session.reconnect(now, send));
        if let Err(e) = started {
            self.trouble(e, now);
        }
        self.sync_gauges();
    }

    /// Whether the next thing to happen will arrive on the socket: the
    /// gateway owes a reply (`DeviceHold::reply_expected`), or it has
    /// reported congestion and will report, unasked, when that clears, or a
    /// backlog is waiting on the pacing window or the in-flight window, or
    /// a reconnect attempt waits for its CONNACK. Then the driver waits
    /// there, at the read time-out's cadence, after [`Device::ask`]. The
    /// acknowledgement of a PUBLISH that did not ask for it is no reason:
    /// the gateway holds it, and the drain at the read deadline
    /// ([`Device::drain_due`]) reads it, once per hold.
    pub fn awaits_gateway(&self) -> bool {
        match self.link {
            Link::Up => {
                self.session.hold.reply_expected(&self.session.client)
                    || self.congestion_level > 0
                    || !self.buffer.is_empty()
                    || !self.session.client.can_publish()
            }
            Link::Dialing { .. } => true,
            Link::Down { .. } => false,
        }
    }

    /// Otherwise nothing happens before this time unless a capture command
    /// makes it: the next reconnect attempt while the link is down, else
    /// the session's earliest timer (keep-alive, the release of a held
    /// PUBREL, the read deadline or the ask for what the gateway holds)
    /// and the end of a reconnect attempt under way. `None`: nothing is
    /// scheduled at all.
    pub fn next_deadline(&self) -> Option<Nanos> {
        let timers = self.session.next_deadline();
        match self.link {
            Link::Up => timers,
            Link::Down { retry_at } => Some(retry_at),
            Link::Dialing { gives_up_at } => {
                Some(timers.map_or(gives_up_at, |t| t.min(gives_up_at)))
            }
        }
    }

    /// Whether the link is down and waits for its next attempt.
    pub fn is_down(&self) -> bool {
        matches!(self.link, Link::Down { .. })
    }

    /// Whether the link is up.
    pub fn is_up(&self) -> bool {
        self.link == Link::Up
    }

    /// True once nothing is outstanding: connected, nothing pending or
    /// held back, no QoS 2 handshake in flight.
    pub fn drained(&self) -> bool {
        self.link == Link::Up
            && self.pending.is_empty()
            && self.buffer.is_empty()
            && self.session.client.inflight_len() == 0
    }

    /// Final accounting when the device stops with data still unsent, then
    /// a best-effort DISCONNECT. Unacknowledged in-flight envelopes count
    /// as lost: unconfirmed delivery is reported as loss rather than
    /// silently presumed successful. The backlog closes
    /// (`Backlog::close`): with a spill WAL its records persist for the
    /// next process, without one they reach the drop count.
    pub fn close(&mut self, now: Nanos, send: Sink) {
        self.absorb_events(now);
        let unconfirmed: usize = self.inflight_records.iter().map(|&(_, n)| n).sum();
        self.stats.records_dropped += unconfirmed as u64;
        self.buffer.close();
        self.sync_gauges();
        let outputs = self.session.client.disconnect(now);
        let _ = self.session.dispatch(outputs, now, send);
    }

    /// Counts a broker congestion signal and folds it into the pacing
    /// state.
    pub(crate) fn note_congestion(&mut self, level: u8, now: Nanos) {
        self.stats.congestion_signals += 1;
        self.congestion_level = level;
        if level == 0 {
            self.pace_until = now;
        }
    }

    /// True while the pacing window forbids putting an envelope on the
    /// wire.
    pub(crate) fn paced(&self, now: Nanos) -> bool {
        self.congestion_level > 0 && now < self.pace_until
    }

    /// Re-arms the pacing window after a send (or a rejection) under
    /// congestion; a no-op at level 0.
    pub(crate) fn arm_pace(&mut self, now: Nanos) {
        if self.congestion_level > 0 {
            let spacing = if self.congestion_level >= 2 {
                HARD_PACE
            } else {
                SOFT_PACE
            };
            self.pace_until = now.saturating_add(nanos(spacing));
        }
    }

    /// True when begin-edge records should be shed instead of queued: hard
    /// congestion has persisted long enough to fill half the RAM buffer, so
    /// the alternative to shedding is evicting arbitrary envelopes once the
    /// cap is hit. Only RAM counts: records in the spill log (recovered
    /// from a previous process, say) or put back at the front are no
    /// pressure on it. End-edge records — task completion and outputs, the
    /// part an operator cannot re-derive — always keep their place in the
    /// queue.
    pub(crate) fn shedding(&self) -> bool {
        self.congestion_level >= 2 && self.buffer.ram.records >= self.config.buffer_max_records / 2
    }

    /// A transport error: an up link is lost, and a reconnect attempt
    /// fails — for good reason or not, as [`NetError::is_transient`] says.
    fn trouble(&mut self, error: io::Error, now: Nanos) {
        match self.link {
            Link::Up => self.lost(now),
            Link::Dialing { .. } => self.attempt_failed(NetError::Io(error).is_transient(), now),
            Link::Down { .. } => {}
        }
    }

    /// The session has resumed with the device's topic registered as
    /// `topic_id`: the link is up on a clean congestion slate — the broker
    /// (possibly a different incarnation) will signal again if it is still
    /// overloaded. Only a link that was up before counts as a reconnect.
    fn came_up(&mut self, topic_id: u16, now: Nanos) {
        self.link = Link::Up;
        self.topic_id = topic_id;
        self.congestion_level = 0;
        self.pace_until = now;
        self.stats.reconnects += u64::from(self.was_up);
        self.was_up = true;
        self.backoff = self.config.reconnect_initial_backoff;
    }

    /// The link is lost: the first attempt falls due an initial back-off
    /// from now.
    fn lost(&mut self, now: Nanos) {
        if self.link == Link::Up {
            self.backoff = self.config.reconnect_initial_backoff;
            self.link = Link::Down {
                retry_at: now.saturating_add(nanos(jitter_backoff(self.backoff, &mut self.rng))),
            };
        }
    }

    /// The attempt under way failed: the next falls due after the jittered
    /// back-off, which doubles for a `transient` failure and goes straight
    /// to its ceiling for any other — an operator fixing the broker should
    /// not have to restart every edge device, so the device keeps trying.
    fn attempt_failed(&mut self, transient: bool, now: Nanos) {
        if !matches!(self.link, Link::Dialing { .. }) {
            return;
        }
        let cap = self.config.reconnect_max_backoff;
        self.link = Link::Down {
            retry_at: now.saturating_add(nanos(jitter_backoff(self.backoff, &mut self.rng))),
        };
        self.backoff = if transient {
            (self.backoff * 2).min(cap)
        } else {
            cap
        };
    }

    /// Brings the buffer gauges, the spill log's counts and the
    /// connection state up to date,
    /// folding in any drops the buffer discovered since the last sync, and
    /// publishes the statistics.
    fn sync_gauges(&mut self) {
        let s = &mut self.stats;
        s.records_dropped += self.buffer.drain_drops();
        s.connected = self.link == Link::Up;
        s.buffered_records = self.buffer.records() as u64;
        s.buffered_bytes = self.buffer.bytes() as u64;
        s.buffered_high_water = s.buffered_high_water.max(s.buffered_records);
        s.spilled_records = self.buffer.spilled_records();
        s.spill_bytes = self.buffer.spilled_bytes();
        s.wal_drops = self.buffer.wal_drops();
        s.recovered_records = self.buffer.recovered_records();
        *self.published.lock() = *s;
    }

    /// Consumes queued session events in one pass. Each message that left
    /// the client's window settles once: at once, or, when its event hands
    /// its payload back, as that payload returns to the backlog's front
    /// (`Device::put_back`): it is older than anything buffered since.
    fn absorb_events(&mut self, now: Nanos) {
        let mut back: Vec<(u16, Vec<u8>)> = Vec::new();
        while let Some(event) = self.session.events.pop_front() {
            let (msg_id, payload) = match event {
                ClientEvent::PublishDone { msg_id } => (msg_id, None),
                ClientEvent::PublishRejected {
                    msg_id,
                    code: ReturnCode::Congestion,
                    payload,
                } => {
                    // Hard backpressure: the broker refused the publish to
                    // shed load; it goes back for paced replay.
                    self.note_congestion(2, now);
                    self.arm_pace(now);
                    (msg_id, payload)
                }
                ClientEvent::PublishFailed { msg_id, payload }
                | ClientEvent::PublishRejected {
                    msg_id, payload, ..
                } => {
                    // Retries exhausted, or a gateway that no longer knows
                    // our session (it restarted without its state): the way
                    // back is a reconnect, whose CONNECT opens a session.
                    self.stats.publish_failures += 1;
                    self.lost(now);
                    (msg_id, payload)
                }
                ClientEvent::Congestion { level } => {
                    self.note_congestion(level, now);
                    continue;
                }
                ClientEvent::PingTimeout | ClientEvent::Disconnected => {
                    self.lost(now);
                    continue;
                }
                // A refusal is for good unless the broker is only
                // congested.
                ClientEvent::ConnectFailed(code) => {
                    self.attempt_failed(code == ReturnCode::Congestion, now);
                    continue;
                }
                _ => continue,
            };
            match payload {
                Some(payload) => back.push((msg_id, payload)),
                None => self.settle(msg_id),
            }
        }
        if !back.is_empty() {
            self.put_back(back);
        }
    }

    /// Drops the accounting entry of a message that left the client's
    /// window. Messages mostly settle in publish order, so the search ends
    /// at the front.
    fn settle(&mut self, msg_id: u16) {
        if let Some(at) = self
            .inflight_records
            .iter()
            .position(|&(id, _)| id == msg_id)
        {
            self.inflight_records.remove(at);
        }
    }

    /// Settles the messages whose payloads the client handed back and puts
    /// each payload at the backlog's front with its record count, newest
    /// first, so the front ends in publish order.
    fn put_back(&mut self, mut back: Vec<(u16, Vec<u8>)>) {
        for at in (0..self.inflight_records.len()).rev() {
            let (id, records) = self.inflight_records[at];
            if let Some(i) = back.iter().position(|&(msg_id, _)| msg_id == id) {
                let (_, payload) = back.swap_remove(i);
                self.inflight_records.remove(at);
                self.buffer.push_front(payload, records);
            }
        }
    }

    /// Replays buffered envelopes in original order until the buffer
    /// drains, the pacing window or the in-flight window closes, or the
    /// link fails again (the failed head returns to the front).
    fn replay(&mut self, now: Nanos, send: Sink) {
        while self.link == Link::Up && !self.paced(now) && self.session.client.can_publish() {
            let Some((payload, records)) = self.buffer.pop_front() else {
                return;
            };
            if !self.send_payload(payload, records, true, now, send) {
                return;
            }
        }
    }

    /// Hands one encoded envelope to the session, holding it back in the
    /// buffer instead when the link is down (or goes down mid-send), when
    /// it would overtake a backlog or the pacing window is shut, and when
    /// the in-flight window is full. Returns `true` when the envelope was
    /// accepted by the state machine (on the wire or in flight), `false`
    /// when it went to the buffer.
    pub(crate) fn send_payload(
        &mut self,
        payload: Vec<u8>,
        records: usize,
        replaying: bool,
        now: Nanos,
        send: Sink,
    ) -> bool {
        // The state machine can learn of a teardown (broker DISCONNECT)
        // before the link does; publishing then would consume the payload
        // in the error path, losing the records the buffer exists to save.
        if self.session.client.state() != ClientState::Connected {
            self.lost(now);
        }
        // While a backlog exists, new envelopes must queue behind it —
        // publishing them directly would reorder the stream. The pacing
        // window routes new envelopes the same way, so congestion turns
        // into deeper coalescing instead of wire pressure.
        let up = self.link == Link::Up;
        if !up || (!replaying && (!self.buffer.is_empty() || self.paced(now))) {
            if up && !replaying && self.paced(now) {
                self.stats.paced_sends += 1;
            }
            self.buffer_payload(payload, records, replaying);
            return false;
        }
        // A full window: the envelope is the oldest held back, and waits
        // at the front, where no cap evicts it.
        if !self.session.client.can_publish() {
            self.buffer_payload(payload, records, true);
            return false;
        }
        match self
            .session
            .publish(self.topic_id, payload, QoS::ExactlyOnce, false, now, send)
        {
            Ok((msg_id, sent)) => {
                // On the wire, or safe in the in-flight window (which
                // retransmits on resume) — either way the envelope left
                // the buffer's responsibility.
                self.inflight_records.push_back((msg_id, records));
                if replaying {
                    self.stats.records_replayed += records as u64;
                }
                if sent.is_err() {
                    self.stats.publish_failures += 1;
                    self.lost(now);
                }
                // Meter the next envelope while the broker reports
                // congestion (no-op at level 0).
                self.arm_pace(now);
                true
            }
            Err(_) => {
                // Protocol refusal despite the guards above (in-flight
                // window and connection state both checked): the state
                // machine consumed the payload, so all we can do is
                // account the loss honestly.
                self.stats.publish_failures += 1;
                self.stats.records_dropped += records as u64;
                self.lost(now);
                false
            }
        }
    }

    fn buffer_payload(&mut self, payload: Vec<u8>, records: usize, front: bool) {
        if front {
            self.buffer.push_front(payload, records);
        } else {
            self.buffer.push_back(payload, records);
        }
        // Any drops (RAM or WAL eviction) surface through the gauge sync.
        self.sync_gauges();
    }

    /// Encodes `records` into one envelope (payload buffer recycled from the
    /// session when possible) and sends it. If the encoded form exceeds the
    /// datagram limit, the records are split in half and sent as separate
    /// envelopes: the coalescer bounds only what it merges and never splits
    /// one queued batch, so a large group of incompressible values can
    /// still arrive here whole.
    fn send_records(&mut self, records: &[Record], now: Nanos, send: Sink) {
        // lint: zero-alloc-begin
        if records.is_empty() {
            return;
        }
        let mut payload = self.session.client.take_spare_payload().unwrap_or_default();
        payload.clear();
        Envelope::encode_into(records, true, &mut payload);
        if payload.len() > MAX_DATAGRAM_PAYLOAD {
            self.session.client.reclaim_payload(payload);
            if records.len() > 1 {
                let mid = records.len() / 2;
                self.send_records(&records[..mid], now, send);
                self.send_records(&records[mid..], now, send);
                return;
            }
            // A single record whose encoding exceeds the datagram limit can
            // never be sent; drop it (with accounting) rather than letting
            // the doomed publish stall the device.
            self.stats.records_dropped += 1;
            return;
        }
        self.send_payload(payload, records.len(), false, now, send);
        // lint: zero-alloc-end
    }

    /// Sends the coalesced pending records (see `Device::send_records`) and
    /// resets the coalescer.
    fn send_pending(&mut self, now: Nanos, send: Sink) {
        // lint: zero-alloc-begin
        if self.pending.is_empty() {
            return;
        }
        // Split borrows: `send_records` needs the device mutably and the
        // records immutably, so move the records out for the call.
        let records = std::mem::take(&mut self.pending.records);
        self.send_records(&records, now, send);
        self.pending.records = records;
        self.pending.clear();
        // lint: zero-alloc-end
    }
}

/// How the session of a device capturing with `config` is configured.
pub fn client_config(client_id: String, config: &CaptureConfig) -> ClientConfig {
    ClientConfig {
        keep_alive: config.keep_alive,
        retry_timeout: config.retry_timeout,
        max_retries: config.max_retries,
        max_inflight: config.max_inflight.max(1),
        ..ClientConfig::new(client_id)
    }
}

/// The device on virtual time, against a sans-io gateway — a [`Broker`]
/// and its [`GatewayHold`] served the way the gateway's serve loop serves
/// them — with no socket and no sleep. [`Rig`] drives the device the way
/// the transmitter does. Several cases share their names with the
/// transmitter's real-socket tests, which they mirror.
///
/// [`Broker`]: mqtt_sn::Broker
/// [`GatewayHold`]: mqtt_sn::hold::GatewayHold
#[cfg(test)]
mod tests {
    use super::*;
    use mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs, BrokerStats};
    use mqtt_sn::hold::{GatewayHold, ACK_HOLD};
    use mqtt_sn::packet::{frames, Packet};
    use mqtt_sn::LocalSubscription;
    use prov_model::{DataRecord, Id, TaskRecord, TaskStatus};

    const MS: Nanos = 1_000_000;
    /// One way across the link.
    const LATENCY: Nanos = 50_000;
    /// The longest the gateway's serve loop, or a device's read, waits: the
    /// endpoint's read time-out.
    const WAKE: Nanos = 10 * MS;
    /// The device's address at the gateway.
    const DEV: u8 = 1;
    const TOPIC: &str = "provlight/test/device";

    fn record(i: u64, attrs: usize) -> Record {
        let mut d = DataRecord::new(i, 1u64);
        for a in 0..attrs {
            d = d.with_attr(format!("attr_{a}"), a as i64);
        }
        Record::TaskEnd {
            task: TaskRecord {
                id: Id::Num(i),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: i,
                status: TaskStatus::Finished,
            },
            outputs: vec![d],
        }
    }

    /// A gateway: one broker with a local subscription on everything, and
    /// its acknowledgement hold.
    struct Gateway {
        broker: Broker<u8>,
        hold: GatewayHold<u8>,
        out: BrokerOutputs<u8>,
        sub: LocalSubscription,
    }

    impl Gateway {
        fn new() -> Gateway {
            let mut broker = Broker::new(BrokerConfig::default());
            let sub = broker.subscribe_local("#").unwrap();
            Gateway {
                broker,
                hold: GatewayHold::default(),
                out: BrokerOutputs::new(),
                sub,
            }
        }

        /// One serve batch read at `now`; what leaves for the device.
        fn serve(&mut self, now: Nanos, batch: &[Vec<u8>], answers: &mut Vec<Vec<u8>>) {
            for datagram in batch {
                self.hold.note(&DEV, datagram);
                for message in frames(datagram) {
                    let _ = self
                        .broker
                        .on_datagram_into(now, DEV, message, &mut self.out);
                }
            }
            let answer = &mut |_: &u8, bytes: &[u8]| answers.push(bytes.to_vec());
            self.hold.flush(&mut self.out, now, answer);
        }

        fn stats(&self) -> BrokerStats {
            *self.broker.stats()
        }

        /// Task ids of the `TaskEnd` records delivered since the last call,
        /// in order.
        fn delivered(&mut self) -> Vec<u64> {
            let (mut batch, mut records) = (Vec::new(), Vec::new());
            self.sub.try_recv(&mut batch);
            let mut ids = Vec::new();
            for message in &batch {
                Envelope::decode_into(&message.payload, &mut records).unwrap();
                ids.extend(records.drain(..).map(|r| match r {
                    Record::TaskEnd {
                        task: TaskRecord { id: Id::Num(n), .. },
                        ..
                    } => n,
                    other => panic!("unexpected {other:?}"),
                }));
            }
            ids
        }
    }

    /// The datagrams on their way each way, and every one the device sent.
    #[derive(Default)]
    struct Wire {
        /// To the gateway and to the device, each with when it arrives.
        up: VecDeque<(Nanos, Vec<u8>)>,
        down: VecDeque<(Nanos, Vec<u8>)>,
        /// What the device sent, with when, split into its messages.
        sent: Vec<(Nanos, Vec<Packet>)>,
    }

    impl Wire {
        /// The device's sink at `now`.
        fn sink(&mut self, now: Nanos) -> impl FnMut(&[u8]) -> io::Result<()> + '_ {
            move |datagram| {
                let packets = frames(datagram).map(|f| Packet::decode(f).unwrap());
                self.sent.push((now, packets.collect()));
                self.up.push_back((now + LATENCY, datagram.to_vec()));
                Ok(())
            }
        }

        fn count(&self, f: impl Fn(&Packet) -> bool) -> usize {
            self.sent
                .iter()
                .flat_map(|(_, p)| p)
                .filter(|p| f(p))
                .count()
        }
    }

    /// A capture command waiting in the channel.
    enum Capture {
        One(Record),
        Batch(Vec<Record>),
    }

    /// A device and its gateway on virtual time. Each method mirrors a part
    /// of the transmitter's loop; the gateway serves each datagram as it
    /// arrives and wakes every [`WAKE`] with nothing read.
    struct Rig {
        device: Device,
        gw: Gateway,
        wire: Wire,
        channel: VecDeque<Capture>,
        now: Nanos,
        last_wake: Nanos,
        /// The gateway is gone: what reaches its port is refused, and the
        /// device's next read says so.
        dead: bool,
        refused: bool,
        /// Batch buffers handed back empty for the pool.
        drained_batches: usize,
    }

    impl Rig {
        /// A device whose first attempt to connect is due, and its gateway.
        fn dialing(config: CaptureConfig, seed: u64) -> Rig {
            let session = Session::new(client_config("dev".into(), &config));
            Rig {
                device: Device::new(session, TOPIC.into(), config, seed).unwrap(),
                gw: Gateway::new(),
                wire: Wire::default(),
                channel: VecDeque::new(),
                now: 0,
                last_wake: 0,
                dead: false,
                refused: false,
                drained_batches: 0,
            }
        }

        /// A device whose link is up, and its gateway; the handshake that
        /// brought the link up is off the record.
        fn new(config: CaptureConfig, seed: u64) -> Rig {
            let mut rig = Rig::dialing(config, seed);
            while !rig.device.is_up() {
                assert!(rig.now < RECONNECT_ATTEMPT_TIMEOUT.as_nanos() as Nanos);
                rig.turn();
                rig.service();
            }
            rig.wire.sent.clear();
            rig
        }

        /// Time moves on to `to`: the gateway serves each datagram as it
        /// arrives, and wakes every [`WAKE`] to let go of what it holds.
        fn advance(&mut self, to: Nanos) {
            loop {
                let next = self.wire.up.front().map_or(Nanos::MAX, |(at, _)| *at);
                let at = next.min(self.last_wake + WAKE);
                if at > to {
                    self.now = self.now.max(to);
                    return;
                }
                self.now = self.now.max(at);
                let mut batch = Vec::new();
                while let Some((_, datagram)) = self.wire.up.pop_front_if(|(at, _)| *at <= self.now)
                {
                    batch.push(datagram);
                }
                self.last_wake = self.now;
                if self.dead {
                    self.refused |= !batch.is_empty();
                    continue;
                }
                let mut answers = Vec::new();
                self.gw.serve(self.now, &batch, &mut answers);
                let arrives = self.now + LATENCY;
                self.wire
                    .down
                    .extend(answers.into_iter().map(|a| (arrives, a)));
            }
        }

        /// The device reads what has reached its socket.
        fn read(&mut self) -> io::Result<()> {
            if std::mem::take(&mut self.refused) {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            while let Some((_, datagram)) = self.wire.down.pop_front_if(|(at, _)| *at <= self.now) {
                self.device.hear(&datagram, self.now);
            }
            Ok(())
        }

        fn poll(&mut self, read: io::Result<()>) {
            let now = self.now;
            self.device.poll(read, now, &mut self.wire.sink(now));
        }

        /// `Driver::absorb_commands` and the cut after it.
        fn absorb(&mut self) {
            let now = self.now;
            let send = &mut self.wire.sink(now);
            while self.device.takes_capture() {
                match self.channel.pop_front() {
                    Some(Capture::One(record)) => self.device.capture_one(record, now, send),
                    Some(Capture::Batch(mut batch)) => {
                        self.device.capture(&mut batch, now, send);
                        assert!(batch.is_empty());
                        self.drained_batches += 1;
                    }
                    None => break,
                }
            }
            self.device.cut(now, send);
        }

        /// `Driver::read` without a wait.
        fn turn(&mut self) {
            let now = self.now;
            if self.device.redial_due(now) {
                // A new socket: what queued on the old one is gone.
                self.wire.down.clear();
                self.refused = false;
                self.device.dialed(Ok(()), now, &mut self.wire.sink(now));
            }
            let read = match self.device.drain_due(now) {
                true => self.read(),
                false => Ok(()),
            };
            self.poll(read);
        }

        /// `Driver::read` with a wait: what has arrived is read first when
        /// the device would ask, then the ask, then, while a reply is still
        /// expected, a read that waits for a datagram up to the read
        /// time-out.
        fn service(&mut self) {
            if self.device.would_ask() {
                let read = self.read();
                self.poll(read);
            }
            let now = self.now;
            self.device.ask(now, &mut self.wire.sink(now));
            if !self.device.awaits_gateway() {
                return;
            }
            let until = now + WAKE;
            let arrived = |wire: &Wire, now| wire.down.front().is_some_and(|(at, _)| *at <= now);
            while self.now < until && !self.refused && !arrived(&self.wire, self.now) {
                let next = [&self.wire.up, &self.wire.down].map(|q| q.front().map(|(at, _)| *at));
                self.advance(next.into_iter().flatten().fold(until, Nanos::min));
            }
            let read = self.read();
            self.poll(read);
        }

        /// `Driver::run` until `until`, taking what the channel holds.
        fn run_until(&mut self, until: Nanos) {
            loop {
                self.absorb();
                self.turn();
                if self.now >= until {
                    return;
                }
                if self.device.awaits_gateway() {
                    self.service();
                } else {
                    let at = self.device.next_deadline().unwrap_or(until).min(until);
                    assert!(at > self.now, "a deadline at {at} is past at {}", self.now);
                    self.advance(at);
                }
                self.device.count_wakeup();
            }
        }

        /// `Driver::drain` after what the channel holds is taken: the
        /// virtual time it took.
        fn flush(&mut self) -> Nanos {
            let started = self.now;
            while !self.channel.is_empty() {
                self.absorb();
                self.turn();
                self.service();
            }
            self.absorb();
            loop {
                self.turn();
                if self.device.drained() {
                    return self.now - started;
                }
                assert!(self.now - started < 25_000 * MS, "the flush never ended");
                if self.device.is_down() {
                    let at = self.device.next_deadline().unwrap();
                    self.advance(at.max(self.now + 1));
                } else {
                    self.service();
                }
            }
        }

        fn capture(&mut self, record: Record) {
            self.channel.push_back(Capture::One(record));
        }

        /// The gateway restarts without its state.
        fn restart_gateway(&mut self) {
            self.gw = Gateway::new();
            self.dead = false;
        }

        /// When the device sent the first message `f` picks after `since`.
        fn first_sent(&self, since: Nanos, f: impl Fn(&Packet) -> bool) -> Option<Nanos> {
            let sent = self.wire.sent.iter().filter(|(at, _)| *at >= since);
            sent.filter(|(_, p)| p.iter().any(&f))
                .map(|(at, _)| *at)
                .next()
        }
    }

    fn is_connect(p: &Packet) -> bool {
        matches!(p, Packet::Connect { .. })
    }

    /// N batches queued ahead of the transmitter's wake-up coalesce into at
    /// most `ceil(total_bytes / max_payload)` publishes.
    #[test]
    fn queued_batches_coalesce_into_bounded_publishes() {
        let max_payload = 4096usize;
        let config = CaptureConfig {
            max_payload,
            ..CaptureConfig::default()
        };
        let mut rig = Rig::new(config, 1);
        let n_batches = 40u64;
        let batches: Vec<Vec<Record>> = (0..n_batches).map(|i| vec![record(i, 20)]).collect();
        let total_bytes: usize = batches
            .iter()
            .flat_map(|b| b.iter())
            .map(Record::approx_size)
            .sum();
        rig.channel.extend(batches.into_iter().map(Capture::Batch));
        rig.flush();

        let publishes = rig.gw.stats().publishes_in;
        let bound = total_bytes.div_ceil(max_payload) as u64;
        assert!(
            publishes >= 1 && publishes <= bound,
            "{n_batches} batches ({total_bytes} approx bytes) produced {publishes} publishes, \
             bound ceil(total/max_payload) = {bound}"
        );
        // Coalescing must actually have merged batches.
        assert!(publishes < n_batches);
        // Drained batch buffers are handed back for the shared pool.
        assert_eq!(rig.drained_batches, n_batches as usize);
        assert_eq!(rig.gw.delivered(), (0..n_batches).collect::<Vec<_>>());
    }

    /// The coalescer never splits one queued batch, so a batch of values
    /// LZSS cannot shrink can encode past the UDP datagram limit. It must
    /// be split rather than stalling the device with a failed send.
    #[test]
    fn oversized_envelope_is_split_not_dropped() {
        let mut rig = Rig::new(CaptureConfig::default(), 1);
        // One un-splittable batch of pseudo-random floats (7 B each on the
        // wire, incompressible) whose envelope is over 65 KB.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let batch: Vec<Record> = (0..250)
            .map(|i| {
                let mut d = DataRecord::new(i, 1u64);
                for a in 0..40 {
                    d = d.with_attr(format!("attribute_{a}"), rng.gen::<f64>());
                }
                let mut r = record(i, 0);
                if let Record::TaskEnd { outputs, .. } = &mut r {
                    *outputs = vec![d];
                }
                r
            })
            .collect();
        assert!(Envelope::encoded_len(&batch, true) > 65_000);
        rig.channel.push_back(Capture::Batch(batch));
        rig.flush();

        let publishes = rig.gw.stats().publishes_in;
        assert!(
            publishes >= 2,
            "oversized envelope was not split ({publishes} publishes)"
        );
        assert_eq!(rig.gw.delivered(), (0..250).collect::<Vec<_>>());
        assert_eq!(rig.device.stats().records_dropped, 0);
    }

    /// A single record too large for any UDP datagram is dropped (and
    /// counted); the device goes on and later records still flow.
    #[test]
    fn unsendable_single_record_is_dropped_not_fatal() {
        let mut rig = Rig::new(CaptureConfig::default(), 1);
        // Pseudo-random bytes: LZSS cannot bring them under the limit.
        let mut rng = StdRng::seed_from_u64(0xab);
        let digest: Vec<u8> = (0..80_000).map(|_| rng.gen::<u8>()).collect();
        let mut monster = record(1, 0);
        if let Record::TaskEnd { outputs, .. } = &mut monster {
            *outputs = vec![DataRecord::new(1u64, 1u64)
                .with_attr("digest", prov_model::AttrValue::Bytes(digest))];
        }
        assert!(Envelope::encoded_len(std::slice::from_ref(&monster), true) > 65_000);
        rig.capture(monster);
        rig.capture(record(2, 3));
        rig.flush();

        // The normal record made it; the monster was dropped and counted.
        assert_eq!(rig.gw.stats().publishes_in, 1);
        assert_eq!(rig.gw.delivered(), [2]);
        assert_eq!(rig.device.stats().records_dropped, 1);
    }

    /// `max_payload: 1` degenerates to one envelope per queued command.
    #[test]
    fn tiny_max_payload_disables_coalescing() {
        let config = CaptureConfig {
            max_payload: 1,
            ..CaptureConfig::default()
        };
        let mut rig = Rig::new(config, 1);
        for i in 0..5 {
            rig.capture(record(i, 2));
        }
        rig.flush();
        assert_eq!(rig.gw.stats().publishes_in, 5);
        assert_eq!(rig.gw.delivered(), (0..5).collect::<Vec<_>>());
    }

    /// A full in-flight window drops and reorders nothing: the device stops
    /// taking capture once a command fills it, and the rest waits in the
    /// channel, not in the backlog.
    #[test]
    fn a_full_window_pauses_intake_and_reorders_nothing() {
        let config = CaptureConfig {
            max_payload: 1,
            max_inflight: 2,
            ..CaptureConfig::default()
        };
        let mut rig = Rig::new(config, 1);
        for i in 0..50 {
            rig.capture(record(i, 2));
        }
        rig.absorb();
        assert!(!rig.device.takes_capture());
        assert_eq!(rig.channel.len(), 48, "two in flight, the rest not taken");
        rig.flush();
        assert_eq!(rig.gw.delivered(), (0..50).collect::<Vec<_>>());
        let stats = rig.device.stats();
        assert_eq!((stats.records_dropped, stats.buffered_high_water), (0, 0));
        assert_eq!(rig.gw.stats().publishes_in, 50);
    }

    /// The property `transmitter::tests::a_streaming_transmitter_never_waits_on_a_held_ack`
    /// bounds in wall-clock time, where no scheduler takes part. The
    /// `immediate_small` pace — a task's two records in one message every
    /// 8 ms — streams, and the gateway holds its acknowledgements; the
    /// flush that ends the run asks for what is held and is over within
    /// two round trips, never waiting out the hold.
    #[test]
    fn a_flush_never_waits_out_a_held_ack() {
        const N: u64 = 100;
        let mut rig = Rig::new(CaptureConfig::default(), 1);
        for i in 0..N {
            rig.channel
                .push_back(Capture::Batch(vec![record(2 * i, 3), record(2 * i + 1, 3)]));
            let next = rig.now + 8 * MS;
            rig.run_until(next);
        }
        let streamed = rig.wire.sent.len();
        let took = rig.flush();
        assert!(took <= 4 * LATENCY, "flush took {took} ns");
        assert!(took < ACK_HOLD);
        // What was queued on the socket is read before the device asks:
        // the PUBRELs answering it are the ask, and those answering what
        // the ask drew end the flush.
        let flushed = &rig.wire.sent[streamed..];
        assert!(flushed.len() <= 2, "{flushed:?}");
        assert_eq!(rig.gw.delivered(), (0..2 * N).collect::<Vec<_>>());
        let publishes = rig.wire.count(|p| matches!(p, Packet::Publish { .. })) as u64;
        assert_eq!(publishes, N);
        let gateway = rig.gw.stats();
        assert_eq!(gateway.publishes_in, N);
        assert_eq!(gateway.duplicates_suppressed, 0);
        assert_eq!(gateway.retransmissions, 0);
        let stats = rig.device.stats();
        assert!(stats.wakeups <= N + N / 2, "{stats:?}");
        assert_eq!(stats.publish_failures, 0);
    }

    /// A device whose gateway is gone notices at its next read, and sends
    /// its first CONNECT one jittered initial back-off later, with no
    /// capture call to wake it.
    #[test]
    fn disconnected_link_wakes_for_its_reconnect_attempt() {
        let config = CaptureConfig::default();
        let backoff = nanos(config.reconnect_initial_backoff);
        let mut rig = Rig::new(config, 7);
        rig.capture(record(0, 3));
        rig.flush();
        rig.dead = true;
        // The last capture call: its PUBLISH meets a closed port.
        rig.capture(record(1, 3));
        let mut noticed = None;
        while noticed.is_none() {
            assert!(
                rig.now < 5_000 * MS,
                "the device never noticed the dead gateway"
            );
            let next = rig.now + MS;
            rig.run_until(next);
            noticed = (!rig.device.stats().connected).then_some(rig.now);
        }
        let noticed = noticed.unwrap();
        let next = rig.now + 2 * backoff;
        rig.run_until(next);
        let connect = rig.first_sent(0, is_connect);
        let waited = connect.expect("no reconnection attempt without a capture call") - noticed;
        let jitter = (backoff as f64 * RECONNECT_JITTER) as Nanos;
        assert!(
            (backoff - jitter - MS..=backoff + jitter).contains(&waited),
            "reconnect attempt after {waited} ns"
        );
        assert_eq!(rig.device.stats().records_dropped, 0);
    }

    /// When the device sent each CONNECT.
    fn connects(rig: &Rig) -> Vec<Nanos> {
        let connects = rig
            .wire
            .sent
            .iter()
            .filter(|(_, p)| p.iter().any(is_connect));
        connects.map(|(at, _)| *at).collect()
    }

    /// Asserts that the CONNECTs sent at `times`, each refused one crossing
    /// of the link after it left, are as far apart as the back-off says:
    /// the next leaves the initial back-off after the first is refused,
    /// and the back-off doubles to its ceiling, each spread by its jitter.
    fn assert_backs_off(times: &[Nanos], config: &CaptureConfig) {
        assert!(times.len() > 10, "{} attempts", times.len());
        let mut expected = nanos(config.reconnect_initial_backoff);
        let mut distinct = std::collections::HashSet::new();
        for (i, pair) in times.windows(2).enumerate() {
            if i > 0 {
                expected = (2 * expected).min(nanos(config.reconnect_max_backoff));
            }
            let gap = pair[1] - pair[0] - LATENCY;
            let (lo, hi) = (expected * 3 / 4, expected * 5 / 4);
            assert!(
                (lo..=hi).contains(&gap),
                "attempt {i}: {gap} ns, not in {lo}..={hi}"
            );
            distinct.insert(gap);
        }
        assert!(distinct.len() > times.len() / 2, "jitter not spreading");
    }

    /// The CONNECTs of a device whose gateway stays gone, as far apart as
    /// the back-off says — the initial one twice, then doubling to the
    /// ceiling — each spread by its jitter, drawn from the seed: the same
    /// seed draws the same times, another seed others.
    #[test]
    fn jittered_backoff_stays_within_the_window() {
        let config = CaptureConfig {
            reconnect_max_backoff: Duration::from_millis(800),
            ..CaptureConfig::default()
        };
        let attempts = |seed: u64| -> Vec<Nanos> {
            let mut rig = Rig::new(config.clone(), seed);
            rig.capture(record(0, 3));
            rig.flush();
            rig.dead = true;
            rig.capture(record(1, 3));
            rig.run_until(20_000 * MS);
            connects(&rig)
        };
        let times = attempts(7);
        assert_backs_off(&times, &config);
        assert_eq!(attempts(7), times, "the seed decides");
        assert_ne!(attempts(8), times, "another seed draws other times");
    }

    /// The first connection is the first attempt to connect, made as any
    /// later one is: the records captured before the device's first
    /// CONNECT and while it is out wait in the backlog and replay in
    /// capture order once the link is up, none dropped, and the first
    /// link-up is no reconnect — a later one is.
    #[test]
    fn captures_made_while_the_first_dial_is_out_replay_in_order() {
        let mut rig = Rig::dialing(CaptureConfig::default(), 1);
        rig.capture(record(0, 3));
        rig.absorb();
        assert_eq!(rig.device.stats().buffered_records, 1);
        rig.turn();
        assert_eq!(connects(&rig), [0], "the CONNECT leaves at once");
        for i in 1..10 {
            rig.capture(record(i, 3));
            rig.absorb();
            rig.turn();
        }
        assert!(!rig.device.stats().connected, "up before any answer");
        rig.flush();
        assert_eq!(rig.gw.delivered(), (0..10).collect::<Vec<_>>());
        let stats = rig.device.stats();
        assert_eq!(stats.reconnects, 0, "{stats:?}");
        assert_eq!(stats.records_replayed, 10, "{stats:?}");
        assert_eq!(stats.records_dropped, 0, "{stats:?}");
        assert!(stats.connected);

        rig.restart_gateway();
        for i in 10..20 {
            rig.capture(record(i, 3));
            let next = rig.now + MS;
            rig.run_until(next);
        }
        rig.flush();
        assert_eq!(rig.gw.delivered(), (10..20).collect::<Vec<_>>());
        assert_eq!(rig.device.stats().reconnects, 1);
    }

    /// A device that boots while its gateway is gone is a link that is
    /// down: its first CONNECT is refused, and it backs off exactly as it
    /// does after the link to a gateway that then went away — capturing
    /// all the while.
    #[test]
    fn a_refused_first_connect_backs_off_as_a_refused_reconnect_does() {
        let config = CaptureConfig {
            reconnect_max_backoff: Duration::from_millis(800),
            ..CaptureConfig::default()
        };
        let mut rig = Rig::dialing(config.clone(), 7);
        rig.dead = true;
        rig.capture(record(0, 3));
        rig.run_until(20_000 * MS);
        let times = connects(&rig);
        assert_eq!(times[0], 0, "the first attempt is due at once");
        assert_backs_off(&times, &config);
        let stats = rig.device.stats();
        assert_eq!((stats.buffered_records, stats.records_dropped), (1, 0));
        assert!(!stats.connected);
    }

    /// A gateway that restarts without its state no longer knows the
    /// device: its topic id is unknown there, so the first publishes after
    /// the restart come back rejected (`InvalidTopicId`) with their
    /// payloads. The link goes down and comes back through a reconnect,
    /// whose CONNECT opens the session the gateway forgot and whose
    /// resumption registers the topic again; then the payloads replay.
    /// Every record captured after the restart reaches the new gateway
    /// once and in order, none dropped.
    #[test]
    fn a_gateway_restarted_without_its_state_gets_a_reconnect() {
        let mut rig = Rig::new(CaptureConfig::default(), 1);
        for i in 0..10 {
            rig.capture(record(i, 3));
        }
        rig.flush();
        assert_eq!(rig.gw.delivered(), (0..10).collect::<Vec<_>>());

        rig.restart_gateway();
        for i in 10..40 {
            rig.capture(record(i, 3));
            let next = rig.now + MS;
            rig.run_until(next);
        }
        rig.flush();
        assert_eq!(rig.gw.delivered(), (10..40).collect::<Vec<_>>());
        let stats = rig.device.stats();
        assert_eq!(stats.reconnects, 1, "{stats:?}");
        assert_eq!(stats.records_dropped, 0, "{stats:?}");
        assert!(stats.publish_failures > 0, "{stats:?}");
        assert!(stats.connected);
    }
}
