//! The asynchronous transmitter (real mode).
//!
//! Capture calls must not block the workflow on network I/O — the paper's
//! key design choice. The transmitter owns a background thread with an
//! MQTT-SN client over UDP; the instrumentation thread only moves records
//! into a channel. The thread keeps the connection open across messages
//! (connection reuse, §VII-A), publishes at QoS 2 (exactly once, the
//! paper's QoS and the only one a device uses), and drives
//! retransmissions.
//!
//! ## Coalescing and buffer reuse
//!
//! Each wakeup drains *every* queued publish command and packs the records
//! into as few envelopes as possible, cutting a new message once the pending
//! records reach [`CaptureConfig::max_payload`] approximate bytes (a batch
//! is never split across envelopes). Under bursty capture this collapses
//! hundreds of queued single-record messages into a handful of
//! string-table-deduplicated, compressed envelopes.
//!
//! The hot path recycles every buffer it touches: drained record `Vec`s
//! return to a pool shared with the capture side (the grouper refills from
//! it), payload buffers come back from the MQTT-SN client once a publish
//! completes, and the codec scratch (string table, compression tables) lives
//! in thread-locals on the transmitter thread — so the steady state
//! allocates nothing per record.
//!
//! ## Disconnection resilience
//!
//! Capture continues while the broker is unreachable (paper §IV — the
//! third headline design point). Instead of dying on the first transport
//! error, the thread moves encoded envelopes into its backlog, keeps
//! draining the capture channel so instrumentation never stalls, and
//! reconnects with jittered exponential backoff. The backlog holds RAM
//! under two caps; what overflows them moves oldest first to the flash
//! spill log when [`CaptureConfig::spill_dir`] is set, and is dropped with
//! exact accounting when it is not. On reconnect the MQTT-SN session
//! resumes — topic re-registration, DUP retransmission of in-flight
//! publishes — and the backlog replays in original order.
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

use crate::api::CaptureError;
use crate::config::CaptureConfig;
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mqtt_sn::net::UdpClient;
use mqtt_sn::{ClientConfig, ClientEvent, ClientState, NetError, QoS, ReturnCode};
use parking_lot::Mutex;
use prov_codec::frame::Envelope;
use prov_model::Record;
use prov_wal::{Wal, WalConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

enum Cmd {
    /// A ready batch from the grouper.
    Publish(Vec<Record>),
    /// A single passthrough record (Immediate / EndedOnly begin events);
    /// avoids allocating a one-element `Vec` per record.
    PublishOne(Record),
    Flush(Sender<bool>),
    Shutdown,
}

/// Batch `Vec`s drained by the transmitter, waiting to be reused by the
/// capture side's grouper.
type BatchPool = Arc<Mutex<Vec<Vec<Record>>>>;

/// Hard ceiling (in `Record::approx_size` bytes) on one coalesced envelope,
/// regardless of `max_payload`: approx bytes comfortably over-estimate wire
/// bytes, so staying under this keeps the datagram below the 65507-byte UDP
/// limit even before compression. A single batch larger than this is not
/// split here; [`send_records`] splits it if its envelope is too large.
const MAX_COALESCE_BYTES: usize = 60_000;

/// Upper bound on pooled batch buffers.
const MAX_POOLED_BATCHES: usize = 8;

/// Per-attempt budget for a reconnection handshake.
const RECONNECT_ATTEMPT_TIMEOUT: Duration = Duration::from_secs(1);

/// How long a flush waits (inside the thread) for reconnect + replay +
/// acknowledgement before reporting failure. `Transmitter::flush` itself
/// waits slightly longer so the thread always answers first.
const FLUSH_DRAIN_BUDGET: Duration = Duration::from_secs(25);

/// How long shutdown tries to deliver outstanding data before dropping it
/// (or, with a spill WAL configured, persisting it for the next process).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// Jitter fraction on the transmitter's reconnect backoff: after a gateway
/// restart every disconnected device's timer would otherwise fire in
/// lockstep (the reconnect stampede).
const RECONNECT_JITTER: f64 = 0.25;

/// Spreads `backoff` uniformly over `[(1 − j)·b, (1 + j)·b]`, `j` being
/// [`RECONNECT_JITTER`].
fn jitter_backoff(backoff: Duration, rng: &mut impl Rng) -> Duration {
    let unit: f64 = rng.gen(); // [0, 1)
    let factor = 1.0 - RECONNECT_JITTER + 2.0 * RECONNECT_JITTER * unit;
    Duration::from_nanos((backoff.as_nanos() as f64 * factor) as u64)
}

/// A cheap per-call entropy seed for backoff jitter: wall clock nanos mixed
/// with a process-wide counter, so simultaneous callers (the stampede case)
/// still draw distinct jitter streams. Not cryptographic.
fn entropy_seed() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    // splitmix-style avalanche so close timestamps diverge.
    let mut z = nanos ^ COUNTER.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Envelope spacing under *soft* congestion (broker advisory level 1): the
/// broker asked for headroom, so sends trickle out instead of bursting and
/// new records coalesce more deeply behind the queue.
const SOFT_PACE: Duration = Duration::from_millis(5);

/// Hold-off under *hard* congestion (level 2, or a PUBACK `Congestion`
/// rejection): everything queues, with one probe envelope per interval so
/// the transmitter notices drain even if the broker's falling advisory is
/// lost.
const HARD_PACE: Duration = Duration::from_millis(50);

/// Capture-side transport statistics — the client mirror of
/// `ProvenanceManager::server_stats()`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransmitterStats {
    /// Whether the transmitter currently believes the broker is reachable.
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

/// Lock-free shared cell behind [`TransmitterStats`].
#[derive(Debug, Default)]
struct StatsCell {
    connected: AtomicBool,
    reconnects: AtomicU64,
    publish_failures: AtomicU64,
    buffered_records: AtomicU64,
    buffered_bytes: AtomicU64,
    buffered_high_water: AtomicU64,
    records_dropped: AtomicU64,
    records_replayed: AtomicU64,
    spilled_records: AtomicU64,
    spill_bytes: AtomicU64,
    recovered_records: AtomicU64,
    wal_drops: AtomicU64,
    congestion_signals: AtomicU64,
    paced_sends: AtomicU64,
    records_shed: AtomicU64,
    wakeups: AtomicU64,
}

impl StatsCell {
    fn snapshot(&self) -> TransmitterStats {
        TransmitterStats {
            connected: self.connected.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            publish_failures: self.publish_failures.load(Ordering::Relaxed),
            buffered_records: self.buffered_records.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            buffered_high_water: self.buffered_high_water.load(Ordering::Relaxed),
            records_dropped: self.records_dropped.load(Ordering::Relaxed),
            records_replayed: self.records_replayed.load(Ordering::Relaxed),
            spilled_records: self.spilled_records.load(Ordering::Relaxed),
            spill_bytes: self.spill_bytes.load(Ordering::Relaxed),
            recovered_records: self.recovered_records.load(Ordering::Relaxed),
            wal_drops: self.wal_drops.load(Ordering::Relaxed),
            congestion_signals: self.congestion_signals.load(Ordering::Relaxed),
            paced_sends: self.paced_sends.load(Ordering::Relaxed),
            records_shed: self.records_shed.load(Ordering::Relaxed),
            wakeups: self.wakeups.load(Ordering::Relaxed),
        }
    }
}

/// A counted FIFO of encoded envelopes, `(payload, records)`. It holds no
/// policy: [`Backlog`] decides what enters, where, and what leaves.
#[derive(Debug, Default)]
struct Fifo {
    queue: VecDeque<(Vec<u8>, usize)>,
    records: usize,
    bytes: usize,
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
/// the pacing window is shut, replayed in capture order.
///
/// Oldest first: envelopes put back at the front (a replay that failed
/// mid-way, in-flight publishes the client handed back), then the spill
/// log when [`CaptureConfig::spill_dir`] is set, then RAM. New envelopes enter
/// RAM's tail under two caps, `buffer_max_records` and `buffer_max_bytes`.
/// Overflow leaves RAM oldest first (edge provenance favours the recent
/// tail of a run over the head an operator can often re-derive) for the
/// log's tail, which keeps the order since everything in the log is older,
/// or, without a log, for a counted drop. An envelope over a cap by itself
/// never enters RAM. Every record lost on the way is counted once, and
/// [`Backlog::drain_drops`] hands the count to the link.
struct Backlog {
    front: Fifo,
    wal: Option<Wal>,
    ram: Fifo,
    max_records: usize,
    max_bytes: usize,
    /// Drops the WAL's own counter does not see: RAM overflow without a
    /// log, and appends the disk refused.
    drops: u64,
    /// Portion of `wal.dropped_records()` already handed to the link.
    wal_drops_accounted: u64,
}

impl Backlog {
    /// Builds the backlog, opening (and recovering) the WAL when configured.
    fn new(config: &CaptureConfig) -> std::io::Result<Backlog> {
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
    fn push_back(&mut self, payload: Vec<u8>, records: usize) {
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
    fn push_front(&mut self, payload: Vec<u8>, records: usize) {
        self.front.push_front(payload, records);
    }

    /// Takes the oldest envelope: the front, then the log, then RAM.
    fn pop_front(&mut self) -> Option<(Vec<u8>, usize)> {
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
                // the next service pass retry. Never fall through to RAM —
                // that would reorder newer envelopes ahead of the log.
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
    /// log's cap evictions and I/O losses), for the link to fold into
    /// `records_dropped` exactly once.
    fn drain_drops(&mut self) -> u64 {
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
    fn close(&mut self) {
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

    fn records(&self) -> usize {
        self.front.records
            + self.wal.as_ref().map_or(0, |w| w.records() as usize)
            + self.ram.records
    }

    fn bytes(&self) -> usize {
        self.front.bytes + self.wal.as_ref().map_or(0, |w| w.bytes() as usize) + self.ram.bytes
    }

    fn is_empty(&self) -> bool {
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

/// Handle to the background transmitter thread.
pub struct Transmitter {
    tx: Sender<Cmd>,
    thread: Option<std::thread::JoinHandle<()>>,
    pool: BatchPool,
    stats: Arc<StatsCell>,
}

impl Transmitter {
    /// Connects to the broker, registers `topic`, and starts the thread.
    pub fn start(
        broker: SocketAddr,
        client_id: String,
        topic: String,
        config: CaptureConfig,
    ) -> Result<Transmitter, NetError> {
        let timeout = Duration::from_secs(10);
        let mut client_config = ClientConfig::new(client_id);
        client_config.keep_alive = config.keep_alive;
        client_config.retry_timeout = config.retry_timeout;
        client_config.max_retries = config.max_retries;
        client_config.max_inflight = config.max_inflight.max(1);
        let mut client = UdpClient::connect(broker, client_config, timeout)?;
        let topic_id = client.register(&topic, timeout)?;
        // Chaos hook goes in only after the handshake: the fault plan
        // shapes steady-state traffic, not whether the transmitter can
        // start at all.
        if let Some(fault) = &config.datagram_fault {
            client.set_fault(fault.0.clone());
        }

        // Open (and recover) the spill WAL before the thread exists so a
        // misconfigured spill directory fails the connect loudly instead
        // of silently degrading to RAM-only buffering.
        let buffer = Backlog::new(&config).map_err(NetError::Io)?;

        // Bound the channel so a dead network eventually applies
        // backpressure instead of exhausting memory (the send-buffer role
        // of the simulation model).
        let (tx, rx) = bounded::<Cmd>(1024);
        let pool: BatchPool = Arc::new(Mutex::with_rank(parking_lot::rank::POOL, Vec::new()));
        let stats = Arc::new(StatsCell::default());
        stats.connected.store(true, Ordering::Relaxed);
        stats
            .recovered_records
            .store(buffer.recovered_records(), Ordering::Relaxed);
        let thread = {
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                let link = Link::new(client, topic, topic_id, config, buffer, stats);
                transmitter_loop(link, rx, pool);
            })
        };
        Ok(Transmitter {
            tx,
            thread: Some(thread),
            pool,
            stats,
        })
    }

    /// Enqueues one message batch (non-blocking unless the channel is
    /// full).
    pub fn publish(&self, records: Vec<Record>) -> Result<(), CaptureError> {
        self.tx
            .send(Cmd::Publish(records))
            .map_err(|_| CaptureError::Closed)
    }

    /// Enqueues a single record without wrapping it in a `Vec`.
    pub fn publish_record(&self, record: Record) -> Result<(), CaptureError> {
        self.tx
            .send(Cmd::PublishOne(record))
            .map_err(|_| CaptureError::Closed)
    }

    /// Takes a drained batch buffer for reuse by the grouper, if one is
    /// available.
    pub fn take_spare_batch(&self) -> Option<Vec<Record>> {
        self.pool.lock().pop()
    }

    /// Snapshot of the transport statistics.
    pub fn stats(&self) -> TransmitterStats {
        self.stats.snapshot()
    }

    /// Blocks until everything enqueued so far is published and (for QoS
    /// 1/2) acknowledged. While disconnected this waits for reconnection
    /// and buffer replay; if the broker stays unreachable past the drain
    /// budget the error reports how many records remain buffered (they are
    /// *not* lost — the transmitter keeps trying).
    pub fn flush(&self) -> Result<(), CaptureError> {
        let (ack_tx, ack_rx) = bounded(1);
        self.tx
            .send(Cmd::Flush(ack_tx))
            .map_err(|_| CaptureError::Closed)?;
        match ack_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(true) => Ok(()),
            Ok(false) => Err(CaptureError::Transport(format!(
                "flush incomplete: broker unreachable, {} records buffered for replay",
                self.stats.buffered_records.load(Ordering::Relaxed)
            ))),
            Err(_) => Err(CaptureError::Transport("flush timed out".into())),
        }
    }

    /// Stops the thread after a final flush.
    pub fn shutdown(mut self) {
        let _ = self.flush();
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Transmitter {
    fn drop(&mut self) {
        let _ = self.tx.send(Cmd::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
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

/// Largest payload handed to one MQTT-SN publish. Leaves room for the
/// packet header under the 65507-byte UDP datagram limit.
const MAX_DATAGRAM_PAYLOAD: usize = 65_000;

/// The transmitter thread's connection manager: an MQTT-SN client plus the
/// [`Backlog`] and the reconnect/backoff state machine. No method
/// on `Link` ever kills the thread — every transport failure degrades to
/// buffering and a scheduled reconnection attempt.
struct Link {
    client: UdpClient,
    topic: String,
    topic_id: u16,
    config: CaptureConfig,
    connected: bool,
    backoff: Duration,
    next_attempt: Instant,
    buffer: Backlog,
    /// Record count per in-flight message id, in publish order as the
    /// client's send window holds them, so payloads the client hands back
    /// keep accurate drop/replay accounting and return in publish order.
    inflight_records: VecDeque<(u16, usize)>,
    /// Backoff jitter source (see [`RECONNECT_JITTER`]).
    rng: StdRng,
    stats: Arc<StatsCell>,
    /// Latest broker-advertised congestion level (0 clear / 1 soft /
    /// 2 hard).
    congestion_level: u8,
    /// No envelope leaves before this instant while congested — the
    /// adaptive pacing window. New sends queue behind the buffer instead,
    /// which deepens coalescing and lets replay meter the drain.
    pace_until: Instant,
}

impl Link {
    fn new(
        client: UdpClient,
        topic: String,
        topic_id: u16,
        config: CaptureConfig,
        buffer: Backlog,
        stats: Arc<StatsCell>,
    ) -> Link {
        Link {
            client,
            topic,
            topic_id,
            connected: true,
            backoff: config
                .reconnect_initial_backoff
                .max(Duration::from_millis(1)),
            next_attempt: Instant::now(),
            buffer,
            inflight_records: VecDeque::new(),
            rng: StdRng::seed_from_u64(entropy_seed()),
            stats,
            congestion_level: 0,
            pace_until: Instant::now(),
            config,
        }
    }

    /// Counts a broker congestion signal and folds it into the pacing
    /// state.
    fn note_congestion(&mut self, level: u8) {
        self.stats
            .congestion_signals
            .fetch_add(1, Ordering::Relaxed);
        self.congestion_level = level;
        if level == 0 {
            self.pace_until = Instant::now();
        }
    }

    /// True while the pacing window forbids putting an envelope on the
    /// wire.
    fn paced(&self) -> bool {
        self.congestion_level > 0 && Instant::now() < self.pace_until
    }

    /// Re-arms the pacing window after a send (or a rejection) under
    /// congestion; a no-op at level 0.
    fn arm_pace(&mut self) {
        if self.congestion_level > 0 {
            let spacing = if self.congestion_level >= 2 {
                HARD_PACE
            } else {
                SOFT_PACE
            };
            self.pace_until = Instant::now() + spacing;
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
    fn shedding(&self) -> bool {
        self.congestion_level >= 2 && self.buffer.ram.records >= self.config.buffer_max_records / 2
    }

    fn mark_disconnected(&mut self) {
        if self.connected {
            self.connected = false;
            self.backoff = self
                .config
                .reconnect_initial_backoff
                .max(Duration::from_millis(1));
            self.next_attempt = Instant::now() + jitter_backoff(self.backoff, &mut self.rng);
        }
    }

    /// Mirrors buffer gauges and connection state into the shared stats,
    /// folding in any drops the buffer discovered since the last sync.
    fn sync_gauges(&mut self) {
        let dropped = self.buffer.drain_drops();
        if dropped > 0 {
            self.stats
                .records_dropped
                .fetch_add(dropped, Ordering::Relaxed);
        }
        let s = &self.stats;
        s.connected.store(self.connected, Ordering::Relaxed);
        s.buffered_records
            .store(self.buffer.records() as u64, Ordering::Relaxed);
        s.buffered_bytes
            .store(self.buffer.bytes() as u64, Ordering::Relaxed);
        s.buffered_high_water
            .fetch_max(self.buffer.records() as u64, Ordering::Relaxed);
        s.spilled_records
            .store(self.buffer.spilled_records(), Ordering::Relaxed);
        s.spill_bytes
            .store(self.buffer.spilled_bytes(), Ordering::Relaxed);
        s.wal_drops
            .store(self.buffer.wal_drops(), Ordering::Relaxed);
    }

    /// Consumes queued client events in one pass. Each message that left
    /// the client's window settles once: at once, or, when its event hands
    /// its payload back, as that payload returns to the backlog's front
    /// ([`Link::put_back`]): it is older than anything buffered since.
    fn absorb_events(&mut self) {
        let mut back: Vec<(u16, Vec<u8>)> = Vec::new();
        while let Some(event) = self.client.pop_event() {
            let (msg_id, payload) = match event {
                ClientEvent::PublishDone { msg_id } => (msg_id, None),
                ClientEvent::PublishRejected {
                    msg_id,
                    code: ReturnCode::Congestion,
                    payload,
                } => {
                    // Hard backpressure: the broker refused the publish to
                    // shed load; it goes back for paced replay.
                    self.note_congestion(2);
                    self.arm_pace();
                    (msg_id, payload)
                }
                ClientEvent::PublishFailed { msg_id, payload }
                | ClientEvent::PublishRejected {
                    msg_id, payload, ..
                } => {
                    // Retries exhausted, or a gateway that no longer knows
                    // our session (it restarted without its state): the way
                    // back is a reconnect, whose CONNECT opens a session.
                    self.stats.publish_failures.fetch_add(1, Ordering::Relaxed);
                    self.mark_disconnected();
                    (msg_id, payload)
                }
                ClientEvent::Congestion { level } => {
                    self.note_congestion(level);
                    continue;
                }
                ClientEvent::PingTimeout | ClientEvent::Disconnected => {
                    self.mark_disconnected();
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

    /// One maintenance pass that waits on the socket: while connected,
    /// [`await_gateway`]. For whoever needs a reply — the loop while
    /// [`Link::awaits_gateway`], a flush or the shutdown draining
    /// handshakes. The rest is [`Link::maintain`].
    fn service(&mut self) {
        self.maintain(await_gateway);
    }

    /// The same pass without the wait ([`UdpClient::tick`]): whatever came
    /// due since the last one — a retransmission, the keep-alive PINGREQ, a
    /// held PUBREL's release, the ask for what the gateway holds, a
    /// reconnection attempt — and nothing read but, once per hold, what the
    /// gateway's held acknowledgements left queued on the socket.
    fn tick(&mut self) {
        self.maintain(UdpClient::tick);
    }

    /// Runs `io` on the client when connected (or attempts a due
    /// reconnection when not), folds in events, replays what the pacing
    /// window allows, and refreshes the gauges.
    fn maintain(&mut self, io: fn(&mut UdpClient) -> Result<(), NetError>) {
        if self.connected {
            if io(&mut self.client).is_err() {
                self.mark_disconnected();
            }
            self.absorb_events();
            // A backlog can exist while connected (congestion pacing, a
            // recovered rejection): drain it as the pacing window allows.
            if self.connected && !self.buffer.is_empty() {
                self.replay();
            }
        } else if Instant::now() >= self.next_attempt {
            self.attempt_reconnect();
        }
        self.sync_gauges();
    }

    /// Whether the next thing to happen will arrive on the socket: the
    /// gateway owes a reply ([`UdpClient::reply_expected`]), or it has
    /// reported congestion and will report, unasked, when that clears, or a
    /// backlog is waiting on the pacing window or the in-flight window.
    /// Then the loop waits there, at the read time-out's cadence. The
    /// acknowledgement of a PUBLISH that did not ask for it is no reason:
    /// the gateway holds it, and the tick at the read deadline
    /// ([`Link::next_deadline`]) reads it, once per hold.
    fn awaits_gateway(&self) -> bool {
        self.connected
            && (self.client.reply_expected()
                || self.congestion_level > 0
                || !self.buffer.is_empty())
    }

    /// Otherwise nothing happens before this instant unless a capture call
    /// makes it: the next reconnection attempt while disconnected, else the
    /// client's earliest timer ([`UdpClient::next_deadline`] — keep-alive,
    /// the release of a held PUBREL, the read deadline or the ask for what
    /// the gateway holds, a fault-delayed datagram). `None`: nothing is
    /// scheduled at all.
    fn next_deadline(&self) -> Option<Instant> {
        if self.connected {
            self.client.next_deadline()
        } else {
            Some(self.next_attempt)
        }
    }

    fn attempt_reconnect(&mut self) {
        match self.client.try_reconnect(RECONNECT_ATTEMPT_TIMEOUT) {
            Ok(()) => {
                self.connected = true;
                // A fresh session starts from a clean congestion slate —
                // the broker (possibly a different incarnation) will signal
                // again if it is still overloaded.
                self.congestion_level = 0;
                self.pace_until = Instant::now();
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                self.backoff = self
                    .config
                    .reconnect_initial_backoff
                    .max(Duration::from_millis(1));
                // Session resumption may have remapped the topic id (the
                // broker can hand out a different one after a restart).
                if let Some(id) = self.client.topic_id(&self.topic) {
                    self.topic_id = id;
                }
                self.absorb_events();
                self.replay();
            }
            Err(e) => {
                let cap = self
                    .config
                    .reconnect_max_backoff
                    .max(Duration::from_millis(1));
                self.next_attempt = Instant::now() + jitter_backoff(self.backoff, &mut self.rng);
                self.backoff = if e.is_transient() {
                    (self.backoff * 2).min(cap)
                } else {
                    // Fatal errors (protocol rejection) are not going away
                    // soon; jump straight to the ceiling but keep trying —
                    // an operator fixing the broker should not require
                    // restarting every edge device.
                    cap
                };
            }
        }
    }

    /// Replays buffered envelopes in original order until the buffer
    /// drains, the pacing window closes, or the link fails again (the
    /// failed head returns to the front).
    fn replay(&mut self) {
        while self.connected {
            if self.paced() {
                // Congestion metering: resume on a later service pass.
                return;
            }
            let Some((payload, records)) = self.buffer.pop_front() else {
                return;
            };
            if !self.send_payload(payload, records, true) {
                return;
            }
        }
    }

    /// Hands one encoded envelope to the MQTT-SN client, buffering it
    /// instead when the link is down (or goes down mid-send). Returns
    /// `true` when the envelope was accepted by the state machine (on the
    /// wire or in-flight), `false` when it went to the buffer.
    fn send_payload(&mut self, payload: Vec<u8>, records: usize, replaying: bool) -> bool {
        // The state machine can learn of a teardown (broker DISCONNECT)
        // before our own `connected` flag does; publishing then would
        // consume the payload in the error path, losing the records the
        // buffer exists to save.
        if self.client.state() != ClientState::Connected {
            self.mark_disconnected();
        }
        // While a backlog exists, new envelopes must queue behind it —
        // publishing them directly would reorder the stream. The pacing
        // window routes new envelopes the same way, so congestion turns
        // into deeper coalescing instead of wire pressure.
        if !self.connected || (!replaying && (!self.buffer.is_empty() || self.paced())) {
            if self.connected && !replaying && self.paced() {
                self.stats.paced_sends.fetch_add(1, Ordering::Relaxed);
            }
            self.buffer_payload(payload, records, replaying);
            return false;
        }
        // Respect the in-flight window before adding more.
        while !self.client.can_publish() {
            if await_gateway(&mut self.client).is_err() {
                self.mark_disconnected();
            }
            self.absorb_events();
            if !self.connected || self.client.state() != ClientState::Connected {
                self.mark_disconnected();
                self.buffer_payload(payload, records, replaying);
                return false;
            }
        }
        match self
            .client
            .publish_resilient(self.topic_id, payload, QoS::ExactlyOnce)
        {
            Ok((msg_id, sent)) => {
                // On the wire, or safe in the in-flight window (which
                // retransmits on resume) — either way the envelope left
                // the buffer's responsibility.
                self.inflight_records.push_back((msg_id, records));
                if replaying {
                    self.stats
                        .records_replayed
                        .fetch_add(records as u64, Ordering::Relaxed);
                }
                if !sent {
                    self.stats.publish_failures.fetch_add(1, Ordering::Relaxed);
                    self.mark_disconnected();
                }
                // Meter the next envelope while the broker reports
                // congestion (no-op at level 0).
                self.arm_pace();
                true
            }
            Err(_) => {
                // Protocol refusal despite the guards above (in-flight
                // window and connection state both re-checked): the state
                // machine consumed the payload, so all we can do is
                // account the loss honestly.
                self.stats.publish_failures.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .records_dropped
                    .fetch_add(records as u64, Ordering::Relaxed);
                self.mark_disconnected();
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

    /// True once nothing is outstanding: connected, empty buffer, no
    /// in-flight QoS 2 handshakes.
    fn drained(&self) -> bool {
        self.connected && self.buffer.is_empty() && self.client.inflight_len() == 0
    }

    /// Works toward a full drain until `budget` expires: services the
    /// link (reconnecting as needed) and lets replay/retransmission run.
    fn drain_all(&mut self, budget: Duration) -> bool {
        let deadline = Instant::now() + budget;
        loop {
            if self.drained() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.service();
            if !self.connected {
                // service() returns immediately while waiting out the
                // backoff; don't busy-spin.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    /// Final accounting when the thread exits with data still unsent.
    /// Unacknowledged in-flight envelopes count as lost: unconfirmed
    /// delivery is reported as loss rather than silently presumed
    /// successful. The backlog closes ([`Backlog::close`]): with a spill
    /// WAL its records persist for the next process, without one they
    /// reach the drop count through the gauge sync.
    fn account_shutdown_loss(&mut self) {
        self.absorb_events();
        let unconfirmed: usize = self.inflight_records.iter().map(|&(_, n)| n).sum();
        if unconfirmed > 0 {
            self.stats
                .records_dropped
                .fetch_add(unconfirmed as u64, Ordering::Relaxed);
        }
        self.buffer.close();
        self.sync_gauges();
    }
}

/// Blocks on the gateway's answer: asks for what it may be holding for
/// this device ([`UdpClient::ask`]), then [`UdpClient::pump`]
/// sends what is held, blocks for a datagram (up to the read time-out),
/// reads what else is queued and runs the timers. Whoever blocks asks, so
/// no flush waits out the gateway's hold.
fn await_gateway(client: &mut UdpClient) -> Result<(), NetError> {
    client.ask()?;
    client.pump()
}

/// Encodes `records` into one envelope (payload buffer recycled from the
/// client when possible) and hands it to the link. If the encoded form
/// exceeds the datagram limit, the records are split in half and sent as
/// separate envelopes: the coalescer bounds only what it merges and never
/// splits one queued batch, so a large group of incompressible values can
/// still arrive here whole.
fn send_records(link: &mut Link, records: &[Record]) {
    // lint: zero-alloc-begin
    if records.is_empty() {
        return;
    }
    let mut payload = link.client.take_spare_payload().unwrap_or_default();
    payload.clear();
    Envelope::encode_into(records, true, &mut payload);
    if payload.len() > MAX_DATAGRAM_PAYLOAD {
        link.client.reclaim_payload(payload);
        if records.len() > 1 {
            let mid = records.len() / 2;
            send_records(link, &records[..mid]);
            send_records(link, &records[mid..]);
            return;
        }
        // A single record whose encoding exceeds the datagram limit can
        // never be sent; drop it (with accounting) rather than letting the
        // doomed publish kill the transmitter.
        link.stats.records_dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    link.send_payload(payload, records.len(), false);
    // lint: zero-alloc-end
}

/// Sends the coalesced pending records (see [`send_records`]) and resets the
/// coalescer.
fn send_pending(link: &mut Link, pending: &mut Coalescer) {
    // lint: zero-alloc-begin
    if pending.is_empty() {
        return;
    }
    // Split borrows: `send_records` needs the link mutably and the records
    // immutably, so move the records out for the call.
    let records = std::mem::take(&mut pending.records);
    send_records(link, &records);
    pending.records = records;
    pending.clear();
    // lint: zero-alloc-end
}

/// Low-priority records under graceful degradation: begin edges announce
/// work an operator can usually re-derive, while end edges carry completion
/// status and outputs — the provenance that cannot be reconstructed.
fn is_low_priority(record: &Record) -> bool {
    matches!(
        record,
        Record::WorkflowBegin { .. } | Record::TaskBegin { .. }
    )
}

/// Sheds begin-edge records from `batch` with exact accounting (counted in
/// both `records_shed` and `records_dropped`). Called only while
/// [`Link::shedding`] holds.
fn shed_low_priority(link: &Link, batch: &mut Vec<Record>) {
    let before = batch.len();
    batch.retain(|r| !is_low_priority(r));
    let shed = (before - batch.len()) as u64;
    if shed > 0 {
        link.stats.records_shed.fetch_add(shed, Ordering::Relaxed);
        link.stats
            .records_dropped
            .fetch_add(shed, Ordering::Relaxed);
    }
}

/// Returns a drained batch buffer to the shared pool.
fn pool_batch(pool: &BatchPool, batch: Vec<Record>) {
    debug_assert!(batch.is_empty());
    let mut pool = pool.lock();
    if pool.len() < MAX_POOLED_BATCHES {
        pool.push(batch);
    }
}

/// Takes `first` and every command queued behind it off the channel
/// without blocking, coalescing records and cutting envelopes at the
/// max-payload high-water mark. A Flush or Shutdown ends the drain and is
/// returned, to be honoured once the records queued before it are sent; a
/// channel whose senders are all gone reads as Shutdown.
fn absorb_commands(
    link: &mut Link,
    rx: &Receiver<Cmd>,
    pool: &BatchPool,
    pending: &mut Coalescer,
    first: Option<Cmd>,
) -> Option<Cmd> {
    let mut next = first;
    loop {
        match next.take().map_or_else(|| rx.try_recv(), Ok) {
            Ok(Cmd::Publish(mut batch)) => {
                if link.shedding() {
                    shed_low_priority(link, &mut batch);
                }
                let incoming: usize = batch.iter().map(Record::approx_size).sum();
                if pending.would_overflow(incoming) {
                    send_pending(link, pending);
                }
                pending.absorb(&mut batch);
                pool_batch(pool, batch);
            }
            Ok(Cmd::PublishOne(record)) => {
                if link.shedding() && is_low_priority(&record) {
                    link.stats.records_shed.fetch_add(1, Ordering::Relaxed);
                    link.stats.records_dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    if pending.would_overflow(record.approx_size()) {
                        send_pending(link, pending);
                    }
                    pending.push(record);
                }
            }
            Ok(other) => return Some(other),
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => return Some(Cmd::Shutdown),
        }
        if pending.full() {
            send_pending(link, pending);
        }
    }
}

/// The transmitter thread. It sleeps until something can happen, in one
/// place at a time. Each turn:
///
/// 1. **Drain.** Every queued command comes off the channel without
///    blocking; the records coalesce and leave (a PUBLISH is never held
///    back). A Flush or Shutdown found there is honoured next; both block
///    by pumping until every handshake is complete.
/// 2. **Timers.** [`Link::tick`] does what came due, reading the socket
///    only at the read deadline, once per hold of the gateway's.
/// 3. **One wait.** While the gateway can have a datagram on its way
///    ([`Link::awaits_gateway`]) the wait is on the socket
///    ([`Link::service`]). Otherwise it is on the channel alone, until the
///    earliest real deadline ([`Link::next_deadline`]) — so an idle device
///    wakes for its keep-alive and for nothing else, and a record never
///    sits out a socket time-out.
///
/// A held PUBREL is no reason to wake: the next PUBLISH or PINGREQ carries
/// it, whoever blocks on a handshake releases it, and failing both it has a
/// deadline of its own, half a `Tretry`. Nor is an acknowledgement the
/// gateway holds: the device asks for it when a flush blocks
/// ([`await_gateway`]) or a PUBLISH fills half the in-flight window, and
/// otherwise the tick at the read deadline reads it, after the hold must
/// have ended.
///
/// Woken by a command, the thread yields once before draining. The capture
/// call that woke it is on the workflow's critical path and this thread is
/// not; on a single core the wake-up otherwise preempts the caller inside
/// `task.begin()`, which then waits while `begin` is encoded and sent
/// alone. After the yield the caller has finished its burst, the drain
/// sees all of it, and how many records share a message no longer depends
/// on how slow this thread is.
fn transmitter_loop(mut link: Link, rx: Receiver<Cmd>, pool: BatchPool) {
    let mut pending = Coalescer::new(link.config.max_payload);
    // A previous process's unsent spill recovered from the WAL replays
    // ahead of any new capture — disk-first, original order.
    if !link.buffer.is_empty() {
        link.replay();
        link.sync_gauges();
    }
    let mut woken_by: Option<Cmd> = None;
    loop {
        let deferred = absorb_commands(&mut link, &rx, &pool, &mut pending, woken_by.take());
        send_pending(&mut link, &mut pending);
        match deferred {
            Some(Cmd::Flush(ack)) => {
                let ok = link.drain_all(FLUSH_DRAIN_BUDGET);
                let _ = ack.send(ok);
            }
            Some(Cmd::Shutdown) => {
                let _ = link.drain_all(SHUTDOWN_GRACE);
                link.account_shutdown_loss();
                let _ = link.client.disconnect();
                return;
            }
            _ => {}
        }
        link.tick();
        if link.awaits_gateway() {
            link.service();
        } else {
            let woke = match link.next_deadline() {
                Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            // A time-out is a deadline falling due, for the next turn's
            // tick; a channel without senders is the next drain's to report.
            if let Ok(cmd) = woke {
                std::thread::yield_now();
                woken_by = Some(cmd);
            }
        }
        link.stats.wakeups.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkFault;
    use mqtt_sn::broker::BrokerConfig;
    use mqtt_sn::net::UdpBroker;
    use mqtt_sn::packet::frames;
    use mqtt_sn::{DatagramFate, DatagramFault, FaultDir, LocalSubscription, Packet};
    use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
    use std::collections::HashMap;

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

    fn spawn_loop(
        broker_addr: std::net::SocketAddr,
        client_id: &str,
        topic: &str,
        config: CaptureConfig,
        rx: Receiver<Cmd>,
        pool: BatchPool,
    ) -> (std::thread::JoinHandle<()>, Arc<StatsCell>) {
        let timeout = Duration::from_secs(5);
        let mut client =
            UdpClient::connect(broker_addr, ClientConfig::new(client_id), timeout).unwrap();
        let topic_id = client.register(topic, timeout).unwrap();
        let stats = Arc::new(StatsCell::default());
        stats.connected.store(true, Ordering::Relaxed);
        let buffer = Backlog::new(&config).unwrap();
        let thread = {
            let stats = Arc::clone(&stats);
            let topic = topic.to_owned();
            std::thread::spawn(move || {
                let link = Link::new(client, topic, topic_id, config, buffer, stats);
                transmitter_loop(link, rx, pool)
            })
        };
        (thread, stats)
    }

    /// N batches queued ahead of the transmitter wakeup coalesce into at
    /// most `ceil(total_bytes / max_payload)` publishes.
    #[test]
    fn queued_batches_coalesce_into_bounded_publishes() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let max_payload = 4096usize;
        let config = CaptureConfig {
            max_payload,
            ..CaptureConfig::default()
        };

        let n_batches = 40u64;
        let batches: Vec<Vec<Record>> = (0..n_batches).map(|i| vec![record(i, 20)]).collect();
        let total_bytes: usize = batches
            .iter()
            .flat_map(|b| b.iter())
            .map(Record::approx_size)
            .sum();

        // Pre-fill the channel before the transmitter thread exists so the
        // whole burst is visible to a single drain.
        let (tx, rx) = bounded::<Cmd>(1024);
        for batch in batches {
            tx.send(Cmd::Publish(batch)).unwrap();
        }
        let (ack_tx, ack_rx) = bounded(1);
        tx.send(Cmd::Flush(ack_tx)).unwrap();

        let pool: BatchPool = Arc::new(Mutex::new(Vec::new()));
        let (handle, _) = spawn_loop(
            broker.local_addr(),
            "coalesce",
            "provlight/test/coalesce",
            config,
            rx,
            Arc::clone(&pool),
        );
        assert!(ack_rx.recv_timeout(Duration::from_secs(20)).unwrap());
        tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();

        let publishes = broker.stats().publishes_in;
        let bound = total_bytes.div_ceil(max_payload) as u64;
        assert!(
            publishes >= 1 && publishes <= bound,
            "{n_batches} batches ({total_bytes} approx bytes) produced {publishes} publishes, \
             bound ceil(total/max_payload) = {bound}"
        );
        // Coalescing must actually have merged batches.
        assert!(publishes < n_batches);
        // Drained batch buffers were returned to the shared pool.
        assert!(!pool.lock().is_empty());
        broker.shutdown();
    }

    /// The coalescer never splits one queued batch, so a batch of values
    /// LZSS cannot shrink can encode past the UDP datagram limit. It must
    /// be split rather than killing the transmitter with a failed send.
    #[test]
    fn oversized_envelope_is_split_not_dropped() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let config = CaptureConfig::default();
        // One un-splittable batch of pseudo-random floats (7 B each on the
        // wire, incompressible) whose envelope is over 65 KB.
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let batch: Vec<Record> = (0..250)
            .map(|i| {
                let mut d = DataRecord::new(i, 1u64);
                for a in 0..40 {
                    d = d.with_attr(format!("attribute_{a}"), rng.gen::<f64>());
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
            })
            .collect();
        assert!(Envelope::encoded_len(&batch, true) > 65_000);

        let (tx, rx) = bounded::<Cmd>(16);
        tx.send(Cmd::Publish(batch)).unwrap();
        let (ack_tx, ack_rx) = bounded(1);
        tx.send(Cmd::Flush(ack_tx)).unwrap();

        let (handle, _) = spawn_loop(
            broker.local_addr(),
            "bigbatch",
            "provlight/test/bigbatch",
            config,
            rx,
            Arc::new(Mutex::new(Vec::new())),
        );
        // The flush ack arriving at all proves the thread survived the send.
        assert!(ack_rx.recv_timeout(Duration::from_secs(20)).unwrap());
        tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();

        let publishes = broker.stats().publishes_in;
        assert!(
            publishes >= 2,
            "oversized envelope was not split ({publishes} publishes)"
        );
        broker.shutdown();
    }

    /// A single record too large for any UDP datagram is dropped (and
    /// counted); the transmitter survives and later records still flow.
    #[test]
    fn unsendable_single_record_is_dropped_not_fatal() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let config = CaptureConfig::default();
        // Pseudo-random bytes: LZSS cannot bring them under the limit.
        let mut rng = StdRng::seed_from_u64(0xab);
        let digest: Vec<u8> = (0..80_000).map(|_| rng.gen::<u8>()).collect();
        let monster = Record::TaskEnd {
            task: TaskRecord {
                id: Id::Num(1),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Finished,
            },
            outputs: vec![DataRecord::new(1u64, 1u64)
                .with_attr("digest", prov_model::AttrValue::Bytes(digest))],
        };
        assert!(Envelope::encoded_len(std::slice::from_ref(&monster), true) > 65_000);

        let (tx, rx) = bounded::<Cmd>(16);
        tx.send(Cmd::PublishOne(monster)).unwrap();
        tx.send(Cmd::PublishOne(record(2, 3))).unwrap();
        let (ack_tx, ack_rx) = bounded(1);
        tx.send(Cmd::Flush(ack_tx)).unwrap();

        let (handle, stats) = spawn_loop(
            broker.local_addr(),
            "monster",
            "provlight/test/monster",
            config,
            rx,
            Arc::new(Mutex::new(Vec::new())),
        );
        assert!(ack_rx
            .recv_timeout(Duration::from_secs(20))
            .expect("transmitter must survive the unsendable record"));
        tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();

        // The normal record made it; the monster was dropped and counted.
        assert_eq!(broker.stats().publishes_in, 1);
        assert_eq!(stats.records_dropped.load(Ordering::Relaxed), 1);
        broker.shutdown();
    }

    /// `max_payload: 1` degenerates to one envelope per queued command.
    #[test]
    fn tiny_max_payload_disables_coalescing() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let config = CaptureConfig {
            max_payload: 1,
            ..CaptureConfig::default()
        };
        let (tx, rx) = bounded::<Cmd>(64);
        for i in 0..5 {
            tx.send(Cmd::PublishOne(record(i, 2))).unwrap();
        }
        let (ack_tx, ack_rx) = bounded(1);
        tx.send(Cmd::Flush(ack_tx)).unwrap();

        let (handle, _) = spawn_loop(
            broker.local_addr(),
            "nocoalesce",
            "provlight/test/nc",
            config,
            rx,
            Arc::new(Mutex::new(Vec::new())),
        );
        assert!(ack_rx.recv_timeout(Duration::from_secs(20)).unwrap());
        tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();

        assert_eq!(broker.stats().publishes_in, 5);
        broker.shutdown();
    }

    /// Records every datagram crossing one device's link, both directions,
    /// split into its messages, and lets all of them through — so it must
    /// not keep the link from going quiet either.
    #[derive(Debug, Default)]
    struct Wire(std::sync::Mutex<Vec<(Instant, FaultDir, Vec<Packet>)>>);

    impl DatagramFault for Wire {
        fn fate(&self, dir: FaultDir, datagram: &[u8]) -> DatagramFate {
            let packets = frames(datagram).map(|f| Packet::decode(f).unwrap());
            let seen = (Instant::now(), dir, packets.collect());
            self.0.lock().unwrap().push(seen);
            DatagramFate::Deliver
        }
    }

    impl Wire {
        fn datagrams(&self) -> Vec<(Instant, FaultDir, Vec<Packet>)> {
            self.0.lock().unwrap().clone()
        }

        /// When the first message matching `f` crossed, if one has.
        fn first(&self, f: impl Fn(&Packet) -> bool) -> Option<Instant> {
            let seen = self.0.lock().unwrap();
            let hit = seen.iter().find(|(_, _, packets)| packets.iter().any(&f));
            hit.map(|(at, ..)| *at)
        }

        fn count(&self, f: impl Fn(&Packet) -> bool) -> usize {
            let seen = self.0.lock().unwrap();
            seen.iter()
                .flat_map(|(.., packets)| packets)
                .filter(|p| f(p))
                .count()
        }
    }

    fn is_pubrel(p: &Packet) -> bool {
        matches!(p, Packet::PubRel { .. })
    }

    /// A gateway with a local subscription on everything and a started
    /// transmitter whose link is recorded from the first publish on.
    fn recorded_transmitter(
        id: &str,
        config: CaptureConfig,
    ) -> (UdpBroker, LocalSubscription, Transmitter, Arc<Wire>) {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let sub = gw.subscribe_local("#").unwrap();
        let wire = Arc::new(Wire::default());
        let config = CaptureConfig {
            datagram_fault: Some(LinkFault(wire.clone())),
            ..config
        };
        let topic = format!("provlight/test/{id}");
        let t = Transmitter::start(gw.local_addr(), id.into(), topic, config).unwrap();
        (gw, sub, t, wire)
    }

    fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while !f() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Task ids of the `TaskEnd` records delivered so far, in order.
    fn delivered_ids(sub: &mut LocalSubscription) -> Vec<u64> {
        let (mut batch, mut records) = (Vec::new(), Vec::new());
        sub.try_recv(&mut batch);
        let mut ids = Vec::new();
        for message in &batch {
            Envelope::decode_into(&message.payload, &mut records).unwrap();
            ids.extend(records.drain(..).map(|r| match r {
                Record::TaskEnd { task, .. } => match task.id {
                    Id::Num(n) => n,
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            }));
        }
        ids
    }

    /// The structural guard on the saving where it was missing: messages
    /// 40 ms apart — the `sparse_tasks` regime — ask for nothing, so the
    /// gateway answers once per hold, not once per message, and PUBREL k
    /// waits for a later PUBLISH to carry it however long that takes: at
    /// most three datagrams for two messages, not two per message. The
    /// flush that ends the run asks for what is held and does not return
    /// before the last one is out and answered.
    #[test]
    fn lone_messages_cost_two_datagrams() {
        const N: u64 = 50;
        let (gw, mut sub, t, wire) = recorded_transmitter("lone", CaptureConfig::default());
        for i in 0..N {
            t.publish_record(record(i, 3)).unwrap();
            std::thread::sleep(Duration::from_millis(40));
        }
        let publishes =
            |packets: &[Packet]| packets.iter().any(|p| matches!(p, Packet::Publish { .. }));
        let datagrams = wire.datagrams();
        let mut carriers = datagrams
            .iter()
            .filter(|(.., packets)| packets.iter().any(is_pubrel));
        assert!(
            carriers.all(|(.., packets)| publishes(packets)),
            "a PUBREL left alone"
        );
        assert!(wire.count(is_pubrel) < N as usize, "the last are held");
        t.flush().unwrap();
        assert_eq!(wire.count(is_pubrel), N as usize);
        assert_eq!(
            wire.count(|p| matches!(p, Packet::PubComp { .. })),
            N as usize
        );
        let datagrams = wire.datagrams().len() as u64;
        assert!(
            datagrams <= 3 * N / 2 + 8,
            "{datagrams} datagrams for {N} lone QoS 2 messages"
        );
        assert_eq!(delivered_ids(&mut sub), (0..N).collect::<Vec<_>>());
        let gateway = gw.stats();
        assert_eq!(gateway.publishes_in, N);
        assert_eq!(gateway.duplicates_suppressed, 0);
        assert_eq!(gateway.retransmissions, 0);
        // One wait on the channel for each record, and one a hold for the
        // drain at the read deadline: nothing waits on the socket.
        let stats = t.stats();
        assert!((N..=3 * N / 2 + 8).contains(&stats.wakeups), "{stats:?}");
        assert_eq!(stats.publish_failures, 0);
        t.shutdown();
        gw.shutdown();
    }

    /// The `immediate_small` pace — a task's two records in one message
    /// every 8 ms — streams. The gateway answers fewer than half the
    /// messages with a datagram, the transmitter never waits on its socket
    /// for an acknowledgement the gateway holds (one wake-up per message,
    /// not two), and the flush that ends the run asks for what is held
    /// instead of waiting the hold out. A message is what crossed the link:
    /// calls that queued while the transmitter was descheduled leave
    /// coalesced, as they are meant to.
    #[test]
    fn a_streaming_transmitter_never_waits_on_a_held_ack() {
        const N: u64 = 100;
        let (gw, mut sub, t, wire) = recorded_transmitter("stream", CaptureConfig::default());
        for i in 0..N {
            t.publish(vec![record(2 * i, 3), record(2 * i + 1, 3)])
                .unwrap();
            std::thread::sleep(Duration::from_millis(8));
        }
        let flushing = Instant::now();
        t.flush().unwrap();
        let flushed = flushing.elapsed();
        assert!(flushed < Duration::from_millis(5), "flush took {flushed:?}");
        let datagrams = wire.datagrams();
        let crossed = |dir: FaultDir| datagrams.iter().filter(move |(_, d, _)| *d == dir);
        let answers = crossed(FaultDir::Inbound).count() as u64;
        let publishes = crossed(FaultDir::Outbound)
            .flat_map(|(.., packets)| packets)
            .filter(|p| matches!(p, Packet::Publish { .. }))
            .count() as u64;
        assert!(publishes <= N, "{publishes} messages for {N} calls");
        assert!(
            answers <= publishes / 2,
            "{answers} answers to {publishes} messages"
        );
        assert_eq!(delivered_ids(&mut sub), (0..2 * N).collect::<Vec<_>>());
        let gateway = gw.stats();
        assert_eq!(gateway.publishes_in, publishes);
        assert_eq!(gateway.duplicates_suppressed, 0);
        assert_eq!(gateway.retransmissions, 0);
        let stats = t.stats();
        assert!(stats.wakeups <= N + N / 2, "{stats:?}");
        assert_eq!(stats.publish_failures, 0);
        t.shutdown();
        gw.shutdown();
    }

    /// With no flush and nothing else to send, a held PUBREL leaves alone
    /// at its own deadline — half a `Tretry` after its PUBREC, so before the
    /// retransmit timer could ask for it — and exactly once.
    #[test]
    fn lone_pubrel_leaves_by_the_hold_deadline() {
        let retry = Duration::from_millis(400);
        let config = CaptureConfig {
            retry_timeout: retry,
            ..CaptureConfig::default()
        };
        let (gw, mut sub, t, wire) = recorded_transmitter("hold", config);
        t.publish_record(record(0, 3)).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || wire.count(is_pubrel) > 0),
            "the PUBREL never left"
        );
        let pubrec = wire.first(|p| matches!(p, Packet::PubRec { .. })).unwrap();
        let held_for = wire.first(is_pubrel).unwrap() - pubrec;
        assert!(held_for >= retry / 4, "sent alone at once: {held_for:?}");
        assert!(held_for < retry, "left to the retry timer: {held_for:?}");
        // Past the slot's retransmit time: the handshake is over, the
        // timer found nothing.
        std::thread::sleep(retry);
        assert_eq!(wire.count(is_pubrel), 1);
        assert_eq!(wire.datagrams().len(), 4);
        assert_eq!(delivered_ids(&mut sub), [0]);
        assert_eq!(gw.stats().retransmissions, 0);
        assert_eq!(gw.stats().duplicates_suppressed, 0);
        t.shutdown();
        gw.shutdown();
    }

    /// The keep-alive is a carrier like any other: a device that goes
    /// silent after one message sends `[PUBREL, PINGREQ]` when the
    /// keep-alive falls due (here long before the hold deadline), and the
    /// gateway answers both in one datagram.
    #[test]
    fn pingreq_carries_a_held_pubrel() {
        let config = CaptureConfig {
            keep_alive: Duration::from_secs(1),
            ..CaptureConfig::default()
        };
        let (gw, _sub, t, wire) = recorded_transmitter("ping", config);
        t.publish_record(record(0, 3)).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || wire.datagrams().len() >= 4),
            "no keep-alive exchange: {:?}",
            wire.datagrams()
        );
        let shapes: Vec<(FaultDir, Vec<Packet>)> = wire
            .datagrams()
            .into_iter()
            .map(|(_, dir, packets)| (dir, packets))
            .collect();
        let id = match shapes[1].1[..] {
            [Packet::PubRec { msg_id }] => msg_id,
            ref other => panic!("unexpected {other:?}"),
        };
        assert!(matches!(shapes[0].1[..], [Packet::Publish { .. }]));
        assert_eq!(
            shapes[2..],
            [
                (
                    FaultDir::Outbound,
                    vec![Packet::PubRel { msg_id: id }, Packet::PingReq]
                ),
                (
                    FaultDir::Inbound,
                    vec![Packet::PubComp { msg_id: id }, Packet::PingResp]
                ),
            ]
        );
        t.shutdown();
        gw.shutdown();
    }

    /// An idle device is idle: connected, everything acknowledged, default
    /// configuration — two seconds pass without a datagram and (almost)
    /// without the thread waking. The fixed poll woke it ≈ 120 times.
    #[test]
    fn idle_link_sleeps() {
        let (gw, _sub, t, wire) = recorded_transmitter("idle", CaptureConfig::default());
        t.publish_record(record(0, 3)).unwrap();
        t.flush().unwrap();
        let (before, datagrams) = (t.stats(), wire.datagrams().len());
        std::thread::sleep(Duration::from_secs(2));
        let after = t.stats();
        assert_eq!(wire.datagrams().len(), datagrams, "idle datagrams");
        assert!(
            after.wakeups - before.wakeups <= 3,
            "{} wake-ups in 2 s of nothing",
            after.wakeups - before.wakeups
        );
        assert!(after.connected);
        t.shutdown();
        gw.shutdown();
    }

    /// Sleeping on the channel does not mean sleeping through a scheduled
    /// reconnection: once the device has found the gateway dead, the next
    /// CONNECT goes out when the backoff says, not when the workflow
    /// happens to capture again.
    #[test]
    fn disconnected_link_wakes_for_its_reconnect_attempt() {
        let config = CaptureConfig::default();
        let backoff = config.reconnect_initial_backoff;
        let (gw, _sub, t, wire) = recorded_transmitter("dead", config);
        t.publish_record(record(0, 3)).unwrap();
        t.flush().unwrap();
        gw.shutdown();
        // The last capture call: its PUBLISH meets a closed port.
        t.publish_record(record(1, 3)).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || !t.stats().connected),
            "transmitter never noticed the dead gateway"
        );
        let noticed = Instant::now();
        let is_connect = |p: &Packet| matches!(p, Packet::Connect { .. });
        assert!(
            wait_until(Duration::from_secs(5), || wire.count(is_connect) > 0),
            "no reconnection attempt without a capture call"
        );
        let waited = wire.first(is_connect).unwrap() - noticed;
        let bound = backoff.mul_f64(1.0 + RECONNECT_JITTER) + Duration::from_millis(250);
        assert!(waited <= bound, "reconnect attempt after {waited:?}");
        assert_eq!(t.stats().records_dropped, 0);
        drop(t);
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
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = gw.subscribe_local("#").unwrap();
        let topic = "provlight/test/restart".to_owned();
        let config = CaptureConfig::default();
        let t = Transmitter::start(addr, "restart".into(), topic, config).unwrap();
        for i in 0..10 {
            t.publish_record(record(i, 3)).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(delivered_ids(&mut sub), (0..10).collect::<Vec<_>>());
        gw.shutdown();

        let fresh = UdpBroker::spawn(addr, BrokerConfig::default()).unwrap();
        let mut sub = fresh.subscribe_local("#").unwrap();
        for i in 10..40 {
            t.publish_record(record(i, 3)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        t.flush().unwrap();
        assert_eq!(delivered_ids(&mut sub), (10..40).collect::<Vec<_>>());
        let stats = t.stats();
        assert_eq!(stats.reconnects, 1, "{stats:?}");
        assert_eq!(stats.records_dropped, 0, "{stats:?}");
        assert!(stats.publish_failures > 0, "{stats:?}");
        assert!(stats.connected);
        t.shutdown();
        fresh.shutdown();
    }

    /// A backlog with RAM caps of `max_records` and `max_bytes` and no
    /// spill log.
    fn ram_backlog(max_records: usize, max_bytes: usize) -> Backlog {
        Backlog::new(&CaptureConfig {
            buffer_max_records: max_records,
            buffer_max_bytes: max_bytes,
            ..CaptureConfig::default()
        })
        .unwrap()
    }

    /// A fresh directory for a spill log, unique to this process and `tag`.
    fn spill_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("provlight-backlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disconnection_buffer_evicts_oldest_first_with_accounting() {
        let mut b = ram_backlog(10, 1 << 20);
        for i in 0..5u8 {
            b.push_back(vec![i; 8], 2);
            assert_eq!(b.drain_drops(), 0);
        }
        assert_eq!(b.records(), 10);
        // Over the record cap: the two oldest envelopes (4 records) must
        // go to make room for a 3-record newcomer.
        b.push_back(vec![9; 8], 3);
        assert_eq!(b.drain_drops(), 4);
        assert_eq!(b.records(), 9);
        // Order preserved: the survivor head is envelope #2.
        assert_eq!(b.pop_front().unwrap().0, vec![2; 8]);
    }

    #[test]
    fn disconnection_buffer_byte_cap_and_oversized_rejection() {
        let mut b = ram_backlog(1000, 64);
        b.push_back(vec![1; 40], 1);
        assert_eq!(b.drain_drops(), 0);
        // 40 + 40 > 64: the first envelope is evicted.
        b.push_back(vec![2; 40], 1);
        assert_eq!(b.drain_drops(), 1);
        assert_eq!(b.bytes(), 40);
        // A single envelope over the byte cap is rejected outright (its own
        // records counted dropped) WITHOUT evicting the resident envelope —
        // no amount of eviction could ever make it fit.
        b.push_back(vec![3; 100], 7);
        assert_eq!(b.drain_drops(), 7);
        assert_eq!(b.records(), 1);
        assert_eq!(b.pop_front().unwrap().0, vec![2; 40]);
    }

    #[test]
    fn disconnection_buffer_push_front_restores_order() {
        let mut b = ram_backlog(10, 1 << 20);
        b.push_back(vec![2], 1);
        b.push_back(vec![3], 1);
        b.push_front(vec![1], 1);
        assert_eq!(b.pop_front().unwrap().0, vec![1]);
        assert_eq!(b.pop_front().unwrap().0, vec![2]);
        assert_eq!(b.pop_front().unwrap().0, vec![3]);
        assert!(b.pop_front().is_none());
    }

    /// The backlog against a model, on seeded random schedules: each step
    /// pushes an envelope of random size and record count (some over a RAM
    /// cap by themselves), puts the last one popped back at the front, or
    /// pops. Every odd seed has a spill log with room to spare. After every
    /// step, every record pushed has been popped, dropped or is held;
    /// envelopes pop whole and in push order; RAM keeps both caps; and with
    /// the log nothing is dropped. Closing then drops what is held, or
    /// leaves it in the log for the next process.
    #[test]
    fn prop_backlog_keeps_order_caps_and_every_record() {
        const MAX_RECORDS: usize = 8;
        const MAX_BYTES: usize = 256;
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = (seed % 2 == 1).then(|| spill_dir(&format!("model-{seed}")));
            let config = CaptureConfig {
                buffer_max_records: MAX_RECORDS,
                buffer_max_bytes: MAX_BYTES,
                spill_dir: dir.clone(),
                spill_segment_bytes: 1024,
                ..CaptureConfig::default()
            };
            let mut b = Backlog::new(&config).unwrap();
            // Each envelope leads with its sequence number.
            let mut shapes: HashMap<u64, (usize, usize)> = HashMap::new();
            let (mut pushed, mut popped, mut dropped) = (0u64, 0u64, 0u64);
            let mut last_out: Option<u64> = None;
            let mut out: Option<(Vec<u8>, usize)> = None;
            let mut put_back: Option<u64> = None;
            for step in 0..300 {
                match rng.gen_range(0..10) {
                    0..=4 => {
                        let seq = shapes.len() as u64;
                        let len = rng.gen_range(8..301) as usize;
                        let records = rng.gen_range(1..11) as usize;
                        let mut payload = seq.to_le_bytes().to_vec();
                        payload.resize(len, seq as u8);
                        shapes.insert(seq, (len, records));
                        b.push_back(payload, records);
                        pushed += records as u64;
                    }
                    5 if out.is_some() => {
                        let (payload, records) = out.take().unwrap();
                        put_back = Some(u64::from_le_bytes(payload[..8].try_into().unwrap()));
                        popped -= records as u64;
                        b.push_front(payload, records);
                    }
                    _ => match b.pop_front() {
                        Some((payload, records)) => {
                            let seq = u64::from_le_bytes(payload[..8].try_into().unwrap());
                            assert_eq!(shapes[&seq], (payload.len(), records), "seed {seed}");
                            let expected = put_back.take();
                            assert!(
                                expected.map_or(last_out < Some(seq), |e| e == seq),
                                "seed {seed} step {step}: {seq} after {last_out:?}"
                            );
                            last_out = last_out.max(Some(seq));
                            popped += records as u64;
                            out = Some((payload, records));
                        }
                        None => assert!(b.is_empty(), "seed {seed} step {step}"),
                    },
                }
                dropped += b.drain_drops();
                let held = b.records() as u64;
                assert_eq!(pushed, popped + dropped + held, "seed {seed} step {step}");
                assert!(b.ram.records <= MAX_RECORDS && b.ram.bytes <= MAX_BYTES);
                if dir.is_some() {
                    assert_eq!(dropped, 0, "seed {seed} step {step}");
                }
            }
            let held = b.records() as u64;
            b.close();
            dropped += b.drain_drops();
            drop(b);
            match &dir {
                Some(dir) => {
                    assert_eq!(Backlog::new(&config).unwrap().records() as u64, held);
                    let _ = std::fs::remove_dir_all(dir);
                }
                None => assert_eq!(pushed, popped + dropped, "seed {seed}"),
            }
        }
    }

    /// Shedding answers RAM pressure alone: records in the spill log, here
    /// two a previous process left there, are no reason to shed.
    #[test]
    fn a_spilled_backlog_with_empty_ram_does_not_shed() {
        let dir = spill_dir("shed");
        let mut wal = Wal::open(WalConfig::new(&dir)).unwrap();
        wal.append(&[1], 1).unwrap();
        wal.append(&[2], 1).unwrap();
        wal.sync().unwrap();
        drop(wal);
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let config = CaptureConfig {
            buffer_max_records: 4,
            spill_dir: Some(dir.clone()),
            ..CaptureConfig::default()
        };
        let mut link = test_link(&broker, "spilled", config);
        assert_eq!(link.buffer.records(), 2);
        assert_eq!(link.buffer.ram.records, 0);
        link.note_congestion(2);
        assert!(!link.shedding(), "RAM is empty, yet begin edges are shed");
        broker.shutdown();
        drop(link);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jittered_backoff_stays_within_the_window() {
        let mut rng = StdRng::seed_from_u64(7);
        let base = Duration::from_millis(1000);
        let (lo, hi) = (Duration::from_millis(750), Duration::from_millis(1250));
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let d = jitter_backoff(base, &mut rng);
            assert!(d >= lo && d <= hi, "jitter out of window: {d:?}");
            distinct.insert(d);
        }
        assert!(
            distinct.len() > 100,
            "jitter not spreading: {}",
            distinct.len()
        );
        // Two devices that disconnect at the same instant draw different
        // jitter streams (the stampede case entropy_seed exists for).
        assert_ne!(entropy_seed(), entropy_seed());
    }

    fn test_link(broker: &UdpBroker, id: &str, config: CaptureConfig) -> Link {
        let client = UdpClient::connect(
            broker.local_addr(),
            ClientConfig::new(id),
            Duration::from_secs(5),
        )
        .unwrap();
        let buffer = Backlog::new(&config).unwrap();
        Link::new(
            client,
            "provlight/test/pace".into(),
            1,
            config,
            buffer,
            Arc::new(StatsCell::default()),
        )
    }

    #[test]
    fn congestion_pacing_state_machine() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        // Tiny RAM cap so a single buffered record counts as pressure.
        let config = CaptureConfig {
            buffer_max_records: 2,
            ..CaptureConfig::default()
        };
        let mut link = test_link(&broker, "pace", config);
        assert!(!link.paced());

        // A soft advisory alone does not block — the window arms on the
        // next send, metering from that point on.
        link.note_congestion(1);
        assert!(!link.paced());
        link.arm_pace();
        assert!(link.paced());
        // A send inside the window routes to the buffer and is metered.
        assert!(!link.send_payload(vec![0u8; 4], 1, false));
        assert_eq!(link.stats.paced_sends.load(Ordering::Relaxed), 1);
        assert!(!link.shedding(), "soft congestion never sheds");

        // Hard congestion with a formed backlog sheds begin edges.
        link.note_congestion(2);
        link.buffer.push_back(vec![0u8; 4], 1);
        assert!(link.shedding());

        // The clear advisory reopens the window immediately.
        link.note_congestion(0);
        assert!(!link.paced());
        assert!(!link.shedding());
        assert_eq!(link.stats.congestion_signals.load(Ordering::Relaxed), 3);
        broker.shutdown();
    }

    #[test]
    fn begin_edges_are_low_priority_and_shed_exactly() {
        let begin = Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(7),
                workflow: Id::Num(1),
                transformation: Id::Num(0),
                dependencies: vec![],
                time_ns: 0,
                status: TaskStatus::Running,
            },
            inputs: vec![],
        };
        let wf_begin = Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 0,
        };
        let wf_end = Record::WorkflowEnd {
            workflow: Id::Num(1),
            time_ns: 1,
        };
        assert!(is_low_priority(&begin));
        assert!(is_low_priority(&wf_begin));
        assert!(!is_low_priority(&wf_end));
        assert!(!is_low_priority(&record(1, 0)));

        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let link = test_link(&broker, "shed", CaptureConfig::default());
        let mut batch = vec![begin, record(1, 0), wf_begin, wf_end];
        shed_low_priority(&link, &mut batch);
        assert_eq!(batch.len(), 2, "both end edges survive");
        assert_eq!(link.stats.records_shed.load(Ordering::Relaxed), 2);
        assert_eq!(link.stats.records_dropped.load(Ordering::Relaxed), 2);
        broker.shutdown();
    }
}
