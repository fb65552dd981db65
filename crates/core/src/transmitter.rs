//! The asynchronous transmitter (real mode): a thread that drives the
//! device end.
//!
//! Capture calls must not block the workflow on network I/O — the paper's
//! key design choice. The instrumentation thread only moves records into a
//! channel. The transmitter thread owns what a [`Device`] does not: the
//! socket (one [`Endpoint`], the datagram seam the gateway uses too), the
//! channel and the clock. Everything it decides — coalescing, the backlog,
//! congestion pacing, reconnection with back-off, replay, when to wait on
//! the socket and for how long — the device decides, on `now`, with no
//! socket of its own (see [`crate::device`]). The thread keeps the
//! connection open across messages (connection reuse, §VII-A) and
//! publishes at QoS 2 (exactly once, the paper's QoS and the only one a
//! device uses).
//!
//! Starting waits on no round trip: the first connection is the device's
//! first reconnect attempt. [`Transmitter::start`] dials, sends the
//! CONNECT from the caller's thread and spawns the thread, which finishes
//! the handshake as it would after an outage; what is captured meanwhile
//! waits in the backlog and replays in capture order.
//!
//! Drained record `Vec`s return to a pool shared with the capture side
//! (the grouper refills from it), and the codec scratch (string table,
//! compression tables) lives in thread-locals on the transmitter thread,
//! so the steady state allocates nothing per record beyond what the
//! MQTT-SN client spends.

use crate::api::CaptureError;
use crate::config::CaptureConfig;
use crate::device::{client_config, Device, Nanos};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use mqtt_sn::net::{dial, Endpoint};
use mqtt_sn::session::Session;
use mqtt_sn::{DatagramFault, NetError};
use parking_lot::Mutex;
use prov_model::Record;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::device::TransmitterStats;

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

/// Upper bound on pooled batch buffers.
const MAX_POOLED_BATCHES: usize = 8;

/// How long a flush waits (inside the thread) for reconnect + replay +
/// acknowledgement before reporting failure. `Transmitter::flush` itself
/// waits slightly longer so the thread always answers first.
const FLUSH_DRAIN_BUDGET: Duration = Duration::from_secs(25);

/// How long shutdown tries to deliver outstanding data before dropping it
/// (or, with a spill WAL configured, persisting it for the next process).
const SHUTDOWN_GRACE: Duration = Duration::from_secs(2);

/// A cheap per-call entropy seed for back-off jitter: wall clock nanos
/// mixed with a process-wide counter, so simultaneous callers (the stampede
/// case) still draw distinct jitter streams. Not cryptographic.
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

/// Handle to the background transmitter thread.
pub struct Transmitter {
    tx: Sender<Cmd>,
    thread: Option<std::thread::JoinHandle<()>>,
    pool: BatchPool,
    stats: Arc<Mutex<TransmitterStats>>,
}

impl Transmitter {
    /// Starts the device end of `topic` without waiting on the gateway:
    /// dials it, builds the [`Device`], sends its CONNECT from here, so the
    /// gateway answers while the one transmitter thread spawns, and returns
    /// with the device able to capture. The thread finishes the handshake
    /// (the CONNACK, then the REGISTER it draws); records captured before
    /// the link is up wait in the backlog and replay in capture order.
    ///
    /// Fails only on a local error: no socket could be had, the spill
    /// directory cannot be opened, the thread cannot be spawned. A gateway
    /// that is absent or refuses the device is a link that is down, as
    /// after an outage: records buffer, the device keeps dialing with its
    /// back-off, and [`Transmitter::flush`] reports what stays buffered.
    pub fn start(
        broker: SocketAddr,
        client_id: String,
        topic: String,
        config: CaptureConfig,
    ) -> Result<Transmitter, NetError> {
        let driver = Driver::dial(broker, client_id, topic, config, entropy_seed())?;
        let stats = driver.device.published_stats();

        // Bound the channel so a dead network eventually applies
        // backpressure instead of exhausting memory (the send-buffer role
        // of the simulation model).
        let (tx, rx) = bounded::<Cmd>(1024);
        let pool: BatchPool = Arc::new(Mutex::with_rank(parking_lot::rank::POOL, Vec::new()));
        let thread = {
            let pool = Arc::clone(&pool);
            std::thread::Builder::new().spawn(move || driver.run(rx, pool))?
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
        *self.stats.lock()
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
                self.stats.lock().buffered_records
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

/// Returns a drained batch buffer to the shared pool.
fn pool_batch(pool: &BatchPool, batch: Vec<Record>) {
    debug_assert!(batch.is_empty());
    let mut pool = pool.lock();
    if pool.len() < MAX_POOLED_BATCHES {
        pool.push(batch);
    }
}

/// What the transmitter thread owns around its [`Device`]: the socket, the
/// gateway's address, the clock the device's session runs on, and the
/// fault plan (chaos only) until the link first comes up.
struct Driver {
    endpoint: Endpoint,
    broker: SocketAddr,
    start: Instant,
    device: Device,
    fault: Option<Arc<dyn DatagramFault>>,
}

/// Nanoseconds since `start`: `now` for the device.
fn since(start: Instant) -> Nanos {
    start.elapsed().as_nanos() as Nanos
}

impl Driver {
    /// Dials `broker`, builds the device and sends its CONNECT: the first
    /// connection is the device's first attempt, and the driver finishes
    /// it as it would a reconnect. Errs only when no socket can be had or
    /// the spill log cannot be opened; the device is built before any
    /// thread exists, so neither fails silently into RAM-only buffering.
    fn dial(
        broker: SocketAddr,
        client_id: String,
        topic: String,
        mut config: CaptureConfig,
        seed: u64,
    ) -> Result<Driver, NetError> {
        let mut endpoint = Endpoint::new(dial(broker)?, None)?;
        // The fault plan shapes steady-state traffic, not whether the
        // device can connect: it goes in at the first link-up.
        let fault = config.datagram_fault.take().map(|f| f.0);
        let session = Session::new(client_config(client_id, &config));
        let mut device = Device::new(session, topic, config, seed)?;
        let start = Instant::now();
        let send = &mut |d: &[u8]| endpoint.send(broker, d);
        device.dialed(Ok(()), since(start), send);
        Ok(Driver {
            endpoint,
            broker,
            start,
            device,
            fault,
        })
    }

    /// When the device, or a datagram the fault plan delays (chaos only),
    /// next has something to do; `None`: nothing is scheduled.
    fn next_deadline(&self) -> Option<Instant> {
        let device = self.device.next_deadline();
        let device = device.and_then(|ns| self.start.checked_add(Duration::from_nanos(ns)));
        device.into_iter().chain(self.endpoint.next_release()).min()
    }

    /// Takes `first` and every command queued behind it off the channel
    /// without blocking, while the device takes capture: the records
    /// coalesce, cutting envelopes at the max-payload high-water mark. A
    /// Flush or Shutdown ends the drain and is returned, to be honoured
    /// once the records queued before it are sent; a channel whose senders
    /// are all gone reads as Shutdown.
    fn absorb_commands(
        &mut self,
        rx: &Receiver<Cmd>,
        pool: &BatchPool,
        first: Option<Cmd>,
    ) -> Option<Cmd> {
        let mut next = first;
        loop {
            let cmd = match next.take() {
                Some(cmd) => cmd,
                None if !self.device.takes_capture() => return None,
                None => match rx.try_recv() {
                    Ok(cmd) => cmd,
                    Err(TryRecvError::Empty) => return None,
                    Err(TryRecvError::Disconnected) => return Some(Cmd::Shutdown),
                },
            };
            let now = since(self.start);
            let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
            match cmd {
                Cmd::Publish(mut batch) => {
                    self.device.capture(&mut batch, now, send);
                    pool_batch(pool, batch);
                }
                Cmd::PublishOne(record) => self.device.capture_one(record, now, send),
                other => return Some(other),
            }
        }
    }

    /// One read of the socket, then [`Device::poll`]. With `wait`, the
    /// device asks for what the gateway may hold ([`Device::ask`]) — after
    /// taking what already sits in the socket, when it would ask: the
    /// PUBRELs that answer that may be the ask — and while a reply is
    /// still expected the read blocks for a datagram, up to the
    /// endpoint's read time-out, then takes what else has queued. Without,
    /// it takes only the datagrams the fault plan delayed that came off
    /// hold and — once per hold of the gateway's, at the device's read
    /// deadline — what the gateway's held acknowledgements left queued; an
    /// attempt to connect that fell due first gets a new socket under the
    /// link.
    fn read(&mut self, wait: bool) {
        let now = since(self.start);
        if self.device.redial_due(now) {
            let dialed = dial(self.broker).and_then(|socket| self.endpoint.replace_socket(socket));
            let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
            self.device.dialed(dialed, now, send);
        }
        let drain = !wait && self.device.drain_due(now);
        if wait {
            if self.device.would_ask() {
                let (device, start) = (&mut self.device, self.start);
                let queued = self
                    .endpoint
                    .drain(0, |_, datagram| device.hear(datagram, since(start)));
                self.poll(queued);
            }
            let now = since(self.start);
            let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
            self.device.ask(now, send);
            if !self.device.awaits_gateway() {
                return;
            }
        }
        let (device, start) = (&mut self.device, self.start);
        let mut heard = |_, datagram: &[u8]| device.hear(datagram, since(start));
        let mut read = match wait {
            true => self.endpoint.read(&mut heard),
            false => self.endpoint.release_due(&mut heard),
        };
        if drain && read.is_ok() {
            read = self.endpoint.drain(0, &mut heard);
        }
        self.poll(read);
    }

    /// [`Device::poll`] after a read that ended in `read`. The fault plan
    /// goes in once the link first comes up, before anything is sent on
    /// it.
    fn poll(&mut self, read: std::io::Result<()>) {
        let now = since(self.start);
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        self.device.poll(read, now, send);
        if self.device.is_up() {
            if let Some(fault) = self.fault.take() {
                self.endpoint.set_fault(fault);
            }
        }
    }

    /// Works toward a full drain until `budget` expires: waits on the
    /// socket while the link is up or a reconnect attempt is under way,
    /// and until the next attempt falls due while it is down.
    fn drain(&mut self, budget: Duration) -> bool {
        let deadline = Instant::now() + budget;
        loop {
            self.read(false);
            if self.device.drained() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            if self.device.is_down() {
                let until = self.next_deadline().map_or(deadline, |at| at.min(deadline));
                std::thread::sleep(until.saturating_duration_since(now));
            } else {
                self.read(true);
            }
        }
    }

    /// The transmitter thread. It sleeps until something can happen, in one
    /// place at a time. Each turn:
    ///
    /// 1. **Drain.** Every queued command comes off the channel without
    ///    blocking, while the device takes capture; the records coalesce
    ///    and leave (a PUBLISH is never held back). A Flush or Shutdown
    ///    found there is honoured next; both block in [`Driver::drain`]
    ///    until every handshake is complete.
    /// 2. **Timers.** [`Driver::read`] without a wait does what came due,
    ///    reading the socket only at the read deadline, once per hold of
    ///    the gateway's.
    /// 3. **One wait.** While the gateway can have a datagram on its way
    ///    ([`Device::awaits_gateway`]) the wait is on the socket
    ///    ([`Driver::read`] with one). Otherwise it is on the channel alone,
    ///    until the earliest real deadline ([`Device::next_deadline`]) —
    ///    so an idle device wakes for its keep-alive and for nothing else,
    ///    and a record never sits out a socket time-out.
    ///
    /// A held PUBREL is no reason to wake: the next PUBLISH or PINGREQ
    /// carries it, whoever blocks on a handshake releases it, and failing
    /// both it has a deadline of its own, half a `Tretry`. Nor is an
    /// acknowledgement the gateway holds: the device asks for it when a
    /// flush blocks or a PUBLISH fills half the in-flight window, and
    /// otherwise the drain at the read deadline reads it, after the hold
    /// must have ended.
    ///
    /// Woken by a command, the thread yields once before draining. The
    /// capture call that woke it is on the workflow's critical path and
    /// this thread is not; on a single core the wake-up otherwise preempts
    /// the caller inside `task.begin()`, which then waits while `begin` is
    /// encoded and sent alone. After the yield the caller has finished its
    /// burst, the drain sees all of it, and how many records share a
    /// message no longer depends on how slow this thread is.
    fn run(mut self, rx: Receiver<Cmd>, pool: BatchPool) {
        // The CONNECT is out; a previous process's unsent spill recovered
        // from the WAL replays once the link is up, ahead of any new
        // capture — disk-first, original order.
        self.read(false);
        let mut woken_by: Option<Cmd> = None;
        loop {
            let deferred = self.absorb_commands(&rx, &pool, woken_by.take());
            let now = since(self.start);
            let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
            self.device.cut(now, send);
            match deferred {
                Some(Cmd::Flush(ack)) => {
                    let ok = self.drain(FLUSH_DRAIN_BUDGET);
                    let _ = ack.send(ok);
                }
                Some(Cmd::Shutdown) => {
                    let _ = self.drain(SHUTDOWN_GRACE);
                    let now = since(self.start);
                    let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
                    self.device.close(now, send);
                    return;
                }
                _ => {}
            }
            self.read(false);
            if self.device.awaits_gateway() {
                self.read(true);
            } else {
                let woke = match self.next_deadline() {
                    Some(at) => rx.recv_timeout(at.saturating_duration_since(Instant::now())),
                    None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                };
                // A time-out is a deadline falling due, for the next turn;
                // a channel without senders is the next drain's to report.
                if let Ok(cmd) = woke {
                    std::thread::yield_now();
                    woken_by = Some(cmd);
                }
            }
            self.device.count_wakeup();
        }
    }
}

/// The transmitter over real sockets and real time. The device's logic is
/// tested on virtual time in `device::tests`, several cases under the same
/// names as here; the backlog's, the pacing's and the back-off's own cases
/// stay here.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LinkFault;
    use crate::device::{
        is_low_priority, jitter_backoff, shed_low_priority, Backlog, RECONNECT_JITTER,
    };
    use mqtt_sn::broker::BrokerConfig;
    use mqtt_sn::net::UdpBroker;
    use mqtt_sn::packet::frames;
    use mqtt_sn::session::Session;
    use mqtt_sn::{ClientConfig, DatagramFate, DatagramFault, FaultDir, LocalSubscription, Packet};
    use prov_codec::frame::Envelope;
    use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
    use prov_wal::{Wal, WalConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
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
    ) -> (std::thread::JoinHandle<()>, Arc<Mutex<TransmitterStats>>) {
        let (id, topic) = (client_id.to_owned(), topic.to_owned());
        let driver = Driver::dial(broker_addr, id, topic, config, 1).unwrap();
        let stats = driver.device.published_stats();
        (std::thread::spawn(move || driver.run(rx, pool)), stats)
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
        assert_eq!(stats.lock().records_dropped, 1);
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

    /// A device that boots before its gateway captures from its first
    /// call: `start` waits on no round trip, so while the device dials a
    /// port where nothing listens yet, its records wait in the backlog.
    /// Once a gateway starts there, every record reaches it once and in
    /// capture order, none dropped, and the first connection is no
    /// reconnect.
    #[test]
    fn a_device_that_boots_before_its_gateway_captures_from_the_start() {
        let free = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = free.local_addr().unwrap();
        drop(free);
        let topic = "provlight/test/early".to_owned();
        let config = CaptureConfig::default();
        let t = Transmitter::start(addr, "early".into(), topic, config).unwrap();
        for i in 0..20 {
            t.publish_record(record(i, 3)).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(!t.stats().connected);
        let gw = UdpBroker::spawn(addr, BrokerConfig::default()).unwrap();
        let mut sub = gw.subscribe_local("#").unwrap();
        t.flush().unwrap();
        assert_eq!(delivered_ids(&mut sub), (0..20).collect::<Vec<_>>());
        let stats = t.stats();
        assert_eq!(stats.records_dropped, 0, "{stats:?}");
        assert_eq!(stats.reconnects, 0, "{stats:?}");
        assert!(stats.connected);
        assert_eq!(gw.stats().duplicates_suppressed, 0);
        t.shutdown();
        gw.shutdown();
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
        let config = CaptureConfig {
            buffer_max_records: 4,
            spill_dir: Some(dir.clone()),
            ..CaptureConfig::default()
        };
        let mut device = test_device("spilled", config);
        assert_eq!(device.buffer.records(), 2);
        assert_eq!(device.buffer.ram.records, 0);
        device.note_congestion(2, 0);
        assert!(!device.shedding(), "RAM is empty, yet begin edges are shed");
        drop(device);
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

    /// A device whose link is up, with no gateway and no socket: what it
    /// sends goes nowhere, and the CONNACK and REGACK it is told of come
    /// from no one.
    fn test_device(id: &str, config: CaptureConfig) -> Device {
        let session = Session::new(ClientConfig::new(id));
        let mut device = Device::new(session, "provlight/test/pace".into(), config, 1).unwrap();
        let mut sent = Vec::new();
        let mut sink = |d: &[u8]| {
            sent.push(Packet::decode(d).unwrap());
            Ok(())
        };
        let accepted = mqtt_sn::ReturnCode::Accepted;
        device.dialed(Ok(()), 0, &mut sink);
        device.hear(&Packet::ConnAck { code: accepted }.encode(), 0);
        device.poll(Ok(()), 0, &mut sink);
        let msg_id = match sent.last() {
            Some(Packet::Register { msg_id, .. }) => *msg_id,
            other => panic!("no REGISTER at the CONNACK: {other:?}"),
        };
        let regack = Packet::RegAck {
            topic_id: 1,
            msg_id,
            code: accepted,
        };
        device.hear(&regack.encode(), 0);
        device.poll(Ok(()), 0, &mut |_: &[u8]| Ok(()));
        assert!(device.is_up());
        device
    }

    #[test]
    fn congestion_pacing_state_machine() {
        // Tiny RAM cap so a single buffered record counts as pressure.
        let config = CaptureConfig {
            buffer_max_records: 2,
            ..CaptureConfig::default()
        };
        let mut device = test_device("pace", config);
        let now = 0;
        assert!(!device.paced(now));

        // A soft advisory alone does not block — the window arms on the
        // next send, metering from that point on.
        device.note_congestion(1, now);
        assert!(!device.paced(now));
        device.arm_pace(now);
        assert!(device.paced(now));
        // A send inside the window routes to the buffer and is metered.
        let nowhere = &mut |_: &[u8]| Ok(());
        assert!(!device.send_payload(vec![0u8; 4], 1, false, now, nowhere));
        assert_eq!(device.stats().paced_sends, 1);
        assert!(!device.shedding(), "soft congestion never sheds");

        // Hard congestion with a formed backlog sheds begin edges.
        device.note_congestion(2, now);
        device.buffer.push_back(vec![0u8; 4], 1);
        assert!(device.shedding());

        // The clear advisory reopens the window immediately.
        device.note_congestion(0, now);
        assert!(!device.paced(now));
        assert!(!device.shedding());
        assert_eq!(device.stats().congestion_signals, 3);
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

        let mut stats = TransmitterStats::default();
        let mut batch = vec![begin, record(1, 0), wf_begin, wf_end];
        shed_low_priority(&mut stats, &mut batch);
        assert_eq!(batch.len(), 2, "both end edges survive");
        assert_eq!(stats.records_shed, 2);
        assert_eq!(stats.records_dropped, 2);
    }
}
