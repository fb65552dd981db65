//! Real-socket bindings of the sans-io cores.
//!
//! [`UdpBroker`] is the gateway: one [`broker::Broker`](crate::broker::Broker)
//! behind one `std::net::UdpSocket`, served by one loop on one thread;
//! [`UdpClient`] is a blocking client for an application to drive. These
//! make the library usable outside the simulator — the integration tests
//! exercise full QoS 2 capture over loopback UDP.
//!
//! Both ends talk to their socket through one [`Endpoint`]: the 10 ms read
//! timeout, the wait-then-drain read, the fault plan's fate for every
//! datagram each way (with the datagrams it delays), and the sends it is
//! told to make. What is each end's own sits above it: the broker lock for
//! the gateway; the sans-io [`Session`] and the blocking API for the
//! device, or a driver of its own around an endpoint and a session.
//! What either end holds back, and when it leaves, is decided in
//! [`crate::hold`], which hands the datagrams to send to the endpoint.

use crate::broker::{wire, Broker, BrokerConfig, BrokerOutputs, BrokerStats};
use crate::client::{ClientConfig, ClientEvent, Nanos, Output};
use crate::hold::GatewayHold;
use crate::local::LocalSubscription;
use crate::packet::{frames, QoS, TopicRef};
use crate::session::Session;
use crate::Error;
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Direction of a datagram crossing a faulted transport seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDir {
    /// Arrived from the wire, about to be processed.
    Inbound,
    /// About to be written to the socket.
    Outbound,
}

/// What a fault plan decided to do with one datagram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatagramFate {
    /// Pass through untouched.
    Deliver,
    /// Drop silently — packet loss, or a partition when sustained.
    Drop,
    /// Deliver now and once more immediately after (duplication).
    Duplicate,
    /// Hold for the duration, then deliver. Later datagrams overtake a
    /// held one, so reordering falls out of delay for free.
    Delay(Duration),
}

/// The datagram fault-injection seam.
///
/// The trait lives here — next to the transports that consult it — rather
/// than in the chaos crate, for the same layering reason as
/// [`prov_wal::IoFault`]: `mqtt_sn` stays dependency-light while
/// `prov-chaos` implements the trait from a seeded, deterministic plan.
/// Production paths pass no fault and pay nothing; a gateway built with
/// [`GatewayBuilder::faults`] or a client after [`UdpClient::set_fault`]
/// consults `fate` for every datagram in both directions.
///
/// Implementations are called from transport threads and must be
/// `Send + Sync`; determinism (for reproducible chaos runs) is the
/// implementor's contract, typically a seeded RNG behind a mutex.
pub trait DatagramFault: Send + Sync + std::fmt::Debug {
    /// Decides the fate of one datagram.
    fn fate(&self, dir: FaultDir, datagram: &[u8]) -> DatagramFate;
}

/// Datagrams held back by a [`DatagramFate::Delay`], with their release
/// deadlines and the peer each came from or goes to.
type HeldFrames = Vec<(Instant, SocketAddr, Vec<u8>)>;

/// How long a read waits for a datagram before handing control back, so
/// shutdown, timers and delayed datagrams stay responsive. No longer than
/// [`ACK_HOLD`](crate::hold::ACK_HOLD), so what the gateway's hold makes
/// due leaves at most this long late.
const READ_TIMEOUT: Duration = Duration::from_millis(10);
/// Datagrams drained per wakeup before the broker lock is taken. Bounds
/// both the receive-buffer footprint and how long outbound traffic waits
/// behind a burst.
const SERVE_BATCH: usize = 32;
/// Receive-buffer size: the largest datagram MQTT-SN over UDP can carry.
const SLOT: usize = 64 * 1024;

/// Magic prefix of a gateway snapshot.
const SNAPSHOT_MAGIC: &[u8; 4] = b"PVSH";
/// Version byte of the snapshot container format. Version 1 was written
/// by gateways that could run several broker shards: a shard count, a
/// shared topic-registry block, then one broker section per shard.
const SNAPSHOT_VERSION: u8 = 2;

/// One end of the device–gateway link, and the only code that touches its
/// socket: the gateway's serve loop, [`UdpClient`] and any other driver of a
/// device's [`Session`] read, drain, split and send through one of these.
/// It reports what goes wrong; the caller decides what that means — the
/// gateway counts a socket error and keeps serving, a device reconnects.
pub struct Endpoint {
    socket: UdpSocket,
    /// Whether the socket is connected (a device's, to its gateway): a
    /// connected socket sends with `send`, which is all some systems
    /// accept on one.
    connected: bool,
    /// Chaos seam (see [`DatagramFault`]); `None` in production.
    fault: Option<Arc<dyn DatagramFault>>,
    /// Receive buffer, one datagram at a time.
    rbuf: Vec<u8>,
    /// Datagrams held back by an injected delay (chaos only), each way.
    held_in: HeldFrames,
    held_out: HeldFrames,
    /// Whether the socket is still in non-blocking mode because a restore
    /// after a drain failed. Left unrepaired, every wait would return
    /// WouldBlock at once and the caller would spin hot; instead the
    /// restore is retried each read with a short sleep standing in for
    /// the wait until it succeeds.
    nonblocking: bool,
}

impl Endpoint {
    /// An endpoint on `socket`, with the fault plan `fault` (chaos only).
    pub fn new(socket: UdpSocket, fault: Option<Arc<dyn DatagramFault>>) -> io::Result<Endpoint> {
        Ok(Endpoint {
            connected: prepare(&socket)?,
            socket,
            fault,
            rbuf: vec![0u8; SLOT],
            held_in: Vec::new(),
            held_out: Vec::new(),
            nonblocking: false,
        })
    }

    /// Installs a datagram fault-injection plan (chaos only): every later
    /// datagram's fate each way is decided by `fault` (see
    /// [`DatagramFault`]). The plan survives [`Endpoint::replace_socket`].
    pub fn set_fault(&mut self, fault: Arc<dyn DatagramFault>) {
        self.fault = Some(fault);
    }

    /// Puts `socket` in place of the one this endpoint had. The fault plan
    /// and the datagrams it holds stay.
    pub fn replace_socket(&mut self, socket: UdpSocket) -> io::Result<()> {
        self.connected = prepare(&socket)?;
        self.socket = socket;
        self.nonblocking = false;
        Ok(())
    }

    /// One wakeup: held datagrams now due first (one released inbound is
    /// older than anything about to be read), then a blocking `recv_from`
    /// bounded by the 10 ms read time-out, then [`Endpoint::drain`] of whatever
    /// else has queued. Every datagram the fault plan lets through goes to
    /// `deliver` whole, before the next is read; [`frames`] splits it. A
    /// timeout is no error; any other socket error ends the read and is
    /// returned.
    pub fn read(&mut self, mut deliver: impl FnMut(SocketAddr, &[u8])) -> io::Result<()> {
        if self.nonblocking {
            if self.socket.set_nonblocking(false).is_ok() {
                self.nonblocking = false;
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.release_due(&mut deliver)?;
        match self.socket.recv_from(&mut self.rbuf) {
            Ok((len, from)) => self.admit(len, from, &mut deliver),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(())
            }
            Err(e) => return Err(e),
        }
        // A wake usually means a burst: drain it without blocking.
        self.drain(1, deliver)
    }

    /// Reads, without waiting, what has queued on the socket, until
    /// `SERVE_BATCH` datagrams have been read counting the `taken` ones.
    pub fn drain(
        &mut self,
        taken: usize,
        mut deliver: impl FnMut(SocketAddr, &[u8]),
    ) -> io::Result<()> {
        if self.socket.set_nonblocking(true).is_err() {
            return Ok(());
        }
        self.nonblocking = true;
        let mut drained = Ok(());
        for _ in taken..SERVE_BATCH {
            match self.socket.recv_from(&mut self.rbuf) {
                Ok((len, from)) => self.admit(len, from, &mut deliver),
                Err(e) => {
                    if e.kind() != io::ErrorKind::WouldBlock {
                        drained = Err(e);
                    }
                    break;
                }
            }
        }
        if self.socket.set_nonblocking(false).is_ok() {
            self.nonblocking = false;
        }
        drained
    }

    /// Applies the inbound fault fate (chaos only) to the datagram in
    /// `rbuf[..len]`, and delivers what is let through.
    fn admit(&mut self, len: usize, from: SocketAddr, deliver: &mut impl FnMut(SocketAddr, &[u8])) {
        let datagram = &self.rbuf[..len];
        let fault = self.fault.as_deref();
        for _ in 0..crossings(fault, FaultDir::Inbound, &mut self.held_in, from, datagram) {
            deliver(from, datagram);
        }
    }

    /// Sends one datagram to `to` (a connected socket: to its peer),
    /// subject to the outbound fault fate (chaos only).
    pub fn send(&mut self, to: SocketAddr, datagram: &[u8]) -> io::Result<()> {
        let fault = self.fault.as_deref();
        for _ in 0..crossings(fault, FaultDir::Outbound, &mut self.held_out, to, datagram) {
            self.transmit(to, datagram)?;
        }
        Ok(())
    }

    /// Sends every datagram `emit` hands over (see [`Endpoint::send`]);
    /// returns the sends that failed.
    fn flush(&mut self, emit: impl FnOnce(&mut dyn FnMut(&SocketAddr, &[u8]))) -> u64 {
        let mut failed = 0;
        emit(&mut |to, datagram| failed += u64::from(self.send(*to, datagram).is_err()));
        failed
    }

    fn transmit(&self, to: SocketAddr, datagram: &[u8]) -> io::Result<()> {
        if self.connected {
            self.socket.send(datagram)?;
        } else {
            self.socket.send_to(datagram, to)?;
        }
        Ok(())
    }

    /// Lets every held datagram whose delay has expired go on: an inbound
    /// one to `deliver`, an outbound one to the socket. Its fate was
    /// decided when it was held, so release is unconditional.
    pub fn release_due(&mut self, mut deliver: impl FnMut(SocketAddr, &[u8])) -> io::Result<()> {
        while let Some((from, datagram)) = take_due(&mut self.held_in) {
            deliver(from, &datagram);
        }
        while let Some((to, datagram)) = take_due(&mut self.held_out) {
            self.transmit(to, &datagram)?;
        }
        Ok(())
    }

    /// When the first held datagram comes off hold; `None` while nothing
    /// is held.
    pub fn next_release(&self) -> Option<Instant> {
        self.held_in
            .iter()
            .chain(&self.held_out)
            .map(|held| held.0)
            .min()
    }
}

/// Gives a socket the endpoint's read timeout; says whether it is
/// connected.
fn prepare(socket: &UdpSocket) -> io::Result<bool> {
    socket.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(socket.peer_addr().is_ok())
}

/// How many copies of a datagram to or from `peer` cross now, by the fate
/// `fault` decides for it — one without a plan. A delayed datagram goes
/// on `held` with its release time and crosses when
/// [`Endpoint::release_due`] finds it due.
fn crossings(
    fault: Option<&dyn DatagramFault>,
    dir: FaultDir,
    held: &mut HeldFrames,
    peer: SocketAddr,
    datagram: &[u8],
) -> usize {
    match fault.map(|f| f.fate(dir, datagram)) {
        None | Some(DatagramFate::Deliver) => 1,
        Some(DatagramFate::Drop) => 0,
        Some(DatagramFate::Duplicate) => 2,
        Some(DatagramFate::Delay(dur)) => {
            held.push((Instant::now() + dur, peer, datagram.to_vec()));
            0
        }
    }
}

/// Takes one held datagram whose delay has expired, if there is one.
fn take_due(held: &mut HeldFrames) -> Option<(SocketAddr, Vec<u8>)> {
    // Every read asks: without a fault plan nothing is ever held, and the
    // answer costs no clock read.
    if held.is_empty() {
        return None;
    }
    let now = Instant::now();
    let due = held.iter().position(|(at, _, _)| *at <= now)?;
    let (_, peer, datagram) = held.swap_remove(due);
    Some((peer, datagram))
}

/// What the serve thread and the [`UdpBroker`] handle share.
struct Shared {
    broker: Mutex<Broker<SocketAddr>>,
    shutdown: AtomicBool,
    /// Epoch of the monotonic clock the broker's timers run on.
    start: Instant,
}

impl Shared {
    /// Serializes the gateway as a `PVSH` snapshot: magic, version, and
    /// the broker's state as one length-prefixed blob.
    fn encode_snapshot(&self) -> Vec<u8> {
        let state = self.broker.lock().encode_state();
        let mut out = Vec::with_capacity(SNAPSHOT_MAGIC.len() + 1 + 4 + state.len());
        out.extend_from_slice(SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        wire::put_bytes(&mut out, &state);
        out
    }
}

/// Decodes a `PVSH` snapshot into the broker state it holds, clock rebased
/// for a fresh serve loop. A version 1 file resumes when it was written at
/// one shard: its registry block is read past, because a lone shard's own
/// section already holds every topic id a client was ever told. One
/// written at more shards is refused — no entry point could start such a
/// gateway, and its sessions cannot be merged.
pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<Broker<SocketAddr>, &'static str> {
    let mut r = wire::Reader::new(bytes);
    if r.u32()? != u32::from_le_bytes(*SNAPSHOT_MAGIC) {
        return Err("not a gateway snapshot");
    }
    match r.u8()? {
        SNAPSHOT_VERSION => {}
        1 => {
            if r.u8()? != 1 {
                return Err("snapshot of a sharded gateway");
            }
            let _next_id = r.u16()?;
            for _ in 0..r.u32()? {
                r.u16()?;
                r.str()?;
            }
        }
        _ => return Err("unknown gateway snapshot version"),
    }
    let mut state = Broker::decode_state(&r.bytes()?)?;
    // The serve loop's monotonic clock restarts at zero; rebase the
    // snapshot's timers so retransmissions fire promptly.
    state.reset_clock();
    Ok(state)
}

/// The MQTT-SN gateway: one [`Broker`] behind one UDP socket, served by
/// one loop on one thread that reads the socket itself (`serve`).
///
/// One thread by decision: the broker's state machine is a few percent
/// of what that thread does per publish and the rest is the socket, which
/// more threads would still share. A deployment scales out the way the
/// paper's Fig. 5 does, with more gateways next to the devices.
pub struct UdpBroker {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Everything a gateway can be started with; see [`UdpBroker::builder`].
pub struct GatewayBuilder<A> {
    bind: A,
    config: BrokerConfig,
    fault: Option<Arc<dyn DatagramFault>>,
    resume: Option<PathBuf>,
}

impl<A: ToSocketAddrs> GatewayBuilder<A> {
    /// Broker configuration (default [`BrokerConfig::default`]). A resumed
    /// gateway takes it from the snapshot instead.
    pub fn config(mut self, config: BrokerConfig) -> Self {
        self.config = config;
        self
    }

    /// Datagram fault-injection plan: the fate of every inbound datagram
    /// is decided once where it is read off the socket, of every outbound
    /// one where it is sent. Chaos testing only — the faulted paths
    /// allocate where production does not.
    pub fn faults(mut self, fault: Arc<dyn DatagramFault>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Starts from the snapshot file at `path` (see
    /// [`UdpBroker::snapshot_to_file`]) — the restart path: durable
    /// sessions, topic registrations, buffered messages and QoS dedup
    /// state survive gateway process death, the way RSMB's persistence
    /// file keeps gateway state across crashes. A missing, corrupt or
    /// truncated file, or one written by a gateway of several shards,
    /// fails [`GatewayBuilder::spawn`] (all but the first with
    /// [`io::ErrorKind::InvalidData`]) before the socket is bound.
    pub fn resume_from(mut self, path: impl AsRef<Path>) -> Self {
        self.resume = Some(path.as_ref().to_owned());
        self
    }

    /// Binds and starts serving.
    pub fn spawn(self) -> io::Result<UdpBroker> {
        let state = match &self.resume {
            Some(path) => decode_snapshot(&prov_wal::snapshot::read(path)?)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            None => Broker::new(self.config),
        };
        let socket = UdpSocket::bind(self.bind)?;
        let local_addr = socket.local_addr()?;
        let endpoint = Endpoint::new(socket, self.fault)?;
        let shared = Arc::new(Shared {
            broker: Mutex::with_rank(parking_lot::rank::BROKER, state),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
        });
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || serve(endpoint, &shared))
        };
        Ok(UdpBroker {
            local_addr,
            shared,
            thread: Some(thread),
        })
    }
}

impl UdpBroker {
    /// A gateway to be bound at `bind` (use `"127.0.0.1:0"` to pick a free
    /// port): default configuration, no fault plan, fresh state, until the
    /// builder says otherwise.
    pub fn builder<A: ToSocketAddrs>(bind: A) -> GatewayBuilder<A> {
        GatewayBuilder {
            bind,
            config: BrokerConfig::default(),
            fault: None,
            resume: None,
        }
    }

    /// Binds and starts serving: shorthand for
    /// `UdpBroker::builder(bind).config(config).spawn()`.
    pub fn spawn(bind: impl ToSocketAddrs, config: BrokerConfig) -> io::Result<UdpBroker> {
        Self::builder(bind).config(config).spawn()
    }

    /// The bound address (to hand to clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Routing statistics.
    pub fn stats(&self) -> BrokerStats {
        *self.shared.broker.lock().stats()
    }

    /// Active (awake) MQTT-SN sessions. A local subscription is not one.
    pub fn session_count(&self) -> usize {
        self.shared.broker.lock().session_count()
    }

    /// Buffered-message backlog — the input to the congestion watermarks.
    /// A lagging subscriber (e.g. a slow translator) shows up here first.
    pub fn backlog(&self) -> usize {
        self.shared.broker.lock().backlog()
    }

    /// Congestion level (0 clear / 1 soft / 2 hard).
    pub fn congestion_level(&self) -> u8 {
        self.shared.broker.lock().congestion_level()
    }

    /// Subscribes a consumer living in this process to `filter`: the
    /// gateway pushes the publishes it accepts on a matching topic
    /// straight into the queue the returned subscription reads (see
    /// [`Broker::subscribe_local`]), per-publisher order kept. The queue
    /// is closed when the gateway stops, and is not part of a snapshot:
    /// subscribe again after [`GatewayBuilder::resume_from`].
    pub fn subscribe_local(&self, filter: &str) -> Result<LocalSubscription, Error> {
        self.shared.broker.lock().subscribe_local(filter)
    }

    /// Serializes the gateway to `path` (`PVSH`), checksummed and written
    /// atomically (temp file + rename), so a crash mid-snapshot leaves the
    /// previous file intact. Call it periodically, or use
    /// [`UdpBroker::shutdown_to_file`] before a planned restart, and start
    /// again with [`GatewayBuilder::resume_from`]. The broker lock is held
    /// for the linear encode only, not for the disk write. A failed write
    /// is counted in [`BrokerStats::snapshot_failures`].
    pub fn snapshot_to_file(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let bytes = self.shared.encode_snapshot();
        let written = prov_wal::snapshot::write_atomic(path, &bytes);
        if written.is_err() {
            self.shared.broker.lock().note_snapshot_failure();
        }
        written
    }

    /// Stops the serve thread and drops the gateway.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the serve thread, then closes the local subscriptions: a
    /// consumer still finds every publish the gateway acknowledged in its
    /// queue, followed by the end of the stream. The thread is woken at
    /// once, not at its next read time-out, and sends every acknowledgement
    /// it holds before it ends. Counters stay readable; calling it again
    /// does nothing.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            wake(self.local_addr);
            let _ = thread.join();
        }
        self.shared.broker.lock().close_locals();
    }

    /// Stops the serve thread, then snapshots the *final* state to
    /// `path` — what a crash-consistent persistence layer would have
    /// observed at the instant of death. A snapshot taken while the
    /// loop still runs rolls back any QoS 2 handshake that completes
    /// between the snapshot and the shutdown, and the resumed gateway
    /// then re-delivers those publishes to subscribers whose own dedup
    /// state has already been cleared — breaking exactly-once
    /// downstream. Capturing after the loop stops closes that window, so
    /// kill/restart harnesses use this.
    pub fn shutdown_to_file(mut self, path: impl AsRef<Path>) -> io::Result<()> {
        self.stop();
        self.snapshot_to_file(path)
    }
}

impl Drop for UdpBroker {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Ends the serve loop's wait on the socket bound at `gateway`: an empty
/// datagram from a throwaway socket. Best effort — a loop the datagram
/// does not reach sees the stop at its next read time-out.
fn wake(gateway: SocketAddr) {
    let mut to = gateway;
    let here: SocketAddr = match to {
        SocketAddr::V4(_) => (std::net::Ipv4Addr::LOCALHOST, 0).into(),
        SocketAddr::V6(_) => (std::net::Ipv6Addr::LOCALHOST, 0).into(),
    };
    if to.ip().is_unspecified() {
        to.set_ip(here.ip());
    }
    if let Ok(socket) = UdpSocket::bind(here) {
        let _ = socket.send_to(&[], to);
    }
}

/// The serve loop: read a batch off the socket with no lock held (so a
/// [`UdpBroker::stats`] caller never waits on a `recv`), process it — plus
/// any due timer tick — under a **single** acquisition of the broker lock
/// through the recycled [`BrokerOutputs`] buffer, then flush the socket
/// after unlock, holding back what a device did not ask for (see
/// [`GatewayHold`]). The socket read is the loop's only wait; a stop ends it with
/// a datagram of its own (see [`UdpBroker::stop`]), which the broker never
/// sees, after the datagrams that read took with it are handled, and what
/// is held leaves before the loop does. Steady state
/// performs no per-packet heap allocation and no per-subscriber re-encode.
fn serve(mut endpoint: Endpoint, shared: &Shared) {
    let mut out = BrokerOutputs::new();
    let mut hold = GatewayHold::default();
    // Each datagram read, with its sender, in a recycled buffer, so the
    // steady state allocates nothing.
    let mut batch: Vec<(SocketAddr, Vec<u8>)> = Vec::with_capacity(SERVE_BATCH);
    let mut spare: Vec<Vec<u8>> = Vec::new();
    let mut pending_io_errors: u64 = 0;
    let mut last_tick = Instant::now();
    loop {
        let read = endpoint.read(|from, bytes| {
            let mut buf = spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(bytes);
            batch.push((from, buf));
        });
        // A stop ends the loop once what this read took is handled: the
        // datagrams that queued before the stop's own, which carries
        // nothing and is dropped here.
        let stopping = shared.shutdown.load(Ordering::Relaxed);
        if stopping {
            batch.retain(|(_, datagram)| !datagram.is_empty());
        }
        if read.is_err() {
            pending_io_errors += 1;
            if batch.is_empty() && !stopping {
                // Transient: on Linux an ICMP port-unreachable from one
                // departed client surfaces here as ECONNREFUSED — exiting
                // would kill the gateway for everyone. Back off briefly
                // and keep serving; shutdown still exits via the flag.
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let now = Instant::now();
        let now_ns = now.duration_since(shared.start).as_nanos() as Nanos;
        let tick_due = now.duration_since(last_tick) >= Duration::from_millis(100);
        if batch.is_empty() && !tick_due && pending_io_errors == 0 {
            pending_io_errors += endpoint.flush(|send| hold.release(now_ns, send));
            if stopping {
                break;
            }
            continue;
        }
        for (from, datagram) in &batch {
            hold.note(from, datagram);
        }
        {
            let mut b = shared.broker.lock();
            if pending_io_errors > 0 {
                b.note_io_errors(pending_io_errors);
                pending_io_errors = 0;
            }
            for (from, datagram) in &batch {
                // lint: zero-alloc-begin
                for message in frames(datagram) {
                    // A message that does not decode is counted by the
                    // broker.
                    let _ = b.on_datagram_into(now_ns, *from, message, &mut out);
                }
                // lint: zero-alloc-end
            }
            if tick_due {
                last_tick = now;
                b.on_tick_into(now_ns, &mut out);
            }
        }
        pending_io_errors += endpoint.flush(|send| hold.flush(&mut out, now_ns, send));
        spare.extend(batch.drain(..).map(|(_, buf)| buf));
        spare.truncate(SERVE_BATCH);
        if stopping {
            break;
        }
    }
    // Everything held leaves.
    endpoint.flush(|send| hold.release(Nanos::MAX, send));
}

/// Errors from the blocking client.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(io::Error),
    /// Protocol-level failure.
    Protocol(Error),
    /// The expected response did not arrive in time.
    Timeout(&'static str),
}

impl NetError {
    /// Whether the failure is plausibly recoverable by retrying — the
    /// signature of a network partition or a broker mid-restart — as
    /// opposed to a fatal condition (protocol violation, permission
    /// error) that no amount of retrying fixes. A reconnect loop over
    /// [`UdpClient::try_reconnect`] doubles its back-off on the first kind
    /// and goes straight to its ceiling on the second.
    pub fn is_transient(&self) -> bool {
        match self {
            // The expected response never arrived: partition or slow link.
            NetError::Timeout(_) => true,
            NetError::Io(e) => !matches!(
                e.kind(),
                io::ErrorKind::PermissionDenied
                    | io::ErrorKind::AddrInUse
                    | io::ErrorKind::AddrNotAvailable
                    | io::ErrorKind::InvalidInput
                    | io::ErrorKind::Unsupported
            ),
            // A congested broker asks the client to retry later (spec
            // return code 0x01); every other protocol error is fatal.
            NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::Congestion)) => true,
            NetError::Protocol(_) => false,
        }
    }
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}
impl From<Error> for NetError {
    fn from(e: Error) -> Self {
        NetError::Protocol(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Timeout(what) => write!(f, "timed out waiting for {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// A fresh socket on an ephemeral port, connected to `broker` so an ICMP
/// port-unreachable from a dead gateway comes back as `ECONNREFUSED`: what a
/// device's [`Endpoint`] starts on, and takes in place of its old socket to
/// reconnect ([`Endpoint::replace_socket`]).
pub fn dial(broker: SocketAddr) -> io::Result<UdpSocket> {
    let socket = UdpSocket::bind("0.0.0.0:0")?;
    socket.connect(broker)?;
    Ok(socket)
}

/// Nanoseconds since `start`, the clock a device's [`Session`] runs on.
fn since(start: Instant) -> Nanos {
    start.elapsed().as_nanos() as Nanos
}

/// A blocking MQTT-SN client over UDP: a [`Session`] on an [`Endpoint`],
/// and the clock the session runs on.
pub struct UdpClient {
    endpoint: Endpoint,
    broker: SocketAddr,
    session: Session,
    start: Instant,
}

impl UdpClient {
    /// Connects to a broker, completing the CONNECT handshake.
    pub fn connect(
        broker: SocketAddr,
        config: ClientConfig,
        timeout: Duration,
    ) -> Result<UdpClient, NetError> {
        let mut c = UdpClient {
            endpoint: Endpoint::new(dial(broker)?, None)?,
            broker,
            session: Session::new(config),
            start: Instant::now(),
        };
        let outputs = c.session.client.connect(since(c.start));
        c.dispatch(outputs)?;
        c.wait_connected(timeout, "CONNACK")?;
        Ok(c)
    }

    /// Installs a datagram fault-injection plan: every subsequent inbound
    /// and outbound datagram's fate is decided by `fault` (see
    /// [`DatagramFault`]). The plan survives reconnects — a chaos schedule
    /// keeps applying across the very link flaps it induces. Chaos testing
    /// only; the faulted paths allocate where production does not.
    pub fn set_fault(&mut self, fault: Arc<dyn DatagramFault>) {
        self.endpoint.set_fault(fault);
    }

    /// Asks the gateway for what it may be holding for this device (see
    /// [`DeviceHold::ask`](crate::hold::DeviceHold::ask)), for a caller
    /// about to block in
    /// [`UdpClient::pump`] until a handshake completes.
    pub fn ask(&mut self) -> Result<(), NetError> {
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        Ok(self.session.hold.ask(&self.session.client, send)?)
    }

    /// One wakeup, through the read the gateway serves with: a blocking
    /// wait for a datagram, bounded by the 10 ms read timeout, then a
    /// non-blocking drain of whatever else has queued, up to 32 datagrams,
    /// each message going to the state machine as it is read — then what
    /// the state machine answered is sent and the timers get one pass. A
    /// publisher with a full window has a reply datagram on its way per
    /// message in flight; reading one per wakeup lets them pile up in the
    /// socket buffer until it overflows and the lost ones cost a `Tretry`.
    /// Surfaced events accumulate in the internal queue. A socket error is
    /// returned after what was read before it has been answered.
    ///
    /// A PUBREL this pump produces stays held for the next outbound
    /// datagram to carry. One still held when the next pump starts is sent
    /// alone before anything is read — whoever blocks on a handshake does
    /// so by pumping, so nobody waits for an acknowledgement that is held.
    /// A caller with nobody waiting need not pump for a held PUBREL's
    /// sake: [`UdpClient::reply_expected`] does not count it, and
    /// [`UdpClient::tick`] lets it go by [`UdpClient::next_deadline`] at
    /// the latest. The gateway holds acknowledgements too, for any PUBLISH
    /// that did not ask for its answer: a caller that blocks until a
    /// handshake completes calls [`UdpClient::ask`] first.
    pub fn pump(&mut self) -> Result<(), NetError> {
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        self.session.hold.release(send)?;
        let (session, start) = (&mut self.session, self.start);
        let heard = |_, datagram: &[u8]| session.hear(datagram, since(start));
        let read = self.endpoint.read(heard);
        self.pass(read, false)
    }

    /// The timers alone, without the wait: what a [`UdpClient::pump`] does
    /// after reading, for a caller that sleeps elsewhere until
    /// [`UdpClient::next_deadline`]. Never blocks. Once per hold — 2 ×
    /// [`ACK_HOLD`](crate::hold::ACK_HOLD) after the oldest PUBLISH whose
    /// answer the gateway may hold, then a hold after each drain — it
    /// first reads what has queued on the socket; otherwise it reads
    /// nothing (see [`Session::poll`]).
    pub fn tick(&mut self) -> Result<(), NetError> {
        let drain = self.session.hold.drain_due(since(self.start));
        self.pass(Ok(()), drain)
    }

    /// After a read that ended in `read`: the datagrams the fault plan
    /// delayed that came off hold and, if `drain`, what has queued on the
    /// socket are read; what the session answered leaves and its timers
    /// run ([`Session::poll`]). A socket error is returned after that.
    fn pass(&mut self, read: io::Result<()>, drain: bool) -> Result<(), NetError> {
        let (session, start) = (&mut self.session, self.start);
        let mut heard = |_, datagram: &[u8]| session.hear(datagram, since(start));
        let mut read = read.and_then(|()| self.endpoint.release_due(&mut heard));
        if drain && read.is_ok() {
            read = self.endpoint.drain(0, &mut heard);
        }
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        self.session.poll(since(self.start), send)?;
        Ok(read?)
    }

    /// Sends `outputs` of the session's client (see [`Session::dispatch`]).
    fn dispatch(&mut self, outputs: Vec<Output>) -> Result<(), NetError> {
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        Ok(self.session.dispatch(outputs, since(self.start), send)?)
    }

    /// Whether a datagram from the broker can be on its way to a
    /// publisher: a PUBLISH without its PUBREC or PUBACK, a PUBREL that has
    /// left without its PUBCOMP, a control transaction, a PINGREQ. A
    /// handshake whose PUBREL is still held is owed nothing until the
    /// PUBREL leaves, and an acknowledgement the gateway may hold is not on
    /// its way until the device asks for it, or the gateway lets its hold
    /// go by [`ACK_HOLD`](crate::hold::ACK_HOLD) after it (read by
    /// [`UdpClient::tick`] at the read deadline). While this is `false` a
    /// [`UdpClient::pump`] can only time out, or read early what is read
    /// later anyway.
    pub fn reply_expected(&self) -> bool {
        self.session.hold.reply_expected(&self.session.client)
    }

    /// The earliest instant at which [`UdpClient::tick`] has something to
    /// do: a timer of the session ([`Session::next_deadline`]), or a
    /// datagram delayed by the fault plan (chaos only) coming off hold.
    /// `None` when nothing is scheduled.
    pub fn next_deadline(&self) -> Option<Instant> {
        let timers = self.session.next_deadline();
        let timers = timers.and_then(|ns| self.start.checked_add(Duration::from_nanos(ns)));
        timers.into_iter().chain(self.endpoint.next_release()).min()
    }

    /// Pops a queued event, pumping once if none is queued.
    pub fn poll_event(&mut self) -> Result<Option<ClientEvent>, NetError> {
        if self.session.events.is_empty() {
            self.pump()?;
        }
        Ok(self.session.events.pop_front())
    }

    /// Pops a queued event without touching the socket (never blocks).
    pub fn pop_event(&mut self) -> Option<ClientEvent> {
        self.session.events.pop_front()
    }

    /// Pumps until an event `wanted` picks is queued, and takes it; the
    /// others stay queued, in order, for later polls.
    fn wait_for(
        &mut self,
        timeout: Duration,
        what: &'static str,
        wanted: impl Fn(&ClientEvent) -> bool,
    ) -> Result<ClientEvent, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(at) = self.session.events.iter().position(&wanted) {
                return self
                    .session
                    .events
                    .remove(at)
                    .ok_or(NetError::Timeout(what));
            }
            if Instant::now() >= deadline {
                return Err(NetError::Timeout(what));
            }
            self.pump()?;
        }
    }

    /// Waits for the CONNACK: `Ok` once the session is connected.
    fn wait_connected(&mut self, timeout: Duration, what: &'static str) -> Result<(), NetError> {
        let answer =
            |e: &ClientEvent| matches!(e, ClientEvent::Connected | ClientEvent::ConnectFailed(_));
        match self.wait_for(timeout, what, answer)? {
            ClientEvent::ConnectFailed(code) => Err(NetError::Protocol(Error::Rejected(code))),
            _ => Ok(()),
        }
    }

    /// Registers a topic name, returning its broker-assigned id.
    pub fn register(&mut self, topic: &str, timeout: Duration) -> Result<u16, NetError> {
        let (_, outputs) = self.session.client.register(topic, since(self.start))?;
        self.dispatch(outputs)?;
        let e = self.wait_for(
            timeout,
            "REGACK",
            |e| matches!(e, ClientEvent::Registered { topic_name, .. } if topic_name == topic),
        )?;
        match e {
            ClientEvent::Registered { topic_id, .. } => Ok(topic_id),
            _ => Err(NetError::Timeout("REGACK")),
        }
    }

    /// Subscribes to a filter; returns the assigned topic id (0 for
    /// wildcard filters).
    pub fn subscribe(
        &mut self,
        filter: &str,
        qos: QoS,
        timeout: Duration,
    ) -> Result<u16, NetError> {
        let now = since(self.start);
        let (msg_id, outputs) = self.session.client.subscribe(filter, qos, now)?;
        self.dispatch(outputs)?;
        let e = self.wait_for(
            timeout,
            "SUBACK",
            |e| matches!(e, ClientEvent::Subscribed { msg_id: m, .. } if *m == msg_id),
        )?;
        match e {
            ClientEvent::Subscribed { topic_id, .. } => Ok(topic_id),
            _ => Err(NetError::Timeout("SUBACK")),
        }
    }

    /// Publishes without waiting for QoS completion. Returns the message id
    /// (0 for QoS 0); completion surfaces later as
    /// [`ClientEvent::PublishDone`].
    pub fn publish_nowait(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        qos: QoS,
    ) -> Result<u16, NetError> {
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        let now = since(self.start);
        let (msg_id, sent) = self
            .session
            .publish(topic_id, payload, qos, false, now, send)?;
        Ok(sent.map(|()| msg_id)?)
    }

    /// Publishes and, for QoS 1/2, blocks until the handshake completes.
    pub fn publish(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        qos: QoS,
        timeout: Duration,
    ) -> Result<(), NetError> {
        // Whoever blocks asks: a PINGREQ behind the PUBLISH has the gateway
        // answer it at once.
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        let now = since(self.start);
        let (msg_id, sent) = self
            .session
            .publish(topic_id, payload, qos, true, now, send)?;
        sent?;
        if qos == QoS::AtMostOnce {
            return Ok(());
        }
        self.wait_for(timeout, "publish completion", |e| {
            matches!(
                e,
                ClientEvent::PublishDone { msg_id: m }
                | ClientEvent::PublishFailed { msg_id: m, .. }
                | ClientEvent::PublishRejected { msg_id: m, .. } if *m == msg_id
            )
        })
        .and_then(|e| match e {
            ClientEvent::PublishDone { .. } => Ok(()),
            ClientEvent::PublishRejected { code, .. } => {
                Err(NetError::Protocol(Error::Rejected(code)))
            }
            _ => Err(NetError::Timeout("publish acknowledged")),
        })
    }

    /// Waits for the next inbound application message.
    pub fn recv_message(&mut self, timeout: Duration) -> Result<(TopicRef, Vec<u8>), NetError> {
        let e = self.wait_for(timeout, "message", |e| {
            matches!(e, ClientEvent::Message { .. })
        })?;
        match e {
            ClientEvent::Message { topic, payload } => Ok((topic, payload)),
            _ => Err(NetError::Timeout("message")),
        }
    }

    /// Number of QoS 1/2 publishes still in flight.
    pub fn inflight_len(&self) -> usize {
        self.session.client.inflight_len()
    }

    /// Takes a reclaimed payload buffer from a completed publish (see
    /// [`Client::take_spare_payload`](crate::Client::take_spare_payload)).
    pub fn take_spare_payload(&mut self) -> Option<Vec<u8>> {
        self.session.client.take_spare_payload()
    }

    /// Graceful disconnect (best effort).
    pub fn disconnect(&mut self) -> Result<(), NetError> {
        let outputs = self.session.client.disconnect(since(self.start));
        self.dispatch(outputs)
    }

    /// Broker-assigned id of a topic registered in this (or a resumed)
    /// session. After a reconnect across a broker restart the id may
    /// differ from the one the original [`UdpClient::register`] returned.
    pub fn topic_id(&self, topic_name: &str) -> Option<u16> {
        self.session.client.topic_id(topic_name)
    }

    /// One reconnection attempt: rebinds a fresh socket to the original
    /// broker address and runs the CONNECT handshake with
    /// `clean_session = false`, waiting until session resumption (topic
    /// re-registration, in-flight retransmission) completes. Queued
    /// application events are preserved across the attempt.
    pub fn try_reconnect(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.endpoint.replace_socket(dial(self.broker)?)?;
        let send = &mut |d: &[u8]| self.endpoint.send(self.broker, d);
        self.session.reconnect(since(self.start), send)?;
        let deadline = Instant::now() + timeout;
        self.wait_connected(timeout, "reconnect CONNACK")?;
        while !self.session.client.resume_complete() {
            if Instant::now() >= deadline {
                return Err(NetError::Timeout("session resumption"));
            }
            self.pump()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use std::sync::atomic::AtomicU64;

    fn timeout() -> Duration {
        Duration::from_secs(5)
    }

    /// A per-process snapshot file path under the temp dir.
    fn snap_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mqtt-sn-{tag}-{}.snap", std::process::id()))
    }

    /// Retries [`UdpClient::try_reconnect`] until the restarted gateway
    /// answers.
    fn reconnect(client: &mut UdpClient) {
        let deadline = Instant::now() + timeout();
        while let Err(e) = client.try_reconnect(Duration::from_secs(1)) {
            assert!(Instant::now() < deadline, "reconnect failed: {e}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    #[test]
    fn end_to_end_qos2_over_loopback() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();

        let mut sub = UdpClient::connect(addr, ClientConfig::new("subscriber"), timeout()).unwrap();
        sub.subscribe("prov/#", QoS::ExactlyOnce, timeout())
            .unwrap();

        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("publisher"), timeout()).unwrap();
        let tid = publisher.register("prov/dev1", timeout()).unwrap();
        publisher
            .publish(
                tid,
                b"hello provenance".to_vec(),
                QoS::ExactlyOnce,
                timeout(),
            )
            .unwrap();

        let (topic, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, b"hello provenance");
        assert!(matches!(topic, TopicRef::Id(_)));
        assert_eq!(publisher.inflight_len(), 0);

        let stats = broker.stats();
        assert_eq!(stats.publishes_in, 1);
        assert_eq!(stats.publishes_out, 1);
        broker.shutdown();
    }

    #[test]
    fn multiple_publishers_fan_into_one_subscriber() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("sub"), timeout()).unwrap();
        sub.subscribe("wf/+", QoS::AtLeastOnce, timeout()).unwrap();

        for i in 0..3 {
            let mut p =
                UdpClient::connect(addr, ClientConfig::new(format!("pub{i}")), timeout()).unwrap();
            let tid = p.register(&format!("wf/dev{i}"), timeout()).unwrap();
            p.publish(tid, vec![i as u8], QoS::AtLeastOnce, timeout())
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            let (_, payload) = sub.recv_message(timeout()).unwrap();
            got.push(payload[0]);
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn qos0_publish_recycles_payload_buffer() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let mut c =
            UdpClient::connect(broker.local_addr(), ClientConfig::new("q0"), timeout()).unwrap();
        let tid = c.register("t/q0", timeout()).unwrap();
        assert!(c.take_spare_payload().is_none());
        c.publish(tid, vec![1, 2, 3], QoS::AtMostOnce, timeout())
            .unwrap();
        let spare = c
            .take_spare_payload()
            .expect("QoS 0 payload buffer returns to the pool");
        assert!(spare.is_empty() && spare.capacity() >= 3);
        broker.shutdown();
    }

    #[test]
    fn a_read_waits_no_longer_than_an_ack_hold() {
        assert!(READ_TIMEOUT <= Duration::from_nanos(crate::hold::ACK_HOLD));
    }

    #[test]
    fn neterror_transient_classification() {
        assert!(NetError::Timeout("x").is_transient());
        assert!(NetError::Io(io::Error::from(io::ErrorKind::ConnectionRefused)).is_transient());
        assert!(NetError::Io(io::Error::from(io::ErrorKind::ConnectionReset)).is_transient());
        assert!(!NetError::Io(io::Error::from(io::ErrorKind::PermissionDenied)).is_transient());
        assert!(
            NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::Congestion))
                .is_transient()
        );
        assert!(
            !NetError::Protocol(Error::Rejected(crate::packet::ReturnCode::NotSupported))
                .is_transient()
        );
        assert!(!NetError::Protocol(Error::BadState("x")).is_transient());
    }

    #[test]
    fn reconnect_resumes_session_across_broker_restart() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();

        let mut sub = UdpClient::connect(addr, ClientConfig::new("rsub"), timeout()).unwrap();
        sub.subscribe("re/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut publisher = UdpClient::connect(addr, ClientConfig::new("rpub"), timeout()).unwrap();
        let tid = publisher.register("re/dev1", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        sub.recv_message(timeout()).unwrap();

        // Kill the broker, preserving its state; rebind the same port.
        let path = snap_path("resume");
        broker.shutdown_to_file(&path).unwrap();
        let broker = UdpBroker::builder(addr).resume_from(&path).spawn().unwrap();

        // Both sides reconnect; sessions resume (the subscriber's
        // subscription and the publisher's registration both survive
        // without re-issuing them).
        reconnect(&mut sub);
        reconnect(&mut publisher);
        let new_tid = publisher.topic_id("re/dev1").expect("registration resumed");

        publisher
            .publish(new_tid, vec![2], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![2]);
        broker.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    /// Restart from a snapshot file: registration, subscription, topic-id
    /// assignment and the stats all survive the file trip, and anything
    /// that is not an intact `PVSH` file is refused before a single thread
    /// starts.
    #[test]
    fn broker_restarts_from_snapshot_file() {
        let path = snap_path("restart");
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("psub"), timeout()).unwrap();
        sub.subscribe("ps/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("psdev"), timeout()).unwrap();
        let tid = publisher.register("ps/dev1", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        sub.recv_message(timeout()).unwrap();

        // Stop the gateway, persist one file, restart FROM THE FILE.
        gw.shutdown_to_file(&path).unwrap();
        let gw = UdpBroker::builder(addr).resume_from(&path).spawn().unwrap();

        reconnect(&mut sub);
        reconnect(&mut publisher);
        let new_tid = publisher
            .topic_id("ps/dev1")
            .expect("registration persisted");
        assert_eq!(new_tid, tid, "topic ids are stable across restart");
        publisher
            .publish(new_tid, vec![2], QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, vec![2]);
        // One publish before the restart (persisted with the stats) plus
        // one after: the counters survive the file trip.
        assert_eq!(gw.stats().publishes_in, 2);
        gw.shutdown();

        // A corrupt file is refused outright, not silently started empty.
        let good = std::fs::read(&path).unwrap();
        let mut corrupt = good.clone();
        *corrupt.last_mut().unwrap() ^= 0xFF;
        std::fs::write(&path, &corrupt).unwrap();
        assert_refused(&path, "127.0.0.1:0", "corrupt");
        // So is a truncated one (a partial broker section).
        std::fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert_refused(&path, "127.0.0.1:0", "truncated");
        // And so is an intact file holding a bare broker state rather
        // than the `PVSH` container.
        let bare = Broker::<SocketAddr>::new(BrokerConfig::default()).encode_state();
        prov_wal::snapshot::write_atomic(&path, &bare).unwrap();
        assert_refused(&path, "127.0.0.1:0", "bare broker state");
        std::fs::remove_file(&path).unwrap();
    }

    /// Resuming from the file at `path` fails with `InvalidData`.
    fn assert_refused(path: &Path, bind: impl ToSocketAddrs, what: &str) {
        let spawned = UdpBroker::builder(bind).resume_from(path).spawn();
        let err = spawned
            .err()
            .unwrap_or_else(|| panic!("{what} snapshot must be refused"));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
    }

    /// A `PVSH` version 1 file as a gateway of `sections.len()` shards
    /// wrote it: header, the shared registry block, one broker section per
    /// shard in the `STATE_VERSION` 5 layout of the time.
    fn write_v1_file(path: &Path, registry: &[(u16, &str)], sections: &[&Broker<SocketAddr>]) {
        let mut file = SNAPSHOT_MAGIC.to_vec();
        file.push(1);
        file.push(sections.len() as u8);
        let next_id = registry.iter().map(|(id, _)| id + 1).max().unwrap_or(1);
        file.extend_from_slice(&next_id.to_le_bytes());
        file.extend_from_slice(&(registry.len() as u32).to_le_bytes());
        for (id, name) in registry {
            file.extend_from_slice(&id.to_le_bytes());
            wire::put_str(&mut file, name);
        }
        for section in sections {
            wire::put_bytes(
                &mut file,
                &crate::broker::state_as_v5(&section.encode_state()),
            );
        }
        prov_wal::snapshot::write_atomic(path, &file).unwrap();
    }

    /// A file written before the container format changed, by the one
    /// kind of gateway any entry point could start: it resumes with its
    /// durable session, that session's subscription and the message
    /// buffered for it.
    #[test]
    fn v1_one_shard_file_resumes() {
        let feed = |b: &mut Broker<SocketAddr>, from: SocketAddr, packet: Packet| {
            let mut out = BrokerOutputs::new();
            b.on_datagram_into(0, from, &packet.encode(), &mut out)
                .unwrap();
        };
        let away: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let publisher: SocketAddr = "127.0.0.1:10".parse().unwrap();
        let mut b = Broker::new(BrokerConfig::default());
        for (from, id) in [(away, "v1-away"), (publisher, "v1-pub")] {
            let connect = Packet::Connect {
                clean_session: false,
                duration: 60,
                client_id: id.into(),
            };
            feed(&mut b, from, connect);
        }
        let subscribe = Packet::Subscribe {
            dup: false,
            qos: QoS::AtLeastOnce,
            msg_id: 1,
            topic: TopicRef::Name("v1/t".into()),
        };
        feed(&mut b, away, subscribe);
        feed(&mut b, away, Packet::Disconnect { duration: None });
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::AtLeastOnce,
            retain: false,
            topic: TopicRef::Id(1),
            msg_id: 7,
            payload: b"kept".to_vec(),
        };
        feed(&mut b, publisher, publish);
        assert_eq!(b.backlog(), 1);

        let path = snap_path("v1-one-shard");
        write_v1_file(&path, &[(1, "v1/t")], &[&b]);
        let gw = UdpBroker::builder("127.0.0.1:0")
            .resume_from(&path)
            .spawn()
            .expect("a one-shard v1 file resumes");
        assert_eq!(gw.stats().publishes_in, 1);
        assert_eq!(gw.backlog(), 1);
        let config = ClientConfig {
            clean_session: false,
            ..ClientConfig::new("v1-away")
        };
        let mut sub = UdpClient::connect(gw.local_addr(), config, timeout()).unwrap();
        let (topic, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!((topic, &payload[..]), (TopicRef::Id(1), &b"kept"[..]));
        // The subscription came back with the session: nothing re-issued.
        let mut publisher =
            UdpClient::connect(gw.local_addr(), ClientConfig::new("v1-pub2"), timeout()).unwrap();
        assert_eq!(publisher.register("v1/t", timeout()).unwrap(), 1);
        publisher
            .publish(1, b"live".to_vec(), QoS::AtLeastOnce, timeout())
            .unwrap();
        assert_eq!(sub.recv_message(timeout()).unwrap().1, b"live");
        gw.shutdown();
        std::fs::remove_file(&path).unwrap();
    }

    /// A file of several shards is refused while the file is being read:
    /// the address the builder was given is taken, and the refusal is
    /// about the data, so the socket was never bound — and the serve
    /// thread starts after that. (`tests/gateway_threads.rs` counts.)
    #[test]
    fn v1_four_shard_file_is_refused_before_the_socket_is_bound() {
        let empty = Broker::<SocketAddr>::new(BrokerConfig::default());
        let path = snap_path("v1-four-shards");
        write_v1_file(&path, &[], &[&empty; 4]);
        let taken = UdpSocket::bind("127.0.0.1:0").unwrap();
        assert_refused(&path, taken.local_addr().unwrap(), "four-shard");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_snapshot_write_is_counted() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let nowhere = std::env::temp_dir().join("mqtt-sn-no-such-dir/gateway.snap");
        assert!(broker.snapshot_to_file(&nowhere).is_err());
        assert_eq!(broker.stats().snapshot_failures, 1);
    }

    #[test]
    fn broker_survives_icmp_unreachable_from_departed_client() {
        let broker = UdpBroker::spawn(
            "127.0.0.1:0",
            BrokerConfig {
                retry_timeout: Duration::from_millis(100),
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let addr = broker.local_addr();
        // A QoS 1 subscriber that vanishes without disconnecting: broker
        // retransmissions to its dead port can bounce back as ICMP
        // port-unreachable (ECONNREFUSED on Linux).
        {
            let mut sub = UdpClient::connect(addr, ClientConfig::new("ghost"), timeout()).unwrap();
            sub.subscribe("g/#", QoS::AtLeastOnce, timeout()).unwrap();
        } // socket dropped here, no DISCONNECT sent
        let mut publisher =
            UdpClient::connect(addr, ClientConfig::new("alive"), timeout()).unwrap();
        let tid = publisher.register("g/t", timeout()).unwrap();
        publisher
            .publish(tid, vec![1], QoS::AtLeastOnce, timeout())
            .unwrap();
        // Let several retransmissions to the dead port happen.
        std::thread::sleep(Duration::from_millis(400));
        // The broker must still serve new clients.
        let mut check = UdpClient::connect(addr, ClientConfig::new("check"), timeout()).unwrap();
        assert!(check.register("g/ok", timeout()).is_ok());
        broker.shutdown();
    }

    #[test]
    fn garbage_datagrams_are_counted_not_swallowed() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.send_to(b"\xde\xad\xbe\xef not mqtt-sn", addr).unwrap();
        raw.send_to(&[0x05, 0x0c, 0x00], addr).unwrap(); // length mismatch

        let deadline = Instant::now() + timeout();
        while broker.stats().decode_errors < 2 {
            assert!(
                Instant::now() < deadline,
                "decode errors never surfaced: {:?}",
                broker.stats()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(broker.stats().decode_errors, 2);
        // The broker still serves well-formed traffic afterwards.
        let mut c = UdpClient::connect(addr, ClientConfig::new("ok"), timeout()).unwrap();
        assert!(c.register("g/after", timeout()).is_ok());
        broker.shutdown();
    }

    #[test]
    fn snapshot_does_not_stall_capture_traffic() {
        let broker = UdpBroker::spawn(
            "127.0.0.1:0",
            BrokerConfig {
                max_buffered: 1 << 14,
                ..BrokerConfig::default()
            },
        )
        .unwrap();
        let addr = broker.local_addr();

        // Inflate the broker state: a durable subscriber goes away and
        // accumulates a deep buffered backlog, the expensive thing a
        // snapshot has to serialize.
        {
            let mut away = UdpClient::connect(
                addr,
                ClientConfig {
                    clean_session: false,
                    ..ClientConfig::new("away")
                },
                timeout(),
            )
            .unwrap();
            away.subscribe("snap/bulk", QoS::AtLeastOnce, timeout())
                .unwrap();
            away.disconnect().unwrap();
        }
        let mut feeder = UdpClient::connect(addr, ClientConfig::new("feeder"), timeout()).unwrap();
        let bulk_tid = feeder.register("snap/bulk", timeout()).unwrap();
        for _ in 0..512 {
            feeder
                .publish(bulk_tid, vec![0x77; 4096], QoS::AtLeastOnce, timeout())
                .unwrap();
        }

        // Hammer snapshots from another thread while measuring publish
        // round-trip latency.
        let path = snap_path("stall");
        let stop = Arc::new(AtomicBool::new(false));
        let snapshots = Arc::new(AtomicU64::new(0));
        let broker = Arc::new(broker);
        let snapper = {
            let (stop, snapshots) = (Arc::clone(&stop), Arc::clone(&snapshots));
            let broker = Arc::clone(&broker);
            let path = path.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    broker.snapshot_to_file(&path).expect("snapshot written");
                    snapshots.fetch_add(1, Ordering::Relaxed);
                }
            })
        };

        // At least 50 publishes, and on until a whole snapshot has been
        // taken beside them: when the snapshot thread gets a core is the
        // scheduler's business.
        let mut worst = Duration::ZERO;
        let tid = feeder.register("snap/live", timeout()).unwrap();
        let deadline = Instant::now() + timeout();
        let mut published = 0;
        while published < 50 || snapshots.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "snapshot thread never ran");
            let t = Instant::now();
            feeder
                .publish(tid, vec![1; 32], QoS::AtLeastOnce, timeout())
                .unwrap();
            worst = worst.max(t.elapsed());
            published += 1;
        }
        stop.store(true, Ordering::Relaxed);
        snapper.join().unwrap();
        std::fs::remove_file(&path).unwrap();
        // Generous CI bound: the serve loop must never sit behind a deep
        // state clone or a disk write. (The pre-fix
        // deep-clone-under-lock implementation is what this guards
        // against regressing to.)
        assert!(
            worst < Duration::from_secs(1),
            "publish latency spiked to {worst:?} across concurrent snapshots"
        );
    }

    #[test]
    fn connect_to_dead_broker_times_out() {
        // Bind a socket and drop it so nothing answers.
        let dead = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let err = UdpClient::connect(
            addr,
            ClientConfig::new("nobody"),
            Duration::from_millis(200),
        )
        .err()
        .expect("must fail");
        assert!(matches!(err, NetError::Timeout(_) | NetError::Io(_)));
    }

    /// Scripted deterministic fault: drops every datagram (both
    /// directions) whose index is in the configured drop list.
    #[derive(Debug)]
    struct DropNth {
        next: std::sync::atomic::AtomicU64,
        drop: Vec<u64>,
    }

    impl DatagramFault for DropNth {
        fn fate(&self, dir: FaultDir, _datagram: &[u8]) -> DatagramFate {
            if dir != FaultDir::Inbound {
                return DatagramFate::Deliver;
            }
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if self.drop.contains(&i) {
                DatagramFate::Drop
            } else {
                DatagramFate::Deliver
            }
        }
    }

    #[test]
    fn qos1_publish_survives_injected_datagram_loss() {
        // Drop the broker's first sight of the PUBLISH (inbound datagram
        // index 4: CONNECT, REGISTER ×2 clients... the exact index does
        // not matter — drop a window and let retransmission win).
        let fault = Arc::new(DropNth {
            next: std::sync::atomic::AtomicU64::new(0),
            drop: vec![4, 5],
        });
        let config = BrokerConfig {
            retry_timeout: Duration::from_millis(200), // keep the test fast
            ..BrokerConfig::default()
        };
        let broker = UdpBroker::builder("127.0.0.1:0")
            .config(config)
            .faults(fault)
            .spawn()
            .unwrap();
        let addr = broker.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("sub"), timeout()).unwrap();
        sub.subscribe("f/#", QoS::AtLeastOnce, timeout()).unwrap();
        let mut pub_cfg = ClientConfig::new("pub");
        pub_cfg.retry_timeout = Duration::from_millis(200);
        let mut publisher = UdpClient::connect(addr, pub_cfg, timeout()).unwrap();
        let tid = publisher.register("f/dev", timeout()).unwrap();
        publisher
            .publish(tid, b"lossy".to_vec(), QoS::AtLeastOnce, timeout())
            .unwrap();
        let (_, payload) = sub.recv_message(timeout()).unwrap();
        assert_eq!(payload, b"lossy");
    }

    /// A peer we did not write may put two PUBLISHes in one datagram: the
    /// gateway splits it where it comes in, so both are delivered exactly
    /// once, as two separate datagrams would be.
    #[test]
    fn two_publishes_in_one_datagram_are_two_publishes() {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let mut sub = UdpClient::connect(addr, ClientConfig::new("bsub"), timeout()).unwrap();
        sub.subscribe("bun/#", QoS::ExactlyOnce, timeout()).unwrap();

        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.connect(addr).unwrap();
        raw.set_read_timeout(Some(timeout())).unwrap();
        let mut rbuf = [0u8; 256];
        // Sends one datagram and reads until `expect` replies are in,
        // however the gateway spread them over datagrams.
        let mut exchange = |datagram: &[u8], expect: usize| -> Vec<Packet> {
            raw.send(datagram).unwrap();
            let mut replies = Vec::new();
            while replies.len() < expect {
                let n = raw.recv(&mut rbuf).unwrap();
                replies.extend(frames(&rbuf[..n]).map(|f| Packet::decode(f).unwrap()));
            }
            replies
        };
        let connect = Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "bdev".into(),
        };
        assert!(matches!(
            exchange(&connect.encode(), 1)[..],
            [Packet::ConnAck { .. }]
        ));
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "bun/dev".into(),
        };
        let tid = match exchange(&register.encode(), 1)[..] {
            [Packet::RegAck { topic_id, .. }] => topic_id,
            ref other => panic!("unexpected {other:?}"),
        };
        let publish = |msg_id: u16| Packet::Publish {
            dup: false,
            qos: QoS::ExactlyOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id,
            payload: vec![msg_id as u8],
        };
        let mut bundle = publish(2).encode();
        publish(3).encode_into(&mut bundle);
        assert_eq!(
            exchange(&bundle, 2),
            [Packet::PubRec { msg_id: 2 }, Packet::PubRec { msg_id: 3 }]
        );
        let mut releases = Packet::PubRel { msg_id: 2 }.encode();
        Packet::PubRel { msg_id: 3 }.encode_into(&mut releases);
        assert_eq!(
            exchange(&releases, 2),
            [Packet::PubComp { msg_id: 2 }, Packet::PubComp { msg_id: 3 }]
        );

        for msg_id in [2u8, 3] {
            let (_, payload) = sub.recv_message(timeout()).unwrap();
            assert_eq!(payload, vec![msg_id], "in order");
        }
        assert!(
            sub.recv_message(Duration::from_millis(100)).is_err(),
            "exactly once"
        );
        let stats = gw.stats();
        assert_eq!(stats.publishes_in, 2);
        assert_eq!(stats.publishes_out, 2);
        assert_eq!(stats.duplicates_suppressed, 0);
        assert_eq!(stats.decode_errors, 0);
        gw.shutdown();
    }

    #[test]
    fn undecodable_tail_of_a_bundle_is_one_decode_error() {
        let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = broker.local_addr();
        let mut c = UdpClient::connect(addr, ClientConfig::new("tail"), timeout()).unwrap();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut datagram = Packet::PingReq.encode();
        datagram.extend_from_slice(&[0x09, 0x0c, 0x00]); // declares 9, has 3
        raw.send_to(&datagram, addr).unwrap();
        // The register round trip is served after the datagram above.
        c.register("tail/t", timeout()).unwrap();
        assert_eq!(broker.stats().decode_errors, 1);
        broker.shutdown();
    }

    /// Counts the datagrams crossing one client's link, both directions,
    /// and lets all of them through.
    #[derive(Debug, Default)]
    struct CountDatagrams(AtomicU64);

    impl DatagramFault for CountDatagrams {
        fn fate(&self, _dir: FaultDir, _datagram: &[u8]) -> DatagramFate {
            self.0.fetch_add(1, Ordering::Relaxed);
            DatagramFate::Deliver
        }
    }

    /// A gateway with a local subscription on everything, and a connected,
    /// registered publisher whose link counts datagrams from here on.
    fn counted_publisher(
        id: &str,
    ) -> (
        UdpBroker,
        LocalSubscription,
        UdpClient,
        u16,
        Arc<CountDatagrams>,
    ) {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let sub = gw.subscribe_local("#").unwrap();
        let mut c = UdpClient::connect(gw.local_addr(), ClientConfig::new(id), timeout()).unwrap();
        let tid = c.register("cnt/dev", timeout()).unwrap();
        let counter = Arc::new(CountDatagrams::default());
        c.set_fault(counter.clone());
        (gw, sub, c, tid, counter)
    }

    fn assert_delivered_once_in_order(sub: &mut LocalSubscription, gw: &UdpBroker, n: u32) {
        let mut batch = Vec::new();
        sub.try_recv(&mut batch);
        let got: Vec<Vec<u8>> = batch.iter().map(|m| m.payload.clone()).collect();
        let sent: Vec<Vec<u8>> = (0..n).map(|i| i.to_be_bytes().to_vec()).collect();
        assert_eq!(got, sent);
        let stats = gw.stats();
        assert_eq!(stats.publishes_in, n as u64);
        assert_eq!(stats.duplicates_suppressed, 0);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.decode_errors, 0);
    }

    /// The structural guard on the saving: a publisher paced the way
    /// `transmitter_loop` paces one (publish, pump, next) spends two
    /// datagrams per QoS 2 message, not four — PUBREL k rides in front of
    /// PUBLISH k + 1, and PUBCOMP k comes back with PUBREC k + 1.
    #[test]
    fn paced_qos2_publishes_cost_two_datagrams_each() {
        const N: u32 = 200;
        let (gw, mut sub, mut c, tid, counter) = counted_publisher("paced");
        let mut done = 0;
        let mut absorb = |c: &mut UdpClient| {
            while let Some(e) = c.pop_event() {
                assert!(matches!(e, ClientEvent::PublishDone { .. }), "{e:?}");
                done += 1;
            }
        };
        for i in 0..N {
            c.publish_nowait(tid, i.to_be_bytes().to_vec(), QoS::ExactlyOnce)
                .unwrap();
            c.pump().unwrap();
            absorb(&mut c);
        }
        let deadline = Instant::now() + timeout();
        while c.inflight_len() > 0 {
            assert!(Instant::now() < deadline, "handshakes never completed");
            c.pump().unwrap();
        }
        absorb(&mut c);
        assert_eq!(done, N);
        let datagrams = counter.0.load(Ordering::Relaxed);
        assert!(
            datagrams <= 2 * N as u64 + 8,
            "{datagrams} datagrams for {N} QoS 2 messages"
        );
        assert_delivered_once_in_order(&mut sub, &gw, N);
        gw.shutdown();
    }

    /// The hold is bounded: a publisher that goes quiet after one message
    /// has its PUBREL sent alone by the next pump, which also reads the
    /// PUBCOMP, and the handshake costs the four datagrams it always did.
    #[test]
    fn held_pubrel_is_released_when_no_publish_follows() {
        let (gw, mut sub, mut c, tid, counter) = counted_publisher("quiet");
        c.publish_nowait(tid, 0u32.to_be_bytes().to_vec(), QoS::ExactlyOnce)
            .unwrap();
        // Pump until the PUBREC is in (PUBLISH out + PUBREC in = 2).
        let deadline = Instant::now() + timeout();
        while counter.0.load(Ordering::Relaxed) < 2 {
            assert!(Instant::now() < deadline, "no PUBREC");
            c.pump().unwrap();
        }
        assert_eq!(counter.0.load(Ordering::Relaxed), 2, "PUBREL is held");
        assert_eq!(c.inflight_len(), 1);
        // Nothing came to carry it: this pump sends it alone first, then
        // reads (a loaded host may need a second read for the PUBCOMP).
        c.pump().unwrap();
        assert!(counter.0.load(Ordering::Relaxed) >= 3, "PUBREL still held");
        if c.inflight_len() > 0 {
            c.pump().unwrap();
        }
        assert!(matches!(
            c.pop_event(),
            Some(ClientEvent::PublishDone { .. })
        ));
        assert_eq!(c.inflight_len(), 0);
        assert_eq!(counter.0.load(Ordering::Relaxed), 4);
        assert_delivered_once_in_order(&mut sub, &gw, 1);
        gw.shutdown();
    }

    /// Blocking `publish` waits by pumping, and a pump sends what is held
    /// before it reads: every handshake is the four datagrams it was, and
    /// none of them sits out a read timeout (10 ms each — 2 s over this
    /// loop — if the PUBREL went out only after the read).
    #[test]
    fn blocking_publish_never_waits_on_a_held_pubrel() {
        const N: u32 = 200;
        let (gw, mut sub, mut c, tid, counter) = counted_publisher("blocking");
        let started = Instant::now();
        for i in 0..N {
            c.publish(tid, i.to_be_bytes().to_vec(), QoS::ExactlyOnce, timeout())
                .unwrap();
        }
        let elapsed = started.elapsed();
        assert_eq!(counter.0.load(Ordering::Relaxed), 4 * N as u64);
        assert!(elapsed < Duration::from_secs(1), "{elapsed:?}");
        assert_delivered_once_in_order(&mut sub, &gw, N);
        gw.shutdown();
    }

    /// Counts the PUBRELs leaving one client, however they are bundled.
    #[derive(Debug, Default)]
    struct CountPubrels(AtomicU64);

    impl DatagramFault for CountPubrels {
        fn fate(&self, dir: FaultDir, datagram: &[u8]) -> DatagramFate {
            let pubrel = |frame: &&[u8]| matches!(Packet::decode(frame), Ok(Packet::PubRel { .. }));
            if dir == FaultDir::Outbound {
                let n = frames(datagram).filter(pubrel).count();
                self.0.fetch_add(n as u64, Ordering::Relaxed);
            }
            DatagramFate::Deliver
        }
    }

    /// A hold that outlives `Tretry` (nobody pumps, nothing is published)
    /// meets the slot's retransmit timer. The timer's PUBREL finds the first
    /// copy still held and sends that copy: one PUBREL on the wire, not a
    /// second one queued behind the first, and not `Nretry` holds ending in
    /// `PublishFailed` for a message the gateway delivered long ago.
    #[test]
    fn retry_timer_never_duplicates_a_held_pubrel() {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let mut sub = gw.subscribe_local("#").unwrap();
        let retry = Duration::from_millis(60);
        let config = ClientConfig {
            retry_timeout: retry,
            max_retries: 1,
            ..ClientConfig::new("overdue")
        };
        let mut c = UdpClient::connect(gw.local_addr(), config, timeout()).unwrap();
        let tid = c.register("cnt/dev", timeout()).unwrap();
        let pubrels = Arc::new(CountPubrels::default());
        c.set_fault(pubrels.clone());

        c.publish_nowait(tid, 0u32.to_be_bytes().to_vec(), QoS::ExactlyOnce)
            .unwrap();
        // The gateway holds the PUBREC: ask for it.
        c.ask().unwrap();
        let deadline = Instant::now() + timeout();
        while c.reply_expected() {
            assert!(Instant::now() < deadline, "no PUBREC");
            c.pump().unwrap();
        }
        assert_eq!(
            c.inflight_len(),
            1,
            "held, and owed nothing until it leaves"
        );
        assert_eq!(pubrels.0.load(Ordering::Relaxed), 0);
        let release_by = c.next_deadline().expect("a held PUBREL has a deadline");
        assert!(release_by <= Instant::now() + retry / 2, "half a Tretry");

        // Nobody pumps until the retransmit timer is past due twice over:
        // with one retry allowed, two spent holds would be a failure.
        std::thread::sleep(retry * 3);
        c.tick().unwrap();
        assert_eq!(pubrels.0.load(Ordering::Relaxed), 1, "the held copy, once");
        assert!(c.reply_expected(), "it has left: a PUBCOMP is owed");
        while c.inflight_len() > 0 {
            assert!(Instant::now() < deadline, "no PUBCOMP");
            c.pump().unwrap();
        }
        assert_eq!(pubrels.0.load(Ordering::Relaxed), 1);
        assert!(matches!(
            c.pop_event(),
            Some(ClientEvent::PublishDone { .. })
        ));
        assert_eq!(c.pop_event(), None, "no PublishFailed");
        assert_delivered_once_in_order(&mut sub, &gw, 1);
        gw.shutdown();
    }

    /// How long [`DelayFirst`] holds its datagram.
    const DELAY: Duration = Duration::from_millis(150);

    /// Delays, by [`DELAY`], the first datagram crossing in `dir` that
    /// carries a message `carries` picks; lets every other datagram through
    /// and counts those crossing in `dir`.
    #[derive(Debug)]
    struct DelayFirst {
        dir: FaultDir,
        carries: fn(&Packet) -> bool,
        delayed: AtomicBool,
        seen: AtomicU64,
    }

    impl DelayFirst {
        fn new(dir: FaultDir, carries: fn(&Packet) -> bool) -> Arc<DelayFirst> {
            Arc::new(DelayFirst {
                dir,
                carries,
                delayed: AtomicBool::new(false),
                seen: AtomicU64::new(0),
            })
        }

        fn delayed(&self) -> bool {
            self.delayed.load(Ordering::Relaxed)
        }
    }

    impl DatagramFault for DelayFirst {
        fn fate(&self, dir: FaultDir, datagram: &[u8]) -> DatagramFate {
            if dir != self.dir {
                return DatagramFate::Deliver;
            }
            self.seen.fetch_add(1, Ordering::Relaxed);
            let carries =
                frames(datagram).any(|f| Packet::decode(f).is_ok_and(|p| (self.carries)(&p)));
            if carries && !self.delayed.swap(true, Ordering::Relaxed) {
                DatagramFate::Delay(DELAY)
            } else {
                DatagramFate::Deliver
            }
        }
    }

    fn is_publish(p: &Packet) -> bool {
        matches!(p, Packet::Publish { .. })
    }

    fn is_puback(p: &Packet) -> bool {
        matches!(p, Packet::PubAck { .. })
    }

    /// A device whose plan delays one datagram of a QoS 1 exchange — the
    /// PUBLISH on its way out, or the PUBACK on its way in — after a
    /// reconnect, so the plan installed on the old socket decides it. The
    /// held datagram sets [`UdpClient::next_deadline`], and
    /// [`UdpClient::tick`] alone lets it go once its delay is over, once.
    fn delayed_at_the_device(dir: FaultDir, carries: fn(&Packet) -> bool) {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let mut sub = gw.subscribe_local("#").unwrap();
        let mut c =
            UdpClient::connect(gw.local_addr(), ClientConfig::new("dly"), timeout()).unwrap();
        let tid = c.register("dly/dev", timeout()).unwrap();
        let plan = DelayFirst::new(dir, carries);
        c.set_fault(plan.clone());
        reconnect(&mut c);
        // Resumption re-registers the topic.
        while c.pop_event().is_some() {}
        assert!(
            plan.seen.load(Ordering::Relaxed) > 0,
            "the reconnect crossed the plan"
        );
        assert!(!plan.delayed());

        c.publish_nowait(tid, b"late".to_vec(), QoS::AtLeastOnce)
            .unwrap();
        // The gateway holds the PUBACK: ask for it, so the fault plan's
        // delay is the only one.
        c.ask().unwrap();
        let deadline = Instant::now() + timeout();
        while !plan.delayed() {
            assert!(Instant::now() < deadline, "nothing to delay");
            c.pump().unwrap();
        }
        let held_by = Instant::now();
        let release = c.next_deadline().expect("a held datagram has a deadline");
        assert!(release <= held_by + DELAY, "{:?} late", release - held_by);
        // Only the PUBACK is owed the device, and only the PUBLISH the
        // gateway.
        let counted_early = u64::from(dir == FaultDir::Inbound);
        c.tick().unwrap();
        if Instant::now() < release {
            assert_eq!(c.inflight_len(), 1, "released early");
            assert_eq!(gw.stats().publishes_in, counted_early, "released early");
        }

        std::thread::sleep(release.saturating_duration_since(Instant::now()));
        c.tick().unwrap();
        // Released by the tick: the gateway has the PUBLISH, or the client
        // the PUBACK, without another read of the socket.
        while gw.stats().publishes_in == 0 {
            assert!(Instant::now() < deadline, "the PUBLISH was never released");
            std::thread::sleep(Duration::from_millis(1));
        }
        if dir == FaultDir::Inbound {
            assert_eq!(c.inflight_len(), 0, "the PUBACK was released");
        }
        while c.inflight_len() > 0 {
            assert!(Instant::now() < deadline, "no PUBACK");
            c.pump().unwrap();
        }
        c.tick().unwrap();
        assert!(matches!(
            c.pop_event(),
            Some(ClientEvent::PublishDone { .. })
        ));
        assert_eq!(c.pop_event(), None, "released once");
        // Nothing is held any more: what is next is the keep-alive.
        assert!(c.next_deadline().unwrap() > Instant::now() + DELAY);
        let mut got = Vec::new();
        sub.try_recv(&mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"late");
        let stats = gw.stats();
        assert_eq!((stats.publishes_in, stats.retransmissions), (1, 0));
        gw.shutdown();
    }

    #[test]
    fn device_releases_a_delayed_outbound_datagram_on_tick() {
        delayed_at_the_device(FaultDir::Outbound, is_publish);
    }

    #[test]
    fn device_releases_a_delayed_inbound_datagram_on_tick() {
        delayed_at_the_device(FaultDir::Inbound, is_puback);
    }

    /// A gateway whose plan delays one datagram of a QoS 1 exchange — the
    /// PUBLISH coming in, or the PUBACK going out: the publisher's reply
    /// comes after the delay, and the publish is counted and delivered
    /// once.
    fn delayed_at_the_gateway(dir: FaultDir, carries: fn(&Packet) -> bool) {
        let plan = DelayFirst::new(dir, carries);
        let gw = UdpBroker::builder("127.0.0.1:0")
            .faults(plan.clone())
            .spawn()
            .unwrap();
        let mut sub = gw.subscribe_local("#").unwrap();
        let mut c =
            UdpClient::connect(gw.local_addr(), ClientConfig::new("gdly"), timeout()).unwrap();
        let tid = c.register("gdly/dev", timeout()).unwrap();
        let sent = Instant::now();
        c.publish(tid, b"late".to_vec(), QoS::AtLeastOnce, timeout())
            .unwrap();
        assert!(plan.delayed());
        assert!(sent.elapsed() >= DELAY, "reply after {:?}", sent.elapsed());
        let mut got = Vec::new();
        sub.try_recv(&mut got);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"late");
        let stats = gw.stats();
        assert_eq!(stats.publishes_in, 1);
        assert_eq!(stats.duplicates_suppressed, 0);
        assert_eq!(stats.retransmissions, 0);
        gw.shutdown();
    }

    #[test]
    fn gateway_delays_an_inbound_publish() {
        delayed_at_the_gateway(FaultDir::Inbound, is_publish);
    }

    #[test]
    fn gateway_delays_an_outbound_reply() {
        delayed_at_the_gateway(FaultDir::Outbound, is_puback);
    }

    /// Records every datagram crossing one client's link, both directions,
    /// split into its messages, and lets all of them through.
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
        /// The datagrams that crossed in `dir` so far, with when they did.
        fn crossed(&self, dir: FaultDir) -> Vec<(Instant, Vec<Packet>)> {
            let seen = self.0.lock().unwrap();
            let crossed = seen.iter().filter(|(_, d, _)| *d == dir);
            crossed
                .map(|(at, _, packets)| (*at, packets.clone()))
                .collect()
        }
    }

    /// [`counted_publisher`] with the link recorded instead of counted.
    fn recorded_publisher(id: &str) -> (UdpBroker, LocalSubscription, UdpClient, u16, Arc<Wire>) {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let sub = gw.subscribe_local("#").unwrap();
        let mut c = UdpClient::connect(gw.local_addr(), ClientConfig::new(id), timeout()).unwrap();
        let tid = c.register("rec/dev", timeout()).unwrap();
        let wire = Arc::new(Wire::default());
        c.set_fault(wire.clone());
        (gw, sub, c, tid, wire)
    }

    /// A device that publishes every 2 ms, driven the way the transmitter
    /// drives one — a read when a reply is expected, the timers otherwise:
    /// the gateway holds the acknowledgements and answers once per hold or
    /// ask, not once per message, and the device asks when half its window
    /// is in flight. Every handshake still completes, every message is
    /// delivered once and in order, and nothing is retransmitted.
    #[test]
    fn a_stream_is_answered_once_per_hold() {
        const N: u32 = 200;
        let (gw, mut sub, mut c, tid, wire) = recorded_publisher("stream");
        let mut done = 0;
        let mut absorb = |c: &mut UdpClient| {
            while let Some(e) = c.pop_event() {
                assert!(matches!(e, ClientEvent::PublishDone { .. }), "{e:?}");
                done += 1;
            }
        };
        for i in 0..N {
            c.publish_nowait(tid, i.to_be_bytes().to_vec(), QoS::ExactlyOnce)
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
            if c.reply_expected() {
                c.pump().unwrap();
            } else {
                c.tick().unwrap();
            }
            absorb(&mut c);
        }
        let deadline = Instant::now() + timeout();
        while c.inflight_len() > 0 {
            assert!(Instant::now() < deadline, "handshakes never completed");
            c.ask().unwrap();
            c.pump().unwrap();
        }
        absorb(&mut c);
        assert_eq!(done, N);
        let answers = wire.crossed(FaultDir::Inbound).len();
        assert!(
            answers <= N as usize / 10,
            "{answers} datagrams answered {N} streamed QoS 2 messages"
        );
        assert_delivered_once_in_order(&mut sub, &gw, N);
        gw.shutdown();
    }

    /// A publish after a pause asks for nothing either: the gateway holds
    /// its answer like any other and sends it at its first serve wake a
    /// hold later, and the device, which never waits on its socket for it,
    /// reads it at its read deadline, 2 × `ACK_HOLD` after the PUBLISH.
    #[test]
    fn a_publish_after_a_pause_is_answered_a_hold_later() {
        let (gw, mut sub, mut c, tid, wire) = recorded_publisher("pause");
        let hold = Duration::from_nanos(crate::hold::ACK_HOLD);
        let mut sent = Vec::new();
        for i in 0..2u32 {
            if i > 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            sent.push(Instant::now());
            c.publish_nowait(tid, i.to_be_bytes().to_vec(), QoS::ExactlyOnce)
                .unwrap();
            let answered = wire.crossed(FaultDir::Inbound).len();
            let deadline = Instant::now() + timeout();
            while wire.crossed(FaultDir::Inbound).len() == answered {
                assert!(Instant::now() < deadline, "no answer");
                assert!(!c.reply_expected(), "it waits on its socket unasked");
                let read_at = c.next_deadline().expect("a read deadline");
                std::thread::sleep(read_at.saturating_duration_since(Instant::now()));
                c.tick().unwrap();
            }
        }
        let answers = wire.crossed(FaultDir::Inbound);
        let ids: Vec<u16> = match wire.crossed(FaultDir::Outbound)[..] {
            [(_, ref first), (_, ref second)] => [first, second]
                .iter()
                .map(|packets| match packets.last() {
                    Some(Packet::Publish { msg_id, .. }) => *msg_id,
                    other => panic!("unexpected {other:?}"),
                })
                .collect(),
            ref other => panic!("unexpected {other:?}"),
        };
        let shapes: Vec<&[Packet]> = answers.iter().map(|(_, p)| &p[..]).collect();
        assert_eq!(
            shapes,
            [
                &[Packet::PubRec { msg_id: ids[0] }][..],
                &[
                    Packet::PubComp { msg_id: ids[0] },
                    Packet::PubRec { msg_id: ids[1] }
                ][..],
            ]
        );
        for ((answered, _), sent) in answers.iter().zip(&sent) {
            let after = answered.duration_since(*sent);
            let read_at = 2 * hold;
            assert!(after >= read_at, "read after {after:?}");
            assert!(after < read_at + 5 * READ_TIMEOUT, "read after {after:?}");
        }
        c.pump().unwrap();
        assert_delivered_once_in_order(&mut sub, &gw, 2);
        gw.shutdown();
    }

    /// What the gateway holds for a stream leaves at once, in front of the
    /// answer, when the device sends a datagram without a PUBLISH: a
    /// PINGREQ, or PUBRELs on their own. Either means it is waiting.
    #[test]
    fn a_datagram_without_a_publish_releases_what_is_held() {
        let gw = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
        let addr = gw.local_addr();
        let raw = UdpSocket::bind("127.0.0.1:0").unwrap();
        raw.connect(addr).unwrap();
        raw.set_read_timeout(Some(timeout())).unwrap();
        let mut rbuf = [0u8; 256];
        let mut answer = |datagram: &[u8]| -> Vec<Packet> {
            raw.send(datagram).unwrap();
            let n = raw.recv(&mut rbuf).unwrap();
            frames(&rbuf[..n])
                .map(|f| Packet::decode(f).unwrap())
                .collect()
        };
        let connect = Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "held".into(),
        };
        assert!(matches!(
            answer(&connect.encode())[..],
            [Packet::ConnAck { .. }]
        ));
        let register = Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "held/dev".into(),
        };
        let tid = match answer(&register.encode())[..] {
            [Packet::RegAck { topic_id, .. }] => topic_id,
            ref other => panic!("unexpected {other:?}"),
        };
        let publish = |msg_id: u16| {
            let publish = Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(tid),
                msg_id,
                payload: vec![msg_id as u8],
            };
            publish.encode()
        };
        let pubrels = |ids: &[u16]| {
            let mut datagram = Vec::new();
            for &msg_id in ids {
                Packet::PubRel { msg_id }.encode_into(&mut datagram);
            }
            datagram
        };
        let pause = || std::thread::sleep(Duration::from_millis(1));

        // A stream starts: nothing asks, so even its first PUBLISH is
        // answered only when the hold runs out, `ACK_HOLD` later.
        assert_eq!(answer(&publish(2)), [Packet::PubRec { msg_id: 2 }]);
        // The next is held until a PINGREQ asks.
        raw.send(&publish(3)).unwrap();
        pause();
        assert_eq!(
            answer(&Packet::PingReq.encode()),
            [Packet::PubRec { msg_id: 3 }, Packet::PingResp]
        );
        // And the next until PUBRELs on their own do.
        raw.send(&publish(4)).unwrap();
        pause();
        assert_eq!(
            answer(&pubrels(&[2, 3])),
            [
                Packet::PubRec { msg_id: 4 },
                Packet::PubComp { msg_id: 2 },
                Packet::PubComp { msg_id: 3 }
            ]
        );
        assert_eq!(answer(&pubrels(&[4])), [Packet::PubComp { msg_id: 4 }]);
        let stats = gw.stats();
        assert_eq!(stats.publishes_in, 3);
        assert_eq!(stats.duplicates_suppressed, 0);
        assert_eq!(stats.decode_errors, 0);
        gw.shutdown();
    }

    /// A gateway stopped while it holds a stream's acknowledgements sends
    /// them before its serve loop ends — and ends it at once, not at its
    /// next read time-out: every publish it accepted ends in `PublishDone`,
    /// and the device retransmits none.
    #[test]
    fn stop_sends_held_acks() {
        const N: u32 = 5;
        let (mut gw, mut sub, mut c, tid, wire) = recorded_publisher("stop");
        for i in 0..N {
            c.publish_nowait(tid, i.to_be_bytes().to_vec(), QoS::AtLeastOnce)
                .unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        let stopping = Instant::now();
        gw.stop();
        let stopped = stopping.elapsed();
        assert_eq!(gw.stats().publishes_in, N as u64);
        let deadline = Instant::now() + Duration::from_secs(1);
        let mut done = 0;
        while done < N {
            assert!(Instant::now() < deadline, "{done} of {N} acknowledged");
            c.pump().unwrap();
            while let Some(e) = c.pop_event() {
                assert!(matches!(e, ClientEvent::PublishDone { .. }), "{e:?}");
                done += 1;
            }
        }
        let sent = wire.crossed(FaultDir::Outbound);
        assert_eq!(sent.len(), N as usize, "retransmitted: {sent:?}");
        assert!(stopped < READ_TIMEOUT / 2, "stop took {stopped:?}");
        assert_delivered_once_in_order(&mut sub, &gw, N);
    }
}
