//! Durability end to end over real UDP: outages that outlast the RAM
//! buffer spill to a flash WAL and replay exactly once; a killed client
//! process recovers its unsent spill on restart; a killed *gateway*
//! process restarts from a disk snapshot. The flash tier extends the
//! paper's §IV disconnection tolerance from "as long as RAM lasts" to "as
//! long as flash lasts".

use provlight::core::client::ProvLightClient;
use provlight::core::config::{CaptureConfig, GroupPolicy};
use provlight::mqtt_sn::broker::BrokerConfig;
use provlight::mqtt_sn::net::{UdpBroker, UdpClient};
use provlight::mqtt_sn::{ClientConfig, ClientEvent, QoS};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::Record;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const COLLECTOR_ID: &str = "durability-collector";

/// A subscriber that keeps collecting decoded records across broker
/// outages (mirrors the server-side translator loop's transient-error
/// tolerance).
struct Collector {
    records: Arc<Mutex<Vec<Record>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Collector {
    fn start(broker: std::net::SocketAddr, filter: &str) -> Collector {
        let mut sub = UdpClient::connect(
            broker,
            ClientConfig::new(COLLECTOR_ID),
            Duration::from_secs(5),
        )
        .unwrap();
        sub.subscribe(filter, QoS::ExactlyOnce, Duration::from_secs(5))
            .unwrap();
        let records: Arc<Mutex<Vec<Record>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let records = Arc::clone(&records);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scratch: Vec<Record> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match sub.poll_event() {
                        Ok(Some(ClientEvent::Message { payload, .. })) => {
                            if Envelope::decode_into(&payload, &mut scratch).is_ok() {
                                records.lock().unwrap().append(&mut scratch);
                            }
                        }
                        Ok(_) => {}
                        Err(e) if e.is_transient() => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Collector {
            records,
            stop,
            thread: Some(thread),
        }
    }

    fn count(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    fn stop(mut self) -> Vec<Record> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        let records = self.records.lock().unwrap().clone();
        records
    }
}

fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

fn spill_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("provlight-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Restarts a gateway at `addr` from the snapshot file its predecessor
/// left at `snap` (see `UdpBroker::shutdown_to_file`).
fn resume(addr: std::net::SocketAddr, snap: &Path) -> UdpBroker {
    UdpBroker::builder(addr).resume_from(snap).spawn().unwrap()
}

/// Fast-detection, fast-reconnect, spill-enabled configuration: a tiny RAM
/// buffer (4 single-record envelopes) so outages overflow to flash almost
/// immediately.
fn spill_config(dir: &Path) -> CaptureConfig {
    CaptureConfig {
        group: GroupPolicy::Immediate,
        // One envelope per record: deterministic spill/evict granularity.
        max_payload: 1,
        buffer_max_records: 4,
        keep_alive: Duration::from_millis(200),
        retry_timeout: Duration::from_millis(300),
        max_retries: 50,
        reconnect_initial_backoff: Duration::from_millis(50),
        reconnect_max_backoff: Duration::from_millis(250),
        spill_dir: Some(dir.to_path_buf()),
        spill_max_bytes: 4 * 1024 * 1024,
        spill_segment_bytes: 4 * 1024,
        ..CaptureConfig::default()
    }
}

fn task_ids(records: &[Record]) -> Vec<u64> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::TaskBegin { task, .. } => match &task.id {
                provlight::prov_model::Id::Num(n) => Some(*n),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// The acceptance scenario: an outage larger than the RAM caps but within
/// `spill_max_bytes` completes with ZERO dropped records and in-order
/// exactly-once delivery after reconnect.
#[test]
fn outage_larger_than_ram_spills_to_flash_and_replays_exactly_once() {
    let dir = spill_dir("overflow");
    let snap = dir.with_extension("snap");
    let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    let addr = broker.local_addr();
    let collector = Collector::start(addr, "provlight/#");

    let client = ProvLightClient::connect(
        addr,
        "edge-spill-1",
        "provlight/wf-spill/edge-spill-1",
        spill_config(&dir),
    )
    .unwrap();
    let session = client.session();
    let wf = session.workflow(1u64);
    wf.begin().unwrap();
    client.flush().unwrap();

    broker.shutdown_to_file(&snap).unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || !client.stats().connected),
        "outage not detected"
    );

    // 20 single-record envelopes against a 4-record RAM cap: at least 16
    // must overflow to flash. Nothing may be dropped.
    let outage_records = 20u64;
    for t in 0..outage_records {
        let mut task = wf.task(t, 0u64, &[]);
        task.begin(vec![]).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            let s = client.stats();
            s.buffered_records == outage_records && s.spilled_records > 0
        }),
        "records never spilled: {:?}",
        client.stats()
    );
    let mid = client.stats();
    assert_eq!(mid.records_dropped, 0, "{mid:?}");
    assert_eq!(mid.wal_drops, 0, "{mid:?}");
    assert!(
        mid.spilled_records >= outage_records - 4,
        "RAM cap not enforced: {mid:?}"
    );

    // Restore; everything replays disk-first in original order.
    let broker = resume(addr, &snap);
    client.flush().unwrap();

    let expected = 1 + outage_records as usize; // wf-begin + task-begins
    assert!(
        wait_until(Duration::from_secs(15), || collector.count() >= expected),
        "records missing after restore: {} < {expected}",
        collector.count()
    );
    // Exactly once: give stragglers a chance to duplicate, then count.
    std::thread::sleep(Duration::from_millis(300));
    let records = collector.stop();
    assert_eq!(records.len(), expected, "duplicate or lost records");
    // Original capture order: timestamps are monotone per session.
    let times: Vec<u64> = records.iter().map(Record::time_ns).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "replay broke capture order");
    assert_eq!(task_ids(&records), (0..outage_records).collect::<Vec<_>>());

    let stats = client.stats();
    assert_eq!(stats.records_dropped, 0, "{stats:?}");
    assert_eq!(stats.wal_drops, 0, "{stats:?}");
    assert_eq!(stats.buffered_records, 0, "{stats:?}");
    assert!(stats.spilled_records >= outage_records - 4, "{stats:?}");
    assert!(stats.spill_bytes > 0, "{stats:?}");
    assert!(stats.records_replayed >= stats.spilled_records, "{stats:?}");

    client.shutdown();
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

/// Process death mid-outage: the dying transmitter persists its RAM buffer
/// to the WAL, and a restarted client recovers and replays every unsent
/// envelope (surfaced via `recovered_records`).
#[test]
fn client_restart_recovers_unsent_spill() {
    let dir = spill_dir("restart");
    let snap = dir.with_extension("snap");
    let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    let addr = broker.local_addr();
    let collector = Collector::start(addr, "provlight/#");

    let outage_records = 12u64;
    {
        let client = ProvLightClient::connect(
            addr,
            "edge-restart-1",
            "provlight/wf-restart/edge-restart-1",
            spill_config(&dir),
        )
        .unwrap();
        let session = client.session();
        let wf = session.workflow(2u64);
        wf.begin().unwrap();
        client.flush().unwrap();

        broker.shutdown_to_file(&snap).unwrap();
        assert!(wait_until(Duration::from_secs(10), || !client
            .stats()
            .connected));
        for t in 0..outage_records {
            let mut task = wf.task(t, 0u64, &[]);
            task.begin(vec![]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(10), || {
            client.stats().buffered_records == outage_records
        }));
        // The client process "dies" with the broker still unreachable:
        // client, session, and workflow handles all drop here (no flush) —
        // shutdown persistence must save the RAM backlog to the WAL.
    }
    // Bring the broker back for the restarted process.
    let broker = resume(addr, &snap);

    let client = ProvLightClient::connect(
        addr,
        "edge-restart-1",
        "provlight/wf-restart/edge-restart-1",
        spill_config(&dir),
    )
    .unwrap();
    let stats = client.stats();
    assert_eq!(
        stats.recovered_records, outage_records,
        "unsent spill not recovered: {stats:?}"
    );
    client.flush().unwrap();

    let expected = 1 + outage_records as usize;
    assert!(
        wait_until(Duration::from_secs(15), || collector.count() >= expected),
        "recovered records missing: {} < {expected}",
        collector.count()
    );
    std::thread::sleep(Duration::from_millis(300));
    let records = collector.stop();
    assert_eq!(records.len(), expected, "duplicate or lost records");
    assert_eq!(task_ids(&records), (0..outage_records).collect::<Vec<_>>());
    assert_eq!(client.stats().records_dropped, 0);
    client.shutdown();
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

/// Kill mid-spill: a torn final frame (the crash happened inside a WAL
/// write) is truncated on recovery and every *durable* frame replays
/// exactly once.
#[test]
fn torn_wal_tail_is_truncated_and_durable_records_replay() {
    let dir = spill_dir("torn");
    let snap = dir.with_extension("snap");
    let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    let addr = broker.local_addr();
    let collector = Collector::start(addr, "provlight/#");

    let outage_records = 10u64;
    {
        let client = ProvLightClient::connect(
            addr,
            "edge-torn-1",
            "provlight/wf-torn/edge-torn-1",
            spill_config(&dir),
        )
        .unwrap();
        let session = client.session();
        let wf = session.workflow(3u64);
        wf.begin().unwrap();
        client.flush().unwrap();

        broker.shutdown_to_file(&snap).unwrap();
        assert!(wait_until(Duration::from_secs(10), || !client
            .stats()
            .connected));
        for t in 0..outage_records {
            let mut task = wf.task(t, 0u64, &[]);
            task.begin(vec![]).unwrap();
        }
        assert!(wait_until(Duration::from_secs(10), || {
            client.stats().buffered_records == outage_records
        }));
    } // client + handles drop: the backlog persists to the WAL

    // Simulate the kill landing mid-write: append a torn frame (header
    // promising more payload than follows) to the newest segment.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty(), "no WAL segments written");
    {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(segments.last().unwrap())
            .unwrap();
        let mut torn = [0u8; 12 + 5];
        torn[0..4].copy_from_slice(&200u32.to_le_bytes()); // promises 200 bytes
        torn[4..8].copy_from_slice(&1u32.to_le_bytes());
        file.write_all(&torn).unwrap();
    }

    let _broker = resume(addr, &snap);
    let client = ProvLightClient::connect(
        addr,
        "edge-torn-1",
        "provlight/wf-torn/edge-torn-1",
        spill_config(&dir),
    )
    .unwrap();
    assert_eq!(
        client.stats().recovered_records,
        outage_records,
        "torn tail corrupted the durable prefix: {:?}",
        client.stats()
    );
    client.flush().unwrap();

    let expected = 1 + outage_records as usize;
    assert!(
        wait_until(Duration::from_secs(15), || collector.count() >= expected),
        "durable records missing: {} < {expected}",
        collector.count()
    );
    std::thread::sleep(Duration::from_millis(300));
    let records = collector.stop();
    assert_eq!(records.len(), expected, "torn frame replayed or data lost");
    assert_eq!(task_ids(&records), (0..outage_records).collect::<Vec<_>>());
    client.shutdown();
    _broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

/// When the outage outgrows even the flash budget, oldest WAL segments are
/// evicted with exact drop accounting, and the survivors are the newest
/// contiguous suffix.
#[test]
fn spill_cap_eviction_counts_drops_exactly() {
    let dir = spill_dir("cap");
    let snap = dir.with_extension("snap");
    let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    let addr = broker.local_addr();
    let collector = Collector::start(addr, "provlight/#");

    let config = CaptureConfig {
        // Tiny flash budget: a few hundred bytes of segments.
        spill_max_bytes: 700,
        spill_segment_bytes: 200,
        buffer_max_records: 2,
        ..spill_config(&dir)
    };
    let client =
        ProvLightClient::connect(addr, "edge-cap-1", "provlight/wf-evict/edge-cap-1", config)
            .unwrap();
    let session = client.session();
    let wf = session.workflow(4u64);
    wf.begin().unwrap();
    client.flush().unwrap();

    broker.shutdown_to_file(&snap).unwrap();
    assert!(wait_until(Duration::from_secs(10), || !client
        .stats()
        .connected));

    let outage_records = 40u64;
    for t in 0..outage_records {
        let mut task = wf.task(t, 0u64, &[]);
        task.begin(vec![]).unwrap();
    }
    assert!(
        wait_until(Duration::from_secs(10), || {
            let s = client.stats();
            s.wal_drops > 0 && s.buffered_records + s.records_dropped == outage_records
        }),
        "inexact drop accounting: {:?}",
        client.stats()
    );
    let mid = client.stats();
    assert_eq!(
        mid.records_dropped, mid.wal_drops,
        "all losses must be WAL evictions: {mid:?}"
    );

    let broker = resume(addr, &snap);
    client.flush().unwrap();

    let stats = client.stats();
    let expected = 1 + (outage_records - stats.records_dropped) as usize;
    assert!(
        wait_until(Duration::from_secs(15), || collector.count() >= expected),
        "survivors missing: {} < {expected}",
        collector.count()
    );
    std::thread::sleep(Duration::from_millis(300));
    let records = collector.stop();
    assert_eq!(records.len(), expected, "duplicate or extra records");
    // Oldest-first eviction: the survivors are a contiguous newest suffix.
    let ids = task_ids(&records);
    let expected_ids: Vec<u64> = (stats.records_dropped..outage_records).collect();
    assert_eq!(ids, expected_ids, "eviction was not oldest-first");

    client.shutdown();
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&snap);
}

/// Gateway process death: the gateway's state is persisted to a file, the
/// process dies, a NEW process restarts from the file, and live capture
/// rides through — sessions, subscriptions, and QoS dedup state intact.
#[test]
fn broker_process_death_survived_via_disk_snapshot() {
    let dir = spill_dir("broker-snap");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("gateway.snap");

    let broker = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    let addr = broker.local_addr();
    let collector = Collector::start(addr, "provlight/#");

    let client = ProvLightClient::connect(
        addr,
        "edge-bsnap",
        "provlight/wf-bsnap/edge-bsnap",
        spill_config(&dir.join("wal")),
    )
    .unwrap();
    let session = client.session();
    let wf = session.workflow(5u64);
    wf.begin().unwrap();
    for t in 0..3u64 {
        let mut task = wf.task(t, 0u64, &[]);
        task.begin(vec![]).unwrap();
        task.end(vec![]).unwrap();
    }
    client.flush().unwrap();

    // Persist to disk and kill the gateway process.
    broker.shutdown_to_file(&snap_path).unwrap();
    assert!(wait_until(Duration::from_secs(10), || !client
        .stats()
        .connected));
    // Capture continues during the gateway outage.
    for t in 3..6u64 {
        let mut task = wf.task(t, 0u64, &[]);
        task.begin(vec![]).unwrap();
        task.end(vec![]).unwrap();
    }

    // A fresh process restarts the gateway from the snapshot file.
    let broker = resume(addr, &snap_path);
    wf.end().unwrap();
    client.flush().unwrap();

    let expected = 1 + 6 * 2 + 1;
    assert!(
        wait_until(Duration::from_secs(15), || collector.count() >= expected),
        "records missing after gateway restart: {} < {expected}",
        collector.count()
    );
    std::thread::sleep(Duration::from_millis(300));
    let records = collector.stop();
    assert_eq!(records.len(), expected, "duplicate or lost records");
    let times: Vec<u64> = records.iter().map(Record::time_ns).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "gateway restart broke capture order");
    assert_eq!(client.stats().records_dropped, 0);

    client.shutdown();
    broker.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
