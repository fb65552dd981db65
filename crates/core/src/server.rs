//! The Provenance Manager (paper §V-A): the real-mode ProvLight server —
//! MQTT-SN broker, provenance data translator and DfAnalyzer-style store
//! (paper Fig. 3).
//!
//! In the paper, enabling `provenance: ProvenanceManager` in the E2Clab
//! configuration starts a DfAnalyzer container plus a ProvLight container
//! on the cloud layer. Here, [`ProvenanceManager::start`] launches the
//! same three in-process — everything a fleet of
//! [`ProvLightClient`](crate::client::ProvLightClient)s needs.

use crate::translator::{DfAnalyzerTranslator, Translator};
use mqtt_sn::net::{NetError, UdpBroker};
use mqtt_sn::{BrokerConfig, LocalMessage, LocalSubscription};
use prov_codec::frame::Envelope;
use prov_model::Record;
use prov_store::sharded::{shared_sharded, SharedShardedStore};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running provenance stack: the gateway, one translator thread and the
/// store it feeds.
///
/// The translator lives in the gateway's process, so it is a *local*
/// subscriber ([`UdpBroker::subscribe_local`]): the gateway hands each
/// accepted publish over through an in-memory queue, and the only MQTT-SN
/// leg is the one from the devices. The translator thread owns its
/// [`DfAnalyzerTranslator`] outright and takes the store's one write lock
/// per envelope.
pub struct ProvenanceManager {
    broker: UdpBroker,
    store: SharedShardedStore,
    counters: Arc<Counters>,
    translator: Option<JoinHandle<()>>,
}

/// What the translator thread counts, read without stopping it.
#[derive(Default)]
struct Counters {
    messages: AtomicU64,
    decode_errors: AtomicU64,
}

/// Ingestion-side observability counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Messages that failed to decode (wire corruption or foreign
    /// publishers on the topic).
    pub decode_errors: u64,
    /// Messages decoded and handed to the store — comparable against the
    /// broker's delivered-publish count.
    pub messages_total: u64,
    /// Broker backlog at snapshot time: messages queued for the
    /// translator and not yet taken, plus whatever is buffered or
    /// unacknowledged toward remote subscribers. A translator that falls
    /// behind ingestion inflates this, which drives `congestion_level` —
    /// so translator lag propagates to gateway publishers as pacing, and
    /// at the hard level as refused (never acknowledged-then-dropped)
    /// publishes, instead of silent buffer growth.
    pub broker_backlog: u64,
    /// Broker congestion level at snapshot time (0 clear / 1 soft /
    /// 2 hard).
    pub congestion_level: u8,
}

impl ProvenanceManager {
    /// Starts the stack on the given bind address (port 0 picks a free
    /// port): the gateway's thread and one translator thread, subscribed
    /// to `provlight/#` so it covers every device topic.
    pub fn start(bind: &str) -> Result<ProvenanceManager, NetError> {
        let broker = UdpBroker::spawn(bind, BrokerConfig::default()).map_err(NetError::Io)?;
        let store = shared_sharded();
        let subscription = broker.subscribe_local("provlight/#")?;
        let counters = Arc::new(Counters::default());
        let translator = DfAnalyzerTranslator::new(store.clone());
        let thread_counters = Arc::clone(&counters);
        let thread =
            std::thread::spawn(move || translate(subscription, translator, &thread_counters));
        Ok(ProvenanceManager {
            broker,
            store,
            counters,
            translator: Some(thread),
        })
    }

    /// Broker address for device clients.
    pub fn broker_addr(&self) -> SocketAddr {
        self.broker.local_addr()
    }

    /// The queryable provenance store (DfAnalyzer role), behind one lock:
    /// aggregate counters via `store().stats()`, per-workflow queries via
    /// `store().read(&workflow_id)`.
    pub fn store(&self) -> &SharedShardedStore {
        &self.store
    }

    /// Ingestion-side observability: decode errors, messages translated,
    /// and the broker's backlog and congestion level.
    pub fn server_stats(&self) -> ServerStats {
        ServerStats {
            decode_errors: self.counters.decode_errors.load(Ordering::Relaxed),
            messages_total: self.counters.messages.load(Ordering::Relaxed),
            broker_backlog: self.broker.backlog() as u64,
            congestion_level: self.broker.congestion_level(),
        }
    }

    /// Broker routing statistics.
    pub fn broker_stats(&self) -> mqtt_sn::broker::BrokerStats {
        self.broker.stats()
    }

    /// MQTT-SN sessions on the broker: the connected devices, and no one
    /// else — the translator subscribes locally, not over the protocol.
    pub fn broker_sessions(&self) -> usize {
        self.broker.session_count()
    }

    /// Stops the broker, then the translator once it has ingested
    /// everything the broker acknowledged.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Gateway first: once it has stopped nothing more is acknowledged and
    /// the queue is closed, so the translator runs it empty and ends — an
    /// acknowledged publish is in the store when this returns.
    fn stop(&mut self) {
        self.broker.stop();
        if let Some(translator) = self.translator.take() {
            let _ = translator.join();
        }
    }
}

impl Drop for ProvenanceManager {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decodes one published payload, the envelope the transmitter emits, into
/// `records`. Anything else is refused.
fn decode_payload(payload: &[u8], records: &mut Vec<Record>) -> bool {
    Envelope::decode_into(payload, records).is_ok()
}

/// The translator loop: block on the gateway's queue, take everything
/// queued per wake-up, decode each message and hand its records over.
/// Ends when the gateway has stopped and the queue is drained.
fn translate(
    mut subscription: LocalSubscription,
    mut translator: DfAnalyzerTranslator,
    counters: &Counters,
) {
    // One message batch and one record buffer cycle for the lifetime of
    // the thread: `recv` refills the first, `decode_payload` clears and
    // refills the second, `on_records` drains it.
    let mut batch: Vec<LocalMessage> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    while subscription.recv(&mut batch) {
        for message in &batch {
            if decode_payload(&message.payload, &mut records) {
                // Counted before the store takes the records, so a reader
                // who sees them in the store sees the message counted.
                counters.messages.fetch_add(1, Ordering::Relaxed);
                translator.on_records(&mut records);
            } else {
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProvLightClient;
    use crate::config::{CaptureConfig, GroupPolicy};
    use prov_model::{DataRecord, Id};
    use std::time::Duration;

    fn wait_until(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn decode_payload_takes_envelopes_and_refuses_the_rest() {
        let sent = vec![Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 42,
        }];
        let mut records = Vec::new();
        assert!(decode_payload(&Envelope::encode(&sent, true), &mut records));
        assert_eq!(records, sent);

        // JSON is no form the transmitter emits, well formed or not; 60 000
        // openers (one datagram) are an error like any other.
        let json = prov_codec::json::records_to_json(&sent, prov_codec::json::JsonStyle::Compact);
        for refused in [
            json.as_bytes(),
            &b"[]"[..],
            &b"{}"[..],
            &b"[{]"[..],
            &[b'['; 60_000][..],
        ] {
            assert!(!decode_payload(refused, &mut records));
        }
    }

    #[test]
    fn end_to_end_capture_over_real_udp() {
        let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
        let store = manager.store().clone();

        let client = ProvLightClient::connect(
            manager.broker_addr(),
            "device-1",
            "provlight/wf1/device-1",
            CaptureConfig::default(),
        )
        .unwrap();

        let session = client.session();
        let wf = session.workflow(1u64);
        wf.begin().unwrap();
        let mut task = wf.task(0u64, "train", &[]);
        task.begin(vec![DataRecord::new("in1", 1u64).with_attr("lr", 0.1)])
            .unwrap();
        task.end(vec![DataRecord::new("out1", 1u64)
            .with_attr("accuracy", 0.97)
            .derived_from("in1")])
            .unwrap();
        wf.end().unwrap();
        client.flush().unwrap();

        assert!(
            wait_until(Duration::from_secs(10), || store.stats().records >= 4),
            "store never received the records; got {}",
            store.stats().records
        );
        let guard = store.read(&Id::Num(1));
        let task_row = guard.task_by_id(&Id::Num(1), &Id::Num(0)).unwrap();
        let table = guard.workflow(&Id::Num(1)).unwrap();
        assert_eq!(table.transformation(task_row), &Id::from("train"));
        assert!(task_row.elapsed_s().is_some());
        drop(guard);

        let stats = manager.server_stats();
        assert_eq!(stats.decode_errors, 0);
        assert!(stats.messages_total >= 1);

        client.shutdown();
        manager.shutdown();
    }

    #[test]
    fn shutdown_ingests_every_acknowledged_publish() {
        use mqtt_sn::{ClientConfig, QoS, UdpClient};
        const N: u64 = 200;
        let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
        let store = manager.store().clone();

        let timeout = Duration::from_secs(5);
        let mut device =
            UdpClient::connect(manager.broker_addr(), ClientConfig::new("dev"), timeout).unwrap();
        let tid = device.register("provlight/wf/dev", timeout).unwrap();
        for i in 0..N {
            let record = Record::WorkflowBegin {
                workflow: Id::Num(i),
                time_ns: i,
            };
            let envelope = Envelope::encode(&[record], true);
            // Returns once the QoS 2 handshake has completed.
            device
                .publish(tid, envelope, QoS::ExactlyOnce, timeout)
                .unwrap();
        }
        // No waiting for the store: whatever the gateway acknowledged is
        // ingested by the time shutdown returns.
        manager.shutdown();
        assert_eq!(store.stats().records, N);
        assert_eq!(store.workflow_ids().len(), N as usize);
    }

    #[test]
    fn grouped_capture_arrives_in_batches() {
        let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
        let store = manager.store().clone();

        // max_payload: 1 disables cross-group coalescing so each emitted
        // group maps to exactly one wire message.
        let config = CaptureConfig {
            group: GroupPolicy::Grouped { size: 4 },
            max_payload: 1,
            ..CaptureConfig::default()
        };
        let client = ProvLightClient::connect(
            manager.broker_addr(),
            "device-2",
            "provlight/wf2/device-2",
            config,
        )
        .unwrap();

        let session = client.session();
        let wf = session.workflow(2u64);
        wf.begin().unwrap();
        for i in 0..3u64 {
            let mut t = wf.task(i, 0u64, &[]);
            t.begin(vec![]).unwrap();
            t.end(vec![]).unwrap();
        }
        wf.end().unwrap();
        client.flush().unwrap();

        assert!(
            wait_until(Duration::from_secs(10), || store.stats().records >= 8),
            "records missing: {}",
            store.stats().records
        );
        // 8 records in groups of 4 → exactly 2 messages through the broker.
        assert_eq!(manager.broker_stats().publishes_in, 2);
        assert_eq!(manager.server_stats().messages_total, 2);
        client.shutdown();
        manager.shutdown();
    }
}
