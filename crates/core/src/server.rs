//! The real-mode ProvLight server: MQTT-SN broker + provenance data
//! translator (paper Fig. 3).

use crate::translator::Translator;
use mqtt_sn::net::{NetError, UdpBroker};
use mqtt_sn::{BrokerConfig, LocalMessage, LocalSubscription};
use parking_lot::Mutex;
use prov_codec::frame::Envelope;
use prov_codec::json::records_from_json;
use prov_model::Record;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A running ProvLight server (broker + translator subscriptions).
///
/// A translator subscribes to a topic filter (e.g. `provlight/#`) and
/// converts every decoded message with the provided [`Translator`]. The
/// translators live in the gateway's process, so they are *local*
/// subscribers ([`UdpBroker::subscribe_local`]): the gateway hands each
/// accepted publish over through an in-memory queue, and the only MQTT-SN
/// leg is the one from the devices. For
/// large fleets the paper parallelizes translators — one per device topic
/// (Fig. 5, translator-1..64); [`ProvLightServer::start_parallel`] builds
/// that layout. Behind
/// [`DfAnalyzerTranslator`](crate::translator::DfAnalyzerTranslator), those
/// translators decode in parallel and take the store's one write lock per
/// envelope.
pub struct ProvLightServer {
    broker: UdpBroker,
    decode_errors: Arc<AtomicU64>,
    translators: Vec<Arc<Mutex<dyn Translator>>>,
    translator_threads: Vec<std::thread::JoinHandle<()>>,
}

/// Ingestion-side observability counters (decode failures plus how many
/// messages each translator handled).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Messages that failed to decode.
    pub decode_errors: u64,
    /// Messages handled by the translator serving each topic, indexed like
    /// the `topics` passed to [`ProvLightServer::start_parallel`]. Topics
    /// sharing one translator instance report that instance's (shared)
    /// counter.
    pub translator_messages: Vec<u64>,
    /// Total messages handled, counting each distinct translator instance
    /// once — comparable against the broker's delivered-publish count even
    /// when topics share a translator.
    pub messages_total: u64,
    /// Broker backlog at snapshot time: messages queued for the
    /// translators and not yet taken, plus whatever is buffered or
    /// unacknowledged toward remote subscribers. Translators that fall
    /// behind ingestion inflate this, which drives `congestion_level` —
    /// so translator lag propagates to gateway publishers as pacing, and
    /// at the hard level as refused (never acknowledged-then-dropped)
    /// publishes, instead of silent buffer growth.
    pub broker_backlog: u64,
    /// Broker congestion level at snapshot time (0 clear / 1 soft /
    /// 2 hard).
    pub congestion_level: u8,
}

impl ProvLightServer {
    /// Binds the broker and starts one translator loop.
    pub fn start(
        bind: &str,
        topic_filter: &str,
        translator: Arc<Mutex<dyn Translator>>,
    ) -> Result<ProvLightServer, NetError> {
        Self::start_parallel(bind, &[topic_filter.to_owned()], move |_| {
            translator.clone()
        })
    }

    /// Binds the broker and starts one translator per topic filter (the
    /// Fig. 5 parallel-translator deployment). `factory(i)` supplies the
    /// translator for `topics[i]`; factories may share a store-backed
    /// translator or build independent ones.
    pub fn start_parallel(
        bind: &str,
        topics: &[String],
        factory: impl Fn(usize) -> Arc<Mutex<dyn Translator>>,
    ) -> Result<ProvLightServer, NetError> {
        let broker = UdpBroker::spawn(bind, BrokerConfig::default()).map_err(NetError::Io)?;
        let decode_errors = Arc::new(AtomicU64::new(0));

        let mut translators = Vec::with_capacity(topics.len());
        let mut translator_threads = Vec::with_capacity(topics.len());
        for (i, topic) in topics.iter().enumerate() {
            let subscription = broker.subscribe_local(topic)?;
            let translator = factory(i);
            translators.push(Arc::clone(&translator));
            let decode_errors = Arc::clone(&decode_errors);
            translator_threads.push(std::thread::spawn(move || {
                translate(subscription, &translator, &decode_errors)
            }));
        }

        Ok(ProvLightServer {
            broker,
            decode_errors,
            translators,
            translator_threads,
        })
    }

    /// Broker address for clients.
    pub fn broker_addr(&self) -> SocketAddr {
        self.broker.local_addr()
    }

    /// Messages that failed to decode (wire corruption or foreign
    /// publishers on the topic).
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.load(Ordering::Relaxed)
    }

    /// Ingestion statistics: decode failures and per-translator message
    /// counts (briefly locks each translator). Factories may hand the same
    /// translator instance to several topics; the total deduplicates by
    /// instance so shared counters are not summed once per topic.
    pub fn stats(&self) -> ServerStats {
        let mut seen: Vec<usize> = Vec::with_capacity(self.translators.len());
        let mut translator_messages = Vec::with_capacity(self.translators.len());
        let mut messages_total = 0;
        for translator in &self.translators {
            let messages = translator.lock().messages();
            translator_messages.push(messages);
            let instance = Arc::as_ptr(translator).cast::<()>() as usize;
            if !seen.contains(&instance) {
                seen.push(instance);
                messages_total += messages;
            }
        }
        ServerStats {
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            translator_messages,
            messages_total,
            broker_backlog: self.broker.backlog() as u64,
            congestion_level: self.broker.congestion_level(),
        }
    }

    /// Broker routing statistics.
    pub fn broker_stats(&self) -> mqtt_sn::broker::BrokerStats {
        self.broker.stats()
    }

    /// MQTT-SN sessions on the broker: the connected devices, and no one
    /// else — the translators subscribe locally, not over the protocol.
    pub fn broker_sessions(&self) -> usize {
        self.broker.session_count()
    }

    /// Stops the broker, then the translators once they have ingested
    /// everything it acknowledged.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Gateway first: once it has stopped nothing more is acknowledged and
    /// the queues are closed, so each translator runs its queue empty and
    /// ends — an acknowledged publish is in the store when this returns.
    fn stop(&mut self) {
        self.broker.stop();
        for t in self.translator_threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Decodes one published payload into `records` (cleared first), in either
/// form the transmitter emits: an envelope, or — `CaptureConfig::binary`
/// off — a compact JSON array, whose `[` is never the envelope's magic.
fn decode_payload(payload: &[u8], records: &mut Vec<Record>) -> bool {
    if payload.first() != Some(&b'[') {
        return Envelope::decode_into(payload, records).is_ok();
    }
    records.clear();
    let text = std::str::from_utf8(payload).ok();
    let Some(parsed) = text.and_then(|text| records_from_json(text).ok()) else {
        return false;
    };
    records.extend(parsed);
    true
}

/// The translator loop: block on the gateway's queue, take everything
/// queued per wake-up, decode each message and hand its records over.
/// Ends when the gateway has stopped and the queue is drained.
fn translate(
    mut subscription: LocalSubscription,
    translator: &Mutex<dyn Translator>,
    decode_errors: &AtomicU64,
) {
    // One message batch and one record buffer cycle for the lifetime of
    // the thread: `recv` refills the first, `decode_payload` clears and
    // refills the second, `on_records` drains it.
    let mut batch: Vec<LocalMessage> = Vec::new();
    let mut records: Vec<Record> = Vec::new();
    while subscription.recv(&mut batch) {
        for message in &batch {
            if decode_payload(&message.payload, &mut records) {
                translator.lock().on_records(&mut records);
            } else {
                decode_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for ProvLightServer {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ProvLightClient;
    use crate::config::{CaptureConfig, GroupPolicy};
    use crate::translator::DfAnalyzerTranslator;
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
    fn decode_payload_takes_both_forms_and_survives_hostile_nesting() {
        let sent = vec![Record::WorkflowBegin {
            workflow: Id::Num(1),
            time_ns: 42,
        }];
        let mut records = Vec::new();

        let json = prov_codec::json::records_to_json(&sent, prov_codec::json::JsonStyle::Compact);
        assert!(decode_payload(json.as_bytes(), &mut records));
        assert_eq!(records, sent);

        // A bare object is not a form the transmitter emits; 60 000 openers
        // (one datagram) are an error, not a stack overflow on the
        // translator thread.
        for hostile in [&b"{}"[..], &b"[{]"[..], &[b'['; 60_000][..]] {
            assert!(!decode_payload(hostile, &mut records));
        }
        assert!(decode_payload(b"[]", &mut records));
        assert!(records.is_empty());
    }

    #[test]
    fn end_to_end_capture_over_real_udp() {
        let store = prov_store::shared_sharded();
        let translator = Arc::new(Mutex::new(DfAnalyzerTranslator::new(store.clone())));
        let server = ProvLightServer::start("127.0.0.1:0", "provlight/#", translator).unwrap();

        let client = ProvLightClient::connect(
            server.broker_addr(),
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
        assert_eq!(task_row.transformation, Id::from("train"));
        assert!(task_row.elapsed_s().is_some());
        drop(guard);

        let stats = server.stats();
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(stats.translator_messages.len(), 1);
        assert!(stats.messages_total >= 1);

        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn parallel_translators_partition_by_topic() {
        // Fig. 5: one translator per device topic, all feeding the same
        // store; per-translator message counts prove the partitioning.
        let store = prov_store::shared_sharded();
        let topics: Vec<String> = (0..3).map(|i| format!("provlight/wfp/dev{i}")).collect();
        let s = store.clone();
        let server = ProvLightServer::start_parallel("127.0.0.1:0", &topics, move |_| {
            Arc::new(Mutex::new(DfAnalyzerTranslator::new(s.clone())))
                as Arc<Mutex<dyn crate::translator::Translator>>
        })
        .unwrap();

        for dev in 0..3u64 {
            // max_payload: 1 forces one envelope per record so the
            // per-translator message counts below stay deterministic.
            let client = ProvLightClient::connect(
                server.broker_addr(),
                &format!("pdev{dev}"),
                &format!("provlight/wfp/dev{dev}"),
                CaptureConfig {
                    max_payload: 1,
                    ..CaptureConfig::default()
                },
            )
            .unwrap();
            let session = client.session();
            let wf = session.workflow(dev + 100);
            wf.begin().unwrap();
            wf.end().unwrap();
            client.flush().unwrap();
            client.shutdown();
        }

        assert!(
            wait_until(Duration::from_secs(10), || store.stats().records >= 6),
            "records: {}",
            store.stats().records
        );
        // Each translator saw exactly its own device's two messages.
        let stats = server.stats();
        assert_eq!(stats.translator_messages, vec![2, 2, 2]);
        assert_eq!(stats.messages_total, 6);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(store.workflow_ids().len(), 3);
        server.shutdown();
    }

    #[test]
    fn shared_translator_not_double_counted_in_stats() {
        // One translator instance serving all three topics: the per-topic
        // list repeats the shared counter, but the total counts the
        // instance once.
        let store = prov_store::shared_sharded();
        let shared = Arc::new(Mutex::new(DfAnalyzerTranslator::new(store.clone())))
            as Arc<Mutex<dyn crate::translator::Translator>>;
        let topics: Vec<String> = (0..3).map(|i| format!("provlight/wfs/dev{i}")).collect();
        let server =
            ProvLightServer::start_parallel("127.0.0.1:0", &topics, move |_| shared.clone())
                .unwrap();

        for dev in 0..3u64 {
            let client = ProvLightClient::connect(
                server.broker_addr(),
                &format!("sdev{dev}"),
                &format!("provlight/wfs/dev{dev}"),
                CaptureConfig {
                    max_payload: 1,
                    ..CaptureConfig::default()
                },
            )
            .unwrap();
            let session = client.session();
            let wf = session.workflow(dev + 200);
            wf.begin().unwrap();
            wf.end().unwrap();
            client.flush().unwrap();
            client.shutdown();
        }

        assert!(
            wait_until(Duration::from_secs(10), || store.stats().records >= 6),
            "records: {}",
            store.stats().records
        );
        let stats = server.stats();
        assert_eq!(stats.translator_messages, vec![6, 6, 6]);
        assert_eq!(stats.messages_total, 6, "shared instance counted once");
        server.shutdown();
    }

    #[test]
    fn shutdown_ingests_every_acknowledged_publish() {
        use mqtt_sn::{ClientConfig, QoS, UdpClient};
        const N: u64 = 200;
        let store = prov_store::shared_sharded();
        let translator = Arc::new(Mutex::new(DfAnalyzerTranslator::new(store.clone())));
        let server = ProvLightServer::start("127.0.0.1:0", "provlight/#", translator).unwrap();

        let timeout = Duration::from_secs(5);
        let mut device =
            UdpClient::connect(server.broker_addr(), ClientConfig::new("dev"), timeout).unwrap();
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
        server.shutdown();
        assert_eq!(store.stats().records, N);
        assert_eq!(store.workflow_ids().len(), N as usize);
    }

    #[test]
    fn grouped_capture_arrives_in_batches() {
        let store = prov_store::shared_sharded();
        let translator = Arc::new(Mutex::new(DfAnalyzerTranslator::new(store.clone())));
        let server = ProvLightServer::start("127.0.0.1:0", "provlight/#", translator).unwrap();

        // max_payload: 1 disables cross-group coalescing so each emitted
        // group maps to exactly one wire message.
        let config = CaptureConfig {
            group: GroupPolicy::Grouped { size: 4 },
            max_payload: 1,
            ..CaptureConfig::default()
        };
        let client = ProvLightClient::connect(
            server.broker_addr(),
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
        assert_eq!(server.broker_stats().publishes_in, 2);
        assert_eq!(server.stats().messages_total, 2);
        client.shutdown();
        server.shutdown();
    }
}
