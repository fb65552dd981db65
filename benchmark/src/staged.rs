//! The staged replay: the same generated inputs pushed through each layer's
//! public functions back to back, on one thread, with a span per call.
//!
//! The live run can only see threads from outside. This replay gives every
//! layer a number of its own — what its code costs with no sockets, no
//! wake-ups and nothing else running — so that the sum of the layers can be
//! held against the CPU the live pipeline really spends per record. What is
//! left over is syscalls, futexes, channels and locks.

use crate::check;
use crate::pacer::Pacer;
use crate::stats::median;
use crate::trace::{self_time_by_name, self_us_per_call, Recorder};
use crate::workload::Inputs;
use provlight::core::grouping::{Emit, Grouper};
use provlight::core::{CaptureSession, DfAnalyzerTranslator, Translator, VecSink};
use provlight::mqtt_sn::broker::BrokerOutputs;
use provlight::mqtt_sn::client::Output;
use provlight::mqtt_sn::{Broker, BrokerConfig, Client, ClientConfig, ClientEvent, QoS, TopicRef};
use provlight::prov_codec::{binary, compress, Envelope};
use provlight::prov_model::{Id, Record};
use provlight::prov_store::{shared_sharded, ShardRouter, ShardedStore};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How much of the schedule is replayed.
pub const REPLAYED: Duration = Duration::from_secs(5);
/// Quiescent closures timed on the replayed store.
const CLOSURES: usize = 5;

const PUBLISHER: u8 = 1;
const SUBSCRIBER: u8 = 2;

/// The sans-io MQTT-SN leg: one publisher, the broker, one QoS 2
/// subscriber, with datagrams carried between them by hand.
struct Rig {
    broker: Broker<u8>,
    publisher: Client,
    subscriber: Client,
    outputs: BrokerOutputs<u8>,
    now: u64,
    delivered: Vec<Vec<u8>>,
    completed: u64,
}

impl Rig {
    /// Carries `first` (already encoded by `from`) to the broker and every
    /// reply onward until nobody has anything left to say. Each hop is a
    /// span under `parent`; a client's span covers handling the datagram
    /// and encoding its replies, as its transport would.
    fn carry(
        &mut self,
        from: u8,
        first: Vec<u8>,
        rec: &mut Recorder,
        parent: Option<usize>,
        request: u64,
    ) {
        let mut to_broker = VecDeque::from([(from, first)]);
        while let Some((from, datagram)) = to_broker.pop_front() {
            let t0 = Instant::now();
            self.outputs.clear();
            // A decode failure is counted by the broker and surfaces as a
            // missing delivery in `replay`'s checks.
            let _ = self
                .broker
                .on_datagram_into(self.now, from, &datagram, &mut self.outputs);
            rec.push(
                "broker.on_datagram",
                (t0, Instant::now()),
                parent,
                None,
                request,
            );
            let mut to_clients = Vec::new();
            self.outputs
                .emit(|to, bytes| to_clients.push((*to, bytes.to_vec())));
            for (to, datagram) in to_clients {
                let (client, name) = match to {
                    PUBLISHER => (&mut self.publisher, "client.on_datagram"),
                    _ => (&mut self.subscriber, "subscriber.on_datagram"),
                };
                let t0 = Instant::now();
                for output in client.on_datagram(&datagram, self.now).unwrap_or_default() {
                    match output {
                        Output::Send(packet) => to_broker.push_back((to, packet.encode())),
                        Output::Event(ClientEvent::Message { payload, .. }) => {
                            self.delivered.push(payload)
                        }
                        Output::Event(ClientEvent::PublishDone { .. }) => self.completed += 1,
                        Output::Event(_) => {}
                    }
                }
                rec.push(name, (t0, Instant::now()), parent, None, request);
            }
        }
    }

    fn send_all(&mut self, from: u8, outputs: Vec<Output>, rec: &mut Recorder) {
        for output in outputs {
            if let Output::Send(packet) = output {
                self.carry(from, packet.encode(), rec, None, 0);
            }
        }
    }

    /// Connects both clients, registers `topic` and subscribes to it with
    /// QoS 2; returns the topic id to publish to.
    fn start(topic: &str) -> Result<(Rig, u16), String> {
        let mut rig = Rig {
            broker: Broker::new(BrokerConfig::default()),
            publisher: Client::new(ClientConfig::new("staged-publisher")),
            subscriber: Client::new(ClientConfig::new("staged-subscriber")),
            outputs: BrokerOutputs::new(),
            now: 1,
            delivered: Vec::new(),
            completed: 0,
        };
        let mut quiet = Recorder::new(Instant::now());
        let hello = rig.publisher.connect(rig.now);
        rig.send_all(PUBLISHER, hello, &mut quiet);
        let hello = rig.subscriber.connect(rig.now);
        rig.send_all(SUBSCRIBER, hello, &mut quiet);
        let (_, register) = rig
            .publisher
            .register(topic, rig.now)
            .map_err(|e| format!("staged register: {e}"))?;
        rig.send_all(PUBLISHER, register, &mut quiet);
        let (_, subscribe) = rig
            .subscriber
            .subscribe("provlight/#", QoS::ExactlyOnce, rig.now)
            .map_err(|e| format!("staged subscribe: {e}"))?;
        rig.send_all(SUBSCRIBER, subscribe, &mut quiet);
        let topic_id = rig
            .publisher
            .topic_id(topic)
            .ok_or("staged register was not acknowledged")?;
        Ok((rig, topic_id))
    }

    /// One QoS 2 publish through PUBREC/PUBREL/PUBCOMP on both legs.
    fn publish(
        &mut self,
        topic_id: u16,
        payload: Vec<u8>,
        rec: &mut Recorder,
        request: u64,
    ) -> Result<(), String> {
        self.now += 1_000;
        let t0 = Instant::now();
        let parent = rec.push("publish", (t0, t0), None, None, request);
        let (_, outputs) = self
            .publisher
            .publish(TopicRef::Id(topic_id), payload, QoS::ExactlyOnce, self.now)
            .map_err(|e| format!("staged publish: {e}"))?;
        let datagrams: Vec<Vec<u8>> = outputs
            .into_iter()
            .filter_map(|o| match o {
                Output::Send(packet) => Some(packet.encode()),
                Output::Event(_) => None,
            })
            .collect();
        rec.push(
            "client.publish",
            (t0, Instant::now()),
            parent,
            None,
            request,
        );
        for datagram in datagrams {
            self.carry(PUBLISHER, datagram, rec, parent, request);
        }
        rec.close(parent, Instant::now());
        Ok(())
    }
}

/// Replays the first [`REPLAYED`] of the schedule through every layer and
/// returns the per-layer metrics by name as `(value, samples)`.
pub fn replay(inputs: &Inputs) -> Result<BTreeMap<&'static str, (f64, u64)>, String> {
    let workload = inputs.workload;
    let mut rec = Recorder::new(Instant::now());
    rec.on = true;

    // Layer 1 — the capture API over an in-memory sink.
    let sinks: Vec<Arc<VecSink>> = (0..workload.devices).map(|_| Arc::default()).collect();
    let workflows: Vec<_> = sinks
        .iter()
        .enumerate()
        .map(|(d, sink)| CaptureSession::new(sink.clone()).workflow(inputs.workflow(d)))
        .collect();
    let capture = |r: Result<(), _>| r.map_err(|e| format!("staged capture: {e}"));
    for workflow in &workflows {
        capture(workflow.begin())?;
    }
    let mut tasks = vec![0u64; workload.devices];
    for due in Pacer::new(workload.period(), &inputs.phases(), REPLAYED) {
        let (device, t) = (due.device, due.seq);
        let inputs_row = vec![inputs.input(device, t)];
        let outputs_row = vec![inputs.output(device, t)];
        let mut task = workflows[device].task(t, "step", &Inputs::dependencies(t));
        let t0 = Instant::now();
        let began = task.begin(inputs_row);
        let t1 = Instant::now();
        let ended = task.end(outputs_row);
        let t2 = Instant::now();
        capture(began.and(ended))?;
        let parent = rec.push("task", (t0, t2), None, Some(device), t);
        rec.push("task.begin", (t0, t1), parent, Some(device), t);
        rec.push("task.end", (t1, t2), parent, Some(device), t);
        tasks[device] += 1;
    }
    for workflow in &workflows {
        capture(workflow.end())?;
    }
    let streams: Vec<Vec<Record>> = sinks.iter().map(|s| s.records()).collect();
    let total_tasks: u64 = tasks.iter().sum();
    let total_records: u64 = streams.iter().map(|s| s.len() as u64).sum();

    // Layer 2 — grouping into messages. A push costs tens of nanoseconds,
    // less than reading the clock twice, so the loop is timed as a whole
    // (collecting the emitted batches included).
    let mut messages: Vec<Vec<Record>> = Vec::new();
    let grouping_start = Instant::now();
    for stream in streams {
        let mut grouper = Grouper::new(workload.policy());
        for record in stream {
            match grouper.push(record) {
                Emit::Nothing => {}
                Emit::Passthrough(record) => messages.push(vec![record]),
                Emit::Group(batch) => messages.push(batch),
            }
        }
        messages.extend(grouper.flush());
    }
    let grouping_ns = grouping_start.elapsed().as_nanos() as f64;

    // Layer 3 — binary encoding and LZSS, the two halves of
    // `Envelope::encode_into`, called separately so each has its own span.
    let (mut raw, mut packed) = (Vec::new(), Vec::new());
    let (mut raw_bytes, mut packed_bytes, mut envelope_bytes) = (0u64, 0u64, 0u64);
    let mut envelopes = Vec::with_capacity(messages.len());
    for (i, message) in messages.iter().enumerate() {
        raw.clear();
        packed.clear();
        let t0 = Instant::now();
        binary::encode_batch_into(message, &mut raw);
        let t1 = Instant::now();
        compress::compress_into(&raw, &mut packed);
        let t2 = Instant::now();
        rec.push("encode_batch_into", (t0, t1), None, None, i as u64);
        rec.push("compress_into", (t1, t2), None, None, i as u64);
        raw_bytes += raw.len() as u64;
        packed_bytes += packed.len() as u64;
        // What the transmitter publishes: whichever form is smaller.
        let envelope = Envelope::encode(message, true);
        envelope_bytes += envelope.len() as u64;
        if envelope.len() != 3 + raw.len().min(packed.len()) {
            return Err(format!(
                "staged envelope {i} is {} bytes, its halves give {} raw / {} packed",
                envelope.len(),
                raw.len(),
                packed.len()
            ));
        }
        envelopes.push(envelope);
    }

    // Layer 4 — MQTT-SN QoS 2, publisher → broker → subscriber, sans-io.
    let (mut rig, topic_id) = Rig::start(&inputs.topic(0))?;
    for (i, envelope) in envelopes.iter().enumerate() {
        rig.publish(topic_id, envelope.clone(), &mut rec, i as u64)?;
    }
    let publishes = envelopes.len() as u64;
    if rig.delivered != envelopes || rig.completed != publishes {
        return Err(format!(
            "staged broker delivered {} of {publishes} publishes intact, {} completed",
            rig.delivered
                .iter()
                .zip(&envelopes)
                .filter(|(a, b)| a == b)
                .count(),
            rig.completed
        ));
    }

    // Layers 5 and 6 — envelope decoding, then translation into the store.
    // Decompression and shard routing run inside `decode_into` and
    // `on_records`; each is also called on its own, and the outer layer's
    // time is what remains after subtracting it.
    let translated = shared_sharded();
    let routed = shared_sharded();
    let mut router = ShardRouter::new();
    for mut batch in inputs.dag_batches() {
        let mut copy = batch.clone();
        router.route(&translated, &mut batch);
        router.route(&routed, &mut copy);
    }
    let mut translator = DfAnalyzerTranslator::new(translated.clone());
    let mut records = Vec::new();
    let mut plain = Vec::new();
    for (i, envelope) in rig.delivered.iter().enumerate() {
        let t0 = Instant::now();
        let compressed = Envelope::decode_into(envelope, &mut records)
            .map_err(|e| format!("staged decode: {e}"))?;
        let t1 = Instant::now();
        rec.push("Envelope::decode_into", (t0, t1), None, None, i as u64);
        if compressed {
            // The payload follows the envelope's 3-byte header.
            compress::decompress_into(&envelope[3..], &mut plain)
                .map_err(|e| format!("staged decompress: {e}"))?;
            rec.push(
                "decompress_into",
                (t1, Instant::now()),
                None,
                None,
                i as u64,
            );
        }
        let mut copy = records.clone();
        let t0 = Instant::now();
        translator.on_records(&mut records);
        let t1 = Instant::now();
        router.route(&routed, &mut copy);
        let t2 = Instant::now();
        rec.push("on_records", (t0, t1), None, None, i as u64);
        rec.push("ShardRouter::route", (t1, t2), None, None, i as u64);
    }
    let expected = check::expected_stats(inputs, &tasks);
    if translated.stats() != expected || routed.stats() != expected {
        return Err(format!(
            "staged stores hold {:?} and {:?}, replay emitted {expected:?}",
            translated.stats(),
            routed.stats()
        ));
    }

    // Layer 7 — the closure query on the quiescent replayed store, where the
    // workload has a DAG to query; elsewhere its metrics do not apply.
    let mut query = [(f64::NAN, 0); 3];
    if let Some(root) = inputs.dag_root() {
        let (closure_ms, page_us, hits) = quiescent_closures(&translated, &root)?;
        let reachable = inputs.expected_closure(tasks[0]).len();
        if hits != reachable {
            return Err(format!(
                "staged closure returned {hits} rows, the generated edges reach {reachable}"
            ));
        }
        query = [
            (median(&page_us), page_us.len() as u64),
            (hits as f64 / closure_ms, CLOSURES as u64),
            (closure_ms, CLOSURES as u64),
        ];
    }

    let totals = self_time_by_name(&rec.into_spans());
    let per_record = |name: &str| {
        totals.get(name).map_or(0.0, |&(_, ns)| ns as f64 / 1e3) / total_records as f64
    };
    let per_publish = |names: &[&str]| {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0.0, |&(_, ns)| ns as f64 / 1e3))
            .sum::<f64>()
            / publishes as f64
    };
    let decompress = per_record("decompress_into");
    let ingest = per_record("ShardRouter::route");
    Ok(BTreeMap::from([
        (
            "api.us_per_task",
            (
                self_us_per_call(&totals, "task.begin") + self_us_per_call(&totals, "task.end"),
                total_tasks,
            ),
        ),
        (
            "grouping.ns_per_record",
            (grouping_ns / total_records as f64, total_records),
        ),
        (
            "codec.encode_us_per_record",
            (per_record("encode_batch_into"), total_records),
        ),
        (
            "codec.compress_us_per_record",
            (per_record("compress_into"), total_records),
        ),
        (
            "codec.envelope_bytes_per_record",
            (envelope_bytes as f64 / total_records as f64, total_records),
        ),
        (
            "codec.compress_ratio",
            (raw_bytes as f64 / packed_bytes as f64, publishes),
        ),
        (
            "mqtt_client.us_per_publish",
            (
                per_publish(&["client.publish", "client.on_datagram"]),
                publishes,
            ),
        ),
        (
            "mqtt_broker.us_per_publish",
            (per_publish(&["broker.on_datagram"]), publishes),
        ),
        (
            "mqtt_subscriber.us_per_publish",
            (per_publish(&["subscriber.on_datagram"]), publishes),
        ),
        (
            "codec.decompress_us_per_record",
            (decompress, total_records),
        ),
        (
            "codec.decode_us_per_record",
            (
                (per_record("Envelope::decode_into") - decompress).max(0.0),
                total_records,
            ),
        ),
        (
            "translator.us_per_record",
            ((per_record("on_records") - ingest).max(0.0), total_records),
        ),
        ("store.ingest_us_per_record", (ingest, total_records)),
        ("query.page_us_p50", query[0]),
        ("query.rows_per_ms", query[1]),
        ("query.closure_ms_quiescent", query[2]),
    ]))
}

/// Pages the closure [`CLOSURES`] times with nothing else running; returns
/// the median closure time in ms, every page time in µs, and the hit count.
fn quiescent_closures(store: &ShardedStore, root: &Id) -> Result<(f64, Vec<f64>, usize), String> {
    let mut closure_ms = Vec::new();
    let mut page_us = Vec::new();
    let mut hits = 0;
    for _ in 0..CLOSURES {
        let t0 = Instant::now();
        hits = check::closure(store, root.clone(), |page| {
            page_us.push(page.as_nanos() as f64 / 1e3)
        })?
        .len();
        closure_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
    }
    Ok((median(&closure_ms), page_us, hits))
}
