//! Criterion micro-benchmarks for the building blocks whose costs the
//! calibration module models: codecs, compression, MQTT-SN packet
//! handling, broker routing, store ingestion and queries.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
use mqtt_sn::packet::{Packet, QoS, TopicRef};
use prov_codec::frame::Envelope;
use prov_codec::json::{records_to_json, JsonStyle};
use prov_codec::{compress, decode_batch, decompress, encode_batch};
use prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use prov_store::query::Query;
use prov_store::store::Store;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn sample_records(n: usize, attrs: usize) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let values: Vec<prov_model::AttrValue> = (0..attrs)
                .map(|_| prov_model::AttrValue::Float(rng.gen()))
                .collect();
            Record::TaskEnd {
                task: TaskRecord {
                    id: Id::Num(i as u64),
                    workflow: Id::Num(1),
                    transformation: Id::Num(0),
                    dependencies: vec![Id::Num(i.saturating_sub(1) as u64)],
                    time_ns: i as u64 * 1000,
                    status: TaskStatus::Finished,
                },
                outputs: vec![DataRecord {
                    id: Id::Str(format!("out{i}").into()),
                    workflow: Id::Num(1),
                    derivations: vec![Id::Str(format!("in{i}").into())],
                    attributes: vec![("out".into(), prov_model::AttrValue::List(values))],
                }],
            }
        })
        .collect()
}

fn bench_codecs(c: &mut Criterion) {
    let records = sample_records(1, 100);
    let encoded = encode_batch(&records);

    let mut g = c.benchmark_group("codec");
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("binary_encode_100attr", |b| {
        b.iter(|| encode_batch(std::hint::black_box(&records)))
    });
    g.bench_function("binary_decode_100attr", |b| {
        b.iter(|| decode_batch(std::hint::black_box(&encoded)).unwrap())
    });
    g.bench_function("json_compact_encode_100attr", |b| {
        b.iter(|| records_to_json(std::hint::black_box(&records), JsonStyle::Compact))
    });
    g.bench_function("json_verbose_encode_100attr", |b| {
        b.iter(|| records_to_json(std::hint::black_box(&records), JsonStyle::Verbose))
    });
    g.bench_function("envelope_encode_compressed", |b| {
        b.iter(|| Envelope::encode(std::hint::black_box(&records), true))
    });
    g.finish();
}

fn bench_compression(c: &mut Criterion) {
    let json = records_to_json(&sample_records(10, 100), JsonStyle::Verbose);
    let data = json.as_bytes();
    let packed = compress(data);

    let mut g = c.benchmark_group("compress");
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("lzss_compress_json", |b| {
        b.iter(|| compress(std::hint::black_box(data)))
    });
    g.bench_function("lzss_decompress_json", |b| {
        b.iter(|| decompress(std::hint::black_box(&packed)).unwrap())
    });
    g.finish();
}

fn bench_mqtt(c: &mut Criterion) {
    let publish = Packet::Publish {
        dup: false,
        qos: QoS::ExactlyOnce,
        retain: false,
        topic: TopicRef::Id(3),
        msg_id: 42,
        payload: vec![0xa5; 900],
    };
    let wire = publish.encode();

    let mut g = c.benchmark_group("mqtt_sn");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("publish_encode", |b| {
        b.iter(|| std::hint::black_box(&publish).encode())
    });
    g.bench_function("publish_decode", |b| {
        b.iter(|| Packet::decode(std::hint::black_box(&wire)).unwrap())
    });

    // Broker routing: 64 publishers on distinct topics, one wildcard
    // subscriber; pre-encoded wire in, recycled `BrokerOutputs` out.
    g.bench_function("broker_route_64_topics", |b| {
        b.iter_batched(
            || {
                let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
                let mut send = |from: u32, packet: Packet| {
                    let mut out = BrokerOutputs::new();
                    broker
                        .on_datagram_into(0, from, &packet.encode(), &mut out)
                        .expect("set-up packet decodes");
                    out.packets()
                };
                let connect = |id: String| Packet::Connect {
                    clean_session: true,
                    duration: 60,
                    client_id: id,
                };
                let mut wires = Vec::new();
                for dev in 0..64u32 {
                    send(dev, connect(format!("dev{dev}")));
                    let register = Packet::Register {
                        topic_id: 0,
                        msg_id: 1,
                        topic_name: format!("provlight/wf/dev{dev}"),
                    };
                    if let Packet::RegAck { topic_id, .. } = send(dev, register)[0].1 {
                        wires.push(
                            Packet::Publish {
                                dup: false,
                                qos: QoS::AtMostOnce,
                                retain: false,
                                topic: TopicRef::Id(topic_id),
                                msg_id: 0,
                                payload: vec![1; 128],
                            }
                            .encode(),
                        );
                    }
                }
                send(999, connect("translator".into()));
                let subscribe = Packet::Subscribe {
                    dup: false,
                    qos: QoS::AtMostOnce,
                    msg_id: 2,
                    topic: TopicRef::Name("provlight/#".into()),
                };
                send(999, subscribe);
                (broker, wires, BrokerOutputs::new())
            },
            |(mut broker, wires, mut out)| {
                for (dev, wire) in wires.iter().enumerate() {
                    broker
                        .on_datagram_into(1, dev as u32, wire, &mut out)
                        .expect("bench wire decodes");
                }
                out.emit(|to, bytes| {
                    std::hint::black_box((to, bytes.len()));
                });
                (broker, wires, out)
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let records = sample_records(100, 10);

    let mut g = c.benchmark_group("store");
    g.measurement_time(Duration::from_secs(2));
    g.bench_function("ingest_100_tasks", |b| {
        b.iter_batched(
            Store::new,
            |mut store| {
                store.ingest_batch(records.iter().cloned());
                store
            },
            BatchSize::SmallInput,
        )
    });

    let mut store = Store::new();
    // Numeric attribute column for the query benches.
    let mut rng = StdRng::seed_from_u64(1);
    for i in 0..1000u64 {
        store.ingest(Record::TaskEnd {
            task: TaskRecord {
                id: Id::Num(i),
                workflow: Id::Num(1),
                transformation: Id::Str("train".into()),
                dependencies: vec![],
                time_ns: i * 10,
                status: TaskStatus::Finished,
            },
            outputs: vec![
                DataRecord::new(format!("m{i}"), 1u64).with_attr("accuracy", rng.gen::<f64>())
            ],
        });
    }
    g.bench_function("query_top3_of_1000", |b| {
        let q = Query::new(&store);
        b.iter(|| q.top_k_by_attr(&Id::Num(1), "accuracy", 3, true).unwrap())
    });
    g.bench_function("query_timeseries_1000", |b| {
        let q = Query::new(&store);
        b.iter(|| q.attr_timeseries(&Id::Num(1), "accuracy").unwrap())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_codecs,
    bench_compression,
    bench_mqtt,
    bench_store
);
criterion_main!(benches);
