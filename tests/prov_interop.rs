//! Interoperability pipeline: workload capture records flow through the
//! real wire format (envelope → MQTT-SN broker state machine →
//! translator) into the store, the query layer, and the W3C PROV export —
//! all without sockets, exercising the sans-io path across every crate.

use provlight::core::translator::{DfAnalyzerTranslator, ProvDocumentTranslator, Translator};
use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
use provlight::mqtt_sn::packet::{Packet, QoS, TopicRef};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{Id, Record};
use provlight::prov_store::query::Query;
use provlight::workload::schedule::{generate, Step};
use provlight::workload::spec::WorkloadSpec;

/// Hands `packet` to the broker as the datagram `from` would send and
/// returns what the broker sends back, decoded.
fn feed(broker: &mut Broker<u8>, now: u64, from: u8, packet: Packet) -> Vec<(u8, Packet)> {
    let mut out = BrokerOutputs::new();
    broker
        .on_datagram_into(now, from, &packet.encode(), &mut out)
        .expect("test packet decodes");
    out.packets()
}

/// Pushes every emitted record of a Table I workload through the broker
/// as QoS 2 envelopes and returns what the subscriber receives.
fn roundtrip_through_broker(records: Vec<Record>) -> Vec<Record> {
    let mut broker: Broker<u8> = Broker::new(BrokerConfig::default());
    let publisher = 1u8;
    let subscriber = 2u8;

    feed(
        &mut broker,
        0,
        publisher,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "pub".into(),
        },
    );
    feed(
        &mut broker,
        0,
        subscriber,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "sub".into(),
        },
    );
    let out = feed(
        &mut broker,
        0,
        publisher,
        Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "provlight/wf/dev".into(),
        },
    );
    let topic_id = match out[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("{p:?}"),
    };
    feed(
        &mut broker,
        0,
        subscriber,
        Packet::Subscribe {
            dup: false,
            qos: QoS::AtMostOnce,
            msg_id: 2,
            topic: TopicRef::Name("provlight/#".into()),
        },
    );

    let mut received = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let payload = Envelope::encode(std::slice::from_ref(record), true);
        let outs = feed(
            &mut broker,
            i as u64,
            publisher,
            Packet::Publish {
                dup: false,
                qos: QoS::ExactlyOnce,
                retain: false,
                topic: TopicRef::Id(topic_id),
                msg_id: (i + 1) as u16,
                payload,
            },
        );
        for (to, p) in outs {
            if to == subscriber {
                if let Packet::Publish { payload, .. } = p {
                    let env = Envelope::decode(&payload).expect("decodable envelope");
                    received.extend(env.records);
                }
            }
        }
        // Complete the publisher-side QoS 2 handshake.
        feed(
            &mut broker,
            i as u64,
            publisher,
            Packet::PubRel {
                msg_id: (i + 1) as u16,
            },
        );
    }
    received
}

#[test]
fn full_pipeline_preserves_every_record() {
    let spec = WorkloadSpec::table1(10, 0.5);
    let schedule = generate(&spec, 1, 123);
    let records: Vec<Record> = schedule
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Emit(r) => Some(r.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(records.len(), 202);

    let received = roundtrip_through_broker(records.clone());
    assert_eq!(received, records, "wire roundtrip must be lossless");

    // Translate into the sharded store and verify analytics over the
    // result.
    let store = provlight::prov_store::shared_sharded();
    let mut translator = DfAnalyzerTranslator::new(store.clone());
    translator.on_records(&mut received.clone());

    let guard = store.read(&Id::Num(1));
    assert_eq!(guard.stats().tasks, 100);
    assert_eq!(guard.stats().data, 200);
    let q = Query::new(&guard);
    let metrics = q.task_metrics(&Id::Num(1)).unwrap();
    assert_eq!(metrics.len(), 100);
    assert!(metrics.iter().all(|m| m.finished));
    // The derivation chain out{i} <- in{i} <- out{i-1} spans the workflow.
    let chain = q
        .lineage(
            &Id::Num(1),
            &Id::from("out100"),
            provlight::prov_store::query::LineageDirection::Upstream,
            500,
        )
        .unwrap();
    assert!(chain.len() >= 199, "chain length {}", chain.len());
    drop(guard);

    // And the same stream maps into a valid PROV-DM document.
    let mut prov = ProvDocumentTranslator::new();
    prov.on_records(&mut received.clone());
    prov.document().validate().unwrap();
    assert_eq!(
        prov.document().element_count(),
        1 + 100 + 200,
        "agent + activities + entities"
    );
    let text = prov.document().to_prov_n();
    for needle in [
        "wasAssociatedWith",
        "used",
        "wasGeneratedBy",
        "wasDerivedFrom",
        "wasInformedBy",
    ] {
        assert!(text.contains(needle), "PROV-N missing {needle}");
    }
}

#[test]
fn grouped_envelopes_roundtrip_identically() {
    let spec = WorkloadSpec::table1(100, 0.5);
    let schedule = generate(&spec, 1, 7);
    let records: Vec<Record> = schedule
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Emit(r) => Some(r.clone()),
            _ => None,
        })
        .collect();

    for chunk_size in [1usize, 10, 50] {
        let mut back = Vec::new();
        for chunk in records.chunks(chunk_size) {
            let wire = Envelope::encode(chunk, true);
            back.extend(Envelope::decode(&wire).unwrap().records);
        }
        assert_eq!(back, records, "chunk size {chunk_size}");
    }
}

#[test]
fn store_answers_match_direct_ingestion() {
    // Ingesting via the translator must equal ingesting directly.
    let records = provlight::workload::fl::fl_capture_stream(
        5,
        &provlight::workload::fl::FlConfig::default(),
        11,
    );

    let direct = {
        let mut s = provlight::prov_store::store::Store::new();
        s.ingest_batch(records.clone());
        s
    };
    let via_translator = {
        let store = provlight::prov_store::shared_sharded();
        DfAnalyzerTranslator::new(store.clone()).on_records(&mut records.clone());
        store
    };
    assert_eq!(direct.stats(), via_translator.stats());
    let t = via_translator.read(&Id::Num(5));
    let q1 = Query::new(&direct);
    let q2 = Query::new(&t);
    assert_eq!(
        q1.top_k_by_attr(&Id::Num(5), "accuracy", 3, true).unwrap(),
        q2.top_k_by_attr(&Id::Num(5), "accuracy", 3, true).unwrap()
    );
}
