//! Steady-state allocation accounting for the capture hot path.
//!
//! A counting global allocator wraps the system allocator (counting per
//! thread, so each test measures only its own work however many run
//! beside it); after warming the
//! grouper buffers, codec scratch (string table, compression tables), and
//! envelope output buffer, pushing records through
//! grouper → encode → compress → frame must perform **zero** heap
//! allocations per record. Records cycle between a pre-built pool and the
//! grouper so none are dropped or rebuilt inside the measured region.

use provlight::core::config::GroupPolicy;
use provlight::core::grouping::{Emit, Grouper};
use provlight::prov_codec::frame::Envelope;
use provlight::prov_model::{AttrValue, DataRecord, Id, Record, TaskRecord, TaskStatus};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // A thread being torn down may allocate after its locals are gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Broker set-up traffic, outside every measured region: `packet` as the
/// datagram `from` would send, and the replies decoded.
fn feed(
    broker: &mut provlight::mqtt_sn::Broker<u32>,
    now: u64,
    from: u32,
    packet: provlight::mqtt_sn::Packet,
) -> Vec<(u32, provlight::mqtt_sn::Packet)> {
    let mut out = provlight::mqtt_sn::broker::BrokerOutputs::new();
    broker
        .on_datagram_into(now, from, &packet.encode(), &mut out)
        .expect("set-up packet decodes");
    out.packets()
}

/// Record `i` of a device: every record has the same shape. Even ones are
/// built from `names` themselves, odd ones from names spelt the same in
/// allocations of their own, so a group holds both ways a shape recurs.
fn record(i: u64, names: &[Arc<str>]) -> Record {
    let mut d = DataRecord::new(i, 1u64).with_attr("kind", "sensor-frame");
    for (a, name) in names.iter().enumerate() {
        let name = match i % 2 {
            0 => Arc::clone(name),
            _ => Arc::from(&**name),
        };
        d.attributes.push((name, AttrValue::Int(a as i64 * 3)));
    }
    Record::TaskEnd {
        task: TaskRecord {
            id: Id::Num(i),
            workflow: Id::Num(1),
            transformation: Id::Num(7),
            dependencies: vec![Id::Num(i.saturating_sub(1))],
            time_ns: i * 1_000,
            status: TaskStatus::Finished,
        },
        outputs: vec![d],
    }
}

fn attr_names() -> Vec<Arc<str>> {
    (0..ATTRS).map(|a| Arc::from(format!("attr_{a}"))).collect()
}

const GROUP: usize = 16;
const ATTRS: usize = 25;

/// One full cycle: GROUP records leave the pool, pass through the grouper,
/// get framed into a compressed envelope, and return to the pool. The
/// consumed batch `Vec` is recycled into the grouper.
fn cycle(pool: &mut VecDeque<Record>, grouper: &mut Grouper, wire: &mut Vec<u8>) -> usize {
    let mut published = 0;
    for _ in 0..GROUP {
        let r = pool.pop_front().expect("pool primed");
        match grouper.push(r) {
            Emit::Nothing => {}
            Emit::Passthrough(r) => {
                wire.clear();
                Envelope::encode_into(std::slice::from_ref(&r), true, wire);
                published += wire.len();
                pool.push_back(r);
            }
            Emit::Group(mut batch) => {
                wire.clear();
                Envelope::encode_into(&batch, true, wire);
                published += wire.len();
                for r in batch.drain(..) {
                    pool.push_back(r);
                }
                grouper.recycle(batch);
            }
        }
    }
    published
}

#[test]
fn steady_state_capture_path_allocates_zero_per_record() {
    // Pool holds two groups' worth so the grouper buffer and the pool never
    // need to grow mid-cycle.
    let names = attr_names();
    let mut pool: VecDeque<Record> = (0..2 * GROUP as u64).map(|i| record(i, &names)).collect();
    let mut grouper = Grouper::new(GroupPolicy::Grouped { size: GROUP });
    let mut wire = Vec::new();

    // Warmup: size every buffer (grouper Vec, encoder string table,
    // compression tables, envelope scratch, wire output).
    let mut warm_bytes = 0;
    for _ in 0..32 {
        warm_bytes += cycle(&mut pool, &mut grouper, &mut wire);
    }
    assert!(warm_bytes > 0);

    let iterations = 256usize;
    let before = allocations();
    let mut total_bytes = 0usize;
    for _ in 0..iterations {
        total_bytes += cycle(&mut pool, &mut grouper, &mut wire);
    }
    let allocs = allocations() - before;
    std::hint::black_box(total_bytes);

    let records_processed = iterations * GROUP;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {records_processed} records \
         ({:.4} allocs/record); capture hot path must be allocation-free",
        allocs as f64 / records_processed as f64
    );
    assert!(total_bytes > 0);
}

/// Decoding a group allocates what its records hold and nothing else: one
/// `Arc<str>` per string of the message, one `Vec` per non-empty list of a
/// record. The string table, the layout table and the decompression buffer
/// are recycled, and a data record that reuses a layout takes its names by
/// refcount — the 15 records after the first cost the same three
/// allocations each whether they have 25 attributes or none.
#[test]
fn steady_state_decode_allocates_only_what_the_records_hold() {
    let names = attr_names();
    let group: Vec<Record> = (0..GROUP as u64).map(|i| record(i, &names)).collect();
    let wire = Envelope::encode(&group, true);
    let mut records = Vec::new();
    for _ in 0..8 {
        assert_eq!(Envelope::decode_into(&wire, &mut records), Ok(true));
    }
    assert_eq!(records, group);
    // "kind", "sensor-frame" and the attribute names; then per record its
    // dependencies, its outputs and their attributes.
    let expected = 2 + ATTRS + GROUP * 3;
    let before = allocations();
    assert_eq!(Envelope::decode_into(&wire, &mut records), Ok(true));
    assert_eq!(allocations() - before, expected);
}

/// Ingests six tasks of workflow 1, each using one data item of `cells`
/// numbers, and returns the store with the allocations the sixth took. Five
/// rows leave every table — rows, indices, columns — with room for a sixth.
/// Names are allocations of each record's own, as from a string table per
/// message.
fn ingest_a_sixth_row(cells: usize) -> (provlight::prov_store::store::Store, usize) {
    let task = |i: u64| {
        let mut d = DataRecord::new(i, 1u64);
        for a in 0..cells {
            let value = AttrValue::Float(i as f64 + a as f64 / 7.0);
            d.attributes.push((Arc::from(format!("a{a}")), value));
        }
        Record::TaskBegin {
            task: TaskRecord {
                id: Id::Num(i),
                workflow: Id::Num(1),
                transformation: Id::Num(7),
                dependencies: Vec::new(),
                time_ns: i,
                status: TaskStatus::Running,
            },
            inputs: vec![d],
        }
    };
    let mut store = provlight::prov_store::store::Store::new();
    for i in 0..5 {
        store.ingest(task(i));
    }
    let sixth = task(5);
    let before = allocations();
    store.ingest(sixth);
    (store, allocations() - before)
}

/// Store steady state: a row whose shape the table knows costs one
/// allocation, its cells — found through the layout, not through a probe
/// per name, and packed out of the record's list, not kept in it.
#[test]
fn ingesting_a_row_of_a_known_layout_allocates_once_for_its_cells() {
    let (store, allocations) = ingest_a_sixth_row(100);
    assert_eq!(allocations, 1);
    assert_eq!(store.stats().attr_cells, 600);
    assert_eq!(store.layout_count(), 1);
    assert_eq!(store.column_len(&Id::Num(1), "a99"), 6);
}

/// A row of one number — every lineage DAG row and every task output —
/// keeps its cell inside the row, so a row of a known shape costs ingest
/// nothing for its cells, and with the tables warm nothing at all.
#[test]
fn ingesting_a_one_number_row_of_a_known_layout_allocates_nothing() {
    let (store, allocations) = ingest_a_sixth_row(1);
    assert_eq!(allocations, 0);
    assert_eq!(store.stats().attr_cells, 6);
    assert_eq!(store.layout_count(), 1);
    assert_eq!(store.column_len(&Id::Num(1), "a0"), 6);
}

/// Column statistics fold the cursor's items as they are scanned: what
/// `attr_stats` allocates does not grow with the column.
#[test]
fn column_statistics_allocate_the_same_however_long_the_column() {
    let allocations_of = |cells: u64| {
        let mut store = provlight::prov_store::store::Store::new();
        for t in 0..cells / 100 {
            let outputs = (0..100)
                .map(|d| DataRecord::new(t * 100 + d, 1u64).with_attr("loss", d as f64 / 8.0))
                .collect();
            store.ingest(Record::TaskEnd {
                task: TaskRecord {
                    id: Id::Num(t),
                    workflow: Id::Num(1),
                    transformation: Id::Num(7),
                    dependencies: Vec::new(),
                    time_ns: t,
                    status: TaskStatus::Finished,
                },
                outputs,
            });
        }
        let query = provlight::prov_store::query::Query::new(&store);
        let before = allocations();
        let stats = query.attr_stats(&Id::Num(1), "loss").expect("numeric");
        let allocations = allocations() - before;
        assert_eq!(stats.count as u64, cells);
        assert_eq!((stats.min, stats.max), (0.0, 99.0 / 8.0));
        allocations
    };
    assert_eq!(allocations_of(10_000), allocations_of(100_000));
}

/// Broker steady state: one QoS 1 publish fanning out to 8 QoS 0
/// subscribers plus one QoS 1 subscriber (whose ack cycles the outbound
/// state), end to end through the datagram path — borrowed decode, fan-out
/// routing, single-encode wire output, pooled retransmission copy — must
/// perform **zero** heap allocations per packet once buffers are warm.
#[test]
fn steady_state_broker_forwarding_allocates_zero_per_packet() {
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::packet::{Packet, PacketRef, QoS, TopicRef};

    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let publisher = 0u32;
    let qos1_sub = 9u32;
    let setup = |b: &mut Broker<u32>, from: u32, p: Packet| feed(b, 0, from, p);
    for (addr, id) in (0..10u32).map(|a| (a, format!("c{a}"))) {
        setup(
            &mut broker,
            addr,
            Packet::Connect {
                clean_session: true,
                duration: 60,
                client_id: id,
            },
        );
    }
    let out = feed(
        &mut broker,
        0,
        publisher,
        Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "z/t".into(),
        },
    );
    let tid = match out[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    for addr in 1..=8u32 {
        setup(
            &mut broker,
            addr,
            Packet::Subscribe {
                dup: false,
                qos: QoS::AtMostOnce,
                msg_id: 2,
                topic: TopicRef::Name("z/t".into()),
            },
        );
    }
    setup(
        &mut broker,
        qos1_sub,
        Packet::Subscribe {
            dup: false,
            qos: QoS::AtLeastOnce,
            msg_id: 2,
            topic: TopicRef::Name("z/t".into()),
        },
    );

    let publish_wire = Packet::Publish {
        dup: false,
        qos: QoS::AtLeastOnce,
        retain: false,
        topic: TopicRef::Id(tid),
        msg_id: 7,
        payload: vec![0x5c; 100],
    }
    .encode();
    let mut out = BrokerOutputs::new();
    let mut ack_wire = Vec::new();

    // One full cycle: publish in, PUBACK + 9 forwards out, QoS 1
    // subscriber acks its copy so outbound state drains.
    let mut cycle = |broker: &mut Broker<u32>, out: &mut BrokerOutputs<u32>, now: u64| {
        out.clear();
        broker
            .on_datagram_into(now, publisher, &publish_wire, out)
            .unwrap();
        let mut fwd_msg_id = 0u16;
        let mut datagrams = 0usize;
        out.emit(|to, bytes| {
            datagrams += 1;
            if *to == qos1_sub {
                match Packet::decode_borrowed(bytes).expect("broker-encoded") {
                    PacketRef::Publish { msg_id, .. } => fwd_msg_id = msg_id,
                    p => panic!("unexpected {p:?}"),
                }
            }
        });
        assert_eq!(datagrams, 10, "PUBACK + 9 forwards");
        ack_wire.clear();
        Packet::PubAck {
            topic_id: tid,
            msg_id: fwd_msg_id,
            code: provlight::mqtt_sn::ReturnCode::Accepted,
        }
        .encode_into(&mut ack_wire);
        out.clear();
        broker
            .on_datagram_into(now, qos1_sub, &ack_wire, out)
            .unwrap();
        assert!(out.is_empty());
    };

    // Warmup: size the wire buffer, send list, fan-out scratch, payload
    // pool, and per-session outbound map.
    for i in 0..64u64 {
        cycle(&mut broker, &mut out, i);
    }

    let iterations = 4096u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(&mut broker, &mut out, 64 + i);
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} packets \
         ({:.4} allocs/packet); broker hot path must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(broker.stats().publishes_in, 64 + iterations);
    assert_eq!(broker.stats().publishes_out, (64 + iterations) * 9);
}

/// Local delivery steady state: a QoS 2 publish handed to a gateway-local
/// subscription — borrowed decode, dedup, push into the queue in a pooled
/// buffer, PUBREC/PUBCOMP out — and the consumer's side of it — take the
/// batch, give the buffers back — must perform **zero** heap allocations
/// per message once the queue, the batch and the buffer pool are warm.
#[test]
fn steady_state_local_delivery_allocates_zero_per_message() {
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::packet::{encode_publish_into, Packet, QoS, TopicRef};

    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let publisher = 0u32;
    feed(
        &mut broker,
        0,
        publisher,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "dev".into(),
        },
    );
    let out = feed(
        &mut broker,
        0,
        publisher,
        Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "provlight/z/dev".into(),
        },
    );
    let tid = match out[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    let mut sub = broker.subscribe_local("provlight/#").unwrap();

    const BURST: usize = 4;
    let payload = vec![0x5c; 100];
    let mut out = BrokerOutputs::new();
    let mut wire = Vec::new();
    let mut batch = Vec::new();
    let mut msg_id = 0u16;

    // One full cycle: a burst of publishes under fresh message ids, each
    // with its PUBREL (PUBREC and PUBCOMP out, message queued), then the
    // consumer takes the burst — which also returns the previous burst's
    // buffers.
    let mut cycle = |broker: &mut Broker<u32>, now: u64| {
        for _ in 0..BURST {
            msg_id = msg_id.checked_add(1).unwrap_or(1);
            wire.clear();
            let topic = TopicRef::Id(tid);
            encode_publish_into(
                false,
                QoS::ExactlyOnce,
                false,
                &topic,
                msg_id,
                &payload,
                &mut wire,
            );
            out.clear();
            let forwarded = broker.on_datagram_into(now, publisher, &wire, &mut out);
            assert_eq!(forwarded, Ok(true), "first receipt");
            assert_eq!(out.len(), 1, "PUBREC only: nothing is encoded for a local");
            wire.clear();
            Packet::PubRel { msg_id }.encode_into(&mut wire);
            out.clear();
            let forwarded = broker.on_datagram_into(now, publisher, &wire, &mut out);
            assert_eq!((forwarded, out.len()), (Ok(false), 1), "PUBCOMP");
        }
        sub.try_recv(&mut batch);
        assert_eq!(batch.len(), BURST);
        assert!(batch
            .iter()
            .all(|m| m.topic_id == tid && m.payload == payload));
    };

    for i in 0..64u64 {
        cycle(&mut broker, i);
    }
    let iterations = 1024u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(&mut broker, 64 + i);
    }
    let allocs = allocations() - before;
    let messages = iterations * BURST as u64;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {messages} messages \
         ({:.4} allocs/message); local delivery must be allocation-free",
        allocs as f64 / messages as f64
    );
    let published = (64 + iterations) * BURST as u64;
    assert_eq!(broker.stats().publishes_in, published);
    assert_eq!(broker.stats().publishes_out, published);
    assert_eq!(broker.stats().duplicates_suppressed, 0);
    assert_eq!(broker.backlog(), 0);
}

/// The bundled QoS 2 exchange at steady state, with the buffers the two
/// transports use: the device holds PUBREL k − 1, moves it in front of
/// PUBLISH k in its write buffer and sends one datagram; the gateway
/// splits it, handles both messages in one batch and answers with one
/// merged `[PUBCOMP k − 1, PUBREC k]` datagram; the device splits that and
/// holds the next PUBREL. Splitting borrows, merging reuses the wire
/// buffer, holding appends to a warm buffer: **zero** heap allocations per
/// message — also when what is split is garbage.
#[test]
fn steady_state_bundled_handshake_allocates_zero_per_message() {
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::packet::{
        encode_publish_into, frames, Packet, PacketRef, QoS, TopicRef,
    };

    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let device = 0u32;
    feed(
        &mut broker,
        0,
        device,
        Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: "dev".into(),
        },
    );
    let out = feed(
        &mut broker,
        0,
        device,
        Packet::Register {
            topic_id: 0,
            msg_id: 1,
            topic_name: "provlight/z/dev".into(),
        },
    );
    let tid = match out[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    let mut sub = broker.subscribe_local("provlight/#").unwrap();

    let payload = vec![0x5c; 100];
    let garbage: Vec<u8> = (0..97u8).map(|i| i.wrapping_mul(37) | 2).collect();
    let mut out = BrokerOutputs::new();
    let mut held = Vec::new();
    let mut datagram = Vec::new();
    let mut reply = Vec::new();
    let mut batch = Vec::new();
    let mut msg_id = 0u16;

    let mut cycle = |broker: &mut Broker<u32>, now: u64| {
        // Device: the held PUBREL rides in front of the next PUBLISH.
        msg_id = msg_id.checked_add(1).unwrap_or(1);
        let riding = !held.is_empty();
        datagram.clear();
        datagram.append(&mut held);
        let topic = TopicRef::Id(tid);
        encode_publish_into(
            false,
            QoS::ExactlyOnce,
            false,
            &topic,
            msg_id,
            &payload,
            &mut datagram,
        );
        // Gateway: split where the datagram enters, merge where replies leave.
        out.clear();
        for frame in frames(&datagram) {
            broker
                .on_datagram_into(now, device, frame, &mut out)
                .unwrap();
        }
        reply.clear();
        let mut datagrams = 0;
        out.emit_merged(|_, bytes| {
            reply.extend_from_slice(bytes);
            datagrams += 1;
        });
        assert_eq!(datagrams, 1, "one reply datagram per bundle");
        // Device: PUBCOMP frees a slot, PUBREC leaves a PUBREL to hold.
        let mut replies = 0;
        for frame in frames(&reply) {
            replies += 1;
            match Packet::decode_borrowed(frame).unwrap() {
                PacketRef::Owned(Packet::PubRec { msg_id }) => {
                    Packet::PubRel { msg_id }.encode_into(&mut held);
                }
                PacketRef::Owned(Packet::PubComp { .. }) => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(replies, 1 + riding as usize);
        sub.try_recv(&mut batch);
        assert_eq!(batch.len(), 1);
        // Hostile bytes cost the splitter nothing either.
        assert!(frames(&garbage).all(|frame| Packet::decode_borrowed(frame).is_err()));
    };

    for i in 0..64u64 {
        cycle(&mut broker, i);
    }
    let iterations = 1024u64;
    let before = allocations();
    for i in 0..iterations {
        cycle(&mut broker, 64 + i);
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} messages \
         ({:.4} allocs/message); the bundled handshake must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(broker.stats().publishes_in, 64 + iterations);
    assert_eq!(broker.stats().publishes_out, 64 + iterations);
    assert_eq!(broker.stats().duplicates_suppressed, 0);
    assert_eq!(broker.stats().decode_errors, 0);
}

/// A stream through the real holds at both ends, on virtual time: the
/// device's `DeviceHold` carries its held PUBRELs in front of each PUBLISH,
/// 1 ms apart, none of which asks to be answered at once, so the gateway's
/// `GatewayHold` keeps the `[PUBCOMP…, PUBREC]` answers back; the first
/// flush `ACK_HOLD` after the first was held sends them as one datagram,
/// and the device holds the PUBRELs that answer them (the capture
/// default's window of 256 has room for a hold's worth). Holding, merging
/// and releasing append to warm buffers: **zero** heap allocations per
/// message.
#[test]
fn steady_state_streaming_holds_allocate_zero_per_message() {
    let iterations = 1024;
    let allocs = streaming_holds_allocations(iterations);
    assert!(
        allocs == 0,
        "steady state performed {allocs} allocations over {iterations} messages \
         ({:.4} allocs/message); the streaming holds must be allocation-free",
        allocs as f64 / iterations as f64
    );
}

/// The same steady state through fresh brokers. Each hashed table of each
/// broker draws a hash seed of its own, so state that grows after warm-up
/// for some seeds only — as the receiver's set of pending ids did, in about
/// one broker of twenty — shows here in nearly every run, not in one run
/// of twenty.
#[test]
fn streaming_holds_allocate_zero_through_many_fresh_brokers() {
    const BROKERS: usize = 64;
    let allocating: Vec<usize> = (0..BROKERS)
        .map(|_| streaming_holds_allocations(1024))
        .filter(|&allocs| allocs > 0)
        .collect();
    assert!(
        allocating.is_empty(),
        "{} of {BROKERS} brokers allocated in steady state: {allocating:?}",
        allocating.len()
    );
}

/// Streams `iterations` messages through a warm broker between the real
/// holds at both ends, checks what was answered and delivered, and returns
/// the allocations the stream made.
fn streaming_holds_allocations(iterations: u64) -> usize {
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::hold::{DeviceHold, GatewayHold, ACK_HOLD};
    use provlight::mqtt_sn::packet::{frames, Packet, PacketRef, QoS, TopicRef};
    use provlight::mqtt_sn::ClientConfig;

    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let device = 0u32;
    let connect = Packet::Connect {
        clean_session: true,
        duration: 60,
        client_id: "dev".into(),
    };
    feed(&mut broker, 0, device, connect);
    let register = Packet::Register {
        topic_id: 0,
        msg_id: 1,
        topic_name: "provlight/z/dev".into(),
    };
    let tid = match feed(&mut broker, 0, device, register)[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    let mut sub = broker.subscribe_local("provlight/#").unwrap();

    let mut hold = DeviceHold::new(&ClientConfig {
        max_inflight: 256,
        ..ClientConfig::new("dev")
    });
    let mut gateway: GatewayHold<u32> = GatewayHold::default();
    let mut publish = Packet::Publish {
        dup: false,
        qos: QoS::ExactlyOnce,
        retain: false,
        topic: TopicRef::Id(tid),
        msg_id: 0,
        payload: vec![0x5c; 100],
    };
    let mut out = BrokerOutputs::new();
    let (mut up, mut down) = (Vec::new(), Vec::new());
    let mut batch = Vec::new();

    // Returns the datagrams the gateway sent and the handshakes completed.
    let mut cycle = |broker: &mut Broker<u32>, now: u64| {
        // Device: the next PUBLISH, with the held PUBRELs in front.
        if let Packet::Publish { msg_id, .. } = &mut publish {
            *msg_id = msg_id.checked_add(1).unwrap_or(1);
        }
        up.clear();
        let mut datagrams = 0;
        let to_gateway = &mut |datagram: &[u8]| {
            up.extend_from_slice(datagram);
            datagrams += 1;
            Ok::<(), ()>(())
        };
        hold.send(&publish, now, to_gateway).unwrap();
        assert_eq!(datagrams, 1, "one datagram per PUBLISH");
        // Gateway: note, handle, and answer or hold.
        gateway.note(&device, &up);
        for frame in frames(&up) {
            broker
                .on_datagram_into(now, device, frame, &mut out)
                .unwrap();
        }
        down.clear();
        let (mut answers, mut completed) = (0, 0);
        gateway.flush(&mut out, now, &mut |_, bytes| {
            down.extend_from_slice(bytes);
            answers += 1;
        });
        // Device: PUBCOMPs end handshakes, PUBRECs leave PUBRELs to hold.
        // (The split of an empty buffer is one empty frame.)
        for frame in frames(&down).filter(|_| answers > 0) {
            match Packet::decode_borrowed(frame).unwrap() {
                PacketRef::Owned(Packet::PubRec { msg_id }) => {
                    let pubrel = Packet::PubRel { msg_id };
                    hold.send(&pubrel, now, &mut |_| Err(())).unwrap();
                }
                PacketRef::Owned(Packet::PubComp { .. }) => completed += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        sub.try_recv(&mut batch);
        assert_eq!(batch.len(), 1);
        (answers, completed)
    };

    let ms = 1_000_000u64;
    // A few holds, so every buffer has held a hold's worth.
    let warm = 4 * ACK_HOLD / ms;
    for i in 0..warm {
        cycle(&mut broker, i * ms);
    }
    let (mut answered, mut completed) = (0u64, 0u64);
    let before = allocations();
    for i in 0..iterations {
        let (answers, completions) = cycle(&mut broker, (warm + i) * ms);
        answered += answers;
        completed += completions;
    }
    let allocs = allocations() - before;
    // One answer per hold, not one per message, and every handshake but
    // the held ones completed.
    let per_hold = iterations * ms / (ACK_HOLD + ms);
    assert!(answered.abs_diff(per_hold) <= 1, "{answered} answers");
    assert!(
        completed >= iterations - 2 * ACK_HOLD / ms,
        "{completed} completed"
    );
    assert_eq!(broker.stats().publishes_in, warm + iterations);
    assert_eq!(broker.stats().publishes_out, warm + iterations);
    assert_eq!(broker.stats().duplicates_suppressed, 0);
    assert_eq!(broker.stats().decode_errors, 0);
    allocs
}

/// A device `Client` streaming QoS 2 on virtual time, one publish a
/// millisecond with the capture default window of 256, its gateway's
/// answers coming back in batches one `ACK_HOLD` late: at each batch the
/// PUBCOMPs of the PUBRELs the batch before sent, then the PUBRECs of the
/// publishes since. Fresh clients, so that a growth depending on a hash
/// seed shows in nearly every run: each must spend exactly three
/// allocations a message, the `Vec<Output>`s its publish, its PUBREL and
/// its `PublishDone` come back in, and nothing in the send window.
#[test]
fn a_streaming_device_client_allocates_only_its_outputs() {
    assert_each_device_client_allocates_only_its_outputs(false);
}

/// The same stream with each payload encoded into a buffer the client
/// hands back, as the transmitter does (`take_spare_payload`, or a fresh
/// one when none is spare): the pool keeps a window's worth of buffers,
/// so after warm-up every publish finds one and the count is the same
/// three a message. A pool of 16 dropped most of each batch of
/// completions, and the stream allocated a fresh payload for most
/// messages.
#[test]
fn a_device_client_encoding_into_spare_payloads_allocates_only_its_outputs() {
    assert_each_device_client_allocates_only_its_outputs(true);
}

/// Each of 64 fresh clients streaming ten holds' worth of publishes through
/// [`device_client_allocations`] spends exactly three allocations a
/// message.
fn assert_each_device_client_allocates_only_its_outputs(spare_payloads: bool) {
    const CLIENTS: usize = 64;
    let messages = 10 * ACK_HOLD_MS;
    let missing: Vec<usize> = (0..CLIENTS)
        .map(|_| device_client_allocations(messages, spare_payloads))
        .filter(|&allocs| allocs != 3 * messages as usize)
        .collect();
    assert!(
        missing.is_empty(),
        "{} of {CLIENTS} clients spent other than {} allocations on {messages} messages: \
         {missing:?}",
        missing.len(),
        3 * messages
    );
}

/// `ACK_HOLD` in publishes of [`device_client_allocations`]' stream.
const ACK_HOLD_MS: u64 = provlight::mqtt_sn::hold::ACK_HOLD / 1_000_000;

/// Streams `messages` QoS 2 publishes, a whole number of holds, through a
/// fresh device client warmed by four holds of the same stream, and
/// returns the allocations the stream made. Payloads come from a stock
/// built beforehand, as a caller's encoder would hand them over, or, with
/// `spare_payloads`, are encoded into what
/// [`Client::take_spare_payload`](provlight::mqtt_sn::Client::take_spare_payload)
/// hands back, a fresh buffer when it has none.
fn device_client_allocations(messages: u64, spare_payloads: bool) -> usize {
    use provlight::mqtt_sn::client::Output;
    use provlight::mqtt_sn::packet::{Packet, QoS, TopicRef};
    use provlight::mqtt_sn::{Client, ClientConfig, ClientEvent, ReturnCode};

    let mut client = Client::new(ClientConfig {
        max_inflight: 256,
        ..ClientConfig::new("dev")
    });
    client.connect(0);
    let accepted = Packet::ConnAck {
        code: ReturnCode::Accepted,
    };
    client.on_datagram(&accepted.encode(), 0).unwrap();
    let warm = 4 * ACK_HOLD_MS;
    let stocked = if spare_payloads { 0 } else { warm + messages };
    let mut stock: Vec<Vec<u8>> = (0..stocked).map(|_| vec![0x5c; 100]).collect();
    let hold = ACK_HOLD_MS as usize;
    let (mut published, mut released) = (Vec::with_capacity(hold), Vec::with_capacity(hold));
    let mut wire = Vec::with_capacity(16);
    let ms = 1_000_000u64;

    let mut before = 0;
    for i in 0..warm + messages {
        if i == warm {
            before = allocations();
        }
        let now = i * ms;
        let payload = if spare_payloads {
            let mut payload = client.take_spare_payload().unwrap_or_default();
            payload.clear();
            payload.extend_from_slice(&[0x5c; 100]);
            payload
        } else {
            stock.pop().unwrap()
        };
        let (id, outputs) = client
            .publish(TopicRef::Id(1), payload, QoS::ExactlyOnce, now)
            .unwrap();
        for output in outputs {
            if let Output::Send(Packet::Publish { payload, .. }) = output {
                client.reclaim_payload(payload);
            }
        }
        published.push(id);
        assert!(client.on_tick(now).is_empty());
        if !(i + 1).is_multiple_of(ACK_HOLD_MS) {
            continue;
        }
        for id in released.drain(..) {
            wire.clear();
            Packet::PubComp { msg_id: id }.encode_into(&mut wire);
            let outputs = client.on_datagram(&wire, now).unwrap();
            assert!(matches!(
                &outputs[..],
                [Output::Event(ClientEvent::PublishDone { msg_id })] if *msg_id == id
            ));
        }
        for id in published.drain(..) {
            wire.clear();
            Packet::PubRec { msg_id: id }.encode_into(&mut wire);
            let outputs = client.on_datagram(&wire, now).unwrap();
            assert!(matches!(
                &outputs[..],
                [Output::Send(Packet::PubRel { msg_id })] if *msg_id == id
            ));
            released.push(id);
        }
    }
    let allocs = allocations() - before;
    assert_eq!(client.inflight_len(), hold);
    allocs
}

/// The device end above the client: each of 64 fresh
/// [`Device`](provlight::core::device::Device)s streams single-record
/// captures, one a millisecond, through a sans-io gateway on virtual time —
/// the gateway holding its acknowledgements, the device draining them at
/// its read deadline — and spends exactly its client's three allocations
/// a message. Coalescing, encoding into a spare payload, the hold, the
/// in-flight accounting and the backlog's checks add none, and every
/// datagram leaves through the sink.
#[test]
fn a_streaming_device_allocates_only_its_clients_outputs() {
    const DEVICES: usize = 64;
    let messages = 10 * ACK_HOLD_MS;
    let missing: Vec<usize> = (0..DEVICES)
        .map(|_| device_allocations(messages))
        .filter(|&allocs| allocs != 3 * messages as usize)
        .collect();
    assert!(
        missing.is_empty(),
        "{} of {DEVICES} devices spent other than {} allocations on {messages} messages: \
         {missing:?}",
        missing.len(),
        3 * messages
    );
}

/// Streams `messages` single-record captures through a fresh device and
/// gateway warmed by four holds of the same stream, from one flush to the
/// next, and returns the allocations the stream and its flush made.
fn device_allocations(messages: u64) -> usize {
    use provlight::core::device::{client_config, Device};
    use provlight::core::CaptureConfig;
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::hold::GatewayHold;
    use provlight::mqtt_sn::packet::frames;
    use provlight::mqtt_sn::session::Session;
    use std::cell::RefCell;

    let config = CaptureConfig::default();
    let broker = RefCell::new(Broker::<u32>::new(BrokerConfig::default()));
    let (mut hold, mut out) = (GatewayHold::<u32>::default(), BrokerOutputs::new());
    // What the gateway sent the device since its last read, back to back.
    let down = RefCell::new(Vec::<u8>::with_capacity(4096));
    let now = Cell::new(0u64);
    // The gateway serves each datagram as it arrives.
    let mut serve = |datagram: &[u8]| {
        hold.note(&0, datagram);
        let mut broker = broker.borrow_mut();
        for message in frames(datagram) {
            let _ = broker.on_datagram_into(now.get(), 0, message, &mut out);
        }
        let send = &mut |_: &u32, bytes: &[u8]| down.borrow_mut().extend_from_slice(bytes);
        hold.flush(&mut out, now.get(), send);
    };

    let session = Session::new(client_config("dev".into(), &config));
    let topic = "provlight/z/dev".to_owned();
    let mut device = Device::new(session, topic, config, 1).unwrap();
    let sink = &mut |d: &[u8]| {
        serve(d);
        Ok(())
    };
    let read = |device: &mut Device| {
        device.hear(&down.borrow(), now.get());
        down.borrow_mut().clear();
    };
    // The first attempt to connect: the CONNECT, then the REGISTER its
    // CONNACK draws, each answered before the next.
    assert!(device.redial_due(0));
    device.dialed(Ok(()), 0, sink);
    for _ in 0..2 {
        read(&mut device);
        device.poll(Ok(()), 0, sink);
    }
    assert!(device.is_up());

    let names = attr_names();
    let template = record(7, &names[..3]);
    let warm = 4 * ACK_HOLD_MS;
    let mut stock: Vec<Record> = (0..warm + messages).map(|_| template.clone()).collect();
    let ms = 1_000_000u64;
    // A flush: the device asks and reads until every handshake is over.
    let flush = |device: &mut Device, sink: &mut dyn FnMut(&[u8]) -> std::io::Result<()>| {
        for _ in 0..8 {
            if device.drained() {
                return;
            }
            device.ask(now.get(), sink);
            read(device);
            device.poll(Ok(()), now.get(), sink);
        }
        panic!("the flush never ended");
    };
    let mut before = 0;
    for i in 0..warm + messages {
        if i == warm {
            flush(&mut device, sink);
            before = allocations();
        }
        // A turn of the transmitter's loop: the capture call, the timers
        // with a read at the read deadline, and a read when the gateway
        // owes one.
        now.set(i * ms);
        device.capture_one(stock.pop().unwrap(), now.get(), sink);
        device.cut(now.get(), sink);
        if device.drain_due(now.get()) {
            read(&mut device);
        }
        device.poll(Ok(()), now.get(), sink);
        if device.awaits_gateway() {
            device.ask(now.get(), sink);
            read(&mut device);
            device.poll(Ok(()), now.get(), sink);
        }
    }
    flush(&mut device, sink);
    let allocs = allocations() - before;
    let stats = device.stats();
    assert_eq!(broker.borrow().stats().publishes_in, warm + messages);
    assert_eq!((stats.publish_failures, stats.records_dropped), (0, 0));
    assert_eq!(stats.buffered_high_water, 0);
    allocs
}

/// A timer pass that finds nothing due — nearly every one either end ever
/// makes — with the in-flight window full: `SendWindow::due` walks the
/// slots in place, in the order they are kept, so the device's and the
/// gateway's tick both perform **zero** heap allocations.
#[test]
fn tick_with_a_full_window_and_nothing_due_allocates_zero() {
    use provlight::mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
    use provlight::mqtt_sn::packet::{Packet, QoS, TopicRef};
    use provlight::mqtt_sn::{Client, ClientConfig, ReturnCode};

    // Device: every slot of the window holds an unacknowledged QoS 2 publish.
    let config = ClientConfig::new("dev");
    let window = config.max_inflight;
    let mut client = Client::new(config);
    client.connect(0);
    let accepted = Packet::ConnAck {
        code: ReturnCode::Accepted,
    };
    client.on_datagram(&accepted.encode(), 0).unwrap();
    for _ in 0..window {
        client
            .publish(TopicRef::Id(1), vec![0x5c; 16], QoS::ExactlyOnce, 0)
            .unwrap();
    }
    assert!(!client.can_publish());

    // Gateway: a QoS 1 subscriber that acknowledges nothing, so every
    // forward stays in its session's window.
    let mut broker: Broker<u32> = Broker::new(BrokerConfig::default());
    let (publisher, subscriber) = (0u32, 1u32);
    for addr in [publisher, subscriber] {
        let connect = Packet::Connect {
            clean_session: true,
            duration: 60,
            client_id: format!("c{addr}"),
        };
        feed(&mut broker, 0, addr, connect);
    }
    let subscribe = Packet::Subscribe {
        dup: false,
        qos: QoS::AtLeastOnce,
        msg_id: 1,
        topic: TopicRef::Name("z/t".into()),
    };
    let out = feed(&mut broker, 0, subscriber, subscribe);
    let tid = match out[0].1 {
        Packet::SubAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    for msg_id in 1..=window as u16 {
        let publish = Packet::Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic: TopicRef::Id(tid),
            msg_id,
            payload: vec![0x5c; 16],
        };
        feed(&mut broker, 0, publisher, publish);
    }
    assert_eq!(broker.stats().publishes_out, window as u64);
    let mut out = BrokerOutputs::new();

    // Well inside `Tretry` (10 s at both ends): nothing is due.
    let iterations = 1024u64;
    let before = allocations();
    for now in 1..=iterations {
        assert!(client.on_tick(now).is_empty());
        broker.on_tick_into(now, &mut out);
        assert!(out.is_empty());
    }
    let allocs = allocations() - before;
    assert!(
        allocs == 0,
        "{allocs} allocations over {iterations} ticks with nothing due \
         ({:.4} allocs/tick); an idle tick must be allocation-free",
        allocs as f64 / iterations as f64
    );
    assert_eq!(client.inflight_len(), window);
    assert_eq!(broker.stats().retransmissions, 0);
}

/// The legacy allocating path, measured the same way, is decidedly not
/// allocation-free — guarding against the zero assertion above passing
/// vacuously (e.g. a broken counter).
#[test]
fn legacy_allocating_path_is_counted() {
    let records: Vec<Record> = (0..GROUP as u64)
        .map(|i| record(i, &attr_names()))
        .collect();
    // Warm the thread-local scratch used inside Envelope::encode.
    for _ in 0..4 {
        std::hint::black_box(Envelope::encode(&records, true));
    }
    let before = allocations();
    for _ in 0..16 {
        std::hint::black_box(Envelope::encode(&records, true));
    }
    let allocs = allocations() - before;
    assert!(
        allocs >= 16,
        "expected the allocating API to allocate at least once per call, saw {allocs}"
    );
}
