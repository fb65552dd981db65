//! Gateway broker throughput: a per-packet serve loop versus the batched
//! zero-alloc one, through the sans-io core.
//!
//! `per_packet` is a foil built here from public pieces — the library no
//! longer carries a per-packet path — that pays per datagram what the
//! PR-4-era serve loop paid: one `Packet::decode` (owned payload), a
//! fresh `BrokerOutputs`, one owned packet per output (`packets()`,
//! payload copied per subscriber), and one `encode_into` per output
//! datagram. `batched` replays the gateway's serve loop:
//! `on_datagram_into` over 32-frame batches under one `&mut` — borrowed
//! decode, recycled `BrokerOutputs`, and single-encode fan-out
//! (subscriber copies share one wire image with a 3-byte header patch).
//!
//! Both paths are swept across 1/8/32 QoS 0 subscribers — the fan-out a
//! gateway sees between one translator and the paper's ~50-devices-per-
//! gateway deployments. Throughput is inbound packets/sec; outbound
//! datagrams scale with the fan-out.
//!
//! Results extend the `broker` section of `BENCH_hotpath.json` at the
//! repo root, leaving the capture and ingest sections untouched (ROADMAP:
//! extend, not replace). Reps come from `PROVLIGHT_REPS` (default 10);
//! each number is the best rep.

use mqtt_sn::broker::{Broker, BrokerConfig, BrokerOutputs};
use mqtt_sn::packet::{Packet, QoS, TopicRef};
use std::hint::black_box;
use std::time::Instant;

const FANOUTS: &[usize] = &[1, 8, 32];
/// The serve loop's drain bound (`SERVE_BATCH` in `mqtt_sn::net`).
const BATCH: usize = 32;
const PAYLOAD_BYTES: usize = 64;
/// The fan-out level the headline gate is taken at.
const GATE_FANOUT: usize = 8;

const PUBLISHER: u32 = 0;

/// Set-up traffic through the broker's one door: `packet` as the datagram
/// `from` would send, and the replies decoded.
fn send(b: &mut Broker<u32>, from: u32, packet: Packet) -> Vec<(u32, Packet)> {
    let mut out = BrokerOutputs::new();
    b.on_datagram_into(0, from, &packet.encode(), &mut out)
        .expect("set-up packet decodes");
    out.packets()
}

fn connect(b: &mut Broker<u32>, addr: u32) {
    let connect = Packet::Connect {
        clean_session: true,
        duration: 60,
        client_id: format!("c{addr}"),
    };
    send(b, addr, connect);
}

fn subscribe(b: &mut Broker<u32>, addr: u32, name: &str) {
    let subscribe = Packet::Subscribe {
        dup: false,
        qos: QoS::AtMostOnce,
        msg_id: 2,
        topic: TopicRef::Name(name.into()),
    };
    send(b, addr, subscribe);
}

/// A broker with one publisher and `subs` QoS 0 subscribers on one topic;
/// returns the registered topic id.
fn build_broker(subs: usize) -> (Broker<u32>, u16) {
    let mut b: Broker<u32> = Broker::new(BrokerConfig::default());
    for addr in 0..=subs as u32 {
        connect(&mut b, addr);
    }
    let register = Packet::Register {
        topic_id: 0,
        msg_id: 1,
        topic_name: "gw/dev".into(),
    };
    let tid = match send(&mut b, PUBLISHER, register)[0].1 {
        Packet::RegAck { topic_id, .. } => topic_id,
        ref p => panic!("unexpected {p:?}"),
    };
    for addr in 1..=subs as u32 {
        subscribe(&mut b, addr, "gw/dev");
    }
    (b, tid)
}

fn publish_wire(tid: u16) -> Vec<u8> {
    Packet::Publish {
        dup: false,
        qos: QoS::AtMostOnce,
        retain: false,
        topic: TopicRef::Id(tid),
        msg_id: 0,
        payload: vec![0xA5; PAYLOAD_BYTES],
    }
    .encode()
}

/// The per-packet foil's loop body per datagram; returns elapsed seconds.
fn run_per_packet(broker: &mut Broker<u32>, wire: &[u8], packets: usize) -> f64 {
    let mut wbuf = Vec::new();
    let start = Instant::now();
    for _ in 0..packets {
        black_box(Packet::decode(wire).expect("bench wire decodes"));
        let mut out = BrokerOutputs::new();
        broker
            .on_datagram_into(0, PUBLISHER, wire, &mut out)
            .expect("bench wire decodes");
        for (to, p) in out.packets() {
            wbuf.clear();
            p.encode_into(&mut wbuf);
            black_box((to, wbuf.len()));
        }
    }
    start.elapsed().as_secs_f64()
}

/// The batched zero-alloc serve-loop body; returns elapsed seconds.
fn run_batched(broker: &mut Broker<u32>, wire: &[u8], packets: usize) -> f64 {
    let mut out = BrokerOutputs::new();
    let mut done = 0;
    let start = Instant::now();
    while done < packets {
        let n = BATCH.min(packets - done);
        out.clear();
        for _ in 0..n {
            broker
                .on_datagram_into(0, PUBLISHER, wire, &mut out)
                .expect("bench wire decodes");
        }
        out.emit(|to, bytes| {
            black_box((to, bytes.len()));
        });
        done += n;
    }
    start.elapsed().as_secs_f64()
}

fn main() {
    let configured = provlight_bench::reps().max(1);
    let reps = configured.max(3);
    let base_packets: usize = if configured <= 1 { 40_000 } else { 120_000 };

    println!(
        "broker_hot_path: {PAYLOAD_BYTES}-byte QoS 0 publishes, batch={BATCH}, \
         fan-out sweep {FANOUTS:?}, reps={reps}"
    );

    // (fanout, best per-packet rate, best batched rate), packets/sec in.
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for &fanout in FANOUTS {
        // Keep total outbound work comparable across the sweep.
        let packets = (base_packets / fanout).max(2_000);
        let (mut broker, tid) = build_broker(fanout);
        let wire = publish_wire(tid);
        let (mut best_per_packet, mut best_batched) = (0.0f64, 0.0f64);
        for rep in 0..reps + 1 {
            let per_packet = packets as f64 / run_per_packet(&mut broker, &wire, packets);
            let batched = packets as f64 / run_batched(&mut broker, &wire, packets);
            if rep == 0 {
                continue; // warmup
            }
            best_per_packet = best_per_packet.max(per_packet);
            best_batched = best_batched.max(batched);
        }
        let expected = ((reps + 1) * 2 * packets) as u64;
        assert_eq!(broker.stats().publishes_in, expected);
        assert_eq!(broker.stats().publishes_out, expected * fanout as u64);
        println!(
            "  fanout {fanout:>2}: per_packet {best_per_packet:>12.0} pkt/s   \
             batched {best_batched:>12.0} pkt/s   ({:.2}x)",
            best_batched / best_per_packet
        );
        rows.push((fanout, best_per_packet, best_batched));
    }

    let gate_row = rows
        .iter()
        .find(|(f, _, _)| *f == GATE_FANOUT)
        .expect("gate fan-out measured");
    let speedup = gate_row.2 / gate_row.1;

    let mut paths = String::new();
    for (i, (fanout, per_packet, batched)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        paths.push_str(&format!(
            "\n      \"per_packet_fanout_{fanout}\": {{ \"packets_per_sec\": {per_packet:.0} }},\
             \n      \"batched_fanout_{fanout}\": {{ \"packets_per_sec\": {batched:.0} }}{sep}"
        ));
    }
    let section = format!(
        "{{\n    \"payload_bytes\": {PAYLOAD_BYTES},\n    \"batch\": {BATCH},\n    \
         \"gate_fanout\": {GATE_FANOUT},\n    \"reps\": {reps},\n    \
         \"model\": \"sans-io core; packets/sec inbound, outbound scales with fan-out; per_packet is a bench-local replay with deliberate per-datagram overhead, so the speedup is not comparable with entries before PR 18 and is not a gain\",\n    \
         \"paths\": {{{paths}\n    }},\n    \
         \"speedup_broker_batched_vs_per_packet\": {speedup:.2}\n  }}"
    );

    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let existing = std::fs::read_to_string(out_path).unwrap_or_default();
    let updated = provlight_bench::bench_json::upsert_section(&existing, "broker", &section);
    std::fs::write(out_path, updated).expect("write BENCH_hotpath.json");
    println!("  wrote broker section of {out_path}");

    assert!(
        speedup >= 2.0,
        "batched broker path must be >= 2x the per-packet path at fan-out \
         {GATE_FANOUT} (reps={reps}), got {speedup:.2}x"
    );
}
