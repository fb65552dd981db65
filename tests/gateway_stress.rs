//! Loopback fan-in stress: 32 concurrent QoS 1 publishers through one
//! `UdpBroker` into a single wildcard subscriber — the paper's Fig. 5
//! gateway shape at its evaluated device count — with the gateway at one
//! shard (what production runs) and at four.
//!
//! Asserts zero loss, exact merged `BrokerStats` message accounting, and
//! in-order per-client delivery (each publisher's stream arrives in
//! publish order, however the 32 streams interleave).

use provlight::mqtt_sn::broker::BrokerConfig;
use provlight::mqtt_sn::net::{UdpBroker, UdpClient};
use provlight::mqtt_sn::packet::QoS;
use provlight::mqtt_sn::router::shard_for_client;
use provlight::mqtt_sn::ClientConfig;
use std::collections::HashMap;
use std::time::Duration;

const CLIENTS: usize = 32;
const MESSAGES_PER_CLIENT: usize = 16;

fn timeout() -> Duration {
    Duration::from_secs(10)
}

/// The fan-in through a gateway of `shards` shards. Publishers land on
/// whichever shard their client id hashes to, the collector sits on its
/// own, and every publish from a foreign shard must cross the forwarding
/// fabric exactly once — never, when there is one shard. Zero loss,
/// per-client order, and merged stats that account for every message
/// *and* every forward.
fn fan_in(shards: usize) {
    let broker = UdpBroker::builder("127.0.0.1:0")
        .shards(shards)
        .config(BrokerConfig {
            // Long enough that no broker->subscriber retransmission fires
            // mid-test: every counted forward is a first delivery, so the
            // stats assertions below are exact, not lower bounds.
            retry_timeout: Duration::from_secs(60),
            ..BrokerConfig::default()
        })
        .spawn()
        .unwrap();
    assert_eq!(broker.shards(), shards);
    let addr = broker.local_addr();

    let mut sub = UdpClient::connect(addr, ClientConfig::new("collector"), timeout()).unwrap();
    sub.subscribe("stress/#", QoS::AtLeastOnce, timeout())
        .unwrap();
    let collector_shard = shard_for_client("collector", shards);

    // Every publisher on a shard other than the collector's forwards its
    // whole stream across the fabric; same-shard publishers never touch
    // it. Computed from the same hash the gateway uses, so the assert
    // below is exact.
    let cross_clients = (0..CLIENTS)
        .filter(|i| shard_for_client(&format!("dev{i}"), shards) != collector_shard)
        .count();
    if shards > 1 {
        assert!(
            cross_clients > 0 && cross_clients < CLIENTS,
            "degenerate hash split ({cross_clients}/{CLIENTS} cross-shard) exercises nothing"
        );
    }

    let publishers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c =
                    UdpClient::connect(addr, ClientConfig::new(format!("dev{i}")), timeout())
                        .unwrap();
                let tid = c.register(&format!("stress/dev{i}"), timeout()).unwrap();
                for seq in 0..MESSAGES_PER_CLIENT {
                    c.publish(tid, vec![i as u8, seq as u8], QoS::AtLeastOnce, timeout())
                        .unwrap();
                }
            })
        })
        .collect();

    // Collect all messages while the publishers run; each payload is
    // (client, seq).
    let total = CLIENTS * MESSAGES_PER_CLIENT;
    let mut next_seq: HashMap<u8, u8> = HashMap::new();
    for n in 0..total {
        let (_, payload) = sub
            .recv_message(timeout())
            .unwrap_or_else(|e| panic!("lost traffic after {n}/{total} messages: {e}"));
        assert_eq!(payload.len(), 2);
        let (client, seq) = (payload[0], payload[1]);
        let expected = next_seq.entry(client).or_insert(0);
        assert_eq!(
            seq, *expected,
            "client {client} delivered out of order (got {seq}, wanted {expected})"
        );
        *expected += 1;
    }
    for p in publishers {
        p.join().expect("publisher thread");
    }
    assert_eq!(
        next_seq.len(),
        CLIENTS,
        "some client's stream never arrived"
    );
    assert!(
        next_seq
            .values()
            .all(|&s| s as usize == MESSAGES_PER_CLIENT),
        "incomplete streams: {next_seq:?}"
    );

    // Merged accounting across all shards: every publish entered once,
    // left once, crossed the fabric exactly when its publisher lived on a
    // foreign shard, and nothing was dropped, retried, or misparsed.
    let stats = broker.stats();
    assert_eq!(stats.publishes_in, total as u64);
    assert_eq!(stats.publishes_out, total as u64);
    assert_eq!(
        stats.cross_shard_forwards,
        (cross_clients * MESSAGES_PER_CLIENT) as u64
    );
    assert_eq!(stats.duplicates_suppressed, 0);
    assert_eq!(stats.retransmissions, 0);
    assert_eq!(stats.drops, 0);
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(
        stats.forward_ring_high_water >= 1,
        cross_clients > 0,
        "ring high-water must show cross-shard traffic, and only that"
    );

    // The per-shard split is consistent with the merged view: inbound
    // publishes land on the publisher's shard, outbound delivery happens
    // on the collector's.
    let per_shard = broker.shard_stats();
    assert_eq!(per_shard.len(), shards);
    assert_eq!(
        per_shard.iter().map(|s| s.publishes_in).sum::<u64>(),
        total as u64
    );
    assert_eq!(per_shard[collector_shard].publishes_out, total as u64);
    for (idx, s) in per_shard.iter().enumerate() {
        if idx != collector_shard {
            assert_eq!(s.publishes_out, 0, "shard {idx} delivered unexpectedly");
        }
    }
    broker.shutdown();
}

#[test]
fn fan_in_32_publishers_no_loss_exact_stats_in_order() {
    fan_in(1);
}

#[test]
fn sharded_fan_in_32_publishers_no_loss_exact_merged_stats() {
    fan_in(4);
}
