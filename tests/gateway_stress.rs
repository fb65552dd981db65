//! Loopback fan-in stress: 32 concurrent QoS 1 publishers through one
//! `UdpBroker` into a single wildcard subscriber — the paper's Fig. 5
//! gateway shape at its evaluated device count.
//!
//! Asserts zero loss, exact `BrokerStats` message accounting, and
//! in-order per-client delivery (each publisher's stream arrives in
//! publish order, however the 32 streams interleave).

use provlight::mqtt_sn::broker::BrokerConfig;
use provlight::mqtt_sn::net::{UdpBroker, UdpClient};
use provlight::mqtt_sn::packet::QoS;
use provlight::mqtt_sn::ClientConfig;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 32;
const MESSAGES_PER_CLIENT: usize = 16;
/// Publishes the publishers may be ahead of the collector by. The
/// retransmission timer is set out of the test's reach, so a datagram lost
/// at a full socket buffer stays lost: 34 threads on two cores can starve
/// the collector long enough for the whole run to pile up at its socket
/// (512 datagrams, more than a default receive buffer holds), and this many
/// always fit.
const WINDOW: usize = 128;

fn timeout() -> Duration {
    Duration::from_secs(10)
}

#[test]
fn fan_in_32_publishers_no_loss_exact_stats_in_order() {
    let broker = UdpBroker::builder("127.0.0.1:0")
        .config(BrokerConfig {
            // Long enough that no broker->subscriber retransmission fires
            // mid-test: every counted delivery is a first delivery, so the
            // stats assertions below are exact, not lower bounds.
            retry_timeout: Duration::from_secs(60),
            ..BrokerConfig::default()
        })
        .spawn()
        .unwrap();
    let addr = broker.local_addr();

    let mut sub = UdpClient::connect(addr, ClientConfig::new("collector"), timeout()).unwrap();
    sub.subscribe("stress/#", QoS::AtLeastOnce, timeout())
        .unwrap();

    // Publishes started, and messages the collector has taken.
    let (sent, received) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
    let publishers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let (sent, received) = (Arc::clone(&sent), Arc::clone(&received));
            std::thread::spawn(move || {
                let mut c =
                    UdpClient::connect(addr, ClientConfig::new(format!("dev{i}")), timeout())
                        .unwrap();
                let tid = c.register(&format!("stress/dev{i}"), timeout()).unwrap();
                for seq in 0..MESSAGES_PER_CLIENT {
                    let ticket = sent.fetch_add(1, Ordering::Relaxed);
                    let deadline = Instant::now() + timeout();
                    while ticket >= received.load(Ordering::Relaxed) + WINDOW {
                        assert!(Instant::now() < deadline, "collector stalled");
                        std::thread::yield_now();
                    }
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
        received.store(n + 1, Ordering::Relaxed);
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

    // Every publish entered once and left once, and nothing was dropped,
    // retried, or misparsed.
    let stats = broker.stats();
    assert_eq!(stats.publishes_in, total as u64);
    assert_eq!(stats.publishes_out, total as u64);
    assert_eq!(stats.duplicates_suppressed, 0);
    assert_eq!(stats.retransmissions, 0);
    assert_eq!(stats.drops, 0);
    assert_eq!(stats.decode_errors, 0);
    broker.shutdown();
}
