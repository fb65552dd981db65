//! What a gateway costs in OS threads: one for the default single shard
//! (its serve loop reads the socket itself), `n + 1` for `n > 1` shards
//! (the routing front plus one loop each). `ProvenanceManager::start`
//! adds exactly two — the gateway's, then the translator's; the benchmark
//! tells them apart by that order — so both are pinned here.
//!
//! This binary holds exactly one test: thread counting reads
//! `/proc/self/task`, which any concurrently running test would disturb.
#![cfg(target_os = "linux")]

use provlight::continuum::deployment::ProvenanceManager;
use provlight::mqtt_sn::broker::BrokerConfig;
use provlight::mqtt_sn::net::UdpBroker;
use std::time::{Duration, Instant};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Whether the thread count gets back to `idle`. A joined thread can stay
/// listed for a moment: `join` returns when the thread signals its exit,
/// just before the kernel unlinks the task.
fn settles_at(idle: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while os_threads() != idle && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    os_threads() == idle
}

#[test]
fn gateway_spawns_one_thread_per_shard_plus_a_front_only_when_sharded() {
    let idle = os_threads();
    let gateway = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    assert_eq!(os_threads() - idle, 1, "default gateway: the lone shard");
    gateway.shutdown();
    assert!(settles_at(idle), "shutdown joins every thread");

    for shards in [2, 4] {
        let gateway = UdpBroker::builder("127.0.0.1:0")
            .shards(shards)
            .spawn()
            .unwrap();
        assert_eq!(os_threads() - idle, shards + 1, "{shards} shards + front");
        gateway.shutdown();
        assert!(settles_at(idle), "shutdown joins every thread");
    }

    // The whole server: the gateway's one thread and one translator
    // blocked on its queue — no client socket, no thread of its own for it.
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    assert_eq!(os_threads() - idle, 2, "gateway + translator");
    manager.shutdown();
    assert!(settles_at(idle), "shutdown joins every thread");
}
