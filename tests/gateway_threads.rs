//! What a gateway costs in OS threads: one — its serve loop reads the
//! socket itself — and none when the snapshot it was to resume from is
//! refused. `ProvenanceManager::start` adds exactly two — the gateway's,
//! then the translator's; the benchmark tells them apart by that order —
//! so both are pinned here.
//!
//! This binary holds exactly one test: thread counting reads
//! `/proc/self/task`, which any concurrently running test would disturb.
#![cfg(target_os = "linux")]

use provlight::continuum::deployment::ProvenanceManager;
use provlight::mqtt_sn::broker::{wire, Broker, BrokerConfig};
use provlight::mqtt_sn::net::UdpBroker;
use std::net::SocketAddr;
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

/// `payload` in the container `prov_wal::snapshot` reads (the facade has
/// no path to its writer): magic, version, padding, length, CRC-32.
fn checksummed(payload: &[u8]) -> Vec<u8> {
    let crc = !payload.iter().fold(!0u32, |crc, &byte| {
        (0..8).fold(crc ^ byte as u32, |crc, _| {
            (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg())
        })
    });
    let mut file = b"PSNP\x01\0\0\0".to_vec();
    file.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    file.extend_from_slice(&crc.to_le_bytes());
    file.extend_from_slice(payload);
    file
}

#[test]
fn gateway_is_one_thread_and_the_server_two() {
    let idle = os_threads();
    let gateway = UdpBroker::spawn("127.0.0.1:0", BrokerConfig::default()).unwrap();
    assert_eq!(os_threads() - idle, 1, "the gateway's serve loop");
    gateway.shutdown();
    assert!(settles_at(idle), "shutdown joins every thread");

    // A `PVSH` version 1 file of four shards — header, an empty registry
    // block, four broker sections — once started five threads. It is
    // refused, and nothing is left running.
    let path = std::env::temp_dir().join(format!("gateway-threads-{}.snap", std::process::id()));
    let mut file = b"PVSH\x01\x04".to_vec();
    file.extend_from_slice(&1u16.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes());
    let section = Broker::<SocketAddr>::new(BrokerConfig::default()).encode_state();
    for _ in 0..4 {
        wire::put_bytes(&mut file, &section);
    }
    std::fs::write(&path, checksummed(&file)).unwrap();
    let refused = UdpBroker::builder("127.0.0.1:0").resume_from(&path).spawn();
    let refused = refused.err().expect("a sharded gateway's file is refused");
    assert_eq!(refused.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(os_threads(), idle, "a refused resume starts nothing");
    std::fs::remove_file(&path).unwrap();

    // The whole server: the gateway's one thread and one translator
    // blocked on its queue — no client socket, no thread of its own for it.
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    assert_eq!(os_threads() - idle, 2, "gateway + translator");
    manager.shutdown();
    assert!(settles_at(idle), "shutdown joins every thread");
}
