//! What `ProvLightClient::connect` does before it returns: it dials, sends
//! one CONNECT and spawns one thread, waiting on no answer — and fails,
//! leaving nothing running, only on a local error.
//!
//! This binary holds exactly one test: thread counting reads
//! `/proc/self/task`, which any concurrently running test would disturb.
#![cfg(target_os = "linux")]

use provlight::core::{CaptureConfig, ProvLightClient};
use provlight::mqtt_sn::Packet;
use std::net::UdpSocket;
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
fn connect_sends_one_connect_and_spawns_one_thread_or_fails_locally() {
    let idle = os_threads();

    // A spill directory that cannot be opened is a local error: `connect`
    // fails, and no transmitter thread is left behind.
    let file = std::env::temp_dir().join(format!("first-dial-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let config = CaptureConfig {
        spill_dir: Some(file.clone()),
        ..CaptureConfig::default()
    };
    let gateway = UdpSocket::bind("127.0.0.1:0").unwrap();
    let addr = gateway.local_addr().unwrap();
    let refused = ProvLightClient::connect(addr, "spill", "provlight/test/spill", config);
    assert!(refused.is_err(), "a spill directory that is a file");
    assert_eq!(os_threads(), idle, "a failed connect starts nothing");
    std::fs::remove_file(&file).unwrap();

    // A gateway that never answers: `connect` returns at once, with one
    // thread spawned and one datagram sent — the CONNECT, asking for a
    // clean session.
    let started = Instant::now();
    let client = ProvLightClient::connect(
        addr,
        "silent",
        "provlight/test/silent",
        CaptureConfig::default(),
    )
    .expect("no answer is no local error");
    assert!(started.elapsed() < Duration::from_secs(1));
    assert_eq!(os_threads() - idle, 1, "the transmitter thread");
    gateway
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut buf = [0u8; 512];
    let len = gateway.recv(&mut buf).expect("the CONNECT");
    match Packet::decode(&buf[..len]) {
        Ok(Packet::Connect {
            clean_session,
            client_id,
            ..
        }) => {
            assert!(clean_session);
            assert_eq!(client_id, "silent");
        }
        other => panic!("expected a CONNECT, got {other:?}"),
    }
    assert!(gateway.recv(&mut buf).is_err(), "a second datagram");
    assert!(!client.stats().connected);
    drop(client);
    assert!(settles_at(idle), "drop joins the transmitter thread");
}
