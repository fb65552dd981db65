//! End-to-end integration over real UDP sockets: multiple edge devices
//! capture concurrently through the MQTT-SN broker into the shared
//! provenance store — the paper's Fig. 5 deployment in miniature.

use provlight::continuum::deployment::ProvenanceManager;
use provlight::core::client::ProvLightClient;
use provlight::core::config::{CaptureConfig, GroupPolicy};
use provlight::prov_model::{DataRecord, Id, Record, TaskRecord, TaskStatus};
use provlight::prov_store::query::Query;
use std::time::Duration;

fn wait_for_records(manager: &ProvenanceManager, expected: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while manager.store().stats().records < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "expected {expected} records, got {}",
            manager.store().stats().records
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn run_device(device: u64, broker: std::net::SocketAddr, config: CaptureConfig, tasks: u64) {
    let client = ProvLightClient::connect(
        broker,
        &format!("device-{device}"),
        &format!("provlight/test/device{device}"),
        config,
    )
    .expect("connect");
    let session = client.session();
    let wf = session.workflow(device);
    wf.begin().unwrap();
    let mut prev: Vec<Id> = Vec::new();
    for t in 0..tasks {
        let mut task = wf.task(t, "work", &prev);
        task.begin(vec![
            DataRecord::new(format!("in{t}"), device).with_attr("param", t as i64)
        ])
        .unwrap();
        task.end(vec![DataRecord::new(format!("out{t}"), device)
            .with_attr("result", t as f64 * 1.5)
            .derived_from(format!("in{t}"))])
            .unwrap();
        prev = vec![Id::Num(t)];
    }
    wf.end().unwrap();
    client.flush().unwrap();
    client.shutdown();
}

#[test]
fn four_devices_capture_in_parallel() {
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    let broker = manager.broker_addr();
    let devices = 4u64;
    let tasks = 5u64;

    let handles: Vec<_> = (1..=devices)
        .map(|d| std::thread::spawn(move || run_device(d, broker, CaptureConfig::default(), tasks)))
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let expected = devices * (2 + tasks * 2);
    wait_for_records(&manager, expected);

    assert_eq!(manager.store().workflow_ids().len(), devices as usize);
    for d in 1..=devices {
        let store = manager.store().read(&Id::Num(d));
        let q = Query::new(&store);
        let metrics = q.task_metrics(&Id::Num(d)).unwrap();
        assert_eq!(metrics.len(), tasks as usize);
        assert!(metrics.iter().all(|m| m.finished));
        // Derivation chain intact for every task.
        let (_, row) = store.data_by_id(&Id::Num(d), &Id::from("out3")).unwrap();
        assert_eq!(row.derivations, vec![Id::from("in3")]);
    }

    // Exactly-once across the broker: every record ingested exactly once.
    assert_eq!(manager.store().stats().records, expected);
    // The transmitter coalesces queued records into shared envelopes, so the
    // broker sees far fewer publishes than records — at least one per
    // device, never more than one per record.
    let stats = manager.broker_stats();
    assert!(
        (devices..=expected).contains(&stats.publishes_in),
        "publishes_in = {} outside [{devices}, {expected}]",
        stats.publishes_in
    );
    // Ingestion-side observability: nothing failed to decode, and the
    // translator handled exactly the broker's delivered publishes.
    let server = manager.server_stats();
    assert_eq!(server.decode_errors, 0);
    assert_eq!(server.messages_total, stats.publishes_in);
    // Publishers never subscribe, so nothing can be parked for delivery.
    assert_eq!(server.broker_backlog, 0);
    manager.shutdown();
}

/// The structural guard that the server does not talk to itself: the
/// translator takes publishes from the gateway in-process, so the only
/// MQTT-SN sessions the broker ever holds are the devices'.
#[test]
fn only_devices_hold_broker_sessions() {
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    assert_eq!(manager.broker_sessions(), 0, "no loopback subscriber");
    let client = ProvLightClient::connect(
        manager.broker_addr(),
        "device-s",
        "provlight/test/device-s",
        CaptureConfig::default(),
    )
    .expect("connect");
    let wf = client.session().workflow(77u64);
    wf.begin().unwrap();
    wf.end().unwrap();
    // `connect` waits on no round trip; a flush that returned was
    // acknowledged, so the gateway holds the device's session by now.
    client.flush().unwrap();
    assert_eq!(manager.broker_sessions(), 1, "the device, and only it");
    client.shutdown();
    // The flush returned once the gateway had acknowledged; shutdown lets
    // the translator finish what was acknowledged, so nothing to wait for.
    let store = manager.store().clone();
    let broker = manager.broker_stats();
    manager.shutdown();
    assert_eq!(store.stats().records, 2);
    assert_eq!(broker.publishes_out, broker.publishes_in);
    assert_eq!(broker.retransmissions, 0);
}

#[test]
fn grouping_policies_deliver_identical_content() {
    for (name, group) in [
        ("immediate", GroupPolicy::Immediate),
        ("grouped", GroupPolicy::Grouped { size: 5 }),
        ("ended-only", GroupPolicy::EndedOnly { size: 3 }),
    ] {
        let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
        let config = CaptureConfig {
            group,
            ..CaptureConfig::default()
        };
        run_device(1, manager.broker_addr(), config, 4);
        wait_for_records(&manager, 10);
        let stats = manager.store().stats();
        assert_eq!(stats.tasks, 4, "policy {name}");
        assert_eq!(stats.data, 8, "policy {name}");
        manager.shutdown();
    }
}

/// A device publishes at QoS 2 only, but the gateway takes an envelope
/// from any MQTT-SN publisher at every QoS level, and each is stored.
#[test]
fn qos_levels_all_deliver() {
    use provlight::mqtt_sn::net::UdpClient;
    use provlight::mqtt_sn::{ClientConfig, QoS};
    use provlight::prov_codec::frame::Envelope;
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    let timeout = Duration::from_secs(5);
    let config = ClientConfig::new("any-qos");
    let mut publisher = UdpClient::connect(manager.broker_addr(), config, timeout).unwrap();
    let topic_id = publisher
        .register("provlight/test/any-qos", timeout)
        .unwrap();
    let levels = [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce];
    for (t, qos) in (0u64..).zip(levels) {
        let task = TaskRecord {
            id: Id::Num(t),
            workflow: Id::Num(9),
            transformation: Id::from("work"),
            dependencies: vec![],
            time_ns: t,
            status: TaskStatus::Finished,
        };
        let outputs = vec![DataRecord::new(format!("out{t}"), 9u64)];
        let payload = Envelope::encode(&[Record::TaskEnd { task, outputs }], true);
        publisher.publish(topic_id, payload, qos, timeout).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while manager.store().stats().tasks < 3 {
        assert!(std::time::Instant::now() < deadline, "a level was lost");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(manager.store().stats().tasks, 3);
    manager.shutdown();
}

/// Records shaped as `run_device(device, _, _, tasks)` captures them.
fn device_records(device: u64, tasks: u64) -> Vec<Record> {
    let wf = Id::Num(device);
    let task = |t: u64, time_ns: u64, status: TaskStatus| TaskRecord {
        id: Id::Num(t),
        workflow: wf.clone(),
        transformation: Id::from("work"),
        dependencies: t.checked_sub(1).map(Id::Num).into_iter().collect(),
        time_ns,
        status,
    };
    let mut records = vec![Record::WorkflowBegin {
        workflow: wf.clone(),
        time_ns: 0,
    }];
    for t in 0..tasks {
        records.push(Record::TaskBegin {
            task: task(t, 2 * t + 1, TaskStatus::Running),
            inputs: vec![DataRecord::new(format!("in{t}"), device).with_attr("param", t as i64)],
        });
        records.push(Record::TaskEnd {
            task: task(t, 2 * t + 2, TaskStatus::Finished),
            outputs: vec![DataRecord::new(format!("out{t}"), device)
                .with_attr("result", t as f64 * 1.5)
                .derived_from(format!("in{t}"))],
        });
    }
    records.push(Record::WorkflowEnd {
        workflow: wf.clone(),
        time_ns: 2 * tasks + 1,
    });
    records
}

#[test]
fn uncompressed_envelopes_also_flow() {
    // The translator takes an envelope that advertises no compression: the
    // codec writes one whenever LZSS would not shrink the records.
    use provlight::mqtt_sn::net::UdpClient;
    use provlight::mqtt_sn::{ClientConfig, QoS};
    use provlight::prov_codec::frame::Envelope;
    let timeout = Duration::from_secs(10);
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    let config = ClientConfig::new("uncompressed");
    let mut peer = UdpClient::connect(manager.broker_addr(), config, timeout).unwrap();
    let topic = peer
        .register("provlight/test/uncompressed", timeout)
        .unwrap();
    let payload = Envelope::encode(&device_records(2, 2), false);
    peer.publish(topic, payload, QoS::ExactlyOnce, timeout)
        .unwrap();
    wait_for_records(&manager, 6);
    let stats = manager.store().stats();
    assert_eq!((stats.tasks, stats.data), (2, 4));
    assert_eq!(stats.attr_cells, 4);
    assert_eq!(manager.server_stats().decode_errors, 0);
    {
        let wf = Id::Num(2);
        let store = manager.store().read(&wf);
        let metrics = Query::new(&store).task_metrics(&wf).unwrap();
        assert!(metrics.len() == 2 && metrics.iter().all(|m| m.finished));
        // One attribute per data row, by name and value.
        let attr = |id: String| {
            let (_, row) = store.data_by_id(&wf, &id.into()).unwrap();
            assert_eq!(row.attributes.len(), 1);
            let (key, value) = row.attributes.iter().next().unwrap();
            (key.to_string(), value.as_float())
        };
        for t in 0..2u64 {
            let param = ("param".to_owned(), Some(t as f64));
            assert_eq!(attr(format!("in{t}")), param);
            let result = ("result".to_owned(), Some(t as f64 * 1.5));
            assert_eq!(attr(format!("out{t}")), result);
            let (_, out) = store.data_by_id(&wf, &format!("out{t}").into()).unwrap();
            assert_eq!(out.derivations, vec![Id::from(format!("in{t}"))]);
        }
    }
    manager.shutdown();
}

/// Every kind of attribute value the capture API can express reaches the
/// store through the real gateway. A `Bool` (wire tag 1) used to type as a
/// number and read as none: the translator thread panicked under the
/// store's write lock, after the gateway had acknowledged the message.
#[test]
fn every_kind_of_attribute_value_is_stored_and_the_server_goes_on() {
    use provlight::prov_model::AttrValue;
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();
    let values = [
        ("flag", AttrValue::Bool(true)),
        ("gap", AttrValue::Null),
        (
            "shape",
            AttrValue::List(vec![AttrValue::Int(3), AttrValue::from("x")]),
        ),
        ("digest", AttrValue::Bytes(vec![0xde, 0xad, 0xbe, 0xef])),
    ];
    let client = ProvLightClient::connect(
        manager.broker_addr(),
        "device-k",
        "provlight/test/device-k",
        CaptureConfig::default(),
    )
    .expect("connect");
    let wf = client.session().workflow(5u64);
    let mut task = wf.task(0u64, "work", &[]);
    let inputs = values
        .iter()
        .map(|(name, value)| DataRecord::new(*name, 5u64).with_attr(*name, value.clone()));
    task.begin(inputs.collect()).unwrap();
    task.end(Vec::new()).unwrap();
    client.flush().unwrap();
    client.shutdown();
    wait_for_records(&manager, 2);
    {
        let wf = Id::Num(5);
        let store = manager.store().read(&wf);
        for (name, value) in &values {
            let (_, row) = store.data_by_id(&wf, &Id::from(*name)).expect("row stored");
            assert_eq!(row.attributes.get(name).as_ref(), Some(value), "{name}");
        }
        // The flag is a number to a scan, as it is to a filter.
        let flags = Query::new(&store).attr_stats(&wf, "flag").unwrap();
        assert_eq!((flags.count, flags.min, flags.max), (1, 1.0, 1.0));
    }
    assert_eq!(manager.store().stats().attr_cells, 4);
    // The translator is alive: another device's records arrive.
    run_device(6, manager.broker_addr(), CaptureConfig::default(), 2);
    wait_for_records(&manager, 8);
    assert_eq!(manager.server_stats().decode_errors, 0);
    manager.shutdown();
}

/// Any peer that connects and registers a topic reaches the translator's
/// decoder. A datagram of `[` bytes is acknowledged, counted as the one
/// decode error it is, and the server goes on serving — it used to be a
/// stack overflow on the translator thread, which aborts the process.
#[test]
fn hostile_json_nesting_costs_one_decode_error() {
    use provlight::mqtt_sn::net::UdpClient;
    use provlight::mqtt_sn::{ClientConfig, QoS};
    let timeout = Duration::from_secs(10);
    let manager = ProvenanceManager::start("127.0.0.1:0").unwrap();

    let config = ClientConfig::new("hostile");
    let mut peer = UdpClient::connect(manager.broker_addr(), config, timeout).unwrap();
    let topic = peer.register("provlight/test/hostile", timeout).unwrap();
    peer.publish(topic, vec![b'['; 60_000], QoS::ExactlyOnce, timeout)
        .unwrap();
    let deadline = std::time::Instant::now() + timeout;
    while manager.server_stats().decode_errors == 0 {
        assert!(std::time::Instant::now() < deadline, "payload never seen");
        std::thread::sleep(Duration::from_millis(10));
    }

    run_device(3, manager.broker_addr(), CaptureConfig::default(), 2);
    wait_for_records(&manager, 6);
    assert_eq!(manager.server_stats().decode_errors, 1);
    assert_eq!(manager.broker_stats().decode_errors, 0);
    manager.shutdown();
}
