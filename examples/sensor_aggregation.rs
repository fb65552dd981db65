//! Sensor data aggregation — the second workload class the paper's
//! Table I discussion names. Many constrained sensor nodes capture the
//! provenance of window-aggregation tasks over a **25 Kbit-class** uplink;
//! the cloud reconstructs the full derivation chain of every published
//! aggregate and exports it as a W3C PROV document.
//!
//! ```text
//! cargo run --example sensor_aggregation
//! ```

use provlight::continuum::deployment::ProvenanceManager;
use provlight::core::client::ProvLightClient;
use provlight::core::config::{CaptureConfig, GroupPolicy};
use provlight::prov_model::{DataRecord, Id};
use provlight::prov_store::query::{LineageDirection, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const SENSORS: usize = 4;
const WINDOWS: usize = 6;

fn sensor_node(sensor: usize, broker: std::net::SocketAddr) {
    // Constrained node: group aggressively and compress — every byte on
    // the radio costs energy.
    let config = CaptureConfig {
        group: GroupPolicy::Grouped { size: 6 },
        compression: true,
        ..CaptureConfig::default()
    };

    let client = ProvLightClient::connect(
        broker,
        &format!("sensor-{sensor}"),
        &format!("provlight/sensors/node{sensor}"),
        config,
    )
    .expect("connect");

    let mut rng = StdRng::seed_from_u64(sensor as u64 * 77);
    let session = client.session();
    let workflow = session.workflow(format!("sensor{sensor}"));
    workflow.begin().unwrap();

    let wf_id = Id::from(format!("sensor{sensor}"));
    let mut prev: Vec<Id> = Vec::new();
    for window in 0..WINDOWS {
        let mut task = workflow.task(format!("window{window}"), "aggregate", &prev);
        let samples: Vec<f64> = (0..16).map(|_| 20.0 + rng.gen::<f64>() * 5.0).collect();
        let raw = DataRecord::new(format!("raw{window}"), wf_id.clone())
            .with_attr("samples", samples.len() as i64)
            .with_attr("window_s", 60i64);
        task.begin(vec![raw]).unwrap();

        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        std::thread::sleep(Duration::from_millis(5));

        let aggregate = DataRecord::new(format!("agg{window}"), wf_id.clone())
            .with_attr("mean_temp", mean)
            .with_attr("max_temp", max)
            .derived_from(format!("raw{window}"))
            // Rolling aggregate also derives from the previous window.
            .derived_from(if window > 0 {
                format!("agg{}", window - 1)
            } else {
                format!("raw{window}")
            });
        task.end(vec![aggregate]).unwrap();
        prev = vec![Id::from(format!("window{window}"))];
    }
    workflow.end().unwrap();
    client.flush().unwrap();
    client.shutdown();
}

fn main() {
    let manager = ProvenanceManager::start("127.0.0.1:0").expect("start manager");
    let broker = manager.broker_addr();
    println!("aggregation gateway with provenance at {broker}");

    let handles: Vec<_> = (0..SENSORS)
        .map(|s| std::thread::spawn(move || sensor_node(s, broker)))
        .collect();
    for h in handles {
        h.join().expect("sensor thread");
    }

    let expected = (SENSORS * (2 + WINDOWS * 2)) as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while manager.store().stats().records < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "expected {expected} records, got {}",
            manager.store().stats().records
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let wf = Id::from("sensor0");
    let store = manager.store().read(&wf);
    let query = Query::new(&store);
    // Trace the lineage of the final aggregate of sensor 0 all the way
    // back: it must reach every earlier window.
    let last = Id::from(format!("agg{}", WINDOWS - 1));
    let upstream = query
        .lineage(&wf, &last, LineageDirection::Upstream, 32)
        .expect("lineage");
    println!(
        "lineage of {last}: {} upstream items: {:?}",
        upstream.len(),
        upstream.iter().map(Id::to_string).collect::<Vec<_>>()
    );
    assert!(upstream.len() >= WINDOWS, "rolling chain must be complete");
    drop(store);

    // Export everything as W3C PROV-N for downstream
    // interoperability.
    let doc = manager.store().to_prov_document();
    doc.validate().expect("valid PROV document");
    let prov_n = doc.to_prov_n();
    println!(
        "\nPROV-N export: {} elements, {} relations, {} bytes",
        doc.element_count(),
        doc.relations().len(),
        prov_n.len()
    );
    println!("{}", prov_n.lines().take(8).collect::<Vec<_>>().join("\n"));

    manager.shutdown();
    println!("\nsensor_aggregation OK");
}
