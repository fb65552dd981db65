//! Federated Learning provenance capture — the paper's motivating use
//! case (§II-B2): several edge clients train locally while a cloud-side
//! store tracks every epoch, then the §I queries are answered:
//!
//! * "retrieve the hyperparameters which obtained the 3 best accuracy
//!   values" — `top_k_by_attr` + `upstream_inputs`;
//! * "elapsed time and training loss per epoch" — `attr_timeseries`.
//!
//! ```text
//! cargo run --example federated_learning
//! ```

use provlight::continuum::deployment::ProvenanceManager;
use provlight::core::client::ProvLightClient;
use provlight::core::config::{CaptureConfig, GroupPolicy};
use provlight::prov_model::{DataRecord, Id};
use provlight::prov_store::query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const DEVICES: usize = 3;
const EPOCHS: usize = 5;

fn train_device(device: usize, broker: std::net::SocketAddr) {
    // Group finished epochs, but report epoch starts immediately so the
    // cloud can track running training in real time (paper §IV-C).
    let config = CaptureConfig {
        group: GroupPolicy::EndedOnly { size: 4 },
        ..CaptureConfig::default()
    };

    let client = ProvLightClient::connect(
        broker,
        &format!("fl-client-{device}"),
        &format!("provlight/fl/device{device}"),
        config,
    )
    .expect("connect");

    let mut rng = StdRng::seed_from_u64(device as u64);
    let session = client.session();
    let workflow = session.workflow(device as u64 + 1);
    workflow.begin().unwrap();

    let learning_rate = 0.1 / (device + 1) as f64;
    let mut accuracy = 0.5 + rng.gen::<f64>() * 0.05;
    let mut loss = 2.0;
    let mut prev: Vec<Id> = Vec::new();
    for epoch in 0..EPOCHS {
        let mut task = workflow.task(format!("epoch{epoch}"), "train", &prev);
        let hp = DataRecord::new("hp", device as u64 + 1)
            .with_attr("learning_rate", learning_rate)
            .with_attr("batch_size", 32i64)
            .with_attr("device", device as i64);
        task.begin(vec![hp]).unwrap();

        // Local training step (simulated).
        std::thread::sleep(Duration::from_millis(15));
        accuracy = (accuracy + rng.gen::<f64>() * 0.1).min(0.99);
        loss *= 0.8;

        let metrics = DataRecord::new(format!("metrics{epoch}"), device as u64 + 1)
            .with_attr("epoch", epoch as i64)
            .with_attr("accuracy", accuracy)
            .with_attr("loss", loss)
            .derived_from("hp");
        task.end(vec![metrics]).unwrap();
        prev = vec![Id::from(format!("epoch{epoch}"))];
    }
    workflow.end().unwrap();
    client.flush().unwrap();
    client.shutdown();
}

fn main() {
    let manager = ProvenanceManager::start("127.0.0.1:0").expect("start manager");
    let broker = manager.broker_addr();
    println!("FL aggregation server with provenance at {broker}");

    // The FL round: every device trains in parallel (its own topic).
    let handles: Vec<_> = (0..DEVICES)
        .map(|device| std::thread::spawn(move || train_device(device, broker)))
        .collect();
    for h in handles {
        h.join().expect("device thread");
    }

    // Wait for the translator to drain: per device 2 + EPOCHS*2 records.
    let expected = (DEVICES * (2 + EPOCHS * 2)) as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(15);
    while manager.store().stats().records < expected {
        assert!(
            std::time::Instant::now() < deadline,
            "expected {expected} records, got {}",
            manager.store().stats().records
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    for device in 0..DEVICES {
        let wf = Id::Num(device as u64 + 1);
        let store = manager.store().read(&wf);
        let query = Query::new(&store);
        let best = query.top_k_by_attr(&wf, "accuracy", 3, true).unwrap();
        println!("\ndevice {device}: 3 best accuracy values:");
        for (data, acc) in &best {
            let hp = query.upstream_inputs(&wf, data).unwrap();
            let lr = hp
                .first()
                .and_then(|(_, attrs)| {
                    attrs
                        .iter()
                        .find(|(n, _)| n.as_ref() == "learning_rate")
                        .and_then(|(_, v)| v.as_float())
                })
                .unwrap_or(f64::NAN);
            println!("  {data}: accuracy={acc:.3} (learning_rate={lr:.4})");
        }
        let losses = query.attr_timeseries(&wf, "loss").unwrap();
        assert_eq!(losses.len(), EPOCHS);
        assert!(
            losses.windows(2).all(|w| w[0].1 >= w[1].1),
            "loss must decay"
        );
        println!(
            "  loss per epoch: {:?}",
            losses
                .iter()
                .map(|(_, l)| (l * 1000.0).round() / 1000.0)
                .collect::<Vec<_>>()
        );
    }

    manager.shutdown();
    println!("\nfederated_learning OK");
}
