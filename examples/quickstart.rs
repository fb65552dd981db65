//! Quickstart: capture the provenance of a small workflow end-to-end over
//! real UDP sockets, then query it.
//!
//! This is the paper's Listing 1 instrumentation against a local
//! ProvLight server (MQTT-SN broker + translator + DfAnalyzer-style
//! store):
//!
//! ```text
//! cargo run --example quickstart
//! ```

use provlight::continuum::deployment::ProvenanceManager;
use provlight::core::client::ProvLightClient;
use provlight::core::config::CaptureConfig;
use provlight::prov_model::{DataRecord, Id};
use provlight::prov_store::query::Query;
use std::time::Duration;

fn main() {
    // 1. Server side: broker + translator + store (the paper's Fig. 3).
    let manager = ProvenanceManager::start("127.0.0.1:0").expect("start provenance manager");
    println!("provenance manager listening on {}", manager.broker_addr());

    // 2. Client side: connect the capture library (QoS 2 by default; every
    //    message is a binary envelope, compressed when that shrinks it).
    let client = ProvLightClient::connect(
        manager.broker_addr(),
        "quickstart-device",
        "provlight/wf1/quickstart-device",
        CaptureConfig::default(),
    )
    .expect("connect capture client");

    // 3. Instrument the workflow, exactly as the paper's Listing 1.
    let session = client.session();
    let workflow = session.workflow(1u64);
    workflow.begin().expect("capture workflow begin");

    let mut previous: Vec<Id> = Vec::new();
    for step in 0..3u64 {
        let mut task = workflow.task(step, "transform", &previous);
        let input = DataRecord::new(format!("in{step}"), 1u64)
            .with_attr("threshold", 0.5 + step as f64 / 10.0);
        task.begin(vec![input]).expect("capture task begin");

        // #### YOUR TASK RUNS HERE ####
        std::thread::sleep(Duration::from_millis(20));

        let output = DataRecord::new(format!("out{step}"), 1u64)
            .with_attr("score", 0.8 + step as f64 / 20.0)
            .derived_from(format!("in{step}"));
        task.end(vec![output]).expect("capture task end");
        previous = vec![Id::Num(step)];
    }
    workflow.end().expect("capture workflow end");
    client.flush().expect("flush capture pipeline");

    // 4. Wait for the translator to drain, then query like the paper's §I.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while manager.store().stats().records < 8 {
        assert!(
            std::time::Instant::now() < deadline,
            "records did not arrive"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let store = manager.store().read(&Id::Num(1));
    let query = Query::new(&store);
    let best = query
        .top_k_by_attr(&Id::Num(1), "score", 1, true)
        .expect("query best score");
    println!("best score: {} = {:.2}", best[0].0, best[0].1);
    let metrics = query.task_metrics(&Id::Num(1)).expect("task metrics");
    for m in &metrics {
        println!(
            "task {}: transformation={} elapsed={:?} finished={}",
            m.task, m.transformation, m.elapsed_s, m.finished
        );
    }
    assert_eq!(metrics.len(), 3);
    assert!(metrics.iter().all(|m| m.finished));
    drop(store);

    println!("broker stats: {:?}", manager.broker_stats());
    client.shutdown();
    manager.shutdown();
    println!("quickstart OK");
}
