//! `provlight-capture` — drive a synthetic Table I workload against a
//! running `provlight-server`, from a real device process.
//!
//! ```text
//! provlight-capture --broker 127.0.0.1:1883 [--tasks N] [--attrs N]
//!                   [--task-ms MS] [--group N] [--device NAME]
//! ```
//!
//! Prints per-run capture statistics (records, messages, elapsed) on
//! completion. Useful for demos and for smoke-testing a deployment.

use provlight::core::client::ProvLightClient;
use provlight::core::config::{CaptureConfig, GroupPolicy};
use provlight::prov_model::{DataRecord, Id};
use std::time::{Duration, Instant};

struct Args {
    broker: String,
    tasks: u64,
    attrs: usize,
    task_ms: u64,
    group: usize,
    device: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        broker: "127.0.0.1:1883".to_owned(),
        tasks: 20,
        attrs: 10,
        task_ms: 50,
        group: 0,
        device: "cli-device".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--broker" => args.broker = take("--broker")?,
            "--tasks" => args.tasks = take("--tasks")?.parse().map_err(|_| "bad --tasks")?,
            "--attrs" => args.attrs = take("--attrs")?.parse().map_err(|_| "bad --attrs")?,
            "--task-ms" => {
                args.task_ms = take("--task-ms")?.parse().map_err(|_| "bad --task-ms")?
            }
            "--group" => args.group = take("--group")?.parse().map_err(|_| "bad --group")?,
            "--device" => args.device = take("--device")?,
            "--help" | "-h" => {
                println!(
                    "usage: provlight-capture --broker ADDR [--tasks N] [--attrs N] \
                     [--task-ms MS] [--group N] [--device NAME]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let broker = match args.broker.parse() {
        Ok(a) => a,
        Err(_) => {
            eprintln!("bad broker address {}", args.broker);
            std::process::exit(2);
        }
    };

    let config = CaptureConfig {
        group: GroupPolicy::from_group_count(args.group),
        ..CaptureConfig::default()
    };
    let client = match ProvLightClient::connect(
        broker,
        &args.device,
        &format!("provlight/cli/{}", args.device),
        config,
    ) {
        Ok(c) => c,
        Err(e) => {
            // Only a local error ends up here; an absent broker is
            // reported when the workflow ends.
            eprintln!("cannot start capture to broker at {}: {e}", args.broker);
            std::process::exit(1);
        }
    };
    println!(
        "capturing {} tasks × {} attrs ({} ms each, group {}) as '{}'",
        args.tasks, args.attrs, args.task_ms, args.group, args.device
    );

    let started = Instant::now();
    let session = client.session();
    let workflow = session.workflow(args.device.as_str());
    workflow.begin().expect("workflow.begin");
    let mut prev: Vec<Id> = Vec::new();
    for t in 0..args.tasks {
        let mut task = workflow.task(t, "synthetic", &prev);
        let mut input = DataRecord::new(format!("in{t}"), args.device.as_str());
        for a in 0..args.attrs {
            input = input.with_attr(format!("attr{a}"), (t * 31 + a as u64) as i64);
        }
        task.begin(vec![input]).expect("task.begin");
        std::thread::sleep(Duration::from_millis(args.task_ms));
        task.end(vec![DataRecord::new(
            format!("out{t}"),
            args.device.as_str(),
        )
        .derived_from(format!("in{t}"))])
            .expect("task.end");
        prev = vec![Id::Num(t)];
    }
    // The workflow's end flushes: an absent broker is reported here.
    if let Err(e) = workflow.end().and_then(|()| client.flush()) {
        eprintln!("broker at {} unreachable: {e}", args.broker);
        std::process::exit(1);
    }
    let elapsed = started.elapsed();

    let baseline = Duration::from_millis(args.task_ms) * args.tasks as u32;
    let overhead =
        (elapsed.as_secs_f64() - baseline.as_secs_f64()) / baseline.as_secs_f64() * 100.0;
    println!(
        "done: {} records in {:.3}s (compute baseline {:.3}s, capture overhead {:.2}%)",
        2 + args.tasks * 2,
        elapsed.as_secs_f64(),
        baseline.as_secs_f64(),
        overhead
    );
    client.shutdown();
}
