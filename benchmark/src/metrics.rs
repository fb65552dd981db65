//! The metrics: their names, units, directions and regression bounds, and
//! how the live ones are computed from what a run measured.
//!
//! The tables here are the benchmark's own record of what it reports;
//! `BENCHMARK.json` at the repository root declares the same lists to the
//! driver, and a unit test keeps the two identical.

use crate::live::{LiveRun, Snapshot, SLICES};
use crate::procfs::{self, Sched};
use crate::stats::{mean, median, percentile, slice_median, slice_tail};
use crate::workload::Inputs;
use provlight::core::TransmitterStats;
use std::collections::BTreeMap;
use std::time::Duration;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound, as a share of the parent's median.
    pub bound: f64,
}

/// A metric of a single layer; diagnostic, so it carries no bound.
pub struct PerLayer {
    /// Metric name, prefixed with the layer (module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every untraced run, on every workload. Only metrics that
/// hold still on a shared two-vCPU host are bounded here: memory and the
/// bytes and datagrams each record costs on the wire. Every wall-clock and
/// CPU-time candidate moved by a quarter or more between runs of one commit
/// and leads [`PER_LAYER`] instead (see `README.md`).
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.15),
    e2e("wire_bytes_per_record", "B", Lower, 0.10),
    e2e("datagrams_per_record", "ratio", Lower, 0.15),
];

/// Reported by every traced run, on every workload.
pub const PER_LAYER: &[PerLayer] = &[
    // Candidate end-to-end metrics demoted for run-to-run spread.
    layer("capture_us_p50", "us", Lower),
    layer("capture_us_per_task", "us", Lower),
    layer("capture_us_tail", "us", Lower),
    layer("visible_ms_p50", "ms", Lower),
    layer("visible_ms_tail", "ms", Lower),
    layer("records_per_cpu_s", "1/s", Higher),
    layer("query_ms_p50", "ms", Lower),
    layer("wakeups_per_record", "ratio", Lower),
    layer("failed_share", "share", Lower),
    // Live run: threads seen from outside.
    layer("transmitter.cpu_us_per_record", "us", Lower),
    layer("transmitter.wait_us_per_record", "us", Lower),
    layer("gateway.cpu_us_per_publish", "us", Lower),
    layer("gateway.wait_us_per_publish", "us", Lower),
    layer("translator.cpu_us_per_record", "us", Lower),
    layer("translator.wait_us_per_record", "us", Lower),
    layer("generator.cpu_us_per_task", "us", Lower),
    layer("generator.late_ms_p99", "ms", Lower),
    layer("observer.cpu_share", "share", Lower),
    layer("observer.poll_gap_us_p99", "us", Lower),
    layer("process.sys_share", "share", Lower),
    // Live run: counts from the public stats structs.
    layer("broker.publishes_per_record", "ratio", Lower),
    layer("broker.duplicates_suppressed", "count", Lower),
    layer("broker.retransmissions", "count", Lower),
    layer("broker.drops", "count", Lower),
    layer("broker.congestion_rejects", "count", Lower),
    layer("broker.backlog_high_water", "count", Lower),
    layer("broker.decode_errors", "count", Lower),
    layer("broker.io_errors", "count", Lower),
    layer("transmitter.publish_failures", "count", Lower),
    layer("transmitter.records_dropped", "count", Lower),
    layer("transmitter.paced_sends", "count", Lower),
    layer("transmitter.congestion_signals", "count", Lower),
    layer("transmitter.buffered_high_water", "count", Lower),
    layer("transmitter.flush_ms", "ms", Lower),
    layer("udp.kernel_drops", "count", Lower),
    layer("udp.rx_queue_peak_kb", "kB", Lower),
    layer("server.decode_errors", "count", Lower),
    layer("server.records_per_message", "ratio", Higher),
    layer("store.attr_cells", "count", Higher),
    layer("store.lineage_edges", "count", Higher),
    layer("store.rss_bytes_per_record", "B", Lower),
    layer("visible.stall_events", "count", Lower),
    layer("query.live_page_us_p50", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    // Staged replay: each layer's public functions, one thread.
    layer("api.us_per_task", "us", Lower),
    layer("grouping.ns_per_record", "ns", Lower),
    layer("codec.encode_us_per_record", "us", Lower),
    layer("codec.compress_us_per_record", "us", Lower),
    layer("codec.envelope_bytes_per_record", "B", Lower),
    layer("codec.compress_ratio", "ratio", Higher),
    layer("mqtt_client.us_per_publish", "us", Lower),
    layer("mqtt_broker.us_per_publish", "us", Lower),
    layer("mqtt_subscriber.us_per_publish", "us", Lower),
    layer("codec.decompress_us_per_record", "us", Lower),
    layer("codec.decode_us_per_record", "us", Lower),
    layer("translator.us_per_record", "us", Lower),
    layer("store.ingest_us_per_record", "us", Lower),
    layer("query.page_us_p50", "us", Lower),
    layer("query.rows_per_ms", "1/ms", Higher),
    layer("query.closure_ms_quiescent", "ms", Lower),
    // Budget: staged layers against live CPU.
    layer("budget.staged_cpu_us_per_record", "us", Lower),
    layer("budget.live_cpu_us_per_record", "us", Lower),
    layer("budget.unattributed_share", "share", Lower),
];

/// The unit and direction of metric `name`, from either table.
pub fn describe(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find_map(|(n, unit, better)| (n == name).then_some((unit, better.as_str())))
        .unwrap_or(("", ""))
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The value, as measured.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: u64,
    /// Which percentile a `_tail` metric was read at, e.g. `p99`.
    pub note: String,
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, Value>;

/// Records `name = value` over `samples` samples and returns the entry.
pub fn put<'a>(
    values: &'a mut Values,
    name: &'static str,
    value: f64,
    samples: u64,
) -> &'a mut Value {
    let entry = values.entry(name).or_insert_with(|| Value {
        value,
        samples,
        note: String::new(),
    });
    (entry.value, entry.samples) = (value, samples);
    entry
}

fn run_ns(threads: &[Sched]) -> f64 {
    threads.iter().map(|s| s.run_ns as f64).sum()
}

fn wait_ns(threads: &[Sched]) -> f64 {
    threads.iter().map(|s| s.wait_ns as f64).sum()
}

/// What changed between two snapshots, thread by thread.
fn delta(from: &Snapshot, to: &Snapshot) -> Snapshot {
    let mut d = to.clone();
    for (thread, earlier) in d.pipeline.iter_mut().zip(&from.pipeline) {
        *thread = thread.since(*earlier);
    }
    d.observer = to.observer.since(from.observer);
    d.store.records = to.store.records - from.store.records;
    d.broker.publishes_in = to.broker.publishes_in - from.broker.publishes_in;
    d.messages = to.messages - from.messages;
    d.ticks = (to.ticks.0 - from.ticks.0, to.ticks.1 - from.ticks.1);
    d.wakeups = to.wakeups - from.wakeups;
    d.loopback = (
        to.loopback.0 - from.loopback.0,
        to.loopback.1 - from.loopback.1,
    );
    d
}

/// Every metric the live run yields, end-to-end and per-layer alike, plus
/// the tasks attempted and failed. `setup_s` is the caller's to add.
pub fn of_live_run(
    inputs: &Inputs,
    measured: Duration,
    traced: bool,
    run: &mut LiveRun,
) -> (Values, u64, u64) {
    let mut v = Values::new();
    let generated = &mut run.generated;
    let observed = &mut run.observed;
    let tasks = generated.measured_tasks;
    let markers = observed.markers;
    let queries: u64 = observed.query_ms.iter().map(|s| s.len() as u64).sum();

    // End to end (and the candidates demoted from it).
    for (name, (p, value), samples) in [
        (
            "capture_us_tail",
            slice_tail(&mut generated.from_due_us),
            tasks,
        ),
        (
            "visible_ms_tail",
            slice_tail(&mut observed.visible_ms),
            markers,
        ),
    ] {
        put(&mut v, name, value, samples).note = format!("p{p}");
    }
    let capture_p50 = slice_median(&mut generated.inside_us, median);
    let capture_mean = slice_median(&mut generated.inside_us, mean);
    let visible_p50 = slice_median(&mut observed.visible_ms, median);
    // A workload without a query leg has no value for the query metrics.
    let if_queried = |value: f64| if queries > 0 { value } else { f64::NAN };
    let query_p50 = if_queried(slice_median(&mut observed.query_ms, median));

    let slices: Vec<Snapshot> = observed
        .snapshots
        .windows(2)
        .map(|w| delta(&w[0], &w[1]))
        .collect();
    let window = delta(&observed.snapshots[0], &observed.snapshots[SLICES]);
    let records = window.store.records;
    let per = |count: f64, of: u64| count / (of as f64).max(1.0);
    let cpu_us_per_record = |s: &Snapshot| per(run_ns(&s.pipeline) / 1e3, s.store.records);
    // Counts per record are taken slice by slice: the loopback interface is
    // shared with whatever else runs in the network namespace, and a burst
    // of foreign traffic then lands in one slice instead of in the result.
    let slice_median_of =
        |stat: &dyn Fn(&Snapshot) -> f64| median(&slices.iter().map(stat).collect::<Vec<_>>());
    let per_record =
        |count: fn(&Snapshot) -> u64| slice_median_of(&|s| per(count(s) as f64, s.store.records));

    let attempted = tasks.max(1);
    let failed = (observed.failed_markers * inputs.workload.tasks_per_marker()
        + generated.call_errors)
        .min(attempted);

    // Threads, over the whole measured window.
    let publishes = window.broker.publishes_in;
    let (gateway, translator, transmitters) = (
        &window.pipeline[..1],
        &window.pipeline[1..2],
        &window.pipeline[2..],
    );
    let (user, sys) = window.ticks;
    generated.late_ms.sort_by(f64::total_cmp);
    observed.poll_gap_us.sort_by(f64::total_cmp);
    let fullest = observed.snapshots.iter().map(|s| s.udp_rx_queue).max();
    let grown_kb = window.rss_kb.saturating_sub(observed.snapshots[0].rss_kb);
    let devices = generated.transport.len() as u64;
    let transport =
        |count: fn(&TransmitterStats) -> u64| generated.transport.iter().map(count).sum::<u64>();
    // Counts are as the public stats structs hold them when the run ends.
    let b = &run.broker;

    #[rustfmt::skip]
    let measured_values = [
        ("capture_us_p50", capture_p50, tasks),
        ("capture_us_per_task", capture_mean, tasks),
        ("visible_ms_p50", visible_p50, markers),
        ("query_ms_p50", query_p50, queries),
        ("rss_peak_mb", procfs::status_kb("VmHWM") as f64 / 1024.0, 1),
        ("records_per_cpu_s", slice_median_of(&|s| 1e6 / cpu_us_per_record(s)), records),
        ("wire_bytes_per_record", per_record(|s| s.loopback.0), records),
        ("datagrams_per_record", per_record(|s| s.loopback.1), records),
        ("wakeups_per_record", per_record(|s| s.wakeups), records),
        ("failed_share", per(failed as f64, attempted), attempted),
        ("transmitter.cpu_us_per_record", per(run_ns(transmitters) / 1e3, records), records),
        ("transmitter.wait_us_per_record", per(wait_ns(transmitters) / 1e3, records), records),
        ("gateway.cpu_us_per_publish", per(run_ns(gateway) / 1e3, publishes), publishes),
        ("gateway.wait_us_per_publish", per(wait_ns(gateway) / 1e3, publishes), publishes),
        ("translator.cpu_us_per_record", per(run_ns(translator) / 1e3, records), records),
        ("translator.wait_us_per_record", per(wait_ns(translator) / 1e3, records), records),
        ("generator.cpu_us_per_task", per(generated.cpu.run_ns as f64 / 1e3, tasks), tasks),
        ("generator.late_ms_p99", percentile(&generated.late_ms, 99.0), tasks),
        ("observer.cpu_share", window.observer.run_ns as f64 / measured.as_nanos() as f64, 1),
        ("observer.poll_gap_us_p99", percentile(&observed.poll_gap_us, 99.0), observed.poll_gap_us.len() as u64),
        ("process.sys_share", per(sys as f64, user + sys), user + sys),
        ("budget.live_cpu_us_per_record", cpu_us_per_record(&window), records),
        ("query.live_page_us_p50", if_queried(median(&observed.page_us)), observed.page_us.len() as u64),
        ("broker.publishes_per_record", per(publishes as f64, records), records),
        ("broker.duplicates_suppressed", b.duplicates_suppressed as f64, 1),
        ("broker.retransmissions", b.retransmissions as f64, 1),
        ("broker.drops", b.drops as f64, 1),
        ("broker.congestion_rejects", b.congestion_rejects as f64, 1),
        ("broker.backlog_high_water", b.backlog_high_water as f64, 1),
        ("broker.decode_errors", b.decode_errors as f64, 1),
        ("broker.io_errors", b.io_errors as f64, 1),
        ("transmitter.publish_failures", transport(|t| t.publish_failures) as f64, devices),
        ("transmitter.records_dropped", transport(|t| t.records_dropped) as f64, devices),
        ("transmitter.paced_sends", transport(|t| t.paced_sends) as f64, devices),
        ("transmitter.congestion_signals", transport(|t| t.congestion_signals) as f64, devices),
        ("transmitter.buffered_high_water", transport(|t| t.buffered_high_water) as f64, devices),
        ("transmitter.flush_ms", generated.flush_ms, devices),
        ("udp.kernel_drops", run.udp_drops as f64, 1),
        ("udp.rx_queue_peak_kb", fullest.unwrap_or(0) as f64 / 1024.0, observed.snapshots.len() as u64),
        ("server.decode_errors", run.decode_errors as f64, 1),
        ("server.records_per_message", per(records as f64, window.messages), window.messages),
        ("store.attr_cells", run.store.attr_cells as f64, 1),
        ("store.lineage_edges", run.store.lineage_edges as f64, 1),
        ("store.rss_bytes_per_record", per(grown_kb as f64 * 1024.0, records), records),
        ("visible.stall_events", observed.stall_events as f64, 1),
    ];
    for (name, value, samples) in measured_values {
        put(&mut v, name, value, samples);
    }

    if traced {
        // Spans were recorded on even slices only: what recording costs the
        // pipeline is the difference between neighbours.
        let cost = |parity: usize| {
            let side: Vec<f64> = slices
                .iter()
                .skip(parity)
                .step_by(2)
                .map(cpu_us_per_record)
                .collect();
            mean(&side)
        };
        put(
            &mut v,
            "trace.overhead_pct",
            (cost(0) / cost(1) - 1.0) * 100.0,
            records,
        );
    }
    (v, attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use provlight::prov_codec::json::{parse, JsonValue};

    fn field<'a>(object: &'a JsonValue, key: &str) -> &'a JsonValue {
        object.get(key).unwrap_or_else(|| panic!("missing {key}"))
    }

    /// `BENCHMARK.json` must declare exactly what the binary reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| field(&declared, key).as_array().unwrap().to_vec();
        let text = |o: &JsonValue, key: &str| field(o, key).as_str().unwrap().to_owned();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    field(m, "bound").as_f64().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                )
            })
            .collect();
        assert_eq!(per_layer, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert_eq!(describe("setup_s"), ("s", "lower"));
        assert_eq!(describe("codec.compress_ratio"), ("ratio", "higher"));
    }
}
