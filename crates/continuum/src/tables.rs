//! Generators for every table and figure in the paper's evaluation.
//!
//! Each function reruns the corresponding experiment in the simulator and
//! returns rows pairing the **paper's reported value** with the
//! **measured** mean ± 95 % CI, so drift between the reproduction and the
//! paper is always visible. The `bench` crate prints these; integration
//! tests assert the qualitative shapes (orderings, factors, crossovers).

use crate::experiment::{measure, measure_scalability, Measurement, Scenario, System};
use provlight_core::config::GroupPolicy;
use provlight_core::sim::ProvLightSimConfig;
use provlight_workload::spec::WorkloadSpec;

/// One table cell: a label, the paper's value, and our measurement.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Row/column label.
    pub label: String,
    /// Value reported in the paper.
    pub paper: f64,
    /// Our measured value.
    pub measured: Measurement,
}

/// A reproduced table.
#[derive(Clone, Debug)]
pub struct TableResult {
    /// Table/figure id (e.g. `Table II`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Unit of the values.
    pub unit: &'static str,
    /// Cells in presentation order.
    pub cells: Vec<Cell>,
}

impl TableResult {
    /// Renders the table as aligned text (the bench harness output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== {} — {} [{}]\n",
            self.id, self.title, self.unit
        ));
        let w = self
            .cells
            .iter()
            .map(|c| c.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!(
            "{:w$}  {:>10}  {:>16}\n",
            "cell",
            "paper",
            "measured",
            w = w
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:w$}  {:>10.2}  {:>9.2} ±{:<5.2}\n",
                c.label,
                c.paper,
                c.measured.mean(),
                c.measured.ci95(),
                w = w
            ));
        }
        out
    }

    /// Finds a cell by label.
    pub fn cell(&self, label: &str) -> Option<&Cell> {
        self.cells.iter().find(|c| c.label == label)
    }
}

const DURATIONS: [f64; 4] = [0.5, 1.0, 3.5, 5.0];

fn overhead_cell(system: System, attrs: usize, dur: f64, reps: usize, paper: f64) -> Cell {
    let label = format!("{} {attrs}attr {dur}s", system.name());
    let mut s = Scenario::edge(system, WorkloadSpec::table1(attrs, dur));
    s.reps = reps;
    Cell {
        label,
        paper,
        measured: measure(&s).overhead_pct,
    }
}

/// Table II: ProvLake and DfAnalyzer capture overhead on the edge.
pub fn table2(reps: usize) -> TableResult {
    let paper_provlake_10 = [56.9, 29.9, 8.56, 6.02];
    let paper_dfanalyzer_10 = [39.8, 21.2, 6.12, 4.26];
    let paper_provlake_100 = [57.3, 30.1, 8.57, 6.04];
    let paper_dfanalyzer_100 = [40.5, 21.3, 6.12, 4.31];
    let mut cells = Vec::new();
    for (attrs, pl, df) in [
        (10, paper_provlake_10, paper_dfanalyzer_10),
        (100, paper_provlake_100, paper_dfanalyzer_100),
    ] {
        for (i, dur) in DURATIONS.iter().enumerate() {
            cells.push(overhead_cell(
                System::ProvLake { group: 0 },
                attrs,
                *dur,
                reps,
                pl[i],
            ));
            cells.push(overhead_cell(System::DfAnalyzer, attrs, *dur, reps, df[i]));
        }
    }
    TableResult {
        id: "Table II",
        title: "capture overhead of ProvLake and DfAnalyzer on IoT/Edge devices",
        unit: "% overhead",
        cells,
    }
}

/// Table III: ProvLake grouping × bandwidth.
pub fn table3(reps: usize) -> TableResult {
    let groups = [0usize, 10, 20, 50];
    // paper[bandwidth][group][duration]
    let paper_1g = [[57.3, 30.1], [6.83, 3.58], [3.87, 1.99], [2.37, 1.24]];
    let paper_25k = [
        [321.0, 161.0],
        [102.5, 49.8],
        [100.8, 51.16],
        [95.04, 43.23],
    ];
    let mut cells = Vec::new();
    for (bw, paper, slow) in [("1Gbit", paper_1g, false), ("25Kbit", paper_25k, true)] {
        for (gi, group) in groups.iter().enumerate() {
            for (di, dur) in [0.5, 1.0].iter().enumerate() {
                let spec = WorkloadSpec::table1(100, *dur);
                let mut s = if slow {
                    Scenario::edge_25kbit(System::ProvLake { group: *group }, spec)
                } else {
                    Scenario::edge(System::ProvLake { group: *group }, spec)
                };
                s.reps = reps;
                cells.push(Cell {
                    label: format!("{bw} group{group} {dur}s"),
                    paper: paper[gi][di],
                    measured: measure(&s).overhead_pct,
                });
            }
        }
    }
    TableResult {
        id: "Table III",
        title: "ProvLake: impact of bandwidth and grouping on capture overhead",
        unit: "% overhead",
        cells,
    }
}

/// Table VII: ProvLight capture overhead on the edge.
pub fn table7(reps: usize) -> TableResult {
    let paper_10 = [1.45, 1.02, 0.31, 0.23];
    let paper_100 = [1.54, 1.11, 0.37, 0.29];
    let mut cells = Vec::new();
    for (attrs, paper) in [(10, paper_10), (100, paper_100)] {
        for (i, dur) in DURATIONS.iter().enumerate() {
            cells.push(overhead_cell(
                System::ProvLight { group: 0 },
                attrs,
                *dur,
                reps,
                paper[i],
            ));
        }
    }
    TableResult {
        id: "Table VII",
        title: "ProvLight capture overhead on IoT/Edge devices",
        unit: "% overhead",
        cells,
    }
}

/// Table VIII: ProvLight grouping × bandwidth.
pub fn table8(reps: usize) -> TableResult {
    let groups = [0usize, 10, 20, 50];
    let paper_1g = [[1.54, 1.10], [1.37, 0.75], [1.32, 0.72], [1.31, 0.72]];
    let paper_25k = [[1.56, 1.04], [1.37, 0.74], [1.34, 0.73], [1.31, 0.72]];
    let mut cells = Vec::new();
    for (bw, paper, slow) in [("1Gbit", paper_1g, false), ("25Kbit", paper_25k, true)] {
        for (gi, group) in groups.iter().enumerate() {
            for (di, dur) in [0.5, 1.0].iter().enumerate() {
                let spec = WorkloadSpec::table1(100, *dur);
                let mut s = if slow {
                    Scenario::edge_25kbit(System::ProvLight { group: *group }, spec)
                } else {
                    Scenario::edge(System::ProvLight { group: *group }, spec)
                };
                s.reps = reps;
                cells.push(Cell {
                    label: format!("{bw} group{group} {dur}s"),
                    paper: paper[gi][di],
                    measured: measure(&s).overhead_pct,
                });
            }
        }
    }
    TableResult {
        id: "Table VIII",
        title: "ProvLight: impact of bandwidth and grouping on capture overhead",
        unit: "% overhead",
        cells,
    }
}

/// Table IX: ProvLight scalability (8–64 devices).
pub fn table9(reps: usize) -> TableResult {
    let paper = [(8usize, 1.54), (16, 1.54), (32, 1.56), (64, 1.57)];
    let cells = paper
        .iter()
        .map(|&(devices, paper)| {
            let (m, _util) = measure_scalability(devices, reps);
            Cell {
                label: format!("{devices} devices"),
                paper,
                measured: m,
            }
        })
        .collect();
    TableResult {
        id: "Table IX",
        title: "ProvLight scalability analysis (0.5 s tasks, 100 attrs)",
        unit: "% overhead",
        cells,
    }
}

/// Table X: capture overhead on cloud servers.
pub fn table10(reps: usize) -> TableResult {
    let paper_provlake = [1.71, 0.92, 0.34, 0.26];
    let paper_dfanalyzer = [1.17, 0.63, 0.25, 0.21];
    let paper_provlight = [0.24, 0.17, 0.12, 0.11];
    let mut cells = Vec::new();
    for (system, paper) in [
        (System::ProvLake { group: 0 }, paper_provlake),
        (System::DfAnalyzer, paper_dfanalyzer),
        (System::ProvLight { group: 0 }, paper_provlight),
    ] {
        for (i, dur) in DURATIONS.iter().enumerate() {
            let mut s = Scenario::cloud(system.clone(), WorkloadSpec::table1(100, *dur));
            s.reps = reps;
            cells.push(Cell {
                label: format!("{} {dur}s", system.name()),
                paper: paper[i],
                measured: measure(&s).overhead_pct,
            });
        }
    }
    TableResult {
        id: "Table X",
        title: "capture overhead in cloud servers (100 attrs)",
        unit: "% overhead",
        cells,
    }
}

/// Fig. 6 results: one table per sub-figure (CPU, memory, network, power).
pub fn fig6(reps: usize) -> Vec<TableResult> {
    let systems = [
        (System::ProvLake { group: 0 }, "ProvLake"),
        (System::DfAnalyzer, "DfAnalyzer"),
        (System::ProvLight { group: 0 }, "ProvLight"),
    ];
    let results: Vec<_> = systems
        .iter()
        .map(|(system, name)| {
            let mut s = Scenario::edge(system.clone(), WorkloadSpec::table1(100, 0.5));
            s.reps = reps;
            (*name, measure(&s))
        })
        .collect();

    // Paper values: CPU ≈ 7× / 5× ProvLight's ≈1.85 %; memory ≈2× / 1.9×
    // ProvLight's ≈3.5 %; network ≈1.9× / 1.8× ProvLight's 3.7 KB/s;
    // power 1.47 / 1.49 / 1.43 W (overheads 5.46 / 6.82 / 2.58 %).
    let paper_cpu = [13.0, 9.3, 1.85];
    let paper_mem = [7.0, 6.7, 3.5];
    let paper_net = [7.0, 6.7, 3.7];
    let paper_power = [1.47, 1.49, 1.43];
    let paper_power_overhead = [5.46, 6.82, 2.58];

    let mk = |id: &'static str,
              title: &'static str,
              unit: &'static str,
              paper: [f64; 3],
              f: &dyn Fn(&crate::experiment::ScenarioResult) -> Measurement| {
        TableResult {
            id,
            title,
            unit,
            cells: results
                .iter()
                .enumerate()
                .map(|(i, (name, r))| Cell {
                    label: (*name).to_owned(),
                    paper: paper[i],
                    measured: f(r),
                })
                .collect(),
        }
    };

    vec![
        mk("Fig 6a", "CPU overhead", "% CPU", paper_cpu, &|r| {
            r.cpu_pct.clone()
        }),
        mk(
            "Fig 6b",
            "memory overhead",
            "% of 256 MB",
            paper_mem,
            &|r| r.mem_pct.clone(),
        ),
        mk("Fig 6c", "network usage", "KB/s", paper_net, &|r| {
            r.net_kbs.clone()
        }),
        mk("Fig 6d", "average power", "W", paper_power, &|r| {
            r.power_w.clone()
        }),
        mk(
            "Fig 6d'",
            "power overhead vs idle",
            "%",
            paper_power_overhead,
            &|r| r.power_overhead_pct.clone(),
        ),
    ]
}

/// §VII-A ablation: which ProvLight design choice buys what. Returns
/// (variant name, result) pairs at the 0.5 s / 100-attr edge point.
pub fn ablation(reps: usize) -> Vec<(String, crate::experiment::ScenarioResult)> {
    use mqtt_sn::QoS;
    let base = ProvLightSimConfig::default();

    let mut no_compression = base.clone();
    no_compression.compression = false;

    let mut json_model = base.clone();
    json_model.binary = false;

    let mut qos0 = base.clone();
    qos0.qos = QoS::AtMostOnce;

    let mut qos1 = base.clone();
    qos1.qos = QoS::AtLeastOnce;

    let mut grouped = base.clone();
    grouped.capture.group = GroupPolicy::Grouped { size: 50 };

    let variants: Vec<(String, System)> = vec![
        (
            "full (binary+compress+qos2)".into(),
            System::ProvLightCustom(Box::new(base.clone())),
        ),
        (
            "no compression".into(),
            System::ProvLightCustom(Box::new(no_compression.clone())),
        ),
        (
            "json data model".into(),
            System::ProvLightCustom(Box::new(json_model)),
        ),
        ("qos 0".into(), System::ProvLightCustom(Box::new(qos0))),
        ("qos 1".into(), System::ProvLightCustom(Box::new(qos1))),
        (
            "grouped 50".into(),
            System::ProvLightCustom(Box::new(grouped)),
        ),
    ];

    let mut rows: Vec<(String, crate::experiment::ScenarioResult)> = variants
        .into_iter()
        .map(|(name, system)| {
            let mut s = Scenario::edge(system, WorkloadSpec::table1(100, 0.5));
            s.reps = reps;
            (name, measure(&s))
        })
        .collect();

    // Compression is payload-dependent: random-float payloads (the
    // evaluation default) barely compress, while the paper's literal
    // Listing 1 constants compress heavily. Show both regimes.
    let mut constant_spec = WorkloadSpec::table1(100, 0.5);
    constant_spec.value_fill = provlight_workload::spec::ValueFill::Constant;
    for (name, system) in [
        (
            "full, constant-fill payload".to_owned(),
            System::ProvLightCustom(Box::new(base)),
        ),
        (
            "no compression, constant-fill".to_owned(),
            System::ProvLightCustom(Box::new(no_compression)),
        ),
    ] {
        let mut s = Scenario::edge(system, constant_spec);
        s.reps = reps;
        rows.push((name, measure(&s)));
    }
    rows
}

/// One backpressure counter of the overload run.
#[derive(Clone, Debug)]
pub struct ResilienceRow {
    /// Counter name.
    pub label: &'static str,
    /// Counter value.
    pub value: u64,
}

/// The resilience extension's counter table (no paper analogue): one
/// overload run with end-to-end backpressure.
#[derive(Clone, Debug)]
pub struct ResilienceResult {
    /// Rows in presentation order.
    pub rows: Vec<ResilienceRow>,
}

impl ResilienceResult {
    /// Renders the table as aligned text (the bench harness output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Resilience — overload counters\n");
        let w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!("{:w$}  {:>12}\n", "counter", "value", w = w));
        for r in &self.rows {
            out.push_str(&format!("{:w$}  {:>12}\n", r.label, r.value, w = w));
        }
        out
    }

    /// Finds a row by label.
    pub fn row(&self, label: &str) -> Option<&ResilienceRow> {
        self.rows.iter().find(|r| r.label == label)
    }
}

/// The resilience counter table: the overload experiment over real UDP
/// with end-to-end backpressure. A durable QoS 2 subscriber goes away, a
/// publisher keeps capturing past the broker's congestion watermarks, then
/// the subscriber returns and everything drains. The broker rejects past
/// the hard watermark and the publisher paces — nothing is dropped
/// anywhere.
pub fn resilience() -> ResilienceResult {
    use mqtt_sn::broker::BrokerConfig;
    use mqtt_sn::net::{UdpBroker, UdpClient};
    use mqtt_sn::{ClientConfig, QoS};
    use provlight_core::{CaptureConfig, ProvLightClient};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let wait_until = |timeout: Duration, f: &mut dyn FnMut() -> bool| {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if f() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    };

    let broker = UdpBroker::spawn(
        "127.0.0.1:0",
        BrokerConfig {
            retry_timeout: Duration::from_millis(200),
            max_retries: 10,
            max_buffered: 8,
            congestion_soft: 3,
            congestion_hard: 6,
            ..BrokerConfig::default()
        },
    )
    .expect("broker");
    let addr = broker.local_addr();

    {
        let mut config = ClientConfig::new("resilience-sub");
        config.clean_session = false;
        let mut sub = UdpClient::connect(addr, config, Duration::from_secs(5)).expect("sub");
        sub.subscribe("provlight/#", QoS::ExactlyOnce, Duration::from_secs(5))
            .expect("subscribe");
        sub.disconnect().expect("disconnect");
    }

    let client = ProvLightClient::connect(
        addr,
        "resilience-pub",
        "provlight/resilience/pub",
        CaptureConfig {
            group: GroupPolicy::Immediate,
            max_payload: 1,
            max_inflight: 1,
            keep_alive: Duration::from_millis(200),
            retry_timeout: Duration::from_millis(300),
            max_retries: 20,
            ..CaptureConfig::default()
        },
    )
    .expect("publisher");
    let session = client.session();
    let wf = session.workflow(1u64);
    wf.begin().expect("wf begin");
    let tasks = 19u64;
    for t in 0..tasks {
        let mut task = wf.task(t, 0u64, &[]);
        task.begin(vec![]).expect("task begin");
    }
    let published = 1 + tasks;

    // Soft-advisory pacing alone slows the publisher below the backlog's
    // growth into the hard watermark, so explicitly wait for the first
    // hard reject (and the parked overflow) before letting the subscriber
    // return.
    wait_until(Duration::from_secs(15), &mut || {
        broker.stats().congestion_rejects > 0 && client.stats().buffered_records >= published / 2
    });

    // The subscriber returns (same durable session) and drains the
    // backlog so the flush below can complete.
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        let mut config = ClientConfig::new("resilience-sub");
        config.clean_session = false;
        let mut sub = UdpClient::connect(addr, config, Duration::from_secs(5)).expect("resume");
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match sub.poll_event() {
                    Ok(_) => {}
                    Err(e) if e.is_transient() => std::thread::sleep(Duration::from_millis(10)),
                    Err(_) => break,
                }
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while client.flush().is_err() {
        assert!(Instant::now() < deadline, "overload flush never completed");
    }

    let b = broker.stats();
    let c = client.stats();
    stop.store(true, Ordering::Relaxed);
    pump.join().expect("pump thread");
    client.shutdown();
    broker.shutdown();
    let rows = [
        ("records published", published),
        ("broker drops", b.drops),
        ("client drops", c.records_dropped),
        ("records shed", c.records_shed),
        ("congestion rejects", b.congestion_rejects),
        ("advisories sent", b.advisories_sent),
        ("congestion signals", c.congestion_signals),
        ("paced sends", c.paced_sends),
        ("backlog high water", b.backlog_high_water),
    ]
    .into_iter()
    .map(|(label, value)| ResilienceRow { label, value })
    .collect();
    ResilienceResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table7_shape_matches_paper() {
        let t = table7(3);
        assert_eq!(t.cells.len(), 8);
        // All cells low (<3 %), decreasing with task duration.
        for c in &t.cells {
            assert!(
                c.measured.mean() < 3.0,
                "{}: {}",
                c.label,
                c.measured.mean()
            );
        }
        let c05 = t.cell("ProvLight 100attr 0.5s").unwrap().measured.mean();
        let c5 = t.cell("ProvLight 100attr 5s").unwrap().measured.mean();
        assert!(c05 > c5);
        assert!(c5 < 0.5);
    }

    #[test]
    fn table9_flat() {
        let t = table9(1);
        assert_eq!(t.cells.len(), 4);
        let first = t.cells[0].measured.mean();
        for c in &t.cells {
            assert!((c.measured.mean() - first).abs() < 0.3);
        }
    }

    #[test]
    fn fig6_orderings() {
        let figs = fig6(2);
        assert_eq!(figs.len(), 5);
        for f in &figs {
            let provlight = f.cell("ProvLight").unwrap().measured.mean();
            let provlake = f.cell("ProvLake").unwrap().measured.mean();
            let dfanalyzer = f.cell("DfAnalyzer").unwrap().measured.mean();
            assert!(
                provlight < provlake && provlight < dfanalyzer,
                "{}: ProvLight {provlight} vs {provlake}/{dfanalyzer}",
                f.id
            );
        }
    }

    #[test]
    fn ablation_shows_design_choice_costs() {
        let rows = ablation(2);
        let get = |name: &str| {
            rows.iter()
                .find(|(n, _)| n.starts_with(name))
                .map(|(_, r)| r.overhead_pct.mean())
                .unwrap()
        };
        let full = get("full");
        assert!(get("json data model") > full, "simplified model must help");
        assert!(get("qos 0") <= full + 0.05, "qos0 can't be slower");
        assert!(get("grouped 50") < full);

        // Compression pays off on low-entropy payloads (the paper's
        // Listing 1 constants), not on random floats.
        let net = |name: &str| {
            rows.iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| r.net_kbs.mean())
                .unwrap()
        };
        assert!(
            net("full, constant-fill payload") * 1.5 < net("no compression, constant-fill"),
            "compression must shrink constant payloads: {} vs {}",
            net("full, constant-fill payload"),
            net("no compression, constant-fill")
        );
    }

    #[test]
    fn resilience_counters_show_backpressure_win() {
        let r = resilience();
        let value = |label: &str| r.row(label).unwrap().value;
        // No loss anywhere, and the control loop visibly engaged (rejects
        // at the broker, signals at the client).
        assert_eq!(value("broker drops"), 0, "{r:?}");
        assert_eq!(value("client drops"), 0, "{r:?}");
        assert!(value("congestion rejects") > 0, "{r:?}");
        assert!(value("congestion signals") > 0, "{r:?}");
        let text = r.render();
        assert!(text.contains("overload counters"));
        assert!(text.contains("broker drops"));
    }

    #[test]
    fn render_is_presentable() {
        let t = table9(1);
        let text = t.render();
        assert!(text.contains("Table IX"));
        assert!(text.contains("8 devices"));
        assert!(text.contains("±"));
    }
}
