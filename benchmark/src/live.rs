//! The live run: the production pipeline over real UDP loopback.
//!
//! Two benchmark threads, matching the two cores of the reference host:
//! the *generator* plays the workflow — it captures tasks through the
//! Listing-1 API on an open-loop schedule — and the *observer* plays the
//! analyst — it polls the store for the rows the generator just captured
//! and, on a workload with a DAG, pages closure cursors beside the ingest.
//! Everything else running in the process is the pipeline under test: one
//! transmitter thread per device, the gateway's serve thread and the
//! translator thread.

use crate::pacer::{sleep_before, Pacer};
use crate::procfs::{self, Sched};
use crate::trace::{Recorder, Span};
use crate::workload::{dag_workflow, Call, Inputs, PAGE_SIZE, QUERY_PERIOD};
use provlight::continuum::ProvenanceManager;
use provlight::core::transmitter::TransmitterStats;
use provlight::core::{CaptureConfig, CaptureSession, ProvLightClient};
use provlight::mqtt_sn::broker::BrokerStats;
use provlight::prov_model::Id;
use provlight::prov_store::{CursorOpts, Path, ShardRouter, ShardedStore, StoreStats};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// Discarded lead-in: caches fill, buffers reach their steady size.
pub const WARMUP: Duration = Duration::from_secs(3);
/// The measured window is cut into this many equal slices.
pub const SLICES: usize = 5;
/// A task not visible this long after its capture call returned has failed.
pub const VISIBLE_LIMIT: Duration = Duration::from_secs(1);
/// Outstanding markers looked up per device per poll. Rows become visible
/// in capture order except across a retransmission, so a short window at
/// the head of the queue finds them without scanning a stalled backlog.
const POLL_WINDOW: usize = 64;
/// The observer's pause between polls: the resolution of `visible_ms`.
const POLL_PAUSE: Duration = Duration::from_micros(50);

/// Where a moment falls in the run.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// The run's start; the warm-up begins here.
    pub start: Instant,
    /// Length of the measured window.
    pub measured: Duration,
    /// Whether spans are recorded (on even slices) in this run.
    pub traced: bool,
}

impl Clock {
    /// Length of one slice.
    pub fn slice(&self) -> Duration {
        self.measured / SLICES as u32
    }

    /// End of the schedule, from the start.
    pub fn end(&self) -> Duration {
        WARMUP + self.measured
    }

    /// The slice holding offset `at`; `None` during warm-up and after the
    /// end.
    pub fn slice_of(&self, at: Duration) -> Option<usize> {
        let index = (at.checked_sub(WARMUP)?.as_nanos() / self.slice().as_nanos()) as usize;
        (index < SLICES).then_some(index)
    }

    /// Whether spans are recorded at offset `at`. Slices alternate, first
    /// one on, so the cost of recording is the difference between
    /// neighbouring slices of one run rather than between two runs.
    pub fn spans_on(&self, at: Duration) -> bool {
        self.traced && self.slice_of(at).is_some_and(|s| s % 2 == 0)
    }
}

/// The pipeline under test, with its threads told apart.
pub struct Pipeline {
    /// Broker, translator and store.
    pub manager: ProvenanceManager,
    /// One capture client per device.
    pub clients: Vec<ProvLightClient>,
    /// Thread of the gateway's serve loop.
    pub gateway: u32,
    /// Thread of the translator loop.
    pub translator: u32,
    /// Transmitter thread of each client.
    pub transmitters: Vec<u32>,
}

impl Pipeline {
    /// Starts the stack through its production entry points, loads the DAG
    /// straight into the store and connects the devices — all with default
    /// configuration apart from the grouping policy.
    pub fn start(inputs: &Inputs) -> Result<Pipeline, String> {
        let (manager, server_threads) =
            procfs::spawned_by(|| ProvenanceManager::start("127.0.0.1:0"));
        let manager = manager.map_err(|e| format!("manager start: {e:?}"))?;
        let &[gateway, translator] = server_threads.as_slice() else {
            return Err(format!(
                "expected ProvenanceManager::start to spawn a gateway and a translator thread, saw {server_threads:?}"
            ));
        };
        let mut router = ShardRouter::new();
        for mut batch in inputs.dag_batches() {
            router.route(manager.store(), &mut batch);
        }
        let mut clients = Vec::new();
        let mut transmitters = Vec::new();
        for device in 0..inputs.workload.devices {
            let (client, threads) = procfs::spawned_by(|| {
                ProvLightClient::connect(
                    manager.broker_addr(),
                    &format!("bench-dev{device}"),
                    &inputs.topic(device),
                    CaptureConfig {
                        group: inputs.workload.policy(),
                        ..CaptureConfig::default()
                    },
                )
            });
            clients.push(client.map_err(|e| format!("connect device {device}: {e:?}"))?);
            let &[transmitter] = threads.as_slice() else {
                return Err(format!(
                    "expected ProvLightClient::connect to spawn one transmitter thread, saw {threads:?}"
                ));
            };
            transmitters.push(transmitter);
        }
        Ok(Pipeline {
            manager,
            clients,
            gateway,
            translator,
            transmitters,
        })
    }

    /// Stops every pipeline thread and waits for it.
    pub fn stop(self) {
        for client in self.clients {
            client.shutdown();
        }
        self.manager.shutdown();
    }
}

/// A capture call whose effect the observer waits to see in the store.
struct Marker {
    device: usize,
    /// The data row the call captured.
    row: Id,
    /// When the call returned.
    returned: Instant,
    /// Slice the task was due in; `None` for warm-up tasks.
    slice: Option<usize>,
    /// Whether it already missed [`VISIBLE_LIMIT`].
    failed: bool,
}

/// What the generator measured.
pub struct Generated {
    /// Tasks captured per device, warm-up included.
    pub tasks: Vec<u64>,
    /// Tasks due in the measured window.
    pub measured_tasks: u64,
    /// Per slice: wall time inside `task.begin` + `task.end`, µs per task.
    pub inside_us: Vec<Vec<f64>>,
    /// Per slice: task due → `task.end` returned, µs per task.
    pub from_due_us: Vec<Vec<f64>>,
    /// How late each measured task started, ms.
    pub late_ms: Vec<f64>,
    /// Capture calls that returned `Err` in the measured window.
    pub call_errors: u64,
    /// The generator thread's own CPU over the measured window.
    pub cpu: Sched,
    /// `workflow.end()` + `flush()` of every device at the end of the run.
    pub flush_ms: f64,
    /// Transport statistics of every device after the flush.
    pub transport: Vec<TransmitterStats>,
    /// Spans recorded on traced slices.
    pub spans: Vec<Span>,
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

fn millis(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// Plays the workflow: captures every scheduled task, then ends the
/// workflows and flushes.
fn generate(
    inputs: &Inputs,
    sessions: Vec<CaptureSession>,
    clock: Clock,
    markers: Sender<Marker>,
) -> Generated {
    let workload = inputs.workload;
    let me = procfs::current_tid();
    let own_cpu = || me.map(procfs::sched_of).unwrap_or_default();
    let workflows: Vec<_> = sessions
        .iter()
        .enumerate()
        .map(|(d, s)| s.workflow(inputs.workflow(d)))
        .collect();
    let mut out = Generated {
        tasks: vec![0; sessions.len()],
        measured_tasks: 0,
        inside_us: vec![Vec::new(); SLICES],
        from_due_us: vec![Vec::new(); SLICES],
        late_ms: Vec::new(),
        call_errors: 0,
        cpu: Sched::default(),
        flush_ms: 0.0,
        transport: Vec::new(),
        spans: Vec::new(),
    };
    let mut recorder = Recorder::new(clock.start);
    let mut cpu_at_measure_start = None;
    let mut begin_errors = 0;
    for workflow in &workflows {
        begin_errors += u64::from(workflow.begin().is_err());
    }

    for due in Pacer::new(workload.period(), &inputs.phases(), clock.end()) {
        // Build the task before it is due: constructing the rows is the
        // workflow's own work, not capture overhead.
        let (device, t) = (due.device, due.seq);
        let inputs_row = vec![inputs.input(device, t)];
        let outputs_row = vec![inputs.output(device, t)];
        let mut task = workflows[device].task(t, "step", &Inputs::dependencies(t));
        let slice = clock.slice_of(due.at);
        if slice.is_some() && cpu_at_measure_start.is_none() {
            cpu_at_measure_start = Some(own_cpu());
        }
        recorder.on = clock.spans_on(due.at);
        if let Some(pause) = sleep_before(due.at, clock.start.elapsed()) {
            std::thread::sleep(pause);
        }

        let t0 = Instant::now();
        let began = task.begin(inputs_row);
        let t1 = Instant::now();
        let ended = task.end(outputs_row);
        let t2 = Instant::now();

        for (call, returned, row) in [
            (Call::Begin, t1, crate::workload::input_id as fn(u64) -> Id),
            (Call::End, t2, crate::workload::output_id),
        ] {
            if workload.is_marker(t, call) {
                // The observer outlives the generator; a send cannot fail.
                let _ = markers.send(Marker {
                    device,
                    row: row(t),
                    returned,
                    slice,
                    failed: false,
                });
            }
        }
        out.tasks[device] += 1;
        if let Some(slice) = slice {
            let due_at = clock.start + due.at;
            out.measured_tasks += 1;
            out.inside_us[slice].push(micros(t2 - t0));
            out.from_due_us[slice].push(micros(t2.saturating_duration_since(due_at)));
            out.late_ms
                .push(millis(t0.saturating_duration_since(due_at)));
            out.call_errors += u64::from(began.is_err()) + u64::from(ended.is_err());
            let parent = recorder.push("task", (t0, t2), None, Some(device), t);
            recorder.push("task.begin", (t0, t1), parent, Some(device), t);
            recorder.push("task.end", (t1, t2), parent, Some(device), t);
        }
    }
    out.cpu = own_cpu().since(cpu_at_measure_start.unwrap_or_default());
    out.call_errors += begin_errors;

    recorder.on = clock.traced;
    let flush_start = Instant::now();
    for (device, (workflow, session)) in workflows.iter().zip(&sessions).enumerate() {
        let t0 = Instant::now();
        let ended = workflow.end().and_then(|()| session.flush());
        out.call_errors += u64::from(ended.is_err());
        recorder.push("flush", (t0, Instant::now()), None, Some(device), 0);
    }
    out.flush_ms = millis(flush_start.elapsed());
    out.transport = sessions
        .iter()
        .map(CaptureSession::transport_stats)
        .collect();
    out.spans = recorder.into_spans();
    out
}

/// Counters read at every slice boundary, all at one instant.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Busy/waiting time of the gateway, the translator, then each
    /// transmitter thread.
    pub pipeline: Vec<Sched>,
    /// The observer's own busy/waiting time.
    pub observer: Sched,
    /// Records in the store.
    pub store: StoreStats,
    /// Broker counters.
    pub broker: BrokerStats,
    /// Messages the translator handled.
    pub messages: u64,
    /// Resident set size, kB.
    pub rss_kb: u64,
    /// Process user and system clock ticks.
    pub ticks: (u64, u64),
    /// Bytes waiting in the fullest of the process's UDP receive queues.
    pub udp_rx_queue: u64,
    /// Times the pipeline threads have blocked, summed.
    pub wakeups: u64,
    /// Bytes and packets sent over loopback.
    pub loopback: (u64, u64),
}

/// What the observer measured.
pub struct Observed {
    /// Per slice: marker call returned → row found, ms.
    pub visible_ms: Vec<Vec<f64>>,
    /// Per slice: cursor due → last page, ms.
    pub query_ms: Vec<Vec<f64>>,
    /// Time per `next_page` call, µs, measured window.
    pub page_us: Vec<f64>,
    /// Hits of the smallest closure seen.
    pub closure_hits_min: usize,
    /// Markers of the measured window that missed [`VISIBLE_LIMIT`].
    pub failed_markers: u64,
    /// Markers of the measured window.
    pub markers: u64,
    /// Times the oldest outstanding marker aged past [`VISIBLE_LIMIT`].
    pub stall_events: u64,
    /// Gaps between polls, µs, measured window.
    pub poll_gap_us: Vec<f64>,
    /// Counters at the start of the window and at the end of each slice.
    pub snapshots: Vec<Snapshot>,
    /// Spans recorded on traced slices.
    pub spans: Vec<Span>,
}

struct Observer<'a> {
    pipeline: &'a Pipeline,
    store: &'a ShardedStore,
    clock: Clock,
    workflows: Vec<Id>,
    incoming: Receiver<Marker>,
    outstanding: Vec<VecDeque<Marker>>,
    me: Option<u32>,
    in_stall: bool,
    polls: u64,
    recorder: Recorder,
    out: Observed,
}

impl Observer<'_> {
    fn snapshot(&self) -> Snapshot {
        let p = self.pipeline;
        Snapshot {
            pipeline: [p.gateway, p.translator]
                .iter()
                .chain(&p.transmitters)
                .map(|&tid| procfs::sched_of(tid))
                .collect(),
            observer: self.me.map(procfs::sched_of).unwrap_or_default(),
            store: self.store.stats(),
            broker: p.manager.broker_stats(),
            messages: p.manager.server_stats().messages_total,
            rss_kb: procfs::status_kb("VmRSS"),
            ticks: procfs::process_ticks(),
            wakeups: [p.gateway, p.translator]
                .iter()
                .chain(&p.transmitters)
                .map(|&tid| procfs::wakeups_of(tid))
                .sum(),
            loopback: procfs::loopback_sent(),
            udp_rx_queue: procfs::own_udp_sockets()
                .iter()
                .map(|s| s.rx_queue)
                .max()
                .unwrap_or(0),
        }
    }

    /// Takes in new markers and looks the oldest outstanding ones up.
    /// `parent` is the span of the query this poll runs inside, if any.
    fn poll(&mut self, parent: Option<usize>) {
        self.outstanding_extend();
        self.polls += 1;
        let mut oldest_age = Duration::ZERO;
        for (device, queue) in self.outstanding.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            let workflow = &self.workflows[device];
            let polled = Instant::now();
            let guard = self.store.read(workflow);
            let (mut looked, mut resolved) = (0, 0);
            queue.retain_mut(|m| {
                looked += 1;
                let visible = looked <= POLL_WINDOW && guard.data_by_id(workflow, &m.row).is_some();
                let age = if visible {
                    m.returned.elapsed()
                } else {
                    polled.saturating_duration_since(m.returned)
                };
                if let Some(slice) = m.slice {
                    if visible {
                        self.out.visible_ms[slice].push(millis(age));
                    }
                    if !m.failed && age > VISIBLE_LIMIT {
                        m.failed = true;
                        self.out.failed_markers += 1;
                    }
                }
                if !visible {
                    oldest_age = oldest_age.max(age);
                }
                resolved += usize::from(visible);
                !visible
            });
            drop(guard);
            let span = (polled, Instant::now());
            if resolved > 0 {
                self.recorder
                    .push("store.read", span, parent, Some(device), self.polls);
            }
        }
        let stalled = oldest_age > VISIBLE_LIMIT;
        self.out.stall_events += u64::from(stalled && !self.in_stall);
        self.in_stall = stalled;
    }

    fn outstanding_extend(&mut self) {
        for marker in self.incoming.try_iter() {
            self.out.markers += u64::from(marker.slice.is_some());
            self.outstanding[marker.device].push_back(marker);
        }
    }

    /// Pages one downstream-closure cursor to its end, looking markers up
    /// between pages, and times it from when it was due.
    fn query(&mut self, number: u64, due: Duration, root: &Id) {
        let path = Path::from_data(root.clone()).downstream(usize::MAX);
        let opts = CursorOpts {
            page_size: PAGE_SIZE,
            ..CursorOpts::default()
        };
        let workflow = dag_workflow();
        let slice = self.clock.slice_of(due);
        let t0 = Instant::now();
        let span = self.recorder.push("query", (t0, t0), None, None, number);
        let opened = self.store.open_cursor(&workflow, &path, opts);
        let t1 = Instant::now();
        self.recorder
            .push("open_cursor", (t0, t1), span, None, number);
        let mut hits = 0;
        if let Ok(mut cursor) = opened {
            loop {
                let p0 = Instant::now();
                let page = self.store.next_page(&mut cursor);
                let p1 = Instant::now();
                self.recorder
                    .push("next_page", (p0, p1), span, None, number);
                if slice.is_some() {
                    self.out.page_us.push(micros(p1 - p0));
                }
                hits += page.hits.len();
                if page.done {
                    break;
                }
                // Between pages the observer does what it does between
                // polls: look markers up, then give the core away. A cursor
                // paged flat out would hold one of two cores for the whole
                // closure and delay the generator's wake-ups by as much.
                self.poll(span);
                std::thread::sleep(POLL_PAUSE);
            }
        }
        let done = Instant::now();
        self.recorder.close(span, done);
        self.out.closure_hits_min = self.out.closure_hits_min.min(hits);
        if let Some(slice) = slice {
            self.out.query_ms[slice].push(millis(
                done.saturating_duration_since(self.clock.start + due),
            ));
        }
    }

    /// Polls until the generator is done and its rows are in; with a `root`
    /// it also opens a closure cursor on it every [`QUERY_PERIOD`].
    fn run(mut self, root: Option<Id>, generator_done: &AtomicBool) -> Observed {
        let mut next_boundary = WARMUP;
        let mut next_query = (Duration::ZERO, 0u64);
        let mut last_poll = Instant::now();
        let mut done_since: Option<Instant> = None;
        loop {
            let at = self.clock.start.elapsed();
            self.recorder.on = self.clock.spans_on(at);
            if self.out.snapshots.len() <= SLICES && at >= next_boundary {
                self.out.snapshots.push(self.snapshot());
                next_boundary += self.clock.slice();
            }
            if let Some(root) = &root {
                if at < self.clock.end() && at >= next_query.0 {
                    self.query(next_query.1, next_query.0, root);
                    next_query = (next_query.0 + QUERY_PERIOD, next_query.1 + 1);
                }
            }
            let now = Instant::now();
            if self.clock.slice_of(at).is_some() {
                self.out.poll_gap_us.push(micros(now - last_poll));
            }
            last_poll = now;
            self.poll(None);

            if generator_done.load(Ordering::Acquire) {
                // Everything is flushed: whatever is still outstanding gets
                // twice the visibility limit to show up and be timed.
                let since = *done_since.get_or_insert(now);
                self.outstanding_extend();
                if self.outstanding.iter().all(VecDeque::is_empty)
                    || now - since > 2 * VISIBLE_LIMIT
                {
                    break;
                }
            }
            std::thread::sleep(POLL_PAUSE);
        }
        while self.out.snapshots.len() <= SLICES {
            self.out.snapshots.push(self.snapshot());
        }
        self.out.spans = self.recorder.into_spans();
        self.out
    }
}

/// Everything one live run measured.
pub struct LiveRun {
    /// The generator's side.
    pub generated: Generated,
    /// The observer's side.
    pub observed: Observed,
    /// Store counters after the final flush settled.
    pub store: StoreStats,
    /// Broker counters at the end.
    pub broker: BrokerStats,
    /// Translator decode failures.
    pub decode_errors: u64,
    /// Datagrams the kernel dropped at the process's UDP sockets.
    pub udp_drops: u64,
}

/// Runs the workload on a started pipeline for `measured` seconds after the
/// warm-up and waits for the store to settle.
pub fn run(inputs: &Inputs, pipeline: &Pipeline, measured: Duration, traced: bool) -> LiveRun {
    let clock = Clock {
        // A short lead so both threads are parked on the schedule before
        // the first task is due.
        start: Instant::now() + Duration::from_millis(20),
        measured,
        traced,
    };
    let sessions: Vec<CaptureSession> = pipeline.clients.iter().map(|c| c.session()).collect();
    let (markers, incoming) = channel();
    let generator_done = AtomicBool::new(false);
    let store: &ShardedStore = pipeline.manager.store();
    let devices = inputs.workload.devices;

    let (generated, observed) = std::thread::scope(|scope| {
        let observer = Observer {
            pipeline,
            store,
            clock,
            workflows: (0..devices).map(|d| inputs.workflow(d)).collect(),
            incoming,
            outstanding: (0..devices).map(|_| VecDeque::new()).collect(),
            me: None,
            in_stall: false,
            polls: 0,
            recorder: Recorder::new(clock.start),
            out: Observed {
                visible_ms: vec![Vec::new(); SLICES],
                query_ms: vec![Vec::new(); SLICES],
                page_us: Vec::new(),
                closure_hits_min: usize::MAX,
                failed_markers: 0,
                markers: 0,
                stall_events: 0,
                poll_gap_us: Vec::new(),
                snapshots: Vec::new(),
                spans: Vec::new(),
            },
        };
        let root = inputs.dag_root();
        let done = &generator_done;
        let observing = scope.spawn(move || {
            let mut observer = observer;
            observer.me = procfs::current_tid();
            observer.run(root, done)
        });
        let generating = scope.spawn(move || {
            let generated = generate(inputs, sessions, clock, markers);
            done.store(true, Ordering::Release);
            generated
        });
        (
            generating.join().expect("generator thread panicked"),
            observing.join().expect("observer thread panicked"),
        )
    });

    // The flush returned once the gateway acknowledged; the translator leg
    // may still be delivering, and a datagram lost on it is only sent again
    // after `Tretry` (10 s). What is still missing after that is lost.
    let expected = crate::check::expected_stats(inputs, &generated.tasks).records;
    let settle_deadline = Instant::now() + Duration::from_secs(12);
    while store.stats().records < expected && Instant::now() < settle_deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let server = pipeline.manager.server_stats();
    LiveRun {
        generated,
        observed,
        store: store.stats(),
        broker: pipeline.manager.broker_stats(),
        decode_errors: server.decode_errors,
        udp_drops: procfs::own_udp_sockets().iter().map(|s| s.drops).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_start_after_the_warm_up_and_spans_alternate() {
        let clock = Clock {
            start: Instant::now(),
            measured: Duration::from_secs(20),
            traced: true,
        };
        let at = |ms: u64| Duration::from_millis(ms);
        assert_eq!(clock.slice(), at(4000));
        assert_eq!(clock.end(), at(23_000));
        assert_eq!(clock.slice_of(at(2_999)), None);
        assert_eq!(clock.slice_of(at(3_000)), Some(0));
        assert_eq!(clock.slice_of(at(6_999)), Some(0));
        assert_eq!(clock.slice_of(at(7_000)), Some(1));
        assert_eq!(clock.slice_of(at(22_999)), Some(4));
        assert_eq!(clock.slice_of(at(23_000)), None);
        // Spans are on in slices 0, 2 and 4 of a traced run only.
        let on: Vec<bool> = (0..5)
            .map(|s| clock.spans_on(at(3_500 + 4_000 * s)))
            .collect();
        assert_eq!(on, [true, false, true, false, true]);
        assert!(!clock.spans_on(at(1_000)));
        let untraced = Clock {
            traced: false,
            ..clock
        };
        assert!(!untraced.spans_on(at(3_500)));
    }
}
