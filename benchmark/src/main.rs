//! `provlight-benchmark`: capture-to-queryable over real UDP loopback.
//!
//! ```text
//! provlight-benchmark run [--workload <name|all>] [--seed N] [--seconds S]
//!                         [--trace 0|1|both] [--out DIR]
//! provlight-benchmark compare <setA> <setB>
//! ```
//!
//! `run` drives the production entry points under one of four named
//! workloads, checks what the store ends up holding against what was
//! generated, prints every metric by name with unit and sample count, writes
//! the result to `DIR`, and ends with one JSON line for the driver; asked
//! for more than one (workload, trace) pair, it makes each run in a process
//! of its own, which ends with its own JSON line. An untraced run
//! (`--trace 0`) reports the end-to-end metrics; a traced run (`--trace 1`)
//! repeats the workload with spans on, adds the staged replay of each layer,
//! and reports the per-layer metrics. `compare` holds two sets of results
//! against the regression bounds. See `README.md`.

mod check;
mod compare;
mod live;
mod metrics;
mod pacer;
mod procfs;
mod staged;
mod stats;
mod trace;
mod workload;

use live::Pipeline;
use metrics::{put, Values, END_TO_END, PER_LAYER};
use provlight::prov_codec::json::JsonValue;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Workload, WORKLOADS};

/// The pipeline is set up at least this often per run; `setup_s` is the
/// median.
const MIN_SETUPS: usize = 5;
/// Setting up and tearing down goes on for at least this long, so a set-up
/// that takes a millisecond is repeated often enough for its median to hold
/// still.
const SETUP_TIME: Duration = Duration::from_millis(2500);
/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 20;

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    traces: Vec<bool>,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traces: vec![false, true],
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                parsed.workloads = vec![Workload::by_name(value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}`; one of {names:?} or `all`")
                })?]
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.traces = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    _ => return Err(format!("--trace takes 0, 1 or both, not `{value}`")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(parsed)
}

/// A fixed integer loop timed in-process, so that results from different
/// hosts can later be put on one scale.
fn calibrate() -> f64 {
    const ITERATIONS: u64 = 50_000_000;
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..ITERATIONS {
        x = std::hint::black_box(x ^ (x << 13));
        x = std::hint::black_box(x ^ (x >> 7));
        x = std::hint::black_box(x ^ (x << 17));
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / ITERATIONS as f64
}

fn text(s: impl Into<String>) -> JsonValue {
    JsonValue::String(s.into())
}

fn number(n: f64) -> JsonValue {
    // JSON has no NaN or infinity; a metric that does not apply to the
    // workload or could not be computed reads as -1, which no real
    // measurement here can.
    JsonValue::Number(if n.is_finite() { n } else { -1.0 })
}

fn object<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// One finished run: what the driver's JSON line and the result file hold.
struct Outcome {
    workload: Workload,
    traced: bool,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    values: Values,
}

impl Outcome {
    /// The metrics this run's mode reports, in table order. A metric the
    /// run failed to produce is an error of the benchmark itself.
    fn reported(&self) -> Result<Vec<(&'static str, &metrics::Value)>, String> {
        let names: Vec<&'static str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        names
            .into_iter()
            .map(|name| {
                let value = self
                    .values
                    .get(name)
                    .ok_or(format!("metric {name} was not measured"))?;
                Ok((name, value))
            })
            .collect()
    }

    fn metrics_json(&self, reported: &[(&'static str, &metrics::Value)]) -> JsonValue {
        JsonValue::Object(
            reported
                .iter()
                .map(|(name, v)| {
                    let fields = object([
                        ("value", number(v.value)),
                        ("unit", text(metrics::describe(name).0)),
                    ]);
                    ((*name).to_owned(), fields)
                })
                .collect(),
        )
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    fn driver_line(&self) -> Result<String, String> {
        Ok(object([
            ("correct", JsonValue::Bool(self.failures.is_empty())),
            ("attempted", number(self.attempted as f64)),
            ("failed", number(self.failed as f64)),
            ("metrics", self.metrics_json(&self.reported()?)),
        ])
        .to_string_compact())
    }

    fn print(&self) {
        println!(
            "\n== {} (trace {}): {} ==",
            self.workload.name,
            u8::from(self.traced),
            self.workload.why
        );
        println!(
            "{:<36} {:>16} {:<6} {:<7} {:>9}",
            "metric", "value", "unit", "better", "samples"
        );
        for (name, v) in &self.values {
            let (unit, better) = metrics::describe(name);
            println!(
                "{:<36} {:>16.4} {:<6} {:<7} {:>9} {}",
                name, v.value, unit, better, v.samples, v.note
            );
        }
        println!(
            "attempted {} failed {} correctness check: {}",
            self.attempted,
            self.failed,
            if self.failures.is_empty() {
                "pass"
            } else {
                "FAIL"
            }
        );
        for failure in &self.failures {
            println!("  check failed: {failure}");
        }
    }
}

/// Sets the pipeline up repeatedly, keeping the last, and returns it with
/// the median set-up time in seconds and the number of set-ups.
fn set_up(workload: Workload, seed: u64) -> Result<(Inputs, Pipeline, f64, u64), String> {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let inputs = Inputs::new(workload, seed);
        let pipeline = Pipeline::start(&inputs)?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && began.elapsed() >= SETUP_TIME {
            return Ok((inputs, pipeline, stats::median(&times), times.len() as u64));
        }
        pipeline.stop();
    }
}

fn run_one(
    workload: Workload,
    args: &RunArgs,
    traced: bool,
    host: &JsonValue,
) -> Result<Outcome, String> {
    let measured = Duration::from_secs(args.seconds);
    let (inputs, pipeline, setup_s, setups) = set_up(workload, args.seed)?;
    let mut run = live::run(&inputs, &pipeline, measured, traced);
    let mut failures = check::failures(&inputs, args.seed, pipeline.manager.store(), &run);
    pipeline.stop();

    let (mut values, attempted, failed) = metrics::of_live_run(&inputs, measured, traced, &mut run);
    put(&mut values, "setup_s", setup_s, setups);
    if traced {
        match staged::replay(&inputs) {
            Ok(layers) => {
                for (name, (value, samples)) in layers {
                    put(&mut values, name, value, samples);
                }
                add_budget(&mut values);
            }
            Err(why) => failures.push(why),
        }
    }
    let outcome = Outcome {
        workload,
        traced,
        failures,
        attempted,
        failed,
        values,
    };

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let write = |name: String, json: JsonValue| {
        let path = args.out.join(name);
        std::fs::write(&path, json.to_string_compact())
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    if traced {
        let mut spans = std::mem::take(&mut run.generated.spans);
        trace::merge(&mut spans, std::mem::take(&mut run.observed.spans));
        write(
            format!("{}.trace.json", workload.name),
            trace::to_json(&spans),
        )?;
    }
    let all: Vec<_> = outcome.values.iter().map(|(n, v)| (*n, v)).collect();
    write(
        format!(
            "{}.seed{}.trace{}.json",
            workload.name,
            args.seed,
            u8::from(traced)
        ),
        object([
            ("workload", text(workload.name)),
            ("seed", number(args.seed as f64)),
            ("trace", number(f64::from(u8::from(traced)))),
            ("seconds", number(args.seconds as f64)),
            ("warmup_s", number(live::WARMUP.as_secs_f64())),
            ("devices", number(workload.devices as f64)),
            (
                "tasks_per_s_per_device",
                number(f64::from(workload.tasks_per_s)),
            ),
            ("host", host.clone()),
            ("correct", JsonValue::Bool(outcome.failures.is_empty())),
            (
                "check_failures",
                JsonValue::Array(outcome.failures.iter().map(text).collect()),
            ),
            ("attempted", number(attempted as f64)),
            ("failed", number(failed as f64)),
            ("metrics", outcome.metrics_json(&all)),
        ]),
    )?;
    Ok(outcome)
}

/// The budget: what the staged layers add up to per record, against the CPU
/// the live pipeline spent per record. Per-publish layers are spread over
/// the records a live message carried.
fn add_budget(values: &mut Values) {
    let get = |name: &str| values.get(name).map_or(0.0, |v| v.value);
    let per_message = get("mqtt_client.us_per_publish")
        + get("mqtt_broker.us_per_publish")
        + get("mqtt_subscriber.us_per_publish");
    let staged = get("codec.encode_us_per_record")
        + get("codec.compress_us_per_record")
        + per_message / get("server.records_per_message").max(1.0)
        + get("codec.decompress_us_per_record")
        + get("codec.decode_us_per_record")
        + get("translator.us_per_record")
        + get("store.ingest_us_per_record");
    let live = get("budget.live_cpu_us_per_record");
    let records = values
        .get("budget.live_cpu_us_per_record")
        .map_or(0, |v| v.samples);
    put(values, "budget.staged_cpu_us_per_record", staged, records);
    put(
        values,
        "budget.unattributed_share",
        1.0 - staged / live,
        records,
    );
}

fn host_facts(calib_ns_per_iter: f64) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    object([
        ("nproc", number(nproc as f64)),
        ("kernel", text(procfs::kernel())),
        ("net.core.rmem_default", text(procfs::rmem_default())),
        ("git_commit", text(procfs::git_commit(&repo_root))),
        ("calib.ns_per_iter", number(calib_ns_per_iter)),
    ])
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let args = parse_run_args(args)?;
    let pairs: Vec<(Workload, bool)> = args
        .workloads
        .iter()
        .flat_map(|&w| args.traces.iter().map(move |&traced| (w, traced)))
        .collect();
    let mut all_correct = true;
    if let [(workload, traced)] = pairs[..] {
        let host = host_facts(calibrate());
        println!("host {}", host.to_string_compact());
        let outcome = run_one(workload, &args, traced, &host)?;
        outcome.print();
        all_correct = outcome.failures.is_empty();
        println!("{}", outcome.driver_line()?);
    } else {
        // One process per run: `rss_peak_mb` is the process's high-water
        // mark, which an earlier run in the same process would already have
        // raised, and each run's result line stands for that run alone.
        let me = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        for (workload, traced) in pairs {
            let status = std::process::Command::new(&me)
                .args(["run", "--workload", workload.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .status()
                .map_err(|e| format!("{}: {e}", me.display()))?;
            match status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Err(format!("run of {} ended with {status}", workload.name)),
            }
        }
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((command, rest)) if command == "run" => run(rest),
        Some((command, rest)) if command == "compare" => compare::main(rest),
        _ => Err("usage: provlight-benchmark run [--workload <name|all>] [--seed N] [--seconds S] [--trace 0|1|both] [--out DIR]\n       provlight-benchmark compare <setA> <setB>".to_owned()),
    };
    result.unwrap_or_else(|why| {
        eprintln!("provlight-benchmark: {why}");
        ExitCode::from(2)
    })
}
