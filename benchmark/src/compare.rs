//! `compare <setA> <setB>`: two sets of untraced results held against the
//! end-to-end regression bounds.
//!
//! A set is a directory of result files written by `run --out`. Per
//! workload and end-to-end metric the sets' medians, quartiles and extremes
//! are printed with a verdict on set B relative to set A:
//!
//! * `same` — B's median is no worse than A's by more than the bound;
//! * `worse` — it is, and both sets are steady enough to say so;
//! * `unresolved` — it is, but a set's spread (quartile distance over
//!   median) exceeds the bound, so the difference may be noise.
//!
//! Exits non-zero when any verdict is `worse`.

use crate::metrics::{Better, END_TO_END};
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use provlight::prov_codec::json::{parse, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Values by (workload, metric) over the untraced results in `dir`.
fn load(dir: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let result = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| parse(&t).map_err(|e| e.to_string()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        // Span logs and traced results live in the same directory.
        let (Some(workload), Some(0.0), Some(JsonValue::Object(metrics))) = (
            result.get("workload").and_then(JsonValue::as_str),
            result.get("trace").and_then(JsonValue::as_f64),
            result.get("metrics"),
        ) else {
            continue;
        };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(JsonValue::as_f64) {
                values
                    .entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(values)
}

/// Median, quartile spread as a share of the median, minimum and maximum.
struct Summary {
    quartiles: [f64; 3],
    min: f64,
    max: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        Summary {
            quartiles: quartiles(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn median(&self) -> f64 {
        self.quartiles[1]
    }

    fn spread(&self) -> f64 {
        (self.quartiles[2] - self.quartiles[0]) / self.median().abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict on set `b` relative to set `a` for a metric with the given
/// direction and bound.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> &'static str {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // How much worse B's median is, as a share of A's (negative = better).
    let worse_by = match better {
        Better::Lower => sb.median() / sa.median() - 1.0,
        Better::Higher => 1.0 - sb.median() / sa.median(),
    };
    if worse_by <= bound {
        "same"
    } else if sa.spread() > bound || sb.spread() > bound {
        "unresolved"
    } else {
        "worse"
    }
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result directories".to_owned());
    };
    let (set_a, set_b) = (load(Path::new(a))?, load(Path::new(b))?);
    let mut any_worse = false;
    let mut compared = 0;
    println!(
        "{:<16} {:<22} {:>44} {:>44}  verdict",
        "workload", "metric", "A median [q1 q3] (min max)", "B median [q1 q3] (min max)"
    );
    for (workload, metric) in WORKLOADS
        .iter()
        .flat_map(|w| END_TO_END.iter().map(move |m| (w, m)))
    {
        let key = (workload.name.to_owned(), metric.name.to_owned());
        let (Some(va), Some(vb)) = (set_a.get(&key), set_b.get(&key)) else {
            continue;
        };
        let show = |v: &[f64]| {
            let s = Summary::of(v);
            // A set-up of a millisecond needs its digits after the zeros.
            let digits = if s.median().abs() < 0.1 { 6 } else { 4 };
            format!(
                "{:.digits$} [{:.digits$} {:.digits$}] ({:.digits$} {:.digits$})",
                s.median(),
                s.quartiles[0],
                s.quartiles[2],
                s.min,
                s.max
            )
        };
        let verdict = verdict(va, vb, metric.better, metric.bound);
        any_worse |= verdict == "worse";
        compared += 1;
        println!(
            "{:<16} {:<22} {:>44} {:>44}  {verdict} (n={}/{}, bound {})",
            workload.name,
            metric.name,
            show(va),
            show(vb),
            va.len(),
            vb.len(),
            metric.bound
        );
    }
    if compared == 0 {
        return Err(format!("no untraced results in common between {a} and {b}"));
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0];
        // Within the bound either way.
        assert_eq!(
            verdict(&steady, &[105.0, 106.0, 104.0], Better::Lower, 0.1),
            "same"
        );
        assert_eq!(
            verdict(&steady, &[95.0, 96.0, 94.0], Better::Higher, 0.1),
            "same"
        );
        // Better is never a regression, however far.
        assert_eq!(
            verdict(&steady, &[50.0, 51.0, 49.0], Better::Lower, 0.1),
            "same"
        );
        // Worse by more than the bound, both sets steady.
        assert_eq!(
            verdict(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.1),
            "worse"
        );
        assert_eq!(
            verdict(&steady, &[80.0, 81.0, 79.0], Better::Higher, 0.1),
            "worse"
        );
        // The same difference inside a noisy set cannot be called.
        assert_eq!(
            verdict(&steady, &[120.0, 160.0, 90.0], Better::Lower, 0.1),
            "unresolved"
        );
    }
}
