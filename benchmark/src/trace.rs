//! Spans around the benchmark's own calls into each layer.
//!
//! Spans are recorded from outside the program: the benchmark wraps the
//! public calls it makes (`task.begin`, `next_page`, ...) and nests them
//! under the request that caused them (a task, a query, a staged publish).
//! They are held in memory and written out when the run ends. A layer's
//! *self time* is its span minus what its child spans cover, which is what
//! the caller itself spent between the calls it made.

use provlight::prov_codec::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `task.begin`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Device the call was made for, if any.
    pub device: Option<usize>,
    /// Identifier shared by the spans of one request (task or query number).
    pub request: u64,
}

/// An in-memory span log that can be switched off, so that slices of a run
/// can be measured with and without it.
pub struct Recorder {
    epoch: Instant,
    /// Whether `push` records anything.
    pub on: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log, switched off, timing from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            on: false,
            spans: Vec::new(),
        }
    }

    /// Records a call that ran from `start` to `end` and returns its index
    /// for use as a parent; `None` while switched off. The caller reads the
    /// clock, so the timestamps a measurement already takes are reused.
    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        device: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let since_epoch = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since_epoch(start),
            end_ns: since_epoch(end),
            parent,
            device,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Widens span `index` to end at `end`: a parent is pushed before its
    /// children so they can name it, and closed once the last has returned.
    pub fn close(&mut self, index: Option<usize>, end: Instant) {
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Appends `more` (one thread's log) to `all`, keeping parent links intact.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let offset = all.len();
    all.extend(more.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..s
    }));
}

/// Self time of every span: its duration minus the part its children
/// cover. One thread's calls are sequential, so children never overlap each
/// other and their clipped durations add up to what they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for child in spans {
        let Some((p, parent)) = child.parent.and_then(|p| Some((p, spans.get(p)?))) else {
            continue;
        };
        let covered = child
            .end_ns
            .min(parent.end_ns)
            .saturating_sub(child.start_ns.max(parent.start_ns));
        own[p] = own[p].saturating_sub(covered);
    }
    own
}

/// Call count and summed self time per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += own;
    }
    totals
}

/// Mean self time per call of `name`, in microseconds; 0 when never called.
pub fn self_us_per_call(totals: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    match totals.get(name) {
        Some(&(calls, ns)) if calls > 0 => ns as f64 / calls as f64 / 1e3,
        _ => 0.0,
    }
}

/// The span log as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> JsonValue {
    let number = |n: u64| JsonValue::Number(n as f64);
    let optional = |n: Option<usize>| n.map_or(JsonValue::Null, |n| number(n as u64));
    JsonValue::Array(
        spans
            .iter()
            .map(|s| {
                JsonValue::Object(BTreeMap::from([
                    ("name".to_owned(), JsonValue::String(s.name.to_owned())),
                    ("start_ns".to_owned(), number(s.start_ns)),
                    ("end_ns".to_owned(), number(s.end_ns)),
                    ("parent".to_owned(), optional(s.parent)),
                    ("device".to_owned(), optional(s.device)),
                    ("request".to_owned(), number(s.request)),
                ]))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            device: None,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span("task", 0, 100, None),
            span("task.begin", 10, 40, Some(0)),
            span("task.end", 50, 90, Some(0)),
            // A grandchild shortens its parent, not its grandparent.
            span("inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        let totals = self_time_by_name(&spans);
        assert_eq!(totals["task"], (1, 30));
        assert_eq!(self_us_per_call(&totals, "task.begin"), 0.03);
        assert_eq!(self_us_per_call(&totals, "absent"), 0.0);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![
            span("query", 10, 50, None),
            span("next_page", 40, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40]);
    }

    #[test]
    fn recorder_only_records_while_on_and_merge_keeps_parents() {
        let epoch = Instant::now();
        let later = epoch + Duration::from_micros(5);
        let mut a = Recorder::new(epoch);
        assert_eq!(a.push("off", (epoch, later), None, None, 0), None);
        a.on = true;
        let parent = a.push("query", (epoch, epoch), None, None, 7);
        let child = a.push("next_page", (epoch, later), parent, Some(1), 7);
        a.close(parent, later);
        assert_eq!((parent, child), (Some(0), Some(1)));
        let mut all = vec![span("other", 0, 1, None)];
        merge(&mut all, a.into_spans());
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(all[1].end_ns, 5_000);
        assert_eq!(self_times(&all), vec![1, 0, 5_000]);
        let json = to_json(&all).to_string_compact();
        assert!(json.contains(r#""name":"next_page""#) && json.contains(r#""parent":1"#));
    }
}
