//! Prometheus text-format and Chrome-trace validators.
//!
//! Used two ways: unit-style (render → check round-trips in this
//! crate) and end-to-end in CI — the replay binary writes its real
//! exposition, and a test re-parses it asserting the invariants a
//! scraper relies on:
//!
//! - metric names are legal and `# TYPE` is declared once, before any
//!   sample of its family;
//! - no duplicate `(name, labelset)` sample;
//! - counter samples are finite and non-negative;
//! - histogram series have ascending `le` bounds, monotone
//!   non-decreasing cumulative counts, a `+Inf` bucket, and a `_count`
//!   equal to the `+Inf` bucket.
//!
//! [`check_trace`] plays the same role for the merged trace document
//! that `--trace-out` emits ([`crate::trace::MergedTrace`]): every
//! event well-formed, per-thread timestamps monotone, begin/end spans
//! properly nested with matching names, no span left open.

use crate::json::Json;
use std::collections::{BTreeMap, HashMap, HashSet};

/// What a successful check saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromSummary {
    /// `# TYPE`-declared families.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
}

/// One parsed sample line.
#[derive(Debug)]
struct ParsedSample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
    line_no: usize,
}

fn valid_name(name: &str) -> bool {
    crate::snapshot::valid_metric_name(name)
}

/// Parses `{k="v",…}` starting after `{`; returns labels and the rest
/// of the line after the closing `}`.
fn parse_labels(s: &str) -> Result<(BTreeMap<String, String>, &str), String> {
    let mut labels = BTreeMap::new();
    let mut rest = s.trim_start();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix('}') {
            return Ok((labels, r));
        }
        let eq = rest.find('=').ok_or("label without '='")?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].trim_start();
        let mut chars = rest.char_indices();
        if chars.next().map(|(_, c)| c) != Some('"') {
            return Err("label value not quoted".into());
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, c) in chars {
            if escaped {
                match c {
                    'n' => value.push('\n'),
                    c => value.push(c),
                }
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                end = Some(i);
                break;
            } else {
                value.push(c);
            }
        }
        let end = end.ok_or("unterminated label value")?;
        if labels.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate label key {key:?}"));
        }
        rest = rest[end + 1..].trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest);
    }
}

fn parse_sample(line: &str, line_no: usize) -> Result<ParsedSample, String> {
    let name_end = line
        .find(|c: char| c == '{' || c.is_whitespace())
        .ok_or("sample line without value")?;
    let name = line[..name_end].to_string();
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(r) = rest.strip_prefix('{') {
        parse_labels(r)?
    } else {
        (BTreeMap::new(), rest)
    };
    let mut fields = rest.split_whitespace();
    let value_s = fields.next().ok_or("missing value")?;
    let value = if value_s == "+Inf" {
        f64::INFINITY
    } else {
        value_s
            .parse::<f64>()
            .map_err(|_| format!("unparseable value {value_s:?}"))?
    };
    Ok(ParsedSample {
        name,
        labels,
        value,
        line_no,
    })
}

/// Strips a histogram component suffix, returning the base family name.
fn histogram_base<'a>(name: &'a str, histogram_types: &HashSet<String>) -> Option<&'a str> {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histogram_types.contains(base) {
                return Some(base);
            }
        }
    }
    None
}

/// Validates Prometheus text exposition.
///
/// # Errors
///
/// Returns every violated invariant as a human-readable message with a
/// line number.
pub fn check_prometheus(text: &str) -> Result<PromSummary, Vec<String>> {
    let mut errors = Vec::new();
    let mut types: HashMap<String, (String, usize)> = HashMap::new(); // name -> (kind, line)
    let mut samples: Vec<ParsedSample> = Vec::new();
    let mut seen_sample_for: HashSet<String> = HashSet::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !valid_name(name) {
                        errors.push(format!("line {line_no}: invalid metric name {name:?}"));
                    }
                    if !["counter", "gauge", "histogram", "summary", "untyped"].contains(&kind) {
                        errors.push(format!("line {line_no}: unknown TYPE kind {kind:?}"));
                    }
                    if seen_sample_for.contains(name) {
                        errors.push(format!(
                            "line {line_no}: TYPE for {name} after its first sample"
                        ));
                    }
                    if types.insert(name.to_string(), (kind.to_string(), line_no)).is_some() {
                        errors.push(format!("line {line_no}: duplicate TYPE for {name}"));
                    }
                }
                (Some("HELP"), Some(name), _) if !valid_name(name) => {
                    errors.push(format!("line {line_no}: invalid metric name {name:?}"));
                }
                _ => {} // other comments are fine
            }
            continue;
        }
        match parse_sample(line, line_no) {
            Ok(s) => {
                if !valid_name(&s.name) {
                    errors.push(format!("line {line_no}: invalid metric name {:?}", s.name));
                }
                seen_sample_for.insert(s.name.clone());
                samples.push(s);
            }
            Err(e) => errors.push(format!("line {line_no}: {e}")),
        }
    }

    let histogram_types: HashSet<String> = types
        .iter()
        .filter(|(_, (k, _))| k == "histogram")
        .map(|(n, _)| n.clone())
        .collect();

    // Duplicate (name, labelset) detection.
    let mut seen: HashSet<String> = HashSet::new();
    for s in &samples {
        let key = format!("{}{:?}", s.name, s.labels);
        if !seen.insert(key) {
            errors.push(format!(
                "line {}: duplicate sample {} {:?}",
                s.line_no, s.name, s.labels
            ));
        }
    }

    for s in &samples {
        let base = histogram_base(&s.name, &histogram_types);
        let family = base.unwrap_or(&s.name);
        let Some((kind, _)) = types.get(family) else {
            errors.push(format!(
                "line {}: sample {} has no # TYPE declaration",
                s.line_no, s.name
            ));
            continue;
        };
        // Counter-like values (counters and histogram components) must
        // be finite and non-negative; +Inf is only legal as an `le`
        // label, never a value.
        if (kind == "counter" || kind == "histogram") && !(s.value >= 0.0 && s.value.is_finite()) {
            errors.push(format!(
                "line {}: {} value {} must be finite and >= 0",
                s.line_no, s.name, s.value
            ));
        }
        if kind == "histogram" && base.is_none() {
            errors.push(format!(
                "line {}: histogram family {} sampled without _bucket/_sum/_count suffix",
                s.line_no, s.name
            ));
        }
    }

    // Histogram bucket structure, per (family, labelset-minus-le).
    type SeriesKey = (String, String);
    let mut buckets: HashMap<SeriesKey, Vec<(f64, f64, usize)>> = HashMap::new(); // (le, cum, line)
    let mut counts: HashMap<SeriesKey, f64> = HashMap::new();
    for s in &samples {
        let Some(base) = histogram_base(&s.name, &histogram_types) else {
            continue;
        };
        let mut labels = s.labels.clone();
        let le = labels.remove("le");
        let key = (base.to_string(), format!("{labels:?}"));
        if s.name.ends_with("_bucket") {
            let Some(le) = le else {
                errors.push(format!("line {}: _bucket without le label", s.line_no));
                continue;
            };
            let le_v = if le == "+Inf" {
                f64::INFINITY
            } else {
                match le.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => {
                        errors.push(format!("line {}: unparseable le {le:?}", s.line_no));
                        continue;
                    }
                }
            };
            buckets.entry(key).or_default().push((le_v, s.value, s.line_no));
        } else if s.name.ends_with("_count") {
            counts.insert(key, s.value);
        }
    }
    for ((family, labels), series) in &buckets {
        for w in series.windows(2) {
            let ((le_a, cum_a, _), (le_b, cum_b, line_b)) = (w[0], w[1]);
            if le_b <= le_a {
                errors.push(format!(
                    "line {line_b}: {family}_bucket{labels} le {le_b} not ascending after {le_a}"
                ));
            }
            if cum_b < cum_a {
                errors.push(format!(
                    "line {line_b}: {family}_bucket{labels} cumulative {cum_b} < {cum_a}"
                ));
            }
        }
        let Some((last_le, last_cum, last_line)) = series.last().copied() else {
            continue;
        };
        if last_le.is_finite() {
            errors.push(format!(
                "line {last_line}: {family}_bucket{labels} missing +Inf bucket"
            ));
        } else if let Some(count) = counts.get(&(family.clone(), labels.clone())) {
            if (count - last_cum).abs() > f64::EPSILON {
                errors.push(format!(
                    "line {last_line}: {family}{labels} _count {count} != +Inf bucket {last_cum}"
                ));
            }
        }
    }

    if errors.is_empty() {
        Ok(PromSummary {
            families: types.len(),
            samples: samples.len(),
        })
    } else {
        Err(errors)
    }
}

/// One event from a parsed trace document. Field types are owned so
/// inspectors can hold records independently of the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Event name, e.g. `"ingest"`.
    pub name: String,
    /// Phase code: `"B"`, `"E"` or `"i"`.
    pub phase: String,
    /// Origin-relative timestamp, nanoseconds.
    pub ts: u64,
    /// Recording thread (shard index or the coordinator sentinel).
    pub tid: u64,
    /// Epoch the event belongs to.
    pub epoch: u64,
}

/// A parsed `--trace-out` document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDoc {
    /// Events in document order.
    pub events: Vec<TraceRecord>,
    /// The producer's dropped-events counter.
    pub dropped: u64,
}

/// What a successful [`check_trace`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Events parsed.
    pub events: usize,
    /// Distinct thread ids.
    pub threads: usize,
    /// Completed begin/end span pairs.
    pub spans: usize,
    /// The document's dropped-events counter.
    pub dropped: u64,
}

fn event_u64(ev: &Json, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<u64> {
    match ev.get(key) {
        Some(v) => match v.as_u64() {
            Some(n) => Some(n),
            None => {
                errors.push(format!("event {idx}: {key} is not a non-negative integer"));
                None
            }
        },
        None => {
            errors.push(format!("event {idx}: missing {key}"));
            None
        }
    }
}

fn event_str(ev: &Json, key: &str, idx: usize, errors: &mut Vec<String>) -> Option<String> {
    match ev.get(key) {
        Some(v) => match v.as_str() {
            Some(s) => Some(s.to_string()),
            None => {
                errors.push(format!("event {idx}: {key} is not a string"));
                None
            }
        },
        None => {
            errors.push(format!("event {idx}: missing {key}"));
            None
        }
    }
}

/// Parses a trace document without enforcing ordering/nesting
/// invariants (that is [`check_trace`]'s job). Inspectors that only
/// need the records use this directly.
///
/// # Errors
///
/// Returns every structural problem as a human-readable message that
/// names where it is: the JSON parser's byte offset, the byte offset
/// of the document object for a missing or mistyped top-level key, or
/// the index of the offending event.
pub fn parse_trace(text: &str) -> Result<TraceDoc, Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![format!("document: {e}")])?;
    // A well-formed document is one object; top-level problems name
    // the byte where it starts.
    let at = text.len() - text.trim_start().len();
    let mut errors = Vec::new();
    let Some(events_json) = doc.get("traceEvents") else {
        return Err(vec![format!("byte {at}: document: missing traceEvents")]);
    };
    let Some(items) = events_json.as_arr() else {
        return Err(vec![format!("byte {at}: document: traceEvents is not an array")]);
    };
    let dropped = match doc.get("dropped") {
        Some(v) => v.as_u64().unwrap_or_else(|| {
            errors.push(format!(
                "byte {at}: document: dropped is not a non-negative integer"
            ));
            0
        }),
        None => {
            errors.push(format!("byte {at}: document: missing dropped counter"));
            0
        }
    };
    let mut events = Vec::with_capacity(items.len());
    for (idx, ev) in items.iter().enumerate() {
        if ev.as_obj().is_none() {
            errors.push(format!("event {idx}: not an object"));
            continue;
        }
        let name = event_str(ev, "name", idx, &mut errors);
        let phase = event_str(ev, "ph", idx, &mut errors);
        let ts = event_u64(ev, "ts", idx, &mut errors);
        let tid = event_u64(ev, "tid", idx, &mut errors);
        let epoch = event_u64(ev, "epoch", idx, &mut errors);
        if let (Some(name), Some(phase), Some(ts), Some(tid), Some(epoch)) =
            (name, phase, ts, tid, epoch)
        {
            events.push(TraceRecord {
                name,
                phase,
                ts,
                tid,
                epoch,
            });
        }
    }
    if errors.is_empty() {
        Ok(TraceDoc { events, dropped })
    } else {
        Err(errors)
    }
}

/// Validates a merged Chrome-trace document.
///
/// Invariants enforced, per recording thread:
///
/// - phase codes are `B`/`E`/`i` only;
/// - timestamps are monotone non-decreasing in document order;
/// - `B`/`E` form a proper stack: every `E` closes the innermost open
///   span and matches its name and epoch, and no span is left open at
///   end of document.
///
/// # Errors
///
/// Returns every violated invariant as a human-readable message.
pub fn check_trace(text: &str) -> Result<TraceSummary, Vec<String>> {
    let doc = parse_trace(text)?;
    let mut errors = Vec::new();
    let mut last_ts: HashMap<u64, u64> = HashMap::new();
    let mut stacks: HashMap<u64, Vec<(String, u64, usize)>> = HashMap::new();
    let mut spans = 0usize;
    for (idx, ev) in doc.events.iter().enumerate() {
        if !["B", "E", "i"].contains(&ev.phase.as_str()) {
            errors.push(format!("event {idx}: unknown phase {:?}", ev.phase));
            continue;
        }
        if let Some(&prev) = last_ts.get(&ev.tid) {
            if ev.ts < prev {
                errors.push(format!(
                    "event {idx}: tid {} ts {} goes backwards (previous {prev})",
                    ev.tid, ev.ts
                ));
            }
        }
        last_ts.insert(ev.tid, ev.ts);
        let stack = stacks.entry(ev.tid).or_default();
        match ev.phase.as_str() {
            "B" => stack.push((ev.name.clone(), ev.epoch, idx)),
            "E" => match stack.pop() {
                Some((name, epoch, _)) => {
                    if name != ev.name || epoch != ev.epoch {
                        errors.push(format!(
                            "event {idx}: tid {} end {:?} epoch {} closes open span {name:?} epoch {epoch}",
                            ev.tid, ev.name, ev.epoch
                        ));
                    } else {
                        spans += 1;
                    }
                }
                None => errors.push(format!(
                    "event {idx}: tid {} end {:?} with no open span",
                    ev.tid, ev.name
                )),
            },
            _ => {}
        }
    }
    for (tid, stack) in &stacks {
        for (name, epoch, idx) in stack {
            errors.push(format!(
                "event {idx}: tid {tid} span {name:?} epoch {epoch} never closed"
            ));
        }
    }
    if errors.is_empty() {
        Ok(TraceSummary {
            events: doc.events.len(),
            threads: last_ts.len(),
            spans,
            dropped: doc.dropped,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::render_prometheus;
    use crate::hist::LogLinearHistogram;
    use crate::snapshot::Snapshot;

    #[test]
    fn valid_exposition_round_trips() {
        let mut snap = Snapshot::new();
        snap.push_counter("pkts_total", "packets", &[("shard", "0")], 10);
        snap.push_counter("pkts_total", "packets", &[("shard", "1")], 20);
        snap.push_gauge("depth", "queue depth", &[], -3);
        let mut h = LogLinearHistogram::new(3);
        for v in 0..1000u64 {
            h.record(v * 17);
        }
        snap.push_histogram("lat_ns", "latency", &[("stage", "merge")], &h);
        let text = render_prometheus(&snap);
        let summary = check_prometheus(&text).expect("round-trip must validate");
        assert_eq!(summary.families, 3);
        assert!(summary.samples > 4);
    }

    #[test]
    fn duplicate_sample_flagged() {
        let text = "# TYPE a counter\na{x=\"1\"} 5\na{x=\"1\"} 6\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("duplicate sample")), "{errs:?}");
    }

    #[test]
    fn duplicate_with_distinct_labels_ok() {
        let text = "# TYPE a counter\na{x=\"1\"} 5\na{x=\"2\"} 6\n";
        assert!(check_prometheus(text).is_ok());
    }

    #[test]
    fn negative_counter_flagged() {
        let text = "# TYPE a counter\na -1\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains(">= 0")), "{errs:?}");
    }

    #[test]
    fn negative_gauge_ok() {
        let text = "# TYPE g gauge\ng -1\n";
        assert!(check_prometheus(text).is_ok());
    }

    #[test]
    fn missing_type_flagged() {
        let text = "a 1\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
    }

    #[test]
    fn type_after_sample_flagged() {
        let text = "a 1\n# TYPE a counter\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("after its first sample")), "{errs:?}");
    }

    #[test]
    fn nonmonotone_histogram_flagged() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"2\"} 3\n\
                    h_bucket{le=\"+Inf\"} 6\n\
                    h_sum 9\nh_count 6\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("cumulative")), "{errs:?}");
    }

    #[test]
    fn missing_inf_bucket_flagged() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 5\nh_count 5\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
    }

    #[test]
    fn count_bucket_mismatch_flagged() {
        let text = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 5\nh_count 7\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
    }

    #[test]
    fn unordered_le_flagged() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"5\"} 1\n\
                    h_bucket{le=\"2\"} 2\n\
                    h_bucket{le=\"+Inf\"} 3\n\
                    h_sum 1\nh_count 3\n";
        let errs = check_prometheus(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not ascending")), "{errs:?}");
    }

    fn trace_doc(events: &str, dropped: u64) -> String {
        format!("{{\"traceEvents\":[{events}],\"dropped\":{dropped},\"threads\":0}}")
    }

    fn ev(name: &str, ph: &str, ts: u64, tid: u64, epoch: u64) -> String {
        format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":0,\"tid\":{tid},\"epoch\":{epoch}}}"
        )
    }

    #[test]
    fn merged_tracer_output_passes_check_trace() {
        use crate::trace::{MergedTrace, Tracer};
        let mut coord = Tracer::new(16);
        let mut shard = Tracer::for_shard(16, 0, coord.origin());
        coord.begin("ingest", 0);
        shard.begin("ingest", 0);
        shard.end("ingest", 0);
        coord.end("ingest", 0);
        coord.instant("alert", 0);
        let json = MergedTrace::merge([&coord, &shard]).to_chrome_json();
        let summary = check_trace(&json).expect("real merged output must validate");
        assert_eq!(summary.events, 5);
        assert_eq!(summary.threads, 2);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.dropped, 0);
    }

    #[test]
    fn interleaved_threads_validate_independently() {
        let events = [
            ev("ingest", "B", 0, 4_294_967_295, 0),
            ev("ingest", "B", 1, 0, 0),
            ev("ingest", "B", 2, 1, 0),
            ev("ingest", "E", 3, 1, 0),
            ev("ingest", "E", 5, 0, 0),
            ev("ingest", "E", 9, 4_294_967_295, 0),
        ]
        .join(",");
        let summary = check_trace(&trace_doc(&events, 2)).unwrap();
        assert_eq!(summary.threads, 3);
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.dropped, 2);
    }

    #[test]
    fn backwards_time_within_a_thread_flagged() {
        let events = [ev("a", "i", 10, 0, 0), ev("b", "i", 5, 0, 0)].join(",");
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("goes backwards")), "{errs:?}");
    }

    #[test]
    fn mismatched_span_name_flagged() {
        let events = [ev("a", "B", 0, 0, 0), ev("b", "E", 1, 0, 0)].join(",");
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("closes open span")), "{errs:?}");
    }

    #[test]
    fn unclosed_and_unopened_spans_flagged() {
        let open = check_trace(&trace_doc(&ev("a", "B", 0, 0, 0), 0)).unwrap_err();
        assert!(open.iter().any(|e| e.contains("never closed")), "{open:?}");
        let close = check_trace(&trace_doc(&ev("a", "E", 0, 0, 0), 0)).unwrap_err();
        assert!(close.iter().any(|e| e.contains("no open span")), "{close:?}");
    }

    #[test]
    fn malformed_trace_documents_flagged() {
        assert!(check_trace("not json").is_err());
        assert!(check_trace("{}").unwrap_err()[0].contains("traceEvents"));
        let errs = check_trace("{\"traceEvents\":[{\"ph\":\"i\"}],\"dropped\":0}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing name")), "{errs:?}");
        let errs = check_trace("{\"traceEvents\":[]}").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("dropped")), "{errs:?}");
        let events = ev("a", "X", 0, 0, 0);
        let errs = check_trace(&trace_doc(&events, 0)).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unknown phase")), "{errs:?}");
    }
}
