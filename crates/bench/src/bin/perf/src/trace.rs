//! Reader for the `ARCHPREDICT_TRACE` JSONL span log: parses the events,
//! computes each span's self time from the parent links, and renders the
//! per-name table behind `perf report`.
//!
//! Span ids are per process, so a parent link is resolved within the
//! emitting pid; a span whose parent is absent from the log is a root.

use crate::stats::Dist;
use archpredict_stats::json::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;

/// One `"event":"span"` line of the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stable dotted name (`campaign.fit`, `serve.request`, …).
    pub name: String,
    /// Trace id (16 hex digits; all zeros when no trace was attached).
    pub trace: String,
    /// Span id, unique within `pid`.
    pub span: u64,
    /// Parent span id within `pid` (0 = none).
    pub parent: u64,
    /// Emitting process.
    pub pid: u64,
    /// Wall-clock start, microseconds since the Unix epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub elapsed_us: u64,
}

impl SpanEvent {
    fn from_json(value: &Value) -> Result<Self, String> {
        let num = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_u64)
                .map_err(|e| format!("{key}: {e}"))
        };
        let text = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .map_err(|e| format!("{key}: {e}"))
        };
        Ok(Self {
            name: text("name")?,
            trace: text("trace")?,
            span: num("span")?,
            parent: num("parent")?,
            pid: num("pid")?,
            start_us: num("start_us")?,
            elapsed_us: num("elapsed_us")?,
        })
    }
}

/// Parses a span log. Blank lines and events other than spans are
/// skipped; a malformed line is an error naming its line number.
pub fn parse(text: &str) -> Result<Vec<SpanEvent>, String> {
    let mut events = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: String| format!("trace line {}: {e}", number + 1);
        let value = Value::parse(line).map_err(|e| at(e.to_string()))?;
        if value.get("event").and_then(Value::as_str) != Ok("span") {
            continue;
        }
        events.push(SpanEvent::from_json(&value).map_err(at)?);
    }
    Ok(events)
}

/// Reads and parses the span log at `path`.
pub fn read(path: &Path) -> Result<Vec<SpanEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    parse(&text)
}

/// Self time of each event in microseconds: its duration minus the
/// durations of its children. Children share their parent's thread (the
/// span context is thread-local), so they never overlap one another.
pub fn self_us(events: &[SpanEvent]) -> Vec<u64> {
    let mut children: HashMap<(u64, u64), u64> = HashMap::new();
    for e in events.iter().filter(|e| e.parent != 0) {
        *children.entry((e.pid, e.parent)).or_default() += e.elapsed_us;
    }
    events
        .iter()
        .map(|e| {
            let inner = children.get(&(e.pid, e.span)).copied().unwrap_or(0);
            e.elapsed_us.saturating_sub(inner)
        })
        .collect()
}

/// The campaign phases a round is made of; their self times should cover
/// a campaign's wall time.
pub const CAMPAIGN_PHASES: [&str; 3] = ["campaign.select", "campaign.collect", "campaign.fit"];

/// Summed self time, in seconds, of the spans named `name` in trace
/// `trace`; `selfs` is [`self_us`] of `events`.
pub fn self_s(events: &[SpanEvent], selfs: &[u64], trace: &str, name: &str) -> f64 {
    events
        .iter()
        .zip(selfs)
        .filter(|(e, _)| e.trace == trace && e.name == name)
        .map(|(_, &s)| s as f64 / 1e6)
        .sum()
}

/// The log's wall-clock extent (first start to last end) and the part of
/// it no root span covers, both in microseconds.
pub fn uncovered_us(events: &[SpanEvent]) -> (u64, u64) {
    let ids: HashSet<(u64, u64)> = events.iter().map(|e| (e.pid, e.span)).collect();
    let mut roots: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.parent == 0 || !ids.contains(&(e.pid, e.parent)))
        .map(|e| (e.start_us, e.start_us + e.elapsed_us))
        .collect();
    roots.sort_unstable();
    let (Some(first), Some(last)) = (
        events.iter().map(|e| e.start_us).min(),
        events.iter().map(|e| e.start_us + e.elapsed_us).max(),
    ) else {
        return (0, 0);
    };
    let mut covered = 0;
    let mut reach = first;
    for (start, end) in roots {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (last - first, (last - first).saturating_sub(covered))
}

/// Per-name totals: count, total and self milliseconds, and p50 duration.
#[derive(Debug, Clone, PartialEq)]
pub struct NameRow {
    /// Span name.
    pub name: String,
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Median duration, ms.
    pub p50_ms: f64,
}

/// Aggregates `events` by span name, largest total first.
pub fn by_name(events: &[SpanEvent]) -> Vec<NameRow> {
    let selfs = self_us(events);
    let mut groups: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
    for (e, s) in events.iter().zip(selfs) {
        let (durations, self_ms) = groups.entry(&e.name).or_default();
        durations.push(e.elapsed_us as f64 / 1e3);
        *self_ms += s as f64 / 1e3;
    }
    let mut rows: Vec<NameRow> = groups
        .into_iter()
        .map(|(name, (durations, self_ms))| NameRow {
            name: name.to_owned(),
            count: durations.len(),
            total_ms: durations.iter().sum(),
            self_ms,
            p50_ms: Dist::of(&durations).p50,
        })
        .collect();
    rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms).then(a.name.cmp(&b.name)));
    rows
}

/// The `perf report` table for a whole log.
pub fn render(events: &[SpanEvent]) -> String {
    let mut out = format!(
        "{:<24} {:>7} {:>12} {:>12} {:>10}\n",
        "span", "count", "total_ms", "self_ms", "p50_ms"
    );
    for row in by_name(events) {
        out.push_str(&format!(
            "{:<24} {:>7} {:>12.3} {:>12.3} {:>10.3}\n",
            row.name, row.count, row.total_ms, row.self_ms, row.p50_ms
        ));
    }
    let (extent, uncovered) = uncovered_us(events);
    out.push_str(&format!(
        "{:<24} {:>7} {:>12.3}\n{:<24} {:>7} {:>12.3}\n",
        "(outside any span)",
        "",
        uncovered as f64 / 1e3,
        "(log extent)",
        "",
        extent as f64 / 1e3
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(name: &str, span: u64, parent: u64, pid: u64, start: u64, elapsed: u64) -> String {
        format!(
            "{{\"event\":\"span\",\"name\":\"{name}\",\"trace\":\"00000000000000ab\",\
             \"span\":{span},\"parent\":{parent},\"pid\":{pid},\"start_us\":{start},\
             \"elapsed_us\":{elapsed}}}\n"
        )
    }

    /// A round (span 1) with select, collect and fit children; collect
    /// has a child of its own. Pid 7 reuses span id 2 with a dangling
    /// parent link, which must neither steal pid 1's children nor count
    /// as pid 1's child.
    fn tree() -> Vec<SpanEvent> {
        let text = [
            line("campaign.select", 2, 1, 1, 1_000, 100),
            line("sim.inner", 4, 3, 1, 1_200, 300),
            line("campaign.collect", 3, 1, 1, 1_100, 500),
            line("campaign.fit", 5, 1, 1, 1_600, 350),
            line("campaign.round", 1, 0, 1, 1_000, 1_000),
            line("serve.request", 2, 9, 7, 3_000, 200),
        ]
        .concat();
        parse(&text).expect("well-formed log")
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = tree();
        let selfs: HashMap<&str, u64> = events
            .iter()
            .map(|e| e.name.as_str())
            .zip(self_us(&events))
            .collect();
        assert_eq!(selfs["campaign.round"], 1_000 - 100 - 500 - 350);
        assert_eq!(selfs["campaign.collect"], 500 - 300);
        assert_eq!(selfs["sim.inner"], 300);
        assert_eq!(selfs["campaign.select"], 100);
        assert_eq!(selfs["serve.request"], 200);
    }

    #[test]
    fn uncovered_time_is_the_gap_between_roots() {
        // Roots: the round [1000, 2000) and the orphaned request
        // [3000, 3200); extent [1000, 3200) leaves a 1000 us gap.
        assert_eq!(uncovered_us(&tree()), (2_200, 1_000));
        assert_eq!(uncovered_us(&[]), (0, 0));
    }

    #[test]
    fn by_name_totals_and_report_lines() {
        let rows = by_name(&tree());
        assert_eq!(rows[0].name, "campaign.round");
        assert_eq!(rows[0].count, 1);
        assert!((rows[0].self_ms - 0.05).abs() < 1e-12);
        let report = render(&tree());
        assert!(report.contains("campaign.collect"));
        assert!(report.contains("(outside any span)"));
    }

    #[test]
    fn malformed_lines_are_errors_and_other_events_are_skipped() {
        let mixed = format!(
            "{}{{\"event\":\"note\"}}\n\n",
            line("infer.sweep", 1, 0, 1, 5, 6)
        );
        assert_eq!(parse(&mixed).expect("skips non-spans").len(), 1);
        let err = parse("{\"event\":\"span\",\"name\":\"x\"}\n").expect_err("missing fields");
        assert!(err.starts_with("trace line 1:"), "{err}");
    }
}
