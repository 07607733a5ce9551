//! Finished-profile exports: Chrome `trace_event` JSON and a text
//! hot-path report.
//!
//! The Chrome export is written with `pdpa-obs`'s [`TraceEventWriter`],
//! the same writer as the decision-stream exporter: a single JSON object
//! `{"traceEvents":[...]}` that Perfetto and `chrome://tracing` load
//! directly. Profiler spans are emitted as complete
//! (`"ph":"X"`) events — each carries its own duration, so no begin/end
//! pairing is needed — on one thread lane per shard, named via thread_name
//! metadata records.

use crate::span::{SpanKind, SpanRec};
use pdpa_obs::json::Quoted;
use pdpa_obs::TraceEventWriter;

/// Spans and counters collected by one lane over a run.
#[derive(Clone, Debug)]
pub struct LaneProfile {
    /// Display name: `coordinator` or `shard-N`.
    pub name: String,
    /// Every closed span, in close order.
    pub spans: Vec<SpanRec>,
    /// Events processed by this lane (see `Lane::add_events`).
    pub events: u64,
}

/// A finished profile: one [`LaneProfile`] per lane, lane 0 being the
/// coordinator.
#[derive(Clone, Debug)]
pub struct Profile {
    /// Per-lane span buffers, coordinator first.
    pub lanes: Vec<LaneProfile>,
}

impl Profile {
    /// Assembles a profile from drained lanes (coordinator first).
    pub fn from_lanes(lanes: Vec<LaneProfile>) -> Self {
        Profile { lanes }
    }

    /// True when no lane recorded any span.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.spans.is_empty())
    }

    /// Total wall-clock nanoseconds attributed to `kind` across all lanes.
    pub fn total_ns(&self, kind: SpanKind) -> u64 {
        self.lanes
            .iter()
            .flat_map(|l| &l.spans)
            .filter(|s| s.kind == kind)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Chrome `trace_event` JSON with one timeline lane per profiler lane.
    pub fn chrome_json(&self) -> String {
        let mut w = TraceEventWriter::default();
        w.push(format_args!(
            "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"pdpa replay profile\"}}"
        ));
        for (tid, lane) in self.lanes.iter().enumerate() {
            w.push(format_args!(
                "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}",
                Quoted(&lane.name)
            ));
        }
        for (tid, lane) in self.lanes.iter().enumerate() {
            for s in &lane.spans {
                w.push(format_args!(
                    "\"name\":\"{}\",\"cat\":\"prof\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid}",
                    s.kind.label(),
                    us(s.start_ns),
                    us(s.dur_ns)
                ));
            }
        }
        w.finish()
    }

    /// Plain-text hot-path report: per-kind count / total / share / mean,
    /// plus per-lane event counts and the shard imbalance figure.
    pub fn hot_path_report(&self) -> String {
        let replay_ns = self.total_ns(SpanKind::Replay).max(1);
        let mut out = String::from("hot-path report (wall-clock, all lanes)\n");
        out.push_str(&format!(
            "{:<16} {:>10} {:>12} {:>7} {:>12}\n",
            "span", "count", "total ms", "%", "mean us"
        ));
        for kind in SpanKind::ALL {
            let spans: Vec<&SpanRec> = self
                .lanes
                .iter()
                .flat_map(|l| &l.spans)
                .filter(|s| s.kind == kind)
                .collect();
            if spans.is_empty() {
                continue;
            }
            let total: u64 = spans.iter().map(|s| s.dur_ns).sum();
            out.push_str(&format!(
                "{:<16} {:>10} {:>12.3} {:>6.1}% {:>12.2}\n",
                kind.label(),
                spans.len(),
                total as f64 / 1e6,
                100.0 * total as f64 / replay_ns as f64,
                total as f64 / 1e3 / spans.len() as f64,
            ));
        }
        let shard_events: Vec<u64> = self.lanes.iter().skip(1).map(|l| l.events).collect();
        if !shard_events.is_empty() {
            out.push_str("per-shard events: ");
            out.push_str(
                &shard_events
                    .iter()
                    .map(|e| e.to_string())
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            if let Some(imb) = imbalance(&shard_events) {
                out.push_str(&format!("  (imbalance {:.3})", imb));
            }
            out.push('\n');
        }
        if let Some(kib) = crate::health::memory_high_water_kib() {
            out.push_str(&format!("memory high-water: {} KiB\n", kib));
        }
        out
    }
}

/// Max-over-mean minus one for a set of per-shard event counts: `0.0` means
/// perfectly balanced shards, `1.0` means the busiest shard saw twice the
/// mean. `None` when the counts are empty or all zero.
pub fn imbalance(events: &[u64]) -> Option<f64> {
    let sum: u64 = events.iter().sum();
    if events.is_empty() || sum == 0 {
        return None;
    }
    let mean = sum as f64 / events.len() as f64;
    let max = *events.iter().max().expect("non-empty") as f64;
    Some(max / mean - 1.0)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile::from_lanes(vec![
            LaneProfile {
                name: "coordinator".into(),
                spans: vec![
                    SpanRec {
                        kind: SpanKind::Replay,
                        start_ns: 0,
                        dur_ns: 10_000,
                    },
                    SpanRec {
                        kind: SpanKind::Round,
                        start_ns: 100,
                        dur_ns: 4_000,
                    },
                ],
                events: 0,
            },
            LaneProfile {
                name: "shard-0".into(),
                spans: vec![SpanRec {
                    kind: SpanKind::ShardAdvance,
                    start_ns: 200,
                    dur_ns: 3_000,
                }],
                events: 30,
            },
            LaneProfile {
                name: "shard-1".into(),
                spans: vec![],
                events: 10,
            },
        ])
    }

    #[test]
    fn chrome_json_has_one_lane_per_shard() {
        let json = sample().chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"shard-0\""));
        assert!(json.contains("\"name\":\"shard-1\""));
        assert!(json.contains("\"name\":\"coordinator\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"shard_advance\""));
    }

    #[test]
    fn hot_path_report_aggregates_kinds() {
        let rep = sample().hot_path_report();
        assert!(rep.contains("replay"));
        assert!(rep.contains("shard_advance"));
        assert!(rep.contains("per-shard events: 30 10"));
        // max/mean - 1 = 30/20 - 1 = 0.5
        assert!(rep.contains("imbalance 0.500"));
    }

    #[test]
    fn imbalance_figures() {
        assert_eq!(imbalance(&[]), None);
        assert_eq!(imbalance(&[0, 0]), None);
        assert_eq!(imbalance(&[10, 10]), Some(0.0));
        assert_eq!(imbalance(&[30, 10]), Some(0.5));
    }
}
