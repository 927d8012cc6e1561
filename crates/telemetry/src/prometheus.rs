//! Prometheus text exposition format 0.0.4 renderer.
//!
//! Reference: the Prometheus "Exposition formats" spec — `# HELP` / `# TYPE`
//! headers per family, one `name{label="value"} value` sample per line,
//! histograms as cumulative `_bucket{le="..."}` series plus `_sum`/`_count`.

use crate::histogram::Histogram;
use std::fmt::{Display, Write as _};

/// Incremental builder for one exposition page.
///
/// Emit each metric family exactly once (headers are written per call), then
/// take the page with [`PromText::render`].
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// Creates an empty page.
    pub fn new() -> PromText {
        PromText::default()
    }

    fn head(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn family<V: Display>(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        label: &str,
        samples: impl IntoIterator<Item = (V, u64)>,
    ) {
        self.head(name, help, kind);
        for (labelled, value) in samples {
            self.sample(name, Some((label, &labelled.to_string())), value);
        }
    }

    fn sample(&mut self, name: &str, label: Option<(&str, &str)>, value: impl Display) {
        self.out.push_str(name);
        if let Some((key, val)) = label {
            let _ = write!(self.out, "{{{key}=\"{}\"}}", escape_label(val));
        }
        let _ = writeln!(self.out, " {value}");
    }

    /// An unlabelled counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.head(name, help, "counter");
        self.sample(name, None, value);
    }

    /// A counter family with one sample per value of its one label.
    pub fn counter_family<V: Display>(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (V, u64)>,
    ) {
        self.family(name, help, "counter", label, samples);
    }

    /// An unlabelled gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.head(name, help, "gauge");
        self.sample(name, None, value);
    }

    /// A gauge family with one sample per value of its one label.
    pub fn gauge_family<V: Display>(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        samples: impl IntoIterator<Item = (V, u64)>,
    ) {
        self.family(name, help, "gauge", label, samples);
    }

    /// A histogram family: cumulative `_bucket{le=...}` counts for each of
    /// `bounds` (plus `+Inf`), then `_sum` and `_count`. Bounds are snapped
    /// to the histogram's log-linear bucket grid (<=3.1% wide), so each
    /// `le` count may over-count by at most one native bucket.
    pub fn histogram(&mut self, name: &str, help: &str, hist: &Histogram, bounds: &[u64]) {
        self.head(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        for &bound in bounds {
            let le = bound.to_string();
            let count = hist.count_le(bound).min(hist.count());
            self.sample(&bucket, Some(("le", &le)), count);
        }
        self.sample(&bucket, Some(("le", "+Inf")), hist.count());
        self.sample(&format!("{name}_sum"), None, hist.sum());
        self.sample(&format!("{name}_count"), None, hist.count());
    }

    /// Links a histogram's tail to a concrete trace: `exemplar` is the
    /// worst `(value, trace_id)` seen, if any, written as a full-line
    /// `# EXEMPLAR name value=V trace_id=N` comment. Prometheus parsers skip
    /// any `#` line that is not `HELP`/`TYPE`, so this is the spec-safe
    /// place for an out-of-band annotation.
    pub fn exemplar(&mut self, name: &str, exemplar: Option<(u64, u64)>) {
        if let Some((value, trace_id)) = exemplar {
            let _ = writeln!(
                self.out,
                "# EXEMPLAR {name} value={value} trace_id={trace_id}"
            );
        }
    }

    /// Finishes the page.
    pub fn render(self) -> String {
        self.out
    }
}

/// Reads the family declarations back off a rendered page, in page order,
/// as `(name, kind, help)`: every `# TYPE` line, with the text of the
/// `# HELP` line [`PromText`] wrote above it. This is what makes the
/// renderer the one place a family is declared — documentation and tests
/// derive the list from a page instead of keeping a copy of it.
pub fn page_families(page: &str) -> Vec<(&str, &str, &str)> {
    let mut families = Vec::new();
    let mut help = ("", "");
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            help = rest.split_once(' ').unwrap_or((rest, ""));
        } else if let Some((name, kind)) = line
            .strip_prefix("# TYPE ")
            .and_then(|rest| rest.split_once(' '))
        {
            families.push((name, kind, if help.0 == name { help.1 } else { "" }));
        }
    }
    families
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden rendering: the full page, byte for byte.
    #[test]
    fn golden_exposition_page() {
        let mut hist = Histogram::new();
        for v in [3u64, 40, 41, 900] {
            hist.record(v);
        }
        let mut page = PromText::new();
        page.counter("demo_flows_total", "Flows processed.", 12);
        page.counter_family(
            "demo_peer_suspects_total",
            "Suspects per peer.",
            "peer",
            [(1, 3), (2, 9)],
        );
        page.gauge("demo_occupancy", "Buffered flows.", 2.5);
        page.histogram("demo_latency_ns", "Latency.", &hist, &[10, 100, 1_000]);
        let expected = "\
# HELP demo_flows_total Flows processed.
# TYPE demo_flows_total counter
demo_flows_total 12
# HELP demo_peer_suspects_total Suspects per peer.
# TYPE demo_peer_suspects_total counter
demo_peer_suspects_total{peer=\"1\"} 3
demo_peer_suspects_total{peer=\"2\"} 9
# HELP demo_occupancy Buffered flows.
# TYPE demo_occupancy gauge
demo_occupancy 2.5
# HELP demo_latency_ns Latency.
# TYPE demo_latency_ns histogram
demo_latency_ns_bucket{le=\"10\"} 1
demo_latency_ns_bucket{le=\"100\"} 3
demo_latency_ns_bucket{le=\"1000\"} 4
demo_latency_ns_bucket{le=\"+Inf\"} 4
demo_latency_ns_sum 984
demo_latency_ns_count 4
";
        assert_eq!(page.render(), expected);
        assert_eq!(
            page_families(expected),
            vec![
                ("demo_flows_total", "counter", "Flows processed."),
                ("demo_peer_suspects_total", "counter", "Suspects per peer."),
                ("demo_occupancy", "gauge", "Buffered flows."),
                ("demo_latency_ns", "histogram", "Latency."),
            ],
            "the page reads back as the families it declares, in order"
        );
    }

    #[test]
    fn labels_are_escaped() {
        let mut page = PromText::new();
        page.counter_family(
            "demo_total",
            "Help with\nnewline and \\ slash.",
            "name",
            [("quo\"te\\path\nline", 1)],
        );
        let out = page.render();
        assert!(out.contains("# HELP demo_total Help with\\nnewline and \\\\ slash."));
        assert!(out.contains("name=\"quo\\\"te\\\\path\\nline\""));
    }
}
