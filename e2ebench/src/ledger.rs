//! The in-harness span recorder and the per-layer ledger it folds into.
//!
//! The benchmark measures every layer from outside: a span is opened around
//! each call into a public function of the collector, kept in memory, and
//! written out as Chrome trace JSON when the run ends. A layer's *self time*
//! is its spans' duration minus the part their child spans cover, so the
//! ledger's rows add up to the traced total.

use std::fmt::Write as _;
use std::time::Instant;

/// The boundaries a span can sit on. One per public call the harness makes,
/// plus the two enclosing loops of the shadow pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// One push-then-drain round of the single-thread phases (the root).
    Round,
    /// `Intake::push_payload_stamped` (B1: decode + copy + enqueue).
    PushPayload,
    /// `IngestPump::step` (B1: pop + engine + alerts + store).
    PumpStep,
    /// The shadow pump's equivalent of one `step` (B2; its self time is the
    /// loop around the calls below).
    ShadowStep,
    /// `FlowBatch::decode_datagram`.
    Decode,
    /// `Intake::push_flow_batch`.
    Push,
    /// `Intake::pop_round`.
    Pop,
    /// `Engine::process_flow_batch_into`.
    Engine,
    /// `Engine::drain_alerts`.
    Alert,
    /// `Engine::adoption_events` + `EiaStore::append`.
    Store,
}

impl Layer {
    const ALL: [Layer; 10] = [
        Layer::Round,
        Layer::PushPayload,
        Layer::PumpStep,
        Layer::ShadowStep,
        Layer::Decode,
        Layer::Push,
        Layer::Pop,
        Layer::Engine,
        Layer::Alert,
        Layer::Store,
    ];

    /// `module.call`, the name in the ledger and the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Round => "harness.round",
            Layer::PushPayload => "intake.push_payload",
            Layer::PumpStep => "pump.step",
            Layer::ShadowStep => "pump.shadow_step",
            Layer::Decode => "netflow.decode",
            Layer::Push => "intake.push",
            Layer::Pop => "intake.pop",
            Layer::Engine => "engine.process",
            Layer::Alert => "alert.drain",
            Layer::Store => "store.append",
        }
    }
}

/// Where the harness reports layer boundaries. The untraced phases use
/// [`Off`], which compiles to nothing, so traced and untraced runs execute
/// the same harness code.
pub trait Probe {
    /// Opens a span for `layer`, caused by datagram `dgram`, under whatever
    /// span is open.
    fn enter(&mut self, layer: Layer, dgram: u32);
    /// Closes the innermost open span.
    fn exit(&mut self);
}

/// The probe of the untraced phases.
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn enter(&mut self, _: Layer, _: u32) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Index of the enclosing span, `u32::MAX` for a root.
    parent: u32,
    dgram: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder with room for `spans` spans, so recording does not
    /// reallocate inside the timed region.
    pub fn with_capacity(spans: usize) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for Recorder {
    #[inline]
    fn enter(&mut self, layer: Layer, dgram: u32) {
        let parent = self.open.last().copied().unwrap_or(u32::MAX);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            dgram,
            start_ns,
            end_ns: start_ns,
        });
    }

    #[inline]
    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let span = self.open.pop().expect("exit without a matching enter");
        self.spans[span as usize].end_ns = end_ns;
    }
}

/// One ledger row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    pub layer: Layer,
    pub calls: u64,
    /// Sum of the layer's span durations.
    pub total_ns: u64,
    /// Total minus what child spans cover.
    pub self_ns: u64,
}

/// The folded per-layer view of one traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub rows: Vec<Row>,
}

impl Ledger {
    /// The row for `layer` (all zeros if it never ran).
    pub fn row(&self, layer: Layer) -> Row {
        self.rows
            .iter()
            .copied()
            .find(|r| r.layer == layer)
            .unwrap_or(Row {
                layer,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            })
    }

    /// Sum of every layer's self time: the traced total, if the spans nest
    /// properly.
    pub fn self_sum_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.self_ns).sum()
    }
}

impl Recorder {
    /// Folds the recorded spans into per-layer totals and self times.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open — an unbalanced probe is a harness
    /// bug that would silently skew every row.
    pub fn ledger(&self) -> Ledger {
        assert!(self.open.is_empty(), "{} spans left open", self.open.len());
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if span.parent != u32::MAX {
                let covered = self.spans[i].end_ns - self.spans[i].start_ns;
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(covered);
            }
        }
        let rows = Layer::ALL
            .iter()
            .map(|&layer| {
                let mut row = Row {
                    layer,
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                };
                for (span, own) in self.spans.iter().zip(&own) {
                    if span.layer == layer {
                        row.calls += 1;
                        row.total_ns += span.end_ns - span.start_ns;
                        row.self_ns += own;
                    }
                }
                row
            })
            .filter(|row| row.calls > 0)
            .collect();
        Ledger { rows }
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The first `limit` spans as Chrome trace-event JSON (complete events,
    /// microsecond timestamps; load in `ui.perfetto.dev` or
    /// `chrome://tracing`). `tid` separates the passes of one run.
    pub fn chrome_events(&self, tid: u32, limit: usize, out: &mut String) {
        for (i, span) in self.spans.iter().take(limit).enumerate() {
            if !out.is_empty() {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{},\"dgram\":{}}}}}",
                span.layer.name(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                if span.parent == u32::MAX {
                    -1
                } else {
                    i64::from(span.parent)
                },
                span.dgram,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_root() {
        let mut rec = Recorder::with_capacity(16);
        rec.enter(Layer::Round, 0);
        rec.enter(Layer::Decode, 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.exit();
        rec.enter(Layer::ShadowStep, 0);
        rec.enter(Layer::Engine, 0);
        std::thread::sleep(std::time::Duration::from_millis(3));
        rec.exit();
        rec.exit();
        rec.exit();
        let ledger = rec.ledger();
        let root = ledger.row(Layer::Round);
        assert_eq!(root.calls, 1);
        assert_eq!(ledger.self_sum_ns(), root.total_ns);
        assert!(ledger.row(Layer::Decode).self_ns >= 2_000_000);
        assert!(ledger.row(Layer::Engine).self_ns >= 3_000_000);
        let step = ledger.row(Layer::ShadowStep);
        assert_eq!(
            step.self_ns,
            step.total_ns - ledger.row(Layer::Engine).total_ns
        );
        assert_eq!(ledger.row(Layer::Store).calls, 0);
    }

    #[test]
    fn chrome_events_carry_parent_links() {
        let mut rec = Recorder::with_capacity(4);
        rec.enter(Layer::Round, 7);
        rec.enter(Layer::Pop, 7);
        rec.exit();
        rec.exit();
        let mut out = String::new();
        rec.chrome_events(2, 10, &mut out);
        let doc = crate::json::parse(&format!("[{out}]")).expect("valid JSON");
        let events = doc.as_array().expect("array");
        assert_eq!(events.len(), 2);
        let parent = |e: &crate::json::Value| {
            e.get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64())
        };
        assert_eq!(parent(&events[0]), Some(-1.0));
        assert_eq!(parent(&events[1]), Some(0.0));
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("intake.pop")
        );
    }

    #[test]
    #[should_panic(expected = "left open")]
    fn an_unbalanced_probe_is_caught() {
        let mut rec = Recorder::with_capacity(2);
        rec.enter(Layer::Round, 0);
        rec.ledger();
    }
}
