//! The unified engine surface: one trait both analyzers implement.
//!
//! The repo grew three front-ends — [`Analyzer`], [`ConcurrentAnalyzer`],
//! and a deprecated mutex wrapper — each with a slightly different
//! signature set, so every consumer (the `infilterd` daemon, `exp-observe`,
//! benches, tests) had to pick one concretely. [`Engine`] is the common
//! denominator: the full per-flow pipeline plus the operational surface a
//! collector needs (metrics, telemetry, Prometheus text, alert draining,
//! EIA hot-reload).
//!
//! The trait takes `&mut self` throughout. That is the *weaker* capability:
//! [`ConcurrentAnalyzer`]'s inherent methods stay `&self` (share it across
//! threads as before), but a generic consumer that owns its engine — the
//! daemon's single worker thread, a test harness — can drive either
//! implementation through one signature without caring which it holds.

use std::sync::Arc;

use infilter_netflow::{FlowBatch, FlowRecord};

use crate::eia::EiaSnapshot;
use crate::observe::PipelineTelemetry;
use crate::{
    AdoptionEvent, Analyzer, AnalyzerConfig, AnalyzerMetrics, ConcurrentAnalyzer, Effort,
    EiaRegistry, FlowDecision, IdmefAlert, PeerId, Verdict,
};

/// The full InFilter pipeline plus its operational surface, abstracted over
/// the single-threaded and concurrent engines.
///
/// Provided methods cover the common conveniences (`process`,
/// `process_batch`) so implementors only supply the effort-aware core.
pub trait Engine {
    /// Runs one flow through the pipeline at an explicit degradation rung.
    fn process_with_effort(
        &mut self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict;

    /// The analyzer configuration this engine was trained with.
    fn config(&self) -> &AnalyzerConfig;

    /// Snapshot of the pipeline counters.
    fn metrics(&self) -> AnalyzerMetrics;

    /// The latency/telemetry recorder.
    fn telemetry(&self) -> &PipelineTelemetry;

    /// Renders the full Prometheus text-format exposition page.
    fn prometheus_text(&self) -> String;

    /// The most recent flight-recorder decisions, newest first.
    fn explain_last(&self, n: usize) -> Vec<FlowDecision>;

    /// Renders the newest `n` structured journal events as the `/events`
    /// JSON document (newest first). Provided: every engine exposes its
    /// journal through [`Engine::telemetry`].
    fn events_json(&self, n: usize) -> String {
        crate::observe::render_events_json(&self.telemetry().journal().last(n))
    }

    /// Renders the `/ops` attack-shape JSON document covering the newest
    /// `window` sealed intervals plus the cumulative top-K and per-peer
    /// health tables. Provided: the shape state lives in the telemetry.
    fn ops_json(&self, window: usize) -> String {
        self.telemetry().ops_json(window)
    }

    /// Drains pending IDMEF alerts in generation order.
    fn drain_alerts(&mut self) -> Vec<IdmefAlert>;

    /// The EIA table readers currently see.
    fn eia_snapshot(&self) -> Arc<EiaSnapshot>;

    /// Replaces the EIA registry wholesale (hot-reload), returning the
    /// preloaded prefix count now live.
    fn reload_eia(&mut self, eia: EiaRegistry) -> usize;

    /// Drains the adoption/expiry events buffered on the EIA write side
    /// since the last drain, appending them to `sink` in occurrence order.
    /// This is the narrow hook persistence (`infilter-store`) observes
    /// adoptions through without downcasting to a concrete analyzer.
    /// Engines without durable-event support leave `sink` untouched.
    fn adoption_events(&mut self, sink: &mut Vec<AdoptionEvent>) {
        let _ = sink;
    }

    /// Runs one flow at full effort.
    fn process(&mut self, ingress: PeerId, flow: &FlowRecord) -> Verdict {
        self.process_with_effort(ingress, flow, Effort::Full)
    }

    /// Runs a batch from one ingress at full effort.
    fn process_batch(&mut self, ingress: PeerId, flows: &[FlowRecord]) -> Vec<Verdict> {
        self.process_batch_with_effort(ingress, flows, Effort::Full)
    }

    /// Runs a batch from one ingress at an explicit degradation rung.
    fn process_batch_with_effort(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
    ) -> Vec<Verdict> {
        let mut out = Vec::with_capacity(flows.len());
        self.process_batch_into(ingress, flows, effort, &mut out);
        out
    }

    /// Runs a record-slice batch, appending one verdict per flow to `out`
    /// (same order). Callers that process batches in a loop reuse one
    /// verdict buffer instead of allocating a `Vec` per batch.
    fn process_batch_into(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        out.reserve(flows.len());
        for f in flows {
            let v = self.process_with_effort(ingress, f, effort);
            out.push(v);
        }
    }

    /// Runs a struct-of-arrays [`FlowBatch`], appending one verdict per
    /// flow to `out` (same order). Engines with a columnar hot path
    /// override this; the default materialises each record.
    fn process_flow_batch_into(
        &mut self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        out.reserve(batch.len());
        for i in 0..batch.len() {
            let v = self.process_with_effort(ingress, &batch.record(i), effort);
            out.push(v);
        }
    }
}

impl Engine for Analyzer {
    fn process_with_effort(
        &mut self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        Analyzer::process_with_effort(self, ingress, flow, effort)
    }

    fn config(&self) -> &AnalyzerConfig {
        Analyzer::config(self)
    }

    fn metrics(&self) -> AnalyzerMetrics {
        Analyzer::metrics(self).clone()
    }

    fn telemetry(&self) -> &PipelineTelemetry {
        Analyzer::telemetry(self)
    }

    fn prometheus_text(&self) -> String {
        Analyzer::prometheus_text(self)
    }

    fn explain_last(&self, n: usize) -> Vec<FlowDecision> {
        Analyzer::explain_last(self, n)
    }

    fn drain_alerts(&mut self) -> Vec<IdmefAlert> {
        Analyzer::drain_alerts(self)
    }

    fn eia_snapshot(&self) -> Arc<EiaSnapshot> {
        Arc::new(self.eia_view().clone())
    }

    fn reload_eia(&mut self, eia: EiaRegistry) -> usize {
        Analyzer::reload_eia(self, eia)
    }

    fn adoption_events(&mut self, sink: &mut Vec<AdoptionEvent>) {
        Analyzer::adoption_events(self, sink)
    }

    fn process_batch_into(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        Analyzer::process_batch_into(self, ingress, flows, effort, out)
    }

    fn process_flow_batch_into(
        &mut self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        Analyzer::process_flow_batch_into(self, ingress, batch, effort, out)
    }
}

impl Engine for ConcurrentAnalyzer {
    fn process_with_effort(
        &mut self,
        ingress: PeerId,
        flow: &FlowRecord,
        effort: Effort,
    ) -> Verdict {
        ConcurrentAnalyzer::process_with_effort(self, ingress, flow, effort)
    }

    fn config(&self) -> &AnalyzerConfig {
        ConcurrentAnalyzer::config(self)
    }

    fn metrics(&self) -> AnalyzerMetrics {
        ConcurrentAnalyzer::metrics(self)
    }

    fn telemetry(&self) -> &PipelineTelemetry {
        ConcurrentAnalyzer::telemetry(self)
    }

    fn prometheus_text(&self) -> String {
        ConcurrentAnalyzer::prometheus_text(self)
    }

    fn explain_last(&self, n: usize) -> Vec<FlowDecision> {
        ConcurrentAnalyzer::explain_last(self, n)
    }

    fn drain_alerts(&mut self) -> Vec<IdmefAlert> {
        ConcurrentAnalyzer::drain_alerts(self)
    }

    fn eia_snapshot(&self) -> Arc<EiaSnapshot> {
        ConcurrentAnalyzer::eia_snapshot(self)
    }

    fn reload_eia(&mut self, eia: EiaRegistry) -> usize {
        ConcurrentAnalyzer::reload_eia(self, eia)
    }

    fn adoption_events(&mut self, sink: &mut Vec<AdoptionEvent>) {
        ConcurrentAnalyzer::adoption_events(self, sink)
    }

    fn process_batch_with_effort(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
    ) -> Vec<Verdict> {
        ConcurrentAnalyzer::process_batch_with_effort(self, ingress, flows, effort)
    }

    fn process_batch_into(
        &mut self,
        ingress: PeerId,
        flows: &[FlowRecord],
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        ConcurrentAnalyzer::process_batch_into(self, ingress, flows, effort, out)
    }

    fn process_flow_batch_into(
        &mut self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        ConcurrentAnalyzer::process_flow_batch_into(self, ingress, batch, effort, out)
    }
}
