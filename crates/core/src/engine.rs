//! The engine surface a collector drives: the batch hot path plus the
//! operational calls (metrics, telemetry, Prometheus text, alert draining,
//! EIA hot-reload, adoption events).
//!
//! There is one engine, [`ConcurrentAnalyzer`]; the trait is the seam the
//! `infilterd` pump and daemon are generic over. It takes `&mut self`
//! throughout — the *weaker* capability: [`ConcurrentAnalyzer`]'s inherent
//! methods stay `&self` (share it across threads), while a consumer that
//! owns its engine, like the daemon's single worker thread, needs no more
//! than exclusive access.

use std::sync::Arc;

use infilter_netflow::FlowBatch;

use crate::eia::EiaSnapshot;
use crate::observe::PipelineTelemetry;
use crate::{
    AdoptionEvent, AnalyzerConfig, AnalyzerMetrics, ConcurrentAnalyzer, Effort, EiaRegistry,
    FlowDecision, IdmefAlert, PeerId, Verdict,
};

/// The InFilter pipeline plus its operational surface, as the ingest pump
/// and daemon see it.
pub trait Engine {
    /// Runs a struct-of-arrays [`FlowBatch`] from one ingress at an
    /// explicit degradation rung, appending one verdict per flow to `out`
    /// (same order).
    fn process_flow_batch_into(
        &mut self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    );

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

    /// Renders the `/ops` attack-shape JSON document covering the newest
    /// `window` sealed intervals plus the cumulative top-K and per-peer
    /// health tables. Provided: the shape state lives in the telemetry.
    fn ops_json(&self, window: usize) -> String {
        self.telemetry().ops_json(window)
    }

    /// Hands every pending IDMEF alert to `sink`, ascending by message id,
    /// without allocating. An alert stands for every flow flagged through
    /// one ingress, at one stage, against one target since the previous
    /// drain ([`IdmefAlert::count`] of them): how often a consumer drains
    /// is how finely it sees an attack in time, and however the flagged
    /// flows are spread, a drain hands over a bounded number of alerts (at
    /// most `256 + 4 × ingresses` per shard) that together count every one
    /// of them.
    fn drain_alerts_into(&mut self, sink: &mut dyn FnMut(IdmefAlert));

    /// [`Engine::drain_alerts_into`] a fresh `Vec`.
    fn drain_alerts(&mut self) -> Vec<IdmefAlert>;

    /// The EIA table readers currently see.
    fn eia_snapshot(&self) -> Arc<EiaSnapshot>;

    /// Replaces the EIA registry wholesale (hot-reload), returning the
    /// preloaded prefix count now live.
    fn reload_eia(&mut self, eia: EiaRegistry) -> usize;

    /// Drains the adoption/expiry events buffered on the EIA write side
    /// since the last drain, appending them to `sink` in occurrence order.
    /// This is the narrow hook persistence (`infilter-store`) observes
    /// adoptions through.
    fn adoption_events(&mut self, sink: &mut Vec<AdoptionEvent>);
}

impl Engine for ConcurrentAnalyzer {
    fn process_flow_batch_into(
        &mut self,
        ingress: PeerId,
        batch: &FlowBatch,
        effort: Effort,
        out: &mut Vec<Verdict>,
    ) {
        ConcurrentAnalyzer::process_flow_batch_into(self, ingress, batch, effort, out)
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

    fn drain_alerts_into(&mut self, sink: &mut dyn FnMut(IdmefAlert)) {
        ConcurrentAnalyzer::drain_alerts_into(self, sink)
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
}
