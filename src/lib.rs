//! Facade crate re-exporting the complete InFilter reproduction workspace.
//!
//! See the workspace `README.md` for the architecture and `DESIGN.md` for the
//! paper-to-module mapping. The individual subsystems live in their own
//! crates and are re-exported here under short module names so examples and
//! downstream users need a single dependency.

#![forbid(unsafe_code)]

pub use infilter_baselines as baselines;
pub use infilter_bgp as bgp;
pub use infilter_core as core;
pub use infilter_dagflow as dagflow;
pub use infilter_experiments as experiments;
pub use infilter_flowtools as flowtools;
pub use infilter_ingest as ingest;
pub use infilter_net as net;
pub use infilter_netflow as netflow;
pub use infilter_nns as nns;
pub use infilter_telemetry as telemetry;
pub use infilter_topology as topology;
pub use infilter_traceroute as traceroute;
pub use infilter_traffic as traffic;

/// One-stop surface: everything a collector or analysis deployment needs,
/// importable with `use infilter::prelude::*`.
pub mod prelude {
    pub use infilter_core::{
        Analyzer, AnalyzerConfig, AnalyzerConfigBuilder, AnalyzerMetrics, AttackStage,
        ConcurrentAnalyzer, ConcurrentConfig, ConfigError, Effort, EiaRegistry, EiaSnapshot,
        Engine, FlowDecision, IdmefAlert, Mode, PeerId, PipelineTelemetry, TelemetryConfig,
        Trainer, Verdict,
    };
    pub use infilter_netflow::{Datagram, FlowRecord};
    pub use infilter_nns::NnsParams;
}
