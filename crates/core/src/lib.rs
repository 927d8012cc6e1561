//! InFilter core: the paper's primary contribution.
//!
//! Predictive ingress filtering detects spoofed-source IP traffic near the
//! *target* of an attack by checking each incoming flow against the
//! **Expected IP Address (EIA) set** of the peer AS it arrived through
//! (§3), and — in the *Enhanced* configuration — passing EIA-suspect flows
//! through **Scan Analysis** (§4.1) and **KOR nearest-neighbour anomaly
//! detection** (§4.2) to suppress the false positives genuine route changes
//! would otherwise cause.
//!
//! The crate mirrors the paper's two operating phases:
//!
//! * **Training** ([`Trainer`]): build EIA sets (preloaded, learned from
//!   live flows, or derived from traceroute/BGP data by the caller),
//!   partition a normal cluster into per-service subclusters, build one NNS
//!   structure per subcluster, and establish per-subcluster Hamming
//!   distance thresholds (§5.1.3 a–d).
//! * **Online operation** ([`ConcurrentAnalyzer`]): per-flow
//!   `EIA check → Scan Analysis → NNS search` with IDMEF alert generation
//!   (§5.1.3 e, Figure 12), implemented once. [`Mode::Basic`] stops after
//!   the EIA check — the paper's BI software configuration;
//!   [`Mode::Enhanced`] is EI. Training hands over an [`Analyzer`]: that
//!   engine with one shard (the paper's scan semantics exactly), for one
//!   caller; [`ConcurrentAnalyzer::new`] re-shards it for several
//!   collector threads, and [`Engine`] is what the ingest daemon drives.
//!
//! # Examples
//!
//! ```
//! use infilter_core::{AnalyzerConfig, EiaRegistry, Mode, PeerId, Trainer};
//! use infilter_netflow::FlowRecord;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut eia = EiaRegistry::new(3);
//! eia.preload(PeerId(1), "3.0.0.0/11".parse()?);
//! eia.preload(PeerId(2), "4.64.0.0/11".parse()?);
//!
//! // Basic InFilter: no training needed.
//! let analyzer = Trainer::new(AnalyzerConfig::builder().mode(Mode::Basic).build()?)
//!     .train_basic(eia);
//!
//! let legal = FlowRecord { src_addr: "3.0.0.9".parse()?, ..FlowRecord::default() };
//! assert!(analyzer.process(PeerId(1), &legal).is_legal());
//!
//! let spoofed = FlowRecord { src_addr: "4.64.0.9".parse()?, ..FlowRecord::default() };
//! assert!(analyzer.process(PeerId(1), &spoofed).is_attack());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alert;
mod cluster;
mod concurrent;
mod eia;
mod engine;
mod metrics;
mod observe;
mod pipeline;
mod scan;
mod snapshot;
mod traceback;

pub use alert::{IdmefAlert, ParseAlertError};
pub use cluster::{ClusterModel, SubclusterModel, ThresholdPolicy, TrainError};
pub use concurrent::{ConcurrentAnalyzer, ConcurrentConfig};
pub use eia::{AdoptionAction, AdoptionEvent, EiaRegistry, EiaSnapshot, EiaVerdict, PeerId};
pub use engine::Engine;
pub use metrics::{AnalyzerMetrics, AtomicStageLatency, ConcurrentMetrics, StageLatency};
pub use observe::{
    render_events_json, FlowDecision, JournalEvent, PeerCounters, PeerShapeSummary, PeerWindow,
    PipelineTelemetry, ShapeSummary, ShapeWindow, SnapshotHealth, TelemetryConfig,
};
pub use pipeline::{
    Analyzer, AnalyzerConfig, AnalyzerConfigBuilder, AttackStage, ConfigError, Effort, Mode,
    Trainer, Verdict,
};
pub use scan::{ScanAnalyzer, ScanConfig, ScanVerdict};
pub use snapshot::SnapshotCell;
pub use traceback::{IngressActivity, TracebackReport};
