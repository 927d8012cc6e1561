//! Engine construction for the daemon: preload the EIA table from the
//! config and — in Enhanced mode — train the normal cluster.
//!
//! A border-router deployment would train on an archived flow capture; the
//! daemon instead *synthesizes* a normal trace over the configured peers'
//! own prefixes (the traffic model the paper's testbed uses), which keeps
//! `infilterd` runnable from a config file alone. The synthesized cluster
//! is exactly what Dagflow-replayed normal traffic looks like, so the
//! smoke gate trains and detects against matching distributions.

use std::time::Duration;

use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, ConfigError, Engine, JournalEvent, Mode,
    TelemetryConfig, Trainer,
};
use infilter_dagflow::{AddressMapper, Dagflow, DagflowConfig};
use infilter_net::Prefix;
use infilter_nns::NnsParams;
use infilter_store::{restore_registry, DiskOptions, DiskStore, EiaStore, ReplayReport};
use infilter_traffic::NormalProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::DaemonConfig;

/// Training knobs for [`bootstrap_engine`]. The defaults are the small
/// testbed shape: quick to train, plenty for the collector's workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapConfig {
    /// Master seed for the synthesized training trace and NNS build.
    pub seed: u64,
    /// Flows in the synthesized training trace.
    pub training_flows: usize,
    /// The target network's address space destinations map into.
    pub target_prefix: Prefix,
    /// Bits per flow characteristic.
    pub bits_per_feature: usize,
    /// NNS shape (`d` derived per subcluster).
    pub nns: NnsParams,
}

impl Default for BootstrapConfig {
    fn default() -> BootstrapConfig {
        BootstrapConfig {
            seed: 0x1f11,
            training_flows: 600,
            target_prefix: "96.1.0.0/16".parse().expect("static prefix"),
            bits_per_feature: 16,
            nns: NnsParams {
                d: 0,
                m1: 1,
                m2: 8,
                m3: 2,
            },
        }
    }
}

/// Everything engine construction can trip over.
#[derive(Debug)]
pub enum BootstrapError {
    /// The analyzer configuration failed validation.
    Config(ConfigError),
    /// Enhanced-mode training failed (e.g. no peers to synthesize from).
    Train(String),
    /// The durable store could not be opened or replayed.
    Store(std::io::Error),
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::Config(e) => write!(f, "analyzer config: {e}"),
            BootstrapError::Train(why) => write!(f, "training: {why}"),
            BootstrapError::Store(e) => write!(f, "durable store: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {}

/// Builds the concurrent engine the daemon runs: EIA preloaded from the
/// config's `peer` lines, trained on a synthesized normal trace when the
/// mode is Enhanced.
///
/// # Errors
///
/// Returns [`BootstrapError`] if the analyzer config fails validation or
/// Enhanced training cannot proceed (no peers configured).
pub fn bootstrap_engine(
    cfg: &DaemonConfig,
    boot: &BootstrapConfig,
) -> Result<ConcurrentAnalyzer, BootstrapError> {
    bootstrap_with_store(cfg, boot).map(|(engine, _)| engine)
}

/// [`bootstrap_engine`], plus the durable EIA store when `cfg.store_dir`
/// is set: the store is opened *before* training, its snapshot and
/// adoption log are replayed into the EIA registry (the warm restart —
/// previously adopted prefixes skip the sighting threshold entirely),
/// and the recovery is journaled. The returned store, if any, should be
/// handed to [`Daemon::spawn_with_store`](crate::Daemon::spawn_with_store)
/// so new adoptions keep flowing to disk.
///
/// # Errors
///
/// Returns [`BootstrapError`] if the analyzer config fails validation,
/// Enhanced training cannot proceed, or the store directory cannot be
/// opened. A corrupt or torn log is *not* an error: recovery truncates
/// to the longest clean prefix and continues.
#[allow(clippy::type_complexity)]
pub fn bootstrap_with_store(
    cfg: &DaemonConfig,
    boot: &BootstrapConfig,
) -> Result<(ConcurrentAnalyzer, Option<Box<dyn EiaStore + Send>>), BootstrapError> {
    let analyzer_cfg: AnalyzerConfig = AnalyzerConfig::builder()
        .mode(cfg.mode)
        .nns(boot.nns)
        .bits_per_feature(boot.bits_per_feature)
        .seed(boot.seed ^ 0x7e57)
        .telemetry(TelemetryConfig {
            journal_capacity: cfg.journal_capacity,
            shape_sample_every: cfg.shape_sample_every,
            shape_top_k: cfg.shape_top_k,
            shape_window_secs: cfg.shape_window_secs,
            shape_windows: cfg.shape_windows,
            drift_threshold_milli: (cfg.drift_threshold * 1000.0).round() as u32,
            peer_family_cap: cfg.peer_family_cap,
            ..TelemetryConfig::default()
        })
        .build()
        .map_err(BootstrapError::Config)?;
    let mut eia = cfg.eia_registry(analyzer_cfg.adoption_threshold);
    // Warm restart: replay durable state into the registry *before*
    // training so the trained engine publishes the recovered table from
    // its very first snapshot.
    let mut store: Option<Box<dyn EiaStore + Send>> = None;
    let mut recovery: Option<ReplayReport> = None;
    if let Some(dir) = &cfg.store_dir {
        let disk = DiskStore::open_with(
            dir,
            DiskOptions {
                segment_bytes: cfg.store_segment_bytes,
            },
        )
        .map_err(|e| BootstrapError::Store(e.into_io()))?;
        let replay = disk
            .replay()
            .map_err(|e| BootstrapError::Store(e.into_io()))?;
        restore_registry(&replay, &mut eia);
        recovery = Some(replay.report);
        store = Some(Box::new(disk));
    }
    let trainer = Trainer::new(analyzer_cfg);
    let analyzer = match cfg.mode {
        Mode::Basic => trainer.train_basic(eia),
        Mode::Enhanced => {
            if cfg.peers.is_empty() {
                return Err(BootstrapError::Train(
                    "enhanced mode needs at least one `peer` line to synthesize training traffic"
                        .into(),
                ));
            }
            let training = synthesize_training(cfg, boot);
            trainer
                .train_enhanced(eia, &training)
                .map_err(|e| BootstrapError::Train(e.to_string()))?
        }
    };
    let engine = ConcurrentAnalyzer::new(
        analyzer,
        ConcurrentConfig {
            shards: cfg.shards,
            ..ConcurrentConfig::default()
        },
    );
    if let Some(report) = recovery {
        let age_seconds = report
            .snapshot_sealed_at_ms
            .map(|sealed| wall_ms().saturating_sub(sealed) / 1000)
            .unwrap_or(u64::MAX);
        let telemetry = Engine::telemetry(&engine);
        telemetry.note_store_recovery(
            report.records_replayed,
            u64::from(report.segments_scanned),
            age_seconds,
        );
        telemetry.journal().record(JournalEvent::StoreRecovery {
            records: report.records_replayed.min(u64::from(u32::MAX)) as u32,
            segments: report.segments_scanned,
            snapshot_age_seconds: age_seconds.min(u64::from(u32::MAX)) as u32,
        });
    }
    Ok((engine, store))
}

/// Milliseconds since the Unix epoch, for snapshot-age reporting.
fn wall_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Synthesizes the normal training cluster over the configured peers'
/// prefixes, as flow records.
fn synthesize_training(
    cfg: &DaemonConfig,
    boot: &BootstrapConfig,
) -> Vec<infilter_netflow::FlowRecord> {
    let trace = NormalProfile::default().generate(
        &mut StdRng::seed_from_u64(boot.seed ^ 0x7ea1),
        boot.training_flows,
        60_000,
    );
    let sources = AddressMapper::weighted(cfg.peers.iter().map(|&(_, p)| (p, 1.0)).collect());
    let dagflow = Dagflow::new(DagflowConfig {
        sources,
        target_prefix: boot.target_prefix,
        export_port: 9000,
        input_if: 0,
        src_as: 0,
    });
    dagflow.replay_records(&trace, 0)
}

/// Spawns the daemon around a freshly bootstrapped engine and blocks
/// until `POST /v1/shutdown`, printing the final report. The `infilterd`
/// binary's serve path.
///
/// # Errors
///
/// Propagates [`BootstrapError`] and socket errors as strings.
pub fn run_until_shutdown(cfg: &DaemonConfig, boot: &BootstrapConfig) -> Result<(), String> {
    let (engine, store) = bootstrap_with_store(cfg, boot).map_err(|e| e.to_string())?;
    let warm = Engine::telemetry(&engine).store_recovery();
    let daemon = crate::Daemon::spawn_with_store(engine, cfg, store).map_err(|e| e.to_string())?;
    println!(
        "infilterd: NetFlow v5 on udp://{} — control on http://{}",
        daemon.udp_addr(),
        daemon.http_addr()
    );
    println!(
        "routes: {}",
        crate::daemon::route_paths().collect::<Vec<_>>().join(" ")
    );
    if warm.0 {
        println!(
            "warm restart: replayed {} adoption records from {} segments",
            warm.1, warm.2
        );
    }
    daemon.wait();
    // Give the in-flight /v1/shutdown response a beat to flush.
    std::thread::sleep(Duration::from_millis(50));
    let report = daemon.shutdown();
    println!(
        "final: {} flows in ({} shed), {} attacks, {} alerts spooled, {} ladder transitions",
        report.ingest.flows,
        report.ingest.shed_flows,
        report.engine.attacks(),
        report.alerts.len(),
        report.ingest.transitions,
    );
    Ok(())
}
