//! Traced-run measurements of single layers that no pump phase isolates:
//! the EIA classify pass, table preload and compile, NNS training, store
//! replay, and the engine at each rung of the ladder.
//!
//! All of it goes through public functions of the workspace crates; nothing
//! here is on the path of an end-to-end metric.

use std::time::Instant;

use infilter_core::{
    AnalyzerConfig, ConcurrentAnalyzer, ConcurrentConfig, Effort, EiaVerdict, Engine, PeerId,
    TelemetryConfig, Trainer, Verdict,
};
use infilter_dagflow::{AddressMapper, Dagflow, DagflowConfig};
use infilter_ingest::bootstrap::BootstrapConfig;
use infilter_ingest::DaemonConfig;
use infilter_netflow::{FlowBatch, FlowRecord};
use infilter_store::{restore_registry, DiskStore, EiaStore};
use infilter_traffic::NormalProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::harness::Env;
use crate::run::median;
use crate::workload::{self, Workload};

/// Datagrams decoded ahead of each timed sweep, so a sweep is long enough
/// that its two clock reads do not show even with one-record datagrams.
const SWEEP: usize = 1024;

/// What the traced run learns about single layers.
#[derive(Debug, Clone, Default)]
pub struct Micro {
    pub classify_ns_per_flow: f64,
    pub preload_ms: f64,
    pub compile_ms: f64,
    pub prefixes: usize,
    pub snapshot_bytes: usize,
    pub train_ms: f64,
    pub replay_ms: f64,
    /// Engine time per flow at `Effort::{Full, SkipNns, BiOnly}`.
    pub rung_ns_per_flow: [f64; 3],
    /// Suspects per flow in the rung sweep (the same for every rung).
    pub suspect_share: f64,
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The normal cluster `bootstrap_with_store` would synthesize, except that
/// sources come from the 64 owned prefixes whatever the table: the NNS
/// features (bytes, packets, duration, rates) never see an address, so the
/// trained model is the same, and the 100 k-entry mapper walk is skipped.
fn training_cluster(boot: &BootstrapConfig) -> Vec<FlowRecord> {
    let trace = NormalProfile::default().generate(
        &mut StdRng::seed_from_u64(boot.seed ^ 0x7ea1),
        boot.training_flows,
        60_000,
    );
    Dagflow::new(DagflowConfig {
        sources: AddressMapper::weighted(
            workload::owned_table()
                .iter()
                .map(|&(_, p)| (p, 1.0))
                .collect(),
        ),
        target_prefix: boot.target_prefix,
        export_port: 9000,
        input_if: 0,
        src_as: 0,
    })
    .replay_records(&trace, 0)
}

/// Measures the single layers on `w`, playing datagrams `from..` of the
/// phase numbering (so salted sources continue where the passes left off).
pub fn measure(
    env: &Env,
    cfg: &DaemonConfig,
    w: &mut Workload,
    from: u64,
    dgrams: u64,
) -> std::io::Result<Micro> {
    let mut micro = Micro::default();
    let boot = BootstrapConfig {
        training_flows: env.plan.training_flows,
        ..BootstrapConfig::default()
    };

    // eia: preload from the config's peer lines, as the boot does.
    micro.preload_ms = median(
        (0..3)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(cfg.eia_registry(0));
                ms_since(started)
            })
            .collect(),
    );

    // store: open + replay + restore, as the warm boot does.
    let mut registry = cfg.eia_registry(0);
    if env.plan.warm_log {
        let mut samples = Vec::new();
        for _ in 0..3 {
            let mut warm = cfg.eia_registry(0);
            let dir = env.fresh_store_dir()?.expect("warm plans have a log");
            let started = Instant::now();
            let store = DiskStore::open(&dir).map_err(|e| e.into_io())?;
            let replay = store.replay().map_err(|e| e.into_io())?;
            restore_registry(&replay, &mut warm);
            samples.push(ms_since(started));
            registry = warm;
        }
        micro.replay_ms = median(samples);
    }

    // lpm: one republish = one full compile of the table.
    let mut snapshot = registry.snapshot();
    micro.compile_ms = median(
        (0..5)
            .map(|_| {
                let started = Instant::now();
                snapshot = registry.snapshot();
                ms_since(started)
            })
            .collect(),
    );
    micro.prefixes = snapshot.prefix_count();
    micro.snapshot_bytes = snapshot.approx_bytes();

    // nns + engine: three adoption-disabled engines, one per rung, so the
    // mix stays stationary and the rungs see the same batches.
    let training = training_cluster(&boot);
    let analyzer_cfg = AnalyzerConfig::builder()
        .mode(cfg.mode)
        .nns(boot.nns)
        .bits_per_feature(boot.bits_per_feature)
        .seed(boot.seed ^ 0x7e57)
        .adoption_threshold(0)
        .telemetry(TelemetryConfig {
            journal_capacity: cfg.journal_capacity,
            shape_sample_every: cfg.shape_sample_every,
            shape_top_k: cfg.shape_top_k,
            shape_window_secs: cfg.shape_window_secs,
            shape_windows: cfg.shape_windows,
            peer_family_cap: cfg.peer_family_cap,
            ..TelemetryConfig::default()
        })
        .build()
        .map_err(std::io::Error::other)?;
    let mut train_samples = Vec::new();
    let mut engines = Vec::new();
    for _ in Effort::ALL {
        let started = Instant::now();
        let analyzer = Trainer::new(analyzer_cfg)
            .train_enhanced(registry.clone(), &training)
            .map_err(std::io::Error::other)?;
        train_samples.push(ms_since(started));
        engines.push(ConcurrentAnalyzer::new(
            analyzer,
            ConcurrentConfig {
                shards: cfg.shards,
                ..ConcurrentConfig::default()
            },
        ));
    }
    micro.train_ms = median(train_samples);

    let mut batches: Vec<FlowBatch> = (0..SWEEP).map(|_| FlowBatch::with_capacity(30)).collect();
    let mut eia_out: Vec<EiaVerdict> = Vec::new();
    let mut verdicts: Vec<Verdict> = Vec::new();
    let (mut classify_ns, mut rung_ns, mut flows) = (0u64, [0u64; 3], 0u64);
    let per_lap = w.dgrams() as u64;
    let mut next = from;
    while next < from + dgrams {
        let end = (next + SWEEP as u64).min(from + dgrams);
        let mut used = 0;
        for n in next..end {
            let i = (n % per_lap) as usize;
            w.salt(i, n / per_lap);
            batches[used].clear();
            if batches[used].decode_datagram(w.dgram(i)).is_ok() {
                flows += batches[used].len() as u64;
                used += 1;
            }
        }
        let sweep = &batches[..used];
        let started = Instant::now();
        for batch in sweep {
            snapshot.classify_batch_into(
                PeerId(batch.input_ifs()[0]),
                batch.src_addr_bits(),
                &mut eia_out,
            );
            std::hint::black_box(&eia_out);
        }
        classify_ns += started.elapsed().as_nanos() as u64;
        for (rung, engine) in engines.iter_mut().enumerate() {
            let started = Instant::now();
            for batch in sweep {
                verdicts.clear();
                engine.process_flow_batch_into(
                    PeerId(batch.input_ifs()[0]),
                    batch,
                    Effort::ALL[rung],
                    &mut verdicts,
                );
                std::hint::black_box(&verdicts);
            }
            rung_ns[rung] += started.elapsed().as_nanos() as u64;
            // Outside the clock: alert draining is its own ledger row.
            drop(Engine::drain_alerts(engine));
        }
        next = end;
    }
    let flows = flows.max(1) as f64;
    micro.classify_ns_per_flow = classify_ns as f64 / flows;
    micro.rung_ns_per_flow = rung_ns.map(|ns| ns as f64 / flows);
    micro.suspect_share = engines[0].metrics().eia_suspect as f64 / flows;
    Ok(micro)
}
