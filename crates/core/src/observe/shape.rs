//! The attack-shape layer: fixed-memory sketches over sampled suspects,
//! per-peer EIA drift scoring, sealed interval windows, and the two
//! documents read from them — [`ShapeSummary`] for the exposition page and
//! the `/ops` body.

use std::net::Ipv4Addr;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;

use infilter_telemetry::{trace, CountMin, Hll, SpaceSaving, TopEntry, WindowRing};

use super::{JournalEvent, PipelineTelemetry};
use crate::{PeerId, Verdict};

/// Top-source slots carried per sealed window (fixed so sealing stays
/// allocation-free).
const SHAPE_TOP_SLOTS: usize = 16;
/// Per-peer shape slots: distinct peers the shape layer tracks. A
/// Figure-1 deployment has a handful of BGP peers; overflowing peers are
/// counted in `shape_dropped`.
const SHAPE_PEER_SLOTS: usize = 32;
/// Count-Min geometry: 2048 × 4 u64 counters = 64 KiB, ε = e/2048 ≈ 0.13%
/// of sampled suspect volume, δ = e⁻⁴ ≈ 1.8%.
const SHAPE_CM_WIDTH: usize = 2048;
const SHAPE_CM_DEPTH: usize = 4;
/// SpaceSaving capacity: per-entry error ≤ N/64 of sampled volume.
const SHAPE_SS_CAP: usize = 64;
/// HLL precision: 2^10 registers = 1 KiB per peer, ≈3.2% standard error.
const SHAPE_HLL_P: u32 = 10;
/// Snapshot age at which the drift score's staleness term saturates.
const DRIFT_AGE_SATURATION_SECS: u64 = 300;

/// One peer's row in a sealed [`ShapeWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerWindow {
    /// The ingress peer AS number.
    pub peer: u16,
    /// Sampled suspect flows this interval (multiply by the shape stride
    /// to estimate the real count).
    pub suspects: u64,
    /// Sampled fast-path flows this interval.
    pub fast: u64,
    /// Adoptions into this peer's EIA set this interval.
    pub adoptions: u64,
    /// Estimated distinct suspect sources seen from this peer (cumulative
    /// HLL estimate at seal time).
    pub distinct_sources: u64,
    /// EIA drift score at seal time, thousandths.
    pub drift_milli: u32,
}

/// One sealed attack-shape interval: verdict mix, the interval's top
/// spoofed sources, and per-peer health. `Copy` with fixed arrays so the
/// window ring holds it without indirection and sealing never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ShapeWindow {
    /// Monotonic timestamp when the interval was sealed, nanoseconds.
    pub sealed_at_ns: u64,
    /// Sampled suspects this interval (all peers).
    pub suspects: u64,
    /// ... of which attack verdicts.
    pub attacks: u64,
    /// ... of which forgiven.
    pub forgiven: u64,
    /// Sampled fast-path flows this interval.
    pub fast: u64,
    /// This interval's top suspect sources as `(addr, sampled count)`,
    /// descending; only the first `top_len` entries are valid.
    pub top_sources: [(u32, u64); SHAPE_TOP_SLOTS],
    /// Valid prefix of `top_sources`.
    pub top_len: usize,
    /// Per-peer rows; only the first `peer_len` entries are valid.
    pub peers: [PeerWindow; SHAPE_PEER_SLOTS],
    /// Valid prefix of `peers`.
    pub peer_len: usize,
}

impl Default for ShapeWindow {
    fn default() -> ShapeWindow {
        ShapeWindow {
            sealed_at_ns: 0,
            suspects: 0,
            attacks: 0,
            forgiven: 0,
            fast: 0,
            top_sources: [(0, 0); SHAPE_TOP_SLOTS],
            top_len: 0,
            peers: [PeerWindow::default(); SHAPE_PEER_SLOTS],
            peer_len: 0,
        }
    }
}

/// Live per-peer shape state (inside the shape mutex).
#[derive(Debug)]
pub(super) struct PeerShape {
    peer: u16,
    /// Distinct suspect sources, cumulative.
    hll: Hll,
    /// Cumulative sampled counts (for the `/ops` health table).
    suspect_samples: u64,
    fast_samples: u64,
    pub(super) adoptions: u64,
    /// Current-interval accumulators, reset at seal.
    win_suspects: u64,
    win_fast: u64,
    pub(super) win_adoptions: u64,
    /// Last computed drift score, thousandths.
    drift_milli: u32,
    /// Whether the score sat at/above the threshold at the last seal
    /// (edge-trigger latch for [`JournalEvent::PeerDrift`]).
    above: bool,
}

impl PeerShape {
    fn new(peer: u16) -> PeerShape {
        PeerShape {
            peer,
            hll: Hll::new(SHAPE_HLL_P),
            suspect_samples: 0,
            fast_samples: 0,
            adoptions: 0,
            win_suspects: 0,
            win_fast: 0,
            win_adoptions: 0,
            drift_milli: 0,
            above: false,
        }
    }
}

/// All sketch state behind [`PipelineTelemetry`]'s shape mutex. Memory is
/// fixed at construction (≈130 KiB at defaults: 64 KiB Count-Min, two
/// 64-entry SpaceSaving summaries, up to 32 KiB of per-peer HLLs, and the
/// window ring); nothing grows with the keyspace.
#[derive(Debug)]
pub(super) struct ShapeState {
    /// Point-frequency sketch over all sampled suspect sources.
    src_freq: CountMin,
    /// Cumulative top suspect sources.
    src_total: SpaceSaving,
    /// Current interval's top suspect sources (reset at seal).
    src_win: SpaceSaving,
    /// Cumulative top peers by sampled suspect count.
    peer_total: SpaceSaving,
    /// Per-peer shape rows, first-come first-tracked up to
    /// [`SHAPE_PEER_SLOTS`].
    peers: Vec<PeerShape>,
    /// Interval accumulators.
    interval_start_ns: u64,
    win_suspects: u64,
    win_attacks: u64,
    win_forgiven: u64,
    win_fast: u64,
    /// Sealed intervals, oldest overwritten first.
    windows: WindowRing<ShapeWindow>,
    /// Interval sequence number handed to the ring.
    interval_seq: u64,
}

impl ShapeState {
    pub(super) fn new(windows: usize) -> ShapeState {
        ShapeState {
            src_freq: CountMin::new(SHAPE_CM_WIDTH, SHAPE_CM_DEPTH),
            src_total: SpaceSaving::new(SHAPE_SS_CAP),
            src_win: SpaceSaving::new(SHAPE_SS_CAP),
            peer_total: SpaceSaving::new(SHAPE_SS_CAP),
            peers: Vec::with_capacity(SHAPE_PEER_SLOTS),
            interval_start_ns: trace::now_ns(),
            win_suspects: 0,
            win_attacks: 0,
            win_forgiven: 0,
            win_fast: 0,
            windows: WindowRing::new(windows.max(1)),
            interval_seq: 0,
        }
    }

    /// The tracked row for `peer`, created on first sight while slots
    /// remain. Returns `None` once [`SHAPE_PEER_SLOTS`] peers are live.
    pub(super) fn peer_row(&mut self, peer: u16) -> Option<&mut PeerShape> {
        if let Some(i) = self.peers.iter().position(|p| p.peer == peer) {
            return Some(&mut self.peers[i]);
        }
        if self.peers.len() >= SHAPE_PEER_SLOTS {
            return None;
        }
        self.peers.push(PeerShape::new(peer));
        self.peers.last_mut()
    }
}

impl PipelineTelemetry {
    /// The sampled attack-shape feed, offered every suspect: `tick` is
    /// the suspect's number at its peer (the cell's count when the call
    /// met its first suspect, plus the call's own since), and every
    /// `shape_sample_every`-th feeds the sketches. Two threads on one
    /// peer may draw the same tick; a sampler can afford that.
    #[inline]
    pub(crate) fn sample_shape(
        &self,
        tick: u64,
        ingress: PeerId,
        src_addr: Ipv4Addr,
        verdict: Verdict,
    ) {
        if self.shape_due(tick) {
            self.shape_suspect(ingress, src_addr, verdict);
        }
    }

    /// Whether suspect number `nth` (per peer) feeds the shape sketches.
    #[inline]
    fn shape_due(&self, nth: u64) -> bool {
        self.shape_mask.is_some_and(|mask| nth & mask == 0)
    }

    /// Feeds one sampled suspect into the shape sketches. Never blocks:
    /// a scrape holding the lock costs one dropped sample, counted.
    fn shape_suspect(&self, ingress: PeerId, src_addr: Ipv4Addr, verdict: Verdict) {
        let Ok(mut shape) = self.shape.try_lock() else {
            self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let key = u64::from(u32::from(src_addr));
        shape.src_freq.record(key, 1);
        shape.src_total.record(key, 1);
        shape.src_win.record(key, 1);
        shape.peer_total.record(u64::from(ingress.0), 1);
        shape.win_suspects += 1;
        match verdict {
            Verdict::Attack(_) => shape.win_attacks += 1,
            Verdict::Forgiven => shape.win_forgiven += 1,
            Verdict::Legal => {}
        }
        match shape.peer_row(ingress.0) {
            Some(row) => {
                row.hll.record(key);
                row.suspect_samples += 1;
                row.win_suspects += 1;
            }
            None => {
                self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.maybe_seal(&mut shape);
    }

    /// Feeds one sampled fast-path flow into the peer's shape row.
    pub(super) fn shape_fast(&self, ingress: PeerId) {
        if self.shape_mask.is_none() {
            return;
        }
        let Ok(mut shape) = self.shape.try_lock() else {
            self.shape_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        shape.win_fast += 1;
        if let Some(row) = shape.peer_row(ingress.0) {
            row.fast_samples += 1;
            row.win_fast += 1;
        }
        self.maybe_seal(&mut shape);
    }

    /// Seals the current interval if it has run its configured length.
    fn maybe_seal(&self, shape: &mut ShapeState) {
        let now = trace::now_ns();
        let interval_ns = self
            .cfg
            .shape_window_secs
            .max(1)
            .saturating_mul(1_000_000_000);
        if now.saturating_sub(shape.interval_start_ns) >= interval_ns {
            self.seal(shape, now);
        }
    }

    /// Test hook: seals the current interval immediately, regardless of
    /// how long it has actually run — drift scoring is time-gated and
    /// tests cannot wait out a real interval.
    #[cfg(test)]
    fn seal_now(&self) {
        let mut shape = self
            .shape
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.seal(&mut shape, trace::now_ns());
    }

    /// Seals one interval: computes per-peer drift scores (emitting
    /// edge-triggered [`JournalEvent::PeerDrift`]s), pushes the window,
    /// and resets the interval accumulators. Allocation-free: the window
    /// is a `Copy` value built from fixed arrays.
    fn seal(&self, shape: &mut ShapeState, now: u64) {
        let age_secs = self.snapshot_health.age_seconds();
        let age_milli = ((age_secs * 1000) / DRIFT_AGE_SATURATION_SECS).min(1000) as u32;
        let mut win = ShapeWindow {
            sealed_at_ns: now,
            suspects: shape.win_suspects,
            attacks: shape.win_attacks,
            forgiven: shape.win_forgiven,
            fast: shape.win_fast,
            ..ShapeWindow::default()
        };
        let mut scratch = [TopEntry {
            key: 0,
            count: 0,
            err: 0,
        }; SHAPE_TOP_SLOTS];
        win.top_len = shape.src_win.top_into(&mut scratch);
        for (slot, entry) in win.top_sources.iter_mut().zip(&scratch[..win.top_len]) {
            *slot = (entry.key as u32, entry.count);
        }
        for row in shape.peers.iter_mut() {
            // EI-miss ratio: both sides scaled back by their strides so
            // sampled suspects compare against sampled fast-path flows.
            let s = row.win_suspects.saturating_mul(self.shape_stride);
            let f = row.win_fast.saturating_mul(self.fast_stride);
            let miss_milli = s.saturating_mul(1000).checked_div(s + f).unwrap_or(0) as u32;
            // Churn saturates at 4 adoptions per interval.
            let churn_milli = (row.win_adoptions.saturating_mul(250)).min(1000) as u32;
            let drift = (500 * miss_milli + 300 * churn_milli + 200 * age_milli) / 1000;
            row.drift_milli = drift;
            if drift >= self.cfg.drift_threshold_milli {
                if !row.above {
                    row.above = true;
                    self.journal.record(JournalEvent::PeerDrift {
                        peer: PeerId(row.peer),
                        score_milli: drift,
                    });
                }
            } else {
                row.above = false;
            }
            if win.peer_len < SHAPE_PEER_SLOTS {
                win.peers[win.peer_len] = PeerWindow {
                    peer: row.peer,
                    suspects: row.win_suspects,
                    fast: row.win_fast,
                    adoptions: row.win_adoptions,
                    distinct_sources: row.hll.estimate(),
                    drift_milli: drift,
                };
                win.peer_len += 1;
            }
            row.win_suspects = 0;
            row.win_fast = 0;
            row.win_adoptions = 0;
        }
        shape.src_win.reset();
        shape.windows.push(shape.interval_seq, win);
        shape.interval_seq += 1;
        shape.interval_start_ns = now;
        shape.win_suspects = 0;
        shape.win_attacks = 0;
        shape.win_forgiven = 0;
        shape.win_fast = 0;
    }

    /// What both scrape-side documents start from: the shape state — lock
    /// taken blocking, scrape-side only — with the current interval sealed
    /// first if it is due, so a quiet pipeline still reports fresh windows,
    /// and the clamped top-K size.
    fn shape_for_scrape(&self) -> (MutexGuard<'_, ShapeState>, usize) {
        let mut shape = self
            .shape
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.shape_mask.is_some() {
            self.maybe_seal(&mut shape);
        }
        (shape, self.cfg.shape_top_k.clamp(1, SHAPE_TOP_SLOTS))
    }

    /// The cumulative attack-shape summary for the exposition page:
    /// top suspected sources (counts scaled back to flow estimates by the
    /// sampling stride), per-peer distinct-source cardinalities, and
    /// per-peer drift scores.
    pub fn shape_summary(&self) -> ShapeSummary {
        let (shape, k) = self.shape_for_scrape();
        ShapeSummary {
            top_sources: shape
                .src_total
                .top(k)
                .iter()
                .map(|e| {
                    (
                        Ipv4Addr::from(e.key as u32),
                        e.count.saturating_mul(self.shape_stride),
                    )
                })
                .collect(),
            peers: shape
                .peers
                .iter()
                .map(|p| PeerShapeSummary {
                    peer: p.peer,
                    distinct_sources: p.hll.estimate(),
                    drift_milli: p.drift_milli,
                })
                .collect(),
        }
    }

    /// Renders the `/ops` attack-shape document: cumulative top-K tables,
    /// per-peer health, EIA snapshot version/age, and the newest `window`
    /// sealed intervals.
    pub fn ops_json(&self, window: usize) -> String {
        use std::fmt::Write as _;
        let (shape, k) = self.shape_for_scrape();
        let stride = self.shape_stride;
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"window_secs\":{},\"sample_stride\":{},\"shape_dropped\":{},\
             \"eia\":{{\"version\":{},\"age_seconds\":{}}}",
            self.cfg.shape_window_secs,
            stride,
            self.shape_dropped(),
            self.snapshot_health.version(),
            self.snapshot_health.age_seconds(),
        );
        let (recovered, records, segments, snapshot_age) = self.store_recovery();
        let _ = write!(
            out,
            ",\"store\":{{\"recovered\":{recovered},\"records_replayed\":{records},\
             \"segments\":{segments},\"snapshot_age_seconds\":{snapshot_age}}}",
        );
        out.push_str(",\"top_sources\":[");
        for (i, e) in shape.src_total.top(k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // `flows_est` comes from the SpaceSaving summary (ranking),
            // `cms_est` from the independent Count-Min sketch — disagreeing
            // estimates flag a summary under churn pressure.
            let _ = write!(
                out,
                "{{\"addr\":\"{}\",\"flows_est\":{},\"err_est\":{},\"cms_est\":{}}}",
                Ipv4Addr::from(e.key as u32),
                e.count.saturating_mul(stride),
                e.err.saturating_mul(stride),
                shape.src_freq.estimate(e.key).saturating_mul(stride),
            );
        }
        out.push_str("],\"top_peers\":[");
        for (i, e) in shape.peer_total.top(k).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"peer\":{},\"flows_est\":{}}}",
                e.key,
                e.count.saturating_mul(stride),
            );
        }
        out.push_str("],\"peers\":[");
        for (i, p) in shape.peers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"peer\":{},\"distinct_sources\":{},\"drift_milli\":{},\
                 \"suspect_samples\":{},\"fast_samples\":{},\"adoptions\":{}}}",
                p.peer,
                p.hll.estimate(),
                p.drift_milli,
                p.suspect_samples,
                p.fast_samples,
                p.adoptions,
            );
        }
        out.push_str("],\"windows\":[");
        let mut first = true;
        shape.windows.for_each_last(window, |seq, w| {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"seq\":{},\"sealed_at_ns\":{},\"suspects\":{},\"attacks\":{},\
                 \"forgiven\":{},\"fast\":{},\"top_sources\":[",
                seq, w.sealed_at_ns, w.suspects, w.attacks, w.forgiven, w.fast,
            );
            for (i, (addr, count)) in w.top_sources[..w.top_len.min(k)].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"addr\":\"{}\",\"count\":{}}}",
                    Ipv4Addr::from(*addr),
                    count,
                );
            }
            out.push_str("],\"peers\":[");
            for (i, p) in w.peers[..w.peer_len].iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"peer\":{},\"suspects\":{},\"fast\":{},\"adoptions\":{},\
                     \"distinct_sources\":{},\"drift_milli\":{}}}",
                    p.peer, p.suspects, p.fast, p.adoptions, p.distinct_sources, p.drift_milli,
                );
            }
            out.push_str("]}");
        });
        out.push_str("\n]}\n");
        out
    }
}

/// The cumulative attack-shape summary [`PipelineTelemetry::shape_summary`]
/// returns for the exposition page.
#[derive(Debug, Clone, Default)]
pub struct ShapeSummary {
    /// Top suspected spoofed sources as `(addr, estimated flows)` —
    /// sampled counts scaled back by the sampling stride, descending.
    pub top_sources: Vec<(Ipv4Addr, u64)>,
    /// Per-peer cardinality and drift, in first-seen order.
    pub peers: Vec<PeerShapeSummary>,
}

/// One peer's row in a [`ShapeSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerShapeSummary {
    /// The ingress peer AS number.
    pub peer: u16,
    /// Estimated distinct suspect sources seen from this peer.
    pub distinct_sources: u64,
    /// Latest EIA drift score, thousandths.
    pub drift_milli: u32,
}

#[cfg(test)]
mod tests {
    use super::super::tests::flow;
    use super::super::TelemetryConfig;
    use super::*;

    #[test]
    fn drift_score_rises_for_the_attacked_peer_and_journals_one_edge() {
        let telemetry = PipelineTelemetry::new(
            TelemetryConfig {
                shape_sample_every: 1,
                drift_threshold_milli: 400,
                ..TelemetryConfig::default()
            },
            1,
        );
        // Peer 1 emits nothing but suspects (EI-miss ratio 1.0); peer 2
        // rides the fast path with one stray suspect.
        let spoof = |i: u32| Ipv4Addr::from(0x0a00_0000u32 + i);
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        for _ in 0..8u32 {
            telemetry.record_fast_path(0, PeerId(2), &flow(), 0);
        }
        telemetry.sample_shape(0, PeerId(2), spoof(99), Verdict::Forgiven);
        telemetry.seal_now();

        let summary = telemetry.shape_summary();
        let score = |peer: u16| {
            summary
                .peers
                .iter()
                .find(|p| p.peer == peer)
                .expect("peer tracked")
                .drift_milli
        };
        // Pure misses put peer 1 at the miss term's full weight (500);
        // peer 2's one sampled suspect is drowned out by its stride-scaled
        // fast-path volume.
        assert!(score(1) >= 400, "attacked peer at {}/1000", score(1));
        assert!(score(2) < 400, "healthy peer at {}/1000", score(2));
        let drift_events = |telemetry: &PipelineTelemetry| {
            telemetry
                .journal()
                .last(32)
                .iter()
                .filter(|e| e.event.kind() == "peer_drift")
                .count()
        };
        assert_eq!(drift_events(&telemetry), 1, "one edge-triggered event");

        // Still above the line next interval: no second event (the latch
        // holds until the score drops below the threshold).
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        telemetry.seal_now();
        assert_eq!(drift_events(&telemetry), 1, "latch holds while above");

        // Recovery (fast-path-only interval) re-arms the edge; the next
        // excursion journals again.
        for _ in 0..8u32 {
            telemetry.record_fast_path(0, PeerId(1), &flow(), 0);
        }
        telemetry.seal_now();
        for i in 0..32u32 {
            telemetry.sample_shape(u64::from(i), PeerId(1), spoof(i), Verdict::Forgiven);
        }
        telemetry.seal_now();
        assert_eq!(drift_events(&telemetry), 2, "re-armed after recovery");

        // The sealed windows are visible to `/ops`, newest first.
        let ops = telemetry.ops_json(4);
        assert!(ops.contains("\"windows\":[\n{\"seq\":3,"), "ops: {ops}");
        assert!(ops.contains("\"drift_milli\":"), "ops: {ops}");
    }
}
