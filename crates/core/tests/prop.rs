//! Property tests: the pipeline's accounting identities hold for
//! arbitrary flow streams in both software configurations.

use infilter_core::{AnalyzerConfig, AttackStage, EiaRegistry, IdmefAlert, Mode, PeerId, Trainer};
use infilter_netflow::FlowRecord;
use infilter_nns::NnsParams;
use proptest::prelude::*;

fn tiny_config(mode: Mode) -> AnalyzerConfig {
    AnalyzerConfig::builder()
        .mode(mode)
        .nns(NnsParams {
            d: 0,
            m1: 1,
            m2: 6,
            m3: 2,
        })
        .bits_per_feature(8)
        .adoption_threshold(2)
        .adoption_prefix_len(24)
        .build()
        .expect("valid config")
}

fn eia() -> EiaRegistry {
    let mut r = EiaRegistry::new(2);
    r.preload(PeerId(1), "3.0.0.0/11".parse().expect("static prefix"));
    r.preload(PeerId(2), "3.32.0.0/11".parse().expect("static prefix"));
    r
}

/// What an alert aggregates over — ingress, stage kind, the stage's
/// target — read off the alert.
fn alert_key(a: &IdmefAlert) -> (PeerId, u8, u32) {
    match a.stage {
        AttackStage::EiaMismatch { expected } => {
            (a.ingress, 0, expected.map_or(0, |p| u32::from(p.0) + 1))
        }
        AttackStage::NetworkScan { dst_port, .. } => (a.ingress, 1, dst_port.into()),
        AttackStage::HostScan { dst_addr, .. } => (a.ingress, 2, dst_addr.into()),
        AttackStage::NnsAnomaly { .. } => (a.ingress, 3, a.target.into()),
    }
}

fn training() -> Vec<FlowRecord> {
    (0..40u32)
        .map(|i| FlowRecord {
            src_addr: std::net::Ipv4Addr::from(0x0300_0000 + i),
            dst_port: if i % 2 == 0 { 80 } else { 53 },
            protocol: if i % 2 == 0 { 6 } else { 17 },
            packets: 4 + i % 8,
            octets: 2_000 + 100 * (i % 10),
            first_ms: 0,
            last_ms: 500 + 20 * (i % 5),
            ..FlowRecord::default()
        })
        .collect()
}

fn arb_flow() -> impl Strategy<Value = (u16, FlowRecord)> {
    (
        1u16..=2,
        any::<u32>(),
        0u32..100_000,
        1u32..5_000,
        proptest::sample::select(vec![80u16, 53, 1434, 9999]),
        any::<bool>(),
    )
        .prop_map(|(peer, src, octets, packets, dst_port, tcp)| {
            (
                peer,
                FlowRecord {
                    src_addr: src.into(),
                    dst_addr: "96.1.0.20".parse().expect("static addr"),
                    dst_port,
                    protocol: if tcp { 6 } else { 17 },
                    packets,
                    octets: octets.max(packets * 28),
                    first_ms: 0,
                    last_ms: 1_000,
                    ..FlowRecord::default()
                },
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn enhanced_accounting_identities(flows in proptest::collection::vec(arb_flow(), 1..120)) {
        let a = Trainer::new(tiny_config(Mode::Enhanced))
            .train_enhanced(eia(), &training())
            .expect("training succeeds");
        let mut attacks = 0u64;
        for (peer, f) in &flows {
            if a.process(PeerId(*peer), f).is_attack() {
                attacks += 1;
            }
        }
        let m = a.metrics();
        prop_assert_eq!(m.flows, flows.len() as u64);
        prop_assert_eq!(m.flows, m.eia_match + m.eia_suspect);
        prop_assert_eq!(m.eia_suspect, m.attacks() + m.forgiven);
        prop_assert_eq!(m.eia_attacks, 0, "EI never flags at the EIA stage");
        prop_assert_eq!(m.attacks(), attacks);
        // Far below the per-drain key capacity: every key has one alert,
        // and the alerts' counts are the attack verdicts.
        let alerts = a.drain_alerts();
        let flagged: u64 = alerts.iter().map(|a| u64::from(a.count)).sum();
        prop_assert_eq!(flagged, attacks, "every attack verdict is in exactly one alert");
        let mut keys: Vec<_> = alerts.iter().map(alert_key).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), alerts.len(), "two alerts of one drain share a key");
        prop_assert_eq!(m.fast_path.count, m.eia_match);
        prop_assert_eq!(m.suspect_path.count, m.eia_suspect);
    }

    #[test]
    fn basic_accounting_identities(flows in proptest::collection::vec(arb_flow(), 1..120)) {
        let a = Trainer::new(tiny_config(Mode::Basic)).train_basic(eia());
        for (peer, f) in &flows {
            a.process(PeerId(*peer), f);
        }
        let m = a.metrics();
        prop_assert_eq!(m.flows, m.eia_match + m.eia_suspect);
        prop_assert_eq!(m.eia_suspect, m.eia_attacks, "BI flags every suspect");
        prop_assert_eq!(m.scan_attacks, 0);
        prop_assert_eq!(m.nns_attacks, 0);
        prop_assert_eq!(m.forgiven, 0);
        prop_assert_eq!(m.adoptions, 0);
    }

    #[test]
    fn verdicts_are_deterministic_given_history(flows in proptest::collection::vec(arb_flow(), 1..60)) {
        let run = || {
            let a = Trainer::new(tiny_config(Mode::Enhanced))
                .train_enhanced(eia(), &training())
                .expect("training succeeds");
            flows.iter().map(|(p, f)| a.process(PeerId(*p), f)).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
