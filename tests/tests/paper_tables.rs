//! Table 2 and Table 3 campaign results pinned to FNV-1a digests.
//!
//! `parallel_campaign.rs` checks that the campaigns are worker-count
//! independent; these tests check that their *results* do not move. Each
//! digest covers the `Debug` form of the aggregate (fills, inter-arrival
//! stats, detection latencies, bounds, masking) and, for the observed
//! fault campaign, the `BenchMetrics` JSON. A refactor of the arbitration
//! channels, the builders or the engine that shifts a single latch time
//! or queue fill changes the bytes.

use rtft_apps::networks::App;
use rtft_bench::campaign::{comparison_campaign, fault_campaign_observed, no_fault_campaign};

/// FNV-1a 64 — dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const APPS: [App; 3] = [App::Mjpeg, App::Adpcm, App::H264];
const RUNS: usize = 4;
const TOKENS: u64 = 120;

/// Compares all three apps at once so a failure reports every digest.
fn check(label: &str, actual: [u64; 3], expected: [u64; 3]) {
    assert_eq!(
        actual, expected,
        "{label} drifted for {APPS:?}: got {actual:X?}, pinned {expected:X?}"
    );
}

#[test]
fn table2_no_fault_campaign_matches_pinned_digests() {
    let digests = APPS.map(|app| {
        let stats = no_fault_campaign(app, RUNS, TOKENS);
        fnv1a(format!("{stats:?}").as_bytes())
    });
    check(
        "no_fault_campaign",
        digests,
        [
            0xBC78_83A2_495E_9F2C,
            0x8D71_AD4B_8F04_4165,
            0xAFAC_3E59_E7B8_081C,
        ],
    );
}

#[test]
fn table2_fault_campaign_matches_pinned_digests() {
    let digests = APPS.map(|app| {
        let fault_at = app.profile().model.producer.period * 50;
        let (campaign, metrics) = fault_campaign_observed(app, RUNS, TOKENS, fault_at);
        let bytes = format!("{campaign:?}\n{}", metrics.to_json());
        fnv1a(bytes.as_bytes())
    });
    check(
        "fault_campaign_observed",
        digests,
        [
            0xB6B7_66C3_B18D_59A8,
            0x0CF1_8C3B_4D50_0D15,
            0x316F_6415_1BA5_3F15,
        ],
    );
}

#[test]
fn table3_comparison_campaign_matches_pinned_digests() {
    let digests = APPS.map(|app| {
        let stats = comparison_campaign(app, RUNS);
        assert!(stats.is_some(), "{app:?}: a detector missed");
        fnv1a(format!("{stats:?}").as_bytes())
    });
    check(
        "comparison_campaign",
        digests,
        [
            0x7552_E703_556D_39D9,
            0xCAD6_ED96_A2F4_91E3,
            0xCB4B_27D3_C674_B9B0,
        ],
    );
}
