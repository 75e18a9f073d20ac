//! Arbitration-refactor regression matrix: compare-policy × replica-count.
//!
//! The `crates/core` arbitration decoupling (shared `ArbiterLedger` +
//! `ComparePolicy` implementations behind the `NSelector` / friends
//! `VotingSelector` type aliases) must be *unobservable* from every
//! existing structure. These tests pin that down two ways:
//!
//! 1. **Pinned digests**: full chaos campaign reports (which exercise the
//!    duplicated timing selector and the tri-replica voting selector across
//!    the whole fault palette) hash to the exact FNV-1a value captured
//!    *before* the refactor. A single byte of drift in any outcome,
//!    latch time, or metric fails the test.
//! 2. **Policy × replica-count matrix**: both compare policies at every
//!    supported replica count deliver identical complete streams and latch
//!    exactly the injected replica, run-to-run deterministically.

use rtft_chaos::Campaign;
use rtft_core::{
    build_n_modular, build_n_modular_voting, FaultPlan, NJitterStageReplica, NModularModel,
    NReplicator, NSelector, NSizingReport, VotingSelector,
};
use rtft_kpn::{Engine, Payload};
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;

/// FNV-1a 64 over the report bytes — dependency-free content digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Campaign reports pinned to their pre-refactor digests. The campaigns
/// mix duplicated and tri-voting scenarios over all platforms and fault
/// kinds, so any behavioral drift in either selector (or the replicator)
/// shows up here.
#[test]
fn campaign_reports_match_pre_refactor_digests() {
    for (seed, count, expected) in [
        (0xDAC14u64, 40u64, 0x5296_4028_F260_5C5Eu64),
        (99, 25, 0xE6BD_0AB2_74A9_87CF),
    ] {
        let json = Campaign::generate(seed, count).run().to_json();
        assert_eq!(
            fnv1a(json.as_bytes()),
            expected,
            "campaign (seed={seed:#x}, count={count}) report drifted from its pre-refactor bytes"
        );
    }
}

/// Sampled-checker campaign reports at two strides, pinned the same way:
/// any drift in how a hetero scenario is built, run, or read back (latch
/// sweep, arrival log, analytic bound) changes the report bytes.
#[test]
fn hetero_campaign_reports_match_pinned_digests() {
    let digests: Vec<(u64, u64)> = [4, 16]
        .into_iter()
        .map(|k| {
            let json = Campaign::generate_hetero(0x5EED, 24, k).run().to_json();
            (k, fnv1a(json.as_bytes()))
        })
        .collect();
    assert_eq!(
        digests,
        [(4, 0x7233_10BC_AFE5_F6C9), (16, 0x5AFB_5CBF_4E17_CA58)],
        "hetero campaign reports drifted from their pinned bytes"
    );
}

fn n_model(n: usize) -> NModularModel {
    let jitters = [5.0, 15.0, 30.0, 10.0, 20.0];
    NModularModel {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 150.0),
        replicas: (0..n)
            .map(|i| PjdModel::from_ms(30.0, jitters[i], 0.0))
            .collect(),
    }
}

/// Runs one (policy, replica-count) cell: fail-stop replica 1 mid-stream,
/// expect a complete stream and exactly replica 1 latched.
fn run_cell(voting: bool, n: usize) -> (usize, Vec<usize>, String) {
    let model = n_model(n);
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    let factory = NJitterStageReplica::from_model(&model).with_seed_base(7);
    let tokens = 120u64;
    let mut faults = vec![FaultPlan::healthy(); n];
    faults[1] = FaultPlan::fail_stop_at(TimeNs::from_secs(2));
    let payload: rtft_core::PayloadGenerator =
        Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9)));
    let (net, ids) = if voting {
        build_n_modular_voting(&model, &sizing, tokens, (1, 2), payload, &factory, &faults)
    } else {
        build_n_modular(&model, &sizing, tokens, (1, 2), payload, &factory, &faults)
    };
    let mut engine = Engine::new(net);
    engine.run_until(TimeNs::from_secs(60));
    let net = engine.network();
    let rep = net
        .channel_as::<NReplicator>(ids.replicator)
        .expect("n-replicator");
    let mut latched: Vec<usize> = if voting {
        let sel = net
            .channel_as::<VotingSelector>(ids.selector)
            .expect("voting selector");
        rep.faulty_indices().chain(sel.faulty_indices()).collect()
    } else {
        let sel = net
            .channel_as::<NSelector>(ids.selector)
            .expect("n-selector");
        rep.faulty_indices().chain(sel.faulty_indices()).collect()
    };
    latched.sort_unstable();
    latched.dedup();
    let arrivals = ids.consumer_arrivals(net);
    let transcript = format!("{arrivals:?}");
    (arrivals.len(), latched, transcript)
}

#[test]
fn policy_by_replica_count_matrix_is_deterministic_and_correct() {
    // Timing policy at n ∈ {2, 3, 4}; voting policy at n ∈ {3, 4, 5}
    // (majority voting needs a tie-breaker).
    let cells: Vec<(bool, usize)> = vec![
        (false, 2),
        (false, 3),
        (false, 4),
        (true, 3),
        (true, 4),
        (true, 5),
    ];
    for (voting, n) in cells {
        let (arrivals, latched, transcript) = run_cell(voting, n);
        assert_eq!(
            arrivals,
            120,
            "policy={} n={n}: survivors must keep the stream complete",
            if voting { "voting" } else { "timing" }
        );
        assert_eq!(
            latched,
            vec![1],
            "policy={} n={n}: exactly the injected replica latches",
            if voting { "voting" } else { "timing" }
        );
        // Run-to-run determinism of the full arrival transcript.
        let (_, _, again) = run_cell(voting, n);
        assert_eq!(transcript, again, "policy={voting} n={n} not deterministic");
    }
}
