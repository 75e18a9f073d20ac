//! Integration across execution platforms: the SCC timing model and the
//! real-thread runtime, driving the same fault-tolerant networks.

use rtft_apps::networks::App;
use rtft_core::{
    build_duplicated, DuplicationConfig, FaultPlan, JitterStageReplica, NReplicator, NSelector,
};
use rtft_kpn::threaded::run_threaded;
use rtft_kpn::{Engine, Payload, PjdSink};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use rtft_scc::{low_contention_pipeline, NocModel, SccPlatform};
use std::sync::Arc;
use std::time::Duration;

/// The ADPCM network under SCC communication costs behaves like the ideal
/// platform at token granularity: same delivery count, fault detected,
/// fill bounds hold — the paper's "fast on-chip communication does not
/// significantly influence FIFO sizes or fault detection timings".
#[test]
fn scc_platform_preserves_framework_behaviour() {
    let app = App::Adpcm;
    let tokens = 60u64;
    let fault_at = TimeNs::from_ms(189);
    let build = || {
        let cfg = app
            .duplication_config(1, tokens)
            .expect("bounded")
            .with_fault(0, FaultPlan::fail_stop_at(fault_at));
        let factory = app.replica_factory([11, 22]);
        build_duplicated(&cfg, &factory)
    };

    // Ideal platform.
    let (net, ids) = build();
    let mut ideal = Engine::new(net);
    ideal.run_until(TimeNs::from_secs(10));
    let ideal_detect = ids.replicator_faults(ideal.network())[0]
        .expect("detected")
        .at;
    assert_eq!(ids.consumer_arrivals(ideal.network()).len() as u64, tokens);

    // SCC platform: replicator and selector channels routed across the
    // mesh with the snake mapping.
    let (net, ids) = build();
    let mapping = low_contention_pipeline(4);
    let mut platform = SccPlatform::paper_boot();
    platform.route(ids.replicator, mapping.core(0), mapping.core(1));
    platform.route(ids.selector, mapping.core(2), mapping.core(3));
    let mut scc = Engine::with_platform(net, Box::new(platform));
    scc.run_until(TimeNs::from_secs(10));
    let scc_detect = ids.replicator_faults(scc.network())[0]
        .expect("detected")
        .at;
    assert_eq!(ids.consumer_arrivals(scc.network()).len() as u64, tokens);

    // Transfer costs shift events by microseconds, not periods.
    let skew = scc_detect
        .saturating_sub(ideal_detect)
        .max(ideal_detect.saturating_sub(scc_detect));
    assert!(
        skew < TimeNs::from_ms(7),
        "SCC communication changed detection by more than one period: {skew}"
    );
}

/// MPB chunking keeps every experiment token within the ≤3 KB rule's
/// latency envelope across the full mesh.
#[test]
fn scc_transfers_are_fast_relative_to_periods() {
    let noc = NocModel::paper_boot();
    for app in [App::Mjpeg, App::Adpcm, App::H264] {
        let p = app.profile();
        let worst = noc.message_latency(
            rtft_scc::CoreId::new(0),
            rtft_scc::CoreId::new(47),
            p.input_token_bytes.max(p.output_token_bytes),
        );
        let period = p.model.producer.period;
        assert!(
            worst.as_ns() * 20 < period.as_ns(),
            "{}: transfer {} not ≪ period {}",
            p.name,
            worst,
            period
        );
    }
}

/// The framework masks a fault under real threads and wall-clock time —
/// same channel state machines, no simulation involved.
///
/// The jitter terms here are deliberately much larger than the shapers'
/// own randomness: on a shared (possibly single-core) host, OS scheduling
/// can stall any process thread for tens of milliseconds, and the
/// no-false-positive guarantee only holds if the PJD models bound the
/// *actual* platform jitter — exactly the modelling obligation the paper
/// states for the SCC. Token count is sized so the post-fault traffic
/// still overflows the (correspondingly larger) queues and detection
/// provably fires.
#[test]
fn threaded_runtime_masks_fault() {
    let model = DuplicationModel::symmetric(
        PjdModel::new(TimeNs::from_ms(1), TimeNs::from_ms(40), TimeNs::ZERO),
        PjdModel::new(TimeNs::from_ms(1), TimeNs::from_ms(40), TimeNs::from_ms(3)),
        [
            PjdModel::new(TimeNs::from_ms(1), TimeNs::from_ms(40), TimeNs::ZERO),
            PjdModel::new(TimeNs::from_ms(1), TimeNs::from_ms(45), TimeNs::ZERO),
        ],
    );
    let tokens = 400u64;
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded")
        .with_token_count(tokens)
        .with_payload(Arc::new(Payload::U64))
        .with_fault(1, FaultPlan::fail_stop_at(TimeNs::from_ms(60)));
    let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([11, 22]);
    let (net, _ids) = build_duplicated(&cfg, &factory);

    let run = run_threaded(net, Duration::from_secs(20));
    let sink = run
        .process_as::<PjdSink>("consumer")
        .expect("consumer finished");
    assert_eq!(
        sink.arrivals().len() as u64,
        tokens,
        "tokens lost on real threads"
    );

    // Replicator is channel 0, selector channel 1 (builder order).
    let rep_fault = run
        .channel_as::<NReplicator, _>(0, |r| r.fault(1))
        .expect("replicator state");
    let sel_fault = run
        .channel_as::<NSelector, _>(1, |s| s.fault(1))
        .expect("selector state");
    assert!(
        rep_fault.is_some() || sel_fault.is_some(),
        "fault undetected on real threads"
    );
    let healthy_rep = run
        .channel_as::<NReplicator, _>(0, |r| r.fault(0))
        .expect("state");
    let healthy_sel = run
        .channel_as::<NSelector, _>(1, |s| s.fault(0))
        .expect("state");
    assert!(
        healthy_rep.is_none() && healthy_sel.is_none(),
        "healthy replica flagged"
    );
}

/// Wall-clock detection latency on threads lands in the same order of
/// magnitude as the virtual-time prediction (loose factor: host jitter).
#[test]
fn threaded_detection_latency_matches_simulation_scale() {
    // Jitter budgets cover OS scheduling stalls; see
    // `threaded_runtime_masks_fault` for the rationale.
    let model = DuplicationModel::symmetric(
        PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::ZERO),
        PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::from_ms(6)),
        [
            PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(40), TimeNs::ZERO),
            PjdModel::new(TimeNs::from_ms(2), TimeNs::from_ms(45), TimeNs::ZERO),
        ],
    );
    let fault_at = TimeNs::from_ms(100);
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded")
        .with_token_count(400)
        .with_payload(Arc::new(Payload::U64))
        .with_fault(0, FaultPlan::fail_stop_at(fault_at));
    let bound = cfg.sizing.selector_detection_bound;
    let factory = JitterStageReplica::from_model(&cfg.model).with_seeds([1, 2]);
    let (net, _ids) = build_duplicated(&cfg, &factory);
    let run = run_threaded(net, Duration::from_secs(20));
    let sel_fault = run
        .channel_as::<NSelector, _>(1, |s| s.fault(0))
        .expect("selector state");
    let f = sel_fault.expect("detected");
    let latency = f.at.saturating_sub(fault_at);
    // Host scheduling adds noise; require the right order of magnitude.
    assert!(
        latency <= bound * 3,
        "wall-clock latency {latency} vastly exceeds analytic bound {bound}"
    );
}
