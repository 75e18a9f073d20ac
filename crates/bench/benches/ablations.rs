//! E9 ablations: the design-choice experiments DESIGN.md §5 calls out.
//!
//! 1. §1.1 motivational example — fault detection disabled reproduces the
//!    deadlock/starvation the paper motivates the framework with.
//! 2. Threshold sweep — detection latency as a function of the divergence
//!    threshold `D` (eq. (6): latency grows with `2D − 1`).
//! 3. Detector split — divergence-only vs stall-only selector detection.
//! 4. Jitter diversity sweep — the analytic bound as a function of the
//!    slow replica's jitter.

use rtft_bench::report::{banner, ms, AsciiTable};
use rtft_core::{
    build_duplicated, ArbiterLedger, DuplicationConfig, FaultPlan, FirstOfGroup,
    JitterStageReplica, NReplicator, NSelector, PolicySelector, SelectorFaultCause,
};
use rtft_kpn::{Engine, Payload};
use rtft_rtc::sizing::{DuplicationModel, SizingReport};
use rtft_rtc::{detection, PjdModel, TimeNs};
use std::sync::Arc;

fn base_model() -> DuplicationModel {
    DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    )
}

fn base_config(tokens: u64) -> DuplicationConfig {
    DuplicationConfig::from_model(base_model())
        .expect("bounded")
        .with_token_count(tokens)
        .with_payload(Arc::new(Payload::U64))
        .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(2)))
}

fn ablation_deadlock() {
    banner("Ablation 1: §1.1 motivational example (detection on vs off)");
    let tokens = 150u64;
    let factory = JitterStageReplica::from_model(&base_model()).with_seeds([3, 4]);

    let run = |detection_enabled: bool| -> usize {
        let cfg = base_config(tokens);
        let (mut net, ids) = build_duplicated(&cfg, &factory);
        if !detection_enabled {
            let sizing = cfg.sizing;
            *net.channel_mut(ids.replicator)
                .as_any_mut()
                .downcast_mut::<NReplicator>()
                .expect("replicator") = NReplicator::new(
                "replicator",
                sizing.replicator_capacity.map(|c| c as usize).to_vec(),
                None,
            )
            .without_detection();
            let ledger = ArbiterLedger::new(
                "selector",
                sizing.selector_capacity.map(|c| c as usize).to_vec(),
                sizing.selector_threshold,
            )
            .without_stall_detection()
            .without_divergence_detection();
            *net.channel_mut(ids.selector)
                .as_any_mut()
                .downcast_mut::<NSelector>()
                .expect("selector") = PolicySelector::from_parts(ledger, FirstOfGroup);
        }
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        ids.consumer_arrivals(engine.network()).len()
    };

    let with = run(true);
    let without = run(false);
    println!("tokens delivered with detection   : {with}/{tokens}");
    println!("tokens delivered without detection: {without}/{tokens} (producer blocks on the dead replica's full queue; consumer starves)");
    assert!(with as u64 == tokens && without < tokens as usize);
}

fn ablation_threshold_sweep() {
    banner("Ablation 2: detection latency vs divergence threshold D (eq. (6))");
    let factory = JitterStageReplica::from_model(&base_model()).with_seeds([5, 6]);
    let mut t = AsciiTable::new();
    t.row(["D", "analytic bound (ms)", "measured selector latency (ms)"]);
    for d in 2..=8u64 {
        let mut cfg = base_config(200);
        cfg.sizing.selector_threshold = d;
        // Keep capacities large enough that the bigger threshold never
        // blocks the healthy replica.
        cfg.sizing.selector_capacity = [d + 6, d + 8];
        let bound = detection::fail_stop_detection_bound(
            &[cfg.model.replica_out[0], cfg.model.replica_out[1]],
            d,
        );
        let (net, ids) = build_duplicated(&cfg, &factory);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let lat = ids.selector_faults(engine.network())[0]
            .map(|f| f.at.saturating_sub(TimeNs::from_secs(2)));
        t.row([
            d.to_string(),
            ms(bound),
            lat.map(ms).unwrap_or_else(|| "not detected".to_owned()),
        ]);
    }
    print!("{}", t.render());
    println!("Latency and bound both grow with D — the trade-off between detection speed and");
    println!("divergence tolerance the threshold encodes.");
}

fn ablation_detector_split() {
    banner("Ablation 3: selector divergence-only vs stall-only detection");
    let factory = JitterStageReplica::from_model(&base_model()).with_seeds([7, 8]);
    let mut t = AsciiTable::new();
    t.row(["Detector", "latency (ms)", "cause"]);
    let mut latched = Vec::new();
    for (label, divergence, stall) in [
        ("both", true, true),
        ("divergence only", true, false),
        ("stall only", false, true),
    ] {
        let cfg = base_config(200);
        let (mut net, ids) = build_duplicated(&cfg, &factory);
        let mut ledger = ArbiterLedger::new(
            "selector",
            cfg.sizing.selector_capacity.map(|c| c as usize).to_vec(),
            cfg.sizing.selector_threshold,
        );
        if !divergence {
            ledger = ledger.without_divergence_detection();
        }
        if !stall {
            ledger = ledger.without_stall_detection();
        }
        *net.channel_mut(ids.selector)
            .as_any_mut()
            .downcast_mut::<NSelector>()
            .expect("sel") = PolicySelector::from_parts(ledger, FirstOfGroup);
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let fault = ids.selector_faults(engine.network())[0];
        match fault {
            Some(f) => t.row([
                label.to_owned(),
                ms(f.at.saturating_sub(TimeNs::from_secs(2))),
                format!("{:?}", f.cause),
            ]),
            None => t.row([label.to_owned(), "not detected".to_owned(), "-".to_owned()]),
        };
        latched.push(fault.map(|f| (f.cause, f.at)));
    }
    print!("{}", t.render());
    // Each switch really disables its rule: the divergence rule fires
    // first whenever it is on, and the stall rule alone fires later.
    let [both, divergence_only, stall_only] = latched[..] else {
        unreachable!("three detector configurations")
    };
    let (both, divergence_only, stall_only) = (
        both.expect("both rules detect"),
        divergence_only.expect("divergence rule detects"),
        stall_only.expect("stall rule detects"),
    );
    assert_eq!(both.0, SelectorFaultCause::Divergence);
    assert_eq!(divergence_only.0, SelectorFaultCause::Divergence);
    assert_eq!(stall_only.0, SelectorFaultCause::Stall);
    assert!(stall_only.1 > both.1, "stall rule alone detects later");
}

fn ablation_jitter_sweep() {
    banner("Ablation 4: analytic sizing vs the slow replica's jitter");
    let mut t = AsciiTable::new();
    t.row(["J2 (ms)", "|R2|", "|S2|", "D", "detection bound (ms)"]);
    for j2 in [5u64, 15, 30, 60, 90] {
        let model = DuplicationModel::symmetric(
            PjdModel::from_ms(30.0, 2.0, 0.0),
            PjdModel::from_ms(30.0, 2.0, 90.0),
            [
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::new(TimeNs::from_ms(30), TimeNs::from_ms(j2), TimeNs::ZERO),
            ],
        );
        let s = SizingReport::analyze(&model).expect("bounded");
        t.row([
            j2.to_string(),
            s.replicator_capacity[1].to_string(),
            s.selector_capacity[1].to_string(),
            s.selector_threshold.to_string(),
            ms(s.selector_detection_bound),
        ]);
    }
    print!("{}", t.render());
    println!("Design diversity (larger J2) buys independence but costs buffer space and");
    println!("detection latency — the dimensioning trade-off of §3.4.");
}

fn ablation_n_modular() {
    banner("Ablation 5: n-replica generalisation (paper §1's future-work claim)");
    use rtft_core::nmodular::{build_n_modular, NModularModel, NSizingReport};
    use rtft_core::{FaultyProcess, ReplicaFactory};
    use rtft_kpn::{Fifo, Network, NodeId, PjdShaper, PortId, Transform};

    struct Stage(Vec<PjdModel>);
    impl ReplicaFactory for Stage {
        fn build(
            &self,
            net: &mut Network,
            input: PortId,
            output: PortId,
            replica: usize,
            fault: FaultPlan,
        ) -> Vec<NodeId> {
            let mid = net.add_channel(Fifo::new(format!("r{replica}.mid"), 4));
            let t = Transform::new(
                format!("r{replica}.stage"),
                input,
                PortId::of(mid),
                TimeNs::from_ms(2),
                TimeNs::ZERO,
                replica as u64,
                |p| p,
            );
            let a = net.add_process(FaultyProcess::new(t, fault));
            let b = net.add_process(PjdShaper::new(
                format!("r{replica}.shaper"),
                PortId::of(mid),
                output,
                self.0[replica].with_delay(TimeNs::from_ms(5)),
                replica as u64 + 99,
            ));
            vec![a, b]
        }
    }

    let model = NModularModel {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 120.0),
        replicas: vec![
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 15.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    };
    let sizing = NSizingReport::analyze(&model).expect("bounded");
    println!(
        "triplicated: caps R{:?} S{:?}, D = {}, bound = {}",
        sizing.replicator_capacity,
        sizing.selector_capacity,
        sizing.threshold,
        ms(sizing.detection_bound)
    );
    let tokens = 200u64;
    let faults = vec![
        FaultPlan::fail_stop_at(TimeNs::from_secs(2)),
        FaultPlan::fail_stop_at(TimeNs::from_secs(4)),
        FaultPlan::healthy(),
    ];
    let (net, ids) = build_n_modular(
        &model,
        &sizing,
        tokens,
        (1, 2),
        Arc::new(Payload::U64),
        &Stage(model.replicas.clone()),
        &faults,
    );
    let mut engine = Engine::new(net);
    engine.run_until(TimeNs::from_secs(30));
    let delivered = ids.consumer_arrivals(engine.network()).len();
    println!(
        "two staggered fail-stops (t = 2 s, 4 s) in a 3-replica network: {delivered}/{tokens} tokens delivered"
    );
    assert_eq!(delivered as u64, tokens);
}

fn main() {
    ablation_deadlock();
    ablation_threshold_sweep();
    ablation_detector_split();
    ablation_jitter_sweep();
    ablation_n_modular();
}
