//! Integration of the distance-function baseline with the framework: both
//! detectors watching the same fault (the Table 3 scenario).

use rtft_apps::networks::App;
use rtft_core::{build_duplicated, FaultPlan, ReplicaFactory};
use rtft_distfn::{tap_stage, DistanceMonitor, LRepetitive, StreamTap};
use rtft_kpn::{Engine, Fifo, Network, NodeId, PortId};
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;

struct Tapped<'a> {
    inner: &'a dyn ReplicaFactory,
    tap: Arc<StreamTap>,
}

impl ReplicaFactory for Tapped<'_> {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        if replica != 0 {
            return self.inner.build(net, input, output, replica, fault);
        }
        let mid = net.add_channel(Fifo::new("tap0", 1));
        let tap = net.add_process(tap_stage(
            "tapstage0",
            input,
            PortId::of(mid),
            Arc::clone(&self.tap),
        ));
        let mut nodes = vec![tap];
        nodes.extend(
            self.inner
                .build(net, PortId::of(mid), output, replica, fault),
        );
        nodes
    }
}

/// Both the framework and the distance-function monitor flag the same
/// fail-stop; the framework needs no tap, no timestamps and no timer.
#[test]
fn both_detectors_flag_the_same_fault() {
    let app = App::Adpcm;
    let period = app.profile().model.producer.period;
    let fault_at = period * 30;
    let tokens = 90u64;
    let cfg = app
        .duplication_config(1, tokens)
        .expect("bounded")
        .with_fault(0, FaultPlan::fail_stop_at(fault_at));
    let inner = app.replica_factory([11, 22]);
    let tap = StreamTap::new();
    let factory = Tapped {
        inner: &inner,
        tap: Arc::clone(&tap),
    };

    let (mut net, ids) = build_duplicated(&cfg, &factory);
    let bounds = LRepetitive::from_pjd(&PjdModel::new(period, period / 2, TimeNs::ZERO), 1);
    let monitor = net.add_process(DistanceMonitor::new(
        "distfn",
        Arc::clone(&tap),
        bounds,
        TimeNs::from_ms(1),
        Some(period * 200),
    ));
    let mut engine = Engine::new(net);
    engine.run_until(period * 250);
    let net = engine.network();

    // Framework detection (counter-based, no observation machinery).
    let framework = ids.replicator_faults(net)[0]
        .map(|f| f.at)
        .or(ids.selector_faults(net)[0].map(|f| f.at))
        .expect("framework missed the fault");
    assert!(framework >= fault_at);

    // Baseline detection (timestamped tap + 1 ms polling).
    let verdict = net
        .process_as::<DistanceMonitor>(monitor)
        .expect("monitor present")
        .verdict()
        .expect("distance-function monitor missed the fault");
    assert!(verdict.overdue, "fail-stop manifests as an overdue event");
    assert!(verdict.detected_at >= fault_at);

    // And the fault is still masked end to end.
    assert_eq!(ids.consumer_arrivals(net).len() as u64, tokens);
}

/// The baseline needs its event history sized to the stream; the
/// framework's state is constant. Quantify the asymmetry.
#[test]
fn observation_state_asymmetry() {
    let model = PjdModel::from_ms(6.3, 1.0, 0.0);
    let l8 = LRepetitive::from_pjd(&model, 8);
    // Distance functions alone (before any event history!) already cost
    // more than the selector's whole counter block.
    assert!(l8.state_bytes() > 128);
    let selector = rtft_core::NSelector::new("selector", vec![4, 4], 3);
    let replicator = rtft_core::NReplicator::new("replicator", vec![4, 4], Some(3));
    assert!(selector.state_bytes() < 512, "{}", selector.state_bytes());
    assert!(
        replicator.state_bytes() < 512,
        "{}",
        replicator.state_bytes()
    );
}
