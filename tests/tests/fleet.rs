//! Integration tests of the `rtft-fleet` executor: admission backpressure,
//! EDF ordering, health-aware replacement, and throughput scaling.

use rtft_core::{
    DuplicationConfig, FaultPlan, JitterStageReplica, NJitterStageReplica, ReplicaFactory,
};
use rtft_core::{
    HeteroModel, HeteroSizingReport, HeteroStageReplica, NModularModel, NSizingReport,
};
use rtft_fleet::{
    execute, Admission, FleetConfig, FleetExecutor, JobRunResult, JobRuntime, JobSpec, JobTemplate,
    RejectReason,
};
use rtft_kpn::{Network, NodeId, Payload, PortId};
use rtft_obs::registry_to_json;
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Serialises the wall-clock-sensitive tests: the harness runs tests on
/// parallel threads, and on a small host two fleets of sleep-bound jobs
/// running at once stretch scheduler gaps past the quiescence grace.
fn timing_lock() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small synthetic duplicated job under the DES runtime. ~33 tokens at
/// 30 ms simulate in a few wall milliseconds.
fn des_job(name: &str, fault: Option<TimeNs>) -> JobSpec {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(30.0, 2.0, 0.0),
        PjdModel::from_ms(30.0, 2.0, 90.0),
        [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    );
    let mut cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(50)
        .with_payload(Arc::new(Payload::U64));
    if let Some(at) = fault {
        cfg = cfg.with_fault(0, FaultPlan::fail_stop_at(at));
    }
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobSpec {
        name: name.into(),
        template: JobTemplate::Duplicated { cfg, factory },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: TimeNs::from_secs(20),
        },
    }
}

/// A sleep-bound threaded job: wall-clock duration is dominated by the
/// token period and the quiescence window (≈ `tokens × 2 ms + 40 ms`), so
/// concurrent jobs overlap their waiting.
fn threaded_job(name: &str, tokens: u64) -> JobSpec {
    let model = DuplicationModel::symmetric(
        PjdModel::from_ms(2.0, 0.2, 0.0),
        PjdModel::from_ms(2.0, 0.2, 8.0),
        [
            PjdModel::from_ms(2.0, 0.3, 0.0),
            PjdModel::from_ms(2.0, 0.5, 0.0),
        ],
    );
    let cfg = DuplicationConfig::from_model(model)
        .expect("bounded model")
        .with_token_count(tokens)
        .with_payload(Arc::new(Payload::U64));
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    JobSpec {
        name: name.into(),
        template: JobTemplate::Duplicated { cfg, factory },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::Threaded {
            deadline: Duration::from_secs(30),
            // Healthy runs end by halting, so the grace window is never
            // waited out; it only needs to exceed scheduling gaps under
            // oversubscription so quiescence never fires spuriously.
            quiescence_grace: Duration::from_millis(150),
        },
    }
}

#[test]
fn injected_fault_triggers_replacement_and_recovery() {
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 2,
        pending_capacity: 8,
        max_replacements: 1,
    });
    let admission = fleet.submit(des_job("faulty-tenant", Some(TimeNs::from_secs(1))));
    assert!(matches!(admission, Admission::Admitted(_)));

    let report = fleet.join();
    assert_eq!(report.runs.len(), 1);
    let job = &report.runs[0];
    // The fault was masked (the faulty run still delivered every token),
    // observed (replica 0 latched), and repaired by a healed replacement.
    assert_eq!(job.faulty_replicas, vec![0]);
    assert_eq!(job.attempts, 1, "one replacement run");
    assert!(job.recovered, "replacement came back healthy");
    assert!(!job.failed);
    assert_eq!(job.arrivals, job.expected);
    assert_eq!(report.status.replaced, 1);
    assert_eq!(report.status.recovered, 1);
    assert_eq!(report.status.completed, 2, "original + replacement runs");
    assert_eq!(report.status.recovery_ns.count, 1);
    // The job's detection latency was folded into the fleet registry.
    assert!(report.status.detection_latency_ns.count >= 1);
}

#[test]
fn n_modular_job_reports_faulty_indices_through_the_fleet() {
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
    let factory = Arc::new(NJitterStageReplica::from_model(&model));
    let spec = JobSpec {
        name: "triplicated".into(),
        template: JobTemplate::NModular {
            model,
            sizing,
            token_count: 100,
            seeds: (1, 2),
            payload: Arc::new(Payload::U64),
            factory,
            faults: vec![
                FaultPlan::fail_stop_at(TimeNs::from_secs(1)),
                FaultPlan::healthy(),
                FaultPlan::healthy(),
            ],
        },
        relative_deadline: Duration::from_secs(60),
        runtime: JobRuntime::DiscreteEvent {
            horizon: TimeNs::from_secs(30),
        },
    };

    let fleet = FleetExecutor::new(FleetConfig::default());
    assert!(matches!(fleet.submit(spec), Admission::Admitted(_)));
    let report = fleet.join();
    let job = &report.runs[0];
    assert_eq!(
        job.faulty_replicas,
        vec![0],
        "detectors name the dead replica"
    );
    assert!(job.recovered);
    assert!(!job.failed);
    assert_eq!(report.status.recovered, 1);
}

/// A meeting point for `parties` arrivals: each [`Rendezvous::arrive`]
/// blocks until all parties have arrived. A generous timeout turns a
/// rendezvous that can never complete into a test failure
/// ([`Rendezvous::timed_out`]) instead of a hung suite.
#[derive(Clone)]
struct Rendezvous {
    parties: u32,
    state: Arc<(Mutex<(u32, bool)>, Condvar)>,
}

impl Rendezvous {
    fn new(parties: u32) -> Self {
        Rendezvous {
            parties,
            state: Arc::new((Mutex::new((0, false)), Condvar::new())),
        }
    }

    fn arrive(&self) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock().unwrap();
        st.0 += 1;
        cvar.notify_all();
        let (mut st, wait) = cvar
            .wait_timeout_while(st, Duration::from_secs(30), |st| st.0 < self.parties)
            .unwrap();
        st.1 |= wait.timed_out();
    }

    fn timed_out(&self) -> bool {
        self.state.0.lock().unwrap().1
    }
}

/// A replica factory that meets a [`Rendezvous`] before wiring replica 0,
/// so a job holds its worker for exactly as long as the test decides —
/// no wall-clock timing involved.
struct GatedFactory {
    inner: JitterStageReplica,
    gate: Rendezvous,
}

impl ReplicaFactory for GatedFactory {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        if replica == 0 {
            self.gate.arrive();
        }
        self.inner.build(net, input, output, replica, fault)
    }
}

/// [`des_job`] whose build waits at `gate`.
fn gated_job(name: &str, gate: &Rendezvous) -> JobSpec {
    let mut spec = des_job(name, None);
    if let JobTemplate::Duplicated { cfg, factory } = &mut spec.template {
        *factory = Arc::new(GatedFactory {
            inner: JitterStageReplica::from_model(&cfg.model),
            gate: gate.clone(),
        });
    }
    spec
}

#[test]
fn full_fleet_rejects_with_queue_full() {
    // One worker, capacity two. The first job holds the worker at the
    // gate, so both admitted jobs stay outstanding and the third
    // submission must bounce; then the test opens the gate.
    let gate = Rendezvous::new(2);
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 1,
        pending_capacity: 2,
        max_replacements: 0,
    });
    for name in ["a", "b"] {
        assert!(matches!(
            fleet.submit(gated_job(name, &gate)),
            Admission::Admitted(_)
        ));
    }
    match fleet.submit(des_job("c", None)) {
        Admission::Rejected(RejectReason::QueueFull { pending, capacity }) => {
            assert_eq!(pending, 2);
            assert_eq!(capacity, 2);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    gate.arrive();
    let report = fleet.join();
    assert!(!gate.timed_out());
    assert_eq!(report.status.submitted, 2);
    assert_eq!(report.status.rejected, 1);
    assert_eq!(report.runs.len(), 2);
    assert!(report.runs.iter().all(|r| !r.failed));
}

#[test]
fn shutdown_rejects_further_submissions() {
    let fleet = FleetExecutor::new(FleetConfig::default());
    fleet.shutdown();
    assert_eq!(
        fleet.submit(des_job("late", None)),
        Admission::Rejected(RejectReason::ShuttingDown)
    );
    let report = fleet.join();
    assert_eq!(report.status.submitted, 0);
    assert_eq!(report.status.rejected, 1);
}

#[test]
fn single_worker_completes_in_deadline_order() {
    let _serial = timing_lock();
    // Block the lone worker with a sleep-bound job, queue three DES jobs
    // with *reversed* deadlines, and check the pool drained them EDF.
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 1,
        pending_capacity: 8,
        max_replacements: 0,
    });
    assert!(matches!(
        fleet.submit(threaded_job("blocker", 8)),
        Admission::Admitted(_)
    ));
    for (name, deadline_secs) in [("slack", 300u64), ("soon", 200), ("urgent", 100)] {
        let mut spec = des_job(name, None);
        spec.relative_deadline = Duration::from_secs(deadline_secs);
        assert!(matches!(fleet.submit(spec), Admission::Admitted(_)));
    }
    let report = fleet.join();
    let order: Vec<&str> = report.runs.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(order, vec!["blocker", "urgent", "soon", "slack"]);
    assert!(report.runs.iter().all(|r| r.deadline_met));
}

#[test]
fn two_workers_overlap_sleep_bound_jobs() {
    // Each job waits at a shared two-party rendezvous while it builds, so
    // the jobs can only finish if two workers run them at the same time.
    let gate = Rendezvous::new(2);
    let fleet = FleetExecutor::new(FleetConfig {
        workers: 2,
        pending_capacity: 16,
        max_replacements: 0,
    });
    for i in 0..2 {
        assert!(matches!(
            fleet.submit(gated_job(&format!("job-{i}"), &gate)),
            Admission::Admitted(_)
        ));
    }
    let report = fleet.join();
    assert!(!gate.timed_out(), "the two jobs never ran concurrently");
    assert_eq!(report.status.completed, 2);
}

/// FNV-1a 64 — dependency-free content digest for the pinned transcripts.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Interface models shared by the four structure templates: producer,
/// consumer, and three replica output models (the duplicated pair uses
/// the first and last, the hetero main the first and its checker the last
/// one's jitter).
struct Envelope {
    producer: PjdModel,
    consumer: PjdModel,
    replicas: [PjdModel; 3],
}

/// One template of each structure over `env`, replica 0 fail-stopping at
/// `fail_stop` when given.
fn structure_templates(
    env: &Envelope,
    fail_stop: Option<TimeNs>,
) -> Vec<(&'static str, JobTemplate)> {
    let payload: rtft_core::PayloadGenerator =
        Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9)));
    let plan = |replica: usize| match fail_stop {
        Some(at) if replica == 0 => FaultPlan::fail_stop_at(at),
        _ => FaultPlan::healthy(),
    };
    let tokens = 100;
    let [r0, r1, r2] = env.replicas;

    let dup_model = DuplicationModel::symmetric(env.producer, env.consumer, [r0, r2]);
    let cfg = DuplicationConfig::from_model(dup_model)
        .expect("bounded model")
        .with_token_count(tokens)
        .with_seeds(3, 4)
        .with_payload(Arc::clone(&payload))
        .with_fault(0, plan(0));
    let factory = Arc::new(JitterStageReplica::from_model(&cfg.model));
    let duplicated = JobTemplate::Duplicated { cfg, factory };

    let n_model = NModularModel {
        producer: env.producer,
        consumer: env.consumer,
        replicas: vec![r0, r1, r2],
    };
    let n_sizing = NSizingReport::analyze(&n_model).expect("bounded");
    let n_factory: rtft_fleet::SharedFactory =
        Arc::new(NJitterStageReplica::from_model(&n_model).with_seed_base(7));
    let n_faults: Vec<FaultPlan> = (0..3).map(plan).collect();
    let n_modular = JobTemplate::NModular {
        model: n_model.clone(),
        sizing: n_sizing.clone(),
        token_count: tokens,
        seeds: (1, 2),
        payload: Arc::clone(&payload),
        factory: Arc::clone(&n_factory),
        faults: n_faults.clone(),
    };
    let voting = JobTemplate::NModularVoting {
        model: n_model,
        sizing: n_sizing,
        token_count: tokens,
        seeds: (1, 2),
        payload: Arc::clone(&payload),
        factory: n_factory,
        faults: n_faults,
    };

    let h_model = HeteroModel::with_checker_jitter(env.producer, env.consumer, r0, r2.jitter, 4);
    let h_sizing = HeteroSizingReport::analyze(&h_model).expect("bounded");
    let h_factory = Arc::new(HeteroStageReplica::from_model(&h_model).with_seed_base(11));
    let hetero = JobTemplate::Hetero {
        model: h_model,
        sizing: h_sizing,
        token_count: tokens,
        seeds: (5, 6),
        payload,
        factory: h_factory,
        faults: [plan(0), plan(1)],
    };
    vec![
        ("duplicated", duplicated),
        ("n-modular", n_modular),
        ("n-modular-voting", voting),
        ("hetero", hetero),
    ]
}

/// Everything a caller can read off a run, as one comparable string.
fn transcript(r: &JobRunResult) -> String {
    let health = r
        .health
        .as_ref()
        .map(|h| format!("{:?} {:?}", h.replicas(), h.detection_latency_snapshot()));
    format!(
        "{}/{} {:?} {:?} {:?} {}",
        r.arrivals,
        r.expected,
        r.faulty_replicas,
        r.arrival_log,
        health,
        registry_to_json(&r.registry)
    )
}

/// `fleet::execute` under the DES, one fail-stop per structure, pinned to
/// digests captured before the job runner was unified: the arrival log,
/// the latched replicas, the health model's detection latencies and the
/// run registry must all stay byte-identical.
#[test]
fn des_execute_matches_pinned_digests_for_every_structure() {
    let runtime = JobRuntime::DiscreteEvent {
        horizon: TimeNs::from_secs(30),
    };
    let env = Envelope {
        producer: PjdModel::from_ms(30.0, 2.0, 0.0),
        consumer: PjdModel::from_ms(30.0, 2.0, 120.0),
        replicas: [
            PjdModel::from_ms(30.0, 5.0, 0.0),
            PjdModel::from_ms(30.0, 15.0, 0.0),
            PjdModel::from_ms(30.0, 30.0, 0.0),
        ],
    };
    let digests: Vec<(&str, u64)> = structure_templates(&env, Some(TimeNs::from_secs(1)))
        .iter()
        .map(|(name, template)| {
            let result = execute(template, &runtime);
            assert_eq!(result.faulty_replicas, vec![0], "{name}: {result:?}");
            (*name, fnv1a(transcript(&result).as_bytes()))
        })
        .collect();
    assert_eq!(
        digests,
        [
            ("duplicated", 0x8907_2B98_8821_F455),
            ("n-modular", 0x4458_16A7_098E_4421),
            ("n-modular-voting", 0x4458_16A7_098E_4421),
            ("hetero", 0xA055_751B_C976_72EE),
        ],
        "DES runs drifted from their pinned transcripts"
    );
}

/// Every structure also runs on real threads: a fault-free run delivers
/// the whole stream with no replica latched, and the sampled checker's
/// counters reach the job registry. The 40 ms jitter margins match the
/// threaded spot checks, which budget for OS scheduler stalls.
#[test]
fn threaded_execute_runs_every_structure_fault_free() {
    let _serial = timing_lock();
    let runtime = JobRuntime::Threaded {
        deadline: Duration::from_secs(30),
        quiescence_grace: Duration::from_millis(500),
    };
    let env = Envelope {
        producer: PjdModel::from_ms(2.0, 40.0, 0.0),
        consumer: PjdModel::from_ms(2.0, 40.0, 6.0),
        replicas: [
            PjdModel::from_ms(2.0, 40.0, 0.0),
            PjdModel::from_ms(2.0, 42.0, 0.0),
            PjdModel::from_ms(2.0, 45.0, 0.0),
        ],
    };
    let templates = structure_templates(&env, None);
    for (name, template) in templates.iter().skip(1) {
        let result = execute(template, &runtime);
        assert!(result.faulty_replicas.is_empty(), "{name}: {result:?}");
        assert!(result.completed(), "{name}: {result:?}");
        if *name == "hetero" {
            let json = registry_to_json(&result.registry);
            assert!(json.contains("hetero.tokens.sampled"), "{json}");
            assert!(json.contains("hetero.tokens.verified"), "{json}");
        }
    }
}
