//! Job descriptions: what one fleet tenant runs, and how to observe it.
//!
//! A *job* is one fault-tolerant network instance — a duplicated pair, an
//! n-modular group (timing or value voting) or a sampled checker, built
//! from the `rtft-core` constructors — plus the runtime it should execute
//! under (deterministic DES or OS threads) and a relative completion
//! deadline. Templates are cheap to clone and can be **re-built**: when a
//! run comes back with latched replicas, the executor re-spawns the job
//! from a healed copy of its template (the fleet-level analogue of the
//! paper's replica replacement).
//!
//! Every job runs down one path, whatever its structure or runtime:
//! [`JobTemplate::build`] produces the network and a [`JobProbe`],
//! [`FinishedRun::run`] executes it (the only place the DES and threaded
//! runtimes differ), and [`JobTemplate::observe`] reads both arbitration
//! channels back through the `Arbiter` trait plus the consumer's arrival
//! log. The 2-replica structures (duplicated and hetero) derive their
//! replica health from those latches with `rtft_core::replica_health`.
//! Templates for an application profile come from the shared recipe in
//! [`JobTemplate::for_profile`].

use rtft_core::{
    build_duplicated, build_hetero, build_n_modular, build_n_modular_voting, replica_health,
    ArbFault, Arbiter, DuplicationConfig, FaultPlan, HeteroModel, HeteroSelector,
    HeteroSizingReport, NModularModel, NReplicator, NSelector, NSizingReport, PayloadGenerator,
    ReplicaFactory, SampledReplicator, VotingSelector,
};
use rtft_kpn::threaded::{run_threaded_with, ThreadedConfig, ThreadedRun};
use rtft_kpn::{ChannelId, Engine, Network, NodeId, PjdSink};
use rtft_obs::{HealthModel, MetricsRegistry};
use rtft_rtc::TimeNs;
use std::sync::Arc;
use std::time::Duration;

/// Fleet-wide unique job identifier, assigned at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// A replica factory that can be shared between the template and its
/// healed replacements.
pub type SharedFactory = Arc<dyn ReplicaFactory + Send + Sync>;

/// Which runtime executes the job's network.
#[derive(Debug, Clone, Copy)]
pub enum JobRuntime {
    /// Deterministic discrete-event simulation up to a virtual horizon.
    DiscreteEvent {
        /// Virtual-time limit of the run.
        horizon: TimeNs,
    },
    /// Real OS threads under wall-clock time.
    Threaded {
        /// Hard wall-clock deadline of the run.
        deadline: Duration,
        /// Quiescence idle window (see `rtft_kpn::threaded`).
        quiescence_grace: Duration,
    },
}

/// The rebuildable description of a job's network.
#[derive(Clone)]
pub enum JobTemplate {
    /// The paper's two-replica duplication (`build_duplicated`).
    Duplicated {
        /// Full duplication config (model, sizing, faults, payload).
        cfg: DuplicationConfig,
        /// Replica subnetwork factory.
        factory: SharedFactory,
    },
    /// The n-replica generalisation (`build_n_modular`).
    NModular {
        /// Interface timing models.
        model: NModularModel,
        /// Derived queue parameters.
        sizing: NSizingReport,
        /// Tokens the producer emits.
        token_count: u64,
        /// RNG seeds: producer, consumer.
        seeds: (u64, u64),
        /// Token payload generator.
        payload: PayloadGenerator,
        /// Replica subnetwork factory.
        factory: SharedFactory,
        /// One fault plan per replica.
        faults: Vec<FaultPlan>,
    },
    /// n-modular redundancy arbitrated by the value-voting selector
    /// (`build_n_modular_voting`): tolerates silent data corruption in a
    /// replica minority, not just timing faults. Needs ≥ 3 replicas.
    NModularVoting {
        /// Interface timing models.
        model: NModularModel,
        /// Derived queue parameters.
        sizing: NSizingReport,
        /// Tokens the producer emits.
        token_count: u64,
        /// RNG seeds: producer, consumer.
        seeds: (u64, u64),
        /// Token payload generator.
        payload: PayloadGenerator,
        /// Replica subnetwork factory.
        factory: SharedFactory,
        /// One fault plan per replica.
        faults: Vec<FaultPlan>,
    },
    /// The sampled-checker structure (`build_hetero`): a full-rate main
    /// replica spot-checked by a lightweight checker that re-verifies
    /// every `k`-th token digest. Runs record checker-lag and
    /// sampled-vs-verified counters into the job registry.
    Hetero {
        /// Interface timing models (main, checker, stride `k`).
        model: HeteroModel,
        /// Derived queue parameters and sampled threshold.
        sizing: HeteroSizingReport,
        /// Tokens the producer emits.
        token_count: u64,
        /// RNG seeds: producer, consumer.
        seeds: (u64, u64),
        /// Token payload generator.
        payload: PayloadGenerator,
        /// Replica subnetwork factory (side 0 = main, side 1 = checker).
        factory: SharedFactory,
        /// Fault plans: `[main, checker]`.
        faults: [FaultPlan; 2],
    },
}

impl std::fmt::Debug for JobTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobTemplate::Duplicated { cfg, .. } => f
                .debug_struct("JobTemplate::Duplicated")
                .field("cfg", cfg)
                .finish_non_exhaustive(),
            JobTemplate::NModular {
                token_count,
                faults,
                ..
            } => f
                .debug_struct("JobTemplate::NModular")
                .field("replicas", &faults.len())
                .field("token_count", token_count)
                .finish_non_exhaustive(),
            JobTemplate::NModularVoting {
                token_count,
                faults,
                ..
            } => f
                .debug_struct("JobTemplate::NModularVoting")
                .field("replicas", &faults.len())
                .field("token_count", token_count)
                .finish_non_exhaustive(),
            JobTemplate::Hetero {
                model, token_count, ..
            } => f
                .debug_struct("JobTemplate::Hetero")
                .field("k", &model.k)
                .field("token_count", token_count)
                .finish_non_exhaustive(),
        }
    }
}

impl JobTemplate {
    /// Number of replicas the template builds.
    pub fn replica_count(&self) -> usize {
        match self {
            JobTemplate::Duplicated { .. } | JobTemplate::Hetero { .. } => 2,
            JobTemplate::NModular { faults, .. } | JobTemplate::NModularVoting { faults, .. } => {
                faults.len()
            }
        }
    }

    /// Tokens the consumer is expected to receive (0 if unbounded).
    pub fn expected_tokens(&self) -> u64 {
        match self {
            JobTemplate::Duplicated { cfg, .. } => cfg.token_count.unwrap_or(0),
            JobTemplate::NModular { token_count, .. }
            | JobTemplate::NModularVoting { token_count, .. }
            | JobTemplate::Hetero { token_count, .. } => *token_count,
        }
    }

    /// A copy of the template with every fault plan cleared — what a
    /// replacement run is built from.
    pub fn healed(&self) -> JobTemplate {
        let mut healed = self.clone();
        let faults: &mut [FaultPlan] = match &mut healed {
            JobTemplate::Duplicated { cfg, .. } => &mut cfg.faults,
            JobTemplate::NModular { faults, .. } | JobTemplate::NModularVoting { faults, .. } => {
                faults
            }
            JobTemplate::Hetero { faults, .. } => faults,
        };
        faults.fill(FaultPlan::healthy());
        healed
    }

    /// Builds one fresh instance of the template's network.
    pub fn build(&self) -> (Network, JobProbe) {
        let probe = |replicator, selector, consumer| JobProbe {
            replicator,
            selector,
            consumer,
        };
        match self {
            JobTemplate::Duplicated { cfg, factory } => {
                let (net, ids) = build_duplicated(cfg, factory.as_ref());
                (net, probe(ids.replicator, ids.selector, ids.consumer))
            }
            JobTemplate::NModular {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            }
            | JobTemplate::NModularVoting {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            } => {
                let build = match self {
                    JobTemplate::NModularVoting { .. } => build_n_modular_voting,
                    _ => build_n_modular,
                };
                let (net, ids) = build(
                    model,
                    sizing,
                    *token_count,
                    *seeds,
                    Arc::clone(payload),
                    factory.as_ref(),
                    faults,
                );
                (net, probe(ids.replicator, ids.selector, ids.consumer))
            }
            JobTemplate::Hetero {
                model,
                sizing,
                token_count,
                seeds,
                payload,
                factory,
                faults,
            } => {
                let (net, ids) = build_hetero(
                    model,
                    sizing,
                    *token_count,
                    *seeds,
                    Arc::clone(payload),
                    factory.as_ref(),
                    faults,
                );
                (net, probe(ids.replicator, ids.selector, ids.consumer))
            }
        }
    }

    /// Reads a finished run of this template back: both arbitration
    /// channels' latches (through [`Arbiter`], typed per structure) and
    /// the consumer's arrival log.
    pub fn observe(&self, run: &FinishedRun, probe: &JobProbe) -> Observation {
        match self {
            JobTemplate::Duplicated { .. } | JobTemplate::NModular { .. } => {
                run.observe::<NReplicator, NSelector>(probe)
            }
            JobTemplate::NModularVoting { .. } => run.observe::<NReplicator, VotingSelector>(probe),
            JobTemplate::Hetero { .. } => run.observe::<SampledReplicator, HeteroSelector>(probe),
        }
    }
}

/// Where a built job is read back from: its two arbitration channels and
/// its consumer sink.
#[derive(Debug, Clone, Copy)]
pub struct JobProbe {
    /// The replicator channel.
    pub replicator: ChannelId,
    /// The selector channel.
    pub selector: ChannelId,
    /// The consumer process (a [`PjdSink`]).
    pub consumer: NodeId,
}

/// A job's network after its run, under either runtime.
pub enum FinishedRun {
    /// A discrete-event run (the engine may carry any platform).
    Des(Box<Engine>),
    /// A run on real OS threads.
    Threaded(ThreadedRun),
}

impl FinishedRun {
    /// Runs `net` under `runtime` — the one place the two runtimes
    /// differ. Threaded runs record their runtime metrics into
    /// `registry`; DES runs record none.
    pub fn run(net: Network, runtime: &JobRuntime, registry: &MetricsRegistry) -> Self {
        match *runtime {
            JobRuntime::DiscreteEvent { horizon } => {
                let mut engine = Engine::new(net);
                engine.run_until(horizon);
                FinishedRun::Des(Box::new(engine))
            }
            JobRuntime::Threaded {
                deadline,
                quiescence_grace,
            } => {
                let config = ThreadedConfig::new(deadline)
                    .with_quiescence_grace(quiescence_grace)
                    .with_metrics(registry);
                FinishedRun::Threaded(run_threaded_with(net, &config))
            }
        }
    }

    /// Inspects channel `id` under its concrete type.
    fn channel<T: 'static, R>(&self, id: ChannelId, f: impl FnOnce(&T) -> R) -> Option<R> {
        match self {
            FinishedRun::Des(engine) => engine.network().channel_as::<T>(id).map(f),
            FinishedRun::Threaded(run) => run.channel_as::<T, R>(id.0, f),
        }
    }

    /// Every replica's latch record at arbitration channel `id`.
    fn latches<A: Arbiter + 'static>(&self, id: ChannelId) -> Vec<Option<ArbFault>> {
        self.channel(id, A::latches).unwrap_or_default()
    }

    fn observe<R: Arbiter + 'static, S: Arbiter + 'static>(&self, probe: &JobProbe) -> Observation {
        let sink = match self {
            FinishedRun::Des(engine) => engine.network().process_as::<PjdSink>(probe.consumer),
            // Only processes that halted before the deadline come back.
            FinishedRun::Threaded(run) => run.process_as::<PjdSink>("consumer"),
        };
        Observation {
            replicator: self.latches::<R>(probe.replicator),
            selector: self.latches::<S>(probe.selector),
            arrival_log: sink.map_or_else(Vec::new, |s| {
                s.arrivals().iter().map(|&(t, d)| (t.as_ns(), d)).collect()
            }),
        }
    }
}

/// What a finished run's arbitration channels and consumer recorded.
#[derive(Debug)]
pub struct Observation {
    /// Replicator latch record per replica.
    pub replicator: Vec<Option<ArbFault>>,
    /// Selector latch record per replica.
    pub selector: Vec<Option<ArbFault>>,
    /// The consumer's `(arrival time ns, payload digest)` log.
    pub arrival_log: Vec<(u64, u64)>,
}

impl Observation {
    /// Replica indices latched by either channel, ascending.
    pub fn faulty_replicas(&self) -> Vec<usize> {
        (0..self.replicator.len().max(self.selector.len()))
            .filter(|&i| self.first_latch(i).is_some())
            .collect()
    }

    /// Earliest latch of replica `i` over both channels.
    pub fn first_latch(&self, i: usize) -> Option<TimeNs> {
        let at = |v: &[Option<ArbFault>]| v.get(i).copied().flatten().map(|f| f.at);
        match (at(&self.replicator), at(&self.selector)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// One admitted job: a template, a runtime, and a relative deadline.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable tenant/job name (report key).
    pub name: String,
    /// The network to build for each run.
    pub template: JobTemplate,
    /// Completion deadline relative to admission (wall clock); drives the
    /// executor's EDF ordering and the `deadline_met` verdict.
    pub relative_deadline: Duration,
    /// Runtime the network executes under.
    pub runtime: JobRuntime,
}

/// Everything the supervisor needs to know about one finished run.
#[derive(Debug)]
pub struct JobRunResult {
    /// Tokens the consumer actually received.
    pub arrivals: u64,
    /// Tokens the consumer was expected to receive.
    pub expected: u64,
    /// Replica indices latched faulty by either arbitration channel,
    /// ascending, deduplicated.
    pub faulty_replicas: Vec<usize>,
    /// The run's private metrics registry (folded into the fleet registry
    /// by the supervisor).
    pub registry: MetricsRegistry,
    /// Replica health of the 2-replica structures (duplicated, hetero),
    /// derived from the latches after the run; `None` for n-modular jobs,
    /// which report faults through `faulty_replicas` only.
    pub health: Option<HealthModel>,
    /// The consumer's per-token `(arrival time ns, payload digest)` log,
    /// in delivery order — what a streaming front-end pushes back to its
    /// client as `Output` frames.
    pub arrival_log: Vec<(u64, u64)>,
}

impl JobRunResult {
    /// `true` when every expected token arrived (an unbounded job is
    /// complete when it delivered anything at all).
    pub fn completed(&self) -> bool {
        if self.expected == 0 {
            self.arrivals > 0
        } else {
            self.arrivals >= self.expected
        }
    }
}

/// Builds and runs one instance of the template under the given runtime:
/// [`JobTemplate::build`], then [`FinishedRun::run`], then
/// [`JobTemplate::observe`].
///
/// The 2-replica structures derive their [`HealthModel`] from the
/// latches ([`replica_health`]). Duplicated runs also record
/// `core.detections` (latches at either channel) and
/// `core.selector.discarded` (tokens the selector consumed without
/// delivery). Hetero runs instead record how many main tokens were
/// sampled for re-verification, how many of those the checker verified,
/// and how far the checker still lagged the sampled stream at the end
/// (`hetero.tokens.sampled` / `hetero.tokens.verified` /
/// `hetero.checker_lag`).
///
/// This is a plain synchronous function: the fleet executor calls it from
/// a pool worker, tests can call it directly.
///
/// # Panics
///
/// Panics if the template's sizing and model disagree (propagated from the
/// `rtft-core` builders) — the executor catches this and marks the run
/// failed rather than poisoning the pool.
pub fn execute(template: &JobTemplate, runtime: &JobRuntime) -> JobRunResult {
    let registry = MetricsRegistry::new();
    let (net, probe) = template.build();
    let run = FinishedRun::run(net, runtime, &registry);
    let obs = template.observe(&run, &probe);
    let health = match template {
        JobTemplate::Duplicated { cfg, .. } => {
            let latched = obs.replicator.iter().chain(&obs.selector).flatten().count();
            registry.counter("core.detections").add(latched as u64);
            let discarded = run
                .channel(probe.selector, NSelector::discarded)
                .unwrap_or_default();
            registry.counter("core.selector.discarded").add(discarded);
            Some(replica_health(&cfg.faults, &obs.replicator, &obs.selector))
        }
        JobTemplate::Hetero { faults, .. } => {
            let (samples, verified, lag) = run
                .channel(probe.selector, |s: &HeteroSelector| {
                    let c = s.policy();
                    (c.samples(), c.verified(), c.checker_lag())
                })
                .unwrap_or_default();
            registry.counter("hetero.tokens.sampled").add(samples);
            registry.counter("hetero.tokens.verified").add(verified);
            registry.gauge("hetero.checker_lag").set(lag);
            Some(replica_health(faults, &obs.replicator, &obs.selector))
        }
        JobTemplate::NModular { .. } | JobTemplate::NModularVoting { .. } => None,
    };
    JobRunResult {
        arrivals: obs.arrival_log.len() as u64,
        expected: template.expected_tokens(),
        faulty_replicas: obs.faulty_replicas(),
        registry,
        health,
        arrival_log: obs.arrival_log,
    }
}

/// Runs a full [`JobSpec`] outside the executor: builds the template and
/// executes it under the spec's runtime, ignoring admission and deadlines.
///
/// This is the WAL replay path — `rtft-serve`'s `replay_verify` re-runs a
/// logged stream's spec through the exact same builder the live server
/// used, so the replayed output digests are comparable bit-for-bit with
/// the logged ones. Determinism holds because every jitter source is
/// seeded from the spec itself.
pub fn execute_spec(spec: &JobSpec) -> JobRunResult {
    execute(&spec.template, &spec.runtime)
}
