//! The one recipe that turns an application timing profile into a
//! runnable redundancy structure.
//!
//! Every caller that builds a job from an app profile — the serve
//! front-end's flush jobs, the chaos scenario runner and the chaos fleet
//! and tenant mixes — goes through [`JobTemplate::for_profile`]. The
//! replica service time, the shaper offset, the seed derivation, the
//! tri-voting third replica and the sampled-checker model live here and
//! nowhere else, so a logged flush replays into the very network the live
//! server ran.
//!
//! Run horizons stay with the callers: they differ on purpose (serve
//! grants hetero streams `8·k` extra periods, the chaos runner does not),
//! and folding them in here would change chaos outcomes.

use crate::job::JobTemplate;
use rtft_core::{
    DuplicationConfig, FaultPlan, HeteroModel, HeteroSizingReport, HeteroStageReplica,
    JitterStageReplica, NJitterStageReplica, NModularModel, NSizingReport, PayloadGenerator,
};
use rtft_rtc::sizing::DuplicationModel;
use rtft_rtc::{PjdModel, TimeNs};
use std::sync::Arc;

/// The replica compute stage's service time is the producer period divided
/// by this (see [`output_slowdown`]).
const SERVICE_DIVISOR: u64 = 2;

/// How much a `SlowBy(factor)` replica fault degrades the replica's
/// *output* period under this recipe: `factor / SERVICE_DIVISOR`, since
/// the compute stage runs at half the producer period. Below `1.0` the
/// downstream shaper hides the slack and the fault is analytically
/// undetectable.
pub fn output_slowdown(factor: f64) -> f64 {
    factor / SERVICE_DIVISOR as f64
}

/// How the critical subnetwork is replicated and arbitrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Redundancy {
    /// The paper's two-replica duplication with the timing selector.
    Duplicated,
    /// Three replicas arbitrated by the value-voting selector.
    TriVoting,
    /// Full-rate main replica plus a lightweight checker that re-verifies
    /// every `k`-th token digest (`rtft_core::hetero`).
    Hetero {
        /// Sampling stride; campaigns sweep `k ∈ {1, 4, 16, 64}`.
        k: u64,
    },
}

impl Redundancy {
    /// Replica count of the structure (the hetero checker counts as a
    /// replica slot for fault-injection purposes).
    pub fn replicas(self) -> usize {
        match self {
            Redundancy::Duplicated | Redundancy::Hetero { .. } => 2,
            Redundancy::TriVoting => 3,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Redundancy::Duplicated => "duplicated",
            Redundancy::TriVoting => "tri-voting",
            // Metric labels are interned statics, so the swept strides map
            // through a match.
            Redundancy::Hetero { k: 1 } => "hetero-k1",
            Redundancy::Hetero { k: 4 } => "hetero-k4",
            Redundancy::Hetero { k: 16 } => "hetero-k16",
            Redundancy::Hetero { k: 64 } => "hetero-k64",
            Redundancy::Hetero { .. } => "hetero",
        }
    }
}

/// The tri-voting model of a duplication profile: both profile replicas
/// plus a third at the producer period whose output jitter sits midway
/// between theirs.
fn voting_model(model: &DuplicationModel) -> NModularModel {
    let [a, b] = model.replica_out;
    let mid_jitter = TimeNs::from_ns((a.jitter.as_ns() + b.jitter.as_ns()) / 2);
    NModularModel {
        producer: model.producer,
        consumer: model.consumer,
        replicas: vec![
            a,
            b,
            PjdModel::new(model.producer.period, mid_jitter, TimeNs::ZERO),
        ],
    }
}

/// The sampled-checker model of a duplication profile at stride `k`: the
/// first profile replica runs full rate, the checker samples with the
/// second replica's jitter.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn hetero_model(model: &DuplicationModel, k: u64) -> HeteroModel {
    HeteroModel::with_checker_jitter(
        model.producer,
        model.consumer,
        model.replica_out[0],
        model.replica_out[1].jitter,
        k,
    )
}

impl JobTemplate {
    /// Builds `redundancy` over an application timing profile.
    ///
    /// Replicas compute for half the producer period and shape their
    /// output with an offset of `service + producer jitter + 1 ms`; every
    /// RNG seed derives from `seed`. `faults` lists `(replica, plan)`
    /// pairs; pairs naming a replica the structure does not have are
    /// ignored, and a later pair for the same replica wins.
    ///
    /// # Panics
    ///
    /// Panics if the profile's rates diverge (its sizing analysis fails).
    pub fn for_profile(
        model: &DuplicationModel,
        redundancy: Redundancy,
        token_count: u64,
        seed: u64,
        payload: PayloadGenerator,
        faults: &[(usize, FaultPlan)],
    ) -> JobTemplate {
        let service = model.producer.period / SERVICE_DIVISOR;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        let seeds = (seed ^ 0xA5A5, seed ^ 0x5A5A);
        let mut plans = vec![FaultPlan::healthy(); redundancy.replicas()];
        for &(replica, plan) in faults {
            if let Some(slot) = plans.get_mut(replica) {
                *slot = plan;
            }
        }
        const BOUNDED: &str = "profile models are bounded";
        match redundancy {
            Redundancy::Duplicated => {
                let mut cfg = DuplicationConfig::from_model(*model)
                    .expect(BOUNDED)
                    .with_token_count(token_count)
                    .with_seeds(seeds.0, seeds.1)
                    .with_payload(payload);
                cfg.faults = [plans[0], plans[1]];
                let factory = JitterStageReplica {
                    service,
                    out_model: model.replica_out.map(|m| m.with_delay(offset)),
                    seeds: [seed ^ 0x11, seed ^ 0x22],
                };
                JobTemplate::Duplicated {
                    cfg,
                    factory: Arc::new(factory),
                }
            }
            Redundancy::TriVoting => {
                let model = voting_model(model);
                let factory = NJitterStageReplica {
                    service,
                    out_models: model.replicas.clone(),
                    offset,
                    seed_base: seed ^ 0x33,
                };
                JobTemplate::NModularVoting {
                    sizing: NSizingReport::analyze(&model).expect(BOUNDED),
                    model,
                    token_count,
                    seeds,
                    payload,
                    factory: Arc::new(factory),
                    faults: plans,
                }
            }
            Redundancy::Hetero { k } => {
                let model = hetero_model(model, k);
                let factory = HeteroStageReplica {
                    service,
                    out_models: [model.main, model.checker],
                    offset,
                    seed_base: seed ^ 0x44,
                };
                JobTemplate::Hetero {
                    sizing: HeteroSizingReport::analyze(&model).expect(BOUNDED),
                    model,
                    token_count,
                    seeds,
                    payload,
                    factory: Arc::new(factory),
                    faults: [plans[0], plans[1]],
                }
            }
        }
    }
}
