//! # rtft-core — timing fault detection & tolerance for process networks
//!
//! The primary contribution of *"An Efficient Real Time Fault Detection and
//! Tolerance Framework Validated on the Intel SCC Processor"* (Rai, Huang,
//! Stoimenov, Thiele — DAC 2014), reimplemented as a Rust library.
//!
//! A safety-critical streaming application (a Kahn-style process network)
//! is made tolerant to a single permanent **timing fault** by duplicating
//! its critical subnetwork and wrapping the two replicas between two
//! special arbitration channels:
//!
//! * the replicator ([`NReplicator`]) duplicates the producer stream to
//!   both replicas and detects a replica that stops (or slows)
//!   *consuming* — a write attempt that finds a replica queue full latches
//!   that replica faulty (§3.3) and un-blocks the producer, avoiding the
//!   deadlock of §1.1;
//! * the selector ([`NSelector`]) merges the replica outputs, delivering
//!   the first token of each duplicate pair and discarding the late one
//!   (§3.1), and detects a replica that stops (or slows) *producing* via
//!   the divergence threshold `D` of eq. (5) and/or the stall rule.
//!
//! Both channels take any replica count `n ≥ 2` (the paper's §1
//! generalisation); the duplicated structure is their `n = 2` case, and
//! the triple-voting and sampled-checker structures share the same
//! selector core ([`arbitration`]). Neither channel ever reads a clock —
//! all detection is counter-based, with the counters' thresholds derived
//! offline by `rtft-rtc` from the application's arrival-curve models.
//! Replica health is read from the channels' latch records after the run
//! ([`replica_health`], [`DuplicatedIds::health`]).
//!
//! # Quick start
//!
//! ```
//! use rtft_core::{
//!     build_duplicated, DuplicationConfig, FaultPlan, JitterStageReplica,
//! };
//! use rtft_kpn::{Engine, Payload};
//! use rtft_rtc::sizing::DuplicationModel;
//! use rtft_rtc::{PjdModel, TimeNs};
//! use std::sync::Arc;
//!
//! // Interface models: ~30 fps with differing replica jitter (Table 1).
//! let model = DuplicationModel::symmetric(
//!     PjdModel::from_ms(30.0, 2.0, 0.0),
//!     PjdModel::from_ms(30.0, 2.0, 90.0), // consumer starts one hyperperiod late
//!     [PjdModel::from_ms(30.0, 5.0, 0.0), PjdModel::from_ms(30.0, 30.0, 0.0)],
//! );
//! let cfg = DuplicationConfig::from_model(model)?
//!     .with_token_count(100)
//!     .with_payload(Arc::new(Payload::U64))
//!     // Replica 0 fail-stops after one second.
//!     .with_fault(0, FaultPlan::fail_stop_at(TimeNs::from_secs(1)));
//!
//! let replica = JitterStageReplica::from_model(&cfg.model).with_seeds([11, 22]);
//! let (net, ids) = build_duplicated(&cfg, &replica);
//! let mut engine = Engine::new(net);
//! engine.run_until(TimeNs::from_secs(20));
//!
//! // The fault was detected…
//! let faults = ids.selector_faults(engine.network());
//! assert!(faults[0].is_some() || ids.replicator_faults(engine.network())[0].is_some());
//! // …and masked: the consumer received every token.
//! assert_eq!(ids.consumer_arrivals(engine.network()).len(), 100);
//! # Ok::<(), rtft_rtc::CurveAnalysisError>(())
//! ```

#![warn(missing_docs)]

pub mod arbitration;
mod builder;
pub mod dot;
pub mod equivalence;
mod fault;
pub mod hetero;
pub mod nmodular;
pub mod replicator;
pub mod selector;
mod voting;

// The streaming checksum the equivalence checks and the WAL record format
// share — re-exported so fault-tolerance code can name it without reaching
// into the runtime crate.
pub use rtft_kpn::{digest_bytes, Digest};

pub use arbitration::{
    replica_health, ArbFault, ArbFaultCause, Arbiter, ArbiterLedger, ComparePolicy, FirstOfGroup,
    PolicySelector,
};
pub use builder::{
    build_duplicated, build_reference, DuplicatedIds, DuplicationConfig, JitterStageReplica,
    PayloadGenerator, ReferenceIds, ReplicaFactory,
};
pub use fault::{CorruptionMode, FaultKind, FaultPlan, FaultTrigger, FaultyProcess};
pub use hetero::{
    build_hetero, HeteroIds, HeteroModel, HeteroSelector, HeteroSizingReport, HeteroStageReplica,
    SampledCheck, SampledReplicator,
};
pub use nmodular::{
    build_n_modular, NJitterStageReplica, NModularIds, NModularModel, NReplicator, NSelector,
    NSizingReport,
};
pub use replicator::{FaultRecord, ReplicatorFaultCause};
pub use selector::{SelectorFaultCause, SelectorFaultRecord};
pub use voting::{build_n_modular_voting, VoteFaultCause, VoteFaultRecord, VotingSelector};
