//! The replicator and selector channels (paper §3.1 and §3.3), for any
//! replica count `n ≥ 2`.
//!
//! The paper presents two replicas and states that "a more general setup
//! for tolerating up to n timing faults can be easily constructed using
//! the principles outlined in this paper" (§1). This module is that
//! construction, and the paper's duplicated structure is its `n = 2` case
//! (`build_duplicated`).
//!
//! * [`NReplicator`] duplicates the producer stream to every replica and
//!   latches a replica that stops consuming; its rules are set out in
//!   [`crate::replicator`].
//! * [`NSelector`] merges the replica outputs, delivering the first token
//!   of each duplicate group, and latches a replica that stops producing;
//!   its rules (§3.1 rules 1–3, Lemma 1 and the two corrections to §3)
//!   are set out in [`crate::selector`].
//!
//! Both are built here into the n-modular structure
//! ([`build_n_modular`]).

use crate::arbitration::{
    ArbFault, ArbFaultCause, Arbiter, ArbiterLedger, FirstOfGroup, PolicySelector,
};
use crate::fault::FaultPlan;
use crate::replicator::{FaultRecord, ReplicatorFaultCause};
use crate::selector::{SelectorFaultCause, SelectorFaultRecord};
use rtft_kpn::{
    ChannelBehavior, ChannelId, Network, NodeId, PjdSink, PjdSource, PortId, ReadOutcome, Token,
    WriteOutcome,
};
use rtft_rtc::sizing;
use rtft_rtc::{detection, CurveAnalysisError, PjdModel, TimeNs};
use std::any::Any;
use std::collections::VecDeque;

/// Interface timing models of an `n`-replica duplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NModularModel {
    /// Producer output model.
    pub producer: PjdModel,
    /// Consumer input model.
    pub consumer: PjdModel,
    /// One interface model per replica (used for both consumption and
    /// production, as in the paper's experiments).
    pub replicas: Vec<PjdModel>,
}

/// The §3.4 analysis generalised to `n` replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NSizingReport {
    /// Per-replica replicator queue capacity (eq. (3)).
    pub replicator_capacity: Vec<u64>,
    /// Per-replica selector virtual-queue capacity.
    pub selector_capacity: Vec<u64>,
    /// Divergence threshold `D`: eq. (5) maximised over all ordered pairs.
    pub threshold: u64,
    /// Worst-case fail-stop detection bound (pairwise worst case).
    pub detection_bound: TimeNs,
}

impl NSizingReport {
    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CurveAnalysisError`] if any rate pairing diverges.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two replicas are given.
    pub fn analyze(model: &NModularModel) -> Result<Self, CurveAnalysisError> {
        assert!(
            model.replicas.len() >= 2,
            "n-modular redundancy needs at least two replicas"
        );
        let mut replicator_capacity = Vec::new();
        let mut selector_capacity = Vec::new();
        for r in &model.replicas {
            replicator_capacity.push(sizing::fifo_capacity(&model.producer, r)?);
            selector_capacity.push(sizing::selector_capacity(&model.consumer, r)?);
        }
        let mut threshold = 0;
        for (i, a) in model.replicas.iter().enumerate() {
            for (j, b) in model.replicas.iter().enumerate() {
                if i != j {
                    threshold = threshold.max(sizing::divergence_threshold(a, b)?);
                }
            }
        }
        let mut detection_bound = TimeNs::ZERO;
        for r in &model.replicas {
            detection_bound =
                detection_bound.max(detection::fail_stop_detection_bound(&[*r, *r], threshold));
        }
        Ok(NSizingReport {
            replicator_capacity,
            selector_capacity,
            threshold,
            detection_bound,
        })
    }

    /// Number of replicas covered.
    pub fn replica_count(&self) -> usize {
        self.replicator_capacity.len()
    }
}

/// N-way replicator channel (rules in [`crate::replicator`]).
///
/// Implements [`ChannelBehavior`], so it runs unchanged under the
/// discrete-event engine and the threaded runtime.
///
/// # Examples
///
/// ```
/// use rtft_core::NReplicator;
/// use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};
/// use rtft_rtc::TimeNs;
///
/// let mut r = NReplicator::new("rep", vec![2, 2], None);
/// let t = Token::new(0, TimeNs::ZERO, Payload::U64(7));
/// assert_eq!(r.try_write(0, t, TimeNs::ZERO), WriteOutcome::Accepted);
/// // Both replicas see the token.
/// assert!(matches!(r.try_read(0, TimeNs::ZERO), ReadOutcome::Token(_)));
/// assert!(matches!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Token(_)));
/// ```
#[derive(Debug)]
pub struct NReplicator {
    name: String,
    queues: Vec<VecDeque<Token>>,
    capacity: Vec<usize>,
    max_fill: Vec<usize>,
    consumed: Vec<u64>,
    fault: Vec<Option<FaultRecord>>,
    divergence_threshold: Option<u64>,
    detect_overflow: bool,
}

impl NReplicator {
    /// Creates an n-way replicator with the given per-replica capacities.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two queues or any zero capacity.
    pub fn new(
        name: impl Into<String>,
        capacity: Vec<usize>,
        divergence_threshold: Option<u64>,
    ) -> Self {
        assert!(capacity.len() >= 2, "need at least two replicas");
        assert!(
            capacity.iter().all(|c| *c > 0),
            "capacities must be positive"
        );
        let n = capacity.len();
        NReplicator {
            name: name.into(),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            capacity,
            max_fill: vec![0; n],
            consumed: vec![0; n],
            fault: vec![None; n],
            divergence_threshold,
            detect_overflow: true,
        }
    }

    /// Disables all fault detection (ablation: bare §3.1 semantics). A
    /// write blocks unless every queue has space, which reproduces the
    /// §1.1 deadlock once a replica stops consuming.
    pub fn without_detection(mut self) -> Self {
        self.detect_overflow = false;
        self.divergence_threshold = None;
        self
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Fault record of replica `i`, if latched.
    pub fn fault(&self, i: usize) -> Option<FaultRecord> {
        self.fault[i]
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.fault.iter().filter(|f| f.is_none()).count()
    }

    /// Bytes of framework state (fault-detection bookkeeping): the struct
    /// plus its per-replica vectors, token storage excluded — the paper's
    /// Table 2 memory-overhead convention.
    pub fn state_bytes(&self) -> usize {
        let n = self.capacity.len();
        std::mem::size_of::<Self>()
            + n * (std::mem::size_of::<VecDeque<Token>>()
                + 2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<u64>()
                + std::mem::size_of::<Option<FaultRecord>>())
    }

    /// Indices of the replicas currently latched faulty, ascending — the
    /// enumeration counterpart of probing [`NReplicator::fault`] in a
    /// loop. The fleet supervisor uses this to decide which replicas a
    /// replacement run must re-spawn.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.fault
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|_| i))
    }

    fn check_divergence(&mut self, now: TimeNs) {
        let Some(d) = self.divergence_threshold else {
            return;
        };
        let max = self
            .consumed
            .iter()
            .zip(&self.fault)
            .filter(|(_, f)| f.is_none())
            .map(|(c, _)| *c)
            .max()
            .unwrap_or(0);
        for i in 0..self.queues.len() {
            if self.fault[i].is_none() && self.healthy_count() > 1 && max - self.consumed[i] >= d {
                self.fault[i] = Some(FaultRecord {
                    at: now,
                    cause: ReplicatorFaultCause::Divergence,
                });
            }
        }
    }
}

impl ChannelBehavior for NReplicator {
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        assert_eq!(iface, 0, "replicator has a single write interface");
        if !self.detect_overflow {
            // Bare §3.1 rule 3: block unless every queue has space.
            if (0..self.queues.len()).any(|i| self.queues[i].len() >= self.capacity[i]) {
                return WriteOutcome::Blocked(token);
            }
        }
        // §3.3 overflow latch per full healthy queue, keeping the last
        // healthy replica: once it alone is full the write blocks, so a
        // totally blocked system shows as back-pressure, not token loss.
        for i in 0..self.queues.len() {
            if self.fault[i].is_none()
                && self.queues[i].len() >= self.capacity[i]
                && self.healthy_count() > 1
            {
                self.fault[i] = Some(FaultRecord {
                    at: now,
                    cause: ReplicatorFaultCause::Overflow,
                });
            }
        }
        let mut delivered = false;
        for i in 0..self.queues.len() {
            if self.fault[i].is_none() && self.queues[i].len() < self.capacity[i] {
                self.queues[i].push_back(token.clone());
                self.max_fill[i] = self.max_fill[i].max(self.queues[i].len());
                delivered = true;
            }
        }
        if delivered {
            WriteOutcome::Accepted
        } else {
            WriteOutcome::Blocked(token)
        }
    }

    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        match self.queues[iface].pop_front() {
            Some(t) => {
                self.consumed[iface] += 1;
                self.check_divergence(now);
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }

    fn write_ifaces(&self) -> usize {
        1
    }

    fn read_ifaces(&self) -> usize {
        self.queues.len()
    }

    fn fill(&self, iface: usize) -> usize {
        self.queues[iface].len()
    }

    fn capacity(&self, iface: usize) -> usize {
        self.capacity[iface]
    }

    fn max_fill(&self, iface: usize) -> usize {
        self.max_fill[iface]
    }

    fn debug_name(&self) -> Option<&str> {
        Some(&self.name)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

impl Arbiter for NReplicator {
    fn arbiter_name(&self) -> &str {
        self.name()
    }

    fn replica_ifaces(&self) -> usize {
        self.capacity.len()
    }

    fn latched(&self, i: usize) -> Option<ArbFault> {
        self.fault[i].map(|f| ArbFault {
            at: f.at,
            cause: match f.cause {
                ReplicatorFaultCause::Overflow => ArbFaultCause::Stall,
                ReplicatorFaultCause::Divergence => ArbFaultCause::Divergence,
            },
            group: None,
        })
    }
}

/// N-way selector channel: the paper's timing arbitration
/// ([`FirstOfGroup`]) over the shared [`ArbiterLedger`]. Interface `i`
/// supplies the first token of duplicate group `k` iff no healthy peer has
/// delivered `k` yet; late group members are discarded; the eq. (5)
/// divergence and §3.3 stall rules latch a lagging replica.
///
/// # Examples
///
/// ```
/// use rtft_core::NSelector;
/// use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};
/// use rtft_rtc::TimeNs;
///
/// let mut s = NSelector::new("sel", vec![4, 4], 3);
/// let t0 = TimeNs::ZERO;
/// let tok = |seq| Token::new(seq, t0, Payload::U64(seq));
/// // Replica 0 delivers first: enqueued. Replica 1's duplicate: discarded.
/// assert_eq!(s.try_write(0, tok(0), t0), WriteOutcome::Accepted);
/// assert_eq!(s.try_write(1, tok(0), t0), WriteOutcome::AcceptedDropped);
/// // The consumer sees the pair exactly once.
/// assert!(matches!(s.try_read(0, t0), ReadOutcome::Token(t) if t.seq == 0));
/// assert_eq!(s.try_read(0, t0), ReadOutcome::Blocked);
/// ```
pub type NSelector = PolicySelector<FirstOfGroup>;

impl NSelector {
    /// Creates an n-way selector with per-replica virtual capacities and
    /// divergence threshold `d` (stall slack `d − 1`).
    ///
    /// # Panics
    ///
    /// Panics on fewer than two interfaces, a zero capacity, or `d == 0`.
    pub fn new(name: impl Into<String>, capacity: Vec<usize>, d: u64) -> Self {
        assert!(capacity.len() >= 2, "need at least two replicas");
        PolicySelector::from_parts(ArbiterLedger::new(name, capacity, d), FirstOfGroup)
    }

    /// Bytes of framework state (fault-detection bookkeeping): the struct
    /// plus the ledger's per-replica vectors, token storage excluded.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ledger().replica_count()
                * (std::mem::size_of::<usize>()
                    + std::mem::size_of::<u64>()
                    + std::mem::size_of::<Option<ArbFault>>())
    }

    /// Fault record of replica `i`, if latched.
    pub fn fault(&self, i: usize) -> Option<SelectorFaultRecord> {
        self.arb_fault(i).map(|f| SelectorFaultRecord {
            at: f.at,
            cause: match f.cause {
                ArbFaultCause::Divergence => SelectorFaultCause::Divergence,
                ArbFaultCause::Stall => SelectorFaultCause::Stall,
                ArbFaultCause::ValueMismatch => {
                    unreachable!("timing arbitration never inspects values")
                }
            },
        })
    }
}

/// The n-replica counterpart of
/// [`JitterStageReplica`](crate::JitterStageReplica): each replica is a
/// fixed-service transform stage followed by a [`PjdShaper`] imposing that
/// replica's ⟨P, J⟩ output model. Works for any replica count, so the
/// fleet executor uses it for synthetic n-modular jobs.
///
/// [`PjdShaper`]: rtft_kpn::PjdShaper
#[derive(Debug, Clone)]
pub struct NJitterStageReplica {
    /// Fixed per-token service time of each compute stage.
    pub service: TimeNs,
    /// Per-replica output interface models (without the schedule offset).
    pub out_models: Vec<PjdModel>,
    /// Shaper schedule offset; must cover `service` plus producer jitter.
    pub offset: TimeNs,
    /// Base RNG seed; replica `i` uses `seed_base + i`.
    pub seed_base: u64,
}

impl NJitterStageReplica {
    /// Builds the factory from an n-modular model: service one tenth of
    /// the producer period, offset `service + producer jitter + 1 ms`.
    pub fn from_model(model: &NModularModel) -> Self {
        let service = model.producer.period / 10;
        let offset = service + model.producer.jitter + TimeNs::from_ms(1);
        NJitterStageReplica {
            service,
            out_models: model.replicas.clone(),
            offset,
            seed_base: 0,
        }
    }

    /// Replaces the base seed.
    pub fn with_seed_base(mut self, seed_base: u64) -> Self {
        self.seed_base = seed_base;
        self
    }
}

impl crate::ReplicaFactory for NJitterStageReplica {
    fn build(
        &self,
        net: &mut Network,
        input: PortId,
        output: PortId,
        replica: usize,
        fault: FaultPlan,
    ) -> Vec<NodeId> {
        let internal = net.add_channel(rtft_kpn::Fifo::new(format!("r{replica}.shape"), 4));
        let seed = self.seed_base.wrapping_add(replica as u64);
        let stage = rtft_kpn::Transform::new(
            format!("replica{replica}.stage"),
            input,
            PortId::of(internal),
            self.service,
            TimeNs::ZERO,
            seed,
            |p| p,
        );
        let stage_id = net.add_process(crate::FaultyProcess::new(stage, fault));
        let shaper = rtft_kpn::PjdShaper::new(
            format!("replica{replica}.shaper"),
            PortId::of(internal),
            output,
            self.out_models[replica].with_delay(self.offset),
            seed.wrapping_add(0x5eed),
        );
        let shaper_id = net.add_process(shaper);
        vec![stage_id, shaper_id]
    }
}

/// Ids of a built n-modular network.
#[derive(Debug, Clone)]
pub struct NModularIds {
    /// The n-way replicator.
    pub replicator: ChannelId,
    /// The n-way selector.
    pub selector: ChannelId,
    /// The producer process.
    pub producer: NodeId,
    /// The consumer process.
    pub consumer: NodeId,
    /// Per-replica process ids.
    pub replicas: Vec<Vec<NodeId>>,
}

impl NModularIds {
    /// Consumer arrivals after a run.
    ///
    /// # Panics
    ///
    /// Panics if the network does not contain the expected sink.
    pub fn consumer_arrivals<'a>(&self, net: &'a Network) -> &'a [(TimeNs, u64)] {
        net.process_as::<PjdSink>(self.consumer)
            .expect("consumer sink")
            .arrivals()
    }
}

/// Builds an n-modular network: producer → n-replicator → `n` replicas →
/// n-selector → consumer, with a fault plan per replica.
///
/// # Panics
///
/// Panics if `faults.len() != model.replicas.len()` or fewer than two
/// replicas are configured.
pub fn build_n_modular(
    model: &NModularModel,
    sizing: &NSizingReport,
    token_count: u64,
    seeds: (u64, u64),
    payload: crate::PayloadGenerator,
    factory: &dyn crate::ReplicaFactory,
    faults: &[FaultPlan],
) -> (Network, NModularIds) {
    let n = model.replicas.len();
    assert!(n >= 2, "n-modular redundancy needs at least two replicas");
    assert_eq!(faults.len(), n, "one fault plan per replica");

    let mut net = Network::new();
    let replicator = net.add_channel(NReplicator::new(
        "n-replicator",
        sizing
            .replicator_capacity
            .iter()
            .map(|c| *c as usize)
            .collect(),
        Some(sizing.threshold),
    ));
    let selector = net.add_channel(NSelector::new(
        "n-selector",
        sizing
            .selector_capacity
            .iter()
            .map(|c| *c as usize)
            .collect(),
        sizing.threshold,
    ));

    let gen = payload;
    let producer = net.add_process(PjdSource::new(
        "producer",
        PortId::of(replicator),
        model.producer,
        seeds.0,
        Some(token_count),
        move |seq| gen(seq),
    ));

    let replicas: Vec<Vec<NodeId>> = (0..n)
        .map(|i| {
            factory.build(
                &mut net,
                PortId::iface(replicator, i),
                PortId::iface(selector, i),
                i,
                faults[i],
            )
        })
        .collect();

    let consumer = net.add_process(PjdSink::new(
        "consumer",
        PortId::of(selector),
        model.consumer,
        seeds.1,
        Some(token_count),
    ));

    (
        net,
        NModularIds {
            replicator,
            selector,
            producer,
            consumer,
            replicas,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ReplicaFactory;
    use crate::fault::FaultPlan;
    use rtft_kpn::{Engine, Fifo, Payload, PjdShaper, Transform};
    use std::sync::Arc;

    /// A shaper-based replica factory for arbitrary replica counts.
    struct TriReplica {
        models: Vec<PjdModel>,
    }

    impl ReplicaFactory for TriReplica {
        fn build(
            &self,
            net: &mut Network,
            input: PortId,
            output: PortId,
            replica: usize,
            fault: FaultPlan,
        ) -> Vec<NodeId> {
            let internal = net.add_channel(Fifo::new(format!("r{replica}.mid"), 4));
            let stage = Transform::new(
                format!("r{replica}.stage"),
                input,
                PortId::of(internal),
                TimeNs::from_ms(2),
                TimeNs::ZERO,
                replica as u64,
                |p| p,
            );
            let stage_id = net.add_process(crate::FaultyProcess::new(stage, fault));
            let model = self.models[replica].with_delay(TimeNs::from_ms(5));
            let shaper = net.add_process(PjdShaper::new(
                format!("r{replica}.shaper"),
                PortId::of(internal),
                output,
                model,
                0x5eed + replica as u64,
            ));
            vec![stage_id, shaper]
        }
    }

    fn tri_model() -> NModularModel {
        NModularModel {
            producer: PjdModel::from_ms(30.0, 2.0, 0.0),
            consumer: PjdModel::from_ms(30.0, 2.0, 120.0),
            replicas: vec![
                PjdModel::from_ms(30.0, 5.0, 0.0),
                PjdModel::from_ms(30.0, 15.0, 0.0),
                PjdModel::from_ms(30.0, 30.0, 0.0),
            ],
        }
    }

    fn run_tri(faults: Vec<FaultPlan>) -> (usize, Vec<bool>) {
        let model = tri_model();
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = TriReplica {
            models: model.replicas.clone(),
        };
        let tokens = 150u64;
        let (net, ids) = build_n_modular(
            &model,
            &sizing,
            tokens,
            (1, 2),
            Arc::new(|seq| Payload::U64(seq.wrapping_mul(0x9e37_79b9))),
            &factory,
            &faults,
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();
        let arrivals = ids.consumer_arrivals(net).len();
        let rep = net
            .channel_as::<NReplicator>(ids.replicator)
            .expect("replicator");
        let sel = net.channel_as::<NSelector>(ids.selector).expect("selector");
        let flagged = (0..3)
            .map(|i| rep.fault(i).is_some() || sel.fault(i).is_some())
            .collect();
        (arrivals, flagged)
    }

    #[test]
    fn sizing_generalizes_pairwise() {
        use rtft_rtc::sizing::SizingReport;
        let model = tri_model();
        let s = NSizingReport::analyze(&model).expect("bounded");
        assert_eq!(s.replica_count(), 3);
        // The 2-replica analysis on the extreme pair lower-bounds the
        // 3-replica threshold.
        let pair = SizingReport::analyze(&rtft_rtc::sizing::DuplicationModel::symmetric(
            model.producer,
            model.consumer,
            [model.replicas[0], model.replicas[2]],
        ))
        .expect("bounded");
        assert!(s.threshold >= pair.selector_threshold);
        assert!(s.detection_bound >= pair.selector_detection_bound);
    }

    #[test]
    fn fault_free_triplication_delivers_everything_once() {
        let (arrivals, flagged) = run_tri(vec![FaultPlan::healthy(); 3]);
        assert_eq!(arrivals, 150);
        assert_eq!(flagged, vec![false, false, false], "no false positives");
    }

    #[test]
    fn single_fault_in_triplicated_network() {
        let (arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_secs(2)),
            FaultPlan::healthy(),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals, 150);
        assert_eq!(flagged, vec![true, false, false]);
    }

    #[test]
    fn two_staggered_faults_are_tolerated() {
        // The headline of the generalisation: n = 3 tolerates two faults.
        let (arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_500)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(3_000)),
            FaultPlan::healthy(),
        ]);
        assert_eq!(arrivals, 150, "two faults masked by the surviving replica");
        assert_eq!(flagged, vec![true, true, false]);
    }

    #[test]
    fn multi_fault_accounting_and_latch_ordering() {
        // Satellite coverage for the fleet supervisor's observation path:
        // with replicas 0 and 1 fail-stopped 1.5 s apart, the detectors
        // must agree on *which* replicas are faulty, latch them in injection
        // order, and keep the survivor's stream flowing.
        let model = tri_model();
        let sizing = NSizingReport::analyze(&model).expect("bounded");
        let factory = TriReplica {
            models: model.replicas.clone(),
        };
        let (net, ids) = build_n_modular(
            &model,
            &sizing,
            150,
            (1, 2),
            Arc::new(Payload::U64),
            &factory,
            &[
                FaultPlan::fail_stop_at(TimeNs::from_ms(1_500)),
                FaultPlan::fail_stop_at(TimeNs::from_ms(3_000)),
                FaultPlan::healthy(),
            ],
        );
        let mut engine = Engine::new(net);
        engine.run_until(TimeNs::from_secs(30));
        let net = engine.network();

        let rep = net
            .channel_as::<NReplicator>(ids.replicator)
            .expect("replicator");
        let sel = net.channel_as::<NSelector>(ids.selector).expect("selector");

        // Which replicas are faulty: the union over both detectors is
        // exactly {0, 1}, and each detector's own view is consistent with
        // its healthy_count.
        let mut faulty: Vec<usize> = rep.faulty_indices().chain(sel.faulty_indices()).collect();
        faulty.sort_unstable();
        faulty.dedup();
        assert_eq!(faulty, vec![0, 1]);
        assert_eq!(
            rep.healthy_count() + rep.faulty_indices().count(),
            3,
            "replicator partition must cover all replicas"
        );
        assert_eq!(
            sel.healthy_count() + sel.faulty_indices().count(),
            3,
            "selector partition must cover all replicas"
        );
        assert!(sel.healthy_count() >= 1, "front-runner never latched");

        // Latch ordering follows injection order: replica 0 died first, so
        // every detector that latched both saw 0 before 1.
        let latch = |i: usize| -> Option<TimeNs> {
            let r = rep.fault(i).map(|f| f.at);
            let s = sel.fault(i).map(|f| f.at);
            match (r, s) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let (t0, t1) = (latch(0).expect("0 latched"), latch(1).expect("1 latched"));
        assert!(
            t0 < t1,
            "replica 0 must latch before replica 1 ({t0:?} vs {t1:?})"
        );
        assert!(latch(2).is_none(), "survivor never latched");

        // The survivor's stream is still selected end-to-end.
        assert_eq!(ids.consumer_arrivals(net).len(), 150);
    }

    #[test]
    fn last_healthy_replica_is_never_latched() {
        // Even when every replica dies, the detectors keep at least one
        // unlatched (the front-runner) — the single-fault assumption's
        // graceful edge.
        let (_arrivals, flagged) = run_tri(vec![
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_000)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(1_600)),
            FaultPlan::fail_stop_at(TimeNs::from_ms(2_200)),
        ]);
        assert!(!flagged[2], "front-runner must survive latching");
    }

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::from_ms(seq), Payload::U64(seq))
    }

    fn read_all(s: &mut NSelector) -> Vec<u64> {
        let mut out = Vec::new();
        while let ReadOutcome::Token(t) = s.try_read(0, TimeNs::ZERO) {
            out.push(t.seq);
        }
        out
    }

    #[test]
    fn n_selector_delivers_groups_once_any_order() {
        let t = TimeNs::ZERO;
        // n = 2: replica 0 first for pair 0, replica 1 first for pair 1.
        let mut s = NSelector::new("s", vec![4, 4], 3);
        assert_eq!(s.try_write(0, tok(0), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(1, tok(0), t), WriteOutcome::AcceptedDropped);
        assert_eq!(s.try_write(1, tok(1), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(1), t), WriteOutcome::AcceptedDropped);
        assert_eq!(read_all(&mut s), vec![0, 1]);
        assert_eq!((s.enqueued(), s.discarded()), (2, 2));

        // n = 3: group 0 arrives in order 1, 0, 2; group 1 in order 2, 0, 1.
        let mut s = NSelector::new("s", vec![4, 4, 4], 3);
        assert_eq!(s.try_write(1, tok(0), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(0), t), WriteOutcome::AcceptedDropped);
        assert_eq!(s.try_write(2, tok(0), t), WriteOutcome::AcceptedDropped);
        assert_eq!(s.try_write(2, tok(1), t), WriteOutcome::Accepted);
        assert_eq!(s.try_write(0, tok(1), t), WriteOutcome::AcceptedDropped);
        assert_eq!(s.try_write(1, tok(1), t), WriteOutcome::AcceptedDropped);
        assert_eq!(read_all(&mut s), vec![0, 1]);
        assert_eq!((s.enqueued(), s.discarded()), (2, 4));
    }

    #[test]
    fn n_selector_lemma1_interface_j_never_touches_space_i() {
        for n in [2, 3] {
            let mut s = NSelector::new("s", vec![4; n], 10);
            let before = s.ledger().space(0);
            for seq in 0..3 {
                s.try_write(n - 1, tok(seq), TimeNs::ZERO);
            }
            assert_eq!(s.ledger().space(0), before, "n = {n}");
        }
    }

    #[test]
    fn n_replicator_duplicates_to_all() {
        for n in [2, 3] {
            let mut r = NReplicator::new("r", vec![4; n], None);
            for seq in 0..3 {
                let t = Token::new(seq, TimeNs::from_ms(17), Payload::U64(seq));
                assert_eq!(
                    r.try_write(0, t, TimeNs::from_ms(20)),
                    WriteOutcome::Accepted
                );
            }
            for i in 0..n {
                for seq in 0..3 {
                    match r.try_read(i, TimeNs::from_ms(21)) {
                        ReadOutcome::Token(t) => {
                            assert_eq!((t.seq, t.payload), (seq, Payload::U64(seq)));
                            assert_eq!(t.produced_at, TimeNs::from_ms(17), "timestamp kept");
                        }
                        ReadOutcome::Blocked => panic!("queue {i} missing token {seq}"),
                    }
                }
                assert_eq!(r.try_read(i, TimeNs::ZERO), ReadOutcome::Blocked);
            }
        }
    }

    #[test]
    fn n_replicator_overflow_latches_and_unblocks_producer() {
        for n in [2, 3] {
            let mut caps = vec![4; n];
            caps[0] = 2;
            let mut r = NReplicator::new("r", caps, None);
            // Replica 0 never reads; the others keep up.
            let step = |r: &mut NReplicator, s: u64, at: TimeNs| {
                assert_eq!(r.try_write(0, tok(s), at), WriteOutcome::Accepted);
                for i in 1..n {
                    assert!(matches!(r.try_read(i, at), ReadOutcome::Token(_)));
                }
            };
            for s in 0..2 {
                step(&mut r, s, TimeNs::from_ms(s));
            }
            assert!(r.fault(0).is_none());
            // Third write: queue 0 full → latch; the others still get it.
            step(&mut r, 2, TimeNs::from_ms(5));
            let f = r.fault(0).expect("latched");
            assert_eq!(f.cause, ReplicatorFaultCause::Overflow);
            assert_eq!(f.at, TimeNs::from_ms(5));
            for s in 3..100 {
                step(&mut r, s, TimeNs::from_ms(s));
            }
            // The latched queue received nothing beyond its capacity.
            assert_eq!((r.fill(0), r.max_fill(0)), (2, 2));
            assert_eq!(r.healthy_count(), n - 1);
        }
    }

    #[test]
    fn n_replicator_last_healthy_queue_applies_back_pressure() {
        // Both queues full: replica 0 latches, but the last healthy
        // replica never does — the write blocks instead of dropping the
        // token, and resumes once that replica reads.
        let mut r = NReplicator::new("r", vec![1, 1], None);
        assert_eq!(r.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        assert!(matches!(
            r.try_write(0, tok(1), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        assert!(r.fault(0).is_some());
        assert!(r.fault(1).is_none(), "the last healthy replica is kept");
        assert!(matches!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Token(_)));
        assert_eq!(r.try_write(0, tok(1), TimeNs::ZERO), WriteOutcome::Accepted);
    }

    #[test]
    fn n_replicator_without_detection_blocks_on_full_queue() {
        for n in [2, 3] {
            let mut caps = vec![4; n];
            caps[0] = 1;
            let mut r = NReplicator::new("r", caps, Some(1)).without_detection();
            assert_eq!(r.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
            // Queue 0 full, nobody reads it: the producer blocks (§1.1).
            assert!(matches!(
                r.try_write(0, tok(1), TimeNs::ZERO),
                WriteOutcome::Blocked(_)
            ));
            for i in 1..n {
                let _ = r.try_read(i, TimeNs::ZERO);
            }
            assert_eq!(r.healthy_count(), n, "no detection, no latch");
        }
    }

    #[test]
    fn state_footprint_is_within_paper_scale() {
        // The paper reports ~1.5 KB replicator and ~2.1 KB selector
        // overhead at n = 2, tokens excluded.
        let r = NReplicator::new("r", vec![4, 4], Some(3));
        assert!(r.state_bytes() <= 1_536, "{}", r.state_bytes());
        let s = NSelector::new("s", vec![4, 4], 3);
        assert!(s.state_bytes() <= 2_100, "{}", s.state_bytes());
        // Bookkeeping grows with the replica count.
        assert!(NReplicator::new("r", vec![4; 3], None).state_bytes() > r.state_bytes());
        assert!(NSelector::new("s", vec![4; 3], 3).state_bytes() > s.state_bytes());
    }

    #[test]
    #[should_panic(expected = "at least two replicas")]
    fn single_replica_rejected() {
        let _ = NReplicator::new("r", vec![2], None);
    }
}
