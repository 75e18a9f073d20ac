//! Arbitration decoupled: *compare policy* × *replica count*.
//!
//! The paper's selector fuses two orthogonal concerns: **how many** replica
//! streams it merges, and **how** it decides which token of each duplicate
//! group reaches the consumer. The original `NSelector` / `VotingSelector`
//! implementations each re-carried the full counter ledger (received
//! counts, virtual-queue spaces, divergence threshold `D`, stall slack) and
//! differed only in the group-arbitration rule. This module pulls the two
//! apart:
//!
//! * [`ArbiterLedger`] — the replica-count-generic counter state shared by
//!   every selector: one virtual queue per replica, the eq. (5) divergence
//!   latch, the §3.3 stall latch, and the delivery queue. It never looks at
//!   token *values*.
//! * [`ComparePolicy`] — the pluggable arbitration rule. A policy sees each
//!   healthy replica's next token together with the ledger and decides what
//!   to deliver, what to discard, and which replicas to latch for
//!   value-level disagreement:
//!   - [`FirstOfGroup`] — the paper's timing arbitration (first of each
//!     duplicate group wins), used by `NSelector`;
//!   - `MajorityVote` (in [`voting`](crate::voting)) — digest quorum per
//!     group, used by `VotingSelector`;
//!   - `SampledCheck` (in [`hetero`](crate::hetero)) — full-rate main
//!     stream spot-checked every `k`-th token by a trusted checker, used by
//!     `HeteroSelector`.
//! * [`PolicySelector`] — the single channel implementation parameterised
//!   by the policy. `NSelector`, `VotingSelector`, and `HeteroSelector` are
//!   type aliases of its instantiations, so existing downcasts and APIs are
//!   untouched (the arbitration regression matrix pins their reports to the
//!   pre-refactor bytes).
//!
//! Every fault latch lands in the unified [`ArbFault`] record; the aliases
//! expose their historical record types ([`SelectorFaultRecord`],
//! `VoteFaultRecord`) through lossless conversions. Replica health is
//! derived from those records once, after the run ([`replica_health`]),
//! for every 2-replica structure alike.
//!
//! [`SelectorFaultRecord`]: crate::SelectorFaultRecord

use crate::fault::{FaultPlan, FaultTrigger};
use rtft_kpn::{ChannelBehavior, ReadOutcome, Token, WriteOutcome};
use rtft_obs::{DetectionSite, HealthModel};
use rtft_rtc::TimeNs;
use std::any::Any;
use std::collections::VecDeque;

/// Which detection rule latched a replica, across every compare policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbFaultCause {
    /// Received-token count fell `D` behind the healthy front-runner
    /// (eq. (5)).
    Divergence,
    /// Virtual-queue space overran capacity plus the stall slack (§3.3).
    Stall,
    /// The replica's token value disagreed with the policy's verdict
    /// (majority digest, or the trusted checker's recomputation).
    ValueMismatch,
}

/// A latched fault in the unified arbitration ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbFault {
    /// Virtual time of the latch.
    pub at: TimeNs,
    /// Detection rule that fired.
    pub cause: ArbFaultCause,
    /// Duplicate-group index of the disagreeing value (value faults only).
    pub group: Option<u64>,
}

/// The compare-policy-agnostic counter state of a selector: per-replica
/// received counts and virtual capacities, the shared delivery queue, and
/// the two counter-based timing detectors of §3.3/eq. (5).
#[derive(Debug)]
pub struct ArbiterLedger {
    name: String,
    queue: VecDeque<Token>,
    capacity: Vec<usize>,
    received: Vec<u64>,
    reads: u64,
    enqueued: u64,
    discarded: u64,
    max_fill: usize,
    fault: Vec<Option<ArbFault>>,
    threshold: u64,
    stall_slack: u64,
    stall_detect: bool,
    divergence_detect: bool,
}

impl ArbiterLedger {
    /// Creates a ledger with per-replica virtual capacities and divergence
    /// threshold `d` (stall slack `d − 1`).
    ///
    /// # Panics
    ///
    /// Panics on an empty capacity list, a zero capacity, or `d == 0`.
    pub fn new(name: impl Into<String>, capacity: Vec<usize>, d: u64) -> Self {
        assert!(!capacity.is_empty(), "need at least one replica interface");
        assert!(
            capacity.iter().all(|c| *c > 0),
            "capacities must be positive"
        );
        assert!(d > 0, "threshold must be positive");
        let n = capacity.len();
        ArbiterLedger {
            name: name.into(),
            queue: VecDeque::new(),
            capacity,
            received: vec![0; n],
            reads: 0,
            enqueued: 0,
            discarded: 0,
            max_fill: 0,
            fault: vec![None; n],
            threshold: d,
            stall_slack: d - 1,
            stall_detect: true,
            divergence_detect: true,
        }
    }

    /// Disables the eq. (5) divergence latch, leaving the stall rule as
    /// the only timing detector (the §3.3 "first method"; ablation E9).
    /// Policies that override [`ComparePolicy::check_divergence`] with
    /// their own rule are unaffected.
    pub fn without_divergence_detection(mut self) -> Self {
        self.divergence_detect = false;
        self
    }

    /// Disables the §3.3 stall latch. Required by policies whose interfaces
    /// legally run at different rates (sampled checking): the slow side's
    /// `space` counter grows without bound fault-free, so the stall rule
    /// would be an instant false positive.
    pub fn without_stall_detection(mut self) -> Self {
        self.stall_detect = false;
        self
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of replica (write) interfaces.
    pub fn replica_count(&self) -> usize {
        self.received.len()
    }

    /// Fault record of replica `i`, if latched.
    pub fn fault(&self, i: usize) -> Option<ArbFault> {
        self.fault[i]
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.fault.iter().filter(|f| f.is_none()).count()
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.fault
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.map(|_| i))
    }

    /// Tokens delivered to the consumer so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Tokens consumed without delivery (duplicates, losing votes, latched
    /// writes) so far.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Consumer reads served so far.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Tokens received on interface `i` so far (the replica's next write is
    /// its entry for duplicate group `received(i)`).
    pub fn received(&self, i: usize) -> u64 {
        self.received[i]
    }

    /// The divergence threshold `D` the ledger latches on.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The `space_i` counter (capacity − received + reads).
    pub fn space(&self, i: usize) -> i64 {
        self.capacity[i] as i64 - self.received[i] as i64 + self.reads as i64
    }

    /// Highest received count over the healthy interfaces.
    pub fn healthy_max_received(&self) -> u64 {
        self.received
            .iter()
            .zip(&self.fault)
            .filter(|(_, f)| f.is_none())
            .map(|(r, _)| *r)
            .max()
            .unwrap_or(0)
    }

    /// Latches replica `i` (first cause wins; re-latching is a no-op).
    pub fn latch(&mut self, i: usize, cause: ArbFaultCause, group: Option<u64>, now: TimeNs) {
        if self.fault[i].is_none() {
            self.fault[i] = Some(ArbFault {
                at: now,
                cause,
                group,
            });
        }
    }

    /// Counts replica `i`'s next write and returns its duplicate-group
    /// index.
    pub fn note_received(&mut self, i: usize) -> u64 {
        let group = self.received[i];
        self.received[i] += 1;
        group
    }

    /// Pushes a token onto the consumer queue.
    pub fn deliver(&mut self, token: Token) {
        self.queue.push_back(token);
        self.max_fill = self.max_fill.max(self.queue.len());
        self.enqueued += 1;
    }

    /// Counts a token that was consumed without delivery.
    pub fn discard(&mut self) {
        self.discarded += 1;
    }

    /// The eq. (5) divergence latch: any healthy replica whose received
    /// count fell `D` behind the healthy front-runner. The front-runner
    /// itself — and the last healthy replica — are never latched. A no-op
    /// when divergence detection is disabled
    /// ([`Self::without_divergence_detection`]).
    pub fn check_divergence(&mut self, now: TimeNs) {
        if !self.divergence_detect {
            return;
        }
        let max = self.healthy_max_received();
        for i in 0..self.received.len() {
            if self.fault[i].is_none()
                && self.healthy_count() > 1
                && max - self.received[i] >= self.threshold
            {
                self.fault[i] = Some(ArbFault {
                    at: now,
                    cause: ArbFaultCause::Divergence,
                    group: None,
                });
            }
        }
    }

    /// The §3.3 stall latch: any healthy replica whose virtual space
    /// overran its capacity plus the stall slack. A no-op when stall
    /// detection is disabled ([`Self::without_stall_detection`]).
    pub fn check_stall(&mut self, now: TimeNs) {
        if !self.stall_detect {
            return;
        }
        for i in 0..self.received.len() {
            if self.fault[i].is_none()
                && self.healthy_count() > 1
                && self.space(i) > (self.capacity[i] as u64 + self.stall_slack) as i64
            {
                self.fault[i] = Some(ArbFault {
                    at: now,
                    cause: ArbFaultCause::Stall,
                    group: None,
                });
            }
        }
    }

    fn pop(&mut self, now: TimeNs) -> ReadOutcome {
        match self.queue.pop_front() {
            Some(t) => {
                self.reads += 1;
                self.check_stall(now);
                ReadOutcome::Token(t)
            }
            None => ReadOutcome::Blocked,
        }
    }
}

/// A pluggable group-arbitration rule over the [`ArbiterLedger`].
///
/// [`PolicySelector::try_write`] handles the policy-independent preamble
/// (latched-interface writes, flow control) and postlude (the divergence
/// check); the policy decides everything value- and group-related in
/// between.
pub trait ComparePolicy: std::fmt::Debug + Send + 'static {
    /// Arbitrates one healthy, in-window write: count it via
    /// [`ArbiterLedger::note_received`], then deliver / discard / latch.
    /// Returns `Accepted` iff the write caused at least one delivery.
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        now: TimeNs,
    ) -> WriteOutcome;

    /// A write on an already-latched interface. The default swallows it so
    /// a limping replica can never block the network.
    fn latched_write(
        &mut self,
        ledger: &mut ArbiterLedger,
        _iface: usize,
        _token: Token,
        _now: TimeNs,
    ) -> WriteOutcome {
        ledger.discard();
        WriteOutcome::AcceptedDropped
    }

    /// The post-write divergence check. Policies whose interfaces legally
    /// run at different rates (sampled checking) override this with a
    /// rate-normalised rule.
    fn check_divergence(&mut self, ledger: &mut ArbiterLedger, now: TimeNs) {
        ledger.check_divergence(now);
    }

    /// Whether interface `iface` is subject to the ledger's space-based
    /// flow control (`capacity − received + reads`). The rule presumes the
    /// interface's tokens reach the consumer queue; policies with a
    /// never-delivered interface (sampled-checker votes are discarded on
    /// arrival) exempt it, or a faulty peer that stops the delivered
    /// stream would block the healthy side.
    fn flow_controlled(&self, _iface: usize) -> bool {
        true
    }
}

/// The paper's timing arbitration: the first token of each duplicate group
/// is delivered, late group members are discarded. Pure counter logic —
/// token values are never inspected.
#[derive(Debug, Default, Clone, Copy)]
pub struct FirstOfGroup;

impl ComparePolicy for FirstOfGroup {
    fn arbitrate(
        &mut self,
        ledger: &mut ArbiterLedger,
        iface: usize,
        token: Token,
        _now: TimeNs,
    ) -> WriteOutcome {
        // First of its duplicate group iff no healthy peer has delivered
        // this group index yet.
        let first = ledger.received(iface) >= ledger.healthy_max_received();
        ledger.note_received(iface);
        if first {
            ledger.deliver(token);
            WriteOutcome::Accepted
        } else {
            ledger.discard();
            WriteOutcome::AcceptedDropped
        }
    }
}

/// The one selector channel: an [`ArbiterLedger`] arbitrated by a
/// [`ComparePolicy`]. `NSelector`, `VotingSelector`, and `HeteroSelector`
/// are instantiation aliases.
#[derive(Debug)]
pub struct PolicySelector<P: ComparePolicy> {
    ledger: ArbiterLedger,
    policy: P,
}

impl<P: ComparePolicy> PolicySelector<P> {
    /// Assembles a selector from its ledger and policy.
    pub fn from_parts(ledger: ArbiterLedger, policy: P) -> Self {
        PolicySelector { ledger, policy }
    }

    /// The channel's diagnostic name.
    pub fn name(&self) -> &str {
        self.ledger.name()
    }

    /// The shared counter ledger (read-only).
    pub fn ledger(&self) -> &ArbiterLedger {
        &self.ledger
    }

    /// The arbitration policy (read-only).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Number of replicas still healthy.
    pub fn healthy_count(&self) -> usize {
        self.ledger.healthy_count()
    }

    /// Indices of the replicas currently latched faulty, ascending.
    pub fn faulty_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ledger.faulty_indices()
    }

    /// Tokens delivered to the consumer so far.
    pub fn enqueued(&self) -> u64 {
        self.ledger.enqueued()
    }

    /// Tokens consumed without delivery so far.
    pub fn discarded(&self) -> u64 {
        self.ledger.discarded()
    }

    /// Unified fault record of replica `i`, if latched (the aliases also
    /// expose their historical record types).
    pub fn arb_fault(&self, i: usize) -> Option<ArbFault> {
        self.ledger.fault(i)
    }
}

impl<P: ComparePolicy> ChannelBehavior for PolicySelector<P> {
    fn try_write(&mut self, iface: usize, token: Token, now: TimeNs) -> WriteOutcome {
        if self.ledger.fault(iface).is_some() {
            return self
                .policy
                .latched_write(&mut self.ledger, iface, token, now);
        }
        if self.policy.flow_controlled(iface) && self.ledger.space(iface) <= 0 {
            return WriteOutcome::Blocked(token);
        }
        let outcome = self.policy.arbitrate(&mut self.ledger, iface, token, now);
        self.policy.check_divergence(&mut self.ledger, now);
        outcome
    }

    fn try_read(&mut self, iface: usize, now: TimeNs) -> ReadOutcome {
        assert_eq!(iface, 0, "selector has a single read interface");
        self.ledger.pop(now)
    }

    fn write_ifaces(&self) -> usize {
        self.ledger.replica_count()
    }

    fn read_ifaces(&self) -> usize {
        1
    }

    fn fill(&self, _iface: usize) -> usize {
        self.ledger.queue.len()
    }

    fn capacity(&self, iface: usize) -> usize {
        self.ledger.capacity[iface.min(self.ledger.capacity.len() - 1)]
    }

    fn max_fill(&self, _iface: usize) -> usize {
        self.ledger.max_fill
    }

    fn debug_name(&self) -> Option<&str> {
        Some(self.ledger.name())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Uniform read-side introspection over every arbitration channel —
/// replicators and selectors of any structure. The fleet job runner reads
/// every structure's latches through this (`rtft_fleet::JobTemplate::observe`,
/// one generic read-back for the DES and threaded runtimes), and the chaos
/// scenario runner reuses that same read-back for its latch sweep.
pub trait Arbiter {
    /// Diagnostic name of the channel.
    fn arbiter_name(&self) -> &str;

    /// Number of replica-facing interfaces.
    fn replica_ifaces(&self) -> usize;

    /// Unified latch record for replica `i`.
    fn latched(&self, i: usize) -> Option<ArbFault>;

    /// Every replica's latch record, in interface order.
    fn latches(&self) -> Vec<Option<ArbFault>> {
        (0..self.replica_ifaces())
            .map(|i| self.latched(i))
            .collect()
    }

    /// Replicas not latched.
    fn healthy_replicas(&self) -> usize {
        (0..self.replica_ifaces())
            .filter(|&i| self.latched(i).is_none())
            .count()
    }

    /// Earliest latch instant over all replicas, if any latched.
    fn first_latch(&self) -> Option<TimeNs> {
        (0..self.replica_ifaces())
            .filter_map(|i| self.latched(i).map(|f| f.at))
            .min()
    }
}

impl<P: ComparePolicy> Arbiter for PolicySelector<P> {
    fn arbiter_name(&self) -> &str {
        self.ledger.name()
    }

    fn replica_ifaces(&self) -> usize {
        self.ledger.replica_count()
    }

    fn latched(&self, i: usize) -> Option<ArbFault> {
        self.ledger.fault(i)
    }
}

/// Replica health of a 2-replica structure after its run, derived from
/// the latch records of its replicator and selector (one entry per
/// replica, as [`Arbiter::latches`] returns them).
///
/// Injection instants come from the time-triggered fault plans, so the
/// model's detection-latency histogram measures `detected_at −
/// injected_at` in the run's own (virtual or wall) time. Each latch
/// counts as one detection at its site; a replicator overflow is a
/// write-side stall, and a value mismatch is reported at the divergence
/// site, the closest label.
pub fn replica_health(
    faults: &[FaultPlan],
    replicator: &[Option<ArbFault>],
    selector: &[Option<ArbFault>],
) -> HealthModel {
    let health = HealthModel::new(faults.len());
    for (i, plan) in faults.iter().enumerate() {
        if let FaultTrigger::AtTime(t) = plan.trigger {
            health.note_fault_injected(i, t.as_ns());
        }
    }
    let latch = |v: &[Option<ArbFault>], i: usize| v.get(i).copied().flatten();
    for i in 0..faults.len() {
        let mut events: Vec<(DetectionSite, u64)> = Vec::new();
        if let Some(f) = latch(replicator, i) {
            let site = match f.cause {
                ArbFaultCause::Stall => DetectionSite::ReplicatorOverflow,
                ArbFaultCause::Divergence | ArbFaultCause::ValueMismatch => {
                    DetectionSite::ReplicatorDivergence
                }
            };
            events.push((site, f.at.as_ns()));
        }
        if let Some(f) = latch(selector, i) {
            let site = match f.cause {
                ArbFaultCause::Stall => DetectionSite::SelectorStall,
                ArbFaultCause::Divergence | ArbFaultCause::ValueMismatch => {
                    DetectionSite::SelectorDivergence
                }
            };
            events.push((site, f.at.as_ns()));
        }
        // `on_detection` takes the first call as the first detection, so
        // feed the sites in time order.
        events.sort_by_key(|e| e.1);
        for (site, at) in events {
            health.on_detection(i, site, at);
        }
    }
    health
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_kpn::Payload;

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
    }

    #[test]
    fn ledger_counts_and_spaces() {
        let mut l = ArbiterLedger::new("l", vec![4, 6], 3);
        assert_eq!(l.replica_count(), 2);
        assert_eq!(l.space(0), 4);
        assert_eq!(l.space(1), 6);
        assert_eq!(l.note_received(0), 0);
        assert_eq!(l.note_received(0), 1);
        assert_eq!(l.space(0), 2);
        l.deliver(tok(0));
        assert_eq!(l.enqueued(), 1);
        assert!(matches!(l.pop(TimeNs::ZERO), ReadOutcome::Token(_)));
        assert_eq!(l.space(0), 3, "reads open space back up");
    }

    #[test]
    fn first_of_group_delivers_once_per_group() {
        let ledger = ArbiterLedger::new("s", vec![4, 4], 2);
        let mut s = PolicySelector::from_parts(ledger, FirstOfGroup);
        assert_eq!(s.try_write(1, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        assert_eq!(
            s.try_write(0, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
        assert_eq!(s.enqueued(), 1);
        assert_eq!(s.discarded(), 1);
    }

    #[test]
    fn divergence_latches_behind_replica_only() {
        let ledger = ArbiterLedger::new("s", vec![16, 16], 3);
        let mut s = PolicySelector::from_parts(ledger, FirstOfGroup);
        for g in 0..3 {
            s.try_write(0, tok(g), TimeNs::from_ms(g));
        }
        let f = s.arb_fault(1).expect("stalled replica latched");
        assert_eq!(f.cause, ArbFaultCause::Divergence);
        assert!(s.arb_fault(0).is_none(), "front-runner never latched");
        assert_eq!(s.healthy_count(), 1);
        // Arbiter-trait view agrees.
        assert_eq!(s.healthy_replicas(), 1);
        assert_eq!(s.first_latch(), Some(TimeNs::from_ms(2)));
    }

    #[test]
    fn latched_writes_are_swallowed_by_default() {
        let ledger = ArbiterLedger::new("s", vec![16, 16], 2);
        let mut s = PolicySelector::from_parts(ledger, FirstOfGroup);
        for g in 0..2 {
            s.try_write(0, tok(g), TimeNs::ZERO);
        }
        assert!(s.arb_fault(1).is_some());
        assert_eq!(
            s.try_write(1, tok(0), TimeNs::ZERO),
            WriteOutcome::AcceptedDropped
        );
    }
}
