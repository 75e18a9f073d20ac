//! The replicator channel's rules (paper §3.1 and §3.3) and its latch
//! records.
//!
//! [`NReplicator`] duplicates the producer stream to every replica; the
//! paper's duplicated structure is its `n = 2` case. It has **one write
//! interface** (the producer) and **`n` read interfaces** (the replicas),
//! backed by one bounded FIFO per replica sized by eq. (3) so that —
//! fault-free — the producer never blocks.
//!
//! Fault detection (§3.3) exploits exactly that sizing guarantee: if a
//! write finds a healthy queue full, that replica must have stopped (or
//! slowed) consuming, so its fault flag latches, the queue stops receiving
//! tokens, and the producer keeps feeding the healthy replicas — avoiding
//! the §1.1 deadlock. An optional divergence detector on the replicas'
//! *consumption counts* (eq. (5) applied to the consumption curves)
//! catches slow consumers earlier than the overflow latch.
//! [`NReplicator::without_detection`] restores the bare §3.1 rule — block
//! unless every queue has space — which reproduces the motivational
//! deadlock.
//!
//! The last healthy queue is never latched: once it alone is full the
//! write blocks, so a totally blocked system shows as back-pressure, not
//! token loss (DESIGN.md §5 addendum).
//!
//! [`NReplicator`]: crate::NReplicator
//! [`NReplicator::without_detection`]: crate::NReplicator::without_detection

use rtft_rtc::TimeNs;

/// Which detection rule latched a replica faulty at a replicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicatorFaultCause {
    /// A producer write found the replica's queue full (§3.3 overflow rule).
    Overflow,
    /// The difference in consumed-token counts crossed the divergence
    /// threshold.
    Divergence,
}

/// A latched fault-detection record at a replicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRecord {
    /// Time of the operation during which the fault was detected.
    pub at: TimeNs,
    /// Which rule fired.
    pub cause: ReplicatorFaultCause,
}

// The paper's two-replica replicator: `NReplicator` at n = 2.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::NReplicator;
    use rtft_kpn::{ChannelBehavior, Payload, ReadOutcome, Token, WriteOutcome};

    fn tok(seq: u64) -> Token {
        Token::new(seq, TimeNs::ZERO, Payload::U64(seq))
    }

    fn replicator(caps: [usize; 2]) -> NReplicator {
        NReplicator::new("r", caps.to_vec(), None)
    }

    fn space(r: &NReplicator, i: usize) -> usize {
        r.capacity(i) - r.fill(i)
    }

    #[test]
    fn duplicates_every_token_to_both_queues() {
        let mut r = replicator([4, 4]);
        for s in 0..3 {
            assert_eq!(r.try_write(0, tok(s), TimeNs::ZERO), WriteOutcome::Accepted);
        }
        for i in 0..2 {
            for s in 0..3 {
                match r.try_read(i, TimeNs::ZERO) {
                    ReadOutcome::Token(t) => {
                        assert_eq!(t.seq, s);
                        assert_eq!(t.payload, Payload::U64(s));
                    }
                    ReadOutcome::Blocked => panic!("queue {i} missing token {s}"),
                }
            }
        }
    }

    #[test]
    fn timestamps_are_preserved() {
        let mut r = replicator([2, 2]);
        let t = Token::new(0, TimeNs::from_ms(17), Payload::Empty);
        r.try_write(0, t, TimeNs::from_ms(20));
        for i in 0..2 {
            match r.try_read(i, TimeNs::from_ms(21)) {
                ReadOutcome::Token(t) => assert_eq!(t.produced_at, TimeNs::from_ms(17)),
                ReadOutcome::Blocked => panic!(),
            }
        }
    }

    #[test]
    fn overflow_latches_fault_and_unblocks_producer() {
        let mut r = replicator([2, 4]);
        // Replica 0 never reads; replica 1 keeps up.
        for s in 0..2 {
            assert_eq!(
                r.try_write(0, tok(s), TimeNs::from_ms(s)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(s)),
                ReadOutcome::Token(_)
            ));
        }
        assert!(r.fault(0).is_none());
        // Third write: queue 0 full → latch, token still goes to replica 1.
        assert_eq!(
            r.try_write(0, tok(2), TimeNs::from_ms(5)),
            WriteOutcome::Accepted
        );
        let fault = r.fault(0).expect("latched");
        assert_eq!(fault.cause, ReplicatorFaultCause::Overflow);
        assert_eq!(fault.at, TimeNs::from_ms(5));
        assert!(matches!(
            r.try_read(1, TimeNs::from_ms(5)),
            ReadOutcome::Token(_)
        ));
        // Producer can keep writing indefinitely.
        for s in 3..100 {
            assert_eq!(
                r.try_write(0, tok(s), TimeNs::from_ms(s)),
                WriteOutcome::Accepted
            );
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(s)),
                ReadOutcome::Token(_)
            ));
        }
        // The latched queue received nothing beyond its capacity.
        assert_eq!(r.fill(0), 2);
        assert_eq!(r.max_fill(0), 2);
    }

    #[test]
    fn without_detection_write_blocks_on_full_queue() {
        let mut r = NReplicator::new("r", vec![1, 4], None).without_detection();
        assert_eq!(r.try_write(0, tok(0), TimeNs::ZERO), WriteOutcome::Accepted);
        // Queue 0 full, nobody reads it: the producer blocks (§1.1 hazard).
        assert!(matches!(
            r.try_write(0, tok(1), TimeNs::ZERO),
            WriteOutcome::Blocked(_)
        ));
        assert!(r.fault(0).is_none());
    }

    #[test]
    fn divergence_detector_flags_slow_consumer() {
        let mut r = NReplicator::new("r", vec![8, 8], Some(3));
        for s in 0..4 {
            r.try_write(0, tok(s), TimeNs::from_ms(s));
        }
        // Replica 1 consumes 3, replica 0 none → divergence 3 ≥ D=3.
        for k in 0..3u64 {
            assert!(matches!(
                r.try_read(1, TimeNs::from_ms(10 + k)),
                ReadOutcome::Token(_)
            ));
        }
        let fault = r.fault(0).expect("divergence latched");
        assert_eq!(fault.cause, ReplicatorFaultCause::Divergence);
        assert_eq!(fault.at, TimeNs::from_ms(12));
    }

    #[test]
    fn divergence_below_threshold_is_tolerated() {
        let mut r = NReplicator::new("r", vec![8, 8], Some(3));
        for s in 0..8 {
            r.try_write(0, tok(s), TimeNs::ZERO);
        }
        r.try_read(1, TimeNs::ZERO);
        r.try_read(1, TimeNs::ZERO);
        assert!(r.fault(0).is_none(), "divergence 2 < 3 must not latch");
        r.try_read(0, TimeNs::ZERO);
        assert!(r.fault(0).is_none());
        assert!(r.fault(1).is_none());
    }

    #[test]
    fn reads_block_on_empty_queue() {
        let mut r = replicator([2, 2]);
        assert_eq!(r.try_read(0, TimeNs::ZERO), ReadOutcome::Blocked);
        assert_eq!(r.try_read(1, TimeNs::ZERO), ReadOutcome::Blocked);
    }

    #[test]
    fn space_accounting_matches_paper_variables() {
        let mut r = replicator([2, 3]);
        assert_eq!((space(&r, 0), space(&r, 1)), (2, 3));
        r.try_write(0, tok(0), TimeNs::ZERO);
        assert_eq!((space(&r, 0), space(&r, 1)), (1, 2));
        r.try_read(0, TimeNs::ZERO);
        assert_eq!((space(&r, 0), space(&r, 1)), (2, 2));
    }

    #[test]
    fn state_footprint_is_small() {
        // The paper reports ~1.5 KB replicator overhead (excluding tokens);
        // our bookkeeping is well under that.
        let r = NReplicator::new("r", vec![4, 4], Some(3));
        assert!(r.state_bytes() < 1536, "{}", r.state_bytes());
    }

    #[test]
    #[should_panic(expected = "single write interface")]
    fn write_iface_1_rejected() {
        let mut r = replicator([2, 2]);
        let _ = r.try_write(1, tok(0), TimeNs::ZERO);
    }
}
