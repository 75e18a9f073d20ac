//! Engine event tracing into an [`EventSink`].
//!
//! With a sink attached ([`Engine::with_trace`](crate::Engine::with_trace)),
//! the engine pushes one virtual-time [`EventRecord`] per token transfer,
//! blocked attempt and halt, named `token.written`, `token.discarded`,
//! `token.read`, `read.blocked`, `write.blocked` or `process.halted`. The
//! sink's ring bounds memory: it keeps the most recent records and counts
//! what it evicts. Without a sink the engine makes one `Option` check per
//! event site and records nothing.

use crate::process::NodeId;
use rtft_obs::{ClockDomain, EventRecord, EventSink};
use rtft_rtc::TimeNs;

/// Pushes one engine event, stamped with virtual time `now`, into `sink`.
#[inline]
pub(crate) fn record(
    sink: &EventSink,
    now: TimeNs,
    name: &'static str,
    node: NodeId,
    channel: Option<usize>,
    value: u64,
) {
    sink.push(EventRecord {
        at_ns: now.as_ns(),
        clock: ClockDomain::Virtual,
        name,
        node: Some(node.0),
        channel,
        value,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_trace_records_in_order() {
        let sink = EventSink::new(16);
        record(&sink, TimeNs::ZERO, "read.blocked", NodeId(1), Some(0), 0);
        record(
            &sink,
            TimeNs::from_ms(1),
            "process.halted",
            NodeId(1),
            None,
            0,
        );
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].at_ns <= events[1].at_ns);
        assert_eq!(
            (events[0].name, events[0].node, events[0].channel),
            ("read.blocked", Some(1), Some(0))
        );
        assert_eq!(events[1].clock, ClockDomain::Virtual);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn trace_is_bounded_and_counts_drops() {
        let sink = EventSink::new(4);
        for i in 0..10u64 {
            record(
                &sink,
                TimeNs::from_ms(i),
                "process.halted",
                NodeId(i as usize),
                None,
                0,
            );
        }
        let events = sink.events();
        assert_eq!(events.len(), 4);
        assert_eq!(sink.dropped(), 6);
        // Most recent events survive.
        assert_eq!(events[3].at_ns, TimeNs::from_ms(9).as_ns());
        assert_eq!(events[0].at_ns, TimeNs::from_ms(6).as_ns());
    }
}
