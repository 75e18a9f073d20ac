//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A traced run opens one root span per flush or scenario and a child
//! span around each public call it makes into a layer. Spans stay in
//! memory and are written out as JSON when the run ends. A layer's self
//! time is its span's duration minus the part of it that child spans
//! cover.

use rtft_obs::json::{array, JsonObject};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Id of the root span (the flush or scenario) this span belongs to.
    pub root: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has been opened but not yet closed.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    root: u64,
    name: &'static str,
    start_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span (a new trace).
    pub fn root(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent: None,
            root: id,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Opens a child of `parent`.
    pub fn child(&self, parent: &Open, name: &'static str) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: Some(parent.id),
            root: parent.root,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` now and records it.
    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            parent: open.parent,
            root: open.root,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("tracer lock poisoned").push(span);
        span
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn in_child<R>(&self, parent: &Open, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.child(parent, name);
        let r = f();
        self.close(open);
        r
    }

    /// Every closed span, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("tracer lock poisoned").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Self time of every span, by span id: its duration minus the union of
/// its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// The spans and their self times as one JSON document.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let items = spans.iter().map(|s| {
        JsonObject::new()
            .u64_field("id", s.id)
            .opt_u64_field("parent", s.parent)
            .u64_field("root", s.root)
            .str_field("name", s.name)
            .u64_field("start_ns", s.start_ns)
            .u64_field("end_ns", s.end_ns)
            .u64_field("self_ns", selfs[&s.id])
            .finish()
    });
    let doc = JsonObject::new()
        .str_field("workload", workload)
        .u64_field("seed", seed)
        .raw_field("spans", &array(items))
        .finish();
    doc + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            root: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Overlapping children cover [10, 50) once.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A child running past its parent counts only inside it.
            span(4, Some(1), 90, 120),
            span(5, Some(2), 15, 20),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30 - 5);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 30);
    }

    #[test]
    fn children_share_the_root_id() {
        let t = Tracer::new();
        let root = t.root("flush");
        let child = t.child(&root, "send");
        let grandchild = t.child(&child, "wal");
        t.close(grandchild);
        t.close(child);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.root == root.id));
        assert_eq!(spans[1].parent, Some(root.id));
        assert_eq!(spans[2].parent, Some(spans[1].id));
        assert!(to_json("w", 1, &spans).contains("\"name\":\"wal\""));
    }
}
