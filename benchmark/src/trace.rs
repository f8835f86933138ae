//! In-memory spans around every call the benchmark makes into a crate.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`; spans of one op
//! share its `op_id`. Nothing is written until the run ends. A layer's self
//! time is its spans' duration minus the part their direct children cover.

use crate::util::{json_num, json_str};
use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
}

/// One thread's span recorder. With `on == false` every call is a no-op,
/// so the untraced run executes the same code without the bookkeeping.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: u32, op_id: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.add(name, now, now, parent, op_id)
    }

    pub fn end(&mut self, id: u32) {
        if self.on && id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Records a span whose bounds were measured elsewhere (a server-side
    /// stage read from a reply body, a progress-callback interval).
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op_id: u64,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-name totals: self time is duration minus the union of the intervals
/// the span's direct children cover (clipped to the parent, overlaps
/// counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.max(cursor);
            let b = b.min(s.end_ns);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// The trace file: every span plus the per-layer waterfall summary.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"workload\":{},\"seed\":{seed},\"layers\":[",
        json_str(workload)
    );
    for (i, (name, t)) in self_times(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":{},\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
            json_str(name),
            t.count,
            json_num(t.total_ns as f64 / 1e6),
            json_num(t.self_ns as f64 / 1e6)
        ));
    }
    out.push_str("],\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "\n{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
            json_str(s.name),
            s.start_ns,
            s.end_ns,
            s.op_id
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::testjson;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, NO_PARENT),
            span("run", 10, 40, 0),
            span("verify", 30, 60, 0), // overlaps `run` by 10
            span("late", 90, 130, 0),  // clipped to the parent's end
            span("inner", 15, 20, 1),  // grandchild: counts against `run` only
        ];
        let t = self_times(&spans);
        // children cover [10,60) and [90,100): 60 of the op's 100
        assert_eq!(
            t["op"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(
            t["run"],
            LayerTime {
                count: 1,
                total_ns: 30,
                self_ns: 25
            }
        );
        assert_eq!(t["verify"].self_ns, 30);
        assert_eq!(t["inner"].self_ns, 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("x", NO_PARENT, 0);
        t.end(id);
        t.add("y", 0, 1, id, 0);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn merge_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.add("a", 0, 1, NO_PARENT, 0);
        let mut b = Tracer::new(true, epoch);
        let p = b.add("b", 0, 4, NO_PARENT, 1);
        b.add("c", 1, 2, p, 1);
        a.merge(b);
        assert_eq!(a.spans[2].parent, 1);
        assert_eq!(self_times(&a.spans)["b"].self_ns, 3);
    }

    #[test]
    fn trace_file_parses() {
        let spans = vec![span("op", 0, 10, NO_PARENT), span("run", 1, 5, 0)];
        let v = testjson::parse(&to_json("sweep_sim", 3, &spans)).unwrap();
        assert_eq!(v.get("spans").unwrap().arr().len(), 2);
        assert_eq!(v.get("layers").unwrap().arr().len(), 2);
    }
}
