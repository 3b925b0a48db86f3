//! Spans recorded by the traced run around its calls into the library.
//!
//! Each span has a name, start, end, the span that caused it and a
//! request id. Spans stay in memory while the run measures and are
//! written out when it ends; a span's self time is its duration minus
//! the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a thread panicked while recording a span")
    }

    /// Open a span and return its id; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Run `f` inside a span when tracing; `f` receives the span's id so
/// its own calls can name it as their parent. Without a tracer, `f`
/// runs with no recording at all.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.open(name, parent, req);
            let out = f(Some(id));
            t.close(id);
            out
        }
    }
}

/// Durations in ms of the spans named `name` whose parent is named
/// `parent` (`None`: root spans only).
pub fn durations_ms(spans: &[Span], name: &str, parent: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.map(|p| spans[p].name) == parent)
        .map(Span::ms)
        .collect()
}

/// Self time of every span in ns: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, total ms, self ms), in name order.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += own as f64 / 1e6;
    }
    out
}

/// The spans as JSON lines, with their derived self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for ((id, s), own) in spans.iter().enumerate().zip(self_times_ns(spans)) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{},\"self_ns\":{own}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )
        .expect("writing to a String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("root", 0, 100, None),
            sp("a", 10, 40, Some(0)),
            sp("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            sp("c", 90, 120, Some(0)), // clipped to the root's end
            sp("leaf", 12, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 22, 30, 30, 8]);
        assert_eq!(durations_ms(&spans, "a", Some("root")), vec![30.0 / 1e6]);
        assert!(durations_ms(&spans, "a", None).is_empty());
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert_eq!(span(None, "x", None, 0, |id| id), None);
        let t = Tracer::default();
        let inner = span(Some(&t), "outer", None, 7, |id| span(Some(&t), "inner", id, 7, |_| 3));
        assert_eq!(inner, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
