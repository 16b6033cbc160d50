//! Spans for the traced run, recorded from the benchmark's own files
//! around each call into a layer. Spans are kept in memory and written
//! out when the run ends; a layer's self time is its span minus the part
//! its child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id (never 0).
    pub id: u64,
    /// The span that caused it; 0 for a root.
    pub parent: u64,
    /// The request (or update) every span of one operation shares.
    pub request: u64,
    /// The layer call, e.g. `router.serve_into`.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
}

/// The span store, shared with the server-side decorators. The client
/// publishes the current operation and the span its calls run under;
/// with one client and one operation in flight, a server-side span reads
/// them to find its parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    request: AtomicU64,
    parent: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            request: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts operation `request`: later spans carry its id.
    pub fn begin(&self, request: u64) {
        self.request.store(request, Ordering::SeqCst);
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Publishes `id` as the parent of spans that calls made from now on
    /// record (0: none).
    pub fn set_parent(&self, id: u64) {
        self.parent.store(id, Ordering::SeqCst);
    }

    /// Records a root span of the current operation.
    pub fn root(&self, id: u64, name: &'static str, start: Instant, end: Instant) {
        self.push(id, 0, name, start, end);
    }

    /// Records a span under the published parent.
    pub fn child(&self, name: &'static str, start: Instant, end: Instant) {
        let parent = self.parent.load(Ordering::SeqCst);
        self.push(self.id(), parent, name, start, end);
    }

    fn push(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            id,
            parent,
            request: self.request.load(Ordering::SeqCst),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span, in ns: its duration minus the union of its
/// children's intervals (clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut run: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    run = match run {
                        Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                        Some((ra, rb)) => {
                            covered += rb - ra;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ra, rb)) = run {
                    covered += rb - ra;
                }
            }
            (s.name, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Writes `spans` as CSV (`id,parent,request,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            // Two overlapping children (10..40 ∪ 30..50 = 40 ns) and one
            // apart (70..80), plus one running past the parent's end.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            span(4, 1, 70, 80),
            span(5, 1, 95, 130),
            span(6, 2, 12, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t[0].1, 100 - 40 - 10 - 5);
        assert_eq!(
            t[1].1,
            30 - 8,
            "grandchildren count against their parent only"
        );
        assert_eq!(t[3].1, 10);
    }

    #[test]
    fn children_find_their_published_parent() {
        let tracer = Tracer::default();
        tracer.begin(7);
        let root = tracer.id();
        tracer.set_parent(root);
        let t0 = Instant::now();
        tracer.child("server", t0, t0);
        tracer.set_parent(0);
        tracer.root(root, "client", t0, t0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, root);
        assert_eq!(spans[1].parent, 0);
        assert!(spans.iter().all(|s| s.request == 7));
    }
}
