//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code opens a span around each call it makes into a
//! layer's public API: name, host start and end (ns since the recorder's
//! epoch), the span that caused it, and the request it belongs to. Spans
//! are pushed into one process-wide buffer and written out when the run
//! ends. Simulator processes are OS threads that pass a baton, so the
//! buffer's lock is never contended; with recording off, opening a span is
//! one relaxed load.
//!
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children. Children may overlap one another (two
//! simulated functions interleave on the host while each waits in virtual
//! time), so the covered part is the length of their union.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. `parent == 0` means a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u32,
    /// The span that caused this one, 0 for none.
    pub parent: u32,
    /// Layer-qualified name, e.g. `remoting.guest.launch`.
    pub name: &'static str,
    /// Request (simulated invocation) the span belongs to, 0 for none.
    pub req: u64,
    /// Host start, ns since the recorder's epoch.
    pub start: u64,
    /// Host end, ns since the recorder's epoch.
    pub end: u64,
}

impl Span {
    /// Host duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static STORE: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Host ns since the recorder's epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Start recording, with room for `capacity` spans reserved up front so
/// that recording does not allocate inside a measured window.
pub fn start(capacity: usize) {
    let mut store = STORE.lock().expect("span store poisoned by a panic");
    store.clear();
    store.reserve(capacity);
    epoch();
    ON.store(true, Ordering::SeqCst);
}

/// Stop recording and take every span recorded since [`start`].
pub fn stop() -> Vec<Span> {
    ON.store(false, Ordering::SeqCst);
    std::mem::take(&mut *STORE.lock().expect("span store poisoned by a panic"))
}

/// An open span; [`Open::close`] records it.
#[must_use = "a span is recorded only when closed"]
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    req: u64,
    start: u64,
}

impl Open {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Record the span, ending now.
    pub fn close(self) {
        let end = now_ns();
        STORE
            .lock()
            .expect("span store poisoned by a panic")
            .push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                req: self.req,
                start: self.start,
                end,
            });
    }
}

/// Open a span, or `None` when recording is off.
pub fn open(name: &'static str, parent: u32, req: u64) -> Option<Open> {
    if !enabled() {
        return None;
    }
    Some(Open {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        req,
        start: now_ns(),
    })
}

/// Run `f` inside a span (when recording is on).
pub fn timed<R>(name: &'static str, parent: u32, req: u64, f: impl FnOnce() -> R) -> R {
    let span = open(name, parent, req);
    let r = f();
    if let Some(s) = span {
        s.close();
    }
    r
}

/// Self time of every span, in the order given: duration minus the length
/// of the union of its children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Write spans as tab-separated `id parent name req start_ns end_ns` lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.req, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children [10,30) and [20,50) overlap (union 40),
        // [70,80) adds 10, [95,120) is clipped to [95,100) → covered 55.
        // Child 2 has its own child [25,35), which does not count against
        // the root twice.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 70, 80),
            span(5, 1, 95, 120),
            span(6, 2, 25, 35),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 55);
        assert_eq!(st[1], 20 - 5, "grandchild clipped to its parent [25,30)");
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 10);
        assert_eq!(st[4], 25);
        assert_eq!(st[5], 10);
    }

    #[test]
    fn a_span_fully_covered_by_children_has_zero_self_time() {
        let spans = vec![span(1, 0, 0, 10), span(2, 1, 0, 6), span(3, 1, 4, 10)];
        assert_eq!(self_times(&spans), vec![0, 6, 6]);
    }
}
