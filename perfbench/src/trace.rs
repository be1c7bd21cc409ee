//! In-memory span recorder for the traced run mode.
//!
//! A span is (name, start, end, parent, request id), recorded by the
//! benchmark around its own calls into each layer's public functions.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. With tracing off, `span` returns an inert guard and records
//! nothing, so the untraced run pays one relaxed load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span; times are nanoseconds since the recorder started.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Open span; records itself when dropped.
pub struct Guard {
    open: Option<(u64, Option<u64>, &'static str, u64, u64)>,
}

impl Guard {
    /// This span's id, for children opened on other threads.
    pub fn id(&self) -> Option<u64> {
        self.open.map(|o| o.0)
    }
}

/// Opens a span whose parent is the innermost open span of this thread.
pub fn span(name: &'static str, request: u64) -> Guard {
    let parent = STACK.with(|s| s.borrow().last().copied());
    span_under(name, request, parent)
}

/// Opens a span under an explicit parent (a span opened on another
/// thread, e.g. a phase whose requests run on client threads).
pub fn span_under(name: &'static str, request: u64, parent: Option<u64>) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push(id));
    Guard {
        open: Some((id, parent, name, request, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, request, start_ns)) = self.open else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == id) {
                s.remove(pos);
            }
        });
        // A poisoned recorder only loses trace data; never panic in drop.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(Span {
                id,
                parent,
                name,
                request,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Every span recorded so far, in end order.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span recorder poisoned").clone()
}

/// Self time of each span in seconds, grouped by name: its duration minus
/// the part of its interval that its children cover (children on other
/// threads may overlap each other, so their union is subtracted).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
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
        let own = (s.end_ns - s.start_ns).saturating_sub(covered);
        out.entry(s.name).or_default().push(own as f64 / 1e9);
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            request: 0,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(1, None, "phase", 0, 100),
            sp(2, Some(1), "req", 10, 40),
            sp(3, Some(1), "req", 30, 50), // overlaps the first child
            sp(4, Some(1), "req", 80, 90),
        ];
        let t = self_times(&spans);
        // children cover [10,50) and [80,90): 50 ns of 100.
        assert_eq!(t["phase"], vec![50e-9]);
        assert_eq!(t["req"].len(), 3);
    }
}
