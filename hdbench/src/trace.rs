//! In-memory spans around the calls the benchmark makes into each
//! layer, and the per-layer stage table built from them.
//!
//! A span has a name (`layer.what`), a start, an end, a parent and a
//! group id shared by every span of one upload or one device. Spans of
//! the driving thread form the timeline (lane 0): they nest, siblings
//! never overlap, and the stage table is read off them, so its rows
//! plus the residual (time no span covers) add up to the wall time of
//! the root span exactly. Spans recorded by worker threads (lanes 1 and
//! up) overlap each other; they are summed per layer as busy time next
//! to the timeline, never into it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span.
pub type SpanId = u64;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// `layer.what`.
    pub name: &'static str,
    /// Shared by every span of one upload or one device (0 = none).
    pub group: u64,
    /// 0 = the driving thread's timeline; 1.. = worker threads.
    pub lane: u32,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; does nothing but run the closures when
/// disabled, so an untraced run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span measured by the caller and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        lane: u32,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span buffer lock");
        let id = spans.len() as SpanId + 1;
        spans.push(Span {
            id,
            parent,
            name,
            group,
            lane,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(id)
    }

    /// Runs `f` inside a span on `lane`; `f` receives the span's id so
    /// it can parent children. The span is stored when `f` returns, so
    /// children precede their parent in the buffer.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        lane: u32,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        // Reserve the id first so children can point at it.
        let id = {
            let mut spans = self.spans.lock().expect("span buffer lock");
            let id = spans.len() as SpanId + 1;
            spans.push(Span {
                id,
                parent,
                name,
                group,
                lane,
                start_ns: 0,
                end_ns: 0,
            });
            id
        };
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        let mut spans = self.spans.lock().expect("span buffer lock");
        let slot = &mut spans[(id - 1) as usize];
        slot.start_ns = self.ns(start);
        slot.end_ns = self.ns(end);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Takes every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// One row of a stage table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageRow {
    /// Layer name.
    pub layer: String,
    /// Timeline self time: the layer's spans minus their child spans.
    pub self_ns: u64,
    /// Timeline spans of the layer.
    pub spans: usize,
    /// Summed duration of the layer's worker-lane spans.
    pub busy_ns: u64,
}

/// The per-layer breakdown of one traced run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageTable {
    /// Duration of the root span.
    pub wall_ns: u64,
    /// One row per layer, by name.
    pub rows: Vec<StageRow>,
    /// Root self time: wall time no layer span covers.
    pub residual_ns: u64,
    /// Timeline sibling pairs that overlapped (must be 0 for the rows
    /// to partition the wall time).
    pub overlaps: usize,
}

impl StageTable {
    /// Whether rows plus residual add up to the wall time exactly.
    pub fn adds_up(&self) -> bool {
        self.overlaps == 0
            && self.rows.iter().map(|r| r.self_ns).sum::<u64>() + self.residual_ns == self.wall_ns
    }

    /// Self time of one layer, ns (0 when it has no row).
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0, |r| r.self_ns)
    }

    /// Renders the table, one line per row plus residual and total.
    pub fn render(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let share = |ns: u64| 100.0 * ns as f64 / self.wall_ns.max(1) as f64;
        let mut out = format!(
            "{:<12} {:>12} {:>7} {:>8} {:>12}\n",
            "layer", "self_ms", "share", "spans", "busy_ms"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<12} {:>12.3} {:>6.2}% {:>8} {:>12.3}\n",
                r.layer,
                ms(r.self_ns),
                share(r.self_ns),
                r.spans,
                ms(r.busy_ns)
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>12.3} {:>6.2}%\n{:<12} {:>12.3}\n",
            "residual",
            ms(self.residual_ns),
            share(self.residual_ns),
            "wall",
            ms(self.wall_ns)
        ));
        out
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
/// Also returns how many intervals overlapped an earlier one.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> (u64, usize) {
    intervals.sort_unstable();
    let (mut total, mut overlaps, mut reach) = (0u64, 0usize, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        if s < reach {
            overlaps += 1;
        }
        let from = s.max(reach);
        if e > from {
            total += e - from;
            reach = e;
        }
    }
    (total, overlaps)
}

/// Builds the stage table of the timeline under `root`.
pub fn stage_table(spans: &[Span], root: SpanId) -> StageTable {
    let by_id: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let root_span = by_id[&root];
    let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.lane == 0) {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let self_time = |s: &Span| -> (u64, usize) {
        let kids = children.get(&s.id).map_or(Vec::new(), |k| {
            k.iter().map(|c| (c.start_ns, c.end_ns)).collect()
        });
        let (cov, overlaps) = covered(kids, s.start_ns, s.end_ns);
        (s.duration() - cov, overlaps)
    };

    let mut rows: BTreeMap<&'static str, StageRow> = BTreeMap::new();
    let (residual_ns, mut overlaps) = self_time(root_span);
    let mut stack: Vec<&Span> = children.get(&root).cloned().unwrap_or_default();
    while let Some(s) = stack.pop() {
        let (own, o) = self_time(s);
        overlaps += o;
        let row = rows.entry(s.layer()).or_insert_with(|| StageRow {
            layer: s.layer().to_string(),
            self_ns: 0,
            spans: 0,
            busy_ns: 0,
        });
        row.self_ns += own;
        row.spans += 1;
        if let Some(kids) = children.get(&s.id) {
            stack.extend(kids.iter().copied());
        }
    }
    for s in spans.iter().filter(|s| s.lane > 0) {
        rows.entry(s.layer())
            .or_insert_with(|| StageRow {
                layer: s.layer().to_string(),
                self_ns: 0,
                spans: 0,
                busy_ns: 0,
            })
            .busy_ns += s.duration();
    }
    StageTable {
        wall_ns: root_span.duration(),
        rows: rows.into_values().collect(),
        residual_ns,
        overlaps,
    }
}

/// Serializes spans as a JSON array, one object per span.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{}}}{}\n",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.group,
            s.lane,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, lane: u32, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            group: 0,
            lane,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn rows_plus_residual_add_up_to_the_wall_time() {
        let spans = vec![
            span(1, None, "run", 0, 0, 1_000),
            span(2, Some(1), "fleet.run", 0, 10, 400),
            span(3, Some(2), "simrt.device", 0, 20, 300),
            span(4, Some(1), "telemetry.upload", 0, 420, 900),
            span(5, Some(4), "telemetry.wal", 0, 500, 600),
            // Worker lanes overlap each other and the timeline; they
            // count as busy time only.
            span(6, Some(4), "telemetry.worker", 1, 430, 890),
            span(7, Some(4), "telemetry.worker", 2, 440, 880),
        ];
        let table = stage_table(&spans, 1);
        assert!(table.adds_up(), "{}", table.render());
        assert_eq!(table.wall_ns, 1_000);
        assert_eq!(table.residual_ns, 10 + 20 + 100);
        assert_eq!(table.self_ns("fleet"), 390 - 280);
        assert_eq!(table.self_ns("simrt"), 280);
        assert_eq!(table.self_ns("telemetry"), 480);
        let telemetry = table.rows.iter().find(|r| r.layer == "telemetry").unwrap();
        assert_eq!(telemetry.busy_ns, 460 + 440);
        assert_eq!(telemetry.spans, 2);
    }

    #[test]
    fn overlapping_timeline_siblings_are_flagged() {
        let spans = vec![
            span(1, None, "run", 0, 0, 100),
            span(2, Some(1), "a.x", 0, 10, 60),
            span(3, Some(1), "b.y", 0, 50, 90),
        ];
        let table = stage_table(&spans, 1);
        assert_eq!(table.overlaps, 1);
        assert!(!table.adds_up());
    }

    #[test]
    fn tracer_records_nested_spans_that_add_up() {
        let tracer = Tracer::new(true);
        let root = tracer.span("run", None, 0, 0, |root| {
            tracer.span("fleet.run", root, 7, 0, |p| {
                tracer.span("simrt.device", p, 7, 0, |_| std::hint::black_box(1 + 1));
            });
            tracer.span("check.bytes", root, 0, 0, |_| ());
            root
        });
        let spans = tracer.take();
        assert_eq!(spans.len(), 4);
        let table = stage_table(&spans, root.unwrap());
        assert!(table.adds_up(), "{}", table.render());
        let json = spans_json(&spans);
        assert!(json.contains("\"name\":\"simrt.device\",\"group\":7"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("run", None, 0, 0, |id| id), None);
        assert!(tracer.take().is_empty());
    }
}
