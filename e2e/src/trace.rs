//! Bench-owned in-memory span recorder and the decorators that put spans
//! around the program's public seams: split fetchers (simulated-clock fetch
//! span + the synchronous host part) and map/reduce closures.
//!
//! Nothing here reaches inside the program; tracing *inside* the layers is
//! the later ROADMAP trace item. Spans stay in memory during the pass and
//! are written out (Chrome `trace_event` JSON) after it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use mapreduce::{
    FetchDone, FetchPiece, FetchResult, InputSplit, MapFn, MrEnv, MrError, PieceDone, PieceStream,
    ReduceFn, SplitFetcher, StreamFallback,
};
use simnet::{ChunkKey, NodeId, Sim};

use crate::report::Json;

pub type SpanId = usize;

/// One recorded span. Synchronous spans carry a host interval and nest
/// under the span that was open when they began; asynchronous spans
/// (`sim` set, `sync == false`) cover a simulated-time interval during
/// which other host work interleaves, so they take no part in host
/// self-time arithmetic.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<SpanId>,
    pub pass: u32,
    /// Host nanoseconds since the recorder was created.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// Simulated seconds, where the seam exposes the simulator clock.
    pub sim: Option<(f64, f64)>,
    pub sync: bool,
    /// Track for the simulated-clock view (compute node).
    pub node: u32,
}

impl Span {
    pub fn host_s(&self) -> f64 {
        (self.host_end_ns - self.host_start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Open synchronous spans, innermost last.
    stack: Vec<SpanId>,
    pub pass: u32,
    /// `(phase, simulated seconds)` charges seen at the seams (fetch
    /// results, stream pieces, bench-owned closures).
    pub sim_charges: BTreeMap<&'static str, f64>,
}

pub type SharedRecorder = Rc<RefCell<Recorder>>;

impl Recorder {
    pub fn shared() -> SharedRecorder {
        Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
            sim_charges: BTreeMap::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a synchronous host-clock span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.stack.last().copied(),
            pass: self.pass,
            host_start_ns: now,
            host_end_ns: now,
            sim: None,
            sync: true,
            node: 0,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        self.spans[id].host_end_ns = now;
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
    }

    /// Open an asynchronous simulated-clock span (ended by `end_async`).
    pub fn begin_async(
        &mut self,
        name: &'static str,
        layer: &'static str,
        node: NodeId,
        sim_now: f64,
    ) -> SpanId {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.stack.last().copied(),
            pass: self.pass,
            host_start_ns: now,
            host_end_ns: now,
            sim: Some((sim_now, sim_now)),
            sync: false,
            node: node.0,
        });
        id
    }

    pub fn end_async(&mut self, id: SpanId, sim_now: f64) {
        let now = self.now_ns();
        let s = &mut self.spans[id];
        s.host_end_ns = now;
        if let Some((start, _)) = s.sim {
            s.sim = Some((start, sim_now));
        }
    }

    pub fn charge(&mut self, phase: &'static str, secs: f64) {
        *self.sim_charges.entry(phase).or_default() += secs;
    }

    fn charge_all(&mut self, charges: &[(&'static str, f64)]) {
        for &(phase, secs) in charges {
            self.charge(phase, secs);
        }
    }

    /// Σ host seconds of synchronous spans called `name`.
    pub fn host_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.sync && s.name == name)
            .map(Span::host_s)
            .sum()
    }

    /// Σ simulated seconds of asynchronous spans called `name`.
    pub fn sim_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.sim.map(|(a, b)| b - a))
            .sum()
    }

    /// Host self time per span name: a span's duration minus the part of
    /// its interval its synchronous children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self_times_ns(
            &self
                .spans
                .iter()
                .map(|s| {
                    (
                        if s.sync { s.parent } else { None },
                        s.host_start_ns,
                        if s.sync {
                            s.host_end_ns
                        } else {
                            s.host_start_ns
                        },
                    )
                })
                .collect::<Vec<_>>(),
        );
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(selfs) {
            if s.sync {
                *out.entry(s.name).or_default() += ns as f64 / 1e9;
            }
        }
        out
    }

    /// Chrome `trace_event` JSON: process 1 is the host clock (µs since
    /// the recorder started), process 2 the simulated clock (simulated µs,
    /// one track per compute node).
    pub fn chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            let mut ev = |pid: f64, tid: f64, ts: f64, dur: f64| {
                events.push(Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("cat".into(), Json::Str(s.layer.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("pid".into(), Json::Num(pid)),
                    ("tid".into(), Json::Num(tid)),
                    ("ts".into(), Json::Num(ts)),
                    ("dur".into(), Json::Num(dur)),
                    (
                        "args".into(),
                        Json::Obj(vec![("pass".into(), Json::Num(s.pass as f64))]),
                    ),
                ]));
            };
            if s.sync {
                ev(
                    1.0,
                    0.0,
                    s.host_start_ns as f64 / 1e3,
                    (s.host_end_ns - s.host_start_ns) as f64 / 1e3,
                );
            }
            if let Some((a, b)) = s.sim {
                ev(2.0, s.node as f64, a * 1e6, (b - a) * 1e6);
            }
        }
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
        .render()
    }
}

/// Self time of each span given `(parent, start, end)` triples: duration
/// minus the union of the children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[(Option<SpanId>, u64, u64)]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for &(parent, start, end) in spans {
        if let Some(p) = parent {
            children[p].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(&(_, start, end), kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = start;
            for &(ks, ke) in kids.iter() {
                let (ks, ke) = (ks.max(cursor), ke.min(end));
                if ke > ks {
                    covered += ke - ks;
                    cursor = ke;
                }
            }
            (end - start).saturating_sub(covered)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Decorators
// ---------------------------------------------------------------------------

/// Decorates a split's fetcher: every behaviour is forwarded unchanged (so
/// the simulation is identical), while the recorder sees one simulated-
/// clock span per fetch or stream piece, the synchronous host part of each
/// call, and the charges the fetch reports.
struct TracingFetcher {
    inner: Rc<dyn SplitFetcher>,
    rec: SharedRecorder,
}

impl SplitFetcher for TracingFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        let (span, issue) = {
            let mut r = self.rec.borrow_mut();
            (
                r.begin_async("fetch", "scidp", node, sim.now().secs()),
                r.begin("fetch.issue", "scidp"),
            )
        };
        let rec = self.rec.clone();
        self.inner.fetch(
            env,
            sim,
            node,
            Box::new(move |sim, res: Result<FetchResult, MrError>| {
                {
                    let mut r = rec.borrow_mut();
                    r.end_async(span, sim.now().secs());
                    if let Ok(fr) = &res {
                        r.charge_all(&fr.charges);
                    }
                }
                done(sim, res)
            }),
        );
        self.rec.borrow_mut().end(issue);
    }

    fn open_stream(
        &self,
        env: &MrEnv,
        sim: &mut Sim,
        node: NodeId,
    ) -> Result<Box<dyn PieceStream>, StreamFallback> {
        let open = self.rec.borrow_mut().begin("fetch.open_stream", "scidp");
        let inner = self.inner.open_stream(env, sim, node);
        self.rec.borrow_mut().end(open);
        Ok(Box::new(TracingStream {
            inner: inner?,
            rec: self.rec.clone(),
        }))
    }

    fn cache_hints(&self) -> Vec<ChunkKey> {
        self.inner.cache_hints()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

struct TracingStream {
    inner: Box<dyn PieceStream>,
    rec: SharedRecorder,
}

impl PieceStream for TracingStream {
    fn n_pieces(&self) -> usize {
        self.inner.n_pieces()
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, idx: usize, done: PieceDone) {
        let (span, issue) = {
            let mut r = self.rec.borrow_mut();
            (
                r.begin_async("fetch", "scidp", node, sim.now().secs()),
                r.begin("fetch.issue", "scidp"),
            )
        };
        let rec = self.rec.clone();
        self.inner.fetch_piece(
            env,
            sim,
            node,
            idx,
            Box::new(move |sim, res: Result<FetchPiece, MrError>| {
                {
                    let mut r = rec.borrow_mut();
                    r.end_async(span, sim.now().secs());
                    if let Ok(piece) = &res {
                        r.charge_all(&piece.charges);
                    }
                }
                done(sim, res)
            }),
        );
        self.rec.borrow_mut().end(issue);
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        let span = self.rec.borrow_mut().begin("fetch.finish", "scidp");
        let res = self.inner.finish();
        let mut r = self.rec.borrow_mut();
        r.end(span);
        if let Ok(fr) = &res {
            r.charge_all(&fr.charges);
        }
        res
    }
}

/// Put a [`TracingFetcher`] in front of every split's fetcher.
pub fn trace_splits(splits: Vec<InputSplit>, rec: &SharedRecorder) -> Vec<InputSplit> {
    splits
        .into_iter()
        .map(|s| InputSplit {
            fetcher: Rc::new(TracingFetcher {
                inner: s.fetcher,
                rec: rec.clone(),
            }),
            ..s
        })
        .collect()
}

/// Record a `map_fn` span around every call of a map closure.
pub fn trace_map(inner: MapFn, rec: &SharedRecorder) -> MapFn {
    let rec = rec.clone();
    Rc::new(move |input, ctx| in_span(&rec, "map_fn", "scidp", || inner(input, ctx)))
}

/// Record a `reduce_fn` span around every call of a reduce closure.
pub fn trace_reduce(inner: ReduceFn, rec: &SharedRecorder) -> ReduceFn {
    let rec = rec.clone();
    Rc::new(move |key, values, ctx| in_span(&rec, "reduce_fn", "scidp", || inner(key, values, ctx)))
}

/// Run `f` inside a synchronous span. The recorder is not borrowed while
/// `f` runs, so `f` may itself record spans.
pub fn in_span<T>(
    rec: &SharedRecorder,
    name: &'static str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let id = rec.borrow_mut().begin(name, layer);
    let out = f();
    rec.borrow_mut().end(id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100 with children 10..30, 20..50 (overlapping) and 90..120
        // (clipped to the parent); grandchild 12..18 under the first child.
        let spans = vec![
            (None, 0, 100),
            (Some(0), 10, 30),
            (Some(0), 20, 50),
            (Some(0), 90, 120),
            (Some(1), 12, 18),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(
            selfs[0],
            100 - (40 + 10),
            "union 10..50 plus clipped 90..100"
        );
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 6);
        // A span's duration is its self time plus what its children cover.
        assert_eq!(selfs[1] + selfs[4], 20);
    }

    #[test]
    fn recorder_nests_sync_spans_and_keeps_async_spans_out_of_self_time() {
        let rec = Recorder::shared();
        let run = rec.borrow_mut().begin("run", "mapreduce");
        let fetch = rec
            .borrow_mut()
            .begin_async("fetch", "scidp", NodeId(3), 1.5);
        let map = rec.borrow_mut().begin("map_fn", "scidp");
        rec.borrow_mut().end(map);
        rec.borrow_mut().end_async(fetch, 4.0);
        rec.borrow_mut().end(run);
        let r = rec.borrow();
        assert_eq!(r.spans[map].parent, Some(run));
        assert_eq!(r.spans[fetch].sim, Some((1.5, 4.0)));
        assert_eq!(r.sim_total("fetch"), 2.5);
        let selfs = r.self_times();
        let total = r.spans[run].host_s();
        let sum: f64 = selfs.values().sum();
        assert!(
            (sum - total).abs() < 1e-9,
            "self times sum to the root: {sum} vs {total}"
        );
        assert!(
            !selfs.contains_key("fetch"),
            "async spans have no host self time"
        );
        assert!(r.chrome_trace().contains("\"traceEvents\""));
    }
}
