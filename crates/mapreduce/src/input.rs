//! Input splits and fetchers — the `InputFormat`/`RecordReader` layer.
//!
//! A split names *where* its data lives (for locality scheduling) and
//! carries a [`SplitFetcher`] that, inside the task, performs the timed
//! transfer and hands back a [`TaskInput`]. The engine ships fetchers for
//! HDFS blocks and flat PFS ranges (the PortHadoop mapping); `scidp` adds
//! the scientific-slab fetcher on top of its Data Mapper.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use simnet::{NodeId, Sim};

use crate::cluster::MrEnv;
use crate::job::{MrError, Payload};

/// Data delivered to a map function.
#[derive(Debug, Clone)]
pub enum TaskInput {
    /// Raw bytes (a text block, an HDFS block...).
    Bytes(Vec<u8>),
    /// A decoded scientific array (SciDP's PFS Reader output).
    Array(scifmt::Array),
    /// An already-built data frame.
    Frame(rframe::DataFrame),
    /// Shuffled key/value pairs delivered to a post-shuffle DAG stage.
    /// Each record is `(source tag, key, value)`; the tag tells joins
    /// which parent dataset the pair came from.
    Pairs(Vec<(u8, String, Payload)>),
}

impl TaskInput {
    /// Approximate real size in bytes (scheduling/accounting).
    pub fn approx_bytes(&self) -> usize {
        match self {
            TaskInput::Bytes(b) => b.len(),
            TaskInput::Array(a) => a.len() * a.dtype().size(),
            TaskInput::Frame(f) => f.approx_bytes(),
            TaskInput::Pairs(ps) => ps
                .iter()
                .map(|(_, k, v)| 1 + k.len() + v.approx_bytes())
                .sum(),
        }
    }
}

/// Why a streaming fetch could not be opened for a split. The driver falls
/// back to the one-shot [`SplitFetcher::fetch`] and records the reason under
/// [`crate::counters::keys::STREAM_FALLBACKS`] plus the per-reason key, so a
/// job that silently loses read/compute overlap is visible in counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StreamFallback {
    /// The split's fetcher has no streaming implementation.
    Unsupported,
}

impl StreamFallback {
    /// Counter key naming this fallback reason.
    pub fn counter_key(&self) -> &'static str {
        use crate::counters::keys;
        match self {
            StreamFallback::Unsupported => keys::STREAM_FALLBACK_UNSUPPORTED,
        }
    }
}

/// Result of fetching a split: the data plus any compute charges the fetch
/// implies beyond the transfer itself (e.g. decompression).
pub struct FetchResult {
    pub input: TaskInput,
    /// `(phase name, virtual seconds)` charged after the transfer.
    pub charges: Vec<(&'static str, f64)>,
    /// `(counter key, amount)` added to the job counters (e.g. chunk-cache
    /// hits/misses, real codec seconds — see [`crate::counters::keys`]).
    pub counters: Vec<(&'static str, f64)>,
    /// Opaque split metadata forwarded to the map function via
    /// [`crate::TaskCtx::input_tag`] (e.g. which variable slab this is).
    pub tag: String,
}

impl FetchResult {
    /// A result with no extra charges, counters or tag.
    pub fn plain(input: TaskInput) -> FetchResult {
        FetchResult {
            input,
            charges: Vec::new(),
            counters: Vec::new(),
            tag: String::new(),
        }
    }
}

/// Completion callback of a [`SplitFetcher::fetch`]. An `Err` marks the
/// *attempt* as failed — the driver releases the slot and retries the task;
/// fetchers must never panic on I/O errors.
pub type FetchDone = Box<dyn FnOnce(&mut Sim, Result<FetchResult, MrError>)>;

/// One chunk-granular unit of a streaming fetch (see [`PieceStream`]).
///
/// A piece carries no payload bytes itself — the stream keeps the data
/// internally and assembles the full [`FetchResult`] in
/// [`PieceStream::finish`]. What the driver needs per piece is its weight
/// (to apportion map compute across the overlap timeline) and the charges
/// and counter deltas its transfer produced.
pub struct FetchPiece {
    /// Delivered weight of this piece in bytes (decompressed for codec
    /// fetchers). The driver attributes `bytes / Σ bytes` of the split-wide
    /// map compute to this piece when pipelining reads against compute.
    pub bytes: u64,
    /// `(phase name, virtual seconds)` of compute this piece's arrival
    /// implies (e.g. decompressing this one chunk).
    pub charges: Vec<(&'static str, f64)>,
    /// `(counter key, amount)` deltas (cache misses, codec seconds,
    /// integrity events) — recorded on the attempt's ledger, exact under
    /// retries.
    pub counters: Vec<(&'static str, f64)>,
}

/// Completion callback of one [`PieceStream::fetch_piece`]. An `Err` kills
/// the attempt exactly like a batch fetch error.
pub type PieceDone = Box<dyn FnOnce(&mut Sim, Result<FetchPiece, MrError>)>;

/// One split's fetch as a sequence of pieces — the only read state machine
/// a piece-wise fetcher implements. The driver pulls pieces in index order
/// through a bounded prefetch window, overlapping in-flight reads with
/// per-piece map compute, then calls [`PieceStream::finish`] once all have
/// arrived; the fetcher's batch [`SplitFetcher::fetch`] is
/// [`collect_stream`] over the same stream, so both deliver the same bytes.
pub trait PieceStream {
    /// Number of pieces this stream will deliver (fixed at open time).
    fn n_pieces(&self) -> usize;

    /// Start the timed transfer of piece `idx`; call `done` exactly once.
    /// The driver issues pieces in index order, never more than the
    /// prefetch depth in flight at once.
    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, idx: usize, done: PieceDone);

    /// Assemble the final result after every piece has arrived. Charges and
    /// counters already reported on pieces must not be repeated here.
    fn finish(&self) -> Result<FetchResult, MrError>;
}

/// Fetches one split's data inside a running task.
pub trait SplitFetcher {
    /// Start the (timed) fetch on `node`; call `done` exactly once with the
    /// result (or the error that killed this attempt).
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone);

    /// Open a streaming view of this split's fetch, or the reason it cannot
    /// stream (the default: no streaming support). On `Err` — or when the
    /// job disables streaming — the driver falls back to
    /// [`SplitFetcher::fetch`] and counts the fallback reason.
    fn open_stream(
        &self,
        _env: &MrEnv,
        _sim: &mut Sim,
        _node: NodeId,
    ) -> Result<Box<dyn PieceStream>, StreamFallback> {
        Err(StreamFallback::Unsupported)
    }

    /// Chunk keys this split would read from the cluster chunk-cache tier
    /// (`(content file key, chunk offset)` pairs — see
    /// [`simnet::ClusterCache`]). The scheduler uses them for *dynamic*
    /// cache locality: a pending map whose chunks are resident on a free
    /// node is preferred there over static split locality. The default —
    /// no hints — opts a fetcher out of cache-aware placement entirely.
    fn cache_hints(&self) -> Vec<simnet::ChunkKey> {
        Vec::new()
    }

    /// Human-readable description for traces.
    fn describe(&self) -> String;
}

/// Wrap a stream so its assembled [`FetchResult`] carries `tag` — for
/// fetcher wrappers that re-tag their inner fetcher's result.
pub fn retag_stream(inner: Box<dyn PieceStream>, tag: String) -> Box<dyn PieceStream> {
    struct Retag {
        inner: Box<dyn PieceStream>,
        tag: String,
    }
    impl PieceStream for Retag {
        fn n_pieces(&self) -> usize {
            self.inner.n_pieces()
        }
        fn fetch_piece(
            &self,
            env: &MrEnv,
            sim: &mut Sim,
            node: NodeId,
            idx: usize,
            done: PieceDone,
        ) {
            self.inner.fetch_piece(env, sim, node, idx, done)
        }
        fn finish(&self) -> Result<FetchResult, MrError> {
            let mut fr = self.inner.finish()?;
            fr.tag = self.tag.clone();
            Ok(fr)
        }
    }
    Box::new(Retag { inner, tag })
}

/// Add `items` into `acc`, summing amounts that share a name and keeping
/// first-seen order.
fn add_named(acc: &mut Vec<(&'static str, f64)>, items: Vec<(&'static str, f64)>) {
    for (name, v) in items {
        match acc.iter_mut().find(|(n, _)| *n == name) {
            Some((_, sum)) => *sum += v,
            None => acc.push((name, v)),
        }
    }
}

/// Receiver of one [`pump_pieces`] run: owns whatever the arrivals
/// accumulate into.
pub(crate) trait PieceSink: Sized + 'static {
    /// Piece `idx` arrived. `false` stops the pump: nothing further is
    /// issued, later arrivals are dropped and [`PieceSink::end`] never runs
    /// (how an orphaned task attempt goes quiet).
    fn piece(&mut self, sim: &mut Sim, idx: usize, piece: FetchPiece) -> bool;

    /// Runs once: with the first failing piece's error, or `Ok` when the
    /// last piece has arrived.
    fn end(self, sim: &mut Sim, result: Result<(), MrError>);
}

struct Pump<S> {
    stream: Rc<dyn PieceStream>,
    env: MrEnv,
    node: NodeId,
    window: usize,
    next_issue: Cell<usize>,
    arrived: Cell<usize>,
    /// Taken by the first failure, a `false` from [`PieceSink::piece`], or
    /// the last arrival, whichever comes first.
    sink: RefCell<Option<S>>,
}

/// The one piece pump: issue every piece of `stream` in index order with at
/// most `window` in flight, refilling the window on each arrival; stop at
/// the first failure, finish on the last arrival (at once for an empty
/// stream). `window = n_pieces` reads everything in parallel; `window = 1`
/// is back-to-back requests.
pub(crate) fn pump_pieces<S: PieceSink>(
    stream: Rc<dyn PieceStream>,
    env: &MrEnv,
    sim: &mut Sim,
    node: NodeId,
    window: usize,
    sink: S,
) {
    if stream.n_pieces() == 0 {
        return sink.end(sim, Ok(()));
    }
    let pump = Rc::new(Pump {
        stream,
        env: env.clone(),
        node,
        window: window.max(1),
        next_issue: Cell::new(0),
        arrived: Cell::new(0),
        sink: RefCell::new(Some(sink)),
    });
    refill(&pump, sim);
}

/// Top up the window.
fn refill<S: PieceSink>(pump: &Rc<Pump<S>>, sim: &mut Sim) {
    let n = pump.stream.n_pieces();
    while pump.sink.borrow().is_some()
        && pump.next_issue.get() < n
        && pump.next_issue.get() - pump.arrived.get() < pump.window
    {
        let idx = pump.next_issue.replace(pump.next_issue.get() + 1);
        let p = pump.clone();
        let arrive = move |sim: &mut Sim, res| arrived(&p, sim, idx, res);
        pump.stream
            .fetch_piece(&pump.env, sim, pump.node, idx, Box::new(arrive));
    }
}

/// Piece `idx` came back.
fn arrived<S: PieceSink>(
    pump: &Rc<Pump<S>>,
    sim: &mut Sim,
    idx: usize,
    res: Result<FetchPiece, MrError>,
) {
    let mut sink = pump.sink.borrow_mut();
    let Some(s) = sink.as_mut() else {
        return; // a sibling piece ended this fetch already
    };
    let result = match res {
        Ok(piece) => {
            if !s.piece(sim, idx, piece) {
                *sink = None;
                return;
            }
            pump.arrived.set(pump.arrived.get() + 1);
            if pump.arrived.get() < pump.stream.n_pieces() {
                drop(sink);
                return refill(pump, sim);
            }
            Ok(())
        }
        Err(e) => Err(e),
    };
    let ended = sink.take();
    drop(sink);
    if let Some(s) = ended {
        s.end(sim, result);
    }
}

/// [`collect_stream`]'s sink: per-phase sums of the piece charges and
/// counters.
struct Collect {
    stream: Rc<dyn PieceStream>,
    charges: Vec<(&'static str, f64)>,
    counters: Vec<(&'static str, f64)>,
    done: FetchDone,
}

impl PieceSink for Collect {
    fn piece(&mut self, _sim: &mut Sim, _idx: usize, piece: FetchPiece) -> bool {
        add_named(&mut self.charges, piece.charges);
        add_named(&mut self.counters, piece.counters);
        true
    }

    fn end(mut self, sim: &mut Sim, result: Result<(), MrError>) {
        let assembled = result.and_then(|()| self.stream.finish());
        let result = assembled.map(|mut fr| {
            add_named(&mut self.charges, std::mem::take(&mut fr.charges));
            add_named(&mut self.counters, std::mem::take(&mut fr.counters));
            FetchResult {
                charges: self.charges,
                counters: self.counters,
                ..fr
            }
        });
        (self.done)(sim, result);
    }
}

/// The batch fetch of a streaming fetcher: `pump_pieces` every piece of
/// `stream` through `window`, then [`PieceStream::finish`] and hand `done`
/// one [`FetchResult`] carrying the per-phase sums of the piece charges and
/// counters followed by the finish-level ones. The first failing piece
/// fails the fetch (once).
pub fn collect_stream(
    stream: Rc<dyn PieceStream>,
    env: &MrEnv,
    sim: &mut Sim,
    node: NodeId,
    window: usize,
    done: FetchDone,
) {
    if stream.n_pieces() == 0 {
        // Nothing to transfer (everything cached or pruned).
        sim.after(0.0, move |sim| done(sim, stream.finish()));
        return;
    }
    let sink = Collect {
        stream: stream.clone(),
        charges: Vec::new(),
        counters: Vec::new(),
        done,
    };
    pump_pieces(stream, env, sim, node, window, sink);
}

/// One unit of map work.
#[derive(Clone)]
pub struct InputSplit {
    /// Real bytes this split covers (scheduling weight, counters).
    pub length: u64,
    /// Nodes holding the data (empty for PFS-backed splits — the paper's
    /// dummy blocks carry no locations).
    pub locations: Vec<NodeId>,
    pub fetcher: Rc<dyn SplitFetcher>,
}

impl std::fmt::Debug for InputSplit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputSplit")
            .field("length", &self.length)
            .field("locations", &self.locations)
            .field("fetcher", &self.fetcher.describe())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// HDFS block fetcher
// ---------------------------------------------------------------------------

/// Counter deltas for the integrity and hedge events *one* block read
/// produced (only keys with events appear, keeping fault-free fetch
/// results unchanged). Takes the per-read [`hdfs::ReadEvents`] rather than
/// a delta of the cluster-wide stats: concurrent fetches interleave their
/// updates to the shared stats, so a snapshot delta around one read would
/// absorb every other read completing in the window and double-count.
pub fn read_event_counters(ev: hdfs::ReadEvents) -> Vec<(&'static str, f64)> {
    use crate::counters::keys;
    let mut out = Vec::new();
    if ev.verified_bytes > 0 {
        out.push((keys::CHECKSUM_VERIFIED_BYTES, ev.verified_bytes as f64));
    }
    if ev.detected > 0 {
        out.push((keys::CORRUPTION_DETECTED, ev.detected as f64));
    }
    if ev.repaired > 0 {
        out.push((keys::CORRUPTION_REPAIRED, ev.repaired as f64));
    }
    if ev.hedged_reads > 0 {
        out.push((keys::HEDGED_READS, ev.hedged_reads as f64));
    }
    if ev.hedged_read_wins > 0 {
        out.push((keys::HEDGED_READ_WINS, ev.hedged_read_wins as f64));
    }
    out
}

/// Reads one real HDFS block (the vanilla Hadoop record reader).
pub struct HdfsBlockFetcher {
    pub path: String,
    pub block_index: usize,
}

impl SplitFetcher for HdfsBlockFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        // HDFS block reads address blocks, not paths; count the read (and
        // test it against the fault plan) under the file path here.
        match sim.faults.take_read_outcome(&self.path) {
            simnet::ReadOutcome::Fail { nth } => {
                let e = MrError::msg(format!(
                    "injected I/O error on read #{nth} of {}",
                    self.path
                ));
                sim.after(0.0, move |sim| done(sim, Err(e)));
                return;
            }
            simnet::ReadOutcome::Hang { .. } => {
                // The read never completes — drop the callback so only the
                // driver's hang deadline can recover the attempt.
                drop(done);
                return;
            }
            _ => {}
        }
        let block = {
            let h = env.hdfs.borrow();
            match h.namenode.blocks(&self.path) {
                Ok(blocks) => match blocks.get(self.block_index) {
                    Some(b) => b.clone(),
                    None => {
                        drop(h);
                        let e = MrError::msg(format!(
                            "block #{} of {} out of range",
                            self.block_index, self.path
                        ));
                        sim.after(0.0, move |sim| done(sim, Err(e)));
                        return;
                    }
                },
                Err(e) => {
                    drop(h);
                    let e = MrError::msg(format!("hdfs: {e}"));
                    sim.after(0.0, move |sim| done(sim, Err(e)));
                    return;
                }
            }
        };
        // Integrity accounting: the read reports its own events, which land
        // on the attempt's ledger — exact under concurrent fetches (a
        // cluster-wide stats delta would absorb overlapping reads) and under
        // retries (a failed attempt's events are dropped with it).
        let path = self.path.clone();
        hdfs::read_block(sim, &env.topo, &env.hdfs, node, &block, move |sim, res| {
            let fetched = res.map(|(data, ev)| {
                let mut fr = FetchResult::plain(TaskInput::Bytes(data.as_ref().clone()));
                fr.counters = read_event_counters(ev);
                fr
            });
            done(
                sim,
                fetched.map_err(|e| MrError::msg(format!("hdfs: {e} ({path})"))),
            );
        });
    }

    fn describe(&self) -> String {
        format!("hdfs://{}#{}", self.path, self.block_index)
    }
}

/// Build one split per block of an HDFS file (`FileInputFormat` on HDFS).
///
/// A missing or non-file input path is reported as a typed error — the
/// Hadoop `InvalidInputException` analogue at job-setup time.
pub fn hdfs_file_splits(env: &MrEnv, path: &str) -> Result<Vec<InputSplit>, MrError> {
    let hdfs = env.hdfs.borrow();
    let blocks = hdfs
        .namenode
        .blocks(path)
        .map_err(|e| MrError::msg(format!("hdfs_file_splits({path}): {e}")))?;
    Ok(blocks
        .iter()
        .enumerate()
        .map(|(i, b)| InputSplit {
            length: b.len,
            locations: b.locations().to_vec(),
            fetcher: Rc::new(HdfsBlockFetcher {
                path: path.to_string(),
                block_index: i,
            }),
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Flat PFS range fetcher (PortHadoop-style virtual block)
// ---------------------------------------------------------------------------

/// Reads a byte range of a PFS file directly into the task — the
/// PortHadoop dynamic PFS reader. `sequential_chunks` models the read
/// granularity: 1 = one whole-block I/O request (SciDP's optimization,
/// §III-A.3); `k` > 1 = `k` back-to-back smaller requests (original Hadoop
/// reads 64 KB at a time).
pub struct FlatPfsFetcher {
    pub pfs_path: String,
    pub offset: u64,
    pub len: u64,
    pub sequential_chunks: usize,
}

impl FlatPfsFetcher {
    /// The fetch as a stream: one piece per byte range, in read-issue order.
    fn stream(&self) -> FlatPieceStream {
        let k = self.sequential_chunks.max(1) as u64;
        let chunk = self.len.div_ceil(k);
        let mut ranges = Vec::new();
        let mut off = self.offset;
        let end = self.offset + self.len;
        while off < end {
            let l = chunk.min(end - off);
            ranges.push((off, l));
            off += l;
        }
        if ranges.is_empty() {
            ranges.push((self.offset, 0));
        }
        FlatPieceStream {
            path: self.pfs_path.clone(),
            ranges,
            parts: Rc::default(),
        }
    }
}

/// The fetch of a [`FlatPfsFetcher`]: one piece per read request, parts
/// re-assembled in range order at [`PieceStream::finish`].
struct FlatPieceStream {
    path: String,
    ranges: Vec<(u64, u64)>,
    /// Arrived parts by piece index.
    parts: Rc<RefCell<BTreeMap<usize, Vec<u8>>>>,
}

impl PieceStream for FlatPieceStream {
    fn n_pieces(&self) -> usize {
        self.ranges.len()
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, idx: usize, done: PieceDone) {
        let Some(&(off, len)) = self.ranges.get(idx) else {
            // The piece schedulers only issue indices < n_pieces().
            let e = MrError::msg(format!("piece {idx} out of range"));
            sim.after(0.0, move |sim| done(sim, Err(e)));
            return;
        };
        let parts = self.parts.clone();
        let read = move |sim: &mut Sim, res: Result<Vec<u8>, pfs::PfsError>| {
            let piece = res.map(|bytes| {
                parts.borrow_mut().insert(idx, bytes);
                FetchPiece {
                    bytes: len,
                    charges: Vec::new(),
                    counters: Vec::new(),
                }
            });
            done(sim, piece.map_err(|e| MrError::msg(format!("pfs: {e}"))));
        };
        let (off, len) = (off as usize, len as usize);
        pfs::read_at(sim, &env.topo, &env.pfs, node, &self.path, off, len, read);
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        let parts = std::mem::take(&mut *self.parts.borrow_mut());
        if let Some(i) = (0..self.ranges.len()).find(|i| !parts.contains_key(i)) {
            return Err(MrError::msg(format!("stream piece {i} missing at finish")));
        }
        let parts: Vec<Vec<u8>> = parts.into_values().collect();
        Ok(FetchResult::plain(TaskInput::Bytes(parts.concat())))
    }
}

impl SplitFetcher for FlatPfsFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        // Back-to-back requests: one read in flight at a time.
        collect_stream(Rc::new(self.stream()), env, sim, node, 1, done);
    }

    fn open_stream(
        &self,
        _env: &MrEnv,
        _sim: &mut Sim,
        _node: NodeId,
    ) -> Result<Box<dyn PieceStream>, StreamFallback> {
        Ok(Box::new(self.stream()))
    }

    fn describe(&self) -> String {
        format!(
            "pfs://{}@{}+{} ({} reqs)",
            self.pfs_path, self.offset, self.len, self.sequential_chunks
        )
    }
}

/// A fetcher that delivers pre-staged data with no I/O (tests, in-memory
/// workloads).
pub struct InMemoryFetcher {
    pub data: Vec<u8>,
}

impl SplitFetcher for InMemoryFetcher {
    fn fetch(&self, _env: &MrEnv, sim: &mut Sim, _node: NodeId, done: FetchDone) {
        let data = self.data.clone();
        sim.after(0.0, move |sim| {
            done(sim, Ok(FetchResult::plain(TaskInput::Bytes(data))))
        });
    }

    fn describe(&self) -> String {
        format!("mem({} bytes)", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    /// A stream of `n` pieces that each take 1 s, logging `(piece, issue
    /// time)`; piece `fail_at` (if any) errors instead of arriving.
    struct FakeStream {
        n: usize,
        fail_at: Option<usize>,
        issued: Rc<RefCell<Vec<(usize, f64)>>>,
    }

    impl PieceStream for FakeStream {
        fn n_pieces(&self) -> usize {
            self.n
        }
        fn fetch_piece(&self, _: &MrEnv, sim: &mut Sim, _: NodeId, idx: usize, done: PieceDone) {
            self.issued.borrow_mut().push((idx, sim.now().secs()));
            let res = if self.fail_at == Some(idx) {
                Err(MrError::msg(format!("piece {idx} failed")))
            } else {
                Ok(FetchPiece {
                    bytes: 1,
                    charges: vec![("decompress", 0.5)],
                    counters: vec![("pieces", 1.0)],
                })
            };
            sim.after(1.0, move |sim| done(sim, res));
        }
        fn finish(&self) -> Result<FetchResult, MrError> {
            let mut fr = FetchResult::plain(TaskInput::Bytes(vec![7; self.n]));
            fr.charges = vec![("cache_read", 0.25), ("decompress", 1.0)];
            fr.counters = vec![("hits", 2.0)];
            Ok(fr)
        }
    }

    /// Collect a [`FakeStream`]; returns the issue log and every result
    /// `done` was called with, stamped with its simulated time.
    #[allow(clippy::type_complexity)]
    fn collect_fake(
        n: usize,
        window: usize,
        fail_at: Option<usize>,
    ) -> (Vec<(usize, f64)>, Vec<(f64, Result<FetchResult, MrError>)>) {
        let mut c = Cluster::new(
            simnet::ClusterSpec::default(),
            pfs::PfsConfig::default(),
            1 << 16,
            1,
            simnet::CostModel::default(),
        );
        let issued = Rc::new(RefCell::new(Vec::new()));
        let stream = Rc::new(FakeStream {
            n,
            fail_at,
            issued: issued.clone(),
        });
        let results = Rc::new(RefCell::new(Vec::new()));
        let r = results.clone();
        let env = c.env();
        collect_stream(
            stream,
            &env,
            &mut c.sim,
            NodeId(0),
            window,
            Box::new(move |sim, res| r.borrow_mut().push((sim.now().secs(), res))),
        );
        c.run();
        let issued = issued.borrow().clone();
        let results = std::mem::take(&mut *results.borrow_mut());
        (issued, results)
    }

    #[test]
    fn window_one_issues_pieces_in_order_one_at_a_time() {
        let (issued, results) = collect_fake(4, 1, None);
        assert_eq!(issued, vec![(0, 0.0), (1, 1.0), (2, 2.0), (3, 3.0)]);
        let [(t, Ok(fr))] = &results[..] else {
            panic!("done must run exactly once, with the result");
        };
        assert_eq!(*t, 4.0, "delivered when the last piece lands");
        // Piece sums first, finish-level amounts folded in by name.
        assert_eq!(fr.charges, vec![("decompress", 3.0), ("cache_read", 0.25)]);
        assert_eq!(fr.counters, vec![("pieces", 4.0), ("hits", 2.0)]);
        assert!(matches!(&fr.input, TaskInput::Bytes(b) if b.len() == 4));
    }

    #[test]
    fn full_window_issues_every_piece_at_the_same_instant() {
        let (issued, results) = collect_fake(4, 4, None);
        assert_eq!(issued, vec![(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 1.0, "all reads ran in parallel");
        // An empty stream still completes, on the next event.
        let (issued, results) = collect_fake(0, 0, None);
        assert!(issued.is_empty());
        assert!(matches!(&results[..], [(t, Ok(_))] if *t == 0.0));
    }

    #[test]
    fn failing_piece_calls_done_exactly_once_and_stops_issuing() {
        // Parallel window: siblings of the failing piece still land, but
        // `done` has already run.
        let (issued, results) = collect_fake(4, 4, Some(1));
        assert_eq!(issued.len(), 4);
        let [(_, Err(e))] = &results[..] else {
            panic!("done must run exactly once, with the error");
        };
        assert_eq!(e.message(), "piece 1 failed");
        // Sequential window: nothing is issued after the failure.
        let (issued, results) = collect_fake(4, 1, Some(1));
        assert_eq!(issued, vec![(0, 0.0), (1, 1.0)]);
        assert!(matches!(&results[..], [(t, Err(_))] if *t == 2.0));
    }

    #[test]
    fn sink_saying_stop_ends_the_pump_without_further_issue_or_end() {
        // The driver's orphaned-attempt case: the sink declines a piece.
        struct StopAt {
            at: usize,
            seen: Rc<RefCell<Vec<usize>>>,
        }
        impl PieceSink for StopAt {
            fn piece(&mut self, _: &mut Sim, idx: usize, _: FetchPiece) -> bool {
                self.seen.borrow_mut().push(idx);
                idx != self.at
            }
            fn end(self, _: &mut Sim, _: Result<(), MrError>) {
                self.seen.borrow_mut().push(usize::MAX);
            }
        }
        let mut c = Cluster::new(
            simnet::ClusterSpec::default(),
            pfs::PfsConfig::default(),
            1 << 16,
            1,
            simnet::CostModel::default(),
        );
        let issued = Rc::new(RefCell::new(Vec::new()));
        let stream = Rc::new(FakeStream {
            n: 6,
            fail_at: None,
            issued: issued.clone(),
        });
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = StopAt {
            at: 1,
            seen: seen.clone(),
        };
        let env = c.env();
        pump_pieces(stream, &env, &mut c.sim, NodeId(0), 2, sink);
        c.run();
        // Piece 0's arrival refilled the window with piece 2; piece 1 said
        // stop: nothing more is issued, piece 2's arrival is dropped and
        // `end` never runs.
        assert_eq!(*issued.borrow(), vec![(0, 0.0), (1, 0.0), (2, 1.0)]);
        assert_eq!(*seen.borrow(), vec![0, 1]);
    }

    #[test]
    fn task_input_sizes() {
        assert_eq!(TaskInput::Bytes(vec![0; 10]).approx_bytes(), 10);
        let a = scifmt::Array::zeros(scifmt::DType::F32, vec![3, 4]);
        assert_eq!(TaskInput::Array(a).approx_bytes(), 48);
    }

    #[test]
    fn split_debug_includes_fetcher() {
        let s = InputSplit {
            length: 5,
            locations: vec![],
            fetcher: Rc::new(InMemoryFetcher { data: vec![1; 5] }),
        };
        let d = format!("{s:?}");
        assert!(d.contains("mem(5 bytes)"), "{d}");
    }
}
