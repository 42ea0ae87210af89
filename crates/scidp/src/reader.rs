//! PFS Reader: the in-task fetcher for scientific dummy blocks
//! (paper §III-A.3).
//!
//! Each map task spawns its own reader; the reader resolves its slab to the
//! intersecting compressed chunks, issues **one whole-extent read per
//! chunk** (SciDP "reads the entire block in a single I/O request to
//! maximize the bandwidth", vs. original Hadoop's 64 KB record reads),
//! decompresses, and assembles the hyperslab into a typed array — or,
//! under predicate pushdown, into the filtered frame. With many tasks
//! running across nodes, many readers hit the PFS concurrently — that
//! aggregate parallel read is Figure 6's "SciDP" series.
//!
//! There is one read path: `SciSlabFetcher::plan_chunks` walks the tiers
//! once per fetch (range check → quarantine → zone-map prune → job cache →
//! cluster tier) and what is left is a `SlabPieceStream`, one piece per
//! chunk still to read (PFS read → CRC verify → re-read repair →
//! quarantine → decompress → admit). The job cache is one pool for the
//! whole job, not a model of any node's memory: a hit is free on whichever
//! node runs the attempt (the cluster tier is the per-node one, and charges
//! its hits). The driver streams the pieces through its prefetch window;
//! the batch fetch is `mapreduce::collect_stream` over the same stream with
//! every chunk in flight at once.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::counters::keys;
use mapreduce::{
    collect_stream, FetchDone, FetchPiece, FetchResult, MrEnv, MrError, PieceDone, PieceStream,
    SplitFetcher, StreamFallback, TaskInput,
};
use rframe::{MatchBound, Predicate};
use scifmt::hyperslab;
use scifmt::snc::{assemble_slab, chunk_extents_of, ChunkCache};
use scifmt::{ChunkExtent, VarMeta};
use simnet::{NodeId, Sim};

use crate::pushdown::{assemble_frame, chunk_col_stats};
use crate::rapi::encode_slab_tag;

/// Decoded chunks of one slab fetch, by linear chunk index.
type Collected = Rc<RefCell<HashMap<usize, Arc<Vec<u8>>>>>;

/// One chunk-extent read with end-to-end verification and repair, and
/// everything its arrival needs to decode and admit the chunk.
struct ChunkRead {
    env: MrEnv,
    node: NodeId,
    fetcher: Rc<SciSlabFetcher>,
    chunk: ChunkExtent,
    /// The chunk's key in the job cache and the cluster tier.
    key: simnet::ChunkKey,
    collected: Collected,
    decompress_cost: f64,
    /// Deliveries of this chunk that failed CRC verification.
    detected: Cell<u64>,
    done: RefCell<Option<PieceDone>>,
}

impl ChunkRead {
    /// Kill the attempt (once).
    fn fail(&self, sim: &mut Sim, e: MrError) {
        if let Some(done) = self.done.borrow_mut().take() {
            done(sim, Err(e));
        }
    }

    /// A verified frame landed (`attempt` 1 = the repair re-read): decode
    /// it, admit it to the job cache and — placement permitting — the
    /// cluster tier, and report the piece.
    fn deliver(&self, sim: &mut Sim, frame: Vec<u8>, attempt: u32) {
        let Some(done) = self.done.borrow_mut().take() else {
            return;
        };
        let idx = self.chunk.index;
        // Real decode of the real (verified) chunk bytes, timed for the
        // Fig. 7 Read/Convert decomposition.
        // scilint::allow(d-wallclock, reason = "measures real host decompress cost for the Fig. 7 diagnostic; never feeds back into virtual time")
        let t0 = std::time::Instant::now();
        let raw = match scifmt::snc::decode_chunk(&frame, self.chunk.rlen) {
            Ok(raw) => Arc::new(raw),
            Err(e) => {
                let e = MrError::msg(format!("snc chunk {idx} decode: {e:?}"));
                return done(sim, Err(e));
            }
        };
        let decode_s = t0.elapsed().as_secs_f64();
        self.fetcher.cache.insert(self.key, raw.clone());
        // The registry itself refuses quarantined or oversized entries and
        // no-ops while the tier is disabled.
        if self.fetcher.cluster_admit {
            self.env
                .cluster_cache
                .insert(self.node, self.key, raw.clone());
        }
        self.collected.borrow_mut().insert(idx, raw);
        let mut counters = vec![
            (keys::CHUNK_CACHE_MISSES, 1.0),
            (keys::CODEC_DECODE_S, decode_s),
        ];
        // Integrity counters only exist when their event happened, so
        // fault-free counter sets carry no zero rows.
        let integrity = [
            (keys::CHECKSUM_VERIFIED_BYTES, frame.len() as f64),
            (keys::CORRUPTION_DETECTED, self.detected.get() as f64),
            (keys::CORRUPTION_REPAIRED, attempt as f64),
        ];
        counters.extend(integrity.into_iter().filter(|&(_, v)| v > 0.0));
        done(
            sim,
            Ok(FetchPiece {
                bytes: self.chunk.rlen,
                charges: vec![("decompress", self.decompress_cost)],
                counters,
            }),
        );
    }
}

/// Issue (or re-issue) the timed PFS read of a chunk extent, verifying the
/// delivered frame against the stored CRC. A mismatch is detected
/// corruption: the first one triggers exactly one re-read (a transient
/// flip repairs — the store is clean); a second mismatch quarantines the
/// chunk and fails the attempt with an `IntegrityError` rather than ever
/// decoding wrong bytes. A PFS error (injected or genuine, first read or
/// re-read) fails the piece.
fn chunk_read_attempt(sim: &mut Sim, st: Rc<ChunkRead>, attempt: u32) {
    let st2 = st.clone();
    let arrived = move |sim: &mut Sim, res: Result<Vec<u8>, pfs::PfsError>| {
        let st = st2;
        let frame = match res {
            Ok(frame) => frame,
            Err(e) => {
                let e = MrError::msg(format!("pfs: {e} ({})", st.fetcher.pfs_path));
                return st.fail(sim, e);
            }
        };
        if scirng::crc32c(&frame) == st.chunk.crc {
            return st.deliver(sim, frame, attempt);
        }
        st.detected.set(st.detected.get() + 1);
        if attempt == 0 {
            return chunk_read_attempt(sim, st, 1);
        }
        st.fetcher.cache.quarantine(st.key);
        // The cluster tier must never outlive the quarantine: purge
        // any resident copy on every node and block re-admission.
        st.env.cluster_cache.quarantine(st.key);
        let e = MrError::msg(format!(
            "IntegrityError: chunk {} of {} failed crc32c verification twice; \
             chunk quarantined",
            st.chunk.index, st.fetcher.pfs_path
        ));
        // The attempt dies on the next event, as a PFS error would.
        sim.after(0.0, move |sim| st.fail(sim, e));
    };
    pfs::read_at(
        sim,
        &st.env.topo,
        &st.env.pfs,
        st.node,
        &st.fetcher.pfs_path,
        st.chunk.offset as usize,
        st.chunk.clen as usize,
        arrived,
    );
}

/// Fetches one scientific dummy block (a variable hyperslab) from the PFS.
#[derive(Clone)]
pub struct SciSlabFetcher {
    pub pfs_path: String,
    pub var: Arc<VarMeta>,
    /// Absolute offset of the container's data section.
    pub data_offset: usize,
    /// Element slab this block covers.
    pub start: Vec<usize>,
    pub count: Vec<usize>,
    /// The job-wide decompressed-chunk cache, one pool shared by all of the
    /// job's fetchers and keyed `(file_key, chunk offset)`. A chunk found
    /// here skips the PFS read and the decompression charge and costs
    /// nothing, on whichever node runs the attempt (repeated overlapping
    /// hyperslabs of the same variable) — it stands for no node's memory;
    /// per-node residency is the cluster tier's. It also owns the job's
    /// quarantine set.
    pub cache: Arc<ChunkCache>,
    /// Pushdown predicate. When set, chunks whose zone maps prove no row
    /// can match are skipped before their PFS read is issued, and the
    /// result is delivered as the predicate-filtered coordinate+value
    /// frame ([`TaskInput::Frame`]) instead of the dense array.
    pub pushdown: Option<Arc<Predicate>>,
    /// Whether this dataset's decoded chunks are admitted to the cluster
    /// cache tier ([`crate::Placement::Cached`]). Lookups always happen when
    /// the tier is enabled — residual entries serve any dataset.
    pub cluster_admit: bool,
}

impl SciSlabFetcher {
    /// Linear ids of the chunks the slab intersects, and the variable's
    /// chunk extents they index into.
    fn slab_chunks(&self) -> (Vec<usize>, Vec<ChunkExtent>) {
        let shape = self.var.shape();
        (
            hyperslab::chunks_for_slab(&shape, &self.var.chunk_shape, &self.start, &self.count),
            chunk_extents_of(&self.var, self.data_offset),
        )
    }

    fn dim_names(&self) -> Vec<String> {
        self.var.dims.iter().map(|d| d.name.clone()).collect()
    }

    /// The predicate to push down, if any. Zone-map pruning is only
    /// meaningful for real (rank >= 1) arrays; a rank-0 variable stays
    /// dense even under pushdown.
    fn predicate(&self) -> Option<&Arc<Predicate>> {
        self.pushdown.as_ref().filter(|_| !self.var.dims.is_empty())
    }

    /// The open-time tier walk, in this order for every chunk of the slab:
    /// range check → quarantine → zone-map prune → job cache → cluster
    /// tier. What survives all of them becomes a piece to read from the
    /// PFS; a chunk that fails the first two dooms the whole plan, which
    /// then holds a single piece that fails with zero PFS traffic.
    fn plan_chunks(&self, env: &MrEnv, sim: &Sim, node: NodeId) -> SlabPieceStream {
        let (ids, extents) = self.slab_chunks();
        let file_key = ChunkCache::file_key(&self.pfs_path);
        let pushdown = self.predicate().map(|pred| (pred, self.dim_names()));
        let mut plan = SlabPieceStream {
            fetcher: Rc::new(self.clone()),
            file_key,
            pieces: Vec::new(),
            collected: Collected::default(),
            skipped: HashSet::new(),
            counters: Vec::new(),
            charges: Vec::new(),
        };
        let doomed = |mut plan: SlabPieceStream, why: String| {
            plan.pieces = vec![Err(MrError::msg(why))];
            plan
        };
        // Chunks served by the job cache and by the cluster tier, the raw
        // bytes the tier served, and the compressed bytes whose PFS reads
        // its hits and the zone maps avoided.
        let (mut hits, mut cluster_hits, mut cluster_misses) = (0u64, 0u64, 0u64);
        let (mut cluster_hit_raw, mut cluster_avoided, mut skipped_bytes) = (0u64, 0u64, 0u64);
        for &i in &ids {
            // chunks_for_slab only yields ids inside the chunk grid; an
            // out-of-range id means the header and the grid disagree —
            // fail the read, don't drop data.
            let Some(ext) = extents.get(i) else {
                return doomed(
                    plan,
                    format!("chunk id {i} out of range for {}", self.pfs_path),
                );
            };
            let key = (file_key, ext.offset);
            // A prior fetch proved this chunk unreadable (two CRC
            // failures); fail fast instead of re-reading known-bad data.
            // This stays ahead of zone-map pruning so known-bad chunks
            // fail identically with and without pushdown.
            if self.cache.is_quarantined(key) {
                let why = format!(
                    "IntegrityError: chunk {i} of {} is quarantined",
                    self.pfs_path
                );
                return doomed(plan, why);
            }
            if let Some((pred, dims)) = &pushdown {
                // A chunk whose zone map proves the predicate false for
                // every row contributes nothing to the filtered frame.
                let elems: usize = ext.shape.iter().product();
                if let Some((is, ic)) =
                    hyperslab::intersect(&ext.origin, &ext.shape, &self.start, &self.count)
                {
                    let stats = |col: &str| {
                        chunk_col_stats(dims, &is, &ic, ext.zone.as_ref(), elems as u64, col)
                    };
                    if pred.prune(&stats) == MatchBound::None {
                        plan.skipped.insert(i);
                        skipped_bytes += ext.clen;
                        continue;
                    }
                }
            }
            let raw = match self.cache.lookup(key) {
                Some(raw) => {
                    hits += 1;
                    raw
                }
                // Job-cache miss: consult the cluster tier. Only residency
                // on the *executing* node is a hit (remote holders steer
                // the scheduler, they don't serve data).
                None => match env.cluster_cache.lookup(node, key) {
                    Some(raw) => {
                        // Seed the job cache so sibling fetchers of this
                        // job hit without another registry round.
                        self.cache.insert(key, raw.clone());
                        cluster_hits += 1;
                        cluster_hit_raw += ext.rlen;
                        cluster_avoided += ext.clen;
                        raw
                    }
                    None => {
                        cluster_misses += 1;
                        plan.pieces.push(Ok(ext.clone()));
                        continue;
                    }
                },
            };
            plan.collected.borrow_mut().insert(i, raw);
        }
        // Everything the walk itself has to report. `finish()` has no
        // `Sim` handle, so the charge is priced here.
        if hits > 0 {
            plan.counters.push((keys::CHUNK_CACHE_HITS, hits as f64));
        }
        // The cluster-tier counters only exist when the tier is live, so
        // every tier-less workload's counter set is unchanged.
        if env.cluster_cache.enabled() {
            plan.counters.extend([
                (keys::CLUSTER_CACHE_HITS, cluster_hits as f64),
                (keys::CLUSTER_CACHE_MISSES, cluster_misses as f64),
            ]);
            if cluster_avoided > 0 {
                plan.counters
                    .push((keys::PFS_BYTES_AVOIDED, cluster_avoided as f64));
            }
        }
        if pushdown.is_some() {
            plan.counters.extend([
                (keys::CHUNKS_SKIPPED_ZONEMAP, plan.skipped.len() as f64),
                (keys::PUSHDOWN_BYTES_AVOIDED, skipped_bytes as f64),
            ]);
        }
        if cluster_hits > 0 {
            // Cluster hits pay the node-local memory-copy charge instead
            // of a PFS read.
            let cost = sim.cost.cache_hit(cluster_hit_raw as usize);
            plan.charges.push(("cache_read", cost));
        }
        plan
    }
}

impl SplitFetcher for SciSlabFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: FetchDone) {
        // Batch = open the stream and collect it, every chunk in parallel.
        let stream = Rc::new(self.plan_chunks(env, sim, node));
        let window = stream.n_pieces();
        collect_stream(stream, env, sim, node, window, done);
    }

    fn open_stream(
        &self,
        env: &MrEnv,
        sim: &mut Sim,
        node: NodeId,
    ) -> Result<Box<dyn PieceStream>, StreamFallback> {
        Ok(Box::new(self.plan_chunks(env, sim, node)))
    }

    fn cache_hints(&self) -> Vec<simnet::ChunkKey> {
        // The chunk keys this split will ask the cluster tier for — the
        // scheduler probes these against each node's registry shard to
        // place the map cache-local. Only computed when the tier is live
        // (the driver skips the call otherwise).
        let (ids, extents) = self.slab_chunks();
        let file_key = ChunkCache::file_key(&self.pfs_path);
        ids.iter()
            .filter_map(|&i| extents.get(i).map(|e| (file_key, e.offset)))
            .collect()
    }

    fn describe(&self) -> String {
        format!(
            "scidp://{}#{}[{:?}+{:?}]",
            self.pfs_path, self.var.name, self.start, self.count
        )
    }
}

/// The one fetch state machine of a [`SciSlabFetcher`] (see the module
/// docs), as planned by [`SciSlabFetcher::plan_chunks`]: the pieces still
/// to read, what the tiers already delivered, and what to report.
/// [`PieceStream::finish`] assembles the dense hyperslab — or, under
/// pushdown, the predicate-filtered frame.
struct SlabPieceStream {
    fetcher: Rc<SciSlabFetcher>,
    file_key: u64,
    /// The cache-miss chunks to read — or, when the plan met an
    /// out-of-range or quarantined chunk, the one error that fails the
    /// attempt at issue time.
    pieces: Vec<Result<ChunkExtent, MrError>>,
    collected: Collected,
    /// Chunks pruned by their zone maps.
    skipped: HashSet<usize>,
    /// Open-time counters and charges, reported by `finish()`.
    counters: Vec<(&'static str, f64)>,
    charges: Vec<(&'static str, f64)>,
}

impl PieceStream for SlabPieceStream {
    fn n_pieces(&self) -> usize {
        self.pieces.len()
    }

    fn fetch_piece(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, piece: usize, done: PieceDone) {
        // (The piece schedulers only issue indices < n_pieces().)
        let out_of_range = || Err(MrError::msg(format!("piece {piece} out of range")));
        let chunk = match self.pieces.get(piece).cloned().unwrap_or_else(out_of_range) {
            Ok(chunk) => chunk,
            Err(e) => {
                sim.after(0.0, move |sim| done(sim, Err(e)));
                return;
            }
        };
        let st = Rc::new(ChunkRead {
            env: env.clone(),
            node,
            fetcher: self.fetcher.clone(),
            key: (self.file_key, chunk.offset),
            decompress_cost: sim.cost.decompress(chunk.rlen as usize),
            chunk,
            collected: self.collected.clone(),
            detected: Cell::new(0),
            done: RefCell::new(Some(done)),
        });
        chunk_read_attempt(sim, st, 0);
    }

    fn finish(&self) -> Result<FetchResult, MrError> {
        let chunks = std::mem::take(&mut *self.collected.borrow_mut());
        let mut counters = self.counters.clone();
        let f = &*self.fetcher;
        let input = match f.predicate() {
            // The surviving chunks go straight into the slab's
            // coordinate+value columns and the predicate filter is applied
            // vectorised.
            Some(pred) => {
                let (dims, skipped) = (f.dim_names(), &self.skipped);
                let frame = assemble_frame(&f.var, &dims, &f.start, &f.count, &chunks, skipped)
                    .map_err(|e| MrError::msg(format!("snc pushdown assembly: {e}")))?;
                counters.push((keys::VECTORISED_ROWS, frame.n_rows() as f64));
                let mask = pred
                    .eval_mask(&frame)
                    .map_err(|e| MrError::msg(format!("pushdown predicate: {e}")))?;
                let frame = frame
                    .filter(&mask)
                    .map_err(|e| MrError::msg(format!("pushdown filter: {e}")))?;
                TaskInput::Frame(frame)
            }
            None => TaskInput::Array(
                assemble_slab(&f.var, &f.start, &f.count, |i| {
                    chunks
                        .get(&i)
                        .map(|a| a.as_slice())
                        .ok_or_else(|| scifmt::FmtError::NotFound(format!("chunk {i}")))
                })
                .map_err(|e| MrError::msg(format!("snc slab assembly: {e}")))?,
            ),
        };
        Ok(FetchResult {
            input,
            charges: self.charges.clone(),
            counters,
            tag: encode_slab_tag(&f.pfs_path, &f.var.name, &f.dim_names(), &f.start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapreduce::Cluster;
    use pfs::PfsConfig;
    use scifmt::{Array, Codec, SncBuilder, SncFile};
    use simnet::{ClusterSpec, CostModel};

    fn cluster() -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: 2,
            storage_nodes: 1,
            osts: 4,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 4,
            stripe_size: 256,
            default_stripe_count: 4,
        };
        // Zero metadata overheads so byte accounting is exact in tests.
        let cost = CostModel {
            seek_s: 0.0,
            rpc_s: 0.0,
            ..CostModel::default()
        };
        Cluster::new(spec, pfs_cfg, 1 << 20, 1, cost)
    }

    fn stage_var(c: &mut Cluster) -> (Arc<VarMeta>, usize, Array) {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
            &[2, 8, 5],
            Codec::ShuffleLz { elem: 4 },
            full.clone(),
        )
        .unwrap();
        let bytes = b.finish();
        let f = SncFile::open(bytes.clone()).unwrap();
        let var = Arc::new(f.meta().var("QR").unwrap().clone());
        let off = f.meta().data_offset;
        c.pfs.borrow_mut().create("run/f.snc", bytes);
        (var, off, full)
    }

    #[test]
    fn fetch_assembles_exact_slab() {
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![1, 2, 0],
            count: vec![3, 4, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: false,
        };
        #[allow(clippy::type_complexity)]
        let got: Rc<RefCell<Option<(TaskInput, Vec<(&'static str, f64)>)>>> =
            Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                let fr = fr.unwrap();
                // The result names its slab, for the R layer's keys.
                let (file, var, dims, origin) = crate::rapi::decode_tag(&fr.tag).unwrap();
                assert_eq!((file.as_str(), var.as_str()), ("run/f.snc", "QR"));
                assert_eq!(dims, ["lev", "lat", "lon"]);
                assert_eq!(origin, [1, 2, 0]);
                *g.borrow_mut() = Some((fr.input, fr.charges));
            }),
        );
        c.run();
        let (input, charges) = got.borrow_mut().take().unwrap();
        let TaskInput::Array(a) = input else {
            panic!("expected array");
        };
        assert_eq!(a.shape(), &[3, 4, 5]);
        for l in 0..3 {
            for i in 0..4 {
                for j in 0..5 {
                    assert_eq!(a.at(&[l, i, j]), full.at(&[1 + l, 2 + i, j]));
                }
            }
        }
        assert_eq!(charges.len(), 1);
        assert_eq!(charges[0].0, "decompress");
        assert!(charges[0].1 > 0.0);
    }

    #[test]
    fn chunk_decoding_to_an_unrecorded_length_fails_typed_and_is_not_cached() {
        // The frame is intact (CRC passes, decode succeeds) but the chunk
        // table promises a different raw length: the piece must fail at
        // delivery, before the job cache admits the payload.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let mut var = (*var).clone();
        var.chunks[1].rlen -= 4;
        let cache = Arc::new(ChunkCache::new(1 << 20));
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: Arc::new(var),
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: false,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| *g.borrow_mut() = Some(fr.map(|_| ()))),
        );
        c.run();
        let err = got.borrow_mut().take().unwrap().unwrap_err();
        assert!(err.to_string().contains("chunk-table entry"), "{err}");
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn chunk_aligned_slab_reads_only_its_chunks() {
        // A slab covering exactly chunk 1 (levels 2..4) must not read
        // chunks 0 or 2: admitted flow bytes stay well under the file size.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let chunk1 = var.chunks[1].clen as f64;
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: false,
        };
        let env = c.env();
        fetcher.fetch(&env, &mut c.sim, NodeId(1), Box::new(|_, _| {}));
        c.run();
        let admitted = c.sim.net.bytes_admitted;
        // Only the selected chunk's bytes may move (seeks zeroed above).
        assert!(
            admitted <= chunk1 + 1.0,
            "read amplification: admitted {admitted}, chunk {chunk1}"
        );
        assert!(admitted >= chunk1 * 0.99);
    }

    #[test]
    fn shared_cache_skips_repeat_reads() {
        // Two fetchers of the same job share a cache: the second fetch of an
        // overlapping slab moves zero PFS bytes, charges no decompression,
        // and reports the hits through the fetch counters.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let cache = Arc::new(ChunkCache::default());
        let mk = |start: Vec<usize>, count: Vec<usize>| SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: var.clone(),
            data_offset: off,
            start,
            count,
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: false,
        };
        let env = c.env();
        let first = mk(vec![0, 0, 0], vec![4, 8, 5]); // chunks 0 and 1
        first.fetch(&env, &mut c.sim, NodeId(0), Box::new(|_, _| {}));
        c.run();
        let bytes_after_first = c.sim.net.bytes_admitted;
        assert!(bytes_after_first > 0.0);

        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let second = mk(vec![1, 0, 0], vec![2, 8, 5]); // same two chunks
        second.fetch(
            &env,
            &mut c.sim,
            NodeId(1),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        assert_eq!(
            c.sim.net.bytes_admitted, bytes_after_first,
            "cached fetch must not touch the PFS"
        );
        let fr = got.borrow_mut().take().unwrap().unwrap();
        assert!(fr.charges.is_empty(), "no decompression charge on hits");
        assert_eq!(fr.counters, vec![(keys::CHUNK_CACHE_HITS, 2.0)]);
        let TaskInput::Array(a) = fr.input else {
            panic!("expected array");
        };
        assert_eq!(a.at(&[0, 0, 0]), full.at(&[1, 0, 0]));
        assert_eq!(a.at(&[1, 7, 4]), full.at(&[2, 7, 4]));
    }

    #[test]
    fn miss_fetch_reports_counters() {
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![0, 0, 0],
            count: vec![6, 8, 5],
            cache: Arc::new(ChunkCache::default()),
            pushdown: None,
            cluster_admit: false,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr.unwrap().counters);
            }),
        );
        c.run();
        let counters: HashMap<_, _> = got.borrow_mut().take().unwrap().into_iter().collect();
        assert!(!counters.contains_key(keys::CHUNK_CACHE_HITS), "no hits");
        assert_eq!(counters[keys::CHUNK_CACHE_MISSES], 3.0);
        assert!(
            counters[keys::CODEC_DECODE_S] > 0.0,
            "real decode time was measured"
        );
    }

    /// Error of a batch fetch and of the first streamed piece of `f`,
    /// asserting that neither moved a byte.
    fn doomed_errors(c: &mut Cluster, f: &SciSlabFetcher) -> (String, String) {
        let env = c.env();
        let bytes_before = c.sim.net.bytes_admitted;
        let batch = Rc::new(RefCell::new(None));
        let b = batch.clone();
        f.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                assert!(b.borrow_mut().replace(fr.err()).is_none(), "done ran twice");
            }),
        );
        c.run();
        let stream = f.open_stream(&env, &mut c.sim, NodeId(0)).ok().unwrap();
        assert_eq!(stream.n_pieces(), 1, "a doomed plan is one failing piece");
        let piece = Rc::new(RefCell::new(None));
        let p = piece.clone();
        stream.fetch_piece(
            &env,
            &mut c.sim,
            NodeId(0),
            0,
            Box::new(move |_, r| *p.borrow_mut() = Some(r.err())),
        );
        c.run();
        assert_eq!(c.sim.net.bytes_admitted, bytes_before, "zero PFS reads");
        let msg = |cell: &RefCell<Option<Option<MrError>>>| {
            let e = cell.borrow_mut().take().expect("completed");
            e.expect("doomed fetch must fail").message()
        };
        (msg(&batch), msg(&piece))
    }

    #[test]
    fn out_of_range_chunk_fails_the_same_way_in_both_modes() {
        // A header whose chunk table is shorter than its grid: the slab's
        // last chunk id has no extent. One plan, one message, no reads —
        // streaming used to report this chunk as "quarantined" and read
        // its siblings anyway.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        let mut truncated = (*var).clone();
        truncated.chunks.truncate(2);
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: Arc::new(truncated),
            data_offset: off,
            start: vec![0, 0, 0],
            count: vec![6, 8, 5],
            cache: Arc::new(ChunkCache::default()),
            pushdown: None,
            cluster_admit: false,
        };
        let (batch, stream) = doomed_errors(&mut c, &fetcher);
        assert_eq!(batch, "chunk id 2 out of range for run/f.snc");
        assert_eq!(stream, batch);
    }

    #[test]
    fn unaligned_slab_reads_extra_chunks() {
        // Levels 1..3 straddle chunks 0 and 1 → both chunks transferred.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let two_chunks = (var.chunks[0].clen + var.chunks[1].clen) as f64;
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![1, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: false,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr.unwrap().input);
            }),
        );
        c.run();
        assert!(c.sim.net.bytes_admitted >= two_chunks * 0.9);
        // Assembly is still correct despite the misalignment.
        let Some(TaskInput::Array(a)) = got.borrow_mut().take() else {
            panic!()
        };
        assert_eq!(a.at(&[0, 0, 0]), full.at(&[1, 0, 0]));
    }

    #[test]
    fn transient_corruption_detected_and_repaired_by_reread() {
        // A silent flip on the first chunk read fails CRC verification; the
        // automatic re-read fetches clean bytes and the slab is delivered
        // bit-exact, with the events reported through the fetch counters.
        let mut c = cluster();
        let (var, off, full) = stage_var(&mut c);
        let chunk1 = var.chunks[1].clen as f64;
        c.sim
            .faults
            .install(simnet::FaultPlan::none().corrupt_read("run/f.snc", 1));
        let fetcher = SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var,
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: Arc::new(ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: false,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        fetcher.fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let fr = got.borrow_mut().take().unwrap().expect("repaired fetch");
        let TaskInput::Array(a) = fr.input else {
            panic!("expected array");
        };
        for i in 0..8 {
            for j in 0..5 {
                assert_eq!(a.at(&[0, i, j]), full.at(&[2, i, j]));
            }
        }
        let counters: HashMap<_, _> = fr.counters.iter().copied().collect();
        assert_eq!(counters[keys::CORRUPTION_DETECTED], 1.0);
        assert_eq!(counters[keys::CORRUPTION_REPAIRED], 1.0);
        assert_eq!(counters[keys::CHECKSUM_VERIFIED_BYTES], chunk1);
        // The repair really moved the chunk a second time.
        assert!(
            c.sim.net.bytes_admitted >= chunk1 * 1.9,
            "expected two transfers of the chunk, admitted {}",
            c.sim.net.bytes_admitted
        );
    }

    #[test]
    fn persistent_corruption_quarantines_instead_of_wrong_data() {
        // Media corruption survives the re-read: the fetch must fail with a
        // typed IntegrityError (never deliver wrong bytes), quarantine the
        // chunk, and later fetches must fail fast without touching the PFS.
        let mut c = cluster();
        let (var, off, _) = stage_var(&mut c);
        c.sim
            .faults
            .install(simnet::FaultPlan::none().corrupt_read_persistent("run/f.snc", 1));
        let cache = Arc::new(ChunkCache::default());
        let mk = || SciSlabFetcher {
            pfs_path: "run/f.snc".into(),
            var: var.clone(),
            data_offset: off,
            start: vec![2, 0, 0],
            count: vec![2, 8, 5],
            cache: cache.clone(),
            pushdown: None,
            cluster_admit: false,
        };
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let env = c.env();
        mk().fetch(
            &env,
            &mut c.sim,
            NodeId(0),
            Box::new(move |_, fr| {
                *g.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let err = match got.borrow_mut().take().unwrap() {
            Err(e) => e,
            Ok(_) => panic!("persistent corruption must fail the fetch"),
        };
        assert!(err.message().contains("IntegrityError"), "{err}");
        assert!(err.message().contains("quarantined"), "{err}");
        assert_eq!(cache.n_quarantined(), 1);

        // Second fetch: fast-fail on the quarantine list, zero PFS traffic.
        let bytes_before = c.sim.net.bytes_admitted;
        let got2 = Rc::new(RefCell::new(None));
        let g2 = got2.clone();
        mk().fetch(
            &env,
            &mut c.sim,
            NodeId(1),
            Box::new(move |_, fr| {
                *g2.borrow_mut() = Some(fr);
            }),
        );
        c.run();
        let err2 = match got2.borrow_mut().take().unwrap() {
            Err(e) => e,
            Ok(_) => panic!("quarantined chunk must fail the fetch"),
        };
        assert!(err2.message().contains("is quarantined"), "{err2}");
        assert_eq!(c.sim.net.bytes_admitted, bytes_before);

        // A slab with the quarantined chunk between two readable ones is
        // doomed as a whole: neither mode reads the healthy siblings.
        let full = SciSlabFetcher {
            start: vec![0, 0, 0],
            count: vec![6, 8, 5],
            ..mk()
        };
        let (batch, stream) = doomed_errors(&mut c, &full);
        assert_eq!(batch, "IntegrityError: chunk 1 of run/f.snc is quarantined");
        assert_eq!(stream, batch);
    }
}
