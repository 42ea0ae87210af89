//! The R interface (paper §IV-E2): `rmr2`-style map/reduce over SciDP
//! inputs, with slabs delivered as R data frames.
//!
//! An [`RJob`] is the Rust rendering of the paper's R program: the user
//! writes a map function over a [`MapSlab`] (typed array + coordinate data
//! frame) and an optional reduce function; [`ScidpInput`] decides whether
//! the input comes straight from the PFS (SciDP's whole point) or from
//! HDFS (vanilla behaviour, kept identical to Hadoop's).

use std::cell::OnceCell;
use std::rc::Rc;

use mapreduce::{
    hdfs_file_splits, FlatPfsFetcher, InputSplit, Job, MapFn, MrEnv, MrError, Payload, TaskCtx,
    TaskInput,
};
use rframe::{image2d, ColorMap, Column, DataFrame};
use scifmt::Array;

use crate::error::ScidpError;
use crate::explorer::{parse_pfs_path, FileExplorer};
use crate::mapper::{DataMapper, MapperOptions};
use crate::reader::SciSlabFetcher;

/// Job input description (the `input=` argument of `rmr2::mapreduce`).
#[derive(Clone, Debug)]
pub struct ScidpInput {
    /// `lustre://dir`, `gpfs://dir`, or a plain HDFS path.
    pub path: String,
    /// Variable subsetting (maps to [`MapperOptions::variables`]).
    pub variables: Option<Vec<String>>,
    /// Split each chunk into this many dummy blocks.
    pub chunk_split: usize,
    /// Chunk-aligned mapping (default) or the misaligned ablation.
    pub align_to_chunks: bool,
    /// Dummy-block size for flat files (real bytes).
    pub flat_block_size: usize,
    /// Capacity of the job's shared decompressed-chunk cache in bytes
    /// (0 disables caching).
    pub cache_bytes: usize,
    /// Predicate pushed down to the PFS reader: chunks whose zone maps
    /// prove it false are skipped before any read, and surviving slabs
    /// arrive as predicate-filtered coordinate+value frames.
    pub pushdown: Option<rframe::Predicate>,
    /// This job's dataset placement: whether its decoded chunks are
    /// admitted to the cluster cache tier. The default,
    /// [`Placement::PfsDirect`], never admits — byte- and timing-identical
    /// to a world without the tier even when it is enabled.
    pub placement: PlacementSpec,
}

/// Where a dataset's decoded chunks are served from. Lookups in the cluster
/// cache tier are unconditional — whatever is resident serves; the placement
/// decides admission only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Read from the PFS on every access; never occupy cache memory.
    PfsDirect,
    /// Admit decoded chunks to the cluster cache tier, evictable by LRU.
    Cached,
}

/// A job's dataset placement, as the configs spell it.
#[derive(Clone, Debug)]
pub enum PlacementSpec {
    /// Use this placement.
    Fixed(Placement),
}

impl ScidpInput {
    pub fn path(p: impl Into<String>) -> ScidpInput {
        ScidpInput {
            path: p.into(),
            variables: None,
            chunk_split: 1,
            align_to_chunks: true,
            flat_block_size: 128 << 20,
            cache_bytes: scifmt::snc::DEFAULT_CACHE_BYTES,
            pushdown: None,
            placement: PlacementSpec::Fixed(Placement::PfsDirect),
        }
    }

    /// Select variables (`vars=` in the paper's API).
    pub fn vars<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.variables = Some(names.into_iter().map(Into::into).collect());
        self
    }

    pub fn chunk_split(mut self, k: usize) -> Self {
        self.chunk_split = k.max(1);
        self
    }

    pub fn align_to_chunks(mut self, yes: bool) -> Self {
        self.align_to_chunks = yes;
        self
    }

    pub fn flat_block_size(mut self, bytes: usize) -> Self {
        self.flat_block_size = bytes;
        self
    }

    /// Size the job's decompressed-chunk cache (0 disables caching).
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Push a predicate down to the PFS reader (PFS inputs only).
    pub fn pushdown(mut self, p: Option<rframe::Predicate>) -> Self {
        self.pushdown = p;
        self
    }
}

/// Extra info returned by split construction.
#[derive(Clone, Debug, Default)]
pub struct SetupInfo {
    /// Virtual seconds of metadata work (explorer scan + mapping table).
    pub setup_cost: f64,
    /// Real bytes of selected data on the PFS (0 for HDFS inputs).
    pub mapped_bytes: u64,
    /// Real bytes skipped by subsetting.
    pub skipped_bytes: u64,
    /// Number of virtual files created.
    pub virtual_files: usize,
    /// `(pfs_path, mtime, size)` of every mapped source file, for
    /// job-launch revalidation (empty for HDFS inputs).
    pub sources: Vec<(String, u64, u64)>,
    /// The job's shared decompressed-chunk cache (PFS inputs only) — the
    /// workflow reads its quarantine count into the job counters.
    pub chunk_cache: Option<std::sync::Arc<scifmt::snc::ChunkCache>>,
    /// Serialized zone-map bytes across the mapped variables — the header
    /// metadata a pushdown scan reads in exchange for the chunks it skips.
    pub zone_map_bytes: u64,
    /// Levels covered by the scientific slabs, summed over the slabs (the
    /// first extent of each): the images an img-only job plots.
    pub levels: u64,
}

/// Build input splits for a [`ScidpInput`] — the `addInputPath` hook.
///
/// PFS-prefixed paths run the File Explorer + Data Mapper and produce
/// PFS-reader splits; other paths enumerate HDFS blocks exactly like the
/// stock `FileInputFormat` ("if a match cannot be found, SciDP will behave
/// as the original Hadoop").
pub fn make_splits(
    env: &MrEnv,
    input: &ScidpInput,
) -> Result<(Vec<InputSplit>, SetupInfo), ScidpError> {
    if let Some(dir) = parse_pfs_path(&input.path) {
        let report = {
            let pfs = env.pfs.borrow();
            FileExplorer::scan(&pfs, dir)?
        };
        let opts = MapperOptions {
            variables: input.variables.clone(),
            chunk_split: input.chunk_split,
            align_to_chunks: input.align_to_chunks,
            flat_block_size: input.flat_block_size,
            ..MapperOptions::default()
        };
        let mapping = {
            let mut h = env.hdfs.borrow_mut();
            DataMapper::map_to_hdfs(&mut h.namenode, &report, &opts)?
        };
        // One decompressed-chunk cache shared by every fetcher of this job
        // (keys are content-unique per file, so one pool serves them all).
        let cache = std::sync::Arc::new(scifmt::snc::ChunkCache::new(input.cache_bytes));
        let plan = input.pushdown.clone().map(std::sync::Arc::new);
        // One placement per job, applied to every scientific fetcher.
        let PlacementSpec::Fixed(placement) = input.placement;
        let cluster_admit = placement == Placement::Cached;
        let (mut zone_map_bytes, mut levels) = (0u64, 0u64);
        let mut zone_seen: std::collections::HashSet<(String, String)> =
            std::collections::HashSet::new();
        let mut splits = Vec::with_capacity(mapping.blocks.len());
        for b in &mapping.blocks {
            let fetcher: Rc<dyn mapreduce::SplitFetcher> = match (&b.descriptor, &b.var) {
                (
                    hdfs::VirtualBlock::SciSlab {
                        pfs_path,
                        start,
                        count,
                        ..
                    },
                    Some((var, off)),
                ) => {
                    if let Some(pred) = &plan {
                        // A predicate naming a column the variable cannot
                        // produce is a caller error, not an empty result:
                        // report it before the job runs.
                        for col in pred.columns() {
                            let known = col == "value" || var.dims.iter().any(|d| d.name == col);
                            if !known {
                                return Err(ScidpError::PushdownColumn {
                                    column: col.to_string(),
                                    variable: var.name.clone(),
                                });
                            }
                        }
                    }
                    if zone_seen.insert((pfs_path.clone(), var.name.clone())) {
                        zone_map_bytes += var.zone_map_wire_bytes();
                    }
                    levels += count.first().map_or(0, |&n| n as u64);
                    Rc::new(SciSlabFetcher {
                        pfs_path: pfs_path.clone(),
                        var: var.clone(),
                        data_offset: *off,
                        start: start.clone(),
                        count: count.clone(),
                        cache: cache.clone(),
                        pushdown: plan.clone(),
                        cluster_admit,
                    })
                }
                (
                    hdfs::VirtualBlock::FlatRange {
                        pfs_path,
                        offset,
                        len,
                    },
                    _,
                ) => Rc::new(FlatPfsFetcher {
                    pfs_path: pfs_path.clone(),
                    offset: *offset,
                    len: *len,
                    sequential_chunks: 1,
                }),
                // The Data Mapper emits SciSlab entries with var metadata
                // and FlatRange entries without; anything else means the
                // mapping table was built by a different code path.
                other => {
                    return Err(ScidpError::Hdfs(format!(
                        "inconsistent mapping entry: {other:?}"
                    )))
                }
            };
            splits.push(InputSplit {
                length: b.len,
                locations: Vec::new(), // dummy blocks carry no locations
                fetcher,
            });
        }
        let cost = simnet::CostModel::default();
        Ok((
            splits,
            SetupInfo {
                setup_cost: report.setup_cost(&cost),
                mapped_bytes: mapping.mapped_bytes,
                skipped_bytes: mapping.skipped_bytes,
                virtual_files: mapping.virtual_files.len(),
                sources: mapping.sources,
                chunk_cache: Some(cache),
                zone_map_bytes,
                levels,
            },
        ))
    } else {
        // Vanilla path: every file under the HDFS directory. A path that
        // resolves on neither the PFS nor HDFS is the caller's mistake,
        // reported as such rather than a generic namespace error.
        let files = env
            .hdfs
            .borrow()
            .namenode
            .list_files_recursive(&input.path)
            .map_err(|e| match e {
                hdfs::NsError::NotFound(_) => ScidpError::BadInputPath(input.path.clone()),
                other => ScidpError::Hdfs(other.to_string()),
            })?;
        let mut splits = Vec::new();
        for f in files {
            splits.extend(
                hdfs_file_splits(env, &f.path).map_err(|e| ScidpError::Hdfs(e.to_string()))?,
            );
        }
        Ok((splits, SetupInfo::default()))
    }
}

/// Encode slab metadata into the split tag [`decode_tag`] parses — what
/// a [`SciSlabFetcher`]'s result carries so the R layer can reconstruct
/// keys. Public so baselines delivering identical slabs (SciHadoop) can
/// produce compatible tags.
pub fn encode_slab_tag(file: &str, var: &str, dims: &[String], origin: &[usize]) -> String {
    let origin: Vec<String> = origin.iter().map(|s| s.to_string()).collect();
    format!(
        "{}\u{1}{}\u{1}{}\u{1}{}",
        file,
        var,
        dims.join(","),
        origin.join(",")
    )
}

/// Parse a tag produced by a slab fetcher.
pub fn decode_tag(tag: &str) -> Option<(String, String, Vec<String>, Vec<usize>)> {
    let mut it = tag.split('\u{1}');
    let file = it.next()?.to_string();
    let var = it.next()?.to_string();
    let dims: Vec<String> = it.next()?.split(',').map(str::to_string).collect();
    let origin: Vec<usize> = it
        .next()?
        .split(',')
        .map(|s| s.parse().ok())
        .collect::<Option<_>>()?;
    Some((file, var, dims, origin))
}

/// What the R map function receives: the slab as a typed array plus the
/// coordinate data frame SciDP prepares ("multi-dimensional array will be
/// prepared as R data frame").
#[derive(Debug, Clone)]
pub struct MapSlab {
    /// PFS file the slab came from.
    pub file: String,
    /// Variable name.
    pub var: String,
    /// Dimension names (e.g. `["lev", "lat", "lon"]`).
    pub dims: Vec<String>,
    /// Global element origin of the slab.
    pub origin: Vec<usize>,
    /// The slab itself.
    pub array: Array,
    /// Coordinate + value frame, built on the first [`MapSlab::frame`].
    frame: OnceCell<DataFrame>,
}

impl MapSlab {
    /// Coordinate + value frame (columns: one per dim, plus `value`),
    /// built by [`slab_to_frame`] on the first call — a map that only
    /// plots never pays for it — and the same frame on every later call.
    pub fn frame(&self) -> Result<&DataFrame, MrError> {
        if let Some(frame) = self.frame.get() {
            return Ok(frame);
        }
        let frame = slab_to_frame(&self.dims, &self.origin, &self.array)?;
        Ok(self.frame.get_or_init(|| frame))
    }
}

/// R-side execution context: plotting and SQL with proper cost charging.
pub struct RCtx<'a> {
    pub(crate) inner: &'a mut TaskCtx,
    /// Logical output image size (the paper renders 1200x1200).
    pub logical_image: (u64, u64),
    /// Real raster size (scaled with the dataset).
    pub raster: (u32, u32),
    /// Logical rows per real row (the dataset's spatial scale factor).
    pub scale: f64,
}

impl<'a> RCtx<'a> {
    /// Wrap an engine task context for R-side execution (used by SciDP
    /// itself and by baselines that reuse the same R program).
    pub fn new(
        inner: &'a mut TaskCtx,
        logical_image: (u64, u64),
        raster: (u32, u32),
        scale: f64,
    ) -> RCtx<'a> {
        RCtx {
            inner,
            logical_image,
            raster,
            scale,
        }
    }

    /// Plot every level of `array` (its first dimension; each level a
    /// row-major `rows x cols` grid) with `image2D` on the Cairo device and
    /// emit each PNG under `key(level)` for the reduce side (`rhdfs` store),
    /// charging the paper-sized render of each level. Charges and emits run
    /// on the task's thread in level order; the levels are rendered (gather,
    /// `image2d`, PNG) one per worker when the slab is large enough
    /// ([`plot_workers`]), so the charges, emits and bytes do not depend on
    /// the worker count. A level that cannot be plotted fails the task with
    /// its typed `image2d:` error after the charges and emits of the levels
    /// before it.
    pub fn plot_levels(
        &mut self,
        array: &Array,
        rows: usize,
        cols: usize,
        cmap: ColorMap,
        key: impl Fn(usize) -> String,
    ) -> Result<(), MrError> {
        let threads = scifmt::par::default_threads();
        self.plot_levels_on(array, rows, cols, cmap, key, threads)
    }

    /// [`RCtx::plot_levels`] on up to `threads` workers.
    fn plot_levels_on(
        &mut self,
        array: &Array,
        rows: usize,
        cols: usize,
        cmap: ColorMap,
        key: impl Fn(usize) -> String,
        threads: usize,
    ) -> Result<(), MrError> {
        let levels = array.shape().first().copied().unwrap_or(0);
        let level: usize = array.shape().iter().skip(1).product();
        let (width, height) = self.raster;
        let workers = plot_workers(levels, width, height, threads);
        let pngs = scifmt::par::par_map_indexed(levels, workers, 2, |l| {
            let mut grid = Vec::with_capacity(level);
            array.for_each_f64(l * level..(l + 1) * level, |v| grid.push(v));
            image2d(&grid, rows, cols, width, height, cmap).map(|r| r.to_png())
        });
        for (l, png) in pngs.into_iter().enumerate() {
            let png = png.map_err(image2d_error)?;
            self.charge_plot();
            self.inner.emit(key(l), Payload::Bytes(png));
        }
        Ok(())
    }

    /// The virtual charge of one paper-sized render.
    fn charge_plot(&mut self) {
        let pixels = self.logical_image.0 * self.logical_image.1;
        self.inner.charge("plot", self.inner.cost().plot(pixels));
    }

    /// Run a `sqldf` query against frames, charging per logical row.
    pub fn sqldf(
        &mut self,
        query: &str,
        env: &std::collections::HashMap<&str, &DataFrame>,
    ) -> Result<DataFrame, MrError> {
        let rows: usize = env.values().map(|f| f.n_rows()).sum();
        let logical_rows = (rows as f64 * self.scale) as u64;
        self.inner
            .charge("analysis", self.inner.cost().sql(logical_rows));
        rframe::sqldf(query, env).map_err(|e| MrError::msg(e.to_string()))
    }

    /// Emit a data frame.
    pub fn emit_frame(&mut self, key: impl Into<String>, frame: DataFrame) {
        self.inner.emit(key, Payload::Frame(frame));
    }

    /// Extra compute charge (e.g. bespoke numeric analysis).
    pub fn charge(&mut self, phase: &'static str, secs: f64) {
        self.inner.charge(phase, secs);
    }

    pub fn cost(&self) -> &simnet::CostModel {
        self.inner.cost()
    }
}

/// A task failed by a grid that cannot be plotted.
fn image2d_error(e: rframe::FrameError) -> MrError {
    MrError::msg(format!("image2d: {e}"))
}

/// Slabs with fewer pixels than this over all their levels render inline.
/// A `scifmt::par` call costs 65–100 µs in thread spawns on a 2-vCPU host
/// and a pixel about 45 ns, so at 2^16 pixels (≈ 3 ms of work) the spawns
/// cost at most ~3 %. A `nuwrf_img` slab (10 × 123² = 151 290 pixels)
/// clears it; a `small_tasks` slab (10 × 15² = 2 250) does not, and
/// spawning for those made that workload 1.5–2× slower.
const PARALLEL_PLOT_PIXELS: u64 = 1 << 16;

/// Workers that render `levels` images of `width x height`: `threads`
/// when their pixels reach [`PARALLEL_PLOT_PIXELS`], else 1 (inline).
/// `par_map_indexed` runs a single level inline and never starts more
/// workers than there are levels.
fn plot_workers(levels: usize, width: u32, height: u32, threads: usize) -> usize {
    let pixels = u64::try_from(levels)
        .unwrap_or(u64::MAX)
        .saturating_mul(u64::from(width))
        .saturating_mul(u64::from(height));
    if pixels >= PARALLEL_PLOT_PIXELS {
        threads
    } else {
        1
    }
}

/// R map closure.
pub type RMapFn = Rc<dyn Fn(&MapSlab, &mut RCtx) -> Result<(), MrError>>;
/// R reduce closure (one key group).
pub type RReduceFn = Rc<dyn Fn(&str, Vec<Payload>, &mut RCtx) -> Result<(), MrError>>;

/// An R-level SciDP job (the `rmr2::mapreduce(input=..., map=..., reduce=...)`
/// call of §IV-E).
#[derive(Clone)]
pub struct RJob {
    pub name: String,
    pub input: ScidpInput,
    pub map: RMapFn,
    pub reduce: Option<RReduceFn>,
    pub n_reducers: usize,
    pub output_dir: String,
    /// Logical image size for plot charges.
    pub logical_image: (u64, u64),
    /// Real raster size; `(0, 0)` derives it from the dataset scale so
    /// real PNG bytes and logical image bytes stay proportional.
    pub raster: (u32, u32),
    /// Intra-task read/compute overlap policy forwarded to the engine job.
    pub stream: mapreduce::StreamConfig,
}

/// Check that a slab's tag fits its array: one dim name and one origin
/// entry per array dimension, and dim names that can all be frame columns
/// beside `value` (no duplicates, none named `value`).
fn check_slab_tag(dims: &[String], origin: &[usize], array: &Array) -> Result<(), MrError> {
    let rank = array.rank();
    if dims.len() != rank || origin.len() != rank {
        return Err(MrError::msg(format!(
            "slab tag has {} dims and {} origin entries for a rank-{rank} array",
            dims.len(),
            origin.len()
        )));
    }
    for (k, name) in dims.iter().enumerate() {
        if name == "value" || dims.iter().take(k).any(|d| d == name) {
            return Err(MrError::msg(format!(
                "slab frame column {name:?}: collides with another column"
            )));
        }
    }
    Ok(())
}

/// Build the slab's coordinate data frame (really, with real columns):
/// one `i64` column per dim holding each element's global coordinate, in
/// row-major order, then the `value` column.
///
/// Fails when `dims` or `origin` does not have one entry per array
/// dimension, or when the dim names collide (duplicate dims, or a dim
/// literally named `value`).
pub fn slab_to_frame(
    dims: &[String],
    origin: &[usize],
    array: &Array,
) -> Result<DataFrame, MrError> {
    check_slab_tag(dims, origin, array)?;
    let shape = array.shape();
    let n = array.len();
    let mut df = DataFrame::new();
    for (k, ((name, &o), &extent)) in dims.iter().zip(origin).zip(shape).enumerate() {
        // Row-major: coordinate `o + c` repeats once per element of the
        // inner dims, and that pattern once per element of the outer ones.
        let mut col = Vec::with_capacity(n);
        if n > 0 {
            let inner: usize = shape.iter().skip(k + 1).product();
            let outer: usize = shape.iter().take(k).product();
            for c in 0..extent {
                col.extend(std::iter::repeat_n((o + c) as i64, inner));
            }
            let pattern = col.len();
            for _ in 1..outer {
                col.extend_from_within(..pattern);
            }
        }
        df = df
            .with_column(name.clone(), Column::I64(col))
            .map_err(|e| MrError::msg(format!("slab frame column {name:?}: {e}")))?;
    }
    let mut values = Vec::with_capacity(n);
    array.for_each_f64(0..n, |v| values.push(v));
    df.with_column("value", Column::F64(values))
        .map_err(|e| MrError::msg(format!("slab frame value column: {e}")))
}

/// Real raster size derived from the dataset scale so that real PNG bytes
/// and logical image bytes stay proportional.
pub fn derived_raster(logical_image: (u64, u64), scale: f64) -> (u32, u32) {
    let w = ((logical_image.0 as f64 / scale.sqrt()).round() as u32).max(8);
    let h = ((logical_image.1 as f64 / scale.sqrt()).round() as u32).max(8);
    (w, h)
}

/// Wrap an R map function into an engine map function: decode and check
/// the slab tag, charge the binary→frame conversion, run the user code
/// under an [`RCtx`] with the coordinate frame built on first use. Reused
/// by the SciHadoop baseline, whose tasks receive identical slabs (staged
/// on HDFS instead of the PFS).
pub fn wrap_r_map(
    user_map: RMapFn,
    logical_image: (u64, u64),
    raster: (u32, u32),
    scale: f64,
) -> MapFn {
    Rc::new(move |input, ctx| {
        let TaskInput::Array(array) = input else {
            return Err(MrError::msg(
                "SciDP R job expects scientific slabs; flat inputs need a bytes map",
            ));
        };
        let (file, var, dims, origin) =
            decode_tag(ctx.input_tag()).ok_or_else(|| MrError::msg("missing slab tag"))?;
        // Convert binary slab into the R data frame ("Convert" in
        // Fig. 7 — cheap for SciDP because the data is already binary).
        // R always pays it; the frame itself is built when first read.
        let raw = array.len() * array.dtype().size();
        ctx.charge("convert", ctx.cost().binary_convert(raw));
        // A malformed tag fails the task here, before user code runs.
        check_slab_tag(&dims, &origin, &array)?;
        let slab = MapSlab {
            file,
            var,
            dims,
            origin,
            array,
            frame: OnceCell::new(),
        };
        let mut rctx = RCtx {
            inner: ctx,
            logical_image,
            raster,
            scale,
        };
        (user_map)(&slab, &mut rctx)
    })
}

/// Wrap an R reduce function into an engine reduce function.
pub fn wrap_r_reduce(
    user_reduce: RReduceFn,
    logical_image: (u64, u64),
    raster: (u32, u32),
    scale: f64,
) -> mapreduce::ReduceFn {
    Rc::new(move |key, values, ctx| {
        let mut rctx = RCtx {
            inner: ctx,
            logical_image,
            raster,
            scale,
        };
        (user_reduce)(key, values, &mut rctx)
    })
}

impl RJob {
    /// Lower to an engine [`Job`] plus setup info. `scale` is the
    /// dataset's logical/real factor (from `sim.cost.scale`).
    pub fn into_job(self, env: &MrEnv, scale: f64) -> Result<(Job, SetupInfo), ScidpError> {
        let (splits, setup) = make_splits(env, &self.input)?;
        let logical_image = self.logical_image;
        let raster = if self.raster == (0, 0) {
            derived_raster(logical_image, scale)
        } else {
            self.raster
        };
        let map_fn = wrap_r_map(self.map.clone(), logical_image, raster, scale);
        let reduce_fn = self
            .reduce
            .clone()
            .map(|r| wrap_r_reduce(r, logical_image, raster, scale));
        Ok((
            Job {
                stream: self.stream,
                ..Job::new(
                    self.name,
                    splits,
                    map_fn,
                    reduce_fn,
                    self.n_reducers,
                    self.output_dir,
                )
            },
            setup,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        let dims = ["lev".to_string(), "lat".to_string()];
        let tag = encode_slab_tag("run/f.snc", "QR", &dims, &[2, 0]);
        let (file, var, dims, origin) = decode_tag(&tag).unwrap();
        assert_eq!(file, "run/f.snc");
        assert_eq!(var, "QR");
        assert_eq!(dims, vec!["lev", "lat"]);
        assert_eq!(origin, vec![2, 0]);
        assert!(decode_tag("garbage").is_none());
    }

    #[test]
    fn slab_frame_has_global_coordinates() {
        let a = Array::from_f32(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let df = slab_to_frame(&["lev".to_string(), "lon".to_string()], &[10, 20], &a).unwrap();
        assert_eq!(df.n_rows(), 6);
        assert_eq!(
            df.names(),
            &["lev".to_string(), "lon".into(), "value".into()]
        );
        // Row 0: global coords (10, 20), value 1.0.
        assert_eq!(df.column("lev").unwrap().value(0), rframe::Value::I64(10));
        assert_eq!(df.column("lon").unwrap().value(5), rframe::Value::I64(22));
        assert_eq!(df.f64_column("value").unwrap()[4], 5.0);
    }

    /// `slab_to_frame` as it was before the columns were filled as
    /// patterns: a per-element odometer and a per-element `get_f64` — the
    /// reference the differential test compares against.
    fn slab_to_frame_reference(dims: &[String], origin: &[usize], array: &Array) -> DataFrame {
        let shape = array.shape().to_vec();
        let n = array.len();
        let rank = shape.len();
        let mut coord_cols: Vec<Vec<i64>> = vec![Vec::with_capacity(n); rank];
        let mut coords = vec![0usize; rank];
        let mut values = Vec::with_capacity(n);
        for i in 0..n {
            for ((col, &c), &o) in coord_cols.iter_mut().zip(&coords).zip(origin) {
                col.push((o + c) as i64);
            }
            values.push(array.get_f64(i));
            for (c, &s) in coords.iter_mut().zip(&shape).rev() {
                *c += 1;
                if *c < s {
                    break;
                }
                *c = 0;
            }
        }
        let mut df = DataFrame::new();
        for (name, col) in dims.iter().zip(coord_cols) {
            df = df.with_column(name.clone(), Column::I64(col)).unwrap();
        }
        df.with_column("value", Column::F64(values)).unwrap()
    }

    #[test]
    fn slab_frame_matches_the_reference() {
        use scifmt::ArrayData;
        let mut rng = scirng::Rng::seed_from_u64(0x51ab);
        let shapes: [&[usize]; 9] = [
            &[1],
            &[7],
            &[3, 5],
            &[1, 1, 1],
            &[2, 3, 4],
            &[4, 1, 6],
            &[2, 3, 1, 5],
            &[3, 0, 4],
            &[0],
        ];
        for shape in shapes {
            let n: usize = shape.iter().product();
            let dims: Vec<String> = (0..shape.len()).map(|k| format!("d{k}")).collect();
            let origin: Vec<usize> = shape.iter().map(|_| rng.below(1000)).collect();
            let data = [
                ArrayData::F32((0..n).map(|_| rng.range_f32(-9.0, 9.0)).collect()),
                ArrayData::F64((0..n).map(|_| rng.range_f64(-9.0, 9.0)).collect()),
                ArrayData::I32((0..n).map(|_| rng.next_u32() as i32).collect()),
                ArrayData::I64((0..n).map(|_| rng.next_u64() as i64).collect()),
                ArrayData::U8((0..n).map(|_| rng.next_u32() as u8).collect()),
            ];
            for data in data {
                let array = Array::new(shape.to_vec(), data).unwrap();
                let got = slab_to_frame(&dims, &origin, &array).unwrap();
                let want = slab_to_frame_reference(&dims, &origin, &array);
                assert_eq!(got, want, "shape {shape:?} dtype {:?}", array.dtype());
            }
        }
    }

    #[test]
    fn slab_frame_rejects_mismatched_tags() {
        let a = Array::from_f32(vec![2, 3], vec![0.0; 6]).unwrap();
        let dims = ["lev".to_string(), "lon".to_string()];
        assert!(slab_to_frame(&dims, &[0], &a).is_err(), "origin short");
        assert!(
            slab_to_frame(&dims[..1], &[0, 0], &a).is_err(),
            "dims short"
        );
        let dup = ["lev".to_string(), "lev".to_string()];
        assert!(slab_to_frame(&dup, &[0, 0], &a).is_err(), "duplicate dim");
        let value = ["lev".to_string(), "value".to_string()];
        assert!(
            slab_to_frame(&value, &[0, 0], &a).is_err(),
            "dim named value"
        );
    }

    /// Run `wrap_r_map` on one slab with `tag`, with a user map that
    /// records whether it ran.
    fn run_wrapped(tag: &str, array: Array) -> (Result<(), MrError>, bool) {
        let ran = Rc::new(std::cell::Cell::new(false));
        let seen = ran.clone();
        let user: RMapFn = Rc::new(move |_slab, _rctx| {
            seen.set(true);
            Ok(())
        });
        let map = wrap_r_map(user, (8, 8), (8, 8), 1.0);
        let mut ctx = TaskCtx::standalone(simnet::CostModel::default());
        ctx.set_tag(tag);
        (map(TaskInput::Array(array), &mut ctx), ran.get())
    }

    #[test]
    fn malformed_tag_fails_before_user_code() {
        let a = || Array::from_f32(vec![2, 3], vec![0.0; 6]).unwrap();
        let dims = ["lev".to_string(), "lon".to_string()];
        // Origin shorter than the rank: a typed error, user code never runs.
        let (res, ran) = run_wrapped(&encode_slab_tag("f.snc", "QR", &dims, &[4]), a());
        assert!(res.is_err(), "short origin must fail the task");
        assert!(!ran, "user map must not run on a malformed tag");
        // A well-formed tag runs it.
        let (res, ran) = run_wrapped(&encode_slab_tag("f.snc", "QR", &dims, &[4, 0]), a());
        assert!(res.is_ok() && ran);
    }

    #[test]
    fn frame_is_built_once() {
        let dims = vec!["lev".to_string(), "lon".to_string()];
        let array = Array::from_f32(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let slab = MapSlab {
            file: "f.snc".into(),
            var: "QR".into(),
            origin: vec![10, 20],
            frame: OnceCell::new(),
            dims,
            array,
        };
        let first: *const DataFrame = slab.frame().unwrap();
        let second: *const DataFrame = slab.frame().unwrap();
        assert_eq!(first, second, "the second call returns the same frame");
        assert_eq!(
            slab.frame().unwrap(),
            &slab_to_frame(&slab.dims, &slab.origin, &slab.array).unwrap()
        );
    }

    /// The per-level plotting `nuwrf_map_fn` and the text baselines did
    /// before [`RCtx::plot_levels`], kept as its reference.
    impl RCtx<'_> {
        /// Plot one level: real raster and a virtual charge for the
        /// paper-sized render; a grid that does not match its data fails
        /// the task typed.
        fn image2d(
            &mut self,
            grid: &[f64],
            rows: usize,
            cols: usize,
            cmap: ColorMap,
        ) -> Result<rframe::Raster, MrError> {
            let (width, height) = self.raster;
            let r = image2d(grid, rows, cols, width, height, cmap).map_err(image2d_error)?;
            self.charge_plot();
            Ok(r)
        }

        /// Emit an image keyed for the reduce side.
        fn emit_image(&mut self, key: impl Into<String>, raster: &rframe::Raster) {
            self.inner.emit(key, Payload::Bytes(raster.to_png()));
        }
    }

    /// The per-level loop: gather, plot and charge, emit — one level at a
    /// time.
    fn plot_levels_reference(
        rctx: &mut RCtx<'_>,
        array: &Array,
        rows: usize,
        cols: usize,
        cmap: ColorMap,
        key: impl Fn(usize) -> String,
    ) -> Result<(), MrError> {
        let level = rows * cols;
        for l in 0..array.shape()[0] {
            let mut grid = Vec::with_capacity(level);
            array.for_each_f64(l * level..(l + 1) * level, |v| grid.push(v));
            let raster = rctx.image2d(&grid, rows, cols, cmap)?;
            rctx.emit_image(key(l), &raster);
        }
        Ok(())
    }

    /// What one plotting call leaves behind: its result, the emitted
    /// `(key, PNG)` pairs in emit order and the task's charged seconds.
    type Plotted = (Result<(), MrError>, Vec<(String, Vec<u8>)>, f64);

    /// Run `plot` in a fresh task whose one render costs 0.1 s: ten such
    /// charges sum to 0.9999999999999999 s, one charge of ten renders to
    /// 1.0 s, so the total tells one charge per level from one per slab.
    fn plot_in_task(
        raster: (u32, u32),
        plot: impl FnOnce(&mut RCtx<'_>) -> Result<(), MrError>,
    ) -> Plotted {
        let cost = simnet::CostModel {
            plot_per_pixel: 0.1,
            ..simnet::CostModel::default()
        };
        let mut ctx = TaskCtx::standalone(cost);
        let res = plot(&mut RCtx::new(&mut ctx, (1, 1), raster, 1.0));
        let emitted = ctx
            .take_emitted()
            .into_iter()
            .map(|(k, v)| match v {
                Payload::Bytes(b) => (k, b),
                Payload::Frame(_) => panic!("{k}: a plot emits bytes"),
            })
            .collect();
        (res, emitted, ctx.total_charge_s())
    }

    fn level_key(l: usize) -> String {
        format!("img/f.snc/QR/{:04}", 7 + l)
    }

    /// A `levels x rows x cols` slab: smooth ramps, level 1 all NaN (it
    /// renders fastest, so at two workers it finishes before level 0),
    /// level 2 constant, scattered NaN and ±∞ elsewhere.
    fn test_slab(levels: usize, rows: usize, cols: usize) -> Array {
        let mut rng = scirng::Rng::seed_from_u64(0x91e7 + levels as u64);
        let data = (0..levels * rows * cols)
            .map(|i| {
                let (l, cell) = (i / (rows * cols), i % (rows * cols));
                match (l, rng.below(97)) {
                    (1, _) => f64::NAN,
                    (2, _) => 4.5,
                    (_, 0) => f64::NAN,
                    (_, 1) => f64::INFINITY,
                    _ => (cell as f64 * 0.013 + l as f64).sin() * 40.0 + rng.range_f64(-1.0, 1.0),
                }
            })
            .collect();
        Array::new(vec![levels, rows, cols], scifmt::ArrayData::F64(data)).unwrap()
    }

    #[test]
    fn plot_levels_matches_the_per_level_loop() {
        // (levels, grid, raster): below the gate, and above it at every
        // level count that can go parallel (the nuwrf_img slab included).
        let cases: [(usize, usize, (u32, u32)); 7] = [
            (1, 9, (16, 12)),
            (3, 9, (16, 12)),
            (10, 15, (15, 15)),
            (1, 40, (300, 300)),
            (2, 40, (190, 180)),
            (3, 33, (150, 150)),
            (10, 128, (123, 123)),
        ];
        for (levels, grid, raster) in cases {
            let array = test_slab(levels, grid, grid);
            let cmap = ColorMap::Jet;
            let want = plot_in_task(raster, |rctx| {
                plot_levels_reference(rctx, &array, grid, grid, cmap, level_key)
            });
            assert_eq!(want.0, Ok(()));
            assert_eq!(want.1.len(), levels);
            for threads in [1, 2] {
                let workers = plot_workers(levels, raster.0, raster.1, threads);
                let above = raster.0 * raster.1 * levels as u32 >= 1 << 16;
                assert_eq!(workers > 1, threads > 1 && above, "{levels} x {raster:?}");
                // `par_map_indexed` runs a single level inline.
                let parallel = workers > 1 && levels > 1;
                // A parallel run repeats: the order must not be luck.
                for _ in 0..if parallel { 4 } else { 1 } {
                    let got = plot_in_task(raster, |rctx| {
                        rctx.plot_levels_on(&array, grid, grid, cmap, level_key, threads)
                    });
                    let case = format!("{levels} levels {grid}² -> {raster:?}, {threads} threads");
                    assert_eq!(got.0, want.0, "{case}: result");
                    let keys = |p: &Plotted| p.1.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
                    assert_eq!(keys(&got), keys(&want), "{case}: emit order");
                    assert!(got.1 == want.1, "{case}: PNG bytes");
                    assert_eq!(got.2.to_bits(), want.2.to_bits(), "{case}: plot seconds");
                }
            }
        }
    }

    #[test]
    fn a_level_that_cannot_be_plotted_fails_typed_and_emits_nothing() {
        // 10 levels of 12x12 plotted as 12x13 grids, above the gate.
        let array = test_slab(10, 12, 12);
        let level0: Vec<f64> = (0..144).map(|i| array.get_f64(i)).collect();
        let want = plot_in_task((123, 123), |rctx| {
            rctx.image2d(&level0, 12, 13, ColorMap::Jet).map(|_| ())
        });
        assert!(want
            .0
            .as_ref()
            .is_err_and(|e| e.message().starts_with("image2d: ")));
        for threads in [1, 2] {
            let got = plot_in_task((123, 123), |rctx| {
                rctx.plot_levels_on(&array, 12, 13, ColorMap::Jet, level_key, threads)
            });
            assert_eq!(got.0, want.0, "{threads} threads");
            assert!(got.1.is_empty(), "{threads} threads: nothing emitted");
            assert_eq!(got.2, 0.0, "{threads} threads: nothing charged");
        }
    }

    #[test]
    fn slabs_go_parallel_by_their_size() {
        // small_tasks: 10 levels of 15² pixels run inline.
        assert_eq!(plot_workers(10, 15, 15, 2), 1);
        // nuwrf_img: 10 levels of 123² pixels, on every thread.
        assert_eq!(plot_workers(10, 123, 123, 2), 2);
        // The gate is over all levels' pixels: 2 x 181² < 2^16 <= 2 x 256 x 128.
        assert_eq!(plot_workers(2, 181, 181, 2), 1);
        assert_eq!(plot_workers(2, 256, 128, 2), 2);
        // One thread runs inline whatever the size.
        assert_eq!(plot_workers(10, 123, 123, 1), 1);
        // The pixel count saturates instead of wrapping below the gate.
        assert_eq!(plot_workers(usize::MAX, u32::MAX, u32::MAX, 4), 4);
    }

    #[test]
    fn input_builder() {
        let i = ScidpInput::path("lustre://run").vars(["QR"]).chunk_split(3);
        assert_eq!(i.variables, Some(vec!["QR".to_string()]));
        assert_eq!(i.chunk_split, 3);
        assert!(parse_pfs_path(&i.path).is_some());
    }
}
