//! The NU-WRF workflows of §IV–V: image plotting (Img-only) and integrated
//! analysis (Anlys), expressed as [`RJob`]s over SciDP input.
//!
//! * **Img-only** — every map task receives a slab of the selected
//!   variable, plots each vertical level with `image2d`, and emits the PNG
//!   keyed by `(file, var, level)`; reducers collect and store the frames
//!   on HDFS (the animation's images).
//! * **Anlys** — additionally runs SQL over the task's data frame
//!   (`highlight`: global top-k points; `top 1%`: threshold selection whose
//!   result is stored on HDFS), reusing the already-read data — the paper's
//!   "no extra data read" property holds by construction.

use std::collections::HashMap;
use std::rc::Rc;

use mapreduce::{run_job, submit_job_env, Cluster, JobResult, MrError, Payload, TaskInput};
use rframe::{ColorMap, DataFrame};

use crate::error::ScidpError;
use crate::rapi::{
    decode_tag, make_splits, slab_to_frame, Placement, PlacementSpec, RCtx, RJob, ScidpInput,
};
use crate::stats::level_stats;

/// In-map analysis (Fig. 9's x-axis cases).
#[derive(Clone, Debug, PartialEq)]
pub enum Analysis {
    /// Img-only: no analysis.
    None,
    /// Highlight the global top-`k` data points.
    Highlight { k: usize },
    /// Select and store the top `pct` percent of data points.
    TopPercent { pct: f64 },
}

/// Workflow parameters.
#[derive(Clone, Debug)]
pub struct WorkflowConfig {
    /// Variables to process (paper: `["QR"]`).
    pub variables: Vec<String>,
    pub analysis: Analysis,
    pub n_reducers: usize,
    /// Logical plot resolution (paper default 1200x1200).
    pub logical_image: (u64, u64),
    /// Real raster; `(0,0)` = derive from dataset scale.
    pub raster: (u32, u32),
    pub colormap: ColorMap,
    pub chunk_split: usize,
    pub align_to_chunks: bool,
    /// Block size for the misaligned-mapping ablation and flat files
    /// (real bytes).
    pub flat_block_size: usize,
    pub output_dir: String,
    /// Capacity of the job's shared decompressed-chunk cache (bytes; 0
    /// disables caching). Recorded in the job counters as
    /// `chunk_cache_capacity_bytes`.
    pub cache_bytes: usize,
    /// Per-node capacity of the *cluster* chunk-cache tier (bytes; 0
    /// leaves the tier off). Enabled on the cluster at run time; entries
    /// survive this job and warm every later job on the same cluster.
    pub cluster_cache_bytes: u64,
    /// The input dataset's placement (cluster-cache admission).
    pub placement: PlacementSpec,
    /// Intra-task read/compute overlap policy.
    pub stream: mapreduce::StreamConfig,
}

impl WorkflowConfig {
    /// Img-only workload over the given variables.
    pub fn img_only<S: Into<String>>(vars: impl IntoIterator<Item = S>) -> WorkflowConfig {
        WorkflowConfig {
            variables: vars.into_iter().map(Into::into).collect(),
            analysis: Analysis::None,
            n_reducers: 8,
            logical_image: (1200, 1200),
            raster: (0, 0),
            colormap: ColorMap::Jet,
            chunk_split: 1,
            align_to_chunks: true,
            flat_block_size: 128 << 20,
            output_dir: "scidp_out".into(),
            cache_bytes: scifmt::snc::DEFAULT_CACHE_BYTES,
            cluster_cache_bytes: 0,
            placement: PlacementSpec::Fixed(Placement::PfsDirect),
            stream: mapreduce::StreamConfig::default(),
        }
    }

    /// Anlys workload (plotting + animation keys + analysis).
    pub fn anlys<S: Into<String>>(
        vars: impl IntoIterator<Item = S>,
        analysis: Analysis,
    ) -> WorkflowConfig {
        WorkflowConfig {
            analysis,
            ..WorkflowConfig::img_only(vars)
        }
    }
}

/// Workflow outcome.
#[derive(Clone, Debug)]
pub struct WorkflowReport {
    pub job: JobResult,
    /// Images plotted (one per level per slab).
    pub images: u64,
    /// Virtual seconds spent building the mapping table.
    pub setup_cost: f64,
    /// Real bytes skipped thanks to variable subsetting.
    pub skipped_bytes: u64,
}

impl WorkflowReport {
    /// Total workflow time (setup + job).
    pub fn total_time(&self) -> f64 {
        self.setup_cost + self.job.elapsed()
    }
}

/// The NU-WRF R map function: plot every level, then run the configured
/// in-map analysis. Shared by SciDP and by the SciHadoop baseline (which
/// runs the same R program over HDFS-staged data).
pub fn nuwrf_map_fn(cfg: &WorkflowConfig) -> crate::rapi::RMapFn {
    let analysis = cfg.analysis.clone();
    let cmap = cfg.colormap;
    {
        let analysis = analysis.clone();
        Rc::new(
            move |slab: &crate::MapSlab, rctx: &mut RCtx<'_>| -> Result<(), MrError> {
                let shape = slab.array.shape().to_vec();
                let (rows, cols) = match shape.as_slice() {
                    &[_, r, c] => (r, c),
                    _ => {
                        return Err(MrError::msg(format!(
                            "NU-WRF workflow expects 3-D slabs, got {shape:?}"
                        )))
                    }
                };
                // Plot every vertical level of the slab.
                let lev0 = slab.origin.first().copied().unwrap_or(0);
                rctx.plot_levels(&slab.array, rows, cols, cmap, |l| {
                    format!("img/{}/{}/{:04}", slab.file, slab.var, lev0 + l)
                })?;
                // In-map analysis over the slab's frame, built on first use.
                match &analysis {
                    Analysis::None => {}
                    Analysis::Highlight { k } => {
                        let mut env = HashMap::new();
                        env.insert("df", slab.frame()?);
                        let q = format!("SELECT * FROM df ORDER BY value DESC LIMIT {k}");
                        let top = rctx.sqldf(&q, &env)?;
                        rctx.emit_frame(format!("hl/{}", slab.var), top);
                    }
                    Analysis::TopPercent { pct } => {
                        // Per-task threshold, partial results merged in reduce.
                        let frame = slab.frame()?;
                        let values = frame
                            .f64_column("value")
                            .map_err(|e| MrError::msg(e.to_string()))?;
                        let mut sorted: Vec<f64> =
                            values.iter().copied().filter(|v| v.is_finite()).collect();
                        sorted.sort_by(f64::total_cmp);
                        let idx = ((sorted.len() as f64) * (1.0 - pct / 100.0)) as usize;
                        let thr = sorted
                            .get(idx.min(sorted.len().saturating_sub(1)))
                            .copied()
                            .unwrap_or(f64::NEG_INFINITY);
                        let mut env = HashMap::new();
                        env.insert("df", frame);
                        let q = format!("SELECT * FROM df WHERE value >= {thr:e}");
                        let sel = rctx.sqldf(&q, &env)?;
                        rctx.emit_frame(format!("top/{}", slab.var), sel);
                    }
                }
                Ok(())
            },
        )
    }
}

/// The NU-WRF R reduce function: store images, merge analysis partials.
pub fn nuwrf_reduce_fn() -> crate::rapi::RReduceFn {
    Rc::new(
        move |key: &str, values: Vec<Payload>, rctx: &mut RCtx<'_>| -> Result<(), MrError> {
            if key.starts_with("img/") {
                // Images pass through to HDFS storage (rhdfs).
                for v in values {
                    rctx.inner.emit(key, v);
                }
                return Ok(());
            }
            // Analysis keys: merge the partial frames.
            let frames: Vec<DataFrame> = values
                .into_iter()
                .filter_map(|v| match v {
                    Payload::Frame(f) => Some(f),
                    Payload::Bytes(_) => None,
                })
                .collect();
            let merged =
                DataFrame::concat(frames.iter()).map_err(|e| MrError::msg(e.to_string()))?;
            let rows = merged.n_rows();
            let out = if key.starts_with("hl/") {
                // Global top-k from the per-task top-k partials.
                let mut env = HashMap::new();
                env.insert("df", &merged);
                rctx.sqldf("SELECT * FROM df ORDER BY value DESC LIMIT 10", &env)?
            } else {
                rctx.charge("analysis", rctx.cost().sql(rows as u64));
                merged
            };
            rctx.emit_frame(key, out);
            Ok(())
        },
    )
}

/// Build the R job implementing the workflow.
pub fn build_rjob(input_path: &str, cfg: &WorkflowConfig) -> RJob {
    let map = nuwrf_map_fn(cfg);
    let reduce = nuwrf_reduce_fn();
    let mut input = ScidpInput::path(input_path)
        .vars(cfg.variables.clone())
        .chunk_split(cfg.chunk_split)
        .align_to_chunks(cfg.align_to_chunks)
        .flat_block_size(cfg.flat_block_size)
        .cache_bytes(cfg.cache_bytes);
    input.placement = cfg.placement.clone();
    RJob {
        name: format!("scidp-{:?}", cfg.analysis),
        input,
        map,
        reduce: Some(reduce),
        n_reducers: cfg.n_reducers,
        output_dir: cfg.output_dir.clone(),
        logical_image: cfg.logical_image,
        raster: cfg.raster,
        stream: cfg.stream.clone(),
    }
}

/// Map a job-level error back to the SciDP error type: unrepaired
/// corruption surfaces as [`ScidpError::Integrity`], everything else becomes
/// the generic engine failure.
fn job_error(e: MrError) -> ScidpError {
    match e {
        MrError::Msg(m) if m.contains("IntegrityError") => ScidpError::Integrity(m),
        MrError::Msg(m) => ScidpError::Hdfs(m),
    }
}

/// Run the workflow to completion on a fresh cluster world.
pub fn run_scidp(
    cluster: &mut Cluster,
    input_path: &str,
    cfg: &WorkflowConfig,
) -> Result<WorkflowReport, ScidpError> {
    if cfg.cluster_cache_bytes > 0 {
        cluster.enable_cluster_cache(cfg.cluster_cache_bytes);
    }
    let rjob = build_rjob(input_path, cfg);
    // Kept aside in case launch-time revalidation finds the sources
    // changed and the mapping must be rebuilt.
    let rjob_remap = rjob.clone();
    let env = cluster.env();
    let scale = cluster.sim.cost.scale;
    let (job, setup) = rjob.into_job(&env, scale)?;
    // Charge the mapping-table setup, then run. The report counts what the
    // job ran on: the mapping built at launch, if the sources changed.
    let setup_cost = setup.setup_cost;
    let sources = setup.sources.clone();
    let setup_cell = Rc::new(std::cell::RefCell::new(setup));
    let revalidations = Rc::new(std::cell::Cell::new(0u64));
    let env2 = env.clone();
    let ran_with = setup_cell.clone();
    let rv = revalidations.clone();
    let launched = cluster.run_to_completion("workflow", move |cluster, done| {
        cluster.sim.after(setup_cost, move |sim| {
            // Job launch: `setup_cost` virtual seconds have passed since the
            // scan, so revalidate every source against the PFS as it is *now*.
            // Changed file → remap against the current contents; vanished file
            // → fail (the mapping cannot be rebuilt).
            let reval = {
                let pfs = env2.pfs.borrow();
                crate::mapper::DataMapper::revalidate(&pfs, &sources)
            };
            rv.set(sources.len() as u64);
            let job = match reval {
                Err(e) => return done(sim, Err(MrError::msg(e.to_string()))),
                Ok(crate::mapper::Revalidation::Current) => job,
                Ok(crate::mapper::Revalidation::Changed) => match rjob_remap.into_job(&env2, scale)
                {
                    Ok((job, setup)) => {
                        *ran_with.borrow_mut() = setup;
                        job
                    }
                    Err(e) => return done(sim, Err(MrError::msg(e.to_string()))),
                },
            };
            submit_job_env(sim, env2, job, done);
        })
    });
    let mut job = launched.map_err(job_error)?;
    // Fold in the integrity bookkeeping only the workflow can see: the
    // launch-time source checks and the shared cache's quarantine count
    // (quarantining attempts always fail, so their per-attempt counters
    // never reach the job).
    if revalidations.get() > 0 {
        job.counters.add(
            mapreduce::counters::keys::MAPPING_REVALIDATIONS,
            revalidations.get() as f64,
        );
    }
    let setup = setup_cell.borrow();
    if let Some(cache) = setup.chunk_cache.as_ref() {
        let q = cache.n_quarantined();
        if q > 0 {
            job.counters
                .add(mapreduce::counters::keys::CHUNKS_QUARANTINED, q as f64);
        }
        let qe = cache.n_quarantine_evicted();
        if qe > 0 {
            job.counters.add(
                mapreduce::counters::keys::CHUNKS_QUARANTINED_EVICTED,
                qe as f64,
            );
        }
        // Record the configured capacity next to the hit/miss counters so
        // cache results are interpretable from the JobResult alone.
        job.counters.add(
            mapreduce::counters::keys::CHUNK_CACHE_CAPACITY_BYTES,
            cache.capacity() as f64,
        );
    }
    Ok(WorkflowReport {
        job,
        images: setup.levels,
        setup_cost,
        skipped_bytes: setup.skipped_bytes,
    })
}

/// A SQL scan over a SciDP input: every slab runs the same `sqldf` query
/// and the per-slab results are concatenated by key in reduce.
///
/// With `pushdown` enabled the WHERE clause is compiled to a
/// [`rframe::Predicate`] and handed to the PFS reader, which skips chunks
/// whose zone maps prove the predicate false and delivers the survivors as
/// predicate-filtered columnar frames. The query still runs unchanged on
/// the delivered frame (re-filtering already-filtered rows is the
/// identity), so results are byte-identical with pushdown on or off.
#[derive(Clone, Debug)]
pub struct SqlScanConfig {
    /// Variables to scan (each slab of each variable runs the query).
    pub variables: Vec<String>,
    /// The `sqldf` query; the frame is bound as `df`.
    pub sql: String,
    /// Compile the WHERE clause into a reader-level predicate.
    pub pushdown: bool,
    pub n_reducers: usize,
    pub chunk_split: usize,
    pub cache_bytes: usize,
    pub output_dir: String,
}

impl SqlScanConfig {
    pub fn new<S: Into<String>>(vars: impl IntoIterator<Item = S>, sql: &str) -> SqlScanConfig {
        SqlScanConfig {
            variables: vars.into_iter().map(Into::into).collect(),
            sql: sql.to_string(),
            pushdown: true,
            n_reducers: 2,
            chunk_split: 1,
            cache_bytes: scifmt::snc::DEFAULT_CACHE_BYTES,
            output_dir: "sql_out".into(),
        }
    }
}

/// Run a [`SqlScanConfig`] to completion on the cluster.
pub fn run_sql_scan(
    cluster: &mut Cluster,
    input_path: &str,
    cfg: &SqlScanConfig,
) -> Result<JobResult, ScidpError> {
    let pred = if cfg.pushdown {
        rframe::sql::where_predicate(&cfg.sql)
            .map_err(|e| ScidpError::Hdfs(format!("sql scan: {e}")))?
    } else {
        None
    };
    let input = ScidpInput::path(input_path)
        .vars(cfg.variables.clone())
        .chunk_split(cfg.chunk_split)
        .cache_bytes(cfg.cache_bytes)
        .pushdown(pred);
    let env = cluster.env();
    let scale = cluster.sim.cost.scale;
    let (splits, setup) = make_splits(&env, &input)?;
    let sql = cfg.sql.clone();
    let map_fn: mapreduce::MapFn = Rc::new(move |input, ctx| {
        let (file, var, dims, origin) =
            decode_tag(ctx.input_tag()).ok_or_else(|| MrError::msg("missing slab tag"))?;
        let frame = match input {
            // Pushdown delivery: the reader already built the filtered
            // coordinate+value frame straight from the surviving chunks.
            // Only the delivered rows pay conversion, at the same per-source-
            // byte rate as the dense path (4 bytes of decompressed f32 per
            // row), so a 100%-selective pushdown costs what a full scan does.
            TaskInput::Frame(frame) => {
                ctx.charge("convert", ctx.cost().binary_convert(frame.n_rows() * 4));
                frame
            }
            // Dense delivery: the classic row-at-a-time conversion of the
            // full slab ("Convert" in Fig. 7).
            TaskInput::Array(array) => {
                let raw = array.len() * array.dtype().size();
                ctx.charge("convert", ctx.cost().binary_convert(raw));
                slab_to_frame(&dims, &origin, &array)?
            }
            TaskInput::Bytes(_) | TaskInput::Pairs(_) => {
                return Err(MrError::msg(
                    "SQL scan expects scientific slabs; flat inputs need a bytes map",
                ))
            }
        };
        let rows = frame.n_rows();
        let logical_rows = (rows as f64 * scale) as u64;
        ctx.charge("analysis", ctx.cost().sql(logical_rows));
        let mut env = HashMap::new();
        env.insert("df", &frame);
        let out = rframe::sqldf(&sql, &env).map_err(|e| MrError::msg(e.to_string()))?;
        let origin: Vec<String> = origin.iter().map(|o| o.to_string()).collect();
        ctx.emit(
            format!("sql/{file}/{var}/{}", origin.join(".")),
            Payload::Frame(out),
        );
        Ok(())
    });
    let reduce_scale = scale;
    let reduce_fn: mapreduce::ReduceFn = Rc::new(move |key, values, ctx| {
        let frames: Vec<DataFrame> = values
            .into_iter()
            .filter_map(|v| match v {
                Payload::Frame(f) => Some(f),
                Payload::Bytes(_) => None,
            })
            .collect();
        let merged = DataFrame::concat(frames.iter()).map_err(|e| MrError::msg(e.to_string()))?;
        let logical_rows = (merged.n_rows() as f64 * reduce_scale) as u64;
        ctx.charge("analysis", ctx.cost().sql(logical_rows));
        ctx.emit(key, Payload::Frame(merged));
        Ok(())
    });
    let job = mapreduce::Job::new(
        format!("sql-scan-pushdown-{}", cfg.pushdown),
        splits,
        map_fn,
        Some(reduce_fn),
        cfg.n_reducers,
        cfg.output_dir.clone(),
    );
    let mut result = run_job(cluster, job).map_err(job_error)?;
    if cfg.pushdown {
        // The metadata price of pruning: the zone-map headers the scan
        // consulted (the skip counters come from the fetchers themselves).
        result.counters.add(
            mapreduce::counters::keys::ZONE_MAP_BYTES,
            setup.zone_map_bytes as f64,
        );
    }
    if let Some(cache) = setup.chunk_cache.as_ref() {
        result.counters.add(
            mapreduce::counters::keys::CHUNK_CACHE_CAPACITY_BYTES,
            cache.capacity() as f64,
        );
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Chained statistics pipeline as one DAG
// ---------------------------------------------------------------------------

/// A chained NU-WRF summary-statistics pipeline executed as one multi-stage
/// DAG (see `mapreduce::dag`): slab tasks emit per-`(var, level)` partial
/// stats, a first shuffle merges the partials into exact per-level stats,
/// and a second shuffle rolls the levels up into one record per variable.
/// Three stages, two shuffle boundaries — a node loss between them recovers
/// by lineage recompute instead of a pipeline re-run.
#[derive(Clone, Debug)]
pub struct StatsDagConfig {
    /// Variables to summarize (each slab of each variable contributes).
    pub variables: Vec<String>,
    /// Width of the per-level merge stage.
    pub level_partitions: usize,
    /// Width of the per-variable rollup stage.
    pub var_partitions: usize,
    pub chunk_split: usize,
    pub cache_bytes: usize,
    /// Per-node cluster chunk-cache capacity (bytes; 0 = tier off).
    pub cluster_cache_bytes: u64,
    /// Dataset placement (cluster-cache admission) for the source stage.
    pub placement: PlacementSpec,
    pub output_dir: String,
    pub ft: mapreduce::FtConfig,
    pub stream: mapreduce::StreamConfig,
}

impl StatsDagConfig {
    pub fn new<S: Into<String>>(vars: impl IntoIterator<Item = S>) -> StatsDagConfig {
        StatsDagConfig {
            variables: vars.into_iter().map(Into::into).collect(),
            level_partitions: 4,
            var_partitions: 2,
            chunk_split: 1,
            cache_bytes: scifmt::snc::DEFAULT_CACHE_BYTES,
            cluster_cache_bytes: 0,
            placement: PlacementSpec::Fixed(Placement::PfsDirect),
            output_dir: "stats_out".into(),
            ft: mapreduce::FtConfig::default(),
            stream: mapreduce::StreamConfig::default(),
        }
    }
}

/// `count,sum,min,max` with round-trip float formatting — merging partial
/// lines in deterministic shuffle order keeps reruns byte-identical.
fn stats_line(count: u64, sum: f64, min: f64, max: f64) -> Vec<u8> {
    format!("{count},{sum:?},{min:?},{max:?}").into_bytes()
}

fn parse_stats(bytes: &[u8]) -> Result<(u64, f64, f64, f64), MrError> {
    let s = std::str::from_utf8(bytes).map_err(|e| MrError::msg(format!("stats: {e}")))?;
    let mut it = s.split(',');
    match (it.next(), it.next(), it.next(), it.next(), it.next()) {
        (Some(c), Some(sum), Some(mn), Some(mx), None) => Ok((
            c.parse()
                .map_err(|e| MrError::msg(format!("stats count: {e}")))?,
            sum.parse()
                .map_err(|e| MrError::msg(format!("stats sum: {e}")))?,
            mn.parse()
                .map_err(|e| MrError::msg(format!("stats min: {e}")))?,
            mx.parse()
                .map_err(|e| MrError::msg(format!("stats max: {e}")))?,
        )),
        _ => Err(MrError::msg(format!("stats: malformed line {s:?}"))),
    }
}

/// Merge partial stats lines (values in deterministic shuffle order).
fn merge_stats(values: Vec<Payload>) -> Result<(u64, f64, f64, f64), MrError> {
    let mut acc = (0u64, 0.0f64, f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        let Payload::Bytes(b) = v else {
            return Err(MrError::msg("stats: expected byte payload"));
        };
        let (c, s, mn, mx) = parse_stats(&b)?;
        acc = (acc.0 + c, acc.1 + s, acc.2.min(mn), acc.3.max(mx));
    }
    Ok(acc)
}

/// Build the stats pipeline as a lazy [`mapreduce::Dataset`] plan over a
/// SciDP input.
pub fn build_stats_dag(
    env: &mapreduce::MrEnv,
    input_path: &str,
    cfg: &StatsDagConfig,
) -> Result<mapreduce::DagJob, ScidpError> {
    let mut input = ScidpInput::path(input_path)
        .vars(cfg.variables.clone())
        .chunk_split(cfg.chunk_split)
        .cache_bytes(cfg.cache_bytes);
    input.placement = cfg.placement.clone();
    let (splits, _setup) = make_splits(env, &input)?;
    // Stage 1 (source): per-level partial stats of each slab.
    let read: mapreduce::RecordReadFn = Rc::new(move |input, ctx| {
        let (_file, var, _dims, origin) =
            decode_tag(ctx.input_tag()).ok_or_else(|| MrError::msg("missing slab tag"))?;
        let TaskInput::Array(array) = input else {
            return Err(MrError::msg("stats pipeline expects scientific slabs"));
        };
        let shape = array.shape().to_vec();
        let (levels, rows, cols) = match shape.as_slice() {
            &[l, r, c] => (l, r, c),
            _ => {
                return Err(MrError::msg(format!(
                    "stats pipeline expects 3-D slabs, got {shape:?}"
                )))
            }
        };
        ctx.charge(
            "convert",
            ctx.cost()
                .binary_convert(array.len() * array.dtype().size()),
        );
        let lev0 = origin.first().copied().unwrap_or(0);
        let mut out = Vec::with_capacity(levels);
        for (l, (count, sum, mn, mx)) in level_stats(&array).into_iter().enumerate() {
            ctx.charge("analysis", ctx.cost().sql((rows * cols) as u64));
            out.push((
                format!("lvl/{var}/{:04}", lev0 + l),
                Payload::Bytes(stats_line(count, sum, mn, mx)),
            ));
        }
        Ok(out)
    });
    // Stage 2 (shuffle 1): exact per-level stats from the slab partials.
    let merge: mapreduce::AggFn = Rc::new(|_key, values, _ctx| {
        let (c, s, mn, mx) = merge_stats(values)?;
        Ok(Payload::Bytes(stats_line(c, s, mn, mx)))
    });
    // Narrow re-key between the shuffles: `lvl/<var>/<lev>` → `var/<var>`.
    let rekey: mapreduce::PairMapFn = Rc::new(|key, value, _ctx| {
        let var = match key.split('/').nth(1) {
            Some(v) => v.to_string(),
            None => return Err(MrError::msg(format!("stats: unexpected level key {key:?}"))),
        };
        Ok(vec![(format!("var/{var}"), value)])
    });
    // Stage 3 (shuffle 2): per-variable rollup across its levels.
    let rollup: mapreduce::AggFn = Rc::new(|_key, values, _ctx| {
        let levels = values.len() as u64;
        let (c, s, mn, mx) = merge_stats(values)?;
        let mean = if c > 0 { s / c as f64 } else { 0.0 };
        Ok(Payload::Bytes(
            format!("levels={levels} count={c} min={mn:?} max={mx:?} mean={mean:?}").into_bytes(),
        ))
    });
    let plan = mapreduce::Dataset::from_splits(splits, read)
        .reduce_by_key(cfg.level_partitions, merge)
        .map(rekey)
        .reduce_by_key(cfg.var_partitions, rollup);
    let mut dag = mapreduce::DagJob::new("nuwrf-stats", plan, cfg.output_dir.clone());
    dag.ft = cfg.ft.clone();
    dag.stream = cfg.stream.clone();
    Ok(dag)
}

/// Run the chained statistics pipeline as one DAG on the cluster.
pub fn run_stats_dag(
    cluster: &mut Cluster,
    input_path: &str,
    cfg: &StatsDagConfig,
) -> Result<mapreduce::DagResult, ScidpError> {
    if cfg.cluster_cache_bytes > 0 {
        cluster.enable_cluster_cache(cfg.cluster_cache_bytes);
    }
    let env = cluster.env();
    let dag = build_stats_dag(&env, input_path, cfg)?;
    mapreduce::run_dag(cluster, dag).map_err(job_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::PfsConfig;
    use simnet::{ClusterSpec, CostModel};
    use wrfgen::WrfSpec;

    fn stage(timestamps: usize) -> (Cluster, String) {
        stage_spec(WrfSpec::tiny(timestamps))
    }

    fn stage_spec(wspec: WrfSpec) -> (Cluster, String) {
        let spec = ClusterSpec {
            compute_nodes: 2,
            storage_nodes: 1,
            osts: 4,
            slots_per_node: 2,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 4,
            stripe_size: 4096,
            default_stripe_count: 4,
        };
        let cost = CostModel {
            scale: wspec.scale_factor(),
            ..CostModel::default()
        };
        let cluster = Cluster::new(spec, pfs_cfg, 1 << 20, 1, cost);
        wrfgen::generate_dataset(&mut cluster.pfs.borrow_mut(), &wspec, "nuwrf/run");
        (cluster, "lustre://nuwrf/run".to_string())
    }

    #[test]
    fn img_only_plots_every_level() {
        let (mut cluster, input) = stage(2);
        let cfg = WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            ..WorkflowConfig::img_only(["QR"])
        };
        let rep = run_scidp(&mut cluster, &input, &cfg).unwrap();
        // 2 files x 4 levels (tiny spec) = 8 images.
        assert_eq!(rep.images, 8);
        assert!(rep.setup_cost > 0.0);
        assert!(rep.total_time() > rep.job.elapsed());
        assert!(rep.skipped_bytes > 0, "QC/QI skipped by subsetting");
        // Images landed on HDFS via the reducers.
        let h = cluster.hdfs.borrow();
        let outs = h.namenode.list_files_recursive("scidp_out").unwrap();
        assert!(!outs.is_empty());
        let bytes: u64 = outs.iter().map(|f| f.len).sum();
        assert!(bytes > 0);
    }

    /// File 0 of [`stage`]'s dataset written again, with 6 levels instead
    /// of 4.
    fn rewrite_file_0(pfs: &pfs::SharedPfs) {
        let spec = WrfSpec {
            levels: 6,
            ..WrfSpec::tiny(2)
        };
        let bytes = wrfgen::generate_file(&spec, 0);
        let path = format!("nuwrf/run/{}", spec.file_name(0));
        pfs.borrow_mut().create(path, bytes);
    }

    /// A source rewritten between the scan and the launch is remapped, and
    /// the report counts the mapping the job ran on: the images and skipped
    /// bytes of a run staged with the rewritten file from the start.
    #[test]
    fn a_source_changed_before_the_launch_is_reported_as_remapped() {
        let cfg = WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            ..WorkflowConfig::img_only(["QR"])
        };
        let (mut untouched, input) = stage(2);
        let untouched = run_scidp(&mut untouched, &input, &cfg).unwrap();
        let (mut direct, _) = stage(2);
        rewrite_file_0(&direct.pfs);
        let want = run_scidp(&mut direct, &input, &cfg).unwrap();
        assert_eq!((untouched.images, want.images), (4 + 4, 6 + 4));
        assert!(want.skipped_bytes > untouched.skipped_bytes);
        // The same rewrite at t = 0: after the scan, before the launch.
        let (mut cluster, _) = stage(2);
        let pfs = cluster.pfs.clone();
        cluster
            .sim
            .at(simnet::SimTime(0.0), move |_| rewrite_file_0(&pfs));
        let rep = run_scidp(&mut cluster, &input, &cfg).unwrap();
        let revalidations = mapreduce::counters::keys::MAPPING_REVALIDATIONS;
        assert_eq!(rep.job.counters.get(revalidations), 2.0);
        assert_eq!(rep.images, want.images);
        assert_eq!(rep.skipped_bytes, want.skipped_bytes);
    }

    /// Every byte an img-only run commits, pinned: `hash64` over each
    /// output file's path and contents, recorded before the plot path's
    /// kernels (rasteriser, colour map, PNG CRC) were rewritten. A
    /// one-count colour change or a wrong chunk CRC moves it.
    #[test]
    fn committed_images_are_pinned() {
        let (mut cluster, input) = stage(2);
        let cfg = WorkflowConfig {
            n_reducers: 2,
            // 68 rows: the rasteriser's parallel path.
            raster: (72, 68),
            ..WorkflowConfig::img_only(["QR", "QC"])
        };
        let rep = run_scidp(&mut cluster, &input, &cfg).unwrap();
        assert_eq!(rep.images, 16);
        let h = cluster.hdfs.borrow();
        let mut all = Vec::new();
        for f in h.namenode.list_files_recursive(&cfg.output_dir).unwrap() {
            all.extend_from_slice(f.path.as_bytes());
            for b in h.namenode.blocks(&f.path).unwrap() {
                all.extend_from_slice(&h.datanodes.get(b.locations()[0], b.id).unwrap());
            }
        }
        assert_eq!(
            scirng::hash64(&all),
            0x4f39_2ff2_454c_735c,
            "committed image bytes moved"
        );
    }

    #[test]
    fn highlight_adds_little_time() {
        let (mut c1, input) = stage(2);
        let cfg_none = WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            ..WorkflowConfig::img_only(["QR"])
        };
        let t_none = run_scidp(&mut c1, &input, &cfg_none).unwrap().total_time();
        let (mut c2, input2) = stage(2);
        let cfg_hl = WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            ..WorkflowConfig::anlys(["QR"], Analysis::Highlight { k: 10 })
        };
        let t_hl = run_scidp(&mut c2, &input2, &cfg_hl).unwrap().total_time();
        // Paper Fig. 9: highlight ≈ no-analysis.
        assert!(
            t_hl < t_none * 1.3,
            "highlight should be near-free: {t_hl} vs {t_none}"
        );
        assert!(t_hl >= t_none * 0.7);
    }

    #[test]
    fn top_percent_stores_results() {
        let (mut cluster, input) = stage(2);
        let cfg = WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            output_dir: "anlys_out".into(),
            ..WorkflowConfig::anlys(["QR"], Analysis::TopPercent { pct: 1.0 })
        };
        let rep = run_scidp(&mut cluster, &input, &cfg).unwrap();
        assert!(rep.job.counters.get("hdfs_write_bytes") > 0.0);
        let h = cluster.hdfs.borrow();
        let outs = h.namenode.list_files_recursive("anlys_out").unwrap();
        // Output contains both images and the top-1% frames.
        let total: u64 = outs.iter().map(|f| f.len).sum();
        assert!(total > 0);
    }

    #[test]
    fn stats_pipeline_runs_as_one_three_stage_dag() {
        let (mut cluster, input) = stage(2);
        let cfg = StatsDagConfig {
            level_partitions: 2,
            var_partitions: 1,
            ..StatsDagConfig::new(["QR", "QC"])
        };
        let r = run_stats_dag(&mut cluster, &input, &cfg).unwrap();
        assert_eq!(r.n_stages, 3);
        assert_eq!(
            r.counters.get(mapreduce::counters::keys::STAGES_RUN),
            3.0,
            "clean run: each stage exactly once"
        );
        assert_eq!(
            r.counters
                .get(mapreduce::counters::keys::LINEAGE_RECOMPUTES),
            0.0
        );
        // A zero-width shuffle is a typed error, not an abort.
        let zero = StatsDagConfig {
            level_partitions: 0,
            ..cfg
        };
        assert!(run_stats_dag(&mut cluster, &input, &zero).is_err());
        // One rollup line per variable reached the output.
        let h = cluster.hdfs.borrow();
        let outs = h.namenode.list_files_recursive("stats_out").unwrap();
        let mut text = String::new();
        for f in outs.iter().filter(|f| !f.path.contains("/_")) {
            for b in h.namenode.blocks(&f.path).unwrap() {
                text.push_str(&String::from_utf8_lossy(
                    &h.datanodes.get(b.locations()[0], b.id).unwrap(),
                ));
            }
        }
        let mut vars: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("var/"))
            .filter_map(|l| l.split('\t').next())
            .collect();
        vars.sort_unstable();
        assert_eq!(vars, vec!["QC", "QR"]);
        for line in text.lines() {
            assert!(line.contains("levels=4"), "tiny spec has 4 levels: {line}");
            assert!(line.contains("mean="));
        }
    }

    /// Every byte a stats DAG commits, pinned: `hash64` over each output
    /// file's path and contents, recorded with the one-level-at-a-time
    /// fold. Slabs of 3 levels fold a pair and an odd level left over;
    /// the last slab of each file is a pair alone.
    #[test]
    fn stats_output_is_pinned() {
        let (mut cluster, input) = stage_spec(WrfSpec {
            levels: 5,
            chunk_levels: 3,
            ..WrfSpec::tiny(2)
        });
        let cfg = StatsDagConfig {
            level_partitions: 2,
            var_partitions: 1,
            ..StatsDagConfig::new(["QR", "QC", "QI"])
        };
        run_stats_dag(&mut cluster, &input, &cfg).unwrap();
        let h = cluster.hdfs.borrow();
        let mut all = Vec::new();
        for f in h.namenode.list_files_recursive(&cfg.output_dir).unwrap() {
            all.extend_from_slice(f.path.as_bytes());
            for b in h.namenode.blocks(&f.path).unwrap() {
                all.extend_from_slice(&h.datanodes.get(b.locations()[0], b.id).unwrap());
            }
        }
        assert_eq!(
            scirng::hash64(&all),
            0x7281_fd2d_5862_3209,
            "committed stats bytes moved"
        );
    }

    #[test]
    fn subsetting_reduces_read_volume() {
        let elapsed_and_input = |vars: Vec<&str>| {
            let (mut cluster, input) = stage(2);
            let cfg = WorkflowConfig {
                n_reducers: 2,
                raster: (8, 8),
                ..WorkflowConfig::img_only(vars)
            };
            let rep = run_scidp(&mut cluster, &input, &cfg).unwrap();
            rep.job.counters.get("input_bytes")
        };
        let one = elapsed_and_input(vec!["QR"]);
        let all = elapsed_and_input(vec!["QR", "QC", "QI"]);
        assert!(
            all > 2.0 * one,
            "subsetting not reducing input: {one} vs {all}"
        );
    }
}
