//! The six workloads: what each stages, what one pass runs, and why it is
//! in the set. Sizes and pass counts are constants — never adapted to the
//! measured speed — so two commits compared with this benchmark do
//! identical work.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    run_dag, run_job, submit_job_env, AggFn, Cluster, Counters, DagJob, DagResult, Dataset, Job,
    JobResult, MapFn, MrEnv, MrError, PairMapFn, Payload, RecordReadFn, ReduceFn, StageRun,
    TaskCtx, TaskInput, TaskReport,
};
use pfs::{Pfs, PfsConfig};
use rframe::DataFrame;
use scidp::rapi::slab_to_frame;
use scidp::{
    build_rjob, decode_tag, make_splits, run_scidp, run_sql_scan, run_stats_dag, DataMapper,
    Placement, PlacementSpec, Revalidation, ScidpInput, SqlScanConfig, StatsDagConfig,
    WorkflowConfig,
};
use scidp_bench::paper_cluster;
use scifmt::{Array, Codec, SncBuilder};
use simnet::{ClusterSpec, CostModel, FaultPlan};
use wrfgen::WrfSpec;

use crate::trace::{in_span, trace_map, trace_reduce, trace_splits, SharedRecorder};

/// Compute nodes of the NU-WRF workloads' cluster (the ramp cluster has 4).
const NODES: usize = 8;
/// PFS directory every workload stages its dataset under.
pub const DIR: &str = "e2e";
/// Selectivity of the `sql_pushdown` predicate (share of ramp levels kept).
pub const SQL_SELECTIVITY: f64 = 0.25;
/// Per-node cluster-cache capacity of `scan_stats_warm`.
pub const WARM_CACHE_BYTES: u64 = 64 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    NuwrfImg,
    ScanStats,
    ScanStatsWarm,
    SqlPushdown,
    SmallTasks,
    NuwrfImgChaos,
}

/// One benchmark workload. `passes_per_10s` timed passes run for every 10
/// seconds of `--seconds` (a fixed count per workload, not a deadline).
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub why: &'static str,
    pub passes_per_10s: usize,
    /// Untimed passes before the timed ones (caches fill, lazy set-up ends).
    pub warmups: usize,
    /// Dataset generations + stagings timed for `setup_s` (median reported).
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "nuwrf_img",
        kind: Kind::NuwrfImg,
        why: "paper headline Img-only pipeline: host time is rframe plot/PNG + scidp frame building, codec and CRC do little (bypass for byte-path kernels)",
        passes_per_10s: 13,
        warmups: 2,
        setup_reps: 5,
    },
    Workload {
        name: "scan_stats",
        kind: Kind::ScanStats,
        why: "3-stage stats DAG over every stored byte, fresh cluster per pass: CRC32C, decompress, slab assembly and the reader tier walk do most of the host work",
        passes_per_10s: 13,
        warmups: 2,
        setup_reps: 5,
    },
    Workload {
        name: "scan_stats_warm",
        kind: Kind::ScanStatsWarm,
        why: "same plan on one cluster with the cluster cache warm: cache hits and cache-local scheduling; a codec/CRC speed-up must show no change here",
        passes_per_10s: 41,
        warmups: 2,
        setup_reps: 5,
    },
    Workload {
        name: "sql_pushdown",
        kind: Kind::SqlPushdown,
        why: "aggregate SQL scan at 25% selectivity with pushdown: zone-map pruning, eval_mask, frame delivery and rframe::sql; decompression mostly bypassed",
        passes_per_10s: 101,
        warmups: 2,
        setup_reps: 7,
    },
    Workload {
        name: "small_tasks",
        kind: Kind::SmallTasks,
        why: "928 tiny tasks, negligible bytes: host time is the simnet event loop/flow model + mapreduce driver; byte-path kernels do nothing here",
        passes_per_10s: 5,
        warmups: 1,
        setup_reps: 15,
    },
    Workload {
        name: "nuwrf_img_chaos",
        kind: Kind::NuwrfImgChaos,
        why: "nuwrf_img under a fixed fault plan (kill, slow node, hung read, corrupt read, healed partition): the recovery paths of the same driver and reader",
        passes_per_10s: 11,
        warmups: 2,
        setup_reps: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Timed passes for a run of `seconds` (fixed by the workload, scaled
    /// by the requested run length only).
    pub fn timed_passes(&self, seconds: u64, quick: bool) -> usize {
        if quick {
            return 2;
        }
        ((self.passes_per_10s as u64 * seconds + 5) / 10).max(3) as usize
    }
}

/// Mix the CLI seed into a generator seed (distinct streams per use).
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    scirng::splitmix64(&mut s)
}

/// What the dataset looks like, for the oracles and the kernel replay.
#[derive(Clone)]
pub enum Shape {
    Wrf(WrfSpec),
    /// `[levels, lat, lon]` ramp variable `V`, one level per chunk.
    Ramp {
        levels: usize,
    },
}

/// A staged dataset: the PFS snapshot every pass's fresh cluster starts
/// from (file payloads are `Arc`-shared, so a snapshot clone is cheap).
pub struct Staged {
    pub shape: Shape,
    pub pfs: Pfs,
    /// `lustre://` input URI.
    pub input: String,
    /// `(pfs path, container bytes)` in path order.
    pub files: Vec<(String, Arc<Vec<u8>>)>,
    /// Raw / stored payload bytes across all variables.
    pub raw_bytes: u64,
    pub stored_bytes: u64,
}

fn wrf_spec(kind: Kind, seed: u64, quick: bool) -> WrfSpec {
    let seed = mix_seed(seed, 1);
    match (kind, quick) {
        (Kind::SmallTasks, false) => WrfSpec {
            seed,
            ..WrfSpec::scaled(16, 16, 8)
        },
        (Kind::SmallTasks, true) => WrfSpec {
            seed,
            levels: 10,
            chunk_levels: 5,
            n_vars: 6,
            ..WrfSpec::scaled(8, 8, 2)
        },
        (_, false) => WrfSpec {
            seed,
            n_vars: 4,
            ..WrfSpec::scaled(128, 128, 8)
        },
        (_, true) => WrfSpec {
            seed,
            levels: 10,
            chunk_levels: 5,
            n_vars: 4,
            ..WrfSpec::scaled(16, 16, 2)
        },
    }
}

fn ramp_dims(quick: bool) -> (usize, usize, usize) {
    if quick {
        (16, 32, 32)
    } else {
        (128, 256, 256)
    }
}

/// The ramp container of `bin/pushdown.rs`: chunk `l` holds values in
/// `[l, l+1)`, so zone maps bound every chunk exactly along the ramp. The
/// intra-chunk part is seeded noise through a full mixer (not that bin's
/// Weyl sequence, whose compressibility swings by a third with the salt),
/// so every seed stores about the same number of bytes.
fn ramp_container(levels: usize, lat: usize, lon: usize, seed: u64) -> Vec<u8> {
    let salt = mix_seed(seed, 2);
    let data: Vec<f32> = (0..levels * lat * lon)
        .map(|i| {
            let l = (i / (lat * lon)) as f32;
            let mut state = salt.wrapping_add(i as u64);
            let intra = (scirng::splitmix64(&mut state) >> 40) as f32 / (1u32 << 24) as f32;
            l + intra
        })
        .collect();
    let full = Array::from_f32(vec![levels, lat, lon], data).expect("ramp shape is consistent");
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "V",
        &[("lev", levels), ("lat", lat), ("lon", lon)],
        &[1, lat, lon],
        Codec::ShuffleLz { elem: 4 },
        full,
    )
    .expect("ramp variable is valid");
    b.finish()
}

fn ramp_cluster() -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: 4,
        storage_nodes: 1,
        osts: 4,
        slots_per_node: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 4,
        ..PfsConfig::default()
    };
    let cost = CostModel {
        scale: 1024.0,
        task_startup_s: 0.1,
        ..CostModel::default()
    };
    Cluster::new(spec, pfs_cfg, 1 << 18, 1, cost)
}

impl Workload {
    /// Generate the dataset from `seed` and stage it on a PFS — the write
    /// path (`wrfgen` synth → `SncBuilder::finish` → `Pfs::create`) that
    /// `setup_s` times.
    pub fn stage(&self, seed: u64, quick: bool) -> Staged {
        let (shape, pfs) = match self.kind {
            Kind::SqlPushdown => {
                let (levels, lat, lon) = ramp_dims(quick);
                let cluster = ramp_cluster();
                let bytes = ramp_container(levels, lat, lon, seed);
                cluster
                    .pfs
                    .borrow_mut()
                    .create(format!("{DIR}/ramp.snc"), bytes);
                let pfs = cluster.pfs.borrow().clone();
                (Shape::Ramp { levels }, pfs)
            }
            kind => {
                let spec = wrf_spec(kind, seed, quick);
                let cluster = paper_cluster(NODES, &spec);
                wrfgen::generate_dataset(&mut cluster.pfs.borrow_mut(), &spec, DIR);
                let pfs = cluster.pfs.borrow().clone();
                (Shape::Wrf(spec), pfs)
            }
        };
        let files: Vec<(String, Arc<Vec<u8>>)> = pfs
            .list(DIR)
            .into_iter()
            .map(|p| {
                let data = pfs.file(&p).expect("listed file exists").data.clone();
                (p, data)
            })
            .collect();
        let (mut raw_bytes, mut stored_bytes) = (0u64, 0u64);
        for (_, bytes) in &files {
            let meta = scifmt::SncMeta::parse(bytes).expect("staged container parses");
            for (_, v) in meta.all_vars() {
                raw_bytes += v.raw_size() as u64;
                stored_bytes += v.stored_size() as u64;
            }
        }
        Staged {
            shape,
            pfs,
            input: format!("lustre://{DIR}"),
            files,
            raw_bytes,
            stored_bytes,
        }
    }

    /// A fresh world (own simulator, HDFS, caches) that sees the staged
    /// dataset.
    pub fn fresh_cluster(&self, staged: &Staged) -> Cluster {
        let cluster = match &staged.shape {
            Shape::Ramp { .. } => ramp_cluster(),
            Shape::Wrf(spec) => paper_cluster(NODES, spec),
        };
        *cluster.pfs.borrow_mut() = staged.pfs.clone();
        cluster
    }

    /// Variables the workload's job reads.
    pub fn variables(&self, staged: &Staged) -> Vec<String> {
        match (&staged.shape, self.kind) {
            (Shape::Ramp { .. }, _) => vec!["V".into()],
            (Shape::Wrf(_), Kind::NuwrfImg | Kind::NuwrfImgChaos) => vec!["QR".into()],
            (Shape::Wrf(spec), _) => spec.var_names().iter().map(|s| s.to_string()).collect(),
        }
    }

    pub fn img_config(&self, staged: &Staged) -> WorkflowConfig {
        WorkflowConfig::img_only(self.variables(staged))
    }

    pub fn stats_config(&self, staged: &Staged) -> StatsDagConfig {
        let mut cfg = StatsDagConfig::new(self.variables(staged));
        if self.kind == Kind::ScanStatsWarm {
            cfg.cluster_cache_bytes = WARM_CACHE_BYTES;
            cfg.placement = PlacementSpec::Fixed(Placement::Cached);
        }
        cfg
    }

    pub fn sql_config(&self, staged: &Staged, pushdown: bool) -> SqlScanConfig {
        let levels = match staged.shape {
            Shape::Ramp { levels } => levels,
            Shape::Wrf(_) => 0,
        };
        let cutoff = levels as f64 * (1.0 - SQL_SELECTIVITY);
        let sql = format!(
            "SELECT COUNT(value), SUM(value), MIN(value), MAX(value) FROM df WHERE value >= {cutoff}"
        );
        SqlScanConfig {
            pushdown,
            n_reducers: 2,
            ..SqlScanConfig::new(["V"], &sql)
        }
    }

    pub fn output_dir(&self) -> &'static str {
        match self.kind {
            Kind::NuwrfImg | Kind::NuwrfImgChaos | Kind::SmallTasks => "scidp_out",
            Kind::ScanStats | Kind::ScanStatsWarm => "stats_out",
            Kind::SqlPushdown => "sql_out",
        }
    }
}

/// The fixed, non-probabilistic fault plan of `nuwrf_img_chaos`. Times are
/// placed relative to the clean run (`job_start_s` = mapping set-up cost,
/// `clean_job_s` = clean job elapsed); `seed` reaches the plan only
/// through `with_seed` (retry-backoff jitter, corruption pattern).
pub fn chaos_plan(staged: &Staged, seed: u64, job_start_s: f64, clean_job_s: f64) -> FaultPlan {
    let at = |share: f64| job_start_s + share * clean_job_s;
    let file = |i: usize| staged.files[i % staged.files.len()].0.clone();
    FaultPlan::none()
        .with_seed(mix_seed(seed, 3))
        .kill_node(3, at(0.25))
        .slow_node(5, 4.0)
        .hang_nth_read(file(1), 2)
        .corrupt_read(file(4), 2)
        .partition(&[6], at(0.10), at(0.60))
}

/// What one pass of any workload yields, normalised over `JobResult` /
/// `DagResult` / `WorkflowReport`.
pub struct PassOutcome {
    /// Simulated seconds of mapping set-up before the job starts.
    pub sim_setup_s: f64,
    /// Simulated job/DAG elapsed.
    pub sim_job_s: f64,
    /// Simulated time the job/DAG started at.
    pub sim_start_s: f64,
    pub counters: Counters,
    /// Committed task reports (classic jobs only; a `DagResult` has none).
    pub tasks: Vec<TaskReport>,
    /// Stage submissions (DAG workloads only).
    pub stage_runs: Vec<StageRun>,
    /// Images the workflow says it plotted (image workloads).
    pub images: u64,
    /// Simulator events processed in this pass.
    pub events: u64,
}

impl PassOutcome {
    pub fn sim_makespan_s(&self) -> f64 {
        self.sim_setup_s + self.sim_job_s
    }

    pub fn from_job(job: JobResult, sim_setup_s: f64, images: u64) -> PassOutcome {
        PassOutcome {
            sim_setup_s,
            sim_job_s: job.elapsed(),
            sim_start_s: job.start_s,
            counters: job.counters,
            tasks: job.tasks,
            stage_runs: Vec::new(),
            images,
            events: 0,
        }
    }

    pub fn from_dag(dag: DagResult) -> PassOutcome {
        PassOutcome {
            sim_setup_s: 0.0,
            sim_job_s: dag.elapsed(),
            sim_start_s: dag.start_s,
            counters: dag.counters,
            tasks: Vec::new(),
            stage_runs: dag.runs,
            images: 0,
            events: 0,
        }
    }
}

/// Per-run state a pass may carry over: the warm workload keeps one
/// cluster alive across passes; chaos carries its plan.
pub struct PassEnv {
    pub warm_cluster: Option<Cluster>,
    pub plan: Option<FaultPlan>,
}

impl Workload {
    /// The cluster this pass runs on: the kept warm cluster, or a fresh one
    /// (with the chaos plan installed where the workload has one).
    pub fn pass_cluster(&self, staged: &Staged, env: &mut PassEnv) -> Cluster {
        if let Some(c) = env.warm_cluster.take() {
            return c;
        }
        let mut cluster = self.fresh_cluster(staged);
        if let Some(plan) = &env.plan {
            cluster.sim.faults.install(plan.clone());
        }
        cluster
    }

    /// Run the pipeline once: through the program's own entry points, or —
    /// given a recorder — rebuilt from its public pieces with spans at the
    /// seams (see below). Returns the cluster too so the caller can read the
    /// committed output.
    pub fn run_pass(
        &self,
        staged: &Staged,
        mut cluster: Cluster,
        trace: Option<&SharedRecorder>,
    ) -> (Cluster, Result<PassOutcome, String>) {
        let events0 = cluster.sim.events_processed();
        let out = match (self.kind, trace) {
            (Kind::NuwrfImg | Kind::NuwrfImgChaos | Kind::SmallTasks, None) => {
                run_scidp(&mut cluster, &staged.input, &self.img_config(staged))
                    .map(|rep| {
                        let (setup, images) = (rep.setup_cost, rep.images);
                        PassOutcome::from_job(rep.job, setup, images)
                    })
                    .map_err(|e| e.to_string())
            }
            (Kind::ScanStats | Kind::ScanStatsWarm, None) => {
                run_stats_dag(&mut cluster, &staged.input, &self.stats_config(staged))
                    .map(PassOutcome::from_dag)
                    .map_err(|e| e.to_string())
            }
            (Kind::SqlPushdown, None) => {
                run_sql_scan(&mut cluster, &staged.input, &self.sql_config(staged, true))
                    .map(|job| PassOutcome::from_job(job, 0.0, 0))
                    .map_err(|e| e.to_string())
            }
            (Kind::NuwrfImg | Kind::NuwrfImgChaos | Kind::SmallTasks, Some(rec)) => {
                self.traced_img(staged, &mut cluster, rec)
            }
            (Kind::ScanStats | Kind::ScanStatsWarm, Some(rec)) => {
                self.traced_stats(staged, &mut cluster, rec)
            }
            (Kind::SqlPushdown, Some(rec)) => self.traced_sql(staged, &mut cluster, rec),
        };
        let events = cluster.sim.events_processed() - events0;
        (cluster, out.map(|o| PassOutcome { events, ..o }))
    }
}

// ---------------------------------------------------------------------------
// Traced pass: the same pipelines rebuilt from the program's public pieces
// so that split fetchers and closures can be decorated with spans.
// ---------------------------------------------------------------------------
//
// `run_scidp` lowers through the public `build_rjob` / `RJob::into_job`, so
// the image workloads decorate the program's own job. `run_stats_dag` and
// `run_sql_scan` build their closures privately; for those the traced pass
// restates the plan below from `make_splits` + the public operators. The
// caller accepts a traced pass only if its simulated makespan, counters and
// output bytes equal the untraced passes', so a restated plan that drifts
// from the program fails the run instead of being measured.

type JobSlot = Rc<RefCell<Option<Result<JobResult, MrError>>>>;

impl Workload {
    fn traced_img(
        &self,
        staged: &Staged,
        cluster: &mut Cluster,
        rec: &SharedRecorder,
    ) -> Result<PassOutcome, String> {
        let cfg = self.img_config(staged);
        let rjob = build_rjob(&staged.input, &cfg);
        let env = cluster.env();
        let scale = cluster.sim.cost.scale;
        let (mut job, setup) = in_span(rec, "setup", "scidp", || rjob.into_job(&env, scale))
            .map_err(|e| e.to_string())?;
        job.splits = trace_splits(job.splits, rec);
        job.map_fn = trace_map(job.map_fn, rec);
        job.reduce_fn = job.reduce_fn.map(|r| trace_reduce(r, rec));
        let slot: JobSlot = Rc::new(RefCell::new(None));
        let (slot2, sources) = (slot.clone(), setup.sources.clone());
        // As `run_scidp`: the job launches after the mapping set-up cost,
        // once the mapped sources have been revalidated against the PFS.
        cluster.sim.after(setup.setup_cost, move |sim| {
            let reval = DataMapper::revalidate(&env.pfs.borrow(), &sources);
            if !matches!(reval, Ok(Revalidation::Current)) {
                *slot2.borrow_mut() = Some(Err(MrError::msg("sources changed under the mapping")));
                return;
            }
            submit_job_env(sim, env, job, move |_, r| *slot2.borrow_mut() = Some(r));
        });
        in_span(rec, "run", "mapreduce", || cluster.run());
        let job = slot
            .borrow_mut()
            .take()
            .ok_or("traced workflow did not run to completion")?
            .map_err(|e| e.to_string())?;
        Ok(PassOutcome::from_job(job, setup.setup_cost, 0))
    }

    fn traced_stats(
        &self,
        staged: &Staged,
        cluster: &mut Cluster,
        rec: &SharedRecorder,
    ) -> Result<PassOutcome, String> {
        let cfg = self.stats_config(staged);
        if cfg.cluster_cache_bytes > 0 {
            cluster.enable_cluster_cache(cfg.cluster_cache_bytes);
        }
        let env = cluster.env();
        let dag = in_span(rec, "setup", "scidp", || {
            stats_plan(&env, &staged.input, &cfg, rec)
        })?;
        in_span(rec, "run", "mapreduce", || run_dag(cluster, dag))
            .map(PassOutcome::from_dag)
            .map_err(|e| e.to_string())
    }

    fn traced_sql(
        &self,
        staged: &Staged,
        cluster: &mut Cluster,
        rec: &SharedRecorder,
    ) -> Result<PassOutcome, String> {
        let cfg = self.sql_config(staged, true);
        let env = cluster.env();
        let scale = cluster.sim.cost.scale;
        let job = in_span(rec, "setup", "scidp", || {
            sql_job(&env, &staged.input, &cfg, scale, rec)
        })?;
        in_span(rec, "run", "mapreduce", || run_job(cluster, job))
            .map(|job| PassOutcome::from_job(job, 0.0, 0))
            .map_err(|e| e.to_string())
    }
}

/// Charge simulated compute on the task and mirror it into the recorder
/// (a `DagResult` exposes no per-task phases, so this is the only view of
/// them the outside gets).
fn charge(ctx: &mut TaskCtx, rec: &SharedRecorder, phase: &'static str, secs: f64) {
    ctx.charge(phase, secs);
    rec.borrow_mut().charge(phase, secs);
}

/// `count,sum,min,max` partial-statistics line, as `scidp::workflow` writes it.
fn stats_line(count: u64, sum: f64, min: f64, max: f64) -> Vec<u8> {
    format!("{count},{sum:?},{min:?},{max:?}").into_bytes()
}

fn merge_stats(values: Vec<Payload>) -> Result<(u64, f64, f64, f64), MrError> {
    let mut acc = (0u64, 0.0f64, f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        let Payload::Bytes(b) = v else {
            return Err(MrError::msg("stats: expected byte payload"));
        };
        let line = String::from_utf8_lossy(&b);
        let fields: Vec<&str> = line.split(',').collect();
        let bad = || MrError::msg(format!("stats: malformed line {line:?}"));
        let &[c, s, mn, mx] = fields.as_slice() else {
            return Err(bad());
        };
        let c: u64 = c.parse().map_err(|_| bad())?;
        let num = |t: &str| t.parse::<f64>().map_err(|_| bad());
        let (s, mn, mx) = (num(s)?, num(mn)?, num(mx)?);
        acc = (acc.0 + c, acc.1 + s, acc.2.min(mn), acc.3.max(mx));
    }
    Ok(acc)
}

/// The plan of `scidp::build_stats_dag`, restated with traced splits and
/// closures: per-slab per-level partials → per-level merge → per-variable
/// roll-up.
fn stats_plan(
    env: &MrEnv,
    input_path: &str,
    cfg: &StatsDagConfig,
    rec: &SharedRecorder,
) -> Result<DagJob, String> {
    let mut input = ScidpInput::path(input_path)
        .vars(cfg.variables.clone())
        .chunk_split(cfg.chunk_split)
        .cache_bytes(cfg.cache_bytes);
    input.placement = cfg.placement.clone();
    let (splits, _setup) = make_splits(env, &input).map_err(|e| e.to_string())?;
    let splits = trace_splits(splits, rec);
    let r = rec.clone();
    let read: RecordReadFn = Rc::new(move |input, ctx| {
        in_span(&r, "map_fn", "scidp", || {
            let (_file, var, _dims, origin) =
                decode_tag(ctx.input_tag()).ok_or_else(|| MrError::msg("missing slab tag"))?;
            let TaskInput::Array(array) = input else {
                return Err(MrError::msg("stats pipeline expects scientific slabs"));
            };
            let &[levels, rows, cols] = array.shape() else {
                return Err(MrError::msg("stats pipeline expects 3-D slabs"));
            };
            let convert = ctx
                .cost()
                .binary_convert(array.len() * array.dtype().size());
            charge(ctx, &r, "convert", convert);
            let lev0 = origin.first().copied().unwrap_or(0);
            let mut out = Vec::with_capacity(levels);
            for l in 0..levels {
                let mut count = 0u64;
                let (mut sum, mut mn, mut mx) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
                for i in 0..rows {
                    for j in 0..cols {
                        let v = array.at(&[l, i, j]);
                        if v.is_finite() {
                            count += 1;
                            sum += v;
                            mn = mn.min(v);
                            mx = mx.max(v);
                        }
                    }
                }
                let analysis = ctx.cost().sql((rows * cols) as u64);
                charge(ctx, &r, "analysis", analysis);
                out.push((
                    format!("lvl/{var}/{:04}", lev0 + l),
                    Payload::Bytes(stats_line(count, sum, mn, mx)),
                ));
            }
            Ok(out)
        })
    });
    let r = rec.clone();
    let merge: AggFn = Rc::new(move |_key, values, _ctx| {
        in_span(&r, "reduce_fn", "scidp", || {
            let (c, s, mn, mx) = merge_stats(values)?;
            Ok(Payload::Bytes(stats_line(c, s, mn, mx)))
        })
    });
    let rekey: PairMapFn = Rc::new(|key, value, _ctx| match key.split('/').nth(1) {
        Some(var) => Ok(vec![(format!("var/{var}"), value)]),
        None => Err(MrError::msg(format!("stats: unexpected level key {key:?}"))),
    });
    let r = rec.clone();
    let rollup: AggFn = Rc::new(move |_key, values, _ctx| {
        in_span(&r, "reduce_fn", "scidp", || {
            let levels = values.len() as u64;
            let (c, s, mn, mx) = merge_stats(values)?;
            let mean = if c > 0 { s / c as f64 } else { 0.0 };
            Ok(Payload::Bytes(
                format!("levels={levels} count={c} min={mn:?} max={mx:?} mean={mean:?}")
                    .into_bytes(),
            ))
        })
    });
    let plan = Dataset::from_splits(splits, read)
        .reduce_by_key(cfg.level_partitions, merge)
        .map(rekey)
        .reduce_by_key(cfg.var_partitions, rollup);
    let mut dag = DagJob::new("nuwrf-stats", plan, cfg.output_dir.clone());
    dag.ft = cfg.ft.clone();
    dag.stream = cfg.stream.clone();
    Ok(dag)
}

/// The job of `scidp::run_sql_scan`, restated with traced splits and
/// closures: every slab runs the query, reducers concatenate per key.
fn sql_job(
    env: &MrEnv,
    input_path: &str,
    cfg: &SqlScanConfig,
    scale: f64,
    rec: &SharedRecorder,
) -> Result<Job, String> {
    let pred = if cfg.pushdown {
        rframe::sql::where_predicate(&cfg.sql).map_err(|e| e.to_string())?
    } else {
        None
    };
    let input = ScidpInput::path(input_path)
        .vars(cfg.variables.clone())
        .chunk_split(cfg.chunk_split)
        .cache_bytes(cfg.cache_bytes)
        .pushdown(pred);
    let (splits, _setup) = make_splits(env, &input).map_err(|e| e.to_string())?;
    let sql = cfg.sql.clone();
    let map_fn: MapFn = Rc::new(move |input, ctx| {
        let (file, var, dims, origin) =
            decode_tag(ctx.input_tag()).ok_or_else(|| MrError::msg("missing slab tag"))?;
        let frame = match input {
            TaskInput::Frame(frame) => {
                ctx.charge("convert", ctx.cost().binary_convert(frame.n_rows() * 4));
                frame
            }
            TaskInput::Array(array) => {
                let raw = array.len() * array.dtype().size();
                ctx.charge("convert", ctx.cost().binary_convert(raw));
                slab_to_frame(&dims, &origin, &array)?
            }
            TaskInput::Bytes(_) | TaskInput::Pairs(_) => {
                return Err(MrError::msg("SQL scan expects scientific slabs"))
            }
        };
        let logical_rows = (frame.n_rows() as f64 * scale) as u64;
        ctx.charge("analysis", ctx.cost().sql(logical_rows));
        let mut tables = HashMap::new();
        tables.insert("df", &frame);
        let out = rframe::sqldf(&sql, &tables).map_err(|e| MrError::msg(e.to_string()))?;
        let origin: Vec<String> = origin.iter().map(|o| o.to_string()).collect();
        ctx.emit(
            format!("sql/{file}/{var}/{}", origin.join(".")),
            Payload::Frame(out),
        );
        Ok(())
    });
    let reduce_fn: ReduceFn = Rc::new(move |key, values, ctx| {
        let frames: Vec<DataFrame> = values
            .into_iter()
            .filter_map(|v| match v {
                Payload::Frame(f) => Some(f),
                Payload::Bytes(_) => None,
            })
            .collect();
        let merged = DataFrame::concat(frames.iter()).map_err(|e| MrError::msg(e.to_string()))?;
        let logical_rows = (merged.n_rows() as f64 * scale) as u64;
        ctx.charge("analysis", ctx.cost().sql(logical_rows));
        ctx.emit(key, Payload::Frame(merged));
        Ok(())
    });
    Ok(Job::new(
        format!("sql-scan-pushdown-{}", cfg.pushdown),
        trace_splits(splits, rec),
        trace_map(map_fn, rec),
        Some(trace_reduce(reduce_fn, rec)),
        cfg.n_reducers,
        cfg.output_dir.clone(),
    ))
}
