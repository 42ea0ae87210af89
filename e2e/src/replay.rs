//! Kernel replay: the program's public kernel functions called directly,
//! outside the simulator, on exactly the chunk frames, slabs, rasters and
//! frames one pass consumed — the only way to put a host-clock number on
//! work that happens inside fetch callbacks the benchmark cannot wrap.
//!
//! The work is enumerated from the staged containers and the workload's
//! job configuration, then cross-checked against the pass's own counters:
//! a replay that measured different work than the pass did is a hard error.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mapreduce::counter_keys as keys;
use mapreduce::Counters;
use rframe::{image2d, ColorMap, DataFrame, MatchBound, Predicate};
use scidp::derived_raster;
use scidp::pushdown::{assemble_frame, chunk_col_stats};
use scidp::rapi::slab_to_frame;
use scifmt::snc::{assemble_slab, chunk_extents_of};
use scifmt::{Array, ChunkExtent, SncMeta, VarMeta};

use crate::report::{median, Values};
use crate::workloads::{Kind, Shape, Staged, Workload};

/// Repetitions of the read-path kernels (median reported).
const READ_REPS: usize = 3;

/// One slab a map task receives: with chunk-aligned mapping and
/// `chunk_split = 1` that is exactly one chunk of one variable.
struct Slab<'a> {
    path: &'a str,
    bytes: &'a Arc<Vec<u8>>,
    var: Arc<VarMeta>,
    ext: ChunkExtent,
    /// Zone maps prove the pushdown predicate false for the whole chunk.
    pruned: bool,
}

impl Slab<'_> {
    fn frame(&self) -> &[u8] {
        let start = self.ext.offset as usize;
        &self.bytes[start..start + self.ext.clen as usize]
    }

    fn dims(&self) -> Vec<String> {
        self.var.dims.iter().map(|d| d.name.clone()).collect()
    }
}

/// Every chunk of `vars` in every staged file, in split order.
fn slabs<'a>(
    staged: &'a Staged,
    vars: &[String],
    pred: Option<&Predicate>,
) -> Result<Vec<Slab<'a>>, String> {
    let mut out = Vec::new();
    for (path, bytes) in &staged.files {
        let meta = SncMeta::parse(bytes).map_err(|e| format!("{path}: {e:?}"))?;
        for name in vars {
            let var = Arc::new(
                meta.var(name)
                    .map_err(|e| format!("{path}: {e:?}"))?
                    .clone(),
            );
            let dims: Vec<String> = var.dims.iter().map(|d| d.name.clone()).collect();
            for ext in chunk_extents_of(&var, meta.data_offset) {
                let elems: usize = ext.shape.iter().product();
                let pruned = pred.is_some_and(|p| {
                    let stats = |col: &str| {
                        chunk_col_stats(
                            &dims,
                            &ext.origin,
                            &ext.shape,
                            ext.zone.as_ref(),
                            elems as u64,
                            col,
                        )
                    };
                    p.prune(&stats) == MatchBound::None
                });
                out.push(Slab {
                    path,
                    bytes,
                    var: var.clone(),
                    ext,
                    pruned,
                });
            }
        }
    }
    Ok(out)
}

/// Names of every variable the dataset holds (the write path covers all
/// of them, whatever subset the job reads).
fn dataset_vars(staged: &Staged) -> Result<Vec<String>, String> {
    let (path, bytes) = staged.files.first().ok_or("no staged files")?;
    let meta = SncMeta::parse(bytes).map_err(|e| format!("{path}: {e:?}"))?;
    Ok(meta.all_vars().into_iter().map(|(name, _)| name).collect())
}

/// Host seconds per replayed kernel, summed over slabs.
#[derive(Default)]
struct Kernels {
    assemble_s: f64,
    to_frame_s: f64,
    mask_s: f64,
    sqldf_s: f64,
    image2d_s: f64,
    png_s: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `reps` runs of `f`.
fn median_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

fn rate(mib: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        mib / secs
    } else {
        0.0
    }
}

fn expect_eq(what: &str, replayed: f64, counted: f64) -> Result<(), String> {
    if replayed == counted {
        Ok(())
    } else {
        Err(format!(
            "replay cross-check failed: {what}: replay did {replayed}, the pass counted {counted}"
        ))
    }
}

/// Replay the kernels of one pass of `w` and return the replay metrics.
/// `counters` and `images` are the reference pass's own accounting.
pub fn replay(
    w: &Workload,
    staged: &Staged,
    counters: &Counters,
    images: u64,
) -> Result<Values, String> {
    let mut m = Values::default();
    let sql = (w.kind == Kind::SqlPushdown).then(|| w.sql_config(staged, true).sql);
    let pred = match &sql {
        Some(q) => rframe::sql::where_predicate(q).map_err(|e| e.to_string())?,
        None => None,
    };
    let all = slabs(staged, &w.variables(staged), pred.as_ref())?;
    let live: Vec<&Slab> = all.iter().filter(|s| !s.pruned).collect();
    let get = |k: &str| counters.get(k);

    // What the pass says it did with those chunks. Failed attempts drop
    // their counters but keep their cache inserts, so under the chaos plan
    // only the conservation law holds, not the exact miss count.
    let (hits, misses) = (get(keys::CHUNK_CACHE_HITS), get(keys::CHUNK_CACHE_MISSES));
    let cluster_hits = get(keys::CLUSTER_CACHE_HITS);
    expect_eq(
        "chunks covered (job-cache hits + misses + cluster-cache hits)",
        live.len() as f64,
        hits + misses + cluster_hits,
    )?;
    expect_eq(
        "chunks pruned by zone maps",
        (all.len() - live.len()) as f64,
        get(keys::CHUNKS_SKIPPED_ZONEMAP),
    )?;
    let exact = w.kind != Kind::NuwrfImgChaos;
    // Chunks the pass read from the PFS, verified and decoded: all live
    // ones on a cold cache, none once the cluster cache serves them.
    let decoded: &[&Slab] = if misses > 0.0 { &live } else { &[] };
    if exact {
        expect_eq("chunks decoded", decoded.len() as f64, misses)?;
        let stored: u64 = decoded.iter().map(|s| s.ext.clen).sum();
        expect_eq(
            "bytes CRC-verified",
            stored as f64,
            get(keys::CHECKSUM_VERIFIED_BYTES),
        )?;
    }

    // --- read path: CRC32C, decompress ---
    let stored_mib = mib(decoded.iter().map(|s| s.ext.clen).sum());
    let raw_mib = mib(decoded.iter().map(|s| s.ext.rlen).sum());
    let mut crc_mismatches = 0usize;
    let crc_s = median_of(READ_REPS, || {
        for s in decoded {
            if black_box(scirng::crc32c(black_box(s.frame()))) != s.ext.crc {
                crc_mismatches += 1;
            }
        }
    });
    if crc_mismatches > 0 {
        return Err(format!(
            "{crc_mismatches} staged chunk frames fail their stored CRC"
        ));
    }
    let decompress_s = median_of(READ_REPS, || {
        for s in decoded {
            black_box(
                scifmt::codec::decompress(black_box(s.frame())).expect("staged chunk decodes"),
            );
        }
    });
    m.set("scirng.crc32c_host_s", crc_s);
    m.set("scirng.crc32c_mib_per_s", rate(stored_mib, crc_s));
    m.set("scifmt.decompress_host_s", decompress_s);
    m.set("scifmt.decompress_mib_per_s", rate(raw_mib, decompress_s));

    // --- per slab, in pipeline order: assemble, then the map-side kernels
    // on the freshly assembled slab. Nothing is kept across slabs, so the
    // kernels see the same warm caches and recycled allocations they see
    // inside a pass (a replay that first built all slabs and then walked
    // them measured page faults instead: 3x the in-run assembly time).
    let image_raster = match (&staged.shape, w.kind) {
        (Shape::Wrf(spec), Kind::NuwrfImg | Kind::NuwrfImgChaos | Kind::SmallTasks) => {
            Some(derived_raster((1200, 1200), spec.scale_factor()))
        }
        _ => None,
    };
    let mut t = Kernels::default();
    let (mut masked_rows, mut plotted) = (0u64, 0u64);
    for s in &all {
        // A pruned chunk is never read, but its map task still runs, on
        // the empty frame the reader assembles for it.
        let raw = if s.pruned {
            None
        } else {
            Some(Arc::new(
                scifmt::codec::decompress(s.frame()).map_err(|e| format!("{}: {e:?}", s.path))?,
            ))
        };
        if let Some(pred) = &pred {
            let (mut chunks, mut skipped) = (HashMap::new(), HashSet::new());
            match &raw {
                Some(raw) => drop(chunks.insert(s.ext.index, raw.clone())),
                None => drop(skipped.insert(s.ext.index)),
            }
            let (frame, dt) = timed(|| {
                assemble_frame(
                    &s.var,
                    &s.dims(),
                    &s.ext.origin,
                    &s.ext.shape,
                    &chunks,
                    &skipped,
                )
            });
            let frame = frame?;
            t.to_frame_s += dt;
            masked_rows += frame.n_rows() as u64;
            let (filtered, dt) = timed(|| {
                let mask = pred.eval_mask(&frame).map_err(|e| e.to_string())?;
                frame.filter(&mask).map_err(|e| e.to_string())
            });
            let filtered = filtered?;
            t.mask_s += dt;
            let tables: HashMap<&str, &DataFrame> = [("df", &filtered)].into();
            let q = sql.as_deref().unwrap_or_default();
            let (out, dt) = timed(|| rframe::sqldf(q, &tables));
            black_box(out.map_err(|e| e.to_string())?);
            t.sqldf_s += dt;
            continue;
        }
        let Some(raw) = raw else { continue };
        let (array, dt) =
            timed(|| assemble_slab(&s.var, &s.ext.origin, &s.ext.shape, |_| Ok(raw.as_slice())));
        let array: Array = array.map_err(|e| format!("assemble: {e:?}"))?;
        t.assemble_s += dt;
        let Some(raster) = image_raster else { continue };
        let (frame, dt) = timed(|| slab_to_frame(&s.dims(), &s.ext.origin, &array));
        black_box(frame.map_err(|e| e.to_string())?);
        t.to_frame_s += dt;
        let &[levels, rows, cols] = array.shape() else {
            return Err("image slab is not 3-D".into());
        };
        for l in 0..levels {
            // The grid gather is the map closure's own work, not
            // image2d's; it stays in the closure's remainder.
            let grid: Vec<f64> = (0..rows * cols)
                .map(|k| array.get_f64(l * rows * cols + k))
                .collect();
            let (r, dt) = timed(|| image2d(&grid, rows, cols, raster.0, raster.1, ColorMap::Jet));
            let r = r.map_err(|e| e.to_string())?;
            t.image2d_s += dt;
            t.png_s += timed(|| black_box(r.to_png())).1;
            plotted += 1;
        }
    }
    expect_eq(
        "rows masked",
        masked_rows as f64,
        get(keys::VECTORISED_ROWS),
    )?;
    if image_raster.is_some() {
        expect_eq("images encoded", plotted as f64, images as f64)?;
    }
    if exact && !matches!(w.kind, Kind::ScanStats | Kind::ScanStatsWarm) {
        // (A DAG's merged `map_tasks` also counts its post-shuffle stages.)
        expect_eq("slabs delivered", all.len() as f64, get(keys::MAP_TASKS))?;
    }
    m.set("scifmt.assemble_host_s", t.assemble_s);
    m.set("scidp.slab_to_frame_host_s", t.to_frame_s);
    m.set("rframe.eval_mask_host_s", t.mask_s);
    m.set("rframe.sqldf_host_s", t.sqldf_s);
    m.set("rframe.image2d_host_s", t.image2d_s);
    m.set("rframe.png_host_s", t.png_s);

    // --- write path (what `setup_s` pays): compress, synth ---
    let written = slabs(staged, &dataset_vars(staged)?, None)?;
    let mut compress_s = 0.0;
    for s in &written {
        let raw = scifmt::codec::decompress(s.frame()).map_err(|e| format!("{}: {e:?}", s.path))?;
        compress_s += timed(|| black_box(scifmt::codec::compress(s.var.codec, black_box(&raw)))).1;
    }
    m.set("scifmt.compress_host_s", compress_s);
    m.set(
        "scifmt.compress_mib_per_s",
        rate(mib(written.iter().map(|s| s.ext.rlen).sum()), compress_s),
    );
    if let Shape::Wrf(spec) = &staged.shape {
        let (_, synth_s) = timed(|| {
            for t in 0..spec.timestamps {
                for vi in 0..spec.n_vars {
                    let mut rng = wrfgen::field::field_rng(spec.seed, t, vi);
                    let (base, amp) = wrfgen::field::var_range(vi);
                    black_box(wrfgen::field::smooth_field(
                        &mut rng,
                        spec.levels,
                        spec.lat,
                        spec.lon,
                        base,
                        amp,
                    ));
                }
            }
        });
        m.set("wrfgen.synth_host_s", synth_s);
    }
    Ok(m)
}
