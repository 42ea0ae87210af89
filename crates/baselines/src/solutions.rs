//! Runners for the five compared solutions (Fig. 5 / Table III).
//!
//! Each runner drives one solution end-to-end on a fresh cluster world and
//! reports its copy time and processing time separately (the paper plots
//! them stacked); conversion time is carried alongside but excluded from
//! totals, as in the paper.

use std::cell::RefCell;
use std::rc::Rc;

use mapreduce::{
    run_job, Cluster, FetchResult, FlatPfsFetcher, InputSplit, Job, JobResult, MrEnv, MrError,
    SplitFetcher, TaskCtx, TaskInput,
};
use scidp::{
    derived_raster, nuwrf_map_fn, nuwrf_reduce_fn, wrap_r_map, wrap_r_reduce, WorkflowConfig,
};
use simnet::{NodeId, ResourceId, Sim};

use crate::convert::ConversionReport;
use crate::datapath::SolutionKind;
use crate::distcp::distcp_blocking;
use crate::scihadoop::scihadoop_splits;
use crate::textjob::{process_text, tag_split, text_map_fn};
use crate::util::StagedDataset;

/// One solution's measured run.
#[derive(Clone, Debug)]
pub struct SolutionReport {
    pub solution: SolutionKind,
    /// Offline conversion time (reported, excluded from [`Self::total`]).
    pub conversion_time: f64,
    pub copy_time: f64,
    pub process_time: f64,
    pub job: Option<JobResult>,
}

impl SolutionReport {
    /// Copy + processing, the quantity Fig. 5 stacks.
    pub fn total(&self) -> f64 {
        self.copy_time + self.process_time
    }
}

fn raster_for(cfg: &WorkflowConfig, scale: f64) -> (u32, u32) {
    if cfg.raster == (0, 0) {
        derived_raster(cfg.logical_image, scale)
    } else {
        cfg.raster
    }
}

/// Reads a whole HDFS file (all blocks, sequentially) — the baselines
/// process one text file per map task to keep records aligned.
struct HdfsWholeFileFetcher {
    path: String,
}

impl SplitFetcher for HdfsWholeFileFetcher {
    fn fetch(&self, env: &MrEnv, sim: &mut Sim, node: NodeId, done: mapreduce::FetchDone) {
        let path = self.path.clone();
        let read = move |sim: &mut Sim, data: Result<Vec<u8>, hdfs::HdfsError>| {
            let fetched = data.map(|data| FetchResult::plain(TaskInput::Bytes(data)));
            let fetched = fetched.map_err(|e| MrError::msg(format!("hdfs: {e} ({path})")));
            done(sim, fetched);
        };
        hdfs::read_file(sim, &env.topo, &env.hdfs, node, &self.path, read);
    }

    fn describe(&self) -> String {
        format!("hdfs-file://{}", self.path)
    }
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

/// The naive solution: one serial copy stream to a single node, then
/// fully sequential parse+plot on that node (no Hadoop at all).
pub fn run_naive(
    cluster: &mut Cluster,
    conv: &ConversionReport,
    cfg: &WorkflowConfig,
) -> SolutionReport {
    let env = cluster.env();
    let scale = cluster.sim.cost.scale;
    let raster = raster_for(cfg, scale);
    let node = NodeId(0);
    let Some(disk) = env.topo.path_local_disk(node) else {
        // Every topology has a node 0: without one there is nothing to time.
        return SolutionReport {
            solution: SolutionKind::Naive,
            conversion_time: conv.conversion_time,
            copy_time: f64::NAN,
            process_time: f64::NAN,
            job: None,
        };
    };

    // Phase 1: serial copy of every text file onto node 0's local disk.
    let files = conv.text_files.clone();
    let copy_end: Rc<RefCell<f64>> = Rc::new(RefCell::new(0.0));
    {
        struct St {
            env: MrEnv,
            /// Node 0's local disk, where every copy lands and is read back.
            disk: Vec<ResourceId>,
            files: Vec<String>,
            idx: usize,
            copy_end: Rc<RefCell<f64>>,
            process_cfg: (WorkflowConfig, (u32, u32), f64),
            process_idx: usize,
            done_at: Rc<RefCell<f64>>,
        }
        let done_at: Rc<RefCell<f64>> = Rc::new(RefCell::new(0.0));
        let st = Rc::new(RefCell::new(St {
            env: env.clone(),
            disk,
            files,
            idx: 0,
            copy_end: copy_end.clone(),
            process_cfg: (cfg.clone(), raster, scale),
            process_idx: 0,
            done_at: done_at.clone(),
        }));

        fn copy_step(sim: &mut Sim, st: &Rc<RefCell<St>>, node: NodeId) {
            let (path, env) = {
                let s = st.borrow();
                if s.idx >= s.files.len() {
                    *s.copy_end.borrow_mut() = sim.now().secs();
                    drop(s);
                    process_step(sim, st);
                    return;
                }
                (s.files[s.idx].clone(), s.env.clone())
            };
            st.borrow_mut().idx += 1;
            let st2 = st.clone();
            pfs::read_file(sim, &env.topo, &env.pfs, node, &path, move |sim, data| {
                // Land on the local disk.
                let bytes = sim.cost.lbytes(data.expect("converted text present").len());
                let disk = st2.borrow().disk.clone();
                let st3 = st2.clone();
                sim.start_flow(disk, bytes, move |sim| copy_step(sim, &st3, node));
            });
        }

        fn process_step(sim: &mut Sim, st: &Rc<RefCell<St>>) {
            let (path, env, disk, cfg, raster, scale) = {
                let s = st.borrow();
                if s.process_idx >= s.files.len() {
                    *s.done_at.borrow_mut() = sim.now().secs();
                    return;
                }
                let (c, r, sc) = s.process_cfg.clone();
                let path = s.files[s.process_idx].clone();
                (path, s.env.clone(), s.disk.clone(), c, r, sc)
            };
            st.borrow_mut().process_idx += 1;
            // Local disk read of the staged copy.
            let len = env.pfs.borrow().len_of(&path).expect("copied file");
            let read_flow = sim.cost.lbytes(len);
            let st2 = st.clone();
            let env2 = env.clone();
            sim.start_flow(disk.clone(), read_flow, move |sim| {
                // The real payload, identical to the Hadoop text path but
                // contention-free (no parallel penalty: the paper notes the
                // naive plot is slightly faster per level).
                let text = env2.pfs.borrow().file(&path).unwrap().data.clone();
                let mut ctx = TaskCtx::standalone(sim.cost.clone());
                ctx.set_tag(path.rsplit('/').next().unwrap_or(&path).to_string());
                process_text(&text, &mut ctx, &cfg, raster, scale)
                    .expect("naive processing succeeds");
                let out_bytes: usize = ctx
                    .take_emitted()
                    .iter()
                    .map(|(k, v)| k.len() + v.approx_bytes())
                    .sum();
                let compute = ctx.total_charge_s();
                let st3 = st2.clone();
                sim.after(compute, move |sim| {
                    // Write images to the local disk.
                    let w = sim.cost.lbytes(out_bytes);
                    sim.start_flow(disk, w, move |sim| process_step(sim, &st3));
                });
            });
        }

        copy_step(&mut cluster.sim, &st, node);
        cluster.run();
        let copy_time = *copy_end.borrow();
        let end = *done_at.borrow();
        SolutionReport {
            solution: SolutionKind::Naive,
            conversion_time: conv.conversion_time,
            copy_time,
            process_time: end - copy_time,
            job: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Vanilla Hadoop
// ---------------------------------------------------------------------------

/// Vanilla Hadoop: parallel distcp of the converted text to HDFS, then a
/// MapReduce job parsing the text with `read.table` and plotting.
pub fn run_vanilla(
    cluster: &mut Cluster,
    conv: &ConversionReport,
    cfg: &WorkflowConfig,
) -> SolutionReport {
    let scale = cluster.sim.cost.scale;
    let raster = raster_for(cfg, scale);
    let streams = cluster.topo.spec.total_slots();
    let pairs: Vec<(String, String)> = conv
        .text_files
        .iter()
        .map(|f| {
            (
                f.clone(),
                format!("staging_text/{}", f.rsplit('/').next().unwrap()),
            )
        })
        .collect();
    let staged: Vec<String> = pairs.iter().map(|(_, d)| d.clone()).collect();
    let copy = distcp_blocking(cluster, pairs, streams);
    let env = cluster.env();
    let splits: Vec<InputSplit> = staged
        .iter()
        .map(|p| {
            let len = env.hdfs.borrow().namenode.file_len(p).unwrap();
            tag_split(
                InputSplit {
                    length: len,
                    locations: {
                        let h = env.hdfs.borrow();
                        let blocks = h.namenode.blocks(p).unwrap();
                        blocks
                            .iter()
                            .flat_map(|b| b.locations().iter().copied())
                            .fold(Vec::new(), |mut acc, n| {
                                if !acc.contains(&n) {
                                    acc.push(n);
                                }
                                acc
                            })
                    },
                    fetcher: Rc::new(HdfsWholeFileFetcher { path: p.clone() }),
                },
                p.rsplit('/').next().unwrap().to_string(),
            )
        })
        .collect();
    let job = Job::new(
        "vanilla-imgonly",
        splits,
        text_map_fn(cfg, raster, scale),
        Some(wrap_r_reduce(
            nuwrf_reduce_fn(),
            cfg.logical_image,
            raster,
            scale,
        )),
        cfg.n_reducers,
        format!("{}_vanilla", cfg.output_dir),
    );
    let result = run_job(cluster, job).expect("vanilla job succeeds");
    SolutionReport {
        solution: SolutionKind::VanillaHadoop,
        conversion_time: conv.conversion_time,
        copy_time: copy.elapsed,
        process_time: result.elapsed(),
        job: Some(result),
    }
}

// ---------------------------------------------------------------------------
// PortHadoop
// ---------------------------------------------------------------------------

/// PortHadoop: no copy — virtual blocks map the *text* files on the PFS and
/// each map task fetches its file directly (Yang et al., Big Data'15). The
/// conversion is still unavoidable because PortHadoop has no scientific
/// format support.
pub fn run_porthadoop(
    cluster: &mut Cluster,
    conv: &ConversionReport,
    cfg: &WorkflowConfig,
) -> SolutionReport {
    run_porthadoop_with_chunks(cluster, conv, cfg, 1)
}

/// PortHadoop with an explicit PFS read granularity (`sequential_chunks`
/// back-to-back requests per block) — the read-size ablation of §III-A.3.
pub fn run_porthadoop_with_chunks(
    cluster: &mut Cluster,
    conv: &ConversionReport,
    cfg: &WorkflowConfig,
    sequential_chunks: usize,
) -> SolutionReport {
    let scale = cluster.sim.cost.scale;
    let raster = raster_for(cfg, scale);
    let env = cluster.env();
    let splits: Vec<InputSplit> = conv
        .text_files
        .iter()
        .map(|p| {
            let len = env.pfs.borrow().len_of(p).unwrap();
            tag_split(
                InputSplit {
                    length: len as u64,
                    locations: Vec::new(), // virtual blocks carry none
                    fetcher: Rc::new(FlatPfsFetcher {
                        pfs_path: p.clone(),
                        offset: 0,
                        len: len as u64,
                        sequential_chunks,
                    }),
                },
                p.rsplit('/').next().unwrap().to_string(),
            )
        })
        .collect();
    let job = Job::new(
        "porthadoop-imgonly",
        splits,
        text_map_fn(cfg, raster, scale),
        Some(wrap_r_reduce(
            nuwrf_reduce_fn(),
            cfg.logical_image,
            raster,
            scale,
        )),
        cfg.n_reducers,
        format!("{}_porthadoop", cfg.output_dir),
    );
    let result = run_job(cluster, job).expect("porthadoop job succeeds");
    SolutionReport {
        solution: SolutionKind::PortHadoop,
        conversion_time: conv.conversion_time,
        copy_time: 0.0,
        process_time: result.elapsed(),
        job: Some(result),
    }
}

// ---------------------------------------------------------------------------
// SciHadoop
// ---------------------------------------------------------------------------

/// SciHadoop: no conversion, but a whole-file parallel copy to HDFS
/// (all 23 variables — the redundant I/O of §IV-B), then scientific-aware
/// processing identical to SciDP's R program.
pub fn run_scihadoop(
    cluster: &mut Cluster,
    ds: &StagedDataset,
    cfg: &WorkflowConfig,
) -> SolutionReport {
    let scale = cluster.sim.cost.scale;
    let raster = raster_for(cfg, scale);
    let streams = cluster.topo.spec.total_slots();
    let pairs: Vec<(String, String)> = ds
        .info
        .files
        .iter()
        .map(|f| {
            (
                f.clone(),
                format!("staging_bin/{}", f.rsplit('/').next().unwrap()),
            )
        })
        .collect();
    let copy = distcp_blocking(cluster, pairs.clone(), streams);
    let env = cluster.env();
    let mut splits = Vec::new();
    for (src, dst) in &pairs {
        let bytes = cluster.pfs.borrow().file(src).unwrap().data.clone();
        let meta = scifmt::SncMeta::parse(&bytes).expect("staged container parses");
        splits.extend(scihadoop_splits(&env, &meta, dst, &cfg.variables));
    }
    let job = Job::new(
        "scihadoop-imgonly",
        splits,
        wrap_r_map(nuwrf_map_fn(cfg), cfg.logical_image, raster, scale),
        Some(wrap_r_reduce(
            nuwrf_reduce_fn(),
            cfg.logical_image,
            raster,
            scale,
        )),
        cfg.n_reducers,
        format!("{}_scihadoop", cfg.output_dir),
    );
    let result = run_job(cluster, job).expect("scihadoop job succeeds");
    SolutionReport {
        solution: SolutionKind::SciHadoop,
        conversion_time: 0.0,
        copy_time: copy.elapsed,
        process_time: result.elapsed(),
        job: Some(result),
    }
}

// ---------------------------------------------------------------------------
// SciDP
// ---------------------------------------------------------------------------

/// SciDP itself, wrapped in the common report shape.
pub fn run_scidp_solution(
    cluster: &mut Cluster,
    ds: &StagedDataset,
    cfg: &WorkflowConfig,
) -> SolutionReport {
    let rep = scidp::run_scidp(cluster, &ds.pfs_uri(), cfg).expect("scidp workflow succeeds");
    SolutionReport {
        solution: SolutionKind::SciDp,
        conversion_time: 0.0,
        copy_time: 0.0,
        process_time: rep.total_time(),
        job: Some(rep.job),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert_dataset;
    use crate::util::{paper_cluster, stage_nuwrf};
    use wrfgen::WrfSpec;

    fn cfg() -> WorkflowConfig {
        WorkflowConfig {
            n_reducers: 2,
            ..WorkflowConfig::img_only(["QR"])
        }
    }

    fn run_all(timestamps: usize) -> Vec<SolutionReport> {
        let wspec = WrfSpec::tiny(timestamps);
        let cfg = cfg();
        let mut out = Vec::new();
        // Naive
        {
            let mut c = paper_cluster(8, &wspec);
            let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
            let conv = convert_dataset(&mut c, &ds, &cfg.variables);
            out.push(run_naive(&mut c, &conv, &cfg));
        }
        // Vanilla
        {
            let mut c = paper_cluster(8, &wspec);
            let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
            let conv = convert_dataset(&mut c, &ds, &cfg.variables);
            out.push(run_vanilla(&mut c, &conv, &cfg));
        }
        // PortHadoop
        {
            let mut c = paper_cluster(8, &wspec);
            let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
            let conv = convert_dataset(&mut c, &ds, &cfg.variables);
            out.push(run_porthadoop(&mut c, &conv, &cfg));
        }
        // SciHadoop
        {
            let mut c = paper_cluster(8, &wspec);
            let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
            out.push(run_scihadoop(&mut c, &ds, &cfg));
        }
        // SciDP
        {
            let mut c = paper_cluster(8, &wspec);
            let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
            out.push(run_scidp_solution(&mut c, &ds, &cfg));
        }
        out
    }

    #[test]
    fn paper_ordering_holds() {
        let reports = run_all(4);
        let t = |k: SolutionKind| {
            reports
                .iter()
                .find(|r| r.solution == k)
                .map(|r| r.total())
                .unwrap()
        };
        let naive = t(SolutionKind::Naive);
        let vanilla = t(SolutionKind::VanillaHadoop);
        let porthadoop = t(SolutionKind::PortHadoop);
        let scihadoop = t(SolutionKind::SciHadoop);
        let scidp = t(SolutionKind::SciDp);
        // Fig. 5 / Table III shape: naive ≫ vanilla > porthadoop >
        // scihadoop > scidp, with SciDP winning by a large factor.
        assert!(naive > vanilla, "naive {naive} vs vanilla {vanilla}");
        assert!(
            vanilla > porthadoop,
            "vanilla {vanilla} vs port {porthadoop}"
        );
        assert!(
            porthadoop > scihadoop,
            "port {porthadoop} vs scihadoop {scihadoop}"
        );
        assert!(scihadoop > scidp, "scihadoop {scihadoop} vs scidp {scidp}");
        // (the tiny 4-file test dataset limits the parallelism advantage;
        // fig5's 96-768 file runs reproduce the paper's hundreds-x.)
        assert!(
            naive / scidp > 8.0,
            "naive/scidp speedup too small: {}",
            naive / scidp
        );
        // At this tiny scale (4 files, 3 variables) the copy advantage is
        // compressed; the fig5 harness (96-768 files, 23 variables)
        // reproduces the paper's 6-8x. Here we only require the ordering
        // plus a visible gap.
        assert!(
            scihadoop / scidp > 1.1,
            "scihadoop/scidp speedup too small: {}",
            scihadoop / scidp
        );
    }

    #[test]
    fn conversion_is_reported_but_not_counted() {
        let reports = run_all(2);
        for r in &reports {
            match r.solution {
                SolutionKind::Naive | SolutionKind::VanillaHadoop | SolutionKind::PortHadoop => {
                    assert!(r.conversion_time > 0.0, "{:?}", r.solution);
                    assert!(r.total() < r.conversion_time + r.total());
                }
                _ => assert_eq!(r.conversion_time, 0.0),
            }
        }
    }

    #[test]
    fn copy_structure_matches_table1() {
        let reports = run_all(2);
        let by = |k: SolutionKind| reports.iter().find(|r| r.solution == k).unwrap().clone();
        assert!(by(SolutionKind::Naive).copy_time > 0.0);
        assert!(by(SolutionKind::VanillaHadoop).copy_time > 0.0);
        assert_eq!(by(SolutionKind::PortHadoop).copy_time, 0.0);
        assert!(by(SolutionKind::SciHadoop).copy_time > 0.0);
        assert_eq!(by(SolutionKind::SciDp).copy_time, 0.0);
        // SciHadoop copies whole files (23x one variable's data): its copy
        // must dwarf vanilla's one-variable text copy per byte moved...
        // at minimum, it must be nonzero and bigger than SciDP's.
    }
}
