//! Figure 2: native HDFS vs the Lustre HDFS connector on Hadoop
//! micro-workloads (Terasort, Grep, TestDFSIO).
//!
//! The connector ("unified file system" deployment, Fig. 1(b)) services
//! *all* Hadoop I/O from the PFS: input reads, shuffle spills and outputs
//! cross the network to the OSS nodes (the Seagate connector is literally
//! "Diskless Hadoop on Lustre"). Native HDFS keeps input blocks, spills and
//! outputs on node-local disks. The paper measures native HDFS ~2-3x
//! faster; the same asymmetry emerges here structurally.

use std::rc::Rc;
use std::sync::Arc;

use mapreduce::{
    run_job, Cluster, FlatPfsFetcher, InMemoryFetcher, InputSplit, Job, MrError, Payload, TaskInput,
};
use pfs::PfsConfig;
use scirng::Rng;
use simnet::{ClusterSpec, CostModel, NodeId};

/// Which storage backs the Hadoop cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Native HDFS: local-disk blocks, local spills.
    Hdfs,
    /// Lustre connector: every byte crosses the network to the PFS.
    Connector,
}

/// The three Fig. 2 workloads (DFSIO split into its two phases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig2Workload {
    Terasort,
    Grep,
    TestDfsioWrite,
    TestDfsioRead,
}

impl Fig2Workload {
    pub const ALL: [Fig2Workload; 4] = [
        Fig2Workload::Terasort,
        Fig2Workload::Grep,
        Fig2Workload::TestDfsioWrite,
        Fig2Workload::TestDfsioRead,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Fig2Workload::Terasort => "Terasort",
            Fig2Workload::Grep => "Grep",
            Fig2Workload::TestDfsioWrite => "TestDFSIO-write",
            Fig2Workload::TestDfsioRead => "TestDFSIO-read",
        }
    }
}

/// Sizing knobs (real bytes; the cost model's `scale` lifts them to
/// paper-sized logical bytes).
#[derive(Clone, Debug)]
pub struct Fig2Config {
    pub nodes: usize,
    /// Real bytes of input per node.
    pub bytes_per_node: usize,
    /// Logical bytes per real byte.
    pub scale: f64,
    /// Real HDFS block size.
    pub block_size: usize,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            nodes: 8,
            bytes_per_node: 65_000,
            // 65 kB real → ~1 GiB logical per node.
            scale: 16384.0,
            // Multiple of the 100-byte record so block splits stay aligned.
            block_size: 16_000,
        }
    }
}

/// Build the Fig. 2 testbed: as many OSTs as Hadoop nodes (§II-B: "We use
/// eight OSTs and eight Hadoop nodes... replication factor to one").
fn fig2_cluster(cfg: &Fig2Config) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: cfg.nodes,
        storage_nodes: 2,
        osts: cfg.nodes,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: cfg.nodes,
        stripe_size: ((1 << 20) as f64 / cfg.scale).max(64.0) as usize,
        default_stripe_count: cfg.nodes,
    };
    let cost = CostModel {
        scale: cfg.scale,
        ..CostModel::default()
    };
    Cluster::new(spec, pfs_cfg, cfg.block_size, 1, cost)
}

/// Deterministic pseudo-random input: 100-byte records (10-byte key).
fn gen_records(seed: u64, bytes: usize) -> Vec<u8> {
    let mut rng = Rng::seed_from_u64(seed);
    let n = bytes / 100;
    let mut out = Vec::with_capacity(n * 100);
    for _ in 0..n {
        for _ in 0..10 {
            out.push(rng.byte_inclusive(b'A', b'Z'));
        }
        for _ in 0..90 {
            out.push(rng.byte_inclusive(b'a', b'z'));
        }
    }
    out
}

/// Stage an input file *untimed* (inputs pre-exist; only the workload is
/// measured).
fn stage_input(cluster: &mut Cluster, backend: Backend, path: &str, data: Vec<u8>, home: NodeId) {
    match backend {
        Backend::Hdfs => {
            let mut h = cluster.hdfs.borrow_mut();
            let block = h.namenode.block_size;
            h.namenode.create_file(path).expect("fresh path");
            let chunks: Vec<Vec<u8>> = data.chunks(block).map(<[u8]>::to_vec).collect();
            for c in chunks {
                let len = c.len() as u64;
                let crc = scirng::crc32c(&c);
                let id = h
                    .namenode
                    .add_block(path, len, vec![home], crc)
                    .expect("file exists");
                h.datanodes.put(home, id, Arc::new(c));
            }
        }
        Backend::Connector => {
            cluster.pfs.borrow_mut().create(path, data);
        }
    }
}

/// Input splits for a staged file under either backend.
fn input_splits(cluster: &Cluster, backend: Backend, path: &str) -> Vec<InputSplit> {
    let env = cluster.env();
    match backend {
        // scilint::allow(p-expect, reason = "harness staging precondition: stage_input created the path immediately above; a miss is a bug in the bench itself")
        Backend::Hdfs => mapreduce::hdfs_file_splits(&env, path).expect("staged input path"),
        Backend::Connector => {
            let len = cluster.pfs.borrow().len_of(path).expect("staged input");
            let block = cluster.hdfs.borrow().namenode.block_size;
            let mut out = Vec::new();
            let mut off = 0usize;
            while off < len {
                let l = block.min(len - off);
                out.push(InputSplit {
                    length: l as u64,
                    locations: Vec::new(),
                    fetcher: Rc::new(FlatPfsFetcher {
                        pfs_path: path.to_string(),
                        offset: off as u64,
                        len: l as u64,
                        sequential_chunks: 1,
                    }),
                });
                off += l;
            }
            out
        }
    }
}

fn apply_backend(job: &mut Job, backend: Backend) {
    if backend == Backend::Connector {
        job.spill_to_pfs = true;
        job.output_to_pfs = true;
    }
}

/// Run one workload under one backend; returns elapsed virtual seconds.
pub fn run_fig2_workload(w: Fig2Workload, backend: Backend, cfg: &Fig2Config) -> f64 {
    let mut cluster = fig2_cluster(cfg);
    match w {
        Fig2Workload::Terasort => terasort(&mut cluster, backend, cfg),
        Fig2Workload::Grep => grep(&mut cluster, backend, cfg),
        Fig2Workload::TestDfsioWrite => dfsio_write(&mut cluster, backend, cfg),
        Fig2Workload::TestDfsioRead => dfsio_read(&mut cluster, backend, cfg),
    }
}

fn stage_per_node_inputs(cluster: &mut Cluster, backend: Backend, cfg: &Fig2Config) -> Vec<String> {
    (0..cfg.nodes)
        .map(|n| {
            let path = format!("tera_in/part-{n:05}");
            let data = gen_records(0xf16_2000 + n as u64, cfg.bytes_per_node);
            stage_input(cluster, backend, &path, data, NodeId(n as u32));
            path
        })
        .collect()
}

fn terasort(cluster: &mut Cluster, backend: Backend, cfg: &Fig2Config) -> f64 {
    let files = stage_per_node_inputs(cluster, backend, cfg);
    let mut splits = Vec::new();
    for f in &files {
        splits.extend(input_splits(cluster, backend, f));
    }
    let mut job = Job::new(
        "terasort",
        splits,
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("terasort expects bytes"));
            };
            ctx.charge(
                "scan",
                ctx.cost().lbytes(b.len()) * ctx.cost().scan_per_byte,
            );
            // Range-partition by first key byte; records travel whole.
            for rec in b.chunks_exact(100) {
                let bucket = rec[0].saturating_sub(b'A');
                ctx.emit(format!("{bucket:02}"), Payload::Bytes(rec.to_vec()));
            }
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            // Real sort of this partition's records.
            let mut recs: Vec<Vec<u8>> = values
                .into_iter()
                .map(|v| match v {
                    Payload::Bytes(b) => b,
                    Payload::Frame(_) => Vec::new(),
                })
                .collect();
            recs.sort();
            let bytes: usize = recs.iter().map(Vec::len).sum();
            ctx.charge("sort", ctx.cost().lbytes(bytes) * ctx.cost().sort_per_byte);
            let mut out = Vec::with_capacity(bytes);
            for r in recs {
                out.extend_from_slice(&r);
            }
            ctx.emit(key, Payload::Bytes(out));
            Ok(())
        })),
        cfg.nodes,
        "tera_out",
    );
    apply_backend(&mut job, backend);
    run_job(cluster, job).expect("terasort succeeds").elapsed()
}

fn grep(cluster: &mut Cluster, backend: Backend, cfg: &Fig2Config) -> f64 {
    let files = stage_per_node_inputs(cluster, backend, cfg);
    let mut splits = Vec::new();
    for f in &files {
        splits.extend(input_splits(cluster, backend, f));
    }
    let mut job = Job::new(
        "grep",
        splits,
        Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("grep expects bytes"));
            };
            ctx.charge(
                "scan",
                ctx.cost().lbytes(b.len()) * ctx.cost().scan_per_byte,
            );
            // Real substring count.
            let pat = b"abc";
            let count = b.windows(pat.len()).filter(|w| w == pat).count();
            ctx.emit("abc", Payload::Bytes(count.to_string().into_bytes()));
            Ok(())
        }),
        Some(Rc::new(|key, values, ctx| {
            let total: usize = values
                .iter()
                .map(|v| match v {
                    Payload::Bytes(b) => String::from_utf8_lossy(b).parse::<usize>().unwrap_or(0),
                    _ => 0,
                })
                .sum();
            ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
            Ok(())
        })),
        1,
        "grep_out",
    );
    apply_backend(&mut job, backend);
    run_job(cluster, job).expect("grep succeeds").elapsed()
}

fn dfsio_write(cluster: &mut Cluster, backend: Backend, cfg: &Fig2Config) -> f64 {
    // One writer task per node, each writing bytes_per_node.
    let splits: Vec<InputSplit> = (0..cfg.nodes)
        .map(|_| InputSplit {
            length: 1,
            locations: Vec::new(),
            fetcher: Rc::new(InMemoryFetcher { data: vec![0] }),
        })
        .collect();
    let per_task = cfg.bytes_per_node;
    let mut job = Job::new(
        "dfsio-write",
        splits,
        Rc::new(move |_, ctx| {
            ctx.emit("data", Payload::Bytes(vec![0x5a; per_task]));
            Ok(())
        }),
        None,
        1,
        "dfsio_out",
    );
    apply_backend(&mut job, backend);
    run_job(cluster, job)
        .expect("dfsio write succeeds")
        .elapsed()
}

fn dfsio_read(cluster: &mut Cluster, backend: Backend, cfg: &Fig2Config) -> f64 {
    let files = stage_per_node_inputs(cluster, backend, cfg);
    let mut splits = Vec::new();
    for f in &files {
        splits.extend(input_splits(cluster, backend, f));
    }
    let mut job = Job::new(
        "dfsio-read",
        splits,
        Rc::new(|input, _| {
            let TaskInput::Bytes(_) = input else {
                return Err(MrError::msg("dfsio expects bytes"));
            };
            Ok(())
        }),
        None,
        1,
        "dfsio_read_out",
    );
    apply_backend(&mut job, backend);
    run_job(cluster, job)
        .expect("dfsio read succeeds")
        .elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> Fig2Config {
        Fig2Config {
            nodes: 4,
            bytes_per_node: 16_000,
            scale: 8192.0,
            block_size: 4_000,
        }
    }

    #[test]
    fn native_hdfs_beats_connector_on_every_workload() {
        let cfg = small_cfg();
        for w in Fig2Workload::ALL {
            let hdfs = run_fig2_workload(w, Backend::Hdfs, &cfg);
            let conn = run_fig2_workload(w, Backend::Connector, &cfg);
            assert!(
                conn > hdfs,
                "{}: connector ({conn:.1}s) should be slower than HDFS ({hdfs:.1}s)",
                w.name()
            );
        }
    }

    #[test]
    fn average_connector_slowdown_is_paper_scale() {
        // Paper: native HDFS outperforms the connector by ~221% on average
        // (i.e. ~2-3x). Accept 1.3x-6x as the same shape.
        let cfg = small_cfg();
        let mut ratios = Vec::new();
        for w in Fig2Workload::ALL {
            let hdfs = run_fig2_workload(w, Backend::Hdfs, &cfg);
            let conn = run_fig2_workload(w, Backend::Connector, &cfg);
            ratios.push(conn / hdfs);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(avg > 1.3, "avg slowdown {avg:.2} too small: {ratios:?}");
        assert!(
            avg < 6.0,
            "avg slowdown {avg:.2} implausibly large: {ratios:?}"
        );
    }

    #[test]
    fn terasort_output_is_sorted_and_complete() {
        let cfg = small_cfg();
        let mut cluster = fig2_cluster(&cfg);
        let t = terasort(&mut cluster, Backend::Hdfs, &cfg);
        assert!(t > 0.0);
        let h = cluster.hdfs.borrow();
        let outs = h.namenode.list_files_recursive("tera_out").unwrap();
        assert!(!outs.is_empty());
        let total: u64 = outs.iter().map(|f| f.len).sum();
        // All records survive (plus key\t...\n framing per reduce group).
        let records = (cfg.bytes_per_node / 100) * cfg.nodes;
        assert!(total as usize >= records * 100);
    }

    #[test]
    fn deterministic_input_generation() {
        assert_eq!(gen_records(7, 1000), gen_records(7, 1000));
        assert_ne!(gen_records(7, 1000), gen_records(8, 1000));
        assert_eq!(gen_records(7, 1000).len(), 1000);
    }
}
