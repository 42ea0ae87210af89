//! The combined simulated-cluster world: simulator + topology + both file
//! systems. Every experiment builds one of these.

use std::cell::RefCell;
use std::rc::Rc;

use pfs::{Pfs, PfsConfig, SharedPfs};
use simnet::{ClusterCache, ClusterSpec, CostModel, FlowNet, Sim, SimTime, Topology};

use hdfs::{Hdfs, HdfsError, SharedHdfs};

use crate::job::MrError;

/// Handles a task needs to reach the world from inside sim callbacks.
#[derive(Clone)]
pub struct MrEnv {
    pub topo: Topology,
    pub pfs: SharedPfs,
    pub hdfs: SharedHdfs,
    /// Concurrent task slots per compute node (8 in the paper).
    pub slots_per_node: usize,
    /// Cluster-wide chunk-cache registry shared by every job and DAG stage
    /// in this world (disabled — zero capacity — unless a workload turns
    /// it on via [`Cluster::cluster_cache`]).
    pub cluster_cache: Rc<ClusterCache>,
}

/// Completion callback of work started under [`Cluster::run_to_completion`].
pub type Completion<T> = Box<dyn FnOnce(&mut Sim, Result<T, MrError>)>;

/// The full simulated world: one Hadoop cluster + one PFS storage cluster.
pub struct Cluster {
    pub sim: Sim,
    pub topo: Topology,
    pub pfs: SharedPfs,
    pub hdfs: SharedHdfs,
    /// Cluster chunk-cache tier (see [`simnet::ClusterCache`]); disabled
    /// by default so existing workloads are timing-identical.
    pub cluster_cache: Rc<ClusterCache>,
}

impl Cluster {
    /// Build a cluster. `block_size` is the HDFS block size in *real*
    /// bytes; `replication` is `dfs.replication` (the paper uses 1).
    pub fn new(
        spec: ClusterSpec,
        pfs_cfg: PfsConfig,
        block_size: usize,
        replication: usize,
        cost: CostModel,
    ) -> Cluster {
        assert_eq!(
            pfs_cfg.n_osts, spec.osts,
            "PFS OST count must match the topology"
        );
        let mut sim = Sim::with_cost(cost);
        let mut net = std::mem::replace(&mut sim.net, FlowNet::new());
        let topo = Topology::build(&mut net, spec.clone());
        sim.net = net;
        let pfs = Pfs::shared(pfs_cfg);
        let hdfs = Hdfs::shared(spec.compute_nodes, block_size, replication);
        Cluster {
            sim,
            topo,
            pfs,
            hdfs,
            cluster_cache: Rc::new(ClusterCache::new(0)),
        }
    }

    /// Turn on the cluster chunk-cache tier with `per_node_bytes` of chunk
    /// memory per compute node.
    pub fn enable_cluster_cache(&self, per_node_bytes: u64) {
        self.cluster_cache.set_per_node_capacity(per_node_bytes);
    }

    /// Shared handles for tasks.
    pub fn env(&self) -> MrEnv {
        MrEnv {
            topo: self.topo.clone(),
            pfs: self.pfs.clone(),
            hdfs: self.hdfs.clone(),
            slots_per_node: self.topo.spec.slots_per_node,
            cluster_cache: Rc::clone(&self.cluster_cache),
        }
    }

    /// The committed files under HDFS directory `dir` (attempt-scoped and
    /// driver-internal `_*` entries excluded), sorted by path, each with
    /// its blocks concatenated from their first live replica.
    pub fn read_output(&self, dir: &str) -> Result<Vec<(String, Vec<u8>)>, HdfsError> {
        let h = self.hdfs.borrow();
        let mut files = h.namenode.list_files_recursive(dir)?;
        files.retain(|f| !f.path.contains("/_"));
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let mut out = Vec::with_capacity(files.len());
        for f in files {
            let mut data = Vec::with_capacity(f.len as usize);
            for b in h.namenode.blocks(&f.path)? {
                let replica = b.locations().iter().find_map(|&n| h.datanodes.get(n, b.id));
                data.extend_from_slice(&replica.ok_or(HdfsError::NoReplica)?);
            }
            out.push((f.path, data));
        }
        Ok(out)
    }

    /// Drain the event queue; returns final virtual time.
    pub fn run(&mut self) -> SimTime {
        self.sim.run()
    }

    /// Start asynchronous work through `submit` — which is handed the
    /// completion callback to pass on — drain the event queue, and return
    /// what the callback delivered; an error naming `what` if the queue
    /// drained without it ever being called.
    pub fn run_to_completion<T: 'static>(
        &mut self,
        what: &str,
        submit: impl FnOnce(&mut Cluster, Completion<T>),
    ) -> Result<T, MrError> {
        let slot: Rc<RefCell<Option<Result<T, MrError>>>> = Rc::default();
        let filled = slot.clone();
        submit(self, Box::new(move |_, r| *filled.borrow_mut() = Some(r)));
        self.run();
        let delivered = slot.borrow_mut().take();
        delivered.unwrap_or_else(|| {
            Err(MrError::msg(format!(
                "{what} did not complete before the sim drained"
            )))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_output_reads_back_in_path_order_or_a_typed_error() {
        use simnet::NodeId;
        let spec = ClusterSpec::default();
        let pfs_cfg = PfsConfig {
            n_osts: spec.osts,
            ..PfsConfig::default()
        };
        // 4-byte blocks: every file spans several.
        let mut c = Cluster::new(spec, pfs_cfg, 4, 1, CostModel::default());
        for (path, data) in [
            ("out/part-1", &b"second file"[..]),
            ("out/part-0", b"first"),
            ("out/_tmp/attempt-7", b"uncommitted"),
        ] {
            hdfs::write_file(
                &mut c.sim,
                &c.topo,
                &c.hdfs,
                NodeId(0),
                path,
                data.to_vec(),
                |_, r| r.unwrap(),
            );
        }
        c.run();
        let files = c.read_output("out").unwrap();
        assert_eq!(
            files,
            vec![
                ("out/part-0".to_string(), b"first".to_vec()),
                ("out/part-1".to_string(), b"second file".to_vec()),
            ]
        );
        assert!(matches!(c.read_output("nowhere"), Err(HdfsError::Ns(_))));
        // A block none of whose replicas holds the bytes is an error, not a panic.
        let lost = c.hdfs.borrow().namenode.blocks("out/part-0").unwrap()[0].id;
        c.hdfs.borrow_mut().datanodes.reclaim(&[lost]);
        assert_eq!(c.read_output("out"), Err(HdfsError::NoReplica));
    }

    #[test]
    #[should_panic(expected = "OST count")]
    fn mismatched_ost_config_panics() {
        let spec = ClusterSpec::default();
        let pfs_cfg = PfsConfig {
            n_osts: spec.osts + 1,
            ..PfsConfig::default()
        };
        Cluster::new(spec, pfs_cfg, 1024, 1, CostModel::default());
    }
}
