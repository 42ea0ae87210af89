//! The combined simulated-cluster world: simulator + topology + both file
//! systems. Every experiment builds one of these.

use std::cell::RefCell;
use std::rc::Rc;

use pfs::{Pfs, PfsConfig, SharedPfs};
use simnet::{ClusterCache, ClusterSpec, CostModel, FlowNet, Sim, SimTime, Topology};

use hdfs::{Hdfs, SharedHdfs};

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

    /// Paper-default cluster (§V-A): 8 Hadoop nodes, 2 OSS / 24 OSTs.
    pub fn paper_default(block_size: usize, cost: CostModel) -> Cluster {
        let spec = ClusterSpec::default();
        let pfs_cfg = PfsConfig {
            n_osts: spec.osts,
            ..PfsConfig::default()
        };
        Cluster::new(spec, pfs_cfg, block_size, 1, cost)
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
    fn paper_default_shape() {
        let c = Cluster::paper_default(1 << 20, CostModel::default());
        assert_eq!(c.topo.n_compute(), 8);
        assert_eq!(c.topo.n_osts(), 24);
        assert_eq!(c.env().slots_per_node, 8);
        assert_eq!(c.hdfs.borrow().datanodes.n_nodes(), 8);
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
