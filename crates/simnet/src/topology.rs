//! Cluster topology: compute nodes, storage nodes, OSTs and the core switch.
//!
//! Mirrors the paper's testbed (§V-A): a Hadoop cluster of compute nodes
//! (one SATA disk, 10 GbE NIC each) and a Lustre storage cluster (MGS/MDS
//! plus OSS nodes fronting many OST disks), all hanging off a core switch.
//! The topology allocates one [`Resource`](crate::Resource) per contended
//! pipe and answers *path* queries ("which resources does a remote read
//! cross?") that the file-system layers feed to [`crate::Sim::start_flow`].

use crate::flow::{FlowNet, ResourceId};

/// A compute (Hadoop) node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A storage (Lustre OSS) node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StorageNodeId(pub u32);

/// Hardware parameters of the simulated cluster.
///
/// Defaults follow the Chameleon testbed of §V-A: 8 Hadoop nodes on 10 GbE
/// with one 7200 RPM SATA disk each; 2 OSS nodes managing 24 OSTs total.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub compute_nodes: usize,
    pub storage_nodes: usize,
    /// OST disks spread round-robin across storage nodes.
    pub osts: usize,
    /// Map/reduce slots per compute node (the paper runs 8 tasks/node).
    pub slots_per_node: usize,
    /// Local SATA disk bandwidth, bytes/s.
    pub disk_bw: f64,
    /// Per-OST (SAS disk) bandwidth, bytes/s.
    pub ost_bw: f64,
    /// NIC bandwidth per direction, bytes/s (10 GbE).
    pub nic_bw: f64,
    /// Core switch fabric aggregate bandwidth, bytes/s.
    pub core_bw: f64,
    /// HDD stream-interference coefficient for local disks and OSTs
    /// (see [`crate::flow::Resource::thrash`]).
    pub disk_thrash: f64,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            compute_nodes: 8,
            storage_nodes: 2,
            osts: 24,
            slots_per_node: 8,
            disk_bw: 120.0e6,
            ost_bw: 110.0e6,
            nic_bw: 1.25e9,
            core_bw: 40.0e9,
            disk_thrash: 0.06,
        }
    }
}

impl ClusterSpec {
    /// Total map/reduce slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.compute_nodes * self.slots_per_node
    }
}

#[derive(Clone, Debug)]
struct ComputeRes {
    disk: ResourceId,
    tx: ResourceId,
    rx: ResourceId,
}

/// One OST: its disk, and the NIC of the OSS node that fronts it.
#[derive(Clone, Debug)]
struct OstRes {
    disk: ResourceId,
    tx: ResourceId,
    rx: ResourceId,
}

/// Resolved topology: resource ids for every pipe, plus path helpers.
#[derive(Clone, Debug)]
pub struct Topology {
    pub spec: ClusterSpec,
    compute: Vec<ComputeRes>,
    /// Every OST, by global OST index.
    osts: Vec<OstRes>,
    pub core: ResourceId,
}

impl Topology {
    /// Allocate resources for `spec` inside `net`.
    pub fn build(net: &mut FlowNet, spec: ClusterSpec) -> Topology {
        assert!(spec.compute_nodes > 0, "need at least one compute node");
        assert!(spec.storage_nodes > 0, "need at least one storage node");
        assert!(spec.osts >= spec.storage_nodes, "need >= 1 OST per OSS");
        let core = net.add_resource("core-switch", spec.core_bw);
        let compute = (0..spec.compute_nodes)
            .map(|i| ComputeRes {
                disk: net.add_resource_thrash(format!("c{i}.disk"), spec.disk_bw, spec.disk_thrash),
                tx: net.add_resource(format!("c{i}.tx"), spec.nic_bw),
                rx: net.add_resource(format!("c{i}.rx"), spec.nic_bw),
            })
            .collect();
        let oss: Vec<(ResourceId, ResourceId)> = (0..spec.storage_nodes)
            .map(|i| {
                let tx = net.add_resource(format!("s{i}.tx"), spec.nic_bw);
                (tx, net.add_resource(format!("s{i}.rx"), spec.nic_bw))
            })
            .collect();
        // OSTs round-robin across the OSS nodes.
        let round_robin = (0..spec.osts).zip(oss.iter().enumerate().cycle());
        let osts = round_robin
            .map(|(o, (s, &(tx, rx)))| OstRes {
                disk: net.add_resource_thrash(
                    format!("s{s}.ost{o}"),
                    spec.ost_bw,
                    spec.disk_thrash,
                ),
                tx,
                rx,
            })
            .collect();
        Topology {
            spec,
            compute,
            osts,
            core,
        }
    }

    pub fn n_compute(&self) -> usize {
        self.compute.len()
    }

    pub fn n_osts(&self) -> usize {
        self.osts.len()
    }

    /// All compute node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.compute.len() as u32).map(NodeId)
    }

    fn c(&self, n: NodeId) -> Option<&ComputeRes> {
        self.compute.get(n.0 as usize)
    }

    // Every path below is `None` when a node or OST it names is not in the
    // topology: there is no route, and the caller fails the operation.

    /// Path for a read or write against the node's local disk.
    pub fn path_local_disk(&self, n: NodeId) -> Option<Vec<ResourceId>> {
        Some(vec![self.c(n)?.disk])
    }

    /// Path for a network transfer between two compute nodes. A transfer to
    /// self crosses nothing (loopback) and is modelled as memory-speed.
    pub fn path_net(&self, src: NodeId, dst: NodeId) -> Option<Vec<ResourceId>> {
        if src == dst {
            return Some(Vec::new());
        }
        Some(vec![self.c(src)?.tx, self.core, self.c(dst)?.rx])
    }

    /// Path for reading a remote node's disk over the network (HDFS remote
    /// block read: disk -> src NIC -> core -> dst NIC).
    pub fn path_remote_disk_read(&self, owner: NodeId, reader: NodeId) -> Option<Vec<ResourceId>> {
        if owner == reader {
            return self.path_local_disk(owner);
        }
        let (owner, reader) = (self.c(owner)?, self.c(reader)?);
        Some(vec![owner.disk, owner.tx, self.core, reader.rx])
    }

    /// Path for writing to a remote node's disk over the network.
    pub fn path_remote_disk_write(&self, writer: NodeId, owner: NodeId) -> Option<Vec<ResourceId>> {
        if owner == writer {
            return self.path_local_disk(owner);
        }
        let (writer, owner) = (self.c(writer)?, self.c(owner)?);
        Some(vec![writer.tx, self.core, owner.rx, owner.disk])
    }

    /// Path for a PFS client on `dst` reading from global OST `ost`.
    pub fn path_ost_read(&self, ost: usize, dst: NodeId) -> Option<Vec<ResourceId>> {
        let ost = self.osts.get(ost)?;
        Some(vec![ost.disk, ost.tx, self.core, self.c(dst)?.rx])
    }

    /// Path for a PFS client on `src` writing to global OST `ost`.
    pub fn path_ost_write(&self, src: NodeId, ost: usize) -> Option<Vec<ResourceId>> {
        let ost = self.osts.get(ost)?;
        Some(vec![self.c(src)?.tx, self.core, ost.rx, ost.disk])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_expected_resource_count() {
        let mut net = FlowNet::new();
        let spec = ClusterSpec::default();
        let t = Topology::build(&mut net, spec.clone());
        // core + 3 per compute + 2 per storage + osts
        let expect = 1 + 3 * spec.compute_nodes + 2 * spec.storage_nodes + spec.osts;
        assert_eq!(net.n_resources(), expect);
        assert_eq!(t.n_compute(), spec.compute_nodes);
        assert_eq!(t.n_osts(), spec.osts);
    }

    #[test]
    fn osts_round_robin_across_oss() {
        let mut net = FlowNet::new();
        let t = Topology::build(
            &mut net,
            ClusterSpec {
                storage_nodes: 2,
                osts: 5,
                ..ClusterSpec::default()
            },
        );
        // OSTs 0, 2 and 4 sit behind OSS 0's NIC, 1 and 3 behind OSS 1's.
        let nic = |o: usize| (t.osts[o].tx, t.osts[o].rx);
        assert_eq!(nic(0), nic(4));
        assert_ne!(nic(0), nic(1));
        assert_eq!(nic(1), nic(3));
    }

    #[test]
    fn loopback_is_free() {
        let mut net = FlowNet::new();
        let t = Topology::build(&mut net, ClusterSpec::default());
        assert_eq!(t.path_net(NodeId(0), NodeId(0)), Some(Vec::new()));
        assert_eq!(
            t.path_remote_disk_read(NodeId(1), NodeId(1)).unwrap().len(),
            1
        );
    }

    #[test]
    fn remote_paths_cross_core() {
        let mut net = FlowNet::new();
        let t = Topology::build(&mut net, ClusterSpec::default());
        let p = t.path_net(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(p.len(), 3);
        assert!(p.contains(&t.core));
        let p = t.path_ost_read(3, NodeId(2)).unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.contains(&t.core));
    }

    #[test]
    fn a_node_or_ost_outside_the_topology_has_no_route() {
        let mut net = FlowNet::new();
        let t = Topology::build(&mut net, ClusterSpec::default());
        let (n, off) = (t.n_compute() as u32, NodeId(t.n_compute() as u32));
        assert_eq!(t.path_local_disk(off), None);
        assert_eq!(t.path_net(NodeId(0), off), None);
        assert_eq!(t.path_net(off, NodeId(n - 1)), None);
        assert_eq!(t.path_remote_disk_read(off, NodeId(0)), None);
        assert_eq!(t.path_remote_disk_write(NodeId(0), off), None);
        assert_eq!(t.path_ost_read(t.n_osts(), NodeId(0)), None);
        assert_eq!(t.path_ost_write(off, 0), None);
    }
}
