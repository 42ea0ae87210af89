//! # hdfs — an HDFS-like distributed file system on the simulated cluster
//!
//! Provides the big-data storage substrate of the paper: a **NameNode**
//! holding a directory tree and per-file block lists, **DataNodes** storing
//! real block bytes on each compute node's local disk, locality-aware block
//! placement, and timed read/write paths through [`simnet`].
//!
//! Two features matter specifically for SciDP:
//!
//! * **dummy blocks** ([`block::VirtualBlock`]) — blocks that carry *no*
//!   data, only a descriptor mapping them to a byte range (PortHadoop
//!   style) or a variable hyperslab (SciDP style) of a file on the PFS.
//!   The paper implements these inside the NameNode ("virtual blocks are
//!   created in NameNode accordingly"), and so do we: the Virtual Mapping
//!   Table lives in [`namenode::NameNode`].
//! * **locality** — a block read from the node holding a replica touches
//!   only the local disk; a remote read crosses the network. This asymmetry
//!   is what makes native HDFS beat the Lustre connector in Figure 2.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod block;
pub mod client;
pub mod datanode;
pub mod namenode;

use std::cell::RefCell;
use std::rc::Rc;

pub use block::{block_fault_key, Block, BlockId, BlockKind, VirtualBlock};
pub use client::{read_block, read_file, write_file, HdfsError, HedgeConfig, ReadEvents};
pub use datanode::DataNodes;
pub use namenode::{EditLog, EditOp, FileStatus, NameNode, NsError};

/// Combined HDFS state (NameNode + DataNodes).
#[derive(Debug)]
pub struct Hdfs {
    pub namenode: NameNode,
    pub datanodes: DataNodes,
    /// Hedged-read policy (`None` = off; see [`client::HedgeConfig`]).
    pub hedge: Option<HedgeConfig>,
}

impl Hdfs {
    /// `n_nodes` DataNodes; `block_size` in real bytes; `replication` as in
    /// `dfs.replication` (the paper uses 1).
    pub fn new(n_nodes: usize, block_size: usize, replication: usize) -> Hdfs {
        Hdfs {
            namenode: NameNode::new(n_nodes, block_size, replication),
            datanodes: DataNodes::new(n_nodes),
            hedge: None,
        }
    }

    /// Simulate a NameNode kill + restart: throw away the in-memory
    /// namespace and rebuild it from the journal (last fsimage checkpoint
    /// plus the edit-log tail). DataNode block stores are untouched, as in
    /// real HDFS, where block data outlives the master.
    pub fn restart_namenode(&mut self) {
        let journal = self.namenode.journal().clone();
        let (n, bs, repl) = (
            self.namenode.n_nodes(),
            self.namenode.block_size,
            self.namenode.replication,
        );
        self.namenode = NameNode::recover(&journal, n, bs, repl);
    }

    pub fn shared(n_nodes: usize, block_size: usize, replication: usize) -> SharedHdfs {
        Rc::new(RefCell::new(Hdfs::new(n_nodes, block_size, replication)))
    }
}

/// Shared handle used inside simulator callbacks (single-threaded sim).
pub type SharedHdfs = Rc<RefCell<Hdfs>>;
