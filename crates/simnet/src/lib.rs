//! # simnet — a deterministic discrete-event cluster simulator
//!
//! `simnet` is the timing substrate for the SciDP reproduction. The paper's
//! evaluation ran on two physical clusters (a Hadoop cluster and a Lustre
//! storage cluster on TACC Chameleon); here every byte that would have moved
//! through a disk, a NIC or the core switch instead moves through a
//! *flow-level* network model with **max–min fair bandwidth sharing**, and
//! every compute phase is charged a calibrated virtual cost.
//!
//! The simulator is:
//!
//! * **deterministic** — events are ordered by `(time, sequence-number)`, so
//!   every run of the same program produces bit-identical timings;
//! * **flow-level** — a transfer is a [`flow::Flow`] over a path of
//!   [`flow::Resource`]s (disk, NIC tx/rx, switch fabric); concurrent flows
//!   sharing a resource split its capacity max–min fairly, which is the
//!   standard first-order model for TCP-like bandwidth allocation;
//! * **callback-driven** — [`Sim::at`]/[`Sim::after`] schedule closures, and
//!   [`Sim::start_flow`] invokes a completion closure when the last byte
//!   arrives; [`Sim::disk_transfer`] is the one timed disk transfer (RPC,
//!   seek, data flow), [`Sim::net_transfer`] the one transfer between two
//!   compute nodes, under the one link rule [`Sim::link`] (hangs,
//!   partitions, slow links), and [`countdown`] the one N-way completion
//!   join the storage clients and shuffles share.
//!
//! Higher layers (`pfs`, `hdfs`, `mapreduce`) build file systems and a
//! MapReduce engine on top; *real* data still flows through those layers (the
//! bytes are genuinely stored, compressed, parsed and plotted) while `simnet`
//! accounts for the time that would have elapsed on the paper's testbed.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod cost;
pub mod event;
pub mod fault;
pub mod flow;
pub mod time;
pub mod topology;

pub use cache::{ChunkKey, ClusterCache, ClusterCacheStats};
pub use cost::CostModel;
pub use event::{countdown, Sim};
pub use fault::{
    CorruptSpec, FaultInjector, FaultPlan, FaultPlanError, PartitionSpec, ReadOutcome,
};
pub use flow::{FlowId, FlowNet, Resource, ResourceId};
pub use time::SimTime;
pub use topology::{ClusterSpec, NodeId, StorageNodeId, Topology};
