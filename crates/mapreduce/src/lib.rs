//! # mapreduce — a Hadoop-like MapReduce engine on the simulated cluster
//!
//! Reproduces the execution substrate SciDP plugs into: jobs are split into
//! map tasks by an input format, scheduled onto per-node task slots with
//! **data-locality preference**, executed (the map/reduce closures really
//! run on real data), shuffled, reduced and written back to HDFS — while
//! every I/O goes through [`simnet`] flows and every compute phase is
//! charged through the [`simnet::CostModel`].
//!
//! SciDP's two Hadoop modifications map onto two extension points here:
//!
//! * `FileInputFormat.addInputPath` → any code can construct
//!   [`input::InputSplit`]s with a custom [`input::SplitFetcher`] — that is
//!   what `scidp`'s File Explorer / Data Mapper do;
//! * `MapTask`'s record reader → the fetcher runs *inside the task*,
//!   so SciDP's PFS Reader naturally overlaps its PFS reads with other
//!   tasks' compute, exactly the paper's overlap argument (§III-A.3).
//!
//! Per-task phase timings (startup / read / convert / plot / ... / spill)
//! are recorded in [`job::TaskReport`]s — Figure 7 is generated from them.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cluster;
pub mod counters;
pub mod dag;
pub mod dataset;
pub mod input;
pub mod job;

pub use cluster::{Cluster, MrEnv};
pub use counters::{keys as counter_keys, Counters};
pub use dag::{run_dag, submit_dag, DagJob, DagResult, StageRun};
pub use dataset::{
    decode_group, decode_join, encode_group, encode_join, AggFn, Dataset, PairFilterFn, PairMapFn,
    RecordReadFn,
};
pub use input::{
    collect_stream, hdfs_file_splits, retag_stream, FetchDone, FetchPiece, FetchResult,
    FlatPfsFetcher, HdfsBlockFetcher, InMemoryFetcher, InputSplit, PieceDone, PieceStream,
    SplitFetcher, StreamFallback, TaskInput,
};
pub use job::{
    run_job, submit_job_env, Floors, FtConfig, Job, JobResult, MapFn, MrError, Payload, ReduceFn,
    StreamConfig, TaskCtx, TaskKind, TaskReport,
};
