//! # scidp — Scientific Data Processing (the paper's contribution)
//!
//! SciDP lets the Hadoop-side `mapreduce` engine process scientific data
//! that lives on the PFS **without copying it to HDFS and without
//! converting it to text**. Three components (paper §III, Fig. 3):
//!
//! * **File Explorer** ([`explorer`]) — the Path Reader lists the PFS input
//!   directory; the Sci-format Head Reader probes each file (`nc_open` /
//!   `H5Fis_hdf5` style) and classifies it as *flat* or *scientific*,
//!   extracting container metadata for the latter.
//! * **Data Mapper** ([`mapper`]) — mirrors each scientific file as a
//!   directory tree on HDFS (one virtual file per variable, subdirectories
//!   per group) and fills the NameNode's Virtual Mapping Table with
//!   *dummy blocks*: chunk-aligned by default, optionally split for finer
//!   task granularity, with variable-level subsetting.
//! * **PFS Reader** ([`reader`]) — inside each map task, fetches the
//!   block's compressed chunks straight from the PFS with whole-extent
//!   single reads, decompresses, and assembles the hyperslab. Reads from
//!   concurrent tasks proceed in parallel and overlap with other tasks'
//!   compute.
//!
//! On top sits the **R interface** ([`rapi`], [`workflow`]): map/reduce
//! functions receive slabs as R data frames, plot levels with `image2d`,
//! analyse with `sqldf`, and store results to HDFS — the NU-WRF case study
//! of §IV.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod explorer;
pub mod mapper;
pub mod pushdown;
pub mod rapi;
pub mod reader;
pub mod stats;
pub mod workflow;

pub use error::ScidpError;
pub use explorer::{parse_pfs_path, ExploreReport, ExploredFile, FileExplorer, FileFormat};
pub use mapper::{DataMapper, MappedBlock, MapperOptions, Mapping, Revalidation};
pub use rapi::{
    decode_tag, derived_raster, encode_slab_tag, make_splits, wrap_r_map, wrap_r_reduce, MapSlab,
    Placement, PlacementSpec, RCtx, RJob, RMapFn, RReduceFn, ScidpInput, SetupInfo,
};
pub use reader::SciSlabFetcher;
pub use stats::level_stats;
pub use workflow::{
    build_rjob, build_stats_dag, nuwrf_map_fn, nuwrf_reduce_fn, run_scidp, run_sql_scan,
    run_stats_dag, Analysis, SqlScanConfig, StatsDagConfig, WorkflowConfig, WorkflowReport,
};
