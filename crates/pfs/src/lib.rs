//! # pfs — a Lustre-like parallel file system on the simulated cluster
//!
//! Reproduces the storage side of the paper's testbed: an MDS-managed
//! namespace whose files are **striped** across OST disks hosted by OSS
//! storage nodes. Real bytes are stored in memory (the data path is real);
//! reads and writes are *timed* by creating [`simnet`] flows along
//! `OST disk → OSS NIC → core switch → client NIC` paths, so concurrent
//! readers genuinely contend for OSS bandwidth the way the paper's Figure 6
//! measures.
//!
//! Modules:
//! * [`layout`] — stripe math: which OST serves which byte range;
//! * [`fs`] — the MDS namespace + in-memory object store;
//! * [`client`] — timed `read_at`/`write_new` operations.
//!
//! The three HPC series of Figure 6 (NC independent, NC collective, MPI
//! collective) are request patterns over [`read_at`], modelled where they
//! are measured: `chained_reads` in the bench crate's `fig6` experiment.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod fs;
pub mod layout;

pub use client::{read_at, read_file, write_new, PfsError};
pub use fs::{Pfs, PfsConfig, PfsFile, SharedPfs};
pub use layout::{Segment, StripeLayout};
