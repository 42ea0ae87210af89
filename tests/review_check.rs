//! Temporary review verification: concurrent HDFS block fetches and the
//! checksum_verified_bytes counter.

use scidp_suite::mapreduce::{
    self, counter_keys as keys, run_job, Cluster, Job, MrError, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, NodeId};
use std::rc::Rc;

#[test]
fn verified_bytes_under_concurrent_hdfs_fetches() {
    // One node with several slots so multiple map tasks (and their block
    // fetches) are in flight at the same virtual time.
    let spec = ClusterSpec {
        compute_nodes: 1,
        storage_nodes: 1,
        osts: 2,
        slots_per_node: 8,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 2,
        ..PfsConfig::default()
    };
    let mut c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    let file_len: usize = (1 << 16) * 4; // 4 full blocks
    scidp_suite::hdfs::write_file(
        &mut c.sim,
        &c.topo,
        &c.hdfs,
        NodeId(0),
        "in",
        vec![7u8; file_len],
        |_, r| r.unwrap(),
    );
    c.run();
    let env = c.env();
    let splits = mapreduce::hdfs_file_splits(&env, "in").expect("staged input path");
    assert_eq!(splits.len(), 4);
    let job = Job::new(
        "t",
        splits,
        Rc::new(|input, _ctx| {
            let TaskInput::Bytes(_) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            Ok(())
        }),
        None,
        1,
        "out",
    );
    let r = run_job(&mut c, job).unwrap();
    let verified = r.counters.get(keys::CHECKSUM_VERIFIED_BYTES);
    assert_eq!(
        verified, file_len as f64,
        "verified bytes must equal the file length exactly"
    );
}
