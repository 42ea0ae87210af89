//! `distcp`-style PFS ↔ HDFS copying, with configurable parallelism.
//!
//! The copy step of vanilla Hadoop and SciHadoop ("accelerated by the
//! parallel copy in distcp") and the naive solution's one-stream serial
//! copy are both expressed here: a work queue of files drained by
//! `streams` concurrent copiers spread round-robin over the compute nodes.

use std::cell::RefCell;
use std::rc::Rc;

use mapreduce::{Cluster, MrEnv};
use simnet::{NodeId, Sim};

/// Copy outcome.
#[derive(Clone, Debug)]
pub struct CopyReport {
    /// Virtual seconds from start to the last commit.
    pub elapsed: f64,
    /// Real bytes copied.
    pub bytes: u64,
    pub files: usize,
}

struct CopyState {
    env: MrEnv,
    queue: Vec<(String, String)>,
    next: usize,
    active: usize,
    bytes: u64,
    start: f64,
    #[allow(clippy::type_complexity)]
    done: Option<Box<dyn FnOnce(&mut Sim, CopyReport)>>,
}

type Shared = Rc<RefCell<CopyState>>;

#[allow(clippy::only_used_in_recursion)]
fn pump(sim: &mut Sim, st: &Shared, worker: usize, streams: usize) {
    let (src, dst, node) = {
        let mut s = st.borrow_mut();
        if s.next >= s.queue.len() {
            if s.active == 0 {
                if let Some(cb) = s.done.take() {
                    let rep = CopyReport {
                        elapsed: sim.now().secs() - s.start,
                        bytes: s.bytes,
                        files: s.queue.len(),
                    };
                    drop(s);
                    cb(sim, rep);
                }
            }
            return;
        }
        let (src, dst) = s.queue[s.next].clone();
        s.next += 1;
        s.active += 1;
        let n_nodes = s.env.topo.n_compute();
        (src, dst, NodeId((worker % n_nodes) as u32))
    };
    let env = st.borrow().env.clone();
    let st2 = st.clone();
    pfs::read_file(sim, &env.topo, &env.pfs, node, &src, move |sim, data| {
        let data = data.expect("copy source exists");
        let len = data.len() as u64;
        let env2 = st2.borrow().env.clone();
        let written = move |sim: &mut Sim, res: Result<(), hdfs::HdfsError>| {
            res.expect("copy destination free");
            {
                let mut s = st2.borrow_mut();
                s.active -= 1;
                s.bytes += len;
            }
            pump(sim, &st2, worker, streams);
        };
        hdfs::write_file(sim, &env2.topo, &env2.hdfs, node, dst, data, written);
    });
}

/// Copy `(pfs_src, hdfs_dst)` pairs with `streams` concurrent copiers.
/// `streams = 1` reproduces the naive serial copy.
pub fn distcp(
    cluster: &mut Cluster,
    files: Vec<(String, String)>,
    streams: usize,
    done: impl FnOnce(&mut Sim, CopyReport) + 'static,
) {
    assert!(streams >= 1);
    let st: Shared = Rc::new(RefCell::new(CopyState {
        env: cluster.env(),
        queue: files,
        next: 0,
        active: 0,
        bytes: 0,
        start: cluster.sim.now().secs(),
        done: Some(Box::new(done)),
    }));
    let n = streams.min(st.borrow().queue.len()).max(1);
    for w in 0..n {
        pump(&mut cluster.sim, &st, w, streams);
    }
}

/// Convenience: run the copy to completion, return the report.
pub fn distcp_blocking(
    cluster: &mut Cluster,
    files: Vec<(String, String)>,
    streams: usize,
) -> CopyReport {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    distcp(cluster, files, streams, move |_, r| {
        *o.borrow_mut() = Some(r);
    });
    cluster.run();
    let report = out.borrow_mut().take().expect("copy completed");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{paper_cluster, stage_nuwrf};
    use wrfgen::WrfSpec;

    fn staged_cluster() -> (Cluster, Vec<(String, String)>) {
        let wspec = WrfSpec::tiny(4);
        let mut c = paper_cluster(4, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let files: Vec<(String, String)> = ds
            .info
            .files
            .iter()
            .map(|f| {
                (
                    f.clone(),
                    format!("staging/{}", f.rsplit('/').next().unwrap()),
                )
            })
            .collect();
        (c, files)
    }

    #[test]
    fn copies_land_on_hdfs_bytes_exact() {
        let (mut c, files) = staged_cluster();
        let rep = distcp_blocking(&mut c, files.clone(), 4);
        assert_eq!(rep.files, 4);
        assert!(rep.elapsed > 0.0);
        let h = c.hdfs.borrow();
        for (src, dst) in &files {
            let src_len = c.pfs.borrow().len_of(src).unwrap() as u64;
            assert_eq!(h.namenode.file_len(dst).unwrap(), src_len);
        }
        assert_eq!(rep.bytes as usize, c.hdfs.borrow().datanodes.total_bytes());
    }

    #[test]
    fn parallel_copy_beats_serial() {
        let (mut c1, files1) = staged_cluster();
        let serial = distcp_blocking(&mut c1, files1, 1).elapsed;
        let (mut c2, files2) = staged_cluster();
        let parallel = distcp_blocking(&mut c2, files2, 8).elapsed;
        assert!(
            serial > 1.5 * parallel,
            "parallel copy not faster: serial={serial}, parallel={parallel}"
        );
    }

    #[test]
    fn empty_copy_completes() {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(2, &wspec);
        let rep = distcp_blocking(&mut c, vec![], 4);
        assert_eq!(rep.files, 0);
        assert_eq!(rep.bytes, 0);
    }
}
