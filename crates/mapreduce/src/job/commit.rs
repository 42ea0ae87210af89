//! Task output: partitioning, grouping, serialization and the part-file
//! commit protocol. The classic job driver and the DAG engine both build on
//! these.

use std::collections::BTreeMap;

use simnet::{CostModel, NodeId, Sim};

use super::attempt::{commit_task, Attempt};
use super::{Kv, MrError, Payload};
use crate::counters::{keys, Counters};

/// One committed map output: where it lives and its per-downstream-task
/// partitions.
#[derive(Clone)]
pub(crate) struct MapOutput {
    pub node: NodeId,
    pub parts: Vec<Vec<Kv>>,
}

/// Shuffle-accounted size of a run of pairs.
pub(crate) fn kv_bytes(kvs: &[Kv]) -> usize {
    let bytes = kvs.iter().map(|kv| kv.key.len() + kv.value.approx_bytes());
    bytes.sum()
}

fn stable_hash(s: &str) -> u64 {
    // FNV-1a: deterministic across runs and platforms.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash-partition emitted pairs for `n` downstream tasks.
pub(super) fn partition(emitted: Vec<Kv>, n: usize) -> Vec<Vec<Kv>> {
    let mut parts: Vec<Vec<Kv>> = (0..n).map(|_| Vec::new()).collect();
    for kv in emitted {
        let p = stable_hash(&kv.key).checked_rem(n as u64).unwrap_or(0) as usize;
        if let Some(part) = parts.get_mut(p) {
            part.push(kv);
        }
    }
    parts
}

/// Reduce-side sort/merge: group `(key, value bytes, value)` triples by key
/// (BTreeMap — deterministic key order, values in the order given) and price
/// the sort by the bytes that went through it.
pub(crate) fn group_by_key<V>(
    cost: &CostModel,
    pairs: impl IntoIterator<Item = (String, usize, V)>,
) -> (f64, BTreeMap<String, Vec<V>>) {
    let mut in_bytes = 0usize;
    let mut groups: BTreeMap<String, Vec<V>> = BTreeMap::new();
    for (key, value_bytes, value) in pairs {
        in_bytes += key.len() + value_bytes;
        groups.entry(key).or_default().push(value);
    }
    (cost.lbytes(in_bytes) * cost.sort_per_byte, groups)
}

fn serialize_kvs(kvs: &[Kv]) -> Vec<u8> {
    let mut out = Vec::new();
    for kv in kvs {
        out.extend_from_slice(kv.key.as_bytes());
        out.push(b'\t');
        match &kv.value {
            Payload::Bytes(b) => out.extend_from_slice(b),
            Payload::Frame(f) => {
                // Frames persist as CSV (what rhdfs writes back).
                let mut text = String::new();
                for (i, n) in f.names().iter().enumerate() {
                    if i > 0 {
                        text.push(',');
                    }
                    text.push_str(n);
                }
                text.push('\n');
                for row in 0..f.n_rows() {
                    for c in 0..f.n_cols() {
                        if c > 0 {
                            text.push(',');
                        }
                        text.push_str(&f.column_at(c).value(row).to_string());
                    }
                    text.push('\n');
                }
                out.extend_from_slice(text.as_bytes());
            }
        }
        out.push(b'\n');
    }
    out
}

/// Final step of a task-output write: an orphaned attempt deletes its own
/// temp file; a live one renames it into place and charges the write
/// bytes to the correct store (PFS vs HDFS). Returns whether the attempt
/// committed its file.
fn promote_task_output(
    att: &Attempt,
    tmp: &str,
    final_path: &str,
    len: f64,
    acnt: &mut Counters,
) -> bool {
    let (env, output_to_pfs) = {
        let dd = att.d.borrow();
        (dd.env.clone(), dd.job.output_to_pfs)
    };
    let live = att.live();
    if output_to_pfs {
        let mut p = env.pfs.borrow_mut();
        if live {
            p.delete(final_path);
            p.rename(tmp, final_path);
            acnt.add(keys::PFS_WRITE_BYTES, len);
        } else {
            // The sim has no GC — the loser of a speculative race (or a
            // write that outlived a failed job) removes its own temp file.
            p.delete(tmp);
        }
    } else {
        let mut h = env.hdfs.borrow_mut();
        let stale = if live { final_path } else { tmp };
        if let Ok(ids) = h.namenode.delete(stale) {
            h.datanodes.reclaim(&ids);
        }
        if live {
            let _ = h.namenode.rename(tmp, final_path);
            acnt.add(keys::HDFS_WRITE_BYTES, len);
        }
    }
    live
}

/// Write a finished task's `emitted` pairs as `<output_dir>/<part_name>`
/// and commit the task: serialize, write under an attempt-scoped temp name,
/// rename into place at commit — an orphaned attempt's file never shadows
/// the winner's — and record the `write` phase. A task that emitted nothing
/// commits without a file.
pub(super) fn commit_part_file(
    sim: &mut Sim,
    att: Attempt,
    emitted: &[Kv],
    part_name: String,
    mut phases: Vec<(&'static str, f64)>,
    mut acnt: Counters,
) {
    let data = serialize_kvs(emitted);
    if data.is_empty() {
        return commit_task(sim, &att, phases, None, &acnt);
    }
    let (env, output_to_pfs, dir) = {
        let dd = att.d.borrow();
        (
            dd.env.clone(),
            dd.job.output_to_pfs,
            dd.job.output_dir.clone(),
        )
    };
    let tmp = format!("{dir}/_tmp/attempt-{}", att.id);
    let final_path = format!("{dir}/{part_name}");
    let (node, len, write_start) = (att.node, data.len() as f64, sim.now().secs());
    let (att2, tmp2) = (att.clone(), tmp.clone());
    let finish = move |sim: &mut Sim| {
        if !promote_task_output(&att2, &tmp2, &final_path, len, &mut acnt) {
            return;
        }
        phases.push(("write", sim.now().secs() - write_start));
        commit_task(sim, &att2, phases, None, &acnt);
    };
    if output_to_pfs {
        return pfs::write_new(sim, &env.topo, &env.pfs, node, tmp, data, finish);
    }
    let written = move |sim: &mut Sim, res: Result<(), hdfs::HdfsError>| match res {
        Ok(()) => finish(sim),
        Err(e) => att.fail(sim, MrError::msg(format!("hdfs: {e}"))),
    };
    hdfs::write_file(sim, &env.topo, &env.hdfs, node, tmp, data, written);
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::job::run_job;
    use crate::job::tests::{mem_splits, small_cluster, word_count_job};

    #[test]
    fn map_only_job_writes_part_m_files() {
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(3, 10), 1);
        job.reduce_fn = None;
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::REDUCE_TASKS), 0.0);
        let h = c.hdfs.borrow();
        let files = h.namenode.list_files_recursive("out").unwrap();
        assert_eq!(files.len(), 3);
        assert!(files[0].path.contains("part-m-"));
    }
}
