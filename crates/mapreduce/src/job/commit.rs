//! Task output: partitioning, the registry committed shuffle outputs live in,
//! grouping, serialization and the part-file commit protocol — the file
//! written while the task computes, committed when both are done.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use simnet::{countdown, NodeId, Sim};

use super::attempt::{commit_task, Attempt};
use super::{Kv, MrError, Payload};
use crate::counters::keys;

/// One committed map output: where it lives and its per-downstream-task
/// partitions.
#[derive(Clone)]
pub(crate) struct MapOutput {
    pub node: NodeId,
    pub parts: Vec<Vec<Kv>>,
}

/// Registry of committed shuffle outputs, by `(shuffle, producing
/// partition)`: one per plan, on its pool, where every run registers and
/// pulls, and where a lost output leaves a hole for lineage to fill. A
/// pulling task reads its
/// partition of every output of its stage's sources — a classic job's
/// reducers those of its maps, a DAG's post-shuffle stage those of the
/// stages upstream.
#[derive(Default)]
pub(crate) struct ShuffleStore {
    /// shuffle id → producing partition id → output. `None` is a final
    /// partition: committed as a part file on HDFS, held by no node.
    outputs: BTreeMap<u64, BTreeMap<usize, Option<MapOutput>>>,
    /// shuffle id → downstream partition → its `kv_bytes` summed over the
    /// outputs registered now: what a reader of that partition has to merge
    /// so far, kept as outputs come and go.
    bytes: BTreeMap<u64, Vec<usize>>,
    /// shuffle id → number of outputs a complete shuffle has.
    expected: BTreeMap<u64, usize>,
    /// When each shuffle last became complete — its *close*.
    closed_at: BTreeMap<u64, f64>,
    /// Every `(shuffle, partition)` that was ever registered: running one
    /// again is a lineage recompute.
    once: BTreeSet<(u64, usize)>,
    /// Outputs dropped so far: their holder was withdrawn — killed, or
    /// declared dead by the failure detector.
    pub lost: u64,
}

impl ShuffleStore {
    /// A store of the shuffles `expected` names, each with its width.
    pub fn new(expected: impl IntoIterator<Item = (u64, usize)>) -> ShuffleStore {
        ShuffleStore {
            expected: expected.into_iter().collect(),
            ..ShuffleStore::default()
        }
    }

    pub fn n_expected(&self, shuffle: u64) -> usize {
        self.expected.get(&shuffle).copied().unwrap_or(0)
    }

    /// Register one committed output at `now`. First-commit-wins upstream
    /// means this is called at most once per live (shuffle, partition) — a
    /// recompute after invalidation simply fills the hole again.
    pub fn register(
        &mut self,
        shuffle: u64,
        partition: usize,
        output: Option<MapOutput>,
        now: f64,
    ) {
        let totals = self.bytes.entry(shuffle).or_default();
        tally(totals, &output, true);
        let outs = self.outputs.entry(shuffle).or_default();
        if let Some(replaced) = outs.insert(partition, output) {
            tally(totals, &replaced, false);
        }
        self.once.insert((shuffle, partition));
        if self.complete(shuffle) {
            self.closed_at.insert(shuffle, now);
        }
    }

    pub fn get(&self, shuffle: u64, partition: usize) -> Option<&MapOutput> {
        self.outputs.get(&shuffle)?.get(&partition)?.as_ref()
    }

    pub fn has(&self, shuffle: u64, partition: usize) -> bool {
        let outs = self.outputs.get(&shuffle);
        outs.is_some_and(|o| o.contains_key(&partition))
    }

    pub fn registered_once(&self, shuffle: u64, partition: usize) -> bool {
        self.once.contains(&(shuffle, partition))
    }

    /// The `kv_bytes` of downstream partition `r` over the outputs of
    /// `shuffle` registered now.
    pub fn partition_bytes(&self, shuffle: u64, r: usize) -> usize {
        let totals = self.bytes.get(&shuffle);
        totals.and_then(|t| t.get(r)).copied().unwrap_or(0)
    }

    /// Every expected output of `shuffle` is registered: it is *closed*. A
    /// closed shuffle opens again when one of its outputs is invalidated.
    pub fn complete(&self, shuffle: u64) -> bool {
        let registered = self.outputs.get(&shuffle).map_or(0, BTreeMap::len);
        registered == self.n_expected(shuffle)
    }

    /// When `shuffle` closed, if it is closed now and ever received an
    /// output (a shuffle of width 0 is closed from the start).
    pub fn closed_at(&self, shuffle: u64) -> Option<f64> {
        let at = self.closed_at.get(&shuffle).copied();
        at.filter(|_| self.complete(shuffle))
    }

    /// Drop every output of `shuffles` held by a withdrawn node.
    pub fn invalidate_node(&mut self, node: NodeId, shuffles: impl Iterator<Item = u64>) {
        for shuffle in shuffles {
            let outs = self.outputs.entry(shuffle).or_default();
            let totals = self.bytes.entry(shuffle).or_default();
            let before = outs.len();
            outs.retain(|_, o| {
                let held = o.as_ref().is_some_and(|o| o.node == node);
                if held {
                    tally(totals, o, false);
                }
                !held
            });
            self.lost += (before - outs.len()) as u64;
        }
    }

    /// Some shuffle among a stage's `sources` is still missing outputs: the
    /// tasks pulling it are waiting, not stranded. A stage that fetches
    /// splits has no sources, and its tasks never wait.
    pub fn open(&self, sources: &[(u64, u8)]) -> bool {
        !sources.iter().all(|&(s, _)| self.complete(s))
    }

    /// When the last source closed; `default` when none ever received an
    /// output.
    pub fn sources_closed_at(&self, sources: &[(u64, u8)], default: f64) -> f64 {
        let closes = sources.iter().filter_map(|&(s, _)| self.closed_at(s));
        closes.reduce(f64::max).unwrap_or(default)
    }

    /// The `kv_bytes` of partition `r` over every source's outputs
    /// registered now.
    pub fn registered_bytes(&self, sources: &[(u64, u8)], r: usize) -> usize {
        let bytes = sources.iter().map(|&(s, _)| self.partition_bytes(s, r));
        bytes.sum()
    }

    /// Every `(source index, producing partition)` there is to pull.
    pub fn all_outputs(&self, sources: &[(u64, u8)]) -> Vec<(usize, usize)> {
        let sources = sources.iter().enumerate();
        sources
            .flat_map(|(i, &(s, _))| (0..self.n_expected(s)).map(move |m| (i, m)))
            .collect()
    }
}

/// Add `output`'s partitions to a shuffle's running `totals`, or take them
/// away again.
fn tally(totals: &mut Vec<usize>, output: &Option<MapOutput>, add: bool) {
    let Some(out) = output else {
        return;
    };
    if totals.len() < out.parts.len() {
        totals.resize(out.parts.len(), 0);
    }
    for (total, part) in totals.iter_mut().zip(&out.parts) {
        let bytes = kv_bytes(part);
        *total = if add {
            *total + bytes
        } else {
            total.saturating_sub(bytes)
        };
    }
}

/// Shuffle-accounted size of a run of pairs.
pub(crate) fn kv_bytes(kvs: &[Kv]) -> usize {
    let bytes = kvs.iter().map(|kv| kv.key.len() + kv.value.approx_bytes());
    bytes.sum()
}

/// Hash-partition emitted pairs for `n` downstream tasks, by the FNV-1a
/// hash of their key.
pub(super) fn partition(emitted: Vec<Kv>, n: usize) -> Vec<Vec<Kv>> {
    let mut parts: Vec<Vec<Kv>> = (0..n).map(|_| Vec::new()).collect();
    for kv in emitted {
        let h = scirng::fnv1a(scirng::FNV1A_BASIS, kv.key.as_bytes());
        let p = h.checked_rem(n as u64).unwrap_or(0) as usize;
        if let Some(part) = parts.get_mut(p) {
            part.push(kv);
        }
    }
    parts
}

/// Reduce-side grouping: `(key, value)` pairs by key (BTreeMap —
/// deterministic key order, values in the order given). Its price, the
/// merge, was charged pull by pull as the pairs landed (`pull.rs`).
pub(crate) fn group_by_key<V>(
    pairs: impl IntoIterator<Item = (String, V)>,
) -> BTreeMap<String, Vec<V>> {
    let mut groups: BTreeMap<String, Vec<V>> = BTreeMap::new();
    for (key, value) in pairs {
        groups.entry(key).or_default().push(value);
    }
    groups
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

/// Final step of a task-output write, once the compute has ended and the
/// file has landed: a live attempt on a node that can report renames its
/// temp file into place and charges the write bytes to the correct store
/// (PFS vs HDFS); any other — orphaned, failed, or stranded on a hung or cut
/// off node — deletes it. Returns whether the attempt committed its file.
fn promote_task_output(sim: &Sim, att: &Attempt, tmp: &str, final_path: &str, len: f64) -> bool {
    let (env, output_to_pfs) = {
        let p = att.pool.borrow();
        let stage = p.stage_of(att.run);
        (p.env.clone(), stage.is_some_and(|s| s.job.output_to_pfs))
    };
    let reports = att.can_report(sim);
    if output_to_pfs {
        let mut p = env.pfs.borrow_mut();
        if reports {
            p.delete(final_path);
            p.rename(tmp, final_path);
            att.count(keys::PFS_WRITE_BYTES, len);
        } else {
            // The sim has no GC — the loser of a speculative race, a write
            // that outlived a failed job or an attempt that cannot report
            // removes its own temp file.
            p.delete(tmp);
        }
    } else {
        let mut h = env.hdfs.borrow_mut();
        let stale = if reports { final_path } else { tmp };
        if let Ok(ids) = h.namenode.delete(stale) {
            h.datanodes.reclaim(&ids);
        }
        if reports {
            let _ = h.namenode.rename(tmp, final_path);
            att.count(keys::HDFS_WRITE_BYTES, len);
        }
    }
    reports
}

/// Write a task's `emitted` pairs as `<output_dir>/<part_name>` while its
/// last `compute_s` seconds of compute run, and commit the task once both
/// are done: the pairs are real as soon as the compute is scheduled, so the
/// write is issued now, under an attempt-scoped temp name, and the file is
/// renamed into place at the later of compute end and write end — an
/// orphaned attempt's file never shadows the winner's. The attempt reports
/// once, there; `write` is what of the write outlasted the compute, and the
/// rest counts as `write_overlap_saved_s`. A task that emitted nothing
/// commits without a file when its compute ends.
pub(super) fn commit_part_file(
    sim: &mut Sim,
    att: Attempt,
    emitted: &[Kv],
    part_name: String,
    compute_s: f64,
) {
    let data = serialize_kvs(emitted);
    if data.is_empty() {
        return sim.after(compute_s, move |sim| {
            if att.can_report(sim) {
                commit_task(sim, &att, None);
            }
        });
    }
    let (env, output_to_pfs, dir) = {
        let p = att.pool.borrow();
        let Some(job) = p.stage_of(att.run).map(|s| &s.job) else {
            return;
        };
        (p.env.clone(), job.output_to_pfs, job.output_dir.clone())
    };
    let tmp = format!("{dir}/_tmp/attempt-{}", att.id);
    let final_path = format!("{dir}/{part_name}");
    let (node, len, issued_s) = (att.node, data.len() as f64, sim.now().secs());
    let computed_s = issued_s + compute_s;
    // When the file landed: what of the write the compute hid is only known
    // once both are in.
    let landed_s = Rc::new(Cell::new(computed_s));
    let (att2, tmp2, landed_at) = (att.clone(), tmp.clone(), landed_s.clone());
    let finish = move |sim: &mut Sim| {
        if !promote_task_output(sim, &att2, &tmp2, &final_path, len) {
            return;
        }
        att2.phase("write", sim.now().secs() - computed_s);
        let hidden_s = landed_at.get().min(computed_s) - issued_s;
        if hidden_s > 0.0 {
            att2.count(keys::WRITE_OVERLAP_SAVED_S, hidden_s);
        }
        commit_task(sim, &att2, None);
    };
    let both_in = countdown(2, finish);
    let compute_ended = both_in.clone();
    sim.after(compute_s, move |sim| compute_ended(sim));
    let landed = move |sim: &mut Sim| {
        landed_s.set(sim.now().secs());
        both_in(sim)
    };
    if output_to_pfs {
        return pfs::write_new(sim, &env.topo, &env.pfs, node, tmp, data, landed);
    }
    let written = move |sim: &mut Sim, res: Result<(), hdfs::HdfsError>| match res {
        Ok(()) => landed(sim),
        Err(e) => att.fail(sim, MrError::msg(format!("hdfs: {e}"))),
    };
    hdfs::write_file(sim, &env.topo, &env.hdfs, node, tmp, data, written);
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use simnet::{FaultPlan, NodeId};

    use super::{kv_bytes, MapOutput, ShuffleStore};
    use crate::cluster::Cluster;
    use crate::counters::keys;
    use crate::input::TaskInput;
    use crate::job::tests::{
        mem_splits, scaled_cluster, slow_map_job, small_cluster, word_count_job,
    };
    use crate::job::{run_job, submit_job_env, FtConfig, Job, Kv, MrError, Payload};

    /// The `_tmp/` entries of `c`'s namespace.
    fn temp_files(c: &Cluster) -> Vec<String> {
        let dump = c.hdfs.borrow().namenode.namespace_dump();
        let temp = dump.lines().filter(|line| line.contains("_tmp/"));
        temp.map(str::to_string).collect()
    }

    /// A map-only job whose maps compute `secs` each and emit one 60 kB
    /// record: on a cluster at 10⁴ logical bytes per real one, a 600 MB part
    /// file that takes a local disk 5 s to write.
    fn big_output_job(n_splits: usize, secs: f64) -> Job {
        let mut job = slow_map_job(n_splits, secs, FtConfig::default());
        job.map_fn = Rc::new(move |input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            ctx.charge("scan", secs);
            ctx.emit(format!("k{}", b[0]), Payload::Bytes(vec![b[0]; 60_000]));
            Ok(())
        });
        job.reduce_fn = None;
        job
    }

    #[test]
    fn a_speculative_loser_whose_write_lands_after_the_winner_commits_deletes_its_file() {
        // Three maps on three one-slot nodes; node 2 computes 9x slower. Its
        // map straggles, gets a twin on a node whose map has committed (at
        // 6 s, when a fresh attempt would end its compute at 8 s and the
        // straggler at 10 s), and still commits first — while the twin's
        // 5 s write is in flight.
        let mut c = scaled_cluster(3, 1);
        c.sim.faults.install(FaultPlan::none().slow_node(2, 9.0));
        let hdfs = c.hdfs.clone();
        let at_commit = Rc::new(RefCell::new(None));
        let seen = at_commit.clone();
        let done = move |_: &mut simnet::Sim, r: Result<_, MrError>| {
            *seen.borrow_mut() = Some((r, hdfs.borrow().namenode.namespace_dump()));
        };
        let env = c.env();
        submit_job_env(&mut c.sim, env, big_output_job(3, 1.0), done);
        c.run();
        let (r, dump) = at_commit.borrow_mut().take().expect("the job completed");
        let r = r.expect("the straggler commits");
        assert_eq!(r.counters.get(keys::SPECULATIVE_LAUNCHED), 1.0);
        assert_eq!(
            r.counters.get(keys::SPECULATIVE_WON),
            0.0,
            "the original won"
        );
        let last = r.tasks.iter().max_by(|a, b| a.end_s.total_cmp(&b.end_s));
        assert_eq!(last.map(|t| t.node.0), Some(2), "{:?}", r.tasks);
        // When the winner committed, the loser's file was still being
        // written; once it landed, the loser deleted it.
        let writing: Vec<_> = dump.lines().filter(|l| l.contains("_tmp/")).collect();
        assert_eq!(writing.len(), 1, "{dump}");
        assert_eq!(temp_files(&c), Vec::<String>::new());
        let out = c.read_output("out").unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|(_, data)| data.len() == 60_000 + 4));
        // The loser's ledger left with it: the run counts what the same job
        // counts without a straggler, and each report is its winner's alone.
        let mut clean = scaled_cluster(3, 1);
        let clean = run_job(&mut clean, big_output_job(3, 1.0)).unwrap();
        assert_eq!(clean.counters.get(keys::SPECULATIVE_LAUNCHED), 0.0);
        for key in [
            keys::INPUT_BYTES,
            keys::RECORDS_EMITTED,
            keys::HDFS_WRITE_BYTES,
        ] {
            assert_eq!(r.counters.get(key), clean.counters.get(key), "{key}");
        }
        for t in &r.tasks {
            let sum: f64 = t.phases.iter().map(|(_, s)| s).sum();
            assert!((sum - t.duration()).abs() < 1e-9, "{t:?}");
        }
    }

    #[test]
    fn a_node_hung_at_compute_end_commits_nothing_and_leaves_no_file() {
        // Two 5 s maps on two one-slot nodes; node 1 hangs at 3 s, before its
        // map's compute ends, and is declared dead by heartbeats at 12 s.
        let mut c = small_cluster(2, 1);
        c.sim.faults.install(FaultPlan::none().hang_node(1, 3.0));
        let ft = FtConfig {
            speculative: false,
            ..FtConfig::default()
        };
        let mut job = slow_map_job(2, 5.0, ft);
        job.reduce_fn = None;
        let r = run_job(&mut c, job).expect("the map is retried on node 0");
        assert_eq!(r.counters.get(keys::MAP_TASKS), 2.0);
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0);
        assert!(r.tasks.iter().all(|t| t.node.0 == 0), "{:?}", r.tasks);
        assert_eq!(temp_files(&c), Vec::<String>::new());
        assert_eq!(c.read_output("out").unwrap().len(), 2);
    }

    #[test]
    fn partition_totals_equal_a_fold_over_the_outputs_still_registered() {
        // Generated sequences over two shuffles of three producing and three
        // downstream partitions, held by three nodes: registrations (into a
        // hole, over a live output, of a part file) and node losses, checked
        // after every step.
        let mut nonzero = 0;
        for seed in 0..400 {
            let mut rng = scirng::Rng::seed_from_u64(seed);
            let mut store = ShuffleStore::default();
            for step in 0..24 {
                let (shuffle, m) = (rng.below(2) as u64, rng.below(3));
                let kv = |rng: &mut scirng::Rng| Kv {
                    key: "k".repeat(1 + rng.below(4)),
                    value: Payload::Bytes(vec![0; rng.below(50)]),
                };
                if rng.below(4) < 3 {
                    let node = NodeId(rng.below(3) as u32);
                    let part = |rng: &mut scirng::Rng| {
                        let n = rng.below(3);
                        (0..n).map(|_| kv(rng)).collect::<Vec<_>>()
                    };
                    let parts = (0..3).map(|_| part(&mut rng)).collect();
                    let output = (rng.below(5) > 0).then_some(MapOutput { node, parts });
                    store.register(shuffle, m, output, step as f64);
                } else {
                    store.invalidate_node(NodeId(rng.below(3) as u32), 0..2);
                }
                for s in 0..2 {
                    let registered = store.outputs.get(&s).into_iter().flat_map(|o| o.values());
                    let held: Vec<&MapOutput> = registered.flatten().collect();
                    for r in 0..3 {
                        let fold: usize = held.iter().map(|o| kv_bytes(&o.parts[r])).sum();
                        assert_eq!(store.partition_bytes(s, r), fold, "seed {seed} step {step}");
                        nonzero += usize::from(fold > 0);
                    }
                }
            }
        }
        assert!(nonzero > 10_000, "generator too thin: {nonzero}");
    }

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
