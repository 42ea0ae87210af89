//! Reduce attempts: shuffle, sort, reduce, write.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::{countdown, Sim};

use super::attempt::Attempt;
use super::commit::{commit_part_file, group_by_key, kv_bytes};
use super::{detector, Kv, MrError, TaskCtx};
use crate::counters::{keys, Counters};

/// Run one reduce attempt. Map outputs are *cloned* per pull (not drained)
/// so a retried reducer can shuffle again.
pub(super) fn run_reduce_attempt(sim: &mut Sim, att: Attempt) {
    let startup = sim.cost.task_startup_s;
    sim.after(startup, move |sim| {
        if !att.live() {
            return;
        }
        // Shuffle: pull partition `r` from every map that produced one.
        let (r, node) = (att.task, att.node);
        let (pulls, env, spill_to_pfs, job_name) = {
            let dd = att.d.borrow();
            let outputs = dd.map_outputs.iter().enumerate();
            let pulls: Vec<(usize, simnet::NodeId, Vec<Kv>)> = outputs
                .filter_map(|(m, out)| {
                    let out = out.as_ref()?;
                    let kvs = out.parts.get(r).filter(|kvs| !kvs.is_empty())?;
                    Some((m, out.node, kvs.clone()))
                })
                .collect();
            (
                pulls,
                dd.env.clone(),
                dd.job.spill_to_pfs,
                dd.job.name.clone(),
            )
        };
        let shuffle_start = sim.now().secs();
        let shuffle_bytes: usize = pulls.iter().map(|(_, _, kvs)| kv_bytes(kvs)).sum();
        let mut acnt = Counters::new();
        acnt.add(keys::SHUFFLE_BYTES, shuffle_bytes as f64);
        if pulls.is_empty() {
            return reduce_execute(sim, att, startup, shuffle_start, Vec::new(), acnt);
        }
        // All pulls run concurrently; pairs are collected in arrival order
        // and the reduce starts when the last flow lands.
        let collected: Rc<RefCell<Vec<Kv>>> = Rc::default();
        let (att2, collected2) = (att.clone(), collected.clone());
        let all_arrived = countdown(pulls.len(), move |sim| {
            let kvs = collected2.take();
            reduce_execute(sim, att2, startup, shuffle_start, kvs, acnt);
        });
        for (m_idx, src, kvs) in pulls {
            let bytes = kv_bytes(&kvs);
            let (att2, collected, all_arrived) =
                (att.clone(), collected.clone(), all_arrived.clone());
            let arrive = move |sim: &mut Sim| {
                if att2.live() {
                    collected.borrow_mut().extend(kvs);
                    all_arrived(sim);
                }
            };
            if spill_to_pfs {
                // Fetch the partition back from the PFS spill file. The
                // exact byte range is immaterial to the timing model; the
                // volume is.
                let spill_path = format!("_spill/{job_name}/m{m_idx:05}");
                let have = env.pfs.borrow().len_of(&spill_path).unwrap_or(0);
                let len = bytes.min(have);
                let (att, path) = (att.clone(), spill_path.clone());
                let read = move |sim: &mut Sim, res: Result<_, pfs::PfsError>| match res {
                    Ok(_) => arrive(sim),
                    // The pull that failed keeps the countdown above zero.
                    Err(e) => att.fail(sim, MrError::msg(format!("pfs: {e} ({path})"))),
                };
                pfs::read_at(sim, &env.topo, &env.pfs, node, &spill_path, 0, len, read);
            } else {
                // A holder this node cannot reach never delivers: the pull
                // keeps the countdown above zero and the attempt's hang
                // deadline fails it.
                let flow_bytes = sim.cost.lbytes(bytes);
                let path = env.topo.path_net(src, node);
                sim.net_transfer(src, node, None, path, flow_bytes, arrive);
            }
        }
    });
}

fn reduce_execute(
    sim: &mut Sim,
    att: Attempt,
    startup: f64,
    shuffle_start: f64,
    kvs: Vec<Kv>,
    mut acnt: Counters,
) {
    if !att.live() {
        return;
    }
    let shuffle_s = sim.now().secs() - shuffle_start;
    // Sort/merge (real grouping).
    let sized = kvs.into_iter().map(|kv| {
        let bytes = kv.value.approx_bytes();
        (kv.key, bytes, kv.value)
    });
    let (sort_s, groups) = group_by_key(&sim.cost, sized);
    let Some(reduce_fn) = att.d.borrow().job.reduce_fn.clone() else {
        return att.fail(sim, MrError::msg("reduce task without a reduce_fn"));
    };
    let mut ctx = TaskCtx::new(sim.cost.clone());
    for (key, values) in groups {
        if let Err(e) = (reduce_fn)(&key, values, &mut ctx) {
            return att.fail(sim, e);
        }
    }
    let slow = sim.faults.slow_factor(att.node.0);
    let compute = (ctx.total_charge_s() + sort_s) * slow;
    let mut phases = vec![
        ("startup", startup),
        ("shuffle", shuffle_s),
        ("sort", sort_s * slow),
    ];
    phases.extend(ctx.charges.iter().map(|&(p, s)| (p, s * slow)));
    // The pulls landed, so the attempt is alive, and the driver knows how
    // long its sort and reduce take: the deadline starts over behind them,
    // for a completion the node cannot report and for the part-file write.
    detector::arm_deadline(sim, &att, compute);
    sim.after(compute, move |sim| {
        if !att.can_report(sim) {
            return;
        }
        acnt.add(keys::RECORDS_EMITTED, ctx.records as f64);
        let part_name = format!("part-r-{:05}", att.task);
        commit_part_file(sim, att, &ctx.emitted, part_name, phases, acnt);
    });
}

#[cfg(test)]
mod tests {
    use crate::input::{InMemoryFetcher, InputSplit};
    use crate::job::run_job;
    use crate::job::tests::{small_cluster, word_count_job};
    use std::rc::Rc;

    #[test]
    fn reduce_output_values_are_correct() {
        // All splits carry byte value 7 → one key, count = total bytes.
        let mut c = small_cluster(2, 2);
        let splits: Vec<InputSplit> = (0..3)
            .map(|_| InputSplit {
                length: 50,
                locations: vec![],
                fetcher: Rc::new(InMemoryFetcher { data: vec![7; 50] }),
            })
            .collect();
        let job = word_count_job(splits, 1);
        run_job(&mut c, job).unwrap();
        let h = c.hdfs.borrow();
        let files = h.namenode.list_files_recursive("out").unwrap();
        assert_eq!(files.len(), 1);
        // Read back through datanodes (single block).
        let blocks = h.namenode.blocks(&files[0].path).unwrap();
        let data = h
            .datanodes
            .get(blocks[0].locations()[0], blocks[0].id)
            .unwrap();
        let text = String::from_utf8(data.as_ref().clone()).unwrap();
        assert_eq!(text.trim(), "w7\t150");
    }
}
