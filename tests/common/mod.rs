//! Shared by the generated-chaos suites (`storage_totality`, `dag_lineage`,
//! `chaos`, `dag_overlap`, `plans`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use scidp_suite::mapreduce::{
    counter_keys as keys, Cluster, Counters, Floors, JobResult, TaskReport,
};
use scidp_suite::simnet::{CostModel, FaultPlan, NodeId};

/// Generated plans and chains and their naive evaluation (`dag_overlap`,
/// `plans`).
#[allow(dead_code)]
pub mod chain;

/// The `_tmp/attempt-<id>` files a finished run left in the NameNode's
/// namespace: none, however its attempts ended — committed, orphaned, failed
/// or stranded on a node that could not report (`chaos`, `dag_overlap`).
#[allow(dead_code)]
pub fn leftover_temp_files(c: &Cluster) -> Vec<String> {
    let dump = c.hdfs.borrow().namenode.namespace_dump();
    let temp = dump.lines().filter(|line| line.contains("_tmp/"));
    temp.map(str::to_string).collect()
}

/// The attempt law of a run that ended `Ok`: every attempt launched
/// committed its task, was retried, was a speculative twin, or gave its slot
/// away while it waited (`chaos`, `dag_overlap`, `plans`, `speculation`).
#[allow(dead_code)]
pub fn attempt_law(c: &Counters) -> Result<(), String> {
    let attempts = c.get(keys::MAP_ATTEMPTS) + c.get(keys::REDUCE_ATTEMPTS);
    let accounted = [
        keys::MAP_TASKS,
        keys::REDUCE_TASKS,
        keys::TASK_RETRIES,
        keys::SPECULATIVE_LAUNCHED,
        keys::REDUCES_PREEMPTED,
    ];
    let accounted: f64 = accounted.iter().map(|&k| c.get(k)).sum();
    if attempts == accounted {
        Ok(())
    } else {
        Err(format!(
            "{attempts} attempts, {accounted} accounted for: {c:?}"
        ))
    }
}

/// The floor law of a classic job that ended `Ok`: it took at least each of
/// its schedule `floors` ([`JobResult::floors`]). A floor above its elapsed
/// time is a simulator bug (`chaos`, `speculation`).
#[allow(dead_code)]
pub fn floor_law(r: &JobResult, floors: Floors) -> Result<(), String> {
    // Sums of the same instants taken in another order differ by rounding.
    let elapsed = r.elapsed() * (1.0 + 1e-12);
    if floors.work_s <= elapsed && floors.chain_s <= elapsed {
        Ok(())
    } else {
        Err(format!("{floors:?} above the elapsed {} s", r.elapsed()))
    }
}

/// The start-up law of warm slots over the committed `tasks` of one run: each
/// paid its start-up in full (a cold slot) or not at all (a slot whose last
/// attempt of the same job or DAG committed), and a `clean` run over `slots`
/// slots paid at most one per slot (`chaos`, `dag_overlap`).
#[allow(dead_code)]
pub fn startup_law<'a>(
    tasks: impl IntoIterator<Item = &'a TaskReport>,
    clean: bool,
    slots: usize,
) -> Result<(), String> {
    let startup = CostModel::default().task_startup_s;
    let mut cold = 0;
    for t in tasks {
        let paid = t.phase("startup");
        if paid == startup {
            cold += 1;
        } else if paid != 0.0 {
            return Err(format!("a start-up of {paid} s, not 0 or {startup}: {t:?}"));
        }
    }
    if clean && cold > slots {
        return Err(format!(
            "{cold} start-ups on a clean run over {slots} slots"
        ));
    }
    Ok(())
}

/// The placement law of pulling tasks — a job's reducers, a post-shuffle
/// stage's tasks — over the committed `pulling` tasks of one run whose input
/// closed at `close_s` and never reopened: on each node, those that started
/// before the close number at most `⌈W / nodes⌉`, W the run's pulling tasks
/// and `nodes` the fewest nodes in service before the close
/// ([`nodes_in_service`]). Each of them was in flight at the close, and an
/// early task takes only a node with room for one more of an even share
/// over the nodes in service (`chaos`, `dag_overlap`).
#[allow(dead_code)]
pub fn placement_law(pulling: &[&TaskReport], close_s: f64, nodes: usize) -> Result<(), String> {
    let share = pulling.len().div_ceil(nodes.max(1));
    let mut early: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for t in pulling.iter().filter(|t| t.start_s < close_s) {
        early.entry(t.node).or_default().push(t.index);
    }
    match early.iter().find(|(_, tasks)| tasks.len() > share) {
        Some((node, tasks)) => Err(format!(
            "node {} started tasks {tasks:?} before the close at {close_s} s, \
             more than its share of {share}",
            node.0
        )),
        None => Ok(()),
    }
}

/// A lower bound on how many of `nodes` nodes stay in service until
/// `before_s` under `plan`: every node it kills, hangs or cuts off before
/// then may be withdrawn.
#[allow(dead_code)]
pub fn nodes_in_service(plan: &FaultPlan, nodes: usize, before_s: f64) -> usize {
    let kills = plan.node_kills.iter().chain(&plan.node_hangs);
    let mut out: Vec<u32> = kills
        .filter(|(_, t)| *t < before_s)
        .map(|&(n, _)| n)
        .collect();
    for p in plan.partitions.iter().filter(|p| p.from_s < before_s) {
        out.extend(&p.nodes);
    }
    out.retain(|&n| (n as usize) < nodes);
    out.sort_unstable();
    out.dedup();
    nodes.saturating_sub(out.len()).max(1)
}

/// `plan` as the builder expression that rebuilds it (fields are rendered in
/// a fixed order; builders of different kinds commute).
#[allow(dead_code)]
pub fn plan_expr(plan: &FaultPlan) -> String {
    let secs = |t: f64| match t.is_finite() {
        true => format!("{t:?}"),
        false => "f64::INFINITY".to_string(),
    };
    let mut s = "FaultPlan::none()".to_string();
    if plan.read_fail_prob > 0.0 {
        let (seed, p) = (plan.seed, plan.read_fail_prob);
        write!(s, ".with_random_read_failures({seed}, {p:?})").unwrap();
    } else {
        write!(s, ".with_seed({})", plan.seed).unwrap();
    }
    for (p, n) in &plan.read_faults {
        write!(s, ".fail_read({p:?}, {n})").unwrap();
    }
    for (p, n) in &plan.read_hangs {
        write!(s, ".hang_nth_read({p:?}, {n})").unwrap();
    }
    for c in &plan.corrupt_reads {
        let (p, n) = (&c.path, c.nth);
        match (c.replica, c.persistent, c.silent) {
            (Some(node), ..) => write!(s, ".corrupt_replica({p:?}, {node})"),
            (None, true, _) if p.starts_with("blk#") => write!(s, ".corrupt_all_replicas({p:?})"),
            (None, true, _) => write!(s, ".corrupt_read_persistent({p:?}, {n})"),
            (None, false, true) => write!(s, ".corrupt_read({p:?}, {n})"),
            (None, false, false) => write!(s, ".corrupt_read_detected({p:?}, {n})"),
        }
        .unwrap();
    }
    for (n, t) in &plan.node_kills {
        write!(s, ".kill_node({n}, {})", secs(*t)).unwrap();
    }
    for (n, t) in &plan.node_hangs {
        write!(s, ".hang_node({n}, {})", secs(*t)).unwrap();
    }
    for p in &plan.partitions {
        let (from, heal) = (secs(p.from_s), secs(p.heal_at_s));
        write!(s, ".partition(&{:?}, {from}, {heal})", p.nodes).unwrap();
    }
    for (a, b, f) in &plan.slow_links {
        write!(s, ".slow_link({a}, {b}, {f:?})").unwrap();
    }
    s
}
