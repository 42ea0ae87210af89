//! Speculative execution by estimated time to end, after LATE (Zaharia et
//! al., "Improving MapReduce Performance in Heterogeneous Environments",
//! OSDI 2008): an attempt gets one twin on another node when what its own
//! progress shows says a fresh attempt would end first.
//!
//! Once its compute is scheduled an attempt has a [`Progress`]: when that
//! compute ends — where a linear progress report extrapolates to — and how
//! much slower than charged it runs. Starting up, fetching or pulling it has
//! none. What each attempt shows joins its run's statistics at once
//! ([`shown`]), not when it commits, and from [`MIN_COMPLETED`] of the run's
//! tasks' worth of them on, four kinds of straggler are flagged:
//!
//! 1. *slow*: its slowness exceeds the median of what the run's attempts
//!    have shown by [`SLOW_MARGIN`], and its compute ends later than a
//!    replacement's would — judged, while not flagged, each time the
//!    statistics change;
//! 2. *stalled fetch*: its streamed fetch has lasted longer than a start-up
//!    plus [`SLOW_MARGIN`] times the median time of the streamed fetches
//!    that moved bytes — checked at the first instant it could qualify, and
//!    put off while the median moves that instant on ([`watch_fetch`]);
//! 3. *suspected*: its node has just missed enough heartbeats to be
//!    suspected — flagged by the failure detector ([`suspected`]);
//! 4. *stranded*: its compute ended while its node was silent, so its
//!    completion never reached the driver — checked when the failure
//!    detector hears the node again ([`stranded`]).
//!
//! A twin goes neither to its straggler's node nor to any node hosting a
//! flagged attempt (LATE's slow-node rule): to the most free node left, else
//! to the slot of an attempt waiting downstream. It never takes a slot while
//! its run has a task pending: each scheduling pass offers the slots to the
//! run's pending tasks first, then to its flagged stragglers still without a
//! twin ([`twin_flagged`]). A pulling attempt is twinned only once it has all
//! its pulls and computes: its twin pulls again, from outputs that are all
//! registered by then. The speculator reads no fault state — only progress,
//! what the run's attempts showed and what the detector heard — and in a
//! clean run, where every attempt of a run is as slow as the next and
//! nothing stalls, it launches nothing.

use simnet::{NodeId, Sim, SimTime};

use super::attempt::{launch, AttemptId, AttemptInfo};
use super::pool::preempt_waiting;
use super::sched::{cache_resident, Pick};
use super::{Driver, Pool, SharedPool};

/// How many times the median slowness an attempt must run at to be slow,
/// and the median streamed fetch time a fetch must outlast, past a start-up,
/// to be stalled.
const SLOW_MARGIN: f64 = 1.5;
/// Fraction of a run's tasks that many attempts must have shown progress
/// before its attempts are judged (there is no meaningful median earlier).
const MIN_COMPLETED: f64 = 0.5;

/// What an attempt's progress shows once its compute is scheduled
/// (`map::end_after`).
#[derive(Clone, Copy, Debug)]
pub(super) struct Progress {
    /// When the compute ends.
    pub ends_s: f64,
    /// Scheduled compute seconds per charged second.
    pub slowness: f64,
    /// The charged seconds of that compute.
    pub work_s: f64,
    /// How long the attempt fetched its split — or, pulling, how long it
    /// pulled after its input closed — before the compute.
    pub fetch_s: f64,
}

/// Values kept in `f64::total_cmp` order as they come (NaNs last), so a
/// median or a quantile is one index away.
#[derive(Clone, Debug, Default)]
pub(super) struct Sorted(Vec<f64>);

impl Sorted {
    pub fn insert(&mut self, v: f64) {
        let at = self.0.partition_point(|x| x.total_cmp(&v).is_le());
        self.0.insert(at, v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn at(&self, i: usize) -> f64 {
        self.0.get(i).copied().unwrap_or(0.0)
    }

    /// The median; 0 when empty.
    pub fn median(&self) -> f64 {
        let n = self.0.len();
        if n % 2 == 1 {
            self.at(n / 2)
        } else {
            0.5 * (self.at((n / 2).saturating_sub(1)) + self.at(n / 2))
        }
    }

    /// The nearest-rank `q`-quantile; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let idx = ((self.0.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.at(idx.min(self.0.len().saturating_sub(1)))
    }
}

/// A run's speculation books: what its attempts showed, kept as they show
/// it, and its flagged stragglers.
#[derive(Debug, Default)]
pub(super) struct Speculator {
    /// How long each attempt that has shown progress fetched
    /// ([`Progress::fetch_s`]).
    fetches: Sorted,
    /// ... the slowness of each.
    slowness: Sorted,
    /// ... and how long each of their streamed fetches that moved bytes
    /// took: a fetch that zone maps pruned or the cache served would pull
    /// the median towards nothing.
    streamed: Sorted,
    /// A streamed fetch that moved bytes is among enough shown: every
    /// streamed fetch still open is watched, and each that opens later.
    timing_fetches: bool,
    /// The flagged stragglers, twinned or not, until they leave the table.
    flagged: Vec<AttemptId>,
}

impl Speculator {
    /// An attempt has shown `p`, having streamed its fetch — with bytes
    /// moved — if `streamed`.
    fn record(&mut self, p: &Progress, streamed: bool) {
        if streamed {
            self.streamed.insert(p.fetch_s);
        }
        self.fetches.insert(p.fetch_s);
        self.slowness.insert(p.slowness);
    }

    /// Whether an attempt showing `p` is slow at `now`: it runs more than
    /// [`SLOW_MARGIN`] times slower than the median attempt, and a
    /// replacement launched now — a start-up, the median fetch, its work at
    /// the median slowness — would end its compute first.
    fn slow(&self, p: &Progress, now: f64, startup_s: f64) -> bool {
        let median = self.slowness.median();
        let replaced_s = now + startup_s + self.fetches.median() + p.work_s * median;
        p.slowness > SLOW_MARGIN * median && p.ends_s > replaced_s
    }
}

/// Whether `run` may twin `task` now: the run is live and speculates,
/// nothing of its input is still open (a twin would wait), and the task has
/// neither committed nor a twin in flight.
fn twinnable(p: &Pool, run: usize, task: usize) -> bool {
    p.run(run).is_some_and(|(d, stage)| {
        let open = d.tasks.state(task);
        d.alive()
            && stage.job.ft.speculative
            && !p.waits(run)
            && open.is_some_and(|st| !st.done && !st.speculated)
    })
}

/// Attempt `id` of `run` has just shown its progress (`map::end_after`): it
/// joins the run's statistics. Once [`MIN_COMPLETED`] of the run's tasks'
/// worth of attempts have shown theirs, every attempt in flight not yet
/// flagged is judged against them, and flagged if it computes slowly; and
/// once a streamed fetch that moved bytes is among them, the streamed
/// fetches still open are watched ([`watch_fetch`]).
pub(super) fn shown(sim: &mut Sim, pool: &SharedPool, run: usize, id: AttemptId) {
    let (slow, watch) = {
        let mut p = pool.borrow_mut();
        let speculative = p.stage_of(run).is_some_and(|s| s.job.ft.speculative);
        let Some(d) = p.runs.get_mut(run) else { return };
        let alive = d.alive();
        let Driver { tasks, spec, .. } = d;
        let Some(info) = tasks.attempt(id) else {
            return;
        };
        let Some(progress) = info.progress else {
            return;
        };
        spec.record(&progress, info.stream_from.is_some());
        let enough = spec.slowness.len() as f64 >= MIN_COMPLETED * tasks.count() as f64;
        if !speculative || !alive || !enough {
            return;
        }
        let time = !spec.timing_fetches && spec.streamed.len() > 0;
        spec.timing_fetches |= time;
        let (now, startup_s) = (sim.now().secs(), sim.cost.task_startup_s);
        let mut slow = Vec::new();
        let mut watch = Vec::new();
        for (id, i) in tasks.in_flight() {
            match i.progress {
                Some(p) if !spec.flagged.contains(&id) && spec.slow(&p, now, startup_s) => {
                    slow.push(id)
                }
                None if time => watch.push(id),
                _ => {}
            }
        }
        (slow, watch)
    };
    for id in watch {
        watch_fetch(sim, pool, run, id);
    }
    for id in slow {
        flag(sim, pool, run, id);
    }
}

/// Attempt `id` of `run` has a streamed fetch open — it has just opened it,
/// or fetches have just started being timed ([`shown`]): flag it once its
/// fetch has lasted a start-up plus [`SLOW_MARGIN`] times the median time of
/// the streamed fetches that moved bytes, if it still fetches then. The
/// median may move meanwhile: the check is put off to the new instant while
/// that lies ahead. A batch fetch is not watched: it shows no progress until
/// it ends, and one that contention stretches — as the SciHadoop maps' tail
/// of remote whole-file copies in `fig5` — beats a twin that fetches under
/// the same contention.
pub(super) fn watch_fetch(sim: &mut Sim, pool: &SharedPool, run: usize, id: AttemptId) {
    let due = {
        let p = pool.borrow();
        let Some(d) = p.runs.get(run).filter(|d| d.spec.timing_fetches) else {
            return;
        };
        let info = d.tasks.attempt(id);
        let fetching = info.filter(|i| !i.speculative && i.progress.is_none());
        let Some(from) = fetching.and_then(|i| i.stream_from) else {
            return;
        };
        from + sim.cost.task_startup_s + SLOW_MARGIN * d.spec.streamed.median()
    };
    if due <= sim.now().secs() {
        return flag(sim, pool, run, id);
    }
    let pool = pool.clone();
    sim.at(SimTime(due), move |sim| watch_fetch(sim, &pool, run, id));
}

/// The failure detector has just suspected `node`: every attempt there is
/// flagged. Whichever way the node goes, its tasks would restart later than
/// twins launched now: declared dead, it has them requeued; heard again, it
/// has lost the completions that fell in its silence ([`stranded`]).
pub(super) fn suspected(sim: &mut Sim, pool: &SharedPool, node: NodeId) {
    flag_on(sim, pool, node, |_| true);
}

/// The failure detector hears `node` again, after nothing since `heard_s`:
/// every attempt there whose compute ended in between has lost its
/// completion, and is flagged.
pub(super) fn stranded(sim: &mut Sim, pool: &SharedPool, node: NodeId, heard_s: f64) {
    let now = sim.now().secs();
    let lost = |p: &Progress| p.ends_s > heard_s && p.ends_s <= now;
    flag_on(sim, pool, node, |i| i.progress.as_ref().is_some_and(lost));
}

/// Flag every attempt of a live run on `node` that `pick` picks.
fn flag_on(sim: &mut Sim, pool: &SharedPool, node: NodeId, pick: impl Fn(&AttemptInfo) -> bool) {
    let live = pool.borrow().live.clone();
    for run in live {
        let ids: Vec<AttemptId> = {
            let p = pool.borrow();
            let Some(d) = p.runs.get(run) else { continue };
            let there = d
                .tasks
                .in_flight()
                .filter(|(_, i)| i.node == node && pick(i));
            there.map(|(id, _)| id).collect()
        };
        for id in ids {
            flag(sim, pool, run, id);
        }
    }
}

/// Flag attempt `id` of `run` a straggler, and twin it if its task may be.
fn flag(sim: &mut Sim, pool: &SharedPool, run: usize, id: AttemptId) {
    {
        let mut p = pool.borrow_mut();
        let task = p.attempt(run, id).map(|i| i.task);
        if !task.is_some_and(|task| twinnable(&p, run, task)) {
            return;
        }
        let Some(d) = p.runs.get_mut(run) else { return };
        if !d.spec.flagged.contains(&id) {
            d.spec.flagged.push(id);
        }
    }
    twin(sim, pool, run, id);
}

/// Offer a slot to each flagged straggler of `run` still without a twin,
/// until one finds none — at every scheduling pass, behind the run's pending
/// tasks (`pool::schedule`).
pub(super) fn twin_flagged(sim: &mut Sim, pool: &SharedPool, run: usize) {
    let untwinned: Vec<AttemptId> = {
        let mut p = pool.borrow_mut();
        let Some(Driver { tasks, spec, .. }) = p.runs.get_mut(run) else {
            return;
        };
        spec.flagged.retain(|&id| tasks.attempt(id).is_some());
        spec.flagged.clone()
    };
    for id in untwinned {
        if !twin(sim, pool, run, id) {
            return;
        }
    }
}

/// The nodes hosting a flagged attempt still in flight, of any live run.
fn shunned(p: &Pool) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for d in p.live.iter().filter_map(|&run| p.runs.get(run)) {
        let flagged = d.spec.flagged.iter().filter_map(|&id| d.tasks.attempt(id));
        nodes.extend(flagged.map(|i| i.node));
    }
    nodes
}

/// Launch the twin of flagged attempt `id` of `run`, if its task may have
/// one: on the most free node no flagged attempt runs on, else in the slot
/// of an attempt waiting downstream there — never while the run has a task
/// pending, which the slot is for. First commit wins; the loser is dropped.
/// False when no slot was found.
fn twin(sim: &mut Sim, pool: &SharedPool, run: usize, id: AttemptId) -> bool {
    // Note: the attempt budget is deliberately not consulted — a twin is
    // exempt from `max_task_attempts` (it counts neither against the budget
    // nor as a retry), so speculating never costs the task its recovery
    // headroom.
    let (task, shunned, free) = {
        let p = pool.borrow();
        let task = p.attempt(run, id).map(|i| i.task);
        let Some(task) = task.filter(|&task| twinnable(&p, run, task)) else {
            return true;
        };
        let pending = p.runs.get(run).map(|d| d.tasks.pending().len());
        if pending.is_some_and(|n| n > 0) {
            return false;
        }
        let shunned = shunned(&p);
        let free = p.nodes.most_free(&shunned);
        (task, shunned, free)
    };
    let Some(node) = free.or_else(|| preempt_waiting(sim, pool, run, &shunned)) else {
        return false;
    };
    let pick = {
        let p = pool.borrow();
        let Some((d, stage)) = p.run(run) else {
            return true;
        };
        let local = d
            .split(stage, task)
            .is_some_and(|s| s.locations.contains(&node));
        let cache_local = cache_resident(&d.cache_hints, &p.env.cluster_cache, task, node);
        Pick::at(0, node, local, cache_local)
    };
    launch(sim, pool, run, pick, task, true);
    true
}

#[cfg(test)]
mod tests {
    use super::Sorted;
    use crate::counters::keys;
    use crate::job::tests::{slow_map_job, small_cluster};
    use crate::job::{run_job, FtConfig};
    use simnet::FaultPlan;

    fn sorted(v: &[f64]) -> Sorted {
        let mut s = Sorted::default();
        v.iter().for_each(|&x| s.insert(x));
        s
    }

    #[test]
    fn median_survives_nan_durations() {
        // Regression: a NaN duration used to panic the sort comparator
        // (`partial_cmp().expect(...)`) mid-job.
        assert!(sorted(&[f64::NAN]).median().is_nan());
        // NaNs sort last under total_cmp, so the finite majority wins.
        assert_eq!(sorted(&[3.0, f64::NAN, 1.0]).median(), 3.0);
        assert_eq!(sorted(&[2.0, 1.0, f64::NAN, 4.0]).median(), 3.0);
        assert_eq!(sorted(&[]).median(), 0.0);
        assert_eq!(sorted(&[5.0, 1.0, 3.0]).median(), 3.0);
    }

    #[test]
    fn inserting_in_order_reads_what_sorting_a_copy_reads() {
        // The median and q75 the driver used to take by cloning and sorting
        // every committed duration, bit for bit.
        let mut rng = scirng::Rng::seed_from_u64(7);
        let mut kept = Sorted::default();
        let mut all = Vec::new();
        for _ in 0..300 {
            let v = match rng.below(20) {
                0 => f64::NAN,
                1 => -0.0,
                2 => 0.0,
                _ => rng.below(1000) as f64 / 7.0,
            };
            kept.insert(v);
            all.push(v);
            let mut s = all.clone();
            s.sort_by(f64::total_cmp);
            let n = s.len();
            let median = if n % 2 == 1 {
                s[n / 2]
            } else {
                0.5 * (s[n / 2 - 1] + s[n / 2])
            };
            let q75 = s[((n as f64 - 1.0) * 0.75).round() as usize];
            assert_eq!(kept.median().to_bits(), median.to_bits());
            assert_eq!(kept.quantile(0.75).to_bits(), q75.to_bits());
        }
    }

    #[test]
    fn speculative_attempt_is_exempt_from_the_retry_budget() {
        // max_task_attempts = 1: no retries at all. A straggler twin must
        // still launch (it is not a retry), and losing the straggler node
        // afterwards must not count the twin against the exhausted budget.
        let ft = FtConfig {
            max_task_attempts: 1,
            speculative: true,
            ..FtConfig::default()
        };
        // Compute-bound (10 s per map) so the slow-node factor dominates
        // startup; map-only.
        let mk_job = || {
            let mut job = slow_map_job(4, 10.0, ft.clone());
            job.reduce_fn = None;
            job
        };
        // Clean elapsed calibrates the kill time below.
        let mut clean = small_cluster(2, 2);
        let e = run_job(&mut clean, mk_job()).unwrap().elapsed();

        // Node 1 straggles 20x; its two tasks get speculative twins on
        // node 0 when node 0's tasks commit, at `e`, and the twins run for
        // as long again. Kill node 1 while they run: the originals die with
        // the budget long spent.
        let mut c = small_cluster(2, 2);
        c.sim
            .faults
            .install(FaultPlan::none().slow_node(1, 20.0).kill_node(1, 1.5 * e));
        let r = run_job(&mut c, mk_job()).unwrap();
        assert!(
            r.counters.get(keys::SPECULATIVE_LAUNCHED) >= 1.0,
            "budget of 1 must not block speculation: {:?}",
            r.counters
        );
        // The twins were never booked as retries.
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 0.0);
        assert_eq!(r.counters.get(keys::MAP_TASKS), 4.0);
        // First-commit-wins: the job ends on the twins, not on the 20x
        // stragglers (which would take ~200s of compute).
        assert!(r.elapsed() < 100.0, "elapsed {}", r.elapsed());
        assert!(r.elapsed() > 1.5 * e, "the kill landed mid-run");
    }
}
