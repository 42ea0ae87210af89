//! Speculative execution by estimated time to end, after LATE (Zaharia et
//! al., "Improving MapReduce Performance in Heterogeneous Environments",
//! OSDI 2008): an attempt gets one twin on another node when what its own
//! progress shows says a fresh attempt would end first.
//!
//! Once its compute is scheduled an attempt has a [`Progress`]: when that
//! compute ends — where a linear progress report extrapolates to — and how
//! much slower than charged it runs. Starting up, fetching or pulling it has
//! none. Three kinds of straggler are flagged:
//!
//! 1. *slow*: its slowness exceeds the median of the run's committed attempts
//!    by [`SLOW_MARGIN`], and its compute ends later than a replacement's
//!    would — judged when its compute is scheduled, and for the attempts
//!    already computing at the commit that first makes the statistics
//!    meaningful ([`MIN_COMPLETED`]);
//! 2. *stalled fetch*: its streamed fetch has lasted longer than a start-up
//!    plus the median duration of the committed attempts that fetched
//!    anything — checked once, at the first instant it could qualify
//!    ([`watch_fetch`]);
//! 3. *stranded*: its compute ended while its node was silent, so its
//!    completion never reached the driver — checked when the failure
//!    detector hears the node again ([`stranded`]).
//!
//! A twin goes neither to its straggler's node nor to any node hosting a
//! flagged attempt (LATE's slow-node rule): to the most free node left, else
//! to the slot of an attempt waiting downstream. A flagged attempt that found
//! no slot is tried again at each commit of its run. A pulling attempt is
//! twinned only once it has all its pulls and computes: its twin pulls again,
//! from outputs that are all registered by then. The speculator reads no
//! fault state — only progress, the committed statistics and what the
//! detector heard — and in a clean run, where every attempt of a run is as
//! slow as the next and nothing stalls, it launches nothing.

use simnet::{NodeId, Sim, SimTime};

use super::attempt::{launch, AttemptId};
use super::pool::{live_runs, preempt_waiting};
use super::sched::{cache_resident, Pick};
use super::{Driver, SharedDriver, SharedPool};

/// How many times the median slowness of the committed attempts an attempt
/// must run at to be slow.
const SLOW_MARGIN: f64 = 1.5;
/// Fraction of a run's tasks that must have committed before its attempts
/// are judged (there is no meaningful median earlier).
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

/// A run's speculation books: what its committed attempts showed, kept as
/// they commit, and its flagged stragglers.
#[derive(Debug, Default)]
pub(super) struct Speculator {
    /// Durations of the committed attempts that fetched anything.
    fetched: Sorted,
    /// How long each committed attempt fetched ([`Progress::fetch_s`]).
    fetches: Sorted,
    /// The slowness of each.
    slowness: Sorted,
    /// Enough has committed: an attempt is judged slow or not as its
    /// compute is scheduled.
    judging: bool,
    /// ... and a streamed fetch gets its stalled-fetch recheck as it opens
    /// (once an attempt that fetched anything has committed).
    timing_fetches: bool,
    /// The flagged stragglers, twinned or not, until they leave the table.
    flagged: Vec<AttemptId>,
}

impl Speculator {
    /// An attempt committed after `duration_s`, showing `p`.
    pub fn record(&mut self, duration_s: f64, p: &Progress) {
        if p.fetch_s > 0.0 {
            self.fetched.insert(duration_s);
        }
        self.fetches.insert(p.fetch_s);
        self.slowness.insert(p.slowness);
    }

    /// Whether an attempt showing `p` is slow at `now`: it runs more than
    /// [`SLOW_MARGIN`] times slower than the median committed attempt, and a
    /// replacement launched now — a start-up, the median fetch, its work at
    /// the median slowness — would end its compute first.
    fn slow(&self, p: &Progress, now: f64, startup_s: f64) -> bool {
        let median = self.slowness.median();
        let replaced_s = now + startup_s + self.fetches.median() + p.work_s * median;
        p.slowness > SLOW_MARGIN * median && p.ends_s > replaced_s
    }
}

/// Whether `d` may twin `task` now: its run is live and speculates, nothing
/// of its input is still open (a twin would wait), and the task has neither
/// committed nor been twinned.
fn twinnable(dd: &Driver, task: usize) -> bool {
    let open = dd.tasks.state(task);
    dd.alive()
        && dd.job.ft.speculative
        && !dd.waits()
        && open.is_some_and(|st| !st.done && !st.speculated)
}

/// A task of `d` has just committed and been recorded. Once
/// [`MIN_COMPLETED`] of the run's tasks have, the attempts in flight are
/// looked over — once when attempts start being judged slow, once when
/// fetches start being timed — and the flagged stragglers still without a
/// twin are offered the slot the commit freed.
pub(super) fn committed(sim: &mut Sim, d: &SharedDriver) {
    let (judge, time) = {
        let mut dd = d.borrow_mut();
        let enough = dd.durations.len() as f64 >= MIN_COMPLETED * dd.tasks.count() as f64;
        if !dd.job.ft.speculative || !dd.alive() || !enough {
            return;
        }
        let spec = &mut dd.spec;
        let judge = !spec.judging;
        let time = !spec.timing_fetches && spec.fetched.len() > 0;
        spec.judging = true;
        spec.timing_fetches |= time;
        (judge, time)
    };
    if judge || time {
        look_over(sim, d, judge, time);
    }
    twin_flagged(sim, d);
}

/// Look over `d`'s attempts in flight: flag those computing slowly when
/// `judge`, and queue a stalled-fetch recheck for those fetching when `time`.
fn look_over(sim: &mut Sim, d: &SharedDriver, judge: bool, time: bool) {
    let ids: Vec<AttemptId> = d.borrow().tasks.in_flight().map(|(id, _)| id).collect();
    for id in ids {
        if time {
            watch_fetch(sim, d, id);
        }
        if judge {
            computing(sim, d, id);
        }
    }
}

/// Attempt `id` of `d` has just opened a streamed fetch, or is looked over:
/// while fetches are timed, queue its one recheck at the instant its fetch
/// would outlast a start-up plus the median duration of the committed
/// attempts that fetched anything. A batch fetch is not watched: it shows no
/// progress until it ends, and one that contention stretches — as the
/// SciHadoop maps' tail of remote whole-file copies in `fig5` — beats a twin
/// that fetches under the same contention.
pub(super) fn watch_fetch(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let at = {
        let mut dd = d.borrow_mut();
        if !dd.spec.timing_fetches {
            return;
        }
        let limit = sim.cost.task_startup_s + dd.spec.fetched.median();
        let info = dd.tasks.attempt_mut(id);
        let info = info.filter(|i| !i.speculative && i.progress.is_none());
        let Some(from) = info.and_then(|i| i.stream_from.take()) else {
            return;
        };
        from + limit
    };
    let d = d.clone();
    let at = at.max(sim.now().secs());
    sim.at(SimTime(at), move |sim| {
        let fetching = d
            .borrow()
            .tasks
            .attempt(id)
            .is_some_and(|i| i.progress.is_none());
        if fetching {
            flag(sim, &d, id);
        }
    });
}

/// The compute of attempt `id` of `d` has just been scheduled, or it is
/// looked over: flag it if it is slow.
pub(super) fn computing(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let slow = {
        let dd = d.borrow();
        let progress = dd.tasks.attempt(id).and_then(|i| i.progress);
        let (now, startup_s) = (sim.now().secs(), sim.cost.task_startup_s);
        dd.spec.judging && progress.is_some_and(|p| dd.spec.slow(&p, now, startup_s))
    };
    if slow {
        flag(sim, d, id);
    }
}

/// The failure detector hears `node` again, after nothing since `heard_s`:
/// every attempt there whose compute ended in between has lost its
/// completion, and is flagged.
pub(super) fn stranded(sim: &mut Sim, pool: &SharedPool, node: NodeId, heard_s: f64) {
    let now = sim.now().secs();
    for d in live_runs(pool) {
        let ids: Vec<AttemptId> = {
            let dd = d.borrow();
            let lost = |p: &Progress| p.ends_s > heard_s && p.ends_s <= now;
            let there = dd.tasks.in_flight().filter(|(_, i)| i.node == node);
            let ended = there.filter(|(_, i)| i.progress.as_ref().is_some_and(lost));
            ended.map(|(id, _)| id).collect()
        };
        for id in ids {
            flag(sim, &d, id);
        }
    }
}

/// Flag attempt `id` of `d` a straggler, and twin it if its task may be.
fn flag(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    {
        let mut dd = d.borrow_mut();
        let task = dd.tasks.attempt(id).map(|i| i.task);
        if !task.is_some_and(|task| twinnable(&dd, task)) {
            return;
        }
        if !dd.spec.flagged.contains(&id) {
            dd.spec.flagged.push(id);
        }
    }
    twin(sim, d, id);
}

/// Offer a slot to each flagged straggler of `d` still without a twin, until
/// one finds none.
fn twin_flagged(sim: &mut Sim, d: &SharedDriver) {
    let untwinned: Vec<AttemptId> = {
        let mut dd = d.borrow_mut();
        let Driver { tasks, spec, .. } = &mut *dd;
        spec.flagged.retain(|&id| tasks.attempt(id).is_some());
        spec.flagged.clone()
    };
    for id in untwinned {
        if !twin(sim, d, id) {
            return;
        }
    }
}

/// The nodes hosting a flagged attempt still in flight, of any live run of
/// `pool`.
fn shunned(pool: &SharedPool) -> Vec<NodeId> {
    let mut nodes = Vec::new();
    for run in live_runs(pool) {
        let rd = run.borrow();
        let flagged = rd
            .spec
            .flagged
            .iter()
            .filter_map(|&id| rd.tasks.attempt(id));
        nodes.extend(flagged.map(|i| i.node));
    }
    nodes
}

/// Launch the twin of flagged attempt `id` of `d`, if its task may have one:
/// on the most free node no flagged attempt runs on, else in the slot of an
/// attempt waiting downstream there. First commit wins; the loser is
/// dropped. False when no slot was found.
fn twin(sim: &mut Sim, d: &SharedDriver, id: AttemptId) -> bool {
    let (task, pool) = {
        let dd = d.borrow();
        let task = dd.tasks.attempt(id).map(|i| i.task);
        match task.filter(|&task| twinnable(&dd, task)) {
            Some(task) => (task, dd.pool.clone()),
            None => return true,
        }
    };
    // Note: the attempt budget is deliberately not consulted — a twin is
    // exempt from `max_task_attempts` (it counts neither against the budget
    // nor as a retry), so speculating never costs the task its recovery
    // headroom.
    let shunned = shunned(&pool);
    let free = pool.borrow().nodes.most_free(&shunned);
    let Some(node) = free.or_else(|| preempt_waiting(sim, d, &shunned)) else {
        return false;
    };
    let pick = {
        let dd = d.borrow();
        let local = dd.job.splits.get(task);
        let local = local.is_some_and(|s| s.locations.contains(&node));
        let cache_local = cache_resident(&dd.cache_hints, &dd.env.cluster_cache, task, node);
        Pick::at(0, node, local, cache_local)
    };
    launch(sim, d, pick, task, true);
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
