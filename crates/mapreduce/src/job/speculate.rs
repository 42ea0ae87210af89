//! Speculative execution: duplicate attempts for straggling maps.

use simnet::{Sim, SimTime};

use super::attempt::{launch, AttemptId};
use super::pool::preempt_waiting;
use super::sched::{cache_resident, Pick};
use super::SharedDriver;

/// A running map is a straggler once its elapsed time exceeds this multiple
/// of the median committed map duration.
const SLOWDOWN: f64 = 2.0;
/// Fraction of maps that must have committed before speculation is
/// considered (there is no meaningful median earlier).
const MIN_COMPLETED: f64 = 0.5;

/// Median of `v`; 0 on empty input.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    // total_cmp: a NaN duration (however degenerate the timing) must not
    // panic the driver mid-job; NaNs sort to the end and the median of the
    // finite majority still steers speculation sensibly.
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |i: usize| s.get(i).copied().unwrap_or(0.0);
    if n % 2 == 1 {
        at(n / 2)
    } else {
        0.5 * (at((n / 2).saturating_sub(1)) + at(n / 2))
    }
}

/// Called at every map commit: queue one straggler check per still-running
/// map attempt at the instant it would cross the slowdown threshold.
pub(super) fn schedule_speculation_checks(sim: &mut Sim, d: &SharedDriver) {
    let (checks, threshold) = {
        let mut dd = d.borrow_mut();
        // A pulling task is never speculated: its twin would pull again.
        if !dd.job.ft.speculative || !dd.alive() || dd.pulls() {
            return;
        }
        let n_maps = dd.job.splits.len();
        if (dd.durations.len() as f64) < MIN_COMPLETED * n_maps as f64 {
            return;
        }
        let med = median(&dd.durations);
        if med <= 0.0 {
            return;
        }
        (dd.tasks.claim_straggler_checks(), SLOWDOWN * med)
    };
    let now = sim.now().secs();
    for (id, start_s) in checks {
        let d2 = d.clone();
        sim.at(SimTime((start_s + threshold).max(now)), move |sim| {
            maybe_speculate(sim, &d2, id)
        });
    }
}

/// The straggler check: if the attempt is still running past its threshold
/// and a different usable node has a free slot, launch a duplicate attempt.
/// First commit wins; the loser is orphaned.
fn maybe_speculate(sim: &mut Sim, d: &SharedDriver, id: AttemptId) {
    let straggler = {
        let dd = d.borrow();
        let Some(info) = dd.tasks.attempt(id) else {
            return; // finished or failed before its check fired
        };
        // Note: the attempt budget is deliberately not consulted — a
        // speculative launch is exempt from `max_task_attempts` (it counts
        // neither against the budget nor as a retry), so speculating never
        // costs the task its recovery headroom.
        let open = dd.tasks.state(info.task);
        if !open.is_some_and(|st| !st.done && !st.speculated) {
            return;
        }
        (info.task, info.node)
    };
    let (task, straggler_node) = straggler;
    // A twin is a map attempt: with no free slot elsewhere it takes the
    // slot of an attempt waiting downstream.
    let elsewhere = Some(straggler_node);
    let free = d.borrow().pool.borrow().nodes.most_free(elsewhere);
    let Some(node) = free.or_else(|| preempt_waiting(sim, d, elsewhere)) else {
        return; // no spare capacity elsewhere; let the original run
    };
    let pick = {
        let dd = d.borrow();
        let local = dd.job.splits.get(task);
        let local = local.is_some_and(|s| s.locations.contains(&node));
        let cache_local = cache_resident(&dd.cache_hints, &dd.env.cluster_cache, task, node);
        Pick::at(0, node, local, cache_local)
    };
    launch(sim, d, pick, task, true);
}

#[cfg(test)]
mod tests {
    use super::median;
    use crate::counters::keys;
    use crate::job::tests::{slow_map_job, small_cluster};
    use crate::job::{run_job, FtConfig};
    use simnet::FaultPlan;

    #[test]
    fn median_survives_nan_durations() {
        // Regression: a NaN duration used to panic the sort comparator
        // (`partial_cmp().expect(...)`) mid-job.
        assert!(median(&[f64::NAN]).is_nan());
        // NaNs sort last under total_cmp, so the finite majority wins.
        assert_eq!(median(&[3.0, f64::NAN, 1.0]), 3.0);
        assert_eq!(median(&[2.0, 1.0, f64::NAN, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
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
        // node 0 once node 0's tasks commit. Kill node 1 while the twins
        // run: the originals die with the budget long spent.
        let mut c = small_cluster(2, 2);
        c.sim
            .faults
            .install(FaultPlan::none().slow_node(1, 20.0).kill_node(1, 2.3 * e));
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
        assert!(r.elapsed() > 2.3 * e, "the kill landed mid-run");
    }
}
