//! Generated plans against a naive interpreter: random operator sequences
//! over the whole `Dataset` surface (`common::chain`), with random widths,
//! key skew (a hot key, empty partitions) and payload sizes, run as DAGs —
//! and the classic `Job` shapes among them as jobs with reducers or map-only
//! — on small clusters, clean and under each kind of fault the `chaos` sweep
//! injects. Each run ends `Ok` with the bytes the interpreter gives, or in a
//! typed `Err` where the fault may end it — never a drained queue, never a
//! `_tmp/` file left behind — and, where no stage run failed, accounts for
//! every attempt it launched. A failing case is shrunk to a minimal plan
//! first: fewer operators, narrower shuffles, fewer splits, a simpler
//! cluster, no fault. `SCIDP_FAULT_SEED` reseeds the generator (CI's
//! `driver` job runs seeds 1-3).

use scidp_suite::simnet::FaultPlan;
use scirng::Rng;

mod common;
use common::chain::{interpret, run, text, Form, Keys, Op, Output, Plan, Ran, Source, INPUT};
use common::{attempt_law, plan_expr};

/// One generated case: a plan, how it runs, on how many nodes x slots.
#[derive(Clone, Debug)]
struct Case {
    plan: Plan,
    form: Form,
    cluster: (usize, usize),
}

/// A kind of fault, placed at an instant of the clean run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    Clean,
    Kill(u32, f64),
    Hang(u32, f64),
    Healed(u32, f64, f64),
    Cut(u32, f64),
    SlowLink(u32, u32, f64),
    HungRead(u64),
}

impl Fault {
    fn plan(self, seed: u64) -> FaultPlan {
        let base = FaultPlan::none().with_seed(seed);
        match self {
            Fault::Clean => base,
            Fault::Kill(n, at) => base.kill_node(n, at),
            Fault::Hang(n, at) => base.hang_node(n, at),
            Fault::Healed(n, at, heal) => base.partition(&[n], at, heal),
            Fault::Cut(n, at) => base.partition(&[n], at, f64::INFINITY),
            Fault::SlowLink(a, b, f) => base.slow_link(a, b, f),
            Fault::HungRead(nth) => base.hang_nth_read(INPUT, nth),
        }
    }

    /// Whether the run must end `Ok`. Lineage recomputes what a DAG's dead,
    /// hung or cut-off node held; a job's reducers wait for a holder that
    /// hangs or is cut off for good. A one-node cluster has no survivor.
    fn survivable(self, form: Form, nodes: usize) -> bool {
        let spare = nodes > 1;
        match self {
            Fault::Clean | Fault::SlowLink(..) | Fault::HungRead(_) => true,
            Fault::Kill(..) | Fault::Healed(..) => spare,
            Fault::Hang(..) | Fault::Cut(..) => spare && form == Form::Dag,
        }
    }
}

fn source(rng: &mut Rng, side: u8) -> Source {
    Source {
        splits: 1 + rng.below(5),
        keys: [Keys::Spread, Keys::Hot, Keys::Pair][rng.below(3)],
        bytes: [1, 3, 40][rng.below(3)],
        side,
    }
}

/// One to four operators; a join's right side is a source and at most one
/// narrow operator.
fn plan(rng: &mut Rng) -> Plan {
    let mut plan = Plan {
        source: source(rng, 0),
        ops: Vec::new(),
    };
    for _ in 0..1 + rng.below(4) {
        let width = 1 + rng.below(4);
        let op = match rng.below(8) {
            0 => Op::Rekey,
            1 => Op::Fan,
            2 => Op::Filter,
            3 | 4 => Op::ReduceByKey(width),
            5 => match plan.ops.last() {
                Some(Op::GroupByKey(_)) => Op::MapGroups,
                _ => Op::GroupByKey(width),
            },
            _ => {
                let mut right = Plan {
                    source: source(rng, 1),
                    ops: Vec::new(),
                };
                if rng.below(2) == 0 {
                    right
                        .ops
                        .push([Op::Rekey, Op::Fan, Op::Filter][rng.below(3)].clone());
                }
                Op::Join(width, Box::new(right))
            }
        };
        plan.ops.push(op);
    }
    plan
}

fn case(rng: &mut Rng) -> Case {
    let mut plan = plan(rng);
    // A quarter of the cases are classic jobs: narrow operators and at most
    // one `reduce_by_key`.
    let form = if rng.below(4) == 0 {
        plan.ops
            .retain(|op| matches!(op, Op::Rekey | Op::Fan | Op::Filter));
        if rng.below(3) > 0 {
            plan.ops.push(Op::ReduceByKey(1 + rng.below(4)));
        }
        Form::Job
    } else {
        Form::Dag
    };
    Case {
        plan,
        form,
        cluster: (1 + rng.below(3), 1 + rng.below(2)),
    }
}

/// The clean run and one of each kind of fault, on sampled nodes at sampled
/// instants of the clean run.
fn faults(rng: &mut Rng, nodes: usize, end_s: f64) -> Vec<Fault> {
    let mut node = || rng.below(nodes) as u32;
    let n: [u32; 6] = std::array::from_fn(|_| node());
    let mut at = || rng.range_f64(0.0, end_s);
    let t: [f64; 4] = std::array::from_fn(|_| at());
    let heal = t[2] + rng.range_f64(0.5, 6.0);
    vec![
        Fault::Clean,
        Fault::Kill(n[0], t[0]),
        Fault::Hang(n[1], t[1]),
        Fault::Healed(n[2], t[2], heal),
        Fault::Cut(n[3], t[3]),
        Fault::SlowLink(n[4], n[5], rng.range_f64(2.0, 16.0)),
        Fault::HungRead(1 + rng.below(4) as u64),
    ]
}

/// Run `case` under `fault`: whether it ended `Ok` (and then held the
/// attempt law); `Err` names the violation.
fn check(case: &Case, fault: Fault, seed: u64) -> Result<bool, String> {
    let want: Output = interpret(&case.plan, case.form);
    let (r, output, leftovers) = run(&case.plan, case.form, case.cluster, fault.plan(seed));
    if !leftovers.is_empty() {
        return Err(format!("temp files left behind: {leftovers:?}"));
    }
    let r: Ran = match r {
        Err(e) if e.message().contains("drained") => return Err(format!("stalled: {e}")),
        Err(e) if fault.survivable(case.form, case.cluster.0) => {
            return Err(format!("ended in {e:?}"))
        }
        Err(_) => return Ok(false),
        Ok(r) => r,
    };
    if output != want {
        return Err(format!(
            "committed {:?}, the interpreter gives {:?}",
            text(&output),
            text(&want)
        ));
    }
    attempt_law(r.counters())?;
    Ok(true)
}

/// The simpler neighbours of a failing case, simplest change first.
fn simpler(case: &Case, fault: Fault) -> Vec<(Case, Fault)> {
    let mut out = Vec::new();
    let mut push = |plan: Plan, cluster, fault| {
        let form_holds = case.form == Form::Dag || plan.is_classic();
        if plan.valid() && form_holds {
            let form = case.form;
            out.push((
                Case {
                    plan,
                    form,
                    cluster,
                },
                fault,
            ));
        }
    };
    let (plan, cluster) = (&case.plan, case.cluster);
    if fault != Fault::Clean {
        push(plan.clone(), cluster, Fault::Clean);
    }
    for i in 0..plan.ops.len() {
        let mut p = plan.clone();
        p.ops.remove(i);
        push(p, cluster, fault);
    }
    for i in 0..plan.ops.len() {
        let mut p = plan.clone();
        match &mut p.ops[i] {
            Op::ReduceByKey(w) | Op::GroupByKey(w) if *w > 1 => *w -= 1,
            Op::Join(w, right) => {
                if *w > 1 {
                    *w -= 1;
                } else if !right.ops.is_empty() {
                    right.ops.clear();
                } else if right.source.splits > 1 {
                    right.source.splits -= 1;
                } else {
                    continue;
                }
            }
            _ => continue,
        }
        push(p, cluster, fault);
    }
    let mut p = plan.clone();
    if p.source.splits > 1 {
        p.source.splits -= 1;
        push(p, cluster, fault);
    }
    let mut p = plan.clone();
    if p.source.bytes > 1 {
        p.source.bytes = 1;
        push(p, cluster, fault);
    }
    if cluster.1 > 1 {
        push(plan.clone(), (cluster.0, 1), fault);
    }
    out
}

/// Shrink a failing `case` to one none of whose simpler neighbours fails.
fn shrink(mut case: Case, mut fault: Fault, mut violation: String, seed: u64) -> String {
    'smaller: loop {
        for (c, f) in simpler(&case, fault) {
            if let Err(v) = check(&c, f, seed) {
                (case, fault, violation) = (c, f, v);
                continue 'smaller;
            }
        }
        break;
    }
    format!(
        "{violation}\n  plan: {} as a {:?} on {} nodes x {} slots\n  faults: {}",
        case.plan,
        case.form,
        case.cluster.0,
        case.cluster.1,
        plan_expr(&fault.plan(seed))
    )
}

#[test]
fn every_generated_plan_matches_the_interpreter_clean_and_under_every_kind_of_fault() {
    let seed = FaultPlan::env_seed(31);
    let mut rng = Rng::seed_from_u64(seed);
    // What the generator exercised, so a green run is not a vacuous one.
    let (mut runs, mut ok) = (0, 0);
    let (mut jobs, mut joins, mut skewed) = (0, 0, 0);
    for _ in 0..400 {
        let case = case(&mut rng);
        let (clean, ..) = run(&case.plan, case.form, case.cluster, FaultPlan::none());
        let end_s = match clean {
            Ok(r) => r.end_s(),
            Err(e) => panic!("{}", shrink(case, Fault::Clean, format!("{e}"), seed)),
        };
        jobs += usize::from(case.form == Form::Job);
        joins += usize::from(case.plan.ops.iter().any(|op| matches!(op, Op::Join(..))));
        skewed += usize::from(case.plan.source.keys != Keys::Spread);
        for fault in faults(&mut rng, case.cluster.0, end_s) {
            match check(&case, fault, seed) {
                Ok(ended_ok) => ok += usize::from(ended_ok),
                Err(v) => panic!(
                    "{} (generator seed {seed})",
                    shrink(case.clone(), fault, v, seed)
                ),
            }
            runs += 1;
        }
    }
    println!(
        "{runs} runs (seed {seed}): {ok} ended Ok with the interpreter's bytes and held the \
         attempt law; {jobs} classic jobs, {joins} joins, {skewed} skewed sources"
    );
    assert!(
        ok >= runs * 3 / 4 && jobs >= 60 && joins >= 60 && skewed >= 150,
        "generator too thin"
    );
}
