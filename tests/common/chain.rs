//! Generated plans and a naive single-threaded interpreter of them, to
//! compare the engine's committed bytes with.
//!
//! A [`Plan`] is a source (splits, key skew, payload size) and a sequence of
//! operators over the whole `Dataset` surface: `map`, `filter`,
//! `reduce_by_key`, `group_by_key` (a `reduce_by_key` that length-prefixes a
//! key's values with `encode_group`), `map_groups` (a `map` that decodes
//! such a group) and `join`. A plan runs as a DAG, or — when it is a classic
//! job's shape, narrow operators and at most one `reduce_by_key` — as a
//! `Job` with reducers or a map-only `Job`. Every aggregate *concatenates*
//! its values, so the output spells the order they reached it in: (parent,
//! producing partition, emit order), whenever they arrived.
//!
//! [`Chain`] is the family `dag_overlap` sweeps: a source and one to three
//! `reduce_by_key` stages re-keyed in between.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    decode_group, encode_group, run_dag, run_job, AggFn, Cluster, DagJob, DagResult, Dataset,
    FlatPfsFetcher, FtConfig, InputSplit, Job, JobResult, MrError, PairFilterFn, PairMapFn,
    Payload, RecordReadFn, TaskCtx, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

pub const INPUT: &str = "data/chain.bin";
/// The input of a join's right side.
pub const RIGHT_INPUT: &str = "data/right.bin";
pub const OUT: &str = "chainout";
const SPLIT_BYTES: u64 = 512;

/// Committed output: path-sorted (file, bytes) pairs, empty files left out.
pub type Output = Vec<(String, Vec<u8>)>;

/// The detector knobs of `tests/chaos.rs`: quick to suspect, quick to give
/// up on a silent attempt.
pub fn chaos_ft() -> FtConfig {
    FtConfig {
        max_task_attempts: 8,
        speculative: false,
        heartbeat_interval_s: 1.0,
        suspect_after_misses: 1,
        dead_after_misses: 3,
        hang_deadline_min_s: 10.0,
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Which keys a source split emits its letter under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// A key every split shares, a key a third of them share, a key of its
    /// own.
    Spread,
    /// One key for everything: every shuffle has one non-empty partition.
    Hot,
    /// Two keys, by split parity.
    Pair,
}

/// A source: split `i` of `input` is `SPLIT_BYTES` bytes of value `base + i`;
/// it computes 2.5, 2, 1.5, 1, 2.5, … s — so sources commit out of index
/// order — and emits `bytes` copies of its letter under each of its keys.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Source {
    pub splits: usize,
    pub keys: Keys,
    pub bytes: usize,
    /// 0: the left input (letters `a`…), 1: a join's right input (`A`…).
    pub side: u8,
}

/// One operator of a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Fold every key onto one of five.
    Rekey,
    /// Emit every record twice, the copy under `<key>+`.
    Fan,
    /// Keep the records whose key's byte sum is not a multiple of 3.
    Filter,
    ReduceByKey(usize),
    GroupByKey(usize),
    /// Decode a `group_by_key` group and emit its values reversed, `|`-joined.
    MapGroups,
    Join(usize, Box<Plan>),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub source: Source,
    pub ops: Vec<Op>,
}

impl Plan {
    /// Narrow operators and at most one `reduce_by_key`, last: the shape of a
    /// classic job (its reducers, or map-only without one).
    pub fn is_classic(&self) -> bool {
        let narrow = match self.ops.split_last() {
            Some((Op::ReduceByKey(_), narrow)) => narrow,
            _ => &self.ops[..],
        };
        let narrow_op = |op: &Op| matches!(op, Op::Rekey | Op::Fan | Op::Filter);
        narrow.iter().all(narrow_op)
    }

    /// Every `map_groups` reads a `group_by_key` group, and a join's right
    /// side is itself valid and has no join.
    pub fn valid(&self) -> bool {
        let mut grouped = false;
        for op in &self.ops {
            match op {
                Op::MapGroups if !grouped => return false,
                Op::Join(_, right) if !right.valid() || right.has_join() => return false,
                _ => {}
            }
            grouped = matches!(op, Op::GroupByKey(_));
        }
        true
    }

    fn has_join(&self) -> bool {
        self.ops.iter().any(|op| matches!(op, Op::Join(..)))
    }

    fn wide(&self) -> bool {
        self.ops
            .iter()
            .any(|op| matches!(op, Op::ReduceByKey(_) | Op::GroupByKey(_) | Op::Join(..)))
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.source;
        write!(
            f,
            "source({} splits, {:?} keys, {} B)",
            s.splits, s.keys, s.bytes
        )?;
        for op in &self.ops {
            match op {
                Op::Rekey => write!(f, " | map(rekey)")?,
                Op::Fan => write!(f, " | map(fan)")?,
                Op::Filter => write!(f, " | filter")?,
                Op::ReduceByKey(w) => write!(f, " | reduce_by_key({w})")?,
                Op::GroupByKey(w) => write!(f, " | group_by_key({w})")?,
                Op::MapGroups => write!(f, " | map_groups")?,
                Op::Join(w, right) => write!(f, " | join({w}, {right})")?,
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The user functions: shared by the engine's plan and the interpreter
// ---------------------------------------------------------------------------

fn split_value(side: u8, i: usize) -> u8 {
    32 * side + i as u8
}

fn reader(src: Source) -> RecordReadFn {
    Rc::new(move |input, ctx| {
        let TaskInput::Bytes(b) = input else {
            return Err(MrError::msg("expected bytes"));
        };
        let v = *b.first().ok_or_else(|| MrError::msg("empty split"))?;
        let i = v - 32 * src.side;
        ctx.charge("compute", 2.5 - 0.5 * f64::from(i % 4));
        let keys = match src.keys {
            Keys::Spread => vec![
                "all".to_string(),
                format!("third{}", i % 3),
                format!("own{i}"),
            ],
            Keys::Hot => vec!["hot".to_string()],
            Keys::Pair => vec![format!("k{}", i % 2)],
        };
        let letter = [b'a', b'A'][usize::from(src.side)] + i;
        let value = || Payload::Bytes(vec![letter; src.bytes]);
        Ok(keys.into_iter().map(|k| (k, value())).collect())
    })
}

fn bytes_of(v: Payload) -> Vec<u8> {
    match v {
        Payload::Bytes(b) => b,
        Payload::Frame(_) => Vec::new(),
    }
}

/// Concatenate a key's values, in the order given, for 0.05 s of compute.
fn concat() -> AggFn {
    Rc::new(|_key, values, ctx| {
        ctx.charge("agg", 0.05);
        Ok(Payload::Bytes(
            values.into_iter().flat_map(bytes_of).collect(),
        ))
    })
}

/// A key's values, length-prefixed by the library's encoding.
fn group_agg() -> AggFn {
    Rc::new(|_key, values, ctx| {
        ctx.charge("agg", 0.05);
        let values: Vec<Vec<u8>> = values.into_iter().map(bytes_of).collect();
        Ok(Payload::Bytes(encode_group(&values)))
    })
}

/// Between two shuffles: fold the keys onto five new ones, so every
/// downstream key gathers values from several upstream partitions.
fn rekey() -> PairMapFn {
    Rc::new(|key, value, _ctx| {
        let folded = key
            .bytes()
            .fold(0u32, |h, b| h.wrapping_mul(31).wrapping_add(u32::from(b)))
            % 5;
        Ok(vec![(format!("k{folded}"), value)])
    })
}

fn fan() -> PairMapFn {
    Rc::new(|key, value, _ctx| {
        Ok(vec![
            (key.to_string(), value.clone()),
            (format!("{key}+"), value),
        ])
    })
}

fn keep(key: &str) -> bool {
    key.bytes().map(u32::from).sum::<u32>() % 3 != 0
}

fn filter() -> PairFilterFn {
    Rc::new(|key, _| keep(key))
}

fn reversed(parts: Vec<Vec<u8>>) -> Vec<u8> {
    let mut parts = parts;
    parts.reverse();
    parts.join(&b'|')
}

fn map_groups() -> PairMapFn {
    Rc::new(|key, value, _ctx| {
        let parts = decode_group(&bytes_of(value))?;
        Ok(vec![(key.to_string(), Payload::Bytes(reversed(parts)))])
    })
}

// ---------------------------------------------------------------------------
// Running a plan on the engine
// ---------------------------------------------------------------------------

/// A cluster of `nodes` x `slots` under `faults`, both inputs staged.
pub fn cluster(nodes: usize, slots: usize, splits: usize, faults: FaultPlan) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: nodes,
        storage_nodes: 1,
        osts: 2,
        slots_per_node: slots,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        n_osts: 2,
        ..PfsConfig::default()
    };
    let mut c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
    for (side, path) in [(0, INPUT), (1, RIGHT_INPUT)] {
        let value = |i| vec![split_value(side, i); SPLIT_BYTES as usize];
        let bytes = (0..splits).flat_map(value).collect();
        c.pfs.borrow_mut().create(path.to_string(), bytes);
    }
    c.sim.faults.install(faults);
    c
}

fn splits(src: Source) -> Vec<InputSplit> {
    let path = [INPUT, RIGHT_INPUT][usize::from(src.side)];
    let split = |i: u64| InputSplit {
        length: SPLIT_BYTES,
        locations: Vec::new(),
        fetcher: Rc::new(FlatPfsFetcher {
            pfs_path: path.to_string(),
            offset: i * SPLIT_BYTES,
            len: SPLIT_BYTES,
            sequential_chunks: 1,
        }),
    };
    (0..src.splits as u64).map(split).collect()
}

/// The plan as a `Dataset`.
pub fn dataset(plan: &Plan) -> Dataset {
    let mut ds = Dataset::from_splits(splits(plan.source), reader(plan.source));
    for op in &plan.ops {
        ds = match op {
            Op::Rekey => ds.map(rekey()),
            Op::Fan => ds.map(fan()),
            Op::Filter => ds.filter(filter()),
            Op::ReduceByKey(w) => ds.reduce_by_key(*w, concat()),
            Op::GroupByKey(w) => ds.reduce_by_key(*w, group_agg()),
            Op::MapGroups => ds.map(map_groups()),
            Op::Join(w, right) => ds.join(&dataset(right), *w),
        };
    }
    ds
}

/// A classic plan as a `Job`: the reader and the narrow operators are its
/// map function; its `reduce_by_key`, if any, its reducers.
pub fn job(plan: &Plan) -> Job {
    let read = reader(plan.source);
    let mut narrow = plan.ops.clone();
    let reducers = match narrow.last() {
        Some(&Op::ReduceByKey(w)) => {
            narrow.pop();
            Some(w)
        }
        _ => None,
    };
    let map_fn = Rc::new(move |input, ctx: &mut TaskCtx| {
        let mut records = read(input, ctx)?;
        for op in &narrow {
            records = match op {
                Op::Filter => records.into_iter().filter(|(k, _)| keep(k)).collect(),
                Op::Rekey | Op::Fan => {
                    let f = if *op == Op::Rekey { rekey() } else { fan() };
                    let mut next = Vec::new();
                    for (k, v) in records {
                        next.extend(f(&k, v, ctx)?);
                    }
                    next
                }
                _ => return Err(MrError::msg("not a classic job's operator")),
            };
        }
        for (k, v) in records {
            ctx.emit(k, v);
        }
        Ok(())
    });
    let agg = concat();
    let reduce_fn: Option<scidp_suite::mapreduce::ReduceFn> = reducers.map(|_| {
        Rc::new(move |key: &str, values, ctx: &mut TaskCtx| {
            let value = agg(key, values, ctx)?;
            ctx.emit(key, value);
            Ok(())
        }) as scidp_suite::mapreduce::ReduceFn
    });
    Job {
        ft: chaos_ft(),
        ..Job::new(
            "plan",
            splits(plan.source),
            map_fn,
            reduce_fn,
            reducers.unwrap_or(1),
            OUT,
        )
    }
}

/// How a plan runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    Dag,
    /// A classic `Job`: with reducers, or map-only.
    Job,
}

/// The outcome of one run.
pub enum Ran {
    Dag(DagResult),
    Job(JobResult),
}

impl Ran {
    pub fn end_s(&self) -> f64 {
        match self {
            Ran::Dag(r) => r.end_s,
            Ran::Job(r) => r.end_s,
        }
    }

    pub fn counters(&self) -> &scidp_suite::mapreduce::Counters {
        match self {
            Ran::Dag(r) => &r.counters,
            Ran::Job(r) => &r.counters,
        }
    }
}

/// Run `plan` as `form` on `nodes` x `slots` under `faults`: the outcome,
/// what it committed and the temp files it left behind.
pub fn run(
    plan: &Plan,
    form: Form,
    (nodes, slots): (usize, usize),
    faults: FaultPlan,
) -> (Result<Ran, MrError>, Output, Vec<String>) {
    let mut c = cluster(nodes, slots, max_splits(plan), faults);
    let r = match form {
        Form::Dag => {
            let dag = DagJob {
                ft: chaos_ft(),
                ..DagJob::new("plan", dataset(plan), OUT)
            };
            run_dag(&mut c, dag).map(Ran::Dag)
        }
        Form::Job => run_job(&mut c, job(plan)).map(Ran::Job),
    };
    let mut output = c.read_output(OUT).unwrap_or_default();
    output.retain(|(_, data)| !data.is_empty());
    (r, output, super::leftover_temp_files(&c))
}

fn max_splits(plan: &Plan) -> usize {
    let right = plan.ops.iter().filter_map(|op| match op {
        Op::Join(_, right) => Some(max_splits(right)),
        _ => None,
    });
    right.fold(plan.source.splits, usize::max)
}

// ---------------------------------------------------------------------------
// The naive interpreter
// ---------------------------------------------------------------------------

type Rec = (String, Vec<u8>);

/// A partition's records grouped by key, each value tagged with its parent.
type Groups = BTreeMap<String, Vec<(u8, Vec<u8>)>>;

/// FNV-1a, the engine's partitioner.
fn fnv1a(key: &str) -> u64 {
    let hash = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    key.bytes().fold(0xcbf2_9ce4_8422_2325u64, hash)
}

/// Length-prefixed values: a u32-LE length, then the bytes.
fn encode(values: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

fn decode(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        let end = (4 + len).min(bytes.len());
        out.push(bytes[4..end].to_vec());
        bytes = &bytes[end..];
    }
    out
}

/// Apply the user function `f` to one record, standalone.
fn apply(f: &PairMapFn, (k, v): Rec) -> Vec<Rec> {
    let mut ctx = TaskCtx::standalone(CostModel::default());
    let out = f(&k, Payload::Bytes(v), &mut ctx).expect("narrow operator");
    out.into_iter().map(|(k, v)| (k, bytes_of(v))).collect()
}

/// Every partition of `parents`' records, in partition order: each key's
/// values tagged with their parent, in (parent, producing partition, emit)
/// order, keys in order.
fn shuffle(parents: Vec<Vec<Vec<Rec>>>, width: usize) -> Vec<Groups> {
    let mut parts = vec![Groups::new(); width];
    for (tag, parent) in parents.into_iter().enumerate() {
        for (key, value) in parent.into_iter().flatten() {
            let p = (fnv1a(&key) % width as u64) as usize;
            parts[p].entry(key).or_default().push((tag as u8, value));
        }
    }
    parts
}

/// The records of every producing partition of `plan`'s last stage, in
/// emit order: one per split while no wide operator has run.
fn evaluate(plan: &Plan) -> Vec<Vec<Rec>> {
    let read = reader(plan.source);
    let mut parts: Vec<Vec<Rec>> = (0..plan.source.splits)
        .map(|i| {
            let mut ctx = TaskCtx::standalone(CostModel::default());
            let split = TaskInput::Bytes(vec![split_value(plan.source.side, i); 4]);
            let records = read(split, &mut ctx).expect("read");
            records.into_iter().map(|(k, v)| (k, bytes_of(v))).collect()
        })
        .collect();
    let narrow = |parts: Vec<Vec<Rec>>, f: PairMapFn| -> Vec<Vec<Rec>> {
        let each = |p: Vec<Rec>| p.into_iter().flat_map(|r| apply(&f, r)).collect();
        parts.into_iter().map(each).collect()
    };
    for op in &plan.ops {
        parts = match op {
            Op::Rekey => narrow(parts, rekey()),
            Op::Fan => narrow(parts, fan()),
            Op::Filter => {
                let each = |p: Vec<Rec>| p.into_iter().filter(|(k, _)| keep(k)).collect();
                parts.into_iter().map(each).collect()
            }
            Op::MapGroups => {
                let f = |(k, v): Rec| (k, reversed(decode(&v)));
                let each = |p: Vec<Rec>| p.into_iter().map(f).collect();
                parts.into_iter().map(each).collect()
            }
            Op::ReduceByKey(w) | Op::GroupByKey(w) => {
                let concat = matches!(op, Op::ReduceByKey(_));
                let group = |groups: Groups| {
                    let records = groups.into_iter().map(|(k, tagged)| {
                        let values: Vec<Vec<u8>> = tagged.into_iter().map(|(_, v)| v).collect();
                        (
                            k,
                            if concat {
                                values.concat()
                            } else {
                                encode(&values)
                            },
                        )
                    });
                    records.collect()
                };
                shuffle(vec![parts], *w).into_iter().map(group).collect()
            }
            Op::Join(w, right) => {
                let join = |groups: Groups| {
                    let mut out = Vec::new();
                    for (k, tagged) in groups {
                        let side = |s: u8| tagged.iter().filter(move |(t, _)| *t == s);
                        for (_, l) in side(0) {
                            for (_, r) in side(1) {
                                out.push((k.clone(), encode(&[l.clone(), r.clone()])));
                            }
                        }
                    }
                    out
                };
                let both = vec![parts, evaluate(right)];
                shuffle(both, *w).into_iter().map(join).collect()
            }
        };
    }
    parts
}

/// What `plan` run as `form` must commit, evaluated naively: one
/// `key\tvalue` line per record of each last-stage partition, in a part file
/// named as the engine names it.
pub fn interpret(plan: &Plan, form: Form) -> Output {
    let prefix = match form {
        Form::Dag => "part-",
        Form::Job if plan.wide() => "part-r-",
        Form::Job => "part-m-",
    };
    let mut output = Output::new();
    for (p, records) in evaluate(plan).into_iter().enumerate() {
        let mut data = Vec::new();
        for (key, value) in records {
            data.extend_from_slice(key.as_bytes());
            data.push(b'\t');
            data.extend_from_slice(&value);
            data.push(b'\n');
        }
        if !data.is_empty() {
            output.push((format!("{OUT}/{prefix}{p:05}"), data));
        }
    }
    output
}

// ---------------------------------------------------------------------------
// The chains `dag_overlap` sweeps
// ---------------------------------------------------------------------------

/// One cluster and chain shape.
#[derive(Clone, Copy, Debug)]
pub struct Chain {
    /// Stages of the DAG: the source stage and `stages - 1` shuffles.
    pub stages: usize,
    /// Width of every shuffle.
    pub width: usize,
    pub splits: usize,
    pub nodes: usize,
    pub slots: usize,
}

impl Chain {
    /// The chain as a [`Plan`]: `reduce_by_key`, then `map(rekey)` and
    /// `reduce_by_key` for each further shuffle.
    pub fn spec(&self) -> Plan {
        let mut ops = Vec::new();
        for shuffle in 1..self.stages {
            if shuffle > 1 {
                ops.push(Op::Rekey);
            }
            ops.push(Op::ReduceByKey(self.width));
        }
        let source = Source {
            splits: self.splits,
            keys: Keys::Spread,
            bytes: 1,
            side: 0,
        };
        Plan { source, ops }
    }

    /// A cluster of the chain's shape under `plan`, the input staged.
    pub fn cluster(&self, plan: FaultPlan) -> Cluster {
        cluster(self.nodes, self.slots, self.splits, plan)
    }

    /// The chain as a `Dataset` plan.
    pub fn plan(&self) -> Dataset {
        dataset(&self.spec())
    }

    /// Run the chain under `plan`: the outcome, what it committed and the
    /// temp files it left behind.
    pub fn run(&self, plan: FaultPlan) -> (Result<DagResult, MrError>, Output, Vec<String>) {
        let mut c = self.cluster(plan);
        let job = DagJob {
            ft: chaos_ft(),
            ..DagJob::new("chain", self.plan(), OUT)
        };
        let r = run_dag(&mut c, job);
        let mut output = c.read_output(OUT).unwrap_or_default();
        output.retain(|(_, data)| !data.is_empty());
        (r, output, super::leftover_temp_files(&c))
    }

    /// What the chain must commit ([`interpret`]).
    pub fn naive_output(&self) -> Output {
        interpret(&self.spec(), Form::Dag)
    }
}

/// `output` as text, for a readable failure.
pub fn text(output: &Output) -> Vec<(&str, String)> {
    let files = output.iter();
    files
        .map(|(path, data)| (path.as_str(), String::from_utf8_lossy(data).into_owned()))
        .collect()
}
