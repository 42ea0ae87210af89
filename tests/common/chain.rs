//! A generated family of `Dataset` chains — a source stage and one to three
//! `reduce_by_key` stages re-keyed in between — with a naive single-threaded
//! evaluation of the same plan to compare the engine's committed bytes with.
//! Every stage's aggregate *concatenates* its values, so the output spells
//! the order they reached it in: (source shuffle, producing partition, emit
//! order), whenever they arrived.

use std::collections::BTreeMap;
use std::rc::Rc;

use scidp_suite::mapreduce::{
    run_dag, AggFn, Cluster, DagJob, DagResult, Dataset, FlatPfsFetcher, FtConfig, InputSplit,
    MrError, PairMapFn, Payload, RecordReadFn, TaskCtx, TaskInput,
};
use scidp_suite::pfs::PfsConfig;
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};

pub const INPUT: &str = "data/chain.bin";
pub const OUT: &str = "chainout";
const SPLIT_BYTES: u64 = 512;

/// One cluster and plan shape.
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

/// Split `i` runs 2.5, 2, 1.5, 1, 2.5, … s — so sources commit out of index
/// order — and emits its letter under a key every split shares, a key a third
/// of them share and a key of its own.
fn read_split() -> RecordReadFn {
    Rc::new(|input, ctx| {
        let TaskInput::Bytes(b) = input else {
            return Err(MrError::msg("expected bytes"));
        };
        let i = *b.first().ok_or_else(|| MrError::msg("empty split"))?;
        ctx.charge("compute", 2.5 - 0.5 * f64::from(i % 4));
        let keys = [
            "all".to_string(),
            format!("third{}", i % 3),
            format!("own{i}"),
        ];
        let letter = || Payload::Bytes(vec![b'a' + i]);
        Ok(keys.into_iter().map(|k| (k, letter())).collect())
    })
}

/// Concatenate a key's values, in the order given, for 0.05 s of compute.
fn concat() -> AggFn {
    Rc::new(|_key, values, ctx| {
        ctx.charge("agg", 0.05);
        let letters = values.into_iter().flat_map(|v| match v {
            Payload::Bytes(b) => b,
            Payload::Frame(_) => Vec::new(),
        });
        Ok(Payload::Bytes(letters.collect()))
    })
}

/// Between two shuffles: fold the keys onto five new ones, so every
/// downstream key gathers values from several upstream partitions.
fn rekey() -> PairMapFn {
    Rc::new(|key, value, _ctx| {
        let folded = key.bytes().fold(0u32, |h, b| h * 31 + u32::from(b)) % 5;
        Ok(vec![(format!("k{folded}"), value)])
    })
}

impl Chain {
    fn split_bytes(i: usize) -> Vec<u8> {
        vec![i as u8; SPLIT_BYTES as usize]
    }

    /// A cluster of the chain's shape under `plan`, the input staged: split
    /// `i` is `SPLIT_BYTES` bytes of value `i`.
    pub fn cluster(&self, plan: FaultPlan) -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: self.nodes,
            storage_nodes: 1,
            osts: 2,
            slots_per_node: self.slots,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 2,
            ..PfsConfig::default()
        };
        let mut c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
        let bytes = (0..self.splits).flat_map(Chain::split_bytes);
        c.pfs
            .borrow_mut()
            .create(INPUT.to_string(), bytes.collect());
        c.sim.faults.install(plan);
        c
    }

    /// The chain as a `Dataset` plan.
    pub fn plan(&self) -> Dataset {
        let splits = (0..self.splits as u64).map(|i| InputSplit {
            length: SPLIT_BYTES,
            locations: Vec::new(),
            fetcher: Rc::new(FlatPfsFetcher {
                pfs_path: INPUT.to_string(),
                offset: i * SPLIT_BYTES,
                len: SPLIT_BYTES,
                sequential_chunks: 1,
            }),
        });
        let mut plan = Dataset::from_splits(splits.collect(), read_split());
        for shuffle in 1..self.stages {
            if shuffle > 1 {
                plan = plan.map(rekey());
            }
            plan = plan.reduce_by_key(self.width, concat());
        }
        plan
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

    /// What the chain must commit, evaluated naively: every split through
    /// the record reader in index order; at each shuffle the records of each
    /// producing partition, in partition order then emit order, partitioned
    /// by FNV-1a of the key, grouped in key order, every group through the
    /// aggregate, the re-key applied to what goes on; one `key\tvalue` line
    /// per record of the last stage.
    pub fn naive_output(&self) -> Output {
        let ctx = || TaskCtx::standalone(CostModel::default());
        let fnv1a = |key: &str| {
            let hash = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            key.bytes().fold(0xcbf2_9ce4_8422_2325u64, hash)
        };
        let (read, agg, rekey) = (read_split(), concat(), rekey());
        // The records of each producing partition, in emit order.
        let mut produced: Vec<Vec<(String, Payload)>> = (0..self.splits)
            .map(|i| {
                let split = TaskInput::Bytes(Chain::split_bytes(i));
                read(split, &mut ctx()).expect("read")
            })
            .collect();
        for shuffle in 1..self.stages {
            let mut parts: Vec<BTreeMap<String, Vec<Payload>>> = vec![BTreeMap::new(); self.width];
            for (key, value) in produced.into_iter().flatten() {
                let p = (fnv1a(&key) % self.width as u64) as usize;
                parts[p].entry(key).or_default().push(value);
            }
            let reduce = |groups: BTreeMap<String, Vec<Payload>>| {
                let mut out = Vec::new();
                for (key, values) in groups {
                    let value = agg(&key, values, &mut ctx()).expect("agg");
                    if shuffle + 1 < self.stages {
                        out.extend(rekey(&key, value, &mut ctx()).expect("rekey"));
                    } else {
                        out.push((key, value));
                    }
                }
                out
            };
            produced = parts.into_iter().map(reduce).collect();
        }
        let mut output = Output::new();
        for (p, records) in produced.into_iter().enumerate() {
            let mut data = Vec::new();
            for (key, value) in records {
                let Payload::Bytes(value) = value else {
                    panic!("the chain's records are bytes");
                };
                data.extend_from_slice(key.as_bytes());
                data.push(b'\t');
                data.extend_from_slice(&value);
                data.push(b'\n');
            }
            if !data.is_empty() {
                output.push((format!("{OUT}/part-{p:05}"), data));
            }
        }
        output
    }
}

/// `output` as text, for a readable failure.
pub fn text(output: &Output) -> Vec<(&str, String)> {
    let files = output.iter();
    files
        .map(|(path, data)| (path.as_str(), String::from_utf8_lossy(data).into_owned()))
        .collect()
}
