//! Exactly-once / totality for the storage clients, over *generated* fault
//! plans (the first slice of ROADMAP "Generated chaos", invariant (i)).
//!
//! A `scirng`-driven generator composes fault plans from every storage-facing
//! `FaultPlan` builder; each plan drives a random mix of timed PFS and HDFS
//! client operations, and bare `Sim::net_transfer`s, to `sim.run()`. No plan
//! carries an expectation of its own — the checks are the completion contract
//! of DESIGN.md §3.12:
//!
//! * no callback fires twice, and none from inside the issuing call;
//! * one that never fires is explained by the plan: a hung read of that
//!   path, or a hung / partitioned owner of the block; a `net_transfer`
//!   that never fires found `Sim::link == None` when it was issued, and one
//!   that fires does so no earlier than its bytes take across the link;
//! * an HDFS write completes (or is refused) whatever is hung or cut off,
//!   and its blocks list the writer first and only nodes that hold them;
//! * `Ok` bytes equal the stored bytes, unless the plan holds a *silent*
//!   corruption for that read of an unchecksummed path (then exactly one
//!   byte differs);
//! * every `Err` is a typed `PfsError` / `HdfsError` the plan or the
//!   operation itself accounts for;
//! * nothing panics and the simulator drains.
//!
//! A failing plan prints as a builder expression (plus the operation it
//! failed on) to paste into a regression test. `SCIDP_FAULT_SEED` reseeds
//! the generator (CI's `storage` job runs seeds 1-3).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::hdfs::{
    self, block_fault_key, Block, HdfsError, HedgeConfig, NsError, SharedHdfs, VirtualBlock,
};
use scidp_suite::mapreduce::{Cluster, MrEnv};
use scidp_suite::pfs::{self, PfsConfig, PfsError};
use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan, NodeId, Sim, SimTime};
use scirng::Rng;

mod common;
use common::plan_expr;

const PLANS: usize = 240;
const OPS_PER_PLAN: usize = 8;
const NODES: u32 = 4;
const BLOCK: usize = 64;

/// PFS paths the generator reads and faults; the last one does not exist.
const PFS_PATHS: [&str; 4] = ["p/small", "p/striped", "p/empty", "p/missing"];
/// HDFS files: checksummed (3 blocks), unchecksummed (`crc == 0`, hand-built
/// state — corruption passes through), virtual (one dummy block), missing.
const HDFS_PATHS: [&str; 4] = ["h/sum", "h/raw", "h/virt", "h/missing"];

/// Deterministic content for a stored object.
fn content(tag: &str, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    Rng::seed_from_u64(scirng::hash64(tag.as_bytes())).fill_bytes(&mut bytes);
    bytes
}

/// A 4-node cluster with the staged objects above; HDFS state is hand-built
/// (two replicas per block on neighbouring nodes) so it costs no events.
fn world(hedge_after_s: Option<f64>) -> Cluster {
    let spec = ClusterSpec {
        compute_nodes: NODES as usize,
        storage_nodes: 1,
        osts: 2,
        ..ClusterSpec::default()
    };
    let pfs_cfg = PfsConfig {
        stripe_size: 128,
        default_stripe_count: 2,
        n_osts: 2,
    };
    let c = Cluster::new(spec, pfs_cfg, BLOCK, 2, CostModel::default());
    for (path, len) in [(PFS_PATHS[0], 100), (PFS_PATHS[1], 1000), (PFS_PATHS[2], 0)] {
        c.pfs.borrow_mut().create(path, content(path, len));
    }
    {
        let mut h = c.hdfs.borrow_mut();
        h.hedge = hedge_after_s.map(|after_s| HedgeConfig { after_s });
        for (path, n_blocks, checksummed) in [(HDFS_PATHS[0], 3, true), (HDFS_PATHS[1], 1, false)] {
            h.namenode.create_file(path).unwrap();
            for (i, chunk) in content(path, n_blocks * BLOCK - 7)
                .chunks(BLOCK)
                .enumerate()
            {
                let owners = vec![NodeId(i as u32 % NODES), NodeId((i as u32 + 1) % NODES)];
                let crc = if checksummed {
                    scirng::crc32c(chunk)
                } else {
                    0
                };
                let id = h
                    .namenode
                    .add_block(path, chunk.len() as u64, owners.clone(), crc)
                    .unwrap();
                for o in owners {
                    h.datanodes.put(o, id, Arc::new(chunk.to_vec()));
                }
            }
        }
        h.namenode.create_file(HDFS_PATHS[2]).unwrap();
        let slab = VirtualBlock::FlatRange {
            pfs_path: PFS_PATHS[0].into(),
            offset: 0,
            len: 10,
        };
        h.namenode.add_dummy_block(HDFS_PATHS[2], 10, slab).unwrap();
    }
    c
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// A time in `[0, 2)` s with millisecond resolution (prints exactly).
fn time(rng: &mut Rng) -> f64 {
    rng.below(2000) as f64 / 1000.0
}

fn pick<T: Clone>(rng: &mut Rng, items: &[T]) -> T {
    items[rng.below(items.len())].clone()
}

/// Compose a plan: each storage-facing builder joins with probability ~1/3.
fn gen_plan(rng: &mut Rng, block_keys: &[String]) -> FaultPlan {
    let node = |rng: &mut Rng| rng.below(NODES as usize) as u32;
    let seed = rng.below(1000) as u64;
    let mut p = if rng.below(3) == 0 {
        FaultPlan::none().with_random_read_failures(seed, pick(rng, &[0.1, 0.3, 0.6]))
    } else {
        FaultPlan::none().with_seed(seed)
    };
    let mut maybe = |rng: &mut Rng, f: &mut dyn FnMut(&mut Rng, FaultPlan) -> FaultPlan| {
        for _ in 0..2 {
            if rng.below(3) == 0 {
                p = f(rng, std::mem::take(&mut p));
            }
        }
    };
    let path = |rng: &mut Rng| pick(rng, &PFS_PATHS);
    let nth = |rng: &mut Rng| 1 + rng.below(3) as u64;
    maybe(rng, &mut |r, p| p.fail_read(path(r), nth(r)));
    maybe(rng, &mut |r, p| p.hang_nth_read(path(r), nth(r)));
    maybe(rng, &mut |r, p| p.corrupt_read(path(r), nth(r)));
    maybe(rng, &mut |r, p| p.corrupt_read_detected(path(r), nth(r)));
    maybe(rng, &mut |r, p| p.corrupt_read_persistent(path(r), nth(r)));
    maybe(rng, &mut |r, p| {
        p.corrupt_replica(pick(r, block_keys), node(r))
    });
    maybe(rng, &mut |r, p| p.corrupt_all_replicas(pick(r, block_keys)));
    maybe(rng, &mut |r, p| p.kill_node(node(r), time(r)));
    maybe(rng, &mut |r, p| p.hang_node(node(r), time(r)));
    maybe(rng, &mut |r, p| {
        let from = time(r);
        let heal = pick(r, &[from + 0.05, from + 0.5, f64::INFINITY]);
        let group: Vec<u32> = (0..NODES).filter(|_| r.below(3) == 0).collect();
        let group = if group.is_empty() {
            vec![node(r)]
        } else {
            group
        };
        p.partition(&group, from, heal)
    });
    maybe(rng, &mut |r, p| {
        let (a, b) = (node(r), node(r));
        p.slow_link(a, b, pick(r, &[1.5, 4.0, 20.0]))
    });
    p
}

/// One timed client operation.
#[derive(Clone, Debug)]
enum Op {
    PfsReadAt {
        path: &'static str,
        offset: usize,
        len: usize,
    },
    PfsReadFile {
        path: &'static str,
    },
    PfsWrite {
        path: String,
        len: usize,
    },
    HdfsReadBlock {
        path: &'static str,
        index: usize,
    },
    HdfsReadFile {
        path: &'static str,
    },
    HdfsWrite {
        path: String,
        len: usize,
    },
    /// A bare wire transfer from the issuing node.
    NetTransfer {
        dst: u32,
        bytes: usize,
    },
}

#[derive(Clone, Debug)]
struct Issue {
    op: Op,
    node: u32,
    at_s: f64,
}

fn gen_ops(rng: &mut Rng) -> Vec<Issue> {
    let gen_op = |rng: &mut Rng, i: usize| match rng.below(7) {
        0 => Op::PfsReadAt {
            path: pick(rng, &PFS_PATHS),
            offset: rng.below(120),
            // Mostly in range for the 100-byte file, sometimes past its end.
            len: rng.below(60),
        },
        1 => Op::PfsReadFile {
            path: pick(rng, &PFS_PATHS),
        },
        2 => Op::PfsWrite {
            path: format!("p/out{i}"),
            len: rng.below(600),
        },
        3 => Op::HdfsReadBlock {
            path: pick(rng, &HDFS_PATHS[..3]),
            index: rng.below(3),
        },
        4 => Op::HdfsReadFile {
            path: pick(rng, &HDFS_PATHS),
        },
        5 => Op::HdfsWrite {
            // Sometimes an existing path, sometimes the same new one twice.
            path: pick(rng, &["h/out_a", "h/out_b", HDFS_PATHS[0]]).to_string(),
            len: rng.below(200),
        },
        _ => Op::NetTransfer {
            // Sometimes to the issuing node itself.
            dst: rng.below(NODES as usize) as u32,
            bytes: rng.below(1 << 20),
        },
    };
    (0..OPS_PER_PLAN)
        .map(|i| Issue {
            op: gen_op(rng, i),
            node: rng.below(NODES as usize) as u32,
            at_s: time(rng),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Driving one plan
// ---------------------------------------------------------------------------

/// What one operation's callback was handed.
#[derive(Debug)]
enum Got {
    Bytes(Vec<u8>),
    Written,
    /// A `net_transfer` landed, at this simulated time.
    Arrived(f64),
    Pfs(PfsError),
    Hdfs(HdfsError),
}

#[derive(Debug, Default)]
struct Slot {
    fires: u32,
    /// The callback ran while the issuing call was still on the stack.
    reentrant: bool,
    issuing: bool,
    got: Option<Got>,
    /// `Sim::link` as a `net_transfer` found it when it was issued.
    link: Option<Option<f64>>,
}

type Slots = Rc<RefCell<Vec<Slot>>>;

fn record(slots: &Slots, i: usize, got: Got) {
    let slot = &mut slots.borrow_mut()[i];
    slot.fires += 1;
    slot.reentrant |= slot.issuing;
    slot.got = Some(got);
}

/// The completion callback of a read: records the bytes, or the error
/// wrapped by `err`.
fn read_done<E>(
    slots: &Slots,
    i: usize,
    err: fn(E) -> Got,
) -> impl FnOnce(&mut Sim, Result<Vec<u8>, E>) {
    let s = slots.clone();
    move |_, res| record(&s, i, res.map_or_else(err, Got::Bytes))
}

fn issue(sim: &mut Sim, env: &MrEnv, slots: &Slots, i: usize, is: &Issue) {
    let (topo, pfs, hdfs) = (&env.topo, &env.pfs, &env.hdfs);
    let node = NodeId(is.node);
    slots.borrow_mut()[i].issuing = true;
    let s = slots.clone();
    match &is.op {
        Op::PfsReadAt { path, offset, len } => {
            let done = read_done(slots, i, Got::Pfs);
            pfs::read_at(sim, topo, pfs, node, path, *offset, *len, done)
        }
        Op::PfsReadFile { path } => {
            pfs::read_file(sim, topo, pfs, node, path, read_done(slots, i, Got::Pfs))
        }
        Op::PfsWrite { path, len } => {
            let data = content(path, *len);
            pfs::write_new(sim, topo, pfs, node, path.clone(), data, move |_| {
                record(&s, i, Got::Written)
            })
        }
        Op::HdfsReadBlock { path, index } => {
            let block = blocks_of(hdfs, path, Some(*index)).remove(0);
            let done = read_done(slots, i, Got::Hdfs);
            hdfs::read_block(sim, topo, hdfs, node, &block, move |sim, res| {
                done(sim, res.map(|(data, _)| data.as_ref().clone()))
            })
        }
        Op::HdfsReadFile { path } => {
            hdfs::read_file(sim, topo, hdfs, node, path, read_done(slots, i, Got::Hdfs))
        }
        Op::HdfsWrite { path, len } => {
            let data = content(path, *len);
            hdfs::write_file(sim, topo, hdfs, node, path.clone(), data, move |_, res| {
                record(&s, i, res.map_or_else(Got::Hdfs, |()| Got::Written))
            })
        }
        Op::NetTransfer { dst, bytes } => {
            let dst = NodeId(*dst);
            slots.borrow_mut()[i].link = Some(sim.link(node, dst));
            let path = topo
                .path_net(node, dst)
                .expect("a route between compute nodes");
            let bytes = *bytes as f64;
            sim.net_transfer(node, dst, None, path, bytes, move |sim| {
                record(&s, i, Got::Arrived(sim.now().secs()))
            })
        }
    }
    slots.borrow_mut()[i].issuing = false;
}

/// The blocks an HDFS read operation touches (`h/raw` and `h/virt` have one
/// block: a block index past the end reads block 0).
fn blocks_of(hdfs: &SharedHdfs, path: &str, index: Option<usize>) -> Vec<Block> {
    let h = hdfs.borrow();
    let Ok(blocks) = h.namenode.blocks(path) else {
        return Vec::new();
    };
    match index {
        Some(i) => vec![blocks.get(i).unwrap_or(&blocks[0]).clone()],
        None => blocks.to_vec(),
    }
}

/// The stored bytes of `blocks`, concatenated from each first replica.
fn held_bytes(hdfs: &SharedHdfs, blocks: &[Block]) -> Vec<u8> {
    let h = hdfs.borrow();
    let copies = blocks
        .iter()
        .filter_map(|b| h.datanodes.get(*b.locations().first()?, b.id));
    copies.flat_map(|d| d.as_ref().clone()).collect()
}

/// Check every invariant for one driven plan; `Err` names the violation.
fn check(plan: &FaultPlan, ops: &[Issue], slots: &[Slot], w: &Cluster) -> Result<(), String> {
    let silent_on = |key: &str| {
        let mut specs = plan.corrupt_reads.iter();
        specs.any(|c| c.path == key && c.silent && c.replica.is_none())
    };
    let detected_on = |key: &str| {
        let mut specs = plan.corrupt_reads.iter();
        specs.any(|c| c.path == key && !c.silent)
    };
    let corrupt_on = |key: &str| plan.corrupt_reads.iter().any(|c| c.path == key);
    let killed = |n: NodeId| plan.node_kills.iter().any(|&(k, _)| k == n.0);
    // A transfer from `owner` to `reader` can stall forever.
    let can_stall = |owner: NodeId, reader: u32| {
        let hung = plan.node_hangs.iter().any(|&(n, _)| n == owner.0);
        let mut parts = plan.partitions.iter();
        hung || parts.any(|p| p.nodes.contains(&owner.0) != p.nodes.contains(&reader))
    };
    let one_byte_differs = |a: &[u8], b: &[u8]| {
        a.len() == b.len() && a.iter().zip(b).filter(|(x, y)| x != y).count() == 1
    };
    // PFS reads that never completed, per path: each needs its own hang.
    let mut pfs_stalls: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, (is, slot)) in ops.iter().zip(slots).enumerate() {
        let fail = |what: String| Err(format!("op #{i} {is:?}: {what} (got {:?})", slot.got));
        if slot.fires > 1 {
            return fail(format!("callback fired {} times", slot.fires));
        }
        if slot.reentrant {
            return fail("callback ran inside the issuing call".into());
        }
        match &is.op {
            Op::PfsReadAt { path, .. } | Op::PfsReadFile { path } => {
                let stored = w.pfs.borrow().file(path).map(|f| f.data.clone());
                let range = match (&is.op, &stored) {
                    (Op::PfsReadAt { offset, len, .. }, _) => *offset..offset + len,
                    (_, Some(data)) => 0..data.len(),
                    (_, None) => 0..0,
                };
                let want = stored.as_ref().and_then(|d| d.get(range.clone()));
                match (&slot.got, want) {
                    (None, _) => *pfs_stalls.entry(path).or_default() += 1,
                    (Some(Got::Bytes(b)), Some(want)) if b == want => {}
                    (Some(Got::Bytes(b)), Some(want))
                        if silent_on(path) && one_byte_differs(b, want) => {}
                    (Some(Got::Bytes(_)), _) => return fail("wrong bytes delivered".into()),
                    (Some(Got::Pfs(PfsError::Injected { path: p, .. })), _)
                        if p == path
                            && (plan.read_fail_prob > 0.0
                                || plan.read_faults.iter().any(|(f, _)| f == path)) => {}
                    (Some(Got::Pfs(PfsError::Checksum { path: p, .. })), Some(_))
                        if p == path && detected_on(path) => {}
                    (Some(Got::Pfs(PfsError::NotFound(p))), _) if p == path && stored.is_none() => {
                    }
                    (Some(Got::Pfs(PfsError::OutOfRange { .. })), None) if stored.is_some() => {}
                    _ => return fail("outcome the plan does not account for".into()),
                }
            }
            Op::PfsWrite { path, len } => {
                let stored = w.pfs.borrow().file(path).map(|f| f.data.clone());
                let landed = stored.is_some_and(|d| *d == content(path, *len));
                if !(matches!(slot.got, Some(Got::Written)) && landed) {
                    return fail("a PFS write must complete and commit its bytes".into());
                }
            }
            Op::HdfsReadBlock { path, .. } | Op::HdfsReadFile { path } => {
                let index = match &is.op {
                    Op::HdfsReadBlock { index, .. } => Some(*index),
                    _ => None,
                };
                let blocks = blocks_of(&w.hdfs, path, index);
                let keys: Vec<String> = blocks.iter().map(|b| block_fault_key(b.id)).collect();
                let stored = held_bytes(&w.hdfs, &blocks);
                let owners = || blocks.iter().flat_map(|b| b.locations().iter().copied());
                let unchecked_corrupt = blocks
                    .iter()
                    .zip(&keys)
                    .any(|(b, k)| b.crc == 0 && corrupt_on(k));
                let checked_corrupt = blocks
                    .iter()
                    .zip(&keys)
                    .any(|(b, k)| b.crc != 0 && corrupt_on(k));
                let dummy = blocks.iter().any(|b| b.is_dummy());
                match &slot.got {
                    None if owners().any(|o| can_stall(o, is.node)) => {}
                    None => return fail("callback never fired and no owner can stall".into()),
                    Some(Got::Bytes(b)) if !dummy && !blocks.is_empty() && *b == stored => {}
                    Some(Got::Bytes(b)) if unchecked_corrupt && one_byte_differs(b, &stored) => {}
                    Some(Got::Bytes(_)) => return fail("wrong bytes delivered".into()),
                    Some(Got::Hdfs(HdfsError::DummyBlock)) if dummy => {}
                    Some(Got::Hdfs(HdfsError::Ns(NsError::NotFound(_)))) if blocks.is_empty() => {}
                    Some(Got::Hdfs(HdfsError::NodeDead))
                        if blocks
                            .iter()
                            .any(|b| b.locations().iter().all(|&o| killed(o))) => {}
                    Some(Got::Hdfs(HdfsError::Integrity { .. })) if checked_corrupt => {}
                    _ => return fail("outcome the plan does not account for".into()),
                }
            }
            Op::HdfsWrite { path, .. } => {
                let rivals = ops.iter().filter(|o| match &o.op {
                    Op::HdfsWrite { path: p, .. } => p == path,
                    _ => false,
                });
                let contended = path == HDFS_PATHS[0] || rivals.count() > 1;
                match &slot.got {
                    Some(Got::Written) => {}
                    Some(Got::Hdfs(HdfsError::Ns(NsError::AlreadyExists(_)))) if contended => {}
                    _ => return fail("an HDFS write must complete or be refused".into()),
                }
            }
            Op::NetTransfer { dst, bytes } => {
                // The fastest the bytes can cross: alone on the NICs.
                let nic_bw = w.topo.spec.nic_bw;
                let solo = if is.node == *dst {
                    0.0
                } else {
                    *bytes as f64 / nic_bw
                };
                match (&slot.got, slot.link) {
                    (None, Some(None)) => {}
                    (Some(Got::Arrived(at)), Some(Some(factor)))
                        if *at >= is.at_s + factor * solo * (1.0 - 1e-9) => {}
                    (got, link) => {
                        return fail(format!("{got:?} does not follow from link {link:?}"))
                    }
                }
            }
        }
    }
    for (path, stalls) in pfs_stalls {
        let hangs = plan.read_hangs.iter().filter(|(p, _)| p == path).count();
        if stalls > hangs {
            return Err(format!(
                "{stalls} read(s) of {path} never completed, the plan hangs {hangs}"
            ));
        }
    }
    // An uncontended new HDFS file holds exactly what its one writer wrote,
    // its first replica on the writer's own disk.
    for path in ["h/out_a", "h/out_b"] {
        let mut writers = ops.iter().filter_map(|o| match &o.op {
            Op::HdfsWrite { path: p, len } if p == path => Some((NodeId(o.node), *len)),
            _ => None,
        });
        if let (Some((writer, len)), None) = (writers.next(), writers.next()) {
            let blocks = blocks_of(&w.hdfs, path, None);
            if held_bytes(&w.hdfs, &blocks) != content(path, len) {
                return Err(format!(
                    "{path}: committed bytes differ from what was written"
                ));
            }
            if blocks
                .iter()
                .any(|b| b.locations().first() != Some(&writer))
            {
                return Err(format!("{path}: a block is not on its writer {writer:?}"));
            }
        }
    }
    // Whatever was hung or cut off while a pipeline ran, every listed
    // replica exists, and none is listed twice.
    for path in ["h/out_a", "h/out_b"] {
        let h = w.hdfs.borrow();
        for b in blocks_of(&w.hdfs, path, None) {
            let at = b.locations();
            let twice = at.iter().any(|n| at.iter().filter(|m| *m == n).count() > 1);
            if twice || !at.iter().all(|&n| h.datanodes.has(n, b.id)) {
                return Err(format!("{path}: block {:?} is listed at {at:?}", b.id));
            }
        }
    }
    Ok(())
}

/// Drive `ops` under `plan` to a drained simulator.
fn drive(plan: &FaultPlan, ops: &[Issue], hedge_after_s: Option<f64>) -> (Cluster, Vec<Slot>) {
    let mut w = world(hedge_after_s);
    w.sim.faults.install(plan.clone());
    let slots = Slots::default();
    slots.borrow_mut().resize_with(ops.len(), Slot::default);
    for (i, is) in ops.iter().cloned().enumerate() {
        let (env, slots) = (w.env(), slots.clone());
        let at = SimTime(is.at_s);
        w.sim.at(at, move |sim| issue(sim, &env, &slots, i, &is));
    }
    w.run();
    let slots = slots.take();
    (w, slots)
}

#[test]
fn every_generated_plan_completes_each_operation_at_most_once_and_accountably() {
    let seed = FaultPlan::env_seed(17);
    let mut rng = Rng::seed_from_u64(seed);
    let block_keys: Vec<String> = {
        let w = world(None);
        let keys = |p| {
            blocks_of(&w.hdfs, p, None)
                .into_iter()
                .map(|b| block_fault_key(b.id))
        };
        keys(HDFS_PATHS[0]).chain(keys(HDFS_PATHS[1])).collect()
    };
    // What the generated runs exercised, so a green run is not a vacuous one.
    let (mut oks, mut errs, mut stalls) = (0, 0, 0);
    // Wire transfers dropped, and written blocks a target was left out of.
    let (mut dropped, mut short_blocks) = (0, 0);
    for n in 0..PLANS {
        let plan = gen_plan(&mut rng, &block_keys);
        let ops = gen_ops(&mut rng);
        let hedge_after_s = (rng.below(2) == 0).then(|| pick(&mut rng, &[0.02, 0.2]));
        let (w, slots) = drive(&plan, &ops, hedge_after_s);
        if let Err(violation) = check(&plan, &ops, &slots, &w) {
            let ops: Vec<String> = ops.iter().map(|is| format!("\n    {is:?}")).collect();
            panic!(
                "plan #{n} (generator seed {seed}, hedge {hedge_after_s:?}) violates the \
                 completion contract:\n  {violation}\n  plan: {}\n  ops: [{}]",
                plan_expr(&plan),
                ops.concat()
            );
        }
        dropped += slots.iter().filter(|s| s.link == Some(None)).count();
        for path in ["h/out_a", "h/out_b"] {
            let blocks = blocks_of(&w.hdfs, path, None);
            short_blocks += blocks.iter().filter(|b| b.locations().len() < 2).count();
        }
        for slot in &slots {
            match slot.got {
                Some(Got::Bytes(_) | Got::Written | Got::Arrived(_)) => oks += 1,
                Some(Got::Pfs(_) | Got::Hdfs(_)) => errs += 1,
                None => stalls += 1,
            }
        }
    }
    println!(
        "{PLANS} plans (seed {seed}): {oks} ok, {errs} err, {stalls} never completed; \
         {dropped} wire transfers dropped, {short_blocks} blocks written short of a target"
    );
    assert_eq!(oks + errs + stalls, PLANS * OPS_PER_PLAN);
    assert!(
        oks > PLANS && errs > PLANS / 4 && stalls > PLANS / 40,
        "generator coverage too thin: {oks} ok, {errs} err, {stalls} never completed"
    );
    assert!(
        dropped >= 5 && short_blocks >= 5,
        "generator coverage too thin: {dropped} wire transfers dropped, \
         {short_blocks} blocks written under a hang or partition of a target"
    );
}

#[test]
fn a_plan_prints_as_the_builder_expression_that_rebuilds_it() {
    let plan = FaultPlan::none()
        .with_random_read_failures(7, 0.25)
        .fail_read("p/small", 2)
        .hang_nth_read("p/striped", 1)
        .corrupt_read("p/small", 1)
        .corrupt_read_detected("p/small", 3)
        .corrupt_read_persistent("p/striped", 2)
        .corrupt_replica("blk#4", 3)
        .corrupt_all_replicas("blk#5")
        .kill_node(1, 0.5)
        .hang_node(2, 1.25)
        .partition(&[0, 3], 0.1, f64::INFINITY)
        .slow_link(0, 1, 4.0);
    assert_eq!(
        plan_expr(&plan),
        "FaultPlan::none().with_random_read_failures(7, 0.25).fail_read(\"p/small\", 2)\
         .hang_nth_read(\"p/striped\", 1).corrupt_read(\"p/small\", 1)\
         .corrupt_read_detected(\"p/small\", 3).corrupt_read_persistent(\"p/striped\", 2)\
         .corrupt_replica(\"blk#4\", 3).corrupt_all_replicas(\"blk#5\").kill_node(1, 0.5)\
         .hang_node(2, 1.25).partition(&[0, 3], 0.1, f64::INFINITY).slow_link(0, 1, 4.0)"
    );
}
