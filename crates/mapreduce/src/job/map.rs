//! The attempt body: fetch the split (one batch fetch, or streamed
//! piece-wise with reads overlapped against compute), run the task function,
//! then spill the partitioned output — or, for a final stage (a map-only
//! job's maps, a classic job's reducers), commit it as a part file written
//! while the compute runs. A pulling task has no split to fetch: it pulls
//! its pairs (`pull.rs`) and joins this path at the task function.

use std::rc::Rc;

use simnet::{NodeId, Sim};

use super::attempt::{commit_task, Attempt, AttemptId};
use super::commit::{commit_part_file, kv_bytes, partition};
use super::nodes::Spill;
use super::speculate::{self, Progress};
use super::{detector, Kv, MrError, Payload, SharedPool, TaskCtx, TaskKind};
use crate::counters::keys;
use crate::input::{pump_pieces, FetchPiece, FetchResult, PieceSink, PieceStream, TaskInput};

/// Pieces a streamed fetch keeps in flight: 2 is double buffering. Deeper
/// windows were measured slower, not faster, on the simulated PFS (the
/// `overlap` experiment's old depth sweep: 4 and 8 read 9.16 and 12.22 s
/// against 8.09 s).
const PREFETCH_WINDOW: usize = 2;

/// Run one map attempt.
pub(super) fn run_map_attempt(sim: &mut Sim, att: Attempt) {
    let (env, fetcher, stream_cfg, split_len) = {
        let p = att.pool.borrow();
        let Some((d, stage)) = p.run(att.run) else {
            return;
        };
        let Some(split) = d.split(stage, att.task) else {
            return;
        };
        let stream = stage.job.stream.clone();
        (
            p.env.clone(),
            split.fetcher.clone(),
            stream,
            split.length as f64,
        )
    };
    att.count(keys::INPUT_BYTES, split_len);
    sim.after(att.startup_s(), move |sim| {
        if !att.live() {
            return;
        }
        let (node, fetch_start) = (att.node, sim.now().secs());
        if stream_cfg.enabled {
            match fetcher.open_stream(&env, sim, node) {
                Ok(stream) => {
                    if let Some(i) = att.pool.borrow_mut().attempt_mut(att.run, att.id) {
                        i.stream_from = Some(fetch_start);
                    }
                    speculate::watch_fetch(sim, &att.pool, att.run, att.id);
                    let stream: Rc<dyn PieceStream> = stream.into();
                    let sink = StreamedFetch {
                        att,
                        fetch_start,
                        stream: stream.clone(),
                        arrivals: vec![Arrival::default(); stream.n_pieces()],
                        charges: Vec::new(),
                    };
                    return pump_pieces(stream, &env, sim, node, PREFETCH_WINDOW, sink);
                }
                Err(fb) => {
                    // Exactly one fallback (with its reason) per committed
                    // task: the ledger reaches the run only at commit.
                    att.count(keys::STREAM_FALLBACKS, 1.0);
                    att.count(fb.counter_key(), 1.0);
                }
            }
        }
        let done = move |sim: &mut Sim, fr: Result<FetchResult, MrError>| {
            if !att.live() {
                return;
            }
            match fr {
                Ok(fr) => map_fetched(sim, att, fetch_start, fr),
                Err(e) => att.fail(sim, e),
            }
        };
        fetcher.fetch(&env, sim, node, Box::new(done));
    });
}

/// A pulling task has pulled its `pairs`, the last `shuffle_s` seconds of it
/// after its input closed: run the run's task function over them behind what
/// is left of their merge (`sort_s`) and hand the output on like any task's.
/// The pull has left `wait`, `shuffle` and `sort` and the shuffled bytes on
/// the attempt's ledger.
pub(super) fn run_stage_task(
    sim: &mut Sim,
    att: Attempt,
    pairs: Vec<(u8, String, Payload)>,
    shuffle_s: f64,
    sort_s: f64,
) {
    let pulled = FetchResult::plain(TaskInput::Pairs(pairs));
    let Some((ctx, factor)) = run_map_fn(sim, &att, pulled) else {
        return;
    };
    let compute = sort_s + ctx.total_charge_s() * factor;
    end_after(sim, att, shuffle_s, compute, &[], ctx, factor);
}

/// Real map execution over the fetched input: returns the task context
/// (charges, emitted pairs) and the factor that stretches this attempt's
/// compute — the slot-sharing penalty times any fault-plan slowdown of the
/// node (the straggler model speculation reacts to). `None` when the map
/// function failed (the attempt has been failed).
fn run_map_fn(sim: &mut Sim, att: &Attempt, fr: FetchResult) -> Option<(TaskCtx, f64)> {
    let (map_fn, factor) = {
        let p = att.pool.borrow();
        let map_fn = p.stage_of(att.run)?.job.map_fn.clone();
        (map_fn, p.compute_factor(sim, att.run, att.node))
    };
    let mut ctx = TaskCtx::standalone(sim.cost.clone());
    ctx.tag = fr.tag;
    for (phase, secs) in &fr.charges {
        ctx.charge(phase, *secs);
    }
    for (key, v) in &fr.counters {
        att.count(key, *v);
    }
    if let Err(e) = (map_fn)(fr.input, &mut ctx) {
        att.fail(sim, e);
        return None;
    }
    Some((ctx, factor))
}

/// Batch shape: the whole split is resident, compute follows the read.
fn map_fetched(sim: &mut Sim, att: Attempt, fetch_start: f64, fr: FetchResult) {
    let read_s = sim.now().secs() - fetch_start;
    att.phase("read", read_s);
    let Some((ctx, factor)) = run_map_fn(sim, &att, fr) else {
        return;
    };
    let compute = ctx.total_charge_s() * factor;
    end_after(sim, att, read_s, compute, &[], ctx, factor);
}

/// The attempt fetched for `fetch_s` and its compute, stretched by `factor`,
/// ends `delay` from now: record that on the attempt — what speculation
/// judges it by — and the scaled charges as phases, account the output and
/// hand it on — a part file is written while the compute runs; a spill
/// follows it, unless the attempt was orphaned meanwhile or its node cannot
/// report.
fn end_after(
    sim: &mut Sim,
    att: Attempt,
    fetch_s: f64,
    delay: f64,
    piece_charges: &[(&'static str, f64)],
    ctx: TaskCtx,
    factor: f64,
) {
    // The input is in, so the attempt is alive, and the driver knows how
    // long its compute takes: the deadline starts over behind it, for a
    // completion the node cannot report and for what of a spill or a
    // part-file write outlasts it.
    detector::arm_deadline(sim, &att, delay);
    let progress = Progress {
        ends_s: sim.now().secs() + delay,
        slowness: factor,
        work_s: delay / factor,
        fetch_s,
    };
    if let Some(i) = att.pool.borrow_mut().attempt_mut(att.run, att.id) {
        i.progress = Some(progress);
    }
    speculate::shown(sim, &att.pool, att.run, att.id);
    for &(p, s) in piece_charges.iter().chain(&ctx.charges) {
        att.phase(p, s * factor);
    }
    let out_bytes = kv_bytes(&ctx.emitted);
    let (kind, n_parts, part_name) = {
        let p = att.pool.borrow();
        let Some((d, stage)) = p.run(att.run) else {
            return;
        };
        // Partitioned for the *downstream* stage's width — or a part
        // file, named by the stage partition the task computes.
        let partition = d.partition_of(att.task);
        let part_name = format!("{}{partition:05}", stage.part_prefix);
        (stage.kind, stage.out_partitions, part_name)
    };
    if kind == TaskKind::Map {
        att.count(keys::MAP_OUTPUT_BYTES, out_bytes as f64);
    }
    att.count(keys::RECORDS_EMITTED, ctx.records as f64);
    let Some(n_parts) = n_parts else {
        return commit_part_file(sim, att, &ctx.emitted, part_name, delay);
    };
    sim.after(delay, move |sim| {
        if att.can_report(sim) {
            let parts = partition(ctx.emitted, n_parts);
            spill(sim, att, parts, out_bytes);
        }
    });
}

/// One piece's arrival on the streaming timeline.
#[derive(Clone, Default)]
struct Arrival {
    /// Absolute arrival time.
    at: f64,
    /// Unscaled compute seconds the arrival implies.
    charge: f64,
    /// Weight for apportioning split-wide map compute.
    bytes: f64,
}

/// Streaming fetch of one map attempt (the intra-task read/compute overlap
/// pipeline). Reads run for real through the simulated PFS with at most
/// [`PREFETCH_WINDOW`] pieces in flight, each arrival timestamped; the map
/// function runs once on the assembled input (so output stays
/// byte-identical to the batch path), and the attempt's duration is the
/// pipelined timeline `f_i = max(f_{i-1}, a_i) + c_i` — compute of piece
/// `i` starts as soon as both the piece has arrived (`a_i`) and the
/// previous piece's compute has finished, i.e. `max(read, compute)`-shaped
/// instead of `read + compute`.
struct StreamedFetch {
    att: Attempt,
    /// When the fetch began (end of task startup).
    fetch_start: f64,
    stream: Rc<dyn PieceStream>,
    arrivals: Vec<Arrival>,
    /// Per-piece `(phase, secs)` charges, accumulated for the task report.
    charges: Vec<(&'static str, f64)>,
}

impl PieceSink for StreamedFetch {
    fn piece(&mut self, sim: &mut Sim, idx: usize, piece: FetchPiece) -> bool {
        if !self.att.live() {
            return false; // attempt failed or was orphaned mid-stream
        }
        if let Some(slot) = self.arrivals.get_mut(idx) {
            *slot = Arrival {
                at: sim.now().secs(),
                charge: piece.charges.iter().map(|(_, c)| c).sum(),
                bytes: piece.bytes as f64,
            };
        }
        self.charges.extend(piece.charges);
        for (k, v) in piece.counters {
            self.att.count(k, v);
        }
        true
    }

    /// A failed piece kills the attempt exactly like a batch fetch error.
    /// Otherwise all pieces are resident: assemble the split, run the map
    /// function, and schedule the attempt's end at the pipelined finish
    /// time. The "read" phase records only the *stalled* read seconds (time
    /// the compute pipeline actually waited on bytes); `overlap_saved_s`
    /// records how much shorter the pipelined timeline is than
    /// read-then-compute.
    fn end(self, sim: &mut Sim, result: Result<(), MrError>) {
        let StreamedFetch {
            att,
            fetch_start,
            stream,
            arrivals,
            charges,
        } = self;
        let fr = match result.and_then(|()| stream.finish()) {
            Ok(fr) => fr,
            Err(e) => return att.fail(sim, e),
        };
        let Some((ctx, factor)) = run_map_fn(sim, &att, fr) else {
            return;
        };
        let now = sim.now().secs();
        let n = arrivals.len();
        // Compute of piece `i` = its own charge plus its byte-weighted share
        // of the split-wide charges (map + finish-level fetch charges).
        let tail = ctx.total_charge_s();
        let total_bytes: f64 = arrivals.iter().map(|a| a.bytes).sum();
        if total_bytes == 0.0 {
            // A fetch that moved nothing says nothing of how long one takes.
            if let Some(i) = att.pool.borrow_mut().attempt_mut(att.run, att.id) {
                i.stream_from = None;
            }
        }
        let mut stall = 0.0;
        let finish_t = if n == 0 {
            // Nothing to transfer (e.g. every chunk was cached).
            now + tail * factor
        } else {
            let mut f = fetch_start;
            let mut compute_total = 0.0;
            let mut prefetched = 0.0;
            for (i, a) in arrivals.iter().enumerate() {
                let w = if total_bytes > 0.0 {
                    a.bytes / total_bytes
                } else {
                    1.0 / n as f64
                };
                let c = (a.charge + tail * w) * factor;
                compute_total += c;
                if a.at <= f && i > 0 {
                    prefetched += 1.0; // read fully hidden behind compute
                } else {
                    stall += a.at - f;
                }
                f = f.max(a.at) + c;
            }
            // `f == fetch_start + stall + compute_total` by construction,
            // and `f >= now` since every piece's compute follows its
            // arrival. The saving is vs. the batch shape
            // `now + compute_total`.
            let saved = (now + compute_total - f).max(0.0);
            if saved > 0.0 {
                att.count(keys::OVERLAP_SAVED_S, saved);
            }
            if prefetched > 0.0 {
                att.count(keys::PIECES_PREFETCHED, prefetched);
            }
            f
        };
        att.phase("read", stall);
        let delay = (finish_t - now).max(0.0);
        end_after(sim, att, now - fetch_start, delay, &charges, ctx, factor);
    }
}

/// Map compute is over: spill its output — `parts` for the downstream
/// shuffle, `out_bytes` in all — then commit. The spill stays serial: Hadoop
/// overlaps one only past `io.sort.mb × spill.percent`, a buffer this model
/// does not have. A spill to the node's local disk waits for the disk
/// ([`super::nodes`]): the attempt keeps its slot, and its `spill` phase
/// runs from here. A spill to the PFS shares its OSTs with every other
/// stream.
fn spill(sim: &mut Sim, att: Attempt, parts: Vec<Vec<Kv>>, out_bytes: usize) {
    let pool = att.pool.clone();
    let (env, spill_to_pfs, job_name) = {
        let p = pool.borrow();
        let Some(job) = p.stage_of(att.run).map(|s| &s.job) else {
            return;
        };
        (p.env.clone(), job.spill_to_pfs, job.name.clone())
    };
    let spill_start = sim.now().secs();
    let (node, task, id) = (att.node, att.task, att.id);
    let queued = att.clone();
    let finish_spill = move |sim: &mut Sim| {
        if !att.live() {
            return;
        }
        att.phase("spill", sim.now().secs() - spill_start);
        commit_task(sim, &att, Some(parts));
    };
    if spill_to_pfs {
        // Connector mode: intermediate data crosses the network to the
        // PFS (the "diskless" deployment of the Lustre connectors). The
        // path is task-scoped (not attempt-scoped) and `write_new`
        // replaces — twins racing here write identical bytes, so either
        // order leaves a correct spill file.
        let spill_path = format!("_spill/{job_name}/m{task:05}");
        let zeros = vec![0u8; out_bytes];
        pfs::write_new(
            sim,
            &env.topo,
            &env.pfs,
            node,
            spill_path,
            zeros,
            finish_spill,
        );
    } else {
        let Some(path) = env.topo.path_local_disk(node) else {
            let e = MrError::msg(format!("node {} has no local disk to spill to", node.0));
            return queued.fail(sim, e);
        };
        let bytes = sim.cost.lbytes(out_bytes);
        let disk = pool.clone();
        let write: Spill = Box::new(move |sim| {
            if !queued.live() {
                return false;
            }
            sim.start_flow(path, bytes, move |sim| {
                let next = disk.borrow_mut().nodes.spill_written(node, id);
                write_spills(sim, &disk, node, next);
                finish_spill(sim);
            });
            true
        });
        let now = pool.borrow_mut().nodes.queue_spill(node, id, write);
        write_spills(sim, &pool, node, now.map(|write| (id, write)));
    }
}

/// Give `node`'s disk to `next`, and to the spills queued behind it in turn
/// until one of them writes.
fn write_spills(
    sim: &mut Sim,
    pool: &SharedPool,
    node: NodeId,
    mut next: Option<(AttemptId, Spill)>,
) {
    while let Some((id, write)) = next {
        if write(sim) {
            return;
        }
        next = pool.borrow_mut().nodes.spill_written(node, id);
    }
}

#[cfg(test)]
mod tests {
    use crate::counters::keys;
    use crate::input::TaskInput;
    use crate::job::tests::{
        mem_splits, scaled_cluster, slow_map_job, small_cluster, word_count_job,
    };
    use crate::job::{run_job, FtConfig, Job, MrError, Payload, StreamConfig, TaskKind};
    use simnet::FaultPlan;
    use std::rc::Rc;

    /// A job whose map `i` computes `scan[i]` seconds and emits one value of
    /// `out[i]` bytes: on [`scaled_cluster`], a spill of `out[i] / 12 000`
    /// seconds on an idle disk.
    fn spill_job(scan: &'static [f64], out: &'static [usize], ft: FtConfig) -> Job {
        let mut job = slow_map_job(scan.len(), 0.0, ft);
        job.map_fn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("expected bytes"));
            };
            let i = usize::from(b[0]);
            ctx.charge("scan", scan[i]);
            ctx.emit(format!("k{i}"), Payload::Bytes(vec![b[0]; out[i] - 2]));
            Ok(())
        });
        job
    }

    #[test]
    fn two_spills_on_one_disk_are_written_one_after_the_other() {
        // Two equal maps on one node end their compute together. Shared
        // fairly, both 1 s spills would end after 2 × 1.06 s (two streams
        // thrash the head); queued, the first ends after 1 s, the second
        // after 2 s.
        let mut c = scaled_cluster(1, 2);
        let r = run_job(
            &mut c,
            spill_job(&[1.0, 1.0], &[12_000, 12_000], FtConfig::default()),
        );
        let r = r.unwrap();
        let (m0, m1) = (&r.tasks[0], &r.tasks[1]);
        assert_eq!(m0.end_s - m0.phase("spill"), m1.end_s - m1.phase("spill"));
        assert!((m0.phase("spill") - 1.0).abs() < 1e-9, "{m0:?}");
        assert!((m1.phase("spill") - 2.0).abs() < 1e-9, "{m1:?}");
    }

    #[test]
    fn a_failed_attempts_queued_spill_writes_nothing_and_the_next_starts_at_once() {
        // One node of three slots. Each map's hang deadline runs from the
        // end of its compute: a 2 s floor while nothing has committed, three
        // times the q75 committed duration after. Maps 1 and 2 compute 2.4 s
        // and commit at 3.4 s; maps 3 and 4 take their slots, warm, with
        // 10.2 s deadlines. Map 0 computes 3 s from 1 s, its 2 s deadline
        // priced before those commits. Map 3's 5 s spill holds the disk from
        // 3.4 s; map 0 (a 0.5 s spill) queues behind it at 4 s, map 4 (2.4 s
        // of compute, a 0.2 s spill) at 5.8 s. Map 0 is declared hung at
        // 6 s, still queued: when map 3's spill ends, map 4's starts.
        let ft = FtConfig {
            speculative: false,
            hang_deadline_min_s: 2.0,
            ..FtConfig::default()
        };
        let scan = &[2.5, 2.0, 2.0, 0.0, 2.0];
        let out = &[6_000, 3, 3, 60_000, 2_400];
        let mut c = scaled_cluster(1, 3);
        c.sim
            .faults
            .install(FaultPlan::none().hang_nth_read("no/such/file", 1));
        let r = run_job(&mut c, spill_job(scan, out, ft)).unwrap();
        assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 1.0);
        assert_eq!(r.counters.get(keys::TASK_RETRIES), 1.0);
        let (m0, m3, m4) = (&r.tasks[0], &r.tasks[3], &r.tasks[4]);
        assert!((m3.phase("spill") - 5.0).abs() < 1e-3, "{m3:?}");
        assert!((m4.end_s - (m3.end_s + 0.2)).abs() < 1e-9, "{m4:?} {m3:?}");
        // The retry launched at the deadline, cold, and found the disk idle.
        assert!((m0.start_s - 6.0).abs() < 1e-9, "{m0:?}");
        assert_eq!(m0.phase("startup"), 1.0);
        assert!((m0.end_s - m0.phase("spill") - 10.0).abs() < 1e-9, "{m0:?}");
        assert!((m0.phase("spill") - 0.5).abs() < 1e-9, "{m0:?}");
    }

    #[test]
    fn charges_appear_in_task_phases() {
        let mut c = small_cluster(1, 1);
        let mut job = word_count_job(mem_splits(1, 10), 1);
        job.map_fn = Rc::new(|_, ctx| {
            ctx.charge("plot", 2.0);
            ctx.charge("plot", 1.0);
            ctx.charge("convert", 0.5);
            Ok(())
        });
        job.reduce_fn = None;
        let r = run_job(&mut c, job).unwrap();
        let t = &r.tasks[0];
        assert!((t.phase("plot") - 3.0).abs() < 1e-9);
        assert!((t.phase("convert") - 0.5).abs() < 1e-9);
        // Wall time covers startup + compute.
        assert!(t.duration() >= 3.5);
        assert!((r.mean_phase(TaskKind::Map, "plot") - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stream_fallback_counted_exactly_once_per_task() {
        // InMemoryFetcher has no streaming support: with streaming enabled
        // every map attempt falls back to the batch path and says so.
        let mut c = small_cluster(2, 2);
        let mut job = word_count_job(mem_splits(4, 100), 1);
        job.stream = StreamConfig { enabled: true };
        let r = run_job(&mut c, job).unwrap();
        assert_eq!(r.counters.get(keys::STREAM_FALLBACKS), 4.0);
        assert_eq!(r.counters.get(keys::STREAM_FALLBACK_UNSUPPORTED), 4.0);
        assert_eq!(
            r.stream_fallbacks().as_deref(),
            Some("4 stream fallback(s) (4 unsupported fetcher)")
        );
        // With streaming off the counter stays silent.
        let mut c2 = small_cluster(2, 2);
        let mut job2 = word_count_job(mem_splits(4, 100), 1);
        job2.stream = StreamConfig { enabled: false };
        let r2 = run_job(&mut c2, job2).unwrap();
        assert_eq!(r2.counters.get(keys::STREAM_FALLBACKS), 0.0);
        assert_eq!(r2.stream_fallbacks(), None);
    }
}
