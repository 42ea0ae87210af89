//! Figure 6: I/O bandwidth of SciDP vs HPC I/O methods, as the number of
//! parallel readers grows.
//!
//! Series (paper): NC Ind I/O < NC Coll I/O < SciDP < SciDP Equal ≲ MPI
//! Coll I/O. "SciDP Equal" divides the *raw* (decompressed) byte count by
//! the same elapsed time — the bandwidth equivalent of what was actually
//! delivered to the application. "MPI Coll" ignores the container
//! structure and reads the files as flat bytes: the ideal upper bound.
//!
//! The three HPC series are request patterns over `pfs::read_at`, modelled
//! here ([`chained_reads`]) — the one MPI-IO model of the repository.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use mapreduce::SplitFetcher as _;
use scidp::SciSlabFetcher;
use scidp_bench::Clock::Sim;
use scidp_bench::Rel::{Ge, Gt, Lt};
use scidp_bench::{DatasetPool, Report, Scale};
use scifmt::SncFile;
use simnet::NodeId;

/// Per file: path, QR's chunk extents, QR's metadata, data offset.
type QrFile = (
    String,
    Vec<scifmt::ChunkExtent>,
    Arc<scifmt::VarMeta>,
    usize,
);

struct Workload {
    files: Vec<QrFile>,
    compressed_logical: f64,
    raw_logical: f64,
}

fn build_workload(pool: &DatasetPool) -> Workload {
    let cluster = pool.fresh_cluster(8);
    let scale = cluster.sim.cost.scale;
    let mut files = Vec::new();
    let (mut comp, mut raw) = (0.0, 0.0);
    for path in &pool.dataset.info.files {
        let bytes = cluster.pfs.borrow().file(path).unwrap().data.clone();
        let f = SncFile::open(bytes.as_ref().clone()).unwrap();
        let var = Arc::new(f.meta().var("QR").unwrap().clone());
        let exts = f.chunk_extents("QR").unwrap();
        comp += var.stored_size() as f64 * scale;
        raw += var.raw_size() as f64 * scale;
        files.push((path.clone(), exts, var, f.meta().data_offset));
    }
    Workload {
        files,
        compressed_logical: comp,
        raw_logical: raw,
    }
}

/// One MPI process's reads, in order: `(file, offset, len, post_delay)`.
type Queue = Vec<(String, usize, usize, f64)>;

/// The latest simulated second any reader finished at.
fn mark_end(end: &Cell<f64>, sim: &simnet::Sim) {
    end.set(end.get().max(sim.now().secs()));
}

/// Run one MPI process per queue, each draining its reads sequentially;
/// all processes in parallel. Returns the time the slowest one finishes.
fn chained_reads(pool: &DatasetPool, queues: Vec<Queue>) -> f64 {
    struct Rank {
        topo: simnet::Topology,
        pfs: pfs::SharedPfs,
        queue: Queue,
        node: NodeId,
        end: Rc<Cell<f64>>,
    }
    fn step(sim: &mut simnet::Sim, rank: Rc<Rank>, idx: usize) {
        let Some((path, off, len, post)) = rank.queue.get(idx).cloned() else {
            return mark_end(&rank.end, sim);
        };
        let next = rank.clone();
        let (topo, pfs, node) = (&rank.topo, &rank.pfs, rank.node);
        pfs::read_at(sim, topo, pfs, node, &path, off, len, move |sim, res| {
            res.expect("MPI rank reads a staged range");
            sim.after(post, move |sim| step(sim, next, idx + 1));
        });
    }

    let mut cluster = pool.fresh_cluster(8);
    let nodes = cluster.topo.n_compute();
    let end = Rc::new(Cell::new(0.0f64));
    for (i, queue) in queues.into_iter().enumerate() {
        let rank = Rank {
            topo: cluster.topo.clone(),
            pfs: cluster.pfs.clone(),
            queue,
            node: NodeId((i % nodes) as u32),
            end: end.clone(),
        };
        step(&mut cluster.sim, Rc::new(rank), 0);
    }
    cluster.run();
    end.get()
}

/// NC independent I/O: row-granular chunk reads (the request shape
/// `nc_get_vara` issues without collective buffering), decode included.
fn nc_ind(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    let cost = pool.fresh_cluster(8).sim.cost.clone();
    let mut queues: Vec<Queue> = vec![Vec::new(); readers];
    let mut r = 0usize;
    for (path, exts, _, _) in &w.files {
        for e in exts {
            let sub = e.shape[0].max(1);
            let decode = e.rlen as f64 * cost.scale * cost.decompress_per_byte / sub as f64;
            let step = (e.clen as usize).div_ceil(sub);
            let mut off = e.offset as usize;
            let end_off = (e.offset + e.clen) as usize;
            while off < end_off {
                let l = step.min(end_off - off);
                queues[r % readers].push((path.clone(), off, l, decode));
                off += l;
            }
            r += 1;
        }
    }
    chained_reads(pool, queues)
}

/// `[lo, hi)` of `path` as one even contiguous span per rank, each followed
/// by `decode` seconds of per-rank work.
fn even_spans(queues: &mut [Queue], path: &str, lo: usize, hi: usize, decode: f64) {
    let span = (hi - lo).div_ceil(queues.len());
    for (i, queue) in queues.iter_mut().enumerate() {
        let len = span.min((hi - lo).saturating_sub(i * span));
        if len > 0 {
            queue.push((path.to_string(), lo + i * span, len, decode));
        }
    }
}

/// NC collective I/O: collective buffering coalesces the per-rank requests
/// into one even contiguous span of the variable region per rank per file;
/// decode still paid per rank.
fn nc_coll(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    let cost = pool.fresh_cluster(8).sim.cost.clone();
    let mut queues: Vec<Queue> = vec![Vec::new(); readers];
    for (path, exts, var, _) in &w.files {
        let lo = exts.first().map_or(0, |e| e.offset as usize);
        let hi = exts.last().map_or(0, |e| (e.offset + e.clen) as usize);
        let decode = var.raw_size() as f64 * cost.scale * cost.decompress_per_byte / readers as f64;
        even_spans(&mut queues, path, lo, hi, decode);
    }
    chained_reads(pool, queues)
}

/// MPI Coll upper bound: structure-blind even spans of the whole files,
/// nothing decoded.
fn mpi_coll(pool: &DatasetPool, readers: usize) -> f64 {
    let cluster = pool.fresh_cluster(8);
    let mut queues: Vec<Queue> = vec![Vec::new(); readers];
    for path in &pool.dataset.info.files {
        let len = cluster.pfs.borrow().len_of(path).unwrap();
        even_spans(&mut queues, path, 0, len, 0.0);
    }
    chained_reads(pool, queues)
}

/// SciDP: chunk-aligned PFS-reader fetches drained by `readers` concurrent
/// workers (decode included in elapsed, as the paper's SciDP series does).
fn scidp_read(pool: &DatasetPool, w: &Workload, readers: usize) -> f64 {
    struct Drain {
        env: mapreduce::MrEnv,
        tasks: RefCell<Vec<SciSlabFetcher>>,
        active: Cell<usize>,
        end: Cell<f64>,
    }
    fn pump(sim: &mut simnet::Sim, d: Rc<Drain>, node: NodeId) {
        let Some(f) = d.tasks.borrow_mut().pop() else {
            if d.active.get() == 0 {
                mark_end(&d.end, sim);
            }
            return;
        };
        d.active.set(d.active.get() + 1);
        let next = d.clone();
        let done: mapreduce::FetchDone = Box::new(move |sim, fr| {
            let fr = fr.expect("fig6 fetch runs without fault injection");
            let decode: f64 = fr.charges.iter().map(|(_, s)| s).sum();
            sim.after(decode, move |sim| {
                next.active.set(next.active.get() - 1);
                pump(sim, next, node);
            });
        });
        f.fetch(&d.env, sim, node, done);
    }

    let mut cluster = pool.fresh_cluster(8);
    let nodes = cluster.topo.n_compute();
    let mut tasks: Vec<SciSlabFetcher> = Vec::new();
    for (path, exts, var, off) in &w.files {
        tasks.extend(exts.iter().map(|e| SciSlabFetcher {
            pfs_path: path.clone(),
            var: var.clone(),
            data_offset: *off,
            start: e.origin.clone(),
            count: e.shape.clone(),
            // Bandwidth series reads every chunk exactly once; a cache
            // would only distort the measured I/O.
            cache: Arc::new(scifmt::ChunkCache::new(0)),
            pushdown: None,
            cluster_admit: false,
        }));
    }
    let drain = Rc::new(Drain {
        env: cluster.env(),
        tasks: RefCell::new(tasks),
        active: Cell::new(0),
        end: Cell::new(0.0),
    });
    for r in 0..readers {
        pump(&mut cluster.sim, drain.clone(), NodeId((r % nodes) as u32));
    }
    cluster.run();
    drain.end.get()
}

/// Per series: the reader count its bandwidth rises to (`--quick`, full).
/// Past the knee each rank's span shrinks to a few stripes and the
/// per-request seek floor dominates.
const KNEES: [(&str, usize, usize); 5] = [
    ("nc_ind", 16, 128),
    ("nc_coll", 16, 16),
    ("scidp", 16, 8),
    ("scidp_equal", 16, 8),
    ("mpi_coll", 4, 2),
];

pub fn run(scale: &Scale) -> Report {
    let pool = DatasetPool::generate(scale.spec(scale.pick(8, 16)), "nuwrf");
    let w = build_workload(&pool);
    let readers: &[usize] = scale.pick(&[1, 4, 16], &[1, 2, 4, 8, 16, 32, 64, 128]);
    // Flat MPI Coll reads every byte of every file (all variables).
    let flat_bytes: f64 = {
        let c = pool.fresh_cluster(8);
        let files = &pool.dataset.info.files;
        let len = |p: &String| c.pfs.borrow().len_of(p).unwrap();
        files.iter().map(len).sum::<usize>() as f64 * c.sim.cost.scale
    };
    let gb = |bytes: f64, t: f64| if t <= 0.0 { 0.0 } else { bytes / t / 1e9 };
    let line = |&n: &usize| {
        let t_scidp = scidp_read(&pool, &w, n);
        let bw = vec![
            gb(w.compressed_logical, nc_ind(&pool, &w, n)),
            gb(w.compressed_logical, nc_coll(&pool, &w, n)),
            gb(w.compressed_logical, t_scidp),
            gb(w.raw_logical, t_scidp),
            gb(flat_bytes, mpi_coll(&pool, n)),
        ];
        (n.to_string(), bw)
    };
    let lines: Vec<(String, Vec<f64>)> = readers.iter().map(line).collect();

    let mut rep = Report::new("fig6");
    rep.note(format!(
        "workload: QR variable of {} files ({:.1} GB compressed, {:.1} GB raw, logical)",
        w.files.len(),
        w.compressed_logical / 1e9,
        w.raw_logical / 1e9
    ));
    let cols = [
        ("nc_ind", "NC Ind", "GB/s", Sim),
        ("nc_coll", "NC Coll", "GB/s", Sim),
        ("scidp", "SciDP", "GB/s", Sim),
        ("scidp_equal", "SciDP Equal", "GB/s", Sim),
        ("mpi_coll", "MPI Coll", "GB/s", Sim),
    ];
    let title = "Figure 6: I/O bandwidth (logical) vs number of readers";
    rep.table(title, "readers", &cols, &lines);
    rep.note("(paper shape: bandwidth grows with readers; NC Ind flattest; SciDP Equal");
    rep.note(" approaches the flat MPI Coll upper bound at high reader counts)");

    let last = readers[readers.len() - 1];
    let at = |n: usize, series: &str| format!("{n}.{series}");
    let nc_ind_peak = rep.v(&at(scale.pick(KNEES[0].1, KNEES[0].2), "nc_ind"));
    let grows = "§5.3 bandwidth non-decreasing with readers up to the series' knee";
    let flattest =
        "§5.3 NC Ind flattest: below every series up to that series' knee, and the lowest peak";
    let d4b = "bandwidth declines past the knee: spans shrink to a few stripes and the seek floor dominates";
    for (series, quick_knee, full_knee) in KNEES {
        let knee = scale.pick(quick_knee, full_knee);
        for pair in readers.windows(2).filter(|p| p[1] <= knee) {
            rep.expect(&at(pair[1], series), Ge, rep.v(&at(pair[0], series)), grows);
        }
        if knee < last {
            rep.deviation("D4b", &at(last, series), Lt, rep.v(&at(knee, series)), d4b);
        }
        if series != "nc_ind" {
            for &n in readers.iter().filter(|&&n| n <= knee) {
                rep.expect(&at(n, "nc_ind"), Lt, rep.v(&at(n, series)), flattest);
            }
            rep.expect(&at(knee, series), Gt, nc_ind_peak, flattest);
        }
    }
    let d4a = "SciDP Equal exceeds rather than approaches MPI Coll: decompress_per_byte models a ~1 GB/s codec";
    rep.deviation(
        "D4a",
        &at(last, "scidp_equal"),
        Gt,
        rep.v(&at(last, "mpi_coll")),
        d4a,
    );
    rep
}
