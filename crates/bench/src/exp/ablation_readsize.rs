//! Ablation: whole-block single I/O requests vs small sequential reads
//! (§III-A.3: "The original Hadoop reads 64KB data at a time until the end
//! of the split. SciDP, on the other hand, reads the entire block in a
//! single I/O request to maximize the bandwidth").
//!
//! Measured on a read-dominated job (no-op scan over the binary containers
//! on the PFS) so the I/O effect is not masked by compute: each extra
//! request pays a serialized MDS RPC + OST positioning round before its
//! transfer begins.

use std::rc::Rc;

use mapreduce::{run_job, Job, MrError, TaskInput};
use scidp_bench::Clock::Sim;
use scidp_bench::{DatasetPool, Rel, Report, Scale};

use super::flat_splits;

pub fn run(scale: &Scale) -> Report {
    let n = scale.timestamps(4, 24);
    let pool = DatasetPool::generate(scale.spec(n), "nuwrf");
    let mut lines: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, requests) in [
        ("1 (whole block, SciDP style)", 1usize),
        ("64 sequential requests", 64),
        ("1024 sequential requests (64KB-class)", 1024),
    ] {
        let mut c = pool.fresh_cluster(8);
        let whole_file = |p: &String| {
            let len = c.pfs.borrow().len_of(p).unwrap() as u64;
            flat_splits(p, len, 1, requests)
        };
        let splits = pool
            .dataset
            .info
            .files
            .iter()
            .flat_map(whole_file)
            .collect();
        let scan: mapreduce::MapFn = Rc::new(|input, ctx| {
            let TaskInput::Bytes(b) = input else {
                return Err(MrError::msg("scan expects bytes"));
            };
            let cost = ctx.cost().lbytes(b.len()) * ctx.cost().scan_per_byte;
            ctx.charge("scan", cost);
            Ok(())
        });
        let (name, out) = (format!("scan-{requests}"), format!("scan_out_{requests}"));
        let job = Job::new(name, splits, scan, None, 1, out);
        let t = run_job(&mut c, job).expect("scan job succeeds").elapsed();
        let base = lines.first().map_or(t, |(_, l)| l[0]);
        lines.push((label.to_string(), vec![t, t / base]));
    }
    let mut rep = Report::new("ablation_readsize");
    let cols = [
        ("time_s", "time", "s", Sim),
        ("vs_whole_block_x", "vs whole-block", "x", Sim),
    ];
    let title = format!("Ablation: PFS read granularity ({n} timestamps, read-dominated scan)");
    rep.table(&title, "requests per block", &cols, &lines);
    rep.note("(each extra request pays a serialized MDS RPC + OST seek round before");
    rep.note(" its transfer; SciDP's whole-extent reads amortize both)");
    let why = "§III-A.3 whole-block reads beat many small sequential requests";
    let (t1, t64) = (lines[0].1[0], lines[1].1[0]);
    rep.expect("64_sequential_requests.time_s", Rel::Gt, t1, why);
    rep.expect(
        "1024_sequential_requests_64kb_class.time_s",
        Rel::Ge,
        t64,
        why,
    );
    rep
}
