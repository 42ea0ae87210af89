//! Ablation: whole-block single I/O requests vs small sequential reads
//! (§III-A.3: "The original Hadoop reads 64KB data at a time until the end
//! of the split. SciDP, on the other hand, reads the entire block in a
//! single I/O request to maximize the bandwidth").
//!
//! Measured on a read-dominated job (no-op scan over the binary containers
//! on the PFS) so the I/O effect is not masked by compute: each extra
//! request pays a serialized MDS RPC + OST positioning round before its
//! transfer begins.
//!
//! Run: `cargo run --release -p scidp-bench --bin ablation_readsize`

use std::rc::Rc;

use mapreduce::{run_job, FlatPfsFetcher, InputSplit, Job, MrError, TaskInput};
use scidp_bench::{arg_usize, eval_spec, fmt_s, fmt_x, quick_mode, quick_spec, DatasetPool};

fn main() {
    let n = arg_usize("timestamps", if quick_mode() { 4 } else { 24 });
    let spec = if quick_mode() {
        quick_spec(n)
    } else {
        eval_spec(n)
    };
    let pool = DatasetPool::generate(spec, "nuwrf");
    println!("Ablation: PFS read granularity ({n} timestamps, read-dominated scan)");
    println!();
    println!("| requests per block                     | time (s) | vs whole-block |");
    println!("|----------------------------------------|----------|----------------|");
    let mut base = None;
    for (label, chunks) in [
        ("1 (whole block, SciDP style)", 1usize),
        ("64 sequential requests", 64),
        ("1024 sequential requests (64KB-class)", 1024),
    ] {
        let mut c = pool.fresh_cluster(8);
        let env = c.env();
        let splits: Vec<InputSplit> = pool
            .dataset
            .info
            .files
            .iter()
            .map(|p| {
                let len = env.pfs.borrow().len_of(p).unwrap() as u64;
                InputSplit {
                    length: len,
                    locations: Vec::new(),
                    fetcher: Rc::new(FlatPfsFetcher {
                        pfs_path: p.clone(),
                        offset: 0,
                        len,
                        sequential_chunks: chunks,
                    }),
                }
            })
            .collect();
        let job = Job::new(
            format!("scan-{chunks}"),
            splits,
            Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("scan expects bytes"));
                };
                ctx.charge(
                    "scan",
                    ctx.cost().lbytes(b.len()) * ctx.cost().scan_per_byte,
                );
                Ok(())
            }),
            None,
            1,
            format!("scan_out_{chunks}"),
        );
        let t = run_job(&mut c, job).expect("scan job succeeds").elapsed();
        let b = *base.get_or_insert(t);
        println!("| {:<38} | {:>8} | {:>14} |", label, fmt_s(t), fmt_x(t / b));
    }
    println!();
    println!("(each extra request pays a serialized MDS RPC + OST seek round before");
    println!(" its transfer; SciDP's whole-extent reads amortize both)");
}
