//! Data-integrity benchmark: what end-to-end checksums cost on the SciDP
//! read path, and what repair costs when corruption actually strikes.
//!
//! Three experiments on the NU-WRF visualization workload:
//!  1. checksum overhead — every chunk is CRC32C-verified on decode; the
//!     verification is real CPU work in the harness, so we compare the
//!     estimated verification time (verified bytes / measured CRC32C
//!     throughput) against the real wall-clock of the whole run. Target:
//!     < 5% (EXPERIMENTS.md). The slice-by-8 kernel is timed against the
//!     byte-wise loop it replaced in the same process; floor: 2.5x.
//!  2. repair cost — seeded silent corruption on 1..all files; each bad
//!     read is detected by CRC and repaired by an automatic re-read. The
//!     committed output must be byte-identical to the clean run; the
//!     virtual-time delta is the price of the extra PFS reads.
//!  3. persistent corruption — a chunk that stays corrupt across the retry
//!     is quarantined and the job fails with a typed IntegrityError.
//!
//! Results go to stdout as tables and to `BENCH_integrity.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin integrity [--quick]`

use std::time::Instant;

use mapreduce::{counter_keys as keys, Cluster};
use scidp::{run_scidp, ScidpError, WorkflowConfig, WorkflowReport};
use scidp_bench::{fmt_s, quick_mode, quick_spec, row, DatasetPool};
use simnet::FaultPlan;
use wrfgen::WrfSpec;

/// Committed output bytes, sorted by path, for byte-identity checks.
fn read_output(c: &Cluster) -> Vec<(String, Vec<u8>)> {
    let h = c.hdfs.borrow();
    let mut files = h.namenode.list_files_recursive("scidp_out").unwrap();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    files
        .iter()
        .map(|f| {
            let mut data = Vec::new();
            for b in h.namenode.blocks(&f.path).unwrap() {
                data.extend_from_slice(&h.datanodes.get(b.locations()[0], b.id).unwrap());
            }
            (f.path.clone(), data)
        })
        .collect()
}

fn run_with(pool: &DatasetPool, plan: FaultPlan) -> (WorkflowReport, Vec<(String, Vec<u8>)>, f64) {
    let mut c = pool.fresh_cluster(8);
    c.sim.faults.install(plan);
    let cfg = WorkflowConfig::img_only(["QR"]);
    let wall = Instant::now();
    let rep = run_scidp(&mut c, &pool.dataset.pfs_uri(), &cfg)
        .expect("integrity bench run must complete");
    let wall = wall.elapsed().as_secs_f64();
    let out = read_output(&c);
    (rep, out, wall)
}

/// The byte-at-a-time table loop `scirng::crc32c` ran before slice-by-8:
/// the fixed yardstick of the speed-up floor below.
fn crc32c_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, slot) in table.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |crc, _| {
            (crc >> 1) ^ if crc & 1 != 0 { 0x82F6_3B78 } else { 0 }
        });
    }
    !bytes.iter().fold(!0u32, |crc, &b| {
        (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize]
    })
}

/// Measured throughput (bytes/s) of a CRC32C kernel over a warm buffer.
fn crc_throughput(kernel: fn(&[u8]) -> u32) -> f64 {
    let buf: Vec<u8> = (0..(4usize << 20))
        .map(|i| (i as u8).wrapping_mul(31))
        .collect();
    // Warm up, then take the best of enough repetitions to beat timer and
    // scheduler noise.
    let mut acc = kernel(&buf);
    let reps = if quick_mode() { 8 } else { 32 };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        acc = acc.wrapping_add(kernel(std::hint::black_box(&buf)));
        best = best.min(t.elapsed().as_secs_f64());
    }
    // Keep `acc` observable so the loop is not optimized away.
    assert_ne!(acc, 1, "crc sink");
    buf.len() as f64 / best.max(1e-9)
}

fn main() {
    let spec = if quick_mode() {
        quick_spec(2)
    } else {
        WrfSpec::scaled(16, 16, 6)
    };
    let pool = DatasetPool::generate(spec, "nuwrf");
    let n_files = pool.dataset.info.files.len();
    println!(
        "integrity: NU-WRF visualization pass, {} files, QR analysed",
        n_files
    );

    // --- 1. Checksum overhead. ------------------------------------------
    // Both kernels timed back to back in this process: the floor is a
    // ratio, so it holds on a slow or busy machine where MB/s would not.
    let thr_bytewise = crc_throughput(crc32c_bytewise);
    let thr = crc_throughput(scirng::crc32c);
    let crc_speedup = thr / thr_bytewise;
    let (clean, clean_out, mut clean_wall) = run_with(&pool, FaultPlan::none());
    // Best of three wall-clock samples: the harness shares the machine.
    for _ in 0..2 {
        let (_, _, w) = run_with(&pool, FaultPlan::none());
        clean_wall = clean_wall.min(w);
    }
    let verified = clean.job.counters.get(keys::CHECKSUM_VERIFIED_BYTES);
    let crc_s = verified / thr;
    let overhead_pct = 100.0 * crc_s / clean_wall.max(1e-9);
    println!();
    println!(
        "crc32c throughput: {:.2} GB/s ({crc_speedup:.2}x the byte-wise loop's {:.2} GB/s — floor 2.5x)   verified: {:.1} MB/run",
        thr / 1e9,
        thr_bytewise / 1e9,
        verified / 1e6
    );
    assert!(
        crc_speedup >= 2.5,
        "slice-by-8 crc32c is only {crc_speedup:.2}x the byte-wise loop (floor 2.5x)"
    );
    println!(
        "checksum overhead: {:.3}% of wall-clock ({:.2} ms verify vs {:.0} ms run) — target < 5%",
        overhead_pct,
        crc_s * 1e3,
        clean_wall * 1e3
    );
    assert!(
        overhead_pct < 5.0,
        "checksum overhead {overhead_pct:.2}% exceeds the 5% budget"
    );

    // --- 2. Repair cost under seeded silent corruption. ------------------
    println!();
    println!(
        "{}",
        row(&[
            "corrupted reads".into(),
            "time".into(),
            "vs clean".into(),
            "detected".into(),
            "repaired".into(),
            "output ok".into(),
        ])
    );
    let mut sweep = Vec::new();
    for k in [0usize, 1, n_files] {
        let mut plan = FaultPlan::none();
        for path in pool.dataset.info.files.iter().take(k) {
            plan = plan.corrupt_read(path, 1);
        }
        let (rep, out, _) = run_with(&pool, plan);
        assert_eq!(
            out, clean_out,
            "{k} corrupted reads: output diverged from clean run"
        );
        let detected = rep.job.counters.get(keys::CORRUPTION_DETECTED);
        let repaired = rep.job.counters.get(keys::CORRUPTION_REPAIRED);
        assert_eq!(detected as usize, k, "every seeded corruption is detected");
        assert_eq!(repaired as usize, k, "every detection is repaired");
        println!(
            "{}",
            row(&[
                k.to_string(),
                fmt_s(rep.total_time()),
                format!("{:.3}x", rep.total_time() / clean.total_time()),
                format!("{detected:.0}"),
                format!("{repaired:.0}"),
                "yes".into(),
            ])
        );
        sweep.push((k, rep.total_time(), detected, repaired));
    }

    // --- 3. Persistent corruption: quarantine + typed failure. ------------
    let mut c = pool.fresh_cluster(8);
    c.sim
        .faults
        .install(FaultPlan::none().corrupt_read_persistent(&pool.dataset.info.files[0], 1));
    let err = match run_scidp(
        &mut c,
        &pool.dataset.pfs_uri(),
        &WorkflowConfig::img_only(["QR"]),
    ) {
        Err(e) => e,
        Ok(_) => panic!("persistent corruption must not produce output"),
    };
    assert!(
        matches!(err, ScidpError::Integrity(_)),
        "persistent corruption must fail typed, got: {err}"
    );
    println!();
    println!("persistent corruption fails typed: {err}");

    // JSON artifact.
    let sweep_json = sweep
        .iter()
        .map(|(k, t, d, r)| {
            format!(
                "{{\"corrupted_reads\":{k},\"elapsed_s\":{t:.6},\"detected\":{d:.0},\"repaired\":{r:.0},\"output_identical\":true}}"
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\n  \"crc32c_throughput_bytes_per_s\": {thr:.0},\n  \"crc32c_bytewise_bytes_per_s\": {thr_bytewise:.0},\n  \"crc32c_speedup\": {crc_speedup:.3},\n  \"clean\": {{\"wall_s\": {clean_wall:.6}, \"virtual_s\": {:.6}, \"verified_bytes\": {verified:.0}}},\n  \"checksum_overhead_pct\": {overhead_pct:.4},\n  \"repair_sweep\": [{sweep_json}],\n  \"persistent_corruption\": {{\"typed_failure\": true}}\n}}\n",
        clean.total_time(),
    );
    std::fs::write("BENCH_integrity.json", &json).expect("write BENCH_integrity.json");
    println!();
    println!("wrote BENCH_integrity.json");
}
