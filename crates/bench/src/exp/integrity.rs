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

use std::time::Instant;

use mapreduce::counter_keys as keys;
use scidp::{run_scidp, ScidpError, WorkflowConfig, WorkflowReport};
use scidp_bench::Clock::{Count, Host, Sim};
use scidp_bench::Rel::{Eq, Ge, Lt};
use scidp_bench::{quick_spec, DatasetPool, Report, Scale};
use simnet::FaultPlan;
use wrfgen::WrfSpec;

use super::output;

fn run_with(pool: &DatasetPool, plan: FaultPlan) -> (WorkflowReport, Vec<(String, Vec<u8>)>, f64) {
    let mut c = pool.fresh_cluster(8);
    c.sim.faults.install(plan);
    let cfg = WorkflowConfig::img_only(["QR"]);
    let wall = Instant::now();
    let rep = run_scidp(&mut c, &pool.dataset.pfs_uri(), &cfg)
        .expect("integrity bench run must complete");
    let wall = wall.elapsed().as_secs_f64();
    (rep, output(&c, "scidp_out"), wall)
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
fn crc_throughput(kernel: fn(&[u8]) -> u32, reps: usize) -> f64 {
    let buf: Vec<u8> = (0..(4usize << 20))
        .map(|i| (i as u8).wrapping_mul(31))
        .collect();
    // Warm up, then take the best of enough repetitions to beat timer and
    // scheduler noise.
    let mut acc = kernel(&buf);
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

pub fn run(scale: &Scale) -> Report {
    let spec = scale.pick(quick_spec(2), WrfSpec::scaled(16, 16, 6));
    let pool = DatasetPool::generate(spec, "nuwrf");
    let files = &pool.dataset.info.files;
    let mut rep = Report::new("integrity");
    rep.note(format!(
        "integrity: NU-WRF visualization pass, {} files, QR analysed",
        files.len()
    ));

    // --- 1. Checksum overhead. Both kernels timed back to back in this
    // process: the floor is a ratio, so it holds on a slow or busy machine
    // where MB/s would not.
    let reps = scale.pick(8, 32);
    let thr_bytewise = crc_throughput(crc32c_bytewise, reps);
    let thr = crc_throughput(scirng::crc32c, reps);
    let (clean, clean_out, mut clean_wall) = run_with(&pool, FaultPlan::none());
    // Best of three wall-clock samples: the harness shares the machine.
    for _ in 0..2 {
        clean_wall = clean_wall.min(run_with(&pool, FaultPlan::none()).2);
    }
    let (clean_s, verified) = (
        clean.total_time(),
        clean.job.counters.get(keys::CHECKSUM_VERIFIED_BYTES),
    );
    let overhead_pct = 100.0 * (verified / thr) / clean_wall.max(1e-9);
    rep.row("crc32c_throughput", thr, "B/s", Host);
    rep.row("crc32c_bytewise_throughput", thr_bytewise, "B/s", Host);
    rep.row("crc32c_speedup", thr / thr_bytewise, "x", Host);
    rep.row("clean.wall_s", clean_wall, "s", Host);
    rep.row("clean.virtual_s", clean_s, "s", Sim);
    rep.row("clean.verified_bytes", verified, "B", Count);
    rep.row("checksum_overhead_pct", overhead_pct, "%", Host);
    rep.expect(
        "crc32c_speedup",
        Ge,
        2.5,
        "slice-by-8 crc32c >= 2.5x the byte-wise loop",
    );
    rep.expect(
        "checksum_overhead_pct",
        Lt,
        5.0,
        "checksum verification under 5 % of wall-clock",
    );

    // --- 2. Repair cost under seeded silent corruption.
    let mut lines = Vec::new();
    for k in [0usize, 1, files.len()] {
        let corrupt = |p: FaultPlan, path: &String| p.corrupt_read(path, 1);
        let plan = files.iter().take(k).fold(FaultPlan::none(), corrupt);
        let (r, out, _) = run_with(&pool, plan);
        rep.identical(&format!("{k}_corrupted_reads"), &out, &clean_out);
        let detected = r.job.counters.get(keys::CORRUPTION_DETECTED);
        let repaired = r.job.counters.get(keys::CORRUPTION_REPAIRED);
        let cells = vec![r.total_time(), r.total_time() / clean_s, detected, repaired];
        lines.push((format!("{k} corrupted reads"), cells));
    }
    let cols = [
        ("elapsed_s", "time", "s", Sim),
        ("vs_clean", "vs clean", "x", Sim),
        ("detected", "detected", "", Count),
        ("repaired", "repaired", "", Count),
    ];
    rep.table("", "plan", &cols, &lines);
    for k in [0usize, 1, files.len()] {
        let (detected, repaired) = (
            format!("{k}_corrupted_reads.detected"),
            format!("{k}_corrupted_reads.repaired"),
        );
        rep.expect(
            &detected,
            Eq,
            k as f64,
            "every seeded corruption is detected",
        );
        rep.expect(&repaired, Eq, k as f64, "every detection is repaired");
    }

    // --- 3. Persistent corruption: quarantine + typed failure.
    let mut c = pool.fresh_cluster(8);
    let plan = FaultPlan::none().corrupt_read_persistent(&files[0], 1);
    c.sim.faults.install(plan);
    let cfg = WorkflowConfig::img_only(["QR"]);
    let result = run_scidp(&mut c, &pool.dataset.pfs_uri(), &cfg);
    if let Err(e) = &result {
        rep.note(format!("persistent corruption fails: {e}"));
    }
    let typed = matches!(result, Err(ScidpError::Integrity(_)));
    let why = "persistent corruption must fail typed and never produce output";
    rep.check("persistent_corruption.typed_failure", typed, why);
    rep
}
