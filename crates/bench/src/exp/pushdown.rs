//! Predicate-pushdown benchmark: how much scan time do chunk zone maps
//! save when the WHERE clause is pushed below the PFS read?
//!
//! The dataset is a vertical ramp — values in chunk `l` live in
//! `[l, l+1)` — chunked one level at a time, so a `value >= cutoff`
//! predicate maps to an exact fraction of prunable chunks. The same
//! `run_sql_scan` executes with pushdown off (full scan: read, decompress,
//! convert, then filter) and on (zone-map skip before the read, columnar
//! delivery of survivors), and the committed outputs are asserted
//! byte-identical at every selectivity.
//!
//! Gates: 1% selectivity gives >= 2x speedup with >= 90% of chunks
//! skipped; zone-map stamping adds < 1% to the container size.

use mapreduce::{counter_keys as keys, JobResult};
use scidp::{run_sql_scan, SqlScanConfig};
use scidp_bench::Clock::{Count, Sim};
use scidp_bench::Rel::{Ge, Lt};
use scidp_bench::{Report, Scale};

use super::{output, pipeline_cost, small_cluster, snc_container};

const DIR: &str = "push";
const PATH: &str = "push/f.snc";

/// The ramp container: chunk `l` holds values in `[l, l+1)`, so zone maps
/// give the planner perfect per-chunk bounds along the ramp. Intra-chunk
/// values are hash noise, not a smooth gradient, so the container
/// compresses like real field data rather than collapsing to nothing.
fn build_container(levels: usize, lat: usize, lon: usize, zone_maps: bool) -> Vec<u8> {
    let ramp = |i: usize| {
        let l = (i / (lat * lon)) as f32;
        let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        l + ((h >> 40) & 0xff_ffff) as f32 / (1u32 << 24) as f32
    };
    let data: Vec<f32> = (0..levels * lat * lon).map(ramp).collect();
    snc_container("V", [levels, lat, lon], 1, zone_maps, data)
}

fn run_scan(container: &[u8], sql: &str, pushdown: bool) -> (JobResult, Vec<(String, Vec<u8>)>) {
    // Small fixed task overhead (as in the overlap bench) so the sweep
    // measures the read/decompress/convert pipeline, not JVM startup.
    let mut c = small_cluster(4, 1 << 18, 1, pipeline_cost(1024.0));
    c.pfs
        .borrow_mut()
        .create(PATH.to_string(), container.to_vec());
    let cfg = SqlScanConfig {
        pushdown,
        n_reducers: 2,
        ..SqlScanConfig::new(["V"], sql)
    };
    let r = run_sql_scan(&mut c, &format!("lustre://{DIR}"), &cfg).expect("sql scan");
    let out = output(&c, "sql_out");
    (r, out)
}

pub fn run(scale: &Scale) -> Report {
    let (levels, lat, lon) = (scale.pick(32, 128), 128, 128);
    let mut rep = Report::new("pushdown");

    // Zone-map write overhead: same container with and without stamping.
    let container = build_container(levels, lat, lon, true);
    let plain = build_container(levels, lat, lon, false).len();
    let zm_bytes = (container.len() - plain) as f64;
    rep.note(format!(
        "pushdown: {levels} chunks of [1,{lat},{lon}] f32; container without zone maps {plain} B"
    ));
    rep.row("chunks", levels as f64, "", Count);
    rep.row("zone_map_overhead_bytes", zm_bytes, "B", Count);
    rep.row("zone_map_overhead_frac", zm_bytes / plain as f64, "", Count);

    // Selectivity sweep: cutoff picks the matching fraction of the ramp.
    // The query aggregates (the vectorised fold path) so the measurement
    // is the scan pipeline — read, decompress, convert, filter — and not
    // the shuffle/commit cost of materialising every matching row, which
    // no amount of input pruning can remove.
    let mut lines = Vec::new();
    for pct in [1, 10, 50, 100] {
        let cutoff = levels as f64 * (1.0 - pct as f64 / 100.0);
        let sql = format!(
            "SELECT COUNT(value), SUM(value), MIN(value), MAX(value) FROM df WHERE value >= {cutoff}"
        );
        let (full, full_out) = run_scan(&container, &sql, false);
        let (push, push_out) = run_scan(&container, &sql, true);
        rep.identical(&format!("select_{pct}"), &push_out, &full_out);
        let get = |key| push.counters.get(key);
        let cells = vec![
            full.elapsed(),
            push.elapsed(),
            full.elapsed() / push.elapsed(),
            get(keys::CHUNKS_SKIPPED_ZONEMAP),
            get(keys::PUSHDOWN_BYTES_AVOIDED),
            get(keys::VECTORISED_ROWS),
            get(keys::ZONE_MAP_BYTES),
        ];
        lines.push((format!("select {pct}%"), cells));
    }
    let cols = [
        ("full_scan_s", "full scan", "s", Sim),
        ("pushdown_s", "pushdown", "s", Sim),
        ("speedup", "speedup", "x", Sim),
        ("chunks_skipped", "skipped", "", Count),
        ("pushdown_bytes_avoided", "avoided", "B", Count),
        ("vectorised_rows", "vec rows", "", Count),
        ("zone_map_bytes", "zone-map", "B", Count),
    ];
    rep.table("", "selectivity", &cols, &lines);
    // The 1% point is the headline: most chunks prove themselves
    // irrelevant from 26 bytes of metadata each.
    #[rustfmt::skip] // one target per line reads as the table it is
    rep.expect_all(&[
        ("zone_map_overhead_frac", Lt, 0.01, "zone-map stamping costs < 1% of container size"),
        ("select_1.chunks_skipped", Ge, 0.9 * levels as f64, "1% selectivity must skip >= 90% of chunks"),
        ("select_1.speedup", Ge, 2.0, "1% selectivity must gain >= 2x"),
        ("select_100.speedup", Ge, 0.8, "100% selectivity must not regress badly"),
    ]);
    rep
}
