//! Parallel data analysis in R-style SQL (paper §IV-D / §V-F): run
//! `sqldf` queries both standalone over a data frame and *inside* SciDP
//! map tasks, and check the distributed answer against the direct one.
//!
//! Run: `cargo run --release --example sql_analysis`

use std::collections::HashMap;
use std::rc::Rc;

use scidp_suite::mapreduce;
use scidp_suite::prelude::*;
use scidp_suite::scifmt::SncFile;

fn main() {
    let spec = WrfSpec {
        n_vars: 3,
        ..WrfSpec::scaled(24, 24, 4)
    };
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf/run1");

    // --- Direct (single-machine R session): read one file, query it. ---
    let bytes = cluster
        .pfs
        .borrow()
        .file(&ds.info.files[0])
        .unwrap()
        .data
        .clone();
    let f = SncFile::open(bytes.as_ref().clone()).unwrap();
    let qr = f.get_var("QR").unwrap();
    let df = scidp_suite::scidp::rapi::slab_to_frame(
        &["lev".into(), "lat".into(), "lon".into()],
        &[0, 0, 0],
        &qr,
    )
    .unwrap();
    let mut env = HashMap::new();
    env.insert("df", &df);
    let stats = sqldf(
        "SELECT lev, COUNT(*) AS n, AVG(value) AS mean, MAX(value) AS peak \
         FROM df GROUP BY lev ORDER BY lev LIMIT 5",
        &env,
    )
    .unwrap();
    println!("per-level stats of {} (first 5 levels):", ds.info.files[0]);
    for r in 0..stats.n_rows() {
        println!(
            "  lev {:>2}: n = {:>4}, mean = {:>8.3}, peak = {:>8.3}",
            stats.column("lev").unwrap().value(r),
            stats.f64_column("n").unwrap()[r],
            stats.f64_column("mean").unwrap()[r],
            stats.f64_column("peak").unwrap()[r],
        );
    }
    let direct_max = sqldf("SELECT MAX(value) AS m FROM df", &env).unwrap();
    let direct_peak = direct_max.f64_column("m").unwrap()[0];

    // --- Distributed: a custom SciDP R job computing per-slab maxima, ----
    //     reduced to the global maximum across the whole dataset.
    let rjob = RJob {
        name: "global-max".into(),
        input: ScidpInput::path(ds.pfs_uri()).vars(["QR"]),
        map: Rc::new(|slab, rctx| {
            let mut env = HashMap::new();
            env.insert("df", slab.frame()?);
            let m = rctx.sqldf("SELECT MAX(value) AS m FROM df", &env)?;
            rctx.emit_frame(format!("max/{}", slab.var), m);
            Ok(())
        }),
        reduce: Some(Rc::new(|key, values, rctx| {
            let frames: Vec<DataFrame> = values
                .into_iter()
                .filter_map(|v| match v {
                    mapreduce::Payload::Frame(f) => Some(f),
                    _ => None,
                })
                .collect();
            let merged = DataFrame::concat(frames.iter())
                .map_err(|e| mapreduce::MrError::msg(e.to_string()))?;
            let mut env = HashMap::new();
            env.insert("df", &merged);
            let m = rctx.sqldf("SELECT MAX(m) AS m FROM df", &env)?;
            rctx.emit_frame(key, m);
            Ok(())
        })),
        n_reducers: 1,
        output_dir: "sql_out".into(),
        logical_image: (1200, 1200),
        raster: (16, 16),
        stream: Default::default(),
    };
    let env2 = cluster.env();
    let scale = cluster.sim.cost.scale;
    let (job, _) = rjob.into_job(&env2, scale).unwrap();
    let result = run_job(&mut cluster, job).unwrap();
    println!(
        "\ndistributed global-max job: {:.1} virtual s over {} map tasks",
        result.elapsed(),
        result.counters.get("map_tasks")
    );

    // Read the reduced answer back from HDFS and verify against the first
    // file's peak (global max >= per-file max).
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive("sql_out").unwrap();
    let part = parts.iter().find(|p| p.len > 0).unwrap();
    let blocks = h.namenode.blocks(&part.path).unwrap();
    let data = h
        .datanodes
        .get(blocks[0].locations()[0], blocks[0].id)
        .unwrap();
    let text = String::from_utf8_lossy(&data);
    let global_max: f64 = text
        .lines()
        .filter_map(|l| l.parse::<f64>().ok())
        .fold(f64::NEG_INFINITY, f64::max);
    println!("global max (distributed) = {global_max:.3}");
    println!("file-0 max  (direct sqldf) = {direct_peak:.3}");
    assert!(global_max >= direct_peak - 1e-9, "reduce must cover file 0");
    println!("check passed: distributed result covers the direct one");
}
