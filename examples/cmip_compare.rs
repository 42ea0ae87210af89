//! CMIP-style model intercomparison (the paper's §II-A motivation): two
//! simulation runs produce netCDF outputs on the PFS; both are reduced to
//! per-level means with SciDP, the differences are computed, and the
//! difference field of one level is visualized as a real PNG.
//!
//! Run: `cargo run --release --example cmip_compare`

use std::collections::HashMap;
use std::rc::Rc;

use scidp_suite::mapreduce;
use scidp_suite::prelude::*;
use scidp_suite::scifmt::SncFile;

/// Run a per-level-mean SciDP job over one model's output directory.
fn level_means(cluster: &mut mapreduce::Cluster, uri: &str) -> Vec<(i64, f64)> {
    let rjob = RJob {
        name: format!("means-{uri}"),
        input: ScidpInput::path(uri).vars(["T"]),
        map: Rc::new(|slab, rctx| {
            let mut env = HashMap::new();
            env.insert("df", slab.frame()?);
            let m = rctx.sqldf(
                "SELECT lev, AVG(value) AS mean, COUNT(*) AS n FROM df GROUP BY lev",
                &env,
            )?;
            rctx.emit_frame("means", m);
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
            // Weighted recombination: all partials carry equal n here.
            let m = rctx.sqldf(
                "SELECT lev, AVG(mean) AS mean FROM df GROUP BY lev ORDER BY lev",
                &env,
            )?;
            rctx.emit_frame(key, m);
            Ok(())
        })),
        n_reducers: 1,
        output_dir: format!("cmip_out/{}", uri.replace([':', '/'], "_")),
        logical_image: (1200, 1200),
        raster: (16, 16),
        stream: Default::default(),
    };
    let env = cluster.env();
    let scale = cluster.sim.cost.scale;
    let (job, _) = rjob.into_job(&env, scale).unwrap();
    let out_dir = job.output_dir.clone();
    let result = run_job(cluster, job).unwrap();
    println!(
        "  {} -> {:.1} virtual s, {} maps",
        uri,
        result.elapsed(),
        result.counters.get("map_tasks")
    );
    // Parse the reduced CSV back out of HDFS.
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive(&out_dir).unwrap();
    let part = parts.iter().find(|p| p.len > 0).unwrap();
    let blocks = h.namenode.blocks(&part.path).unwrap();
    let data = h
        .datanodes
        .get(blocks[0].locations()[0], blocks[0].id)
        .unwrap();
    let text = String::from_utf8_lossy(&data);
    let mut out = Vec::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() == 2 {
            if let (Ok(lev), Ok(mean)) = (fields[0].parse::<i64>(), fields[1].parse::<f64>()) {
                out.push((lev, mean));
            }
        }
    }
    out.sort_by_key(|a| a.0);
    out
}

fn main() {
    // Two "models": same shape, different seeds (different physics).
    let base = WrfSpec {
        n_vars: 8,
        ..WrfSpec::scaled(24, 24, 4)
    };
    let model_a = WrfSpec {
        seed: 1001,
        ..base.clone()
    };
    let model_b = WrfSpec { seed: 2002, ..base };

    let mut cluster = paper_cluster(8, &model_a);
    let _ = stage_nuwrf(&mut cluster, &model_a, "cmip/model_a");
    let ds_b = stage_nuwrf(&mut cluster, &model_b, "cmip/model_b");
    println!("CMIP-style intercomparison: T variable of two 4-timestamp runs");

    let means_a = level_means(&mut cluster, "lustre://cmip/model_a");
    let means_b = level_means(&mut cluster, "lustre://cmip/model_b");
    println!("\nper-level mean temperature difference (A - B):");
    let mut worst = (0i64, 0.0f64);
    for ((lev, a), (_, b)) in means_a.iter().zip(&means_b).take(8) {
        let d = a - b;
        println!("  lev {lev:>2}: {a:>9.4} vs {b:>9.4}  Δ = {d:+.4}");
        if d.abs() > worst.1.abs() {
            worst = (*lev, d);
        }
    }
    println!(
        "largest divergence at level {} (Δ = {:+.4})",
        worst.0, worst.1
    );

    // Visualize the raw difference field of that level, straight from the
    // containers (a real PNG, like the paper's animation frames).
    let grab = |path: &str| {
        let bytes = cluster.pfs.borrow().file(path).unwrap().data.clone();
        let f = SncFile::open(bytes.as_ref().clone()).unwrap();
        f.get_vara("T", &[worst.0 as usize, 0, 0], &[1, 24, 24])
            .unwrap()
    };
    let a = grab("cmip/model_a/plot_0000_00_00.snc");
    let b = grab(&ds_b.info.files[0]);
    let diff: Vec<f64> = a.iter_f64().zip(b.iter_f64()).map(|(x, y)| x - y).collect();
    let raster = rframe::image2d(&diff, 24, 24, 240, 240, ColorMap::Viridis).unwrap();
    std::fs::create_dir_all("target/example_out").unwrap();
    let out = "target/example_out/cmip_diff.png";
    std::fs::write(out, raster.to_png()).unwrap();
    println!("difference field written to {out}");
}
