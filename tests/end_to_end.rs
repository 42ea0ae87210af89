//! End-to-end integration: the full SciDP pipeline across every crate —
//! generator → PFS → File Explorer → Data Mapper → MapReduce → PFS Reader
//! → R plotting/SQL → HDFS output — with correctness checked against
//! direct reads of the same containers.

use scidp_suite::prelude::*;
use scidp_suite::scifmt::SncFile;

fn world(timestamps: usize) -> (mapreduce::Cluster, baselines::StagedDataset) {
    let spec = WrfSpec::tiny(timestamps);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    (cluster, ds)
}

#[test]
fn images_cover_every_file_and_level() {
    let (mut cluster, ds) = world(3);
    let cfg = WorkflowConfig {
        n_reducers: 2,
        ..WorkflowConfig::img_only(["QR"])
    };
    let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    // tiny spec: 4 levels x 3 files.
    assert_eq!(rep.images, 12);
    // Every (file, level) key appears exactly once in the reduce output.
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive(&cfg.output_dir).unwrap();
    let mut keys = Vec::new();
    for p in &parts {
        let blocks = h.namenode.blocks(&p.path).unwrap();
        for b in blocks {
            let data = h.datanodes.get(b.locations()[0], b.id).unwrap();
            for line in data.split(|&c| c == b'\n') {
                if line.starts_with(b"img/") {
                    let key: Vec<u8> = line.iter().take_while(|&&c| c != b'\t').copied().collect();
                    keys.push(String::from_utf8(key).unwrap());
                }
            }
        }
    }
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 12, "unique image keys: {keys:?}");
    for t in 0..3 {
        for lev in 0..4 {
            let expect = format!("img/nuwrf/plot_{t:04}_00_00.snc/QR/{lev:04}");
            assert!(keys.contains(&expect), "missing {expect}");
        }
    }
}

#[test]
fn scidp_images_match_direct_plotting() {
    // The PNG a SciDP task emits for (file 0, level 1) must be byte-equal
    // to plotting the same level read directly from the container.
    let (mut cluster, ds) = world(1);
    let raster_dims = (16u32, 16u32);
    let cfg = WorkflowConfig {
        n_reducers: 1,
        raster: raster_dims,
        ..WorkflowConfig::img_only(["QR"])
    };
    // Direct path.
    let bytes = cluster
        .pfs
        .borrow()
        .file(&ds.info.files[0])
        .unwrap()
        .data
        .clone();
    let f = SncFile::open(bytes.as_ref().clone()).unwrap();
    let level = f.get_vara("QR", &[1, 0, 0], &[1, 8, 8]).unwrap();
    let grid: Vec<f64> = level.iter_f64().collect();
    let direct = rframe::image2d(&grid, 8, 8, raster_dims.0, raster_dims.1, cfg.colormap)
        .unwrap()
        .to_png();
    // Distributed path.
    run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive(&cfg.output_dir).unwrap();
    let mut found = None;
    let needle = b"img/nuwrf/plot_0000_00_00.snc/QR/0001\t";
    for p in &parts {
        for b in h.namenode.blocks(&p.path).unwrap() {
            let data = h.datanodes.get(b.locations()[0], b.id).unwrap();
            if let Some(pos) = data
                .windows(needle.len())
                .position(|w| w == needle.as_slice())
            {
                let start = pos + needle.len();
                found = Some(data[start..start + direct.len()].to_vec());
            }
        }
    }
    assert_eq!(
        found.expect("level-1 image present"),
        direct,
        "distributed PNG differs from direct plot"
    );
}

#[test]
fn analysis_results_match_direct_sql() {
    // Distributed top-1% over all files == direct top-1% over each file's
    // frame (same per-task thresholds by construction).
    let (mut cluster, ds) = world(2);
    let cfg = WorkflowConfig {
        n_reducers: 1,
        output_dir: "anlys".into(),
        ..WorkflowConfig::anlys(["QR"], Analysis::Highlight { k: 5 })
    };
    run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    // Direct: global top-5 across both files.
    let mut all = Vec::new();
    for path in &ds.info.files {
        let bytes = cluster.pfs.borrow().file(path).unwrap().data.clone();
        let f = SncFile::open(bytes.as_ref().clone()).unwrap();
        all.extend(f.get_var("QR").unwrap().iter_f64());
    }
    all.sort_by(f64::total_cmp);
    let direct_top: Vec<f64> = all.iter().rev().take(5).copied().collect();
    // Distributed output: the hl/QR frame (reduce recomputes global top).
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive("anlys").unwrap();
    let mut dist_values: Vec<f64> = Vec::new();
    for p in &parts {
        for b in h.namenode.blocks(&p.path).unwrap() {
            let data = h.datanodes.get(b.locations()[0], b.id).unwrap();
            let text = String::from_utf8_lossy(&data);
            for line in text.lines() {
                if let Some(rest) = line.strip_prefix("hl/QR\t") {
                    let _ = rest;
                    continue; // header line of the frame
                }
                // frame rows: lev,lat,lon,value
                let fields: Vec<&str> = line.split(',').collect();
                if fields.len() == 4 {
                    if let Ok(v) = fields[3].parse::<f64>() {
                        dist_values.push(v);
                    }
                }
            }
        }
    }
    dist_values.sort_by(f64::total_cmp);
    dist_values.reverse();
    assert!(
        dist_values.len() >= 5,
        "expected >= 5 highlighted rows, got {dist_values:?}"
    );
    for (i, v) in direct_top.iter().enumerate() {
        assert!(
            (dist_values[i] - v).abs() < 1e-5,
            "top-{i} mismatch: {} vs {v}",
            dist_values[i]
        );
    }
}

#[test]
fn virtual_mapping_invariants_hold_after_workflow() {
    let (mut cluster, ds) = world(2);
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["QR"])
    };
    run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    let h = cluster.hdfs.borrow();
    // Mirror tree exists: one dir per file, one virtual file per selected
    // variable, chunk-aligned dummy blocks with no locations.
    for path in &ds.info.files {
        let vfile = format!("scidp/{path}/QR");
        let blocks = h.namenode.blocks(&vfile).unwrap();
        assert_eq!(blocks.len(), 2, "4 levels / 2-level chunks");
        for b in blocks {
            assert!(b.is_dummy());
            assert!(b.locations().is_empty());
            assert!(b.virtual_block().unwrap().pfs_path() == path);
        }
        // Unselected variables are not mirrored (subsetting).
        assert!(!h.namenode.exists(&format!("scidp/{path}/QC")));
    }
    // Dummy blocks are rejected by the plain HDFS read path.
    let vfile = format!("scidp/{}/QR", ds.info.files[0]);
    let blocks = h.namenode.blocks(&vfile).unwrap().to_vec();
    drop(h);
    let refused = std::rc::Rc::new(std::cell::RefCell::new(None));
    let r = refused.clone();
    hdfs::read_block(
        &mut cluster.sim,
        &cluster.topo,
        &cluster.hdfs,
        simnet::NodeId(0),
        &blocks[0],
        move |_, res| *r.borrow_mut() = Some(res.map(|_| ())),
    );
    cluster.run();
    assert_eq!(refused.take(), Some(Err(hdfs::HdfsError::DummyBlock)));
}

#[test]
fn rerunning_the_same_input_is_idempotent() {
    let (mut cluster, ds) = world(2);
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["QR"])
    };
    let r1 = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    let cfg2 = WorkflowConfig {
        output_dir: "out2".into(),
        ..cfg
    };
    let r2 = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg2).unwrap();
    assert_eq!(r1.images, r2.images);
}

#[test]
fn simulator_work_grows_linearly_with_tasks() {
    // Counts, not wall clock: twice the timestamps (twice the map tasks and
    // shuffle flows) may cost at most ~twice the events. Fair shares are
    // recomputed once per simulated instant in which the flow set changed,
    // so there are fewer recomputations than flows started, however the
    // scheduler spreads the flows over instants: their number is the
    // schedule's (reducers launched before the close pull each output as it
    // commits, over a longer share of a longer map wave), not the
    // simulator's. One recomputation per flow start, each over every active
    // flow, is what made host time grow 4x per doubling.
    let run = |timestamps: usize| {
        let (mut cluster, ds) = world(timestamps);
        let cfg = WorkflowConfig {
            n_reducers: 4,
            ..WorkflowConfig::img_only(["QR", "QC", "QI"])
        };
        let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
        assert_eq!(rep.images, 3 * 4 * timestamps as u64);
        let net = &cluster.sim.net;
        let (recomputes, flows) = (net.recomputes(), net.flows_started());
        assert!(
            recomputes < flows,
            "{timestamps} timestamps: {recomputes} recomputations for {flows} flows"
        );
        (cluster.sim.events_processed() as f64, flows as f64)
    };
    let (events_t, flows_t) = run(12);
    let (events_2t, flows_2t) = run(24);
    assert!(flows_2t <= 2.2 * flows_t, "flows {flows_t} -> {flows_2t}");
    assert!(
        events_2t <= 2.2 * events_t,
        "events {events_t} -> {events_2t}"
    );
}
