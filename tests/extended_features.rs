//! Extended-feature integration tests: hierarchical (HDF5-style) groups
//! through the whole pipeline, chunk splitting for extra parallelism,
//! multi-variable selection, and replication.

use std::rc::Rc;

use scidp_suite::prelude::*;
use scidp_suite::scifmt::{self, SncBuilder};

/// Stage a container with a grouped variable (`physics/T`) next to a root
/// variable, like an HDF5 file with nested groups.
fn stage_grouped(cluster: &mut mapreduce::Cluster) -> String {
    let mk = |phase: f32| -> scifmt::Array {
        let data: Vec<f32> = (0..4 * 6 * 6)
            .map(|i| 270.0 + phase + ((i % 36) as f32 * 0.3).sin())
            .collect();
        scifmt::Array::from_f32(vec![4, 6, 6], data).unwrap()
    };
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", 4), ("lat", 6), ("lon", 6)],
        &[2, 6, 6],
        Codec::ShuffleLz { elem: 4 },
        mk(0.0),
    )
    .unwrap();
    b.add_var(
        "physics",
        "T",
        &[("lev", 4), ("lat", 6), ("lon", 6)],
        &[2, 6, 6],
        Codec::ShuffleLz { elem: 4 },
        mk(5.0),
    )
    .unwrap();
    b.add_var(
        "physics/micro",
        "QC",
        &[("lev", 4), ("lat", 6), ("lon", 6)],
        &[4, 6, 6],
        Codec::ShuffleLz { elem: 4 },
        mk(-3.0),
    )
    .unwrap();
    let path = "grouped/run/out.snc".to_string();
    cluster.pfs.borrow_mut().create(path.clone(), b.finish());
    path
}

fn grouped_world() -> (mapreduce::Cluster, String) {
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let path = stage_grouped(&mut cluster);
    (cluster, path)
}

#[test]
fn grouped_variables_map_to_nested_virtual_directories() {
    let (mut cluster, path) = grouped_world();
    let cfg = WorkflowConfig {
        n_reducers: 1,
        variables: vec!["QR".into(), "physics/T".into(), "physics/micro/QC".into()],
        ..WorkflowConfig::img_only(["QR"])
    };
    let rep = run_scidp(&mut cluster, "lustre://grouped/run", &cfg).unwrap();
    // 3 variables x 4 levels plotted.
    assert_eq!(rep.images, 12);
    let h = cluster.hdfs.borrow();
    // The mirror mirrors the container's group tree.
    assert!(h.namenode.is_file(&format!("scidp/{path}/QR")));
    assert!(h.namenode.is_dir(&format!("scidp/{path}/physics")));
    assert!(h.namenode.is_file(&format!("scidp/{path}/physics/T")));
    assert!(h
        .namenode
        .is_file(&format!("scidp/{path}/physics/micro/QC")));
}

#[test]
fn grouped_slab_content_matches_direct_read() {
    let (mut cluster, path) = grouped_world();
    use std::cell::RefCell;
    let seen: Rc<RefCell<Vec<(String, f64)>>> = Rc::new(RefCell::new(Vec::new()));
    let seen2 = seen.clone();
    let rjob = RJob {
        name: "group-sums".into(),
        input: ScidpInput::path("lustre://grouped/run").vars(["physics/T"]),
        map: Rc::new(move |slab, _| {
            seen2
                .borrow_mut()
                .push((slab.var.clone(), slab.array.iter_f64().sum()));
            Ok(())
        }),
        reduce: None,
        n_reducers: 1,
        output_dir: "gsum_out".into(),
        logical_image: (10, 10),
        raster: (8, 8),
        stream: Default::default(),
    };
    let env = cluster.env();
    let (job, setup) = rjob.into_job(&env, 1.0).unwrap();
    assert_eq!(setup.virtual_files, 1, "only physics/T selected");
    run_job(&mut cluster, job).unwrap();
    let bytes = cluster.pfs.borrow().file(&path).unwrap().data.clone();
    let f = SncFile::open(bytes.as_ref().clone()).unwrap();
    let want: f64 = f.get_var("physics/T").unwrap().iter_f64().sum();
    let got: f64 = seen.borrow().iter().map(|(_, s)| s).sum();
    assert!((got - want).abs() < 1e-6 * want.abs());
    assert!(seen.borrow().iter().all(|(v, _)| v == "T"));
}

#[test]
fn chunk_split_doubles_map_tasks_same_results() {
    let spec = WrfSpec::tiny(2);
    let run = |split: usize| {
        let mut cluster = paper_cluster(4, &spec);
        let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
        let cfg = WorkflowConfig {
            n_reducers: 1,
            chunk_split: split,
            ..WorkflowConfig::img_only(["QR"])
        };
        let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
        (rep.job.counters.get("map_tasks"), rep.images)
    };
    let (tasks1, images1) = run(1);
    let (tasks2, images2) = run(2);
    assert_eq!(tasks2, tasks1 * 2.0, "chunk_split=2 doubles task count");
    assert_eq!(images1, images2, "same levels plotted either way");
}

#[test]
fn multi_variable_selection_plots_all_of_them() {
    let spec = WrfSpec::tiny(2);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    let cfg = WorkflowConfig {
        n_reducers: 2,
        ..WorkflowConfig::img_only(["QR", "QC"])
    };
    let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    // 2 files x 2 vars x 4 levels.
    assert_eq!(rep.images, 16);
}

#[test]
fn replicated_hdfs_still_runs_the_workflow() {
    // The paper sets replication=1; make sure nothing assumes it.
    let spec = WrfSpec::tiny(2);
    let cluster_spec = ClusterSpec {
        compute_nodes: 4,
        ..ClusterSpec::default()
    };
    let pfs_cfg = scidp_suite::pfs::PfsConfig {
        n_osts: cluster_spec.osts,
        stripe_size: 4096,
        default_stripe_count: cluster_spec.osts,
    };
    let cost = CostModel {
        scale: spec.scale_factor(),
        ..CostModel::default()
    };
    let mut cluster = mapreduce::Cluster::new(cluster_spec, pfs_cfg, 1 << 16, 3, cost);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    let cfg = WorkflowConfig {
        n_reducers: 2,
        ..WorkflowConfig::img_only(["QR"])
    };
    let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    assert_eq!(rep.images, 8);
    // Output blocks really have 3 replicas.
    let h = cluster.hdfs.borrow();
    let parts = h.namenode.list_files_recursive(&cfg.output_dir).unwrap();
    let with_blocks = parts.iter().find(|p| p.n_blocks > 0).unwrap();
    let b = &h.namenode.blocks(&with_blocks.path).unwrap()[0];
    assert_eq!(b.locations().len(), 3);
}

#[test]
fn hdfs_input_fallback_behaves_like_vanilla_hadoop() {
    // A non-PFS path must take the stock FileInputFormat route.
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(2, &spec);
    hdfs::write_file(
        &mut cluster.sim,
        &cluster.topo,
        &cluster.hdfs,
        simnet::NodeId(0),
        "plain/input.bin",
        vec![42u8; 1000],
        |_, r| r.unwrap(),
    );
    cluster.run();
    let env = cluster.env();
    let (splits, setup) = scidp::make_splits(&env, &ScidpInput::path("plain")).unwrap();
    assert!(!splits.is_empty());
    assert_eq!(setup.mapped_bytes, 0, "no virtual mapping for HDFS inputs");
    assert!(
        splits.iter().all(|s| !s.locations.is_empty()),
        "HDFS locality"
    );
}
