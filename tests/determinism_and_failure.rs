//! Cross-crate determinism and failure-injection tests: the simulator must
//! be bit-reproducible end to end, and broken inputs must fail cleanly,
//! not corrupt results.

use scidp_suite::prelude::*;
use scidp_suite::scidp::ScidpError;

fn run_once(seed: u64) -> (f64, f64, u64) {
    let spec = WrfSpec {
        seed,
        ..WrfSpec::tiny(3)
    };
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    let cfg = WorkflowConfig {
        n_reducers: 2,
        ..WorkflowConfig::img_only(["QR"])
    };
    let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
    (
        rep.total_time(),
        rep.job.counters.get("input_bytes"),
        rep.images,
    )
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a, b, "identical worlds must produce identical timings");
    let c = run_once(8);
    assert_ne!(a.0, c.0, "different data should differ in timing detail");
}

#[test]
fn baselines_are_deterministic_too() {
    let run = || {
        let spec = WrfSpec::tiny(2);
        let mut cluster = paper_cluster(4, &spec);
        let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
        let conv = convert_dataset(&mut cluster, &ds, &["QR".to_string()]);
        let rep = run_vanilla(
            &mut cluster,
            &conv,
            &WorkflowConfig {
                n_reducers: 2,
                ..WorkflowConfig::img_only(["QR"])
            },
        );
        (rep.copy_time, rep.process_time)
    };
    assert_eq!(run(), run());
}

#[test]
fn missing_variable_fails_cleanly() {
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["NO_SUCH_VAR"])
    };
    let err = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap_err();
    assert!(matches!(err, ScidpError::NoMatchingVariables(_)), "{err}");
}

#[test]
fn empty_input_directory_fails_cleanly() {
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["QR"])
    };
    let err = run_scidp(&mut cluster, "lustre://does/not/exist", &cfg).unwrap_err();
    assert!(matches!(err, ScidpError::Pfs(_)), "{err}");
}

#[test]
fn corrupt_container_is_classified_flat_not_crashed() {
    // A file with a damaged header fails the Sci-format probe and falls
    // back to the flat mapping (the paper's classification rule), so the
    // NU-WRF R job then rejects it with a task error — never a panic.
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    // Corrupt the magic of the only file.
    {
        let mut p = cluster.pfs.borrow_mut();
        let mut bytes = p.file(&ds.info.files[0]).unwrap().data.as_ref().clone();
        bytes[0] = b'X';
        p.create(ds.info.files[0].clone(), bytes);
    }
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["QR"])
    };
    let err = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap_err();
    // Flat fallback feeds bytes into the slab-expecting R job → task error.
    let msg = err.to_string();
    assert!(
        msg.contains("flat") || msg.contains("slab") || msg.contains("scientific"),
        "unexpected error: {msg}"
    );
}

#[test]
fn truncated_container_header_is_detected() {
    // Damage inside the header (after the magic): the explorer must
    // surface a format error rather than map garbage.
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    {
        let mut p = cluster.pfs.borrow_mut();
        let bytes = p.file(&ds.info.files[0]).unwrap().data.as_ref().clone();
        // Keep magic + a truncated header-length field promise that the
        // remaining bytes cannot honour.
        let mut broken = bytes[..32.min(bytes.len())].to_vec();
        broken[4] = 0xff;
        broken[5] = 0xff;
        p.create(ds.info.files[0].clone(), broken);
    }
    let cfg = WorkflowConfig {
        n_reducers: 1,
        ..WorkflowConfig::img_only(["QR"])
    };
    let err = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap_err();
    assert!(matches!(err, ScidpError::Format(_)), "{err}");
}

#[test]
fn failing_user_map_function_fails_the_job_not_the_process() {
    use std::rc::Rc;
    let spec = WrfSpec::tiny(1);
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    let rjob = RJob {
        name: "boom".into(),
        input: ScidpInput::path(ds.pfs_uri()).vars(["QR"]),
        map: Rc::new(|_, _| Err(mapreduce::MrError::msg("user code exploded"))),
        reduce: None,
        n_reducers: 1,
        output_dir: "boom_out".into(),
        logical_image: (100, 100),
        raster: (8, 8),
        stream: Default::default(),
    };
    let env = cluster.env();
    let (job, _) = rjob.into_job(&env, 1.0).unwrap();
    let result = run_job(&mut cluster, job);
    assert_eq!(
        result.unwrap_err(),
        mapreduce::MrError::msg("user code exploded")
    );
}

// ---------------------------------------------------------------------------
// Fault injection: retried I/O errors, node death, and determinism under
// faults. These drive a seeded byte-count job over a flat PFS file so the
// correct output is known exactly and comparable bit-for-bit across runs.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// End-to-end data integrity: checksummed reads with seeded corruption
// (detect → re-read repair → quarantine) and namenode crash consistency
// (edit-log replay). The corruption scenarios run the full NU-WRF workflow
// so repairs are proven byte-identical at the committed output.
// ---------------------------------------------------------------------------

mod integrity {
    use scidp_suite::baselines::StagedDataset;
    use scidp_suite::mapreduce::{counter_keys as keys, Cluster};
    use scidp_suite::prelude::*;
    use scidp_suite::scidp::ScidpError;

    fn world(seed: u64) -> (Cluster, StagedDataset) {
        let spec = WrfSpec {
            seed,
            ..WrfSpec::tiny(2)
        };
        let mut cluster = paper_cluster(4, &spec);
        let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
        (cluster, ds)
    }

    fn cfg() -> WorkflowConfig {
        WorkflowConfig {
            n_reducers: 2,
            raster: (8, 8),
            ..WorkflowConfig::img_only(["QR"])
        }
    }

    /// Concurrent HDFS block fetches and the `checksum_verified_bytes` counter:
    /// per-read events, not deltas of the cluster-wide tally.
    #[test]
    fn verified_bytes_under_concurrent_hdfs_fetches() {
        use scidp_suite::mapreduce::{self, MrError, TaskInput};
        use scidp_suite::pfs::PfsConfig;
        use scidp_suite::simnet::NodeId;
        use std::rc::Rc;
        // One node with several slots so multiple map tasks (and their block
        // fetches) are in flight at the same virtual time.
        let spec = ClusterSpec {
            compute_nodes: 1,
            storage_nodes: 1,
            osts: 2,
            slots_per_node: 8,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 2,
            ..PfsConfig::default()
        };
        let mut c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
        let file_len: usize = (1 << 16) * 4; // 4 full blocks
        scidp_suite::hdfs::write_file(
            &mut c.sim,
            &c.topo,
            &c.hdfs,
            NodeId(0),
            "in",
            vec![7u8; file_len],
            |_, r| r.unwrap(),
        );
        c.run();
        let env = c.env();
        let splits = mapreduce::hdfs_file_splits(&env, "in").expect("staged input path");
        assert_eq!(splits.len(), 4);
        let job = Job::new(
            "t",
            splits,
            Rc::new(|input, _ctx| {
                let TaskInput::Bytes(_) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                Ok(())
            }),
            None,
            1,
            "out",
        );
        let r = run_job(&mut c, job).unwrap();
        let verified = r.counters.get(keys::CHECKSUM_VERIFIED_BYTES);
        assert_eq!(
            verified, file_len as f64,
            "verified bytes must equal the file length exactly"
        );
    }

    #[test]
    fn transient_corruption_repaired_with_identical_output_and_exact_counts() {
        let (mut clean, ds) = world(7);
        let rep = run_scidp(&mut clean, &ds.pfs_uri(), &cfg()).unwrap();
        let clean_out = clean.read_output("scidp_out").unwrap();
        assert!(!clean_out.is_empty());
        assert_eq!(rep.job.counters.get(keys::CORRUPTION_DETECTED), 0.0);
        let verified_clean = rep.job.counters.get(keys::CHECKSUM_VERIFIED_BYTES);
        assert!(verified_clean > 0.0, "clean chunk reads are verified too");

        let (mut faulty, ds2) = world(7);
        faulty.sim.faults.install(
            FaultPlan::none()
                .corrupt_read(ds2.info.files[0].clone(), 1)
                .corrupt_read(ds2.info.files[1].clone(), 2),
        );
        let rep2 = run_scidp(&mut faulty, &ds2.pfs_uri(), &cfg()).unwrap();
        assert_eq!(
            faulty.read_output("scidp_out").unwrap(),
            clean_out,
            "repaired run must commit byte-identical output"
        );
        let c = &rep2.job.counters;
        assert_eq!(c.get(keys::CORRUPTION_DETECTED), 2.0);
        assert_eq!(c.get(keys::CORRUPTION_REPAIRED), 2.0);
        assert_eq!(c.get(keys::CHUNKS_QUARANTINED), 0.0);
        // Each chunk passes verification exactly once (the corrupt delivery
        // is not counted, its clean re-read is), so verified bytes match
        // the clean run exactly.
        assert_eq!(c.get(keys::CHECKSUM_VERIFIED_BYTES), verified_clean);
        assert_eq!(
            c.get(keys::MAPPING_REVALIDATIONS),
            ds2.info.files.len() as f64,
            "every source file revalidated at job launch"
        );
    }

    #[test]
    fn persistent_corruption_fails_typed_never_wrong_data() {
        // Media corruption survives the re-read: the workflow must fail
        // with an IntegrityError — committing wrong bytes is the one
        // unacceptable outcome.
        let (mut c, ds) = world(7);
        c.sim
            .faults
            .install(FaultPlan::none().corrupt_read_persistent(ds.info.files[0].clone(), 1));
        let err = run_scidp(&mut c, &ds.pfs_uri(), &cfg()).unwrap_err();
        assert!(matches!(err, ScidpError::Integrity(_)), "{err}");
        assert!(err.to_string().contains("IntegrityError"), "{err}");
    }

    #[test]
    fn namenode_restart_replays_journal_to_identical_namespace() {
        let (mut c, ds) = world(3);
        let rep = run_scidp(&mut c, &ds.pfs_uri(), &cfg()).unwrap();
        assert!(rep.job.counters.get(keys::HDFS_WRITE_BYTES) > 0.0);
        let out_before = c.read_output("scidp_out").unwrap();
        let (dump_before, checkpoints) = {
            let h = c.hdfs.borrow();
            (
                h.namenode.namespace_dump(),
                h.namenode.journal().has_checkpoint(),
            )
        };
        assert!(
            dump_before.contains("scidp_out"),
            "namespace is non-trivial"
        );
        // Simulated namenode kill: discard the in-memory namespace and
        // rebuild it from the edit log (+ checkpoint image, if one was cut).
        c.hdfs.borrow_mut().restart_namenode();
        assert_eq!(
            c.hdfs.borrow().namenode.namespace_dump(),
            dump_before,
            "recovered namespace must be identical (checkpointed: {checkpoints})"
        );
        // Block data still resolves through the recovered namespace.
        assert_eq!(c.read_output("scidp_out").unwrap(), out_before);
    }

    #[test]
    fn corrupted_runs_reproduce_bit_identically_for_any_plan_seed() {
        // CI re-runs this under several SCIDP_FAULT_SEED values: the seed
        // may change *which byte* flips, never whether the run reproduces.
        let seed = FaultPlan::env_seed(1);
        let run = || {
            let (mut c, ds) = world(5);
            c.sim.faults.install(
                FaultPlan::none()
                    .with_seed(seed)
                    .corrupt_read(ds.info.files[0].clone(), 1),
            );
            let rep = run_scidp(&mut c, &ds.pfs_uri(), &cfg()).unwrap();
            // codec_decode_s is real (wall-clock) codec time — the one
            // counter that legitimately varies between identical runs.
            let counters: Vec<(&'static str, f64)> = rep
                .job
                .counters
                .iter()
                .filter(|(k, _)| *k != keys::CODEC_DECODE_S)
                .collect();
            (
                rep.total_time(),
                counters,
                c.read_output("scidp_out").unwrap(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "seed {seed}: timings must be bit-identical");
        assert_eq!(a.1, b.1, "seed {seed}: counters must be bit-identical");
        assert_eq!(a.2, b.2, "seed {seed}: output must be bit-identical");
        assert_eq!(
            a.1.iter()
                .find(|(k, _)| *k == keys::CORRUPTION_REPAIRED)
                .map(|&(_, v)| v),
            Some(1.0),
            "seed {seed}: the planted corruption fired and was repaired"
        );
    }
}

mod faults {
    use scidp_suite::mapreduce::{
        counter_keys as keys, run_job, Cluster, FlatPfsFetcher, FtConfig, InputSplit, Job, MrError,
        Payload, TaskInput, TaskKind,
    };
    use scidp_suite::pfs::PfsConfig;
    use scidp_suite::simnet::{ClusterSpec, CostModel, FaultPlan};
    use std::collections::BTreeMap;
    use std::rc::Rc;

    const INPUT: &str = "data/faultwc.bin";
    const N_SPLITS: u64 = 8;

    fn fault_cluster() -> Cluster {
        let spec = ClusterSpec {
            compute_nodes: 4,
            storage_nodes: 1,
            osts: 2,
            slots_per_node: 2,
            ..ClusterSpec::default()
        };
        let pfs_cfg = PfsConfig {
            n_osts: 2,
            ..PfsConfig::default()
        };
        let c = Cluster::new(spec, pfs_cfg, 1 << 16, 1, CostModel::default());
        // Deterministic pattern bytes so the byte-count output is known.
        let bytes: Vec<u8> = (0..8 * 1024u64).map(|i| (i % 7) as u8).collect();
        c.pfs.borrow_mut().create(INPUT.to_string(), bytes);
        c
    }

    fn byte_count_job(ft: FtConfig) -> Job {
        let per = 8 * 1024 / N_SPLITS;
        let splits: Vec<InputSplit> = (0..N_SPLITS)
            .map(|i| InputSplit {
                length: per,
                locations: Vec::new(),
                fetcher: Rc::new(FlatPfsFetcher {
                    pfs_path: INPUT.to_string(),
                    offset: i * per,
                    len: per,
                    sequential_chunks: 1,
                }),
            })
            .collect();
        Job {
            ft,
            ..Job::new(
                "faultwc",
                splits,
                Rc::new(|input, ctx| {
                    let TaskInput::Bytes(b) = input else {
                        return Err(MrError::msg("expected bytes"));
                    };
                    let mut counts: BTreeMap<u8, usize> = BTreeMap::new();
                    for &x in &b {
                        *counts.entry(x).or_default() += 1;
                    }
                    ctx.charge("scan", ctx.cost().scan_per_byte * b.len() as f64);
                    for (k, v) in counts {
                        ctx.emit(format!("b{k}"), Payload::Bytes(v.to_string().into_bytes()));
                    }
                    Ok(())
                }),
                Some(Rc::new(|key, values, ctx| {
                    let total: usize = values
                        .iter()
                        .map(|v| match v {
                            Payload::Bytes(b) => {
                                String::from_utf8_lossy(b).parse::<usize>().unwrap()
                            }
                            _ => 0,
                        })
                        .sum();
                    ctx.emit(key, Payload::Bytes(total.to_string().into_bytes()));
                    Ok(())
                })),
                2,
                "out",
            )
        }
    }

    /// Run the job under `plan`; returns (elapsed, counters, output files).
    fn run_with_plan(
        plan: FaultPlan,
    ) -> (
        f64,
        scidp_suite::mapreduce::Counters,
        Vec<(String, Vec<u8>)>,
    ) {
        let mut c = fault_cluster();
        c.sim.faults.install(plan);
        let r = run_job(&mut c, byte_count_job(FtConfig::default())).unwrap();
        let out = c.read_output("out").unwrap();
        (r.elapsed(), r.counters, out)
    }

    /// The data-plane counters that must be exact regardless of faults.
    /// (Meta counters — attempts, retries — legitimately differ.)
    fn data_counters(cnt: &scidp_suite::mapreduce::Counters) -> Vec<(&'static str, f64)> {
        [
            keys::MAP_TASKS,
            keys::REDUCE_TASKS,
            keys::INPUT_BYTES,
            keys::RECORDS_EMITTED,
            keys::SHUFFLE_BYTES,
        ]
        .iter()
        .map(|&k| (k, cnt.get(k)))
        .collect()
    }

    #[test]
    fn injected_read_failures_are_retried_and_output_is_exact() {
        let (_, clean_cnt, clean_out) = run_with_plan(FaultPlan::none());
        assert!(!clean_out.is_empty(), "reduce output committed");

        let plan = FaultPlan::none().fail_read(INPUT, 2).fail_read(INPUT, 5);
        let (_, cnt, out) = run_with_plan(plan);
        assert_eq!(out, clean_out, "faulted run must produce identical bytes");
        assert_eq!(data_counters(&cnt), data_counters(&clean_cnt));
        assert_eq!(cnt.get(keys::TASK_RETRIES), 2.0, "one retry per fault");
        assert_eq!(
            cnt.get(keys::MAP_ATTEMPTS),
            cnt.get(keys::MAP_TASKS) + 2.0,
            "exactly two extra map attempts"
        );
    }

    #[test]
    fn node_kill_and_read_failures_survive_with_identical_output() {
        // The acceptance scenario: one node killed mid-run plus two injected
        // read failures; the job completes on the survivors with output
        // byte-identical to the fault-free run.
        let (_, clean_cnt, clean_out) = run_with_plan(FaultPlan::none());
        let plan = FaultPlan::none()
            .kill_node(1, 1.05)
            .fail_read(INPUT, 2)
            .fail_read(INPUT, 5);
        let mut c = fault_cluster();
        c.sim.faults.install(plan);
        let r = run_job(&mut c, byte_count_job(FtConfig::default())).unwrap();
        assert!(
            c.sim.faults.injected_read_failures() >= 2,
            "both planned read faults fired"
        );
        assert_eq!(c.read_output("out").unwrap(), clean_out);
        assert_eq!(data_counters(&r.counters), data_counters(&clean_cnt));
        assert!(
            r.counters.get(keys::TASK_RETRIES) >= 1.0,
            "killed node's attempts were retried"
        );
        assert!(r.fault_summary().is_some(), "faults show up in the summary");
    }

    #[test]
    fn same_seed_and_plan_reproduce_identical_timings() {
        let plan = || {
            FaultPlan::none()
                .kill_node(2, 1.05)
                .fail_read(INPUT, 3)
                .with_random_read_failures(42, 0.05)
        };
        let (t1, c1, o1) = run_with_plan(plan());
        let (t2, c2, o2) = run_with_plan(plan());
        assert_eq!(t1, t2, "same plan + seed must be bit-identical in time");
        assert_eq!(c1.get(keys::MAP_ATTEMPTS), c2.get(keys::MAP_ATTEMPTS));
        assert_eq!(c1.get(keys::TASK_RETRIES), c2.get(keys::TASK_RETRIES));
        assert_eq!(o1, o2);
    }

    #[test]
    fn with_seed_changes_corruption_pattern_not_failure_stream() {
        use scidp_suite::simnet::FaultInjector;
        let mut a = FaultInjector::default();
        a.install(FaultPlan::none().with_seed(1).corrupt_read("f", 1));
        let mut b = FaultInjector::default();
        b.install(FaultPlan::none().with_seed(2).corrupt_read("f", 1));
        assert_ne!(
            a.corruption_pattern("f", 1),
            b.corruption_pattern("f", 1),
            "different seeds flip different bytes"
        );
    }

    #[test]
    fn exhausted_attempts_fail_the_job_cleanly() {
        // Every read fails: attempts exhaust and the job returns the last
        // task error as a clean MrError — no panic, no partial success.
        let mut c = fault_cluster();
        c.sim
            .faults
            .install(FaultPlan::none().with_random_read_failures(7, 1.0));
        let err = run_job(&mut c, byte_count_job(FtConfig::default())).unwrap_err();
        assert!(
            err.message().contains("injected I/O error"),
            "task error passes through unchanged: {err:?}"
        );
        let h = c.hdfs.borrow();
        assert!(
            h.namenode
                .list_files_recursive("out")
                .map(|f| f.is_empty())
                .unwrap_or(true),
            "no partial output committed"
        );
    }

    /// A reducer's input is ordered by map index, then emit order — not by
    /// when each map's output happened to arrive — so a reducer that
    /// concatenates its values writes the same bytes whatever the timing.
    #[test]
    fn an_order_sensitive_reducer_writes_the_same_bytes_however_its_input_arrives() {
        const ORDERED: &str = "data/order.bin";
        // Split i is 256 bytes of value i; its map computes for 1.2 x SECS[i]
        // (two slots a node), so maps commit in the order 0 4 3 7 1 2 5 6,
        // on nodes 3 3 0 0 2 1 2 1.
        const SECS: [f64; 8] = [1.0, 4.0, 4.5, 2.0, 1.2, 5.0, 6.0, 2.2];
        let run = |plan: FaultPlan| {
            let mut c = fault_cluster();
            let bytes = (0..8u8).flat_map(|i| [i; 256]);
            c.pfs
                .borrow_mut()
                .create(ORDERED.to_string(), bytes.collect());
            c.sim.faults.install(plan);
            let mut job = byte_count_job(FtConfig {
                speculative: false,
                ..FtConfig::default()
            });
            for (i, split) in job.splits.iter_mut().enumerate() {
                split.length = 256;
                split.fetcher = Rc::new(FlatPfsFetcher {
                    pfs_path: ORDERED.to_string(),
                    offset: i as u64 * 256,
                    len: 256,
                    sequential_chunks: 1,
                });
            }
            job.map_fn = Rc::new(|input, ctx| {
                let TaskInput::Bytes(b) = input else {
                    return Err(MrError::msg("expected bytes"));
                };
                let i = b[0];
                ctx.charge("scan", SECS[i as usize]);
                ctx.emit("all", Payload::Bytes(vec![b'a' + i]));
                ctx.emit(format!("pair{}", i % 2), Payload::Bytes(vec![b'a' + i]));
                ctx.emit("all", Payload::Bytes(vec![b'A' + i]));
                Ok(())
            });
            job.reduce_fn = Some(Rc::new(|key, values, ctx| {
                let letters = values.into_iter().flat_map(|v| match v {
                    Payload::Bytes(b) => b,
                    Payload::Frame(_) => Vec::new(),
                });
                ctx.emit(key, Payload::Bytes(letters.collect()));
                Ok(())
            }));
            job.n_reducers = 1;
            let r = run_job(&mut c, job).unwrap();
            (r, c.read_output("out").unwrap())
        };
        let (clean, clean_out) = run(FaultPlan::none());
        let text = String::from_utf8(clean_out[0].1.clone()).unwrap();
        assert_eq!(text, "all\taAbBcCdDeEfFgGhH\npair0\taceg\npair1\tbdfh\n");
        // ... although no map after the first two committed in index order.
        let mut by_commit: Vec<_> = clean
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map)
            .collect();
        by_commit.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
        let order: Vec<usize> = by_commit.iter().map(|t| t.index).collect();
        assert_eq!(order, [0, 4, 3, 7, 1, 2, 5, 6]);
        // The reducer sits on node 0: the outputs on nodes 1 and 2 cross
        // links slowed 16x and 4x.
        let slow = FaultPlan::none().slow_link(1, 0, 16.0).slow_link(2, 0, 4.0);
        // Node 3 (maps 0 and 4, committed by 2.6 s) is cut off while the
        // reducer starts up (3.5 to 4.5 s) and healed before map 1 commits
        // (5.9 s): its outputs are pulled after those of maps 3 and 7.
        let cut = FaultPlan::none().partition(&[3], 2.7, 4.8);
        for (name, plan) in [("slow links", slow), ("healed partition", cut)] {
            let (r, out) = run(plan);
            assert_eq!(out, clean_out, "{name}");
            assert_eq!(r.counters.get(keys::TASKS_HANG_DETECTED), 0.0, "{name}");
        }
    }
}
