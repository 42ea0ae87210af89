//! Predicate & hyperslab pushdown, end to end: zone-map pruning and the
//! columnar delivery path must never change the committed output — clean,
//! with a shared chunk cache, or under (transient, repairable) faults —
//! while actually skipping reads when the zone maps allow it.

use std::rc::Rc;
use std::sync::Arc;

use scidp_suite::baselines::StagedDataset;
use scidp_suite::mapreduce::{
    counter_keys as keys, Cluster, InputSplit, JobResult, MrError, Payload, StreamConfig, TaskInput,
};
use scidp_suite::prelude::*;
use scidp_suite::scidp::{run_sql_scan, SciSlabFetcher, ScidpError, SqlScanConfig};
use scidp_suite::scifmt::snc::ChunkCache;

fn world(seed: u64) -> (Cluster, StagedDataset) {
    let spec = WrfSpec {
        seed,
        ..WrfSpec::tiny(2)
    };
    let mut cluster = paper_cluster(4, &spec);
    let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
    (cluster, ds)
}

fn scan(c: &mut Cluster, uri: &str, sql: &str, pushdown: bool, chunk_split: usize) -> JobResult {
    let cfg = SqlScanConfig {
        pushdown,
        chunk_split,
        ..SqlScanConfig::new(["QR"], sql)
    };
    run_sql_scan(c, uri, &cfg).unwrap()
}

/// The core equivalence property, swept over dataset seeds: with and
/// without pushdown the committed bytes are identical, under every cache
/// configuration and under transient corruption.
#[test]
fn pushdown_matches_full_scan_clean_cached_and_faulted() {
    // tiny(2) has levels 0..4 chunked 2-at-a-time, so `lev >= 2` prunes
    // exactly half the chunks from dimension geometry alone; the value
    // queries exercise the data-dependent zone maps.
    let queries = [
        "SELECT * FROM df WHERE lev >= 2",
        "SELECT lev, lat, value FROM df WHERE value >= 0.0001 AND lon < 3",
        "SELECT * FROM df WHERE value < 0.0 OR lev = 3",
    ];
    for seed in 1u64..=3 {
        for sql in queries {
            // Clean full scan is the reference output.
            let (mut full, ds) = world(seed);
            let r_full = scan(&mut full, &ds.pfs_uri(), sql, false, 1);
            let reference = full.read_output("sql_out").unwrap();
            assert!(!reference.is_empty(), "seed {seed}: {sql}: no output");
            assert_eq!(
                r_full.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
                0.0,
                "full scan must not prune"
            );

            // Clean pushdown.
            let (mut push, ds2) = world(seed);
            let r_push = scan(&mut push, &ds2.pfs_uri(), sql, true, 1);
            assert_eq!(
                push.read_output("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: pushdown changed the committed bytes"
            );
            assert!(
                r_push.counters.get(keys::ZONE_MAP_BYTES) > 0.0,
                "pushdown runs account their zone-map metadata"
            );
            if r_push.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP) > 0.0 {
                assert!(
                    r_push.counters.get(keys::PUSHDOWN_BYTES_AVOIDED) > 0.0,
                    "skipped chunks must report avoided bytes"
                );
            }

            // Shared-cache configuration: finer splits make fetchers share
            // chunks through the cache. Pushdown and full scan see the
            // same splits, so their outputs must still match each other.
            let (mut full_c, ds3) = world(seed);
            scan(&mut full_c, &ds3.pfs_uri(), sql, false, 2);
            let reference_split = full_c.read_output("sql_out").unwrap();
            let (mut push_c, ds4) = world(seed);
            let r_pc = scan(&mut push_c, &ds4.pfs_uri(), sql, true, 2);
            assert_eq!(
                push_c.read_output("sql_out").unwrap(),
                reference_split,
                "seed {seed}: {sql}: cached pushdown diverged"
            );
            assert!(r_pc.counters.get(keys::VECTORISED_ROWS) >= 0.0);

            // Transient corruption: the verify/repair machine re-reads the
            // corrupt chunk, so both paths still commit the clean bytes.
            // (Persistent media faults quarantine the chunk and fail both
            // paths typed — covered by the integrity suite.)
            let (mut faulty_full, ds5) = world(seed);
            faulty_full
                .sim
                .faults
                .install(FaultPlan::none().corrupt_read(ds5.info.files[0].clone(), 1));
            scan(&mut faulty_full, &ds5.pfs_uri(), sql, false, 1);
            assert_eq!(
                faulty_full.read_output("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: repaired full scan diverged"
            );
            let (mut faulty_push, ds6) = world(seed);
            faulty_push
                .sim
                .faults
                .install(FaultPlan::none().corrupt_read(ds6.info.files[0].clone(), 1));
            scan(&mut faulty_push, &ds6.pfs_uri(), sql, true, 1);
            assert_eq!(
                faulty_push.read_output("sql_out").unwrap(),
                reference,
                "seed {seed}: {sql}: repaired pushdown diverged"
            );
        }
    }
}

/// Geometry-derived pruning is deterministic: `lev >= 2` on tiny(2) must
/// skip exactly the lower chunk of each of the two files.
#[test]
fn dimension_predicate_prunes_exact_chunk_count() {
    let (mut c, ds) = world(7);
    let r = scan(
        &mut c,
        &ds.pfs_uri(),
        "SELECT * FROM df WHERE lev >= 2",
        true,
        1,
    );
    assert_eq!(
        r.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
        2.0,
        "one pruned chunk per file"
    );
    assert!(r.counters.get(keys::PUSHDOWN_BYTES_AVOIDED) > 0.0);
    // The pruned chunks' decompressed rows never reach the filter.
    let spec = &ds.spec;
    let rows_kept = (spec.levels / 2) * spec.lat * spec.lon * ds.info.files.len();
    assert_eq!(r.counters.get(keys::VECTORISED_ROWS), rows_kept as f64);
}

/// A predicate naming a column the variable cannot produce is a typed
/// planning error, not a silent empty result.
#[test]
fn pushdown_on_absent_column_is_a_typed_error() {
    let (mut c, ds) = world(7);
    let cfg = SqlScanConfig::new(["QR"], "SELECT * FROM df WHERE bogus > 1");
    let err = run_sql_scan(&mut c, &ds.pfs_uri(), &cfg).unwrap_err();
    match err {
        ScidpError::PushdownColumn { column, variable } => {
            assert_eq!(column, "bogus");
            assert_eq!(variable, "QR");
        }
        other => panic!("expected PushdownColumn, got {other}"),
    }
    // The same query without pushdown is an ordinary execution error path
    // (sqldf reports the unknown column per task), not a planning error —
    // but planning must catch it before any task runs.
}

/// Containers written without zone maps (the v1-compatible layout) still
/// scan correctly under pushdown — value predicates simply prune nothing.
#[test]
fn unstamped_container_scans_with_zero_value_skips() {
    let build = |zone_maps: bool| {
        let data: Vec<f32> = (0..6 * 8 * 5).map(|i| i as f32 * 0.5).collect();
        let full = Array::from_f32(vec![6, 8, 5], data).unwrap();
        let mut b = SncBuilder::new();
        b.zone_maps(zone_maps);
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 8), ("lon", 5)],
            &[2, 8, 5],
            Codec::ShuffleLz { elem: 4 },
            full,
        )
        .unwrap();
        b.finish()
    };
    // Values run 0.0..119.5 in lev-major order; `value >= 100` lives
    // entirely in the last chunk, so a stamped container prunes 2 of 3.
    let sql = "SELECT * FROM df WHERE value >= 100.0";
    let run = |zone_maps: bool, pushdown: bool| {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(4, &wspec);
        c.pfs.borrow_mut().create("plain/f.snc", build(zone_maps));
        let cfg = SqlScanConfig {
            pushdown,
            ..SqlScanConfig::new(["QR"], sql)
        };
        let r = run_sql_scan(&mut c, "lustre://plain", &cfg).unwrap();
        (c.read_output("sql_out").unwrap(), r)
    };
    let (reference, _) = run(true, false);
    let (stamped_out, stamped) = run(true, true);
    let (plain_out, plain) = run(false, true);
    assert_eq!(stamped_out, reference, "stamped pushdown diverged");
    assert_eq!(plain_out, reference, "unstamped pushdown diverged");
    assert_eq!(stamped.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 2.0);
    assert_eq!(
        plain.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP),
        0.0,
        "no zone maps, no value pruning"
    );
}

/// Edge geometries flow through the columnar path unchanged: a partial
/// tail chunk, an all-NaN chunk (zone map reports every element null),
/// and a single-element variable.
#[test]
fn boundary_allnull_and_single_element_chunks() {
    let build = || {
        // QR: [5,4,3] chunked [2,4,3] — chunks at lev {0-1, 2-3, 4};
        // the middle chunk is all-NaN, the tail chunk is partial.
        let mut data: Vec<f32> = (0..5 * 4 * 3).map(|i| i as f32).collect();
        for v in data.iter_mut().skip(2 * 4 * 3).take(2 * 4 * 3) {
            *v = f32::NAN;
        }
        let qr = Array::from_f32(vec![5, 4, 3], data).unwrap();
        let qs = Array::from_f32(vec![1, 1, 1], vec![42.0]).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 5), ("lat", 4), ("lon", 3)],
            &[2, 4, 3],
            Codec::ShuffleLz { elem: 4 },
            qr,
        )
        .unwrap();
        b.add_var(
            "",
            "QS",
            &[("lev", 1), ("lat", 1), ("lon", 1)],
            &[1, 1, 1],
            Codec::ShuffleLz { elem: 4 },
            qs,
        )
        .unwrap();
        b.finish()
    };
    let sql = "SELECT * FROM df WHERE value >= 10.0";
    let run = |pushdown: bool| {
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(4, &wspec);
        c.pfs.borrow_mut().create("edge/f.snc", build());
        let cfg = SqlScanConfig {
            pushdown,
            variables: vec!["QR".into(), "QS".into()],
            ..SqlScanConfig::new(["QR"], sql)
        };
        let r = run_sql_scan(&mut c, "lustre://edge", &cfg).unwrap();
        (c.read_output("sql_out").unwrap(), r)
    };
    let (reference, _) = run(false);
    let (out, r) = run(true);
    assert_eq!(out, reference, "edge-geometry pushdown diverged");
    // The all-NaN chunk can never satisfy `value >= 10` (NaN fails every
    // ordered comparison) so it is pruned; the first chunk (values 0..23)
    // and the partial tail chunk (48..59) both contain matches, and QS's
    // single element (42) survives: exactly one chunk skipped.
    assert_eq!(r.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 1.0);
}

/// Pushdown over a *multi-chunk* split, streamed: the surviving chunks are
/// the stream's pieces (read/compute overlap), the pruned ones are not
/// pieces at all, and the filtered frame is the same in every fetch mode —
/// and equal to an oracle that never enters `scidp::reader`:
/// `SncFile::get_vara` plus a naive row filter.
#[test]
fn streamed_pushdown_over_a_multi_chunk_split_matches_the_get_vara_oracle() {
    const PATH: &str = "push/f.snc";
    let shape = [16usize, 8, 5];
    // 8 chunks of 2 levels; values rise with the row-major index, so
    // `100 <= value < 280` lives in levels 5..=13: chunks 0, 1 and 7 are
    // pruned by their zone maps, chunks 2..=6 are read.
    let data: Vec<f32> = (0..16 * 8 * 5).map(|i| i as f32 * 0.5).collect();
    let mut b = SncBuilder::new();
    b.add_var(
        "",
        "QR",
        &[("lev", 16), ("lat", 8), ("lon", 5)],
        &[2, 8, 5],
        Codec::ShuffleLz { elem: 4 },
        Array::from_f32(shape.to_vec(), data).unwrap(),
    )
    .unwrap();
    let bytes = b.finish();
    let sql = "SELECT * FROM df WHERE value >= 100.0 AND value < 280.0 AND lat < 6";
    let pred = Arc::new(
        scidp_suite::rframe::sql::where_predicate(sql)
            .unwrap()
            .unwrap(),
    );

    // The oracle: scifmt's in-memory read, filtered row by row.
    let file = SncFile::open(bytes.clone()).unwrap();
    let dense = file.get_vara("QR", &[0, 0, 0], &shape).unwrap();
    let mut oracle = Vec::new();
    for l in 0..shape[0] {
        for i in 0..shape[1] {
            for j in 0..shape[2] {
                let v = dense.at(&[l, i, j]);
                if (100.0..280.0).contains(&v) && i < 6 {
                    oracle.push(format!("{l:02},{i},{j}\t{v}"));
                }
            }
        }
    }
    assert!(
        oracle.len() > 100,
        "the predicate keeps a real share of rows"
    );

    let run = |plan: FaultPlan, stream: StreamConfig| {
        let mut c = paper_cluster(4, &WrfSpec::tiny(1));
        c.pfs.borrow_mut().create(PATH, bytes.clone());
        c.sim.faults.install(plan);
        let var = Arc::new(file.meta().var("QR").unwrap().clone());
        let split = InputSplit {
            length: var.chunks.iter().map(|ch| ch.clen).sum(),
            locations: Vec::new(),
            fetcher: Rc::new(SciSlabFetcher {
                pfs_path: PATH.into(),
                var,
                data_offset: file.meta().data_offset,
                start: vec![0, 0, 0],
                count: shape.to_vec(),
                cache: Arc::new(ChunkCache::default()),
                pushdown: Some(pred.clone()),
                cluster_admit: false,
            }),
        };
        let job = Job {
            ft: FtConfig {
                max_task_attempts: 8,
                ..FtConfig::default()
            },
            stream,
            ..Job::new(
                "pushrows",
                vec![split],
                Rc::new(|input, ctx| {
                    let TaskInput::Frame(f) = input else {
                        return Err(MrError::msg("pushdown must deliver a frame"));
                    };
                    let col = |name: &str| f.column(name).map_err(|e| MrError::msg(e.to_string()));
                    let (lev, lat, lon, val) =
                        (col("lev")?, col("lat")?, col("lon")?, col("value")?);
                    // A compute tail worth hiding reads behind.
                    ctx.charge("compute", 2.0);
                    for r in 0..f.n_rows() {
                        let key =
                            format!("{:02},{},{}", lev.f64_at(r), lat.f64_at(r), lon.f64_at(r));
                        ctx.emit(key, Payload::Bytes(val.f64_at(r).to_string().into_bytes()));
                    }
                    Ok(())
                }),
                Some(Rc::new(|key, values, ctx| {
                    for v in values {
                        ctx.emit(key, v);
                    }
                    Ok(())
                })),
                1,
                "push_out",
            )
        };
        let r = run_job(&mut c, job).expect("job survives its fault plan");
        (c.read_output("push_out").unwrap(), r)
    };
    let data_counters = |r: &JobResult| {
        [
            keys::MAP_TASKS,
            keys::INPUT_BYTES,
            keys::RECORDS_EMITTED,
            keys::SHUFFLE_BYTES,
            keys::HDFS_WRITE_BYTES,
            keys::CHUNKS_SKIPPED_ZONEMAP,
            keys::PUSHDOWN_BYTES_AVOIDED,
            keys::VECTORISED_ROWS,
        ]
        .map(|k| (k, r.counters.get(k)))
    };
    // Seed 0 is the clean run; 1..=3 add random read failures, a targeted
    // failure and a transient (repairable) corruption.
    let plan = |seed: u64| match seed {
        0 => FaultPlan::none(),
        _ => FaultPlan::none()
            .with_random_read_failures(seed, 0.08)
            .fail_read(PATH, 3)
            .corrupt_read(PATH, 2),
    };
    for seed in 0..=3u64 {
        let what = format!("fault seed {seed}");
        let batch = StreamConfig { enabled: false };
        let (want, br) = run(plan(seed), batch);
        let text: String = want
            .iter()
            .filter(|(path, _)| path.contains("part-r-"))
            .map(|(_, data)| String::from_utf8_lossy(data).into_owned())
            .collect();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows, oracle, "{what}: batch pushdown vs get_vara oracle");
        assert_eq!(br.counters.get(keys::CHUNKS_SKIPPED_ZONEMAP), 3.0, "{what}");
        assert_eq!(br.counters.get(keys::VECTORISED_ROWS), 400.0, "{what}");
        assert_eq!(br.counters.get(keys::PIECES_PREFETCHED), 0.0, "{what}");
        let (got, sr) = run(plan(seed), StreamConfig::default());
        assert_eq!(got, want, "{what}: committed bytes");
        assert_eq!(data_counters(&sr), data_counters(&br), "{what}");
        assert_eq!(
            sr.counters.get(keys::STREAM_FALLBACKS),
            0.0,
            "{what}: pushdown streams"
        );
        // (A retried attempt finds its siblings' chunks in the job cache and
        // may have a single piece left — nothing to overlap.)
        assert!(
            seed != 0 || sr.counters.get(keys::PIECES_PREFETCHED) > 0.0,
            "{what}: reads must overlap the compute tail"
        );
    }
}
