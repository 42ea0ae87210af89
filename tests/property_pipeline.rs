//! Property-based cross-crate tests: for arbitrary small dataset shapes,
//! the distributed SciDP read path must agree exactly with direct
//! container reads, and accounting invariants must hold.

use scidp_suite::prelude::*;
use scidp_suite::scifmt::{self, codec, SncFile};
use scirng::Rng;

/// For random (levels, grid, chunking, timestamps), every slab SciDP
/// delivers equals the hyperslab read straight from the container.
#[test]
fn scidp_slabs_equal_direct_reads() {
    for case in 0u64..12 {
        let mut rng = Rng::seed_from_u64(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let levels = 2 + rng.below(5);
        let grid = 4 + rng.below(6);
        let chunk_levels = 1 + rng.below(3);
        let timestamps = 1 + rng.below(2);
        let seed = rng.next_u64();
        let spec = WrfSpec {
            timestamps,
            levels,
            lat: grid,
            lon: grid,
            paper_lat: 1250,
            paper_lon: 1250,
            n_vars: 2,
            chunk_levels: chunk_levels.min(levels),
            seed,
        };
        let mut cluster = paper_cluster(2, &spec);
        let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");

        // Collect per-slab sums through a custom R job.
        use std::cell::RefCell;
        use std::rc::Rc;
        let sums: Rc<RefCell<Vec<(String, usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
        let sums2 = sums.clone();
        let rjob = RJob {
            name: "sums".into(),
            input: ScidpInput::path(ds.pfs_uri()).vars(["QR"]),
            map: Rc::new(move |slab, _| {
                let s: f64 = slab.array.iter_f64().sum();
                sums2
                    .borrow_mut()
                    .push((slab.file.clone(), slab.origin[0], s));
                Ok(())
            }),
            reduce: None,
            n_reducers: 1,
            output_dir: "sums_out".into(),
            logical_image: (10, 10),
            raster: (8, 8),
            stream: Default::default(),
        };
        let env = cluster.env();
        let (job, _) = rjob.into_job(&env, 1.0).unwrap();
        run_job(&mut cluster, job).unwrap();

        // Compare against direct reads.
        let collected = sums.borrow();
        let chunks_per_file = levels.div_ceil(chunk_levels.min(levels));
        assert_eq!(collected.len(), timestamps * chunks_per_file, "case {case}");
        for (file, lev0, got) in collected.iter() {
            let bytes = cluster.pfs.borrow().file(file).unwrap().data.clone();
            let f = SncFile::open(bytes.as_ref().clone()).unwrap();
            let count0 = chunk_levels.min(levels).min(levels - lev0);
            let direct = f
                .get_vara("QR", &[*lev0, 0, 0], &[count0, grid, grid])
                .unwrap();
            let want: f64 = direct.iter_f64().sum();
            assert!(
                (got - want).abs() < 1e-6 * want.abs().max(1.0),
                "slab sum mismatch at {file}@{lev0}: {got} vs {want} (case {case})"
            );
        }
    }
}

/// Flipping any single byte of a staged SNC file must never produce
/// silently wrong output: the run either commits output byte-identical to
/// the clean run (flip not on the read path, or repaired), or fails with a
/// typed error — specifically an IntegrityError for flips in the
/// checksummed chunk-data region.
#[test]
fn single_byte_flip_is_detected_or_harmless_never_wrong() {
    use scidp_suite::scidp::ScidpError;

    let spec = WrfSpec::tiny(1);
    let cfg = || WorkflowConfig {
        n_reducers: 1,
        raster: (8, 8),
        ..WorkflowConfig::img_only(["QR"])
    };
    let world = || {
        let mut cluster = paper_cluster(2, &spec);
        let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
        (cluster, ds)
    };

    // Clean reference run.
    let (mut clean, ds) = world();
    let path = ds.info.files[0].clone();
    let clean_bytes = clean
        .pfs
        .borrow()
        .file(&path)
        .unwrap()
        .data
        .as_ref()
        .clone();
    let data_off = SncFile::open(clean_bytes.clone())
        .unwrap()
        .meta()
        .data_offset;
    run_scidp(&mut clean, &ds.pfs_uri(), &cfg()).unwrap();
    let clean_out = clean.read_output("scidp_out").unwrap();
    assert!(!clean_out.is_empty());
    // Every chunk frame of the container, as a byte range of the file.
    let frames: Vec<std::ops::Range<usize>> = {
        let file = SncFile::open(clean_bytes.clone()).unwrap();
        let vars = file.meta().all_vars();
        vars.iter()
            .flat_map(|(_, var)| scifmt::snc::chunk_extents_of(var, data_off))
            .map(|c| c.offset as usize..(c.offset + c.clen) as usize)
            .collect()
    };

    let mut rng = Rng::seed_from_u64(0x00C0_FFEE);
    let len = clean_bytes.len();
    for trial in 0..32 {
        // Alternate between the checksummed data region and anywhere at
        // all (headers included).
        let pos = if trial % 2 == 0 {
            data_off + rng.below(len - data_off)
        } else {
            rng.below(len)
        };
        let (mut c, ds) = world();
        {
            let mut bytes = clean_bytes.clone();
            bytes[pos] ^= 1 << rng.below(8);
            // In the pipeline the CRC stops a flipped frame short of the
            // decoder. Hand it over directly, twice in a row on this
            // thread's reused codec scratch: it may decode or fail typed,
            // but the same way both times, and the clean frame decoded
            // right behind it must come out as it did before.
            if let Some(frame) = frames.iter().find(|r| r.contains(&pos)) {
                let want = codec::decompress(&clean_bytes[frame.clone()]).unwrap();
                let flipped = codec::decompress(&bytes[frame.clone()]);
                assert_eq!(codec::decompress(&bytes[frame.clone()]), flipped);
                let again = codec::decompress(&clean_bytes[frame.clone()]).unwrap();
                assert_eq!(again, want, "flip at byte {pos} poisoned the codec scratch");
            }
            c.pfs.borrow_mut().create(path.clone(), bytes);
        }
        match run_scidp(&mut c, &ds.pfs_uri(), &cfg()) {
            Ok(_) => {
                // Flip was off the read path (skipped variable, slack
                // space) — the committed output must be bit-identical.
                assert_eq!(
                    c.read_output("scidp_out").unwrap(),
                    clean_out,
                    "flip at byte {pos} silently changed the output"
                );
            }
            Err(e) => {
                // Failing is always acceptable — wrong data is not. Flips
                // inside the chunk-data region must fail as IntegrityError
                // (detected by CRC, unrepairable, quarantined).
                if pos >= data_off {
                    assert!(
                        matches!(e, ScidpError::Integrity(_)),
                        "flip at data byte {pos} failed untyped: {e}"
                    );
                }
            }
        }
    }
}

/// Input-byte accounting equals the mapped compressed bytes exactly.
#[test]
fn input_bytes_equal_mapped_bytes() {
    for timestamps in 1usize..4 {
        for chunk_levels in 1usize..4 {
            let spec = WrfSpec {
                chunk_levels: chunk_levels.min(4),
                ..WrfSpec::tiny(timestamps)
            };
            let mut cluster = paper_cluster(2, &spec);
            let ds = stage_nuwrf(&mut cluster, &spec, "nuwrf");
            let cfg = WorkflowConfig {
                n_reducers: 1,
                ..WorkflowConfig::img_only(["QR"])
            };
            let rep = run_scidp(&mut cluster, &ds.pfs_uri(), &cfg).unwrap();
            // Sum of QR chunk clens across files.
            let mut want = 0u64;
            for path in &ds.info.files {
                let bytes = cluster.pfs.borrow().file(path).unwrap().data.clone();
                let f = SncFile::open(bytes.as_ref().clone()).unwrap();
                want += f.meta().var("QR").unwrap().stored_size() as u64;
            }
            assert_eq!(rep.job.counters.get("input_bytes") as u64, want);
        }
    }
}
