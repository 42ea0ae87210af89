//! Materialise the dataset as SNC files on the PFS.

use pfs::Pfs;
use scifmt::{Array, Codec, SncBuilder, SncMeta};

use crate::field::{field_rng, smooth_field, var_range};
use crate::model::{DatasetInfo, WrfSpec};

/// Generate the SNC container bytes of one timestamp file.
pub fn generate_file(spec: &WrfSpec, t: usize) -> Vec<u8> {
    let mut b = SncBuilder::new();
    b.attr(
        "",
        "model",
        scifmt::AttrValue::Str("NU-WRF (synthetic)".into()),
    );
    b.attr("", "timestamp", scifmt::AttrValue::I64(t as i64));
    b.attr(
        "",
        "resolution",
        scifmt::AttrValue::Str(format!(
            "{}x{}x{} (paper {}x{}x{})",
            spec.levels, spec.lat, spec.lon, spec.levels, spec.paper_lat, spec.paper_lon
        )),
    );
    let chunk = [spec.chunk_levels.min(spec.levels), spec.lat, spec.lon];
    // Every variable seeds its own RNG, so fields can be synthesized in
    // parallel without changing a single output byte.
    let names = spec.var_names();
    let fields =
        scifmt::par::par_map_indexed(names.len(), scifmt::par::default_threads(), 2, |vi| {
            let mut rng = field_rng(spec.seed, t, vi);
            let (base, amp) = var_range(vi);
            smooth_field(&mut rng, spec.levels, spec.lat, spec.lon, base, amp)
        });
    for (name, data) in names.iter().zip(fields) {
        let array = Array::from_f32(vec![spec.levels, spec.lat, spec.lon], data)
            .expect("generated shape consistent");
        b.add_var(
            "",
            name,
            &[("lev", spec.levels), ("lat", spec.lat), ("lon", spec.lon)],
            &chunk,
            Codec::ShuffleLz { elem: 4 },
            array,
        )
        .expect("variable construction is valid");
    }
    b.finish()
}

/// Generate the full dataset into `dir/` on the PFS (untimed — this stands
/// in for the MPI simulation phase the paper does not benchmark).
pub fn generate_dataset(pfs: &mut Pfs, spec: &WrfSpec, dir: &str) -> DatasetInfo {
    let mut files = Vec::with_capacity(spec.timestamps);
    let mut raw = 0usize;
    let mut stored = 0usize;
    for t in 0..spec.timestamps {
        let bytes = generate_file(spec, t);
        let meta = SncMeta::parse(&bytes).expect("generated file parses");
        for (_, v) in meta.all_vars() {
            raw += v.raw_size();
            stored += v.stored_size();
        }
        let path = format!("{dir}/{}", spec.file_name(t));
        pfs.create(path.clone(), bytes);
        files.push(path);
    }
    DatasetInfo {
        files,
        raw_bytes: raw,
        stored_bytes: stored,
        scale: spec.scale_factor(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::PfsConfig;
    use scifmt::snc::is_snc;
    use scifmt::SncFile;

    #[test]
    fn generated_file_is_valid_snc() {
        let spec = WrfSpec::tiny(1);
        let bytes = generate_file(&spec, 0);
        assert!(is_snc(&bytes));
        let f = SncFile::open(bytes).unwrap();
        let vars = f.meta().all_vars();
        assert_eq!(vars.len(), 3);
        assert_eq!(vars[0].0, "QR");
        let qr = f.get_var("QR").unwrap();
        assert_eq!(qr.shape(), &[4, 8, 8]);
        // Chunked along levels: 4 levels / chunk 2 = 2 chunks.
        assert_eq!(f.meta().var("QR").unwrap().chunks.len(), 2);
    }

    #[test]
    fn dataset_lands_on_pfs_in_order() {
        let mut pfs = Pfs::new(PfsConfig::default());
        let spec = WrfSpec::tiny(3);
        let info = generate_dataset(&mut pfs, &spec, "nuwrf/run1");
        assert_eq!(info.files.len(), 3);
        assert_eq!(pfs.list("nuwrf/run1"), info.files);
        assert!(info.raw_bytes > 0);
        assert!(info.stored_bytes > 0);
        assert!(info.stored_bytes < info.raw_bytes);
    }

    #[test]
    fn dataset_sizes_sum_the_opened_containers() {
        let mut pfs = Pfs::new(PfsConfig::default());
        let spec = WrfSpec::tiny(3);
        let info = generate_dataset(&mut pfs, &spec, "d");
        let (mut raw, mut stored) = (0, 0);
        for t in 0..spec.timestamps {
            let f = SncFile::open(generate_file(&spec, t)).unwrap();
            for (_, v) in f.meta().all_vars() {
                raw += v.raw_size();
                stored += v.stored_size();
            }
        }
        assert_eq!((info.raw_bytes, info.stored_bytes), (raw, stored));
    }

    #[test]
    fn deterministic_generation() {
        let spec = WrfSpec::tiny(1);
        assert_eq!(generate_file(&spec, 0), generate_file(&spec, 0));
        assert_ne!(generate_file(&spec, 0), generate_file(&spec, 1));
    }

    #[test]
    fn generated_containers_are_pinned() {
        // A container is a stored format: these are the bytes the commit
        // before the value-checked match finder and the hoisted upsample
        // wrote. Field synthesis and compression both feed them, so a
        // change to either kernel that moves one byte fails here. All 23
        // variables: the large-valued ones (pressure, geopotential) are
        // where a one-ulp change in a field survives the quantisation.
        let specs = [
            (WrfSpec::tiny(1), 0),
            (
                WrfSpec {
                    levels: 3,
                    n_vars: 23,
                    chunk_levels: 2,
                    ..WrfSpec::scaled(13, 21, 2)
                },
                1,
            ),
            (
                WrfSpec {
                    levels: 5,
                    n_vars: 23,
                    ..WrfSpec::scaled(40, 64, 1)
                },
                0,
            ),
        ];
        let got: Vec<(usize, u64)> = specs
            .iter()
            .map(|(spec, t)| {
                let bytes = generate_file(spec, *t);
                (bytes.len(), scirng::hash64(&bytes))
            })
            .collect();
        let want = [
            (1289, 0x44d5_4ec3_7f6d_f82b),
            (31_722, 0x9494_5915_8abd_27b0),
            (443_120, 0x21b0_5516_6a9c_fde6),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn compression_ratio_is_paper_scale() {
        // Paper §IV-A: 298 MB raw → ~91 MB stored, ratio ≈ 3.27. Smooth
        // synthetic fields at a realistic grid should land in 2x–6x.
        let spec = WrfSpec {
            n_vars: 4,
            ..WrfSpec::scaled(64, 64, 1)
        };
        let mut pfs = Pfs::new(PfsConfig::default());
        let info = generate_dataset(&mut pfs, &spec, "d");
        let r = info.compression_ratio();
        assert!(r > 2.0, "ratio {r:.2} too low");
        assert!(r < 8.0, "ratio {r:.2} suspiciously high");
    }

    #[test]
    fn logical_sizes_scale() {
        let spec = WrfSpec {
            n_vars: 1,
            ..WrfSpec::scaled(125, 125, 1)
        };
        let mut pfs = Pfs::new(PfsConfig::default());
        let info = generate_dataset(&mut pfs, &spec, "d");
        assert_eq!(info.scale, 100.0);
        // Logical stored ≈ stored x 100.
        assert!((info.stored_bytes_logical() - info.stored_bytes as f64 * 100.0).abs() < 1.0);
    }
}
