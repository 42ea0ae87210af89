//! The offline netCDF → CSV conversion step (required by naive, vanilla
//! Hadoop and PortHadoop; §II-B / §V-A).
//!
//! Conversion is *real* — the text the downstream pipelines parse comes out
//! of [`scifmt::convert`] — and its (large) virtual time is measured and
//! reported but, following the paper, **never counted** into any solution's
//! total.

use std::sync::Arc;

use mapreduce::Cluster;
use scifmt::{ChunkCache, SncFile};

use crate::util::StagedDataset;

/// Outcome of converting a staged dataset.
#[derive(Clone, Debug)]
pub struct ConversionReport {
    /// PFS paths of the text files, one per (file, variable).
    pub text_files: Vec<String>,
    /// Real text bytes produced.
    pub text_bytes: usize,
    /// Virtual seconds the conversion would take (excluded from totals).
    pub conversion_time: f64,
    /// Text bytes / stored (compressed) bytes of the converted variables —
    /// the paper reports ~33x.
    pub expansion_vs_compressed: f64,
    /// Capacity of the conversion's chunk cache: ONE shared pool serves every opened file, so this is the total
    /// chunk memory the conversion holds — not a per-file figure.
    pub cache_capacity_bytes: usize,
}

/// Convert the selected variables of every file to CSV text on the PFS
/// (under `<dir>_text/`).
pub fn convert_dataset(
    cluster: &mut Cluster,
    ds: &StagedDataset,
    variables: &[String],
) -> ConversionReport {
    let mut text_files = Vec::new();
    let mut text_bytes = 0usize;
    let mut raw_bytes = 0usize;
    let mut stored_bytes = 0usize;
    // One content-keyed decompressed-chunk cache for the whole conversion:
    // the converter never re-decodes a chunk it has already seen, and holds
    // one cache's worth of memory, not one per file.
    let cache = Arc::new(ChunkCache::default());
    for path in &ds.info.files {
        let bytes = {
            let p = cluster.pfs.borrow();
            p.file(path).expect("staged file present").data.clone()
        };
        let f = SncFile::open(bytes.as_ref().clone())
            .expect("staged file parses")
            .with_cache(cache.clone());
        let converted =
            scifmt::convert::snc_to_csv(&f, Some(variables)).expect("selected variables exist");
        for c in converted {
            let var = f.meta().var(&c.var_path).expect("converted var exists");
            raw_bytes += var.raw_size();
            stored_bytes += var.stored_size();
            text_bytes += c.text.len();
            let base = path.rsplit('/').next().unwrap();
            let out = format!(
                "{}_text/{}.{}.csv",
                ds.dir,
                base,
                c.var_path.replace('/', "_")
            );
            cluster.pfs.borrow_mut().create(out.clone(), c.text);
            text_files.push(out);
        }
    }
    let cost = &cluster.sim.cost;
    let conversion_time = cost.lbytes(raw_bytes) * cost.convert_to_text_per_byte;
    ConversionReport {
        text_files,
        text_bytes,
        conversion_time,
        expansion_vs_compressed: text_bytes as f64 / stored_bytes.max(1) as f64,
        cache_capacity_bytes: cache.capacity(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{paper_cluster, stage_nuwrf};
    use wrfgen::WrfSpec;

    #[test]
    fn conversion_produces_parseable_text() {
        let wspec = WrfSpec::tiny(2);
        let mut c = paper_cluster(4, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let rep = convert_dataset(&mut c, &ds, &["QR".to_string()]);
        assert_eq!(rep.text_files.len(), 2);
        assert!(rep.conversion_time > 0.0);
        assert!(
            rep.expansion_vs_compressed > 4.0,
            "{}",
            rep.expansion_vs_compressed
        );
        // One shared session cache — the effective capacity is reported
        // once, not multiplied by the number of opened files.
        assert_eq!(rep.cache_capacity_bytes, scifmt::snc::DEFAULT_CACHE_BYTES);
        // The text really parses back.
        let p = c.pfs.borrow();
        let text = p.file(&rep.text_files[0]).unwrap().data.clone();
        let df = rframe::read_table(std::str::from_utf8(&text).unwrap(), true, ',').unwrap();
        assert_eq!(
            df.names(),
            &[
                "lev".to_string(),
                "lat".into(),
                "lon".into(),
                "value".into()
            ]
        );
        assert_eq!(df.n_rows(), 4 * 8 * 8);
    }

    #[test]
    fn conversion_time_is_large_relative_to_data() {
        // At paper scale the conversion takes hours; at any scale it should
        // dwarf a single variable's transfer time.
        let wspec = WrfSpec::tiny(1);
        let mut c = paper_cluster(4, &wspec);
        let ds = stage_nuwrf(&mut c, &wspec, "nuwrf");
        let rep = convert_dataset(&mut c, &ds, &["QR".to_string()]);
        let qr_raw_logical = c.sim.cost.lbytes(4 * 8 * 8 * 4);
        let transfer_at_disk_speed = qr_raw_logical / 120e6;
        assert!(rep.conversion_time > 10.0 * transfer_at_disk_speed);
    }
}
