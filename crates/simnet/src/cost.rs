//! Calibrated virtual-cost model for compute phases.
//!
//! The SciDP paper reports wall-clock times from a Cloudera Hadoop + Lustre
//! testbed. Our reproduction executes the *real* data path (compression,
//! parsing, plotting, SQL) on scaled-down data, while the simulator charges
//! each phase a virtual duration derived from the *logical* (paper-sized)
//! work. All constants live here so the calibration is auditable in one
//! place; EXPERIMENTS.md documents the paper anchors for each value.
//!
//! Units: seconds per byte / per pixel / per row / per operation.

/// Per-phase virtual cost constants plus the real→logical scale factor.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Logical bytes per real byte. The synthetic datasets are generated at
    /// laptop-friendly resolution; multiplying by `scale` recovers the
    /// paper-sized byte counts for every transfer and per-byte compute cost.
    pub scale: f64,

    /// Disk head positioning + rotational latency charged once per disk
    /// request (HDD-class, 7200 RPM as on Chameleon).
    pub seek_s: f64,
    /// One metadata RPC (NameNode / MDS round trip).
    pub rpc_s: f64,
    /// Starting a task container (JVM start, scheduling, heartbeat slack);
    /// paid by cold launches only. A slot whose last attempt of the same job
    /// or DAG committed starts the next one without it.
    pub task_startup_s: f64,

    /// R `read.table`: text → typed columns. Dominates Fig. 7's Convert bar
    /// for the text-path solutions (~6 MB/s, R's notoriously slow parser).
    pub text_parse_per_byte: f64,
    /// Binary array → R data-frame conversion (SciDP's cheap Convert bar).
    pub binary_convert_per_byte: f64,
    /// Codec decode, charged per *raw* (decompressed) byte.
    pub decompress_per_byte: f64,
    /// Serving one raw byte from the cluster chunk-cache tier (a node-local
    /// memory copy — no disk, no NIC, no codec). Charged instead of the PFS
    /// read + decompress on a cluster-cache hit.
    pub cache_hit_per_byte: f64,
    /// Codec encode, charged per raw byte.
    pub compress_per_byte: f64,
    /// netCDF → CSV conversion, charged per raw byte (the offline step the
    /// paper measured at "more than one hour" for 14 GB of outputs).
    pub convert_to_text_per_byte: f64,

    /// Rasterising one output pixel with `image2d` + colour mapping.
    pub plot_per_pixel: f64,
    /// Evaluating one row in the `sqldf` engine.
    pub sql_per_row: f64,
    /// Shuffle sort/merge, per byte of map output.
    pub sort_per_byte: f64,
    /// Grep-style scan, per input byte (Fig. 2 workload).
    pub scan_per_byte: f64,

    /// Multiplier on compute phases when several tasks share a node
    /// (memory-bandwidth and cache interference; the paper notes the naive
    /// solution plots slightly *faster* per level because it runs
    /// contention-free).
    pub parallel_compute_penalty: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            scale: 1.0,
            seek_s: 0.008,
            rpc_s: 0.0005,
            task_startup_s: 1.0,
            // ~6 MB/s — R read.table on mixed numeric text.
            text_parse_per_byte: 1.6e-7,
            // ~65 MB/s — memcpy-ish reshaping into a data frame.
            binary_convert_per_byte: 1.5e-8,
            // ~1 GB/s — byte-shuffle + LZ decode.
            decompress_per_byte: 1.0e-9,
            // ~5 GB/s — memcpy out of a warm page cache.
            cache_hit_per_byte: 2.0e-10,
            // ~250 MB/s encode.
            compress_per_byte: 4.0e-9,
            // ~10 MB/s: dump + format every float as text (>1 h for the
            // 14 GB sample, matching §V-A).
            convert_to_text_per_byte: 1.0e-7,
            // 1200x1200 frame in ~0.5 s.
            plot_per_pixel: 3.5e-7,
            // ~200 M rows/s: a top-k/threshold scan is memory-bandwidth
            // bound (Fig. 9 shows `highlight` is nearly free).
            sql_per_row: 5.0e-9,
            sort_per_byte: 2.0e-8,
            scan_per_byte: 2.0e-9,
            parallel_compute_penalty: 1.2,
        }
    }
}

impl CostModel {
    /// Logical bytes corresponding to `real` stored bytes.
    #[inline]
    pub fn lbytes(&self, real: usize) -> f64 {
        real as f64 * self.scale
    }

    /// Virtual seconds to parse `real` bytes of text with `read.table`.
    #[inline]
    pub fn text_parse(&self, real: usize) -> f64 {
        self.lbytes(real) * self.text_parse_per_byte
    }

    /// Virtual seconds to convert `real` raw binary bytes into R structures.
    #[inline]
    pub fn binary_convert(&self, real: usize) -> f64 {
        self.lbytes(real) * self.binary_convert_per_byte
    }

    /// Virtual seconds to decompress to `real` raw bytes.
    #[inline]
    pub fn decompress(&self, real_raw: usize) -> f64 {
        self.lbytes(real_raw) * self.decompress_per_byte
    }

    /// Virtual seconds to compress `real` raw bytes.
    #[inline]
    pub fn compress(&self, real_raw: usize) -> f64 {
        self.lbytes(real_raw) * self.compress_per_byte
    }

    /// Virtual seconds to serve `real` raw bytes from the cluster
    /// chunk-cache tier (node-local memory copy).
    #[inline]
    pub fn cache_hit(&self, real_raw: usize) -> f64 {
        self.lbytes(real_raw) * self.cache_hit_per_byte
    }

    /// Virtual seconds to render a `w x h` *logical* image.
    ///
    /// Plot cost scales with the paper's image resolution (1200x1200 by
    /// default), not with the scaled-down raster we actually produce, so the
    /// caller passes logical dimensions directly.
    #[inline]
    pub fn plot(&self, logical_pixels: u64) -> f64 {
        logical_pixels as f64 * self.plot_per_pixel
    }

    /// Virtual seconds for a SQL pass over `logical_rows` rows.
    #[inline]
    pub fn sql(&self, logical_rows: u64) -> f64 {
        logical_rows as f64 * self.sql_per_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_multiplies_bytes() {
        let c = CostModel {
            scale: 10.0,
            ..CostModel::default()
        };
        assert_eq!(c.lbytes(100), 1000.0);
        assert!((c.text_parse(100) - 1000.0 * c.text_parse_per_byte).abs() < 1e-15);
    }

    #[test]
    fn conversion_of_paper_sample_exceeds_one_hour() {
        // §V-A: converting the 14 GB compressed sample took "more than one
        // hour". 14 GB compressed at the paper's ~3.27x ratio is ~46 GB raw.
        let c = CostModel::default();
        let raw = 46.0e9;
        let secs = raw * c.convert_to_text_per_byte;
        assert!(secs > 3600.0, "conversion modelled too fast: {secs}s");
        assert!(secs < 6.0 * 3600.0, "conversion absurdly slow: {secs}s");
    }

    #[test]
    fn text_parse_dominates_binary_convert() {
        // The mechanism behind Fig. 7: read.table is ~10x slower than
        // binary conversion per byte (and the text itself is ~33x bigger).
        let c = CostModel::default();
        assert!(c.text_parse_per_byte > 5.0 * c.binary_convert_per_byte);
    }

    #[test]
    fn plot_time_for_paper_resolution() {
        let c = CostModel::default();
        let t = c.plot(1200 * 1200);
        assert!(t > 0.1 && t < 2.0, "plot time per frame off: {t}");
    }
}
