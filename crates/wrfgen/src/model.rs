//! Dataset shape: the NU-WRF data model of §IV-A / §V-A.

/// The 23 single-precision NU-WRF variables (rainfall `QR` is the one the
/// paper analyses; the others are the redundant I/O the copy-based
/// solutions cannot avoid).
pub const VAR_NAMES: [&str; 23] = [
    "QR", "QC", "QI", "QS", "QG", "QV", "T", "U", "V", "W", "P", "PB", "PH", "PHB", "TSLB",
    "SMOIS", "RAINC", "RAINNC", "SWDOWN", "GLW", "HFX", "LH", "TSK",
];

/// Generation parameters.
#[derive(Clone, Debug)]
pub struct WrfSpec {
    /// Number of output files (one per simulated timestamp).
    pub timestamps: usize,
    /// Vertical levels (paper: 50).
    pub levels: usize,
    /// Real (scaled-down) horizontal grid.
    pub lat: usize,
    pub lon: usize,
    /// Paper horizontal grid the logical byte counts refer to.
    pub paper_lat: usize,
    pub paper_lon: usize,
    /// How many of the 23 variables to materialize (23 = full model).
    pub n_vars: usize,
    /// Chunk shape `[chunk_levels, lat, lon]` — netCDF-4 chunking along the
    /// vertical axis.
    pub chunk_levels: usize,
    pub seed: u64,
}

impl WrfSpec {
    /// Paper-shaped dataset at a reduced horizontal resolution.
    pub fn scaled(lat: usize, lon: usize, timestamps: usize) -> WrfSpec {
        WrfSpec {
            timestamps,
            levels: 50,
            lat,
            lon,
            paper_lat: 1250,
            paper_lon: 1250,
            n_vars: VAR_NAMES.len(),
            chunk_levels: 10,
            seed: 0x5c1d_9000,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny(timestamps: usize) -> WrfSpec {
        WrfSpec {
            timestamps,
            levels: 4,
            lat: 8,
            lon: 8,
            paper_lat: 1250,
            paper_lon: 1250,
            n_vars: 3,
            chunk_levels: 2,
            seed: 42,
        }
    }

    /// Logical bytes per real byte (spatial scale-down factor).
    pub fn scale_factor(&self) -> f64 {
        (self.paper_lat * self.paper_lon) as f64 / (self.lat * self.lon) as f64
    }

    /// Real raw bytes of one variable.
    pub fn var_raw_bytes(&self) -> usize {
        self.levels * self.lat * self.lon * 4
    }

    /// File name of timestamp `t` (NU-WRF writes one file per timestamp,
    /// e.g. `plot_18_00_00.nc` in the paper's example).
    pub fn file_name(&self, t: usize) -> String {
        format!("plot_{t:04}_00_00.snc")
    }

    pub fn var_names(&self) -> &'static [&'static str] {
        &VAR_NAMES[..self.n_vars]
    }
}

/// Summary of a generated dataset.
#[derive(Clone, Debug)]
pub struct DatasetInfo {
    /// PFS paths of the generated files, in timestamp order.
    pub files: Vec<String>,
    /// Real raw bytes across all variables and files.
    pub raw_bytes: usize,
    /// Real stored (compressed) bytes.
    pub stored_bytes: usize,
    /// Logical-to-real scale factor used.
    pub scale: f64,
}

impl DatasetInfo {
    /// Raw / stored — the paper reports ~3.27x (298 MB → 91 MB).
    pub fn compression_ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.stored_bytes.max(1) as f64
    }

    /// Logical stored bytes (what the simulator charges for transfers).
    pub fn stored_bytes_logical(&self) -> f64 {
        self.stored_bytes as f64 * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_constants() {
        assert_eq!(VAR_NAMES.len(), 23);
        assert_eq!(VAR_NAMES[0], "QR");
        let s = WrfSpec::scaled(1250, 1250, 48);
        // Full-resolution raw variable ≈ 298 MB (paper §IV-A).
        let mb = s.var_raw_bytes() as f64 / 1e6;
        assert!((mb - 312.5).abs() < 1.0, "raw var = {mb} MB");
        assert_eq!(s.scale_factor(), 1.0);
    }

    #[test]
    fn scale_factor_recovers_paper_bytes() {
        let s = WrfSpec::scaled(125, 125, 48);
        assert_eq!(s.scale_factor(), 100.0);
        let logical_mb = s.var_raw_bytes() as f64 * s.scale_factor() / 1e6;
        assert!((logical_mb - 312.5).abs() < 1.0);
    }

    #[test]
    fn file_names_sort_in_time_order() {
        let s = WrfSpec::tiny(3);
        let names: Vec<String> = (0..3).map(|t| s.file_name(t)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }
}
