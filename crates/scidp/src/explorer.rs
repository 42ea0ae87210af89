//! File Explorer: Path Reader + Sci-format Head Reader (paper §III-A.1).
//!
//! The paper hooks `FileInputFormat.addInputPath`: if the input path starts
//! with a known PFS prefix (`lustre://`, `gpfs://`), the directory is
//! scanned on the PFS and each file's format is probed by attempting to
//! open it with the scientific I/O library (`nc_open` / `H5Fis_hdf5`).
//! Files the probe rejects are classified *flat* and mapped byte-wise;
//! recognised containers have their metadata extracted for the Data Mapper.

use pfs::Pfs;
use scifmt::snc;
use scifmt::SncMeta;

use crate::error::ScidpError;

/// PFS URI prefixes recognised by SciDP (configurable in the paper via a
/// job option; these are the defaults it names).
const PFS_PREFIXES: [&str; 2] = ["lustre://", "gpfs://"];

/// If `input` carries a PFS prefix, strip it and return the PFS directory.
pub fn parse_pfs_path(input: &str) -> Option<&str> {
    PFS_PREFIXES
        .iter()
        .find_map(|p| input.strip_prefix(p))
        .map(|rest| rest.trim_start_matches('/'))
}

/// Classification of one input file.
#[derive(Clone, Debug)]
pub enum FileFormat {
    /// Not a recognised scientific container: mapped as raw bytes.
    Flat { len: usize },
    /// A scientific container with parsed metadata.
    Sci { meta: SncMeta },
}

/// One scanned file.
#[derive(Clone, Debug)]
pub struct ExploredFile {
    pub pfs_path: String,
    pub format: FileFormat,
    /// PFS modification stamp at scan time — the Data Mapper records it so
    /// a stale mapping (file rewritten after the scan) is caught at job
    /// launch rather than silently reading reshuffled bytes.
    pub mtime: u64,
    /// File size at scan time, same purpose.
    pub size: u64,
}

impl ExploredFile {
    fn is_sci(&self) -> bool {
        matches!(self.format, FileFormat::Sci { .. })
    }

    /// Basename used for the HDFS mirror directory.
    pub fn basename(&self) -> &str {
        self.pfs_path.rsplit('/').next().unwrap_or(&self.pfs_path)
    }
}

/// Scan result plus the metadata I/O it cost (the Data Mapper setup reads
/// only headers, not data — that is why mapping-table construction is
/// cheap).
#[derive(Clone, Debug)]
pub struct ExploreReport {
    pub files: Vec<ExploredFile>,
    /// Real header bytes the Head Reader had to read.
    pub header_bytes_read: usize,
    /// MDS metadata operations issued (listing + per-file opens).
    pub mds_ops: usize,
}

impl ExploreReport {
    pub fn sci_files(&self) -> impl Iterator<Item = &ExploredFile> {
        self.files.iter().filter(|f| f.is_sci())
    }

    /// Virtual seconds the scan costs (MDS RPCs + header seeks); charged by
    /// the workflow before task scheduling starts.
    pub fn setup_cost(&self, cost: &simnet::CostModel) -> f64 {
        self.mds_ops as f64 * cost.rpc_s + self.files.len() as f64 * cost.seek_s
    }
}

/// The File Explorer.
pub struct FileExplorer;

impl FileExplorer {
    /// Scan a PFS directory: list it (Path Reader), probe each file's head
    /// (Sci-format Head Reader), and parse container metadata.
    pub fn scan(pfs: &Pfs, dir: &str) -> Result<ExploreReport, ScidpError> {
        let paths = pfs.list(dir);
        if paths.is_empty() {
            return Err(ScidpError::Pfs(format!("input directory {dir:?} is empty")));
        }
        let mut files = Vec::with_capacity(paths.len());
        let mut header_bytes = 0usize;
        let mut mds_ops = 1usize; // the listing itself
        for path in paths {
            mds_ops += 1; // open
            let file = pfs
                .file(&path)
                .ok_or_else(|| ScidpError::Pfs(format!("file vanished: {path}")))?;
            let bytes = &file.data;
            // Head probe: the first bytes decide (H5Fis_hdf5-style check).
            let format = if snc::is_snc(bytes) {
                let need = snc::required_header_bytes(bytes).map_err(ScidpError::from)?;
                header_bytes += need.min(bytes.len());
                let meta = SncMeta::parse(bytes).map_err(ScidpError::from)?;
                FileFormat::Sci { meta }
            } else {
                header_bytes += bytes.len().min(16);
                FileFormat::Flat { len: bytes.len() }
            };
            files.push(ExploredFile {
                pfs_path: path,
                format,
                mtime: file.mtime,
                size: bytes.len() as u64,
            });
        }
        Ok(ExploreReport {
            files,
            header_bytes_read: header_bytes,
            mds_ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::PfsConfig;
    use scifmt::{Array, Codec, SncBuilder};

    fn pfs_with_mixed_dir() -> Pfs {
        let mut p = Pfs::new(PfsConfig::default());
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "var_A",
            &[("x", 4)],
            &[2],
            Codec::None,
            Array::from_f32(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        )
        .unwrap();
        b.add_var(
            "",
            "var_B",
            &[("x", 2)],
            &[2],
            Codec::None,
            Array::from_f32(vec![2], vec![5.0, 6.0]).unwrap(),
        )
        .unwrap();
        // The paper's running example: one netCDF file + one CSV file.
        p.create("out/plot_18_00_00.snc", b.finish());
        p.create("out/plot_19_00_00.csv", b"a,b\n1,2\n".to_vec());
        p
    }

    #[test]
    fn prefix_parsing() {
        assert_eq!(parse_pfs_path("lustre:///out/run1"), Some("out/run1"));
        assert_eq!(parse_pfs_path("gpfs://x"), Some("x"));
        assert_eq!(parse_pfs_path("hdfs://x"), None);
        assert_eq!(parse_pfs_path("/plain/hdfs/path"), None);
    }

    #[test]
    fn classifies_sci_and_flat() {
        let p = pfs_with_mixed_dir();
        let rep = FileExplorer::scan(&p, "out").unwrap();
        assert_eq!(rep.files.len(), 2);
        let sci: Vec<&str> = rep.sci_files().map(|f| f.basename()).collect();
        let flat: Vec<&str> = rep
            .files
            .iter()
            .filter(|f| !f.is_sci())
            .map(|f| f.basename())
            .collect();
        assert_eq!(sci, vec!["plot_18_00_00.snc"]);
        assert_eq!(flat, vec!["plot_19_00_00.csv"]);
        // The sci file's variables are visible to the mapper.
        if let FileFormat::Sci { meta } = &rep.files[0].format {
            let names: Vec<String> = meta.all_vars().into_iter().map(|(p, _)| p).collect();
            assert_eq!(names, vec!["var_A", "var_B"]);
        } else {
            panic!("first file should be scientific");
        }
        assert!(rep.header_bytes_read > 0);
        assert_eq!(rep.mds_ops, 3);
        assert!(rep.setup_cost(&simnet::CostModel::default()) > 0.0);
    }

    #[test]
    fn header_read_is_small_fraction_of_file() {
        // The explorer must not read data chunks — only headers.
        let p = pfs_with_mixed_dir();
        let rep = FileExplorer::scan(&p, "out").unwrap();
        let total: usize = ["out/plot_18_00_00.snc", "out/plot_19_00_00.csv"]
            .iter()
            .map(|f| p.len_of(f).unwrap())
            .sum();
        assert!(rep.header_bytes_read < total);
    }

    #[test]
    fn empty_dir_is_an_error() {
        let p = Pfs::new(PfsConfig::default());
        assert!(matches!(
            FileExplorer::scan(&p, "nope"),
            Err(ScidpError::Pfs(_))
        ));
    }
}
