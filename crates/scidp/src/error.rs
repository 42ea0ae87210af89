//! SciDP error type.

use std::fmt;

#[derive(Debug, Clone)]
pub enum ScidpError {
    /// Input path is not on the PFS and not on HDFS.
    BadInputPath(String),
    /// PFS-level failure (missing file, bad range).
    Pfs(String),
    /// HDFS namespace failure while building the mirror.
    Hdfs(String),
    /// Scientific format failure (corrupt container, missing variable).
    Format(scifmt::FmtError),
    /// Requested variables not present in any input file.
    NoMatchingVariables(Vec<String>),
    /// Data failed checksum verification and could not be repaired.
    Integrity(String),
    /// A mapped source file vanished from the PFS after the scan — the
    /// mapping cannot be rebuilt, only failed.
    StaleMapping { path: String, reason: String },
    /// A pushdown predicate references a column the mapped variable does
    /// not produce (neither a dimension name nor `value`).
    PushdownColumn { column: String, variable: String },
}

impl fmt::Display for ScidpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScidpError::BadInputPath(p) => write!(f, "bad input path: {p}"),
            ScidpError::Pfs(m) => write!(f, "PFS error: {m}"),
            ScidpError::Hdfs(m) => write!(f, "HDFS error: {m}"),
            ScidpError::Format(e) => write!(f, "format error: {e}"),
            ScidpError::NoMatchingVariables(v) => {
                write!(f, "no input file contains any of the variables {v:?}")
            }
            ScidpError::Integrity(m) => write!(f, "{m}"),
            ScidpError::StaleMapping { path, reason } => {
                write!(f, "stale mapping: source file {path}: {reason}")
            }
            ScidpError::PushdownColumn { column, variable } => {
                write!(
                    f,
                    "pushdown predicate references unknown column {column:?} \
                     (variable {variable} produces its dimensions and \"value\")"
                )
            }
        }
    }
}

impl std::error::Error for ScidpError {}

impl From<scifmt::FmtError> for ScidpError {
    fn from(e: scifmt::FmtError) -> Self {
        ScidpError::Format(e)
    }
}
