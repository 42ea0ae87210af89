//! Table I: the data-path matrix of all solutions.

use std::fmt;

/// The five compared solutions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolutionKind {
    Naive,
    VanillaHadoop,
    PortHadoop,
    SciHadoop,
    SciDp,
}

impl SolutionKind {
    pub const ALL: [SolutionKind; 5] = [
        SolutionKind::Naive,
        SolutionKind::VanillaHadoop,
        SolutionKind::PortHadoop,
        SolutionKind::SciHadoop,
        SolutionKind::SciDp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SolutionKind::Naive => "Naive",
            SolutionKind::VanillaHadoop => "Vanilla Hadoop",
            SolutionKind::PortHadoop => "PortHadoop",
            SolutionKind::SciHadoop => "SciHadoop",
            SolutionKind::SciDp => "SciDP",
        }
    }

    /// The solution's data path (Table I row).
    fn data_path(self) -> DataPathRow {
        match self {
            SolutionKind::Naive => DataPathRow {
                solution: self,
                conversion: true,
                copy: "Sequential",
                processing: "Sequential",
            },
            SolutionKind::VanillaHadoop => DataPathRow {
                solution: self,
                conversion: true,
                copy: "Parallel",
                processing: "Parallel",
            },
            SolutionKind::PortHadoop => DataPathRow {
                solution: self,
                conversion: true,
                copy: "No",
                processing: "Parallel",
            },
            SolutionKind::SciHadoop => DataPathRow {
                solution: self,
                conversion: false,
                copy: "Parallel",
                processing: "Parallel",
            },
            SolutionKind::SciDp => DataPathRow {
                solution: self,
                conversion: false,
                copy: "No",
                processing: "Parallel",
            },
        }
    }
}

impl fmt::Display for SolutionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One row of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataPathRow {
    pub solution: SolutionKind,
    pub conversion: bool,
    pub copy: &'static str,
    pub processing: &'static str,
}

/// The full Table I, in the paper's row order.
pub fn data_path_table() -> Vec<DataPathRow> {
    SolutionKind::ALL.iter().map(|s| s.data_path()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_paper() {
        let t = data_path_table();
        assert_eq!(t.len(), 5);
        // SciDP is the only no-conversion, no-copy row.
        let scidp = t
            .iter()
            .find(|r| r.solution == SolutionKind::SciDp)
            .unwrap();
        assert!(!scidp.conversion);
        assert_eq!(scidp.copy, "No");
        assert_eq!(scidp.processing, "Parallel");
        // PortHadoop avoids the copy but not the conversion.
        let ph = t
            .iter()
            .find(|r| r.solution == SolutionKind::PortHadoop)
            .unwrap();
        assert!(ph.conversion);
        assert_eq!(ph.copy, "No");
        // SciHadoop avoids the conversion but not the copy.
        let sh = t
            .iter()
            .find(|r| r.solution == SolutionKind::SciHadoop)
            .unwrap();
        assert!(!sh.conversion);
        assert_eq!(sh.copy, "Parallel");
        // Naive is all-sequential.
        let nv = t
            .iter()
            .find(|r| r.solution == SolutionKind::Naive)
            .unwrap();
        assert_eq!(nv.copy, "Sequential");
        assert_eq!(nv.processing, "Sequential");
    }
}
