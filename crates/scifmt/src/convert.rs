//! SNC → CSV conversion: the slow offline preprocessing step the
//! conventional solutions (naive / vanilla Hadoop / PortHadoop) must pay
//! before any processing can start (§II-B, Table I).

use crate::csvfmt;
use crate::error::Result;
use crate::snc::SncFile;

/// One converted variable: its path and the CSV text bytes.
#[derive(Clone, Debug)]
pub struct Converted {
    pub var_path: String,
    pub text: Vec<u8>,
}

/// Convert variables of an SNC container to CSV text.
///
/// `vars` restricts conversion to the named variable paths; `None` converts
/// everything (what a generic `ncdump`-style tool does — the paper notes
/// netCDF files are "not dividable at the variable level" for the copy-based
/// pipelines).
pub fn snc_to_csv(file: &SncFile, vars: Option<&[String]>) -> Result<Vec<Converted>> {
    let all = file.meta().all_vars();
    let mut out = Vec::new();
    for (path, meta) in all {
        if let Some(filter) = vars {
            if !filter.iter().any(|v| v == &path) {
                continue;
            }
        }
        let array = file.get_var(&path)?;
        let dim_names: Vec<&str> = meta.dims.iter().map(|d| d.name.as_str()).collect();
        let text = csvfmt::array_to_csv(&dim_names, &array).into_bytes();
        out.push(Converted {
            var_path: path,
            text,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Array;
    use crate::codec::Codec;
    use crate::snc::SncBuilder;

    fn smooth_file() -> SncFile {
        let n = 32 * 32;
        let mk = |phase: f32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let x = (i % 32) as f32 / 32.0;
                    let y = (i / 32) as f32 / 32.0;
                    280.0 + 10.0 * ((x * 5.0 + phase).sin() * (y * 5.0).cos())
                })
                .collect()
        };
        let mut b = SncBuilder::new();
        for (name, phase) in [("QR", 0.0f32), ("T", 1.0)] {
            b.add_var(
                "",
                name,
                &[("lat", 32), ("lon", 32)],
                &[16, 32],
                Codec::ShuffleLz { elem: 4 },
                Array::from_f32(vec![32, 32], mk(phase)).unwrap(),
            )
            .unwrap();
        }
        SncFile::open(b.finish()).unwrap()
    }

    #[test]
    fn converts_all_variables() {
        let f = smooth_file();
        let out = snc_to_csv(&f, None).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].var_path, "QR");
        // header + one row per element
        let rows = out[0].text.split(|&b| b == b'\n').count() - 1;
        assert_eq!(rows, 32 * 32 + 1);
    }

    #[test]
    fn variable_filter_respected() {
        let f = smooth_file();
        let out = snc_to_csv(&f, Some(&["T".to_string()])).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].var_path, "T");
    }
}
