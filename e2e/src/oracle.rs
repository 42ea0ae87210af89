//! Output verification by seed-independent oracles, never stored digests:
//! the committed output of a pass is read back from the simulated HDFS and
//! checked against values computed directly from the staged containers
//! with a naive single-threaded reader.

use std::collections::{BTreeMap, BTreeSet};

use mapreduce::Cluster;
use rframe::{image2d, ColorMap};
use scidp::derived_raster;
use scifmt::SncFile;

use crate::workloads::{Kind, Shape, Staged, Workload};

/// Committed files under `dir`, sorted by path.
pub type Output = Vec<(String, Vec<u8>)>;

/// Read every committed file under `dir` back from the datanodes.
pub fn read_output(cluster: &Cluster, dir: &str) -> Result<Output, String> {
    let h = cluster.hdfs.borrow();
    let mut files = h
        .namenode
        .list_files_recursive(dir)
        .map_err(|e| format!("output dir {dir}: {e}"))?;
    files.sort_by(|a, b| a.path.cmp(&b.path));
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let mut data = Vec::with_capacity(f.len as usize);
        for b in h.namenode.blocks(&f.path).map_err(|e| e.to_string())? {
            let node = *b
                .locations()
                .first()
                .ok_or_else(|| format!("block of {} has no replica", f.path))?;
            let bytes = h
                .datanodes
                .get(node, b.id)
                .ok_or_else(|| format!("block of {} missing on its datanode", f.path))?;
            data.extend_from_slice(&bytes);
        }
        out.push((f.path, data));
    }
    Ok(out)
}

/// 64-bit digest of an output set (paths and bytes), used only to compare
/// passes of one run with each other — never against a stored value.
pub fn digest(output: &Output) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
        }
        for &b in words.remainder() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
    };
    for (path, data) in output {
        eat(path.as_bytes());
        eat(data);
    }
    h ^ (h >> 29)
}

/// What the first verified pass of a run must look like, computed from
/// the staged containers alone.
pub enum Expected {
    /// Image workloads: every `(file, var, level)` key exactly once, and
    /// these sampled keys carrying exactly these PNG bytes.
    Images {
        keys: BTreeSet<String>,
        samples: Vec<(String, Vec<u8>)>,
    },
    /// Stats workloads: per variable `(levels, count, min, max, mean)`.
    Stats(BTreeMap<String, (u64, u64, f64, f64, f64)>),
    /// Byte-identical to a reference output (pushdown off; the clean run).
    SameAs(Output),
}

impl Expected {
    /// Oracle for workloads whose expectation needs no reference pass.
    pub fn from_dataset(w: &Workload, staged: &Staged) -> Result<Option<Expected>, String> {
        let Shape::Wrf(spec) = &staged.shape else {
            return Ok(None);
        };
        match w.kind {
            Kind::NuwrfImg | Kind::SmallTasks => {
                let vars = w.variables(staged);
                let mut keys = BTreeSet::new();
                for (path, _) in &staged.files {
                    for var in &vars {
                        for lev in 0..spec.levels {
                            keys.insert(format!("img/{path}/{var}/{lev:04}"));
                        }
                    }
                }
                // Sample the first, a middle and the last (file, var, level).
                let raster = derived_raster((1200, 1200), spec.scale_factor());
                let mut samples = Vec::new();
                let n = staged.files.len();
                for (fi, vi, lev) in [
                    (0, 0, 0),
                    (n / 2, vars.len() / 2, spec.levels / 2),
                    (n - 1, vars.len() - 1, spec.levels - 1),
                ] {
                    let (path, bytes) = &staged.files[fi];
                    let var = &vars[vi];
                    let file =
                        SncFile::open(bytes.clone()).map_err(|e| format!("{path}: {e:?}"))?;
                    let level = file
                        .get_vara(var, &[lev, 0, 0], &[1, spec.lat, spec.lon])
                        .map_err(|e| format!("{path}#{var}: {e:?}"))?;
                    let grid: Vec<f64> = level.iter_f64().collect();
                    let png = image2d(&grid, spec.lat, spec.lon, raster.0, raster.1, ColorMap::Jet)
                        .map_err(|e| e.to_string())?
                        .to_png();
                    samples.push((format!("img/{path}/{var}/{lev:04}"), png));
                }
                Ok(Some(Expected::Images { keys, samples }))
            }
            Kind::ScanStats | Kind::ScanStatsWarm => {
                // Naive single-threaded fold over fully decoded variables.
                let mut stats = BTreeMap::new();
                for var in w.variables(staged) {
                    let (mut count, mut sum) = (0u64, 0.0f64);
                    let (mut mn, mut mx) = (f64::INFINITY, f64::NEG_INFINITY);
                    for (path, bytes) in &staged.files {
                        let file =
                            SncFile::open(bytes.clone()).map_err(|e| format!("{path}: {e:?}"))?;
                        let array = file
                            .get_var(&var)
                            .map_err(|e| format!("{path}#{var}: {e:?}"))?;
                        for v in array.iter_f64().filter(|v| v.is_finite()) {
                            count += 1;
                            sum += v;
                            mn = mn.min(v);
                            mx = mx.max(v);
                        }
                    }
                    let mean = if count > 0 { sum / count as f64 } else { 0.0 };
                    stats.insert(var, (spec.levels as u64, count, mn, mx, mean));
                }
                Ok(Some(Expected::Stats(stats)))
            }
            Kind::SqlPushdown | Kind::NuwrfImgChaos => Ok(None),
        }
    }

    /// Check one pass's committed output.
    pub fn check(&self, output: &Output) -> Result<(), String> {
        match self {
            Expected::SameAs(reference) => {
                if output == reference {
                    Ok(())
                } else {
                    Err("output differs from the reference run byte for byte".into())
                }
            }
            Expected::Images { keys, samples } => check_images(output, keys, samples),
            Expected::Stats(stats) => check_stats(output, stats),
        }
    }
}

const PNG_MAGIC: &[u8] = b"\t\x89PNG\r\n\x1a\n";

/// Part files hold `key \t png-bytes \n` records; PNG bytes contain
/// newlines, so records are found by the `\t` + PNG signature that starts
/// every value and the key is read backwards from there.
fn check_images(
    output: &Output,
    keys: &BTreeSet<String>,
    samples: &[(String, Vec<u8>)],
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    let mut sampled = 0usize;
    for (path, data) in output {
        let mut i = 0usize;
        while let Some(off) = find(&data[i..], PNG_MAGIC) {
            let tab = i + off;
            let key_start = data[..tab]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let key = String::from_utf8_lossy(&data[key_start..tab]).into_owned();
            if !seen.insert(key.clone()) {
                return Err(format!("image key {key} committed twice (in {path})"));
            }
            if let Some((_, png)) = samples.iter().find(|(k, _)| *k == key) {
                let got = data.get(tab + 1..tab + 1 + png.len());
                if got != Some(png.as_slice()) {
                    return Err(format!(
                        "PNG of {key} differs from image2d(get_vara(..)).to_png()"
                    ));
                }
                sampled += 1;
            }
            i = tab + PNG_MAGIC.len();
        }
    }
    if &seen != keys {
        let missing = keys.difference(&seen).count();
        let extra = seen.difference(keys).count();
        return Err(format!(
            "image set wrong: {} committed, {} expected ({missing} missing, {extra} unexpected)",
            seen.len(),
            keys.len()
        ));
    }
    if sampled != samples.len() {
        return Err(format!(
            "only {sampled} of {} sampled images found",
            samples.len()
        ));
    }
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let first = *needle.first()?;
    let mut i = 0usize;
    while let Some(p) = haystack[i..].iter().position(|&b| b == first) {
        if haystack[i + p..].starts_with(needle) {
            return Some(i + p);
        }
        i += p + 1;
    }
    None
}

/// Stats part files hold `var/<name> \t levels=.. count=.. min=.. max=..
/// mean=..` lines. Counts and extrema must match exactly; the mean within
/// 1e-9 relative (the DAG adds per-level partial sums, the oracle adds
/// element by element).
fn check_stats(
    output: &Output,
    expected: &BTreeMap<String, (u64, u64, f64, f64, f64)>,
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    for (path, data) in output.iter().filter(|(p, _)| !p.contains("/_")) {
        for line in String::from_utf8_lossy(data).lines() {
            let Some((key, value)) = line.split_once('\t') else {
                continue;
            };
            let var = key
                .strip_prefix("var/")
                .ok_or_else(|| format!("{path}: unexpected key {key}"))?;
            let want = expected
                .get(var)
                .ok_or_else(|| format!("{path}: unexpected variable {var}"))?;
            let field = |name: &str| -> Result<f64, String> {
                value
                    .split(' ')
                    .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("{var}: no {name} in {value:?}"))
            };
            let got = (
                field("levels")?,
                field("count")?,
                field("min")?,
                field("max")?,
                field("mean")?,
            );
            let mean_ok = (got.4 - want.4).abs() <= 1e-9 * want.4.abs().max(1e-300);
            if got.0 != want.0 as f64
                || got.1 != want.1 as f64
                || got.2 != want.2
                || got.3 != want.3
                || !mean_ok
            {
                return Err(format!("{var}: pipeline {got:?} vs naive fold {want:?}"));
            }
            if !seen.insert(var.to_string()) {
                return Err(format!("{var}: reported twice"));
            }
        }
    }
    if seen.len() != expected.len() {
        return Err(format!(
            "{} of {} variables reported",
            seen.len(),
            expected.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_records_are_found_by_png_signature() {
        let png = |fill: u8| {
            let mut v = b"\x89PNG\r\n\x1a\n".to_vec();
            v.extend_from_slice(&[fill, b'\n', b'\t', fill]);
            v
        };
        let mut part = Vec::new();
        for (key, fill) in [("img/f/QR/0000", 1u8), ("img/f/QR/0001", 2)] {
            part.extend_from_slice(key.as_bytes());
            part.push(b'\t');
            part.extend_from_slice(&png(fill));
            part.push(b'\n');
        }
        let output = vec![("out/part-r-00000".to_string(), part)];
        let keys: BTreeSet<String> = ["img/f/QR/0000", "img/f/QR/0001"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let samples = vec![("img/f/QR/0001".to_string(), png(2))];
        assert!(check_images(&output, &keys, &samples).is_ok());
        let wrong = vec![("img/f/QR/0001".to_string(), png(3))];
        assert!(check_images(&output, &keys, &wrong).is_err());
        let mut more = keys.clone();
        more.insert("img/f/QR/0002".into());
        assert!(check_images(&output, &more, &samples).is_err());
    }

    #[test]
    fn stats_lines_are_checked_against_the_fold() {
        let mut want = BTreeMap::new();
        want.insert("QR".to_string(), (2u64, 8u64, -1.5f64, 4.0f64, 0.75f64));
        let line = |mean: f64| {
            vec![(
                "stats_out/part-00000".to_string(),
                format!("var/QR\tlevels=2 count=8 min=-1.5 max=4.0 mean={mean:?}\n").into_bytes(),
            )]
        };
        assert!(check_stats(&line(0.75), &want).is_ok());
        assert!(check_stats(&line(0.75 + 1e-12), &want).is_ok());
        assert!(check_stats(&line(0.76), &want).is_err());
        assert!(check_stats(&Vec::new(), &want).is_err());
    }

    #[test]
    fn digest_depends_on_paths_bytes_and_lengths() {
        let a = vec![("p".to_string(), vec![1u8; 17])];
        let b = vec![("p".to_string(), vec![1u8; 18])];
        let c = vec![("q".to_string(), vec![1u8; 17])];
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
