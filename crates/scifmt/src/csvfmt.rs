//! CSV ("flat") representation of array data.
//!
//! The conventional Hadoop pipelines in the paper cannot read netCDF: they
//! require scientific files to be dumped as coordinate+value text first.
//! This module produces exactly that text (one row per element, index
//! coordinates plus the value in scientific notation) — it is the real data
//! the `read.table` path of the baselines parses back.

use crate::array::Array;

/// Render an array as CSV with a header of dimension names plus `value`.
///
/// ```
/// use scifmt::{Array, csvfmt};
/// let a = Array::from_f32(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
/// let text = csvfmt::array_to_csv(&["lat", "lon"], &a);
/// assert!(text.starts_with("lat,lon,value\n0,0,"));
/// assert_eq!(text.lines().count(), 5);
/// ```
pub fn array_to_csv(dim_names: &[&str], array: &Array) -> String {
    assert_eq!(dim_names.len(), array.rank(), "dim name count != rank");
    let mut out = String::with_capacity(array.len() * 24 + 32);
    for d in dim_names {
        out.push_str(d);
        out.push(',');
    }
    out.push_str("value\n");
    let shape = array.shape().to_vec();
    let rank = shape.len();
    let mut coords = vec![0usize; rank];
    for i in 0..array.len() {
        for c in &coords {
            push_usize(&mut out, *c);
            out.push(',');
        }
        // Fixed-width scientific notation: what a real converter emits, and
        // the source of the paper's ~33x text blow-up relative to the
        // compressed binary.
        let v = array.get_f64(i);
        fmt_value(&mut out, v);
        out.push('\n');
        // Advance odometer.
        let mut d = rank;
        while d > 0 {
            d -= 1;
            coords[d] += 1;
            if coords[d] < shape[d] {
                break;
            }
            coords[d] = 0;
        }
    }
    out
}

fn push_usize(out: &mut String, mut v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).unwrap());
}

fn fmt_value(out: &mut String, v: f64) {
    use std::fmt::Write;
    write!(out, "{v:.8e}").expect("writing to String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_and_rows() {
        let a = Array::from_f32(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let text = array_to_csv(&["lat", "lon"], &a);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7);
        assert_eq!(lines[0], "lat,lon,value");
        assert!(lines[1].starts_with("0,0,"));
        assert!(lines[6].starts_with("1,2,"));
        assert!(lines[6].ends_with("e0"));
    }

    #[test]
    fn values_roundtrip_through_text() {
        let vals = vec![0.0f32, -1.5, 3.25e-6, 9.875e7];
        let a = Array::from_f32(vec![4], vals.clone()).unwrap();
        let text = array_to_csv(&["i"], &a);
        for (line, v) in text.lines().skip(1).zip(vals) {
            let field = line.split(',').nth(1).unwrap();
            let parsed: f64 = field.parse().unwrap();
            assert!(
                (parsed - v as f64).abs() <= 1e-7 * v.abs() as f64,
                "{parsed} vs {v}"
            );
        }
    }

    #[test]
    fn expansion_is_large() {
        // Text must be many times larger than the 4-byte binary element.
        let a = Array::from_f32(vec![10, 10, 10], vec![1.234567e-3; 1000]).unwrap();
        let text = array_to_csv(&["a", "b", "c"], &a);
        let ratio = text.len() as f64 / (1000.0 * 4.0);
        assert!(ratio > 4.0, "text expansion ratio {ratio:.1} too small");
    }

    #[test]
    fn scalar_rank_zero() {
        let a = Array::from_f64(vec![], vec![42.0]).unwrap();
        let text = array_to_csv(&[], &a);
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().starts_with("4.2"));
    }
}
