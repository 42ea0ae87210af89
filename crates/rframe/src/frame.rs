//! Columnar data frames, the R `data.frame` equivalent.

use std::collections::HashMap;
use std::fmt;

use crate::error::{FrameError, Result};

/// A single cell value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    F64(f64),
    I64(i64),
    Str(String),
}

impl Value {
    /// Numeric view (integers widen; strings are NaN).
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::F64(v) => *v,
            Value::I64(v) => *v as f64,
            Value::Str(_) => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A typed column.
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    F64(Vec<f64>),
    I64(Vec<i64>),
    Str(Vec<String>),
}

impl Column {
    pub fn len(&self) -> usize {
        match self {
            Column::F64(v) => v.len(),
            Column::I64(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cell at `row` as a [`Value`].
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::F64(v) => Value::F64(v[row]),
            Column::I64(v) => Value::I64(v[row]),
            Column::Str(v) => Value::Str(v[row].clone()),
        }
    }

    /// Numeric view of a cell.
    pub fn f64_at(&self, row: usize) -> f64 {
        match self {
            Column::F64(v) => v[row],
            Column::I64(v) => v[row] as f64,
            Column::Str(_) => f64::NAN,
        }
    }

    fn take(&self, rows: &[usize]) -> Column {
        match self {
            Column::F64(v) => Column::F64(rows.iter().map(|&r| v[r]).collect()),
            Column::I64(v) => Column::I64(rows.iter().map(|&r| v[r]).collect()),
            Column::Str(v) => Column::Str(rows.iter().map(|&r| v[r].clone()).collect()),
        }
    }

    fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::F64(a), Column::F64(b)) => a.extend_from_slice(b),
            (Column::I64(a), Column::I64(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => a.extend_from_slice(b),
            _ => {
                return Err(FrameError::Invalid(
                    "cannot append columns of different types".into(),
                ))
            }
        }
        Ok(())
    }
}

/// A named collection of equal-length columns.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataFrame {
    names: Vec<String>,
    cols: Vec<Column>,
}

impl DataFrame {
    pub fn new() -> DataFrame {
        DataFrame::default()
    }

    /// Add a column (builder style). All columns must share one length.
    pub fn with_column(mut self, name: impl Into<String>, col: Column) -> Result<DataFrame> {
        let name = name.into();
        if let Some(first) = self.cols.first() {
            if col.len() != first.len() {
                return Err(FrameError::LengthMismatch {
                    expected: first.len(),
                    got: col.len(),
                });
            }
        }
        if self.names.contains(&name) {
            return Err(FrameError::Invalid(format!("duplicate column {name}")));
        }
        self.names.push(name);
        self.cols.push(col);
        Ok(self)
    }

    pub fn n_rows(&self) -> usize {
        self.cols.first().map_or(0, Column::len)
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }

    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| FrameError::NoSuchColumn(name.to_string()))?;
        Ok(&self.cols[idx])
    }

    pub fn column_at(&self, idx: usize) -> &Column {
        &self.cols[idx]
    }

    /// Numeric column view, or a type error.
    pub fn f64_column(&self, name: &str) -> Result<&Vec<f64>> {
        match self.column(name)? {
            Column::F64(v) => Ok(v),
            _ => Err(FrameError::TypeMismatch {
                column: name.to_string(),
                expected: "f64",
            }),
        }
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                got: mask.len(),
            });
        }
        let rows: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| m.then_some(i))
            .collect();
        Ok(self.take_rows(&rows))
    }

    /// Select rows by index (rows may repeat or reorder).
    fn take_rows(&self, rows: &[usize]) -> DataFrame {
        DataFrame {
            names: self.names.clone(),
            cols: self.cols.iter().map(|c| c.take(rows)).collect(),
        }
    }

    /// Stable sort by one column; NaNs sort last. `desc` flips the order.
    pub fn sort_by(&self, name: &str, desc: bool) -> Result<DataFrame> {
        let col = self.column(name)?;
        let mut idx: Vec<usize> = (0..self.n_rows()).collect();
        match col {
            Column::Str(v) => idx.sort_by(|&a, &b| {
                let o = v[a].cmp(&v[b]);
                if desc {
                    o.reverse()
                } else {
                    o
                }
            }),
            _ => idx.sort_by(|&a, &b| {
                let (x, y) = (col.f64_at(a), col.f64_at(b));
                let o = match (x.is_nan(), y.is_nan()) {
                    (true, true) => std::cmp::Ordering::Equal,
                    (true, false) => std::cmp::Ordering::Greater,
                    (false, true) => std::cmp::Ordering::Less,
                    (false, false) => x.total_cmp(&y),
                };
                if desc && !x.is_nan() && !y.is_nan() {
                    o.reverse()
                } else {
                    o
                }
            }),
        }
        Ok(self.take_rows(&idx))
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let rows: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take_rows(&rows)
    }

    /// Project a subset of columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for &n in names {
            out = out.with_column(n, self.column(n)?.clone())?;
        }
        Ok(out)
    }

    /// Append another frame with identical schema.
    pub fn append(&mut self, other: &DataFrame) -> Result<()> {
        if self.n_cols() == 0 {
            *self = other.clone();
            return Ok(());
        }
        if self.names != other.names {
            return Err(FrameError::Invalid(format!(
                "schema mismatch: {:?} vs {:?}",
                self.names, other.names
            )));
        }
        for (a, b) in self.cols.iter_mut().zip(&other.cols) {
            a.append(b)?;
        }
        Ok(())
    }

    /// Vertically concatenate frames with identical schemas.
    pub fn concat<'a>(frames: impl IntoIterator<Item = &'a DataFrame>) -> Result<DataFrame> {
        let mut out = DataFrame::new();
        for f in frames {
            out.append(f)?;
        }
        Ok(out)
    }

    /// Row as name→value map (slow; debugging / tests).
    pub fn row(&self, r: usize) -> HashMap<String, Value> {
        self.names
            .iter()
            .zip(&self.cols)
            .map(|(n, c)| (n.clone(), c.value(r)))
            .collect()
    }

    /// Approximate in-memory size in bytes (for shuffle accounting).
    pub fn approx_bytes(&self) -> usize {
        self.cols
            .iter()
            .map(|c| match c {
                Column::F64(v) => v.len() * 8,
                Column::I64(v) => v.len() * 8,
                Column::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DataFrame {
        DataFrame::new()
            .with_column("x", Column::F64(vec![3.0, 1.0, 2.0]))
            .unwrap()
            .with_column("n", Column::I64(vec![30, 10, 20]))
            .unwrap()
            .with_column("s", Column::Str(vec!["c".into(), "a".into(), "b".into()]))
            .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let df = sample();
        assert_eq!(df.n_rows(), 3);
        assert_eq!(df.n_cols(), 3);
        assert_eq!(df.f64_column("x").unwrap()[1], 1.0);
        assert!(df.column("missing").is_err());
        assert!(df.f64_column("s").is_err());
        assert_eq!(df.row(0)["s"], Value::Str("c".into()));
    }

    #[test]
    fn length_and_duplicate_checks() {
        let df = DataFrame::new()
            .with_column("a", Column::F64(vec![1.0]))
            .unwrap();
        assert!(matches!(
            df.clone().with_column("b", Column::F64(vec![1.0, 2.0])),
            Err(FrameError::LengthMismatch { .. })
        ));
        assert!(df.with_column("a", Column::F64(vec![2.0])).is_err());
    }

    #[test]
    fn filter_and_head() {
        let df = sample();
        let f = df.filter(&[true, false, true]).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.f64_column("x").unwrap(), &vec![3.0, 2.0]);
        assert!(df.filter(&[true]).is_err());
        assert_eq!(df.head(2).n_rows(), 2);
        assert_eq!(df.head(10).n_rows(), 3);
    }

    #[test]
    fn sorting() {
        let df = sample();
        let s = df.sort_by("x", false).unwrap();
        assert_eq!(s.f64_column("x").unwrap(), &vec![1.0, 2.0, 3.0]);
        assert_eq!(
            s.column("s").unwrap().value(0),
            Value::Str("a".into()),
            "rows move together"
        );
        let d = df.sort_by("x", true).unwrap();
        assert_eq!(d.f64_column("x").unwrap(), &vec![3.0, 2.0, 1.0]);
        let by_str = df.sort_by("s", false).unwrap();
        assert_eq!(by_str.column("s").unwrap().value(0), Value::Str("a".into()));
    }

    #[test]
    fn nan_sorts_last() {
        let df = DataFrame::new()
            .with_column("x", Column::F64(vec![f64::NAN, 1.0, 0.5]))
            .unwrap();
        let s = df.sort_by("x", false).unwrap();
        let v = s.f64_column("x").unwrap();
        assert_eq!(v[0], 0.5);
        assert!(v[2].is_nan());
        let d = df.sort_by("x", true).unwrap();
        let v = d.f64_column("x").unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[2].is_nan(), "NaN stays last even descending");
    }

    #[test]
    fn select_and_concat() {
        let df = sample();
        let p = df.select(&["s", "x"]).unwrap();
        assert_eq!(p.names(), &["s".to_string(), "x".into()]);
        let c = DataFrame::concat([&df, &df]).unwrap();
        assert_eq!(c.n_rows(), 6);
        let other = DataFrame::new()
            .with_column("y", Column::F64(vec![1.0]))
            .unwrap();
        assert!(DataFrame::concat([&df, &other]).is_err());
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let small = sample();
        let big = DataFrame::concat([&small, &small, &small]).unwrap();
        assert!(big.approx_bytes() > 2 * small.approx_bytes());
    }

    #[test]
    fn empty_frame_behaviour() {
        let df = DataFrame::new();
        assert_eq!(df.n_rows(), 0);
        assert_eq!(df.head(5).n_rows(), 0);
        let mut d2 = DataFrame::new();
        d2.append(&sample()).unwrap();
        assert_eq!(d2.n_rows(), 3);
    }
}
