//! Columnar executor kernels: a predicate IR with vectorised evaluation
//! and zone-map pruning, plus the aggregate fold `sqldf` uses to consume
//! typed columns without row-at-a-time `Value` materialisation.
//!
//! The predicate IR is the piece of a `WHERE` clause that can travel
//! *down* the stack: `scidp` extracts it from the query (see
//! `sql::where_predicate`), prunes SNC chunks whose zone maps cannot
//! satisfy it, and applies [`Predicate::eval_mask`] to the surviving
//! columnar batch. Every method here mirrors the row-at-a-time `sqldf`
//! semantics bit for bit — pushdown is an optimisation, never a semantics
//! change.

use std::collections::BTreeSet;

use crate::error::Result;
use crate::frame::{Column, DataFrame};

/// A comparison operator of the predicate IR.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`lit op col` → `col op' lit`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// IEEE comparison — identical to the `sqldf` row evaluator, so any
    /// comparison with NaN is false except `!=`, which is true.
    #[inline]
    fn cmp_f64(self, x: f64, y: f64) -> bool {
        match self {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }

    /// String comparison over an [`Ordering`](std::cmp::Ordering).
    #[inline]
    fn cmp_ord(self, o: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => o == Equal,
            CmpOp::Ne => o != Equal,
            CmpOp::Lt => o == Less,
            CmpOp::Le => o != Greater,
            CmpOp::Gt => o == Greater,
            CmpOp::Ge => o != Less,
        }
    }
}

/// A literal operand of a comparison.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    Num(f64),
    Str(String),
}

impl Lit {
    /// Numeric view, mirroring `Value::as_f64` (strings widen to NaN).
    pub fn as_f64(&self) -> f64 {
        match self {
            Lit::Num(v) => *v,
            Lit::Str(_) => f64::NAN,
        }
    }
}

/// The pushdown predicate IR: the subset of `WHERE` clauses that compare
/// columns against literals under `AND`/`OR`/`NOT`. Extracted from SQL by
/// `sql::where_predicate`; anything richer simply does not convert and the
/// query falls back to a full scan.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    Cmp { col: String, op: CmpOp, lit: Lit },
    And(Box<Predicate>, Box<Predicate>),
    Or(Box<Predicate>, Box<Predicate>),
    Not(Box<Predicate>),
}

/// Statistics of one column over a row range — the zone-map view the
/// pruning pass consults. `min`/`max` are over non-null values; `null_count`
/// counts NaN rows out of `n` total.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ColStats {
    pub min: f64,
    pub max: f64,
    pub null_count: u64,
    /// Total rows the stats summarize.
    pub n: u64,
}

/// Tri-state result of pruning a predicate against column stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchBound {
    /// No row in the range can match — the range may be skipped.
    None,
    /// Some rows may match (or the stats are insufficient to decide).
    Some,
    /// Every row in the range matches.
    All,
}

impl Predicate {
    /// Every column name the predicate references.
    pub fn columns(&self) -> BTreeSet<&str> {
        let mut out = BTreeSet::new();
        fn walk<'a>(p: &'a Predicate, out: &mut BTreeSet<&'a str>) {
            match p {
                Predicate::Cmp { col, .. } => {
                    out.insert(col.as_str());
                }
                Predicate::And(l, r) | Predicate::Or(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                Predicate::Not(e) => walk(e, out),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Vectorised evaluation: one boolean per row, bit-identical to the
    /// row-at-a-time `sqldf` evaluation of the same `WHERE` clause.
    pub fn eval_mask(&self, df: &DataFrame) -> Result<Vec<bool>> {
        match self {
            Predicate::Cmp { col, op, lit } => {
                let c = df.column(col)?;
                match (c, lit) {
                    (Column::Str(v), Lit::Str(s)) => {
                        Ok(v.iter().map(|a| op.cmp_ord(a.as_str().cmp(s))).collect())
                    }
                    _ => {
                        let y = lit.as_f64();
                        Ok((0..df.n_rows())
                            .map(|r| op.cmp_f64(c.f64_at(r), y))
                            .collect())
                    }
                }
            }
            Predicate::And(l, r) => {
                let a = l.eval_mask(df)?;
                let b = r.eval_mask(df)?;
                Ok(a.iter().zip(&b).map(|(&x, &y)| x && y).collect())
            }
            Predicate::Or(l, r) => {
                let a = l.eval_mask(df)?;
                let b = r.eval_mask(df)?;
                Ok(a.iter().zip(&b).map(|(&x, &y)| x || y).collect())
            }
            Predicate::Not(e) => Ok(e.eval_mask(df)?.iter().map(|&x| !x).collect()),
        }
    }

    /// Decide from per-column stats whether any row of a range can match.
    /// `stats` returns `None` for columns it has no information about
    /// (conservatively treated as "some rows may match"). Soundness
    /// contract: if this returns [`MatchBound::None`], `eval_mask` over the
    /// summarized rows is all-false — the range may be skipped without
    /// changing results. Stats may summarize a *superset* of the rows
    /// actually read (a whole chunk vs. its slab intersection); the
    /// interval logic stays sound for any subset.
    pub fn prune(&self, stats: &dyn Fn(&str) -> Option<ColStats>) -> MatchBound {
        match self {
            Predicate::Cmp { col, op, lit } => {
                let Some(st) = stats(col) else {
                    return MatchBound::Some;
                };
                let Lit::Num(y) = lit else {
                    // No string stats in zone maps; also a numeric column
                    // vs. string literal compares against NaN row-wise,
                    // which the NaN guard below would handle identically.
                    return MatchBound::Some;
                };
                let y = *y;
                if y.is_nan() || st.n == 0 {
                    return MatchBound::Some;
                }
                // NaN rows fail every comparison except `!=`.
                let nulls_match = *op == CmpOp::Ne;
                if st.null_count >= st.n {
                    return if nulls_match {
                        MatchBound::All
                    } else {
                        MatchBound::None
                    };
                }
                if st.min.is_nan() || st.max.is_nan() {
                    return MatchBound::Some;
                }
                let valid = match op {
                    CmpOp::Lt => interval(st.max < y, st.min >= y),
                    CmpOp::Le => interval(st.max <= y, st.min > y),
                    CmpOp::Gt => interval(st.min > y, st.max <= y),
                    CmpOp::Ge => interval(st.min >= y, st.max < y),
                    CmpOp::Eq => interval(st.min == y && st.max == y, y < st.min || y > st.max),
                    CmpOp::Ne => interval(y < st.min || y > st.max, st.min == y && st.max == y),
                };
                if st.null_count == 0 {
                    valid
                } else {
                    match (valid, nulls_match) {
                        (MatchBound::All, true) => MatchBound::All,
                        (MatchBound::None, false) => MatchBound::None,
                        _ => MatchBound::Some,
                    }
                }
            }
            Predicate::And(l, r) => match (l.prune(stats), r.prune(stats)) {
                (MatchBound::None, _) | (_, MatchBound::None) => MatchBound::None,
                (MatchBound::All, MatchBound::All) => MatchBound::All,
                _ => MatchBound::Some,
            },
            Predicate::Or(l, r) => match (l.prune(stats), r.prune(stats)) {
                (MatchBound::All, _) | (_, MatchBound::All) => MatchBound::All,
                (MatchBound::None, MatchBound::None) => MatchBound::None,
                _ => MatchBound::Some,
            },
            Predicate::Not(e) => match e.prune(stats) {
                MatchBound::None => MatchBound::All,
                MatchBound::All => MatchBound::None,
                MatchBound::Some => MatchBound::Some,
            },
        }
    }
}

fn interval(all: bool, none: bool) -> MatchBound {
    if all {
        MatchBound::All
    } else if none {
        MatchBound::None
    } else {
        MatchBound::Some
    }
}

/// Vectorised aggregate accumulator — the same fold the row-at-a-time
/// `sqldf` aggregation performs, applied to a whole column at once.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColumnFold {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub seen: bool,
}

impl ColumnFold {
    /// Fold one value in (identical update rule to the row evaluator).
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        if !self.seen || v < self.min {
            self.min = v;
        }
        if !self.seen || v > self.max {
            self.max = v;
        }
        self.seen = true;
    }

    /// The fold of `n` constant 1.0 updates — `COUNT(*)` and friends.
    pub fn of_ones(n: usize) -> ColumnFold {
        let mut f = ColumnFold::default();
        for _ in 0..n {
            f.update(1.0);
        }
        f
    }

    /// Fold a whole column. `keep_non_finite` mirrors the aggregation
    /// rule: `COUNT` folds every value, other aggregates skip non-finite
    /// ones (string cells widen to NaN and are skipped the same way).
    pub fn of_column(col: &Column, keep_non_finite: bool) -> ColumnFold {
        let mut f = ColumnFold::default();
        match col {
            Column::F64(v) => {
                for &x in v {
                    if keep_non_finite || x.is_finite() {
                        f.update(x);
                    }
                }
            }
            Column::I64(v) => {
                for &x in v {
                    f.update(x as f64);
                }
            }
            Column::Str(v) => {
                if keep_non_finite {
                    for _ in v {
                        f.update(f64::NAN);
                    }
                }
            }
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> DataFrame {
        DataFrame::new()
            .with_column("lev", Column::I64(vec![0, 0, 1, 2]))
            .unwrap()
            .with_column("v", Column::F64(vec![1.5, f64::NAN, -2.0, 8.0]))
            .unwrap()
            .with_column(
                "tag",
                Column::Str(vec!["a".into(), "b".into(), "a".into(), "c".into()]),
            )
            .unwrap()
    }

    fn cmp(col: &str, op: CmpOp, lit: Lit) -> Predicate {
        Predicate::Cmp {
            col: col.into(),
            op,
            lit,
        }
    }

    #[test]
    fn mask_matches_scalar_semantics() {
        let df = frame();
        // NaN fails < but satisfies !=.
        let m = cmp("v", CmpOp::Lt, Lit::Num(2.0)).eval_mask(&df).unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        let m = cmp("v", CmpOp::Ne, Lit::Num(2.0)).eval_mask(&df).unwrap();
        assert_eq!(m, vec![true, true, true, true]);
        // String equality, and string-vs-number (all NaN → only != holds).
        let m = cmp("tag", CmpOp::Eq, Lit::Str("a".into()))
            .eval_mask(&df)
            .unwrap();
        assert_eq!(m, vec![true, false, true, false]);
        let m = cmp("tag", CmpOp::Lt, Lit::Num(1.0)).eval_mask(&df).unwrap();
        assert_eq!(m, vec![false; 4]);
        // Boolean structure.
        let p = Predicate::And(
            Box::new(cmp("lev", CmpOp::Le, Lit::Num(1.0))),
            Box::new(Predicate::Not(Box::new(cmp("v", CmpOp::Lt, Lit::Num(0.0))))),
        );
        assert_eq!(p.eval_mask(&df).unwrap(), vec![true, true, false, false]);
        // Unknown column is a typed error, not a silent skip.
        assert!(cmp("nope", CmpOp::Eq, Lit::Num(0.0))
            .eval_mask(&df)
            .is_err());
    }

    #[test]
    fn prune_interval_logic() {
        let st = ColStats {
            min: 10.0,
            max: 20.0,
            null_count: 0,
            n: 8,
        };
        let stats = |c: &str| (c == "v").then_some(st);
        let check = |op, y, want| {
            assert_eq!(cmp("v", op, Lit::Num(y)).prune(&stats), want, "{op:?} {y}");
        };
        check(CmpOp::Lt, 25.0, MatchBound::All);
        check(CmpOp::Lt, 15.0, MatchBound::Some);
        check(CmpOp::Lt, 10.0, MatchBound::None);
        check(CmpOp::Ge, 10.0, MatchBound::All);
        check(CmpOp::Ge, 21.0, MatchBound::None);
        check(CmpOp::Eq, 5.0, MatchBound::None);
        check(CmpOp::Eq, 15.0, MatchBound::Some);
        check(CmpOp::Ne, 5.0, MatchBound::All);
        // Unknown column → cannot decide.
        assert_eq!(
            cmp("other", CmpOp::Eq, Lit::Num(0.0)).prune(&stats),
            MatchBound::Some
        );
        // Degenerate single-value interval.
        let one = ColStats {
            min: 7.0,
            max: 7.0,
            null_count: 0,
            n: 1,
        };
        let stats1 = |_: &str| Some(one);
        assert_eq!(
            cmp("v", CmpOp::Eq, Lit::Num(7.0)).prune(&stats1),
            MatchBound::All
        );
        assert_eq!(
            cmp("v", CmpOp::Ne, Lit::Num(7.0)).prune(&stats1),
            MatchBound::None
        );
    }

    #[test]
    fn prune_null_handling_is_sound() {
        // A chunk with some NaN rows: All downgrades (NaN fails <), and !=
        // stays Some rather than None.
        let st = ColStats {
            min: 0.0,
            max: 1.0,
            null_count: 3,
            n: 10,
        };
        let stats = |_: &str| Some(st);
        assert_eq!(
            cmp("v", CmpOp::Lt, Lit::Num(5.0)).prune(&stats),
            MatchBound::Some
        );
        assert_eq!(
            cmp("v", CmpOp::Gt, Lit::Num(5.0)).prune(&stats),
            MatchBound::None,
            "nulls don't satisfy > either"
        );
        // All-NaN chunk: only != matches; NOT(=) must not be skipped wrongly.
        let nan = ColStats {
            min: f64::NAN,
            max: f64::NAN,
            null_count: 4,
            n: 4,
        };
        let nstats = |_: &str| Some(nan);
        assert_eq!(
            cmp("v", CmpOp::Eq, Lit::Num(0.0)).prune(&nstats),
            MatchBound::None
        );
        assert_eq!(
            cmp("v", CmpOp::Ne, Lit::Num(0.0)).prune(&nstats),
            MatchBound::All
        );
        let not_eq = Predicate::Not(Box::new(cmp("v", CmpOp::Eq, Lit::Num(0.0))));
        assert_eq!(not_eq.prune(&nstats), MatchBound::All);
        // NaN literal: undecidable, never skip.
        assert_eq!(
            cmp("v", CmpOp::Eq, Lit::Num(f64::NAN)).prune(&stats),
            MatchBound::Some
        );
    }

    #[test]
    fn prune_matches_mask_exhaustively() {
        // Soundness check: for every op × literal over a frame, a None
        // verdict from chunk-level stats implies an all-false mask.
        let vals = vec![1.0, 2.0, f64::NAN, 4.0];
        let df = DataFrame::new()
            .with_column("v", Column::F64(vals.clone()))
            .unwrap();
        let finite: Vec<f64> = vals.iter().copied().filter(|v| !v.is_nan()).collect();
        let st = ColStats {
            min: finite.iter().copied().fold(f64::INFINITY, f64::min),
            max: finite.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            null_count: (vals.len() - finite.len()) as u64,
            n: vals.len() as u64,
        };
        let stats = |_: &str| Some(st);
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for y in [-1.0, 1.0, 2.5, 4.0, 9.0] {
                for p in [
                    cmp("v", op, Lit::Num(y)),
                    Predicate::Not(Box::new(cmp("v", op, Lit::Num(y)))),
                ] {
                    let mask = p.eval_mask(&df).unwrap();
                    match p.prune(&stats) {
                        MatchBound::None => {
                            assert!(mask.iter().all(|&b| !b), "{p:?} unsound skip")
                        }
                        MatchBound::All => {
                            assert!(mask.iter().all(|&b| b), "{p:?} unsound keep-all")
                        }
                        MatchBound::Some => {}
                    }
                }
            }
        }
    }

    #[test]
    fn column_fold_matches_row_fold() {
        let col = Column::F64(vec![3.0, f64::NAN, -1.0, f64::INFINITY, 2.0]);
        let f = ColumnFold::of_column(&col, false);
        assert_eq!(f.count, 3);
        assert_eq!(f.sum, 4.0);
        assert_eq!(f.min, -1.0);
        assert_eq!(f.max, 3.0);
        let c = ColumnFold::of_column(&col, true);
        assert_eq!(c.count, 5, "COUNT keeps non-finite values");
        let ones = ColumnFold::of_ones(4);
        assert_eq!(
            (ones.count, ones.sum, ones.min, ones.max),
            (4, 4.0, 1.0, 1.0)
        );
        let empty = ColumnFold::of_column(&Column::F64(vec![]), false);
        assert!(!empty.seen);
    }
}
