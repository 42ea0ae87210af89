//! The stats DAG's per-level fold: `count`, `sum`, `min` and `max` of the
//! finite values of each level of a slab.

use scifmt::{Array, ArrayData};

/// `(count, sum, min, max)` of the finite values of each level of `array`
/// — one entry per index of its first dimension, each level folded in
/// row-major order. A level with no finite value reads
/// `(0, 0.0, +inf, -inf)`; an array of rank 0 has no levels.
pub fn level_stats(array: &Array) -> Vec<(u64, f64, f64, f64)> {
    let levels = array.shape().first().copied().unwrap_or(0);
    match array.data() {
        ArrayData::F32(v) => fold(v, levels, f64::from),
        ArrayData::F64(v) => fold(v, levels, |x| x),
        ArrayData::I32(v) => fold(v, levels, f64::from),
        ArrayData::I64(v) => fold(v, levels, |x| x as f64),
        ArrayData::U8(v) => fold(v, levels, f64::from),
    }
}

/// The `count` / `sum` / `min` / `max` chains of one level.
#[derive(Clone, Copy)]
struct Chain {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Chain {
    const EMPTY: Chain = Chain {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Fold `x` in with the sequential fold's operations and operand
    /// order. A non-finite `x` goes in as each operation's identity instead
    /// of behind a branch: `count + 0`, `+inf` for `min`, `-inf` for `max`,
    /// and `sum + 0.0` — exact, since a sum that starts at `+0.0` never
    /// becomes `-0.0` under round-to-nearest, and `s + 0.0 == s` for every
    /// other `s`.
    #[inline(always)]
    fn push(&mut self, x: f64) {
        let finite = x.is_finite();
        self.count += u64::from(finite);
        self.sum += if finite { x } else { 0.0 };
        self.min = self.min.min(if finite { x } else { f64::INFINITY });
        self.max = self.max.max(if finite { x } else { f64::NEG_INFINITY });
    }

    fn stats(self) -> (u64, f64, f64, f64) {
        (self.count, self.sum, self.min, self.max)
    }
}

/// [`level_stats`] over the elements of one dtype: two levels at a time in
/// lockstep, each in chains of its own, then a level left over alone. One
/// level's fold waits on the latency of its `+` / `min` / `max` chains;
/// a pair's chains overlap (LLVM packs them into SSE2 `addpd` / `minpd` /
/// `maxpd`), and more chains measured slower (DESIGN.md §3.1 *Typed
/// runs*).
fn fold<T: Copy>(data: &[T], levels: usize, widen: impl Fn(T) -> f64) -> Vec<(u64, f64, f64, f64)> {
    let level = data.len().checked_div(levels).unwrap_or(0);
    if level == 0 {
        return vec![Chain::EMPTY.stats(); levels];
    }
    let mut out = Vec::with_capacity(levels);
    let mut pairs = data.chunks_exact(2 * level);
    for pair in pairs.by_ref() {
        let (a, b) = pair.split_at(level);
        let (mut p, mut q) = (Chain::EMPTY, Chain::EMPTY);
        for (&x, &y) in a.iter().zip(b) {
            p.push(widen(x));
            q.push(widen(y));
        }
        out.extend([p.stats(), q.stats()]);
    }
    for alone in pairs.remainder().chunks_exact(level) {
        let mut p = Chain::EMPTY;
        for &x in alone {
            p.push(widen(x));
        }
        out.push(p.stats());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scirng::Rng;

    /// The fold the stats DAG's read closure ran one element at a time:
    /// the reference the lockstep fold must match bit for bit.
    fn level_stats_sequential(array: &Array) -> Vec<(u64, f64, f64, f64)> {
        let levels = array.shape().first().copied().unwrap_or(0);
        let level = array.len().checked_div(levels).unwrap_or(0);
        (0..levels)
            .map(|l| {
                let mut count = 0u64;
                let (mut sum, mut mn, mut mx) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
                array.for_each_f64(l * level..(l + 1) * level, |v| {
                    if v.is_finite() {
                        count += 1;
                        sum += v;
                        mn = mn.min(v);
                        mx = mx.max(v);
                    }
                });
                (count, sum, mn, mx)
            })
            .collect()
    }

    fn bits(stats: &[(u64, f64, f64, f64)]) -> Vec<(u64, u64, u64, u64)> {
        stats
            .iter()
            .map(|&(c, s, mn, mx)| (c, s.to_bits(), mn.to_bits(), mx.to_bits()))
            .collect()
    }

    /// How a generated level is filled.
    #[derive(Clone, Copy, Debug)]
    enum Fill {
        /// Finite values with a sprinkle of NaN, ±inf and ±0.
        Mixed,
        /// NaN and ±inf only.
        NoFinite,
        /// Starts `+0, -0`, then mixed.
        PlusMinusZero,
        /// Starts `-0, +0`, then mixed.
        MinusPlusZero,
        /// Starts with a non-finite value, then mixed.
        NonFiniteFirst,
    }

    const FILLS: [Fill; 5] = [
        Fill::Mixed,
        Fill::NoFinite,
        Fill::PlusMinusZero,
        Fill::MinusPlusZero,
        Fill::NonFiniteFirst,
    ];

    fn level_values(rng: &mut Rng, fill: Fill, n: usize) -> Vec<f64> {
        const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let non_finite = |rng: &mut Rng| NON_FINITE[rng.below(NON_FINITE.len())];
        let head: &[f64] = match fill {
            Fill::PlusMinusZero => &[0.0, -0.0],
            Fill::MinusPlusZero => &[-0.0, 0.0],
            _ => &[],
        };
        let mut v: Vec<f64> = head.iter().copied().take(n).collect();
        if let (Fill::NonFiniteFirst, true) = (fill, n > 0) {
            v.push(non_finite(rng));
        }
        while v.len() < n {
            v.push(match (fill, rng.below(12)) {
                (Fill::NoFinite, _) | (_, 0) => non_finite(rng),
                (_, 1) => 0.0,
                (_, 2) => -0.0,
                // Magnitudes far apart, so the sum's rounding depends on
                // the order it is taken in.
                (_, 3) => rng.range_f64(-1e17, 1e17),
                _ => rng.range_f64(-1e3, 1e3),
            });
        }
        v
    }

    /// `levels` levels of `n` values of `dtype`, level `l` filled with
    /// `FILLS[(first + l) % 5]` and cast (integers and bytes have no
    /// non-finite value: those become 0).
    fn array(rng: &mut Rng, dtype: usize, levels: usize, n: usize, first: usize) -> Array {
        let values: Vec<f64> = (0..levels)
            .flat_map(|l| level_values(rng, FILLS[(first + l) % FILLS.len()], n))
            .collect();
        let int = |v: f64| if v.is_finite() { v } else { 0.0 };
        let data = match dtype {
            0 => ArrayData::F32(values.iter().map(|&v| v as f32).collect()),
            1 => ArrayData::F64(values),
            2 => ArrayData::I32(values.iter().map(|&v| int(v) as i32).collect()),
            3 => ArrayData::I64(values.iter().map(|&v| int(v) as i64).collect()),
            _ => ArrayData::U8(values.iter().map(|&v| int(v) as u8).collect()),
        };
        Array::new(vec![levels, n], data).unwrap()
    }

    #[test]
    fn lockstep_fold_matches_the_sequential_one_bit_for_bit() {
        let mut rng = Rng::seed_from_u64(0x5ca1_ab1e);
        for dtype in 0..5 {
            for levels in [1, 2, 3, 10] {
                for n in [0, 1, 2, 7, 64] {
                    for rep in 0..2 * FILLS.len() {
                        let a = array(&mut rng, dtype, levels, n, rep);
                        assert_eq!(
                            bits(&level_stats(&a)),
                            bits(&level_stats_sequential(&a)),
                            "{:?}, {levels} levels of {n}",
                            a.dtype()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_levels_and_levels_without_a_finite_value_are_identities() {
        let empty = (0u64, 0.0f64, f64::INFINITY, f64::NEG_INFINITY);
        for levels in [1, 2, 3, 10] {
            let a = Array::from_f32(vec![levels, 0, 4], Vec::new()).unwrap();
            assert_eq!(bits(&level_stats(&a)), bits(&vec![empty; levels]));
            let a = Array::from_f64(
                vec![levels, 3],
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].repeat(levels),
            )
            .unwrap();
            assert_eq!(bits(&level_stats(&a)), bits(&vec![empty; levels]));
        }
        let scalar = Array::from_f64(vec![], vec![1.0]).unwrap();
        assert!(level_stats(&scalar).is_empty());
    }
}
