//! Smooth correlated field synthesis.
//!
//! Real geophysical fields are spatially correlated: neighbouring grid
//! points differ slightly, and float encodings share exponent/high-mantissa
//! bytes — which is exactly why netCDF-4's shuffle+deflate gets its ~3x
//! ratio on NU-WRF output. We synthesize such fields by bilinearly
//! upsampling a coarse noise grid (plus a vertical profile) and quantising
//! mildly, then verify the ratio instead of assuming it.

use scirng::Rng;

/// Deterministic per-(file, variable) RNG.
pub fn field_rng(seed: u64, timestamp: usize, var: usize) -> Rng {
    Rng::seed_from_u64(
        seed ^ (timestamp as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (var as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
    )
}

/// Generate one `levels x lat x lon` field, row-major.
///
/// `base`/`amp` set the physical value range (e.g. rainfall ≥ 0 around
/// `base = 0`, temperature around `base = 280`).
pub fn smooth_field(
    rng: &mut Rng,
    levels: usize,
    lat: usize,
    lon: usize,
    base: f32,
    amp: f32,
) -> Vec<f32> {
    assert!(levels > 0 && lat > 0 && lon > 0);
    // Coarse grid: ~1/8 resolution, at least 2 points for interpolation.
    let clat = (lat / 8).max(2);
    let clon = (lon / 8).max(2);
    let mut out = Vec::with_capacity(levels * lat * lon);
    // Coarse noise evolves slowly between levels (vertical correlation).
    let mut coarse: Vec<f32> = (0..clat * clon).map(|_| rng.range_f32(-1.0, 1.0)).collect();
    // Where every row and column falls on the coarse grid: the same for
    // every level.
    let (rows, cols) = (axis_weights(lat, clat), axis_weights(lon, clon));
    // One row's two coarse rows, pre-weighted by `1 − fy` and `fy`.
    let (mut w0, mut w1) = (Vec::with_capacity(clon), Vec::with_capacity(clon));
    for lev in 0..levels {
        // Vertical profile: fields decay or grow with altitude.
        let profile = 1.0 - 0.8 * (lev as f32 / levels as f32);
        let scale = amp * profile;
        // Drift the coarse grid a little per level.
        for c in coarse.iter_mut() {
            *c = (*c * 0.9 + rng.range_f32(-0.1, 0.1)).clamp(-1.5, 1.5);
        }
        // Bilinear upsample, with the operands and the order of operations
        // of `c00·(1−fy)·(1−fx) + c01·(1−fy)·fx + c10·fy·(1−fx) + c11·fy·fx`
        // per element, so every value is bit-identical to computing it so.
        for ((r0, r1), ys) in with_next(coarse.chunks_exact(clon)).zip(&rows) {
            for &(fy, gy) in ys {
                w0.clear();
                w0.extend(r0.iter().map(|c| c * gy));
                w1.clear();
                w1.extend(r1.iter().map(|c| c * fy));
                for (((a, b), (c, d)), xs) in
                    with_next(w0.iter()).zip(with_next(w1.iter())).zip(&cols)
                {
                    for &(fx, gx) in xs {
                        let v = a * gx + b * fx + c * gx + d * fx;
                        let val = base + scale * v;
                        // Mild quantisation (observational precision, ~6
                        // significant bits of amplitude): zeroes the low
                        // mantissa bits, like packing real model output.
                        out.push((val * 64.0).round() / 64.0);
                    }
                }
            }
        }
    }
    out
}

/// The points `0..n` of one axis placed on its coarse axis of `cn` points,
/// grouped by the coarse interval they fall in: entry `k` holds, in order,
/// the weights `(f, 1 − f)` of every point at `k + f`. Point `j` sits at
/// `j / n · (cn − 1)`, which rounds to at most `cn − 1`, so every point
/// has an entry, and positions never decrease with `j`, so reading the
/// entries in order visits the points in order.
fn axis_weights(n: usize, cn: usize) -> Vec<Vec<(f32, f32)>> {
    let mut runs = vec![Vec::new(); cn];
    for j in 0..n {
        let x = j as f32 / n as f32 * (cn - 1) as f32;
        let k = x.floor() as usize;
        let f = x - k as f32;
        if let Some(run) = runs.get_mut(k) {
            run.push((f, 1.0 - f));
        }
    }
    runs
}

/// Each item with the one after it, the last with itself: the two coarse
/// points an interval interpolates between (the last point's interval
/// holds only the point itself).
fn with_next<I>(items: I) -> impl Iterator<Item = (I::Item, I::Item)>
where
    I: Iterator + Clone,
    I::Item: Clone,
{
    let last = items.clone().last();
    items.clone().zip(items.skip(1).chain(last))
}

/// Per-variable physical ranges (index into [`crate::VAR_NAMES`]).
pub fn var_range(var_idx: usize) -> (f32, f32) {
    match var_idx {
        // Moisture species: non-negative, small.
        0..=5 => (2.0, 2.0),
        // Temperature-like.
        6 => (280.0, 15.0),
        // Winds.
        7..=9 => (0.0, 20.0),
        // Pressures.
        10 | 11 => (850.0, 120.0),
        // Geopotential.
        12 | 13 => (5000.0, 800.0),
        // Everything else: generic surface fields.
        _ => (100.0, 30.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The upsample [`smooth_field`] replaced: coarse coordinates, floors
    /// and weights recomputed for every element. Kept as the reference the
    /// hoisted loop must equal bit for bit.
    fn smooth_field_reference(
        rng: &mut Rng,
        levels: usize,
        lat: usize,
        lon: usize,
        base: f32,
        amp: f32,
    ) -> Vec<f32> {
        let clat = (lat / 8).max(2);
        let clon = (lon / 8).max(2);
        let mut out = Vec::with_capacity(levels * lat * lon);
        let mut coarse: Vec<f32> = (0..clat * clon).map(|_| rng.range_f32(-1.0, 1.0)).collect();
        for lev in 0..levels {
            let profile = 1.0 - 0.8 * (lev as f32 / levels as f32);
            for c in coarse.iter_mut() {
                *c = (*c * 0.9 + rng.range_f32(-0.1, 0.1)).clamp(-1.5, 1.5);
            }
            for i in 0..lat {
                let y = i as f32 / lat as f32 * (clat - 1) as f32;
                let y0 = y.floor() as usize;
                let y1 = (y0 + 1).min(clat - 1);
                let fy = y - y0 as f32;
                for j in 0..lon {
                    let x = j as f32 / lon as f32 * (clon - 1) as f32;
                    let x0 = x.floor() as usize;
                    let x1 = (x0 + 1).min(clon - 1);
                    let fx = x - x0 as f32;
                    let v = coarse[y0 * clon + x0] * (1.0 - fy) * (1.0 - fx)
                        + coarse[y0 * clon + x1] * (1.0 - fy) * fx
                        + coarse[y1 * clon + x0] * fy * (1.0 - fx)
                        + coarse[y1 * clon + x1] * fy * fx;
                    let val = base + amp * profile * v;
                    out.push((val * 64.0).round() / 64.0);
                }
            }
        }
        out
    }

    #[test]
    fn matches_the_per_element_reference_bit_for_bit() {
        // Grids off a multiple of 8, under 16 (two coarse points), one
        // level, and the e2e and bench shapes; every variable's range,
        // including the winds' negative values, whose halves round away
        // from zero.
        let shapes = [
            (1, 1, 1),
            (1, 5, 3),
            (3, 15, 9),
            (2, 8, 8),
            (1, 16, 17),
            (4, 33, 70),
            (2, 64, 64),
            (2, 128, 41),
            (1, 250, 250),
        ];
        for (levels, lat, lon) in shapes {
            for var in 0..crate::VAR_NAMES.len() {
                let (base, amp) = var_range(var);
                let got = smooth_field(&mut field_rng(3, lat, var), levels, lat, lon, base, amp);
                let mut rng = field_rng(3, lat, var);
                let want = smooth_field_reference(&mut rng, levels, lat, lon, base, amp);
                let bits = |f: &[f32]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{levels}x{lat}x{lon} var {var}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = field_rng(1, 2, 3);
        let mut b = field_rng(1, 2, 3);
        let fa = smooth_field(&mut a, 3, 16, 16, 0.0, 1.0);
        let fb = smooth_field(&mut b, 3, 16, 16, 0.0, 1.0);
        assert_eq!(fa, fb);
        let mut c = field_rng(1, 2, 4);
        let fc = smooth_field(&mut c, 3, 16, 16, 0.0, 1.0);
        assert_ne!(fa, fc, "different variables differ");
    }

    #[test]
    fn values_in_physical_range() {
        let mut rng = field_rng(7, 0, 6);
        let (base, amp) = var_range(6);
        let f = smooth_field(&mut rng, 4, 32, 32, base, amp);
        for &v in &f {
            assert!(v > base - 3.0 * amp && v < base + 3.0 * amp, "{v}");
        }
    }

    #[test]
    fn field_is_spatially_smooth() {
        let mut rng = field_rng(7, 0, 0);
        let f = smooth_field(&mut rng, 1, 64, 64, 0.0, 10.0);
        // Neighbour deltas must be much smaller than the global range.
        let max = f.iter().cloned().fold(f32::MIN, f32::max);
        let min = f.iter().cloned().fold(f32::MAX, f32::min);
        let range = max - min;
        let mut max_delta = 0.0f32;
        for i in 0..64 {
            for j in 1..64 {
                max_delta = max_delta.max((f[i * 64 + j] - f[i * 64 + j - 1]).abs());
            }
        }
        assert!(
            max_delta < range * 0.25,
            "field too rough: delta {max_delta}, range {range}"
        );
    }

    #[test]
    fn levels_are_vertically_correlated() {
        let mut rng = field_rng(7, 0, 0);
        let f = smooth_field(&mut rng, 2, 32, 32, 0.0, 10.0);
        let (a, b) = f.split_at(32 * 32);
        // Adjacent levels should be similar (drifted, not independent).
        let diff: f32 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
        let spread: f32 = a.iter().map(|x| x.abs()).sum::<f32>() / a.len() as f32;
        assert!(
            diff < spread,
            "levels uncorrelated: diff {diff}, spread {spread}"
        );
    }
}
