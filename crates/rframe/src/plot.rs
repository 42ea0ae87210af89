//! `image2D`: rasterise a 2-D field into a colour-mapped RGBA image
//! (the `plot3D::image2D` + Cairo pipeline of the paper's visualization
//! phase) — real compute the reproduction performs for every plotted
//! level. One image is one serial pass; the plot path renders a slab's
//! levels in parallel instead (`scidp::rapi::RCtx::plot_levels`).

use crate::error::{FrameError, Result};

/// Colour maps (control-point interpolated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColorMap {
    /// Perceptually uniform dark-blue → green → yellow.
    Viridis,
    /// Classic rainbow (IDL-style, what older Earth-science plots used).
    Jet,
    /// Linear greyscale.
    Grey,
}

/// Viridis control points, evenly spaced on `[0, 1]`.
#[allow(clippy::approx_constant)] // 0.318 is a viridis control point
const VIRIDIS: [[f64; 3]; 11] = [
    [0.267, 0.005, 0.329],
    [0.283, 0.141, 0.458],
    [0.254, 0.265, 0.530],
    [0.207, 0.372, 0.553],
    [0.164, 0.471, 0.558],
    [0.128, 0.567, 0.551],
    [0.135, 0.659, 0.518],
    [0.267, 0.749, 0.441],
    [0.478, 0.821, 0.318],
    [0.741, 0.873, 0.150],
    [0.993, 0.906, 0.144],
];

/// Jet control points, evenly spaced on `[0, 1]`.
const JET: [[f64; 3]; 9] = [
    [0.0, 0.0, 0.5],
    [0.0, 0.0, 1.0],
    [0.0, 0.5, 1.0],
    [0.0, 1.0, 1.0],
    [0.5, 1.0, 0.5],
    [1.0, 1.0, 0.0],
    [1.0, 0.5, 0.0],
    [1.0, 0.0, 0.0],
    [0.5, 0.0, 0.0],
];

/// Greyscale control points: black to white.
const GREY: [[f64; 3]; 2] = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]];

impl ColorMap {
    /// The map's control points (at least two).
    fn points(self) -> &'static [[f64; 3]] {
        match self {
            ColorMap::Viridis => &VIRIDIS,
            ColorMap::Jet => &JET,
            ColorMap::Grey => &GREY,
        }
    }

    /// Map `t ∈ [0,1]` to RGB (out-of-range `t` clamps; NaN is black).
    pub fn rgb(self, t: f64) -> [u8; 3] {
        interpolate(self.points(), t)
    }
}

/// Piecewise-linear interpolation between evenly spaced control points
/// `pts` (at least two) at `t` clamped to `[0, 1]`, each channel scaled to
/// `0..=255` and rounded half away from zero.
#[inline]
fn interpolate(pts: &[[f64; 3]], t: f64) -> [u8; 3] {
    let last = pts.len() - 1;
    let x = t.clamp(0.0, 1.0) * last as f64;
    // `x >= 0` after the clamp, so truncation is `floor`; NaN casts to 0.
    let i = (x as usize).min(last - 1);
    let f = x - i as f64;
    let Some(&[a, b]) = pts.get(i..i + 2) else {
        return [0; 3];
    };
    let mut rgb = [0u8; 3];
    for ((out, a), b) in rgb.iter_mut().zip(a).zip(b) {
        *out = to_channel(a * (1.0 - f) + b * f);
    }
    rgb
}

/// `(v * 255).round().clamp(0, 255) as u8` without the libm `round`: the
/// channel value `y` is non-negative (or NaN), so its integer part `r` is
/// exact, `y - r` is its exact fraction, and rounding half away from zero
/// adds one when that fraction is at least a half. NaN gives 0, as
/// `NaN as u8` does.
#[inline]
fn to_channel(v: f64) -> u8 {
    let y = v * 255.0;
    let r = y as i32;
    (r + i32::from(y - f64::from(r) >= 0.5)).clamp(0, 255) as u8
}

/// An RGBA raster.
#[derive(Clone, Debug, PartialEq)]
pub struct Raster {
    pub width: u32,
    pub height: u32,
    /// Row-major RGBA, `width * height * 4` bytes.
    pub pixels: Vec<u8>,
}

impl Raster {
    /// Encode as a real PNG (see [`crate::png`]).
    pub fn to_png(&self) -> Vec<u8> {
        crate::png::encode_rgba(self.width, self.height, &self.pixels)
    }

    /// RGBA of one pixel.
    pub fn pixel(&self, x: u32, y: u32) -> [u8; 4] {
        let (pixels, _) = self.pixels.as_chunks::<4>();
        pixels[(y * self.width + x) as usize]
    }
}

/// One axis of the bilinear resampling at one pixel: the two source
/// indices either side of the pixel centre and the weight of the far one.
#[derive(Clone, Copy)]
struct Tap {
    lo: usize,
    hi: usize,
    frac: f64,
}

impl Tap {
    /// The tap of pixel `p` of `pixels` over `cells` source cells.
    fn new(p: usize, pixels: u32, cells: usize) -> Tap {
        // Map the pixel centre to grid coordinates.
        let g = (p as f64 + 0.5) / pixels as f64 * cells as f64 - 0.5;
        let lo = g.floor().clamp(0.0, (cells - 1) as f64) as usize;
        Tap {
            lo,
            hi: (lo + 1).min(cells - 1),
            frac: (g - lo as f64).clamp(0.0, 1.0),
        }
    }
}

/// Bilinear blend of the corners `[v00, v01, v10, v11]` with weight `fx`
/// across and `fy` down: the per-pixel formula's operands, in its order.
#[inline]
fn bilinear([v00, v01, v10, v11]: [f64; 4], fx: f64, fy: f64) -> f64 {
    let (rx, ry) = (1.0 - fx, 1.0 - fy);
    v00 * ry * rx + v01 * ry * fx + v10 * fy * rx + v11 * fy * fx
}

/// Rasterise a row-major `rows x cols` field into a `width x height` image
/// with bilinear resampling and min–max normalisation (NaNs transparent).
pub fn image2d(
    data: &[f64],
    rows: usize,
    cols: usize,
    width: u32,
    height: u32,
    cmap: ColorMap,
) -> Result<Raster> {
    if rows.checked_mul(cols) != Some(data.len()) {
        return Err(FrameError::Invalid(format!(
            "grid {rows}x{cols} != {} values",
            data.len()
        )));
    }
    if rows == 0 || cols == 0 || width == 0 || height == 0 {
        return Err(FrameError::Invalid("empty grid or raster".into()));
    }
    let w = width as usize;
    // `height >= 1`, so a row's `w * 4` bytes cannot overflow either.
    let Some(len) = w
        .checked_mul(height as usize)
        .and_then(|n| n.checked_mul(4))
    else {
        return Err(FrameError::Invalid(format!(
            "raster {width}x{height} does not fit in memory"
        )));
    };
    // Normalisation range over finite values.
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in data {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    let span = if hi > lo { hi - lo } else { 1.0 };
    let pts = cmap.points();
    // Each column's taps, once per image; each row's below, once per row.
    let columns: Vec<Tap> = (0..w).map(|px| Tap::new(px, width, cols)).collect();
    let mut pixels = vec![0u8; len];
    // One thread per image: callers with many images run them in parallel
    // (`scidp`'s `plot_levels`, one level per worker).
    for (py, row_out) in pixels.chunks_exact_mut(w * 4).enumerate() {
        let y = Tap::new(py, height, rows);
        let (Some(row0), Some(row1)) = (
            data.get(y.lo * cols..(y.lo + 1) * cols),
            data.get(y.hi * cols..(y.hi + 1) * cols),
        ) else {
            continue;
        };
        for (out, x) in row_out.chunks_exact_mut(4).zip(&columns) {
            let (Some(&v00), Some(&v01), Some(&v10), Some(&v11)) = (
                row0.get(x.lo),
                row0.get(x.hi),
                row1.get(x.lo),
                row1.get(x.hi),
            ) else {
                continue;
            };
            let v = bilinear([v00, v01, v10, v11], x.frac, y.frac);
            // A non-finite blend stays transparent: the buffer is zeroed.
            if v.is_finite() {
                let [r, g, b] = interpolate(pts, (v - lo) / span);
                out.copy_from_slice(&[r, g, b, 255]);
            }
        }
    }
    Ok(Raster {
        width,
        height,
        pixels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ColorMap::rgb` as it was before the control points became `const`s
    /// and `floor` / `round` became integer casts — the reference the
    /// differential tests compare against.
    #[allow(clippy::approx_constant)] // 0.318 is a viridis control point
    fn rgb_reference(cmap: ColorMap, t: f64) -> [u8; 3] {
        let t = t.clamp(0.0, 1.0);
        let pts: &[[f64; 3]] = match cmap {
            ColorMap::Viridis => &[
                [0.267, 0.005, 0.329],
                [0.283, 0.141, 0.458],
                [0.254, 0.265, 0.530],
                [0.207, 0.372, 0.553],
                [0.164, 0.471, 0.558],
                [0.128, 0.567, 0.551],
                [0.135, 0.659, 0.518],
                [0.267, 0.749, 0.441],
                [0.478, 0.821, 0.318],
                [0.741, 0.873, 0.150],
                [0.993, 0.906, 0.144],
            ],
            ColorMap::Jet => &[
                [0.0, 0.0, 0.5],
                [0.0, 0.0, 1.0],
                [0.0, 0.5, 1.0],
                [0.0, 1.0, 1.0],
                [0.5, 1.0, 0.5],
                [1.0, 1.0, 0.0],
                [1.0, 0.5, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, 0.0, 0.0],
            ],
            ColorMap::Grey => &[[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        };
        let x = t * (pts.len() - 1) as f64;
        let i = (x.floor() as usize).min(pts.len() - 2);
        let f = x - i as f64;
        let mut rgb = [0u8; 3];
        for c in 0..3 {
            let v = pts[i][c] * (1.0 - f) + pts[i + 1][c] * f;
            rgb[c] = (v * 255.0).round().clamp(0.0, 255.0) as u8;
        }
        rgb
    }

    /// `image2d` as it was before the per-column and per-row work was
    /// hoisted out of the pixel loop.
    fn image2d_reference(
        data: &[f64],
        rows: usize,
        cols: usize,
        width: u32,
        height: u32,
        cmap: ColorMap,
    ) -> Vec<u8> {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in data {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        let span = if hi > lo { hi - lo } else { 1.0 };
        let w = width as usize;
        let mut pixels = vec![0u8; w * height as usize * 4];
        for (py, row_out) in pixels.chunks_mut(w * 4).enumerate() {
            let gy = (py as f64 + 0.5) / height as f64 * rows as f64 - 0.5;
            let y0 = gy.floor().clamp(0.0, (rows - 1) as f64) as usize;
            let y1 = (y0 + 1).min(rows - 1);
            let fy = (gy - y0 as f64).clamp(0.0, 1.0);
            for px in 0..w {
                let gx = (px as f64 + 0.5) / width as f64 * cols as f64 - 0.5;
                let x0 = gx.floor().clamp(0.0, (cols - 1) as f64) as usize;
                let x1 = (x0 + 1).min(cols - 1);
                let fx = (gx - x0 as f64).clamp(0.0, 1.0);
                let v00 = data[y0 * cols + x0];
                let v01 = data[y0 * cols + x1];
                let v10 = data[y1 * cols + x0];
                let v11 = data[y1 * cols + x1];
                let v = v00 * (1.0 - fy) * (1.0 - fx)
                    + v01 * (1.0 - fy) * fx
                    + v10 * fy * (1.0 - fx)
                    + v11 * fy * fx;
                let o = px * 4;
                if v.is_finite() {
                    let [r, g, b] = rgb_reference(cmap, (v - lo) / span);
                    row_out[o] = r;
                    row_out[o + 1] = g;
                    row_out[o + 2] = b;
                    row_out[o + 3] = 255;
                } else {
                    row_out[o..o + 4].copy_from_slice(&[0, 0, 0, 0]);
                }
            }
        }
        pixels
    }

    const MAPS: [ColorMap; 3] = [ColorMap::Viridis, ColorMap::Jet, ColorMap::Grey];

    #[test]
    fn rgb_matches_the_reference() {
        for cmap in MAPS {
            let n = cmap.points().len();
            let mut ts: Vec<f64> = Vec::new();
            // A dense grid on [-0.1, 1.1].
            ts.extend((0..=240_000).map(|k| -0.1 + 1.2 * k as f64 / 240_000.0));
            // The segment knots k/(n-1), and their neighbours one ulp away.
            for k in 0..n {
                let knot = k as f64 / (n - 1) as f64;
                ts.extend([knot, knot.next_down(), knot.next_up()]);
            }
            // Each `t` whose channel lands on (or one ulp around) `x.5` at
            // the 255 scale: solve `v(t) * 255 = m + 0.5` on each segment.
            for (i, pair) in cmap.points().windows(2).enumerate() {
                for (&a, &b) in pair[0].iter().zip(&pair[1]) {
                    if a == b {
                        continue;
                    }
                    for m in 0..255 {
                        let f = ((m as f64 + 0.5) / 255.0 - a) / (b - a);
                        if (0.0..=1.0).contains(&f) {
                            let t = (i as f64 + f) / (n - 1) as f64;
                            ts.extend([t, t.next_down(), t.next_up()]);
                        }
                    }
                }
            }
            ts.extend([
                -1.0,
                -0.0,
                1.0,
                2.0,
                f64::MIN_POSITIVE,
                1.0f64.next_down(),
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
            ]);
            for t in ts {
                assert_eq!(cmap.rgb(t), rgb_reference(cmap, t), "{cmap:?} t = {t:e}");
            }
        }
    }

    #[test]
    fn rounding_is_half_away_from_zero_and_nan_is_zero() {
        for y in [
            0.0f64, 0.49, 0.5, 1.5, 2.5, 254.5, 254.49, 255.0, 255.4, 300.0,
        ] {
            let v = y / 255.0;
            let want = (v * 255.0).round().clamp(0.0, 255.0) as u8;
            assert_eq!(to_channel(v), want, "v = {v}");
        }
        assert_eq!(to_channel(2.0 / 255.0 * 0.25), 1, "0.5 rounds up");
        assert_eq!(to_channel(f64::NAN), 0);
        assert_eq!(
            ColorMap::Jet.rgb(f64::NAN),
            rgb_reference(ColorMap::Jet, f64::NAN)
        );
    }

    /// Generated fields: every raster cell of the reference and the kernel
    /// must agree for every colour map.
    #[test]
    fn image2d_matches_the_reference() {
        let mut rng = scirng::Rng::seed_from_u64(0x001a_6e2d);
        let mut cases: Vec<(usize, usize, u32, u32, Vec<f64>)> = Vec::new();
        let ramp = |n: usize| (0..n).map(|i| i as f64 * 0.37 - 3.0).collect::<Vec<_>>();
        // 1x1 grids, onto 1x1 and larger rasters.
        cases.push((1, 1, 1, 1, vec![2.5]));
        cases.push((1, 1, 7, 3, vec![-4.0]));
        // Grids smaller and larger than the raster, odd sizes and the
        // nuwrf_img shape (128² onto 123²).
        for (rows, cols, w, h) in [
            (3, 5, 17, 11),
            (13, 7, 5, 3),
            (1, 9, 31, 2),
            (9, 1, 2, 31),
            (128, 128, 123, 123),
            (40, 50, 97, 70),
        ] {
            cases.push((rows, cols, w, h, ramp(rows * cols)));
        }
        // Constant fields (span falls back to 1), negative values, NaN and
        // ±∞ scattered in, and values whose `hi - lo` overflows to ∞.
        cases.push((4, 6, 9, 7, vec![5.0; 24]));
        cases.push((4, 6, 9, 7, vec![-1e-3; 24]));
        cases.push((2, 2, 8, 8, vec![f64::NAN; 4]));
        cases.push((2, 3, 9, 5, vec![-f64::MAX, 0.0, f64::MAX, 1.0, -1.0, 1e308]));
        for _ in 0..60 {
            let rows = 1 + rng.below(20);
            let cols = 1 + rng.below(20);
            let w = 1 + rng.below(40) as u32;
            let h = 1 + rng.below(40) as u32;
            let data = (0..rows * cols)
                .map(|_| match rng.below(20) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => rng.range_f64(-50.0, 50.0),
                })
                .collect();
            cases.push((rows, cols, w, h, data));
        }
        for (rows, cols, w, h, data) in &cases {
            for cmap in MAPS {
                let got = image2d(data, *rows, *cols, *w, *h, cmap).unwrap();
                let want = image2d_reference(data, *rows, *cols, *w, *h, cmap);
                assert!(
                    got.pixels == want,
                    "{cmap:?} {rows}x{cols} -> {w}x{h}: pixels differ"
                );
            }
        }
    }

    /// The value each pixel blends, to the bit: the taps and the blend
    /// against the per-pixel derivation, on random geometry and corners.
    /// (A one-ulp change in `v` seldom moves an 8-bit channel, so the
    /// pixel comparison above cannot see it.)
    #[test]
    fn blend_matches_the_per_pixel_formula_to_the_bit() {
        let mut rng = scirng::Rng::seed_from_u64(0x00b1_1e4d);
        for _ in 0..20_000 {
            let (rows, cols) = (1 + rng.below(300), 1 + rng.below(300));
            let (width, height) = (1 + rng.below(300) as u32, 1 + rng.below(300) as u32);
            let (px, py) = (rng.below(width as usize), rng.below(height as usize));
            let corners: [f64; 4] = std::array::from_fn(|_| rng.range_f64(-1e3, 1e3));
            let gy = (py as f64 + 0.5) / height as f64 * rows as f64 - 0.5;
            let y0 = gy.floor().clamp(0.0, (rows - 1) as f64) as usize;
            let fy = (gy - y0 as f64).clamp(0.0, 1.0);
            let gx = (px as f64 + 0.5) / width as f64 * cols as f64 - 0.5;
            let x0 = gx.floor().clamp(0.0, (cols - 1) as f64) as usize;
            let fx = (gx - x0 as f64).clamp(0.0, 1.0);
            let [v00, v01, v10, v11] = corners;
            let want = v00 * (1.0 - fy) * (1.0 - fx)
                + v01 * (1.0 - fy) * fx
                + v10 * fy * (1.0 - fx)
                + v11 * fy * fx;
            let (x, y) = (Tap::new(px, width, cols), Tap::new(py, height, rows));
            assert_eq!((x.lo, x.hi), (x0, (x0 + 1).min(cols - 1)));
            assert_eq!((y.lo, y.hi), (y0, (y0 + 1).min(rows - 1)));
            let got = bilinear(corners, x.frac, y.frac);
            assert_eq!(got.to_bits(), want.to_bits(), "{corners:?} fx {fx} fy {fy}");
        }
    }

    #[test]
    fn raster_size_overflow_is_a_typed_error() {
        // (2^32 - 1)^2 · 4 bytes overflows a 64-bit usize.
        assert!(matches!(
            image2d(&[1.0], 1, 1, u32::MAX, u32::MAX, ColorMap::Jet),
            Err(FrameError::Invalid(_))
        ));
    }

    #[test]
    fn grid_size_overflow_is_a_typed_error() {
        // 2 · 2^63 wraps to 0 == data.len() in a release build.
        let half = usize::MAX / 2 + 1;
        assert!(matches!(
            image2d(&[], 2, half, 4, 4, ColorMap::Grey),
            Err(FrameError::Invalid(_))
        ));
    }

    #[test]
    fn colormap_endpoints() {
        assert_eq!(ColorMap::Grey.rgb(0.0), [0, 0, 0]);
        assert_eq!(ColorMap::Grey.rgb(1.0), [255, 255, 255]);
        assert_eq!(ColorMap::Grey.rgb(0.5), [128, 128, 128]);
        // Out-of-range clamps.
        assert_eq!(ColorMap::Grey.rgb(-3.0), [0, 0, 0]);
        assert_eq!(ColorMap::Grey.rgb(7.0), [255, 255, 255]);
        // Jet starts dark blue, ends dark red.
        let lo = ColorMap::Jet.rgb(0.0);
        let hi = ColorMap::Jet.rgb(1.0);
        assert!(lo[2] > lo[0], "jet low end is blue: {lo:?}");
        assert!(hi[0] > hi[2], "jet high end is red: {hi:?}");
    }

    #[test]
    fn gradient_renders_monotonic() {
        // A left-to-right ramp should produce brightness increasing in x.
        let cols = 16;
        let data: Vec<f64> = (0..cols).map(|i| i as f64).collect();
        let r = image2d(&data, 1, cols, 32, 4, ColorMap::Grey).unwrap();
        let left = r.pixel(0, 0)[0];
        let mid = r.pixel(16, 0)[0];
        let right = r.pixel(31, 0)[0];
        assert!(left < mid && mid < right, "{left} {mid} {right}");
        assert_eq!(r.pixel(31, 3)[3], 255);
    }

    #[test]
    fn constant_field_is_uniform() {
        let data = vec![5.0; 9];
        let r = image2d(&data, 3, 3, 6, 6, ColorMap::Viridis).unwrap();
        let p = r.pixel(0, 0);
        for y in 0..6 {
            for x in 0..6 {
                assert_eq!(r.pixel(x, y), p);
            }
        }
    }

    #[test]
    fn nan_pixels_are_transparent() {
        let data = vec![f64::NAN, 1.0, 1.0, 1.0];
        let r = image2d(&data, 2, 2, 2, 2, ColorMap::Jet).unwrap();
        assert_eq!(r.pixel(0, 0)[3], 0, "NaN corner transparent");
        assert_eq!(r.pixel(1, 1)[3], 255);
    }

    #[test]
    fn shape_validation() {
        assert!(image2d(&[1.0; 5], 2, 3, 4, 4, ColorMap::Grey).is_err());
        assert!(image2d(&[], 0, 0, 4, 4, ColorMap::Grey).is_err());
        assert!(image2d(&[1.0], 1, 1, 0, 4, ColorMap::Grey).is_err());
    }

    #[test]
    fn png_output_is_wellformed() {
        let data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let r = image2d(&data, 8, 8, 16, 16, ColorMap::Viridis).unwrap();
        let png = r.to_png();
        assert_eq!(&png[1..4], b"PNG");
        assert!(png.len() > 16 * 16 * 4, "stored deflate, roughly raw size");
    }

    #[test]
    fn image2d_is_deterministic() {
        let data: Vec<f64> = (0..1024).map(|i| ((i * 37) % 101) as f64).collect();
        let a = image2d(&data, 32, 32, 64, 64, ColorMap::Jet).unwrap();
        let b = image2d(&data, 32, 32, 64, 64, ColorMap::Jet).unwrap();
        assert_eq!(a, b);
    }
}
