//! Micro-benchmark: chunk codec pipeline scaling.
//!
//! Measures real wall-clock throughput of the parallel chunk pipeline —
//! `SncBuilder::finish_with_threads` (shuffle+LZ compression) and
//! `SncFile::get_var` (decompression + slab assembly) — across worker
//! counts, plus the decompressed-chunk cache's hit-path speedup on repeated
//! reads — and, single-threaded, the chunk decoder, the LZ encoder, the
//! `image2d` rasteriser, the PNG encoder and the stats DAG's level fold
//! against the kernels they replaced (asserted floors: decode 1.8x, encode
//! 1.5x, plot 1.5x, PNG 2.0x, stats fold 1.3x; ratios of two kernels timed
//! in alternation in one process, so they hold on a slow box). 4- and
//! 8-thread rows are recorded only on a host with at least 4 cores: below
//! that they measure oversubscription.

use std::sync::Arc;
use std::time::Instant;

use rframe::{image2d, ColorMap, Raster};
use scidp::level_stats;
use scidp_bench::Clock::{Count, Host};
use scidp_bench::{Rel, Report, Scale};
use scifmt::snc::{chunk_extents_of, DEFAULT_CACHE_BYTES};
use scifmt::{codec, Array, ChunkCache, Codec, SncBuilder, SncFile};
use wrfgen::field::{field_rng, smooth_field, var_range};

struct Shape {
    vars: usize,
    levels: usize,
    grid: usize,
    reps: usize,
}

const CHUNK_LEVELS: usize = 2;

fn build_builder(s: &Shape) -> SncBuilder {
    let mut b = SncBuilder::new();
    for vi in 0..s.vars {
        let mut rng = field_rng(42, 0, vi);
        let (base, amp) = var_range(vi);
        let data = smooth_field(&mut rng, s.levels, s.grid, s.grid, base, amp);
        let array = Array::from_f32(vec![s.levels, s.grid, s.grid], data).unwrap();
        b.add_var(
            "",
            &format!("v{vi}"),
            &[("lev", s.levels), ("lat", s.grid), ("lon", s.grid)],
            &[CHUNK_LEVELS, s.grid, s.grid],
            Codec::ShuffleLz { elem: 4 },
            array,
        )
        .unwrap();
    }
    b
}

/// The decoder `scifmt::codec::decompress` ran before the bulk-copy LZ
/// decode and the fixed-width unshuffle — one byte per step in both stages —
/// for frames this bench compressed itself (it panics on anything else).
fn decompress_bytewise(frame: &[u8]) -> Vec<u8> {
    // `[2][raw_len: varint][elem][LZ payload]`
    assert_eq!(frame[0], 2, "bench frames are shuffle+LZ");
    let raw_len = codec::frame_raw_len(frame).unwrap();
    let varint = 1 + frame[1..].iter().take_while(|&&b| b & 0x80 != 0).count();
    let elem = frame[1 + varint] as usize;
    let src = &frame[2 + varint..];
    let mut pos = 0;
    let get_len = |pos: &mut usize, nib: u8| {
        let mut len = nib as usize;
        if nib == 15 {
            loop {
                *pos += 1;
                len += src[*pos - 1] as usize;
                if src[*pos - 1] < 255 {
                    break;
                }
            }
        }
        len
    };
    let mut lz = Vec::with_capacity(raw_len);
    while pos < src.len() {
        let token = src[pos];
        pos += 1;
        let lit_len = get_len(&mut pos, token >> 4);
        lz.extend_from_slice(&src[pos..pos + lit_len]);
        pos += lit_len;
        if pos == src.len() {
            break;
        }
        let dist = u16::from_le_bytes([src[pos], src[pos + 1]]) as usize;
        pos += 2;
        let mlen = 4 + get_len(&mut pos, token & 0x0f);
        let start = lz.len() - dist;
        for k in 0..mlen {
            lz.push(lz[start + k]);
        }
    }
    assert_eq!(lz.len(), raw_len);
    let n = raw_len / elem;
    let mut out = vec![0u8; raw_len];
    for t0 in (0..n).step_by(512) {
        let t1 = (t0 + 512).min(n);
        for b in 0..elem {
            for (k, &s) in lz[b * n + t0..b * n + t1].iter().enumerate() {
                out[(t0 + k) * elem + b] = s;
            }
        }
    }
    out
}

/// The header of an LZ frame (codec id 1) or, given `elem`, a shuffled LZ
/// frame (id 2): `[codec id][raw_len: varint]`, then `elem`.
fn frame_head(raw_len: usize, elem: Option<u8>) -> Vec<u8> {
    let mut head = vec![if elem.is_some() { 2 } else { 1 }];
    let mut v = raw_len as u64;
    while v >= 0x80 {
        head.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    head.push(v as u8);
    head.extend(elem);
    head
}

/// The LZ encoder `scifmt::codec::compress` ran before the value-checked
/// match finder — every hash candidate checked by reading the input at it,
/// every match extended one byte per step — appending the payload of `src`
/// to `out`. `table` is reused across calls and cleared for each, as the
/// codec's scratch table was.
fn lz_encode_bytewise(src: &[u8], table: &mut [usize], out: &mut Vec<u8>) {
    const HASH_BITS: u32 = 15;
    let hash4 = |b: &[u8]| {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    };
    let put_len = |out: &mut Vec<u8>, mut extra: usize| {
        while extra >= 255 {
            out.push(255);
            extra -= 255;
        }
        out.push(extra as u8);
    };
    table.fill(usize::MAX);
    out.reserve(src.len() / 2 + 16);
    let (n, mut i, mut anchor) = (src.len(), 0, 0);
    let put_token = |out: &mut Vec<u8>, lit: &[u8], mat: Option<(usize, usize)>| {
        let lit_nib = lit.len().min(15) as u8;
        let mat_nib = mat.map_or(0, |(_, mlen)| (mlen - 4).min(15) as u8);
        out.push((lit_nib << 4) | mat_nib);
        if lit_nib == 15 {
            put_len(out, lit.len() - 15);
        }
        out.extend_from_slice(lit);
        if let Some((dist, mlen)) = mat {
            out.extend_from_slice(&(dist as u16).to_le_bytes());
            if mat_nib == 15 {
                put_len(out, mlen - 4 - 15);
            }
        }
    };
    while i + 4 <= n {
        let h = hash4(&src[i..]);
        let cand = table[h];
        table[h] = i;
        if cand == usize::MAX || i - cand > 65_535 || src[cand..cand + 4] != src[i..i + 4] {
            i += 1;
            continue;
        }
        let mut mlen = 4;
        while i + mlen < n && src[cand + mlen] == src[i + mlen] {
            mlen += 1;
        }
        put_token(out, &src[anchor..i], Some((i - cand, mlen)));
        let step = if mlen > 64 { 8 } else { 2 };
        let mut j = i + 1;
        while j + 4 <= n && j < i + mlen {
            table[hash4(&src[j..])] = j;
            j += step;
        }
        i += mlen;
        anchor = i;
    }
    put_token(out, &src[anchor..], None);
}

/// The `image2d` per-pixel kernel as it was before the per-column and
/// per-row work left the pixel loop, the colour map's control points
/// became `const`s and `floor` / `round` became integer casts — on one
/// thread, as the kernel runs here (rows are independent, so a thread
/// count changes no pixel).
fn image2d_per_pixel(data: &[f64], rows: usize, cols: usize, width: u32, height: u32) -> Vec<u8> {
    let jet = |t: f64| {
        let t = t.clamp(0.0, 1.0);
        let pts: &[[f64; 3]] = &[
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
        let x = t * (pts.len() - 1) as f64;
        let i = (x.floor() as usize).min(pts.len() - 2);
        let f = x - i as f64;
        let mut rgb = [0u8; 3];
        for c in 0..3 {
            let v = pts[i][c] * (1.0 - f) + pts[i + 1][c] * f;
            rgb[c] = (v * 255.0).round().clamp(0.0, 255.0) as u8;
        }
        rgb
    };
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
                let [r, g, b] = jet((v - lo) / span);
                row_out[o..o + 4].copy_from_slice(&[r, g, b, 255]);
            } else {
                row_out[o..o + 4].copy_from_slice(&[0, 0, 0, 0]);
            }
        }
    }
    pixels
}

/// The PNG encoder as it was before its CRC-32 moved to `scirng`'s
/// slice-by-8 body: one table lookup per byte, the zlib stream built in a
/// vector of its own, each chunk's tag and body copied out again to be
/// CRC'd.
fn encode_png_bytewise(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
    fn crc32(data: &[u8]) -> u32 {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        let t = TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (n, e) in t.iter_mut().enumerate() {
                *e = (0..8).fold(n as u32, |c, _| {
                    if c & 1 != 0 {
                        0xedb8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    }
                });
            }
            t
        });
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }
    fn adler32(data: &[u8]) -> u32 {
        let (mut a, mut b) = (1u32, 0u32);
        for chunk in data.chunks(5552) {
            for &byte in chunk {
                a += byte as u32;
                b += a;
            }
            a %= 65_521;
            b %= 65_521;
        }
        (b << 16) | a
    }
    fn zlib_store(raw: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
        out.extend_from_slice(&[0x78, 0x01]);
        let mut chunks = raw.chunks(65_535).peekable();
        if raw.is_empty() {
            out.extend_from_slice(&[0x01, 0, 0, 0xff, 0xff]);
        }
        while let Some(c) = chunks.next() {
            out.push(u8::from(chunks.peek().is_none()));
            let len = c.len() as u16;
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(&(!len).to_le_bytes());
            out.extend_from_slice(c);
        }
        out.extend_from_slice(&adler32(raw).to_be_bytes());
        out
    }
    fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: &[u8]) {
        out.extend_from_slice(&(body.len() as u32).to_be_bytes());
        out.extend_from_slice(tag);
        out.extend_from_slice(body);
        let mut crc_in = Vec::with_capacity(4 + body.len());
        crc_in.extend_from_slice(tag);
        crc_in.extend_from_slice(body);
        out.extend_from_slice(&crc32(&crc_in).to_be_bytes());
    }
    let mut out = Vec::with_capacity(rgba.len() + rgba.len() / 64 + 128);
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a]);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&width.to_be_bytes());
    ihdr.extend_from_slice(&height.to_be_bytes());
    ihdr.extend_from_slice(&[8, 6, 0, 0, 0]);
    chunk(&mut out, b"IHDR", &ihdr);
    let stride = width as usize * 4;
    let mut raw = Vec::with_capacity((stride + 1) * height as usize);
    for row in rgba.chunks(stride) {
        raw.push(0);
        raw.extend_from_slice(row);
    }
    chunk(&mut out, b"IDAT", &zlib_store(&raw));
    chunk(&mut out, b"IEND", &[]);
    out
}

/// Per level of a slab: `(count, sum, min, max)` over its finite values.
type LevelStats = Vec<(u64, f64, f64, f64)>;

/// The stats DAG's per-level fold as it ran before `scidp::level_stats`
/// folded levels in lockstep: one level, and one element, at a time, each
/// non-finite value skipped by a branch.
fn level_stats_sequential(array: &Array) -> LevelStats {
    let levels = array.shape()[0];
    let level = array.len() / levels;
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

/// Best-of-`reps` wall time of `f`.
fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    std::hint::black_box(sink);
    best
}

/// Best-of-`reps` wall times of `a` and `b`, run in alternation so that a
/// change in the host's load reaches both sides of their ratio.
fn best_of_pair(reps: usize, mut a: impl FnMut() -> u64, mut b: impl FnMut() -> u64) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        best_a = best_a.min(best_of(1, &mut a));
        best_b = best_b.min(best_of(1, &mut b));
    }
    (best_a, best_b)
}

pub fn run(scale: &Scale) -> Report {
    let (vars, levels, grid, reps) = scale.pick((6, 12, 32, 2), (16, 50, 64, 3));
    let s = Shape {
        vars,
        levels,
        grid,
        reps,
    };
    let raw_bytes = s.vars * s.levels * s.grid * s.grid * 4;
    let mib = raw_bytes as f64 / (1 << 20) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads_axis: &[usize] = if cores >= 4 { &[1, 2, 4, 8] } else { &[1, 2] };
    let mut rep = Report::new("codec_scaling");
    rep.note(format!(
        "codec_scaling: {} vars x {}x{}x{} f32 = {mib:.1} MiB raw, chunks of {} levels",
        s.vars, s.levels, s.grid, s.grid, CHUNK_LEVELS
    ));
    rep.row("raw_bytes", raw_bytes as f64, "B", Count);
    rep.row("cores", cores as f64, "", Host);
    if cores < 2 {
        rep.note("note: single-core host — thread counts above 1 cannot speed up; expect ~1.0x");
    }
    let read_all = |f: &SncFile| -> u64 {
        (0..s.vars)
            .map(|vi| f.get_var(&format!("v{vi}")).unwrap().len() as u64)
            .sum()
    };

    // Reference container (compression output is thread-count invariant).
    let file_bytes = build_builder(&s).finish_with_threads(1);
    let mut lines: Vec<(String, Vec<f64>)> = Vec::new();
    for &t in threads_axis {
        // Compression: rebuild the builder outside the timed section.
        let mut c_best = f64::INFINITY;
        for _ in 0..s.reps {
            let b = build_builder(&s);
            let t0 = Instant::now();
            let out = b.finish_with_threads(t);
            c_best = c_best.min(t0.elapsed().as_secs_f64());
            assert_eq!(out, file_bytes, "parallel finish must be byte-identical");
        }
        // Decompression: cache disabled so every read pays the codec.
        std::env::set_var("SCIDP_THREADS", t.to_string());
        let f = SncFile::open(file_bytes.clone())
            .unwrap()
            .with_cache(Arc::new(ChunkCache::new(0)));
        let d_best = best_of(s.reps, || read_all(&f));
        let (c1, d1) = lines
            .first()
            .map_or((c_best, d_best), |(_, l)| (l[0], l[3]));
        lines.push((
            format!("{t} threads"),
            vec![
                c_best,
                mib / c_best,
                c1 / c_best,
                d_best,
                mib / d_best,
                d1 / d_best,
            ],
        ));
    }
    let cols = [
        ("compress_secs", "compress", "s", Host),
        ("compress_mib_s", "compress", "MiB/s", Host),
        ("compress_speedup", "speedup (c)", "x", Host),
        ("decompress_uncached_secs", "decompress", "s", Host),
        ("decompress_uncached_mib_s", "decompress", "MiB/s", Host),
        ("decompress_uncached_speedup", "speedup (d)", "x", Host),
    ];
    rep.table("", "workers", &cols, &lines);

    // The decode kernel alone, one thread, over every chunk frame of the
    // container: new decoder vs the byte-wise one it replaced.
    let frames: Vec<&[u8]> = {
        let f = SncFile::open(file_bytes.clone()).unwrap();
        let vars = f.meta().all_vars();
        vars.iter()
            .flat_map(|(_, var)| chunk_extents_of(var, f.meta().data_offset))
            .map(|c| &file_bytes[c.offset as usize..(c.offset + c.clen) as usize])
            .collect()
    };
    let agree = frames
        .iter()
        .all(|frame| codec::decompress(frame).unwrap() == decompress_bytewise(frame));
    rep.check(
        "decode_kernel.decoders_agree",
        agree,
        "new and byte-wise decoders produce the same bytes",
    );
    let decode_all = |kernel: &dyn Fn(&[u8]) -> Vec<u8>| {
        frames
            .iter()
            .map(|f| kernel(std::hint::black_box(f)).len() as u64)
            .sum()
    };
    let (bytewise_s, kernel_s) = best_of_pair(
        s.reps * 4,
        || decode_all(&decompress_bytewise),
        || decode_all(&|f| codec::decompress(f).unwrap()),
    );
    rep.row(
        "decode_kernel.bytewise_mib_s",
        mib / bytewise_s,
        "MiB/s",
        Host,
    );
    rep.row("decode_kernel.mib_s", mib / kernel_s, "MiB/s", Host);
    rep.row("decode_kernel.ratio", bytewise_s / kernel_s, "x", Host);
    let floor = "chunk decoder >= 1.8x the byte-wise one, 1 thread";
    rep.expect("decode_kernel.ratio", Rel::Ge, 1.8, floor);

    // The encode kernel alone, one thread, over the shuffled bytes of every
    // chunk: the LZ encoder vs the byte-wise one it replaced. Both must
    // write the payload the container stores, byte for byte.
    let shuffled: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| codec::shuffle(&codec::decompress(f).unwrap(), 4))
        .collect();
    let mut table = vec![usize::MAX; 1 << 15];
    let mut lz_bytewise = |src: &[u8], elem: Option<u8>| {
        let mut frame = frame_head(src.len(), elem);
        lz_encode_bytewise(src, &mut table, &mut frame);
        frame
    };
    let agree = shuffled.iter().zip(&frames).all(|(src, &stored)| {
        codec::compress(Codec::Lz, src) == lz_bytewise(src, None)
            && stored == lz_bytewise(src, Some(4))
    });
    rep.check(
        "encode_kernel.frames_agree",
        agree,
        "new and byte-wise LZ encoders write the stored frames byte for byte",
    );
    let encode_all = |kernel: &mut dyn FnMut(&[u8]) -> Vec<u8>| {
        shuffled
            .iter()
            .map(|src| kernel(std::hint::black_box(src)).len() as u64)
            .sum()
    };
    let (bytewise_s, kernel_s) = best_of_pair(
        s.reps * 4,
        || encode_all(&mut |src| lz_bytewise(src, None)),
        || encode_all(&mut |src| codec::compress(Codec::Lz, src)),
    );
    rep.row(
        "encode_kernel.bytewise_mib_s",
        mib / bytewise_s,
        "MiB/s",
        Host,
    );
    rep.row("encode_kernel.mib_s", mib / kernel_s, "MiB/s", Host);
    rep.row("encode_kernel.ratio", bytewise_s / kernel_s, "x", Host);
    let floor = "LZ encoder >= 1.5x the byte-wise one, 1 thread";
    rep.expect("encode_kernel.ratio", Rel::Ge, 1.5, floor);

    // The plot path's kernels alone, one thread, on `nuwrf_img`-shaped
    // input: smooth 128² levels rasterised to 123² Jet images, then each
    // image encoded as a PNG — new kernel vs the one it replaced. Both
    // must produce the same pixels and the same PNG bytes.
    std::env::set_var("SCIDP_THREADS", "1");
    let (plot_levels, plot_grid, plot_raster) = (scale.pick(12, 50), 128, 123u32);
    let grids: Vec<Vec<f64>> = (0..2)
        .flat_map(|vi| {
            let (base, amp) = var_range(vi);
            let field = smooth_field(
                &mut field_rng(7, 0, vi),
                plot_levels,
                plot_grid,
                plot_grid,
                base,
                amp,
            );
            let level = plot_grid * plot_grid;
            (0..plot_levels)
                .map(|l| {
                    field[l * level..(l + 1) * level]
                        .iter()
                        .map(|&v| f64::from(v))
                        .collect()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let plot = |grid: &[f64]| {
        image2d(
            grid,
            plot_grid,
            plot_grid,
            plot_raster,
            plot_raster,
            ColorMap::Jet,
        )
        .unwrap()
    };
    let rasters: Vec<Raster> = grids.iter().map(|g| plot(g)).collect();
    let agree = grids.iter().zip(&rasters).all(|(g, r)| {
        r.pixels == image2d_per_pixel(g, plot_grid, plot_grid, plot_raster, plot_raster)
    });
    rep.check(
        "plot_kernel.pixels_agree",
        agree,
        "hoisted and per-pixel image2d produce the same pixels",
    );
    let (per_pixel_s, kernel_s) = best_of_pair(
        s.reps * 4,
        || {
            grids
                .iter()
                .map(|g| {
                    let g = std::hint::black_box(g);
                    image2d_per_pixel(g, plot_grid, plot_grid, plot_raster, plot_raster).len()
                        as u64
                })
                .sum()
        },
        || {
            grids
                .iter()
                .map(|g| plot(std::hint::black_box(g)).pixels.len() as u64)
                .sum()
        },
    );
    let images = grids.len() as f64;
    rep.row("plot_kernel.images", images, "", Count);
    rep.row(
        "plot_kernel.per_pixel_ms",
        per_pixel_s / images * 1e3,
        "ms",
        Host,
    );
    rep.row("plot_kernel.ms", kernel_s / images * 1e3, "ms", Host);
    rep.row("plot_kernel.ratio", per_pixel_s / kernel_s, "x", Host);
    let floor = "image2d >= 1.5x the per-pixel kernel, 1 thread";
    rep.expect("plot_kernel.ratio", Rel::Ge, 1.5, floor);

    let agree = rasters
        .iter()
        .all(|r| r.to_png() == encode_png_bytewise(r.width, r.height, &r.pixels));
    rep.check(
        "png_kernel.bytes_agree",
        agree,
        "new and byte-wise PNG encoders write the same bytes",
    );
    let (bytewise_s, kernel_s) = best_of_pair(
        s.reps * 4,
        || {
            rasters
                .iter()
                .map(|r| {
                    let r = std::hint::black_box(r);
                    encode_png_bytewise(r.width, r.height, &r.pixels).len() as u64
                })
                .sum()
        },
        || {
            rasters
                .iter()
                .map(|r| std::hint::black_box(r).to_png().len() as u64)
                .sum()
        },
    );
    rep.row(
        "png_kernel.bytewise_ms",
        bytewise_s / images * 1e3,
        "ms",
        Host,
    );
    rep.row("png_kernel.ms", kernel_s / images * 1e3, "ms", Host);
    rep.row("png_kernel.ratio", bytewise_s / kernel_s, "x", Host);
    let floor = "PNG encoder >= 2.0x the byte-wise one, 1 thread";
    rep.expect("png_kernel.ratio", Rel::Ge, 2.0, floor);

    // The stats DAG's fold alone, one thread, on `scan_stats`-shaped
    // input: 4 variables x 50 levels of 128² f32, in slabs of 10 levels —
    // `level_stats` (levels in lockstep) vs the sequential fold it
    // replaced. Both must give the same bits.
    let (fold_levels, fold_grid, slab_levels) = (scale.pick(20, 50), 128, 10);
    let slabs: Vec<Array> = (0..4)
        .flat_map(|vi| {
            let (base, amp) = var_range(vi);
            let field = smooth_field(
                &mut field_rng(9, 0, vi),
                fold_levels,
                fold_grid,
                fold_grid,
                base,
                amp,
            );
            let level = fold_grid * fold_grid;
            field
                .chunks(slab_levels * level)
                .map(|slab| {
                    let shape = vec![slab.len() / level, fold_grid, fold_grid];
                    Array::from_f32(shape, slab.to_vec()).unwrap()
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let bits = |stats: LevelStats| -> Vec<[u64; 4]> {
        stats
            .into_iter()
            .map(|(c, s, mn, mx)| [c, s.to_bits(), mn.to_bits(), mx.to_bits()])
            .collect()
    };
    let agree = slabs
        .iter()
        .all(|a| bits(level_stats(a)) == bits(level_stats_sequential(a)));
    rep.check(
        "stats_fold.agree",
        agree,
        "lockstep and sequential folds give the same bits",
    );
    let fold_all = |fold: &dyn Fn(&Array) -> LevelStats| {
        slabs
            .iter()
            .flat_map(|a| fold(std::hint::black_box(a)))
            .map(|(c, s, mn, mx)| c ^ s.to_bits() ^ mn.to_bits() ^ mx.to_bits())
            .fold(0, u64::wrapping_add)
    };
    let (sequential_s, kernel_s) = best_of_pair(
        s.reps * 8,
        || fold_all(&level_stats_sequential),
        || fold_all(&level_stats),
    );
    let levels = (4 * fold_levels) as f64;
    rep.row(
        "stats_fold.sequential_us",
        sequential_s / levels * 1e6,
        "us",
        Host,
    );
    rep.row("stats_fold.us", kernel_s / levels * 1e6, "us", Host);
    rep.row("stats_fold.ratio", sequential_s / kernel_s, "x", Host);
    let floor = "stats fold >= 1.3x the sequential one, 1 thread";
    rep.expect("stats_fold.ratio", Rel::Ge, 1.3, floor);

    // Cache-hit path: warm read vs cold read at 1 thread (pure cache win).
    let f = SncFile::open(file_bytes.clone())
        .unwrap()
        .with_cache(Arc::new(ChunkCache::new(
            DEFAULT_CACHE_BYTES.max(raw_bytes * 2),
        )));
    let t0 = Instant::now();
    read_all(&f);
    let cold = t0.elapsed().as_secs_f64();
    let warm = best_of(s.reps, || read_all(&f));
    let stats = f.cache_stats();
    rep.row("cache.cold_secs", cold, "s", Host);
    rep.row("cache.warm_secs", warm, "s", Host);
    rep.row("cache.hit_speedup", cold / warm, "x", Host);
    rep.row("cache.hits", stats.hits as f64, "", Count);
    rep.row("cache.misses", stats.misses as f64, "", Count);
    rep
}
