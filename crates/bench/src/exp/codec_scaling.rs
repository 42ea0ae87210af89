//! Micro-benchmark: chunk codec pipeline scaling.
//!
//! Measures real wall-clock throughput of the parallel chunk pipeline —
//! `SncBuilder::finish_with_threads` (shuffle+LZ compression) and
//! `SncFile::get_var` (decompression + slab assembly) — across worker
//! counts, plus the decompressed-chunk cache's hit-path speedup on repeated
//! reads — and, single-threaded, the chunk decoder and the LZ encoder
//! against the byte-wise kernels they replaced (asserted floors: decode
//! 1.8x, encode 1.5x; ratios of two kernels timed in alternation in one
//! process, so they hold on a slow box). 4- and 8-thread rows are
//! recorded only on a host with at least 4 cores: below that they measure
//! oversubscription.

use std::sync::Arc;
use std::time::Instant;

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

    // Cache-hit path: warm read vs cold read at 1 thread (pure cache win).
    std::env::set_var("SCIDP_THREADS", "1");
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
