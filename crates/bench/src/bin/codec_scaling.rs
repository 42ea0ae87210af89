//! Micro-benchmark: chunk codec pipeline scaling.
//!
//! Measures real wall-clock throughput of the parallel chunk pipeline —
//! `SncBuilder::finish_with_threads` (shuffle+LZ compression) and
//! `SncFile::get_var` (decompression + slab assembly) — across worker
//! counts, plus the decompressed-chunk cache's hit-path speedup on repeated
//! reads — and, single-threaded, the chunk decoder against the byte-wise
//! decoder it replaced (asserted floor: 1.8x; a ratio of two kernels timed
//! in one process, so it holds on a slow box). Results go to stdout as a
//! table and to `BENCH_codec.json`.
//!
//! Run: `cargo run --release -p scidp-bench --bin codec_scaling [--quick]`

use std::sync::Arc;
use std::time::Instant;

use scidp_bench::{fmt_x, quick_mode, row};
use scifmt::snc::{chunk_extents_of, DEFAULT_CACHE_BYTES};
use scifmt::{codec, Array, ChunkCache, Codec, SncBuilder, SncFile};
use wrfgen::field::{field_rng, smooth_field, var_range};

struct Shape {
    vars: usize,
    levels: usize,
    grid: usize,
    chunk_levels: usize,
    reps: usize,
}

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
            &[s.chunk_levels, s.grid, s.grid],
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

/// Best-of-`reps` wall time of `f`.
fn best_of<F: FnMut() -> u64>(reps: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, sink)
}

fn main() {
    let s = if quick_mode() {
        Shape {
            vars: 6,
            levels: 12,
            grid: 32,
            chunk_levels: 2,
            reps: 2,
        }
    } else {
        Shape {
            vars: 16,
            levels: 50,
            grid: 64,
            chunk_levels: 2,
            reps: 3,
        }
    };
    let raw_bytes = s.vars * s.levels * s.grid * s.grid * 4;
    let threads_axis = [1usize, 2, 4, 8];
    let mib = raw_bytes as f64 / (1 << 20) as f64;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "codec_scaling: {} vars x {}x{}x{} f32 = {:.1} MiB raw, chunks of {} levels, {} core(s)",
        s.vars, s.levels, s.grid, s.grid, mib, s.chunk_levels, cores
    );
    if cores < 2 {
        println!("note: single-core host — thread counts above 1 cannot speed up; expect ~1.0x");
    }
    println!();
    println!(
        "{}",
        row(&[
            "threads".into(),
            "compress MiB/s".into(),
            "decompress MiB/s".into(),
            "speedup (c)".into(),
            "speedup (d)".into()
        ])
    );

    // Reference container (compression output is thread-count invariant).
    let file_bytes = build_builder(&s).finish_with_threads(1);

    let mut compress = Vec::new();
    let mut decompress = Vec::new();
    for &t in &threads_axis {
        // Compression: rebuild the builder outside the timed section.
        let mut c_best = f64::INFINITY;
        for _ in 0..s.reps {
            let b = build_builder(&s);
            let t0 = Instant::now();
            let out = b.finish_with_threads(t);
            c_best = c_best.min(t0.elapsed().as_secs_f64());
            assert_eq!(out, file_bytes, "parallel finish must be byte-identical");
        }
        compress.push(c_best);

        // Decompression: cache disabled so every read pays the codec.
        std::env::set_var("SCIDP_THREADS", t.to_string());
        let f = SncFile::open(file_bytes.clone())
            .unwrap()
            .with_cache(Arc::new(ChunkCache::new(0)));
        let (d_best, _) = best_of(s.reps, || {
            let mut n = 0u64;
            for vi in 0..s.vars {
                n += f.get_var(&format!("v{vi}")).unwrap().len() as u64;
            }
            n
        });
        decompress.push(d_best);

        println!(
            "{}",
            row(&[
                t.to_string(),
                format!("{:.0}", mib / c_best),
                format!("{:.0}", mib / d_best),
                fmt_x(compress[0] / c_best),
                fmt_x(decompress[0] / d_best),
            ])
        );
    }

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
    for frame in &frames {
        let want = decompress_bytewise(frame);
        assert_eq!(codec::decompress(frame).unwrap(), want, "decoders disagree");
    }
    let decode_all = |kernel: &dyn Fn(&[u8]) -> Vec<u8>| {
        best_of(s.reps * 4, || {
            frames
                .iter()
                .map(|f| kernel(std::hint::black_box(f)).len() as u64)
                .sum()
        })
        .0
    };
    let bytewise_s = decode_all(&decompress_bytewise);
    let kernel_s = decode_all(&|f| codec::decompress(f).unwrap());
    let kernel_ratio = bytewise_s / kernel_s;
    println!();
    println!(
        "decode kernel, 1 thread: {:.0} MiB/s, {} the byte-wise decoder's {:.0} MiB/s (floor 1.8x)",
        mib / kernel_s,
        fmt_x(kernel_ratio),
        mib / bytewise_s
    );
    assert!(
        kernel_ratio >= 1.8,
        "chunk decoder is only {kernel_ratio:.2}x the byte-wise decoder (floor 1.8x)"
    );

    // Cache-hit path: warm read vs cold read at 1 thread (pure cache win).
    std::env::set_var("SCIDP_THREADS", "1");
    let f = SncFile::open(file_bytes.clone())
        .unwrap()
        .with_cache(Arc::new(ChunkCache::new(
            DEFAULT_CACHE_BYTES.max(raw_bytes * 2),
        )));
    let read_all = |f: &SncFile| {
        let mut n = 0u64;
        for vi in 0..s.vars {
            n += f.get_var(&format!("v{vi}")).unwrap().len() as u64;
        }
        n
    };
    let t0 = Instant::now();
    read_all(&f);
    let cold = t0.elapsed().as_secs_f64();
    let (warm, _) = best_of(s.reps, || read_all(&f));
    let stats = f.cache_stats();
    println!();
    println!(
        "cache: cold {:.1} MiB/s, warm {:.1} MiB/s ({} hit speedup; {} hits / {} misses)",
        mib / cold,
        mib / warm,
        fmt_x(cold / warm),
        stats.hits,
        stats.misses
    );

    // JSON artifact.
    let series = |xs: &[f64]| -> String {
        threads_axis
            .iter()
            .zip(xs)
            .map(|(t, secs)| {
                format!(
                    "{{\"threads\":{t},\"secs\":{secs:.6},\"mib_s\":{:.2},\"speedup\":{:.3}}}",
                    mib / secs,
                    xs[0] / secs
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\n  \"raw_bytes\": {raw_bytes},\n  \"cores\": {cores},\n  \"compress\": [{}],\n  \"decompress_uncached\": [{}],\n  \"decode_kernel\": {{\"bytewise_mib_s\": {:.2}, \"mib_s\": {:.2}, \"ratio\": {kernel_ratio:.3}}},\n  \"cache\": {{\"cold_secs\": {cold:.6}, \"warm_secs\": {warm:.6}, \"hit_speedup\": {:.3}, \"hits\": {}, \"misses\": {}}}\n}}\n",
        series(&compress),
        series(&decompress),
        mib / bytewise_s,
        mib / kernel_s,
        cold / warm,
        stats.hits,
        stats.misses
    );
    std::fs::write("BENCH_codec.json", &json).expect("write BENCH_codec.json");
    println!();
    println!("wrote BENCH_codec.json");
}
