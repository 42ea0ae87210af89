//! Predicate pushdown support for the PFS Reader: zone-map pruning of SNC
//! chunks and direct columnar assembly of the surviving ones.
//!
//! The pipeline: `rframe::sql::where_predicate` extracts a
//! [`Predicate`](rframe::Predicate) from a query's WHERE clause,
//! `rapi::make_splits` validates it against each variable's schema and
//! attaches it to the slab fetchers, and
//! [`SciSlabFetcher`](crate::reader::SciSlabFetcher) consults
//! [`chunk_col_stats`] per chunk *before* issuing the simulated PFS read:
//! a [`MatchBound::None`](rframe::MatchBound::None) verdict skips the chunk
//! entirely — no read, no decompression. Surviving chunks are assembled by
//! [`assemble_frame`] straight into the typed coordinate+value columns of
//! the slab frame (no per-cell `Value` materialisation), in the exact
//! global row-major order `rapi::slab_to_frame` produces, minus the rows
//! owned by skipped chunks. Because skipped chunks can only contain rows
//! the predicate rejects, filtering the assembled frame with
//! [`Predicate::eval_mask`](rframe::Predicate::eval_mask) yields a result bit-identical to the full-scan
//! path — pruning is an optimisation, never a semantics change.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rframe::{ColStats, Column, DataFrame};
use scifmt::hyperslab;
use scifmt::snc::ZoneMap;
use scifmt::{DType, VarMeta};

/// Zone-map view of one chunk, restricted to its intersection with a slab.
///
/// * Dimension columns get the *exact* coordinate interval the
///   intersection covers (coordinates are never null).
/// * `value` gets the chunk's stamped zone map. The zone summarizes the
///   whole chunk — a superset of the intersection's rows — which keeps
///   every prune verdict sound: subset values stay inside `[min, max]`,
///   and a partially-null chunk is never reported all-null.
/// * Unknown columns (and unstamped chunks) return `None`, which the
///   pruner treats as "cannot decide".
pub fn chunk_col_stats(
    dims: &[String],
    isect_start: &[usize],
    isect_count: &[usize],
    zone: Option<&ZoneMap>,
    chunk_elems: u64,
    col: &str,
) -> Option<ColStats> {
    for ((name, &lo), &n) in dims.iter().zip(isect_start).zip(isect_count) {
        if name == col {
            let rows: usize = isect_count.iter().product();
            return Some(ColStats {
                min: lo as f64,
                max: (lo + n.saturating_sub(1)) as f64,
                null_count: 0,
                n: rows as u64,
            });
        }
    }
    if col == "value" {
        return zone.map(|z| ColStats {
            min: z.min,
            max: z.max,
            null_count: z.null_count,
            n: chunk_elems,
        });
    }
    None
}

/// Decode `len` little-endian elements starting at element `start_elem`
/// from a chunk's raw (decompressed) bytes, widened to f64 exactly like
/// `Array::get_f64`. Returns `false` when the range falls outside `raw`
/// (corrupt header/chunk disagreement) — never panics.
fn decode_range_f64(
    dtype: DType,
    raw: &[u8],
    start_elem: usize,
    len: usize,
    out: &mut Vec<f64>,
) -> bool {
    let esz = dtype.size();
    let Some(bytes) = raw.get(start_elem * esz..(start_elem + len) * esz) else {
        return false;
    };
    match dtype {
        DType::F32 => {
            for c in bytes.chunks_exact(4) {
                if let Ok(b) = <[u8; 4]>::try_from(c) {
                    out.push(f32::from_le_bytes(b) as f64);
                }
            }
        }
        DType::F64 => {
            for c in bytes.chunks_exact(8) {
                if let Ok(b) = <[u8; 8]>::try_from(c) {
                    out.push(f64::from_le_bytes(b));
                }
            }
        }
        DType::I32 => {
            for c in bytes.chunks_exact(4) {
                if let Ok(b) = <[u8; 4]>::try_from(c) {
                    out.push(i32::from_le_bytes(b) as f64);
                }
            }
        }
        DType::I64 => {
            for c in bytes.chunks_exact(8) {
                if let Ok(b) = <[u8; 8]>::try_from(c) {
                    out.push(i64::from_le_bytes(b) as f64);
                }
            }
        }
        DType::U8 => {
            for &b in bytes {
                out.push(b as f64);
            }
        }
    }
    true
}

/// Assemble the surviving chunks of a slab directly into its coordinate +
/// value frame — the same columns, rows and order `rapi::slab_to_frame`
/// builds from the dense array, except that rows owned by chunks in
/// `skipped` are omitted.
///
/// The walk is span-based: a global row-major odometer over the slab's
/// outer dimensions, with the innermost dimension split into per-chunk
/// segments. Each segment maps to a *contiguous* element range of its
/// chunk's raw buffer, decoded in bulk; coordinate columns are filled with
/// constant repeats (outer dims) and an arithmetic ramp (inner dim), so no
/// per-cell `Value` is ever materialised.
pub fn assemble_frame(
    var: &VarMeta,
    dims: &[String],
    start: &[usize],
    count: &[usize],
    chunks: &HashMap<usize, Arc<Vec<u8>>>,
    skipped: &HashSet<usize>,
) -> Result<DataFrame, String> {
    let shape = var.shape();
    let rank = shape.len();
    if rank == 0 || dims.len() != rank || start.len() != rank || count.len() != rank {
        return Err(format!(
            "pushdown assembly rank mismatch: shape {shape:?}, dims {dims:?}, \
             start {start:?}, count {count:?}"
        ));
    }
    let cshape = &var.chunk_shape;
    let grid = hyperslab::chunk_grid(&shape, cshape);
    let mut coord_cols: Vec<Vec<i64>> = vec![Vec::new(); rank];
    let mut values: Vec<f64> = Vec::new();

    // Innermost-dimension extents (rank >= 1 guaranteed above).
    let in_start = start.last().copied().unwrap_or(0);
    let in_count = count.last().copied().unwrap_or(0);
    let in_chunk = cshape.last().copied().unwrap_or(1).max(1);

    let empty = count.contains(&0);
    // Odometer over the outer dimensions (all but the innermost).
    let n_outer = rank - 1;
    let mut oc = vec![0usize; n_outer];
    let mut q = vec![0usize; rank];
    loop {
        if empty {
            break;
        }
        // Global outer coordinates and their chunk coordinates.
        for (((qd, &o), &s), &k) in q
            .iter_mut()
            .zip(oc.iter())
            .zip(start.iter())
            .zip(cshape.iter())
        {
            *qd = (s + o) / k.max(1);
        }
        // Walk the innermost dimension in per-chunk segments.
        let mut j = in_start;
        let j_end = in_start + in_count;
        while j < j_end {
            let qin = j / in_chunk;
            let seg_end = j_end.min((qin + 1) * in_chunk);
            let seg_len = seg_end - j;
            if let Some(qlast) = q.last_mut() {
                *qlast = qin;
            }
            let id = hyperslab::rank_of(&grid, &q);
            if !skipped.contains(&id) {
                let Some(raw) = chunks.get(&id) else {
                    return Err(format!("chunk {id} missing from pushdown assembly"));
                };
                // Element offset of the segment inside the chunk's raw
                // buffer: local coordinates times the chunk's (possibly
                // clipped) strides; the innermost stride is 1, so the
                // segment is contiguous.
                let cdim = hyperslab::chunk_shape_at(&q, cshape, &shape);
                let cstr = hyperslab::strides(&cdim);
                let mut base = j - qin * in_chunk;
                for ((((&o, &s), &k), &st), col) in oc
                    .iter()
                    .zip(start.iter())
                    .zip(cshape.iter())
                    .zip(cstr.iter())
                    .zip(coord_cols.iter_mut())
                {
                    let g = s + o;
                    base += (g % k.max(1)) * st;
                    col.extend(std::iter::repeat_n(g as i64, seg_len));
                }
                if let Some(inner) = coord_cols.last_mut() {
                    inner.extend((j..seg_end).map(|x| x as i64));
                }
                if !decode_range_f64(var.dtype, raw, base, seg_len, &mut values) {
                    return Err(format!(
                        "chunk {id} raw buffer too short for segment at element {base}"
                    ));
                }
            }
            j = seg_end;
        }
        // Bump the outer odometer (row-major: carry from the right).
        let mut done = true;
        for (c, &n) in oc.iter_mut().zip(count.iter()).rev() {
            *c += 1;
            if *c < n {
                done = false;
                break;
            }
            *c = 0;
        }
        if done {
            break;
        }
    }

    let mut df = DataFrame::new();
    for (name, col) in dims.iter().zip(coord_cols) {
        df = df
            .with_column(name.clone(), Column::I64(col))
            .map_err(|e| format!("pushdown frame column {name:?}: {e}"))?;
    }
    df.with_column("value", Column::F64(values))
        .map_err(|e| format!("pushdown frame value column: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rapi::slab_to_frame;
    use scifmt::snc::chunk_extents_of;
    use scifmt::{Array, Codec, SncBuilder, SncFile};

    /// Build a 3-D f32 variable, decompress all its chunks, and check the
    /// span-assembled frame equals slab_to_frame over the dense slab for a
    /// bunch of (aligned and unaligned) slabs.
    #[test]
    fn assembled_frame_matches_dense_conversion() {
        let data: Vec<f32> = (0..6 * 5 * 7).map(|i| i as f32 * 0.25 - 3.0).collect();
        let full = Array::from_f32(vec![6, 5, 7], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "QR",
            &[("lev", 6), ("lat", 5), ("lon", 7)],
            &[2, 3, 4],
            Codec::ShuffleLz { elem: 4 },
            full.clone(),
        )
        .unwrap();
        let bytes = b.finish();
        let f = SncFile::open(bytes.clone()).unwrap();
        let var = f.meta().var("QR").unwrap().clone();
        let off = f.meta().data_offset;
        let mut chunks: HashMap<usize, Arc<Vec<u8>>> = HashMap::new();
        for (i, ext) in chunk_extents_of(&var, off).iter().enumerate() {
            let frame = &bytes[ext.offset as usize..(ext.offset + ext.clen) as usize];
            chunks.insert(i, Arc::new(scifmt::codec::decompress(frame).unwrap()));
        }
        let dims: Vec<String> = var.dims.iter().map(|d| d.name.clone()).collect();
        for (start, count) in [
            (vec![0, 0, 0], vec![6, 5, 7]), // whole variable
            (vec![2, 0, 0], vec![2, 5, 7]), // chunk-aligned slab
            (vec![1, 1, 2], vec![3, 3, 4]), // unaligned, straddles chunks
            (vec![5, 4, 6], vec![1, 1, 1]), // single element in tail chunks
        ] {
            let got =
                assemble_frame(&var, &dims, &start, &count, &chunks, &HashSet::new()).unwrap();
            let dense = f.get_vara("QR", &start, &count).unwrap();
            let want = slab_to_frame(&dims, &start, &dense).unwrap();
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "slab {start:?}+{count:?}"
            );
        }
    }

    #[test]
    fn skipped_chunks_drop_exactly_their_rows() {
        let data: Vec<f32> = (0..8 * 6).map(|i| i as f32).collect();
        let full = Array::from_f32(vec![8, 6], data).unwrap();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "v",
            &[("row", 8), ("col", 6)],
            &[4, 6],
            Codec::None,
            full.clone(),
        )
        .unwrap();
        let bytes = b.finish();
        let f = SncFile::open(bytes.clone()).unwrap();
        let var = f.meta().var("v").unwrap().clone();
        let off = f.meta().data_offset;
        let mut chunks: HashMap<usize, Arc<Vec<u8>>> = HashMap::new();
        for (i, ext) in chunk_extents_of(&var, off).iter().enumerate() {
            let frame = &bytes[ext.offset as usize..(ext.offset + ext.clen) as usize];
            chunks.insert(i, Arc::new(scifmt::codec::decompress(frame).unwrap()));
        }
        let dims = vec!["row".to_string(), "col".to_string()];
        // Skip chunk 0 (rows 0..4): only rows 4..8 survive — and the
        // surviving chunk's raw bytes need not even be present for chunk 0.
        let mut skipped = HashSet::new();
        skipped.insert(0usize);
        chunks.remove(&0);
        let got = assemble_frame(&var, &dims, &[0, 0], &[8, 6], &chunks, &skipped).unwrap();
        assert_eq!(got.n_rows(), 4 * 6);
        assert_eq!(got.column("row").unwrap().value(0), rframe::Value::I64(4));
        assert_eq!(got.f64_column("value").unwrap()[0], 24.0);
        // A chunk that is neither skipped nor present is a typed error.
        let err = assemble_frame(&var, &dims, &[0, 0], &[8, 6], &chunks, &HashSet::new());
        assert!(err.unwrap_err().contains("missing"));
    }

    #[test]
    fn chunk_stats_cover_dims_value_and_unknown() {
        let dims = vec!["lev".to_string(), "lat".to_string()];
        let zone = ZoneMap {
            min: -1.0,
            max: 7.5,
            null_count: 3,
        };
        let lev = chunk_col_stats(&dims, &[4, 0], &[2, 8], Some(&zone), 16, "lev").unwrap();
        assert_eq!((lev.min, lev.max, lev.null_count, lev.n), (4.0, 5.0, 0, 16));
        let v = chunk_col_stats(&dims, &[4, 0], &[2, 8], Some(&zone), 20, "value").unwrap();
        assert_eq!((v.min, v.max, v.null_count, v.n), (-1.0, 7.5, 3, 20));
        assert!(chunk_col_stats(&dims, &[4, 0], &[2, 8], None, 20, "value").is_none());
        assert!(chunk_col_stats(&dims, &[4, 0], &[2, 8], Some(&zone), 20, "other").is_none());
    }
}
