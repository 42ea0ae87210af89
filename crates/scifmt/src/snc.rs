//! The SNC container: metadata model, builder (writer) and reader.
//!
//! File layout:
//!
//! ```text
//! +--------+------------------+------------------+---------------------+
//! | "SNC1" | header_len (u64) | header (wire.rs) | chunk data ........ |
//! +--------+------------------+------------------+---------------------+
//! ```
//!
//! The header describes a tree of groups (HDF5-style); each group holds
//! attributes, variables and subgroups. A variable records its named
//! dimensions, chunk shape, codec, and the byte extent of every stored chunk
//! (offset *relative to the data section*, compressed and raw lengths).
//! That chunk table is exactly what SciDP's Data Mapper walks to create
//! dummy HDFS blocks, and what the PFS Reader uses to fetch a hyperslab
//! with one contiguous read per chunk.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use scirng::lru::{Lru, Quarantine};

use crate::array::{Array, DType};
use crate::codec::{self, Codec};
use crate::error::{FmtError, Result};
use crate::hyperslab;
use crate::par;
use crate::wire::{Reader, Writer};

/// Below this many raw bytes the codec pipeline stays sequential — thread
/// spawn overhead would dominate.
const PAR_MIN_BYTES: usize = 32 * 1024;

/// Default decompressed-chunk cache capacity per opened file.
/// Default decompressed-chunk cache capacity (64 MiB per open file).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// File magic of the current container revision (v2: headers carry
/// per-chunk zone maps). Format detection ([`is_snc`], the `H5Fis_hdf5`
/// equivalent) accepts both revisions.
pub const MAGIC: [u8; 4] = *b"SNC2";

/// Magic of the original v1 revision (no zone maps). Still parsed — v1
/// containers read back with [`ChunkMeta::zone`] absent, which readers
/// treat as "cannot skip".
pub const MAGIC_V1: [u8; 4] = *b"SNC1";

/// Attribute payloads (netCDF attribute types we need).
#[derive(Clone, Debug, PartialEq)]
pub enum AttrValue {
    Str(String),
    F64(f64),
    I64(i64),
}

/// A named dimension with its extent. Dimensions are stored inline per
/// variable (like netCDF's resolved view of shared dims).
#[derive(Clone, Debug, PartialEq)]
pub struct Dim {
    pub name: String,
    pub len: usize,
}

/// Per-chunk value statistics stamped at build time (v2 headers) — the
/// zone map predicate pushdown consults to rule chunks out before any
/// byte moves. `min`/`max` are over non-NaN elements widened to `f64`;
/// `null_count` counts NaN elements (integer dtypes never have nulls).
/// An all-NaN chunk stores NaN min/max with `null_count` equal to the
/// element count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZoneMap {
    pub min: f64,
    pub max: f64,
    pub null_count: u64,
}

/// Serialized length of a LEB128 varint.
fn varint_len(mut v: u64) -> u64 {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

impl ZoneMap {
    /// Header bytes one stamped zone map occupies in a v2 container
    /// (presence flag + null-count varint + two f64 bounds).
    fn wire_bytes(&self) -> u64 {
        1 + varint_len(self.null_count) + 16
    }

    /// Compute the zone map of one chunk from its raw little-endian bytes.
    /// Trailing bytes short of a full element (impossible for well-formed
    /// chunks) are ignored.
    fn of_raw(dtype: DType, raw: &[u8]) -> ZoneMap {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut nulls = 0u64;
        let mut seen = false;
        let mut upd = |v: f64| {
            if v.is_nan() {
                nulls += 1;
            } else {
                seen = true;
                if v < min {
                    min = v;
                }
                if v > max {
                    max = v;
                }
            }
        };
        match dtype {
            DType::F32 => {
                for c in raw.chunks_exact(4) {
                    if let Ok(b) = <[u8; 4]>::try_from(c) {
                        upd(f32::from_le_bytes(b) as f64);
                    }
                }
            }
            DType::F64 => {
                for c in raw.chunks_exact(8) {
                    if let Ok(b) = <[u8; 8]>::try_from(c) {
                        upd(f64::from_le_bytes(b));
                    }
                }
            }
            DType::I32 => {
                for c in raw.chunks_exact(4) {
                    if let Ok(b) = <[u8; 4]>::try_from(c) {
                        upd(i32::from_le_bytes(b) as f64);
                    }
                }
            }
            DType::I64 => {
                for c in raw.chunks_exact(8) {
                    if let Ok(b) = <[u8; 8]>::try_from(c) {
                        upd(i64::from_le_bytes(b) as f64);
                    }
                }
            }
            DType::U8 => {
                for &b in raw {
                    upd(b as f64);
                }
            }
        }
        if !seen {
            min = f64::NAN;
            max = f64::NAN;
        }
        ZoneMap {
            min,
            max,
            null_count: nulls,
        }
    }
}

/// Stored byte extent of one chunk, offset relative to the data section.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkMeta {
    pub rel_offset: u64,
    /// Compressed (stored) length in bytes.
    pub clen: u64,
    /// Raw (decompressed) length in bytes.
    pub rlen: u64,
    /// CRC-32C of the stored (compressed) frame, computed at build time and
    /// verified on every decode — the end-to-end integrity check for bytes
    /// that travel over the PFS without an HDFS checksum layer.
    pub crc: u32,
    /// Value statistics of the chunk, when the builder stamped them (v2
    /// headers; `None` for v1 containers or builders with stamping off).
    pub zone: Option<ZoneMap>,
}

/// Metadata of one variable (the `nc_inq_var` result).
#[derive(Clone, Debug)]
pub struct VarMeta {
    pub name: String,
    pub dtype: DType,
    pub dims: Vec<Dim>,
    pub chunk_shape: Vec<usize>,
    pub codec: Codec,
    pub attrs: Vec<(String, AttrValue)>,
    /// Row-major over the chunk grid.
    pub chunks: Vec<ChunkMeta>,
}

impl VarMeta {
    /// Element extents per dimension.
    pub fn shape(&self) -> Vec<usize> {
        self.dims.iter().map(|d| d.len).collect()
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    fn n_elems(&self) -> usize {
        self.dims.iter().map(|d| d.len).product()
    }

    /// Total raw (uncompressed) byte size.
    pub fn raw_size(&self) -> usize {
        self.n_elems() * self.dtype.size()
    }

    /// Total stored (compressed) byte size.
    pub fn stored_size(&self) -> usize {
        self.chunks.iter().map(|c| c.clen as usize).sum()
    }

    /// Chunk-grid extents per dimension.
    pub fn grid(&self) -> Vec<usize> {
        hyperslab::chunk_grid(&self.shape(), &self.chunk_shape)
    }

    /// Header bytes this variable's zone-map table occupies in a v2
    /// container (one presence flag per chunk plus the stamped stats).
    pub fn zone_map_wire_bytes(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c.zone.as_ref().map_or(1, ZoneMap::wire_bytes))
            .sum()
    }
}

/// A group node: attributes, variables, subgroups.
#[derive(Clone, Debug, Default)]
pub struct GroupMeta {
    pub name: String,
    pub attrs: Vec<(String, AttrValue)>,
    pub vars: Vec<VarMeta>,
    pub groups: Vec<GroupMeta>,
}

/// Parsed container metadata plus the data-section offset.
#[derive(Clone, Debug)]
pub struct SncMeta {
    pub root: GroupMeta,
    /// Absolute byte offset of the data section in the file.
    pub data_offset: usize,
    /// Header length in bytes (excluding magic and the length field).
    pub header_len: usize,
}

/// Byte extent + geometry of one chunk, with the absolute file offset —
/// the unit SciDP maps to a dummy HDFS block.
#[derive(Clone, Debug, PartialEq)]
pub struct ChunkExtent {
    /// Linear chunk index (row-major over the chunk grid).
    pub index: usize,
    /// Chunk coordinates in the grid.
    pub coords: Vec<usize>,
    /// Element origin of the chunk in the variable.
    pub origin: Vec<usize>,
    /// Clipped element shape of the chunk.
    pub shape: Vec<usize>,
    /// Absolute byte offset in the file.
    pub offset: u64,
    pub clen: u64,
    pub rlen: u64,
    /// CRC-32C of the stored frame (from [`ChunkMeta::crc`]) — lets remote
    /// readers verify fetched frames without the container header.
    pub crc: u32,
    /// Zone map of the chunk's values (from [`ChunkMeta::zone`]) — lets
    /// readers skip chunks a predicate cannot match.
    pub zone: Option<ZoneMap>,
}

// ---------------------------------------------------------------------------
// Detection helpers (Sci-format Head Reader primitives)
// ---------------------------------------------------------------------------

/// `true` if `head` (any prefix of a file, ≥ 4 bytes) starts with the SNC
/// magic — the `nc_open`/`H5Fis_hdf5` probe used by the Sci-format Head
/// Reader to classify files.
pub fn is_snc(head: &[u8]) -> bool {
    head.starts_with(&MAGIC) || head.starts_with(&MAGIC_V1)
}

/// Container revision recorded in a file's magic (1 or 2), or an error for
/// non-SNC bytes.
fn wire_version(head: &[u8]) -> Result<u8> {
    if head.starts_with(&MAGIC) {
        Ok(2)
    } else if head.starts_with(&MAGIC_V1) {
        Ok(1)
    } else {
        Err(FmtError::NotSnc)
    }
}

/// Given at least the first 12 bytes, how many bytes from file start are
/// needed to parse the full header.
pub fn required_header_bytes(prefix: &[u8]) -> Result<usize> {
    if prefix.len() < 12 {
        return Err(FmtError::Truncated {
            what: "SNC preamble",
        });
    }
    if !is_snc(prefix) {
        return Err(FmtError::NotSnc);
    }
    let len = prefix
        .get(4..12)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or(FmtError::Truncated {
            what: "SNC preamble",
        })? as usize;
    Ok(12 + len)
}

// ---------------------------------------------------------------------------
// Header (de)serialization
// ---------------------------------------------------------------------------

fn write_attrs(w: &mut Writer, attrs: &[(String, AttrValue)]) {
    w.put_varint(attrs.len() as u64);
    for (name, v) in attrs {
        w.put_str(name);
        match v {
            AttrValue::Str(s) => {
                w.put_u8(0);
                w.put_str(s);
            }
            AttrValue::F64(x) => {
                w.put_u8(1);
                w.put_f64(*x);
            }
            AttrValue::I64(x) => {
                w.put_u8(2);
                w.put_u64(*x as u64);
            }
        }
    }
}

fn read_attrs(r: &mut Reader<'_>) -> Result<Vec<(String, AttrValue)>> {
    let n = r.get_varint()? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let name = r.get_str()?;
        let tag = r.get_u8()?;
        let v = match tag {
            0 => AttrValue::Str(r.get_str()?),
            1 => AttrValue::F64(r.get_f64()?),
            2 => AttrValue::I64(r.get_u64()? as i64),
            t => return Err(FmtError::Corrupt(format!("bad attr tag {t}"))),
        };
        out.push((name, v));
    }
    Ok(out)
}

fn write_var(w: &mut Writer, v: &VarMeta, version: u8) {
    w.put_str(&v.name);
    w.put_u8(v.dtype.id());
    w.put_varint(v.dims.len() as u64);
    for d in &v.dims {
        w.put_str(&d.name);
        w.put_varint(d.len as u64);
    }
    for &c in &v.chunk_shape {
        w.put_varint(c as u64);
    }
    match v.codec {
        Codec::None => w.put_u8(0),
        Codec::Lz => w.put_u8(1),
        Codec::ShuffleLz { elem } => {
            w.put_u8(2);
            w.put_u8(elem);
        }
    }
    write_attrs(w, &v.attrs);
    w.put_varint(v.chunks.len() as u64);
    for c in &v.chunks {
        w.put_varint(c.rel_offset);
        w.put_varint(c.clen);
        w.put_varint(c.rlen);
        w.put_varint(c.crc as u64);
        if version >= 2 {
            match &c.zone {
                Some(z) => {
                    w.put_u8(1);
                    w.put_varint(z.null_count);
                    w.put_f64(z.min);
                    w.put_f64(z.max);
                }
                None => w.put_u8(0),
            }
        }
    }
}

fn read_var(r: &mut Reader<'_>, version: u8) -> Result<VarMeta> {
    let name = r.get_str()?;
    let dtype = DType::from_id(r.get_u8()?)?;
    let rank = r.get_varint()? as usize;
    if rank > 16 {
        return Err(FmtError::Corrupt(format!("rank {rank} implausible")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        let dname = r.get_str()?;
        let len = r.get_varint()? as usize;
        dims.push(Dim { name: dname, len });
    }
    let mut chunk_shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        let c = r.get_varint()? as usize;
        if c == 0 {
            return Err(FmtError::Corrupt("zero chunk extent".into()));
        }
        chunk_shape.push(c);
    }
    let codec = match r.get_u8()? {
        0 => Codec::None,
        1 => Codec::Lz,
        2 => Codec::ShuffleLz { elem: r.get_u8()? },
        t => return Err(FmtError::Corrupt(format!("bad codec tag {t}"))),
    };
    let attrs = read_attrs(r)?;
    let n_chunks = r.get_varint()? as usize;
    let expect: usize = hyperslab::chunk_grid(
        &dims.iter().map(|d| d.len).collect::<Vec<_>>(),
        &chunk_shape,
    )
    .iter()
    .product();
    if n_chunks != expect {
        return Err(FmtError::Corrupt(format!(
            "variable {name}: {n_chunks} chunks stored, grid wants {expect}"
        )));
    }
    let mut chunks = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let (rel_offset, clen, rlen) = (r.get_varint()?, r.get_varint()?, r.get_varint()?);
        let crc = r.get_varint()?;
        if crc > u32::MAX as u64 {
            return Err(FmtError::Corrupt(format!("chunk crc {crc:#x} exceeds u32")));
        }
        let zone = if version >= 2 {
            match r.get_u8()? {
                0 => None,
                1 => {
                    let null_count = r.get_varint()?;
                    let min = r.get_f64()?;
                    let max = r.get_f64()?;
                    Some(ZoneMap {
                        min,
                        max,
                        null_count,
                    })
                }
                t => return Err(FmtError::Corrupt(format!("bad zone-map flag {t}"))),
            }
        } else {
            None
        };
        chunks.push(ChunkMeta {
            rel_offset,
            clen,
            rlen,
            crc: crc as u32,
            zone,
        });
    }
    Ok(VarMeta {
        name,
        dtype,
        dims,
        chunk_shape,
        codec,
        attrs,
        chunks,
    })
}

fn write_group(w: &mut Writer, g: &GroupMeta, version: u8) {
    w.put_str(&g.name);
    write_attrs(w, &g.attrs);
    w.put_varint(g.vars.len() as u64);
    for v in &g.vars {
        write_var(w, v, version);
    }
    w.put_varint(g.groups.len() as u64);
    for sub in &g.groups {
        write_group(w, sub, version);
    }
}

fn read_group(r: &mut Reader<'_>, depth: usize, version: u8) -> Result<GroupMeta> {
    if depth > 32 {
        return Err(FmtError::Corrupt("group nesting too deep".into()));
    }
    let name = r.get_str()?;
    let attrs = read_attrs(r)?;
    let n_vars = r.get_varint()? as usize;
    let mut vars = Vec::with_capacity(n_vars.min(4096));
    for _ in 0..n_vars {
        vars.push(read_var(r, version)?);
    }
    let n_groups = r.get_varint()? as usize;
    let mut groups = Vec::with_capacity(n_groups.min(1024));
    for _ in 0..n_groups {
        groups.push(read_group(r, depth + 1, version)?);
    }
    Ok(GroupMeta {
        name,
        attrs,
        vars,
        groups,
    })
}

impl SncMeta {
    /// Parse metadata from a file prefix containing the complete header
    /// (use [`required_header_bytes`] to learn how much to read).
    pub fn parse(bytes: &[u8]) -> Result<SncMeta> {
        let version = wire_version(bytes)?;
        let need = required_header_bytes(bytes)?;
        let header = bytes
            .get(12..need)
            .ok_or(FmtError::Truncated { what: "SNC header" })?;
        let mut r = Reader::new(header);
        let root = read_group(&mut r, 0, version)?;
        if r.remaining() != 0 {
            return Err(FmtError::Corrupt(format!(
                "{} trailing bytes after header",
                r.remaining()
            )));
        }
        Ok(SncMeta {
            root,
            data_offset: need,
            header_len: need - 12,
        })
    }

    /// Resolve a slash-separated variable path (e.g. `"physics/QR"`;
    /// a bare name addresses root-group variables).
    pub fn var(&self, path: &str) -> Result<&VarMeta> {
        let mut group = &self.root;
        let mut parts: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
        let Some(var_name) = parts.pop() else {
            return Err(FmtError::NotFound(format!("empty variable path {path:?}")));
        };
        for p in parts {
            group = group
                .groups
                .iter()
                .find(|g| g.name == p)
                .ok_or_else(|| FmtError::NotFound(format!("group {p:?} in path {path:?}")))?;
        }
        group
            .vars
            .iter()
            .find(|v| v.name == var_name)
            .ok_or_else(|| FmtError::NotFound(format!("variable {path:?}")))
    }

    /// All variables flattened as `(path, meta)` pairs, depth-first.
    pub fn all_vars(&self) -> Vec<(String, &VarMeta)> {
        fn walk<'a>(g: &'a GroupMeta, prefix: &str, out: &mut Vec<(String, &'a VarMeta)>) {
            for v in &g.vars {
                let path = if prefix.is_empty() {
                    v.name.clone()
                } else {
                    format!("{prefix}/{}", v.name)
                };
                out.push((path, v));
            }
            for sub in &g.groups {
                let p = if prefix.is_empty() {
                    sub.name.clone()
                } else {
                    format!("{prefix}/{}", sub.name)
                };
                walk(sub, &p, out);
            }
        }
        let mut out = Vec::new();
        walk(&self.root, "", &mut out);
        out
    }

    /// Chunk extents (absolute offsets) of a variable.
    pub fn chunk_extents(&self, path: &str) -> Result<Vec<ChunkExtent>> {
        let var = self.var(path)?;
        Ok(chunk_extents_of(var, self.data_offset))
    }
}

/// Expand a variable's chunk table into geometric extents with absolute
/// file offsets.
pub fn chunk_extents_of(var: &VarMeta, data_offset: usize) -> Vec<ChunkExtent> {
    let shape = var.shape();
    let grid = var.grid();
    var.chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let coords = hyperslab::unrank(&grid, i);
            let origin = hyperslab::chunk_origin(&coords, &var.chunk_shape);
            let cshape = hyperslab::chunk_shape_at(&coords, &var.chunk_shape, &shape);
            ChunkExtent {
                index: i,
                coords,
                origin,
                shape: cshape,
                offset: data_offset as u64 + c.rel_offset,
                clen: c.clen,
                rlen: c.rlen,
                crc: c.crc,
                zone: c.zone,
            }
        })
        .collect()
}

/// Decompress one (CRC-verified) chunk frame and hold the result to the raw
/// length its chunk-table entry records, so a frame that decodes cleanly to
/// the wrong size is a typed error before any cache admits it.
pub fn decode_chunk(frame: &[u8], rlen: u64) -> Result<Vec<u8>> {
    let raw = codec::decompress(frame)?;
    if raw.len() as u64 != rlen {
        return Err(FmtError::Corrupt(format!(
            "chunk decoded to {} bytes, its chunk-table entry records {rlen}",
            raw.len()
        )));
    }
    Ok(raw)
}

/// Assemble a hyperslab from already-decompressed chunk payloads.
///
/// `raw_chunks` maps linear chunk index → raw bytes (only intersecting
/// chunks need be present). This is the reusable core of `nc_get_vara`,
/// shared by [`SncFile::get_vara`] (local bytes) and SciDP's PFS Reader
/// (bytes fetched remotely).
pub fn assemble_slab<C: AsRef<[u8]>>(
    var: &VarMeta,
    start: &[usize],
    count: &[usize],
    raw_chunk: impl Fn(usize) -> Result<C>,
) -> Result<Array> {
    let shape = var.shape();
    hyperslab::check_bounds(&shape, start, count)?;
    let elem = var.dtype.size();
    let n: usize = count.iter().product();
    let mut dst = vec![0u8; n * elem];
    let grid = var.grid();
    for idx in hyperslab::chunks_for_slab(&shape, &var.chunk_shape, start, count) {
        let coords = hyperslab::unrank(&grid, idx);
        let origin = hyperslab::chunk_origin(&coords, &var.chunk_shape);
        let cshape = hyperslab::chunk_shape_at(&coords, &var.chunk_shape, &shape);
        let raw_owner = raw_chunk(idx)?;
        let raw = raw_owner.as_ref();
        if raw.len() != cshape.iter().product::<usize>() * elem {
            return Err(FmtError::Corrupt(format!(
                "chunk {idx} of {:?}: raw length {} != shape {cshape:?} x {elem}",
                var.name,
                raw.len()
            )));
        }
        let (isect_start, isect_count) = hyperslab::intersect(&origin, &cshape, start, count)
            .ok_or_else(|| FmtError::Corrupt("chunk selection does not intersect slab".into()))?;
        let src_off: Vec<usize> = isect_start
            .iter()
            .zip(&origin)
            .map(|(s, o)| s - o)
            .collect();
        let dst_off: Vec<usize> = isect_start.iter().zip(start).map(|(s, o)| s - o).collect();
        hyperslab::copy_slab(
            raw,
            &cshape,
            &src_off,
            &mut dst,
            count,
            &dst_off,
            &isect_count,
            elem,
        );
    }
    Array::from_bytes(var.dtype, count.to_vec(), &dst)
}

// ---------------------------------------------------------------------------
// Builder (writer)
// ---------------------------------------------------------------------------

struct PendingVar {
    meta: VarMeta,
    data: Array,
}

#[derive(Default)]
struct PendingGroup {
    name: String,
    attrs: Vec<(String, AttrValue)>,
    vars: Vec<PendingVar>,
    groups: Vec<PendingGroup>,
}

/// Incrementally builds an SNC container, then serializes it with
/// [`SncBuilder::finish`]. Chunking and compression happen at finish time.
pub struct SncBuilder {
    root: PendingGroup,
    zone_maps: bool,
}

impl Default for SncBuilder {
    fn default() -> Self {
        SncBuilder {
            root: PendingGroup::default(),
            zone_maps: true,
        }
    }
}

impl SncBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable zone-map stamping (on by default). Readers treat
    /// absent zone maps as "cannot skip", so turning stamping off only
    /// forgoes the pushdown optimisation — results never change.
    pub fn zone_maps(&mut self, on: bool) -> &mut Self {
        self.zone_maps = on;
        self
    }

    fn group_mut(&mut self, path: &str) -> &mut PendingGroup {
        let mut g = &mut self.root;
        for part in path.split('/').filter(|s| !s.is_empty()) {
            let pos = g.groups.iter().position(|sub| sub.name == part);
            let idx = match pos {
                Some(i) => i,
                None => {
                    g.groups.push(PendingGroup {
                        name: part.to_string(),
                        ..Default::default()
                    });
                    g.groups.len() - 1
                }
            };
            // scilint::allow(p-index, reason = "idx is position() or the tail just pushed; always in bounds")
            g = &mut g.groups[idx];
        }
        g
    }

    /// Attach an attribute to the group at `path` (`""` = root). Groups on
    /// the path are created as needed.
    pub fn attr(&mut self, path: &str, name: &str, value: AttrValue) -> &mut Self {
        self.group_mut(path).attrs.push((name.to_string(), value));
        self
    }

    /// Add a variable under the group at `group_path`.
    ///
    /// * `dims` — named dimensions, product must equal `data.len()`;
    /// * `chunk` — chunk shape (same rank); clipped at array edges;
    /// * `codec` — per-chunk compression.
    pub fn add_var(
        &mut self,
        group_path: &str,
        name: &str,
        dims: &[(&str, usize)],
        chunk: &[usize],
        codec: Codec,
        data: Array,
    ) -> Result<&mut Self> {
        if dims.len() != chunk.len() {
            return Err(FmtError::Invalid(format!(
                "variable {name}: {} dims but {} chunk extents",
                dims.len(),
                chunk.len()
            )));
        }
        if chunk.contains(&0) {
            return Err(FmtError::Invalid(format!(
                "variable {name}: zero chunk extent"
            )));
        }
        let shape: Vec<usize> = dims.iter().map(|&(_, l)| l).collect();
        if shape != data.shape() {
            return Err(FmtError::Invalid(format!(
                "variable {name}: dims {shape:?} but data shape {:?}",
                data.shape()
            )));
        }
        if let Codec::ShuffleLz { elem } = codec {
            if elem as usize != data.dtype().size() {
                return Err(FmtError::Invalid(format!(
                    "variable {name}: shuffle width {elem} != element size {}",
                    data.dtype().size()
                )));
            }
        }
        let meta = VarMeta {
            name: name.to_string(),
            dtype: data.dtype(),
            dims: dims
                .iter()
                .map(|&(n, l)| Dim {
                    name: n.to_string(),
                    len: l,
                })
                .collect(),
            chunk_shape: chunk.to_vec(),
            codec,
            attrs: Vec::new(),
            chunks: Vec::new(),
        };
        self.group_mut(group_path)
            .vars
            .push(PendingVar { meta, data });
        Ok(self)
    }

    /// Serialize: chunk + compress every variable, lay out the data section
    /// and emit the final container bytes. Chunks are compressed in
    /// parallel (see [`SncBuilder::finish_with_threads`]) — the output is
    /// byte-identical for any worker count.
    pub fn finish(self) -> Vec<u8> {
        self.finish_with_threads(par::default_threads())
    }

    /// [`SncBuilder::finish`] with an explicit worker count. Chunk frames
    /// are computed concurrently but laid out strictly in chunk-index
    /// order, so the container bytes do not depend on `threads`.
    pub fn finish_with_threads(self, threads: usize) -> Vec<u8> {
        fn seal(g: PendingGroup, data: &mut Vec<u8>, threads: usize, stamp: bool) -> GroupMeta {
            let mut vars = Vec::with_capacity(g.vars.len());
            for pv in g.vars {
                let mut meta = pv.meta;
                let shape = meta.shape();
                let grid = hyperslab::chunk_grid(&shape, &meta.chunk_shape);
                let total: usize = grid.iter().product();
                let elem = meta.dtype.size();
                let full = pv.data.to_bytes();
                let zero = vec![0usize; shape.len()];
                let n_threads = if full.len() >= PAR_MIN_BYTES {
                    threads
                } else {
                    1
                };
                let frames = par::par_map_indexed(total, n_threads, 2, |idx| {
                    let coords = hyperslab::unrank(&grid, idx);
                    let origin = hyperslab::chunk_origin(&coords, &meta.chunk_shape);
                    let cshape = hyperslab::chunk_shape_at(&coords, &meta.chunk_shape, &shape);
                    let n: usize = cshape.iter().product();
                    let mut raw = vec![0u8; n * elem];
                    hyperslab::copy_slab(
                        &full, &shape, &origin, &mut raw, &cshape, &zero, &cshape, elem,
                    );
                    let zone = stamp.then(|| ZoneMap::of_raw(meta.dtype, &raw));
                    let frame = codec::compress(meta.codec, &raw);
                    let crc = scirng::crc32c(&frame);
                    (frame, raw.len(), crc, zone)
                });
                for (frame, rlen, crc, zone) in frames {
                    meta.chunks.push(ChunkMeta {
                        rel_offset: data.len() as u64,
                        clen: frame.len() as u64,
                        rlen: rlen as u64,
                        crc,
                        zone,
                    });
                    data.extend_from_slice(&frame);
                }
                vars.push(meta);
            }
            let groups = g
                .groups
                .into_iter()
                .map(|sub| seal(sub, data, threads, stamp))
                .collect();
            GroupMeta {
                name: g.name,
                attrs: g.attrs,
                vars,
                groups,
            }
        }

        let mut data = Vec::new();
        let root = seal(self.root, &mut data, threads.max(1), self.zone_maps);
        let mut hw = Writer::new();
        write_group(&mut hw, &root, 2);
        let header = hw.into_bytes();
        let mut out = Vec::with_capacity(12 + header.len() + data.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&data);
        out
    }
}

// ---------------------------------------------------------------------------
// Decompressed-chunk cache
// ---------------------------------------------------------------------------

/// Snapshot of [`ChunkCache`] counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Decompressed bytes currently resident.
    pub resident_bytes: u64,
    pub entries: u64,
}

/// Bounded, thread-safe LRU cache of decompressed chunk payloads, keyed by
/// `(file id, chunk offset)` — the `(var, chunk_index)` identity, since a
/// chunk's byte offset is unique within a container. Shared by every clone
/// of an [`SncFile`] (and, in `scidp`, across the map tasks of a job), so
/// overlapping hyperslab reads skip redundant decompression.
///
/// Capacity is in decompressed bytes; `0` disables storage (every lookup
/// misses, nothing is retained). Eviction is least-recently-used
/// ([`scirng::lru`]). The cache only ever stores values computed from
/// immutable file bytes, so a hit returns exactly what a fresh
/// decompression would — enabling or sizing the cache can never change
/// results, only timing.
pub struct ChunkCache {
    inner: Mutex<Lru<ChunkKey, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Chunks that failed CRC verification twice (media corruption — a
    /// re-read cannot repair them). Readers check this before issuing I/O
    /// and fail fast instead of re-fetching known-bad bytes. Bounded at
    /// [`DEFAULT_QUARANTINE_CAP`] keys, least-recently-touched evicted.
    quarantined: Mutex<Quarantine<ChunkKey>>,
}

/// `(file id, chunk offset)`.
type ChunkKey = (u64, u64);

/// Bound on the quarantine set (entries, not bytes — each is one 16-byte
/// key).
const DEFAULT_QUARANTINE_CAP: usize = 4096;

impl std::fmt::Debug for ChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ChunkCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("resident_bytes", &s.resident_bytes)
            .finish()
    }
}

impl Default for ChunkCache {
    /// A cache with the [`DEFAULT_CACHE_BYTES`] capacity.
    fn default() -> ChunkCache {
        ChunkCache::new(DEFAULT_CACHE_BYTES)
    }
}

/// Lock a cache mutex, recovering from poisoning: a poisoned lock only
/// means another reader panicked mid-operation; the map is still
/// structurally sound, and a cache must never take the process down.
fn lock_clean<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ChunkCache {
    pub fn new(cap_bytes: usize) -> ChunkCache {
        ChunkCache {
            inner: Mutex::new(Lru::new(cap_bytes as u64)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            quarantined: Mutex::new(Quarantine::new(DEFAULT_QUARANTINE_CAP)),
        }
    }

    /// Mark a chunk as unrepairably corrupt (bumps its quarantine recency).
    /// Any cached payload for it is dropped (defensive — verification
    /// happens before decode, so a bad chunk should never have entered the
    /// cache).
    pub fn quarantine(&self, key: (u64, u64)) {
        lock_clean(&self.quarantined).touch(key);
        lock_clean(&self.inner).remove(&key);
    }

    /// Whether a chunk is quarantined; a hit counts as a touch (true LRU —
    /// chunks that readers keep tripping over stay resident).
    pub fn is_quarantined(&self, key: (u64, u64)) -> bool {
        lock_clean(&self.quarantined).contains(&key)
    }

    /// Number of quarantined chunks (reported through job counters).
    pub fn n_quarantined(&self) -> u64 {
        lock_clean(&self.quarantined).len() as u64
    }

    /// Quarantine entries evicted by the LRU bound since creation
    /// (`chunks_quarantined_evicted` in job counters).
    pub fn n_quarantine_evicted(&self) -> u64 {
        lock_clean(&self.quarantined).evicted()
    }

    /// Stable 64-bit id for a file name (FNV-1a) — combine with a chunk
    /// offset to form a cache key when one cache spans several files.
    pub fn file_key(name: &str) -> u64 {
        scirng::fnv1a(scirng::FNV1A_BASIS, name.as_bytes())
    }

    /// Look up a chunk; bumps recency and the hit/miss counters.
    pub fn lookup(&self, key: (u64, u64)) -> Option<Arc<Vec<u8>>> {
        let hit = lock_clean(&self.inner).get(&key).cloned();
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Insert a decompressed chunk, evicting least-recently-used entries
    /// until it fits. Values larger than the whole capacity are not stored.
    pub fn insert(&self, key: (u64, u64), data: Arc<Vec<u8>>) {
        let len = data.len() as u64;
        lock_clean(&self.inner).insert(key, data, len);
    }

    /// Cached lookup or compute-and-insert. `compute` runs outside the lock
    /// so concurrent readers decompress different chunks in parallel.
    fn get_or_compute(
        &self,
        key: (u64, u64),
        compute: impl FnOnce() -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        if let Some(hit) = self.lookup(key) {
            return Ok(hit);
        }
        let data = Arc::new(compute()?);
        self.insert(key, data.clone());
        Ok(data)
    }

    pub fn stats(&self) -> CacheStats {
        let inner = lock_clean(&self.inner);
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: inner.evictions(),
            resident_bytes: inner.weight(),
            entries: inner.len() as u64,
        }
    }

    pub fn capacity(&self) -> usize {
        lock_clean(&self.inner).capacity() as usize
    }

    /// Drop every resident entry (counters are kept).
    pub fn clear(&self) {
        lock_clean(&self.inner).clear();
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// An opened SNC container (the `nc_open` result): parsed metadata plus the
/// full file bytes and a shared decompressed-chunk cache.
#[derive(Clone, Debug)]
pub struct SncFile {
    meta: SncMeta,
    bytes: Arc<Vec<u8>>,
    /// Distinguishes files sharing one [`ChunkCache`].
    file_id: u64,
    cache: Arc<ChunkCache>,
}

impl SncFile {
    /// Open a container from its complete bytes.
    pub fn open(bytes: impl Into<Arc<Vec<u8>>>) -> Result<SncFile> {
        let bytes = bytes.into();
        let meta = SncMeta::parse(&bytes)?;
        // Content-derived id: header bytes + length (files sharing a cache
        // almost surely differ here; collisions would only share *chunk
        // offsets* too, which contiguous layouts make distinct anyway).
        let head = bytes.get(..meta.data_offset).unwrap_or(&bytes);
        let file_id = scirng::fnv1a(ChunkCache::file_key("snc") ^ (bytes.len() as u64), head);
        Ok(SncFile {
            meta,
            bytes,
            file_id,
            cache: Arc::new(ChunkCache::new(DEFAULT_CACHE_BYTES)),
        })
    }

    /// Replace the chunk cache (e.g. to share one cache across files, or
    /// to disable caching with `ChunkCache::new(0)`).
    pub fn with_cache(mut self, cache: Arc<ChunkCache>) -> SncFile {
        self.cache = cache;
        self
    }

    /// The decompressed-chunk cache backing [`SncFile::get_vara`].
    pub fn cache(&self) -> &Arc<ChunkCache> {
        &self.cache
    }

    /// Hit/miss/eviction counters of the chunk cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    pub fn meta(&self) -> &SncMeta {
        &self.meta
    }

    /// Total file size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Decompressed payload of one chunk of a variable (uncached; allocates
    /// a fresh buffer). Prefer [`SncFile::read_chunk_cached`] on hot paths.
    fn read_chunk_raw(&self, var: &VarMeta, index: usize) -> Result<Vec<u8>> {
        let c = var
            .chunks
            .get(index)
            .ok_or_else(|| FmtError::OutOfBounds(format!("chunk {index} of {}", var.name)))?;
        let off = self.meta.data_offset + c.rel_offset as usize;
        let frame = self
            .bytes
            .get(off..off + c.clen as usize)
            .ok_or(FmtError::Truncated { what: "chunk data" })?;
        let computed = scirng::crc32c(frame);
        if computed != c.crc {
            return Err(FmtError::Checksum {
                what: format!("chunk {index} of {}", var.name),
                stored: c.crc,
                computed,
            });
        }
        decode_chunk(frame, c.rlen)
    }

    /// Decompressed payload of one chunk, served from the chunk cache when
    /// resident.
    fn read_chunk_cached(&self, var: &VarMeta, index: usize) -> Result<Arc<Vec<u8>>> {
        let c = var
            .chunks
            .get(index)
            .ok_or_else(|| FmtError::OutOfBounds(format!("chunk {index} of {}", var.name)))?;
        self.cache.get_or_compute((self.file_id, c.rel_offset), || {
            self.read_chunk_raw(var, index)
        })
    }

    /// Read a hyperslab of a variable (`nc_get_vara`). Intersecting chunks
    /// are decompressed concurrently (cache misses only); decompressed
    /// payloads go through the chunk cache, so overlapping reads of the
    /// same variable skip redundant codec work.
    pub fn get_vara(&self, path: &str, start: &[usize], count: &[usize]) -> Result<Array> {
        let var = self.meta.var(path)?.clone();
        let shape = var.shape();
        hyperslab::check_bounds(&shape, start, count)?;
        let ids = hyperslab::chunks_for_slab(&shape, &var.chunk_shape, start, count);
        let total_raw: u64 = ids
            .iter()
            .filter_map(|&i| var.chunks.get(i))
            .map(|c| c.rlen)
            .sum();
        let threads = if (total_raw as usize) >= PAR_MIN_BYTES {
            par::default_threads()
        } else {
            1
        };
        let fetched = par::par_map_indexed(ids.len(), threads, 2, |k| match ids.get(k) {
            Some(&id) => self.read_chunk_cached(&var, id),
            None => Err(FmtError::Invalid("chunk index out of range".into())),
        });
        let mut by_id: HashMap<usize, Arc<Vec<u8>>> = HashMap::with_capacity(ids.len());
        for (&id, res) in ids.iter().zip(fetched) {
            by_id.insert(id, res?);
        }
        assemble_slab(&var, start, count, |idx| {
            by_id
                .get(&idx)
                .map(|a| a.as_slice())
                .ok_or_else(|| FmtError::NotFound(format!("chunk {idx}")))
        })
    }

    /// Read an entire variable.
    pub fn get_var(&self, path: &str) -> Result<Array> {
        let shape = self.meta.var(path)?.shape();
        let start = vec![0usize; shape.len()];
        self.get_vara(path, &start, &shape)
    }

    /// Chunk extents (absolute offsets) of a variable — the Data Mapper's
    /// input.
    pub fn chunk_extents(&self, path: &str) -> Result<Vec<ChunkExtent>> {
        self.meta.chunk_extents(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayData;
    use scirng::Rng;

    fn ramp_f32(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32) * 0.5 - 10.0).collect()
    }

    fn sample_file() -> Vec<u8> {
        let mut b = SncBuilder::new();
        b.attr("", "title", AttrValue::Str("test".into()));
        b.attr("", "version", AttrValue::I64(3));
        b.add_var(
            "",
            "QR",
            &[("lev", 4), ("lat", 6), ("lon", 5)],
            &[2, 3, 5],
            Codec::ShuffleLz { elem: 4 },
            Array::from_f32(vec![4, 6, 5], ramp_f32(120)).unwrap(),
        )
        .unwrap();
        b.attr("physics", "scheme", AttrValue::Str("GCE".into()));
        b.add_var(
            "physics",
            "T",
            &[("lat", 3), ("lon", 3)],
            &[3, 3],
            Codec::None,
            Array::from_f64(vec![3, 3], (0..9).map(|i| i as f64).collect()).unwrap(),
        )
        .unwrap();
        b.finish()
    }

    #[test]
    fn decode_chunk_holds_a_clean_frame_to_the_recorded_length() {
        let frame = codec::compress(Codec::ShuffleLz { elem: 4 }, &[7u8; 64]);
        assert_eq!(decode_chunk(&frame, 64).unwrap(), vec![7u8; 64]);
        // A frame that decodes without error, but not to the size the
        // chunk table promised the slab assembly.
        assert!(matches!(
            decode_chunk(&frame, 60),
            Err(FmtError::Corrupt(_))
        ));
    }

    #[test]
    fn detection() {
        let f = sample_file();
        assert!(is_snc(&f));
        assert!(!is_snc(b"time,lat,lon,value"));
        assert!(!is_snc(b"SN"));
        assert_eq!(
            required_header_bytes(&f[..12]).unwrap(),
            12 + { u64::from_le_bytes(f[4..12].try_into().unwrap()) as usize }
        );
        assert!(matches!(
            required_header_bytes(b"notsncdata.."),
            Err(FmtError::NotSnc)
        ));
    }

    #[test]
    fn metadata_roundtrip() {
        let f = sample_file();
        let meta = SncMeta::parse(&f).unwrap();
        assert_eq!(meta.root.attrs.len(), 2);
        let qr = meta.var("QR").unwrap();
        assert_eq!(qr.shape(), vec![4, 6, 5]);
        assert_eq!(qr.grid(), vec![2, 2, 1]);
        assert_eq!(qr.chunks.len(), 4);
        assert_eq!(qr.raw_size(), 120 * 4);
        let t = meta.var("physics/T").unwrap();
        assert_eq!(t.dtype, DType::F64);
        assert!(meta.var("missing").is_err());
        assert!(meta.var("physics/missing").is_err());
        let all = meta.all_vars();
        let paths: Vec<&str> = all.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["QR", "physics/T"]);
    }

    #[test]
    fn full_variable_roundtrip() {
        let f = SncFile::open(sample_file()).unwrap();
        let a = f.get_var("QR").unwrap();
        assert_eq!(a.shape(), &[4, 6, 5]);
        let expect = ramp_f32(120);
        match a.data() {
            ArrayData::F32(v) => assert_eq!(v, &expect),
            other => panic!("wrong dtype {other:?}"),
        }
        let t = f.get_var("physics/T").unwrap();
        assert_eq!(t.at(&[2, 2]), 8.0);
    }

    #[test]
    fn hyperslab_matches_full_read() {
        let f = SncFile::open(sample_file()).unwrap();
        let full = f.get_var("QR").unwrap();
        // A slab crossing chunk boundaries in every dim.
        let slab = f.get_vara("QR", &[1, 2, 1], &[2, 3, 3]).unwrap();
        assert_eq!(slab.shape(), &[2, 3, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..3 {
                    assert_eq!(
                        slab.at(&[i, j, k]),
                        full.at(&[1 + i, 2 + j, 1 + k]),
                        "mismatch at {i},{j},{k}"
                    );
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_slab_rejected() {
        let f = SncFile::open(sample_file()).unwrap();
        assert!(f.get_vara("QR", &[3, 0, 0], &[2, 1, 1]).is_err());
        assert!(f.get_vara("QR", &[0, 0], &[1, 1]).is_err());
    }

    #[test]
    fn chunk_extents_are_disjoint_and_ordered() {
        let f = SncFile::open(sample_file()).unwrap();
        let exts = f.chunk_extents("QR").unwrap();
        assert_eq!(exts.len(), 4);
        let mut prev_end = f.meta().data_offset as u64;
        for e in &exts {
            assert_eq!(e.offset, prev_end, "chunks must be contiguous");
            prev_end = e.offset + e.clen;
            assert_eq!(e.rlen as usize, e.shape.iter().product::<usize>() * 4);
        }
    }

    #[test]
    fn corrupt_header_rejected() {
        let mut f = sample_file();
        // Flip a byte inside the header region.
        f[20] ^= 0xff;
        assert!(SncMeta::parse(&f).is_err() || SncFile::open(f.clone()).is_err());
    }

    #[test]
    fn corrupt_chunk_data_fails_crc_check() {
        let bytes = sample_file();
        let clean = SncFile::open(bytes.clone()).unwrap();
        let data_offset = clean.meta().data_offset;
        // Flip one byte in every chunk of QR; each read must report a
        // checksum mismatch, never wrong array data.
        for ext in clean.chunk_extents("QR").unwrap() {
            let mut f = bytes.clone();
            f[ext.offset as usize + (ext.clen as usize) / 2] ^= 0x01;
            let bad = SncFile::open(f).unwrap();
            let var = bad.meta().var("QR").unwrap().clone();
            let err = bad.read_chunk_raw(&var, ext.index).unwrap_err();
            assert!(
                matches!(err, FmtError::Checksum { .. }),
                "chunk {}: {err}",
                ext.index
            );
            assert!(err.to_string().contains("IntegrityError"), "{err}");
        }
        // Sanity: the header region is before the data section.
        assert!(data_offset > 12);
    }

    #[test]
    fn chunk_crcs_match_stored_frames() {
        let f = SncFile::open(sample_file()).unwrap();
        for (path, _) in f.meta().all_vars() {
            for ext in f.chunk_extents(&path).unwrap() {
                let frame = &f.bytes[ext.offset as usize..(ext.offset + ext.clen) as usize];
                assert_eq!(scirng::crc32c(frame), ext.crc, "{path} chunk {}", ext.index);
            }
        }
    }

    #[test]
    fn truncated_file_rejected() {
        let f = sample_file();
        assert!(SncMeta::parse(&f[..8]).is_err());
        let file = SncFile::open(f[..f.len() - 4].to_vec());
        // Header parses but the last chunk read must fail.
        if let Ok(file) = file {
            assert!(file.get_var("physics/T").is_err() || file.get_var("QR").is_err());
        }
    }

    #[test]
    fn builder_rejects_bad_args() {
        let mut b = SncBuilder::new();
        // rank mismatch
        assert!(b
            .add_var(
                "",
                "x",
                &[("a", 2)],
                &[2, 2],
                Codec::None,
                Array::zeros(DType::F32, vec![2]),
            )
            .is_err());
        // shape mismatch
        assert!(b
            .add_var(
                "",
                "x",
                &[("a", 3)],
                &[2],
                Codec::None,
                Array::zeros(DType::F32, vec![2]),
            )
            .is_err());
        // wrong shuffle width
        assert!(b
            .add_var(
                "",
                "x",
                &[("a", 2)],
                &[2],
                Codec::ShuffleLz { elem: 8 },
                Array::zeros(DType::F32, vec![2]),
            )
            .is_err());
    }

    #[test]
    fn compression_shrinks_smooth_fields() {
        let n = 64 * 64;
        let vals: Vec<f32> = (0..n)
            .map(|i| {
                let x = (i % 64) as f32 / 64.0;
                let y = (i / 64) as f32 / 64.0;
                280.0 + 10.0 * (x * 6.0).sin() * (y * 6.0).cos()
            })
            .collect();
        let mut b = SncBuilder::new();
        b.add_var(
            "",
            "T",
            &[("lat", 64), ("lon", 64)],
            &[32, 64],
            Codec::ShuffleLz { elem: 4 },
            Array::from_f32(vec![64, 64], vals).unwrap(),
        )
        .unwrap();
        let f = SncFile::open(b.finish()).unwrap();
        let var = f.meta().var("T").unwrap();
        let ratio = var.raw_size() as f64 / var.stored_size() as f64;
        assert!(ratio > 1.5, "smooth field ratio {ratio:.2} too low");
    }

    /// Any chunking of any small array round-trips both full reads and
    /// random hyperslabs (seeded replacement of the former proptest case).
    #[test]
    fn arbitrary_chunking_roundtrip_seeded() {
        for seed in 0u64..48 {
            let mut rng = Rng::seed_from_u64(seed);
            let rank = 1 + rng.below(3);
            let shape: Vec<usize> = (0..rank).map(|_| 1 + rng.below(8)).collect();
            let chunk: Vec<usize> = shape.iter().map(|&s| 1 + rng.below(s)).collect();
            let n: usize = shape.iter().product();
            let data: Vec<f32> = (0..n).map(|i| i as f32 * 0.25).collect();
            let dims: Vec<(String, usize)> = shape
                .iter()
                .enumerate()
                .map(|(i, &s)| (format!("d{i}"), s))
                .collect();
            let dim_refs: Vec<(&str, usize)> = dims.iter().map(|(n, s)| (n.as_str(), *s)).collect();
            let mut b = SncBuilder::new();
            b.add_var(
                "",
                "v",
                &dim_refs,
                &chunk,
                Codec::ShuffleLz { elem: 4 },
                Array::from_f32(shape.clone(), data.clone()).unwrap(),
            )
            .unwrap();
            let f = SncFile::open(b.finish()).unwrap();
            let full = f.get_var("v").unwrap();
            assert_eq!(full.data(), &ArrayData::F32(data), "seed {seed}");
            // Random slab.
            let start: Vec<usize> = shape.iter().map(|&s| rng.below(s)).collect();
            let count: Vec<usize> = (0..rank)
                .map(|d| 1 + rng.below(shape[d] - start[d]))
                .collect();
            let slab = f.get_vara("v", &start, &count).unwrap();
            let mut coords = vec![0usize; rank];
            'odo: loop {
                let fc: Vec<usize> = coords.iter().zip(&start).map(|(c, s)| c + s).collect();
                assert_eq!(slab.at(&coords), full.at(&fc), "seed {seed} at {coords:?}");
                let mut d = rank;
                loop {
                    if d == 0 {
                        break 'odo;
                    }
                    d -= 1;
                    coords[d] += 1;
                    if coords[d] < count[d] {
                        continue 'odo;
                    }
                    coords[d] = 0;
                }
            }
        }
    }

    /// A larger builder (many chunks, above the parallel threshold) must
    /// produce byte-identical containers with 1 and N worker threads.
    #[test]
    fn parallel_finish_is_byte_identical() {
        fn build() -> SncBuilder {
            let mut b = SncBuilder::new();
            let n = 24 * 32 * 32;
            let data: Vec<f32> = (0..n).map(|i| 280.0 + ((i % 97) as f32) * 0.125).collect();
            b.add_var(
                "",
                "T",
                &[("lev", 24), ("lat", 32), ("lon", 32)],
                &[3, 16, 32],
                Codec::ShuffleLz { elem: 4 },
                Array::from_f32(vec![24, 32, 32], data).unwrap(),
            )
            .unwrap();
            let txt: Vec<f32> = (0..n).map(|i| (i / 50) as f32).collect();
            b.add_var(
                "physics",
                "P",
                &[("lev", 24), ("lat", 32), ("lon", 32)],
                &[5, 32, 32],
                Codec::Lz,
                Array::from_f32(vec![24, 32, 32], txt).unwrap(),
            )
            .unwrap();
            b
        }
        let seq = build().finish_with_threads(1);
        for threads in [2, 4, 8] {
            let par = build().finish_with_threads(threads);
            assert_eq!(seq, par, "threads={threads} diverged");
        }
        // And the public finish() agrees too.
        assert_eq!(seq, build().finish());
    }

    #[test]
    fn cache_hits_on_repeated_reads() {
        let f = SncFile::open(sample_file()).unwrap();
        let a = f.get_vara("QR", &[0, 0, 0], &[4, 6, 5]).unwrap();
        let s1 = f.cache_stats();
        assert_eq!(s1.hits, 0);
        assert_eq!(s1.misses, 4, "4 chunks decompressed");
        // Same read again: all chunks served from cache.
        let b = f.get_vara("QR", &[0, 0, 0], &[4, 6, 5]).unwrap();
        let s2 = f.cache_stats();
        assert_eq!(s2.misses, 4, "no new decompression");
        assert_eq!(s2.hits, 4);
        assert_eq!(a.data(), b.data());
        // Overlapping slab: only cached chunks it intersects are hits.
        let _ = f.get_vara("QR", &[1, 0, 0], &[1, 6, 5]).unwrap();
        let s3 = f.cache_stats();
        assert_eq!(s3.misses, 4);
        assert!(s3.hits > s2.hits);
    }

    #[test]
    fn cache_disabled_and_evicting_return_identical_arrays() {
        let bytes = sample_file();
        let reference = SncFile::open(bytes.clone()).unwrap().get_var("QR").unwrap();
        // Disabled cache (capacity 0): nothing resident, results identical.
        let off = SncFile::open(bytes.clone())
            .unwrap()
            .with_cache(Arc::new(ChunkCache::new(0)));
        let a = off.get_var("QR").unwrap();
        assert_eq!(a.data(), reference.data());
        let s = off.cache_stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.resident_bytes, 0);
        // Tiny capacity (one chunk): constant eviction, results identical.
        let qr = SncFile::open(bytes.clone()).unwrap();
        let one_chunk = qr.meta().var("QR").unwrap().chunks[0].rlen as usize;
        let evicting = qr.with_cache(Arc::new(ChunkCache::new(one_chunk)));
        for _ in 0..3 {
            let b = evicting.get_var("QR").unwrap();
            assert_eq!(b.data(), reference.data());
        }
        let s = evicting.cache_stats();
        assert!(s.evictions > 0, "tiny cache must evict: {s:?}");
        assert!(s.resident_bytes as usize <= one_chunk);
    }

    #[test]
    fn cache_edge_cases_tail_and_single_chunk() {
        // 1-chunk variable and a tail-clipped chunk grid.
        let mut b = SncBuilder::new();
        let vals: Vec<f32> = (0..10).map(|i| i as f32).collect();
        b.add_var(
            "",
            "one",
            &[("x", 10)],
            &[10],
            Codec::ShuffleLz { elem: 4 },
            Array::from_f32(vec![10], vals.clone()).unwrap(),
        )
        .unwrap();
        b.add_var(
            "",
            "tail",
            &[("x", 10)],
            &[4], // chunks of 4,4,2 — last one clipped
            Codec::ShuffleLz { elem: 4 },
            Array::from_f32(vec![10], vals.clone()).unwrap(),
        )
        .unwrap();
        let f = SncFile::open(b.finish()).unwrap();
        for _ in 0..2 {
            let one = f.get_var("one").unwrap();
            let tail = f.get_var("tail").unwrap();
            assert_eq!(one.data(), &ArrayData::F32(vals.clone()));
            assert_eq!(one.data(), tail.data());
        }
        // Tail chunk slab only.
        let t = f.get_vara("tail", &[8], &[2]).unwrap();
        assert_eq!(t.at(&[0]), 8.0);
        assert_eq!(t.at(&[1]), 9.0);
        let s = f.cache_stats();
        assert_eq!(s.misses, 4, "1 + 3 distinct chunks");
        assert!(s.hits >= 4, "second pass + tail slab hit: {s:?}");
    }

    #[test]
    fn clones_share_one_cache() {
        let f = SncFile::open(sample_file()).unwrap();
        let g = f.clone();
        let _ = f.get_var("QR").unwrap();
        let _ = g.get_var("QR").unwrap();
        let s = g.cache_stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 4, "clone reuses the original's chunks");
    }

    #[test]
    fn two_files_share_one_cache() {
        // Two distinct containers opened onto one cache share a single
        // pool; re-opening the same container maps onto already-resident
        // entries (keys are content-derived).
        let build = |seed: f32| {
            let data: Vec<f32> = (0..2 * 4 * 3).map(|i| i as f32 + seed).collect();
            let mut b = SncBuilder::new();
            b.add_var(
                "",
                "QR",
                &[("lev", 2), ("lat", 4), ("lon", 3)],
                &[2, 4, 3],
                Codec::ShuffleLz { elem: 4 },
                Array::from_f32(vec![2, 4, 3], data).unwrap(),
            )
            .unwrap();
            b.finish()
        };
        let (b1, b2) = (build(0.0), build(100.0));
        let cache = Arc::new(ChunkCache::new(1 << 20));
        let open = |b: Vec<u8>| SncFile::open(b).unwrap().with_cache(cache.clone());
        let (f1, f2) = (open(b1.clone()), open(b2));
        assert!(Arc::ptr_eq(f1.cache(), f2.cache()), "one pool, two files");
        f1.get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        f2.get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        let after_two = cache.stats().misses;
        assert!(after_two >= 2, "each file decoded its own chunk");
        // Re-open file 1: same content → same keys → pure hits.
        open(b1).get_vara("QR", &[0, 0, 0], &[2, 4, 3]).unwrap();
        assert_eq!(cache.stats().misses, after_two);
        // Capacity is the cache's bound, not capacity × files.
        assert_eq!(cache.capacity(), 1 << 20);
    }

    #[test]
    fn zone_maps_stamped_and_roundtripped() {
        // sample_file: QR is a ramp over chunks of [2,3,5]; every chunk must
        // carry a zone map consistent with a brute-force scan of its values.
        let f = SncFile::open(sample_file()).unwrap();
        let full = f.get_var("QR").unwrap();
        for ext in f.chunk_extents("QR").unwrap() {
            let z = ext.zone.expect("v2 chunks carry zone maps");
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            let mut coords = ext.origin.clone();
            // Scan the chunk's elements through the full array.
            let n: usize = ext.shape.iter().product();
            for k in 0..n {
                let mut rem = k;
                for (d, &s) in ext.shape.iter().enumerate().rev() {
                    coords[d] = ext.origin[d] + rem % s;
                    rem /= s;
                }
                let v = full.at(&coords);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            assert_eq!(z.min, lo, "chunk {}", ext.index);
            assert_eq!(z.max, hi, "chunk {}", ext.index);
            assert_eq!(z.null_count, 0);
        }
    }

    #[test]
    fn zone_map_edge_cases() {
        // Tail-clipped chunk, single-element chunks, all-NaN chunk, and an
        // integer variable (never has nulls).
        let mut b = SncBuilder::new();
        let mut vals: Vec<f32> = (0..10).map(|i| i as f32).collect();
        vals[8] = f32::NAN; // tail chunk [8,9] is partially null
        b.add_var(
            "",
            "tail",
            &[("x", 10)],
            &[4],
            Codec::ShuffleLz { elem: 4 },
            Array::from_f32(vec![10], vals).unwrap(),
        )
        .unwrap();
        b.add_var(
            "",
            "ones",
            &[("x", 3)],
            &[1], // single-element chunks
            Codec::None,
            Array::from_f32(vec![3], vec![5.0, -1.0, 2.0]).unwrap(),
        )
        .unwrap();
        b.add_var(
            "",
            "allnan",
            &[("x", 4)],
            &[4],
            Codec::None,
            Array::from_f32(vec![4], vec![f32::NAN; 4]).unwrap(),
        )
        .unwrap();
        b.add_var(
            "",
            "ints",
            &[("x", 4)],
            &[2],
            Codec::None,
            Array::new(vec![4], ArrayData::I64(vec![-7, 3, 9, -2])).unwrap(),
        )
        .unwrap();
        let f = SncFile::open(b.finish()).unwrap();

        let tail = f.meta().var("tail").unwrap();
        let zones: Vec<ZoneMap> = tail.chunks.iter().map(|c| c.zone.unwrap()).collect();
        assert_eq!(
            zones[0],
            ZoneMap {
                min: 0.0,
                max: 3.0,
                null_count: 0
            }
        );
        assert_eq!(
            zones[1],
            ZoneMap {
                min: 4.0,
                max: 7.0,
                null_count: 0
            }
        );
        // Clipped tail chunk holds elements 8 (NaN) and 9.
        assert_eq!(zones[2].min, 9.0);
        assert_eq!(zones[2].max, 9.0);
        assert_eq!(zones[2].null_count, 1);

        let ones = f.meta().var("ones").unwrap();
        let mins: Vec<f64> = ones.chunks.iter().map(|c| c.zone.unwrap().min).collect();
        assert_eq!(mins, vec![5.0, -1.0, 2.0]);
        for c in &ones.chunks {
            let z = c.zone.unwrap();
            assert_eq!(z.min, z.max);
        }

        let nanz = f.meta().var("allnan").unwrap().chunks[0].zone.unwrap();
        assert!(nanz.min.is_nan() && nanz.max.is_nan());
        assert_eq!(nanz.null_count, 4);

        let ints = f.meta().var("ints").unwrap();
        let iz: Vec<ZoneMap> = ints.chunks.iter().map(|c| c.zone.unwrap()).collect();
        assert_eq!(
            iz[0],
            ZoneMap {
                min: -7.0,
                max: 3.0,
                null_count: 0
            }
        );
        assert_eq!(
            iz[1],
            ZoneMap {
                min: -2.0,
                max: 9.0,
                null_count: 0
            }
        );

        // Header-parse roundtrip preserves every zone map (incl. NaN bounds).
        let nanz2 = SncMeta::parse(&{
            let mut b2 = SncBuilder::new();
            b2.add_var(
                "",
                "allnan",
                &[("x", 4)],
                &[4],
                Codec::None,
                Array::from_f32(vec![4], vec![f32::NAN; 4]).unwrap(),
            )
            .unwrap();
            b2.finish()
        })
        .unwrap()
        .var("allnan")
        .unwrap()
        .chunks[0]
            .zone
            .unwrap();
        assert!(nanz2.min.is_nan());
        assert_eq!(nanz2.null_count, 4);
    }

    #[test]
    fn builder_toggle_skips_zone_maps() {
        let build = |stamp: bool| {
            let mut b = SncBuilder::new();
            b.zone_maps(stamp);
            b.add_var(
                "",
                "QR",
                &[("lev", 4), ("lat", 6), ("lon", 5)],
                &[2, 3, 5],
                Codec::ShuffleLz { elem: 4 },
                Array::from_f32(vec![4, 6, 5], ramp_f32(120)).unwrap(),
            )
            .unwrap();
            b.finish()
        };
        let with = SncFile::open(build(true)).unwrap();
        let without = SncFile::open(build(false)).unwrap();
        let vw = without.meta().var("QR").unwrap();
        assert!(vw.chunks.iter().all(|c| c.zone.is_none()));
        assert_eq!(vw.zone_map_wire_bytes(), vw.chunks.len() as u64);
        // Data sections are byte-identical; only the header grows, by
        // exactly the stamped zone-map bytes.
        let vz = with.meta().var("QR").unwrap();
        assert!(vz.chunks.iter().all(|c| c.zone.is_some()));
        assert_eq!(
            with.len() - without.len(),
            (vz.zone_map_wire_bytes() - vw.zone_map_wire_bytes()) as usize
        );
        assert_eq!(
            with.get_var("QR").unwrap().data(),
            without.get_var("QR").unwrap().data()
        );
    }

    #[test]
    fn v1_container_parses_without_zone_maps() {
        // Rebuild a byte-exact v1 container: v1 header serialization over
        // the zone-stripped metadata plus the original data section.
        let v2 = sample_file();
        let meta = SncMeta::parse(&v2).unwrap();
        let mut root = meta.root.clone();
        fn strip(g: &mut GroupMeta) {
            for v in &mut g.vars {
                for c in &mut v.chunks {
                    c.zone = None;
                }
            }
            for sub in &mut g.groups {
                strip(sub);
            }
        }
        strip(&mut root);
        let mut hw = Writer::new();
        write_group(&mut hw, &root, 1);
        let header = hw.into_bytes();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MAGIC_V1);
        v1.extend_from_slice(&(header.len() as u64).to_le_bytes());
        v1.extend_from_slice(&header);
        v1.extend_from_slice(&v2[meta.data_offset..]);

        assert!(is_snc(&v1));
        let old = SncFile::open(v1).unwrap();
        let qr = old.meta().var("QR").unwrap();
        assert!(qr.chunks.iter().all(|c| c.zone.is_none()));
        // Data reads are unaffected by the missing zone maps.
        let new = SncFile::open(v2).unwrap();
        assert_eq!(
            old.get_var("QR").unwrap().data(),
            new.get_var("QR").unwrap().data()
        );
        assert_eq!(
            old.get_var("physics/T").unwrap().data(),
            new.get_var("physics/T").unwrap().data()
        );
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ChunkCache::new(300);
        let k = |i: u64| (0u64, i);
        let v = |n: usize| Arc::new(vec![0u8; n]);
        cache.insert(k(1), v(100));
        cache.insert(k(2), v(100));
        cache.insert(k(3), v(100));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.lookup(k(1)).is_some());
        cache.insert(k(4), v(100));
        assert!(cache.lookup(k(2)).is_none(), "LRU entry evicted");
        assert!(cache.lookup(k(1)).is_some());
        assert!(cache.lookup(k(3)).is_some());
        assert!(cache.lookup(k(4)).is_some());
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 3);
        // Oversized values are ignored.
        cache.insert(k(9), v(1000));
        assert!(cache.lookup(k(9)).is_none());
        assert_eq!(cache.stats().entries, 3);
        cache.clear();
        assert_eq!(cache.stats().resident_bytes, 0);
    }
}
