//! Chunk compression: byte-shuffle + LZ, the same family netCDF-4 uses
//! (shuffle filter + deflate).
//!
//! Scientific float arrays compress poorly byte-for-byte but very well after
//! a *shuffle* transpose: grouping the i-th byte of every element together
//! turns the slowly-varying exponent/high-mantissa bytes into long runs that
//! an LZ matcher eats. The LZ stage is an LZ4-style greedy matcher with a
//! 64 KiB window — small, fast, and entirely self-contained.
//!
//! Frame layout: `[codec_id:u8][raw_len:varint][elem:u8 if shuffled][payload]`.
//!
//! [`compress`]/[`decompress`] return a fresh output buffer and work in one
//! thread-local `Scratch`, so every chunk a thread processes (the parallel
//! chunk pipeline's workers, the SciDP reader's decode) reuses the shuffle
//! buffer and the LZ hash table; underneath,
//! `compress_into`/`decompress_into` are the same with a caller-owned
//! `Scratch` and output buffer.

use std::cell::RefCell;

use crate::error::{FmtError, Result};
use crate::wire::Reader;

const MIN_MATCH: usize = 4;
const MAX_DISTANCE: usize = 65_535;
const HASH_BITS: u32 = 15;
/// Elements per transpose tile: 512 × `elem` source bytes stay L1-resident
/// while the tile's writes stream to `elem` separate destinations.
const SHUFFLE_TILE: usize = 512;
/// Elements per constant-size block of the fixed-width shuffle.
const SHUFFLE_BLOCK: usize = 64;

/// Compression scheme applied to a chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Codec {
    /// Stored verbatim.
    None,
    /// LZ only (flat byte data, e.g. text).
    Lz,
    /// Byte shuffle with the given element width, then LZ (float arrays).
    ShuffleLz { elem: u8 },
}

impl Codec {
    fn id(self) -> u8 {
        match self {
            Codec::None => 0,
            Codec::Lz => 1,
            Codec::ShuffleLz { .. } => 2,
        }
    }
}

/// Reusable work buffers for [`compress_into`]/[`decompress_into`]. One per
/// worker thread; cheap to create, much cheaper to reuse.
#[derive(Default, Debug)]
struct Scratch {
    /// Shuffle/unshuffle transpose buffer.
    shuf: Vec<u8>,
    /// LZ match hash table.
    table: MatchTable,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch::default()
    }
}

/// The LZ encoder's hash table. Per slot: the last position whose 4-byte
/// word hashed there, and that word. The two are always written together,
/// so a slot's `val` is the input's word at its `pos`, and a candidate is
/// accepted or rejected without reading the input at it.
///
/// Positions are full `usize`s on one count that runs on across frames:
/// each frame starts more than [`MAX_DISTANCE`] past the end of the one
/// before, so every slot an earlier frame left is out of reach, exactly as
/// an empty slot would be, and the table is never cleared between frames.
#[derive(Default, Debug)]
struct MatchTable {
    pos: Vec<usize>,
    val: Vec<u32>,
    /// Position of the current frame's first byte on the count.
    base: usize,
    /// Where the next frame starts.
    next: usize,
}

impl MatchTable {
    /// Start a frame of `len` bytes. A table not yet used, or whose count
    /// would overflow, starts over with every slot at 0, out of reach of a
    /// frame that starts at `MAX_DISTANCE + 1`.
    fn begin(&mut self, len: usize) {
        const GAP: usize = MAX_DISTANCE + 1;
        let after = |base: usize| base.checked_add(len)?.checked_add(GAP);
        match after(self.next).filter(|_| !self.pos.is_empty()) {
            Some(next) => (self.base, self.next) = (self.next, next),
            None => {
                self.pos.clear();
                self.pos.resize(1 << HASH_BITS, 0);
                self.val.resize(1 << HASH_BITS, 0);
                self.base = GAP;
                self.next = after(GAP).unwrap_or(usize::MAX);
            }
        }
    }

    /// Record position `at` of the frame, whose word is `v`, in `v`'s slot.
    /// Return the distance back to the position the slot held, if that
    /// position's word was `v` too and it is within reach.
    #[inline]
    fn swap(&mut self, v: u32, at: usize) -> Option<usize> {
        let h = hash4(v);
        let (pos, val) = (self.pos.get_mut(h)?, self.val.get_mut(h)?);
        let here = self.base + at;
        let dist = here - std::mem::replace(pos, here);
        (std::mem::replace(val, v) == v && dist <= MAX_DISTANCE).then_some(dist)
    }

    /// Record every position of `src` from `from` on until one's slot holds
    /// a candidate; return that position and the distance back to it.
    #[inline]
    fn next_match(&mut self, src: &[u8], from: usize) -> Option<(usize, usize)> {
        let mut i = from;
        while let Some(v) = word4(src, i) {
            if let Some(dist) = self.swap(v, i) {
                return Some((i, dist));
            }
            i += 1;
        }
        None
    }

    /// Record position `at` of the frame, whose word is `v`, in `v`'s slot.
    #[inline]
    fn put(&mut self, v: u32, at: usize) {
        let h = hash4(v);
        if let (Some(pos), Some(val)) = (self.pos.get_mut(h), self.val.get_mut(h)) {
            (*pos, *val) = (self.base + at, v);
        }
    }
}

// ---------------------------------------------------------------------------
// Shuffle (blocked transpose)
// ---------------------------------------------------------------------------

/// Transpose `data` into `out` so that byte `b` of every `elem`-wide element
/// is contiguous. `out` is cleared and resized. Widths 2, 4 and 8 take the
/// fixed-width path; any other width the tiled loop.
fn shuffle_into(data: &[u8], elem: usize, out: &mut Vec<u8>) {
    assert!(
        elem > 0 && data.len().is_multiple_of(elem),
        "bad shuffle width"
    );
    out.clear();
    out.resize(data.len(), 0);
    match elem {
        1 => out.copy_from_slice(data),
        2 => shuffle_fixed::<2>(data, out),
        4 => shuffle_fixed::<4>(data, out),
        8 => shuffle_fixed::<8>(data, out),
        _ => shuffle_tiled(data, elem, 0, out),
    }
}

/// [`shuffle_into`] for a compile-time width: whole blocks of
/// [`SHUFFLE_BLOCK`] elements are `[[u8; W]; SHUFFLE_BLOCK]` arrays, so each
/// lane's strided gather has constant bounds and compiles to vector
/// de-interleaves; the elements past the last whole block go through the
/// tiled loop.
fn shuffle_fixed<const W: usize>(data: &[u8], out: &mut [u8]) {
    let (elems, _) = data.as_chunks::<W>();
    let (blocks, _) = elems.as_chunks::<SHUFFLE_BLOCK>();
    let n = elems.len();
    for (k, src) in blocks.iter().enumerate() {
        for b in 0..W {
            let at = b * n + k * SHUFFLE_BLOCK;
            for (d, e) in out[at..at + SHUFFLE_BLOCK].iter_mut().zip(src) {
                *d = e[b];
            }
        }
    }
    shuffle_tiled(data, W, blocks.len() * SHUFFLE_BLOCK, out);
}

/// The generic shuffle of elements `from..`: tiled over elements so the
/// working set of each pass stays cache-resident.
fn shuffle_tiled(data: &[u8], elem: usize, from: usize, out: &mut [u8]) {
    let n = data.len() / elem;
    let mut t0 = from;
    while t0 < n {
        let t1 = (t0 + SHUFFLE_TILE).min(n);
        for b in 0..elem {
            let dst = &mut out[b * n + t0..b * n + t1];
            for (k, d) in dst.iter_mut().enumerate() {
                *d = data[(t0 + k) * elem + b];
            }
        }
        t0 = t1;
    }
}

/// Inverse of [`shuffle_into`].
fn unshuffle_into(data: &[u8], elem: usize, out: &mut Vec<u8>) {
    assert!(
        elem > 0 && data.len().is_multiple_of(elem),
        "bad unshuffle width"
    );
    out.clear();
    out.resize(data.len(), 0);
    match elem {
        1 => out.copy_from_slice(data),
        2 => unshuffle_fixed::<2>(data, out),
        4 => unshuffle_fixed::<4>(data, out),
        8 => unshuffle_fixed::<8>(data, out),
        _ => unshuffle_tiled(data, elem, out),
    }
}

/// [`unshuffle_into`] for a compile-time width: every output element is one
/// `[u8; W]` gathered from the `W` lanes, which compiles to vector
/// interleaves.
fn unshuffle_fixed<const W: usize>(data: &[u8], out: &mut [u8]) {
    let (elems, _) = out.as_chunks_mut::<W>();
    if elems.is_empty() {
        return;
    }
    let mut lanes = data.chunks_exact(elems.len());
    let lanes: [&[u8]; W] = std::array::from_fn(|_| lanes.next().unwrap_or_default());
    for (i, e) in elems.iter_mut().enumerate() {
        // scilint::allow(p-index, reason = "b < W indexes the W-lane array; i < elems.len() is every lane's length")
        *e = std::array::from_fn(|b| lanes[b][i]);
    }
}

/// The generic unshuffle, tiled like [`shuffle_tiled`].
fn unshuffle_tiled(data: &[u8], elem: usize, out: &mut [u8]) {
    let n = data.len() / elem;
    let mut t0 = 0;
    while t0 < n {
        let t1 = (t0 + SHUFFLE_TILE).min(n);
        for b in 0..elem {
            let src = &data[b * n + t0..b * n + t1];
            for (k, &s) in src.iter().enumerate() {
                out[(t0 + k) * elem + b] = s;
            }
        }
        t0 = t1;
    }
}

/// Transpose `data` so that byte `b` of every `elem`-wide element is
/// contiguous. `data.len()` must be a multiple of `elem`.
pub fn shuffle(data: &[u8], elem: usize) -> Vec<u8> {
    let mut out = Vec::new();
    shuffle_into(data, elem, &mut out);
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(data: &[u8], elem: usize) -> Vec<u8> {
    let mut out = Vec::new();
    unshuffle_into(data, elem, &mut out);
    out
}

// ---------------------------------------------------------------------------
// LZ core
// ---------------------------------------------------------------------------

/// Hash slot of a little-endian 4-byte word.
#[inline]
fn hash4(v: u32) -> usize {
    ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
}

/// The 4-byte word at `src[at..]`, if the input holds one there.
#[inline]
fn word4(src: &[u8], at: usize) -> Option<u32> {
    let w = src.get(at..)?.first_chunk::<MIN_MATCH>()?;
    Some(u32::from_le_bytes(*w))
}

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a time
/// (the first differing byte of a word is its lowest set bit of the XOR),
/// then byte by byte over the last < 8.
#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let (wa, _) = a.as_chunks::<8>();
    let (wb, _) = b.as_chunks::<8>();
    let mut len = 0;
    for (x, y) in wa.iter().zip(wb) {
        let diff = u64::from_le_bytes(*x) ^ u64::from_le_bytes(*y);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    let (ta, tb) = (
        a.get(len..).unwrap_or_default(),
        b.get(len..).unwrap_or_default(),
    );
    len + ta.iter().zip(tb).take_while(|(x, y)| x == y).count()
}

fn put_len(out: &mut Vec<u8>, mut extra: usize) {
    // LZ4-style length extension: each 255 byte adds 255, terminator < 255.
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// LEB128 varint (same encoding as `wire::Writer::put_varint`).
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Raw LZ encode (no frame), appended to `out`, with the caller's reused
/// hash `table`. Greedy: at each position the one candidate in the word's
/// slot is taken if its word is equal and it lies within [`MAX_DISTANCE`];
/// the match is then extended as far as the input agrees.
fn lz_encode_into(src: &[u8], table: &mut MatchTable, out: &mut Vec<u8>) {
    table.begin(src.len());
    out.reserve(src.len() / 2 + 16);
    let mut anchor = 0usize; // start of pending literals

    while let Some((i, dist)) = table.next_match(src, anchor) {
        // Extend the match forward past the 4 bytes the word check proved.
        let (from, to) = (src.get(i - dist + MIN_MATCH..), src.get(i + MIN_MATCH..));
        let mlen = MIN_MATCH + common_prefix(from.unwrap_or_default(), to.unwrap_or_default());
        let lit = src.get(anchor..i).unwrap_or_default();
        let lit_nib = lit.len().min(15) as u8;
        let mat_nib = (mlen - MIN_MATCH).min(15) as u8;
        let [d0, d1] = (dist as u16).to_le_bytes();
        if lit.is_empty() {
            // Most matches follow a match: token and distance in one copy.
            out.extend_from_slice(&[mat_nib, d0, d1]);
        } else {
            out.push((lit_nib << 4) | mat_nib);
            if lit_nib == 15 {
                put_len(out, lit.len() - 15);
            }
            out.extend_from_slice(lit);
            out.extend_from_slice(&[d0, d1]);
        }
        if mat_nib == 15 {
            put_len(out, mlen - MIN_MATCH - 15);
        }
        // Seed the table inside the match so later data can reference it.
        let step = if mlen > 64 { 8 } else { 2 };
        let mut j = i + 1;
        while j < i + mlen {
            let Some(w) = word4(src, j) else { break };
            table.put(w, j);
            j += step;
        }
        anchor = i + mlen;
    }
    // Trailing literals (match nibble 0, no distance follows — decoder knows
    // because the input ends right after the literal run).
    let lit = src.get(anchor..).unwrap_or_default();
    let lit_nib = lit.len().min(15) as u8;
    out.push(lit_nib << 4);
    if lit_nib == 15 {
        put_len(out, lit.len() - 15);
    }
    out.extend_from_slice(lit);
}

fn get_len(r: &mut Reader<'_>, nib: u8) -> Result<usize> {
    let mut len = nib as usize;
    if nib == 15 {
        loop {
            let b = r.get_u8()?;
            len += b as usize;
            if b < 255 {
                break;
            }
        }
    }
    Ok(len)
}

fn past_declared_length() -> FmtError {
    FmtError::Corrupt("decoded past declared length".into())
}

/// Append `mlen` bytes to `out`, each equal to the byte `dist` positions
/// before it (`1 <= dist <= out.len()`). A match that reaches into its own
/// output (`dist < mlen`) repeats the last `dist` bytes with period `dist`:
/// a one-byte period is a fill, and a longer one is copied in runs of whole
/// periods that double with every copy, so the source of each copy is
/// already written and every copy starts on a period boundary.
fn copy_match(out: &mut Vec<u8>, dist: usize, mlen: usize) {
    let start = out.len() - dist;
    if dist >= mlen {
        out.extend_from_within(start..start + mlen);
    } else if dist == 1 {
        let byte = out[start];
        out.resize(out.len() + mlen, byte);
    } else {
        let end = out.len() + mlen;
        while out.len() < end {
            let run = (out.len() - start).min(end - out.len());
            out.extend_from_within(start..start + run);
        }
    }
}

/// Raw LZ decode (no frame) appended to `out`, which the caller has cleared.
/// `raw_len` is the expected output size, taken from the frame and so
/// untrusted: it is checked against the format's maximum expansion before
/// anything is reserved (a literal costs its own length, and a match turns
/// `3 + k` input bytes into at most `18 + 255 k` output bytes, so a payload
/// of `n` bytes decodes to fewer than `255 n + 19`), and no copy is started
/// that would carry `out` past it.
fn lz_decode_into(src: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<()> {
    debug_assert!(out.is_empty());
    if raw_len > src.len().saturating_mul(255).saturating_add(19) {
        return Err(FmtError::Corrupt(format!(
            "declared length {raw_len} exceeds what a {}-byte payload can decode to",
            src.len()
        )));
    }
    out.reserve(raw_len);
    let mut r = Reader::new(src);
    while r.remaining() > 0 {
        let token = r.get_u8()?;
        let lit_len = get_len(&mut r, token >> 4)?;
        let lits = r.get_bytes(lit_len)?;
        if lit_len > raw_len - out.len() {
            return Err(past_declared_length());
        }
        out.extend_from_slice(lits);
        if r.remaining() == 0 {
            break; // final literal-only token
        }
        let dist = r.get_u16()? as usize;
        if dist == 0 || dist > out.len() {
            return Err(FmtError::Corrupt(format!(
                "bad match distance {dist} at output {}",
                out.len()
            )));
        }
        let mlen = MIN_MATCH + get_len(&mut r, token & 0x0f)?;
        if mlen > raw_len - out.len() {
            return Err(past_declared_length());
        }
        copy_match(out, dist, mlen);
    }
    if out.len() != raw_len {
        return Err(FmtError::Corrupt(format!(
            "decoded {} bytes, expected {raw_len}",
            out.len()
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Framed API
// ---------------------------------------------------------------------------

/// Compress `raw` into a framed chunk appended to `out` (cleared first),
/// reusing `scratch`'s buffers. Output bytes are identical to [`compress`].
fn compress_into(codec: Codec, raw: &[u8], scratch: &mut Scratch, out: &mut Vec<u8>) {
    out.clear();
    out.push(codec.id());
    put_varint(out, raw.len() as u64);
    match codec {
        Codec::None => out.extend_from_slice(raw),
        Codec::Lz => lz_encode_into(raw, &mut scratch.table, out),
        Codec::ShuffleLz { elem } => {
            out.push(elem);
            let mut shuf = std::mem::take(&mut scratch.shuf);
            shuffle_into(raw, elem as usize, &mut shuf);
            lz_encode_into(&shuf, &mut scratch.table, out);
            scratch.shuf = shuf;
        }
    }
}

/// Decompress a framed chunk into `out` (cleared first), reusing `scratch`.
fn decompress_into(frame: &[u8], scratch: &mut Scratch, out: &mut Vec<u8>) -> Result<()> {
    out.clear();
    let mut r = Reader::new(frame);
    let id = r.get_u8()?;
    let raw_len = declared_len(&mut r)?;
    match id {
        0 => {
            out.extend_from_slice(r.get_bytes(raw_len)?);
            Ok(())
        }
        1 => lz_decode_into(r.get_bytes(r.remaining())?, raw_len, out),
        2 => {
            let elem = r.get_u8()? as usize;
            if elem == 0 || !raw_len.is_multiple_of(elem) {
                return Err(FmtError::Corrupt(format!(
                    "shuffle width {elem} incompatible with length {raw_len}"
                )));
            }
            let mut shuf = std::mem::take(&mut scratch.shuf);
            shuf.clear();
            let res = lz_decode_into(r.get_bytes(r.remaining())?, raw_len, &mut shuf);
            if res.is_ok() {
                unshuffle_into(&shuf, elem, out);
            }
            scratch.shuf = shuf;
            res
        }
        other => Err(FmtError::Corrupt(format!("unknown codec id {other}"))),
    }
}

thread_local! {
    /// Per-thread codec scratch behind [`compress`] and [`decompress`]: the
    /// shuffle buffer and the LZ hash table survive across every chunk,
    /// variable and file processed on this thread.
    static TLS_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Compress `raw` into a framed chunk.
pub fn compress(codec: Codec, raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    TLS_SCRATCH.with(|s| compress_into(codec, raw, &mut s.borrow_mut(), &mut out));
    out
}

/// Decompress a framed chunk produced by [`compress`].
pub fn decompress(frame: &[u8]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    TLS_SCRATCH.with(|s| decompress_into(frame, &mut s.borrow_mut(), &mut out))?;
    Ok(out)
}

/// Declared raw (uncompressed) length of a framed chunk, without decoding.
pub fn frame_raw_len(frame: &[u8]) -> Result<usize> {
    let mut r = Reader::new(frame);
    let _ = r.get_u8()?;
    declared_len(&mut r)
}

/// The frame's `raw_len` varint, which must fit the address space.
fn declared_len(r: &mut Reader<'_>) -> Result<usize> {
    usize::try_from(r.get_varint()?)
        .map_err(|_| FmtError::Corrupt("declared length exceeds the address space".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scirng::Rng;

    /// The byte-at-a-time LZ decoder [`lz_decode_into`] replaced (it copied
    /// a whole match before checking the declared length), kept as the
    /// reference of the differential tests. It reserves nothing, so it is
    /// safe to run on frames that declare absurd lengths.
    fn lz_decode_bytewise(src: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        let mut r = Reader::new(src);
        while r.remaining() > 0 {
            let token = r.get_u8()?;
            let lit_len = get_len(&mut r, token >> 4)?;
            out.extend_from_slice(r.get_bytes(lit_len)?);
            if r.remaining() == 0 {
                break;
            }
            let d = r.get_bytes(2)?;
            let dist = u16::from_le_bytes([d[0], d[1]]) as usize;
            if dist == 0 || dist > out.len() {
                return Err(FmtError::Corrupt("bad match distance".into()));
            }
            let mlen = MIN_MATCH + get_len(&mut r, token & 0x0f)?;
            let start = out.len() - dist;
            for k in 0..mlen {
                let b = out[start + k];
                out.push(b);
            }
            if out.len() > raw_len {
                return Err(FmtError::Corrupt("decoded past declared length".into()));
            }
        }
        if out.len() != raw_len {
            return Err(FmtError::Corrupt("decoded length mismatch".into()));
        }
        Ok(out)
    }

    /// The greedy match finder [`lz_encode_into`] replaced: it read
    /// `src[cand..]` for every hash-slot candidate and extended matches one
    /// byte at a time. Kept as the reference the new encoder must equal
    /// token for token.
    fn lz_encode_bytewise(src: &[u8]) -> Vec<u8> {
        let hash4 = |b: &[u8]| {
            let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            ((v.wrapping_mul(2654435761)) >> (32 - HASH_BITS)) as usize
        };
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut out = Vec::new();
        let mut i = 0usize;
        let mut anchor = 0usize;
        let n = src.len();
        while i + MIN_MATCH <= n {
            let h = hash4(&src[i..]);
            let cand = table[h];
            table[h] = i;
            let is_match = cand != usize::MAX
                && i - cand <= MAX_DISTANCE
                && src[cand..cand + MIN_MATCH] == src[i..i + MIN_MATCH];
            if !is_match {
                i += 1;
                continue;
            }
            let mut mlen = MIN_MATCH;
            while i + mlen < n && src[cand + mlen] == src[i + mlen] {
                mlen += 1;
            }
            let lit = &src[anchor..i];
            put_sequence(&mut out, lit, Some((i - cand, mlen)));
            let step = if mlen > 64 { 8 } else { 2 };
            let mut j = i + 1;
            while j + MIN_MATCH <= n && j < i + mlen {
                table[hash4(&src[j..])] = j;
                j += step;
            }
            i += mlen;
            anchor = i;
        }
        put_sequence(&mut out, &src[anchor..], None);
        out
    }

    /// The new encoder through a reused scratch table, as `compress` runs it.
    fn lz_encode(src: &[u8], scratch: &mut Scratch) -> Vec<u8> {
        let mut out = Vec::new();
        lz_encode_into(src, &mut scratch.table, &mut out);
        out
    }

    /// `n` distinct 4-byte words that all hash to slot `h`: the hash is a
    /// multiplication by an odd constant, so it is inverted on any product
    /// whose top `HASH_BITS` bits are `h`.
    fn colliding_words(rng: &mut Rng, h: u32, n: usize) -> Vec<[u8; 4]> {
        const K: u32 = 2654435761;
        // Newton's iteration doubles the correct low bits of K⁻¹ each step.
        let inv = (0..5).fold(K, |x, _| {
            x.wrapping_mul(2u32.wrapping_sub(K.wrapping_mul(x)))
        });
        assert_eq!(K.wrapping_mul(inv), 1);
        let mut words: Vec<[u8; 4]> = Vec::new();
        while words.len() < n {
            let low = rng.next_u32() >> HASH_BITS;
            let w = ((h << (32 - HASH_BITS)) | low)
                .wrapping_mul(inv)
                .to_le_bytes();
            if !words.contains(&w) {
                words.push(w);
            }
        }
        words
    }

    /// The generated inputs of the encoder's differential test, by name.
    fn encoder_corpus() -> Vec<(String, Vec<u8>)> {
        let mut rng = Rng::seed_from_u64(31);
        let mut cases = Vec::new();
        let random = |rng: &mut Rng, n: usize| {
            let mut v = vec![0u8; n];
            rng.fill_bytes(&mut v);
            v
        };
        for n in [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 100, 4096] {
            cases.push((format!("random {n}"), random(&mut rng, n)));
        }
        // Runs of one byte, of a short period, and of both mixed.
        for case in 0..32 {
            let mut data = Vec::new();
            while data.len() < 64 + case * 97 {
                let period = 1 + rng.below(9);
                let pat = random(&mut rng, period);
                let len = 1 + rng.below(300);
                data.extend(pat.iter().cycle().take(len));
            }
            cases.push((format!("runs {case}"), data));
        }
        // Smooth f32 fields, shuffled at every width the format allows.
        for elem in [1usize, 2, 4, 8] {
            for n in [63usize, 1000, 20_000] {
                let raw: Vec<u8> = (0..n)
                    .flat_map(|i| (280.0 + 5.0 * (i as f32 * 0.003).sin()).to_le_bytes())
                    .collect();
                let raw = &raw[..raw.len() / elem * elem];
                cases.push((format!("smooth elem {elem} n {n}"), shuffle(raw, elem)));
            }
        }
        // A match of `m` bytes that ends `e` bytes before the input does:
        // its copy is followed by a byte that breaks it, then `e - 1` more.
        for m in 4..=40 {
            for e in 0..=8 {
                let block = random(&mut rng, m + 1);
                let mut data = block.clone();
                data.extend_from_slice(&block[..m]);
                if e > 0 {
                    data.push(block[m] ^ 0x5a);
                    data.extend(random(&mut rng, e - 1));
                }
                cases.push((format!("match {m} ending {e} before the end"), data));
            }
        }
        // Repeats at distances on both sides of the window's edge.
        for dist in [65_534usize, 65_535, 65_536, 65_537] {
            let block = random(&mut rng, 24);
            let mut data = block.clone();
            data.extend(random(&mut rng, dist - block.len()));
            data.extend_from_slice(&block);
            data.extend(random(&mut rng, 5));
            cases.push((format!("distance {dist}"), data));
        }
        // Matches of exactly `len` bytes around the word and nibble edges.
        for len in [4, 5, 7, 8, 9, 11, 12, 13, 18, 19, 20, 64, 65, 273, 274, 275] {
            let block = random(&mut rng, len + 1);
            let mut data = random(&mut rng, 7);
            data.extend_from_slice(&block);
            data.extend(random(&mut rng, 3));
            data.extend_from_slice(&block[..len]);
            data.push(block[len] ^ 0xa5);
            data.extend(random(&mut rng, 11));
            cases.push((format!("match of {len}"), data));
        }
        // Many 4-grams sharing one hash slot but differing in value, in a
        // random order with repeats, so most candidates are collisions and
        // some are true matches at varying distances.
        for (case, alphabet) in [2usize, 8, 64, 512].into_iter().enumerate() {
            let h = rng.below(1 << HASH_BITS) as u32;
            let words = colliding_words(&mut rng, h, alphabet);
            let data: Vec<u8> = (0..4000).flat_map(|_| words[rng.below(alphabet)]).collect();
            cases.push((format!("collisions {case}: {alphabet} words"), data));
        }
        cases
    }

    #[test]
    fn lz_encoder_matches_bytewise_reference_on_generated_inputs() {
        let mut scratch = Scratch::new();
        let cases = encoder_corpus();
        for (what, data) in &cases {
            let want = lz_encode_bytewise(data);
            assert_eq!(lz_encode(data, &mut scratch), want, "{what}");
            let mut back = Vec::new();
            lz_decode_into(&want, data.len(), &mut back).expect(what);
            assert_eq!(&back, data, "{what}: roundtrip");
        }
        // The table is reused across frames: run the corpus again in
        // reverse so every frame starts from another's leftovers.
        for (what, data) in cases.iter().rev() {
            assert_eq!(
                lz_encode(data, &mut scratch),
                lz_encode_bytewise(data),
                "{what}: reused"
            );
        }
    }

    #[test]
    fn the_position_count_starts_over_before_it_overflows() {
        // A frame placed at the very top of the count, and the one whose
        // count would overflow (the table starts over), write what a fresh
        // table writes, whatever the frame before them left in it.
        let mut scratch = Scratch::new();
        for (what, data) in encoder_corpus().iter().step_by(7) {
            let want = lz_encode_bytewise(data);
            let top = usize::MAX - data.len() - MAX_DISTANCE - 1;
            for next in [top, top + 1, usize::MAX] {
                lz_encode(data, &mut scratch);
                scratch.table.next = next;
                assert_eq!(lz_encode(data, &mut scratch), want, "{what}: next {next}");
                let restarted = next > top;
                assert_eq!(scratch.table.base == MAX_DISTANCE + 1, restarted, "{what}");
            }
        }
    }

    #[test]
    fn colliding_inputs_do_collide() {
        // The collision cases are only worth their name if their words
        // really share a slot.
        let mut rng = Rng::seed_from_u64(32);
        let words = colliding_words(&mut rng, 12_345, 100);
        for w in words {
            assert_eq!(hash4(u32::from_le_bytes(w)), 12_345);
        }
    }

    /// The canonical inverse transpose: `out[i*elem + b] == data[b*n + i]`.
    fn unshuffle_canonical(data: &[u8], elem: usize) -> Vec<u8> {
        let n = data.len() / elem;
        (0..data.len())
            .map(|o| data[(o % elem) * n + o / elem])
            .collect()
    }

    /// Framed decode through the reference kernels only.
    fn decompress_bytewise(frame: &[u8]) -> Result<Vec<u8>> {
        let mut r = Reader::new(frame);
        let id = r.get_u8()?;
        let raw_len = r.get_varint()? as usize;
        match id {
            0 => Ok(r.get_bytes(raw_len)?.to_vec()),
            1 => lz_decode_bytewise(r.get_bytes(r.remaining())?, raw_len),
            2 => {
                let elem = r.get_u8()? as usize;
                if elem == 0 || !raw_len.is_multiple_of(elem) {
                    return Err(FmtError::Corrupt("bad shuffle width".into()));
                }
                let shuf = lz_decode_bytewise(r.get_bytes(r.remaining())?, raw_len)?;
                Ok(unshuffle_canonical(&shuf, elem))
            }
            _ => Err(FmtError::Corrupt("unknown codec id".into())),
        }
    }

    /// One hand-built LZ token: `lits`, then a `(dist, mlen)` match — or,
    /// with no match, the literal-only token that ends a stream.
    fn put_sequence(out: &mut Vec<u8>, lits: &[u8], mat: Option<(usize, usize)>) {
        let lit_nib = lits.len().min(15) as u8;
        let mat_nib = mat.map_or(0, |(_, mlen)| (mlen - MIN_MATCH).min(15) as u8);
        out.push((lit_nib << 4) | mat_nib);
        if lit_nib == 15 {
            put_len(out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        if let Some((dist, mlen)) = mat {
            out.extend_from_slice(&(dist as u16).to_le_bytes());
            if mat_nib == 15 {
                put_len(out, mlen - MIN_MATCH - 15);
            }
        }
    }

    /// Lengths on both sides of every length-encoding boundary: the 4-bit
    /// nibble saturates at 15 literals / 19 match bytes, and each extension
    /// byte at 255 more (270 literals / 274 match bytes).
    const EDGE_LENS: [usize; 14] = [4, 5, 14, 15, 16, 18, 19, 20, 269, 270, 271, 273, 274, 275];

    #[test]
    fn lz_decoder_matches_bytewise_reference_on_generated_token_streams() {
        let mut rng = Rng::seed_from_u64(14);
        let mut out = Vec::new();
        for dist in 1..=16usize {
            for mlen in EDGE_LENS {
                for extra in [0, 3, 270] {
                    // `lead` literals, the match under test (overlapping
                    // whenever dist < mlen), a second match reaching back
                    // anywhere over the output so far, trailing literals.
                    let mut edge = || EDGE_LENS[rng.below(EDGE_LENS.len())];
                    let (lead, mlen2, tail) = (dist + extra, edge(), edge());
                    let mut lits = vec![0u8; lead.max(tail)];
                    rng.fill_bytes(&mut lits);
                    let lits2 = &lits[..rng.below(lead + 1)];
                    let dist2 = 1 + rng.below(lead + mlen + lits2.len());
                    let mut payload = Vec::new();
                    put_sequence(&mut payload, &lits[..lead], Some((dist, mlen)));
                    put_sequence(&mut payload, lits2, Some((dist2, mlen2)));
                    put_sequence(&mut payload, &lits[..tail], None);
                    let raw_len = lead + mlen + lits2.len() + mlen2 + tail;

                    let what = format!("dist {dist} mlen {mlen} lead {lead}");
                    let want = lz_decode_bytewise(&payload, raw_len).expect(&what);
                    out.clear();
                    lz_decode_into(&payload, raw_len, &mut out).expect(&what);
                    assert_eq!(out, want, "{what}");
                    // A wrong declaration fails typed in both decoders, and
                    // the new one stops before it outgrows the declaration.
                    for wrong in [raw_len - 1, raw_len + 1, lead + 1] {
                        let mut out = Vec::new();
                        assert!(lz_decode_into(&payload, wrong, &mut out).is_err(), "{what}");
                        assert!(lz_decode_bytewise(&payload, wrong).is_err(), "{what}");
                        assert!(out.capacity() <= wrong.max(8), "{what}: outgrew {wrong}");
                    }
                }
            }
        }
    }

    /// The `scratch_reuse_is_bit_identical` corpus: smooth and random
    /// payloads of every shuffle width, with the codec that fits each.
    fn corpus_case(rng: &mut Rng, case: usize, max_elems: usize) -> (Codec, Vec<u8>) {
        let n = 64 + rng.below(max_elems);
        let elem = [1usize, 2, 4, 8][case % 4];
        let mut data = vec![0u8; n * elem];
        // Half the cases smooth, half random.
        if case.is_multiple_of(2) {
            for (i, b) in data.iter_mut().enumerate() {
                *b = ((i / 7) % 251) as u8;
            }
        } else {
            rng.fill_bytes(&mut data);
        }
        let codec = if elem == 1 {
            Codec::Lz
        } else {
            Codec::ShuffleLz { elem: elem as u8 }
        };
        (codec, data)
    }

    #[test]
    fn mutated_frames_decode_like_the_reference_or_fail_typed() {
        let mut rng = Rng::seed_from_u64(15);
        for case in 0..1000 {
            let (codec, data) = corpus_case(&mut rng, case, 1024);
            let mut frame = compress(codec, &data);
            let at = rng.below(frame.len());
            frame[at] ^= 1 << rng.below(8);
            let (mut scratch, mut out) = (Scratch::new(), Vec::new());
            let got = decompress_into(&frame, &mut scratch, &mut out);
            match (got, decompress_bytewise(&frame)) {
                (Ok(()), Ok(want)) => assert_eq!(out, want, "case {case}: flip at {at}"),
                (Err(_), Err(_)) => {}
                (got, want) => panic!(
                    "case {case}: flip at {at}: new {got:?}, reference {:?}",
                    want.map(|w| w.len())
                ),
            }
            // Whatever the flip did to the header, nothing beyond the
            // declared length was ever allocated.
            let declared = frame_raw_len(&frame).unwrap_or(0).max(8);
            assert!(out.capacity() <= declared, "case {case}: out");
            assert!(scratch.shuf.capacity() <= declared, "case {case}: scratch");
        }
    }

    #[test]
    fn absurd_declared_length_is_rejected_before_allocating() {
        // `[codec][raw_len = 2^62][one empty token]`: the old decoder
        // reserved 2^62 bytes for this and aborted the process.
        for codec_id in [1u8, 2] {
            let mut frame = vec![codec_id];
            put_varint(&mut frame, 1 << 62);
            if codec_id == 2 {
                frame.push(4);
            }
            frame.push(0);
            let mut out = Vec::new();
            let got = decompress_into(&frame, &mut Scratch::new(), &mut out);
            assert!(matches!(got, Err(FmtError::Corrupt(_))), "{got:?}");
            assert_eq!(out.capacity(), 0);
        }
    }

    #[test]
    fn long_match_extension_is_bounded_by_the_declared_length() {
        // One literal, then a match whose `255…` extension runs to 65 000
        // bytes, in a frame that declares 300: plausible for its payload
        // size, so it is the per-copy bound that has to stop it.
        let mut frame = vec![1u8];
        put_varint(&mut frame, 300);
        put_sequence(&mut frame, b"a", Some((1, 65_000)));
        let mut out = Vec::new();
        let got = decompress_into(&frame, &mut Scratch::new(), &mut out);
        assert_eq!(got, Err(past_declared_length()));
        assert!(out.capacity() <= 300, "copied {} bytes", out.capacity());
    }

    #[test]
    fn empty_roundtrip() {
        for c in [Codec::None, Codec::Lz, Codec::ShuffleLz { elem: 4 }] {
            let f = compress(c, &[]);
            assert_eq!(decompress(&f).unwrap(), Vec::<u8>::new());
        }
    }

    #[test]
    fn stored_roundtrip() {
        let data = b"hello world".to_vec();
        let f = compress(Codec::None, &data);
        assert_eq!(decompress(&f).unwrap(), data);
        assert_eq!(frame_raw_len(&f).unwrap(), data.len());
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = (0..100_000u32).map(|i| (i / 1000) as u8).collect();
        let f = compress(Codec::Lz, &data);
        assert!(
            f.len() < data.len() / 10,
            "ratio too poor: {} -> {}",
            data.len(),
            f.len()
        );
        assert_eq!(decompress(&f).unwrap(), data);
    }

    #[test]
    fn smooth_floats_compress_after_shuffle() {
        // A smooth field like NU-WRF output: shuffle should expose the
        // near-constant exponent bytes.
        let vals: Vec<f32> = (0..50_000)
            .map(|i| 280.0 + 5.0 * (i as f32 * 0.001).sin())
            .collect();
        let raw: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        let shuffled = compress(Codec::ShuffleLz { elem: 4 }, &raw);
        let plain = compress(Codec::Lz, &raw);
        assert_eq!(decompress(&shuffled).unwrap(), raw);
        assert!(
            shuffled.len() < plain.len(),
            "shuffle should help: {} vs {}",
            shuffled.len(),
            plain.len()
        );
        let ratio = raw.len() as f64 / shuffled.len() as f64;
        assert!(ratio > 2.0, "ratio {ratio:.2} too low for smooth field");
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // Pseudo-random bytes: expansion is allowed, corruption is not.
        let mut rng = Rng::seed_from_u64(0x12345678);
        let mut data = vec![0u8; 10_000];
        rng.fill_bytes(&mut data);
        for c in [Codec::Lz, Codec::ShuffleLz { elem: 8 }] {
            let f = compress(c, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }

    #[test]
    fn shuffle_is_involution() {
        let data: Vec<u8> = (0..64).collect();
        assert_eq!(unshuffle(&shuffle(&data, 4), 4), data);
        assert_eq!(unshuffle(&shuffle(&data, 8), 8), data);
        assert_eq!(unshuffle(&shuffle(&data, 1), 1), data);
    }

    #[test]
    fn shuffle_paths_match_canonical_transpose() {
        // The copy (1), fixed-width (2/4/8) and tiled (3) paths, at element
        // counts around the block and tile sizes, must all produce the
        // canonical transpose: out[b*n + i] == data[i*elem + b].
        let mut rng = Rng::seed_from_u64(11);
        let (block, tile) = (SHUFFLE_BLOCK, SHUFFLE_TILE);
        for elem in [1usize, 2, 3, 4, 8] {
            for n in [
                0,
                1,
                block - 1,
                block,
                block + 1,
                tile - 1,
                tile,
                tile + 1,
                2 * tile + 37,
            ] {
                let mut data = vec![0u8; n * elem];
                rng.fill_bytes(&mut data);
                let out = shuffle(&data, elem);
                for i in 0..n {
                    for b in 0..elem {
                        assert_eq!(
                            out[b * n + i],
                            data[i * elem + b],
                            "elem {elem} n {n} i {i} b {b}"
                        );
                    }
                }
                assert_eq!(unshuffle(&out, elem), data, "elem {elem} n {n}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let mut rng = Rng::seed_from_u64(21);
        let mut scratch = Scratch::new();
        let mut frame = Vec::new();
        let mut back = Vec::new();
        let mut stored = Vec::new();
        for case in 0..32 {
            let (codec, data) = corpus_case(&mut rng, case, 4096);
            compress_into(codec, &data, &mut scratch, &mut frame);
            assert_eq!(frame, compress(codec, &data), "case {case}: frames differ");
            decompress_into(&frame, &mut scratch, &mut back).unwrap();
            assert_eq!(back, data, "case {case}: roundtrip");
            stored.extend_from_slice(&frame);
        }
        // The compressor's output is a stored format: these are the bytes
        // the commit before the fixed-width shuffle produced for this corpus.
        assert_eq!(stored.len(), 170_710);
        assert_eq!(scirng::hash64(&stored), 0xd827_e320_f4f3_4349);
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let data = vec![42u8; 1000];
        let mut f = compress(Codec::Lz, &data);
        // Unknown codec id.
        let mut g = f.clone();
        g[0] = 99;
        assert!(decompress(&g).is_err());
        // Truncated payload.
        f.truncate(f.len() / 2);
        assert!(decompress(&f).is_err());
    }

    #[test]
    fn overlapping_match_rle() {
        let data = vec![7u8; 100_000];
        let f = compress(Codec::Lz, &data);
        assert!(f.len() < 600);
        assert_eq!(decompress(&f).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_arbitrary_seeded() {
        // Replaces the former proptest case: arbitrary byte vectors.
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..64 {
            let n = rng.below(4096);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let f = compress(Codec::Lz, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }

    #[test]
    fn shuffle_lz_roundtrip_f32_seeded() {
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..64 {
            let n = rng.below(1024);
            let raw: Vec<u8> = (0..n)
                .flat_map(|_| f32::from_bits(rng.next_u32()).to_le_bytes())
                .collect();
            let f = compress(Codec::ShuffleLz { elem: 4 }, &raw);
            assert_eq!(decompress(&f).unwrap(), raw);
        }
    }

    #[test]
    fn lz_roundtrip_structured_seeded() {
        // Run-structured data (the old proptest `lz_roundtrip_structured`).
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..64 {
            let n_runs = rng.below(64);
            let mut data = Vec::new();
            for _ in 0..n_runs {
                let b = rng.below(256) as u8;
                let len = 1 + rng.below(199);
                data.extend(std::iter::repeat_n(b, len));
            }
            let f = compress(Codec::Lz, &data);
            assert_eq!(decompress(&f).unwrap(), data);
        }
    }
}
