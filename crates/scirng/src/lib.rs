//! # scirng — the workspace's internal PRNG
//!
//! A tiny, dependency-free replacement for the `rand` crate: SplitMix64
//! expands a `u64` seed into the 256-bit state of a xoshiro256++ generator
//! (Blackman & Vigna). Deterministic across platforms and Rust versions —
//! exactly what the synthetic-dataset generators and the seeded tests need.
//! Not cryptographic, and not intended to be.
//!
//! As the workspace's leaf crate it also hosts what every storage layer
//! shares: [`crc32c`], PNG's [`crc32`] and the one LRU implementation
//! ([`lru`]).

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod lru;

/// SplitMix64 step — also usable standalone for cheap hash mixing.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64-bit FNV-1a offset basis: the state [`fnv1a`] starts a hash from.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the 64-bit FNV-1a state `h` (a fresh hash starts from
/// [`FNV1A_BASIS`]): deterministic across runs and platforms — partition
/// assignment, chunk-cache keys and file ids are built on it.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Mix arbitrary bytes into a 64-bit value (FNV-1a folded through
/// SplitMix64) — used to derive cache keys and per-name seeds.
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut s = fnv1a(FNV1A_BASIS, bytes);
    splitmix64(&mut s)
}

/// One byte of table-driven CRC: `table[byte]`.
#[inline(always)]
fn lut(table: &[u32; 256], byte: u8) -> u32 {
    // scilint::allow(p-index, reason = "a u8 always indexes a 256-entry table in bounds")
    table[byte as usize]
}

/// Slice-by-8 lookup tables of the reflected CRC-32 with polynomial
/// `poly`. `T[0]` is the classic byte-at-a-time table and `T[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight input bytes fold
/// into the state with eight independent lookups instead of eight
/// dependent ones.
fn slice8_tables(poly: u32) -> [[u32; 256]; 8] {
    let mut t0 = [0u32; 256];
    for (i, slot) in t0.iter_mut().enumerate() {
        *slot = (0..8).fold(i as u32, |crc, _| {
            (crc >> 1) ^ if crc & 1 != 0 { poly } else { 0 }
        });
    }
    let mut tables = [t0; 8];
    let mut prev = t0;
    for table in tables.iter_mut().skip(1) {
        for (slot, p) in table.iter_mut().zip(prev) {
            *slot = (p >> 8) ^ lut(&t0, p as u8);
        }
        prev = *table;
    }
    tables
}

/// Tables of [`crc32c`]: the reflected Castagnoli polynomial 0x82F63B78,
/// the CRC HDFS uses for block checksums. Built on first use.
fn crc32c_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| slice8_tables(0x82F6_3B78))
}

/// Tables of [`crc32`]: the reflected IEEE 802.3 polynomial 0xEDB88320,
/// the CRC PNG chunks carry. Built on first use.
fn crc32_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| slice8_tables(0xEDB8_8320))
}

/// The one slice-by-8 CRC body: eight bytes per step through `tables`,
/// the tail byte by byte; initial value and final XOR all ones. Always
/// inlined, so each caller is one loop with no call per buffer, and
/// `crc32c` compiles to the same code it had before the body was shared.
#[inline(always)]
fn crc_slice8(tables: &[[u32; 256]; 8], bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = tables;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u32;
    for word in words {
        let [a, b, c, d, e, f, g, h] = (u64::from_le_bytes(*word) ^ u64::from(crc)).to_le_bytes();
        crc = lut(t7, a)
            ^ lut(t6, b)
            ^ lut(t5, c)
            ^ lut(t4, d)
            ^ lut(t3, e)
            ^ lut(t2, f)
            ^ lut(t1, g)
            ^ lut(t0, h);
    }
    for &byte in tail {
        crc = (crc >> 8) ^ lut(t0, crc as u8 ^ byte);
    }
    !crc
}

/// CRC-32C (Castagnoli) of `bytes` — the checksum guarding every data
/// transfer in the workspace (PFS stripe reads, HDFS block replicas, SNC
/// chunk frames). Software slice-by-8; deterministic across platforms.
pub fn crc32c(bytes: &[u8]) -> u32 {
    crc_slice8(crc32c_tables(), bytes)
}

/// CRC-32 (IEEE 802.3, bit-reflected) of `bytes` — the checksum of every
/// PNG chunk. The same slice-by-8 body as [`crc32c`] over its own tables.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_slice8(crc32_tables(), bytes)
}

/// xoshiro256++ generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seed deterministically from a single `u64` (SplitMix64 expansion,
    /// the seeding procedure the xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, n)`. `n` must be nonzero. Uses the widening-multiply
    /// method (Lemire) with a rejection step for exact uniformity.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        let n = n as u64;
        let reject_below = n.wrapping_neg() % n; // 2^64 mod n
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= reject_below {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform byte in `[lo, hi]` (inclusive) — the `gen_range(b'a'..=b'z')`
    /// pattern used by the text-workload generators.
    #[inline]
    pub fn byte_inclusive(&mut self, lo: u8, hi: u8) -> u8 {
        lo + self.below((hi - lo + 1) as usize) as u8
    }

    pub fn fill_bytes(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::seed_from_u64(43);
        assert_ne!(Rng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 0 (published SplitMix64 test vector).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(&mut s), 0x6e789e6aa1b965f4);
        assert_eq!(splitmix64(&mut s), 0x06c45d188009454f);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut r = Rng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.f32();
            assert!((0.0..1.0).contains(&y));
            let z = r.range_f32(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&z));
        }
    }

    #[test]
    fn byte_inclusive_hits_bounds() {
        let mut r = Rng::seed_from_u64(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let b = r.byte_inclusive(b'A', b'Z');
            assert!(b.is_ascii_uppercase());
            lo_seen |= b == b'A';
            hi_seen |= b == b'Z';
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn fill_bytes_varies() {
        let mut r = Rng::seed_from_u64(5);
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn crc32c_reference_vectors() {
        // The canonical check value for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 §B.4 test patterns.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
    }

    /// The byte-at-a-time loop the slice-by-8 body replaced, over the first
    /// table of `tables` — the reference the differential tests compare
    /// against.
    fn crc_bytewise(tables: &[[u32; 256]; 8], bytes: &[u8]) -> u32 {
        let [t0, ..] = tables;
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_reference_vectors() {
        // The canonical check value for CRC-32 (IEEE), PNG's checksum.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // The CRC of a PNG's IEND chunk (tag, empty body).
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn crc32c_matches_bytewise_reference() {
        crc_matches_bytewise(crc32c, crc32c_tables(), 0x00c4_c32c);
    }

    #[test]
    fn crc32_matches_bytewise_reference() {
        crc_matches_bytewise(crc32, crc32_tables(), 0x00c4_0032);
    }

    /// Every length 0..=64 at every start offset 0..8 (all word/tail
    /// splits and alignments), then 64 long buffers of random length.
    fn crc_matches_bytewise(crc: fn(&[u8]) -> u32, tables: &[[u32; 256]; 8], seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut buf = vec![0u8; 64 + 8];
        rng.fill_bytes(&mut buf);
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc(s), crc_bytewise(tables, s), "start {start} len {len}");
            }
        }
        for case in 0..64 {
            let mut long = vec![0u8; 1 + rng.below(1 << 16)];
            rng.fill_bytes(&mut long);
            assert_eq!(crc(&long), crc_bytewise(tables, &long), "long case {case}");
        }
    }

    #[test]
    fn crc32c_detects_single_byte_flips() {
        let base: Vec<u8> = (0..255u32).map(|i| (i % 251) as u8).collect();
        let want = crc32c(&base);
        for i in [0usize, 1, 100, 254] {
            let mut flipped = base.clone();
            flipped[i] ^= 0x40;
            assert_ne!(crc32c(&flipped), want, "flip at {i} must change the crc");
        }
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        // A fold continues where the last one stopped.
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn hash64_distinguishes() {
        assert_ne!(hash64(b"a"), hash64(b"b"));
        assert_ne!(hash64(b""), hash64(b"a"));
        assert_eq!(hash64(b"path/x.snc"), hash64(b"path/x.snc"));
    }
}
