//! Minimal PNG encoder (the Cairo device's output).
//!
//! Emits real, viewable PNGs: IHDR/IDAT/IEND chunks, zlib-wrapped
//! *store-mode* deflate (uncompressed blocks) and Adler-32 implemented
//! here, the chunk CRC-32 from [`scirng::crc32`], so the crate stays
//! dependency-free.

/// Largest stored deflate block.
const STORED_BLOCK: usize = 65_535;

/// Adler-32 checksum (zlib trailer).
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Append `raw` to `out` as a zlib stream of stored (uncompressed) deflate
/// blocks.
fn zlib_store(raw: &[u8], out: &mut Vec<u8>) {
    out.push(0x78); // CMF: deflate, 32K window
    out.push(0x01); // FLG: no dict, fastest; (0x7801 % 31 == 0)
    let mut chunks = raw.chunks(STORED_BLOCK).peekable();
    if raw.is_empty() {
        out.extend_from_slice(&[0x01, 0, 0, 0xff, 0xff]); // final empty block
    }
    while let Some(c) = chunks.next() {
        let last = chunks.peek().is_none();
        out.push(if last { 1 } else { 0 }); // BFINAL, BTYPE=00
        let len = c.len() as u16;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(c);
    }
    out.extend_from_slice(&adler32(raw).to_be_bytes());
}

/// Append one chunk whose body is what `body` appends to `out`. The length
/// is filled in after the body, and the CRC runs over the tag and body
/// where they already sit in `out`.
fn chunk(out: &mut Vec<u8>, tag: &[u8; 4], body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(tag);
    body(out);
    let (head, tagged) = out.split_at_mut(start + 4);
    if let Some(len) = head.last_chunk_mut::<4>() {
        *len = ((tagged.len() - 4) as u32).to_be_bytes();
    }
    let crc = scirng::crc32(tagged);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encode an RGBA image (`rgba.len() == width * height * 4`) as a PNG.
pub fn encode_rgba(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
    assert_eq!(
        rgba.len(),
        (width as usize) * (height as usize) * 4,
        "pixel buffer size mismatch"
    );
    // Scanlines with filter byte 0.
    let stride = width as usize * 4;
    let mut raw = Vec::with_capacity((stride + 1) * height as usize);
    for row in rgba.chunks(stride) {
        raw.push(0);
        raw.extend_from_slice(row);
    }
    // The raw stream, a 5-byte head per stored block, and less than 64
    // bytes of signature, IHDR, IEND, chunk framing and zlib framing.
    let mut out = Vec::with_capacity(raw.len() + (raw.len() / STORED_BLOCK + 1) * 5 + 64);
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a]);
    chunk(&mut out, b"IHDR", |out| {
        out.extend_from_slice(&width.to_be_bytes());
        out.extend_from_slice(&height.to_be_bytes());
        out.extend_from_slice(&[8, 6, 0, 0, 0]); // 8-bit RGBA, no interlace
    });
    chunk(&mut out, b"IDAT", |out| zlib_store(&raw, out));
    chunk(&mut out, b"IEND", |_| {});
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder as it was before the CRC moved to `scirng` and the two
    /// copies went: byte-at-a-time CRC-32, a zlib stream built in its own
    /// vector, each chunk's tag and body copied out again to be CRC'd —
    /// the reference the differential test compares against.
    fn encode_rgba_reference(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
        fn crc32(data: &[u8]) -> u32 {
            let mut t = [0u32; 256];
            for (n, e) in t.iter_mut().enumerate() {
                let mut c = n as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 {
                        0xedb8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
                *e = c;
            }
            let mut c = 0xffff_ffffu32;
            for &b in data {
                c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
            }
            c ^ 0xffff_ffff
        }
        fn zlib_store(raw: &[u8]) -> Vec<u8> {
            let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
            out.push(0x78);
            out.push(0x01);
            let mut chunks = raw.chunks(65_535).peekable();
            if raw.is_empty() {
                out.extend_from_slice(&[0x01, 0, 0, 0xff, 0xff]);
            }
            while let Some(c) = chunks.next() {
                let last = chunks.peek().is_none();
                out.push(if last { 1 } else { 0 });
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

    fn zlib(raw: &[u8]) -> Vec<u8> {
        let mut z = Vec::new();
        zlib_store(raw, &mut z);
        z
    }

    #[test]
    fn encode_rgba_matches_the_reference() {
        let mut rng = scirng::Rng::seed_from_u64(0x0e9c);
        // Zero height, one pixel, odd sizes, the nuwrf_img raster, a raw
        // stream (`(4w + 1)·h` bytes) of exactly one full stored block, one
        // two bytes past it, and one of two large blocks.
        let sizes = [
            (5, 0),
            (1, 1),
            (3, 7),
            (17, 5),
            (123, 123),
            (128, 128),
            (5_461, 3),
            (16_384, 1),
            (200, 100),
        ];
        for (w, h) in sizes {
            let mut rgba = vec![0u8; w as usize * h as usize * 4];
            rng.fill_bytes(&mut rgba);
            let raw_len = (w as usize * 4 + 1) * h as usize;
            assert_eq!(
                encode_rgba(w, h, &rgba),
                encode_rgba_reference(w, h, &rgba),
                "{w}x{h} ({raw_len} raw bytes)"
            );
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value.
        assert_eq!(scirng::crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(scirng::crc32(b""), 0);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
    }

    #[test]
    fn zlib_header_is_valid() {
        let z = zlib(b"hello");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0, "FCHECK");
        // stored block: BFINAL=1, LEN=5, NLEN=!5
        assert_eq!(z[2], 1);
        assert_eq!(u16::from_le_bytes([z[3], z[4]]), 5);
        assert_eq!(u16::from_le_bytes([z[5], z[6]]), !5u16);
        assert_eq!(&z[7..12], b"hello");
        assert_eq!(zlib(b"").len(), 2 + 5 + 4, "one final empty block");
    }

    #[test]
    fn zlib_multi_block_for_large_input() {
        let data = vec![7u8; 70_000];
        let z = zlib(&data);
        // First block not final, second final.
        assert_eq!(z[2], 0);
        let len0 = u16::from_le_bytes([z[3], z[4]]) as usize;
        assert_eq!(len0, 65_535);
        let second = 2 + 5 + len0;
        assert_eq!(z[second], 1);
        assert_eq!(zlib(&data[..65_535]).len(), 2 + 5 + 65_535 + 4);
    }

    #[test]
    fn png_structure() {
        let img = encode_rgba(2, 2, &[255u8; 16]);
        assert_eq!(&img[..8], &[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a]);
        assert_eq!(&img[12..16], b"IHDR");
        // width/height big-endian
        assert_eq!(u32::from_be_bytes(img[16..20].try_into().unwrap()), 2);
        assert_eq!(u32::from_be_bytes(img[20..24].try_into().unwrap()), 2);
        assert_eq!(&img[img.len() - 8..img.len() - 4], b"IEND");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_buffer_size_panics() {
        encode_rgba(2, 2, &[0u8; 15]);
    }
}
