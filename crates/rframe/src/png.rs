//! Minimal PNG encoder (the Cairo device's output).
//!
//! Emits real, viewable PNGs: IHDR/IDAT/IEND chunks, zlib-wrapped
//! *store-mode* deflate (uncompressed blocks), CRC-32 and Adler-32
//! implemented here so the crate stays dependency-free.

/// CRC-32 (IEEE 802.3), bit-reflected, as PNG requires.
fn crc32(data: &[u8]) -> u32 {
    // Build the table once.
    fn table() -> &'static [u32; 256] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
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
            t
        })
    }
    let t = table();
    let mut c = 0xffff_ffffu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

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

/// Wrap raw bytes in a zlib stream of stored (uncompressed) deflate blocks.
fn zlib_store(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 65_535 * 5 + 16);
    out.push(0x78); // CMF: deflate, 32K window
    out.push(0x01); // FLG: no dict, fastest; (0x7801 % 31 == 0)
    let mut chunks = raw.chunks(65_535).peekable();
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

/// Encode an RGBA image (`rgba.len() == width * height * 4`) as a PNG.
pub fn encode_rgba(width: u32, height: u32, rgba: &[u8]) -> Vec<u8> {
    assert_eq!(
        rgba.len(),
        (width as usize) * (height as usize) * 4,
        "pixel buffer size mismatch"
    );
    let mut out = Vec::with_capacity(rgba.len() + rgba.len() / 64 + 128);
    out.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0d, 0x0a, 0x1a, 0x0a]);
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&width.to_be_bytes());
    ihdr.extend_from_slice(&height.to_be_bytes());
    ihdr.extend_from_slice(&[8, 6, 0, 0, 0]); // 8-bit RGBA, no interlace
    chunk(&mut out, b"IHDR", &ihdr);
    // Scanlines with filter byte 0.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11e6_0398);
    }

    #[test]
    fn zlib_header_is_valid() {
        let z = zlib_store(b"hello");
        assert_eq!(((z[0] as u16) << 8 | z[1] as u16) % 31, 0, "FCHECK");
        // stored block: BFINAL=1, LEN=5, NLEN=!5
        assert_eq!(z[2], 1);
        assert_eq!(u16::from_le_bytes([z[3], z[4]]), 5);
        assert_eq!(u16::from_le_bytes([z[5], z[6]]), !5u16);
        assert_eq!(&z[7..12], b"hello");
    }

    #[test]
    fn zlib_multi_block_for_large_input() {
        let data = vec![7u8; 70_000];
        let z = zlib_store(&data);
        // First block not final, second final.
        assert_eq!(z[2], 0);
        let len0 = u16::from_le_bytes([z[3], z[4]]) as usize;
        assert_eq!(len0, 65_535);
        let second = 2 + 5 + len0;
        assert_eq!(z[second], 1);
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
