//! Minimal little-endian binary serialization used by the SNC header.
//!
//! Self-descriptive formats must define their own wire encoding; SNC uses
//! LEB128 varints for counts/lengths and fixed little-endian for scalars.
//! No external serialization crates — the header layout is part of the
//! on-disk format contract and is covered by round-trip tests.

use crate::error::{FmtError, Result};

/// Append-only byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// LEB128 unsigned varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a byte slice with structured decode helpers.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FmtError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "bytes")
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        let b = self.take(2, "u16")?;
        let a = b
            .try_into()
            .map_err(|_| FmtError::Truncated { what: "u16" })?;
        Ok(u16::from_le_bytes(a))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        let a = b
            .try_into()
            .map_err(|_| FmtError::Truncated { what: "u64" })?;
        Ok(u64::from_le_bytes(a))
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        let b = self.take(8, "f64")?;
        let a = b
            .try_into()
            .map_err(|_| FmtError::Truncated { what: "f64" })?;
        Ok(f64::from_le_bytes(a))
    }

    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(FmtError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_varint()? as usize;
        if n > 1 << 24 {
            return Err(FmtError::Corrupt(format!("string length {n} implausible")));
        }
        let b = self.take(n, "string")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| FmtError::Corrupt("invalid UTF-8 in string".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scirng::Rng;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u64(u64::MAX);
        w.put_f64(-1.25e300);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), -1.25e300);
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.get_u64(), Err(FmtError::Truncated { .. })));
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
        }
    }

    #[test]
    fn varint_overflow_detected() {
        let bytes = [0xffu8; 11];
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_varint(), Err(FmtError::Corrupt(_))));
    }

    #[test]
    fn varint_roundtrip_random() {
        let mut rng = Rng::seed_from_u64(0x1a2b);
        for i in 0..512 {
            // Spread values across all byte-length classes.
            let v = rng.next_u64() >> (i % 64);
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn string_roundtrip_random() {
        let mut rng = Rng::seed_from_u64(0x3c4d);
        for _ in 0..256 {
            let len = rng.below(65);
            let s: String = (0..len)
                .map(|_| char::from_u32(rng.below(0xd7ff) as u32 + 1).unwrap())
                .collect();
            let mut w = Writer::new();
            w.put_str(&s);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_str().unwrap(), s);
        }
    }
}
