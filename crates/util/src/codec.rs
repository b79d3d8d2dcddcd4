//! Little-endian binary encoding and decoding helpers.
//!
//! The page format (`spf-storage`) and log record format (`spf-wal`) are
//! hand-rolled binary layouts, as in a real storage engine. This module
//! centralizes the fiddly parts: bounds-checked reads, fixed-width
//! little-endian integers, length-prefixed byte strings, and LEB128
//! variable-length integers (used where ranges are usually tiny, e.g. slot
//! counts inside log records).
//!
//! Decoding never panics on malformed input: every read returns
//! [`DecodeError`] on truncation or overflow, because decoders in this
//! workspace routinely face *deliberately corrupted* bytes injected by the
//! fault injector.

use std::fmt;

/// Error returned when decoding runs off the end of the buffer or meets a
/// malformed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the requested number of bytes.
    UnexpectedEof {
        /// Bytes requested by the failed read.
        wanted: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A varint used more bytes than its target type permits.
    VarintOverflow,
    /// A length prefix exceeded a sanity bound.
    LengthOutOfRange {
        /// The decoded length.
        got: usize,
        /// The maximum the caller allowed.
        max: usize,
    },
    /// A tag byte did not correspond to any known variant.
    InvalidTag {
        /// The unrecognized tag value.
        tag: u8,
        /// Human-readable name of the enum being decoded.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of buffer: wanted {wanted} bytes, {remaining} remain"
                )
            }
            DecodeError::VarintOverflow => write!(f, "varint overflows target type"),
            DecodeError::LengthOutOfRange { got, max } => {
                write!(f, "length {got} out of range (max {max})")
            }
            DecodeError::InvalidTag { tag, what } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append-only binary encoder over a growable byte vector.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// Creates an encoder with `cap` bytes preallocated.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a LEB128 varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Writes a varint length prefix followed by the bytes.
    pub fn put_len_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_bytes(v);
    }
}

/// Bounds-checked binary decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder positioned at the start of `buf`.
    #[inline]
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset from the start of the buffer.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when the decoder has consumed every byte.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads exactly `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }

    /// Reads a LEB128 varint.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift >= 64 {
                return Err(DecodeError::VarintOverflow);
            }
        }
    }

    /// Reads a varint length prefix, validates it against `max`, then reads
    /// that many bytes.
    #[inline]
    pub fn get_len_bytes(&mut self, max: usize) -> Result<&'a [u8], DecodeError> {
        let len = self.get_varint()? as usize;
        if len > max {
            return Err(DecodeError::LengthOutOfRange { got: len, max });
        }
        self.take(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fixed_width_round_trip() {
        let mut enc = Encoder::new();
        enc.put_u8(0xAB);
        enc.put_u16(0xBEEF);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(0x0123_4567_89AB_CDEF);
        let bytes = enc.finish();
        assert_eq!(bytes.len(), 1 + 2 + 4 + 8);

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u8().unwrap(), 0xAB);
        assert_eq!(dec.get_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(dec.is_exhausted());
    }

    #[test]
    fn truncated_read_reports_eof() {
        let mut dec = Decoder::new(&[1, 2, 3]);
        assert_eq!(
            dec.get_u32(),
            Err(DecodeError::UnexpectedEof {
                wanted: 4,
                remaining: 3
            })
        );
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            assert_eq!(dec.get_varint().unwrap(), v, "value {v}");
            assert!(dec.is_exhausted());
        }
    }

    #[test]
    fn varint_max_is_ten_bytes() {
        let mut enc = Encoder::new();
        enc.put_varint(u64::MAX);
        assert_eq!(enc.len(), 10);
    }

    #[test]
    fn varint_overflow_detected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let bytes = [0xFFu8; 11];
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn len_bytes_respects_max() {
        let mut enc = Encoder::new();
        enc.put_len_bytes(&[9u8; 100]);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(
            dec.get_len_bytes(50),
            Err(DecodeError::LengthOutOfRange { got: 100, max: 50 })
        );
    }

    #[test]
    fn len_bytes_round_trip() {
        let payload = b"fence keys contain all information";
        let mut enc = Encoder::new();
        enc.put_len_bytes(payload);
        let bytes = enc.finish();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_len_bytes(1024).unwrap(), payload);
    }

    proptest! {
        #[test]
        fn prop_varint_round_trip(v: u64) {
            let mut enc = Encoder::new();
            enc.put_varint(v);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes);
            prop_assert_eq!(dec.get_varint().unwrap(), v);
            prop_assert!(dec.is_exhausted());
        }

        #[test]
        fn prop_mixed_round_trip(a: u8, b: u16, c: u32, d: u64, bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut enc = Encoder::new();
            enc.put_u8(a);
            enc.put_len_bytes(&bytes);
            enc.put_u16(b);
            enc.put_u32(c);
            enc.put_varint(d);
            let out = enc.finish();
            let mut dec = Decoder::new(&out);
            prop_assert_eq!(dec.get_u8().unwrap(), a);
            prop_assert_eq!(dec.get_len_bytes(256).unwrap(), &bytes[..]);
            prop_assert_eq!(dec.get_u16().unwrap(), b);
            prop_assert_eq!(dec.get_u32().unwrap(), c);
            prop_assert_eq!(dec.get_varint().unwrap(), d);
            prop_assert!(dec.is_exhausted());
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut dec = Decoder::new(&bytes);
            // Whatever the bytes, decoding must return, not panic.
            let _ = dec.get_varint();
            let _ = dec.get_u64();
            let _ = dec.get_len_bytes(16);
        }
    }
}
