//! Entropy-stream bit I/O with JPEG byte stuffing.
//!
//! JPEG entropy data is a big-endian bit stream in which a raw `0xFF` byte is
//! escaped as `0xFF 0x00` (stuffing); an unescaped `0xFF` introduces a
//! marker. The writer stuffs on emit; the reader unstuffs and surfaces
//! restart markers to the decoder.

use crate::error::DecodeError;

/// MSB-first bit writer with `0xFF` stuffing.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    acc: u32,
    nbits: u32,
}

impl BitWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Append the low `n` bits of `bits`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 24`.
    pub fn put(&mut self, bits: u32, n: u32) {
        assert!(n <= 24, "at most 24 bits per put");
        if n == 0 {
            return;
        }
        self.acc = (self.acc << n) | (bits & ((1u32 << n) - 1));
        self.nbits += n;
        while self.nbits >= 8 {
            let byte = ((self.acc >> (self.nbits - 8)) & 0xff) as u8;
            self.out.push(byte);
            if byte == 0xff {
                self.out.push(0x00); // stuffing
            }
            self.nbits -= 8;
        }
    }

    /// Pad the final partial byte with 1-bits (per the standard) and return
    /// the stuffed stream.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            let pad = 8 - self.nbits;
            self.put((1u32 << pad) - 1, pad);
        }
        self.out
    }
}

/// MSB-first bit reader that unstuffs `0xFF 0x00` and stops at markers.
///
/// The accumulator is 64 bits wide and refilled eagerly up to the next
/// marker (or end of data), so the Huffman hot loop can *peek* a code-length
/// window of bits without a `Result` per bit, then *consume* only the bits a
/// matched code actually used. Peeks past the end of real data are padded
/// with zero bits and never fail; the error (EOF vs. marker) is reported by
/// [`BitReader::consume`] only when fabricated bits would actually be
/// consumed — preserving the strict truncation semantics of the byte-at-a-
/// time reader this replaces.
#[derive(Debug)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    /// Holds `nbits` valid bits in its low-order positions (bits above that
    /// are stale).
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Read bits from `data` starting at offset 0.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader { data, pos: 0, acc: 0, nbits: 0 }
    }

    /// Top up the accumulator, unstuffing `0xFF 0x00`, stopping silently at
    /// end of data or at an unescaped marker (leaving `pos` on its `0xFF`).
    fn refill(&mut self) {
        while self.nbits <= 56 {
            match self.data.get(self.pos) {
                Some(&0xff) => match self.data.get(self.pos + 1) {
                    Some(0x00) => {
                        self.pos += 2;
                        self.acc = (self.acc << 8) | 0xff;
                        self.nbits += 8;
                    }
                    // Marker, or a trailing lone 0xFF: stop here.
                    _ => break,
                },
                Some(&b) => {
                    self.pos += 1;
                    self.acc = (self.acc << 8) | b as u64;
                    self.nbits += 8;
                }
                None => break,
            }
        }
    }

    /// Look at the next `n` bits without consuming them, zero-padded past the
    /// end of real data. Never fails.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or greater than 32.
    #[inline]
    pub fn peek(&mut self, n: u32) -> u32 {
        debug_assert!((1..=32).contains(&n), "peek of 1..=32 bits");
        if self.nbits < n {
            self.refill();
        }
        if self.nbits >= n {
            ((self.acc >> (self.nbits - n)) as u32) & (((1u64 << n) - 1) as u32)
        } else {
            // Fewer real bits than asked: mask off stale high bits and pad
            // with zeros on the right.
            let have = self.nbits;
            let v = (self.acc as u32) & (((1u64 << have) - 1) as u32);
            v << (n - have)
        }
    }

    /// Consume `n` bits previously seen via [`BitReader::peek`].
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] if fewer than `n` real bits remain, or
    /// [`DecodeError::Malformed`] when the shortfall is due to an unescaped
    /// marker in the entropy data.
    #[inline]
    pub fn consume(&mut self, n: u32) -> Result<(), DecodeError> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(self.starved());
            }
        }
        self.nbits -= n;
        Ok(())
    }

    /// Why the accumulator cannot be refilled: marker or end of data.
    #[cold]
    fn starved(&self) -> DecodeError {
        if self.data.get(self.pos) == Some(&0xff) {
            if let Some(&m) = self.data.get(self.pos + 1) {
                return DecodeError::Malformed(format!(
                    "unexpected marker 0xff{m:02x} in entropy data"
                ));
            }
        }
        DecodeError::UnexpectedEof
    }

    /// Read `n` bits MSB-first. `n = 0` reads nothing and returns 0.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEof`] at end of data, or
    /// [`DecodeError::Malformed`] when hitting a non-restart marker.
    ///
    /// # Panics
    ///
    /// Panics if `n > 16`.
    #[inline]
    pub fn bits(&mut self, n: u32) -> Result<u32, DecodeError> {
        assert!(n <= 16, "at most 16 bits per read");
        if n == 0 {
            return Ok(0);
        }
        let v = self.peek(n);
        self.consume(n)?;
        Ok(v)
    }

    /// Align to a byte boundary, expect a restart marker `RSTm`, and consume
    /// it. Returns the marker index `m` (0..=7).
    ///
    /// # Errors
    ///
    /// [`DecodeError::Malformed`] if the next marker is not RSTn.
    pub fn sync_restart(&mut self) -> Result<u8, DecodeError> {
        // Drop buffered padding bits. Refill never crosses a marker, so in a
        // well-formed stream everything buffered here is byte-alignment
        // padding that precedes the marker `pos` points at.
        self.nbits = 0;
        self.acc = 0;
        if self.data.get(self.pos) == Some(&0xff) {
            if let Some(&m) = self.data.get(self.pos + 1) {
                if (0xd0..=0xd7).contains(&m) {
                    self.pos += 2;
                    return Ok(m - 0xd0);
                }
                return Err(DecodeError::Malformed(format!("expected RSTn, found 0xff{m:02x}")));
            }
        }
        Err(DecodeError::Malformed("expected restart marker".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0b0_0110_1011, 9);
        w.put(0xffff, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(3).unwrap(), 0b101);
        assert_eq!(r.bits(9).unwrap(), 0b0_0110_1011);
        assert_eq!(r.bits(16).unwrap(), 0xffff);
    }

    #[test]
    fn ff_bytes_are_stuffed() {
        let mut w = BitWriter::new();
        w.put(0xff, 8);
        w.put(0xff, 8);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0xff, 0x00, 0xff, 0x00]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.bits(8).unwrap(), 0xff);
        assert_eq!(r.bits(8).unwrap(), 0xff);
    }

    #[test]
    fn final_byte_padded_with_ones() {
        let mut w = BitWriter::new();
        w.put(0b0, 1);
        let bytes = w.finish();
        assert_eq!(bytes, vec![0b0111_1111]);
    }

    #[test]
    fn reader_eof() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.bits(1), Err(DecodeError::UnexpectedEof));
        let mut r = BitReader::new(&[0xab]);
        assert_eq!(r.bits(8).unwrap(), 0xab);
        assert!(r.bits(1).is_err());
    }

    #[test]
    fn reader_stops_at_marker() {
        let data = [0x12, 0xff, 0xd9]; // EOI after one byte
        let mut r = BitReader::new(&data);
        assert_eq!(r.bits(8).unwrap(), 0x12);
        assert!(matches!(r.bits(1), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn restart_sync_consumes_rst() {
        let data = [0xab, 0xff, 0xd3, 0xcd];
        let mut r = BitReader::new(&data);
        assert_eq!(r.bits(8).unwrap(), 0xab);
        assert_eq!(r.sync_restart().unwrap(), 3);
        assert_eq!(r.bits(8).unwrap(), 0xcd);
    }

    #[test]
    fn restart_sync_rejects_other_markers() {
        let data = [0xff, 0xd9];
        let mut r = BitReader::new(&data);
        assert!(r.sync_restart().is_err());
    }

    #[test]
    fn empty_writer() {
        assert!(BitWriter::new().finish().is_empty());
    }
}
