//! Huffman coding for the JPEG entropy stage.
//!
//! Encoder tables map a symbol to `(code, length)`; the decoder uses the
//! canonical min/max-code algorithm from ITU-T T.81 §F.2.2.3, which is also
//! the structure an FPGA decoder materializes in BRAM.

use super::bits::{BitReader, BitWriter};
use super::tables::HuffSpec;
use crate::error::DecodeError;

/// Encoder-side table: symbol → (code, bit length).
#[derive(Debug, Clone)]
pub struct HuffEncoder {
    code: [u16; 256],
    len: [u8; 256],
}

impl HuffEncoder {
    /// Build from a table spec.
    pub fn from_spec(spec: &HuffSpec) -> Self {
        let mut enc = HuffEncoder { code: [0; 256], len: [0; 256] };
        let mut code: u16 = 0;
        let mut k = 0;
        for (i, &n) in spec.bits.iter().enumerate() {
            let l = (i + 1) as u8;
            for _ in 0..n {
                let sym = spec.values[k] as usize;
                enc.code[sym] = code;
                enc.len[sym] = l;
                code += 1;
                k += 1;
            }
            code <<= 1;
        }
        enc
    }

    /// Emit the code for `symbol`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no code in this table.
    pub fn put(&self, w: &mut BitWriter, symbol: u8) {
        let len = self.len[symbol as usize];
        assert!(len > 0, "symbol 0x{symbol:02x} not in huffman table");
        w.put(self.code[symbol as usize] as u32, len as u32);
    }
}

/// Number of bits resolved by the single-lookup fast path in
/// [`HuffDecoder::get`]. The Annex K tables put every frequent symbol at 8
/// bits or fewer, so the canonical bit-by-bit search only runs for rare long
/// codes.
const LUT_BITS: u32 = 8;

/// Decoder-side canonical table (T.81 §F.2.2.3).
#[derive(Debug, Clone)]
pub struct HuffDecoder {
    /// Smallest code of each length 1..=16 (i64 so empty lengths can be sentinel).
    min_code: [i32; 17],
    /// Largest code of each length, or -1 when none.
    max_code: [i32; 17],
    /// Index into `values` of the first code of each length.
    val_ptr: [usize; 17],
    values: Vec<u8>,
    /// `lut[p]` for an `LUT_BITS`-bit peek `p` = `(symbol, code length)` when
    /// the prefix starts a code of length ≤ `LUT_BITS`, else length 0.
    lut: [(u8, u8); 1 << LUT_BITS],
}

impl HuffDecoder {
    /// Build from raw DHT payload (`bits` counts and symbol values).
    pub fn from_bits_values(bits: &[u8; 16], values: Vec<u8>) -> Self {
        let mut min_code = [0i32; 17];
        let mut max_code = [-1i32; 17];
        let mut val_ptr = [0usize; 17];
        let mut code: i32 = 0;
        let mut k = 0usize;
        for l in 1..=16 {
            let n = bits[l - 1] as usize;
            if n > 0 {
                val_ptr[l] = k;
                min_code[l] = code;
                code += n as i32;
                max_code[l] = code - 1;
                k += n;
            }
            code <<= 1;
        }
        // Expand every code of length ≤ LUT_BITS into all LUT slots sharing
        // its prefix.
        let mut lut = [(0u8, 0u8); 1 << LUT_BITS];
        for l in 1..=LUT_BITS as usize {
            if max_code[l] < 0 {
                continue;
            }
            for c in min_code[l]..=max_code[l] {
                let idx = val_ptr[l] + (c - min_code[l]) as usize;
                let Some(&sym) = values.get(idx) else { continue };
                let base = (c as usize) << (LUT_BITS as usize - l);
                for slot in &mut lut[base..base + (1 << (LUT_BITS as usize - l))] {
                    *slot = (sym, l as u8);
                }
            }
        }
        HuffDecoder { min_code, max_code, val_ptr, values, lut }
    }

    /// Decode one symbol from the bit stream.
    ///
    /// # Errors
    ///
    /// Propagates reader errors; returns [`DecodeError::Malformed`] when no
    /// code matches within 16 bits.
    #[inline]
    pub fn get(&self, r: &mut BitReader<'_>) -> Result<u8, DecodeError> {
        // Fast path: one peek resolves any code of ≤ LUT_BITS bits.
        let (sym, len) = self.lut[r.peek(LUT_BITS) as usize];
        if len != 0 {
            r.consume(len as u32)?;
            return Ok(sym);
        }
        self.get_long(r)
    }

    /// Canonical search for codes longer than `LUT_BITS` (rare symbols).
    #[cold]
    fn get_long(&self, r: &mut BitReader<'_>) -> Result<u8, DecodeError> {
        let window = r.peek(16) as i32;
        for l in (LUT_BITS as usize + 1)..=16 {
            let code = window >> (16 - l);
            if self.max_code[l] >= 0 && code <= self.max_code[l] && code >= self.min_code[l] {
                r.consume(l as u32)?;
                let idx = self.val_ptr[l] + (code - self.min_code[l]) as usize;
                return self
                    .values
                    .get(idx)
                    .copied()
                    .ok_or_else(|| DecodeError::Malformed("huffman value index out of range".into()));
            }
        }
        Err(DecodeError::Malformed("invalid huffman code".into()))
    }
}

/// The JPEG "EXTEND" procedure (T.81 §F.2.2.1): interpret `v`, a `t`-bit
/// magnitude, as a signed coefficient difference.
pub fn extend(v: u32, t: u32) -> i32 {
    if t == 0 {
        return 0;
    }
    if v < (1 << (t - 1)) {
        v as i32 - (1 << t) + 1
    } else {
        v as i32
    }
}

/// Inverse of [`extend`]: the bit category of `v` and the raw bits to emit.
pub fn categorize(v: i32) -> (u32, u32) {
    let mag = v.unsigned_abs();
    let t = 32 - mag.leading_zeros();
    let bits = if v < 0 { (v - 1) as u32 & ((1 << t) - 1) } else { v as u32 };
    (t, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jpeg::tables::{CHROMA_AC, CHROMA_DC, LUMA_AC, LUMA_DC};
    use proptest::prelude::*;

    #[test]
    fn encoder_decoder_roundtrip_all_symbols() {
        for spec in [LUMA_DC, CHROMA_DC, LUMA_AC, CHROMA_AC] {
            let enc = HuffEncoder::from_spec(&spec);
            let dec = HuffDecoder::from_bits_values(&spec.bits, spec.values.to_vec());
            let mut w = BitWriter::new();
            for &sym in spec.values {
                enc.put(&mut w, sym);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &sym in spec.values {
                assert_eq!(dec.get(&mut r).unwrap(), sym);
            }
        }
    }

    #[test]
    fn known_code_from_annex_k() {
        // In K.3 (luma DC), category 0 has the 2-bit code 00 and category 2
        // the 3-bit code 011 (canonical order).
        let enc = HuffEncoder::from_spec(&LUMA_DC);
        assert_eq!(enc.len[0], 2);
        assert_eq!(enc.len[2], 3);
        assert_eq!(enc.len[11], 9);
    }

    #[test]
    fn extend_matches_standard_examples() {
        // T.81 Table F.1: category 1 codes {-1, 1}, category 2 {-3,-2,2,3}.
        assert_eq!(extend(0, 1), -1);
        assert_eq!(extend(1, 1), 1);
        assert_eq!(extend(0, 2), -3);
        assert_eq!(extend(1, 2), -2);
        assert_eq!(extend(2, 2), 2);
        assert_eq!(extend(3, 2), 3);
        assert_eq!(extend(0, 0), 0);
    }

    #[test]
    fn categorize_inverts_extend() {
        for v in -255i32..=255 {
            if v == 0 {
                assert_eq!(categorize(0).0, 0);
                continue;
            }
            let (t, bits) = categorize(v);
            assert_eq!(extend(bits, t), v, "v={v} t={t} bits={bits:b}");
        }
    }

    #[test]
    fn invalid_code_detected() {
        // LUMA_DC has no 1-bit codes; craft an impossible pattern by feeding
        // codes the table can't contain: all-ones 16+ bits maps to overflow.
        let dec = HuffDecoder::from_bits_values(&LUMA_DC.bits, LUMA_DC.values.to_vec());
        let bytes = [0xff, 0x00, 0xff, 0x00, 0xff, 0x00]; // stuffed all-ones
        let mut r = BitReader::new(&bytes);
        assert!(matches!(dec.get(&mut r), Err(DecodeError::Malformed(_))));
    }

    proptest! {
        #[test]
        fn categorize_extend_roundtrip(v in -32768i32..=32767) {
            let (t, bits) = categorize(v);
            prop_assert!(t <= 16);
            prop_assert_eq!(extend(bits, t), v);
        }
    }
}
