//! Record-shard container: the on-SSD dataset file format.
//!
//! Training corpora are stored as shards of length-prefixed records (the
//! TFRecord idea): datasets stream sequentially off SSDs at full bandwidth,
//! and the train initializer "distributes the data to SSDs in each train
//! box" (§V-A) at shard granularity. Each record is framed as
//!
//! ```text
//! [u32 length][u32 crc32(length bytes)][payload][u32 crc32(payload)]
//! ```
//!
//! so truncation and corruption are detected at read time.

use crate::error::DecodeError;

/// Magic prefix identifying a shard file.
const MAGIC: &[u8; 8] = b"TBSHARD1";

/// Serialize records into a shard.
#[derive(Debug, Default)]
pub struct ShardWriter {
    buf: Vec<u8>,
    records: u64,
}

impl ShardWriter {
    /// Start an empty shard.
    pub fn new() -> Self {
        ShardWriter { buf: MAGIC.to_vec(), records: 0 }
    }

    /// Append one record.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes.
    pub fn push(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("record too large");
        let len_bytes = len.to_le_bytes();
        self.buf.extend_from_slice(&len_bytes);
        self.buf.extend_from_slice(&crc32(&len_bytes).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.records += 1;
    }

    /// Number of records appended.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Finish and return the shard bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Iterate records out of a shard.
#[derive(Debug)]
pub struct ShardReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ShardReader<'a> {
    /// Open a shard.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Malformed`] when the magic prefix is missing.
    pub fn open(data: &'a [u8]) -> Result<Self, DecodeError> {
        if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
            return Err(DecodeError::Malformed("missing shard magic".into()));
        }
        Ok(ShardReader { data, pos: MAGIC.len() })
    }

    /// Read the next record (`Ok(None)` at a clean end of shard).
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or CRC mismatch.
    pub fn next_record(&mut self) -> Result<Option<&'a [u8]>, DecodeError> {
        if self.pos == self.data.len() {
            return Ok(None);
        }
        if self.pos + 8 > self.data.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let len_bytes: [u8; 4] = self.data[self.pos..self.pos + 4].try_into().expect("sliced");
        let len_crc =
            u32::from_le_bytes(self.data[self.pos + 4..self.pos + 8].try_into().expect("sliced"));
        if crc32(&len_bytes) != len_crc {
            return Err(DecodeError::Malformed("record length CRC mismatch".into()));
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let body_start = self.pos + 8;
        if body_start + len + 4 > self.data.len() {
            return Err(DecodeError::UnexpectedEof);
        }
        let payload = &self.data[body_start..body_start + len];
        let payload_crc = u32::from_le_bytes(
            self.data[body_start + len..body_start + len + 4]
                .try_into()
                .expect("sliced"),
        );
        if crc32(payload) != payload_crc {
            return Err(DecodeError::Malformed("record payload CRC mismatch".into()));
        }
        self.pos = body_start + len + 4;
        Ok(Some(payload))
    }

    /// Collect all remaining records.
    ///
    /// # Errors
    ///
    /// The first structural error, if any.
    pub fn read_all(mut self) -> Result<Vec<&'a [u8]>, DecodeError> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }
}

/// Partition `items` round-robin into `shards` shard files — the
/// initializer's data-distribution step (§V-A).
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn distribute<'a>(items: impl Iterator<Item = &'a [u8]>, shards: usize) -> Vec<Vec<u8>> {
    assert!(shards > 0, "need at least one shard");
    let mut writers: Vec<ShardWriter> = (0..shards).map(|_| ShardWriter::new()).collect();
    for (i, item) in items.enumerate() {
        writers[i % shards].push(item);
    }
    writers.into_iter().map(ShardWriter::finish).collect()
}

/// CRC-32 (ISO 3309, the polynomial PNG and zlib use) over `data`.
fn crc32(data: &[u8]) -> u32 {
    fn table() -> &'static [u32; 256] {
        use std::sync::OnceLock;
        static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
        TABLE.get_or_init(|| {
            let mut t = [0u32; 256];
            for (n, e) in t.iter_mut().enumerate() {
                let mut c = n as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
                }
                *e = c;
            }
            t
        })
    }
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::imagenet_like_jpeg;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn roundtrip_records() {
        let mut w = ShardWriter::new();
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0u8; 1000]];
        for p in &payloads {
            w.push(p);
        }
        assert_eq!(w.records(), 3);
        let bytes = w.finish();
        let records = ShardReader::open(&bytes).unwrap().read_all().unwrap();
        assert_eq!(records.len(), 3);
        for (r, p) in records.iter().zip(&payloads) {
            assert_eq!(*r, &p[..]);
        }
    }

    #[test]
    fn corruption_detected() {
        let mut w = ShardWriter::new();
        w.push(b"hello world, this is a record");
        let mut bytes = w.finish();
        let n = bytes.len();
        bytes[n - 10] ^= 0x01; // flip a payload byte
        let err = ShardReader::open(&bytes).unwrap().read_all().unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.contains("CRC")));
    }

    #[test]
    fn truncation_detected() {
        let mut w = ShardWriter::new();
        w.push(&[7u8; 64]);
        let bytes = w.finish();
        let mut r = ShardReader::open(&bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(r.next_record(), Err(DecodeError::UnexpectedEof)));
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(ShardReader::open(b"NOTSHARD").is_err());
        assert!(ShardReader::open(b"").is_err());
    }

    #[test]
    fn distribute_round_robin_covers_everything() {
        let items: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 3]).collect();
        let shards = distribute(items.iter().map(|v| &v[..]), 4);
        assert_eq!(shards.len(), 4);
        let mut recovered = Vec::new();
        for s in &shards {
            for r in ShardReader::open(s).unwrap().read_all().unwrap() {
                recovered.push(r[0]);
            }
        }
        recovered.sort_unstable();
        assert_eq!(recovered, (0..10).collect::<Vec<_>>());
        // Round-robin balance: shard sizes differ by at most one record.
        let counts: Vec<usize> = shards
            .iter()
            .map(|s| ShardReader::open(s).unwrap().read_all().unwrap().len())
            .collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn shard_of_jpegs_streams_back() {
        // The actual on-SSD layout: JPEG payloads in a shard.
        let jpegs: Vec<Vec<u8>> = (0..3).map(imagenet_like_jpeg).collect();
        let mut w = ShardWriter::new();
        for j in &jpegs {
            w.push(j);
        }
        let bytes = w.finish();
        let mut r = ShardReader::open(&bytes).unwrap();
        let mut count = 0;
        while let Some(rec) = r.next_record().unwrap() {
            let img = crate::jpeg::decode(rec).unwrap();
            assert_eq!((img.width(), img.height()), (256, 256));
            count += 1;
        }
        assert_eq!(count, 3);
    }
}
