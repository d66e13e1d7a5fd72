//! Decoder robustness: corrupted inputs must fail with `Err`, never panic.
//!
//! The data-preparation pipeline feeds attacker-adjacent bytes (files read
//! straight off SSDs) into the JPEG decoder, so a malformed stream must
//! never take down a prep worker. These properties encode, then corrupt,
//! then decode:
//!
//! * **Truncation** — a strict prefix of a JPEG usually errors, but a cut
//!   that only sheds the EOI marker or trailing padding bits can still
//!   decode — there the property is only "returns without panicking".
//! * **Bit flips** — flipping one bit anywhere must yield `Ok` or `Err`,
//!   never a panic.

use proptest::prelude::*;
use trainbox_dataprep::jpeg;
use trainbox_dataprep::Image;

/// Build a small image whose pixels cycle through `palette` bytes, so the
/// encoder sees varied (not flat) data without needing an exact-size vec
/// strategy.
fn test_image(width: usize, height: usize, palette: &[u8]) -> Image {
    let n = width * height * 3;
    let data: Vec<u8> = (0..n)
        .map(|i| {
            if palette.is_empty() {
                (i % 251) as u8
            } else {
                palette[i % palette.len()].wrapping_add((i / palette.len()) as u8)
            }
        })
        .collect();
    Image::from_rgb(width, height, data)
}

fn flip_bit(bytes: &mut [u8], bit: usize) {
    let i = bit / 8;
    bytes[i] ^= 1 << (bit % 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_jpeg_never_panics(
        w in 1usize..8,
        h in 1usize..8,
        quality in 1u8..100,
        palette in proptest::collection::vec(any::<u8>(), 0..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = jpeg::encode(&test_image(w, h, &palette), quality);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        // A cut inside the headers or entropy data errors; a cut that only
        // drops the EOI marker (or pure padding bits) may still decode.
        // Either way the call must return, not panic.
        let result = jpeg::decode(&bytes[..cut]);
        if let Ok(img) = result {
            prop_assert_eq!(img.width(), w);
            prop_assert_eq!(img.height(), h);
        }
        // Cuts inside the marker segments (before any scan data) must err:
        // the decoder cannot have seen a complete SOS yet. The SOI alone is
        // two bytes, so any prefix shorter than that is also covered.
        if cut < 64 {
            prop_assert!(jpeg::decode(&bytes[..cut.min(16)]).is_err());
        }
    }

    #[test]
    fn bit_flipped_jpeg_never_panics(
        w in 1usize..8,
        h in 1usize..8,
        quality in 1u8..100,
        palette in proptest::collection::vec(any::<u8>(), 0..32),
        bit_frac in 0.0f64..1.0,
    ) {
        let mut bytes = jpeg::encode(&test_image(w, h, &palette), quality);
        let nbits = bytes.len() * 8;
        let bit = ((nbits - 1) as f64 * bit_frac) as usize;
        flip_bit(&mut bytes, bit);
        // A flipped entropy bit usually still decodes (to wrong pixels);
        // a flipped marker or length byte must surface as Err, not panic.
        let _ = jpeg::decode(&bytes);
    }

    #[test]
    fn random_garbage_never_panics(
        data in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = jpeg::decode(&data);
    }
}
