//! Baseline JFIF decoder.
//!
//! Handles baseline sequential DCT streams with Huffman coding: grayscale or
//! YCbCr with any sampling factors in `{1, 2}` (4:4:4, 4:2:2, 4:2:0), DQT /
//! DHT / DRI segments in any legal order, and restart markers. Progressive
//! and arithmetic-coded streams are rejected as unsupported.

use super::bits::BitReader;
use super::dct::idct_8x8;
use super::huffman::{extend, HuffDecoder};
use super::tables::ZIGZAG;
use crate::error::DecodeError;
use crate::image::{round_to_u8, Image};

#[derive(Debug, Clone, Copy)]
struct Component {
    id: u8,
    h: usize,
    v: usize,
    quant_id: usize,
    dc_table: usize,
    ac_table: usize,
}

#[derive(Debug, Default)]
struct DecoderState {
    quant: [Option<[u16; 64]>; 4],
    dc_tables: [Option<HuffDecoder>; 4],
    ac_tables: [Option<HuffDecoder>; 4],
    width: usize,
    height: usize,
    components: Vec<Component>,
    restart_interval: usize,
}

/// Reusable decoder scratch memory: the per-component sample planes and
/// colour-conversion rows that a single-shot [`decode`] would otherwise
/// allocate per frame. A batch decoder (one `Scratch` per worker thread)
/// amortizes those allocations across the whole scan loop — the prep
/// executor's workers each hold one.
#[derive(Debug, Default)]
pub struct Scratch {
    planes: [Vec<u8>; 3],
    /// One output row of luma, widened when luma is sampled below chroma.
    luma: Vec<u8>,
    /// The current chroma row's per-column red, green and blue offsets.
    chroma: [Vec<i32>; 3],
}

/// Decode a baseline JFIF stream into an RGB image.
///
/// # Errors
///
/// * [`DecodeError::UnexpectedEof`] — truncated stream;
/// * [`DecodeError::Malformed`] — structural errors (bad markers, lengths,
///   table references, invalid Huffman codes);
/// * [`DecodeError::Unsupported`] — valid JPEG features outside the baseline
///   subset (progressive, arithmetic coding, 12-bit precision, >2 sampling).
pub fn decode(data: &[u8]) -> Result<Image, DecodeError> {
    decode_with(data, &mut Scratch::default())
}

/// [`decode`] with caller-provided scratch buffers, for allocation-free
/// steady-state batch decoding.
///
/// # Errors
///
/// Same as [`decode`].
pub fn decode_with(data: &[u8], scratch: &mut Scratch) -> Result<Image, DecodeError> {
    let mut pos = 0usize;
    let need = |pos: usize, n: usize| -> Result<(), DecodeError> {
        if pos + n > data.len() {
            Err(DecodeError::UnexpectedEof)
        } else {
            Ok(())
        }
    };
    need(pos, 2)?;
    if data[0] != 0xff || data[1] != 0xd8 {
        return Err(DecodeError::Malformed("missing SOI".into()));
    }
    pos += 2;

    let mut st = DecoderState::default();

    loop {
        need(pos, 2)?;
        if data[pos] != 0xff {
            return Err(DecodeError::Malformed(format!(
                "expected marker at offset {pos}, found 0x{:02x}",
                data[pos]
            )));
        }
        // Skip fill bytes (0xff 0xff ...).
        let mut m = data[pos + 1];
        while m == 0xff {
            pos += 1;
            need(pos, 2)?;
            m = data[pos + 1];
        }
        pos += 2;
        match m {
            0xd9 => return Err(DecodeError::Malformed("EOI before scan data".into())),
            0x01 | 0xd0..=0xd7 => {} // standalone markers: skip
            0xc0 | 0xc1 => {
                let seg = segment(data, &mut pos)?;
                parse_sof(seg, &mut st)?;
            }
            0xc2 => return Err(DecodeError::Unsupported("progressive DCT (SOF2)".into())),
            0xc3 | 0xc5..=0xc7 | 0xc9..=0xcb | 0xcd..=0xcf => {
                return Err(DecodeError::Unsupported(format!("SOF marker 0xff{m:02x}")))
            }
            0xc4 => {
                let seg = segment(data, &mut pos)?;
                parse_dht(seg, &mut st)?;
            }
            0xdb => {
                let seg = segment(data, &mut pos)?;
                parse_dqt(seg, &mut st)?;
            }
            0xdd => {
                let seg = segment(data, &mut pos)?;
                if seg.len() != 2 {
                    return Err(DecodeError::Malformed("bad DRI length".into()));
                }
                st.restart_interval = u16::from_be_bytes([seg[0], seg[1]]) as usize;
            }
            0xda => {
                let seg = segment(data, &mut pos)?;
                parse_sos(seg, &mut st)?;
                // Entropy data follows until the next marker.
                return decode_scan(&data[pos..], &st, scratch);
            }
            // APPn, COM, and anything else with a length: skip.
            _ => {
                let _ = segment(data, &mut pos)?;
            }
        }
    }
}

/// Read one length-prefixed segment, advancing `pos` past it.
fn segment<'a>(data: &'a [u8], pos: &mut usize) -> Result<&'a [u8], DecodeError> {
    if *pos + 2 > data.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let len = u16::from_be_bytes([data[*pos], data[*pos + 1]]) as usize;
    if len < 2 {
        return Err(DecodeError::Malformed("segment length < 2".into()));
    }
    if *pos + len > data.len() {
        return Err(DecodeError::UnexpectedEof);
    }
    let seg = &data[*pos + 2..*pos + len];
    *pos += len;
    Ok(seg)
}

fn parse_sof(seg: &[u8], st: &mut DecoderState) -> Result<(), DecodeError> {
    if seg.len() < 6 {
        return Err(DecodeError::Malformed("short SOF".into()));
    }
    if seg[0] != 8 {
        return Err(DecodeError::Unsupported(format!("{}-bit precision", seg[0])));
    }
    st.height = u16::from_be_bytes([seg[1], seg[2]]) as usize;
    st.width = u16::from_be_bytes([seg[3], seg[4]]) as usize;
    if st.width == 0 || st.height == 0 {
        return Err(DecodeError::Malformed("zero image dimension".into()));
    }
    let ncomp = seg[5] as usize;
    if ncomp != 1 && ncomp != 3 {
        return Err(DecodeError::Unsupported(format!("{ncomp}-component image")));
    }
    if seg.len() != 6 + 3 * ncomp {
        return Err(DecodeError::Malformed("bad SOF length".into()));
    }
    st.components.clear();
    for c in 0..ncomp {
        let id = seg[6 + 3 * c];
        let hv = seg[7 + 3 * c];
        let (h, v) = ((hv >> 4) as usize, (hv & 0xf) as usize);
        if !(1..=2).contains(&h) || !(1..=2).contains(&v) {
            return Err(DecodeError::Unsupported(format!("sampling factors {h}x{v}")));
        }
        let quant_id = seg[8 + 3 * c] as usize;
        if quant_id > 3 {
            return Err(DecodeError::Malformed("quant table id > 3".into()));
        }
        st.components.push(Component { id, h, v, quant_id, dc_table: 0, ac_table: 0 });
    }
    Ok(())
}

fn parse_dqt(mut seg: &[u8], st: &mut DecoderState) -> Result<(), DecodeError> {
    while !seg.is_empty() {
        let pq_tq = seg[0];
        let (pq, tq) = ((pq_tq >> 4) as usize, (pq_tq & 0xf) as usize);
        if tq > 3 {
            return Err(DecodeError::Malformed("quant table id > 3".into()));
        }
        let entry = if pq == 0 { 1 } else { 2 };
        if pq > 1 || seg.len() < 1 + 64 * entry {
            return Err(DecodeError::Malformed("bad DQT".into()));
        }
        let mut table = [0u16; 64];
        for i in 0..64 {
            let v = if pq == 0 {
                seg[1 + i] as u16
            } else {
                u16::from_be_bytes([seg[1 + 2 * i], seg[2 + 2 * i]])
            };
            if v == 0 {
                return Err(DecodeError::Malformed("zero quantizer".into()));
            }
            table[ZIGZAG[i]] = v;
        }
        st.quant[tq] = Some(table);
        seg = &seg[1 + 64 * entry..];
    }
    Ok(())
}

fn parse_dht(mut seg: &[u8], st: &mut DecoderState) -> Result<(), DecodeError> {
    while !seg.is_empty() {
        if seg.len() < 17 {
            return Err(DecodeError::Malformed("short DHT".into()));
        }
        let tc_th = seg[0];
        let (tc, th) = ((tc_th >> 4) as usize, (tc_th & 0xf) as usize);
        if tc > 1 || th > 3 {
            return Err(DecodeError::Malformed("bad DHT class/id".into()));
        }
        let mut bits = [0u8; 16];
        bits.copy_from_slice(&seg[1..17]);
        let total: usize = bits.iter().map(|&b| b as usize).sum();
        if total > 256 || seg.len() < 17 + total {
            return Err(DecodeError::Malformed("bad DHT symbol count".into()));
        }
        let values = seg[17..17 + total].to_vec();
        let dec = HuffDecoder::from_bits_values(&bits, values);
        if tc == 0 {
            st.dc_tables[th] = Some(dec);
        } else {
            st.ac_tables[th] = Some(dec);
        }
        seg = &seg[17 + total..];
    }
    Ok(())
}

fn parse_sos(seg: &[u8], st: &mut DecoderState) -> Result<(), DecodeError> {
    if st.components.is_empty() {
        return Err(DecodeError::Malformed("SOS before SOF".into()));
    }
    if seg.is_empty() {
        return Err(DecodeError::Malformed("empty SOS".into()));
    }
    let ns = seg[0] as usize;
    if ns != st.components.len() {
        return Err(DecodeError::Unsupported("partial/interleaved-subset scans".into()));
    }
    if seg.len() != 1 + 2 * ns + 3 {
        return Err(DecodeError::Malformed("bad SOS length".into()));
    }
    for s in 0..ns {
        let id = seg[1 + 2 * s];
        let tables = seg[2 + 2 * s];
        let comp = st
            .components
            .iter_mut()
            .find(|c| c.id == id)
            .ok_or_else(|| DecodeError::Malformed(format!("SOS references unknown component {id}")))?;
        comp.dc_table = (tables >> 4) as usize;
        comp.ac_table = (tables & 0xf) as usize;
        if comp.dc_table > 3 || comp.ac_table > 3 {
            return Err(DecodeError::Malformed("bad SOS table id".into()));
        }
    }
    Ok(())
}

/// Clamped `YCbCr → RGB` lookup tables, 8.16 fixed point for the green
/// cross-terms. Indexing by the already-clamped `u8` chroma sample replaces
/// three float multiplies + three rounds per pixel with table adds.
struct YccTables {
    /// `round(1.402·(cr−128))`.
    cr_r: [i32; 256],
    /// `round(1.772·(cb−128))`.
    cb_b: [i32; 256],
    /// `−0.344136·(cb−128)` in 16.16 fixed point.
    cb_g: [i32; 256],
    /// `−0.714136·(cr−128)` in 16.16 fixed point.
    cr_g: [i32; 256],
}

fn ycc_tables() -> &'static YccTables {
    use std::sync::OnceLock;
    static T: OnceLock<YccTables> = OnceLock::new();
    T.get_or_init(|| {
        let mut t = YccTables {
            cr_r: [0; 256],
            cb_b: [0; 256],
            cb_g: [0; 256],
            cr_g: [0; 256],
        };
        for v in 0..256usize {
            let d = v as f64 - 128.0;
            t.cr_r[v] = (1.402 * d).round() as i32;
            t.cb_b[v] = (1.772 * d).round() as i32;
            t.cb_g[v] = (-0.344_136 * d * 65_536.0).round() as i32;
            t.cr_g[v] = (-0.714_136 * d * 65_536.0).round() as i32;
        }
        t
    })
}

#[inline]
fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Per-component plane storage during the scan (clamped 8-bit samples; the
/// backing buffers live in [`Scratch`] and are reused across frames).
struct Plane<'a> {
    w: usize,
    /// Right-shift mapping full-resolution x/y to plane coordinates (0 or 1 —
    /// sampling factors are restricted to {1, 2}).
    xshift: u32,
    yshift: u32,
    data: &'a mut Vec<u8>,
}

/// The frame's MCU grid `(mcux, mcuy)` and one zeroed [`Plane`] per
/// component, backed by `bufs`.
fn frame_planes<'a>(
    st: &DecoderState,
    bufs: &'a mut [Vec<u8>; 3],
) -> Result<(usize, usize, Vec<Plane<'a>>), DecodeError> {
    // The component list comes from the (attacker-controlled) SOF segment;
    // never assume it is non-empty.
    let hmax = st
        .components
        .iter()
        .map(|c| c.h)
        .max()
        .ok_or_else(|| DecodeError::Malformed("scan with no components".into()))?;
    let vmax = st.components.iter().map(|c| c.v).max().unwrap_or(1);
    let mcux = st.width.div_ceil(8 * hmax);
    let mcuy = st.height.div_ceil(8 * vmax);

    let planes = st
        .components
        .iter()
        .zip(bufs.iter_mut())
        .map(|(c, buf)| {
            let w = mcux * c.h * 8;
            let h = mcuy * c.v * 8;
            // Every byte is overwritten by some block below, so growth is the
            // only cost; steady-state batch decodes reuse the allocation.
            buf.clear();
            buf.resize(w * h, 0);
            Plane {
                w,
                xshift: (hmax / c.h).trailing_zeros(),
                yshift: (vmax / c.v).trailing_zeros(),
                data: buf,
            }
        })
        .collect();
    Ok((mcux, mcuy, planes))
}

fn decode_scan(entropy: &[u8], st: &DecoderState, scratch: &mut Scratch) -> Result<Image, DecodeError> {
    let Scratch { planes: bufs, luma, chroma } = scratch;
    let (mcux, mcuy, mut planes) = frame_planes(st, bufs)?;

    // Resolve tables up front so the hot loop borrows are simple.
    let mut comp_tables = Vec::new();
    for c in &st.components {
        let q = st.quant[c.quant_id]
            .as_ref()
            .ok_or_else(|| DecodeError::Malformed("missing quant table".into()))?;
        let dc = st.dc_tables[c.dc_table]
            .as_ref()
            .ok_or_else(|| DecodeError::Malformed("missing DC huffman table".into()))?;
        let ac = st.ac_tables[c.ac_table]
            .as_ref()
            .ok_or_else(|| DecodeError::Malformed("missing AC huffman table".into()))?;
        comp_tables.push((q, dc, ac));
    }

    let mut reader = BitReader::new(entropy);
    let mut preds = [0i32; 3];
    let total_mcus = mcux * mcuy;
    let mut next_rst = 0u8;
    let mut block = [0.0f32; 64];

    for mcu in 0..total_mcus {
        if st.restart_interval > 0 && mcu > 0 && mcu % st.restart_interval == 0 {
            let got = reader.sync_restart()?;
            if got != next_rst {
                return Err(DecodeError::Malformed(format!(
                    "restart marker out of order: expected RST{next_rst}, got RST{got}"
                )));
            }
            next_rst = (next_rst + 1) % 8;
            preds = [0; 3];
        }
        let (mx, my) = (mcu % mcux, mcu / mcux);
        for (ci, c) in st.components.iter().enumerate() {
            let (q, dc, ac) = comp_tables[ci];
            for by in 0..c.v {
                for bx in 0..c.h {
                    decode_block(&mut reader, dc, ac, q, &mut preds[ci], &mut block)?;
                    let px = (mx * c.h + bx) * 8;
                    let py = (my * c.v + by) * 8;
                    let plane = &mut planes[ci];
                    for (y, src) in block.chunks_exact(8).enumerate() {
                        let row = (py + y) * plane.w + px;
                        // Level shift and round half up, saturating at both
                        // ends: `round_to_u8` is `(s + 128.5) as u8` for
                        // the finite IDCT outputs, in lane-wise ops that
                        // vectorize. Truncation differs from floor only in
                        // (-1, 0), which clamps to 0 either way.
                        for (d, &s) in plane.data[row..row + 8].iter_mut().zip(src) {
                            *d = round_to_u8(s + 128.5);
                        }
                    }
                }
            }
        }
    }

    Ok(assemble(st, &planes, luma, chroma))
}

fn decode_block(
    r: &mut BitReader<'_>,
    dc: &HuffDecoder,
    ac: &HuffDecoder,
    q: &[u16; 64],
    pred: &mut i32,
    out: &mut [f32; 64],
) -> Result<(), DecodeError> {
    let mut coef = [0.0f32; 64];
    // DC
    let t = dc.get(r)? as u32;
    if t > 11 {
        return Err(DecodeError::Malformed("DC category > 11".into()));
    }
    let diff = extend(r.bits(t)?, t);
    *pred += diff;
    coef[0] = (*pred * q[0] as i32) as f32;
    // AC
    let mut k = 1usize;
    while k < 64 {
        let rs = ac.get(r)?;
        let (run, size) = ((rs >> 4) as usize, (rs & 0xf) as u32);
        if size == 0 {
            if run == 15 {
                k += 16; // ZRL
                continue;
            }
            break; // EOB
        }
        k += run;
        if k >= 64 {
            return Err(DecodeError::Malformed("AC run exceeds block".into()));
        }
        let v = extend(r.bits(size)?, size);
        coef[ZIGZAG[k]] = (v * q[ZIGZAG[k]] as i32) as f32;
        k += 1;
    }
    *out = idct_8x8(&coef);
    Ok(())
}

/// Colour-convert the decoded planes into the output image. The chroma
/// terms depend only on the chroma row, so they are built once per chroma
/// row into `chroma` (every second output row at 4:2:0); each output row
/// then adds one luma row to them, a loop without table loads or index
/// shifts. Bit-identical to the per-pixel `assemble_ref`.
fn assemble(
    st: &DecoderState,
    planes: &[Plane<'_>],
    luma: &mut Vec<u8>,
    chroma: &mut [Vec<i32>; 3],
) -> Image {
    let (w, h) = (st.width, st.height);
    let mut rgb = vec![0u8; w * h * 3];
    if st.components.len() == 1 {
        // A lone component sets the sampling maxima itself: no shifts.
        let p = &planes[0];
        for (y, dst) in rgb.chunks_exact_mut(w * 3).enumerate() {
            for (px, &v) in dst.chunks_exact_mut(3).zip(&p.data[y * p.w..y * p.w + w]) {
                px.fill(v);
            }
        }
        return Image::from_rgb(w, h, rgb);
    }
    let t = ycc_tables();
    let (py, pcb, pcr) = (&planes[0], &planes[1], &planes[2]);
    for terms in chroma.iter_mut() {
        terms.clear();
        terms.resize(w, 0);
    }
    let [r_off, g_off, b_off] = chroma;
    // The (Cb, Cr) plane rows the terms were built from.
    let mut built_from = None;
    for (y, dst) in rgb.chunks_exact_mut(w * 3).enumerate() {
        let rows = (y >> pcb.yshift, y >> pcr.yshift);
        if built_from != Some(rows) {
            built_from = Some(rows);
            let cbrow = &pcb.data[rows.0 * pcb.w..];
            let crrow = &pcr.data[rows.1 * pcr.w..];
            let terms = r_off.iter_mut().zip(g_off.iter_mut()).zip(b_off.iter_mut());
            for (x, ((r, g), b)) in terms.enumerate() {
                let cb = cbrow[x >> pcb.xshift] as usize;
                let cr = crrow[x >> pcr.xshift] as usize;
                *r = t.cr_r[cr];
                *g = (t.cb_g[cb] + t.cr_g[cr] + 0x8000) >> 16;
                *b = t.cb_b[cb];
            }
        }
        let yrow = &py.data[(y >> py.yshift) * py.w..];
        let yrow = if py.xshift == 0 {
            &yrow[..w]
        } else {
            luma.clear();
            luma.extend((0..w).map(|x| yrow[x >> py.xshift]));
            &luma[..]
        };
        let terms = r_off.iter().zip(g_off.iter()).zip(b_off.iter());
        for ((px, &yv), ((&r, &g), &b)) in dst.chunks_exact_mut(3).zip(yrow).zip(terms) {
            let yv = i32::from(yv);
            px[0] = clamp_u8(yv + r);
            px[1] = clamp_u8(yv + g);
            px[2] = clamp_u8(yv + b);
        }
    }
    Image::from_rgb(w, h, rgb)
}

/// Per-pixel colour conversion, four table loads and three index shifts per
/// pixel: the reference `assemble_matches_per_pixel_reference` holds
/// [`assemble`] to.
#[cfg(test)]
fn assemble_ref(st: &DecoderState, planes: &[Plane<'_>]) -> Image {
    let (w, h) = (st.width, st.height);
    let mut rgb = vec![0u8; w * h * 3];
    if st.components.len() == 1 {
        let p = &planes[0];
        for y in 0..h {
            let src = &p.data[(y >> p.yshift) * p.w..];
            let dst = &mut rgb[y * w * 3..(y + 1) * w * 3];
            for x in 0..w {
                let v = src[x >> p.xshift];
                dst[x * 3] = v;
                dst[x * 3 + 1] = v;
                dst[x * 3 + 2] = v;
            }
        }
        return Image::from_rgb(w, h, rgb);
    }
    let t = ycc_tables();
    let (py, pcb, pcr) = (&planes[0], &planes[1], &planes[2]);
    for y in 0..h {
        let yrow = &py.data[(y >> py.yshift) * py.w..];
        let cbrow = &pcb.data[(y >> pcb.yshift) * pcb.w..];
        let crrow = &pcr.data[(y >> pcr.yshift) * pcr.w..];
        let dst = &mut rgb[y * w * 3..(y + 1) * w * 3];
        for (x, px) in dst.chunks_exact_mut(3).enumerate() {
            let yv = yrow[x >> py.xshift] as i32;
            let cb = cbrow[x >> pcb.xshift] as usize;
            let cr = crrow[x >> pcr.xshift] as usize;
            px[0] = clamp_u8(yv + t.cr_r[cr]);
            px[1] = clamp_u8(yv + ((t.cb_g[cb] + t.cr_g[cr] + 0x8000) >> 16));
            px[2] = clamp_u8(yv + t.cb_b[cb]);
        }
    }
    Image::from_rgb(w, h, rgb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn missing_soi_rejected() {
        assert!(matches!(
            decode(&[0x00, 0x01, 0x02]),
            Err(DecodeError::Malformed(_))
        ));
    }

    #[test]
    fn progressive_rejected_as_unsupported() {
        // SOI + SOF2 header stub.
        let mut data = vec![0xff, 0xd8, 0xff, 0xc2, 0x00, 0x0b, 8, 0, 16, 0, 16, 1, 1, 0x11, 0];
        data.extend_from_slice(&[0xff, 0xd9]);
        assert!(matches!(decode(&data), Err(DecodeError::Unsupported(_))));
    }

    #[test]
    fn scan_without_tables_rejected() {
        // SOI, SOF0 (1 comp), SOS immediately: no DQT/DHT.
        let mut data = vec![0xff, 0xd8];
        data.extend_from_slice(&[0xff, 0xc0, 0x00, 0x0b, 8, 0, 8, 0, 8, 1, 1, 0x11, 0]);
        data.extend_from_slice(&[0xff, 0xda, 0x00, 0x08, 1, 1, 0x00, 0, 63, 0]);
        data.push(0x00);
        data.extend_from_slice(&[0xff, 0xd9]);
        assert!(matches!(decode(&data), Err(DecodeError::Malformed(_))));
    }

    #[test]
    fn eoi_before_scan_rejected() {
        assert!(matches!(
            decode(&[0xff, 0xd8, 0xff, 0xd9]),
            Err(DecodeError::Malformed(_))
        ));
    }

    /// The fixed stream set behind [`decoded_bytes_are_pinned`]: the 4:2:0
    /// training corpus, 4:2:0 and 4:4:4 at qualities 5 to 100 over odd and
    /// MCU-straddling sizes, restart intervals, and a saturated
    /// checkerboard whose ringing drives samples and RGB past both ends.
    fn pinned_streams() -> Vec<Vec<u8>> {
        use crate::jpeg::{encode_with, encode_with_restart, Subsampling::*};
        use crate::synth;
        let mut streams: Vec<Vec<u8>> = (0..4).map(synth::imagenet_like_jpeg).collect();
        let mut checker = Image::filled(37, 29, [0, 0, 0]);
        for y in 0..29 {
            for x in 0..37 {
                checker.set_pixel(x, y, if (x + y) % 2 == 0 { [255, 0, 0] } else { [0, 0, 255] });
            }
        }
        let sizes = [(1, 1), (17, 9), (75, 53), (300, 201)];
        let mut images: Vec<Image> = sizes
            .iter()
            .map(|&(w, h)| synth::synthetic_image(w, h, (w * 1000 + h) as u64))
            .collect();
        images.push(checker);
        for img in &images {
            for q in [5, 50, 90, 100] {
                for sub in [S420, S444] {
                    streams.push(encode_with(img, q, sub));
                }
            }
            streams.push(encode_with_restart(img, 90, S420, 3));
            streams.push(encode_with_restart(img, 75, S444, 1));
        }
        streams
    }

    /// FNV-1a over every decoded image's size and RGB bytes. The value was
    /// taken from the per-pixel table conversion (`assemble_ref`) and the
    /// `(s + 128.5) as u8` sample store, so any byte the decoder changes
    /// fails here.
    #[test]
    fn decoded_bytes_are_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        let mut scratch = Scratch::default();
        for stream in pinned_streams() {
            let img = decode_with(&stream, &mut scratch).unwrap();
            fnv(&(img.width() as u32).to_le_bytes());
            fnv(&(img.height() as u32).to_le_bytes());
            fnv(img.data());
        }
        assert_eq!(h, 0x5247_fa5e_4d38_c558, "{h:#018x}");
    }

    proptest! {
        /// `assemble` against the per-pixel reference over random plane
        /// bytes (so both clamps fire), for every sampling-factor layout in
        /// {1, 2}² per component, grayscale included, and luma sampled
        /// below chroma, which the encoder never emits. One scratch serves
        /// consecutive frames, as in a batch.
        #[test]
        fn assemble_matches_per_pixel_reference(
            width in 1usize..40,
            height in 1usize..40,
            factors in proptest::collection::vec((1usize..=2, 1usize..=2), 3),
            gray in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let ncomp = if gray { 1 } else { 3 };
            let components = factors[..ncomp]
                .iter()
                .enumerate()
                .map(|(i, &(h, v))| {
                    Component { id: i as u8, h, v, quant_id: 0, dc_table: 0, ac_table: 0 }
                })
                .collect();
            let st = DecoderState { width, height, components, ..DecoderState::default() };
            let mut scratch = Scratch::default();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2 {
                let Scratch { planes: bufs, luma, chroma } = &mut scratch;
                let (_, _, mut planes) = frame_planes(&st, bufs).unwrap();
                for p in &mut planes {
                    rng.fill_bytes(p.data);
                }
                prop_assert_eq!(assemble(&st, &planes, luma, chroma), assemble_ref(&st, &planes));
            }
        }
    }

    #[test]
    fn grayscale_roundtrip_via_manual_stream() {
        // Encode an 8x8 grayscale JPEG by hand using our own tables: a
        // constant 128 block is all-zero coefficients -> DC cat 0 + EOB.
        use crate::jpeg::bits::BitWriter;
        use crate::jpeg::huffman::HuffEncoder;
        use crate::jpeg::tables::{LUMA_AC, LUMA_DC, LUMA_QUANT};
        let mut data = vec![0xff, 0xd8];
        // DQT id 0
        data.extend_from_slice(&[0xff, 0xdb, 0x00, 0x43, 0x00]);
        for i in 0..64 {
            data.push(LUMA_QUANT[ZIGZAG[i]] as u8);
        }
        // SOF0: 8x8, 1 component, 1x1 sampling, quant 0
        data.extend_from_slice(&[0xff, 0xc0, 0x00, 0x0b, 8, 0, 8, 0, 8, 1, 1, 0x11, 0]);
        // DHT DC0 + AC0
        for (class, spec) in [(0x00u8, LUMA_DC), (0x10, LUMA_AC)] {
            let len = (2 + 1 + 16 + spec.values.len()) as u16;
            data.extend_from_slice(&[0xff, 0xc4]);
            data.extend_from_slice(&len.to_be_bytes());
            data.push(class);
            data.extend_from_slice(&spec.bits);
            data.extend_from_slice(spec.values);
        }
        // SOS
        data.extend_from_slice(&[0xff, 0xda, 0x00, 0x08, 1, 1, 0x00, 0, 63, 0]);
        let mut w = BitWriter::new();
        let dc = HuffEncoder::from_spec(&LUMA_DC);
        let ac = HuffEncoder::from_spec(&LUMA_AC);
        dc.put(&mut w, 0); // DC diff category 0
        ac.put(&mut w, 0); // EOB
        data.extend_from_slice(&w.finish());
        data.extend_from_slice(&[0xff, 0xd9]);

        let img = decode(&data).unwrap();
        assert_eq!((img.width(), img.height()), (8, 8));
        for y in 0..8 {
            for x in 0..8 {
                let [r, g, b] = img.pixel(x, y);
                assert_eq!(r, g);
                assert_eq!(g, b);
                assert!((r as i32 - 128).abs() <= 1, "pixel={r}");
            }
        }
    }
}
