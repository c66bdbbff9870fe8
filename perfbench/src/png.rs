//! A PNG reader written apart from the program's encoder, used to check
//! `CompressImageApp` responses: chunk CRC-32s, the zlib header, stored
//! deflate blocks, the Adler-32 trailer and every scanline's filter byte.
//! Only what a stored-deflate 8-bit RGBA encoder can produce is accepted;
//! anything else is reported as an error, never guessed at.

use std::sync::OnceLock;

const SIGNATURE: [u8; 8] = [0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n'];

/// A decoded 8-bit RGBA image.
pub struct Decoded {
    pub width: u32,
    pub height: u32,
    pub rgba: Vec<u8>,
}

/// Slicing-by-8 tables: a 1 MiB response is checked in well under a
/// millisecond, so the checker does not compete with the server for CPU.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (index, entry) in tables[0].iter_mut().enumerate() {
            let mut value = index as u32;
            for _ in 0..8 {
                value = if value & 1 == 1 {
                    0xEDB8_8320 ^ (value >> 1)
                } else {
                    value >> 1
                };
            }
            *entry = value;
        }
        for slice in 1..8 {
            for index in 0..256 {
                let previous = tables[slice - 1][index];
                tables[slice][index] = (previous >> 8) ^ tables[0][(previous & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 (ISO-HDLC) over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let t = crc_tables();
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut chunks = part.chunks_exact(8);
        for chunk in &mut chunks {
            let low = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            crc = t[7][(low & 0xFF) as usize]
                ^ t[6][((low >> 8) & 0xFF) as usize]
                ^ t[5][((low >> 16) & 0xFF) as usize]
                ^ t[4][(low >> 24) as usize]
                ^ t[3][chunk[4] as usize]
                ^ t[2][chunk[5] as usize]
                ^ t[1][chunk[6] as usize]
                ^ t[0][chunk[7] as usize];
        }
        for &byte in chunks.remainder() {
            crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    crc ^ 0xFFFF_FFFF
}

fn adler32(bytes: &[u8]) -> u32 {
    let (mut a, mut b) = (1u32, 0u32);
    // 5552 is the longest run whose sums cannot overflow before the modulo.
    for block in bytes.chunks(5552) {
        for &byte in block {
            a += u32::from(byte);
            b += a;
        }
        a %= 65_521;
        b %= 65_521;
    }
    (b << 16) | a
}

fn be32(bytes: &[u8], at: usize) -> Result<u32, String> {
    bytes
        .get(at..at + 4)
        .map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        .ok_or_else(|| format!("truncated at byte {at}"))
}

/// Inflates a zlib stream made only of stored deflate blocks.
fn inflate_stored(zlib: &[u8], expected_len: usize) -> Result<Vec<u8>, String> {
    if zlib.len() < 6 {
        return Err("zlib stream too short".into());
    }
    let (cmf, flg) = (zlib[0], zlib[1]);
    if cmf & 0x0F != 8 || (u16::from(cmf) * 256 + u16::from(flg)) % 31 != 0 || flg & 0x20 != 0 {
        return Err(format!("bad zlib header {cmf:#04x} {flg:#04x}"));
    }
    let mut out = Vec::with_capacity(expected_len);
    let mut at = 2;
    loop {
        let header = *zlib.get(at).ok_or("missing deflate block header")?;
        if (header >> 1) & 0b11 != 0 {
            return Err(format!(
                "deflate block type {} is not stored",
                (header >> 1) & 0b11
            ));
        }
        let field = zlib
            .get(at + 1..at + 5)
            .ok_or("truncated stored block header")?;
        let len = u16::from_le_bytes([field[0], field[1]]);
        let nlen = u16::from_le_bytes([field[2], field[3]]);
        if len != !nlen {
            return Err(format!("stored block LEN {len} does not match NLEN {nlen}"));
        }
        at += 5;
        let data = zlib
            .get(at..at + usize::from(len))
            .ok_or("stored block overruns the stream")?;
        out.extend_from_slice(data);
        at += usize::from(len);
        if header & 1 == 1 {
            break;
        }
    }
    if be32(zlib, at)? != adler32(&out) {
        return Err("Adler-32 mismatch".into());
    }
    if at + 4 != zlib.len() {
        return Err("trailing bytes after the zlib stream".into());
    }
    Ok(out)
}

fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let p = i16::from(a) + i16::from(b) - i16::from(c);
    let (pa, pb, pc) = (
        (p - i16::from(a)).abs(),
        (p - i16::from(b)).abs(),
        (p - i16::from(c)).abs(),
    );
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Reverses the per-scanline filters of 8-bit RGBA data.
fn unfilter(raw: &[u8], width: usize, height: usize) -> Result<Vec<u8>, String> {
    let stride = width * 4;
    if raw.len() != (stride + 1) * height {
        return Err(format!(
            "{} decompressed bytes, expected {}",
            raw.len(),
            (stride + 1) * height
        ));
    }
    let mut out = vec![0u8; stride * height];
    for row in 0..height {
        let filter = raw[row * (stride + 1)];
        let line = &raw[row * (stride + 1) + 1..(row + 1) * (stride + 1)];
        let (done, rest) = out.split_at_mut(row * stride);
        let previous = if row == 0 {
            None
        } else {
            Some(&done[(row - 1) * stride..])
        };
        let current = &mut rest[..stride];
        let up = |x: usize| previous.map_or(0, |p| p[x]);
        match filter {
            0 => current.copy_from_slice(line),
            1..=4 => {
                for x in 0..stride {
                    let left = if x >= 4 { current[x - 4] } else { 0 };
                    let up_left = if x >= 4 { up(x - 4) } else { 0 };
                    let predictor = match filter {
                        1 => left,
                        2 => up(x),
                        3 => ((u16::from(left) + u16::from(up(x))) / 2) as u8,
                        _ => paeth(left, up(x), up_left),
                    };
                    current[x] = line[x].wrapping_add(predictor);
                }
            }
            other => return Err(format!("row {row} has filter byte {other}")),
        }
    }
    Ok(out)
}

/// Decodes and validates a PNG produced by a stored-deflate RGBA encoder.
pub fn decode(bytes: &[u8]) -> Result<Decoded, String> {
    if bytes.get(..8) != Some(&SIGNATURE[..]) {
        return Err("missing PNG signature".into());
    }
    let mut at = 8;
    let mut header = None;
    let mut idat = Vec::new();
    let mut ended = false;
    while at < bytes.len() {
        let len = be32(bytes, at)? as usize;
        let kind = bytes.get(at + 4..at + 8).ok_or("truncated chunk type")?;
        let data = bytes
            .get(at + 8..at + 8 + len)
            .ok_or("chunk overruns the file")?;
        if be32(bytes, at + 8 + len)? != crc32(&[kind, data]) {
            return Err(format!("CRC mismatch in {}", String::from_utf8_lossy(kind)));
        }
        at += 12 + len;
        match kind {
            b"IHDR" => {
                if data.len() != 13 || data[8..] != [8, 6, 0, 0, 0] {
                    return Err("IHDR is not 8-bit RGBA, non-interlaced".into());
                }
                header = Some((be32(data, 0)?, be32(data, 4)?));
            }
            b"IDAT" => idat.extend_from_slice(data),
            b"IEND" => {
                ended = true;
                break;
            }
            other if other[0].is_ascii_uppercase() => {
                return Err(format!(
                    "unknown critical chunk {}",
                    String::from_utf8_lossy(other)
                ));
            }
            _ => {}
        }
    }
    if !ended || at != bytes.len() {
        return Err("IEND missing or not last".into());
    }
    let (width, height) = header.ok_or("missing IHDR")?;
    let (w, h) = (width as usize, height as usize);
    let raw = inflate_stored(&idat, (w * 4 + 1) * h)?;
    Ok(Decoded {
        width,
        height,
        rgba: unfilter(&raw, w, h)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksums_match_known_vectors() {
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn paeth_filter_round_trips() {
        // One 2x2 image, row 1 Paeth-filtered against row 0.
        let row0 = [10u8, 20, 30, 255, 40, 50, 60, 255];
        let row1 = [11u8, 22, 33, 255, 44, 55, 66, 255];
        let mut raw = vec![0];
        raw.extend_from_slice(&row0);
        raw.push(4);
        for x in 0..8 {
            let left = if x >= 4 { row1[x - 4] } else { 0 };
            let up_left = if x >= 4 { row0[x - 4] } else { 0 };
            raw.push(row1[x].wrapping_sub(paeth(left, row0[x], up_left)));
        }
        let pixels = unfilter(&raw, 2, 2).unwrap();
        assert_eq!(&pixels[..8], &row0);
        assert_eq!(&pixels[8..], &row1);
    }
}
