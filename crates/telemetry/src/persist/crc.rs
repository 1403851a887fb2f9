//! CRC-32 (IEEE 802.3 polynomial, the zlib/`crc32fast` convention) used
//! to checksum WAL frames and segment sections.
//!
//! Implemented as slicing-by-eight: eight 256-entry tables consumed 8
//! bytes per step, built once in a `const` context so the whole thing is
//! baked into rodata. At segment sizes (tens of MB) the difference
//! against the classic 1-byte table loop is the difference between a
//! checksum that hides inside file-read time and one that dominates
//! recovery.
//
// kea-lint: allow-file(index-in-library) — fixed-shape [8][256] tables
// indexed by u8-derived positions; every index is structurally < 256 and
// the table dimensions are compile-time constants.

/// The CRC-32 polynomial (reflected form).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-eight lookup tables. `TABLES[0]` is the classic byte
/// table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            k += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 of `data` (standard init/final xor, matching zlib's `crc32`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Running CRC-32 over data fed in pieces: the checksum of the
/// concatenated pieces equals [`crc32`] of the whole, at any split.
/// Segment I/O checksums each section one chunk at a time while the
/// chunk is still in cache.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The checksum of no bytes so far.
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Feeds the next piece of data.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.0;
        let mut chunks = data.chunks_exact(8);
        for c in chunks.by_ref() {
            // The low half is folded into the running CRC, the high half
            // is independent; eight table lookups advance eight bytes.
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][((lo >> 24) & 0xFF) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The CRC-32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference single-byte implementation, for cross-checking the
    /// sliced loop.
    fn crc32_simple(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sliced_equals_simple_on_all_alignments() {
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(131)) as u8).collect();
        for start in 0..9 {
            for end in [start, start + 1, start + 7, start + 8, start + 9, data.len()] {
                let slice = &data[start..end.max(start)];
                assert_eq!(crc32(slice), crc32_simple(slice), "at [{start}..{end}]");
            }
        }
    }

    #[test]
    fn streamed_equals_whole_at_every_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i.wrapping_mul(37) ^ 0x5A) as u8).collect();
        let whole = crc32(&data);
        for piece in [1usize, 3, 7, 8, 9, 64, 299, 300] {
            let mut crc = Crc32::new();
            for c in data.chunks(piece) {
                crc.update(c);
            }
            assert_eq!(crc.finish(), whole, "pieces of {piece}");
        }
    }
}
