//! Segment files: sealed [`ColumnIndex`] runs spilled to disk.
//!
//! A segment persists only the four core tables — the sorted records,
//! the interned machine list, and the two secondary-order permutations —
//! because everything else in the index (CSR offsets, dense ids, metric
//! columns) is an O(n) derivation. Writing is therefore a near-straight
//! dump; loading re-derives and *validates*, so a segment that passes
//! checksums but encodes a structurally inconsistent index is still
//! rejected.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic      8B   "KEASEG1\n"
//! version    u32  1
//! rows       u64  n
//! machines   u64  m
//! sections   4 × [len: u64][crc32: u32]   records, machines,
//!                                         hour_order, machine_order
//! header_crc u32  over everything above
//! body            the four sections, concatenated in table order
//! ```
//!
//! Permutation entries are `u32`; every row position is converted with
//! a checked narrowing at write time (`u32::try_from`) so a run past
//! `u32::MAX` rows surfaces a typed [`PersistError`] instead of
//! corrupting silently. A segment is ~135 bytes/row.
//!
//! Both directions stream each section through one reused chunk buffer
//! of [`CHUNK_ROWS`] records, so no whole-file image is ever built.
//! [`write_segment`] encodes a chunk, folds it into the section's CRC
//! and writes it; the header, which holds the section lengths and CRCs,
//! is written last, through a seek back over the gap left for it.
//! [`load_segment`] is one pass: it checks the header and the file
//! length, then reads each chunk, folds it into the section CRC and
//! decodes it while it is still in cache — records into the rows, the
//! 14 metric columns, the group runs and the row-order check. A
//! section's CRC is compared at its end, and a mismatch returns
//! nothing. The decoded tables then go through every structural check
//! of [`ColumnIndex::from_persisted`].
//!
//! [`read_header`] validates just the fixed header (magic, version,
//! header CRC, row/section accounting against the file length) without
//! decoding the body — the multi-segment store uses it at open so a
//! month of segments costs one small read each, and full decoding (with
//! every section CRC and structural invariant checked) happens lazily
//! on first query, or for every run at once in
//! [`TelemetryStore::verify`](crate::TelemetryStore::verify), via
//! [`load_segment`].
//!
//! On checksum or validation failure both entry points rename the file
//! to `<name>.quarantine` (best-effort) so the bad bytes survive for
//! forensics and never get mistaken for a live segment again, then
//! return [`PersistError::Corrupt`].

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use super::codec::{self, RECORD_BYTES};
use super::crc::{crc32, Crc32};
use super::{fsync_dir, io_err, PersistError};
use crate::record::MachineId;
use crate::store::{ColumnIndex, PersistedRows};

/// Magic bytes opening every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"KEASEG1\n";

/// On-disk format version this build reads and writes.
const SEG_VERSION: u32 = 1;

/// Fixed header size: magic + version + rows + machines + 4 section
/// descriptors + header CRC.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 4 * 12 + 4;

/// Records per streamed chunk. The chunk buffer holds this many encoded
/// records (~508 KiB): small enough to stay in cache between the CRC and
/// the decode, large enough that the per-chunk syscall is noise. The
/// `u32` sections stream through the same buffer, as many entries as fit.
const CHUNK_ROWS: usize = 4096;

/// Size of the one reused chunk buffer: whole records, and whole `u32`
/// entries too, so a chunk never splits an entry of any section.
const CHUNK_BYTES: usize = CHUNK_ROWS * RECORD_BYTES;
const _: () = assert!(CHUNK_BYTES.is_multiple_of(4));

/// Appends a row permutation to `out` as little-endian `u32`s with a
/// checked narrowing per entry; `None` if any row position exceeds
/// `u32::MAX` (an index that large must never be spilled — the caller
/// surfaces a typed error at write time rather than truncating
/// silently).
fn encode_order(order: &[usize], out: &mut Vec<u8>) -> Option<()> {
    for &row in order {
        let row = u32::try_from(row).ok()?;
        out.extend_from_slice(&row.to_le_bytes());
    }
    Some(())
}

/// Writes `index` as segment `name` inside `dir`: temp file, fsync,
/// rename into place, fsync the directory. The segment is fully valid
/// or invisible — a crash mid-write leaves only a `.tmp` orphan, which
/// the next open sweeps. Returns the number of bytes written (the
/// write-amplification accounting behind [`super::SyncStats`]).
pub fn write_segment(dir: &Path, name: &str, index: &ColumnIndex) -> Result<u64, PersistError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(name);
    if u32::try_from(index.sorted.len()).is_err() {
        return Err(too_big(&path, "run row count"));
    }
    let mut f = File::create(&tmp).map_err(io_err("create segment temp", &tmp))?;
    let bytes = match write_sections(&mut f, &tmp, &path, index) {
        Ok(bytes) => bytes,
        Err(e) => {
            drop(f);
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    };
    f.sync_all().map_err(io_err("fsync segment temp", &tmp))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(io_err("rename segment", &path))?;
    fsync_dir(dir)?;
    Ok(bytes)
}

/// The typed refusal to write a table that does not fit the format.
fn too_big(path: &Path, what: &str) -> PersistError {
    PersistError::Corrupt {
        path: path.to_path_buf(),
        reason: format!("{what} exceeds u32::MAX; refusing to write a silently-truncated segment"),
    }
}

/// One section being written: its running length and CRC.
#[derive(Clone, Copy)]
struct SectionSum {
    len: u64,
    crc: Crc32,
}

/// Streams the four sections of `index` into `f` behind a gap of
/// [`HEADER_BYTES`], then seeks back and fills the gap with the header.
/// Returns the file size.
fn write_sections(f: &mut File, tmp: &Path, path: &Path, index: &ColumnIndex) -> Result<u64, PersistError> {
    let at = u64::try_from(HEADER_BYTES).unwrap_or(u64::MAX);
    f.seek(SeekFrom::Start(at)).map_err(io_err("seek segment temp", tmp))?;
    let mut sums = [SectionSum { len: 0, crc: Crc32::new() }; 4];
    let mut buf = Vec::with_capacity(CHUNK_BYTES);
    let emit = |f: &mut File, sum: &mut SectionSum, buf: &mut Vec<u8>| {
        sum.crc.update(buf);
        sum.len += u64::try_from(buf.len()).unwrap_or(u64::MAX);
        let written = f.write_all(buf);
        buf.clear();
        written.map_err(io_err("write segment temp", tmp))
    };
    let [records, machines, hour_order, machine_order] = &mut sums;

    for rows in index.sorted.chunks(CHUNK_ROWS) {
        for r in rows {
            codec::encode_record(r, &mut buf);
        }
        emit(f, records, &mut buf)?;
    }
    for ids in index.machines.chunks(CHUNK_BYTES / 4) {
        for mid in ids {
            buf.extend_from_slice(&mid.0.to_le_bytes());
        }
        emit(f, machines, &mut buf)?;
    }
    for (order, sum, what) in [
        (&index.hour_order, hour_order, "hour permutation row"),
        (&index.machine_order, machine_order, "machine permutation row"),
    ] {
        for rows in order.chunks(CHUNK_BYTES / 4) {
            encode_order(rows, &mut buf).ok_or_else(|| too_big(path, what))?;
            emit(f, sum, &mut buf)?;
        }
    }

    let n = u64::try_from(index.sorted.len()).unwrap_or_default();
    let m = u64::try_from(index.machines.len()).unwrap_or_default();
    let mut header = Vec::with_capacity(HEADER_BYTES);
    header.extend_from_slice(SEG_MAGIC);
    header.extend_from_slice(&SEG_VERSION.to_le_bytes());
    header.extend_from_slice(&n.to_le_bytes());
    header.extend_from_slice(&m.to_le_bytes());
    for s in &sums {
        header.extend_from_slice(&s.len.to_le_bytes());
        header.extend_from_slice(&s.crc.finish().to_le_bytes());
    }
    header.extend_from_slice(&crc32(&header).to_le_bytes());
    f.seek(SeekFrom::Start(0)).map_err(io_err("seek segment temp", tmp))?;
    f.write_all(&header).map_err(io_err("write segment temp", tmp))?;
    Ok(sums.iter().fold(at, |total, s| total.saturating_add(s.len)))
}

/// The validated accounting a segment header describes.
struct HeaderInfo {
    /// Row count.
    n: usize,
    /// Machine count.
    m: usize,
    /// The four section lengths in table order.
    lens: [usize; 4],
    /// The four section CRCs in table order.
    crcs: [u32; 4],
    /// Total file size the header implies (header + sections).
    total: usize,
}

/// Parses and validates the fixed header (magic, version, header CRC,
/// row-count agreement, section-length accounting).
fn parse_header(bytes: &[u8], expect_rows: u64) -> Result<HeaderInfo, String> {
    if bytes.get(..SEG_MAGIC.len()) != Some(SEG_MAGIC.as_slice()) {
        return Err("missing or unrecognized segment magic".to_string());
    }
    let version = codec::u32_at(bytes, 8).ok_or("truncated header")?;
    if version != SEG_VERSION {
        return Err(format!("unsupported segment version {version} (this build reads {SEG_VERSION})"));
    }
    let header = bytes.get(..HEADER_BYTES - 4).ok_or("truncated header")?;
    let header_crc = codec::u32_at(bytes, HEADER_BYTES - 4).ok_or("truncated header")?;
    if crc32(header) != header_crc {
        return Err("header checksum mismatch".to_string());
    }
    let n64 = codec::u64_at(bytes, 12).ok_or("truncated header")?;
    let m64 = codec::u64_at(bytes, 20).ok_or("truncated header")?;
    if n64 != expect_rows {
        return Err(format!("manifest says {expect_rows} rows, header says {n64}"));
    }
    let n = usize::try_from(n64).map_err(|_| "row count overflows usize")?;
    let m = usize::try_from(m64).map_err(|_| "machine count overflows usize")?;

    let mut lens = [0usize; 4];
    let mut crcs = [0u32; 4];
    for (i, (len, crc)) in lens.iter_mut().zip(&mut crcs).enumerate() {
        let at = 28 + i * 12;
        *len = usize::try_from(codec::u64_at(bytes, at).ok_or("truncated header")?)
            .map_err(|_| "section length overflows usize")?;
        *crc = codec::u32_at(bytes, at + 8).ok_or("truncated header")?;
    }
    let total: usize = lens
        .iter()
        .try_fold(HEADER_BYTES, |acc, &l| acc.checked_add(l))
        .ok_or("section lengths overflow")?;
    let expect_lens = [
        n.checked_mul(RECORD_BYTES).ok_or("row count overflows")?,
        m.checked_mul(4).ok_or("machine count overflows")?,
        n.checked_mul(4).ok_or("row count overflows")?,
        n.checked_mul(4).ok_or("row count overflows")?,
    ];
    if lens != expect_lens {
        return Err("section lengths disagree with row/machine counts".to_string());
    }
    Ok(HeaderInfo { n, m, lens, crcs, total })
}

/// Why a segment read stopped: bad bytes, which quarantine the file, or
/// an OS failure, which does not.
enum ReadFail {
    Corrupt(String),
    Io(PersistError),
}

impl From<String> for ReadFail {
    fn from(reason: String) -> Self {
        ReadFail::Corrupt(reason)
    }
}

impl From<&str> for ReadFail {
    fn from(reason: &str) -> Self {
        ReadFail::Corrupt(reason.to_string())
    }
}

impl From<PersistError> for ReadFail {
    fn from(e: PersistError) -> Self {
        ReadFail::Io(e)
    }
}

/// Fills `buf` from `f`; a file that ends first is corrupt ("truncated
/// `what`"), any other failure is I/O.
fn read_full(f: &mut File, buf: &mut [u8], path: &Path, what: &str) -> Result<(), ReadFail> {
    f.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ReadFail::Corrupt(format!("truncated {what}"))
        } else {
            ReadFail::Io(io_err("read segment", path)(e))
        }
    })
}

/// Opens `path` and checks its header and its length against the
/// section accounting, leaving the file positioned at the body.
fn open_checked(path: &Path, expect_rows: u64) -> Result<(File, HeaderInfo), ReadFail> {
    let mut f = File::open(path).map_err(io_err("open segment", path))?;
    let file_len = f.metadata().map_err(io_err("stat segment", path))?.len();
    let mut header = [0u8; HEADER_BYTES];
    read_full(&mut f, &mut header, path, "header")?;
    let info = parse_header(&header, expect_rows)?;
    if u64::try_from(info.total).ok() != Some(file_len) {
        return Err(format!("file is {file_len} bytes, sections describe {}", info.total).into());
    }
    Ok((f, info))
}

/// Turns a read outcome into the caller's result, quarantining the
/// file on corruption.
fn settle<T>(dir: &Path, name: &str, path: &Path, outcome: Result<T, ReadFail>) -> Result<T, PersistError> {
    match outcome {
        Ok(v) => Ok(v),
        Err(ReadFail::Corrupt(reason)) => Err(quarantine(dir, name, path, reason)),
        Err(ReadFail::Io(e)) => Err(e),
    }
}

/// Validates segment `name`'s header without decoding the body: magic,
/// version, header CRC, row count against the manifest, and the file
/// length against the section accounting. This is the cheap open-time
/// check of the lazy-loading store; full body validation happens in
/// [`load_segment`] on first query. Header-level corruption quarantines
/// the file exactly like a load failure.
pub fn read_header(dir: &Path, name: &str, expect_rows: u64) -> Result<(), PersistError> {
    let path = dir.join(name);
    let outcome = open_checked(&path, expect_rows).map(drop);
    settle(dir, name, &path, outcome)
}

/// Loads segment `name` from `dir` in one streamed pass, verifying every
/// checksum and the structural invariants, and expecting exactly
/// `expect_rows` rows (the count recorded in the manifest) and, when
/// given, the inclusive `expect_bounds` hour range recorded there too.
/// Corruption quarantines the file and returns a typed error; it never
/// panics.
pub fn load_segment(
    dir: &Path,
    name: &str,
    expect_rows: u64,
    expect_bounds: Option<(u64, u64)>,
) -> Result<ColumnIndex, PersistError> {
    let path = dir.join(name);
    let outcome = open_checked(&path, expect_rows)
        .and_then(|(mut f, info)| decode_body(&mut f, &path, &info))
        .and_then(|index| {
            let Some((lo, hi)) = expect_bounds else { return Ok(index) };
            let got = index.hours.first().copied().zip(index.hours.last().copied());
            if got != Some((lo, hi)) {
                return Err(format!("manifest says hours [{lo}, {hi}], segment covers {got:?}").into());
            }
            Ok(index)
        });
    settle(dir, name, &path, outcome)
}

/// Streams section `i` from `f` through `buf` (of [`CHUNK_BYTES`]) one
/// chunk at a time, feeding each chunk to `each` right after it is
/// folded into the section CRC, and checks the CRC at the section end.
/// Every chunk but the last is full, so each holds whole entries.
fn stream_section(
    f: &mut File,
    path: &Path,
    info: &HeaderInfo,
    i: usize,
    buf: &mut [u8],
    mut each: impl FnMut(&[u8]),
) -> Result<(), ReadFail> {
    let (len, want) = info.lens.get(i).zip(info.crcs.get(i)).ok_or("bad section number")?;
    let mut crc = Crc32::new();
    let mut left = *len;
    while left > 0 {
        let chunk = buf.get_mut(..left.min(CHUNK_BYTES)).ok_or("short chunk buffer")?;
        read_full(f, chunk, path, "section")?;
        crc.update(chunk);
        each(chunk);
        left -= chunk.len();
    }
    if crc.finish() != *want {
        return Err(format!("section {i} checksum mismatch").into());
    }
    Ok(())
}

/// Decodes the four sections behind a checked header and rebuilds the
/// index: records and their metric columns in the read pass, then the
/// machine table and both permutations, then every structural check.
fn decode_body(f: &mut File, path: &Path, info: &HeaderInfo) -> Result<ColumnIndex, ReadFail> {
    let HeaderInfo { n, m, .. } = *info;
    let mut buf = vec![0u8; CHUNK_BYTES];

    let mut rows = PersistedRows::with_capacity(n);
    stream_section(f, path, info, 0, &mut buf, |chunk| {
        for r in chunk.chunks_exact(RECORD_BYTES).filter_map(codec::decode_record) {
            rows.push(r);
        }
    })?;
    if rows.len() != n {
        return Err("record section malformed".into());
    }

    let mut machines = Vec::with_capacity(m);
    stream_section(f, path, info, 1, &mut buf, |chunk| {
        machines.extend(chunk.chunks_exact(4).filter_map(|c| codec::u32_at(c, 0).map(MachineId)));
    })?;
    if machines.len() != m {
        return Err("machine section malformed".into());
    }

    let mut orders = [Vec::with_capacity(n), Vec::with_capacity(n)];
    for (order, i) in orders.iter_mut().zip([2, 3]) {
        stream_section(f, path, info, i, &mut buf, |chunk| {
            order.extend(chunk.chunks_exact(4).filter_map(|c| codec::u32_at(c, 0).map(|v| v as usize)));
        })?;
    }
    let [hour_order, machine_order] = orders;

    ColumnIndex::from_persisted(rows, machines, hour_order, machine_order)
        .ok_or_else(|| "index invariants violated (unsorted rows or bad permutation)".into())
}

/// Renames a corrupt file to `<name>.quarantine` (best-effort; the
/// original path is reported either way) and builds the typed error.
fn quarantine(dir: &Path, name: &str, path: &Path, reason: String) -> PersistError {
    let qpath: PathBuf = dir.join(format!("{name}.quarantine"));
    let moved = std::fs::rename(path, &qpath).is_ok();
    let _ = fsync_dir(dir);
    PersistError::Corrupt {
        path: path.to_path_buf(),
        reason: if moved {
            format!("{reason}; file quarantined as {}", qpath.display())
        } else {
            reason
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{GroupKey, MachineHourRecord, MetricValues, ScId, SkuId};

    fn records(n: u64) -> Vec<MachineHourRecord> {
        (0..n)
            .map(|i| MachineHourRecord {
                machine: MachineId((i % 7) as u32),
                group: GroupKey::new(SkuId((i % 3) as u16), ScId((i % 2) as u8)),
                hour: i / 7,
                metrics: MetricValues {
                    tasks_finished: i as f64,
                    cpu_time_s: (i as f64) * 0.25,
                    ..MetricValues::default()
                },
            })
            .collect()
    }

    /// The whole-buffer encoder the streaming writer replaced, kept as
    /// the byte-for-byte oracle of the on-disk format: every section is
    /// built in full, checksummed, and concatenated behind the header.
    fn encode_whole(index: &ColumnIndex) -> Vec<u8> {
        let mut records = Vec::new();
        for r in &index.sorted {
            codec::encode_record(r, &mut records);
        }
        let mut machines = Vec::new();
        for mid in &index.machines {
            machines.extend_from_slice(&mid.0.to_le_bytes());
        }
        let mut hour_order = Vec::new();
        encode_order(&index.hour_order, &mut hour_order).unwrap();
        let mut machine_order = Vec::new();
        encode_order(&index.machine_order, &mut machine_order).unwrap();
        let sections = [&records, &machines, &hour_order, &machine_order];

        let mut bytes = Vec::new();
        bytes.extend_from_slice(SEG_MAGIC);
        bytes.extend_from_slice(&SEG_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(index.sorted.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&(index.machines.len() as u64).to_le_bytes());
        for s in sections {
            bytes.extend_from_slice(&(s.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&crc32(s).to_le_bytes());
        }
        let header_crc = crc32(&bytes);
        bytes.extend_from_slice(&header_crc.to_le_bytes());
        for s in sections {
            bytes.extend_from_slice(s);
        }
        bytes
    }

    /// Byte offsets of the four sections of a segment of `n` rows over
    /// `m` machines.
    fn section_starts(n: usize, m: usize) -> [usize; 4] {
        let records = HEADER_BYTES;
        let machines = records + n * RECORD_BYTES;
        let hour_order = machines + m * 4;
        [records, machines, hour_order, hour_order + n * 4]
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("kea-seg-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every table survives a write and a load, at row counts on and
    /// around the chunk boundaries, and the file is byte for byte what
    /// the whole-buffer encoder produces.
    #[test]
    fn write_then_load_is_identical() {
        let dir = tmpdir("roundtrip");
        for n in [500, 0, 1, CHUNK_ROWS as u64 - 1, CHUNK_ROWS as u64, 3 * CHUNK_ROWS as u64 + 17] {
            let index = ColumnIndex::build(&records(n));
            let name = format!("seg-{n}.kseg");
            let written = write_segment(&dir, &name, &index).unwrap();
            let bytes = std::fs::read(dir.join(&name)).unwrap();
            assert_eq!(written, bytes.len() as u64, "n={n}");
            assert!(bytes == encode_whole(&index), "n={n}: bytes differ from the reference encoder");
            assert!(!dir.join(format!("{name}.tmp")).exists(), "n={n}");

            let back = load_segment(&dir, &name, n, None).unwrap();
            assert_eq!(back.sorted, index.sorted, "n={n}");
            assert_eq!(back.groups, index.groups, "n={n}");
            assert_eq!(back.group_offsets, index.group_offsets, "n={n}");
            assert_eq!(back.machines, index.machines, "n={n}");
            assert_eq!(back.machine_dense, index.machine_dense, "n={n}");
            assert_eq!(back.hours, index.hours, "n={n}");
            assert_eq!(back.hour_order, index.hour_order, "n={n}");
            assert_eq!(back.hour_offsets, index.hour_offsets, "n={n}");
            assert_eq!(back.machine_order, index.machine_order, "n={n}");
            assert_eq!(back.machine_offsets, index.machine_offsets, "n={n}");
            assert_eq!(back.columns, index.columns, "n={n}");
            assert!(back.columns.iter().all(|c| c.capacity() == n as usize), "n={n}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_validation_accepts_good_segment_and_bounds_check_works() {
        let dir = tmpdir("header");
        let index = ColumnIndex::build(&records(210)); // hours 0..=29
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        read_header(&dir, "seg-000001.kseg", 210).unwrap();
        // Matching bounds load cleanly.
        load_segment(&dir, "seg-000001.kseg", 210, Some((0, 29))).unwrap();
        // Mismatched manifest bounds are corruption, not silence.
        let err = load_segment(&dir, "seg-000001.kseg", 210, Some((0, 99))).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        assert!(dir.join("seg-000001.kseg.quarantine").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_validation_rejects_wrong_rows_and_truncation() {
        let dir = tmpdir("header-bad");
        let index = ColumnIndex::build(&records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        // Wrong manifest row count.
        std::fs::write(dir.join("a.kseg"), &bytes).unwrap();
        assert!(matches!(
            read_header(&dir, "a.kseg", 65).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        assert!(dir.join("a.kseg.quarantine").exists());
        // Body shorter than the header promises (caught without decoding).
        std::fs::write(dir.join("b.kseg"), &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            read_header(&dir, "b.kseg", 64).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        // File shorter than the header itself.
        std::fs::write(dir.join("c.kseg"), &bytes[..10]).unwrap();
        assert!(matches!(
            read_header(&dir, "c.kseg", 64).unwrap_err(),
            PersistError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (satellite bugfix): permutation rows used to be
    /// narrowed with a bare `as u32`, silently truncating any row past
    /// `u32::MAX`. The encoder now uses a checked conversion; an
    /// impossible row position is refused, never wrapped.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn permutation_row_past_u32_is_refused_not_truncated() {
        let big = u32::MAX as usize + 1;
        assert_eq!(encode_order(&[0, big], &mut Vec::new()), None, "oversized row must not encode");
        // In-range rows still encode exactly.
        let mut ok = Vec::new();
        encode_order(&[0, 1, u32::MAX as usize], &mut ok).unwrap();
        assert_eq!(ok.len(), 12);
        assert_eq!(&ok[8..], &u32::MAX.to_le_bytes());
    }

    #[test]
    fn empty_run_roundtrips() {
        let dir = tmpdir("empty");
        let index = ColumnIndex::build(&[]);
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let back = load_segment(&dir, "seg-000001.kseg", 0, None).unwrap();
        assert!(back.sorted.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One flipped byte anywhere — in the header, or in any chunk of any
    /// section of a multi-chunk segment — is typed corruption and moves
    /// the file aside. A body flip passes the header check and is caught
    /// by its section's CRC.
    #[test]
    fn byte_flip_quarantines_not_panics() {
        let dir = tmpdir("flip");
        let n = 3 * CHUNK_ROWS + 17;
        let index = ColumnIndex::build(&records(n as u64));
        write_segment(&dir, "good.kseg", &index).unwrap();
        let good = std::fs::read(dir.join("good.kseg")).unwrap();
        let [records_at, machines_at, hour_at, machine_at] = section_starts(n, index.machines.len());
        let flips = [
            ("magic", 4, "segment magic"),
            ("descriptors", 40, "header checksum mismatch"),
            ("records-first-chunk", records_at + 3, "section 0 checksum mismatch"),
            ("records-later-chunk", records_at + 2 * CHUNK_BYTES + 5, "section 0 checksum mismatch"),
            ("records-last-byte", machines_at - 1, "section 0 checksum mismatch"),
            ("machines", machines_at + 1, "section 1 checksum mismatch"),
            ("hour-order", hour_at + 4 * CHUNK_ROWS + 2, "section 2 checksum mismatch"),
            ("machine-order", machine_at + 7, "section 3 checksum mismatch"),
            ("machine-order-last-byte", good.len() - 1, "section 3 checksum mismatch"),
        ];
        for (what, at, reason) in flips {
            let mut bytes = good.clone();
            bytes[at] ^= 0x40;
            let name = format!("{what}.kseg");
            std::fs::write(dir.join(&name), &bytes).unwrap();
            assert_quarantined(&dir, &name, n as u64, reason);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_count_mismatch_with_manifest_is_corrupt() {
        let dir = tmpdir("rows");
        let index = ColumnIndex::build(&records(64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let err = load_segment(&dir, "seg-000001.kseg", 65, None).unwrap_err();
        assert!(matches!(err, PersistError::Corrupt { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A file cut short anywhere — inside the header, at a chunk
    /// boundary, mid-chunk, one byte short — is typed corruption.
    #[test]
    fn truncated_file_is_corrupt_not_panic() {
        let dir = tmpdir("trunc");
        let n = 3 * CHUNK_ROWS + 17;
        let index = ColumnIndex::build(&records(n as u64));
        write_segment(&dir, "seg-000001.kseg", &index).unwrap();
        let bytes = std::fs::read(dir.join("seg-000001.kseg")).unwrap();
        let cuts = [
            0,
            7,
            HEADER_BYTES - 2,
            HEADER_BYTES + 100,
            HEADER_BYTES + CHUNK_BYTES,
            HEADER_BYTES + CHUNK_BYTES + CHUNK_BYTES / 2 + 3,
            bytes.len() - 1,
        ];
        for cut in cuts {
            let name = format!("cut-{cut}.kseg");
            std::fs::write(dir.join(&name), &bytes[..cut]).unwrap();
            let reason = if cut < HEADER_BYTES { "truncated header" } else { "sections describe" };
            assert_quarantined(&dir, &name, n as u64, reason);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Asserts that loading `name` fails as typed corruption whose reason
    /// contains `expect`, and that the file was moved aside.
    fn assert_quarantined(dir: &Path, name: &str, rows: u64, expect: &str) {
        let err = load_segment(dir, name, rows, None).unwrap_err();
        match &err {
            PersistError::Corrupt { reason, .. } => {
                assert!(reason.contains(expect), "{name}: expected {expect:?}, got {reason:?}")
            }
            other => panic!("{name}: expected Corrupt, got {other}"),
        }
        assert!(dir.join(format!("{name}.quarantine")).exists(), "{name}");
        assert!(!dir.join(name).exists(), "{name}");
    }

    /// The header check at open and the load are separate reads; a file
    /// cut short in between must still be caught by the load.
    #[test]
    fn file_shrinking_after_the_header_check_quarantines_on_load() {
        let dir = tmpdir("shrink");
        let n = 2 * CHUNK_ROWS + 5;
        let index = ColumnIndex::build(&records(n as u64));
        write_segment(&dir, "seg.kseg", &index).unwrap();
        read_header(&dir, "seg.kseg", n as u64).unwrap();
        let f = std::fs::OpenOptions::new().write(true).open(dir.join("seg.kseg")).unwrap();
        f.set_len((HEADER_BYTES + CHUNK_BYTES + 100) as u64).unwrap();
        drop(f);
        assert_quarantined(&dir, "seg.kseg", n as u64, "sections describe");

        // Shrinking after the load's own length check, mid-body: the
        // chunk reads run out, which is corruption, not an I/O error.
        write_segment(&dir, "seg.kseg", &index).unwrap();
        let path = dir.join("seg.kseg");
        let (mut f, info) = open_checked(&path, n as u64).ok().unwrap();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((HEADER_BYTES + CHUNK_BYTES + 100) as u64)
            .unwrap();
        match decode_body(&mut f, &path, &info) {
            Err(ReadFail::Corrupt(reason)) => assert_eq!(reason, "truncated section"),
            Err(ReadFail::Io(e)) => panic!("expected corruption, got {e}"),
            Ok(_) => panic!("a shrunken body must not load"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
