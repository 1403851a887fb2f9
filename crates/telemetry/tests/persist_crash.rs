//! Crash-safety suite for the durable telemetry store.
//!
//! The durability contract under test: after reopening a directory
//! written by a process that died at an arbitrary point, every record
//! covered by a completed `sync()` is recovered (checksum-verified),
//! a torn WAL tail is truncated, corrupt segments are quarantined with
//! a typed error — and recovery *never* panics. Agreement is asserted
//! against the flat-scan reference store on every view and kernel, the
//! same machinery as `tests/agreement.rs`.
//!
//! "Process death" is simulated two ways: dropping the store without a
//! final sync (nothing buffers in the store, so a drop *is* a kill
//! between syncs), and truncating / byte-flipping the on-disk files at
//! randomized offsets, which covers a kill mid-`write(2)`.

use kea_telemetry::aggregate::reference as ref_agg;
use kea_telemetry::persist::test_hooks;
use kea_telemetry::store::reference::TelemetryStore as RefStore;
use kea_telemetry::{
    daily_group_aggregates, daily_group_aggregates_window, group_utilization,
    hourly_fleet_series, hourly_fleet_series_window, GroupKey, MachineHourRecord, MachineId,
    Metric, MetricValues, PersistError, ScId, SkuId, TelemetryStore,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The failure-injection hooks in `persist::test_hooks` are process-wide
/// one-slot statics; tests that arm one hold this lock so a concurrently
/// running hook test cannot overwrite the armed injection before it
/// fires.
static HOOK_LOCK: Mutex<()> = Mutex::new(());

fn hook_guard() -> MutexGuard<'static, ()> {
    HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---- scratch directories ----------------------------------------------

/// A unique scratch directory removed on drop (kept on panic only if the
/// drop never runs, i.e. never — proptest catches the panic first, so
/// cleanup is reliable).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Scratch {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "kea-persist-crash-{}-{n}",
            std::process::id()
        ));
        // A stale dir from a previous run with the same pid is removed
        // rather than recovered into.
        let _ = std::fs::remove_dir_all(&dir);
        Scratch { dir }
    }

    fn path(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ---- record generation and agreement (as in tests/agreement.rs) -------

const HOURS: [u64; 12] = [0, 1, 2, 5, 23, 24, 47, 48, 49, 120, 121, 500];

fn arb_record() -> impl Strategy<Value = MachineHourRecord> {
    (0u32..6, 0u16..3, 0usize..HOURS.len(), 0.0..100.0f64, 0.0..500.0f64).prop_map(
        |(machine, sku, hour_idx, cpu, tasks)| MachineHourRecord {
            machine: MachineId(machine),
            group: GroupKey::new(SkuId(sku), ScId(1 + (machine % 2) as u8)),
            hour: HOURS[hour_idx % HOURS.len()],
            metrics: MetricValues {
                cpu_utilization: cpu,
                tasks_finished: tasks,
                total_data_read_gb: tasks * 0.5,
                cpu_time_s: cpu * 3.0,
                avg_running_containers: 1.0 + cpu * 0.1,
                ..Default::default()
            },
        },
    )
}

fn record_key(r: &MachineHourRecord) -> (u16, u8, u64, u32, u64, u64) {
    (
        r.group.sku.0,
        r.group.sc.0,
        r.hour,
        r.machine.0,
        r.metrics.tasks_finished.to_bits(),
        r.metrics.cpu_utilization.to_bits(),
    )
}

fn sorted_keys<'a>(
    it: impl Iterator<Item = &'a MachineHourRecord>,
) -> Vec<(u16, u8, u64, u32, u64, u64)> {
    let mut keys: Vec<_> = it.map(record_key).collect();
    keys.sort_unstable();
    keys
}

fn close(a: f64, b: f64) -> bool {
    if a.is_nan() && b.is_nan() {
        return true;
    }
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Structural + numeric agreement between the reference store and a
/// (recovered) columnar store, across every view family and kernel.
fn assert_agrees(reference: &RefStore, columnar: &TelemetryStore) {
    assert_eq!(reference.len(), columnar.len());
    assert_eq!(reference.groups(), columnar.groups());
    assert_eq!(reference.machines(), columnar.machines());
    assert_eq!(reference.hour_span(), columnar.hour_span());
    for g in reference.groups() {
        assert_eq!(sorted_keys(reference.by_group(g)), sorted_keys(columnar.by_group(g)));
    }
    for m in reference.machines() {
        assert_eq!(sorted_keys(reference.by_machine(m)), sorted_keys(columnar.by_machine(m)));
    }
    let (lo, hi) = reference.hour_span().unwrap_or((0, 0));
    assert_eq!(
        sorted_keys(reference.by_hours(lo, hi)),
        sorted_keys(columnar.by_hours(lo, hi))
    );

    let ref_daily = ref_agg::daily_group_aggregates(reference);
    let col_daily = daily_group_aggregates(columnar);
    assert_eq!(ref_daily.len(), col_daily.len());
    for (r, c) in ref_daily.iter().zip(&col_daily) {
        assert_eq!((r.group, r.machine, r.day), (c.group, c.machine, c.day));
        assert_eq!(r.hours_observed, c.hours_observed);
        for m in [Metric::CpuUtilization, Metric::NumberOfTasks, Metric::TotalDataRead] {
            assert!(
                close(r.mean(m), c.mean(m)),
                "daily mean of {m} drifted: {} vs {}",
                r.mean(m),
                c.mean(m)
            );
        }
    }
    let r_series = ref_agg::hourly_fleet_series(reference, Metric::CpuUtilization);
    let c_series = hourly_fleet_series(columnar, Metric::CpuUtilization);
    assert_eq!(r_series.len(), c_series.len());
    for ((rh, rv), (ch, cv)) in r_series.iter().zip(&c_series) {
        assert_eq!(rh, ch);
        assert!(close(*rv, *cv), "fleet series at hour {rh} drifted");
    }
    let r_util = ref_agg::group_utilization(reference);
    let c_util = group_utilization(columnar);
    assert_eq!(r_util.len(), c_util.len());
    for (r, c) in r_util.iter().zip(&c_util) {
        assert_eq!((r.group, r.machines), (c.group, c.machines));
        assert!(close(r.mean_cpu_utilization, c.mean_cpu_utilization));
    }

    // Windowed (pruned) paths must agree with the reference predicate
    // scans too — one-day windows at the span's start and middle.
    if let Some((lo, hi)) = reference.hour_span() {
        for ws in [lo, lo + (hi - lo) / 2] {
            let we = ws + 24;
            assert_eq!(
                sorted_keys(reference.by_hours(ws, we)),
                sorted_keys(columnar.by_hours(ws, we))
            );
            let r_daily = ref_agg::daily_group_aggregates_window(reference, ws, we);
            let c_daily = daily_group_aggregates_window(columnar, ws, we);
            assert_eq!(r_daily.len(), c_daily.len());
            for (r, c) in r_daily.iter().zip(&c_daily) {
                assert_eq!((r.group, r.machine, r.day), (c.group, c.machine, c.day));
                assert_eq!(r.hours_observed, c.hours_observed);
                assert!(close(r.mean(Metric::CpuUtilization), c.mean(Metric::CpuUtilization)));
            }
            let r_series =
                ref_agg::hourly_fleet_series_window(reference, Metric::CpuUtilization, ws, we);
            let c_series = hourly_fleet_series_window(columnar, Metric::CpuUtilization, ws, we);
            assert_eq!(r_series.len(), c_series.len());
            for ((rh, rv), (ch, cv)) in r_series.iter().zip(&c_series) {
                assert_eq!(rh, ch);
                assert!(close(*rv, *cv), "windowed fleet series at hour {rh} drifted");
            }
        }
    }
}

/// Reads the live WAL file name out of `dir/MANIFEST` (the documented
/// text format: one `wal <name>` line).
fn live_wal(dir: &Path) -> PathBuf {
    let text = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest readable");
    for line in text.lines() {
        if let Some(name) = line.strip_prefix("wal ") {
            return dir.join(name);
        }
    }
    panic!("no wal line in manifest: {text:?}");
}

/// Reads the live segment file names out of `dir/MANIFEST`.
fn live_segments(dir: &Path) -> Vec<PathBuf> {
    let text = std::fs::read_to_string(dir.join("MANIFEST")).expect("manifest readable");
    text.lines()
        .filter_map(|l| l.strip_prefix("segment "))
        .filter_map(|rest| rest.split(' ').next())
        .map(|name| dir.join(name))
        .collect()
}

// ---- the crash-point properties ---------------------------------------

/// One mutation step against the durable store. `Sync` is the
/// durability point; `Seal` cuts a new run so the next sync rotates WAL
/// contents into a segment; `Compact` k-way merges overlapping or
/// undersized adjacent runs. `MergeFrom` writes its records to a second
/// durable store (sealed or not), reopens it, so its runs load lazily,
/// and merges that in. `Clone` replaces the in-memory twin with a clone
/// of the durable store. `CacheLimit1` caps decoded segments at one, so
/// later queries evict and reload.
#[derive(Debug, Clone)]
enum Op {
    PushBatch(Vec<MachineHourRecord>),
    Seal,
    Sync,
    Compact,
    MergeFrom(Vec<MachineHourRecord>, bool),
    Clone,
    CacheLimit1,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => proptest::collection::vec(arb_record(), 1..60).prop_map(Op::PushBatch),
        1 => Just(Op::Seal),
        2 => Just(Op::Sync),
        1 => Just(Op::Compact),
        1 => (proptest::collection::vec(arb_record(), 1..60), any::<bool>())
            .prop_map(|(rs, sealed)| Op::MergeFrom(rs, sealed)),
        1 => Just(Op::Clone),
        1 => Just(Op::CacheLimit1),
    ]
}

/// `records` written to a fresh durable store under `dir` (sealed into a
/// segment when `sealed`, else left in the WAL), synced, and reopened.
fn reopened_with(dir: &Path, records: &[MachineHourRecord], sealed: bool) -> TelemetryStore {
    let mut store = TelemetryStore::open(dir).expect("open merge source");
    assert_eq!(store.extend_validated(records.iter().copied()), 0);
    if sealed {
        store.seal();
    }
    store.sync().expect("sync merge source");
    drop(store);
    TelemetryStore::open(dir).expect("reopen merge source")
}

proptest! {
    /// Durable ≡ in-memory ≡ reference: any interleaving of the ops
    /// above leaves the durable store and an in-memory twin agreeing
    /// with the flat reference on every view and kernel after *every*
    /// op. Closed with a sync, the durable store must reopen into a
    /// store that still agrees — and a second generation of appends on
    /// the *reopened* store must too.
    #[test]
    fn reopen_agrees_with_reference(
        ops in proptest::collection::vec(arb_op(), 1..10),
        tail in proptest::collection::vec(arb_record(), 0..40),
    ) {
        let scratch = Scratch::new();
        let mut reference = RefStore::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        let mut memory = TelemetryStore::new();
        prop_assert!(store.is_durable());
        prop_assert_eq!(store.storage_dir(), Some(scratch.path()));

        for op in &ops {
            match op {
                Op::PushBatch(records) => {
                    let rejected = reference.extend_validated(records.iter().copied());
                    prop_assert_eq!(store.extend_validated(records.iter().copied()), rejected);
                    prop_assert_eq!(memory.extend_validated(records.iter().copied()), rejected);
                }
                Op::Seal => {
                    store.seal();
                    memory.seal();
                }
                Op::Sync => {
                    store.sync().expect("sync");
                }
                Op::Compact => {
                    store.compact_segments();
                    memory.compact_segments();
                }
                Op::MergeFrom(records, sealed) => {
                    let (a, b) = (Scratch::new(), Scratch::new());
                    let mut other = RefStore::new();
                    prop_assert_eq!(other.extend_validated(records.iter().copied()), 0);
                    let rejected = reference.merge(other);
                    prop_assert_eq!(store.merge(reopened_with(a.path(), records, *sealed)), rejected);
                    prop_assert_eq!(memory.merge(reopened_with(b.path(), records, *sealed)), rejected);
                }
                Op::Clone => memory = store.clone(),
                Op::CacheLimit1 => {
                    store.set_segment_cache_limit(1);
                    memory.set_segment_cache_limit(1);
                }
            }
            assert_agrees(&reference, &store);
            assert_agrees(&reference, &memory);
            prop_assert!(store.verify().is_ok());
        }
        store.sync().expect("final sync");
        drop(store);

        let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
        assert_agrees(&reference, &reopened);

        // Second generation: keep appending on the recovered store.
        let mut store = reopened;
        reference.extend_validated(tail.iter().copied());
        store.extend_validated(tail.iter().copied());
        store.seal();
        store.sync().expect("sync after reopen");
        drop(store);
        let reopened = TelemetryStore::open(scratch.path()).expect("second reopen");
        assert_agrees(&reference, &reopened);
    }

    /// Kill-point property for the WAL: truncate the live WAL at an
    /// arbitrary byte offset (a crash mid-append) and reopen. The
    /// recovered delta must be an append-order *prefix* of what was
    /// written, every batch closed by a sync *before* the last one must
    /// survive in full, and the recovered store must agree with a
    /// reference over exactly the recovered records.
    #[test]
    fn wal_truncated_at_any_offset_recovers_synced_prefix(
        batches in proptest::collection::vec(
            proptest::collection::vec(arb_record(), 1..30), 1..6),
        cut_frac in 0.0..1.0f64,
    ) {
        let scratch = Scratch::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        let mut appended = Vec::new();
        let mut synced_len = 0usize;
        for batch in &batches {
            store.extend_validated(batch.iter().copied());
            appended.extend_from_slice(batch);
            store.sync().expect("sync");
            synced_len = appended.len();
        }
        // A few unsynced records sit only in memory — lost by design.
        store.extend_validated(batches.iter().flatten().take(3).copied());
        drop(store);

        // Crash mid-write: truncate the WAL at an arbitrary offset.
        let wal = live_wal(scratch.path());
        let full = std::fs::metadata(&wal).expect("wal meta").len();
        let cut = (full as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).expect("open wal");
        f.set_len(cut).expect("truncate");
        drop(f);

        if cut < 8 {
            // A cut inside the magic is not crash-reachable (the magic
            // is fsynced before the manifest ever names the WAL): that
            // is real corruption, and must fail typed — never panic.
            let err = TelemetryStore::open(scratch.path())
                .expect_err("short-magic WAL must not open");
            prop_assert!(matches!(err, PersistError::Corrupt { .. }), "got {err}");
            return;
        }
        let recovered = TelemetryStore::open(scratch.path()).expect("recovery must not fail");
        let got: Vec<MachineHourRecord> = recovered.iter().copied().collect();

        // Recovered records are an append-order prefix of what was
        // appended (frames are atomic: a cut inside frame k drops
        // frames k.. entirely); the unsynced tail never hit disk.
        prop_assert!(got.len() <= appended.len());
        let expect_prefix: Vec<_> = appended.iter().take(got.len()).copied().collect();
        prop_assert_eq!(&got, &expect_prefix, "recovered records are not a prefix");

        // Nothing before the final sync may be lost unless the cut fell
        // before the final frame; a cut at or past `full` loses nothing.
        if cut >= full {
            prop_assert_eq!(got.len(), synced_len);
        }

        // And the recovered store behaves exactly like a fresh store
        // over the recovered records.
        let mut reference = RefStore::new();
        reference.extend_validated(got.iter().copied());
        assert_agrees(&reference, &recovered);
    }

    /// Kill-point property for rotation: seal + sync (spilling a
    /// segment), then flip one byte anywhere in the segment file. The
    /// damage must surface as a typed `Corrupt` error — never a panic —
    /// and quarantine the damaged file. Where it surfaces depends on
    /// where the flip landed: header damage fails `open` itself (the
    /// header is validated eagerly), body damage passes `open` (bodies
    /// decode lazily) and fails `verify()` on the reopened store, which
    /// then refuses to `sync`.
    #[test]
    fn segment_byte_flip_quarantines_with_typed_error(
        records in proptest::collection::vec(arb_record(), 1..80),
        flip_frac in 0.0..1.0f64,
        flip_bit in 0u8..8,
    ) {
        let scratch = Scratch::new();
        let mut store = TelemetryStore::open(scratch.path()).expect("open fresh");
        store.extend_validated(records.iter().copied());
        store.seal();
        store.sync().expect("sync");
        drop(store);

        let segments = live_segments(scratch.path());
        prop_assert_eq!(segments.len(), 1, "seal+sync must spill exactly one segment");
        let seg = &segments[0];
        let mut bytes = std::fs::read(seg).expect("read segment");
        let at = ((bytes.len() - 1) as f64 * flip_frac) as usize;
        bytes[at] ^= 1 << flip_bit;
        std::fs::write(seg, &bytes).expect("write corrupted segment");

        let quarantined = seg.with_extension("kseg.quarantine");
        match TelemetryStore::open(scratch.path()) {
            // Flip landed in the eagerly-validated header region.
            Err(PersistError::Corrupt { path, .. }) => {
                prop_assert_eq!(&path, seg);
                prop_assert!(quarantined.exists(), "corrupt segment not quarantined");
                prop_assert!(!seg.exists());
            }
            Err(other) => prop_assert!(false, "wrong error type: {other}"),
            // Flip landed in the lazily-decoded body: open passes on the
            // intact header, the first decode quarantines and degrades.
            Ok(mut reopened) => {
                let err = reopened.verify().expect_err("body flip must fail verify");
                prop_assert!(matches!(err, PersistError::Corrupt { .. }), "got {err}");
                prop_assert!(quarantined.exists(), "corrupt segment not quarantined");
                prop_assert!(!seg.exists());
                // A degraded store serves the surviving sides (here:
                // nothing) but must refuse to overwrite history.
                prop_assert_eq!(reopened.by_hours(0, u64::MAX).count(), 0);
                prop_assert!(reopened.sync().is_err(), "degraded store must refuse sync");
            }
        }
    }
}

// ---- directed crash/abuse cases ---------------------------------------

fn rec(i: u64) -> MachineHourRecord {
    MachineHourRecord {
        machine: MachineId((i % 11) as u32),
        group: GroupKey::new(SkuId((i % 4) as u16), ScId((i % 2) as u8)),
        hour: i / 11,
        metrics: MetricValues { tasks_finished: i as f64, ..MetricValues::default() },
    }
}

#[test]
fn sync_on_in_memory_store_is_not_durable() {
    let mut store = TelemetryStore::new();
    store.push(rec(1));
    assert!(!store.is_durable());
    assert!(store.storage_dir().is_none());
    assert!(matches!(store.sync(), Err(PersistError::NotDurable)));
}

#[test]
fn clone_of_durable_store_is_detached() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..50).map(rec));
    store.sync().expect("sync");

    let mut clone = store.clone();
    assert!(!clone.is_durable());
    assert!(matches!(clone.sync(), Err(PersistError::NotDurable)));
    // Mutating the clone must not disturb the original's directory.
    clone.extend_validated((50..100).map(rec));
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 50);
}

#[test]
fn unsynced_records_are_lost_synced_records_survive() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..30).map(rec));
    store.sync().expect("sync");
    store.extend_validated((30..60).map(rec)); // never synced — the crash eats these
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..30).map(rec).collect();
    assert_eq!(got, want);
}

#[test]
fn rotation_covers_compaction_spill_and_wal_reset() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Past the 1024 auto-compaction threshold: the store compacts on its
    // own, so the next sync must rotate without an explicit seal.
    store.extend_validated((0..2000).map(rec));
    store.sync().expect("sync");
    assert!(!live_segments(scratch.path()).is_empty(), "compaction must spill a segment");
    // The tail past the compaction point rides in the WAL.
    store.extend_validated((2000..2010).map(rec));
    store.sync().expect("tail sync");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 2010);
    let mut reference = RefStore::new();
    reference.extend_validated((0..2010).map(rec));
    assert_agrees(&reference, &reopened);
}

#[test]
fn missing_manifest_with_store_files_is_typed_error() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..1500).map(rec));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    std::fs::remove_file(scratch.path().join("MANIFEST")).expect("remove manifest");
    match TelemetryStore::open(scratch.path()) {
        Err(PersistError::MissingManifest { dir }) => assert_eq!(dir, scratch.path()),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
}

#[test]
fn garbage_manifest_is_corrupt_not_panic() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(scratch.path().join("MANIFEST"), b"\xFF\xFEtotal garbage\n").expect("write");
    assert!(matches!(
        TelemetryStore::open(scratch.path()),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn manifest_path_traversal_is_rejected() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(
        scratch.path().join("MANIFEST"),
        "kea-telemetry-manifest v1\nsegment ../../escape.kseg rows 5\nwal w.wal\n",
    )
    .expect("write");
    assert!(matches!(
        TelemetryStore::open(scratch.path()),
        Err(PersistError::Corrupt { .. })
    ));
}

#[test]
fn orphans_from_interrupted_rotation_are_swept() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..10).map(rec));
    store.sync().expect("sync");
    drop(store);

    // Fake the debris of a rotation that died before the manifest flip:
    // a segment nobody references, a stray WAL, a temp file.
    std::fs::write(scratch.path().join("seg-000099.kseg"), b"debris").expect("write");
    std::fs::write(scratch.path().join("wal-000099.wal"), b"debris").expect("write");
    std::fs::write(scratch.path().join("seg-000100.kseg.tmp"), b"debris").expect("write");

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen sweeps orphans");
    assert_eq!(reopened.len(), 10);
    assert!(!scratch.path().join("seg-000099.kseg").exists());
    assert!(!scratch.path().join("wal-000099.wal").exists());
    assert!(!scratch.path().join("seg-000100.kseg.tmp").exists());
}

#[test]
fn quarantined_files_survive_the_sweep() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..40).map(rec));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    let segments = live_segments(scratch.path());
    let seg = &segments[0];
    let mut bytes = std::fs::read(seg).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    std::fs::write(seg, &bytes).expect("write");

    // A mid-file flip lands in the lazily-decoded body, so open passes
    // on the intact header; the first decode quarantines the file.
    let reopened = TelemetryStore::open(scratch.path()).expect("open validates headers only");
    assert!(reopened.verify().is_err(), "body corruption must fail verify");
    drop(reopened);
    let quarantined = seg.with_extension("kseg.quarantine");
    assert!(quarantined.exists());

    // The segment is gone, so the next open fails on the missing file —
    // but it must not delete the quarantined bytes.
    assert!(TelemetryStore::open(scratch.path()).is_err());
    assert!(quarantined.exists(), "sweep must never remove quarantined files");
}

#[test]
fn empty_store_roundtrip() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    assert!(store.is_empty());
    store.sync().expect("sync of empty store");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert!(reopened.is_empty());
    assert!(reopened.is_durable());
}

// ---- injected-failure crash points (persist::test_hooks) ---------------

fn rec_at(i: u64, hour: u64) -> MachineHourRecord {
    MachineHourRecord {
        machine: MachineId((i % 11) as u32),
        group: GroupKey::new(SkuId((i % 4) as u16), ScId((i % 2) as u8)),
        hour,
        metrics: MetricValues { tasks_finished: i as f64, ..MetricValues::default() },
    }
}

/// Regression (previously: a retried `sync()` after a WAL fsync failure
/// re-appended every frame of the failed batch, so the retry persisted
/// each record twice and replay duplicated the delta). The retry must
/// recognize the frames already on disk and only repeat the durability
/// barrier.
#[test]
fn failed_wal_fsync_retry_is_idempotent() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..100).map(rec));

    test_hooks::fail_next_wal_sync(scratch.path());
    let err = store.sync().expect_err("injected fsync failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");

    // The caller retries; the batch must land exactly once.
    store.sync().expect("retry after fsync failure");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "fsync-failure retry must not duplicate records");
}

/// The torn-frame variant: the append itself dies mid-frame (a crash or
/// ENOSPC partway through `write(2)`). The retry must erase the torn
/// partial frame and append the batch exactly once.
#[test]
fn failed_wal_append_retry_has_no_duplicates_or_torn_frames() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..50).map(rec));
    store.sync().expect("first sync");
    store.extend_validated((50..100).map(rec));

    test_hooks::fail_wal_append_mid_frame(scratch.path(), 20);
    let err = store.sync().expect_err("injected append failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");

    store.sync().expect("retry after torn append");
    drop(store);
    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "torn-append retry must not duplicate or drop records");
}

/// Crash between segment spill and manifest flip: the new segments and
/// WAL are on disk but the manifest never renames over. Reopening must
/// serve exactly the previous committed state and sweep the orphans.
#[test]
fn manifest_flip_crash_preserves_previous_state() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..100).map(rec));
    store.sync().expect("commit state A");
    store.extend_validated((100..150).map(rec));
    store.seal(); // next sync must rotate

    test_hooks::fail_next_manifest_flip(scratch.path());
    let err = store.sync().expect_err("injected flip failure must surface");
    assert!(matches!(err, PersistError::Io { .. }), "got {err}");
    drop(store); // crash

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let got: Vec<_> = reopened.iter().copied().collect();
    let want: Vec<_> = (0..100).map(rec).collect();
    assert_eq!(got, want, "uncommitted rotation must not be visible");
    // The orphaned segment from the dead rotation is gone.
    assert!(live_segments(scratch.path()).is_empty());
    let stray_segments = std::fs::read_dir(scratch.path())
        .expect("read dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".kseg"))
        .count();
    assert_eq!(stray_segments, 0, "orphaned segments must be swept");
}

/// The same crash point, but the process survives and retries: the
/// retried sync must converge (regenerating the same segment names,
/// overwriting the debris) and commit everything.
#[test]
fn manifest_flip_failure_retry_converges() {
    let _guard = hook_guard();
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..100).map(rec));
    store.sync().expect("commit state A");
    store.extend_validated((100..150).map(rec));
    store.seal();

    test_hooks::fail_next_manifest_flip(scratch.path());
    assert!(store.sync().is_err());
    store.sync().expect("retry must converge");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    let mut reference = RefStore::new();
    reference.extend_validated((0..150).map(rec));
    assert_agrees(&reference, &reopened);
}

// ---- lost-store detection (regression) ---------------------------------

/// Regression (previously: a directory holding only `*.quarantine`
/// debris — every segment condemned, the manifest lost — recovered as
/// an EMPTY FRESH STORE, silently reporting total data loss as a clean
/// slate). Quarantine files are store files; without a manifest next to
/// them the store is damaged, not new.
#[test]
fn quarantine_only_directory_is_missing_manifest_not_fresh() {
    let scratch = Scratch::new();
    std::fs::create_dir_all(scratch.path()).expect("mkdir");
    std::fs::write(
        scratch.path().join("seg-000001.kseg.quarantine"),
        b"condemned bytes",
    )
    .expect("write quarantine file");

    match TelemetryStore::open(scratch.path()) {
        Err(PersistError::MissingManifest { dir }) => assert_eq!(dir, scratch.path()),
        other => panic!("expected MissingManifest, got {other:?}"),
    }
    // The evidence must survive the failed open.
    assert!(scratch.path().join("seg-000001.kseg.quarantine").exists());
}

// ---- v1 manifest compatibility -----------------------------------------

/// A manifest written before per-segment hour bounds existed (v1: bare
/// `segment <name> rows <n>` lines) must open under the v2 reader —
/// segments load eagerly, bounds are derived — and the next sync must
/// upgrade the directory to v2 without rewriting the segment files.
#[test]
fn v1_manifest_opens_and_upgrades_without_segment_rewrite() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..200u64).map(|i| rec_at(i, i / 4)));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    // Rewrite the manifest to the v1 form PR 8 shipped: v1 header, no
    // hours clause. Segment files are format-identical across versions.
    let manifest_path = scratch.path().join("MANIFEST");
    let text = std::fs::read_to_string(&manifest_path).expect("read manifest");
    assert!(text.contains(" hours "), "v2 manifest must record bounds");
    let v1: String = text
        .lines()
        .map(|line| {
            if line.starts_with("kea-telemetry-manifest") {
                "kea-telemetry-manifest v1".to_string()
            } else if line.starts_with("segment ") {
                line.split(' ').take(4).collect::<Vec<_>>().join(" ")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n";
    std::fs::write(&manifest_path, v1).expect("write v1 manifest");
    let seg_bytes_before =
        std::fs::read(&live_segments(scratch.path())[0]).expect("read segment");

    let mut reopened = TelemetryStore::open(scratch.path()).expect("v1 manifest must open");
    let mut reference = RefStore::new();
    reference.extend_validated((0..200u64).map(|i| rec_at(i, i / 4)));
    assert_agrees(&reference, &reopened);

    // The upgrade sync rewrites manifest + WAL, not the segment.
    let stats = reopened.sync().expect("upgrade sync");
    assert_eq!(stats.segments_written, 0, "upgrade must not rewrite segments");
    let upgraded = std::fs::read_to_string(&manifest_path).expect("read upgraded manifest");
    assert!(upgraded.starts_with("kea-telemetry-manifest v2"));
    assert!(upgraded.contains(" hours "), "upgrade must record bounds");
    let seg_bytes_after =
        std::fs::read(&live_segments(scratch.path())[0]).expect("read segment");
    assert_eq!(seg_bytes_before, seg_bytes_after, "segment bytes must be untouched");

    // And the upgraded directory round-trips.
    drop(reopened);
    let again = TelemetryStore::open(scratch.path()).expect("reopen upgraded");
    assert_agrees(&reference, &again);
}

// ---- multi-segment retention: pruning, laziness, write amplification ---

/// Two disjoint-hour segments: opening validates headers only; an
/// hour-windowed query decodes just the segment whose bounds intersect
/// the window; the LRU cap bounds residency; `verify` forces everything.
#[test]
fn windowed_queries_load_only_intersecting_segments() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Elder run strictly larger than the newcomer so the ladder keeps
    // them separate; both at/above the policy floor so sync does too.
    store.extend_validated((0..4500u64).map(|i| rec_at(i, i % 100)));
    store.seal();
    store.extend_validated((0..4200u64).map(|i| rec_at(i, 1000 + i % 100)));
    store.seal();
    let stats = store.sync().expect("sync");
    assert!(stats.rotated);
    assert_eq!(stats.segments_written, 2);
    assert_eq!(live_segments(scratch.path()).len(), 2);
    drop(store);

    let mut reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.run_count(), 2);
    assert_eq!(reopened.resident_runs(), 0, "open must not decode segment bodies");
    // Span comes from the manifest bounds — still nothing decoded.
    assert_eq!(reopened.hour_span(), Some((0, 1100)));
    assert_eq!(reopened.len(), 8700);
    assert_eq!(reopened.resident_runs(), 0);

    // A query over the second segment's hours decodes only it.
    assert_eq!(reopened.by_hours(1000, 1100).count(), 4200);
    assert_eq!(reopened.resident_runs(), 1, "pruned query must decode one segment");
    // The dead zone between the segments touches nothing new.
    assert_eq!(reopened.by_hours(200, 900).count(), 0);
    assert_eq!(reopened.resident_runs(), 1);
    // A full-span query decodes both; verify keeps them valid.
    assert_eq!(reopened.by_hours(0, 1100).count(), 8700);
    assert_eq!(reopened.resident_runs(), 2);
    reopened.verify().expect("both segments intact");

    // Tightening the cache cap evicts down to the budget; the evicted
    // segment reloads transparently on the next touch.
    reopened.set_segment_cache_limit(1);
    assert_eq!(reopened.resident_runs(), 1);
    assert_eq!(reopened.by_hours(0, 100).count(), 4500);
    assert_eq!(reopened.by_hours(1000, 1100).count(), 4200);
}

/// Bounded write amplification: once a large segment is on disk, later
/// small syncs must not rewrite it — the fast path writes only WAL
/// frames, and a rotation spills only the new small run.
#[test]
fn sync_never_rewrites_unchanged_segments() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..4500u64).map(|i| rec_at(i, i % 100)));
    store.seal();
    store.extend_validated((0..4200u64).map(|i| rec_at(i, 1000 + i % 100)));
    store.seal();
    store.sync().expect("sync big segments");
    let big_segments = live_segments(scratch.path());
    assert_eq!(big_segments.len(), 2);
    let big_bytes: u64 = big_segments
        .iter()
        .map(|p| std::fs::metadata(p).expect("segment meta").len())
        .sum();

    // Fast path: an appended tail rides the WAL; no segment activity.
    store.extend_validated((0..10u64).map(|i| rec_at(i, 2000)));
    let stats = store.sync().expect("tail sync");
    assert!(!stats.rotated);
    assert_eq!(stats.segments_written, 0);
    assert_eq!(stats.segment_bytes, 0);
    assert_eq!(stats.wal_records, 10);
    assert!(stats.wal_bytes > 0);

    // Rotation path: sealing the 10-row tail spills ONE small segment;
    // the two big ones pass through by name, bytes untouched.
    store.seal();
    let stats = store.sync().expect("rotation sync");
    assert!(stats.rotated);
    assert_eq!(stats.segments_written, 1, "only the new run may be spilled");
    assert!(
        stats.segment_bytes < big_bytes / 10,
        "a 10-row spill must be far smaller than the retained history \
         ({} vs {big_bytes} bytes)",
        stats.segment_bytes
    );
    let after = live_segments(scratch.path());
    assert_eq!(after.len(), 3);
    for big in &big_segments {
        assert!(after.contains(big), "big segment {big:?} must survive by name");
    }
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.len(), 8710);
}

/// Explicit segment compaction across a reopen: overlapping-bound runs
/// fold into one, the next sync commits the merged segment, and the
/// result still agrees with the reference.
#[test]
fn compact_segments_roundtrips_through_disk() {
    let scratch = Scratch::new();
    let mut reference = RefStore::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Three overlapping-hour batches, sealed + synced separately so the
    // directory accumulates small segments.
    for b in 0..3u64 {
        let batch: Vec<_> = (0..300u64).map(|i| rec_at(b * 1000 + i, i % 50)).collect();
        reference.extend_validated(batch.iter().copied());
        store.extend_validated(batch);
        store.seal();
        store.sync().expect("sync batch");
    }
    store.compact_segments();
    assert_eq!(store.run_count(), 1, "overlapping runs must fold into one");
    store.sync().expect("commit compaction");
    assert_eq!(live_segments(scratch.path()).len(), 1);
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.run_count(), 1);
    assert_agrees(&reference, &reopened);
}

/// Regression (previously: `merge` copied only runs whose index was
/// resident, so a reopened durable source merged as empty). A source
/// that was reopened and never queried must merge in full.
#[test]
fn merge_of_a_reopened_durable_store_keeps_every_row() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..5000).map(rec));
    store.sync().expect("sync");
    drop(store);

    let reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert!(reopened.run_count() > 0);
    assert_eq!(reopened.resident_runs(), 0, "the source's runs must start on disk");
    let mut merged = TelemetryStore::new();
    merged.merge(reopened);
    assert_eq!(merged.len(), 5000);
    merged.verify().expect("nothing degraded");
    let mut reference = RefStore::new();
    reference.extend_validated((0..5000).map(rec));
    assert_agrees(&reference, &merged);
}

/// Regression (same cause): runs the source's LRU cap evicted must merge
/// in full too.
#[test]
fn merge_of_an_evicted_durable_store_keeps_every_row() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    // Elder run above the policy floor so sync keeps two segments.
    store.extend_validated((0..4500).map(rec));
    store.seal();
    store.extend_validated((4500..5000).map(rec));
    store.seal();
    store.sync().expect("sync");
    drop(store);

    let mut reopened = TelemetryStore::open(scratch.path()).expect("reopen");
    assert_eq!(reopened.run_count(), 2);
    assert_eq!(reopened.by_hours(0, u64::MAX).count(), 5000);
    reopened.set_segment_cache_limit(1);
    assert_eq!(reopened.resident_runs(), 1, "the cap must evict one run");
    let mut merged = TelemetryStore::new();
    merged.merge(reopened);
    assert_eq!(merged.len(), 5000);
    merged.verify().expect("nothing degraded");
    let mut reference = RefStore::new();
    reference.extend_validated((0..5000).map(rec));
    assert_agrees(&reference, &merged);
}

/// Evictions between ops: with the LRU cap at one and a run above the
/// sync-time size floor, every sync leaves a segment evicted. A clone
/// taken right then, the store itself and a merge of it must all still
/// read every row — each goes through the lazy-load path.
#[test]
fn evicted_runs_reload_for_clones_queries_and_merges() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.set_segment_cache_limit(1);
    let mut reference = RefStore::new();
    for batch in [0..4500, 4500..5000, 5000..5300, 5300..5400] {
        reference.extend_validated(batch.clone().map(rec));
        store.extend_validated(batch.map(rec));
        store.seal();
        store.sync().expect("sync");
        assert_eq!(store.resident_runs(), 1, "the cap must evict all but one run");
        let clone = store.clone();
        assert_eq!(clone.resident_runs(), clone.run_count(), "a clone's runs are in memory");
        assert_agrees(&reference, &clone);
        assert_agrees(&reference, &store);
    }
    assert_eq!(store.run_count(), 2, "the policy folds the small runs into one segment");
    store.set_segment_cache_limit(1);
    assert_eq!(store.resident_runs(), 1);
    let mut merged = TelemetryStore::new();
    assert_eq!(merged.merge(store), 0);
    assert_agrees(&reference, &merged);
}

/// A source segment that fails to load merges as empty, and the
/// destination's `verify` reports the loss instead of hiding it.
#[test]
fn merge_carries_a_corrupt_source_segment_into_verify() {
    let scratch = Scratch::new();
    let mut store = TelemetryStore::open(scratch.path()).expect("open");
    store.extend_validated((0..2000).map(rec));
    store.sync().expect("sync");
    drop(store);
    let segments = live_segments(scratch.path());
    assert_eq!(segments.len(), 1);
    // Damage the body's last byte: the header still validates at open.
    let mut bytes = std::fs::read(&segments[0]).expect("read segment");
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&segments[0], &bytes).expect("write corrupted segment");

    let reopened = TelemetryStore::open(scratch.path()).expect("body damage passes open");
    let mut merged = TelemetryStore::new();
    merged.push(rec(9999));
    merged.merge(reopened);
    assert_eq!(merged.len(), 1, "the unreadable run merges as empty");
    let err = merged.verify().expect_err("the loss must surface");
    assert!(matches!(err, PersistError::Corrupt { .. }), "got {err}");
}

/// Copies every file of a store directory into a fresh scratch dir.
fn copy_dir(src: &Path) -> Scratch {
    let copy = Scratch::new();
    std::fs::create_dir_all(copy.path()).expect("create copy");
    for entry in std::fs::read_dir(src).expect("list template") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), copy.path().join(entry.file_name())).expect("copy file");
    }
    copy
}

/// `verify` loads cold runs concurrently. What it reports, what it
/// quarantines and the LRU order it leaves behind must not depend on
/// which load finishes first: the oldest bad run's diagnosis, every bad
/// file moved aside, and the newest run kept when the cache shrinks to
/// one — on every reopen.
///
/// The oldest run is by far the largest and is damaged in its last
/// byte, so its load fails last: reporting failures, or stamping the
/// LRU, in completion order would name the younger bad run and keep the
/// oldest one.
#[test]
fn concurrent_verify_reports_and_evicts_in_run_order() {
    // Decreasing sizes keep the ladder from merging the runs, and each
    // is above the sync-time merge floor; hours are disjoint per run.
    let template = Scratch::new();
    let mut runs: Vec<Vec<MachineHourRecord>> = Vec::new();
    {
        let mut store = TelemetryStore::open(template.path()).expect("open");
        let mut start = 0;
        for n in [20_000u64, 6_000, 5_000, 4_500] {
            let rows: Vec<_> = (start..start + n).map(|i| rec_at(i, i / 250)).collect();
            start += n;
            assert_eq!(store.extend_validated(rows.clone()), 0);
            store.seal();
            store.sync().expect("sync");
            runs.push(rows);
        }
        assert_eq!(store.run_count(), 4, "the runs must stay separate segments");
    }
    let names: Vec<_> = live_segments(template.path())
        .iter()
        .map(|p| p.file_name().expect("segment name").to_owned())
        .collect();
    assert_eq!(names.len(), 4);
    // Damage run 0's last byte and a record of run 2; both headers
    // still validate, so open succeeds and the loads fail.
    for (run, at_end) in [(0, true), (2, false)] {
        let path = template.path().join(&names[run]);
        let mut bytes = std::fs::read(&path).expect("read segment");
        let at = if at_end { bytes.len() - 1 } else { 200 };
        bytes[at] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write damaged segment");
    }
    let mut healthy = TelemetryStore::new();
    for run in [&runs[1], &runs[3]] {
        assert_eq!(healthy.extend_validated(run.iter().copied()), 0);
    }

    for cycle in 0..20 {
        let copy = copy_dir(template.path());
        let mut store = TelemetryStore::open(copy.path()).expect("body damage passes open");
        let seg = |run: usize| copy.path().join(&names[run]);
        match store.verify() {
            Err(PersistError::Corrupt { path, .. }) => {
                assert_eq!(path, seg(0), "cycle {cycle}: the oldest bad run is reported")
            }
            other => panic!("cycle {cycle}: expected Corrupt, got {other:?}"),
        }
        for run in [0, 2] {
            assert!(!seg(run).exists(), "cycle {cycle}: run {run} left in place");
            let mut quarantined = seg(run).into_os_string();
            quarantined.push(".quarantine");
            assert!(Path::new(&quarantined).exists(), "cycle {cycle}: run {run} not quarantined");
        }
        match store.sync() {
            Err(PersistError::Corrupt { path, .. }) => assert_eq!(path, seg(0), "cycle {cycle}"),
            other => panic!("cycle {cycle}: a degraded store must refuse to sync, got {other:?}"),
        }
        assert_eq!(store.resident_runs(), 4, "cycle {cycle}: every run is resident");

        // With the cache cut to one run right after `verify`, the run it
        // touched last stays. Deleting the healthy segments leaves only
        // that resident run able to serve rows.
        store.set_segment_cache_limit(1);
        assert_eq!(store.resident_runs(), 1, "cycle {cycle}");
        for run in [1, 3] {
            std::fs::remove_file(seg(run)).expect("remove healthy segment");
        }
        assert_eq!(
            sorted_keys(store.iter()),
            sorted_keys(runs[3].iter()),
            "cycle {cycle}: the newest run must be the one left resident"
        );

        // A second reopen: the healthy runs serve exactly their rows.
        let copy = copy_dir(template.path());
        let store = TelemetryStore::open(copy.path()).expect("reopen");
        assert!(store.verify().is_err(), "cycle {cycle}");
        assert_eq!(sorted_keys(store.iter()), sorted_keys(healthy.iter()), "cycle {cycle}");
        assert_eq!(
            daily_group_aggregates(&store),
            daily_group_aggregates(&healthy),
            "cycle {cycle}"
        );
    }
}
