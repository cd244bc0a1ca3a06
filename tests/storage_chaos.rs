//! Storage-chaos conformance sweep: the hard invariant of the fault-
//! injecting VFS layer is that a run whose disk misbehaves — ENOSPC, EIO,
//! short writes, torn renames, lying fsyncs — either completes with a
//! `hobbit-report/v1` byte-identical to a faithful-disk run or fails with
//! a typed, actionable `StorageError`. Never a silently corrupted run
//! dir: after every sabotaged run the journal on disk must still replay
//! as a valid prefix of the clean run, and resuming it on a healthy disk
//! must land on the same report bytes.

use experiments::journal::{read_journal, JOURNAL_FILE};
use experiments::vfs::{ChaosVfs, FaultKind, OpKind, Storage, StorageErrorKind};
use experiments::Pipeline;
use hobbit::BlockMeasurement;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use testkit::{first_divergence, golden_specs, storage_schedules, CorpusEntry, StorageSabotage};

const SEED: u64 = 4242;
const SCALE: f64 = 0.01;

/// Thread counts every chaos schedule runs under.
const THREADS: &[usize] = &[1, 8];

/// Sweep width: `HOBBIT_CHAOS_SCHEDULES` overrides (CI may widen it), the
/// default meets the acceptance floor of 30 seeded schedules.
fn sweep_width() -> usize {
    std::env::var("HOBBIT_CHAOS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
}

/// What the sweep needs from the faithful-disk run, computed once: the
/// report every chaos survivor must reproduce byte-for-byte, and the
/// per-block measurements every surviving journal record must match.
struct Baseline {
    report: String,
    by_block: HashMap<netsim::Block24, BlockMeasurement>,
}

fn baseline() -> &'static Baseline {
    static CELL: OnceLock<Baseline> = OnceLock::new();
    CELL.get_or_init(|| {
        let p = Pipeline::builder().seed(SEED).scale(SCALE).threads(2).run();
        Baseline {
            report: p.canonical_report(),
            by_block: p
                .measurements
                .iter()
                .map(|m| (m.block, m.clone()))
                .collect(),
        }
    })
}

/// Run dirs live under `HOBBIT_CHAOS_DIR` (CI points this at a workspace
/// path so failing run-dirs survive as artifacts) or the system temp dir.
/// Passing tests remove their dirs; a failing test leaves the journal
/// and chaos schedule tag behind for post-mortem.
fn run_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("HOBBIT_CHAOS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let d = base.join(format!("hobbit-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn assert_identical(got: &str, what: &str) {
    if let Some((pos, ctx)) = first_divergence(&baseline().report, got) {
        panic!("{what}: report diverges from the faithful-disk run at {pos}: {ctx}");
    }
}

fn chaos_builder(threads: usize, dir: &Path, vfs: ChaosVfs) -> experiments::PipelineBuilder {
    Pipeline::builder()
        .seed(SEED)
        .scale(SCALE)
        .threads(threads)
        .run_dir(dir)
        .storage(Storage::with_chaos(vfs))
}

/// Whatever a sabotaged run did, its journal must still be a valid,
/// bit-faithful prefix of the clean run: every replayed block record
/// equals the faithful-disk measurement of that block exactly.
fn assert_valid_prefix(dir: &Path, tag: &str) -> usize {
    let path = dir.join(JOURNAL_FILE);
    if !path.exists() {
        return 0; // the fault fired before the journal was even created
    }
    let replay = read_journal(&path)
        .unwrap_or_else(|e| panic!("{tag}: journal unreadable after the run: {e}"));
    let bl = baseline();
    for m in &replay.blocks {
        let want = bl
            .by_block
            .get(&m.block)
            .unwrap_or_else(|| panic!("{tag}: journal holds unknown block {}", m.block));
        assert_eq!(
            serde_json::to_string(m).unwrap(),
            serde_json::to_string(want).unwrap(),
            "{tag}: journaled record for block {} diverges from the clean run",
            m.block
        );
    }
    replay.blocks.len()
}

/// The tentpole sweep: every seeded fault schedule × thread count either
/// reports byte-identical or fails typed, and the journal left behind is
/// always a resumable prefix.
#[test]
fn chaos_sweep_reports_identical_bytes_or_fails_typed() {
    let (mut completed, mut failed, mut resumed_after_failure) = (0u32, 0u32, 0u32);
    let mut faults_total = 0u64;
    for (i, plan) in storage_schedules(sweep_width()).iter().enumerate() {
        for &threads in THREADS {
            let tag = format!("sweep-{i}-t{threads}");
            let dir = run_dir(&tag);
            let vfs = ChaosVfs::from_plan(plan);
            let handle = vfs.clone();
            let result = chaos_builder(threads, &dir, vfs).try_run();
            faults_total += handle.faults_injected();
            let journaled = assert_valid_prefix(&dir, &tag);
            match result {
                Ok(p) => {
                    completed += 1;
                    assert!(!p.supervision.interrupted, "{tag}");
                    // A completed run durably journaled every block: any
                    // lying fsync would have been caught by the writer's
                    // read-back verification and failed the run instead.
                    assert_eq!(journaled, p.measurements.len(), "{tag}");
                    assert_identical(&p.canonical_report(), &tag);
                }
                Err(e) => {
                    failed += 1;
                    // Typed and actionable: a classified kind, the failing
                    // operation, and the path all survive into the message.
                    assert!(
                        matches!(
                            e.kind,
                            StorageErrorKind::Transient
                                | StorageErrorKind::Persistent
                                | StorageErrorKind::Corruption
                        ),
                        "{tag}: {e:?}"
                    );
                    let msg = e.to_string();
                    assert!(!e.op.is_empty() && msg.contains(e.op), "{tag}: {msg}");
                    // The healthy-disk resume completes the interrupted
                    // run into the exact clean-run bytes.
                    if dir.join(JOURNAL_FILE).exists()
                        && read_journal(&dir.join(JOURNAL_FILE))
                            .unwrap()
                            .meta
                            .is_some()
                    {
                        resumed_after_failure += 1;
                        let resumed = Pipeline::builder()
                            .seed(SEED)
                            .scale(SCALE)
                            .threads(2)
                            .resume_from(&dir)
                            .run();
                        assert_identical(&resumed.canonical_report(), &format!("{tag}: resume"));
                    }
                }
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    assert!(faults_total > 0, "the sweep injected nothing — vacuous");
    assert!(
        completed > 0,
        "no schedule completed ({failed} failed) — light rates should survive"
    );
    assert!(
        failed > 0 && resumed_after_failure > 0,
        "no schedule failed typed+resumable ({completed} completed) — hostile rates should not"
    );
}

/// Transient-only chaos (EIO on a write and an fsync) is absorbed by the
/// bounded retries: the run completes byte-identical and the `storage.*`
/// counters account for every fault and retry.
#[test]
fn transient_faults_are_retried_and_counted() {
    let dir = run_dir("transient");
    let vfs = ChaosVfs::scripted(vec![
        (OpKind::Write, 2, FaultKind::Eio),
        (OpKind::Write, 9, FaultKind::ShortWrite),
        (OpKind::Sync, 1, FaultKind::Eio),
    ]);
    let p = chaos_builder(2, &dir, vfs)
        .observe()
        .try_run()
        .expect("transient faults must be absorbed by the retry layer");
    assert_identical(&p.canonical_report(), "transient-only chaos");
    let reg = p.obs.as_deref().unwrap();
    assert!(reg.counter_value("storage.faults_seen").unwrap() >= 3);
    assert!(reg.counter_value("storage.retried").unwrap() >= 3);
    assert_eq!(reg.counter_value("storage.quarantined"), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The canonical persistent fault: the disk fills mid-run. The run must
/// fail with a Persistent error, seal the journal as a valid prefix, and
/// resume to the exact clean-run bytes once space is back.
#[test]
fn disk_full_mid_run_fails_typed_and_resumes_byte_identical() {
    let dir = run_dir("enospc");
    let vfs = ChaosVfs::from_plan(&StorageSabotage::DiskFull { at_write: 40 });
    let e = chaos_builder(2, &dir, vfs)
        .observe()
        .try_run()
        .err()
        .expect("a full disk must fail the run, not truncate it silently");
    assert_eq!(e.kind, StorageErrorKind::Persistent, "{e}");
    let journaled = assert_valid_prefix(&dir, "enospc");
    assert!(journaled > 0, "the prefix before the fault must survive");
    let resumed = Pipeline::builder()
        .seed(SEED)
        .scale(SCALE)
        .threads(8)
        .resume_from(&dir)
        .run();
    assert!(resumed.supervision.resumed_blocks > 0);
    assert_identical(&resumed.canonical_report(), "post-ENOSPC resume");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A lying fsync mid-run: the device acknowledges the sync but durably
/// drops the batch. The writer's read-back verification catches the
/// durable length going backwards, seals the journal with a Corruption
/// error, and the run fails typed — it never marks acknowledged-but-lost
/// work as done. The surviving prefix resumes to the exact clean bytes.
#[test]
fn fsync_lie_mid_run_is_detected_and_fails_typed() {
    let dir = run_dir("fsync-lie");
    let vfs = ChaosVfs::from_plan(&StorageSabotage::FsyncLie { at_sync: 2 });
    let e = chaos_builder(1, &dir, vfs)
        .try_run()
        .err()
        .expect("a detected fsync lie must fail the run, not complete over a hole");
    assert_eq!(e.kind, StorageErrorKind::Corruption, "{e}");
    // Sync 1 (the first post-meta batch) was honest, so exactly that
    // batch survives; the resume re-measures everything the device
    // dropped and lands on the clean-run bytes.
    let journaled = assert_valid_prefix(&dir, "fsync-lie");
    assert!(journaled > 0, "the honestly-synced batch must survive");
    let resumed = Pipeline::builder()
        .seed(SEED)
        .scale(SCALE)
        .threads(2)
        .resume_from(&dir)
        .run();
    assert_eq!(resumed.supervision.resumed_blocks, journaled as u64);
    assert_identical(&resumed.canonical_report(), "post-fsync-lie resume");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `hobbit-conform --regen` corpus writes stay atomic under chaos: a torn
/// rename heals through the retry, and a full disk leaves the previously
/// pinned entry byte-for-byte untouched — never a half-written file.
#[test]
fn corpus_regen_is_atomic_under_chaos() {
    let dir = run_dir("corpus");
    std::fs::create_dir_all(&dir).unwrap();
    let (name, spec) = &golden_specs()[0];
    let entry = CorpusEntry {
        name: name.to_string(),
        spec: spec.clone(),
        expected: vec![],
    };
    let path = dir.join(format!("{name}.json"));

    // Healable torn rename (a complete copy lands but the call errors,
    // source lingering): the retried rename finds the source and heals.
    let storage = Storage::with_chaos(ChaosVfs::scripted(vec![(
        OpKind::Rename,
        0,
        FaultKind::TornRename,
    )]));
    entry.save_via(&storage, &path).unwrap(); // rename 0 tears, retry heals
    assert_eq!(CorpusEntry::load(&path).unwrap(), entry);
    let mut changed = entry.clone();
    changed.expected.push(testkit::ExpectedBlock {
        block: testkit::ScenarioSpec::block24(0),
        verdict: hobbit::Classification::SameLasthop,
        lasthops: vec![netsim::Addr::new(10, 100, 0, 10)],
    });
    changed.save_via(&storage, &path).unwrap(); // rename 1+: clean
    assert_eq!(CorpusEntry::load(&path).unwrap(), changed);

    // A full disk: the regen fails, and the pinned entry is untouched.
    let pinned = std::fs::read_to_string(&path).unwrap();
    let full = Storage::with_chaos(ChaosVfs::scripted(vec![(
        OpKind::Write,
        0,
        FaultKind::Enospc,
    )]));
    let mut newer = changed.clone();
    newer.expected.clear();
    assert!(newer.save_via(&full, &path).is_err());
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        pinned,
        "a failed regen must leave the pinned corpus entry untouched"
    );
    // Unhealable torn rename (the temp source vanishes and no copy ever
    // lands): the save fails, but the pinned entry still reads back whole.
    let torn = Storage::with_chaos(ChaosVfs::scripted(vec![(
        OpKind::Rename,
        1,
        FaultKind::TornRename,
    )]));
    newer.save_via(&torn, &dir.join("scratch.json")).unwrap(); // rename 0: clean
    assert!(newer.save_via(&torn, &path).is_err()); // rename 1: source gone
    assert_eq!(CorpusEntry::load(&path).unwrap(), changed);
    std::fs::remove_dir_all(&dir).unwrap();
}
