//! The run journal: an append-only, versioned, fsync-batched write-ahead
//! log of completed per-/24 classification outcomes.
//!
//! A pipeline started with a `--run-dir` checkpoints every finished block
//! measurement (and every quarantine decision) as a CRC-framed record in
//! `<run_dir>/journal.wal`. A crashed or killed run resumes by replaying
//! the journal: finished blocks are skipped, everything else is
//! re-measured, and — because every block's probe stream depends only on
//! the block address and the scenario seed (DESIGN.md §8) — the resumed
//! run's report is byte-identical to an uninterrupted one.
//!
//! # On-disk format (`hobbit-journal/v1`)
//!
//! A journal is a flat sequence of records, each framed as
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: `len` bytes of JSON]
//! ```
//!
//! where `crc32` is the IEEE CRC-32 of the payload bytes. The first record
//! is always an [`Entry::Meta`] naming the schema, seed, scale, and fault
//! configuration; replaying under different settings is refused. Appends
//! are batched: the file is `fsync`ed every [`JournalWriter::fsync_batch`]
//! appends and on [`JournalWriter::flush`], so a crash loses at most one
//! batch of *acknowledged* work — which resume simply re-measures.
//!
//! # Torn-write tolerance
//!
//! A kill mid-append leaves a trailing partial record. The reader treats
//! any incomplete or CRC-failing record as the end of the valid prefix
//! (everything after the first bad frame is suspect by WAL convention),
//! reports it via [`JournalReplay::truncated`], and
//! [`JournalWriter::resume`] physically truncates the file back to the
//! valid prefix before appending again. A record that passes its CRC but
//! does not decode was written whole by another format; replay refuses
//! it with a Corruption error and leaves the file untouched.
//!
//! # Disk-failure tolerance (DESIGN.md §17)
//!
//! Every filesystem operation goes through the [`crate::vfs::Storage`]
//! handle, so the writer survives what real disks do: transient write
//! errors retry under the bounded capped-exponential policy (truncating
//! any short-written prefix back to the pre-append length first, so a
//! failed attempt never leaves a torn frame *mid-file*); a lying fsync
//! is caught by read-back verification — every sync re-reads the
//! authoritative file length, and a length that went *backwards* means
//! the device dropped acknowledged records, which seals the journal with
//! a Corruption error (the surviving prefix is valid and resume simply
//! re-measures the lost blocks); persistent faults (ENOSPC) and
//! exhausted retries likewise **seal** the journal — every later append
//! and flush returns the sealing [`StorageError`] so the run stops with
//! that typed error instead of panicking or acknowledging unjournaled
//! work.

#![deny(clippy::unwrap_used)]

use crate::vfs::{Storage, StorageError, StorageErrorKind, VfsFile};
use hobbit::BlockMeasurement;
use netsim::Block24;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Version tag carried by every journal's meta record.
pub const JOURNAL_SCHEMA: &str = "hobbit-journal/v1";

/// File name of the journal inside a run directory.
pub const JOURNAL_FILE: &str = "journal.wal";

/// Default number of appends between fsyncs. Small enough that a crash
/// re-measures at most a few blocks, large enough to amortize the sync.
pub const DEFAULT_FSYNC_BATCH: u64 = 8;

/// IEEE CRC-32 (the zlib/PNG polynomial), bitwise — the journal frames a
/// few records per block, so table-free throughput is ample.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The run configuration a journal was written under. Replay refuses to
/// resume into a run with different settings — the journal's measurements
/// would not match what the resumed pipeline re-derives.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Journal schema version ([`JOURNAL_SCHEMA`]).
    pub schema: String,
    /// Scenario seed.
    pub seed: u64,
    /// Scenario scale.
    pub scale: f64,
    /// Whether fault injection was on.
    pub faulted: bool,
    /// Injected per-link loss probability (0 when `faulted` is false).
    pub fault_loss: f64,
    /// Injected ICMP token-bucket refill rate (0 when `faulted` is false).
    pub fault_rate: f64,
    /// Whether the run probed under the MDA-Lite stopping discipline.
    /// Unlike seed/scale/faults — which resume simply adopts — a resume
    /// under the *other* mode is refused outright: the journaled
    /// measurements carry mode-dependent probe budgets, and silently
    /// adopting the journal's mode would contradict the explicit CLI flag.
    /// Defaults to `false` so pre-mode journals stay readable.
    #[serde(default)]
    pub mda_lite: bool,
    /// Per-PoP perturbation probability of the derived dynamics schedule
    /// (0 for a static world). Like the MDA mode, dynamics shape every
    /// journaled measurement's probe stream, so a resume under different
    /// knobs is refused rather than silently adopted. Defaults keep
    /// pre-dynamics journals readable as static runs.
    #[serde(default)]
    pub dyn_rate: f64,
    /// Virtual-clock period (probes per epoch) of the schedule; 0 for a
    /// static world.
    #[serde(default)]
    pub dyn_period: u64,
}

impl RunMeta {
    /// Meta record for a run with the given knobs (classic MDA mode; use
    /// [`RunMeta::with_mda_lite`] to record a lite run).
    pub fn new(seed: u64, scale: f64, faults: Option<(f64, f64)>) -> Self {
        RunMeta {
            schema: JOURNAL_SCHEMA.to_string(),
            seed,
            scale,
            faulted: faults.is_some(),
            fault_loss: faults.map(|(l, _)| l).unwrap_or(0.0),
            fault_rate: faults.map(|(_, r)| r).unwrap_or(0.0),
            mda_lite: false,
            dyn_rate: 0.0,
            dyn_period: 0,
        }
    }

    /// Record the run's MDA mode in the meta.
    pub fn with_mda_lite(mut self, mda_lite: bool) -> Self {
        self.mda_lite = mda_lite;
        self
    }

    /// Record the run's dynamics knobs in the meta (`None` ⇒ static).
    pub fn with_dynamics(mut self, dynamics: Option<(f64, u64)>) -> Self {
        let (rate, period) = dynamics.unwrap_or((0.0, 0));
        self.dyn_rate = rate;
        self.dyn_period = period;
        self
    }

    /// The dynamics knobs as the pipeline consumes them (`None` ⇒ static).
    pub fn dynamics(&self) -> Option<(f64, u64)> {
        (self.dyn_period > 0).then_some((self.dyn_rate, self.dyn_period))
    }

    /// The fault knobs as the pipeline consumes them.
    pub fn faults(&self) -> Option<(f64, f64)> {
        self.faulted.then_some((self.fault_loss, self.fault_rate))
    }
}

/// One journal record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Entry {
    /// Run configuration; always the first record.
    Meta(RunMeta),
    /// A finished block classification: `index` is the block's position in
    /// the deterministic selection order (kept for diagnostics; replay
    /// keys on the measurement's block address).
    Block {
        /// Position in the selection order.
        index: u64,
        /// The completed measurement.
        measurement: BlockMeasurement,
    },
    /// A block the supervisor gave up on (panic or stall past the requeue
    /// budget). Informational: resume re-attempts quarantined blocks.
    Quarantine {
        /// Position in the selection order.
        index: u64,
        /// The quarantined block.
        block: Block24,
        /// Attempts spent before quarantining.
        attempts: u32,
        /// Human-readable reason (panic message or "stalled").
        reason: String,
    },
    /// A graceful shutdown drained in-flight work and flushed; the run is
    /// intentionally incomplete.
    Shutdown,
}

/// A simulated crash point for the testkit harness: the writer "dies"
/// once `after_block_appends` block records have been appended — losing
/// everything since the last fsync, exactly like a real kill — optionally
/// leaving a torn partial record at the tail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Die when this many [`Entry::Block`] records have been appended.
    pub after_block_appends: u64,
    /// Leave a partial frame of the next record at the tail.
    pub torn: bool,
}

/// Everything a journal replay recovered.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// The meta record, when one was recovered.
    pub meta: Option<RunMeta>,
    /// Recovered block measurements in journal (completion) order.
    pub blocks: Vec<BlockMeasurement>,
    /// Recovered quarantine records `(index, block, attempts, reason)`.
    pub quarantines: Vec<(u64, Block24, u32, String)>,
    /// Whether a shutdown marker was recovered (the run drained cleanly).
    pub shutdown: bool,
    /// Byte length of the valid record prefix.
    pub valid_len: u64,
    /// Whether a trailing partial/corrupt record was dropped.
    pub truncated: bool,
    /// Total records recovered.
    pub entries: u64,
}

/// Encode one record frame (header + JSON payload).
fn encode_entry(entry: &Entry, path: &Path) -> Result<Vec<u8>, StorageError> {
    let payload = serde_json::to_string(entry)
        .map_err(|e| StorageError::corruption("journal.encode", path, format!("{e:?}")))?;
    let payload = payload.into_bytes();
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
}

/// Read a little-endian u32 at `pos` (caller has bounds-checked).
fn read_u32(bytes: &[u8], pos: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[pos..pos + 4]);
    u32::from_le_bytes(word)
}

/// Replay a journal file. Missing file ⇒ an empty replay (fresh run).
/// A trailing partial or CRC-failing record is dropped, not an error; a
/// whole record that does not decode is a Corruption error.
pub fn read_journal(path: &Path) -> std::io::Result<JournalReplay> {
    read_journal_via(&Storage::real(), path).map_err(std::io::Error::other)
}

/// [`read_journal`] through an explicit [`Storage`] handle: transient
/// read faults retry under its policy; only persistent failures (other
/// than a missing file) surface as errors.
pub fn read_journal_via(storage: &Storage, path: &Path) -> Result<JournalReplay, StorageError> {
    let mut replay = JournalReplay::default();
    let bytes = match storage.read(path) {
        Ok(b) => b,
        Err(e) if e.is_not_found() => return Ok(replay),
        Err(e) => return Err(e),
    };
    let mut pos = 0usize;
    loop {
        if pos + 8 > bytes.len() {
            replay.truncated |= pos != bytes.len();
            break;
        }
        let len = read_u32(&bytes, pos) as usize;
        let crc = read_u32(&bytes, pos + 4);
        if pos + 8 + len > bytes.len() {
            replay.truncated = true;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        // No entry encodes to an empty payload, and a zero-filled tail
        // would otherwise pass the CRC (the CRC-32 of nothing is 0).
        if len == 0 || crc32(payload) != crc {
            replay.truncated = true;
            break;
        }
        // A frame that passes its CRC was written whole, so a payload that
        // fails to decode is no torn tail: it comes from another journal
        // format (such as the shard-info record of an old sharded run).
        // Truncating there would silently drop every record after it.
        let entry: Entry = std::str::from_utf8(payload)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
            .map_err(|e| {
                StorageError::corruption(
                    "journal.replay",
                    path,
                    format!(
                        "record at byte offset {pos} passes its CRC but is no \
                         {JOURNAL_SCHEMA} entry ({e}); this version cannot resume it, \
                         start a fresh run dir"
                    ),
                )
            })?;
        match entry {
            Entry::Meta(m) => replay.meta = Some(m),
            Entry::Block { measurement, .. } => replay.blocks.push(measurement),
            Entry::Quarantine {
                index,
                block,
                attempts,
                reason,
            } => replay.quarantines.push((index, block, attempts, reason)),
            Entry::Shutdown => replay.shutdown = true,
        }
        replay.entries += 1;
        pos += 8 + len;
        replay.valid_len = pos as u64;
    }
    Ok(replay)
}

/// The append half of the journal. Thread-unsafe by design — the pipeline
/// serializes appends through a mutex so completion order (which is
/// scheduling-dependent) only affects record order, never content.
#[derive(Debug)]
pub struct JournalWriter {
    file: Box<dyn VfsFile>,
    storage: Storage,
    path: PathBuf,
    /// Appends between fsyncs (1 = sync every record).
    pub fsync_batch: u64,
    since_sync: u64,
    /// File length covered by the last fsync — what a kill is guaranteed
    /// to preserve.
    synced_len: u64,
    appends: u64,
    block_appends: u64,
    fsyncs: u64,
    crash: Option<CrashPoint>,
    crashed: bool,
    sealed: Option<StorageError>,
}

impl JournalWriter {
    /// Start a fresh journal in `run_dir` (created if missing), writing
    /// the meta record immediately.
    pub fn create(run_dir: &Path, meta: &RunMeta) -> Result<Self, StorageError> {
        Self::create_via(Storage::real(), run_dir, meta)
    }

    /// [`JournalWriter::create`] through an explicit [`Storage`] handle.
    pub fn create_via(
        storage: Storage,
        run_dir: &Path,
        meta: &RunMeta,
    ) -> Result<Self, StorageError> {
        storage.create_dir_all(run_dir)?;
        let path = run_dir.join(JOURNAL_FILE);
        let file = storage.open_write(&path, true)?;
        let mut w = JournalWriter {
            file,
            storage,
            path,
            fsync_batch: DEFAULT_FSYNC_BATCH,
            since_sync: 0,
            synced_len: 0,
            appends: 0,
            block_appends: 0,
            fsyncs: 0,
            crash: None,
            crashed: false,
            sealed: None,
        };
        w.append(&Entry::Meta(meta.clone()))?;
        w.flush()?;
        Ok(w)
    }

    /// Reopen an existing journal for appending: replay it, drop any torn
    /// tail (physically truncating the file to the valid prefix), and
    /// return the writer positioned after the last valid record.
    pub fn resume(run_dir: &Path) -> Result<(Self, JournalReplay), StorageError> {
        Self::resume_via(Storage::real(), run_dir)
    }

    /// [`JournalWriter::resume`] through an explicit [`Storage`] handle.
    pub fn resume_via(
        storage: Storage,
        run_dir: &Path,
    ) -> Result<(Self, JournalReplay), StorageError> {
        let path = run_dir.join(JOURNAL_FILE);
        let replay = read_journal_via(&storage, &path)?;
        let mut file = storage.open_write(&path, false)?;
        let truncate_err =
            |e: &std::io::Error| StorageError::classify("journal.resume", &path, e, 0);
        file.truncate(replay.valid_len)
            .map_err(|e| truncate_err(&e))?;
        file.sync().map_err(|e| truncate_err(&e))?;
        let w = JournalWriter {
            file,
            storage,
            path,
            fsync_batch: DEFAULT_FSYNC_BATCH,
            since_sync: 0,
            synced_len: replay.valid_len,
            appends: 0,
            block_appends: 0,
            fsyncs: 1,
            crash: None,
            crashed: false,
            sealed: None,
        };
        Ok((w, replay))
    }

    /// Arm a simulated crash (testkit harness).
    pub fn set_crash_point(&mut self, cp: CrashPoint) {
        self.crash = Some(cp);
    }

    /// Whether the simulated crash has fired. Once true, every append and
    /// flush is a silent no-op — the "process" is dead.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The sealing error, if a persistent fault (or an exhausted retry
    /// budget) has put the journal in its degraded mode. A sealed journal
    /// acknowledges nothing: every later append and flush returns this
    /// error, so the run stops instead of acknowledging unjournaled work.
    pub fn sealed(&self) -> Option<&StorageError> {
        self.sealed.as_ref()
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended through this writer (this process only).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Block records appended through this writer.
    pub fn block_appends(&self) -> u64 {
        self.block_appends
    }

    /// fsyncs issued by this writer.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Seal the journal: record the degraded-mode entry once, remember the
    /// error, and hand it back for propagation.
    fn seal(&mut self, err: StorageError) -> StorageError {
        if self.sealed.is_none() {
            self.storage.obs().quarantined.inc();
            self.sealed = Some(err.clone());
        }
        err
    }

    /// Simulate the armed kill: everything past the last fsync is lost
    /// (the page cache died with the process), and a torn crash leaves a
    /// partial frame of `next` at the tail.
    fn simulate_crash(&mut self, torn_frame: Option<&[u8]>) -> Result<(), StorageError> {
        self.crashed = true;
        let fail = |e: &std::io::Error| StorageError::classify("journal.crash", &self.path, e, 0);
        self.file.truncate(self.synced_len).map_err(|e| fail(&e))?;
        if let Some(frame) = torn_frame {
            // Keep the header and roughly half the payload — a frame whose
            // declared length exceeds the bytes on disk.
            let keep = (8 + (frame.len() - 8) / 2).min(frame.len().saturating_sub(1));
            self.file.append(&frame[..keep]).map_err(|e| fail(&e))?;
        }
        self.file.sync().map_err(|e| fail(&e))?;
        Ok(())
    }

    /// Write one frame under the bounded-retry policy. The base length is
    /// re-read from the file before every attempt (authoritative — after a
    /// lying fsync the writer's own bookkeeping is stale), and a failed
    /// attempt truncates any short-written prefix back to it, so neither a
    /// retry nor a sealed journal ever leaves a torn frame mid-file.
    fn write_frame(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        let mut attempt = 0u32;
        loop {
            let res = self.file.len().and_then(|base| {
                self.file.append(frame).inspect_err(|_| {
                    let _ = self.file.truncate(base);
                })
            });
            let e = match res {
                Ok(()) => return Ok(()),
                Err(e) => e,
            };
            let se = StorageError::classify("journal.append", &self.path, &e, attempt);
            self.storage.obs().faults_seen.inc();
            if se.kind == StorageErrorKind::Transient
                && attempt + 1 < self.storage.retry.attempts.max(1)
            {
                self.storage.obs().retried.inc();
                self.storage.backoff(attempt);
                attempt += 1;
            } else {
                return Err(se);
            }
        }
    }

    /// Append one record, honoring the fsync batch and any armed crash
    /// point. After a (simulated) crash this is a silent no-op; after a
    /// seal it returns the sealing error.
    pub fn append(&mut self, entry: &Entry) -> Result<(), StorageError> {
        if self.crashed {
            return Ok(());
        }
        if let Some(e) = &self.sealed {
            return Err(e.clone());
        }
        let frame = encode_entry(entry, &self.path)?;
        let is_block = matches!(entry, Entry::Block { .. });
        if is_block {
            if let Some(cp) = self.crash {
                if self.block_appends >= cp.after_block_appends {
                    return self.simulate_crash(cp.torn.then_some(&frame[..]));
                }
            }
        }
        if let Err(se) = self.write_frame(&frame) {
            return Err(self.seal(se));
        }
        self.appends += 1;
        if is_block {
            self.block_appends += 1;
        }
        self.since_sync += 1;
        if self.since_sync >= self.fsync_batch {
            self.sync()?;
        }
        Ok(())
    }

    /// Force an fsync of everything appended so far (no-op after a crash;
    /// the sealing error after a seal — a sealed journal never lets its
    /// caller believe unjournaled work is durable).
    pub fn flush(&mut self) -> Result<(), StorageError> {
        if self.crashed {
            return Ok(());
        }
        if let Some(e) = &self.sealed {
            return Err(e.clone());
        }
        if self.since_sync == 0 {
            return Ok(());
        }
        self.sync()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let mut attempt = 0u32;
        loop {
            let res = self.file.len().and_then(|before| {
                self.file.sync()?;
                Ok((before, self.file.len()?))
            });
            let e = match res {
                Ok((before, after)) => {
                    // Read-back verification: a device that acknowledges
                    // the sync but shrinks the file lied — the batch the
                    // caller was told is durable is gone. Retrying cannot
                    // bring it back, so seal: an honest typed failure now
                    // beats a done marker over a journal with a hole.
                    if after < before {
                        self.storage.obs().faults_seen.inc();
                        return Err(self.seal(StorageError::corruption(
                            "journal.sync",
                            &self.path,
                            format!(
                                "fsync acknowledged {before} bytes but only {after} \
                                 survive: the device dropped the batch"
                            ),
                        )));
                    }
                    self.synced_len = after;
                    self.since_sync = 0;
                    self.fsyncs += 1;
                    return Ok(());
                }
                Err(e) => e,
            };
            let se = StorageError::classify("journal.sync", &self.path, &e, attempt);
            self.storage.obs().faults_seen.inc();
            if se.kind == StorageErrorKind::Transient
                && attempt + 1 < self.storage.retry.attempts.max(1)
            {
                self.storage.obs().retried.inc();
                self.storage.backoff(attempt);
                attempt += 1;
            } else {
                return Err(self.seal(se));
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::vfs::{ChaosVfs, FaultKind, OpKind};
    use hobbit::Classification;
    use netsim::Addr;

    fn measurement(block: u32, n: usize) -> BlockMeasurement {
        let block = Block24(block);
        let lh = Addr::new(10, 0, 0, 1);
        BlockMeasurement {
            block,
            classification: Classification::SameLasthop,
            lasthop_set: vec![lh],
            per_dest: (0..n)
                .map(|i| (block.addr(i as u8 + 1), vec![lh]))
                .collect(),
            dests_probed: n,
            dests_resolved: n,
            dests_anonymous: 0,
            dests_unresolved: 0,
            reprobes: 0,
            probes_used: (n * 3) as u64,
            dest_epochs: vec![],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hobbit-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
    }

    #[test]
    fn journal_roundtrips_blocks_and_meta() {
        let dir = tmpdir("roundtrip");
        let meta = RunMeta::new(42, 0.01, Some((0.02, 0.5)));
        let mut w = JournalWriter::create(&dir, &meta).unwrap();
        for i in 0..5u64 {
            w.append(&Entry::Block {
                index: i,
                measurement: measurement(0x0A_0100 + i as u32, 4),
            })
            .unwrap();
        }
        w.append(&Entry::Quarantine {
            index: 9,
            block: Block24(0x0A_0200),
            attempts: 3,
            reason: "injected panic".into(),
        })
        .unwrap();
        w.flush().unwrap();

        let r = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(r.meta.as_ref(), Some(&meta));
        assert_eq!(r.meta.unwrap().faults(), Some((0.02, 0.5)));
        assert_eq!(r.blocks.len(), 5);
        assert_eq!(r.blocks[3], measurement(0x0A_0103, 4));
        assert_eq!(r.quarantines.len(), 1);
        assert_eq!(r.quarantines[0].3, "injected panic");
        assert!(!r.truncated);
        assert!(!r.shutdown);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn meta_records_dynamics_and_pre_dynamics_journals_replay_as_static() {
        let m = RunMeta::new(1, 0.01, None).with_dynamics(Some((0.3, 64)));
        assert_eq!(m.dynamics(), Some((0.3, 64)));
        let json = serde_json::to_string(&m).unwrap();
        let back: RunMeta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);

        // A meta written before the dynamics fields existed deserializes
        // as a static run.
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let serde_json::Value::Object(obj) = &mut v else {
            panic!("meta serializes as an object");
        };
        obj.remove("dyn_rate");
        obj.remove("dyn_period");
        let old: RunMeta = serde_json::from_str(&v.to_string()).unwrap();
        assert_eq!(old.dynamics(), None);
    }

    #[test]
    fn undecodable_whole_record_is_refused_not_truncated() {
        // An old sharded-run journal: Meta, the shard-info record this
        // version no longer knows, then two block records. Every frame
        // passes its CRC, so the unknown record must not read as a torn
        // tail — that would cut the journal after Meta and drop the blocks.
        let dir = tmpdir("unknown-record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let shard_info = include_bytes!("testdata/old_shard_record.json");
        let mut bytes = encode_entry(&Entry::Meta(RunMeta::new(7, 0.01, None)), &path).unwrap();
        let offset = bytes.len();
        bytes.extend_from_slice(&(shard_info.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(shard_info).to_le_bytes());
        bytes.extend_from_slice(shard_info);
        for i in 0..2u64 {
            let block = Entry::Block {
                index: i,
                measurement: measurement(0x0A_0100 + i as u32, 4),
            };
            bytes.extend(encode_entry(&block, &path).unwrap());
        }
        std::fs::write(&path, &bytes).unwrap();

        let err = JournalWriter::resume_via(Storage::real(), &dir).unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Corruption, "{err}");
        assert!(
            err.to_string().contains(&format!("byte offset {offset}")),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "file left untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_preserves_only_fsynced_records() {
        let dir = tmpdir("kill");
        let meta = RunMeta::new(7, 0.01, None);
        let mut w = JournalWriter::create(&dir, &meta).unwrap();
        w.fsync_batch = 2;
        w.set_crash_point(CrashPoint {
            after_block_appends: 5,
            torn: false,
        });
        for i in 0..10u64 {
            w.append(&Entry::Block {
                index: i,
                measurement: measurement(0x0A_0100 + i as u32, 4),
            })
            .unwrap();
        }
        assert!(w.crashed());
        // The post-crash flush must be a dead no-op.
        w.flush().unwrap();

        let r = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        // 5 blocks appended before the kill; the meta+first-block batch
        // synced at 2 appends, then blocks 2-3 synced. Block 4 sat in the
        // unsynced tail and died with the process.
        assert_eq!(r.blocks.len(), 4, "unsynced tail is lost");
        assert!(!r.truncated, "no torn frame without `torn`");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_is_truncated_on_replay_and_resume() {
        let dir = tmpdir("torn");
        let meta = RunMeta::new(7, 0.01, None);
        let mut w = JournalWriter::create(&dir, &meta).unwrap();
        w.fsync_batch = 1;
        w.set_crash_point(CrashPoint {
            after_block_appends: 3,
            torn: true,
        });
        for i in 0..6u64 {
            w.append(&Entry::Block {
                index: i,
                measurement: measurement(0x0A_0100 + i as u32, 4),
            })
            .unwrap();
        }
        assert!(w.crashed());

        let path = dir.join(JOURNAL_FILE);
        let r = read_journal(&path).unwrap();
        assert_eq!(r.blocks.len(), 3, "every synced block survives");
        assert!(r.truncated, "the torn frame is detected and dropped");

        // Resume truncates the tail physically and appends cleanly.
        let (mut w2, replay) = JournalWriter::resume(&dir).unwrap();
        assert_eq!(replay.blocks.len(), 3);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            replay.valid_len,
            "resume drops the torn bytes from disk"
        );
        w2.append(&Entry::Block {
            index: 3,
            measurement: measurement(0x0A_0103, 4),
        })
        .unwrap();
        w2.append(&Entry::Shutdown).unwrap();
        w2.flush().unwrap();
        let r2 = read_journal(&path).unwrap();
        assert_eq!(r2.blocks.len(), 4);
        assert!(r2.shutdown);
        assert!(!r2.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_record_drops_the_suffix() {
        let dir = tmpdir("corrupt");
        let meta = RunMeta::new(7, 0.01, None);
        let mut w = JournalWriter::create(&dir, &meta).unwrap();
        w.fsync_batch = 1;
        for i in 0..3u64 {
            w.append(&Entry::Block {
                index: i,
                measurement: measurement(0x0A_0100 + i as u32, 4),
            })
            .unwrap();
        }
        w.flush().unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte in the second block record: CRC catches it,
        // and everything after the bad frame is dropped.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let r = read_journal(&path).unwrap();
        assert!(r.truncated);
        assert!(r.blocks.len() < 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let r = read_journal(Path::new("/nonexistent/journal.wal")).unwrap();
        assert!(r.meta.is_none());
        assert_eq!(r.entries, 0);
        assert!(!r.truncated);
    }

    #[test]
    fn short_write_retries_without_leaving_a_torn_frame() {
        let dir = tmpdir("chaos-short");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = RunMeta::new(7, 0.01, None);
        // The meta append is write #0; block 0 short-writes at #1 and
        // plain-fails at #2, succeeding on the third attempt.
        let vfs = ChaosVfs::scripted(vec![
            (OpKind::Write, 1, FaultKind::ShortWrite),
            (OpKind::Write, 2, FaultKind::Eio),
        ]);
        let mut w = JournalWriter::create_via(Storage::with_chaos(vfs), &dir, &meta).unwrap();
        w.fsync_batch = 1;
        w.append(&Entry::Block {
            index: 0,
            measurement: measurement(0x0A_0100, 4),
        })
        .unwrap();
        w.flush().unwrap();
        assert!(w.sealed().is_none());
        let r = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(r.blocks.len(), 1);
        assert!(!r.truncated, "retry truncated the short-written prefix");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_seals_the_journal_with_a_persistent_error() {
        let dir = tmpdir("chaos-full");
        std::fs::create_dir_all(&dir).unwrap();
        let meta = RunMeta::new(7, 0.01, None);
        let vfs = ChaosVfs::scripted(vec![(OpKind::Write, 2, FaultKind::Enospc)]);
        let mut w = JournalWriter::create_via(Storage::with_chaos(vfs), &dir, &meta).unwrap();
        w.fsync_batch = 1;
        w.append(&Entry::Block {
            index: 0,
            measurement: measurement(0x0A_0100, 4),
        })
        .unwrap();
        let err = w
            .append(&Entry::Block {
                index: 1,
                measurement: measurement(0x0A_0101, 4),
            })
            .unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Persistent);
        assert!(w.sealed().is_some(), "persistent fault seals the journal");
        // Every later append and flush returns the sealing error.
        assert!(w
            .append(&Entry::Block {
                index: 2,
                measurement: measurement(0x0A_0102, 4),
            })
            .is_err());
        assert!(w.flush().is_err());
        // The journal on disk is still a valid prefix.
        let r = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(r.blocks.len(), 1);
        assert!(!r.truncated);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_lie_is_detected_by_read_back_and_seals_the_journal() {
        for fsync_batch in [1u64, 8] {
            let dir = tmpdir(&format!("chaos-lie-{fsync_batch}"));
            std::fs::create_dir_all(&dir).unwrap();
            let meta = RunMeta::new(7, 0.01, None);
            // Sync #1 is the first post-create batch sync; it lies. The
            // writer must notice the durable length going backwards and
            // seal rather than acknowledge the vanished batch.
            let vfs = ChaosVfs::scripted(vec![(OpKind::Sync, 1, FaultKind::FsyncLie)]);
            let mut w = JournalWriter::create_via(Storage::with_chaos(vfs), &dir, &meta).unwrap();
            w.fsync_batch = fsync_batch;
            let mut first_err = None;
            for i in 0..(2 * fsync_batch + 1) {
                if let Err(e) = w.append(&Entry::Block {
                    index: i,
                    measurement: measurement(0x0A_0100 + i as u32, 4),
                }) {
                    first_err = Some((i, e));
                    break;
                }
            }
            let (at, e) = first_err.unwrap_or_else(|| {
                panic!("batch={fsync_batch}: the lie must surface as an append error")
            });
            assert_eq!(
                at,
                fsync_batch - 1,
                "batch={fsync_batch}: detected on the append that triggered the lying sync"
            );
            assert_eq!(
                e.kind,
                StorageErrorKind::Corruption,
                "batch={fsync_batch}: {e}"
            );
            assert!(
                w.sealed().is_some(),
                "batch={fsync_batch}: lie seals the journal"
            );
            // Every later append and flush returns the sealing error —
            // nothing ever pretends the dropped batch was durable.
            assert!(w.append(&Entry::Shutdown).is_err());
            assert!(w.flush().is_err());
            // The surviving prefix is valid (the lie rolled the file back
            // to the last honest sync: just the meta record) and resume
            // on a healthy disk re-appends cleanly.
            let r = read_journal(&dir.join(JOURNAL_FILE)).unwrap();
            assert!(!r.truncated, "batch={fsync_batch}");
            assert_eq!(r.blocks.len(), 0, "batch={fsync_batch}");
            let (mut w2, replay) = JournalWriter::resume(&dir).unwrap();
            assert_eq!(
                replay.valid_len,
                std::fs::metadata(w2.path()).unwrap().len()
            );
            w2.append(&Entry::Shutdown).unwrap();
            w2.flush().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
