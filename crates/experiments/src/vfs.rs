//! The storage seam: every filesystem operation the run-dir machinery
//! performs — open/append/read/fsync, and the corpus saves' rename —
//! goes through the [`Vfs`] trait, so disk failures are injectable the
//! same way netsim packet loss already is.
//!
//! Two implementations exist. [`RealVfs`] is a thin passthrough to
//! `std::fs` — the zero-cost default for normal runs. [`ChaosVfs`] is a
//! seeded, per-operation fault schedule injecting the failure modes real
//! long-running surveys meet: ENOSPC (persistent — the disk stays full),
//! EIO (transient), short writes that persist a prefix, renames that tear
//! (target missing, or source lingering beside a complete copy), and
//! fsyncs that report success but durably lose the batch.
//!
//! # The `StorageError` taxonomy
//!
//! Callers never see raw `io::Error`s: the [`Storage`] handle classifies
//! every failure as [`StorageErrorKind::Transient`] (worth a bounded,
//! capped-exponential retry — deliberately the prober's backoff shape),
//! [`StorageErrorKind::Persistent`] (retry cannot help; the caller enters
//! its degraded mode: a journal seals itself and the run stops with the
//! typed error), or
//! [`StorageErrorKind::Corruption`] (bytes came back wrong; the valid
//! journal prefix is still resumable). The hard invariant, enforced by
//! `tests/storage_chaos.rs`: a run either produces a byte-identical
//! `hobbit-report/v1` or fails with one of these typed errors — never a
//! silently corrupted journal or report.

#![deny(clippy::unwrap_used)]

use obs::{Counter, NullRecorder, Recorder};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};
use testkit::StorageSabotage;

/// Raw `errno` of ENOSPC on Linux; chaos injects it via
/// `io::Error::from_raw_os_error` so classification works on any
/// toolchain without depending on the `ErrorKind::StorageFull` kind.
const ENOSPC: i32 = 28;

/// Raw `errno` of EIO on Linux.
const EIO: i32 = 5;

// ---------------------------------------------------------------------------
// The trait.

/// An open file the journal appends through.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send + fmt::Debug {
    /// Seek to the end and write all of `buf`.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;
    /// fsync file data.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncate to `len` and position the cursor there.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Current file length in bytes (authoritative: after a lying fsync
    /// the writer's own bookkeeping is stale, this is not).
    fn len(&mut self) -> io::Result<u64>;
}

/// Every filesystem operation the run-dir machinery performs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// `create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Open `path` for appending (`truncate` ⇒ start empty), creating it
    /// if missing.
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>>;
    /// Read the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create or truncate `path` with `bytes` (no fsync).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Atomically create `path` with `bytes`, failing with
    /// `AlreadyExists` if it exists.
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// `rename(2)` — atomic replacement within a directory.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
    /// Modification time of `path`.
    fn mtime(&self, path: &Path) -> io::Result<SystemTime>;
    /// Entries of a directory.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

// ---------------------------------------------------------------------------
// RealVfs: thin passthrough.

/// The production [`Vfs`]: plain `std::fs`, no interposition.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

#[derive(Debug)]
struct RealFile(File);

impl VfsFile for RealFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.seek(SeekFrom::End(0))?;
        self.0.write_all(buf)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(SeekFrom::Start(len)).map(|_| ())
    }
    fn len(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        Ok(Box::new(RealFile(file)))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().write(true).create_new(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        std::fs::metadata(path)?.modified()
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// ChaosVfs: seeded per-operation fault schedule.

/// Which fault a chaos schedule injects at an operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The disk fills; *every* later write-like operation fails too.
    Enospc,
    /// A one-shot I/O error (transient: the retry path).
    Eio,
    /// Half the buffer reaches the disk, then the write errors.
    ShortWrite,
    /// The rename tears: target missing, or source lingering beside a
    /// complete copy (alternating by schedule position).
    TornRename,
    /// The fsync reports success but everything since the last real sync
    /// is durably gone.
    FsyncLie,
}

/// Operation classes a chaos schedule indexes (scripted faults name the
/// nth operation *of a class*).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `create_dir_all`.
    Mkdir,
    /// `open_write`.
    Open,
    /// Whole-file and journal reads.
    Read,
    /// Write-like operations (file appends, whole-file writes).
    Write,
    /// fsyncs.
    Sync,
    /// Renames.
    Rename,
    /// File removals.
    Remove,
    /// mtime reads.
    Mtime,
    /// Directory listings.
    List,
}

const OP_KINDS: usize = 9;

/// SplitMix64 — the fault schedule only needs decorrelation, not crypto.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[derive(Debug, Default)]
struct ChaosCore {
    seed: u64,
    /// Seeded fault threshold: a draw fires when `hash < rate_bits`.
    rate_bits: u64,
    /// Global operation counter (the seeded schedule's index space).
    ops: AtomicU64,
    /// Per-class operation counters (the scripted schedule's index space).
    per_kind: [AtomicU64; OP_KINDS],
    /// Targeted faults: fire when the class counter hits the index.
    scripted: Vec<(OpKind, u64, FaultKind)>,
    /// ENOSPC is sticky: once the disk "fills" it stays full.
    full: AtomicBool,
    /// Faults injected so far (test introspection).
    injected: AtomicU64,
}

impl ChaosCore {
    /// Decide the fate of one operation of class `op`.
    fn draw(&self, op: OpKind) -> Option<FaultKind> {
        let class_idx = self.per_kind[op as usize].fetch_add(1, Ordering::Relaxed);
        let scripted = self
            .scripted
            .iter()
            .find(|(k, at, _)| *k == op && *at == class_idx)
            .map(|(_, _, f)| *f);
        let fault = scripted.or_else(|| {
            if self.rate_bits == 0 {
                return None;
            }
            let i = self.ops.fetch_add(1, Ordering::Relaxed);
            let h = splitmix64(self.seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
            (h < self.rate_bits).then(|| Self::kind_for(op, splitmix64(h)))?
        });
        if fault.is_some() {
            self.injected.fetch_add(1, Ordering::Relaxed);
        }
        if fault == Some(FaultKind::Enospc) {
            self.full.store(true, Ordering::Release);
        }
        fault
    }

    /// Pick the fault kind for a seeded hit: only kinds meaningful for the
    /// operation class, with ENOSPC deliberately rare (it is persistent,
    /// so one draw dooms the whole run to its degraded mode).
    fn kind_for(op: OpKind, h: u64) -> Option<FaultKind> {
        let sel = h % 8;
        match op {
            OpKind::Write => Some(match sel {
                7 => FaultKind::Enospc,
                s if s % 2 == 0 => FaultKind::Eio,
                _ => FaultKind::ShortWrite,
            }),
            OpKind::Sync => Some(if sel < 3 {
                FaultKind::Eio
            } else {
                FaultKind::FsyncLie
            }),
            OpKind::Rename => Some(FaultKind::TornRename),
            OpKind::Mkdir
            | OpKind::Open
            | OpKind::Read
            | OpKind::Remove
            | OpKind::Mtime
            | OpKind::List => Some(FaultKind::Eio),
        }
    }

    fn enospc() -> io::Error {
        io::Error::from_raw_os_error(ENOSPC)
    }

    fn eio() -> io::Error {
        io::Error::from_raw_os_error(EIO)
    }

    /// A write-like op on a full disk fails before any fault draw.
    fn check_full(&self) -> io::Result<()> {
        if self.full.load(Ordering::Acquire) {
            Err(Self::enospc())
        } else {
            Ok(())
        }
    }
}

/// A [`Vfs`] that injects a deterministic, seeded per-operation fault
/// schedule underneath an otherwise real filesystem. Clones share the
/// schedule (one disk, many handles).
#[derive(Clone, Debug)]
pub struct ChaosVfs {
    core: Arc<ChaosCore>,
}

impl ChaosVfs {
    /// A seeded schedule: every operation independently faults with
    /// probability `rate`; the kind is drawn from (seed, operation index).
    pub fn seeded(seed: u64, rate: f64) -> Self {
        let rate_bits = (rate.clamp(0.0, 1.0) * u64::MAX as f64) as u64;
        ChaosVfs {
            core: Arc::new(ChaosCore {
                seed,
                rate_bits,
                ..ChaosCore::default()
            }),
        }
    }

    /// A scripted schedule: exactly the listed faults fire, each at the
    /// nth operation of its class; everything else passes through.
    pub fn scripted(faults: Vec<(OpKind, u64, FaultKind)>) -> Self {
        ChaosVfs {
            core: Arc::new(ChaosCore {
                scripted: faults,
                ..ChaosCore::default()
            }),
        }
    }

    /// Build the schedule a testkit [`StorageSabotage`] plan describes.
    pub fn from_plan(plan: &StorageSabotage) -> Self {
        match *plan {
            StorageSabotage::Schedule { seed, rate } => ChaosVfs::seeded(seed, rate),
            StorageSabotage::DiskFull { at_write } => {
                ChaosVfs::scripted(vec![(OpKind::Write, at_write, FaultKind::Enospc)])
            }
            StorageSabotage::FlakyWrite { at_write } => {
                ChaosVfs::scripted(vec![(OpKind::Write, at_write, FaultKind::Eio)])
            }
            StorageSabotage::ShortWrite { at_write } => {
                ChaosVfs::scripted(vec![(OpKind::Write, at_write, FaultKind::ShortWrite)])
            }
            StorageSabotage::FsyncLie { at_sync } => {
                ChaosVfs::scripted(vec![(OpKind::Sync, at_sync, FaultKind::FsyncLie)])
            }
            StorageSabotage::TornRename { at_rename } => {
                ChaosVfs::scripted(vec![(OpKind::Rename, at_rename, FaultKind::TornRename)])
            }
        }
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.core.injected.load(Ordering::Relaxed)
    }

    /// Whether the simulated disk has filled (sticky ENOSPC fired).
    pub fn disk_full(&self) -> bool {
        self.core.full.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct ChaosFile {
    file: File,
    core: Arc<ChaosCore>,
    /// Bytes guaranteed on "disk": what survives a lying fsync.
    synced_len: u64,
}

impl VfsFile for ChaosFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.core.check_full()?;
        match self.core.draw(OpKind::Write) {
            None => {
                self.file.seek(SeekFrom::End(0))?;
                self.file.write_all(buf)
            }
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(FaultKind::ShortWrite) => {
                // Persist a prefix, then fail — the torn-tail case the
                // retry path must truncate away before re-appending.
                self.file.seek(SeekFrom::End(0))?;
                self.file.write_all(&buf[..buf.len() / 2])?;
                Err(ChaosCore::eio())
            }
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        match self.core.draw(OpKind::Sync) {
            None => {
                self.file.sync_data()?;
                self.synced_len = self.file.seek(SeekFrom::End(0))?;
                Ok(())
            }
            Some(FaultKind::FsyncLie) => {
                // Report success, lose the batch: everything since the
                // last real sync vanishes, and later appends continue
                // from the surviving prefix (no hole, no torn frame —
                // the records are simply gone, exactly like a power cut
                // behind a lying disk cache).
                self.file.set_len(self.synced_len)?;
                self.file.seek(SeekFrom::Start(self.synced_len))?;
                Ok(())
            }
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // Truncation is the *recovery* path (dropping a short-written
        // prefix); faulting it would just consume the caller's retry
        // budget faster, which the schedule already exercises via Write.
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        if len < self.synced_len {
            self.synced_len = len;
        }
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        self.file.seek(SeekFrom::End(0))
    }
}

impl Vfs for ChaosVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.core.draw(OpKind::Mkdir) {
            None => std::fs::create_dir_all(path),
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        if let Some(fault) = self.core.draw(OpKind::Open) {
            return Err(if fault == FaultKind::Enospc {
                ChaosCore::enospc()
            } else {
                ChaosCore::eio()
            });
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)?;
        let synced_len = file.metadata()?.len();
        Ok(Box::new(ChaosFile {
            file,
            core: Arc::clone(&self.core),
            synced_len,
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.core.draw(OpKind::Read) {
            None => RealVfs.read(path),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.core.check_full()?;
        match self.core.draw(OpKind::Write) {
            None => std::fs::write(path, bytes),
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(FaultKind::ShortWrite) => {
                std::fs::write(path, &bytes[..bytes.len() / 2])?;
                Err(ChaosCore::eio())
            }
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.core.check_full()?;
        match self.core.draw(OpKind::Write) {
            None => RealVfs.create_new(path, bytes),
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.core.draw(OpKind::Rename) {
            None => std::fs::rename(from, to),
            Some(FaultKind::TornRename) => {
                // Alternate the tear by rename index: even ⇒ the target
                // never appears and the source is gone; odd ⇒ a complete
                // copy lands but the source lingers. Both report failure,
                // so a retried atomic-replace heals either way.
                let idx = self.core.per_kind[OpKind::Rename as usize].load(Ordering::Relaxed);
                if idx.is_multiple_of(2) {
                    let _ = std::fs::remove_file(from);
                } else {
                    std::fs::copy(from, to)?;
                }
                Err(ChaosCore::eio())
            }
            Some(FaultKind::Enospc) => Err(ChaosCore::enospc()),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.core.draw(OpKind::Remove) {
            None => std::fs::remove_file(path),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        match self.core.draw(OpKind::Mtime) {
            None => RealVfs.mtime(path),
            Some(_) => Err(ChaosCore::eio()),
        }
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.core.draw(OpKind::List) {
            None => RealVfs.list_dir(path),
            Some(_) => Err(ChaosCore::eio()),
        }
    }
}

// ---------------------------------------------------------------------------
// StorageError: the typed taxonomy.

/// How a storage failure should be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageErrorKind {
    /// Worth a bounded retry (EIO, short write, torn rename).
    Transient,
    /// Retry cannot help (ENOSPC, missing file, exhausted retries escalate
    /// here semantically): the caller enters its degraded mode.
    Persistent,
    /// Bytes came back wrong (failed decode, missing meta record, synced
    /// bytes the device dropped): retrying cannot help.
    Corruption,
}

/// A typed, actionable storage failure. Everything the run-dir machinery
/// surfaces instead of panicking or leaking raw `io::Error`s.
#[derive(Clone, Debug)]
pub struct StorageError {
    /// Taxonomy class.
    pub kind: StorageErrorKind,
    /// The mediated operation (`"journal.append"`, `"rename"`, …).
    pub op: &'static str,
    /// The path the operation targeted.
    pub path: PathBuf,
    /// The underlying `io::ErrorKind` (callers branch on `NotFound`).
    pub io_kind: io::ErrorKind,
    /// Human-readable failure detail.
    pub detail: String,
    /// Retries spent before giving up.
    pub retries: u32,
}

impl StorageError {
    /// Classify a raw I/O failure.
    pub fn classify(op: &'static str, path: &Path, e: &io::Error, retries: u32) -> Self {
        let kind = match e.raw_os_error() {
            Some(code) if code == ENOSPC => StorageErrorKind::Persistent,
            _ => match e.kind() {
                io::ErrorKind::NotFound
                | io::ErrorKind::PermissionDenied
                | io::ErrorKind::AlreadyExists => StorageErrorKind::Persistent,
                io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                    StorageErrorKind::Corruption
                }
                _ => StorageErrorKind::Transient,
            },
        };
        StorageError {
            kind,
            op,
            path: path.to_path_buf(),
            io_kind: e.kind(),
            detail: e.to_string(),
            retries,
        }
    }

    /// A corruption finding that never was an `io::Error` (bad decode,
    /// missing meta record, schema mismatch).
    pub fn corruption(op: &'static str, path: &Path, detail: impl Into<String>) -> Self {
        StorageError {
            kind: StorageErrorKind::Corruption,
            op,
            path: path.to_path_buf(),
            io_kind: io::ErrorKind::InvalidData,
            detail: detail.into(),
            retries: 0,
        }
    }

    /// Whether the failure was a missing file (callers like journal
    /// replay treat that as "fresh run", not an error).
    pub fn is_not_found(&self) -> bool {
        self.io_kind == io::ErrorKind::NotFound
    }

    /// Whether retrying could have helped (it was tried and exhausted).
    pub fn is_transient(&self) -> bool {
        self.kind == StorageErrorKind::Transient
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let advice = match self.kind {
            StorageErrorKind::Transient => "transient; retries exhausted",
            StorageErrorKind::Persistent => {
                "persistent; free the disk or move the run dir, then resume \
                 — the journal re-measures only the lost tail"
            }
            StorageErrorKind::Corruption => "corruption; retrying cannot help",
        };
        write!(
            f,
            "storage {} on {}: {} [{:?} after {} retries — {advice}]",
            self.op,
            self.path.display(),
            self.detail,
            self.kind,
            self.retries,
        )
    }
}

impl std::error::Error for StorageError {}

// ---------------------------------------------------------------------------
// Retry policy and the Storage handle.

/// Bounded capped-exponential retry for transient faults. The shape is
/// deliberately the prober's ([`probe::backoff_delay`]): first retry after
/// `base_us`, doubling to `cap_us`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (≥ 1).
    pub attempts: u32,
    /// First-retry backoff, microseconds.
    pub base_us: u64,
    /// Backoff ceiling, microseconds.
    pub cap_us: u64,
    /// Actually sleep between attempts. On by default (real disks need
    /// the time); chaos tests turn it off and read the accumulated
    /// simulated wait from [`Storage::backoff_total_us`] instead.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_us: probe::DEFAULT_BACKOFF_BASE_US,
            cap_us: probe::DEFAULT_BACKOFF_CAP_US,
            sleep: true,
        }
    }
}

/// Pre-interned `storage.*` counters, bound once per run so the metrics
/// schema is fault-independent.
#[derive(Clone)]
pub struct StorageObs {
    /// `storage.faults_seen` — I/O failures the retry layer observed.
    pub faults_seen: Counter,
    /// `storage.retried` — attempts re-issued after a transient fault.
    pub retried: Counter,
    /// `storage.quarantined` — degraded-mode entries (journals sealed).
    pub quarantined: Counter,
}

impl StorageObs {
    /// Intern every storage metric in `rec`.
    pub fn bind(rec: &dyn Recorder) -> Self {
        StorageObs {
            faults_seen: rec.counter("storage.faults_seen"),
            retried: rec.counter("storage.retried"),
            quarantined: rec.counter("storage.quarantined"),
        }
    }
}

impl Default for StorageObs {
    fn default() -> Self {
        StorageObs::bind(&NullRecorder)
    }
}

/// The handle the journal and corpus saves do storage through: a
/// [`Vfs`] plus the [`RetryPolicy`] and `storage.*` counters. Cloning
/// shares the underlying VFS (and its chaos schedule) and counters.
#[derive(Clone)]
pub struct Storage {
    vfs: Arc<dyn Vfs>,
    /// Retry policy for transient faults.
    pub retry: RetryPolicy,
    obs: StorageObs,
    backoff_us: Arc<AtomicU64>,
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Storage")
            .field("vfs", &self.vfs)
            .field("retry", &self.retry)
            .finish()
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::real()
    }
}

impl Storage {
    /// Production storage: [`RealVfs`] with the default retry policy.
    pub fn real() -> Self {
        Storage::with_vfs(Arc::new(RealVfs))
    }

    /// Chaos storage: a seeded fault schedule, retries simulated (no real
    /// sleeps — the accumulated wait is readable via
    /// [`Storage::backoff_total_us`]).
    pub fn chaos(seed: u64, rate: f64) -> Self {
        Storage::with_chaos(ChaosVfs::seeded(seed, rate))
    }

    /// Storage over an explicit chaos schedule (scripted or seeded).
    pub fn with_chaos(vfs: ChaosVfs) -> Self {
        let mut s = Storage::with_vfs(Arc::new(vfs));
        s.retry.sleep = false;
        s
    }

    /// Storage over any [`Vfs`].
    pub fn with_vfs(vfs: Arc<dyn Vfs>) -> Self {
        Storage {
            vfs,
            retry: RetryPolicy::default(),
            obs: StorageObs::default(),
            backoff_us: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Re-bind the `storage.*` counters into `rec`.
    pub fn observe(&mut self, rec: &dyn Recorder) {
        self.obs = StorageObs::bind(rec);
    }

    /// The bound `storage.*` counters.
    pub fn obs(&self) -> &StorageObs {
        &self.obs
    }

    /// Backoff accumulated across every retry, microseconds (simulated
    /// when the policy does not sleep).
    pub fn backoff_total_us(&self) -> u64 {
        self.backoff_us.load(Ordering::Relaxed)
    }

    /// Record (and, per policy, sleep) the backoff before retry
    /// `attempt + 1` — the prober's capped-exponential shape.
    pub fn backoff(&self, attempt: u32) {
        let wait = probe::backoff_delay(self.retry.base_us, self.retry.cap_us, attempt + 1);
        self.backoff_us.fetch_add(wait, Ordering::Relaxed);
        if self.retry.sleep {
            std::thread::sleep(Duration::from_micros(wait));
        }
    }

    /// Run `f` under the bounded-retry policy: transient failures are
    /// retried with capped-exponential backoff, anything else (or an
    /// exhausted budget) returns the classified [`StorageError`].
    pub fn retried<T>(
        &self,
        op: &'static str,
        path: &Path,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, StorageError> {
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    let se = StorageError::classify(op, path, &e, attempt);
                    self.obs.faults_seen.inc();
                    if se.kind != StorageErrorKind::Transient
                        || attempt + 1 >= self.retry.attempts.max(1)
                    {
                        return Err(se);
                    }
                    self.obs.retried.inc();
                    self.backoff(attempt);
                    attempt += 1;
                }
            }
        }
    }

    /// `create_dir_all`, retried.
    pub fn create_dir_all(&self, path: &Path) -> Result<(), StorageError> {
        self.retried("mkdir", path, || self.vfs.create_dir_all(path))
    }

    /// Open for appending, retried.
    pub fn open_write(
        &self,
        path: &Path,
        truncate: bool,
    ) -> Result<Box<dyn VfsFile>, StorageError> {
        self.retried("open", path, || self.vfs.open_write(path, truncate))
    }

    /// Whole-file read, retried (`NotFound` returns immediately).
    pub fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        self.retried("read", path, || self.vfs.read(path))
    }

    /// Whole-file write, retried.
    pub fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.retried("write", path, || self.vfs.write(path, bytes))
    }

    /// Rename, retried.
    pub fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.retried("rename", to, || self.vfs.rename(from, to))
    }
}

/// Corpus regeneration through this storage handle, so `ChaosVfs`
/// schedules cover `hobbit-conform --regen`'s atomic saves too.
impl testkit::CorpusStore for Storage {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        Storage::write(self, path, bytes).map_err(io::Error::other)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        Storage::rename(self, from, to).map_err(io::Error::other)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hobbit-vfs-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn real_vfs_roundtrips_and_lists() {
        let dir = tmpdir("real");
        let s = Storage::real();
        let p = dir.join("x.txt");
        s.write(&p, b"hello").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"hello");
        let mut f = s.open_write(&p, false).unwrap();
        f.append(b" world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), 11);
        drop(f);
        assert_eq!(s.read(&p).unwrap(), b"hello world");
        assert!(RealVfs.exists(&p));
        assert!(RealVfs.mtime(&p).is_ok());
        assert_eq!(RealVfs.list_dir(&dir).unwrap(), vec![p.clone()]);
        RealVfs.remove_file(&p).unwrap();
        assert!(!RealVfs.exists(&p));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let draws = |seed| {
            let v = ChaosVfs::seeded(seed, 0.3);
            (0..200)
                .map(|_| v.core.draw(OpKind::Write))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        let fired = draws(7).iter().filter(|d| d.is_some()).count();
        assert!((20..120).contains(&fired), "rate wildly off: {fired}/200");
    }

    #[test]
    fn scripted_short_write_persists_a_prefix_and_retry_heals() {
        let dir = tmpdir("short");
        let p = dir.join("f");
        let s = Storage::with_chaos(ChaosVfs::scripted(vec![(
            OpKind::Write,
            0,
            FaultKind::ShortWrite,
        )]));
        let mut f = s.open_write(&p, true).unwrap();
        let err = f.append(b"0123456789").unwrap_err();
        assert_eq!(err.raw_os_error(), Some(EIO));
        assert_eq!(f.len().unwrap(), 5, "exactly the prefix persisted");
        f.truncate(0).unwrap();
        f.append(b"0123456789").unwrap();
        assert_eq!(f.len().unwrap(), 10);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_lie_loses_everything_since_the_last_real_sync() {
        let dir = tmpdir("lie");
        let p = dir.join("f");
        let s = Storage::with_chaos(ChaosVfs::scripted(vec![(
            OpKind::Sync,
            1,
            FaultKind::FsyncLie,
        )]));
        let mut f = s.open_write(&p, true).unwrap();
        f.append(b"AAAA").unwrap();
        f.sync().unwrap(); // real: 4 bytes durable
        f.append(b"BBBB").unwrap();
        f.sync().unwrap(); // lie: reports Ok, drops the B batch
        f.append(b"CCCC").unwrap();
        f.sync().unwrap(); // real again
        drop(f);
        assert_eq!(s.read(&p).unwrap(), b"AAAACCCC");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_is_persistent_and_classified() {
        let dir = tmpdir("full");
        let s = Storage::with_chaos(ChaosVfs::scripted(vec![(
            OpKind::Write,
            2,
            FaultKind::Enospc,
        )]));
        let p = dir.join("f");
        s.write(&p, b"a").unwrap();
        s.write(&p, b"b").unwrap();
        let err = s.write(&p, b"c").unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Persistent);
        // The disk stays full: every later write fails without a draw.
        let err = s.write(&p, b"d").unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Persistent);
        assert_eq!(err.retries, 0, "persistent faults are not retried");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn transient_faults_retry_with_the_prober_backoff_shape() {
        let dir = tmpdir("retry");
        let p = dir.join("f");
        let s = Storage::with_chaos(ChaosVfs::scripted(vec![
            (OpKind::Write, 0, FaultKind::Eio),
            (OpKind::Write, 1, FaultKind::Eio),
        ]));
        s.write(&p, b"ok").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"ok");
        // Two retries: 100ms + 200ms of (simulated) backoff.
        assert_eq!(s.backoff_total_us(), 100_000 + 200_000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn exhausted_retries_surface_a_typed_transient_error() {
        let dir = tmpdir("exhaust");
        let p = dir.join("f");
        let faults = (0..10)
            .map(|i| (OpKind::Write, i, FaultKind::Eio))
            .collect();
        let s = Storage::with_chaos(ChaosVfs::scripted(faults));
        let err = s.write(&p, b"never").unwrap_err();
        assert_eq!(err.kind, StorageErrorKind::Transient);
        assert_eq!(err.retries as u64 + 1, s.retry.attempts as u64);
        assert!(err.to_string().contains("retries exhausted"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_persistent_not_found_without_retries() {
        let s = Storage::chaos(1, 0.0);
        let err = s.read(Path::new("/nonexistent/x")).unwrap_err();
        assert!(err.is_not_found());
        assert_eq!(err.kind, StorageErrorKind::Persistent);
        assert_eq!(err.retries, 0);
    }
}
