//! # experiments — regenerating every table and figure of the paper
//!
//! Each table/figure has a module with a `run(&ExpArgs) -> Report`
//! function and a thin binary wrapper (`cargo run -p experiments --release
//! --bin table1`, etc.). All binaries accept `--seed`, `--scale` (1.0 =
//! paper-size scenario) and `--json`.
//!
//! The shared [`pipeline`] performs the paper's measurement sequence once:
//! ZMap scan → selection → confidence calibration → per-/24
//! classification; the experiment modules post-process its outputs.

#![warn(missing_docs)]

pub mod args;
pub mod journal;
pub mod pipeline;
pub mod report;
pub mod supervise;
pub mod vfs;

pub mod exps;

pub use args::ExpArgs;
pub use journal::{CrashPoint, JournalWriter, RunMeta, JOURNAL_SCHEMA};
pub use pipeline::{classify_blocks, Pipeline, PipelineBuilder, WorkerStats, EXIT_STORAGE};
pub use report::Report;
pub use supervise::{
    FaultInjector, InjectedFault, QuarantineReason, QuarantinedBlock, ShutdownSignal,
    SuperviseConfig, SuperviseReport,
};
pub use vfs::{
    ChaosVfs, FaultKind, OpKind, RealVfs, RetryPolicy, Storage, StorageError, StorageErrorKind,
    StorageObs, Vfs, VfsFile,
};
