//! Engine-agnostic storage-sabotage plans, the disk-side sibling of
//! [`crate::crash::CrashPlan`].
//!
//! A plan describes *what the filesystem does to the run*, not how the
//! engine reacts: a seeded per-operation fault schedule, or one targeted
//! fault at a specific operation. The experiments crate's `ChaosVfs`
//! consumes these plans and injects the faults underneath the journal and
//! the corpus saves; the chaos sweep in
//! `tests/storage_chaos.rs` then asserts the hard invariant that every
//! sabotaged run either produces a byte-identical `hobbit-report/v1` or
//! fails with a typed, actionable `StorageError` — never a silently
//! corrupted run dir.

/// One storage-sabotage plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StorageSabotage {
    /// A seeded fault schedule: every filesystem operation independently
    /// fails with probability `rate`, the fault kind drawn deterministically
    /// from (seed, operation index). This is the sweep workhorse — the same
    /// seed always yields the same schedule for the same operation stream.
    Schedule {
        /// Schedule seed.
        seed: u64,
        /// Per-operation fault probability in `[0, 1]`.
        rate: f64,
    },
    /// The disk fills at the nth write-like operation and stays full — the
    /// canonical *persistent* fault (degraded-mode path).
    DiskFull {
        /// Zero-based index among write operations.
        at_write: u64,
    },
    /// The nth write fails with EIO — the canonical *transient* fault
    /// (bounded-retry path).
    FlakyWrite {
        /// Zero-based index among write operations.
        at_write: u64,
    },
    /// The nth write persists only a prefix of its bytes, then errors.
    ShortWrite {
        /// Zero-based index among write operations.
        at_write: u64,
    },
    /// The nth fsync reports success but durably loses everything since
    /// the previous real sync.
    FsyncLie {
        /// Zero-based index among sync operations.
        at_sync: u64,
    },
    /// The nth rename tears: depending on the plan's parity, either the
    /// target never appears or the source lingers next to a complete copy.
    TornRename {
        /// Zero-based index among rename operations.
        at_rename: u64,
    },
}

/// The seeded schedules of the standard chaos sweep: `n` distinct seeds at
/// rates cycling through light, moderate, and hostile fault densities. The
/// seeds are arbitrary but fixed — the sweep must be reproducible from the
/// test name alone.
pub fn storage_schedules(n: usize) -> Vec<StorageSabotage> {
    const RATES: &[f64] = &[0.002, 0.01, 0.05];
    (0..n)
        .map(|i| StorageSabotage::Schedule {
            seed: 0x57A6_E000 + i as u64,
            rate: RATES[i % RATES.len()],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_distinct_and_reproducible() {
        let a = storage_schedules(30);
        let b = storage_schedules(30);
        assert_eq!(a, b);
        assert_eq!(a.len(), 30);
        for w in a.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        // Every rate tier appears.
        let rates: Vec<f64> = a
            .iter()
            .map(|s| match s {
                StorageSabotage::Schedule { rate, .. } => *rate,
                other => panic!("sweep schedules are seeded: {other:?}"),
            })
            .collect();
        for r in [0.002, 0.01, 0.05] {
            assert!(rates.contains(&r));
        }
    }
}
