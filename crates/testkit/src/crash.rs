//! Crash harness vocabulary: plans for killing, sabotaging, and resuming
//! checkpointed pipeline runs.
//!
//! The harness stays independent of `experiments` (which depends on this
//! crate), so a [`CrashPlan`] describes failures in engine-agnostic terms —
//! journal append counts, worker/task coordinates — and the pipeline's
//! test suite maps them onto its own crash points and fault injectors.
//! What the harness *checks* is uniform: after any kill→resume cycle the
//! final canonical report must be byte-identical to an uninterrupted
//! run's, at every thread count ([`first_divergence`] pinpoints failures).

use serde::{Deserialize, Serialize};

/// One failure to inject into a checkpointed run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPlan {
    /// Kill the process once `appends` block records have been journaled.
    /// With `torn`, the kill happens mid-append, leaving a partial record
    /// the journal reader must drop.
    KillAfterAppends {
        /// Block records journaled before the kill.
        appends: u64,
        /// Leave a torn (partial) record at the tail.
        torn: bool,
    },
    /// Worker `worker` panics when it picks up task `task` (first attempt
    /// only, so the requeue path is exercised and the block still lands).
    PanicOnce {
        /// Sabotaged worker index.
        worker: usize,
        /// Sabotaged task (selection-order index).
        task: usize,
    },
    /// Every attempt at task `task` panics, driving it to quarantine.
    PanicAlways {
        /// Sabotaged task (selection-order index).
        task: usize,
    },
    /// Task `task` stalls past its deadline on the first attempt; the
    /// watchdog must cancel it and the requeue must succeed.
    StallOnce {
        /// Sabotaged task (selection-order index).
        task: usize,
    },
}

/// The kill points worth sweeping for a run of `total_blocks` checkpointed
/// blocks: before any block lands, after the first, mid-run, at the
/// penultimate block, and past the end (no kill fires — the degenerate
/// control). Sorted, deduplicated.
pub fn kill_points(total_blocks: u64) -> Vec<u64> {
    let mut pts = vec![
        0,
        1,
        total_blocks / 3,
        total_blocks / 2,
        total_blocks.saturating_sub(1),
    ];
    pts.sort_unstable();
    pts.dedup();
    pts
}

/// First byte offset where two reports diverge, with a short context
/// window around it from each side — the failure message a byte-identity
/// assertion wants. `None` when the strings are identical.
pub fn first_divergence(a: &str, b: &str) -> Option<(usize, String)> {
    if a == b {
        return None;
    }
    let pos = a
        .bytes()
        .zip(b.bytes())
        .position(|(x, y)| x != y)
        .unwrap_or(a.len().min(b.len()));
    let ctx = |s: &str| {
        let start = pos.saturating_sub(40);
        let end = (pos + 40).min(s.len());
        // Snap to char boundaries so slicing can't panic on UTF-8.
        let start = (0..=start)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        let end = (end..=s.len())
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(s.len());
        s[start..end].to_string()
    };
    Some((
        pos,
        format!("byte {pos}: ...{:?}... vs ...{:?}...", ctx(a), ctx(b)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_points_cover_edges_and_middle() {
        assert_eq!(kill_points(10), vec![0, 1, 3, 5, 9]);
        assert_eq!(kill_points(2), vec![0, 1]);
        assert_eq!(kill_points(0), vec![0, 1]);
    }

    #[test]
    fn first_divergence_finds_the_byte() {
        assert_eq!(first_divergence("abc", "abc"), None);
        let (pos, msg) = first_divergence("abcdef", "abcXef").unwrap();
        assert_eq!(pos, 3);
        assert!(msg.contains("byte 3"), "{msg}");
        // Prefix case: divergence at the shorter length.
        let (pos, _) = first_divergence("abc", "abcdef").unwrap();
        assert_eq!(pos, 3);
    }

    #[test]
    fn crash_plan_roundtrips_through_json() {
        let plans = [
            CrashPlan::KillAfterAppends {
                appends: 7,
                torn: true,
            },
            CrashPlan::PanicOnce { worker: 1, task: 9 },
            CrashPlan::PanicAlways { task: 3 },
            CrashPlan::StallOnce { task: 0 },
        ];
        for p in plans {
            let s = serde_json::to_string(&p).unwrap();
            let back: CrashPlan = serde_json::from_str(&s).unwrap();
            assert_eq!(back, p);
        }
    }
}
