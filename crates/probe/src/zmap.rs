//! Internet-wide ICMP echo scan, modeled on the ZMap dataset the paper
//! bootstraps from (scans.io "FULL IPv4 ICMP Echo Request").
//!
//! The scan enumerates every address of every allocated /24 at the snapshot
//! epoch and records which answered. Hobbit later probes at a *different*
//! epoch, so some snapshot-active addresses will have gone quiet (paper
//! footnote 2) — the scan result is a dataset, not an oracle.

use crate::prober::{ProbeReply, Prober};
use netsim::{Addr, Block24, Network};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The snapshot of responsive addresses, grouped by /24.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ZmapSnapshot {
    /// Per-block sorted lists of addresses that replied.
    pub active: BTreeMap<Block24, Vec<Addr>>,
    /// Epoch the scan ran at.
    pub epoch: u32,
    /// Probes spent on the scan.
    pub probes: u64,
}

impl ZmapSnapshot {
    /// Addresses recorded active within `block` (empty slice if none).
    pub fn active_in(&self, block: Block24) -> &[Addr] {
        self.active.get(&block).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of active addresses across all blocks.
    pub fn total_active(&self) -> usize {
        self.active.values().map(Vec::len).sum()
    }

    /// Blocks with at least one active address, in numeric order.
    pub fn blocks(&self) -> impl Iterator<Item = Block24> + '_ {
        self.active.keys().copied()
    }
}

/// ICMP ident the scanner stamps on its probes.
const SCAN_IDENT: u16 = 0x5CA0;

/// Addresses probed per /24 (hosts 1..=254).
const HOSTS_PER_BLOCK: usize = 254;

/// Blocks a scan worker claims at a time from the shared cursor.
const CHUNK_BLOCKS: usize = 32;

/// Scan every address of the given blocks at the snapshot epoch (0),
/// restoring the network's current epoch afterwards, on all cores.
///
/// Uses a single probe per address (ZMap is one-shot), TTL 64.
pub fn scan(net: &mut Network, blocks: &[Block24]) -> ZmapSnapshot {
    scan_threaded(net, blocks, 0)
}

/// Scan all allocated blocks of the network, on all cores.
pub fn scan_all(net: &mut Network) -> ZmapSnapshot {
    let blocks = net.allocated_blocks();
    scan(net, &blocks)
}

/// [`scan`] on `threads` worker threads (0 = all cores).
///
/// Workers claim contiguous chunks of `blocks` from an atomic cursor and
/// probe them over the shared network. The result does not depend on
/// `threads`: each chunk's prober starts at the sequence and IP-ident
/// counters a serial scan would have reached there, so every probe carries
/// the bytes it would carry in a serial scan; and the network state a probe
/// can meet (token buckets and virtual clocks keyed by `(ident, dst /24)`,
/// the warm-up set keyed by address) belongs to one /24, which one worker
/// scans in host order.
pub fn scan_threaded(net: &mut Network, blocks: &[Block24], threads: usize) -> ZmapSnapshot {
    let saved_epoch = net.epoch();
    net.set_epoch(0);
    let mut snapshot = scan_shared(net, blocks, threads);
    snapshot.epoch = 0;
    net.set_epoch(saved_epoch);
    snapshot
}

/// The scan proper, over a network already at the snapshot epoch.
fn scan_shared(net: &Network, blocks: &[Block24], threads: usize) -> ZmapSnapshot {
    let chunks = blocks.len().div_ceil(CHUNK_BLOCKS);
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        threads
    }
    .clamp(1, chunks.max(1));
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut hits = Vec::new();
        let mut probes = 0;
        loop {
            let first = cursor.fetch_add(1, Ordering::Relaxed) * CHUNK_BLOCKS;
            if first >= blocks.len() {
                break;
            }
            let chunk = &blocks[first..(first + CHUNK_BLOCKS).min(blocks.len())];
            let mut prober = Prober::over(net, SCAN_IDENT);
            prober.retries = 0;
            // Truncation is the point: a serial prober's u16 counters wrap.
            prober.set_counters((first * HOSTS_PER_BLOCK) as u16);
            for &block in chunk {
                let active: Vec<Addr> = (1u8..=254)
                    .map(|host| block.addr(host))
                    .filter(|&dst| {
                        matches!(prober.probe(dst, 64, 0).reply,
                                 ProbeReply::Echo { from, .. } if from == dst)
                    })
                    .collect();
                if !active.is_empty() {
                    hits.push((block, active));
                }
            }
            probes += prober.probes_sent();
        }
        (hits, probes)
    };
    let mut snapshot = ZmapSnapshot::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for w in workers {
            let (hits, probes) = w.join().expect("scan worker panicked");
            snapshot.active.extend(hits);
            snapshot.probes += probes;
        }
    });
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};

    #[test]
    fn scan_matches_oracle_at_snapshot_epoch() {
        let mut s = build(ScenarioConfig::tiny(42));
        let blocks: Vec<Block24> = s.network.allocated_blocks().into_iter().take(10).collect();
        let snap = scan(&mut s.network, &blocks);
        for &b in &blocks {
            let profile = *s.network.block_profile(b).unwrap();
            let expect = s.network.oracle().active_in_block(b, &profile, 0);
            assert_eq!(snap.active_in(b), expect.as_slice(), "block {b}");
        }
        assert_eq!(snap.probes, blocks.len() as u64 * 254);
    }

    #[test]
    fn scan_restores_epoch() {
        let mut s = build(ScenarioConfig::tiny(42));
        s.network.set_epoch(3);
        let blocks = vec![s.network.allocated_blocks()[0]];
        let _ = scan(&mut s.network, &blocks);
        assert_eq!(s.network.epoch(), 3);
    }

    #[test]
    fn total_active_sums_blocks() {
        let mut s = build(ScenarioConfig::tiny(42));
        let blocks: Vec<Block24> = s.network.allocated_blocks().into_iter().take(5).collect();
        let snap = scan(&mut s.network, &blocks);
        let sum: usize = blocks.iter().map(|b| snap.active_in(*b).len()).sum();
        assert_eq!(snap.total_active(), sum);
    }
}
