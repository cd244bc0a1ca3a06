//! Route tables with longest-prefix-match lookup and ECMP next-hop groups.
//!
//! Route entries are the heart of the paper's argument: entries for distinct
//! destination networks never partially overlap — every pair is either
//! disjoint or nested — so genuinely *heterogeneous* address groups inherit
//! that hierarchy, while load-balanced groups need not (Section 2.3).
//! The table enforces the prefix discipline; the ECMP groups produce the
//! load-balanced path diversity Hobbit must see through.

use crate::addr::{Addr, Prefix};
use crate::hash::{mix2, mix3};
use serde::{Deserialize, Serialize};

/// Identifies a router in the simulated internet.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RouterId(pub u32);

/// Where a matched route entry sends the packet.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum NextHop {
    /// Forward to another router.
    Router(RouterId),
    /// The destination subnet is directly attached: deliver to the host.
    /// The router holding this entry is the destination's *last-hop router*.
    Deliver,
}

/// How an ECMP group spreads traffic over its next hops.
///
/// Mirrors the three flavours the paper distinguishes (Section 2):
/// per-flow (Paris-traceroute's target), per-destination (the confounder
/// Hobbit is built to handle), and per-packet (rare; included for
/// completeness and failure-injection tests).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Hash over (src, dst, protocol, first 4 bytes of transport header) —
    /// for ICMP, the type/code/checksum words, so Paris probes with a fixed
    /// checksum stick to one path.
    PerFlow,
    /// Hash over the destination address only.
    PerDestination,
    /// Hash over source and destination addresses. Some routers include the
    /// source (paper Section 6.1 cites Cisco CEF); for a fixed vantage point
    /// this behaves like `PerDestination`, but reprobing from a different
    /// source would see different paths.
    PerSrcDest,
    /// A fresh choice for every packet (hashes the IP ident field).
    PerPacket,
}

/// The fields of a probe that load balancers may hash.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowKey {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// For ICMP: the checksum word a per-flow balancer hashes.
    pub flow_label: u16,
    /// IP identification field; only `PerPacket` policies consume it.
    pub ip_ident: u16,
}

/// An ECMP next-hop group: one or more next hops plus the hash policy that
/// selects among them.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct NextHopGroup {
    hops: Vec<NextHop>,
    policy: LbPolicy,
}

impl NextHopGroup {
    /// A single, non-load-balanced next hop.
    pub fn single(hop: NextHop) -> Self {
        NextHopGroup {
            hops: vec![hop],
            policy: LbPolicy::PerFlow,
        }
    }

    /// An ECMP group.
    ///
    /// # Panics
    /// Panics if `hops` is empty.
    pub fn ecmp(hops: Vec<NextHop>, policy: LbPolicy) -> Self {
        assert!(!hops.is_empty(), "ECMP group must have at least one hop");
        NextHopGroup { hops, policy }
    }

    /// The hops in the group.
    pub fn hops(&self) -> &[NextHop] {
        &self.hops
    }

    /// The policy used to select a hop.
    pub fn policy(&self) -> LbPolicy {
        self.policy
    }

    /// Select the next hop for a flow. `salt` is per-router so distinct
    /// routers make independent choices for the same flow.
    pub fn select(&self, key: &FlowKey, salt: u64) -> NextHop {
        self.select_among(key, salt, self.hops.len())
    }

    /// [`NextHopGroup::select`] restricted to the group's first `width` next
    /// hops (clamped to `1..=hops.len()`). The dynamics layer models
    /// load-balancer reconfiguration — narrowing, collapsing, or re-widening
    /// an ECMP fan mid-campaign — through this clamp, without ever mutating
    /// a route table (tables stay immutable once probing starts).
    pub fn select_among(&self, key: &FlowKey, salt: u64, width: usize) -> NextHop {
        let n = width.clamp(1, self.hops.len());
        if n == 1 {
            return self.hops[0];
        }
        let h = match self.policy {
            LbPolicy::PerFlow => mix3(
                salt,
                ((key.src.0 as u64) << 32) | key.dst.0 as u64,
                ((key.protocol as u64) << 16) | key.flow_label as u64,
            ),
            LbPolicy::PerDestination => mix2(salt, key.dst.0 as u64),
            LbPolicy::PerSrcDest => mix2(salt, ((key.src.0 as u64) << 32) | key.dst.0 as u64),
            LbPolicy::PerPacket => mix3(
                salt,
                ((key.src.0 as u64) << 32) | key.dst.0 as u64,
                key.ip_ident as u64,
            ),
        };
        self.hops[crate::hash::pick(h, n)]
    }
}

/// A routing table: a set of (prefix → next-hop group) entries with
/// longest-prefix-match lookup, stored in a binary trie.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RouteTable {
    nodes: Vec<TrieNode>,
    /// Parallel list of entries for iteration/inspection.
    entries: Vec<(Prefix, NextHopGroup)>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
struct TrieNode {
    children: [Option<u32>; 2],
    /// Index into `entries` if a route terminates here.
    entry: Option<u32>,
}

impl TrieNode {
    fn new() -> Self {
        TrieNode {
            children: [None, None],
            entry: None,
        }
    }
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> Self {
        RouteTable {
            nodes: vec![TrieNode::new()],
            entries: Vec::new(),
        }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install a route. A second insert for the same prefix replaces the
    /// earlier group (like a route update).
    pub fn insert(&mut self, prefix: Prefix, group: NextHopGroup) {
        let mut node = 0usize;
        for depth in 0..prefix.len() {
            let bit = ((prefix.base().0 >> (31 - depth)) & 1) as usize;
            node = match self.nodes[node].children[bit] {
                Some(n) => n as usize,
                None => {
                    let n = self.nodes.len();
                    self.nodes.push(TrieNode::new());
                    self.nodes[node].children[bit] = Some(n as u32);
                    n
                }
            };
        }
        match self.nodes[node].entry {
            Some(i) => self.entries[i as usize] = (prefix, group),
            None => {
                self.nodes[node].entry = Some(self.entries.len() as u32);
                self.entries.push((prefix, group));
            }
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Addr) -> Option<(Prefix, &NextHopGroup)> {
        self.lookup_index(dst).map(|i| self.entry(i))
    }

    /// Longest-prefix match by trie descent: the matching entry's index in
    /// [`RouteTable::iter`] order.
    fn lookup_index(&self, dst: Addr) -> Option<usize> {
        let mut node = 0usize;
        let mut best = self.nodes[0].entry;
        for depth in 0..32 {
            let bit = ((dst.0 >> (31 - depth)) & 1) as usize;
            match self.nodes[node].children[bit] {
                Some(n) => {
                    node = n as usize;
                    if let Some(e) = self.nodes[node].entry {
                        best = Some(e);
                    }
                }
                None => break,
            }
        }
        best.map(|i| i as usize)
    }

    /// The entry at `index` in [`RouteTable::iter`] order.
    ///
    /// # Panics
    /// Panics if `index >= self.len()`.
    pub fn entry(&self, index: usize) -> (Prefix, &NextHopGroup) {
        let (p, ref g) = self.entries[index];
        (p, g)
    }

    /// Compile the table into a [`FlatTable`]: the address space cut at
    /// every prefix boundary, each piece labelled with its longest match.
    ///
    /// No prefix starts or ends strictly inside a piece, so one trie lookup
    /// at a piece's first address answers for the whole piece. Adjacent
    /// pieces with the same answer are merged.
    pub fn flatten(&self) -> FlatTable {
        let mut bounds = Vec::with_capacity(2 * self.entries.len() + 1);
        bounds.push(0u32);
        for (p, _) in &self.entries {
            bounds.push(p.first().0);
            if let Some(after) = p.last().0.checked_add(1) {
                bounds.push(after);
            }
        }
        bounds.sort_unstable();
        bounds.dedup();
        let mut intervals: Vec<(u32, u32)> = Vec::with_capacity(bounds.len());
        for start in bounds {
            let entry = self
                .lookup_index(Addr(start))
                .map_or(NO_ROUTE, |i| i as u32);
            if intervals.last().map(|&(_, e)| e) != Some(entry) {
                intervals.push((start, entry));
            }
        }
        FlatTable {
            intervals: intervals.into_boxed_slice(),
        }
    }

    /// Iterate over all installed entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &(Prefix, NextHopGroup)> {
        self.entries.iter()
    }

    /// Reference LPM by linear scan; used by property tests to cross-check
    /// the trie and the flat index.
    pub fn lookup_linear(&self, dst: Addr) -> Option<(Prefix, &NextHopGroup)> {
        self.entries
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .max_by_key(|(p, _)| p.len())
            .map(|(p, g)| (*p, g))
    }
}

/// Interval label for addresses no entry covers.
const NO_ROUTE: u32 = u32::MAX;

/// A [`RouteTable`] compiled for forwarding ([`RouteTable::flatten`]):
/// sorted, disjoint `(first address, entry index)` intervals covering the
/// whole address space, so longest-prefix match is one binary search
/// instead of a bit-by-bit trie descent.
///
/// The intervals are a snapshot: a later insert into the table is not
/// reflected until the table is flattened again.
#[derive(Clone, Debug)]
pub struct FlatTable {
    intervals: Box<[(u32, u32)]>,
}

impl FlatTable {
    /// Longest-prefix match: the matching entry's index in
    /// [`RouteTable::iter`] order (see [`RouteTable::entry`]).
    pub fn lookup(&self, dst: Addr) -> Option<usize> {
        // The first interval starts at address 0, so at least one start
        // is `<= dst` and the subtraction never wraps.
        let i = self.intervals.partition_point(|&(start, _)| start <= dst.0) - 1;
        match self.intervals[i].1 {
            NO_ROUTE => None,
            entry => Some(entry as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(n: u32) -> NextHop {
        NextHop::Router(RouterId(n))
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut t = RouteTable::new();
        t.insert("10.0.0.0/8".parse().unwrap(), NextHopGroup::single(hop(1)));
        t.insert("10.1.0.0/16".parse().unwrap(), NextHopGroup::single(hop(2)));
        t.insert("10.1.2.0/24".parse().unwrap(), NextHopGroup::single(hop(3)));

        let pick = |a: &str| {
            t.lookup(a.parse().unwrap())
                .map(|(_, g)| g.hops()[0])
                .unwrap()
        };
        assert_eq!(pick("10.9.9.9"), hop(1));
        assert_eq!(pick("10.1.9.9"), hop(2));
        assert_eq!(pick("10.1.2.9"), hop(3));
        assert!(t.lookup("11.0.0.0".parse().unwrap()).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = RouteTable::new();
        t.insert(Prefix::ALL, NextHopGroup::single(hop(9)));
        assert!(t.lookup(Addr::MIN).is_some());
        assert!(t.lookup(Addr::MAX).is_some());
    }

    #[test]
    fn insert_replaces_same_prefix() {
        let mut t = RouteTable::new();
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        t.insert(p, NextHopGroup::single(hop(1)));
        t.insert(p, NextHopGroup::single(hop(2)));
        assert_eq!(t.len(), 1);
        let (_, g) = t.lookup(Addr::new(192, 0, 2, 5)).unwrap();
        assert_eq!(g.hops()[0], hop(2));
    }

    fn key(dst: Addr, flow: u16, ident: u16) -> FlowKey {
        FlowKey {
            src: Addr::new(1, 1, 1, 1),
            dst,
            protocol: 1,
            flow_label: flow,
            ip_ident: ident,
        }
    }

    #[test]
    fn per_flow_stable_for_fixed_flow() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3)], LbPolicy::PerFlow);
        let k = key(Addr::new(2, 2, 2, 2), 0xAAAA, 0);
        let first = g.select(&k, 7);
        for ident in 0..64 {
            assert_eq!(g.select(&key(k.dst, 0xAAAA, ident), 7), first);
        }
    }

    #[test]
    fn per_flow_varies_with_flow_label() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3), hop(4)], LbPolicy::PerFlow);
        let dst = Addr::new(2, 2, 2, 2);
        let mut seen = std::collections::HashSet::new();
        for flow in 0..256u16 {
            seen.insert(g.select(&key(dst, flow, 0), 7));
        }
        assert_eq!(
            seen.len(),
            4,
            "varying the flow label should reach all hops"
        );
    }

    #[test]
    fn per_destination_ignores_flow_label() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let dst = Addr::new(3, 3, 3, 3);
        let first = g.select(&key(dst, 0, 0), 7);
        for flow in 0..128u16 {
            assert_eq!(g.select(&key(dst, flow, flow), 7), first);
        }
    }

    #[test]
    fn per_destination_varies_with_destination() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let mut seen = std::collections::HashSet::new();
        for d in 0..64u32 {
            seen.insert(g.select(&key(Addr(0x0a000000 + d), 0, 0), 7));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn per_packet_varies_with_ident() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerPacket);
        let dst = Addr::new(4, 4, 4, 4);
        let mut seen = std::collections::HashSet::new();
        for ident in 0..64u16 {
            seen.insert(g.select(&key(dst, 0, ident), 7));
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn salt_decorrelates_routers() {
        // Two routers with identical 2-way groups should not always agree;
        // otherwise multi-stage ECMP would not multiply path counts.
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2)], LbPolicy::PerDestination);
        let mut agree = 0;
        let n = 1000;
        for d in 0..n {
            let k = key(Addr(0x0B00_0000 + d), 0, 0);
            if g.select(&k, 1) == g.select(&k, 2) {
                agree += 1;
            }
        }
        assert!(
            (350..650).contains(&agree),
            "agreement {agree}/{n} not ~half"
        );
    }

    #[test]
    fn select_among_clamps_and_matches_full_width() {
        let g = NextHopGroup::ecmp(vec![hop(1), hop(2), hop(3)], LbPolicy::PerDestination);
        for d in 0..64u32 {
            let k = key(Addr(0x0a00_0000 + d), 0, 0);
            assert_eq!(g.select_among(&k, 7, 3), g.select(&k, 7));
            assert_eq!(g.select_among(&k, 7, 1), hop(1));
            assert_eq!(g.select_among(&k, 7, 0), hop(1), "width 0 clamps to 1");
            assert!([hop(1), hop(2)].contains(&g.select_among(&k, 7, 2)));
            assert_eq!(g.select_among(&k, 7, 9), g.select(&k, 7), "clamps to len");
        }
    }

    #[test]
    fn single_hop_group_ignores_everything() {
        let g = NextHopGroup::single(NextHop::Deliver);
        let k = key(Addr::new(5, 5, 5, 5), 9, 9);
        assert_eq!(g.select(&k, 1), NextHop::Deliver);
    }
}
