//! Routers and the `Network` container.
//!
//! A `Network` is a set of routers (each with a route table and an ECMP
//! salt), a vantage point, and the per-/24 host profiles. The forwarding
//! logic lives in [`crate::forward`]; scenario construction in
//! [`crate::build`].

use crate::addr::{Addr, Block24};
use crate::concurrent::WarmedSet;
use crate::dynamics::{DynamicsConfig, DynamicsCounters, DynamicsEvent, VirtualClock};
use crate::fault::{FaultConfig, FaultCounters, NetworkStats, TokenBuckets};
use crate::hash::mix2;
use crate::host::{HostOracle, HostProfile};
use crate::route::{FlatTable, NextHop, NextHopGroup, RouteTable, RouterId};
use crate::rtt::RttModel;
use obs::{Counter, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A router in the simulated internet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Router {
    /// The router's identity.
    pub id: RouterId,
    /// The interface address it sources ICMP errors from. Routers that
    /// appear multiple times on parallel paths have distinct addresses, so a
    /// traceroute can tell them apart — that is all Hobbit observes.
    pub addr: Addr,
    /// Whether the router answers TTL-exceeded at all. Anonymous routers
    /// show up as `*` in traceroutes.
    pub responsive: bool,
    /// Probability that an individual ICMP error is suppressed
    /// (rate limiting). Deterministic per probe.
    pub icmp_loss: f32,
    /// A second interface address some routers alternate their ICMP errors
    /// from (a classic traceroute artifact: the reply interface depends on
    /// internal load balancing). Inflates entire-traceroute cardinality
    /// without affecting which *router* serves a destination.
    pub alt_addr: Option<Addr>,
    /// The router's forwarding table.
    pub table: RouteTable,
}

impl Router {
    /// A responsive router with an empty table and no rate limiting.
    pub fn new(id: RouterId, addr: Addr) -> Self {
        Router {
            id,
            addr,
            responsive: true,
            icmp_loss: 0.0,
            alt_addr: None,
            table: RouteTable::new(),
        }
    }
}

/// The simulated internet.
///
/// Topology, oracles, and RTT models are immutable once a scenario is
/// built; the only state that mutates per probe — the carried-probe
/// counter and the cellular warm-up set — lives behind interior
/// mutability, so [`Network::send`](crate::forward) takes `&self` and the
/// network is `Sync`: any number of worker threads may probe one shared
/// instance (see [`crate::concurrent`]).
#[derive(Debug)]
pub struct Network {
    pub(crate) routers: Vec<Router>,
    /// Every router's table compiled for forwarding, indexed by router id.
    /// Built on the first probe ([`Network::lpm_index`]) so building a
    /// world pays nothing for it; every way to edit a table drops it.
    lpm: OnceLock<Vec<FlatTable>>,
    pub(crate) vantage_addr: Addr,
    pub(crate) vantage_router: RouterId,
    /// Additional vantage points (source address → first-hop router).
    /// Reprobing from another vantage reveals paths chosen by balancers
    /// that hash the source address (paper Section 6.1).
    pub(crate) extra_vantages: Vec<(Addr, RouterId)>,
    pub(crate) blocks: HashMap<Block24, HostProfile>,
    pub(crate) oracle: HostOracle,
    pub(crate) rtt: RttModel,
    pub(crate) seed: u64,
    /// Current measurement epoch; 0 is the ZMap snapshot.
    pub(crate) epoch: u32,
    /// Cellular radio state: addresses that have been woken by a probe.
    pub(crate) warmed: WarmedSet,
    /// Total probe packets the network has carried (cost accounting).
    pub(crate) probes_carried: Counter,
    /// Fault-injection knobs (inactive by default).
    pub(crate) faults: FaultConfig,
    /// Per-stream ICMP rate-limit buckets (used when faults enable them).
    pub(crate) buckets: TokenBuckets,
    /// Drop accounting for the fault layer.
    pub(crate) fault_counters: FaultCounters,
    /// Time-evolving dynamics: event schedule + netem (inactive by default).
    pub(crate) dynamics: DynamicsConfig,
    /// `dynamics.events` indexed by router id for O(1) per-hop lookup.
    pub(crate) dyn_events: HashMap<u32, Vec<DynamicsEvent>>,
    /// Per-stream virtual probe-count clocks driving the event schedule.
    pub(crate) vclock: VirtualClock,
    /// Applied-dynamics accounting.
    pub(crate) dyn_counters: DynamicsCounters,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            routers: self.routers.clone(),
            lpm: self.lpm.clone(),
            vantage_addr: self.vantage_addr,
            vantage_router: self.vantage_router,
            extra_vantages: self.extra_vantages.clone(),
            blocks: self.blocks.clone(),
            oracle: self.oracle,
            rtt: self.rtt,
            seed: self.seed,
            epoch: self.epoch,
            warmed: self.warmed.clone(),
            probes_carried: self.probes_carried.fork(),
            faults: self.faults,
            buckets: self.buckets.clone(),
            fault_counters: self.fault_counters.clone(),
            dynamics: self.dynamics.clone(),
            dyn_events: self.dyn_events.clone(),
            vclock: self.vclock.clone(),
            dyn_counters: self.dyn_counters.clone(),
        }
    }
}

impl Network {
    /// Create an empty network with a vantage point attached to a first
    /// router that must be added as router 0.
    pub fn new(seed: u64, vantage_addr: Addr) -> Self {
        Network {
            routers: Vec::new(),
            lpm: OnceLock::new(),
            vantage_addr,
            vantage_router: RouterId(0),
            extra_vantages: Vec::new(),
            blocks: HashMap::new(),
            oracle: HostOracle::new(seed),
            rtt: RttModel::new(seed),
            seed,
            epoch: 1,
            warmed: WarmedSet::new(),
            probes_carried: Counter::new(),
            faults: FaultConfig::none(),
            buckets: TokenBuckets::new(),
            fault_counters: FaultCounters::default(),
            dynamics: DynamicsConfig::none(),
            dyn_events: HashMap::new(),
            vclock: VirtualClock::new(),
            dyn_counters: DynamicsCounters::default(),
        }
    }

    /// Add a router and return its id. Ids are assigned densely in order.
    pub fn add_router(&mut self, addr: Addr) -> RouterId {
        self.lpm.take();
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router::new(id, addr));
        id
    }

    /// Mutable access to a router (to install routes or toggle flags).
    pub fn router_mut(&mut self, id: RouterId) -> &mut Router {
        self.lpm.take();
        &mut self.routers[id.0 as usize]
    }

    /// Shared access to a router.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.0 as usize]
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Install a route at a router.
    pub fn install_route(
        &mut self,
        at: RouterId,
        prefix: crate::addr::Prefix,
        group: NextHopGroup,
    ) {
        self.router_mut(at).table.insert(prefix, group);
    }

    /// Declare the host population of a /24 block.
    pub fn set_block_profile(&mut self, block: Block24, profile: HostProfile) {
        self.blocks.insert(block, profile);
    }

    /// The host profile of a block, if any hosts were allocated there.
    pub fn block_profile(&self, block: Block24) -> Option<&HostProfile> {
        self.blocks.get(&block)
    }

    /// All blocks that have host allocations, in numeric order.
    pub fn allocated_blocks(&self) -> Vec<Block24> {
        let mut v: Vec<Block24> = self.blocks.keys().copied().collect();
        v.sort();
        v
    }

    /// The primary vantage point's source address.
    pub fn vantage_addr(&self) -> Addr {
        self.vantage_addr
    }

    /// Register an additional vantage point: probes sourced from `addr`
    /// enter the network at `first_hop`. Returns the vantage's address for
    /// symmetry with [`Network::vantage_addr`].
    pub fn add_vantage(&mut self, addr: Addr, first_hop: RouterId) -> Addr {
        assert!(
            (first_hop.0 as usize) < self.routers.len(),
            "first-hop router must exist"
        );
        self.extra_vantages.push((addr, first_hop));
        addr
    }

    /// All vantage addresses (primary first).
    pub fn vantages(&self) -> Vec<Addr> {
        let mut v = vec![self.vantage_addr];
        v.extend(self.extra_vantages.iter().map(|&(a, _)| a));
        v
    }

    /// The first-hop router for a probe sourced at `src`, if `src` is a
    /// registered vantage.
    pub(crate) fn vantage_router_for(&self, src: Addr) -> Option<RouterId> {
        if src == self.vantage_addr {
            return Some(self.vantage_router);
        }
        self.extra_vantages
            .iter()
            .find(|&&(a, _)| a == src)
            .map(|&(_, r)| r)
    }

    /// The current measurement epoch. Epoch 0 is the ZMap snapshot epoch;
    /// probing happens at epoch ≥ 1 so availability churn is visible.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Advance to a new epoch (availability re-rolls per host, and idle
    /// cellular radios cool down, so a new measurement campaign sees cold
    /// first-probe delays again).
    pub fn set_epoch(&mut self, epoch: u32) {
        if epoch != self.epoch {
            self.warmed.clear();
            // Rate-limit buckets refill while the campaign is idle.
            self.buckets.clear();
        }
        self.epoch = epoch;
    }

    /// The active fault-injection configuration.
    pub fn faults(&self) -> FaultConfig {
        self.faults
    }

    /// Install a fault-injection configuration. Resets token-bucket state
    /// (but not the drop counters, which are cumulative).
    pub fn set_faults(&mut self, faults: FaultConfig) {
        self.faults = faults;
        self.buckets.clear();
    }

    /// The active dynamics configuration.
    pub fn dynamics(&self) -> &DynamicsConfig {
        &self.dynamics
    }

    /// Install a time-evolving dynamics configuration. Resets the virtual
    /// clocks (but not the applied-dynamics counters, which are cumulative).
    /// Like [`Network::set_faults`], the pipeline installs this *after* the
    /// ZMap snapshot, so epoch-0 scans always see the frozen world.
    pub fn set_dynamics(&mut self, dynamics: DynamicsConfig) {
        self.dyn_events.clear();
        if dynamics.events_active() {
            for &ev in &dynamics.events {
                self.dyn_events.entry(ev.router().0).or_default().push(ev);
            }
        }
        self.dynamics = dynamics;
        self.vclock.clear();
    }

    /// Snapshot the probe and fault accounting.
    pub fn net_stats(&self) -> NetworkStats {
        NetworkStats {
            probes_carried: self.probes_carried(),
            link_drops: self.fault_counters.link_drops.get(),
            rate_limited_drops: self.fault_counters.rate_limited_drops.get(),
            icmp_loss_drops: self.fault_counters.icmp_loss_drops.get(),
            dyn_rewrites: self.dyn_counters.rewrites.get(),
            dyn_resizes: self.dyn_counters.resizes.get(),
            dyn_loops: self.dyn_counters.loops.get(),
            dyn_addr_reuses: self.dyn_counters.addr_reuses.get(),
            dyn_false_diamonds: self.dyn_counters.false_diamonds.get(),
            netem_delays: self.dyn_counters.netem_delays.get(),
            netem_reorders: self.dyn_counters.netem_reorders.get(),
            netem_duplicates: self.dyn_counters.netem_duplicates.get(),
        }
    }

    /// Report the network's counters through `rec` from now on: the
    /// carried-probe and fault-drop counters are re-interned in the
    /// recorder's registry (current values carried over), so every later
    /// probe shows up in the exported metrics document. Attach *before*
    /// the first probe so runs with different thread counts agree on the
    /// counter values.
    pub fn set_recorder(&mut self, rec: &dyn Recorder) {
        let interned = rec.counter("net.probes_carried");
        interned.add(self.probes_carried.get());
        self.probes_carried = interned;
        self.fault_counters.attach(rec);
        self.dyn_counters.attach(rec);
    }

    /// Host oracle (for ground-truth checks in tests).
    pub fn oracle(&self) -> &HostOracle {
        &self.oracle
    }

    /// Count of probe packets carried so far.
    pub fn probes_carried(&self) -> u64 {
        self.probes_carried.get()
    }

    /// Number of cellular addresses whose radios a probe has woken since
    /// the last epoch change.
    pub fn warmed_count(&self) -> usize {
        self.warmed.len()
    }

    /// Record one carried probe (thread-safe; called from `send`).
    pub(crate) fn record_carried_probe(&self) {
        self.probes_carried.inc();
    }

    /// The forwarding index: each router's table flattened, compiled on
    /// first use (concurrent first probes wait for one build).
    pub(crate) fn lpm_index(&self) -> &[FlatTable] {
        self.lpm
            .get_or_init(|| self.routers.iter().map(|r| r.table.flatten()).collect())
    }

    /// Per-router ECMP salt.
    pub(crate) fn salt(&self, id: RouterId) -> u64 {
        mix2(self.seed, id.0 as u64)
    }

    /// Resolve which routers would be the *last-hop routers* of `dst` by
    /// walking route tables without any load-balancer choice: the set of all
    /// routers holding a `Deliver` entry reachable for this destination.
    ///
    /// This is ground truth for tests — a real measurement cannot do this.
    pub fn true_lasthop_set(&self, dst: Addr) -> Vec<RouterId> {
        let mut out = Vec::new();
        let mut stack = vec![self.vantage_router];
        let mut seen = vec![false; self.routers.len()];
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.0 as usize], true) {
                continue;
            }
            let router = self.router(id);
            if let Some((_, group)) = router.table.lookup(dst) {
                for &hop in group.hops() {
                    match hop {
                        NextHop::Deliver => {
                            if !out.contains(&id) {
                                out.push(id);
                            }
                        }
                        NextHop::Router(next) => stack.push(next),
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// [`Network::true_lasthop_set`], mapped to the routers' primary
    /// interface addresses (sorted) — directly comparable to a measured
    /// last-hop set when no router aliases its replies.
    pub fn true_lasthop_addrs(&self, dst: Addr) -> Vec<Addr> {
        let mut out: Vec<Addr> = self
            .true_lasthop_set(dst)
            .into_iter()
            .map(|id| self.router(id).addr)
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::route::LbPolicy;

    fn tiny() -> Network {
        // vantage -> r0 -> {r1, r2} -> deliver 10.0.0.0/24
        let mut net = Network::new(1, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let r2 = net.add_router(Addr::new(10, 255, 0, 3));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(
            r0,
            p,
            NextHopGroup::ecmp(
                vec![NextHop::Router(r1), NextHop::Router(r2)],
                LbPolicy::PerDestination,
            ),
        );
        net.install_route(r1, p, NextHopGroup::single(NextHop::Deliver));
        net.install_route(r2, p, NextHopGroup::single(NextHop::Deliver));
        net.set_block_profile(Addr::new(10, 0, 0, 0).block24(), HostProfile::default());
        net
    }

    #[test]
    fn router_ids_are_dense() {
        let net = tiny();
        assert_eq!(net.router_count(), 3);
        assert_eq!(net.router(RouterId(1)).id, RouterId(1));
    }

    #[test]
    fn true_lasthop_set_finds_both_parallel_routers() {
        let net = tiny();
        let set = net.true_lasthop_set(Addr::new(10, 0, 0, 7));
        assert_eq!(set, vec![RouterId(1), RouterId(2)]);
    }

    #[test]
    fn true_lasthop_addrs_map_ids_to_interfaces() {
        let net = tiny();
        let addrs = net.true_lasthop_addrs(Addr::new(10, 0, 0, 7));
        assert_eq!(
            addrs,
            vec![Addr::new(10, 255, 0, 2), Addr::new(10, 255, 0, 3)]
        );
    }

    #[test]
    fn true_lasthop_set_empty_for_unrouted() {
        let net = tiny();
        assert!(net.true_lasthop_set(Addr::new(11, 0, 0, 7)).is_empty());
    }

    #[test]
    fn block_profiles_are_recorded() {
        let net = tiny();
        let b = Addr::new(10, 0, 0, 0).block24();
        assert!(net.block_profile(b).is_some());
        assert_eq!(net.allocated_blocks(), vec![b]);
    }
}
