//! Property tests for the simulator substrate: LPM trie and flat-index
//! correctness, wire roundtrips, and forwarding invariants.

use netsim::addr::{Addr, Prefix};
use netsim::build::{build, ScenarioConfig};
use netsim::forward::encode_probe;
use netsim::host::HostProfile;
use netsim::route::{NextHop, NextHopGroup, RouteTable, RouterId};
use netsim::wire::{IcmpEcho, Ipv4Header, ICMP_DEST_UNREACH, ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST};
use netsim::Network;
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(base, len)| Prefix::new(Addr(base), len))
}

proptest! {
    /// The binary trie and the flat forwarding index both agree with a
    /// brute-force linear scan on random tables: longest-prefix-match is
    /// exact. Besides random prefixes, each table holds the cases interval
    /// compilation can get wrong — an optional default route, a /32 host
    /// route, prefixes nested inside earlier ones, and a prefix replaced
    /// by a second insert — and the lookups hit every prefix's edges.
    #[test]
    fn trie_matches_linear_scan(
        entries in proptest::collection::vec(arb_prefix(), 1..40),
        nested in proptest::collection::vec((any::<u32>(), 1u8..=32, any::<u32>()), 0..8),
        default_route in any::<bool>(),
        lookups in proptest::collection::vec(any::<u32>(), 1..40),
    ) {
        let mut prefixes = entries.clone();
        for &(pick, extra, bits) in &nested {
            let outer = prefixes[pick as usize % prefixes.len()];
            let host_bits = u32::MAX.checked_shr(outer.len() as u32).unwrap_or(0);
            let len = (outer.len() + extra).min(32);
            prefixes.push(Prefix::new(Addr(outer.base().0 | (bits & host_bits)), len));
        }
        if default_route {
            prefixes.push(Prefix::ALL);
        }
        prefixes.push(Prefix::new(Addr(lookups[0]), 32));
        // A route update: the first prefix again, with a new next hop.
        prefixes.push(prefixes[0]);

        let mut table = RouteTable::new();
        for (i, p) in prefixes.iter().enumerate() {
            table.insert(*p, NextHopGroup::single(NextHop::Router(RouterId(i as u32))));
        }
        let flat = table.flatten();
        let edges = prefixes.iter().flat_map(|p| {
            let (first, last) = (p.first().0, p.last().0);
            [first, last, first.wrapping_sub(1), last.wrapping_add(1)]
        });
        for dst in lookups.iter().copied().chain(edges) {
            let a = Addr(dst);
            let trie = table.lookup(a).map(|(p, g)| (p, g.hops()[0]));
            let flat = flat.lookup(a).map(|i| table.entry(i)).map(|(p, g)| (p, g.hops()[0]));
            let slow = table.lookup_linear(a).map(|(p, g)| (p, g.hops()[0]));
            prop_assert_eq!(trie, slow);
            prop_assert_eq!(flat, slow);
        }
    }

    /// IPv4 header encode/decode is the identity.
    #[test]
    fn ipv4_header_roundtrip(src in any::<u32>(), dst in any::<u32>(), ttl in any::<u8>(), ident in any::<u16>()) {
        let h = Ipv4Header { src: Addr(src), dst: Addr(dst), ttl, protocol: 1, ident };
        let mut buf = bytes::BytesMut::new();
        h.encode(&mut buf);
        let parsed = Ipv4Header::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(parsed, h);
    }

    /// Any target checksum except 0xffff is exactly constructible — the
    /// Paris flow-label trick never misses.
    #[test]
    fn checksum_targeting(ident in any::<u16>(), seq in any::<u16>(), target in 0u16..0xffff) {
        let echo = IcmpEcho::with_checksum(ident, seq, target);
        prop_assert_eq!(echo.wire_checksum(ICMP_ECHO_REQUEST), target);
    }

    /// Corrupting any single byte of an encoded header is detected.
    #[test]
    fn corruption_detected(flip_at in 0usize..20, flip_bits in 1u8..=255) {
        let h = Ipv4Header {
            src: Addr(0x0A000001),
            dst: Addr(0xC0000201),
            ttl: 9,
            protocol: 1,
            ident: 7,
        };
        let mut buf = bytes::BytesMut::new();
        h.encode(&mut buf);
        buf[flip_at] ^= flip_bits;
        let r = Ipv4Header::decode(&mut buf.freeze());
        // Either rejected outright, or (if the flip hit the checksum's own
        // complement representation) never silently yields a different header.
        if let Ok(parsed) = r {
            prop_assert_eq!(parsed, h);
        }
    }
}

/// Sample budget for the hand-rolled sweeps below, derived from
/// [`proptest::cases`] so `PROPTEST_CASES` governs every test in this
/// file — the macro-generated ones and these — uniformly.
fn sweep_budget(divisor: usize, floor: usize) -> usize {
    proptest::cases().div_ceil(divisor).max(floor)
}

/// Editing a table after the first probe invalidates the forwarding
/// index: a route installed, a table edited through `router_mut`, or a
/// router added after a `send` is seen by the next `send`.
#[test]
fn routes_installed_after_the_first_send_are_seen() {
    let mut net = Network::new(3, Addr::new(192, 0, 2, 1));
    let r0 = net.add_router(Addr::new(10, 255, 0, 1));
    let r1 = net.add_router(Addr::new(10, 255, 0, 2));
    let block: Prefix = "10.0.0.0/24".parse().unwrap();
    net.install_route(r0, block, NextHopGroup::single(NextHop::Router(r1)));
    net.install_route(r1, block, NextHopGroup::single(NextHop::Deliver));
    let profile = HostProfile {
        density: 1.0,
        churn: 0.0,
        ..HostProfile::default()
    };
    net.set_block_profile(block.base().block24(), profile);
    let reply_type = |net: &Network, dst: Addr| -> Option<u8> {
        let probe = encode_probe(net.vantage_addr(), dst, 64, 7, 1, 0xAAAA, 1);
        let mut wire = net.send(probe).unwrap().response?;
        Ipv4Header::decode(&mut wire).unwrap();
        Some(wire[0])
    };
    let dst = Addr::new(10, 0, 1, 5);
    assert_eq!(
        reply_type(&net, dst),
        Some(ICMP_DEST_UNREACH),
        "not routed yet"
    );

    let other: Prefix = "10.0.1.0/24".parse().unwrap();
    net.install_route(r0, other, NextHopGroup::single(NextHop::Router(r1)));
    net.set_block_profile(other.base().block24(), profile);
    assert_eq!(
        reply_type(&net, dst),
        Some(ICMP_DEST_UNREACH),
        "r1 has no route"
    );
    net.router_mut(r1)
        .table
        .insert(other, NextHopGroup::single(NextHop::Deliver));
    assert_eq!(
        reply_type(&net, dst),
        Some(ICMP_ECHO_REPLY),
        "edited via router_mut"
    );

    let r2 = net.add_router(Addr::new(10, 255, 0, 3));
    net.install_route(r1, other, NextHopGroup::single(NextHop::Router(r2)));
    assert_eq!(
        reply_type(&net, dst),
        Some(ICMP_DEST_UNREACH),
        "r2 is new and empty"
    );
    net.install_route(r2, other, NextHopGroup::single(NextHop::Deliver));
    assert_eq!(
        reply_type(&net, dst),
        Some(ICMP_ECHO_REPLY),
        "route on the new router"
    );
}

/// Forwarding invariants on a built scenario (fixed seed, sampled dests).
#[test]
fn echo_reachability_is_ttl_monotone() {
    let s = build(ScenarioConfig::tiny(5));
    let vantage = s.network.vantage_addr();
    let blocks = s.network.allocated_blocks();
    let samples = sweep_budget(4, 6);
    // Spread the samples across the whole allocation rather than probing a
    // contiguous run of blocks.
    let step = (blocks.len() / samples).max(1);
    let mut checked = 0;
    for b in blocks.iter().step_by(step).take(samples) {
        let profile = *s.network.block_profile(*b).unwrap();
        let actives = s
            .network
            .oracle()
            .active_in_block(*b, &profile, s.network.epoch());
        let Some(&dst) = actives.first() else {
            continue;
        };
        // Find the minimal TTL that gets an echo; all larger TTLs must too
        // (the scenario uses no per-packet balancing).
        let mut first_echo = None;
        for ttl in 1..=20u8 {
            let probe = encode_probe(vantage, dst, ttl, 1, ttl as u16, 0x1234, 0);
            let d = s.network.send(probe).unwrap();
            let echoed = d
                .response
                .as_ref()
                .map(|r| {
                    let mut buf = r.clone();
                    let h = Ipv4Header::decode(&mut buf).unwrap();
                    h.src == dst
                })
                .unwrap_or(false);
            match (first_echo, echoed) {
                (None, true) => first_echo = Some(ttl),
                (Some(_), false) => panic!("echo at lower TTL but not at {ttl} for {dst}"),
                _ => {}
            }
        }
        assert!(first_echo.is_some(), "{dst} unreachable at any TTL");
        checked += 1;
    }
    // Sparse blocks may skip; at least half the sample must have resolved.
    assert!(
        checked >= samples.div_ceil(2),
        "too few destinations checked: {checked}/{samples}"
    );
}

/// The same probe (all fields equal) always gets the same answer.
#[test]
fn probing_is_deterministic() {
    let s1 = build(ScenarioConfig::tiny(9));
    let s2 = build(ScenarioConfig::tiny(9));
    let vantage = s1.network.vantage_addr();
    for b in s1
        .network
        .allocated_blocks()
        .iter()
        .take(sweep_budget(1, 8))
    {
        let dst = b.addr(33);
        let p = encode_probe(vantage, dst, 12, 3, 1, 0xBEEF, 5);
        let d1 = s1.network.send(p.clone()).unwrap();
        let d2 = s2.network.send(p).unwrap();
        assert_eq!(d1.response, d2.response);
        assert_eq!(d1.rtt_us, d2.rtt_us);
    }
}
