//! The forwarding engine: what happens to a probe injected at the vantage.
//!
//! The only interface measurement tools get is [`Network::send`]: bytes in,
//! optional bytes out, plus a measured RTT — exactly the information a real
//! prober gets from a raw socket. Everything Hobbit infers must come through
//! this bottleneck.

use crate::addr::Addr;
use crate::dynamics::{DynamicsEvent, NetemSpec};
use crate::hash::{mix3, unit_f64};
use crate::host::HostKind;
use crate::route::{FlowKey, NextHop, RouterId};
use crate::topology::Network;
use crate::wire::{
    IcmpEcho, IcmpError, Ipv4Header, WireError, ICMP_DEST_UNREACH, ICMP_ECHO_LEN, ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST, ICMP_ERROR_LEN, ICMP_TIME_EXCEEDED, IPV4_HEADER_LEN,
};
use bytes::Bytes;

/// Timeout reported when no response arrives, in microseconds.
pub const TIMEOUT_US: u64 = 2_000_000;

/// Maximum number of routers a probe may traverse before the network
/// declares a forwarding loop and drops it.
pub const MAX_HOPS: u32 = 64;

/// The observable outcome of one probe.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// The response packet, if any (echo reply or ICMP error).
    pub response: Option<Bytes>,
    /// Measured round-trip (or the timeout value when `response` is None).
    pub rtt_us: u64,
}

/// Why `Network::send` rejected a probe outright (malformed input is a
/// caller bug, not a network condition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The packet failed to parse.
    Wire(WireError),
    /// The source address is not the vantage address.
    NotFromVantage(Addr),
    /// Only ICMP echo requests can be injected.
    NotEchoRequest(u8),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Wire(e) => write!(f, "malformed probe: {e}"),
            SendError::NotFromVantage(a) => write!(f, "probe source {a} is not the vantage"),
            SendError::NotEchoRequest(t) => write!(f, "probe is not an echo request (type {t})"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<WireError> for SendError {
    fn from(e: WireError) -> Self {
        SendError::Wire(e)
    }
}

/// Internal result of walking the forwarding path.
enum Outcome {
    Expired { at: RouterId, hops: u32 },
    Delivered { hops: u32 },
    NoRoute { at: RouterId, hops: u32 },
    Dropped,
}

impl Network {
    /// Inject an ICMP echo request at the vantage point.
    ///
    /// Returns the response bytes (echo reply, Time Exceeded, or Destination
    /// Unreachable) and the measured RTT, or `response: None` on timeout —
    /// which can mean an unresponsive destination, an anonymous or
    /// rate-limited router, a forwarding loop, or an unrouted destination.
    ///
    /// Takes `&self`: the per-probe state (probe accounting, cellular
    /// warm-up) lives behind interior mutability, so any number of threads
    /// may probe one shared network (see [`crate::concurrent`]).
    pub fn send(&self, probe: Bytes) -> Result<Delivery, SendError> {
        let mut buf = probe;
        let ip = Ipv4Header::decode(&mut buf)?;
        let Some(entry_router) = self.vantage_router_for(ip.src) else {
            return Err(SendError::NotFromVantage(ip.src));
        };
        let (icmp_type, echo) = IcmpEcho::decode(&mut buf)?;
        if icmp_type != ICMP_ECHO_REQUEST {
            return Err(SendError::NotEchoRequest(icmp_type));
        }
        self.record_carried_probe();

        let key = FlowKey {
            src: ip.src,
            dst: ip.dst,
            protocol: ip.protocol,
            flow_label: echo.wire_checksum(ICMP_ECHO_REQUEST),
            ip_ident: ip.ident,
        };
        let nonce = mix3(
            ip.dst.0 as u64,
            ((ip.ident as u64) << 32) | ((echo.ident as u64) << 16) | echo.seq as u64,
            key.flow_label as u64,
        );

        // The dynamics epoch this probe lands in. The virtual clock is per
        // probe *stream* — `(icmp ident, destination /24)`, the same stream
        // identity the ICMP token buckets key on — so a stream's tick count
        // is exactly its prober's local sequential probe count: a pure
        // function of the stream prefix, independent of worker-thread
        // interleaving, resume, and shard layout. With no live event
        // schedule the clock never ticks and the epoch is always 0.
        let epoch = if self.dynamics.events_active() {
            let tick = self.vclock.tick((echo.ident, ip.dst.block24().0));
            self.dynamics.epoch_of(tick)
        } else {
            0
        };

        let outcome = self.walk(&key, ip.ttl, entry_router, nonce, epoch);
        let mut delivery = match outcome {
            Outcome::Expired { at, hops } => {
                self.router_error(at, hops, ICMP_TIME_EXCEEDED, &ip, &echo, nonce, epoch)
            }
            Outcome::NoRoute { at, hops } => {
                self.router_error(at, hops, ICMP_DEST_UNREACH, &ip, &echo, nonce, epoch)
            }
            Outcome::Dropped => timeout(),
            Outcome::Delivered { hops, .. } => self.host_reply(&ip, &echo, hops, nonce),
        };
        if let Some(netem) = self.dynamics.netem {
            self.apply_netem(&mut delivery, ip.dst, nonce, netem);
        }
        Ok(delivery)
    }

    /// Walk the forwarding path for a flow, decrementing TTL at each router.
    ///
    /// When fault injection is on, each hop transition is a seeded
    /// per-link loss draw: keyed by the link (current router, hop index)
    /// and the probe nonce, so a given probe's fate is a pure function of
    /// its wire bytes — identical at any thread count — while retries
    /// (fresh seq/ident, fresh nonce) are independent draws.
    fn walk(&self, key: &FlowKey, ttl: u8, entry: RouterId, nonce: u64, epoch: u32) -> Outcome {
        let mut ttl = ttl as u32;
        let mut cur = entry;
        let mut prev: Option<RouterId> = None;
        let mut hops = 0u32;
        let mut loop_counted = false;
        let link_loss = self.faults.link_loss;
        let lpm = self.lpm_index();
        loop {
            hops += 1;
            if hops > MAX_HOPS {
                return Outcome::Dropped;
            }
            if ttl == 0 {
                // The probe never had budget to reach the first router.
                return Outcome::Dropped;
            }
            if link_loss > 0.0 {
                let draw = mix3(
                    self.seed ^ 0x11AC,
                    ((hops as u64) << 32) | cur.0 as u64,
                    nonce,
                );
                if unit_f64(draw) < link_loss as f64 {
                    // Lost on the wire into `cur`: no Time Exceeded, no
                    // delivery — the prober just sees silence.
                    self.fault_counters.link_drops.inc();
                    return Outcome::Dropped;
                }
            }
            ttl -= 1;
            if ttl == 0 {
                return Outcome::Expired { at: cur, hops };
            }
            let Some(entry) = lpm[cur.0 as usize].lookup(key.dst) else {
                return Outcome::NoRoute { at: cur, hops };
            };
            let (_, group) = self.router(cur).table.entry(entry);
            // Dynamics: the event schedule perturbs selection at this
            // router, never the route table (tables stay immutable — all
            // evolution is a pure function of (schedule, epoch, flow)).
            let mut salt = self.salt(cur);
            let mut width = usize::MAX;
            if !self.dyn_events.is_empty() {
                if let Some(evs) = self.dyn_events.get(&cur.0) {
                    // Transient loop: *during* its epoch only, the router
                    // forwards back toward the previous hop. The probe
                    // bounces between the pair, burning TTL, and expires
                    // inside the loop — the alternating-address ladder
                    // traceroute folklore knows. The loop heals itself
                    // when the epoch rolls over.
                    if let Some(back) = prev {
                        let looping = evs.iter().any(|e| {
                            matches!(e, DynamicsEvent::TransientLoop { at_epoch, .. }
                                     if *at_epoch == epoch)
                        });
                        if looping {
                            if !loop_counted {
                                self.dyn_counters.loops.inc();
                                loop_counted = true;
                            }
                            prev = Some(cur);
                            cur = back;
                            continue;
                        }
                    }
                    // Route churn: the latest applicable rewrite re-salts
                    // ECMP selection, remapping flows over existing links.
                    let rewrite = evs
                        .iter()
                        .filter_map(|e| match e {
                            DynamicsEvent::NextHopRewrite { at_epoch, .. }
                                if *at_epoch <= epoch =>
                            {
                                Some(*at_epoch)
                            }
                            _ => None,
                        })
                        .max();
                    if let Some(at) = rewrite {
                        salt = mix3(salt, 0xD1CE, at as u64);
                        self.dyn_counters.rewrites.inc();
                    }
                    // Load-balancer resize: the latest applicable width
                    // clamps selection to the group's first `width` hops.
                    let resize = evs
                        .iter()
                        .filter_map(|e| match e {
                            DynamicsEvent::LbResize {
                                at_epoch, width, ..
                            } if *at_epoch <= epoch => Some((*at_epoch, *width)),
                            _ => None,
                        })
                        .max_by_key(|&(at, _)| at);
                    if let Some((_, w)) = resize {
                        width = w as usize;
                        self.dyn_counters.resizes.inc();
                    }
                }
            }
            let hop = if width == usize::MAX {
                group.select(key, salt)
            } else {
                group.select_among(key, salt, width)
            };
            match hop {
                NextHop::Deliver => return Outcome::Delivered { hops },
                NextHop::Router(next) => {
                    prev = Some(cur);
                    cur = next;
                }
            }
        }
    }

    /// Build a router-sourced ICMP error, subject to responsiveness and
    /// rate limiting.
    #[allow(clippy::too_many_arguments)]
    fn router_error(
        &self,
        at: RouterId,
        hops: u32,
        icmp_type: u8,
        probe_ip: &Ipv4Header,
        probe_echo: &IcmpEcho,
        nonce: u64,
        epoch: u32,
    ) -> Delivery {
        let router = self.router(at);
        if !router.responsive {
            return timeout();
        }
        match self.faults.icmp_rate {
            // Token-bucket rate limiting at every responsive router; the
            // bucket is per probe stream (router, prober ident, target /24)
            // so admission never depends on worker-thread interleaving.
            Some(rate) => {
                let stream = (at.0, probe_echo.ident, probe_ip.dst.block24().0);
                if !self.buckets.admit(stream, rate, self.faults.icmp_burst) {
                    self.fault_counters.rate_limited_drops.inc();
                    return timeout();
                }
            }
            // Legacy behavior: scenario-flagged routers suppress replies
            // with a stateless Bernoulli draw.
            None if router.icmp_loss > 0.0 => {
                let drop = unit_f64(mix3(self.seed ^ 0x5A, at.0 as u64, nonce));
                if drop < router.icmp_loss as f64 {
                    self.fault_counters.icmp_loss_drops.inc();
                    return timeout();
                }
            }
            None => {}
        }
        let err = IcmpError {
            icmp_type,
            quoted: Ipv4Header {
                ttl: 1,
                ..*probe_ip
            },
            quoted_echo: *probe_echo,
            quoted_type: ICMP_ECHO_REQUEST,
        };
        // Routers with two interfaces answer from a destination-dependent
        // one (the reply egress depends on the internal per-destination
        // route toward the probe source) — a classic traceroute artifact
        // that inflates entire-route cardinality without changing last-hop
        // identity. This is what makes whole-traceroute comparison so much
        // weaker than last-hop comparison (paper §3.1).
        let mut src = match router.alt_addr {
            Some(alt) if mix3(self.seed ^ 0x41F, at.0 as u64, probe_ip.dst.0 as u64) & 1 == 1 => {
                alt
            }
            _ => router.addr,
        };
        // Dynamics artifacts that corrupt the reply *source address* — the
        // only field last-hop classification reads:
        if !self.dyn_events.is_empty() {
            if let Some(evs) = self.dyn_events.get(&at.0) {
                // Address reuse: errors sourced from an address already on
                // the path upstream — an apparent cycle with no routing
                // loop behind it.
                let reuse = evs
                    .iter()
                    .filter_map(|e| match e {
                        DynamicsEvent::AddressReuse {
                            at_epoch, alias, ..
                        } if *at_epoch <= epoch => Some((*at_epoch, *alias)),
                        _ => None,
                    })
                    .max_by_key(|&(a, _)| a);
                if let Some((_, alias)) = reuse {
                    src = alias;
                    self.dyn_counters.addr_reuses.inc();
                }
                // False diamond: the reply source alternates per probe,
                // fabricating a phantom per-packet interface pair.
                let diamond = evs
                    .iter()
                    .filter_map(|e| match e {
                        DynamicsEvent::FalseDiamond {
                            at_epoch, alias, ..
                        } if *at_epoch <= epoch => Some((*at_epoch, *alias)),
                        _ => None,
                    })
                    .max_by_key(|&(a, _)| a);
                if let Some((_, alias)) = diamond {
                    if nonce & 1 == 1 {
                        src = alias;
                        self.dyn_counters.false_diamonds.inc();
                    }
                }
            }
        }
        let outer = Ipv4Header {
            src,
            dst: probe_ip.src,
            ttl: 255u8.saturating_sub(hops as u8),
            protocol: 1,
            ident: (nonce & 0xffff) as u16,
        };
        let mut wire = [0u8; IPV4_HEADER_LEN + ICMP_ERROR_LEN];
        wire[..IPV4_HEADER_LEN].copy_from_slice(&outer.to_bytes());
        wire[IPV4_HEADER_LEN..].copy_from_slice(&err.to_bytes());
        let rtt = self
            .rtt
            .rtt_us(router.addr, hops, 0, HostKind::Server, false, nonce);
        Delivery {
            response: Some(Bytes::copy_from_slice(&wire)),
            rtt_us: rtt,
        }
    }

    /// Build the destination host's echo reply, if the host exists and
    /// responds at the current epoch.
    fn host_reply(
        &self,
        probe_ip: &Ipv4Header,
        probe_echo: &IcmpEcho,
        hops: u32,
        nonce: u64,
    ) -> Delivery {
        let dst = probe_ip.dst;
        let Some(profile) = self.blocks.get(&dst.block24()).copied() else {
            return timeout();
        };
        if !self.oracle.responsive(dst, &profile, self.epoch) {
            return timeout();
        }
        // Note: churn can bring up hosts absent from the snapshot population
        // (paper footnote 2), so derive properties directly rather than
        // requiring snapshot existence.
        let default_ttl = self.oracle.default_ttl(dst, &profile);
        // Reverse-path hop count: forward hops plus a small per-block
        // asymmetry, so TTL-based hop inference is realistic, not exact.
        let asym_draw = unit_f64(mix3(self.seed ^ 0x51, dst.block24().0 as u64, 0));
        let asym = if asym_draw < 0.6 {
            0
        } else if asym_draw < 0.9 {
            1
        } else {
            2
        };
        let reverse_hops = hops + asym;
        let remaining = default_ttl.saturating_sub(reverse_hops as u8).max(1);

        let cold = profile.kind == HostKind::Cellular && !self.warmed.contains(dst);
        if profile.kind == HostKind::Cellular {
            self.warmed.warm(dst);
        }
        let rtt = self
            .rtt
            .rtt_us(dst, hops, profile.base_rtt_us, profile.kind, cold, nonce);

        let outer = Ipv4Header {
            src: dst,
            dst: probe_ip.src,
            ttl: remaining,
            protocol: 1,
            ident: (nonce >> 16 & 0xffff) as u16,
        };
        Delivery {
            response: Some(echo_packet(&outer, probe_echo, ICMP_ECHO_REPLY)),
            rtt_us: rtt,
        }
    }

    /// Apply netem-style perturbation to a delivered reply: fixed delay, a
    /// per-probe jitter draw, "reordering" modeled as a full extra jitter
    /// window of tail latency (a request/response simulator has no second
    /// in-flight packet to swap with), and duplication as pure accounting
    /// (a prober's request/response matching discards the copy anyway).
    /// All draws are pure functions of the probe nonce, so perturbation is
    /// byte-identical at any thread count.
    fn apply_netem(&self, d: &mut Delivery, dst: Addr, nonce: u64, n: NetemSpec) {
        if d.response.is_none() {
            return;
        }
        let mut extra = n.delay_us as u64;
        if n.jitter_us > 0 {
            let draw = unit_f64(mix3(self.seed ^ 0x7E77, dst.0 as u64, nonce));
            extra += (draw * n.jitter_us as f64) as u64;
        }
        if n.reorder_prob > 0.0
            && unit_f64(mix3(self.seed ^ 0x7E78, dst.0 as u64, nonce)) < n.reorder_prob as f64
        {
            extra += n.jitter_us.max(n.delay_us) as u64;
            self.dyn_counters.netem_reorders.inc();
        }
        if n.duplicate_prob > 0.0
            && unit_f64(mix3(self.seed ^ 0x7E79, dst.0 as u64, nonce)) < n.duplicate_prob as f64
        {
            self.dyn_counters.netem_duplicates.inc();
        }
        if extra > 0 {
            d.rtt_us += extra;
            self.dyn_counters.netem_delays.inc();
        }
    }
}

fn timeout() -> Delivery {
    Delivery {
        response: None,
        rtt_us: TIMEOUT_US,
    }
}

/// Convenience: encode an echo-request probe as wire bytes.
///
/// `flow_label` is the ICMP checksum the probe will carry (the Paris flow
/// identifier); the payload tweak is solved to hit it exactly.
pub fn encode_probe(
    src: Addr,
    dst: Addr,
    ttl: u8,
    ident: u16,
    seq: u16,
    flow_label: u16,
    ip_ident: u16,
) -> Bytes {
    let ip = Ipv4Header {
        src,
        dst,
        ttl,
        protocol: 1,
        ident: ip_ident,
    };
    let echo = IcmpEcho::with_checksum(ident, seq, flow_label);
    echo_packet(&ip, &echo, ICMP_ECHO_REQUEST)
}

/// An IPv4 packet carrying an echo message, built on the stack and copied
/// out in one allocation.
fn echo_packet(ip: &Ipv4Header, echo: &IcmpEcho, icmp_type: u8) -> Bytes {
    let mut wire = [0u8; IPV4_HEADER_LEN + ICMP_ECHO_LEN];
    wire[..IPV4_HEADER_LEN].copy_from_slice(&ip.to_bytes());
    wire[IPV4_HEADER_LEN..].copy_from_slice(&echo.to_bytes(icmp_type));
    Bytes::copy_from_slice(&wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Prefix;
    use crate::host::HostProfile;
    use crate::route::{LbPolicy, NextHopGroup};

    /// vantage -> r0 -> r1 -> r2(deliver 10.0.0.0/24)
    fn chain() -> Network {
        let mut net = Network::new(99, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let r2 = net.add_router(Addr::new(10, 255, 0, 3));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(r0, p, NextHopGroup::single(NextHop::Router(r1)));
        net.install_route(r1, p, NextHopGroup::single(NextHop::Router(r2)));
        net.install_route(r2, p, NextHopGroup::single(NextHop::Deliver));
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        net
    }

    fn probe(net: &Network, dst: Addr, ttl: u8) -> Bytes {
        encode_probe(net.vantage_addr(), dst, ttl, 7, 1, 0xAAAA, 0)
    }

    fn parse_response(d: &Delivery) -> (Ipv4Header, u8) {
        let mut b = d.response.clone().expect("expected a response");
        let ip = Ipv4Header::decode(&mut b).unwrap();
        let t = b[0];
        (ip, t)
    }

    #[test]
    fn echo_reaches_host_with_enough_ttl() {
        let net = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY);
        assert_eq!(ip.src, dst);
        // Host default TTL minus ~3-5 reverse hops.
        assert!(ip.ttl >= 50, "reply ttl {}", ip.ttl);
    }

    #[test]
    fn ttl_expiry_walks_the_chain() {
        let net = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let mut hops = Vec::new();
        for ttl in 1..=3u8 {
            let d = net.send(probe(&net, dst, ttl)).unwrap();
            let (ip, t) = parse_response(&d);
            assert_eq!(t, ICMP_TIME_EXCEEDED, "ttl {ttl}");
            hops.push(ip.src);
        }
        assert_eq!(
            hops,
            vec![
                Addr::new(10, 255, 0, 1),
                Addr::new(10, 255, 0, 2),
                Addr::new(10, 255, 0, 3),
            ]
        );
        // TTL 4 delivers.
        let d = net.send(probe(&net, dst, 4)).unwrap();
        let (_, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY);
    }

    #[test]
    fn anonymous_router_times_out() {
        let mut net = chain();
        net.router_mut(RouterId(1)).responsive = false;
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 2)).unwrap();
        assert!(d.response.is_none());
        assert_eq!(d.rtt_us, TIMEOUT_US);
    }

    #[test]
    fn rate_limited_router_drops_some() {
        let mut net = chain();
        net.router_mut(RouterId(1)).icmp_loss = 0.5;
        let dst = Addr::new(10, 0, 0, 5);
        let mut answered = 0;
        for seq in 0..100u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            if net.send(p).unwrap().response.is_some() {
                answered += 1;
            }
        }
        assert!((25..75).contains(&answered), "answered {answered}/100");
    }

    #[test]
    fn unrouted_destination_gets_unreachable() {
        let net = chain();
        let d = net.send(probe(&net, Addr::new(11, 0, 0, 1), 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_DEST_UNREACH);
        assert_eq!(ip.src, Addr::new(10, 255, 0, 1));
    }

    #[test]
    fn unresponsive_host_times_out() {
        let mut net = chain();
        // Density 0 block: routed but nobody home.
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 0.0,
                ..HostProfile::default()
            },
        );
        let d = net.send(probe(&net, Addr::new(10, 0, 0, 5), 64)).unwrap();
        assert!(d.response.is_none());
    }

    #[test]
    fn rejects_probe_not_from_vantage() {
        let net = chain();
        let p = encode_probe(
            Addr::new(9, 9, 9, 9),
            Addr::new(10, 0, 0, 5),
            64,
            1,
            1,
            0,
            0,
        );
        assert!(matches!(net.send(p), Err(SendError::NotFromVantage(_))));
    }

    #[test]
    fn rejects_garbage_bytes() {
        let net = chain();
        assert!(matches!(
            net.send(Bytes::from_static(&[1, 2, 3])),
            Err(SendError::Wire(_))
        ));
    }

    #[test]
    fn forwarding_loop_is_dropped() {
        let mut net = Network::new(1, Addr::new(192, 0, 2, 1));
        let r0 = net.add_router(Addr::new(10, 255, 0, 1));
        let r1 = net.add_router(Addr::new(10, 255, 0, 2));
        let p: Prefix = "10.0.0.0/24".parse().unwrap();
        net.install_route(r0, p, NextHopGroup::single(NextHop::Router(r1)));
        net.install_route(r1, p, NextHopGroup::single(NextHop::Router(r0)));
        let probe = encode_probe(net.vantage_addr(), Addr::new(10, 0, 0, 1), 255, 1, 1, 0, 0);
        let d = net.send(probe).unwrap();
        assert!(d.response.is_none());
    }

    #[test]
    fn probe_count_is_tracked() {
        let net = chain();
        assert_eq!(net.probes_carried(), 0);
        let _ = net.send(probe(&net, Addr::new(10, 0, 0, 5), 64));
        let _ = net.send(probe(&net, Addr::new(10, 0, 0, 6), 64));
        assert_eq!(net.probes_carried(), 2);
    }

    #[test]
    fn link_loss_drops_some_probes_deterministically() {
        use crate::fault::FaultConfig;
        let mut net = chain();
        net.set_faults(FaultConfig {
            link_loss: 0.2,
            ..FaultConfig::none()
        });
        let dst = Addr::new(10, 0, 0, 5);
        let outcomes: Vec<bool> = (0..100u16)
            .map(|seq| {
                let p = encode_probe(net.vantage_addr(), dst, 64, 7, seq, 0xAAAA, seq);
                net.send(p).unwrap().response.is_some()
            })
            .collect();
        let answered = outcomes.iter().filter(|&&a| a).count();
        // 4 hops at 20% per-link loss ≈ 41% end-to-end survival per probe.
        assert!((20..75).contains(&answered), "answered {answered}/100");
        assert!(net.net_stats().link_drops > 0);
        // Byte-identical probes meet byte-identical fates on a fresh clone.
        let replayed = chain();
        let mut net2 = replayed;
        net2.set_faults(FaultConfig {
            link_loss: 0.2,
            ..FaultConfig::none()
        });
        let again: Vec<bool> = (0..100u16)
            .map(|seq| {
                let p = encode_probe(net2.vantage_addr(), dst, 64, 7, seq, 0xAAAA, seq);
                net2.send(p).unwrap().response.is_some()
            })
            .collect();
        assert_eq!(outcomes, again);
    }

    #[test]
    fn token_bucket_rate_limits_icmp_errors() {
        let mut net = chain();
        net.set_faults(crate::fault::FaultConfig::lossy(0.0, 0.25));
        let dst = Addr::new(10, 0, 0, 5);
        let mut answered = 0;
        let mut worst_run = 0;
        let mut run = 0;
        for seq in 0..100u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            if net.send(p).unwrap().response.is_some() {
                answered += 1;
                run = 0;
            } else {
                run += 1;
                worst_run = worst_run.max(run);
            }
        }
        // Burst of 4 passes, then throttled to ~1 in 4.
        assert!((20..50).contains(&answered), "answered {answered}/100");
        // Refill 0.25 bounds consecutive denials at 3 — the guarantee the
        // prober's retry budget leans on.
        assert!(worst_run <= 3, "saw {worst_run} consecutive denials");
        assert!(net.net_stats().rate_limited_drops > 0);
        // A different prober ident is a separate stream with a fresh burst.
        let p = encode_probe(net.vantage_addr(), dst, 2, 8, 0, 0xAAAA, 0);
        assert!(net.send(p).unwrap().response.is_some());
    }

    #[test]
    fn legacy_bernoulli_drops_are_counted() {
        let mut net = chain();
        net.router_mut(RouterId(1)).icmp_loss = 0.5;
        let dst = Addr::new(10, 0, 0, 5);
        for seq in 0..50u16 {
            let p = encode_probe(net.vantage_addr(), dst, 2, 7, seq, 0xAAAA, seq);
            let _ = net.send(p);
        }
        let stats = net.net_stats();
        assert!(stats.icmp_loss_drops > 0);
        assert_eq!(stats.rate_limited_drops, 0);
        assert_eq!(stats.link_drops, 0);
        assert_eq!(stats.probes_carried, 50);
    }

    #[test]
    fn per_destination_ecmp_changes_lasthop_between_addresses() {
        // vantage -> r0 -(per-dest ecmp)-> {r1, r2} -> deliver
        let mut net = Network::new(5, Addr::new(192, 0, 2, 1));
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
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        // The last-hop router (ttl=2 expiry) should differ across addresses
        // but be stable for one address across flow labels.
        let mut lasthops = std::collections::HashSet::new();
        for host in 1..32u8 {
            let dst = Addr::new(10, 0, 0, host);
            let mut per_dst = std::collections::HashSet::new();
            for flow in [0x1111u16, 0x2222, 0x3333] {
                let pr = encode_probe(net.vantage_addr(), dst, 2, 1, 1, flow, 0);
                let d = net.send(pr).unwrap();
                let (ip, t) = parse_response(&d);
                assert_eq!(t, ICMP_TIME_EXCEEDED);
                per_dst.insert(ip.src);
            }
            assert_eq!(per_dst.len(), 1, "per-destination must be flow-stable");
            lasthops.extend(per_dst);
        }
        assert_eq!(lasthops.len(), 2, "both parallel last-hops should appear");
    }

    use crate::dynamics::{DynamicsConfig, DynamicsEvent};

    #[test]
    fn transient_loop_bounces_then_heals() {
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 8,
            events: vec![DynamicsEvent::TransientLoop {
                router: RouterId(1),
                at_epoch: 0,
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        // Epoch 0 (ticks 0..8): r1 bounces probes back to r0, so a ttl-3
        // probe expires at r0 (static world: at r2), and even a ttl-64
        // probe never reaches the host.
        let d = net.send(probe(&net, dst, 3)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        assert_eq!(ip.src, Addr::new(10, 255, 0, 1), "expiry inside the loop");
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (_, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED, "loop blocks delivery");
        assert!(net.net_stats().dyn_loops > 0);
        // Burn the rest of epoch 0 on this stream; at epoch 1 the loop has
        // healed and the same probe bytes deliver again.
        for _ in 0..6 {
            let _ = net.send(probe(&net, dst, 64));
        }
        let d = net.send(probe(&net, dst, 64)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_ECHO_REPLY, "loop heals after its epoch");
        assert_eq!(ip.src, dst);
    }

    /// vantage -> r0 -(per-dest ecmp)-> {r1, r2} -> deliver, as a fixture.
    fn fan2() -> Network {
        let mut net = Network::new(5, Addr::new(192, 0, 2, 1));
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
        net.set_block_profile(
            Addr::new(10, 0, 0, 0).block24(),
            HostProfile {
                density: 1.0,
                churn: 0.0,
                ..HostProfile::default()
            },
        );
        net
    }

    fn lasthop_of(net: &Network, dst: Addr) -> Addr {
        let d = net.send(probe(net, dst, 2)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        ip.src
    }

    #[test]
    fn lb_resize_collapses_the_fan() {
        let mut net = fan2();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::LbResize {
                router: RouterId(0),
                at_epoch: 0,
                width: 1,
            }],
            netem: None,
        });
        for host in 1..32u8 {
            assert_eq!(
                lasthop_of(&net, Addr::new(10, 0, 0, host)),
                Addr::new(10, 255, 0, 2),
                "width-1 clamp pins every destination to the first hop"
            );
        }
        assert!(net.net_stats().dyn_resizes > 0);
    }

    #[test]
    fn next_hop_rewrite_remaps_some_flows() {
        let base = fan2();
        let before: Vec<Addr> = (1..32u8)
            .map(|h| lasthop_of(&base, Addr::new(10, 0, 0, h)))
            .collect();
        let mut net = fan2();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::NextHopRewrite {
                router: RouterId(0),
                at_epoch: 0,
            }],
            netem: None,
        });
        let after: Vec<Addr> = (1..32u8)
            .map(|h| lasthop_of(&net, Addr::new(10, 0, 0, h)))
            .collect();
        assert_ne!(before, after, "churn must remap at least one flow");
        assert!(net.net_stats().dyn_rewrites > 0);
    }

    #[test]
    fn address_reuse_sources_errors_upstream() {
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::AddressReuse {
                router: RouterId(2),
                at_epoch: 0,
                alias: Addr::new(10, 255, 0, 1),
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        let d = net.send(probe(&net, dst, 3)).unwrap();
        let (ip, t) = parse_response(&d);
        assert_eq!(t, ICMP_TIME_EXCEEDED);
        assert_eq!(
            ip.src,
            Addr::new(10, 255, 0, 1),
            "error reuses the upstream address: an apparent cycle"
        );
        assert!(net.net_stats().dyn_addr_reuses > 0);
    }

    #[test]
    fn false_diamond_alternates_reply_sources() {
        let mut net = chain();
        let alias = Addr::new(10, 255, 0, 9);
        net.set_dynamics(DynamicsConfig {
            period: 1_000_000,
            events: vec![DynamicsEvent::FalseDiamond {
                router: RouterId(2),
                at_epoch: 0,
                alias,
            }],
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        let mut seen = std::collections::HashSet::new();
        for seq in 0..32u16 {
            let p = encode_probe(net.vantage_addr(), dst, 3, 7, seq, 0xAAAA, seq);
            let d = net.send(p).unwrap();
            let (ip, t) = parse_response(&d);
            assert_eq!(t, ICMP_TIME_EXCEEDED);
            seen.insert(ip.src);
        }
        assert!(seen.contains(&alias), "phantom interface appears");
        assert!(seen.contains(&Addr::new(10, 255, 0, 3)), "real one too");
        assert!(net.net_stats().dyn_false_diamonds > 0);
    }

    #[test]
    fn netem_delays_are_deterministic_and_additive() {
        let base = chain();
        let dst = Addr::new(10, 0, 0, 5);
        let undisturbed = base.send(probe(&base, dst, 64)).unwrap().rtt_us;
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 0,
            events: Vec::new(),
            netem: Some(crate::dynamics::NetemSpec {
                delay_us: 500,
                jitter_us: 100,
                reorder_prob: 0.0,
                duplicate_prob: 0.0,
            }),
        });
        let a = net.send(probe(&net, dst, 64)).unwrap().rtt_us;
        let b = net.send(probe(&net, dst, 64)).unwrap().rtt_us;
        assert_eq!(a, b, "same probe bytes, same perturbed rtt");
        assert!(a >= undisturbed + 500, "rtt {a} vs base {undisturbed}");
        assert!(a <= undisturbed + 600, "jitter bounded by the knob");
        assert!(net.net_stats().netem_delays > 0);
    }

    #[test]
    fn empty_schedule_is_byte_identical_to_static_world() {
        let baseline = chain();
        let mut net = chain();
        net.set_dynamics(DynamicsConfig {
            period: 8,
            events: Vec::new(),
            netem: None,
        });
        let dst = Addr::new(10, 0, 0, 5);
        for seq in 0..64u16 {
            for ttl in [2u8, 3, 64] {
                let p = encode_probe(baseline.vantage_addr(), dst, ttl, 7, seq, 0xAAAA, seq);
                let want = baseline.send(p.clone()).unwrap();
                let got = net.send(p).unwrap();
                assert_eq!(want.response, got.response);
                assert_eq!(want.rtt_us, got.rtt_us);
            }
        }
        assert_eq!(net.net_stats().total_dynamics(), 0);
    }
}
