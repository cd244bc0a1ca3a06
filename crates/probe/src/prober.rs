//! Low-level prober: sends single probes through the simulated network and
//! parses responses, with retry handling.
//!
//! All higher-level tools (ZMap scan, ping, traceroute, MDA) are built on
//! [`Prober::probe`]. The prober talks to the wire only through a
//! [`ProbeTransport`] — bytes in, bytes out — so the same tools run over an
//! exclusively borrowed network, a shared `&Network` inside scoped worker
//! threads, or an owned [`SharedNetwork`] handle.

use crate::cancel::CancelToken;
use crate::error::ProbeError;
use crate::record::{ProbeLog, RecordedCall, RecordedReply};
use bytes::Bytes;
use netsim::forward::encode_probe;
use netsim::wire::{IcmpEcho, IcmpError, Ipv4Header, ICMP_ECHO_REPLY, ICMP_TIME_EXCEEDED};
use netsim::{Addr, Delivery, Network, SendError, SharedNetwork};
use obs::{Counter, Histogram, Recorder};

/// Anything that can carry a probe packet and return the response.
///
/// This is the seam between measurement tools and the network: a transport
/// is bytes-in/bytes-out, exactly a raw socket's contract. [`Prober`] works
/// over any transport, so higher-level tools (ping, traceroute, MDA, ZMap)
/// never name a concrete network type. Implementations exist for
/// `&mut Network` (exclusive), `&Network` (shared borrow — the concurrent
/// classification pipeline hands one to each worker), [`SharedNetwork`]
/// (owned handle for `'static` contexts), and owned [`Network`].
pub trait ProbeTransport {
    /// Carry one probe packet; see [`netsim::Network::send`].
    fn transmit(&mut self, probe: Bytes) -> Result<Delivery, SendError>;

    /// The primary vantage address probes should be sourced from.
    fn vantage_addr(&self) -> Addr;

    /// The underlying network, when the transport can expose one (live
    /// transports do; a future pcap-replay transport would not).
    fn as_network(&self) -> Option<&Network> {
        None
    }

    /// Exclusive access to the underlying network, when the transport holds
    /// it exclusively (epoch changes in experiments need this).
    fn as_network_mut(&mut self) -> Option<&mut Network> {
        None
    }
}

impl ProbeTransport for &mut Network {
    fn transmit(&mut self, probe: Bytes) -> Result<Delivery, SendError> {
        self.send(probe)
    }
    fn vantage_addr(&self) -> Addr {
        Network::vantage_addr(self)
    }
    fn as_network(&self) -> Option<&Network> {
        Some(self)
    }
    fn as_network_mut(&mut self) -> Option<&mut Network> {
        Some(self)
    }
}

impl ProbeTransport for &Network {
    fn transmit(&mut self, probe: Bytes) -> Result<Delivery, SendError> {
        self.send(probe)
    }
    fn vantage_addr(&self) -> Addr {
        Network::vantage_addr(self)
    }
    fn as_network(&self) -> Option<&Network> {
        Some(self)
    }
}

impl ProbeTransport for Network {
    fn transmit(&mut self, probe: Bytes) -> Result<Delivery, SendError> {
        self.send(probe)
    }
    fn vantage_addr(&self) -> Addr {
        Network::vantage_addr(self)
    }
    fn as_network(&self) -> Option<&Network> {
        Some(self)
    }
    fn as_network_mut(&mut self) -> Option<&mut Network> {
        Some(self)
    }
}

impl ProbeTransport for SharedNetwork {
    fn transmit(&mut self, probe: Bytes) -> Result<Delivery, SendError> {
        SharedNetwork::send(self, probe)
    }
    fn vantage_addr(&self) -> Addr {
        self.network().vantage_addr()
    }
    fn as_network(&self) -> Option<&Network> {
        Some(self.network())
    }
}

/// Parsed outcome of one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeReply {
    /// The destination answered with an echo reply carrying this IP TTL.
    Echo {
        /// Responding address (should be the probed destination).
        from: Addr,
        /// The remaining TTL in the reply's IP header (for hop inference).
        ttl: u8,
    },
    /// A router reported TTL exceeded.
    TimeExceeded {
        /// The router interface that sourced the error.
        from: Addr,
    },
    /// A router reported the destination unreachable.
    Unreachable {
        /// The router interface that sourced the error.
        from: Addr,
    },
    /// No response within the timeout.
    Timeout,
}

impl ProbeReply {
    /// Whether this is any response at all.
    pub fn responded(&self) -> bool {
        !matches!(self, ProbeReply::Timeout)
    }
}

/// Result of one probe: the parsed reply plus the measured RTT.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResult {
    /// What came back.
    pub reply: ProbeReply,
    /// Round-trip time (or the timeout budget), microseconds.
    pub rtt_us: u64,
}

/// Pre-interned observability handles for a prober — one atomic bump per
/// event, no registry lookups in the probe path. Several probers (e.g.
/// all classification workers) may share one set of handles: the counters
/// then aggregate across them, which is exactly what the metrics document
/// wants, while each prober's own `probes_sent()`-style accessors stay
/// per-prober.
#[derive(Clone, Debug)]
pub struct ProbeObs {
    /// `probe.sent` — probe packets sent (including retries).
    pub probes_sent: Counter,
    /// `probe.drops` — attempts that got no answer.
    pub drops: Counter,
    /// `probe.retries` — retries spent.
    pub retries: Counter,
    /// `probe.backoff_us` — simulated backoff wait, microseconds.
    pub backoff_us: Counter,
    /// `probe.rtt_us` — per-probe round-trip time, microseconds.
    pub rtt_us: Histogram,
    /// `probe.mda_lite.probes_saved` — probes the MDA-Lite stopping rules
    /// skipped relative to the classic ladder (lower bound).
    pub mda_lite_saved: Counter,
    /// `probe.mda_lite.diamonds` — last-hop diamonds confirmed.
    pub mda_lite_diamonds: Counter,
    /// `probe.mda_lite.escalations` — escalations back to classic MDA on
    /// inconsistent flow-label evidence.
    pub mda_lite_escalations: Counter,
}

impl ProbeObs {
    /// Intern the standard probe metrics in `rec`.
    pub fn bind(rec: &dyn Recorder) -> Self {
        ProbeObs {
            probes_sent: rec.counter("probe.sent"),
            drops: rec.counter("probe.drops"),
            retries: rec.counter("probe.retries"),
            backoff_us: rec.counter("probe.backoff_us"),
            rtt_us: rec.histogram("probe.rtt_us"),
            mda_lite_saved: rec.counter("probe.mda_lite.probes_saved"),
            mda_lite_diamonds: rec.counter("probe.mda_lite.diamonds"),
            mda_lite_escalations: rec.counter("probe.mda_lite.escalations"),
        }
    }
}

/// A measurement process bound to a network.
///
/// Tracks the probes it sends (the paper reports measurement loads; Figure
/// 11 is a probing-cost comparison) and allocates sequence numbers and
/// IP idents so retries are distinguishable on the wire.
pub struct Prober<'n> {
    backend: Backend<'n>,
    icmp_ident: u16,
    seq: u16,
    ip_ident: u16,
    probes_sent: u64,
    rtt_sum_us: u64,
    /// Source address probes are sent from (a registered vantage).
    source: Addr,
    /// Retries after a timeout before giving up on a probe.
    pub retries: u32,
    /// Total retries this prober may spend across its lifetime. Each retry
    /// consumes one unit; at zero, probes get a single attempt regardless
    /// of [`Prober::retries`]. Bounds worst-case load on lossy paths.
    pub retry_budget: u64,
    /// First-retry backoff delay, microseconds. Doubles per retry.
    pub backoff_base_us: u64,
    /// Ceiling on a single backoff delay, microseconds.
    pub backoff_cap_us: u64,
    /// Attempts that got no answer (each timed-out attempt, incl. retries).
    drops: u64,
    /// Retries actually spent.
    retries_used: u64,
    /// Total simulated backoff wait, microseconds.
    backoff_us: u64,
    /// When recording, every probe call lands here.
    recording: Option<ProbeLog>,
    /// Shared metric handles mirroring the per-prober accounting.
    obs: Option<ProbeObs>,
    /// Cooperative cancellation: once raised, retries stop immediately and
    /// new probe calls return [`ProbeReply::Timeout`] without touching the
    /// wire, so a supervised measurement unwinds in bounded time.
    cancel: CancelToken,
}

/// Default lifetime retry budget: generous for ordinary runs, finite so a
/// pathological loss regime cannot balloon probe counts unboundedly.
pub const DEFAULT_RETRY_BUDGET: u64 = 1 << 16;
/// Default first-retry backoff (100 ms, the classic ping interval).
pub const DEFAULT_BACKOFF_BASE_US: u64 = 100_000;
/// Default backoff ceiling (1.6 s = base doubled four times).
pub const DEFAULT_BACKOFF_CAP_US: u64 = 1_600_000;

/// Wait before retry number `retry_index` (1-based): exponential in the
/// retry index, capped. Public because the storage retry machinery in the
/// experiments crate deliberately reuses the prober's backoff shape.
pub fn backoff_delay(base_us: u64, cap_us: u64, retry_index: u32) -> u64 {
    let shift = retry_index.saturating_sub(1).min(16);
    base_us.saturating_mul(1u64 << shift).min(cap_us)
}

/// Where a prober's answers come from.
enum Backend<'n> {
    /// A live transport (exclusive, shared-borrow, or owned network).
    Live(Box<dyn ProbeTransport + Send + 'n>),
    /// A previously recorded probe archive; `misses` counts lookups the
    /// archive could not answer (returned as timeouts).
    Replay { log: ProbeLog, misses: u64 },
}

impl<'n> Prober<'n> {
    /// Create a prober with exclusive access to a network. `icmp_ident`
    /// distinguishes concurrent measurement processes.
    pub fn new(net: &'n mut Network, icmp_ident: u16) -> Self {
        Prober::over(net, icmp_ident)
    }

    /// Create a prober over any [`ProbeTransport`] — a `&Network` shared
    /// with other workers, a [`SharedNetwork`] handle, an owned network.
    pub fn over<T: ProbeTransport + Send + 'n>(transport: T, icmp_ident: u16) -> Self {
        let source = transport.vantage_addr();
        Prober {
            backend: Backend::Live(Box::new(transport)),
            icmp_ident,
            seq: 0,
            ip_ident: 0,
            probes_sent: 0,
            rtt_sum_us: 0,
            source,
            retries: 1,
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base_us: DEFAULT_BACKOFF_BASE_US,
            backoff_cap_us: DEFAULT_BACKOFF_CAP_US,
            drops: 0,
            retries_used: 0,
            backoff_us: 0,
            recording: None,
            obs: None,
            cancel: CancelToken::default(),
        }
    }

    /// Create a `'static` prober over an owned [`SharedNetwork`] handle
    /// (for spawned threads and other `'static` contexts).
    pub fn shared(net: SharedNetwork, icmp_ident: u16) -> Prober<'static> {
        Prober::over(net, icmp_ident)
    }

    /// Create a prober that answers from a recorded archive instead of a
    /// network — the measurement-dataset workflow: analyses re-run from the
    /// log reproduce the live run exactly (same keys in the same order).
    pub fn replayer(log: ProbeLog, icmp_ident: u16, source: Addr) -> Prober<'static> {
        Prober {
            backend: Backend::Replay { log, misses: 0 },
            icmp_ident,
            seq: 0,
            ip_ident: 0,
            probes_sent: 0,
            rtt_sum_us: 0,
            source,
            retries: 1,
            retry_budget: DEFAULT_RETRY_BUDGET,
            backoff_base_us: DEFAULT_BACKOFF_BASE_US,
            backoff_cap_us: DEFAULT_BACKOFF_CAP_US,
            drops: 0,
            retries_used: 0,
            backoff_us: 0,
            recording: None,
            obs: None,
            cancel: CancelToken::default(),
        }
    }

    /// Start capturing every probe attempt into a [`ProbeLog`].
    pub fn start_recording(&mut self) {
        if self.recording.is_none() {
            self.recording = Some(ProbeLog::new());
        }
    }

    /// Stop recording and take the captured log, if recording was on.
    pub fn take_log(&mut self) -> Option<ProbeLog> {
        self.recording.take()
    }

    /// How many replay lookups missed the archive (0 for live probers and
    /// faithful replays).
    pub fn replay_misses(&self) -> u64 {
        match &self.backend {
            Backend::Live(_) => 0,
            Backend::Replay { misses, .. } => *misses,
        }
    }

    /// Create a prober bound to a non-primary vantage point (which must be
    /// registered on the network, see [`Network::add_vantage`]).
    ///
    /// [`Network::add_vantage`]: netsim::Network::add_vantage
    pub fn from_vantage(net: &'n mut Network, icmp_ident: u16, source: Addr) -> Self {
        let mut p = Prober::new(net, icmp_ident);
        p.source = source;
        p
    }

    /// Continue the probe numbering from `n`: the next probe carries
    /// sequence number and IP ident `n + 1`, as if `n` probes had already
    /// been sent. Lets a scan split over workers stamp each probe with the
    /// bytes a single serial prober would have used.
    pub(crate) fn set_counters(&mut self, n: u16) {
        self.seq = n;
        self.ip_ident = n;
    }

    /// The source address this prober stamps on probes.
    pub fn source(&self) -> Addr {
        self.source
    }

    /// Mirror this prober's accounting into `rec` from now on (interns the
    /// standard `probe.*` metrics). The per-prober accessors
    /// ([`Prober::probes_sent`] etc.) keep their own totals either way.
    pub fn observe(&mut self, rec: &dyn Recorder) {
        self.obs = Some(ProbeObs::bind(rec));
    }

    /// Attach pre-interned metric handles. Workers share one [`ProbeObs`]
    /// so their counters aggregate without registry lookups per probe.
    pub fn set_obs(&mut self, obs: ProbeObs) {
        self.obs = Some(obs);
    }

    /// Total probe packets sent (including retries).
    pub fn probes_sent(&self) -> u64 {
        self.probes_sent
    }

    /// Cumulative measured RTT over every probe sent, microseconds
    /// (timeouts contribute the timeout budget). Together with
    /// [`Prober::probes_sent`] this gives per-worker latency accounting.
    pub fn rtt_total_us(&self) -> u64 {
        self.rtt_sum_us
    }

    /// Attempts that got no answer (every timed-out attempt, including
    /// retries that also timed out).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Retries actually spent (attempts beyond the first per probe call).
    pub fn retries_used(&self) -> u64 {
        self.retries_used
    }

    /// Total simulated backoff wait accumulated before retries,
    /// microseconds.
    pub fn backoff_total_us(&self) -> u64 {
        self.backoff_us
    }

    /// Report one block's finished MDA-Lite accounting (from
    /// [`crate::MdaLiteState`]) into this prober's metric handles, if any.
    /// The per-prober totals are kept by the state itself; this only
    /// mirrors them into the shared `probe.mda_lite.*` counters.
    pub fn note_mda_lite(&self, probes_saved: u64, diamonds: u64, escalations: u64) {
        if let Some(o) = &self.obs {
            o.mda_lite_saved.add(probes_saved);
            o.mda_lite_diamonds.add(diamonds);
            o.mda_lite_escalations.add(escalations);
        }
    }

    /// The underlying network (e.g. for epoch changes in experiments), or
    /// a typed error when this prober cannot grant exclusive access:
    /// [`ProbeError::ReplayHasNoNetwork`] for replay probers and
    /// [`ProbeError::SharedTransport`] for shared transports. Callers that
    /// *know* they hold an exclusive live network can `expect` the result;
    /// supervision code matches on the variant instead of catching a panic.
    pub fn network_mut(&mut self) -> Result<&mut Network, ProbeError> {
        match &mut self.backend {
            Backend::Live(t) => t.as_network_mut().ok_or(ProbeError::SharedTransport),
            Backend::Replay { .. } => Err(ProbeError::ReplayHasNoNetwork),
        }
    }

    /// Shared view of the network: [`ProbeError::ReplayHasNoNetwork`] for
    /// replay probers, [`ProbeError::NoNetwork`] for transports with no
    /// network behind them.
    pub fn network(&self) -> Result<&Network, ProbeError> {
        match &self.backend {
            Backend::Live(t) => t.as_network().ok_or(ProbeError::NoNetwork),
            Backend::Replay { .. } => Err(ProbeError::ReplayHasNoNetwork),
        }
    }

    /// Attach a cancellation token. Once the token is raised, in-flight
    /// retries stop (no further backoff is simulated) and subsequent probe
    /// calls return [`ProbeReply::Timeout`] without touching the wire —
    /// the cancelled block's partial work is discarded by the supervisor,
    /// so the short-circuit never leaks into a recorded measurement.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = token;
    }

    /// Whether this prober's cancel token has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Send one probe (with retries on timeout) and parse the response.
    ///
    /// `flow_label` is the Paris flow identifier (the ICMP checksum the
    /// probe carries); keep it constant to stay on one per-flow path, vary
    /// it to explore siblings. `0xffff` is not a representable internet
    /// checksum, so that label is remapped to `0xfffe` — a dedicated
    /// overflow slot rather than `0`, which would collide with the real
    /// label 0 and silently merge two distinct flows.
    ///
    /// On timeout the prober retries up to [`Prober::retries`] times,
    /// waiting a capped exponentially growing backoff before each retry
    /// (accumulated in [`Prober::backoff_total_us`]); retries also draw on
    /// the lifetime [`Prober::retry_budget`].
    pub fn probe(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        let flow_label = if flow_label == 0xffff {
            0xfffe
        } else {
            flow_label
        };
        match &self.backend {
            Backend::Live(_) => self.live_probe(dst, ttl, flow_label),
            Backend::Replay { .. } => self.replay_probe(dst, ttl, flow_label),
        }
    }

    /// Live path: attempt, back off, retry while the budget allows.
    fn live_probe(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        if self.cancel.is_cancelled() {
            // Cooperative cancellation: answer instantly without touching
            // the wire or the accounting, so the enclosing measurement
            // drains in microseconds and its result can be discarded.
            return ProbeResult {
                reply: ProbeReply::Timeout,
                rtt_us: 0,
            };
        }
        let record = self.recording.is_some();
        let mut attempts: RecordedCall = Vec::new();
        let mut attempt: u32 = 0;
        let last = loop {
            self.seq = self.seq.wrapping_add(1);
            self.ip_ident = self.ip_ident.wrapping_add(1);
            self.probes_sent += 1;
            let Backend::Live(transport) = &mut self.backend else {
                unreachable!("live_probe is only called on live backends");
            };
            let wire = encode_probe(
                self.source,
                dst,
                ttl,
                self.icmp_ident,
                self.seq,
                flow_label,
                self.ip_ident,
            );
            let delivery = transport
                .transmit(wire)
                .expect("prober always emits well-formed probes");
            let result = ProbeResult {
                reply: parse_reply(delivery.response.as_ref(), self.icmp_ident),
                rtt_us: delivery.rtt_us,
            };
            self.rtt_sum_us += result.rtt_us;
            if let Some(o) = &self.obs {
                o.probes_sent.inc();
                o.rtt_us.record(result.rtt_us);
            }
            if record {
                attempts.push((result.reply.into(), result.rtt_us));
            }
            if result.reply.responded() {
                break result;
            }
            self.drops += 1;
            if let Some(o) = &self.obs {
                o.drops.inc();
            }
            if attempt >= self.retries || self.retry_budget == 0 || self.cancel.is_cancelled() {
                break result;
            }
            attempt += 1;
            self.retry_budget -= 1;
            self.retries_used += 1;
            let wait = backoff_delay(self.backoff_base_us, self.backoff_cap_us, attempt);
            self.backoff_us += wait;
            if let Some(o) = &self.obs {
                o.retries.inc();
                o.backoff_us.add(wait);
            }
        };
        if let Some(log) = &mut self.recording {
            log.push_call(dst, ttl, flow_label, attempts);
        }
        last
    }

    /// Replay path: consume exactly one recorded call — the whole attempt
    /// sequence the live run made — so the FIFO stays aligned even when the
    /// replaying prober's retry settings differ from the recording run's.
    fn replay_probe(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        let popped = {
            let Backend::Replay { log, misses } = &mut self.backend else {
                unreachable!("replay_probe is only called on replay backends");
            };
            let call = log.pop_call(dst, ttl, flow_label);
            if call.is_none() {
                *misses += 1;
            }
            call
        };
        let attempts = popped.unwrap_or_else(|| vec![(RecordedReply::Timeout, netsim::TIMEOUT_US)]);
        let mut last = ProbeResult {
            reply: ProbeReply::Timeout,
            rtt_us: netsim::TIMEOUT_US,
        };
        for (i, &(reply, rtt_us)) in attempts.iter().enumerate() {
            if i > 0 {
                self.retry_budget = self.retry_budget.saturating_sub(1);
                self.retries_used += 1;
                let wait = backoff_delay(self.backoff_base_us, self.backoff_cap_us, i as u32);
                self.backoff_us += wait;
                if let Some(o) = &self.obs {
                    o.retries.inc();
                    o.backoff_us.add(wait);
                }
            }
            self.seq = self.seq.wrapping_add(1);
            self.ip_ident = self.ip_ident.wrapping_add(1);
            self.probes_sent += 1;
            self.rtt_sum_us += rtt_us;
            if let Some(o) = &self.obs {
                o.probes_sent.inc();
                o.rtt_us.record(rtt_us);
            }
            last = ProbeResult {
                reply: reply.into(),
                rtt_us,
            };
            if !last.reply.responded() {
                self.drops += 1;
                if let Some(o) = &self.obs {
                    o.drops.inc();
                }
            }
        }
        if let Some(log) = &mut self.recording {
            log.push_call(dst, ttl, flow_label, attempts);
        }
        last
    }

    /// Send one probe *without* retries (for RTT series where each probe's
    /// timing matters, e.g. the Figure 6 cellular test).
    pub fn probe_once(&mut self, dst: Addr, ttl: u8, flow_label: u16) -> ProbeResult {
        let saved = self.retries;
        self.retries = 0;
        let r = self.probe(dst, ttl, flow_label);
        self.retries = saved;
        r
    }
}

/// Parse a response packet into a [`ProbeReply`].
fn parse_reply(response: Option<&Bytes>, expect_ident: u16) -> ProbeReply {
    let Some(bytes) = response else {
        return ProbeReply::Timeout;
    };
    let mut buf = bytes.clone();
    let Ok(outer) = Ipv4Header::decode(&mut buf) else {
        return ProbeReply::Timeout;
    };
    // Try echo reply first.
    let mut echo_buf = buf.clone();
    if let Ok((t, echo)) = IcmpEcho::decode(&mut echo_buf) {
        if t == ICMP_ECHO_REPLY {
            if echo.ident != expect_ident {
                return ProbeReply::Timeout; // someone else's reply
            }
            return ProbeReply::Echo {
                from: outer.src,
                ttl: outer.ttl,
            };
        }
    }
    if let Ok(err) = IcmpError::decode(&mut buf) {
        if err.quoted_echo.ident != expect_ident {
            return ProbeReply::Timeout;
        }
        return if err.icmp_type == ICMP_TIME_EXCEEDED {
            ProbeReply::TimeExceeded { from: outer.src }
        } else {
            ProbeReply::Unreachable { from: outer.src }
        };
    }
    ProbeReply::Timeout
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::build::{build, ScenarioConfig};

    fn scenario() -> netsim::Scenario {
        build(ScenarioConfig::tiny(42))
    }

    /// Find a block with decent density and live hosts for tests (block
    /// outages can silence an entire /24 at probe epochs, so density alone
    /// does not guarantee anyone answers).
    fn dense_block(s: &netsim::Scenario) -> netsim::Block24 {
        *s.network
            .allocated_blocks()
            .iter()
            .find(|b| {
                let profile = *s.network.block_profile(**b).unwrap();
                profile.density > 0.3
                    && s.truth.blocks[b].homogeneous
                    && s.truth.pops[s.truth.blocks[b].pop as usize].responsive
                    && !s
                        .network
                        .oracle()
                        .active_in_block(**b, &profile, s.network.epoch())
                        .is_empty()
            })
            .expect("tiny scenario has a dense homogeneous block")
    }

    #[test]
    fn echo_probe_gets_reply_from_active_host() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let profile = *s.network.block_profile(blk).unwrap();
        let active = s
            .network
            .oracle()
            .active_in_block(blk, &profile, s.network.epoch());
        assert!(!active.is_empty());
        let mut p = Prober::new(&mut s.network, 77);
        let r = p.probe(active[0], 64, 0x1000);
        match r.reply {
            ProbeReply::Echo { from, ttl } => {
                assert_eq!(from, active[0]);
                assert!(ttl > 0);
            }
            other => panic!("expected echo, got {other:?}"),
        }
        assert!(p.probes_sent() >= 1);
    }

    #[test]
    fn low_ttl_gets_time_exceeded() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        let r = p.probe(blk.addr(10), 1, 0x1000);
        assert!(matches!(r.reply, ProbeReply::TimeExceeded { .. }));
    }

    #[test]
    fn unrouted_space_is_unreachable() {
        let mut s = scenario();
        let mut p = Prober::new(&mut s.network, 77);
        // 224.0.0.0 region is never allocated by the slab allocator.
        let r = p.probe(Addr::new(225, 1, 2, 3), 64, 0);
        assert!(matches!(r.reply, ProbeReply::Unreachable { .. }));
    }

    #[test]
    fn retries_count_in_probes_sent() {
        let mut s = scenario();
        // Never-responsive address: host probability is per-address, so use
        // an address in a routed block and check bookkeeping only.
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        p.retries = 3;
        let _ = p.probe(blk.addr(0), 64, 0); // .0 never hosts anyone
        assert_eq!(p.probes_sent(), 4, "1 try + 3 retries");
    }

    #[test]
    fn flow_label_0xffff_remaps_to_0xfffe_not_0() {
        // Regression: 0xffff used to fold onto 0, silently merging two
        // distinct Paris flows. The recorded call's key shows the wire label.
        let mut s = scenario();
        let blk = dense_block(&s);
        let dst = blk.addr(10);
        let mut p = Prober::new(&mut s.network, 77);
        p.start_recording();
        let _ = p.probe(dst, 64, 0xffff);
        let _ = p.probe(dst, 64, 0);
        let log = p.take_log().unwrap();
        assert_eq!(log.calls_for(dst, 64, 0xfffe), 1, "0xffff lands on 0xfffe");
        assert_eq!(log.calls_for(dst, 64, 0), 1, "label 0 keeps its own key");
        assert_eq!(
            log.calls_for(dst, 64, 0xffff),
            0,
            "0xffff is never on the wire"
        );
    }

    #[test]
    fn flow_label_remap_is_consistent_between_live_and_replay() {
        // Regression companion to the wire-key test above: both the live
        // and the replay backend apply the 0xffff → 0xfffe remap, so a run
        // recorded under the overflow label replays under it too, and the
        // overflow label is just an alias for the 0xfffe flow.
        let mut s = scenario();
        let blk = dense_block(&s);
        let dst = blk.addr(10);
        let mut p = Prober::new(&mut s.network, 77);
        p.start_recording();
        let live = p.probe(dst, 64, 0xffff);
        let log = p.take_log().unwrap();

        let mut r = Prober::replayer(log, 77, p.source());
        let replayed = r.probe(dst, 64, 0xffff);
        assert_eq!(replayed.reply, live.reply);
        assert_eq!(replayed.rtt_us, live.rtt_us);
        assert_eq!(r.replay_misses(), 0, "remapped label must hit the log");
    }

    #[test]
    fn backoff_accumulates_exponentially_with_cap() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        p.retries = 3;
        p.backoff_base_us = 100;
        p.backoff_cap_us = 1_000;
        let _ = p.probe(blk.addr(0), 64, 0); // .0 never answers
        assert_eq!(p.drops(), 4, "every timed-out attempt is a drop");
        assert_eq!(p.retries_used(), 3);
        assert_eq!(p.backoff_total_us(), 100 + 200 + 400);

        // With a low cap, later delays clamp.
        p.backoff_cap_us = 150;
        let before = p.backoff_total_us();
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!(p.backoff_total_us() - before, 100 + 150 + 150);
    }

    #[test]
    fn retry_budget_caps_lifetime_retries() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        p.retries = 3;
        p.retry_budget = 1;
        let _ = p.probe(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 2, "budget allows exactly one retry");
        assert_eq!(p.retries_used(), 1);
        assert_eq!(p.retry_budget, 0);
        let _ = p.probe(blk.addr(0), 64, 1);
        assert_eq!(p.probes_sent(), 3, "exhausted budget means single attempts");
    }

    #[test]
    fn cancelled_prober_short_circuits_without_accounting() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        p.retries = 3;
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        token.cancel();
        let r = p.probe(blk.addr(10), 64, 0x1000);
        assert_eq!(r.reply, ProbeReply::Timeout);
        assert_eq!(r.rtt_us, 0);
        assert_eq!(p.probes_sent(), 0, "cancelled probes never hit the wire");
        assert_eq!(p.drops(), 0);
        assert_eq!(p.retries_used(), 0);
        assert!(p.is_cancelled());
    }

    #[test]
    fn cancellation_mid_call_stops_retries() {
        // The token is raised before the call; an uncancelled prober with
        // the same settings spends retries on the silent .0 address, so the
        // cancelled one must send strictly fewer packets.
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut clean = Prober::new(&mut s.network, 77);
        clean.retries = 3;
        let _ = clean.probe(blk.addr(0), 64, 0);
        assert_eq!(clean.probes_sent(), 4);
        drop(clean);

        let mut p = Prober::new(&mut s.network, 78);
        p.retries = 3;
        let token = CancelToken::new();
        p.set_cancel_token(token.clone());
        token.cancel();
        let _ = p.probe(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 0);
        assert_eq!(p.backoff_total_us(), 0, "no backoff is simulated");
    }

    #[test]
    fn network_accessors_return_typed_errors() {
        let mut s = scenario();
        // Exclusive transport: both accessors succeed.
        let mut p = Prober::new(&mut s.network, 77);
        assert!(p.network().is_ok());
        assert!(p.network_mut().is_ok());
        let source = p.source();
        drop(p);

        // Replay prober: no network at all.
        let mut r = Prober::replayer(ProbeLog::new(), 77, source);
        assert_eq!(r.network().unwrap_err(), ProbeError::ReplayHasNoNetwork);
        assert_eq!(r.network_mut().unwrap_err(), ProbeError::ReplayHasNoNetwork);

        // Shared transport: shared view works, exclusive access does not.
        let shared = netsim::SharedNetwork::new(s.network);
        let mut q = Prober::shared(shared.clone(), 77);
        assert!(q.network().is_ok());
        assert_eq!(q.network_mut().unwrap_err(), ProbeError::SharedTransport);
        drop(q);
        let _ = shared.try_unwrap();
    }

    #[test]
    fn probe_once_leaves_loss_counters_consistent() {
        let mut s = scenario();
        let blk = dense_block(&s);
        let mut p = Prober::new(&mut s.network, 77);
        let _ = p.probe_once(blk.addr(0), 64, 0);
        assert_eq!(p.probes_sent(), 1);
        assert_eq!(p.drops(), 1);
        assert_eq!(p.retries_used(), 0);
        assert_eq!(p.backoff_total_us(), 0);
    }
}
