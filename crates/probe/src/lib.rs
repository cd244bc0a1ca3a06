//! # probe — measurement tools over the simulated internet
//!
//! Implements the probing machinery the Hobbit paper builds on, driven
//! against [`netsim`]'s wire-level interface:
//!
//! * [`zmap`] — an internet-wide ICMP echo scan producing the active-address
//!   snapshot Hobbit selects destinations from;
//! * [`ping`] — RTT series (the Section 5.2 cellular wake-up test);
//! * [`traceroute`] — Paris traceroute: fixed flow identifiers defeat
//!   per-flow load balancing;
//! * [`mda`] — the Multipath Detection Algorithm with its hypothesis-test
//!   stopping rule (`n(1) = 6` probes for 95% single-interface confidence);
//! * [`lasthop`] — the Section 3.4 efficient last-hop prober using reply-TTL
//!   hop-count inference with the halving fallback;
//! * [`record`] — probe recording and replay (the warts-style
//!   "collect once, analyze many" archive workflow).

#![warn(missing_docs)]

pub mod cancel;
pub mod error;
pub mod lasthop;
pub mod mda;
pub mod ping;
pub mod prober;
pub mod record;
pub mod traceroute;
pub mod types;
pub mod zmap;

pub use cancel::CancelToken;
pub use error::ProbeError;
pub use lasthop::{
    probe_lasthop, probe_lasthop_in_mode, probe_lasthop_with_hint, LasthopOutcome, LasthopProbe,
};
pub use mda::{
    detect_diamonds, enumerate_hop, enumerate_hop_lite, enumerate_paths, enumerate_paths_in_mode,
    Diamond, MdaLiteState, MdaMode, MdaPaths, StoppingRule,
};
pub use ping::{ping_series, PingSeries};
pub use prober::{
    backoff_delay, ProbeObs, ProbeReply, ProbeResult, ProbeTransport, Prober,
    DEFAULT_BACKOFF_BASE_US, DEFAULT_BACKOFF_CAP_US,
};
pub use record::{ProbeLog, RecordedCall, RecordedReply};
pub use traceroute::{paris_traceroute, Traceroute};
pub use types::{route_sets_equal, route_sets_identical, Hop, Path};
pub use zmap::{scan, scan_all, scan_threaded, ZmapSnapshot};
