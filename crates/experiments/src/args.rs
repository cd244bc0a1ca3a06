//! Minimal CLI argument handling shared by all experiment binaries.

/// Common experiment options.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Scenario seed.
    pub seed: u64,
    /// Scale factor on the paper-size scenario (1.0 = 32k ordinary /24s and
    /// literal Table-5 site sizes; the default keeps binaries fast).
    pub scale: f64,
    /// Emit machine-readable JSON instead of text tables.
    pub json: bool,
    /// Worker threads for the probing phase (0 = all cores).
    pub threads: usize,
    /// Fault injection `(link_loss, icmp_rate)`: per-link drop probability
    /// and ICMP token-bucket refill rate, applied to the classification
    /// phase (the snapshot scan stays loss-free so selection is comparable
    /// to a fault-free run). `None` leaves the network ideal.
    pub faults: Option<(f64, f64)>,
    /// Write the versioned metrics document (JSON) to this path.
    pub metrics: Option<String>,
    /// Print the hierarchical span tree (wall-clock per phase) on stderr.
    pub trace_spans: bool,
    /// Checkpoint the run into a journal under this directory; a killed
    /// run can later be picked up with `--resume`.
    pub run_dir: Option<String>,
    /// Resume from the `--run-dir` journal instead of starting fresh
    /// (seed/scale/faults come from the journal's meta record).
    pub resume: bool,
    /// Per-block watchdog deadline in seconds; a block past its budget is
    /// cancelled cooperatively, requeued, and eventually quarantined.
    pub deadline: Option<f64>,
    /// Probe with the MDA-Lite stopping discipline instead of the full
    /// classic ladder: a block's last-hop diamond is confirmed once, later
    /// destinations stop early, and inconsistent flow-label evidence
    /// escalates back to classic MDA. The mode is recorded in the run
    /// meta, so `--resume` refuses a mode mismatch.
    pub mda_lite: bool,
    /// Time-evolving world `(rate, period)`: after the snapshot, each
    /// ordinary PoP is perturbed with probability `rate` by a scheduled
    /// event (route churn, load-balancer resize, transient loop, address
    /// reuse, false diamond) firing on a virtual clock of `period` probes
    /// per epoch. The derived schedule is a pure function of the scenario
    /// seed, recorded in the run meta so `--resume` replays it exactly.
    /// `None` keeps the world static.
    pub dynamics: Option<(f64, u64)>,
    /// Storage chaos `(seed, rate)`: route every run-dir filesystem
    /// operation (the journal's creates, appends, fsyncs, and reads)
    /// through a seeded fault-injecting VFS that returns ENOSPC/EIO, short
    /// writes, and lying fsyncs at the given per-operation probability.
    /// The run must then either finish with a byte-identical report or
    /// fail with a typed storage error — never corrupt silently. `None`
    /// leaves storage faithful.
    pub storage_chaos: Option<(u64, f64)>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        ExpArgs {
            seed: 42,
            scale: 0.12,
            json: false,
            threads: 0,
            faults: None,
            metrics: None,
            trace_spans: false,
            run_dir: None,
            resume: false,
            deadline: None,
            mda_lite: false,
            dynamics: None,
            storage_chaos: None,
        }
    }
}

/// Why parsing failed (or legitimately stopped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// `--help` was requested; print usage and exit 0.
    Help,
    /// A flag was unknown or malformed.
    Error(String),
}

/// Usage text shared by every binary.
pub const USAGE: &str =
    "usage: <experiment> [--seed N] [--scale F] [--threads N] [--faults L,R] [--json]\n\
\u{20}                   [--metrics OUT.json] [--trace-spans] [--run-dir DIR] [--resume]\n\
\u{20}                   [--deadline SECS] [--mda-lite] [--dynamics R[,P]]\n\
\u{20}                   [--storage-chaos SEED[,RATE]]\n\
--seed N      scenario seed (default 42)\n\
--scale F     scenario scale, 1.0 = paper-size (default 0.12)\n\
--threads N   probing worker threads, snapshot scan included (default: all cores)\n\
--faults L,R  inject faults into classification probing: per-link loss\n\
\u{20}             probability L and ICMP token-bucket refill rate R\n\
\u{20}             (e.g. --faults 0.02,0.5; R may be `tb` for the default\n\
\u{20}             token-bucket rate 0.5); default: none\n\
--metrics F   write the versioned metrics document (JSON) to F\n\
--trace-spans print per-phase wall-clock spans on stderr\n\
--run-dir DIR checkpoint finished blocks into DIR/journal.wal as they\n\
\u{20}             complete, so a killed run can be resumed\n\
--resume      resume from the --run-dir journal: skip checkpointed\n\
\u{20}             blocks; seed/scale/faults come from the journal\n\
--deadline S  per-block watchdog deadline in seconds (default 30);\n\
\u{20}             blocks past it are cancelled, requeued, then quarantined\n\
--mda-lite    probe with the MDA-Lite stopping discipline: resolve each\n\
\u{20}             block's last-hop diamond once, stop early on later\n\
\u{20}             destinations, escalate to classic MDA on inconsistent\n\
\u{20}             evidence (recorded in the run meta; --resume refuses a\n\
\u{20}             mode mismatch)\n\
--dynamics R[,P]  evolve the world mid-campaign: each ordinary PoP is\n\
\u{20}             perturbed with probability R (route churn, LB resize,\n\
\u{20}             transient loop, address reuse, false diamond) on a\n\
\u{20}             virtual clock of P probes per epoch (default 64). The\n\
\u{20}             schedule derives from the seed alone and is recorded in\n\
\u{20}             the run meta, so --resume replays it byte-for-byte\n\
--storage-chaos SEED[,RATE]  inject disk faults into every run-dir\n\
\u{20}             filesystem operation: ENOSPC, EIO, short writes, and\n\
\u{20}             lying fsyncs fire with per-op probability\n\
\u{20}             RATE (default 0.02) on a schedule derived from SEED.\n\
\u{20}             The run either completes with a byte-identical report\n\
\u{20}             or fails with a typed storage error — never silently\n\
\u{20}             corrupts. Requires --run-dir\n\
--json        machine-readable output";

impl ExpArgs {
    /// Parse from `std::env::args`. Unknown flags abort with usage help.
    pub fn parse() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(ParseOutcome::Help) => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            Err(ParseOutcome::Error(msg)) => {
                eprintln!("{msg}; try --help");
                std::process::exit(2);
            }
        }
    }

    /// Parse from an explicit token stream (testable core of [`parse`]).
    ///
    /// [`parse`]: ExpArgs::parse
    pub fn parse_from<I>(tokens: I) -> Result<Self, ParseOutcome>
    where
        I: IntoIterator<Item = String>,
    {
        let mut args = ExpArgs::default();
        let mut it = tokens.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--seed" => args.seed = expect_value(&mut it, "--seed")?,
                "--scale" => args.scale = expect_value(&mut it, "--scale")?,
                "--threads" => args.threads = expect_value(&mut it, "--threads")?,
                "--faults" => {
                    let v: String = expect_value(&mut it, "--faults")?;
                    args.faults = Some(parse_faults(&v)?);
                }
                "--metrics" => args.metrics = Some(expect_value(&mut it, "--metrics")?),
                "--trace-spans" => args.trace_spans = true,
                "--run-dir" => args.run_dir = Some(expect_value(&mut it, "--run-dir")?),
                "--resume" => args.resume = true,
                "--deadline" => args.deadline = Some(expect_value(&mut it, "--deadline")?),
                "--mda-lite" => args.mda_lite = true,
                "--dynamics" => {
                    let v: String = expect_value(&mut it, "--dynamics")?;
                    args.dynamics = Some(parse_dynamics(&v)?);
                }
                "--storage-chaos" => {
                    let v: String = expect_value(&mut it, "--storage-chaos")?;
                    args.storage_chaos = Some(parse_storage_chaos(&v)?);
                }
                "--json" => args.json = true,
                "--help" | "-h" => return Err(ParseOutcome::Help),
                other => return Err(ParseOutcome::Error(format!("unknown flag {other:?}"))),
            }
        }
        if args.scale <= 0.0 {
            return Err(ParseOutcome::Error("--scale must be positive".into()));
        }
        if args.resume && args.run_dir.is_none() {
            return Err(ParseOutcome::Error("--resume requires --run-dir".into()));
        }
        if args.deadline.is_some_and(|d| d <= 0.0) {
            return Err(ParseOutcome::Error("--deadline must be positive".into()));
        }
        if args.storage_chaos.is_some() && args.run_dir.is_none() {
            return Err(ParseOutcome::Error(
                "--storage-chaos requires --run-dir (the faults target the run dir's \
                 journal)"
                    .into(),
            ));
        }
        Ok(args)
    }
}

/// Default ICMP token-bucket refill rate selected by `--faults L,tb`.
pub const DEFAULT_FAULT_RATE: f64 = 0.5;

/// Parse a `--faults loss,rate` value: loss in `[0, 1)`, rate in `(0, 1]`
/// or the literal `tb` for the default token-bucket rate.
fn parse_faults(v: &str) -> Result<(f64, f64), ParseOutcome> {
    let bad = || ParseOutcome::Error(format!("invalid value {v:?} for --faults (want loss,rate)"));
    let (l, r) = v.split_once(',').ok_or_else(bad)?;
    let loss: f64 = l.trim().parse().map_err(|_| bad())?;
    let rate: f64 = if r.trim() == "tb" {
        DEFAULT_FAULT_RATE
    } else {
        r.trim().parse().map_err(|_| bad())?
    };
    if !(0.0..1.0).contains(&loss) {
        return Err(ParseOutcome::Error(format!(
            "--faults loss must be in [0, 1), got {loss}"
        )));
    }
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(ParseOutcome::Error(format!(
            "--faults rate must be in (0, 1], got {rate}"
        )));
    }
    Ok((loss, rate))
}

/// Default virtual-clock period (probes per epoch) selected by
/// `--dynamics R` with no explicit period.
pub const DEFAULT_DYNAMICS_PERIOD: u64 = 64;

/// Parse a `--dynamics rate[,period]` value: rate in `[0, 1]`, period a
/// probe count of at least 8 (defaults to [`DEFAULT_DYNAMICS_PERIOD`]).
fn parse_dynamics(v: &str) -> Result<(f64, u64), ParseOutcome> {
    let bad = || {
        ParseOutcome::Error(format!(
            "invalid value {v:?} for --dynamics (want rate[,period])"
        ))
    };
    let (r, p) = match v.split_once(',') {
        Some((r, p)) => (r, Some(p)),
        None => (v, None),
    };
    let rate: f64 = r.trim().parse().map_err(|_| bad())?;
    let period: u64 = match p {
        Some(p) => p.trim().parse().map_err(|_| bad())?,
        None => DEFAULT_DYNAMICS_PERIOD,
    };
    if !(0.0..=1.0).contains(&rate) {
        return Err(ParseOutcome::Error(format!(
            "--dynamics rate must be in [0, 1], got {rate}"
        )));
    }
    if period < 8 {
        return Err(ParseOutcome::Error(format!(
            "--dynamics period must be at least 8 probes, got {period}"
        )));
    }
    Ok((rate, period))
}

/// Default per-operation fault probability selected by `--storage-chaos
/// SEED` with no explicit rate.
pub const DEFAULT_CHAOS_RATE: f64 = 0.02;

/// Parse a `--storage-chaos seed[,rate]` value: any u64 seed, rate in
/// `(0, 1]` (defaults to [`DEFAULT_CHAOS_RATE`]).
fn parse_storage_chaos(v: &str) -> Result<(u64, f64), ParseOutcome> {
    let bad = || {
        ParseOutcome::Error(format!(
            "invalid value {v:?} for --storage-chaos (want seed[,rate])"
        ))
    };
    let (s, r) = match v.split_once(',') {
        Some((s, r)) => (s, Some(r)),
        None => (v, None),
    };
    let seed: u64 = s.trim().parse().map_err(|_| bad())?;
    let rate: f64 = match r {
        Some(r) => r.trim().parse().map_err(|_| bad())?,
        None => DEFAULT_CHAOS_RATE,
    };
    if !(rate > 0.0 && rate <= 1.0) {
        return Err(ParseOutcome::Error(format!(
            "--storage-chaos rate must be in (0, 1], got {rate}"
        )));
    }
    Ok((seed, rate))
}

fn expect_value<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, ParseOutcome> {
    let Some(v) = it.next() else {
        return Err(ParseOutcome::Error(format!("{flag} requires a value")));
    };
    v.parse()
        .map_err(|_| ParseOutcome::Error(format!("invalid value {v:?} for {flag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<ExpArgs, ParseOutcome> {
        ExpArgs::parse_from(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_when_no_flags() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.seed, 42);
        assert!(!a.json);
    }

    #[test]
    fn all_flags_parse() {
        let a = parse(&["--seed", "7", "--scale", "0.5", "--threads", "3", "--json"]).unwrap();
        assert_eq!(a.seed, 7);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.threads, 3);
        assert!(a.json);
    }

    #[test]
    fn help_is_not_an_error() {
        assert!(matches!(parse(&["--help"]), Err(ParseOutcome::Help)));
        assert!(matches!(parse(&["-h"]), Err(ParseOutcome::Help)));
    }

    #[test]
    fn faults_flag_parses_loss_and_rate() {
        let a = parse(&["--faults", "0.02,0.5"]).unwrap();
        assert_eq!(a.faults, Some((0.02, 0.5)));
        assert_eq!(parse(&[]).unwrap().faults, None);
        // Whitespace around the comma is tolerated.
        let b = parse(&["--faults", "0.05, 0.25"]).unwrap();
        assert_eq!(b.faults, Some((0.05, 0.25)));
        // `tb` selects the default token-bucket rate.
        let c = parse(&["--faults", "0.02,tb"]).unwrap();
        assert_eq!(c.faults, Some((0.02, DEFAULT_FAULT_RATE)));
    }

    #[test]
    fn metrics_and_trace_spans_flags_parse() {
        let a = parse(&["--metrics", "m.json", "--trace-spans"]).unwrap();
        assert_eq!(a.metrics.as_deref(), Some("m.json"));
        assert!(a.trace_spans);
        let d = parse(&[]).unwrap();
        assert_eq!(d.metrics, None);
        assert!(!d.trace_spans);
        assert!(matches!(parse(&["--metrics"]), Err(ParseOutcome::Error(_))));
    }

    #[test]
    fn faults_flag_rejects_malformed_and_out_of_range() {
        assert!(matches!(parse(&["--faults"]), Err(ParseOutcome::Error(_))));
        assert!(matches!(
            parse(&["--faults", "0.02"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--faults", "1.5,0.5"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--faults", "0.02,0"]),
            Err(ParseOutcome::Error(_))
        ));
    }

    #[test]
    fn run_dir_resume_and_deadline_parse() {
        let a = parse(&["--run-dir", "runs/x", "--resume", "--deadline", "2.5"]).unwrap();
        assert_eq!(a.run_dir.as_deref(), Some("runs/x"));
        assert!(a.resume);
        assert_eq!(a.deadline, Some(2.5));
        let d = parse(&[]).unwrap();
        assert_eq!(d.run_dir, None);
        assert!(!d.resume);
        assert_eq!(d.deadline, None);
    }

    #[test]
    fn resume_without_run_dir_rejected() {
        assert!(matches!(parse(&["--resume"]), Err(ParseOutcome::Error(_))));
        assert!(matches!(
            parse(&["--run-dir", "x", "--deadline", "0"]),
            Err(ParseOutcome::Error(_))
        ));
    }

    #[test]
    fn shards_flag_is_a_parse_error_and_creates_no_run_dir() {
        let dir = std::env::temp_dir().join(format!("hobbit-args-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir.to_str().unwrap();
        match parse(&["--shards", "2", "--run-dir", dir_arg]) {
            Err(ParseOutcome::Error(msg)) => assert!(msg.contains("--shards"), "{msg}"),
            other => panic!("expected an unknown-flag error, got {other:?}"),
        }
        assert!(
            !dir.exists(),
            "a rejected command line must not create its run dir"
        );
    }

    #[test]
    fn mda_lite_flag_parses() {
        let a = parse(&["--mda-lite"]).unwrap();
        assert!(a.mda_lite);
        assert!(!parse(&[]).unwrap().mda_lite, "classic is the default");
        // Composes with the journal flags it is recorded through.
        let b = parse(&["--mda-lite", "--run-dir", "x", "--resume"]).unwrap();
        assert!(b.mda_lite);
        assert!(b.resume);
    }

    #[test]
    fn dynamics_flag_parses_rate_and_period() {
        let a = parse(&["--dynamics", "0.3"]).unwrap();
        assert_eq!(a.dynamics, Some((0.3, DEFAULT_DYNAMICS_PERIOD)));
        let b = parse(&["--dynamics", "0.5,128"]).unwrap();
        assert_eq!(b.dynamics, Some((0.5, 128)));
        assert_eq!(parse(&[]).unwrap().dynamics, None, "static by default");
        // Whitespace around the comma is tolerated, like --faults.
        let c = parse(&["--dynamics", "0.2, 32"]).unwrap();
        assert_eq!(c.dynamics, Some((0.2, 32)));
    }

    #[test]
    fn dynamics_flag_rejects_malformed_and_out_of_range() {
        assert!(matches!(
            parse(&["--dynamics"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--dynamics", "x"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--dynamics", "1.5"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--dynamics", "0.3,4"]),
            Err(ParseOutcome::Error(_))
        ));
    }

    #[test]
    fn storage_chaos_flag_parses_seed_and_rate() {
        let a = parse(&["--storage-chaos", "7", "--run-dir", "x"]).unwrap();
        assert_eq!(a.storage_chaos, Some((7, DEFAULT_CHAOS_RATE)));
        let b = parse(&["--storage-chaos", "7, 0.1", "--run-dir", "x"]).unwrap();
        assert_eq!(b.storage_chaos, Some((7, 0.1)));
        assert_eq!(parse(&[]).unwrap().storage_chaos, None);
    }

    #[test]
    fn storage_chaos_flag_rejects_malformed_and_misplaced() {
        assert!(matches!(
            parse(&["--storage-chaos"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--storage-chaos", "x", "--run-dir", "d"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--storage-chaos", "7,0", "--run-dir", "d"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--storage-chaos", "7,1.5", "--run-dir", "d"]),
            Err(ParseOutcome::Error(_))
        ));
        // Without a run dir there is nothing for the faults to target.
        match parse(&["--storage-chaos", "7"]) {
            Err(ParseOutcome::Error(msg)) => assert!(msg.contains("--run-dir"), "{msg}"),
            other => panic!("expected missing run-dir error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(matches!(parse(&["--bogus"]), Err(ParseOutcome::Error(_))));
    }

    #[test]
    fn missing_and_bad_values_rejected() {
        assert!(matches!(parse(&["--seed"]), Err(ParseOutcome::Error(_))));
        assert!(matches!(
            parse(&["--scale", "x"]),
            Err(ParseOutcome::Error(_))
        ));
        assert!(matches!(
            parse(&["--scale", "-1"]),
            Err(ParseOutcome::Error(_))
        ));
    }
}
