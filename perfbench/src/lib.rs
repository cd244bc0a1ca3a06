//! Campaign benchmark for the Hobbit reproduction: what the two benchmark
//! binaries share.
//!
//! One process runs one closed-batch campaign on one workload: it builds
//! the workload's world (set-up, timed [`SETUPS`] times), runs the campaign
//! `hobbit_map` runs — snapshot, select, calibrate, classify, identical-set
//! aggregation, MCL, reprobe, dataset assembly — on that world, checks the
//! outputs with [`summary`], and prints one JSON line. `perfbench/run.py`
//! starts these processes, so every campaign's memory high-water mark is
//! its own.
//!
//! - The `campaign` binary ([`run_untraced`]) times the campaign through the
//!   program's own path ([`Pipeline`] + `figure9::cluster_and_validate`),
//!   tracing off.
//! - The `traced` binary runs the same campaign as a sequence of calls into
//!   each layer's public functions, with a benchmark span around every
//!   call, and derives the per-layer metrics. Its canonical report and
//!   dataset must be byte-identical to the untraced run's, which is what
//!   shows the sequence is the same campaign. It is a binary of its own so
//!   that the untraced benchmark still builds when it does not.

use aggregate::{Aggregate, HobbitDataset};
use experiments::exps::figure9::{cluster_and_validate, ClusterOutcome};
use experiments::journal::crc32;
use experiments::pipeline::scenario_config;
use experiments::{ExpArgs, Pipeline};
use netsim::build::{build, Scenario};
use netsim::Block24;
use serde_json::{json, Value};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// World scale of every workload: about 9,500 /24s selected per world, so
/// that one campaign on each of a seed's four worlds fits a run. Smaller
/// worlds do not buy proportionally more campaigns: at scale 0.1 a
/// campaign still takes about 40% of its time at 0.3, partly because
/// reprobing validates a fixed number of clusters.
pub const SCALE: f64 = 0.25;
/// Classification workers (the benchmark host has two cores).
pub const THREADS: usize = 2;
/// World builds per process; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// `hobbit_map`'s reprobe limit: clusters validated.
pub const REPROBE_CLUSTERS: usize = 120;
/// `hobbit_map`'s reprobe limit: pairs sampled per cluster.
pub const REPROBE_PAIRS: usize = 40;

/// One benchmark workload: the `hobbit_map` flags it runs with.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// `--mda-lite`.
    pub mda_lite: bool,
    /// `--faults LOSS,RATE`.
    pub faults: Option<(f64, f64)>,
    /// `--dynamics RATE,PERIOD`.
    pub dynamics: Option<(f64, u64)>,
    /// A fresh `--run-dir` (journal on).
    pub journaled: bool,
}

/// The workloads; `BENCHMARK.json` records why each was chosen.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper-static",
        mda_lite: false,
        faults: None,
        dynamics: None,
        journaled: false,
    },
    Workload {
        name: "lite-static",
        mda_lite: true,
        faults: None,
        dynamics: None,
        journaled: false,
    },
    Workload {
        name: "lossy-journaled",
        mda_lite: false,
        faults: Some((0.05, 0.25)),
        dynamics: Some((0.5, 256)),
        journaled: true,
    },
];

/// Command-line arguments of both benchmark binaries.
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// World seed.
    pub seed: u64,
    /// Directory for the journal of a journaled workload (must not exist).
    pub run_dir: PathBuf,
}

impl Args {
    /// Parse `--workload NAME --seed N --run-dir DIR`.
    pub fn parse() -> Result<Args, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut flags: HashMap<&str, &str> = HashMap::new();
        for pair in argv.chunks(2) {
            match pair {
                [k, v] if k.starts_with("--") => {
                    flags.insert(k.as_str(), v.as_str());
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        let name = flags.get("--workload").ok_or("missing --workload")?;
        let workload = WORKLOADS
            .iter()
            .find(|w| w.name == *name)
            .ok_or_else(|| format!("unknown workload {name}"))?;
        let seed = flags
            .get("--seed")
            .ok_or("missing --seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))?;
        let run_dir = PathBuf::from(flags.get("--run-dir").ok_or("missing --run-dir")?);
        Ok(Args {
            workload,
            seed,
            run_dir,
        })
    }
}

/// Build the workload's world [`SETUPS`] times; returns the last world and
/// every build time in seconds.
pub fn setup(seed: u64) -> (Scenario, Vec<f64>) {
    let cfg = scenario_config(&ExpArgs {
        seed,
        scale: SCALE,
        ..Default::default()
    });
    let mut times = Vec::with_capacity(SETUPS);
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(black_box(build(cfg.clone())));
        times.push(t.elapsed().as_secs_f64());
    }
    (world.expect("SETUPS > 0"), times)
}

/// What a campaign leaves for the checks.
pub struct Outcome {
    /// The pipeline run, with its world.
    pub p: Pipeline,
    /// The Hobbit-blocks dataset `hobbit_map` writes.
    pub dataset: HobbitDataset,
    /// Probes spent reprobing clusters.
    pub reprobe_probes: u64,
}

/// The campaign through the program's own path, tracing off.
fn campaign(w: &Workload, seed: u64, world: Scenario, run_dir: &Path) -> Result<Outcome, String> {
    let mut b = Pipeline::builder()
        .seed(seed)
        .scale(SCALE)
        .threads(THREADS)
        .mda_lite(w.mda_lite)
        .scenario(world);
    if let Some((loss, rate)) = w.faults {
        b = b.faults(loss, rate);
    }
    if let Some((rate, period)) = w.dynamics {
        b = b.dynamics(rate, period);
    }
    if w.journaled {
        b = b.run_dir(run_dir);
    }
    let mut p = b.try_run().map_err(|e| e.to_string())?;
    let carried = p.net_stats.probes_carried;
    let (aggs, _, outcomes) = cluster_and_validate(&mut p, seed, REPROBE_CLUSTERS, REPROBE_PAIRS);
    let dataset = assemble(seed, &aggs, &outcomes);
    let reprobe_probes = p.scenario.network.net_stats().probes_carried - carried;
    Ok(Outcome {
        p,
        dataset,
        reprobe_probes,
    })
}

/// `hobbit_map`'s dataset assembly (`exps::hobbit_map::build_dataset`,
/// which builds its own world and so cannot be timed on a built one):
/// merge the aggregates of clusters that reprobing confirmed homogeneous.
pub fn assemble(seed: u64, aggs: &[Aggregate], outcomes: &[ClusterOutcome]) -> HobbitDataset {
    let mut merged_away: HashSet<u32> = HashSet::new();
    let mut finals: Vec<Aggregate> = Vec::new();
    let mut validated_sets: HashSet<Vec<Block24>> = HashSet::new();
    for o in outcomes {
        if !o.validation.homogeneous() || o.members.len() < 2 {
            continue;
        }
        let mut blocks = Vec::new();
        let mut lasthops = Vec::new();
        for &m in &o.members {
            merged_away.insert(m);
            blocks.extend(aggs[m as usize].blocks.iter().copied());
            lasthops.extend(aggs[m as usize].lasthops.iter().copied());
        }
        blocks.sort();
        lasthops.sort();
        lasthops.dedup();
        validated_sets.insert(blocks.clone());
        finals.push(Aggregate { lasthops, blocks });
    }
    for (i, a) in aggs.iter().enumerate() {
        if !merged_away.contains(&(i as u32)) {
            finals.push(a.clone());
        }
    }
    let mut dataset = HobbitDataset::from_aggregates(seed, &finals, &|_| false);
    for b in &mut dataset.blocks {
        let members: Vec<Block24> = b.members().collect();
        if validated_sets.contains(&members) {
            b.validated = true;
        }
    }
    dataset
}

/// Time one untraced campaign and print its summary line.
pub fn run_untraced(args: &Args) -> Value {
    let (world, setup_s) = setup(args.seed);
    let t = Instant::now();
    let out = campaign(args.workload, args.seed, world, &args.run_dir);
    let campaign_s = t.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    summary(&out, setup_s, campaign_s, peak_rss_mb)
}

/// The checks and end-to-end counts shared by both entry points.
pub fn summary(
    out: &Result<Outcome, String>,
    setup_s: Vec<f64>,
    campaign_s: f64,
    peak_rss_mb: f64,
) -> Value {
    let mut doc = json!({
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "peak_rss_mb": peak_rss_mb,
    });
    let mut errors: Vec<String> = Vec::new();
    match out {
        Err(e) => errors.push(format!("campaign failed: {e}")),
        Ok(o) => {
            let p = &o.p;
            let selected = p.selected.len() as u64;
            let mismatches = p.verify_conformance();
            errors.extend(
                mismatches
                    .iter()
                    .take(5)
                    .map(|m| format!("conformance: {m}")),
            );
            // A block fails if it is quarantined or missing from the report;
            // a failed conformance check fails every block.
            let measured: HashSet<Block24> = p.measurements.iter().map(|m| m.block).collect();
            let missing = p
                .selected
                .iter()
                .filter(|s| !measured.contains(&s.block))
                .count() as u64;
            let quarantined = p.supervision.quarantined.len() as u64;
            let failed = if mismatches.is_empty() {
                (missing + quarantined).min(selected)
            } else {
                selected
            };
            let homog: Vec<Block24> = p
                .measurements
                .iter()
                .filter(|m| m.classification.is_homogeneous())
                .map(|m| m.block)
                .collect();
            let confirmed = homog
                .iter()
                .filter(|&&b| p.scenario.truth.is_homogeneous(b))
                .count();
            let methodology = p.calibration_probes + p.classify_probes + o.reprobe_probes;
            let extra = json!({
                "selected": selected,
                "failed": failed,
                "probes": json!({
                    "calibrate": p.calibration_probes,
                    "classify": p.classify_probes,
                    "reprobe": o.reprobe_probes,
                    "methodology": methodology,
                }),
                "homog_verdicts": homog.len(),
                "homog_confirmed": confirmed,
                "report": digest(p.canonical_report().as_bytes()),
                "dataset": digest(o.dataset.to_text().as_bytes()),
            });
            merge(&mut doc, extra);
        }
    }
    merge(&mut doc, json!({ "errors": errors }));
    doc
}

fn merge(doc: &mut Value, extra: Value) {
    if let (Value::Object(d), Value::Object(e)) = (doc, extra) {
        d.extend(e);
    }
}

/// CRC-32 and length of a byte string: enough to show two outputs differ.
fn digest(bytes: &[u8]) -> String {
    format!("{:08x}-{}", crc32(bytes), bytes.len())
}

/// The process's resident-memory high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Entry point shared by both binaries: parse, run, print one JSON line.
pub fn main_with(run: impl FnOnce(&Args) -> Value) {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let doc = run(&args);
    if args.run_dir.exists() {
        if let Err(e) = std::fs::remove_dir_all(&args.run_dir) {
            eprintln!("warning: could not remove {}: {e}", args.run_dir.display());
        }
    }
    println!("{doc}");
}
