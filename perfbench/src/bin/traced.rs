//! One traced campaign with the per-layer breakdown:
//! `traced --workload NAME --seed N --run-dir DIR`.
//!
//! The campaign runs as one call per layer with a benchmark span around
//! each, and the spans, the program's own counters and a few measurements
//! taken from outside give the per-layer metrics. This binary alone
//! installs the allocation-counting allocator, so the untraced campaigns
//! run on the system allocator untouched.

use aggregate::{
    pairwise_scores, rule_matches, sweep_inflation_observed, validate_cluster_observed,
    ReprobeConfig, RuleParams,
};
use experiments::exps::figure9::{ClusterOutcome, INFLATIONS};
use experiments::pipeline::{CALIBRATION_BLOCKS, FAULTED_RETRIES};
use experiments::supervise::{classify_blocks_supervised, SuperviseHooks};
use experiments::{
    JournalWriter, Pipeline, RealVfs, RunMeta, Storage, SuperviseConfig, Vfs, VfsFile,
};
use hobbit::{
    detects_homogeneous, select_block, survey_block, BlockLasthopData, ConfidenceTable,
    HobbitConfig, SelectReject,
};
use netsim::build::{derive_dynamics, Scenario};
use netsim::{encode_probe, FaultConfig, Network, SharedNetwork};
use obs::{Counter, Gauge, Histogram, Recorder, Registry};
use perfbench::{
    assemble, peak_rss_mb, setup, summary, Args, Outcome, Workload, REPROBE_CLUSTERS,
    REPROBE_PAIRS, SCALE, THREADS,
};
use probe::{zmap, MdaMode, Prober, StoppingRule};
use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

/// Blocks whose 254 addresses the single-thread forwarding entries probe.
const SEND_BLOCKS: usize = 400;

/// Heap allocations (including reallocations) made so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation it hands out.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One benchmark span: a call into a layer, and the span that caused it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// Spans kept in memory and written out when the campaign ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_s: now,
            end_s: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_s = self.origin.elapsed().as_secs_f64();
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total duration of the spans named `name`, in seconds.
    fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    /// Spans whose children's durations sum past their own (beyond the
    /// nanosecond the floating-point sums may round by).
    fn overfull(&self) -> Vec<String> {
        (0..self.spans.len())
            .filter_map(|i| {
                let own = self.spans[i].end_s - self.spans[i].start_s;
                let children: f64 = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| c.end_s - c.start_s)
                    .sum();
                (children > own + 1e-9).then(|| {
                    format!(
                        "span {} ({own:.6} s) has children summing to {children:.6} s",
                        self.spans[i].name
                    )
                })
            })
            .collect()
    }

    fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "parent": s.parent.map(|p| self.spans[p].name),
                        "start_s": s.start_s,
                        "end_s": s.end_s,
                    })
                })
                .collect(),
        )
    }
}

/// The traced run's recorder: counters go to a registry, and every
/// per-block classification span is kept as a sample.
#[derive(Default)]
struct BenchRecorder {
    reg: Registry,
    block_us: Mutex<Vec<u64>>,
}

impl Recorder for BenchRecorder {
    fn counter(&self, name: &str) -> Counter {
        self.reg.counter(name)
    }
    fn gauge(&self, name: &str) -> Gauge {
        self.reg.gauge(name)
    }
    fn histogram(&self, name: &str) -> Histogram {
        self.reg.histogram(name)
    }
    fn record_span(&self, path: &str, us: u64) {
        if path == "run/classify/block" {
            self.block_us
                .lock()
                .expect("no recorder user panics while holding the lock")
                .push(us);
        }
    }
}

impl BenchRecorder {
    fn count(&self, name: &str) -> u64 {
        self.reg.counter_value(name).unwrap_or(0)
    }
}

/// Journal storage that times every append and fsync it passes through.
#[derive(Debug, Default)]
struct TimedVfs {
    inner: RealVfs,
    busy_ns: Arc<AtomicU64>,
}

#[derive(Debug)]
struct TimedFile {
    inner: Box<dyn VfsFile>,
    busy_ns: Arc<AtomicU64>,
}

impl TimedFile {
    fn timed<T>(&mut self, f: impl FnOnce(&mut Box<dyn VfsFile>) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl VfsFile for TimedFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.timed(|f| f.append(buf))
    }
    fn sync(&mut self) -> io::Result<()> {
        self.timed(|f| f.sync())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

impl Vfs for TimedVfs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
    fn open_write(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(TimedFile {
            inner: self.inner.open_write(path, truncate)?,
            busy_ns: self.busy_ns.clone(),
        }))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }
    fn create_new(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_new(path, bytes)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn mtime(&self, path: &Path) -> io::Result<SystemTime> {
        self.inner.mtime(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list_dir(path)
    }
}

/// Layer figures the traced campaign collects beside its spans.
#[derive(Default)]
struct Figures {
    scanned: u64,
    engine_cpu_s: f64,
    journal_appends: u64,
    journal_fsyncs: u64,
    journal_busy_s: f64,
    clusters: u64,
    identical_pairs: u64,
    reprobe_pairs: u64,
}

/// The campaign of [`perfbench::run_untraced`], as one call per layer with
/// a span around each. It follows `PipelineBuilder::try_run` for a fresh
/// run (no resume, shard or sabotage) and `figure9::cluster_and_validate`.
fn traced_campaign(
    w: &Workload,
    seed: u64,
    world: Scenario,
    run_dir: &Path,
    rec: &BenchRecorder,
    tr: &mut Tracer,
    fig: &mut Figures,
) -> Result<Outcome, String> {
    let timed_vfs = Arc::new(TimedVfs::default());
    let busy_ns = timed_vfs.busy_ns.clone();
    let journal = if w.journaled {
        let mut storage = Storage::with_vfs(timed_vfs);
        storage.observe(rec);
        let meta = RunMeta::new(seed, SCALE, w.faults)
            .with_mda_lite(w.mda_lite)
            .with_dynamics(w.dynamics);
        let writer = tr
            .span("experiments.journal.create", || {
                JournalWriter::create_via(storage, run_dir, &meta)
            })
            .map_err(|e| e.to_string())?;
        Some(Mutex::new(writer))
    } else {
        None
    };

    let mut scenario = world;
    scenario.network.set_recorder(rec);
    fig.scanned = scenario.network.allocated_blocks().len() as u64;
    let snapshot = tr.span("probe.zmap", || zmap::scan_all(&mut scenario.network));

    let dynamics_events = tr.span("netsim.arm", || {
        if let Some((loss, rate)) = w.faults {
            scenario
                .network
                .set_faults(FaultConfig::lossy(loss as f32, rate as f32));
        }
        let mut events = 0;
        if let Some((rate, period)) = w.dynamics {
            let schedule = derive_dynamics(&scenario, rate, period);
            events = schedule.events.len() as u64;
            scenario.network.set_dynamics(schedule);
        }
        events
    });

    let (selected, reject_too_few, reject_uncovered) = tr.span("hobbit.select", || {
        let mut selected = Vec::new();
        let (mut too_few, mut uncovered) = (0, 0);
        for block in snapshot.blocks() {
            match select_block(&snapshot, block) {
                Ok(sel) => selected.push(sel),
                Err(SelectReject::TooFewActive) => too_few += 1,
                Err(SelectReject::UncoveredQuarter) => uncovered += 1,
            }
        }
        (selected, too_few, uncovered)
    });

    let (confidence, calibration_probes) = tr.span("hobbit.calibrate", || {
        let stride = (selected.len() / CALIBRATION_BLOCKS).max(1);
        let mut dataset: Vec<BlockLasthopData> = Vec::new();
        let mut prober = Prober::new(&mut scenario.network, 0xCA11);
        prober.observe(rec);
        if w.faults.is_some() {
            prober.retries = FAULTED_RETRIES;
        }
        for sel in selected.iter().step_by(stride).take(CALIBRATION_BLOCKS) {
            let survey = survey_block(&mut prober, sel, StoppingRule::confidence95(), false);
            if survey.per_addr_lasthops.len() >= 8 && detects_homogeneous(&survey.per_addr_lasthops)
            {
                dataset.push(survey.lasthop_data());
            }
        }
        let probes = prober.probes_sent();
        drop(prober);
        let table = ConfidenceTable::build(&dataset, 50, 24, 0.95, 8, seed ^ 0xF16);
        (table, probes)
    });

    let hobbit_cfg = HobbitConfig {
        seed: seed ^ 0x0B17,
        prober_retries: if w.faults.is_some() {
            FAULTED_RETRIES
        } else {
            HobbitConfig::default().prober_retries
        },
        mda_mode: if w.mda_lite {
            MdaMode::Lite
        } else {
            MdaMode::Classic
        },
        dynamics_period: match w.dynamics {
            Some((_, period)) if dynamics_events > 0 => period,
            _ => 0,
        },
        ..Default::default()
    };
    let Scenario {
        network,
        truth,
        config,
        pop_routers,
    } = scenario;
    let shared = SharedNetwork::new(network);
    let hooks = SuperviseHooks {
        journal: journal.as_ref(),
        ..Default::default()
    };
    let cpu_before = cpu_seconds();
    let outcome = tr.span("experiments.engine", || {
        classify_blocks_supervised(
            &shared,
            &selected,
            &confidence,
            &hobbit_cfg,
            THREADS,
            rec,
            &SuperviseConfig::default(),
            &hooks,
        )
    });
    fig.engine_cpu_s = cpu_seconds() - cpu_before;
    let mut supervision = outcome.report;
    if let Some(j) = &journal {
        let mut j = j.lock().map_err(|_| "journal lock poisoned".to_string())?;
        if let Some(e) = supervision.storage_error.take() {
            return Err(e.to_string());
        }
        tr.span("experiments.journal.seal", || j.flush())
            .map_err(|e| e.to_string())?;
        fig.journal_appends = j.appends();
        fig.journal_fsyncs = j.fsyncs();
        fig.journal_busy_s = busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    }
    let mut measurements = outcome.measurements;
    measurements.sort_by_key(|m| m.block);
    let classify_probes = measurements.iter().map(|m| m.probes_used).sum();
    let network = shared
        .try_unwrap()
        .map_err(|_| "a worker still holds the shared network".to_string())?;
    let net_stats = network.net_stats();
    let mut p = Pipeline {
        scenario: Scenario {
            network,
            truth,
            config,
            pop_routers,
        },
        snapshot,
        selected,
        reject_too_few,
        reject_uncovered,
        confidence,
        hobbit_cfg,
        measurements,
        classify_probes,
        calibration_probes,
        worker_stats: outcome.worker_stats,
        net_stats,
        obs: None,
        supervision,
        seed,
        scale: SCALE,
        dynamics: w.dynamics,
        dynamics_events,
    };

    let aggs = tr.span("aggregate.identical", || p.aggregates());
    let (clustering, _) = tr.span("mcl.sweep", || {
        sweep_inflation_observed(&aggs, &INFLATIONS, rec)
    });
    fig.clusters = clustering.non_trivial().count() as u64;
    let (outcomes, reprobe_probes) = tr.span("aggregate.reprobe", || {
        let cfg = ReprobeConfig {
            max_pairs_per_cluster: REPROBE_PAIRS,
            seed,
            ..Default::default()
        };
        let reprobe_epoch = p.scenario.network.epoch() + 1;
        p.scenario.network.set_epoch(reprobe_epoch);
        let snapshot = p.snapshot.clone();
        let mut prober = Prober::new(&mut p.scenario.network, 0xF9);
        prober.observe(rec);
        let rule_params = RuleParams::default();
        let mut outcomes = Vec::new();
        for (idx, members) in clustering
            .clusters
            .iter()
            .enumerate()
            .filter(|(_, c)| c.len() > 1)
            .take(REPROBE_CLUSTERS)
        {
            let validation = validate_cluster_observed(
                &mut prober,
                &aggs,
                members,
                &cfg,
                |b| select_block(&snapshot, b).ok(),
                rec,
            );
            if validation.total_pairs == 0 {
                continue;
            }
            let scores = pairwise_scores(&aggs, members);
            outcomes.push(ClusterOutcome {
                cluster_idx: idx,
                members: members.clone(),
                validation,
                rule_match: rule_matches(&scores, &rule_params),
            });
        }
        (outcomes, prober.probes_sent())
    });
    fig.identical_pairs = outcomes
        .iter()
        .map(|o| o.validation.identical_pairs as u64)
        .sum();
    fig.reprobe_pairs = outcomes
        .iter()
        .map(|o| o.validation.total_pairs as u64)
        .sum();
    let dataset = tr.span("aggregate.dataset", || assemble(seed, &aggs, &outcomes));
    Ok(Outcome {
        p,
        dataset,
        reprobe_probes,
    })
}

/// Single-thread forwarding cost on a copy of the world: `(ns per probe,
/// allocations per probe)` for `encode_probe` + `Network::send` of one
/// probe to each address of the first [`SEND_BLOCKS`] blocks, echo probes
/// (TTL 64) or TTL-limited ones that expire on the path.
fn send_entry(net: &Network, ttl_limited: bool, allocs: &dyn Fn() -> u64) -> (f64, f64) {
    let vantage = net.vantage_addr();
    let dsts: Vec<_> = net
        .allocated_blocks()
        .into_iter()
        .take(SEND_BLOCKS)
        .flat_map(|b| (1u8..=254).map(move |h| b.addr(h)))
        .collect();
    let send_all = |ident: u16| {
        for (i, &dst) in dsts.iter().enumerate() {
            let ttl = if ttl_limited { 1 + (i % 6) as u8 } else { 64 };
            let seq = i as u16;
            let flow_label = (i % 0xFFFF) as u16; // 0xffff is not a valid label
            let probe = encode_probe(vantage, dst, ttl, ident, seq, flow_label, seq);
            black_box(net.send(probe).expect("benchmark probes are well formed"));
        }
    };
    send_all(0x7E00);
    let (t, a) = (Instant::now(), allocs());
    send_all(0x7E01);
    let n = dsts.len() as f64;
    (t.elapsed().as_nanos() as f64 / n, (allocs() - a) as f64 / n)
}

/// The `p`-quantile (nearest rank) of `v`, which must be sorted.
fn quantile(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Run one traced campaign and print its summary with the per-layer
/// metrics and spans. `allocs` reads the binary's allocation counter.
fn run_traced(args: &Args, allocs: &dyn Fn() -> u64) -> Value {
    let w = args.workload;
    let (world, setup_s) = setup(args.seed);
    // A copy, so these probes stay out of the campaign's counts and state.
    let net = world.network.clone();
    let (echo_ns, allocs_per_probe) = send_entry(&net, false, allocs);
    let (ttl_ns, _) = send_entry(&net, true, allocs);
    drop(net);

    let rec = BenchRecorder::default();
    let mut tr = Tracer::new();
    let mut fig = Figures::default();
    tr.enter("campaign");
    let out = traced_campaign(w, args.seed, world, &args.run_dir, &rec, &mut tr, &mut fig);
    tr.exit();
    let campaign_s = tr.secs("campaign");
    let mut doc = summary(&out, setup_s, campaign_s, peak_rss_mb());
    let Ok(o) = &out else {
        return doc;
    };

    let p = &o.p;
    let selected = p.selected.len().max(1) as f64;
    let net = p.scenario.network.net_stats();
    let snapshot_probes = fig.scanned * 254;
    let methodology = p.calibration_probes + p.classify_probes + o.reprobe_probes;
    let mut errors: Vec<String> = tr.overfull();
    if snapshot_probes + methodology != net.probes_carried {
        errors.push(format!(
            "probe reconciliation: snapshot {snapshot_probes} + calibrate {} + classify {} \
             + reprobe {} != carried {}",
            p.calibration_probes, p.classify_probes, o.reprobe_probes, net.probes_carried
        ));
    }
    let mut block_us = rec
        .block_us
        .lock()
        .expect("the engine has finished")
        .clone();
    block_us.sort_unstable();
    let zmap_s = tr.secs("probe.zmap");
    let engine_s = tr.secs("experiments.engine");
    let sent = rec.count("probe.sent");
    let retries = rec.count("probe.retries");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let m = |value: f64, unit: &str| json!({ "value": value, "unit": unit });
    let layers = json!({
        "netsim.send.echo_ns": m(echo_ns, "ns"),
        "netsim.send.ttl_ns": m(ttl_ns, "ns"),
        "netsim.send.allocs_per_probe": m(allocs_per_probe, "count"),
        "netsim.probes_carried": m(net.probes_carried as f64, "count"),
        "netsim.drops": m(net.total_drops() as f64, "count"),
        "probe.zmap.s": m(zmap_s, "s"),
        "probe.zmap.probes_per_s": m(ratio(snapshot_probes as f64, zmap_s), "1/s"),
        "probe.sent": m(sent as f64, "count"),
        "probe.retries": m(retries as f64, "count"),
        "probe.retry_share": m(ratio(retries as f64, sent as f64), "ratio"),
        "probe.mda_lite.probes_saved": m(rec.count("probe.mda_lite.probes_saved") as f64, "count"),
        "probe.mda_lite.escalations": m(rec.count("probe.mda_lite.escalations") as f64, "count"),
        "hobbit.select.s": m(tr.secs("hobbit.select"), "s"),
        "hobbit.calibrate.s": m(tr.secs("hobbit.calibrate"), "s"),
        "hobbit.calibrate.probes": m(p.calibration_probes as f64, "count"),
        "hobbit.classify_block.ms.p50": m(quantile(&block_us, 0.50) / 1e3, "ms"),
        "hobbit.classify_block.ms.p99": m(quantile(&block_us, 0.99) / 1e3, "ms"),
        "hobbit.classify_block.samples": m(block_us.len() as f64, "count"),
        "hobbit.classify.probes_per_block": m(p.classify_probes as f64 / selected, "probes"),
        "hobbit.classify.resolved_share": m(
            ratio(
                rec.count("classify.dests_resolved") as f64,
                rec.count("classify.dests_probed") as f64,
            ),
            "ratio",
        ),
        "experiments.engine.s": m(engine_s, "s"),
        "experiments.engine.cpu_s": m(fig.engine_cpu_s, "s"),
        "experiments.engine.idle_share": m(
            1.0 - ratio(fig.engine_cpu_s, THREADS as f64 * engine_s),
            "ratio",
        ),
        "experiments.journal.appends": m(fig.journal_appends as f64, "count"),
        "experiments.journal.fsyncs": m(fig.journal_fsyncs as f64, "count"),
        "experiments.journal.append_us": m(
            ratio(fig.journal_busy_s * 1e6, fig.journal_appends as f64),
            "us",
        ),
        "experiments.snapshot_share": m(ratio(zmap_s, campaign_s), "ratio"),
        "experiments.classify_share": m(ratio(engine_s, campaign_s), "ratio"),
        "experiments.reprobe_share": m(ratio(tr.secs("aggregate.reprobe"), campaign_s), "ratio"),
        "aggregate.identical.s": m(tr.secs("aggregate.identical"), "s"),
        "mcl.sweep.s": m(tr.secs("mcl.sweep"), "s"),
        "mcl.clusters": m(fig.clusters as f64, "count"),
        "aggregate.reprobe.s": m(tr.secs("aggregate.reprobe"), "s"),
        "aggregate.reprobe.identical_share": m(
            ratio(fig.identical_pairs as f64, fig.reprobe_pairs as f64),
            "ratio",
        ),
        "aggregate.reprobe.probes": m(o.reprobe_probes as f64, "count"),
    });
    if let Value::Object(d) = &mut doc {
        if let Some(Value::Array(e)) = d.get_mut("errors") {
            e.extend(errors.into_iter().map(Value::String));
        }
        d.insert("layers".into(), layers);
        d.insert("spans".into(), tr.to_json());
    }
    doc
}

/// CPU time (user + system) the whole process has used, in seconds,
/// including threads that have exited.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15, in clock ticks.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / CLOCK_TICKS_PER_S
}

/// `USER_HZ`, the unit of `/proc/self/stat` times on Linux.
const CLOCK_TICKS_PER_S: f64 = 100.0;

fn main() {
    perfbench::main_with(|args| run_traced(args, &|| ALLOCATIONS.load(Ordering::Relaxed)));
}
