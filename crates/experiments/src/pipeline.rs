//! The shared measurement pipeline every experiment builds on:
//! scenario → ZMap scan → selection → confidence calibration →
//! classification of every selected /24.
//!
//! # Concurrency
//!
//! Classification runs over **one** shared network: the selected blocks go
//! into a work-stealing scheduler, worker threads pull blocks and probe
//! them through a [`SharedNetwork`] handle — no per-worker
//! `Network::clone()`. Every block gets a *fresh* prober whose ICMP ident
//! is derived from the block address (not the worker id), so the probe
//! stream a block sees — and therefore every classification — is
//! byte-identical no matter how many threads run or which worker steals
//! which block.
//!
//! # Entry points
//!
//! Use the fluent builder:
//!
//! ```no_run
//! use experiments::Pipeline;
//! let p = Pipeline::builder().seed(42).scale(0.01).threads(8).run();
//! assert_eq!(p.measurements.len(), p.selected.len());
//! ```
//!
//! The classification engine,
//! [`crate::supervise::classify_blocks_supervised`], is also available
//! standalone via [`classify_blocks`], which takes the shared-network
//! handle directly.

use crate::args::ExpArgs;
use crate::journal::{CrashPoint, Entry, JournalWriter, RunMeta, JOURNAL_SCHEMA};
use crate::supervise::{
    classify_blocks_supervised, FaultInjector, ShutdownSignal, SuperviseConfig, SuperviseHooks,
    SuperviseObs, SuperviseReport, SupervisedOutcome,
};
use crate::vfs::{Storage, StorageError};
use aggregate::{aggregate_identical, Aggregate, HomogBlock};
use hobbit::{
    detects_homogeneous, select_block, survey_block, BlockLasthopData, BlockMeasurement,
    ConfidenceTable, HobbitConfig, SelectReject, SelectedBlock,
};
use netsim::build::{build, derive_dynamics, Scenario, ScenarioConfig};
use netsim::{Addr, Block24, FaultConfig, NetworkStats, SharedNetwork};
use obs::{NullRecorder, Recorder, Registry, SpanTimer};
use probe::{zmap, MdaMode, Prober, StoppingRule, ZmapSnapshot};
use serde::Serialize;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The recorder unobserved runs report into (retains nothing).
static NULL_RECORDER: NullRecorder = NullRecorder;

/// Derive the scenario configuration from the common arguments.
pub fn scenario_config(args: &ExpArgs) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(args.seed);
    cfg.target_blocks = ((cfg.target_blocks as f64) * args.scale).round().max(256.0) as usize;
    cfg.big_block_scale = args.scale.min(1.0);
    cfg
}

/// Everything the pipeline produced.
pub struct Pipeline {
    /// The simulated internet and its ground truth.
    pub scenario: Scenario,
    /// The ZMap snapshot (epoch 0).
    pub snapshot: ZmapSnapshot,
    /// Blocks passing the Section 3.3 selection.
    pub selected: Vec<SelectedBlock>,
    /// Blocks rejected for < 4 snapshot-active addresses.
    pub reject_too_few: usize,
    /// Blocks rejected for an uncovered /26 quarter.
    pub reject_uncovered: usize,
    /// The calibrated confidence table (Figure 4).
    pub confidence: ConfidenceTable,
    /// The classifier configuration the run used (needed to replay
    /// verdicts, e.g. by [`Pipeline::verify_conformance`]).
    pub hobbit_cfg: HobbitConfig,
    /// Per-block classification results, in block order.
    pub measurements: Vec<BlockMeasurement>,
    /// Probe packets spent on classification (sum over workers).
    pub classify_probes: u64,
    /// Probe packets spent on calibration surveys.
    pub calibration_probes: u64,
    /// Per-worker accounting from the classification phase.
    pub worker_stats: Vec<WorkerStats>,
    /// Network-side carry/drop counters at the end of the run (all zeros
    /// unless fault injection was enabled).
    pub net_stats: NetworkStats,
    /// The metrics registry the run reported into, when observability was
    /// enabled ([`PipelineBuilder::observe`], `--metrics`, `--trace-spans`).
    /// Post-pipeline phases (aggregation, reprobing) keep reporting into it
    /// via [`Pipeline::recorder`].
    pub obs: Option<Arc<Registry>>,
    /// What supervision observed: quarantined blocks, requeues, caught
    /// panics, watchdog cancellations, resumed-block count, and whether the
    /// run was interrupted (simulated crash) or drained by a shutdown.
    pub supervision: SuperviseReport,
    /// The seed the run actually used. On `--resume` this comes from the
    /// journal's meta record, which overrides the command line — report
    /// text must quote this, not the caller's flags.
    pub seed: u64,
    /// The scale the run actually used (journal meta wins on resume, like
    /// [`Pipeline::seed`]).
    pub scale: f64,
    /// The dynamics knobs `(rate, period)` the run used (`None` ⇒ the
    /// world stayed frozen after the snapshot).
    pub dynamics: Option<(f64, u64)>,
    /// Events in the derived dynamics schedule (0 for a static world, or
    /// when the draw at the configured rate scheduled nothing).
    pub dynamics_events: u64,
}

/// Number of blocks surveyed to calibrate the confidence table.
pub const CALIBRATION_BLOCKS: usize = 120;

/// Fluent configuration for a pipeline run.
///
/// ```no_run
/// use experiments::Pipeline;
/// let p = Pipeline::builder().seed(7).scale(0.02).threads(4).run();
/// # let _ = p;
/// ```
#[derive(Clone, Default)]
pub struct PipelineBuilder {
    args: ExpArgs,
    scenario: Option<Scenario>,
    observe: bool,
    run_dir: Option<PathBuf>,
    resume: bool,
    supervise: Option<SuperviseConfig>,
    injector: Option<FaultInjector>,
    crash: Option<CrashPoint>,
    shutdown: Option<ShutdownSignal>,
    storage: Option<Storage>,
    /// Set by [`PipelineBuilder::args`]: this run belongs to a CLI
    /// process, so a storage failure should exit with a named error
    /// rather than unwind with a library panic.
    cli: bool,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("args", &self.args)
            .field("scenario", &self.scenario.is_some())
            .field("observe", &self.observe)
            .field("run_dir", &self.run_dir)
            .field("resume", &self.resume)
            .field("supervise", &self.supervise)
            .field("injector", &self.injector.is_some())
            .field("crash", &self.crash)
            .field("shutdown", &self.shutdown)
            .field("storage", &self.storage)
            .finish()
    }
}

impl PipelineBuilder {
    /// Scenario seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.args.seed = seed;
        self
    }

    /// Scenario scale, 1.0 = paper-size (default 0.12).
    pub fn scale(mut self, scale: f64) -> Self {
        self.args.scale = scale;
        self
    }

    /// Worker threads for the snapshot scan and classification; 0 = all
    /// cores (default 0).
    pub fn threads(mut self, threads: usize) -> Self {
        self.args.threads = threads;
        self
    }

    /// Inject faults into the probing phases: per-link loss probability
    /// `loss` and ICMP token-bucket refill rate `rate`. The ZMap snapshot
    /// is taken before faults switch on, so selection matches a loss-free
    /// run, and classification probers get extra retries to compensate.
    pub fn faults(mut self, loss: f64, rate: f64) -> Self {
        self.args.faults = Some((loss, rate));
        self
    }

    /// Keep the network ideal (the default; undoes [`PipelineBuilder::faults`]).
    pub fn no_faults(mut self) -> Self {
        self.args.faults = None;
        self
    }

    /// Probe in MDA-Lite mode (`--mda-lite`): diamond-aware stopping rules
    /// replace the full MDA ladder at hops whose diamond is already
    /// resolved, with escalation back to classic MDA when flow-label
    /// evidence is inconsistent. The mode is recorded in the run's journal
    /// meta, and `--resume` refuses a mode mismatch.
    pub fn mda_mode(mut self, mode: MdaMode) -> Self {
        self.args.mda_lite = mode == MdaMode::Lite;
        self
    }

    /// Shorthand for [`PipelineBuilder::mda_mode`] from a boolean flag.
    pub fn mda_lite(mut self, on: bool) -> Self {
        self.args.mda_lite = on;
        self
    }

    /// Evolve the world mid-campaign (`--dynamics`): after the snapshot, a
    /// seeded event schedule perturbs each ordinary PoP with probability
    /// `rate` — route churn, LB resizes, transient loops, address reuse,
    /// false diamonds — on a virtual clock of `period` probes per epoch.
    /// The schedule is a pure function of `(seed, rate, period)` and is
    /// recorded in the run's journal meta; `--resume` refuses a mismatch.
    pub fn dynamics(mut self, rate: f64, period: u64) -> Self {
        self.args.dynamics = Some((rate, period));
        self
    }

    /// Take every knob from parsed CLI arguments at once. Also marks the
    /// run as CLI-owned: a storage failure in [`PipelineBuilder::run`]
    /// prints the typed error and exits [`EXIT_STORAGE`] instead
    /// of panicking with a backtrace.
    pub fn args(mut self, args: &ExpArgs) -> Self {
        self.args = args.clone();
        self.cli = true;
        self
    }

    /// Collect metrics and span timings into a [`Registry`] kept on
    /// [`Pipeline::obs`], even without `--metrics`/`--trace-spans` (either
    /// of those flags enables observation automatically).
    pub fn observe(mut self) -> Self {
        self.observe = true;
        self
    }

    /// Run over a prebuilt scenario instead of building one from the seed
    /// and scale (reusing one world across pipeline runs; the scenario's
    /// network ends up wrapped in a [`SharedNetwork`] for classification).
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Checkpoint the run into a journal under `dir` (`--run-dir`): every
    /// finished block classification is appended as it completes, so a
    /// killed run can be picked up with [`PipelineBuilder::resume_from`].
    pub fn run_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.run_dir = Some(dir.into());
        self
    }

    /// Resume a crashed or shut-down run from its `--run-dir` journal
    /// (`--resume`). Seed, scale, and fault settings come from the
    /// journal's meta record (overriding any builder values); blocks
    /// already checkpointed are recovered instead of re-measured, and the
    /// final report is byte-identical to an uninterrupted run.
    pub fn resume_from(mut self, dir: impl Into<PathBuf>) -> Self {
        self.run_dir = Some(dir.into());
        self.resume = true;
        self
    }

    /// Override the supervision knobs (per-block deadline, attempt budget,
    /// watchdog poll interval). Supervision itself is always on.
    pub fn supervise(mut self, cfg: SuperviseConfig) -> Self {
        self.supervise = Some(cfg);
        self
    }

    /// Sabotage classification attempts (testkit crash harness): the
    /// injector decides per `(worker, task, attempt)` whether to panic or
    /// stall. See [`crate::supervise::FaultInjector`].
    pub fn inject(mut self, injector: FaultInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Arm a simulated kill on the run's journal (requires a run dir):
    /// after the configured number of block appends the journal drops its
    /// unsynced tail — optionally leaving a torn record — and the run
    /// reports itself interrupted. See [`CrashPoint`].
    pub fn crash_point(mut self, cp: CrashPoint) -> Self {
        self.crash = Some(cp);
        self
    }

    /// Attach a graceful-shutdown signal: when requested, workers drain
    /// their in-flight blocks, the journal gets a final checkpoint, and
    /// the run returns early with [`SuperviseReport::shutdown`] set.
    pub fn shutdown_signal(mut self, signal: ShutdownSignal) -> Self {
        self.shutdown = Some(signal);
        self
    }

    /// Route every run-dir filesystem operation (journal create/resume,
    /// appends, fsyncs) through an explicit [`Storage`] handle — a
    /// [`crate::vfs::ChaosVfs`]-backed one injects disk faults, the
    /// default is faithful. `--storage-chaos` builds one from the CLI.
    pub fn storage(mut self, storage: Storage) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Execute the pipeline, panicking on storage failure. Fine for the
    /// common faithful-disk case (a run that cannot open or flush its own
    /// journal has no useful continuation); anything running under
    /// `--storage-chaos` — or wanting a typed error to drive degraded
    /// modes — uses [`PipelineBuilder::try_run`].
    pub fn run(self) -> Pipeline {
        let cli = self.cli;
        self.try_run().unwrap_or_else(|e| {
            if cli {
                eprintln!("error: {e}");
                std::process::exit(EXIT_STORAGE);
            }
            panic!("pipeline storage failure: {e}")
        })
    }

    /// Execute the pipeline, returning a typed [`StorageError`] when a
    /// run-dir filesystem failure survives the bounded retries: the
    /// journal on disk is then still a valid (resumable) prefix, but no
    /// report may be published over it.
    pub fn try_run(self) -> Result<Pipeline, StorageError> {
        let PipelineBuilder {
            mut args,
            scenario,
            observe,
            run_dir,
            resume,
            supervise,
            injector,
            crash,
            shutdown,
            storage,
            cli: _,
        } = self;
        let run_dir = run_dir.or_else(|| args.run_dir.as_ref().map(PathBuf::from));
        let resume = resume || args.resume;
        let mut sup_cfg = supervise.unwrap_or_default();
        if let Some(secs) = args.deadline {
            sup_cfg.deadline = Duration::from_secs_f64(secs);
        }

        // The registry comes first so the storage handle can bind its
        // `storage.*` counters before the journal's first byte is written.
        let observing = observe || args.metrics.is_some() || args.trace_spans;
        let obs: Option<Arc<Registry>> = observing.then(|| Arc::new(Registry::new()));
        let reg = obs.as_deref();
        let rec: &dyn Recorder = reg.map(|r| r as &dyn Recorder).unwrap_or(&NULL_RECORDER);

        let OpenedJournal { writer, replayed } =
            open_journal(&mut args, run_dir.as_deref(), resume, storage, crash, rec)?;
        let phases = Phases {
            args: &args,
            reg,
            rec,
            sup_cfg,
        };
        let run_span = SpanTimer::start(rec, "run");
        let mut scenario = phases.build(scenario);
        let (snapshot, dynamics_events) = phases.snapshot(&mut scenario);
        let (selected, reject_too_few, reject_uncovered) = phases.select(&snapshot);
        let (confidence, calibration_probes) = phases.calibrate(&mut scenario, &selected);
        let hobbit_cfg = phases.hobbit_config(dynamics_events);
        let hooks = SuperviseHooks {
            injector,
            shutdown,
            journal: writer.as_ref(),
            skip: None,
        };
        let (scenario, outcome) = phases.classify(
            scenario,
            &selected,
            &confidence,
            &hobbit_cfg,
            hooks,
            replayed,
        );
        let SupervisedOutcome {
            measurements,
            worker_stats,
            report: mut supervision,
        } = outcome;
        phases.epilogue(writer.as_ref(), &mut supervision)?;
        drop(run_span);

        // Probe spend is summed over measurements (each block's fresh
        // prober makes `probes_used` exactly its probes sent), so the total
        // is the same whether a block was measured now or recovered from
        // the journal.
        let classify_probes = measurements.iter().map(|m| m.probes_used).sum();
        let net_stats = scenario.network.net_stats();
        let pipeline = Pipeline {
            scenario,
            snapshot,
            selected,
            reject_too_few,
            reject_uncovered,
            confidence,
            hobbit_cfg,
            measurements,
            classify_probes,
            calibration_probes,
            worker_stats,
            net_stats,
            obs,
            supervision,
            seed: args.seed,
            scale: args.scale,
            dynamics: args.dynamics,
            dynamics_events,
        };
        pipeline.emit_observability(&args);
        Ok(pipeline)
    }
}

/// Exit status of a CLI run whose run-dir storage failed past the
/// retries (see [`PipelineBuilder::args`]).
pub const EXIT_STORAGE: i32 = 5;

/// Per-probe retries used when fault injection is on. Three retries bound
/// the residual per-call loss well below a percent at the sweep's loss
/// rates, and a token bucket refilling at rate `r` denies a stream at most
/// `ceil(1/r) - 1` times in a row — so rate ≥ 0.25 is always recovered.
pub const FAULTED_RETRIES: u32 = 3;

/// The run dir's journal as the classify phase and the epilogue see it.
struct OpenedJournal {
    /// The checkpoint writer; `None` without a run dir.
    writer: Option<Mutex<JournalWriter>>,
    /// Blocks a resume recovered from the journal.
    replayed: Vec<BlockMeasurement>,
}

/// Open the run dir's journal, if there is one. On resume its meta record
/// dictates seed, scale, and faults (the resumed world must be the crashed
/// world), so they are written back into `args`.
fn open_journal(
    args: &mut ExpArgs,
    run_dir: Option<&Path>,
    resume: bool,
    storage: Option<Storage>,
    crash: Option<CrashPoint>,
    rec: &dyn Recorder,
) -> Result<OpenedJournal, StorageError> {
    // Every run-dir operation goes through one Storage handle: an
    // explicit builder handle wins, then `--storage-chaos`, then the
    // faithful default.
    let mut storage = storage
        .or_else(|| {
            args.storage_chaos
                .map(|(seed, rate)| Storage::chaos(seed, rate))
        })
        .unwrap_or_else(Storage::real);
    storage.observe(rec);
    let mut opened = OpenedJournal {
        writer: None,
        replayed: Vec::new(),
    };
    let Some(dir) = run_dir else {
        assert!(crash.is_none(), "a crash point needs a run dir to crash");
        return Ok(opened);
    };
    let mut writer = if resume {
        let (w, replay) = JournalWriter::resume_via(storage, dir)?;
        let meta = replay.meta.ok_or_else(|| {
            StorageError::corruption(
                "resume",
                &dir.join(crate::journal::JOURNAL_FILE),
                "journal has no meta record (nothing was checkpointed)",
            )
        })?;
        assert_eq!(
            meta.schema, JOURNAL_SCHEMA,
            "resume: journal written by an incompatible version"
        );
        // Seed, scale, and faults are *adopted* from the journal — the
        // resumed world must be the crashed world. The probe mode is
        // different: adopting it silently would make `--mda-lite` a no-op
        // on resume, and switching it would change the probe stream of
        // every remaining block, so a mismatch is refused outright.
        let mode = |lite: bool| {
            (if lite {
                MdaMode::Lite
            } else {
                MdaMode::Classic
            })
            .slug()
        };
        assert_eq!(
            meta.mda_lite,
            args.mda_lite,
            "resume: journal was recorded in {} mode but this run asked for {} — \
             the probe mode changes every remaining block's probe stream, so start \
             a fresh run dir instead",
            mode(meta.mda_lite),
            mode(args.mda_lite),
        );
        // Dynamics are refused on mismatch for the same reason: the
        // schedule shapes every remaining block's probe stream (and its
        // epoch tags), so silently adopting or dropping it would
        // desynchronize the resumed run.
        assert_eq!(
            meta.dynamics(),
            args.dynamics,
            "resume: journal dynamics {:?} but this run asked for {:?} — the \
             schedule changes every remaining block's probe stream, so start a \
             fresh run dir instead",
            meta.dynamics(),
            args.dynamics,
        );
        args.seed = meta.seed;
        args.scale = meta.scale;
        args.faults = meta.faults();
        if replay.truncated {
            SuperviseObs::bind(rec).journal_truncated.inc();
        }
        opened.replayed = replay.blocks;
        w
    } else {
        JournalWriter::create_via(
            storage,
            dir,
            &RunMeta::new(args.seed, args.scale, args.faults)
                .with_mda_lite(args.mda_lite)
                .with_dynamics(args.dynamics),
        )?
    };
    if let Some(cp) = crash {
        writer.set_crash_point(cp);
    }
    opened.writer = Some(Mutex::new(writer));
    Ok(opened)
}

/// The settled knobs and the recorder every phase of one run reads.
struct Phases<'a> {
    args: &'a ExpArgs,
    /// The run's registry, when observed.
    reg: Option<&'a Registry>,
    /// `reg`, or the null recorder.
    rec: &'a dyn Recorder,
    sup_cfg: SuperviseConfig,
}

impl Phases<'_> {
    /// Build the world (unless the caller supplied one) and attach the
    /// recorder before the first probe, so the network-side counters carry
    /// the whole run regardless of thread count.
    fn build(&self, scenario: Option<Scenario>) -> Scenario {
        let mut scenario = {
            let _s = SpanTimer::start(self.rec, "run/build");
            scenario.unwrap_or_else(|| build(scenario_config(self.args)))
        };
        if let Some(reg) = self.reg {
            scenario.network.set_recorder(reg);
        }
        scenario
    }

    /// Take the ZMap snapshot, then switch on faults and dynamics. Returns
    /// the snapshot and the number of scheduled dynamics events.
    fn snapshot(&self, scenario: &mut Scenario) -> (ZmapSnapshot, u64) {
        let snapshot = {
            let _s = SpanTimer::start(self.rec, "run/snapshot");
            let blocks = scenario.network.allocated_blocks();
            zmap::scan_threaded(&mut scenario.network, &blocks, self.args.threads)
        };
        self.rec.counter("snapshot.probes").add(snapshot.probes);

        // Faults switch on only after the snapshot: selection inputs stay
        // identical to a loss-free run, so verdicts compare block-for-block.
        if let Some((loss, rate)) = self.args.faults {
            scenario
                .network
                .set_faults(FaultConfig::lossy(loss as f32, rate as f32));
        }

        // Dynamics install after the snapshot for the same reason: epoch 0
        // *is* the frozen world selection saw, and the virtual clock only
        // starts ticking once classification probes flow.
        let mut dynamics_events = 0u64;
        if let Some((rate, period)) = self.args.dynamics {
            let schedule = derive_dynamics(scenario, rate, period);
            dynamics_events = schedule.events.len() as u64;
            scenario.network.set_dynamics(schedule);
        }
        (snapshot, dynamics_events)
    }

    /// The Section 3.3 selection: the selected blocks, then the counts
    /// rejected for too few active addresses and for an uncovered quarter.
    fn select(&self, snapshot: &ZmapSnapshot) -> (Vec<SelectedBlock>, usize, usize) {
        let mut selected = Vec::new();
        let (mut too_few, mut uncovered) = (0usize, 0usize);
        {
            let _s = SpanTimer::start(self.rec, "run/select");
            for block in snapshot.blocks() {
                match select_block(snapshot, block) {
                    Ok(sel) => selected.push(sel),
                    Err(SelectReject::TooFewActive) => too_few += 1,
                    Err(SelectReject::UncoveredQuarter) => uncovered += 1,
                }
            }
        }
        let rec = self.rec;
        rec.counter("select.selected").add(selected.len() as u64);
        rec.counter("select.reject_too_few").add(too_few as u64);
        rec.counter("select.reject_uncovered").add(uncovered as u64);
        (selected, too_few, uncovered)
    }

    /// Survey a spread-out sample of selected blocks with full last-hop
    /// data; blocks whose full data shows homogeneity feed the confidence
    /// table (the paper's Section 3.2 procedure). Returns the table and
    /// the probes the surveys spent.
    fn calibrate(
        &self,
        scenario: &mut Scenario,
        selected: &[SelectedBlock],
    ) -> (ConfidenceTable, u64) {
        let _s = SpanTimer::start(self.rec, "run/calibrate");
        let stride = (selected.len() / CALIBRATION_BLOCKS).max(1);
        let mut dataset: Vec<BlockLasthopData> = Vec::new();
        let mut prober = Prober::new(&mut scenario.network, 0xCA11);
        prober.observe(self.rec);
        if self.args.faults.is_some() {
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
        self.rec
            .counter("calibrate.dataset_blocks")
            .add(dataset.len() as u64);
        self.rec.counter("calibrate.probes").add(probes);
        let table = ConfidenceTable::build(&dataset, 50, 24, 0.95, 8, self.args.seed ^ 0xF16);
        (table, probes)
    }

    /// The classifier configuration the run's knobs imply.
    fn hobbit_config(&self, dynamics_events: u64) -> HobbitConfig {
        let args = self.args;
        HobbitConfig {
            seed: args.seed ^ 0x0B17,
            prober_retries: if args.faults.is_some() {
                FAULTED_RETRIES
            } else {
                HobbitConfig::default().prober_retries
            },
            mda_mode: if args.mda_lite {
                MdaMode::Lite
            } else {
                MdaMode::Classic
            },
            // Epoch-tag evidence only when a live schedule exists: an
            // empty schedule never ticks the clock, and tagging would
            // change the measurement bytes of a world that never moves.
            dynamics_period: match args.dynamics {
                Some((_, period)) if dynamics_events > 0 => period,
                _ => 0,
            },
            ..Default::default()
        }
    }

    /// Classify over ONE shared network with work-stealing workers under
    /// supervision (panic isolation, stall watchdog, checkpoints). Blocks
    /// recovered from the journal are skipped, not re-measured: every
    /// block's probe stream depends only on (block, seed), so the rest
    /// measure exactly what they would have anyway. The outcome's
    /// measurements include the recovered blocks, in block order.
    fn classify(
        &self,
        scenario: Scenario,
        selected: &[SelectedBlock],
        confidence: &ConfidenceTable,
        hobbit_cfg: &HobbitConfig,
        hooks: SuperviseHooks<'_>,
        replayed: Vec<BlockMeasurement>,
    ) -> (Scenario, SupervisedOutcome) {
        let Scenario {
            network,
            truth,
            config,
            pop_routers,
        } = scenario;
        let shared = SharedNetwork::new(network);

        let mut skip = vec![false; selected.len()];
        let mut prefilled: Vec<BlockMeasurement> = Vec::new();
        if !replayed.is_empty() {
            let index_of: HashMap<Block24, usize> = selected
                .iter()
                .enumerate()
                .map(|(i, s)| (s.block, i))
                .collect();
            for m in replayed {
                match index_of.get(&m.block) {
                    Some(&i) if !skip[i] => {
                        skip[i] = true;
                        prefilled.push(m);
                    }
                    _ => {} // duplicate record or stale selection — remeasure
                }
            }
        }
        let resumed_blocks = prefilled.len() as u64;
        SuperviseObs::bind(self.rec).resumed.add(resumed_blocks);

        let hooks = SuperviseHooks {
            skip: Some(&skip),
            ..hooks
        };
        let mut outcome = {
            let _s = SpanTimer::start(self.rec, "run/classify");
            classify_blocks_supervised(
                &shared,
                selected,
                confidence,
                hobbit_cfg,
                self.args.threads,
                self.rec,
                &self.sup_cfg,
                &hooks,
            )
        };
        outcome.measurements.extend(prefilled);
        outcome.measurements.sort_by_key(|m| m.block);
        outcome.report.resumed_blocks = resumed_blocks;

        let network = shared
            .try_unwrap()
            .expect("all worker handles are dropped when the scope ends");
        let scenario = Scenario {
            network,
            truth,
            config,
            pop_routers,
        };
        (scenario, outcome)
    }

    /// Journal epilogue: a crashed journal means the "process" died —
    /// nothing more may be written. A sealed journal (storage fault past
    /// the retries) propagates its typed error: the on-disk prefix is
    /// valid and resumable, but the run must not publish a report over
    /// an incomplete journal.
    fn epilogue(
        &self,
        journal: Option<&Mutex<JournalWriter>>,
        supervision: &mut SuperviseReport,
    ) -> Result<(), StorageError> {
        let Some(j) = journal else {
            return Ok(());
        };
        let mut j = j
            .lock()
            .expect("journal lock poisoned: a worker panicked while appending");
        if j.crashed() {
            supervision.interrupted = true;
        } else if let Some(e) = supervision.storage_error.take() {
            return Err(e);
        } else {
            if supervision.shutdown {
                j.append(&Entry::Shutdown)?;
            }
            j.flush()?;
        }
        let sup_obs = SuperviseObs::bind(self.rec);
        sup_obs.journal_appends.add(j.appends());
        sup_obs.journal_fsyncs.add(j.fsyncs());
        Ok(())
    }
}

/// Per-worker accounting from the classification phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Blocks this worker classified.
    pub blocks: usize,
    /// Probe packets this worker sent.
    pub probes: u64,
    /// Cumulative measured RTT over this worker's probes, microseconds.
    pub rtt_us: u64,
    /// Blocks this worker stole from another worker's queue.
    pub steals: u64,
    /// Probe attempts that got no answer.
    pub drops: u64,
    /// Retries this worker's probers spent.
    pub retries: u64,
    /// Simulated backoff wait accumulated before retries, microseconds.
    pub backoff_us: u64,
}

/// Classify `selected` blocks over one shared network with `threads`
/// work-stealing workers: [`classify_blocks_supervised`] with no journal,
/// no injected faults and default supervision, reporting nowhere.
///
/// Each block is classified by a fresh [`Prober`] whose ident derives from
/// the block address, so results are deterministic and identical for any
/// thread count. Returns the measurements in block order plus per-worker
/// accounting.
///
/// # Panics
///
/// If supervision quarantined a block — its classifier panicked or stalled
/// on every attempt — so a classifier bug still fails the caller.
pub fn classify_blocks(
    net: &SharedNetwork,
    selected: &[SelectedBlock],
    confidence: &ConfidenceTable,
    cfg: &HobbitConfig,
    threads: usize,
) -> (Vec<BlockMeasurement>, Vec<WorkerStats>) {
    let outcome = classify_blocks_supervised(
        net,
        selected,
        confidence,
        cfg,
        threads,
        &NULL_RECORDER,
        &SuperviseConfig::default(),
        &SuperviseHooks::default(),
    );
    if let Some(q) = outcome.report.quarantined.first() {
        panic!(
            "classification quarantined block {} after {} {} attempts: {}",
            q.block,
            q.attempts,
            q.reason.label(),
            q.detail
        );
    }
    (outcome.measurements, outcome.worker_stats)
}

/// The deterministic outcome of a run, serialized by
/// [`Pipeline::canonical_report`]. Everything scheduling- or
/// provenance-dependent — per-worker shares, steal counts, network carry
/// totals, how many blocks came from a journal — is deliberately absent,
/// which is what makes the rendering byte-identical across thread counts
/// and across kill/resume cycles.
#[derive(Serialize)]
struct CanonicalReport {
    schema: String,
    seed: u64,
    selected: u64,
    reject_too_few: u64,
    reject_uncovered: u64,
    calibration_probes: u64,
    classify_probes: u64,
    classifications: Vec<(String, u64)>,
    /// Schedule facts of a dynamic run: knobs and derived event count,
    /// all pure functions of `(seed, rate, period)` — never anything the
    /// scheduler or a resume could perturb. Absent (not `null`) for a
    /// static run, so pre-dynamics report bytes are unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    dynamics: Option<DynamicsSummary>,
    measurements: Vec<BlockMeasurement>,
    /// `(index, block, attempts, reason)` — no panic detail, which names
    /// the (scheduling-dependent) worker that caught it.
    quarantined: Vec<(u64, Block24, u32, String)>,
}

/// The dynamics facts the canonical report carries.
#[derive(Serialize)]
struct DynamicsSummary {
    /// Per-PoP perturbation probability the schedule was derived at.
    rate: f64,
    /// Virtual-clock period, probes per epoch.
    period: u64,
    /// Events in the derived schedule.
    events: u64,
}

/// Version tag of the canonical report document.
pub const REPORT_SCHEMA: &str = "hobbit-report/v1";

impl Pipeline {
    /// Start configuring a pipeline run.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Resume a checkpointed run from its run directory: replays the
    /// journal, skips every block already classified, re-measures the
    /// rest, and returns a pipeline whose [`Pipeline::canonical_report`]
    /// is byte-identical to an uninterrupted run's.
    pub fn resume(run_dir: impl Into<PathBuf>) -> Pipeline {
        Pipeline::builder().resume_from(run_dir).run()
    }

    /// Render the run's deterministic outcome as one JSON document. For a
    /// fixed seed/scale/fault configuration the bytes are identical across
    /// thread counts and across any kill→resume sequence (the acceptance
    /// contract of the checkpoint subsystem); tests compare these strings
    /// directly.
    pub fn canonical_report(&self) -> String {
        let report = CanonicalReport {
            schema: REPORT_SCHEMA.to_string(),
            seed: self.scenario.config.seed,
            selected: self.selected.len() as u64,
            reject_too_few: self.reject_too_few as u64,
            reject_uncovered: self.reject_uncovered as u64,
            calibration_probes: self.calibration_probes,
            classify_probes: self.measurements.iter().map(|m| m.probes_used).sum(),
            classifications: self
                .classification_counts()
                .into_iter()
                .map(|(c, n)| (c.label().to_string(), n as u64))
                .collect(),
            dynamics: self.dynamics.map(|(rate, period)| DynamicsSummary {
                rate,
                period,
                events: self.dynamics_events,
            }),
            measurements: self.measurements.clone(),
            quarantined: self
                .supervision
                .quarantined
                .iter()
                .map(|q| {
                    (
                        q.index as u64,
                        q.block,
                        q.attempts,
                        q.reason.label().to_string(),
                    )
                })
                .collect(),
        };
        serde_json::to_string(&report).expect("canonical report serializes")
    }

    /// The recorder post-pipeline phases should report through: the run's
    /// registry when observability is on, a [`NullRecorder`] otherwise.
    pub fn recorder(&self) -> &dyn Recorder {
        self.obs
            .as_deref()
            .map(|r| r as &dyn Recorder)
            .unwrap_or(&NULL_RECORDER)
    }

    /// Write the outputs selected by `args`: the span tree to stderr
    /// (`--trace-spans`) and the versioned metrics document (`--metrics`).
    /// `run` calls this once; binaries that report post-pipeline metrics
    /// (aggregation, reprobing) call it again to refresh the file. No-op
    /// when the pipeline ran unobserved.
    pub fn emit_observability(&self, args: &ExpArgs) {
        let Some(reg) = self.obs.as_deref() else {
            return;
        };
        if args.trace_spans {
            eprint!("{}", reg.render_span_tree());
        }
        if let Some(path) = &args.metrics {
            if let Err(e) = std::fs::write(path, reg.export_pretty()) {
                eprintln!("warning: could not write metrics to {path}: {e}");
            }
        }
    }

    /// Replay every measurement through the `testkit` reference oracle —
    /// same recorded evidence, same confidence table, same classifier
    /// config — and report through the run's recorder as `conform.checked`
    /// / `conform.mismatches`. Returns one human-readable line per
    /// divergence; empty means the optimized engine and the naive oracle
    /// agree block-for-block (verdict, stopping point, and last-hop set).
    pub fn verify_conformance(&self) -> Vec<String> {
        let rec = self.recorder();
        let checked = rec.counter("conform.checked");
        let mismatched = rec.counter("conform.mismatches");
        let mut out = Vec::new();
        for m in &self.measurements {
            checked.inc();
            let oracle = testkit::replay_verdict(m, &self.confidence, &self.hobbit_cfg);
            if let Some((at, v)) = oracle.premature {
                mismatched.inc();
                out.push(format!(
                    "block {}: verdict {v:?} already fired after {at}/{} resolutions",
                    m.block,
                    m.per_dest.len()
                ));
            }
            if oracle.classification != m.classification {
                mismatched.inc();
                out.push(format!(
                    "block {}: production {:?}, oracle {:?}",
                    m.block, m.classification, oracle.classification
                ));
            }
            let naive = testkit::naive_lasthop_set(&m.per_dest);
            if naive != m.lasthop_set {
                mismatched.inc();
                out.push(format!(
                    "block {}: recorded last-hop set {:?}, oracle recomputes {naive:?}",
                    m.block, m.lasthop_set
                ));
            }
        }
        out
    }

    /// Measurements classified homogeneous, as aggregation inputs.
    pub fn homog_blocks(&self) -> Vec<HomogBlock> {
        self.measurements
            .iter()
            .filter(|m| m.classification.is_homogeneous())
            .map(|m| HomogBlock::new(m.block, m.lasthop_set.clone()))
            .collect()
    }

    /// Identical-set aggregates of the homogeneous blocks (Section 5).
    pub fn aggregates(&self) -> Vec<Aggregate> {
        aggregate_identical(&self.homog_blocks())
    }

    /// Classification-phase probe attempts that got no answer (sum over
    /// workers).
    pub fn total_drops(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.drops).sum()
    }

    /// Classification-phase retries spent (sum over workers).
    pub fn total_retries(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.retries).sum()
    }

    /// Classification-phase simulated backoff wait, microseconds (sum over
    /// workers).
    pub fn total_backoff_us(&self) -> u64 {
        self.worker_stats.iter().map(|w| w.backoff_us).sum()
    }

    /// Snapshot-active addresses of a block.
    pub fn snapshot_actives(&self, block: Block24) -> Vec<Addr> {
        self.snapshot.active_in(block).to_vec()
    }

    /// Count measurements per classification, in the fixed label order the
    /// canonical report uses.
    pub fn classification_counts(&self) -> Vec<(hobbit::Classification, usize)> {
        use hobbit::Classification::*;
        [
            TooFewActive,
            UnresponsiveLasthop,
            SameLasthop,
            NonHierarchical,
            Hierarchical,
        ]
        .into_iter()
        .map(|c| {
            let n = self
                .measurements
                .iter()
                .filter(|m| m.classification == c)
                .count();
            (c, n)
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineBuilder {
        // ~328 ordinary blocks at scale 0.01.
        Pipeline::builder().seed(42).scale(0.01).threads(2)
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let p = tiny().run();
        assert!(!p.selected.is_empty());
        assert_eq!(p.measurements.len(), p.selected.len());
        assert!(p.classify_probes > 0);
        assert!(p.calibration_probes > 0);
        let counts = p.classification_counts();
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        assert_eq!(total, p.measurements.len());
        // The dominant analyzable outcome must be homogeneity (paper: 90%).
        let homog: usize = p
            .measurements
            .iter()
            .filter(|m| m.classification.is_homogeneous())
            .count();
        let analyzable: usize = p
            .measurements
            .iter()
            .filter(|m| m.classification.is_analyzable())
            .count();
        assert!(analyzable > 0);
        assert!(
            homog as f64 / analyzable as f64 > 0.7,
            "{homog}/{analyzable} homogeneous"
        );
        // Worker accounting covers the whole phase.
        assert_eq!(
            p.worker_stats.iter().map(|w| w.blocks).sum::<usize>(),
            p.selected.len()
        );
        assert_eq!(
            p.worker_stats.iter().map(|w| w.probes).sum::<u64>(),
            p.classify_probes
        );
        assert!(p.worker_stats.iter().all(|w| w.probes == 0 || w.rtt_us > 0));
    }

    #[test]
    fn pipeline_is_deterministic_single_thread() {
        let a = tiny().threads(1).run();
        let b = tiny().threads(1).run();
        assert_eq!(a.measurements.len(), b.measurements.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.classification, y.classification);
            assert_eq!(x.lasthop_set, y.lasthop_set);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // The shard-id bug this guards against: probe idents derived from
        // the worker id made classifications depend on `threads`.
        let a = tiny().threads(1).run();
        let b = tiny().threads(8).run();
        assert_eq!(a.measurements.len(), b.measurements.len());
        for (x, y) in a.measurements.iter().zip(&b.measurements) {
            assert_eq!(x.block, y.block);
            assert_eq!(x.classification, y.classification, "block {}", x.block);
            assert_eq!(x.lasthop_set, y.lasthop_set, "block {}", x.block);
        }
        assert_eq!(a.classify_probes, b.classify_probes);
    }

    #[test]
    fn builder_accepts_prebuilt_scenario() {
        let args = ExpArgs {
            seed: 42,
            scale: 0.01,
            json: false,
            threads: 2,
            faults: None,
            ..Default::default()
        };
        let scenario = build(scenario_config(&args));
        let a = tiny().scenario(scenario).run();
        let b = tiny().run();
        assert_eq!(a.measurements.len(), b.measurements.len());
    }

    #[test]
    fn fault_free_run_reports_zero_injected_drops() {
        // Without --faults the injected mechanisms stay silent. The
        // scenario's own Bernoulli rate-limited routers may still eat some
        // ICMP errors (icmp_loss_drops) — that is baseline realism, not
        // injection — and probers still time out on genuinely silent hosts.
        let p = tiny().run();
        assert_eq!(p.net_stats.link_drops, 0, "{:?}", p.net_stats);
        assert_eq!(p.net_stats.rate_limited_drops, 0, "{:?}", p.net_stats);
        assert!(p.net_stats.probes_carried > 0);
        assert_eq!(
            p.total_drops(),
            p.worker_stats.iter().map(|w| w.drops).sum()
        );
    }

    #[test]
    fn faulted_run_reports_drops_retries_and_backoff() {
        let p = tiny().faults(0.02, 0.5).run();
        // The network saw injected faults...
        assert!(p.net_stats.link_drops > 0, "{:?}", p.net_stats);
        assert!(p.net_stats.probes_carried > 0);
        // ...and the probers accounted for the lost answers.
        assert!(p.total_drops() > 0);
        assert!(p.total_retries() > 0);
        assert!(p.total_backoff_us() > 0);
        // Totals are exactly the per-worker sums (the report contract).
        assert_eq!(
            p.total_drops(),
            p.worker_stats.iter().map(|w| w.drops).sum()
        );
        assert_eq!(
            p.total_retries(),
            p.worker_stats.iter().map(|w| w.retries).sum()
        );
        assert_eq!(
            p.total_backoff_us(),
            p.worker_stats.iter().map(|w| w.backoff_us).sum()
        );
        // Faults must not disturb the snapshot phase.
        let clean = tiny().run();
        assert_eq!(
            p.snapshot.total_active(),
            clean.snapshot.total_active(),
            "snapshot is taken before faults switch on"
        );
    }

    #[test]
    fn pipeline_conforms_to_oracle() {
        let p = tiny().observe().run();
        let issues = p.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
        let reg = p.obs.as_deref().unwrap();
        assert_eq!(
            reg.counter_value("conform.checked"),
            Some(p.measurements.len() as u64)
        );
        assert_eq!(reg.counter_value("conform.mismatches"), Some(0));
        // Faults change the evidence, never the verdict-evidence contract.
        let f = tiny().faults(0.02, 0.5).run();
        let issues = f.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn mda_lite_pipeline_spends_fewer_probes_same_verdicts() {
        let classic = tiny().threads(1).run();
        let lite = tiny().threads(1).mda_lite(true).observe().run();
        assert_eq!(lite.hobbit_cfg.mda_mode, MdaMode::Lite);
        assert_eq!(classic.measurements.len(), lite.measurements.len());
        let mut drift = 0usize;
        for (c, l) in classic.measurements.iter().zip(&lite.measurements) {
            assert_eq!(c.block, l.block);
            assert!(
                l.probes_used <= c.probes_used,
                "block {}: lite spent {} > classic {}",
                c.block,
                l.probes_used,
                c.probes_used
            );
            drift += (c.classification != l.classification) as usize;
        }
        assert!(lite.classify_probes < classic.classify_probes);
        assert!(
            drift as f64 / classic.measurements.len() as f64 <= 0.01,
            "{drift}/{} verdicts drifted",
            classic.measurements.len()
        );
        // The saved-probe counter is live and matches the direction of the
        // spend difference.
        let reg = lite.obs.as_deref().unwrap();
        assert!(reg.counter_value("probe.mda_lite.probes_saved").unwrap() > 0);
        // Lite measurements still satisfy the evidence oracle.
        let issues = lite.verify_conformance();
        assert!(issues.is_empty(), "{issues:?}");
    }

    #[test]
    fn dynamic_run_is_thread_invariant_and_reported() {
        let a = tiny().threads(1).dynamics(0.5, 64).run();
        let b = tiny().threads(8).dynamics(0.5, 64).run();
        assert!(a.dynamics_events > 0, "rate 0.5 must schedule something");
        assert_eq!(a.dynamics_events, b.dynamics_events);
        assert_eq!(a.hobbit_cfg.dynamics_period, 64);
        let (ra, rb) = (a.canonical_report(), b.canonical_report());
        assert_eq!(ra, rb, "dynamic reports must not depend on threads");
        assert!(ra.contains("\"dynamics\":{"), "schedule facts are reported");
        // The network actually moved: some dynamic rewrite/artifact fired.
        assert!(a.net_stats.total_dynamics() > 0, "{:?}", a.net_stats);
        // A static run reports no dynamics key and no epoch tags at all.
        let s = tiny().threads(1).run();
        let rs = s.canonical_report();
        assert!(!rs.contains("\"dynamics\""), "static bytes are unchanged");
        assert!(!rs.contains("\"dest_epochs\""));
    }

    #[test]
    #[should_panic(expected = "resume: journal dynamics")]
    fn resume_refuses_dynamics_mismatch() {
        let dir = std::env::temp_dir().join(format!(
            "hobbit-pipeline-dyn-mismatch-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        tiny().threads(1).dynamics(0.5, 64).run_dir(&dir).run();
        let result = std::panic::catch_unwind(|| {
            Pipeline::builder()
                .seed(42)
                .scale(0.01)
                .threads(1)
                .resume_from(&dir)
                .run()
        });
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    #[should_panic(expected = "resume: journal was recorded in classic mode")]
    fn resume_refuses_mda_mode_mismatch() {
        let dir = std::env::temp_dir().join(format!(
            "hobbit-pipeline-mode-mismatch-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        tiny().threads(1).run_dir(&dir).run();
        let result = std::panic::catch_unwind(|| {
            Pipeline::builder()
                .seed(42)
                .scale(0.01)
                .threads(1)
                .mda_lite(true)
                .resume_from(&dir)
                .run()
        });
        let _ = std::fs::remove_dir_all(&dir);
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn aggregates_form() {
        let p = tiny().run();
        let aggs = p.aggregates();
        assert!(!aggs.is_empty());
        // At least one aggregate should span multiple /24s (PoPs hold
        // several blocks).
        assert!(
            aggs.iter().any(|a| a.size() > 1),
            "no multi-block aggregate"
        );
    }
}
