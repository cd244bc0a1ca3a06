//! The multi-threaded ZMap snapshot is byte-identical to a serial scan.
//!
//! `zmap::scan_threaded` splits the scan into chunks of blocks claimed by
//! worker threads from an atomic cursor. Its contract: at any thread count
//! the snapshot, the network's carried-probe count, its fault and dynamics
//! counters and the cellular warm-up set equal those of one prober walking
//! every block in order — on a static world and on one with faults and
//! dynamics armed before the scan. The pipeline runs the scan on its
//! `--threads` workers, so its canonical report must not move either.
//!
//! The tests here run on small worlds. The `#[ignore]`d variants repeat
//! them on the campaign benchmark's world size (`--scale 0.25`) and belong
//! in a release run: `cargo test --release --test snapshot_parallel --
//! --ignored`.

use experiments::pipeline::scenario_config;
use experiments::{ExpArgs, Pipeline};
use netsim::build::{build, derive_dynamics};
use netsim::{FaultConfig, NetworkStats, Scenario};
use probe::{zmap, ProbeReply, Prober, ZmapSnapshot};
use std::collections::BTreeMap;

/// Thread counts every check sweeps.
const THREADS: [usize; 3] = [1, 2, 8];

/// A world at `scale`, optionally with faults and dynamics armed (the
/// benchmark's `lossy-journaled` settings) before anything is probed. The
/// network is left at the snapshot epoch, so the warm-up set the scan
/// leaves behind survives it.
fn world(seed: u64, scale: f64, armed: bool) -> Scenario {
    let args = ExpArgs {
        seed,
        scale,
        ..ExpArgs::default()
    };
    let mut s = build(scenario_config(&args));
    if armed {
        s.network.set_faults(FaultConfig::lossy(0.05, 0.25));
        let schedule = derive_dynamics(&s, 0.5, 256);
        assert!(schedule.events_active(), "the armed world has events");
        s.network.set_dynamics(schedule);
    }
    s.network.set_epoch(0);
    s
}

/// What a scan leaves behind: the snapshot as JSON, and the network's
/// counters and warm-up set size afterwards.
#[derive(Debug, PartialEq)]
struct Trace {
    snapshot: String,
    stats: NetworkStats,
    warmed: usize,
}

fn trace(s: &Scenario, snapshot: &ZmapSnapshot) -> Trace {
    Trace {
        snapshot: serde_json::to_string(snapshot).expect("snapshot serializes"),
        stats: s.network.net_stats(),
        warmed: s.network.warmed_count(),
    }
}

/// The reference: one prober, one probe per address, every block in
/// order — the serial scan the threaded one replaced, down to its ICMP
/// ident and its sequence and IP-ident numbering.
fn serial_scan(s: &mut Scenario) -> ZmapSnapshot {
    let blocks = s.network.allocated_blocks();
    let mut prober = Prober::new(&mut s.network, 0x5CA0);
    prober.retries = 0;
    let mut active = BTreeMap::new();
    for block in blocks {
        let hits: Vec<_> = (1u8..=254)
            .map(|host| block.addr(host))
            .filter(|&dst| {
                matches!(prober.probe(dst, 64, 0).reply,
                         ProbeReply::Echo { from, .. } if from == dst)
            })
            .collect();
        if !hits.is_empty() {
            active.insert(block, hits);
        }
    }
    ZmapSnapshot {
        active,
        epoch: 0,
        probes: prober.probes_sent(),
    }
}

fn check_scan(seed: u64, scale: f64, armed: bool) {
    let mut reference = world(seed, scale, armed);
    let snapshot = serial_scan(&mut reference);
    let want = trace(&reference, &snapshot);
    assert!(want.warmed > 0, "the world has cellular hosts to wake");
    if armed {
        assert!(want.stats.link_drops > 0, "the armed world drops probes");
    }
    assert_eq!(
        snapshot.probes,
        reference.network.allocated_blocks().len() as u64 * 254
    );
    for threads in THREADS {
        let mut s = world(seed, scale, armed);
        let blocks = s.network.allocated_blocks();
        let snapshot = zmap::scan_threaded(&mut s.network, &blocks, threads);
        assert_eq!(
            trace(&s, &snapshot),
            want,
            "threads={threads} armed={armed}: scan differs from the serial scan"
        );
    }
}

fn check_pipeline(seed: u64, scale: f64) {
    for armed in [false, true] {
        let run = |threads: usize| {
            let b = Pipeline::builder().seed(seed).scale(scale).threads(threads);
            let b = if armed {
                b.faults(0.05, 0.25).dynamics(0.5, 256)
            } else {
                b
            };
            b.run().canonical_report()
        };
        let want = run(THREADS[0]);
        for threads in &THREADS[1..] {
            assert!(
                run(*threads) == want,
                "threads={threads} armed={armed}: canonical report differs from threads=1"
            );
        }
    }
}

#[test]
fn snapshot_is_thread_invariant_on_a_static_world() {
    check_scan(7, 0.01, false);
}

#[test]
fn snapshot_is_thread_invariant_with_faults_and_dynamics_armed() {
    check_scan(7, 0.01, true);
}

#[test]
fn canonical_report_is_thread_invariant() {
    check_pipeline(7, 0.01);
}

#[test]
#[ignore = "benchmark-size world; run in release"]
fn snapshot_is_thread_invariant_at_benchmark_scale() {
    check_scan(12, 0.25, false);
    check_scan(12, 0.25, true);
}

#[test]
#[ignore = "benchmark-size world; run in release"]
fn canonical_report_is_thread_invariant_at_benchmark_scale() {
    check_pipeline(12, 0.25);
}
