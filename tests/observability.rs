//! Workspace tests pinning the observability layer.
//!
//! Three contracts from DESIGN.md §10:
//!
//! 1. the exported metrics document has the versioned
//!    `hobbit-metrics/v1` shape with a fixed key set;
//! 2. everything outside the `timing` key is byte-identical across
//!    thread counts, even under fault injection (the determinism
//!    contract — the acceptance bar is `--threads 1` vs `--threads 8`
//!    with `--faults 0.02,tb`);
//! 3. span timings are sane: hierarchical paths, positive entry counts,
//!    children nested inside `run`.

use experiments::args::ExpArgs;
use experiments::Pipeline;
use obs::{strip_timing, Registry, SCHEMA};
use std::sync::Arc;

/// A small observed pipeline run (faults on, like the acceptance bar).
fn observed(threads: usize) -> Pipeline {
    Pipeline::builder()
        .seed(7)
        .scale(0.01)
        .threads(threads)
        .faults(0.02, 0.5)
        .observe()
        .run()
}

fn registry(p: &Pipeline) -> &Arc<Registry> {
    p.obs.as_ref().expect("observe() keeps the registry")
}

#[test]
fn metrics_document_schema_is_pinned() {
    let p = observed(2);
    let doc = registry(&p).export();

    // Top-level shape: exactly these keys, in this (sorted) order.
    let obj = match &doc {
        serde_json::Value::Object(m) => m,
        other => panic!("metrics document must be an object, got {other:?}"),
    };
    let keys: Vec<&str> = obj.keys().map(|k| k.as_str()).collect();
    assert_eq!(
        keys,
        ["counters", "gauges", "histograms", "schema", "timing"],
        "top-level key set is part of the schema"
    );
    assert_eq!(doc["schema"].as_str(), Some(SCHEMA));

    // Counter names every observed pipeline run must emit.
    for name in [
        "probe.sent",
        "probe.drops",
        "probe.retries",
        "probe.backoff_us",
        "net.probes_carried",
        "net.link_drops",
        "net.rate_limited_drops",
        "net.icmp_loss_drops",
        "snapshot.probes",
        "select.selected",
        "select.reject_too_few",
        "select.reject_uncovered",
        "calibrate.dataset_blocks",
        "calibrate.probes",
        "classify.blocks",
        "classify.dests_probed",
        "classify.verdict.too-few-active",
        "classify.verdict.unresponsive-lasthop",
        "classify.verdict.same-lasthop",
        "classify.verdict.non-hierarchical",
        "classify.verdict.hierarchical",
        "supervise.panics_caught",
        "supervise.stalls_cancelled",
        "supervise.requeues",
        "supervise.quarantined",
        "supervise.resumed_blocks",
        "journal.appends",
        "journal.fsyncs",
        "journal.truncated_tail",
    ] {
        assert!(
            doc["counters"].get(name).and_then(|v| v.as_u64()).is_some(),
            "counter {name:?} missing from the document"
        );
    }

    // Histogram entries carry buckets + count + sum.
    let rtt = &doc["histograms"]["probe.rtt_us"];
    assert!(rtt["count"].as_u64().unwrap() > 0);
    assert!(rtt["sum"].as_u64().unwrap() > 0);
    assert!(!rtt["buckets"].as_array().unwrap().is_empty());

    // Timing holds spans and scheduling values, and nothing else.
    let timing = match &doc["timing"] {
        serde_json::Value::Object(m) => m,
        other => panic!("timing must be an object, got {other:?}"),
    };
    let tkeys: Vec<&str> = timing.keys().map(|k| k.as_str()).collect();
    assert_eq!(tkeys, ["spans", "values"]);

    // Cross-check a few counters against the pipeline's own accounting.
    let reg = registry(&p);
    use obs::Recorder;
    assert_eq!(
        reg.counter("select.selected").get(),
        p.selected.len() as u64
    );
    assert_eq!(
        reg.counter("classify.blocks").get(),
        p.measurements.len() as u64
    );
    assert_eq!(reg.counter("calibrate.probes").get(), p.calibration_probes);

    // Every probe the network carried is attributed: the snapshot scan's
    // to `snapshot.probes`, every later phase's to `probe.sent`.
    assert_eq!(reg.counter("snapshot.probes").get(), p.snapshot.probes);
    assert_eq!(
        reg.counter("snapshot.probes").get() + reg.counter("probe.sent").get(),
        reg.counter("net.probes_carried").get(),
        "snapshot + prober probes must reconcile with the network's count"
    );
}

#[test]
fn count_metrics_byte_identical_across_thread_counts_under_faults() {
    // The acceptance bar, driven through the CLI argument surface the
    // binaries use: --threads {1,8} --faults 0.02,tb --metrics <file>.
    let dir = std::env::temp_dir();
    let m1_path = dir.join("hobbit-obs-test-m1.json");
    let m8_path = dir.join("hobbit-obs-test-m8.json");
    let args_for = |threads: usize, path: &std::path::Path| -> ExpArgs {
        ExpArgs::parse_from(
            [
                "--seed",
                "7",
                "--scale",
                "0.01",
                "--threads",
                &threads.to_string(),
                "--faults",
                "0.02,tb",
                "--metrics",
                path.to_str().unwrap(),
            ]
            .map(String::from),
        )
        .expect("valid CLI tokens")
    };

    let a1 = args_for(1, &m1_path);
    let a8 = args_for(8, &m8_path);
    let _p1 = Pipeline::builder().args(&a1).run();
    let _p8 = Pipeline::builder().args(&a8).run();

    let read = |path: &std::path::Path| -> (String, serde_json::Value) {
        let text = std::fs::read_to_string(path).expect("metrics file written");
        let doc = serde_json::from_str(&text).expect("metrics file parses");
        (text, doc)
    };
    let (t1, d1) = read(&m1_path);
    let (t8, d8) = read(&m8_path);
    let _ = std::fs::remove_file(&m1_path);
    let _ = std::fs::remove_file(&m8_path);

    // Outside `timing`, the documents are byte-identical.
    assert_eq!(
        strip_timing(&d1).to_json_pretty(),
        strip_timing(&d8).to_json_pretty(),
        "metric values must not depend on the thread count"
    );
    // And the full files differ only because of `timing` (they contain
    // wall-clock durations and per-worker shares, so they almost surely
    // differ — but both must still parse to the same schema version).
    assert_eq!(d1["schema"], d8["schema"]);
    assert!(t1.contains("\"timing\""));
    assert!(t8.contains("\"timing\""));
}

#[test]
fn span_tree_is_hierarchical_and_sane() {
    let p = observed(2);
    let reg = registry(&p);
    let rows = reg.span_rows();
    assert!(!rows.is_empty());

    let stat = |path: &str| {
        rows.iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("span {path:?} missing: {rows:?}"))
    };

    // The pipeline's phase spans all fire exactly once per run...
    for phase in [
        "run",
        "run/build",
        "run/snapshot",
        "run/select",
        "run/calibrate",
        "run/classify",
    ] {
        assert_eq!(stat(phase).count, 1, "{phase} entered once");
    }
    // ...and the per-block span once per classified block.
    assert_eq!(
        stat("run/classify/block").count,
        p.measurements.len() as u64
    );

    // Nesting: the run span covers each phase it contains. (Block spans
    // run concurrently on workers, so their *sum* may exceed the classify
    // wall-clock; the single-entry phases may not exceed the run.)
    let run_us = stat("run").total_us;
    for phase in ["run/build", "run/snapshot", "run/select", "run/calibrate"] {
        assert!(
            stat(phase).total_us <= run_us,
            "{phase} cannot outlast the run"
        );
    }

    // The rendered tree indents children under their parent.
    let tree = reg.render_span_tree();
    assert!(tree.lines().any(|l| l.starts_with("run ")));
    assert!(tree.lines().any(|l| l.starts_with("  classify ")));
    assert!(tree.lines().any(|l| l.starts_with("    block ")));
}
