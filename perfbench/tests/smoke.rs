//! Tiny-scale smoke test: every workload, end to end and traced, reports
//! every metric BENCHMARK.json names, each finite, and passes its output
//! checks.

use perfbench::{run, Options, Scale, Workload};
use std::path::PathBuf;

/// The metric names BENCHMARK.json lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    json.get(key)
        .and_then(|v| v.as_array())
        .expect("a metric list")
        .iter()
        .map(|m| match m.get("name") {
            Some(serde_json::Value::Str(name)) => name.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

// One test, run sequentially: the open loop's lateness check and the
// replay's counter deltas assume no other workload shares the process.
#[test]
fn every_workload_reports_every_listed_metric_and_passes_its_checks() {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let tag = format!("{}-{}", workload.name(), u8::from(trace));
            let options = Options {
                workload,
                seed: 7,
                seconds: 1.0,
                trace,
                scale: Scale::tiny(),
                work_dir: scratch.join(&tag),
                trace_file: scratch.join(format!("{tag}.jsonl")),
            };
            let report = run(&options).unwrap_or_else(|e| panic!("{tag}: {e}"));
            for check in &report.checks {
                assert!(check.ok, "{tag}: check failed: {}", check.name);
            }
            assert!(report.correct(), "{tag}: {} failed ops", report.failed);
            assert!(report.attempted > 0, "{tag}");
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let want = listed(if trace { "per_layer" } else { "end_to_end" });
            assert_eq!(
                names, want,
                "{tag}: reported metrics differ from BENCHMARK.json"
            );
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{tag}: {} = {}", m.name, m.value);
                if !trace {
                    assert!(
                        m.value > 0.0 && m.samples > 0,
                        "{tag}: {} = {}",
                        m.name,
                        m.value
                    );
                }
            }
            let line = report.json_line();
            let parsed: serde_json::Value =
                serde_json::from_str(&line).expect("result line parses");
            assert!(parsed.get("metrics").is_some(), "{line}");
            if trace {
                let spans = std::fs::read_to_string(&options.trace_file).expect("spans written");
                assert!(spans.lines().count() > 0, "{tag}: no spans");
            }
            std::fs::remove_dir_all(&options.work_dir).ok();
        }
    }
}
