//! Tiny-population smoke runs of every workload, untraced and traced:
//! each must pass all of its correctness checks, and report exactly the
//! metrics `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::time::Duration;

use sitebench::site::{run, RunConfig, RunReport, Workload};

/// Every `"name": "..."` value in the repository's `BENCHMARK.json`
/// (workloads, end-to-end and per-layer metrics alike).
fn declared_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    text.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("name has a string value");
            value.to_string()
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> RunReport {
    let mut config = RunConfig::new(workload, 7, Duration::from_millis(600), trace);
    config.members = 2_000;
    config.phases = 2;
    let report = run(&config).expect("run completes");
    for check in &report.checks {
        assert_eq!(
            check.failures,
            0,
            "{}: check {} failed ({})",
            workload.name(),
            check.name,
            check.detail
        );
    }
    assert!(report.correct(), "{}: {report:?}", workload.name());
    assert!(report.attempted > 0);
    assert_eq!(report.failed, 0);
    report
}

#[test]
fn every_workload_passes_its_checks_and_reports_the_declared_metrics() {
    let declared = declared_names();
    let unique: BTreeSet<&String> = declared.iter().collect();
    assert_eq!(unique.len(), declared.len(), "BENCHMARK.json reuses a name");
    for workload in Workload::ALL {
        assert!(declared.contains(&workload.name().to_string()));
    }

    let mut end_to_end = BTreeSet::new();
    let mut per_layer = BTreeSet::new();
    for workload in Workload::ALL {
        let untraced = smoke(workload, false);
        let traced = smoke(workload, true);
        assert!(
            traced.checks.iter().any(|c| c.name == "spans_reconcile"),
            "traced runs check span reconciliation"
        );
        for m in &untraced.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
            // End-to-end metrics are resolved and non-zero on every workload.
            assert!(m.resolved && m.value > 0.0, "{}: {m:?}", workload.name());
        }
        for m in &traced.metrics {
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let names = |r: &RunReport| r.metrics.iter().map(|m| m.name.clone()).collect();
        let (e2e, layers): (BTreeSet<String>, BTreeSet<String>) =
            (names(&untraced), names(&traced));
        assert!(
            end_to_end.is_empty() || end_to_end == e2e,
            "metric set varies by workload"
        );
        assert!(
            per_layer.is_empty() || per_layer == layers,
            "metric set varies by workload"
        );
        end_to_end = e2e;
        per_layer = layers;
    }
    assert!(end_to_end.is_disjoint(&per_layer));
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(
            declared.contains(name),
            "{name} is reported but not declared"
        );
    }
    assert_eq!(
        declared.len(),
        Workload::ALL.len() + end_to_end.len() + per_layer.len(),
        "BENCHMARK.json declares a metric the benchmark does not report"
    );
}

#[test]
fn the_traced_run_attributes_work_to_the_layers_each_workload_exercises() {
    let traced = |workload| smoke(workload, true);
    let value = |r: &RunReport, name: &str| r.metric(name).map(|m| m.value).expect(name);

    let mix = traced(Workload::SiteMix);
    assert!(value(&mix, "espresso.get.samples") > 0.0);
    assert!(value(&mix, "voldemort.ro_get.samples") > 0.0);
    assert!(value(&mix, "espresso.keys_per_multi_get") > 0.0);

    let follows = traced(Workload::FollowHot);
    assert!(value(&follows, "databus.apply.samples") > 0.0);
    assert!(value(&follows, "follow_visible.samples") > 0.0);
    assert_eq!(value(&follows, "sqlstore.commits_per_follow"), 1.0);
    assert!(value(&follows, "voldemort.puts_per_follow") > 0.0);
    assert_eq!(value(&follows, "espresso.get.samples"), 0.0);
    assert_eq!(value(&follows, "kafka.send.samples"), 0.0);

    let activity = traced(Workload::ActivityStream);
    assert!(value(&activity, "kafka.send.samples") > 0.0);
    assert!(value(&activity, "kafka.msgs_per_request") > 1.0);
    assert!(value(&activity, "kafka.consume.msgs_per_s") > 0.0);
    assert_eq!(value(&activity, "databus.apply.samples"), 0.0);
    assert_eq!(value(&activity, "espresso.multi_get.samples"), 0.0);
}
