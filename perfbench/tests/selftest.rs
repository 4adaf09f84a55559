//! Benchmark self-tests at Tiny scale: every workload completes with all
//! answer checks passing, the traced setup replay is exactly
//! `asqp_core::train`, and the exact metrics repeat across same-seed runs.
//!
//! `cargo test --manifest-path perfbench/Cargo.toml`

use asqp_data::Scale;
use asqp_perfbench::fixture::{Fixture, ModelKind, RunConfig, WORKLOADS};
use asqp_perfbench::run::{run, Report};
use asqp_perfbench::setup::replay_setup;
use asqp_perfbench::trace::Spans;
use std::sync::Mutex;
use std::time::Instant;

/// Traced runs install the process-wide telemetry recorder; run them one
/// at a time.
static TRACED: Mutex<()> = Mutex::new(());

const END_TO_END: &[&str] = &[
    "setup_s",
    "score",
    "served_quality",
    "query_p50_ms",
    "query_p99_ms",
    "throughput_qps",
    "subset_p50_ms",
    "full_p50_ms",
    "freshness_p50_ms",
    "freshness_p90_ms",
    "peak_rss_mb",
];

fn tiny(workload: &str, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::for_workload(workload, seed, 1, 2).expect("known workload");
    cfg.scale = Scale::Tiny;
    cfg.setups = 1;
    cfg.ingest_period_ms = 2;
    cfg
}

fn run_checked(cfg: &RunConfig, trace: bool) -> Report {
    let _guard = trace.then(|| TRACED.lock().unwrap_or_else(|p| p.into_inner()));
    let report = run(cfg, trace, "test").expect("run completes");
    assert!(
        report.correct(),
        "{} (trace {trace}) failed checks: {:?}",
        cfg.workload,
        report.problems
    );
    assert_eq!(report.failed, 0);
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    report
}

#[test]
fn every_workload_runs_clean_and_repeats_its_exact_metrics() {
    for workload in WORKLOADS {
        let cfg = tiny(workload, 11);
        let a = run_checked(&cfg, false);
        let b = run_checked(&cfg, false);
        for name in END_TO_END {
            let v = a
                .metric(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert!(v > 0.0, "{workload}: {name} = {v}");
        }
        for name in ["score", "served_quality"] {
            assert_eq!(a.metric(name), b.metric(name), "{workload}: {name}");
        }

        let ta = run_checked(&cfg, true);
        let tb = run_checked(&cfg, true);
        for name in [
            "route.subset_share",
            "rl.iterations",
            "ingest.rows_appended",
        ] {
            let v = ta
                .metric(name)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            assert_eq!(Some(v), tb.metric(name), "{workload}: {name}");
        }
        assert!(ta.metric("trace.overhead_share").is_some());
        assert!(!ta.spans.spans.is_empty());
    }
}

#[test]
fn replayed_setup_equals_train() {
    for model in [ModelKind::Full, ModelKind::Light] {
        let fx = Fixture::new(Scale::Tiny, model);
        let trained = asqp_core::train(&fx.database(), &fx.train, &fx.config).expect("train");
        let mut spans = Spans::new(Instant::now());
        let replay = replay_setup(&fx, &fx.database(), &mut spans).expect("replay");

        let rewards = |h: &[asqp_rl::IterationStats]| -> Vec<u32> {
            h.iter().map(|s| s.mean_episode_reward.to_bits()).collect()
        };
        assert_eq!(rewards(&trained.history), rewards(&replay.model.history));
        assert_eq!(
            trained.select_actions(None),
            replay.model.select_actions(None)
        );
        assert_eq!(spans.count("rl.update"), trained.history.len());
        assert!(spans.unattributed_share("setup") < 0.5);
    }
}
