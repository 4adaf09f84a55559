//! One benchmark run: setup, explore, ingest, checks, and the metrics
//! of either the untraced (end-to-end) or the traced (per-layer) run.

use crate::fixture::{Fixture, RunConfig, TRAINER_WORKERS};
use crate::serve::{self, Expected, Served};
use crate::setup::{self, session_config, Setup};
use crate::stats::{median, Samples};
use crate::trace::{CallLog, Spans, TracedBackend};
use asqp_core::Session;
use asqp_serve::{MtServer, SessionBackend, TenantId};
use asqp_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Every answer check that failed; empty means correct.
    pub problems: Vec<String>,
    /// Host and configuration, one `key=value` list.
    pub descriptor: String,
    /// The traced run's spans (empty for the untraced run).
    pub spans: Spans,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

fn isa() -> String {
    let mut isa = std::env::consts::ARCH.to_string();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if on {
                isa.push('+');
                isa.push_str(name);
            }
        }
    }
    isa
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn descriptor(cfg: &RunConfig, fx: &Fixture, trace: bool, commit: &str) -> String {
    format!(
        "host: nproc={} isa={} | config: workload={} trace={} scale={:?} model={:?} k={} F={} \
         trainer_workers={} server_workers={} clients={} setups={} explore_rounds={} \
         ingest_batches={} ingest_period_ms={} seed={} commit={}",
        nproc(),
        isa(),
        cfg.workload,
        u8::from(trace),
        cfg.scale,
        cfg.model,
        fx.config.k,
        fx.config.frame_size,
        TRAINER_WORKERS,
        cfg.server_workers,
        cfg.clients,
        cfg.setups,
        cfg.explore_rounds,
        cfg.ingest_batches,
        cfg.ingest_period_ms,
        cfg.seed,
        commit
    )
}

/// Register every client tenant on one shared session, in one group.
fn register<B: SessionBackend>(
    server: &MtServer<B>,
    n: usize,
    make: impl Fn() -> B,
) -> Vec<TenantId> {
    let tenants: Vec<TenantId> = (0..n as TenantId).collect();
    for &t in &tenants {
        server.register_tenant(t, 0, make());
    }
    tenants
}

/// Per tenant, every admitted request resolved, none degraded or fatal.
fn tenant_checks<B: SessionBackend>(
    server: &MtServer<B>,
    tenants: &[TenantId],
    problems: &mut Vec<String>,
) {
    for &t in tenants {
        match server.tenant_stats(t) {
            Some(s) => {
                if s.admitted != s.resolved() || s.degraded != 0 || s.fatal != 0 {
                    problems.push(format!(
                        "tenant {t}: admitted {} resolved {} degraded {} fatal {}",
                        s.admitted,
                        s.resolved(),
                        s.degraded,
                        s.fatal
                    ));
                }
            }
            None => problems.push(format!("tenant {t} has no accounting")),
        }
    }
}

fn quantile(s: &Samples, q: f64, what: &str, problems: &mut Vec<String>) -> f64 {
    s.quantile_ms(q, what).unwrap_or_else(|e| {
        problems.push(e);
        0.0
    })
}

/// `(steal, total)` jiffies over all CPUs, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Run `cfg` once. `trace` selects the traced run, which reports the
/// per-layer metrics instead of the end-to-end ones. The descriptor ends
/// with the share of CPU time the hypervisor stole during the run: on a
/// shared host, that is what moves every timing of a run together.
pub fn run(cfg: &RunConfig, trace: bool, commit: &str) -> Result<Report, String> {
    let before = cpu_jiffies();
    let fx = Fixture::new(cfg.scale, cfg.model);
    let descriptor = descriptor(cfg, &fx, trace, commit);
    let mut report = if trace {
        traced(cfg, &fx, descriptor)?
    } else {
        untraced(cfg, &fx, descriptor)?
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.descriptor += &format!(" | cpu_steal={:.1}%", 100.0 * share);
    }
    Ok(report)
}

fn untraced(cfg: &RunConfig, fx: &Fixture, descriptor: String) -> Result<Report, String> {
    let mut problems = Vec::new();
    let mut seconds = Vec::with_capacity(cfg.setups);
    let mut scores = Vec::with_capacity(cfg.setups);
    let mut last: Option<Setup> = None;
    for _ in 0..cfg.setups.max(1) {
        drop(last.take());
        let s = setup::cold_setup(fx)?;
        seconds.push(s.seconds);
        scores.push(setup::checked_score(fx, &s)?);
        last = Some(s);
    }
    let setup = last.expect("at least one setup ran");
    if scores.iter().any(|s| s.to_bits() != scores[0].to_bits()) {
        problems.push(format!("cold setups scored differently: {scores:?}"));
    }
    let params = fx.config.metric_params();
    let session = setup.session;
    let expected = Expected::compute(&session, &fx.pool)?;

    let server = serve::start_server::<Arc<Session>>(cfg);
    let tenants = register(&server, cfg.clients, || Arc::clone(&session));
    let warm = serve::warm_up(&server, tenants[0], &fx.pool, &expected, params);
    problems.extend(warm.problems);
    let explored = serve::explore(cfg, &server, &tenants, &fx.pool, &expected, params);
    let ingest = serve::ingest(
        cfg,
        &session,
        &server,
        tenants[0],
        &fx.pool,
        Instant::now(),
        false,
    )?;
    tenant_checks(&server, &tenants, &mut problems);
    server.shutdown();

    let mut metrics = Vec::new();
    let mut m = |name, value, unit| metrics.push(Metric { name, value, unit });
    m("setup_s", median(&seconds), "s");
    m("score", scores[0], "fraction");
    m("served_quality", explored.served_quality(), "fraction");
    m(
        "query_p50_ms",
        quantile(&explored.latency, 0.5, "query latency", &mut problems),
        "ms",
    );
    m(
        "query_p99_ms",
        quantile(&explored.latency, 0.99, "query latency", &mut problems),
        "ms",
    );
    m("throughput_qps", explored.throughput_qps(), "1/s");
    m(
        "subset_p50_ms",
        quantile(
            &explored.subset_latency,
            0.5,
            "subset latency",
            &mut problems,
        ),
        "ms",
    );
    m(
        "full_p50_ms",
        quantile(&explored.full_latency, 0.5, "full latency", &mut problems),
        "ms",
    );
    m(
        "freshness_p50_ms",
        quantile(&ingest.freshness, 0.5, "freshness", &mut problems),
        "ms",
    );
    m(
        "freshness_p90_ms",
        quantile(&ingest.freshness, 0.9, "freshness", &mut problems),
        "ms",
    );
    m("peak_rss_mb", peak_rss_mb(), "MiB");

    let (attempted, failed) = accounting(&explored, &ingest);
    problems.extend(explored.problems);
    problems.extend(ingest.problems);
    problems.extend(ingest.reads.problems);
    Ok(Report {
        metrics,
        attempted,
        failed,
        problems,
        descriptor,
        spans: Spans::new(Instant::now()),
    })
}

/// Attempts: requests, appends (two tables per batch) and refreshes.
/// Failures: refused, fatal or degraded requests, failed appends and
/// failed refreshes.
fn accounting(explored: &Served, ingest: &serve::Ingest) -> (u64, u64) {
    let attempted = explored.requests
        + ingest.reads.requests
        + 2 * ingest.batches
        + ingest.spans.count("refresh");
    let failed =
        explored.failed + ingest.reads.failed + ingest.failed_appends + ingest.failed_refreshes;
    (attempted as u64, failed as u64)
}

fn traced(cfg: &RunConfig, fx: &Fixture, descriptor: String) -> Result<Report, String> {
    let mut problems = Vec::new();
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let params = fx.config.metric_params();

    // Untraced reference: one cold setup and the explore phase, plain.
    let plain = setup::cold_setup(fx)?;
    let plain_setup_s = plain.seconds;
    let expected = Expected::compute(&plain.session, &fx.pool)?;
    let plain_explore_s = {
        let server = serve::start_server::<Arc<Session>>(cfg);
        let tenants = register(&server, cfg.clients, || Arc::clone(&plain.session));
        let warm = serve::warm_up(&server, tenants[0], &fx.pool, &expected, params);
        problems.extend(warm.problems);
        let served = serve::explore(cfg, &server, &tenants, &fx.pool, &expected, params);
        problems.extend(served.problems);
        served.wall.as_secs_f64()
    };
    drop(plain);

    // Traced: the replayed setup, then explore and ingest through a
    // backend that times each call into the session, with the program's
    // own telemetry recorder installed while serving to read its existing
    // counters.
    let db = Arc::new(fx.database());
    let replay = setup::replay_setup(fx, &db, &mut spans)?;
    let traced_setup_s = spans.total_s("setup");
    let iterations = replay.model.history.len();
    let session = Arc::new(
        Session::new(Arc::clone(&db), replay.model, session_config()).map_err(|e| e.to_string())?,
    );
    let expected = Expected::compute(&session, &fx.pool)?;
    let log = Arc::new(CallLog::default());
    let recorder = Arc::new(telemetry::MemoryRecorder::new());
    telemetry::install(recorder.clone());
    let server = serve::start_server::<TracedBackend>(cfg);
    let tenants = register(&server, cfg.clients, || {
        TracedBackend::new(Arc::clone(&session), Arc::clone(&log))
    });
    let warm = serve::warm_up(&server, tenants[0], &fx.pool, &expected, params);
    problems.extend(warm.problems);
    for m in [&log.plan, &log.subset, &log.full, &log.finish] {
        log.take(m);
    }
    recorder.reset();
    let explored = serve::explore(cfg, &server, &tenants, &fx.pool, &expected, params);
    let shared_scan_hits = server.shared_scan_hits();
    let backend_ns = log.total_ns();
    let plan = log.take(&log.plan);
    let subset = log.take(&log.subset);
    let full = log.take(&log.full);
    let counters = recorder.report().counters;
    let ingest = serve::ingest(cfg, &session, &server, tenants[0], &fx.pool, epoch, true)?;
    tenant_checks(&server, &tenants, &mut problems);
    server.shutdown();
    telemetry::uninstall();
    let (mat, fit, whole) = serve::refresh_parts(&session, &ingest.kept)?;

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let collect_s = spans.total_s("rl.collect");
    let update_s = spans.total_s("rl.update");
    let latency_ns = explored.latency.total_ns() as f64;
    let overhead_ns = latency_ns - backend_ns as f64;
    let refresh_parts_ns = (mat.total_ns() + fit.total_ns()) as f64;

    let mut metrics = Vec::new();
    let mut m = |name, value, unit| metrics.push(Metric { name, value, unit });
    m("preprocess.s", spans.total_s("preprocess"), "s");
    m("preprocess.actions", replay.actions as f64, "count");
    m("preprocess.tuples", replay.action_tuples as f64, "count");
    m("rl.collect.s", collect_s, "s");
    m("rl.update.s", update_s, "s");
    m("rl.iterations", iterations as f64, "count");
    m(
        "rl.steps_per_s",
        replay.steps as f64 / collect_s.max(1e-9),
        "1/s",
    );
    m(
        "rl.minibatches_per_s",
        replay.minibatches as f64 / update_s.max(1e-9),
        "1/s",
    );
    m(
        "model.materialize.s",
        spans.total_s("model.materialize"),
        "s",
    );
    m("estimator.fit.s", spans.total_s("estimator.fit"), "s");
    m(
        "setup.unattributed_share",
        spans.unattributed_share("setup"),
        "fraction",
    );
    m(
        "estimator.predict_us.p50",
        1e3 * quantile(&plan, 0.5, "route", &mut problems),
        "us",
    );
    m(
        "db.subset_exec_ms.p50",
        quantile(&subset, 0.5, "subset exec", &mut problems),
        "ms",
    );
    m(
        "db.full_exec_ms.p50",
        quantile(&full, 0.5, "full exec", &mut problems),
        "ms",
    );
    m(
        "db.full_exec_ms.p90",
        quantile(&full, 0.9, "full exec", &mut problems),
        "ms",
    );
    m(
        "db.plan_cache.hit_ratio",
        ratio(counter("db.plan_cache.hit"), counter("db.plan_cache.miss")),
        "fraction",
    );
    m(
        "db.zonemap.pruned_share",
        ratio(
            counter("db.zonemap.morsels_pruned"),
            counter("db.exec.morsels_scanned"),
        ),
        "fraction",
    );
    m(
        "serve.overhead_ms.mean",
        overhead_ns / explored.requests.max(1) as f64 / 1e6,
        "ms",
    );
    m(
        "request.unattributed_share",
        overhead_ns / latency_ns.max(1.0),
        "fraction",
    );
    m(
        "route.subset_share",
        explored.subset_answers as f64 / explored.requests.max(1) as f64,
        "fraction",
    );
    m("serve.shared_scan_hits", shared_scan_hits as f64, "count");
    m(
        "session.refresh_ms.mean",
        ingest.spans.samples("refresh").mean_ms(),
        "ms",
    );
    m("refresh.materialize_ms.mean", mat.mean_ms(), "ms");
    m("refresh.estimator_fit_ms.mean", fit.mean_ms(), "ms");
    m(
        "refresh.unattributed_share",
        1.0 - refresh_parts_ns / (whole.total_ns() as f64).max(1.0),
        "fraction",
    );
    m(
        "ingest.append_ms.mean",
        ingest.spans.samples("append").mean_ms(),
        "ms",
    );
    m(
        "ingest.snapshot_ms.mean",
        ingest.spans.samples("snapshot").mean_ms(),
        "ms",
    );
    m("ingest.rows_appended", ingest.rows_appended as f64, "count");
    m(
        "ingest.refreshes",
        ingest.spans.count("refresh") as f64,
        "count",
    );
    m(
        "ingest.lag_ms.p90",
        quantile(&ingest.lag, 0.9, "writer lag", &mut problems),
        "ms",
    );
    m(
        "ingest.cycle.unattributed_share",
        ingest.spans.unattributed_share("cycle"),
        "fraction",
    );
    m(
        "trace.overhead_share",
        (traced_setup_s + explored.wall.as_secs_f64()) / (plain_setup_s + plain_explore_s) - 1.0,
        "fraction",
    );

    let (attempted, failed) = accounting(&explored, &ingest);
    problems.extend(explored.problems);
    problems.extend(ingest.problems);
    problems.extend(ingest.reads.problems);
    spans.merge(ingest.spans);
    Ok(Report {
        metrics,
        attempted,
        failed,
        problems,
        descriptor,
        spans,
    })
}
