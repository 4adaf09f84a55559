//! The serving phases: closed-loop exploration through `MtServer`, and
//! live ingest (an open-loop writer beside a closed-loop reader).

use crate::fixture::RunConfig;
use crate::stats::Samples;
use crate::trace::Spans;
use asqp_core::{AnswerabilityEstimator, MetricParams, Session};
use asqp_db::{Database, Query, ResultSet, Row, Value};
use asqp_serve::{MtConfig, MtServer, ServedSource, SessionBackend, TenantId};
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One shard, no deadline (no deadline-dependent degradation), no
/// injected faults, and a queue deeper than the client count so a
/// closed loop is never refused.
pub fn start_server<B: SessionBackend>(cfg: &RunConfig) -> MtServer<B> {
    MtServer::start(MtConfig {
        shards: 1,
        workers_per_shard: cfg.server_workers,
        queue_depth: 4 * cfg.clients.max(1) + 4,
        deadline_ns: 0,
        ..MtConfig::default()
    })
}

/// The answers a correct server gives for each pool query: the
/// approximation set's rows, and `|q(T)|` on the full database.
pub struct Expected {
    pub subset_rows: Vec<ResultSet>,
    pub full_counts: Vec<usize>,
}

impl Expected {
    pub fn compute(session: &Session, pool: &[Query]) -> Result<Expected, String> {
        let state = session.state();
        let full = session.full_db();
        let mut subset_rows = Vec::with_capacity(pool.len());
        let mut full_counts = Vec::with_capacity(pool.len());
        for q in pool {
            subset_rows.push(state.subset.execute(q).map_err(|e| e.to_string())?);
            full_counts.push(full.cached_row_count(q).map_err(|e| e.to_string())?);
        }
        Ok(Expected {
            subset_rows,
            full_counts,
        })
    }
}

/// What a set of clients observed.
#[derive(Debug, Default)]
pub struct Served {
    pub latency: Samples,
    pub subset_latency: Samples,
    pub full_latency: Samples,
    pub requests: usize,
    pub subset_answers: usize,
    pub failed: usize,
    /// Per pool query: answers from the subset, their Eq. 1 fraction
    /// `query_fraction(|answer|, |q(T)|)`, and answers from the full
    /// database (fraction 1.0).
    pub tally: BTreeMap<usize, Tally>,
    pub wall: Duration,
    /// Wall time of each explore round (all clients, one pool pass each).
    pub rounds: Vec<Duration>,
    /// `(pool index, rows)` of every full-database answer, checked after
    /// the phase when the snapshot can move under the reader.
    pub full_rows: Vec<(usize, usize)>,
    pub problems: Vec<String>,
}

impl Served {
    fn absorb(&mut self, other: Served) {
        self.latency.extend(&other.latency);
        self.subset_latency.extend(&other.subset_latency);
        self.full_latency.extend(&other.full_latency);
        self.requests += other.requests;
        self.subset_answers += other.subset_answers;
        self.failed += other.failed;
        for (qi, t) in other.tally {
            let mine = self.tally.entry(qi).or_default();
            mine.subset += t.subset;
            mine.full += t.full;
            mine.fraction = t.fraction;
        }
        self.full_rows.extend(other.full_rows);
        self.problems.extend(other.problems);
    }
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub subset: u64,
    pub full: u64,
    pub fraction: f64,
}

impl Served {
    /// Mean Eq. 1 fraction over requests, summed in pool order so the
    /// value depends only on how often each query was answered how.
    pub fn served_quality(&self) -> f64 {
        let (mut sum, mut n) = (0.0, 0u64);
        for t in self.tally.values() {
            sum += t.subset as f64 * t.fraction + t.full as f64;
            n += t.subset + t.full;
        }
        sum / n.max(1) as f64
    }

    /// Median over rounds of requests per second.
    pub fn throughput_qps(&self) -> f64 {
        let per_round = self.requests as f64 / self.rounds.len().max(1) as f64;
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|d| per_round / d.as_secs_f64())
            .collect();
        crate::stats::median(&rates)
    }
}

/// How a client checks each answer.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// Static data: subset answers must equal the expected rows and
    /// full-database answers must have exactly `|q(T)|` rows.
    Exact(&'a Expected),
    /// Data moves under the reader: answers are recorded and checked
    /// against the snapshots after the phase.
    Deferred,
}

/// A seeded order over the pool for one client round.
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Send one request and classify the outcome.
fn request<B: SessionBackend>(
    server: &MtServer<B>,
    tenant: TenantId,
    pool: &[Query],
    qi: usize,
    check: Check<'_>,
    params: MetricParams,
    out: &mut Served,
) {
    let q = pool[qi].clone();
    let t = Instant::now();
    let result = server.query_blocking(tenant, q);
    let d = t.elapsed();
    out.requests += 1;
    let answer = match result {
        Ok(a) => a,
        Err(e) => {
            out.failed += 1;
            out.problems
                .push(format!("request for pool query {qi} failed: {e}"));
            return;
        }
    };
    out.latency.push(d);
    let n = answer.rows.len();
    match answer.source {
        ServedSource::Subset => {
            out.subset_latency.push(d);
            out.subset_answers += 1;
            if let Check::Exact(exp) = check {
                let t = out.tally.entry(qi).or_default();
                t.subset += 1;
                t.fraction = params.query_fraction(n, exp.full_counts[qi]);
                if answer.rows.rows != exp.subset_rows[qi].rows {
                    out.problems.push(format!(
                        "subset answer to pool query {qi} differs from subset.execute"
                    ));
                }
            }
        }
        ServedSource::Full => {
            out.full_latency.push(d);
            out.tally.entry(qi).or_default().full += 1;
            match check {
                Check::Exact(exp) if n != exp.full_counts[qi] => out.problems.push(format!(
                    "full answer to pool query {qi} has {n} rows, |q(T)| = {}",
                    exp.full_counts[qi]
                )),
                Check::Exact(_) => {}
                Check::Deferred => out.full_rows.push((qi, n)),
            }
        }
        ServedSource::DegradedSubset => {
            out.failed += 1;
            out.problems
                .push(format!("pool query {qi} degraded with no deadline set"));
        }
    }
}

/// One untimed pass over the whole pool, so plan and cardinality caches
/// are warm before timing.
pub fn warm_up<B: SessionBackend>(
    server: &MtServer<B>,
    tenant: TenantId,
    pool: &[Query],
    expected: &Expected,
    params: MetricParams,
) -> Served {
    let mut out = Served::default();
    for qi in 0..pool.len() {
        request(
            server,
            tenant,
            pool,
            qi,
            Check::Exact(expected),
            params,
            &mut out,
        );
    }
    out
}

/// Closed loop in rounds: in each round every tenant sends one pass over
/// the pool in its own seeded order, one request at a time; a barrier
/// starts all tenants' rounds together.
pub fn explore<B: SessionBackend>(
    cfg: &RunConfig,
    server: &MtServer<B>,
    tenants: &[TenantId],
    pool: &[Query],
    expected: &Expected,
    params: MetricParams,
) -> Served {
    let start = Instant::now();
    let barrier = Barrier::new(tenants.len());
    let parts: Vec<(Served, Vec<(Instant, Instant)>)> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = tenants
            .iter()
            .map(|&tenant| {
                scope.spawn(move || {
                    let mut rng = client_rng(cfg.seed, tenant);
                    let mut out = Served::default();
                    let mut spans = Vec::with_capacity(cfg.explore_rounds);
                    for _ in 0..cfg.explore_rounds {
                        barrier.wait();
                        let begin = Instant::now();
                        for qi in shuffled(pool.len(), &mut rng) {
                            let check = Check::Exact(expected);
                            request(server, tenant, pool, qi, check, params, &mut out);
                        }
                        spans.push((begin, Instant::now()));
                    }
                    (out, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut served = Served::default();
    let mut rounds: Vec<Option<(Instant, Instant)>> = vec![None; cfg.explore_rounds];
    for (part, spans) in parts {
        served.absorb(part);
        for (r, (b, e)) in spans.into_iter().enumerate() {
            rounds[r] = Some(match rounds[r] {
                Some((b0, e0)) => (b0.min(b), e0.max(e)),
                None => (b, e),
            });
        }
    }
    served.rounds = rounds.into_iter().flatten().map(|(b, e)| e - b).collect();
    served.wall = start.elapsed();
    served
}

fn client_rng(seed: u64, tenant: TenantId) -> StdRng {
    StdRng::seed_from_u64(seed ^ (tenant + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The writer's record of a live-ingest phase.
#[derive(Debug)]
pub struct Ingest {
    /// Per batch: refresh completion minus the batch's due time.
    pub freshness: Samples,
    /// Per batch: append start minus due time (how late the writer ran).
    pub lag: Samples,
    pub rows_appended: usize,
    pub batches: usize,
    pub failed_appends: usize,
    pub failed_refreshes: usize,
    /// One `cycle` span per wake-up, with `append` (every due batch),
    /// `snapshot` and `refresh` children.
    pub spans: Spans,
    /// Every tenth refreshed snapshot, kept in traced runs to time the
    /// refresh's parts afterwards.
    pub kept: Vec<Arc<Database>>,
    pub reads: Served,
    pub problems: Vec<String>,
}

/// `title` rows per ingest batch; each is linked to three `cast_info` rows.
pub const TITLES_PER_BATCH: usize = 6;
const KINDS: &[&str] = &["movie", "tv_series", "short", "video", "documentary"];
const ROLES: &[&str] = &["actor", "actress", "director", "producer", "writer"];

/// The rows of batch `b`: [`TITLES_PER_BATCH`] new titles continuing the
/// id sequence and three `cast_info` rows per title linking it to
/// existing people.
pub fn batch_rows(seed: u64, b: usize, first_id: usize, people: usize) -> (Vec<Row>, Vec<Row>) {
    let titles = TITLES_PER_BATCH;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ b as u64);
    let mut title_rows = Vec::with_capacity(titles);
    let mut cast_rows = Vec::with_capacity(3 * titles);
    for i in 0..titles {
        let id = (first_id + b * titles + i) as i64;
        let words = rng.random_range(1..4);
        let name = (0..words)
            .map(|_| asqp_data::pseudo_word(&mut rng))
            .collect::<Vec<_>>()
            .join(" ");
        let rating = rng.random_range(10..100) as f64 / 10.0;
        title_rows.push(vec![
            Value::Int(id),
            Value::Str(name),
            Value::Int(rng.random_range(1990..2026)),
            Value::Str(KINDS[rng.random_range(0..KINDS.len())].to_string()),
            Value::Float(rating),
        ]);
        for _ in 0..3 {
            cast_rows.push(vec![
                Value::Int(id),
                Value::Int(rng.random_range(0..people.max(1)) as i64),
                Value::Str(ROLES[rng.random_range(0..ROLES.len())].to_string()),
            ]);
        }
    }
    (title_rows, cast_rows)
}

fn row_count(db: &Database, table: &str) -> Result<usize, String> {
    Ok(db.table(table).map_err(|e| e.to_string())?.row_count())
}

/// Open-loop writer beside one closed-loop reader. Batch `b` is due at
/// `b × period`; on each wake-up the writer appends every due batch to
/// its live copy, snapshots it (`Arc::new(live.clone())`) and calls
/// `Session::observe_data`. Freshness counts from the due time, so a
/// writer stalled behind a slow refresh shows in it.
pub fn ingest<B: SessionBackend>(
    cfg: &RunConfig,
    session: &Arc<Session>,
    server: &MtServer<B>,
    reader: TenantId,
    pool: &[Query],
    epoch: Instant,
    keep_snapshots: bool,
) -> Result<Ingest, String> {
    let base = session.full_db();
    let mut live: Database = (*base).clone();
    let first_id = row_count(&live, "title")?;
    let people = row_count(&live, "person")?;
    let rows_before = live.total_rows();
    let period = Duration::from_millis(cfg.ingest_period_ms);
    let done = AtomicBool::new(false);
    let params = session.state().model.config.metric_params();

    let (writer, reads) = std::thread::scope(|scope| {
        let done = &done;
        let live = &mut live;
        let writer = scope.spawn(move || {
            let mut out = Ingest {
                freshness: Samples::new(),
                lag: Samples::new(),
                rows_appended: 0,
                batches: 0,
                failed_appends: 0,
                failed_refreshes: 0,
                spans: Spans::new(epoch),
                kept: Vec::new(),
                reads: Served::default(),
                problems: Vec::new(),
            };
            let start = Instant::now();
            let mut next = 0usize;
            while next < cfg.ingest_batches {
                let due_next = start + period * next as u32;
                let now = Instant::now();
                if due_next > now {
                    std::thread::sleep(due_next - now);
                }
                let woke = Instant::now();
                let elapsed = woke.duration_since(start).as_nanos();
                let due_now =
                    ((elapsed / period.as_nanos().max(1)) as usize + 1).min(cfg.ingest_batches);
                let cycle = out.spans.open("cycle");
                let t = Instant::now();
                for b in next..due_now {
                    out.lag
                        .push(Instant::now().duration_since(start + period * b as u32));
                    let (titles, cast) = batch_rows(cfg.seed, b, first_id, people);
                    for (table, rows) in [("title", &titles), ("cast_info", &cast)] {
                        match live.append_rows(table, rows) {
                            Ok(n) => out.rows_appended += n,
                            Err(e) => {
                                out.failed_appends += 1;
                                out.problems.push(format!("append to {table}: {e}"));
                            }
                        }
                    }
                }
                out.spans.record(cycle, "append", t);
                let t = Instant::now();
                let snapshot = Arc::new(live.clone());
                out.spans.record(cycle, "snapshot", t);
                let t = Instant::now();
                match session.observe_data(&snapshot) {
                    Ok(true) => {}
                    Ok(false) => {
                        out.failed_refreshes += 1;
                        out.problems
                            .push("observe_data saw no new data".to_string());
                    }
                    Err(e) => {
                        out.failed_refreshes += 1;
                        out.problems.push(format!("observe_data: {e}"));
                    }
                }
                out.spans.record(cycle, "refresh", t);
                out.spans.close(cycle);
                if keep_snapshots && out.spans.count("refresh") % 10 == 1 {
                    out.kept.push(Arc::clone(&snapshot));
                }
                let completed = Instant::now();
                for b in next..due_now {
                    out.freshness
                        .push(completed.duration_since(start + period * b as u32));
                }
                out.batches += due_now - next;
                next = due_now;
            }
            done.store(true, Ordering::Release);
            out
        });

        let mut rng = client_rng(cfg.seed, reader);
        let mut reads = Served::default();
        let start = Instant::now();
        'reading: loop {
            for qi in shuffled(pool.len(), &mut rng) {
                if done.load(Ordering::Acquire) {
                    break 'reading;
                }
                request(
                    server,
                    reader,
                    pool,
                    qi,
                    Check::Deferred,
                    params,
                    &mut reads,
                );
            }
        }
        reads.wall = start.elapsed();
        (writer.join().expect("writer thread panicked"), reads)
    });
    let mut out = writer;

    // Every acknowledged row is in the live database, and the session's
    // state describes exactly the live data.
    let grown = live.total_rows() - rows_before;
    if grown != out.rows_appended {
        out.problems.push(format!(
            "live database grew by {grown} rows, {} acknowledged",
            out.rows_appended
        ));
    }
    if session.data_fingerprint() != live.data_fingerprint() {
        out.problems
            .push("session fingerprint differs from the live database".to_string());
    }
    // Appends only add rows, so a full answer served while the data moved
    // has between |q(T_before)| and |q(T_after)| rows.
    let mut bounds: Vec<Option<(usize, usize)>> = vec![None; pool.len()];
    for &(qi, n) in &reads.full_rows {
        let (lo, hi) = match bounds[qi] {
            Some(b) => b,
            None => {
                let lo = base
                    .cached_row_count(&pool[qi])
                    .map_err(|e| e.to_string())?;
                let hi = live
                    .cached_row_count(&pool[qi])
                    .map_err(|e| e.to_string())?;
                bounds[qi] = Some((lo, hi));
                (lo, hi)
            }
        };
        if n < lo || n > hi {
            out.problems.push(format!(
                "full answer to pool query {qi} during ingest has {n} rows, outside [{lo}, {hi}]"
            ));
        }
    }
    out.reads = reads;
    Ok(out)
}

/// Replay refreshes on snapshots the writer kept, now without the
/// concurrent reader: the whole `observe_data`, then its two parts
/// (materialise the set, fit the estimator) with the session's model.
/// Returns `(materialize, fit, refresh)` samples, one per snapshot. Run
/// it after the ingest checks: it moves the session back to those
/// snapshots.
pub fn refresh_parts(
    session: &Session,
    kept: &[Arc<Database>],
) -> Result<(Samples, Samples, Samples), String> {
    let model = session.state().model.clone();
    let (mut mat, mut fit, mut whole) = (Samples::new(), Samples::new(), Samples::new());
    for snapshot in kept {
        // Clones start with cold cardinality and statistics caches, as
        // the writer's snapshot did when the session refreshed on it.
        let fresh = Arc::new((**snapshot).clone());
        let t = Instant::now();
        session.observe_data(&fresh).map_err(|e| e.to_string())?;
        whole.push(t.elapsed());
        let snapshot = (**snapshot).clone();
        let t = Instant::now();
        let subset = model
            .materialize(&snapshot, None)
            .map_err(|e| e.to_string())?;
        mat.push(t.elapsed());
        let t = Instant::now();
        AnswerabilityEstimator::fit(&model, &snapshot, &subset, model.config.metric_params())
            .map_err(|e| e.to_string())?;
        fit.push(t.elapsed());
    }
    Ok((mat, fit, whole))
}
