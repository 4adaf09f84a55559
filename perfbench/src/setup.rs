//! The setup phase: cold `train` + `Session::new`, the score check, and
//! the traced replay of `train`'s loop through the public layer APIs.

use crate::fixture::Fixture;
use crate::trace::Spans;
use asqp_core::{
    preprocess, score_with_counts, AnswerabilityEstimator, AsqpEnv, EnvConfig, FullCounts,
    Preprocessed, Session, SessionConfig, TrainedModel,
};
use asqp_db::Database;
use asqp_rl::{Environment, IterationStats, Trainer};
use std::sync::Arc;
use std::time::Instant;

/// Sessions never fine-tune inside a timed phase: a fine-tune's timing
/// depends on the scheduler of a shared host.
pub fn session_config() -> SessionConfig {
    SessionConfig {
        auto_fine_tune: false,
        ..SessionConfig::default()
    }
}

/// A setup that finished: the serving session over its database.
pub struct Setup {
    pub session: Arc<Session>,
    pub db: Arc<Database>,
    pub seconds: f64,
}

fn db_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One cold setup on a freshly generated database: `train` followed by
/// `Session::new`, timed together.
pub fn cold_setup(fx: &Fixture) -> Result<Setup, String> {
    let db = Arc::new(fx.database());
    let t0 = Instant::now();
    let model = asqp_core::train(&db, &fx.train, &fx.config).map_err(db_err)?;
    let session = Session::new(Arc::clone(&db), model, session_config()).map_err(db_err)?;
    let seconds = t0.elapsed().as_secs_f64();
    Ok(Setup {
        session: Arc::new(session),
        db,
        seconds,
    })
}

/// Eq. 1 on the held-out test queries, computed twice: over the session's
/// approximation set and over a fresh materialisation of its model. The
/// two must agree exactly.
pub fn checked_score(fx: &Fixture, setup: &Setup) -> Result<f64, String> {
    let params = fx.config.metric_params();
    let counts = FullCounts::compute(&setup.db, &fx.test).map_err(db_err)?;
    let state = setup.session.state();
    let served = score_with_counts(&state.subset, &fx.test, &counts, params).map_err(db_err)?;
    let fresh = state.model.materialize(&setup.db, None).map_err(db_err)?;
    let recomputed = score_with_counts(&fresh, &fx.test, &counts, params).map_err(db_err)?;
    if served.to_bits() != recomputed.to_bits() {
        return Err(format!(
            "score check: session subset scores {served}, fresh materialisation {recomputed}"
        ));
    }
    Ok(served)
}

/// What the traced replay learned besides its spans.
pub struct Replay {
    pub model: TrainedModel,
    pub actions: usize,
    pub action_tuples: usize,
    pub steps: usize,
    pub minibatches: usize,
}

/// Replay `asqp_core::train` from outside, one layer call at a time, then
/// materialise the set and fit the estimator. Each call is a child span
/// of `setup`. The loop mirrors `train` exactly (same early stop, same
/// seeds), which the self-tests check against `train` itself.
pub fn replay_setup(fx: &Fixture, db: &Database, spans: &mut Spans) -> Result<Replay, String> {
    let root = spans.open("setup");
    let mut cfg = fx.config.clone();
    cfg.preprocess.frame_size = cfg.frame_size;

    let t = Instant::now();
    let Preprocessed {
        action_space,
        embedder,
        train_embeddings,
    } = preprocess(db, &fx.train, &cfg.preprocess).map_err(db_err)?;
    spans.record(root, "preprocess", t);
    if action_space.is_empty() {
        return Err("replay: empty action space".to_string());
    }
    let actions = action_space.len();
    let action_tuples = action_space.tuples.len();
    let space = Arc::new(action_space);

    let t = Instant::now();
    let env = AsqpEnv::new(
        Arc::clone(&space),
        EnvConfig {
            kind: cfg.env_kind,
            k: cfg.k,
            batch_size: cfg.batch_size,
            diversity_coef: cfg.diversity_coef,
            drp_pairs: cfg.drp_pairs,
            seed: cfg.seed,
        },
    );
    let mut trainer = Trainer::new(cfg.trainer.clone(), env.state_dim(), env.action_count());
    spans.record(root, "rl.init", t);

    let mut history = Vec::with_capacity(cfg.iterations);
    let (mut best, mut since_best) = (f32::NEG_INFINITY, 0usize);
    let (mut steps, mut minibatches) = (0usize, 0usize);
    for _ in 0..cfg.iterations {
        let t = Instant::now();
        let buf = trainer.collect(&env);
        spans.record(root, "rl.collect", t);
        let mean_episode_reward = buf.mean_episode_reward();
        let t = Instant::now();
        let (policy_loss, value_loss, entropy, approx_kl) = trainer.update(&buf);
        spans.record(root, "rl.update", t);
        steps += buf.len();
        minibatches += update_minibatches(&trainer, buf.len());
        history.push(IterationStats {
            mean_episode_reward,
            policy_loss,
            value_loss,
            entropy,
            approx_kl,
            steps: buf.len(),
        });
        if mean_episode_reward > best + 1e-4 {
            best = mean_episode_reward;
            since_best = 0;
        } else {
            since_best += 1;
            if since_best >= cfg.early_stop_patience {
                break;
            }
        }
    }
    let model = TrainedModel {
        policy: trainer.policy.clone(),
        space,
        embedder,
        train_embeddings,
        train_workload: fx.train.clone(),
        config: cfg,
        history,
    };

    let t = Instant::now();
    let subset = model.materialize(db, None).map_err(db_err)?;
    spans.record(root, "model.materialize", t);
    let t = Instant::now();
    AnswerabilityEstimator::fit(&model, db, &subset, model.config.metric_params())
        .map_err(db_err)?;
    spans.record(root, "estimator.fit", t);
    spans.close(root);
    Ok(Replay {
        model,
        actions,
        action_tuples,
        steps,
        minibatches,
    })
}

/// Minibatch gradient steps one `Trainer::update` takes on `n` samples.
fn update_minibatches(trainer: &Trainer, n: usize) -> usize {
    let cfg = &trainer.config;
    let epochs = match cfg.agent {
        asqp_rl::AgentKind::Ppo => cfg.update_epochs,
        _ => 1,
    };
    epochs * n.div_ceil(cfg.minibatch_size.max(1))
}
