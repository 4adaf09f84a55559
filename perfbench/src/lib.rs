//! End-to-end benchmark of the ASQP-RL pipeline on IMDB: cold setup
//! (preprocess + PPO training + session), interactive exploration
//! through the multi-tenant server, and live ingest with data-drift
//! refreshes. See `perfbench/README.md` for the workloads and metrics.
//!
//! The benchmark drives only public APIs of the repository's crates and
//! records its spans around those calls, never inside them.

pub mod fixture;
pub mod run;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod trace;
