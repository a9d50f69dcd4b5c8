//! `perfserve`: an end-to-end benchmark of the `blu serve` daemon.
//!
//! The daemon ([`blu_core::runtime::BluService`]) runs in-process on an
//! ephemeral port; a single-threaded client drives it over TCP the way
//! `blu ctl` does, one connection per command. Each workload is run to
//! its end in whole iterations, checked against the batch robust loop,
//! and reported as end-to-end figures ([`run::END_TO_END`]) or, in a
//! separate traced run, as per-layer figures ([`run::PER_LAYER`]) taken
//! by timing each layer's public calls from outside.

pub mod check;
pub mod client;
pub mod host;
pub mod layers;
pub mod run;
pub mod session;
pub mod stats;
pub mod workload;
