//! # aq-serve — a concurrent batch-simulation service
//!
//! A std-only serving layer over the `aqudd` engine: clients submit
//! circuit-simulation jobs (by name or inline QASM, with a weight scheme
//! and a **mandatory** resource budget), a hand-rolled worker pool runs
//! them fail-soft, and a `metrics` verb exposes live counters, queue
//! depth, latency histograms and per-worker engine statistics.
//!
//! Three layers, each usable on its own:
//!
//! - [`ServeCore`] — queue + registry + worker pool; speak typed
//!   [`Request`]/[`Response`] to it directly or through the in-process
//!   [`Client`].
//! - [`Server`] — line-delimited JSON over TCP localhost (the
//!   `aq-served` binary); [`TcpClient`] / the `aq-cli` binary talk to
//!   it.
//! - [`protocol`] — the one wire codec: the grammar, circuit specs,
//!   request parse/render and response render, reusable without a
//!   socket.
//!
//! Design notes live in the workspace `DESIGN.md` ("Service layer").

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod backoff;
pub mod cache;
pub mod client;
pub mod faults;
pub mod json;
pub mod lockaudit;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;

pub use backoff::Backoff;
pub use cache::{CacheKey, ResultCache, ResultCacheStats};
pub use client::{Client, RetryPolicy, TcpClient};
pub use faults::{ChaosKill, FaultCounters, FaultPlan, StallPhase};
pub use json::Json;
pub use metrics::{
    histogram_quantile_ms, LatencyHistogram, Metrics, WorkerStats, LATENCY_BUCKETS,
    LATENCY_BUCKET_EDGES_US,
};
pub use protocol::{CircuitSpec, Request, SubmitRequest, MAX_FRAME_BYTES, MAX_QUBITS, MAX_SHOTS};
pub use queue::{AdmissionError, JobQueue};
pub use server::Server;
pub use service::{
    JobState, JobStatusReport, MetricsReport, Response, SchemeClass, ServeConfig, ServeCore,
    WorkerReport,
};
