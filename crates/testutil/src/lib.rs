//! Self-contained test support for the workspace: a deterministic RNG, a
//! miniature property-testing harness with a `proptest`-compatible macro
//! surface, and a micro-benchmark timer.
//!
//! The container this workspace builds in has **no network access**, so
//! crates-io dev-dependencies (`rand`, `proptest`, `criterion`) cannot be
//! resolved. This crate replaces the small slices of their APIs the
//! workspace actually uses, keeping `cargo build && cargo test` fully
//! offline. Unlike `proptest` proper there is no shrinking and no failure
//! persistence — cases are generated from a seed derived from the test
//! name, so failures reproduce deterministically across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod proptest;
pub mod rng;

pub use rng::Rng;

/// Return type of tests that propagate library errors with `?`.
pub type TestResult = Result<(), Box<dyn std::error::Error>>;
