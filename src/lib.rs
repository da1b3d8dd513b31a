//! # aqudd — accurate *and* compact decision diagrams for quantum computation
//!
//! A Rust reproduction of *“Overcoming the Trade-off between Accuracy and
//! Compactness in Decision Diagrams for Quantum Computation”* (Niemann,
//! Zulehner, Drechsler, Wille; DATE 2019 / journal version).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`bigint`] — arbitrary-precision integers (the GMP substitute),
//! * [`rings`] — the exact number systems `Z[ω]`, `D[ω]`, `Q[ω]`, `Z[√2]`,
//! * [`dd`] — the QMDD package with numeric (tolerance-ε) and algebraic
//!   edge weights,
//! * [`circuits`] — circuit IR, gate library and the benchmark generators
//!   (Grover, Binary Welded Tree, Ground State Estimation, Clifford+T
//!   compilation),
//! * [`sim`] — the simulation and measurement harness,
//! * [`serve`] — the concurrent batch-simulation service (worker pool,
//!   admission-controlled job queue, line-delimited TCP protocol, live
//!   metrics).
//!
//! # Quickstart
//!
//! ```
//! use aqudd::circuits::grover;
//! use aqudd::dd::QomegaContext;
//! use aqudd::sim::Simulator;
//!
//! // Search 64 entries for index 42, with *exact* algebraic arithmetic —
//! // no tolerance value to tune, no numerical error, maximal compactness.
//! let circuit = grover(6, 42);
//! let mut sim = Simulator::new(QomegaContext::new(), &circuit);
//! let result = sim.try_run()?;
//! let probs = result.probabilities();
//! let best = probs
//!     .iter()
//!     .enumerate()
//!     .max_by(|a, b| a.1.total_cmp(b.1))
//!     .map(|(i, _)| i);
//! assert_eq!(best, Some(42));
//! # Ok::<(), Box<aqudd::sim::SimAbort>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aq_bigint as bigint;
pub use aq_circuits as circuits;
pub use aq_dd as dd;
pub use aq_rings as rings;
pub use aq_serve as serve;
pub use aq_sim as sim;
