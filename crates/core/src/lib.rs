//! QMDD — Quantum Multiple-valued Decision Diagrams with interchangeable
//! numeric and exact algebraic edge weights.
//!
//! This crate is the primary contribution of the reproduced paper: a QMDD
//! package in which the *same* decision-diagram engine runs over three edge
//! weight systems:
//!
//! * [`NumericContext`] — IEEE 754 double-precision complex weights with a
//!   configurable tolerance value ε (the state of the art the paper
//!   evaluates; Sec. III).
//! * [`QomegaContext`] — exact weights in the cyclotomic field `Q[ω]`,
//!   normalized by dividing through the leftmost non-zero weight using
//!   field inverses (the paper's Algorithm 2).
//! * [`GcdContext`] — exact weights in the ring `D[ω]`, normalized by
//!   extracting canonical greatest common divisors (the paper's
//!   Algorithm 3, using that `Z[ω]` is a Euclidean ring).
//!
//! A QMDD represents a `2ⁿ × 2ⁿ` unitary (or a `2ⁿ` state vector) as a DAG
//! whose nodes branch on one qubit each and whose edges carry scalar
//! weights; sub-matrices that differ only by a scalar share structure. The
//! engine provides addition, matrix–vector and matrix–matrix
//! multiplication, direct construction of (multi-)controlled gate DDs,
//! state-vector extraction, node counting and compaction, with compute
//! caches memoising every operation.
//!
//! # Examples
//!
//! Build the 2-qubit operator `H ⊗ I` of Fig. 1 of the paper and check that
//! it has exactly one node per level (the redundancy QMDDs exist to catch):
//!
//! ```
//! use aq_dd::{GateMatrix, Manager, QomegaContext};
//!
//! let mut m = Manager::new(QomegaContext::new(), 2);
//! let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
//! assert_eq!(m.mat_nodes(&h), 2);
//!
//! // applying it twice gives the identity: HH = I
//! let hh = m.try_mat_mul(&h, &h)?;
//! assert_eq!(hh, m.try_identity()?);
//! # Ok::<(), aq_dd::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod algebraic;
mod cache;
#[cfg(feature = "chaos")]
mod chaos;
mod dot;
mod edge;
mod error;
mod extract;
pub mod fxhash;
mod gates;
mod invariant;
mod manager;
mod measure;
mod numeric;
mod ops;
pub mod snapshot;
mod unique;
mod verify;
mod weight;
mod wops;

pub use algebraic::{GcdContext, QomegaContext};
pub use cache::CacheStats;
pub use edge::{Edge, MatId, VecId};
pub use error::{EngineError, RunBudget};
pub use gates::{GateEntry, GateMatrix, UnrepresentableGateError};
pub use manager::{EngineStatistics, Manager};
pub use measure::StateSampler;
pub use numeric::{NormScheme, NumericContext};
pub use verify::kron_states;
pub use weight::{WeightContext, WeightId, WeightTable};
