//! DD-based quantum circuit simulation with measurement instrumentation.
//!
//! This crate drives the QMDD engine over the benchmark circuits and
//! records the three quantities the paper's evaluation plots per applied
//! gate (Figs. 2–5):
//!
//! * **size** — nodes of the evolved state's decision diagram,
//! * **accuracy** — Euclidean distance of the (renormalised) numeric state
//!   vector from the exact algebraic one (footnote 8 of the paper),
//! * **run-time** — cumulative CPU time of the DD operations.
//!
//! # Examples
//!
//! ```
//! use aq_circuits::grover;
//! use aq_dd::QomegaContext;
//! use aq_sim::Simulator;
//!
//! let circuit = grover(4, 11);
//! let mut sim = Simulator::new(QomegaContext::new(), &circuit);
//! let result = sim.try_run()?;
//! // Grover amplifies the marked element:
//! let probs = result.probabilities();
//! let best = probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|x| x.0);
//! assert_eq!(best, Some(11));
//! # Ok::<(), Box<aq_sim::SimAbort>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

mod accuracy;
mod checkpoint;
pub mod job;
mod operators;
mod report;
mod sample;
mod session;
mod simulator;
pub mod sweep;
mod trace;

use aq_dd::WeightContext;

pub use accuracy::{circuits_equivalent, normalized_distance, PairedRun};
pub use checkpoint::{
    circuit_fingerprint, peek_checkpoint, CheckpointInfo, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use job::{run_job, JobAbortInfo, JobOutcome, JobSpec, SampleParams, SchemeSpec};
pub use operators::{
    try_circuit_unitary, try_matching_evolution, try_op_operator, try_permutation,
};
pub use report::{write_csv, Column};
pub use sample::{SampleProbability, SampleReport};
pub use session::{EngineSession, SessionConfig, SessionStats};
pub use simulator::{SimAbort, SimError, SimOptions, SimResult, Simulator};
pub use trace::{Trace, TracePoint};
