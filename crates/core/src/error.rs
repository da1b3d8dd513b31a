//! Resource budgets and the structured engine-error taxonomy.
//!
//! The paper's own evaluation shows why these exist: at ε = 0 the numeric
//! representation blows up in node count (Figs. 2–4), and the exact
//! algebraic representation can blow up in coefficient bit-width (Fig. 5,
//! GSE). A sufficiently ambitious run therefore *will* exhaust memory or
//! time. A [`RunBudget`] turns that from a process-killing `panic!` into a
//! structured [`EngineError`] that fallible APIs (`try_*`) surface to the
//! caller together with everything computed so far.

use std::fmt;
use std::time::Duration;

/// Resource limits for a run, enforced by cheap periodic probes in the
/// [`Manager`](crate::Manager) hot paths.
///
/// The default budget is unlimited: probes reduce to a single boolean test
/// and the engine behaves exactly as before. Each limit is independent and
/// optional.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use aq_dd::RunBudget;
///
/// let budget = RunBudget::unlimited()
///     .with_max_nodes(1_000_000)
///     .with_max_weight_bits(4096)
///     .with_deadline(Duration::from_secs(60));
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum allocated nodes (live + garbage, both arenas together).
    /// Crossing it aborts the in-flight operation; callers can compact
    /// and retry, or give up with the partial result.
    pub max_nodes: Option<usize>,
    /// Maximum distinct interned weights.
    pub max_distinct_weights: Option<usize>,
    /// Maximum coefficient bit-width of any single interned weight — the
    /// GSE blow-up guard (Fig. 5 of the paper). Hardware floats never
    /// trip this (their width is constant).
    pub max_weight_bits: Option<u64>,
    /// Wall-clock limit, measured from [`Manager::set_budget`] (or manager
    /// creation, whichever was later).
    ///
    /// [`Manager::set_budget`]: crate::Manager::set_budget
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// A budget with no limits (the default).
    pub fn unlimited() -> Self {
        RunBudget::default()
    }

    /// Returns `true` if no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none()
            && self.max_distinct_weights.is_none()
            && self.max_weight_bits.is_none()
            && self.deadline.is_none()
    }

    /// Caps allocated nodes.
    pub fn with_max_nodes(mut self, n: usize) -> Self {
        self.max_nodes = Some(n);
        self
    }

    /// Caps distinct interned weights.
    pub fn with_max_distinct_weights(mut self, n: usize) -> Self {
        self.max_distinct_weights = Some(n);
        self
    }

    /// Caps the coefficient bit-width of any interned weight.
    pub fn with_max_weight_bits(mut self, bits: u64) -> Self {
        self.max_weight_bits = Some(bits);
        self
    }

    /// Sets a wall-clock deadline.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }
}

/// Structured failure of a decision-diagram engine operation.
///
/// Returned by the `try_*` APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The node budget of the active [`RunBudget`] was exceeded.
    NodeBudgetExceeded {
        /// Nodes allocated when the probe fired.
        allocated: usize,
        /// The configured limit.
        limit: usize,
    },
    /// The distinct-weight budget was exceeded.
    WeightBudgetExceeded {
        /// Distinct weights interned when the probe fired.
        distinct: usize,
        /// The configured limit.
        limit: usize,
    },
    /// A weight wider than the coefficient bit-width budget was produced.
    WeightBitsExceeded {
        /// Bit-width of the offending weight.
        bits: u64,
        /// The configured limit.
        limit: u64,
    },
    /// The wall-clock deadline passed.
    DeadlineExceeded {
        /// Time elapsed since the budget epoch.
        elapsed: Duration,
        /// The configured deadline.
        limit: Duration,
    },
    /// A node arena outgrew its 32-bit id space (a hard engine limit,
    /// independent of any budget).
    NodeArenaOverflow,
    /// The weight table outgrew its 32-bit id space.
    WeightTableOverflow,
    /// A gate entry is not representable in the manager's weight system.
    UnrepresentableGate {
        /// Display name of the offending gate.
        gate: String,
    },
    /// A measurement collapse needs a renormalization factor `1/√p` that
    /// the weight system cannot represent exactly (exact contexts only;
    /// `p` was not an even power of `√2`).
    UnrepresentableMeasurement {
        /// The measured qubit.
        qubit: u32,
    },
    /// A measurement collapse targeted an outcome of probability zero
    /// (or the state itself was the zero vector).
    ImpossibleMeasurement {
        /// The measured qubit.
        qubit: u32,
    },
    /// A snapshot file could not be read or written.
    SnapshotIo {
        /// The file path involved.
        path: String,
        /// The rendered I/O error.
        detail: String,
    },
    /// A snapshot is structurally damaged: truncated data, a bad magic
    /// number, a checksum mismatch, or a payload that fails to decode.
    SnapshotCorrupt {
        /// Which part of the snapshot failed (`header`, `meta`,
        /// `weights`, …).
        section: String,
        /// What exactly went wrong.
        detail: String,
    },
    /// A snapshot was written by an incompatible format version.
    SnapshotVersionSkew {
        /// The version recorded in the file.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// A snapshot does not belong to the load target: wrong weight
    /// context, wrong context parameters, or wrong circuit.
    SnapshotMismatch {
        /// What the loader required.
        expected: String,
        /// What the snapshot recorded.
        found: String,
    },
    /// An operation combined a manager and a circuit of different widths.
    WidthMismatch {
        /// Qubits of the manager.
        manager: u32,
        /// Qubits of the circuit.
        circuit: u32,
    },
    /// A structural invariant of the decision diagram does not hold
    /// (reported by [`Manager::validate`](crate::Manager::validate) —
    /// either the snapshot encodes a non-canonical diagram or the engine
    /// has a consistency bug).
    InvariantViolation {
        /// Which invariant failed, and where.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NodeBudgetExceeded { allocated, limit } => write!(
                f,
                "node budget exceeded: {allocated} nodes allocated (limit {limit})"
            ),
            EngineError::WeightBudgetExceeded { distinct, limit } => write!(
                f,
                "weight budget exceeded: {distinct} distinct weights (limit {limit})"
            ),
            EngineError::WeightBitsExceeded { bits, limit } => write!(
                f,
                "weight bit-width budget exceeded: {bits} bits (limit {limit})"
            ),
            EngineError::DeadlineExceeded { elapsed, limit } => write!(
                f,
                "deadline exceeded: {:.3}s elapsed (limit {:.3}s)",
                elapsed.as_secs_f64(),
                limit.as_secs_f64()
            ),
            EngineError::NodeArenaOverflow => write!(f, "node arena overflow (u32 id space)"),
            EngineError::WeightTableOverflow => write!(f, "weight table overflow (u32 id space)"),
            EngineError::UnrepresentableGate { gate } => write!(
                f,
                "gate `{gate}` not representable in this weight system; \
                 compile to Clifford+T first"
            ),
            EngineError::UnrepresentableMeasurement { qubit } => write!(
                f,
                "measurement on qubit {qubit}: renormalization factor 1/\u{221a}p \
                 is not representable in this weight system"
            ),
            EngineError::ImpossibleMeasurement { qubit } => write!(
                f,
                "measurement on qubit {qubit}: the requested outcome has probability zero"
            ),
            EngineError::SnapshotIo { path, detail } => {
                write!(f, "snapshot I/O error on `{path}`: {detail}")
            }
            EngineError::SnapshotCorrupt { section, detail } => {
                write!(f, "snapshot corrupt in {section}: {detail}")
            }
            EngineError::SnapshotVersionSkew { found, supported } => write!(
                f,
                "snapshot version skew: file is version {found}, this build supports {supported}"
            ),
            EngineError::SnapshotMismatch { expected, found } => {
                write!(f, "snapshot mismatch: expected {expected}, found {found}")
            }
            EngineError::WidthMismatch { manager, circuit } => write!(
                f,
                "width mismatch: the manager has {manager} qubits, the circuit {circuit}"
            ),
            EngineError::InvariantViolation { detail } => {
                write!(f, "structural invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Returns `true` for errors caused by a configured [`RunBudget`]
    /// (as opposed to hard engine limits or unrepresentable inputs).
    pub fn is_budget(&self) -> bool {
        matches!(
            self,
            EngineError::NodeBudgetExceeded { .. }
                | EngineError::WeightBudgetExceeded { .. }
                | EngineError::WeightBitsExceeded { .. }
                | EngineError::DeadlineExceeded { .. }
        )
    }

    /// Returns `true` for errors raised by the snapshot layer (I/O,
    /// corruption, version skew, or a context/circuit mismatch).
    pub fn is_snapshot(&self) -> bool {
        matches!(
            self,
            EngineError::SnapshotIo { .. }
                | EngineError::SnapshotCorrupt { .. }
                | EngineError::SnapshotVersionSkew { .. }
                | EngineError::SnapshotMismatch { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_by_default() {
        assert!(RunBudget::default().is_unlimited());
        assert!(!RunBudget::unlimited().with_max_nodes(5).is_unlimited());
    }

    #[test]
    fn display_is_informative() {
        let e = EngineError::NodeBudgetExceeded {
            allocated: 10,
            limit: 5,
        };
        assert!(e.to_string().contains("node budget exceeded"));
        assert!(e.is_budget());
        let g = EngineError::UnrepresentableGate { gate: "Rz".into() };
        assert!(g.to_string().contains("not representable"));
        assert!(!g.is_budget());
        assert!(!EngineError::NodeArenaOverflow.is_budget());
    }

    #[test]
    fn snapshot_errors_are_classified() {
        let c = EngineError::SnapshotCorrupt {
            section: "weights".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(c.is_snapshot());
        assert!(!c.is_budget());
        assert!(c.to_string().contains("weights"));
        let v = EngineError::SnapshotVersionSkew {
            found: 9,
            supported: 1,
        };
        assert!(v.is_snapshot());
        assert!(v.to_string().contains("version 9"));
        let i = EngineError::InvariantViolation {
            detail: "vec node 3: child weight not canonical".into(),
        };
        assert!(!i.is_snapshot());
        assert!(i.to_string().contains("invariant"));
    }
}
