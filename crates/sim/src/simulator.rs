//! The circuit simulator: applies operations to a state DD and traces.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use aq_circuits::{Circuit, Op};
use aq_dd::fxhash::FxHashMap;
use aq_dd::{
    Edge, EngineError, EngineStatistics, Manager, MatId, RunBudget, VecId, WeightContext, WeightId,
};
use aq_rings::Complex64;

use crate::trace::{Trace, TracePoint};

/// Tuning knobs for a simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Record a [`TracePoint`] after every operation (otherwise only the
    /// final state is kept).
    pub record_trace: bool,
    /// Compact the manager when its arena exceeds this many nodes.
    pub compact_threshold: usize,
    /// Slot count for the engine's compute caches (`None` = engine
    /// default). Smaller caches trade recomputation for memory; results
    /// are identical either way because the caches are lossy memoisation.
    pub cache_capacity: Option<usize>,
    /// Resource budget installed into the manager (unlimited by default).
    pub budget: RunBudget,
    /// When set, [`Simulator::try_run`] dumps a checkpoint to this path on
    /// a budget abort, so a later process can [`Simulator::resume`] the
    /// run instead of redoing it. [`SimAbort::checkpoint`] records whether
    /// the dump succeeded.
    pub checkpoint_on_abort: Option<PathBuf>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            record_trace: true,
            compact_threshold: 4_000_000,
            cache_capacity: None,
            budget: RunBudget::unlimited(),
            checkpoint_on_abort: None,
        }
    }
}

/// A structured simulation error: which operation failed, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// Index of the circuit operation being applied when the engine
    /// failed (0-based).
    pub op_index: usize,
    /// The underlying engine error.
    pub source: EngineError,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}: {}", self.op_index, self.source)
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// A budget-aborted run: the reason plus everything that *did* happen.
///
/// Returned by [`Simulator::try_run`] so harnesses can report the partial
/// series (the paper's ε = 0 sweeps routinely exhaust memory budgets —
/// fail-soft beats fail-crash there).
#[derive(Debug)]
pub struct SimAbort {
    /// What stopped the run.
    pub error: SimError,
    /// The partial time series up to the abort (with
    /// [`Trace::aborted`] set to the rendered error).
    pub trace: Trace,
    /// Engine counters at the abort point.
    pub statistics: EngineStatistics,
    /// Operations successfully applied before the abort.
    pub gates_applied: usize,
    /// Path of the checkpoint written at the abort, when
    /// [`SimOptions::checkpoint_on_abort`] was set and the dump succeeded.
    pub checkpoint: Option<PathBuf>,
}

impl fmt::Display for SimAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aborted after {} gate(s): {}",
            self.gates_applied, self.error
        )
    }
}

impl std::error::Error for SimAbort {}

/// Result of a completed run.
#[derive(Debug)]
pub struct SimResult {
    /// Amplitudes of the final state (complex doubles).
    pub amplitudes: Vec<Complex64>,
    /// Nodes of the final state DD.
    pub final_nodes: usize,
    /// The time series (empty unless tracing was enabled).
    pub trace: Trace,
    /// Engine counters at the end of the run (cache hit rates, unique
    /// table loads, compactions).
    pub statistics: EngineStatistics,
}

impl SimResult {
    /// Measurement probabilities `|α_i|²`.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amplitudes.iter().map(|a| a.norm_sqr()).collect()
    }
}

/// A stateful simulator over one weight system.
///
/// Operations are translated into decision-diagram operators once and
/// cached; walking the circuit is a sequence of matrix–vector products.
#[derive(Debug)]
pub struct Simulator<'c, W: WeightContext> {
    manager: Manager<W>,
    circuit: &'c Circuit,
    state: Edge<VecId>,
    cursor: usize,
    elapsed: f64,
    gate_cache: FxHashMap<GateKey, Edge<MatId>>,
    options: SimOptions,
}

/// Key of the per-simulator operator cache. The `Arc`-backed op kinds are
/// keyed by pointer identity *and* variant tag: a `MatchingEvolution` and
/// a `Permutation` can share an allocation address (or one can be freed
/// and the other allocated at the same address), so the raw pointer alone
/// would conflate two different operators.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GateKey {
    Gate {
        entries: [WeightId; 4],
        target: u32,
        controls: Vec<(u32, bool)>,
    },
    Matching(usize),    // Arc pointer identity of a MatchingEvolution
    Permutation(usize), // Arc pointer identity of a Permutation
}

impl<'c, W: WeightContext> Simulator<'c, W> {
    /// Creates a simulator for `circuit` starting from `|0…0⟩`.
    pub fn new(ctx: W, circuit: &'c Circuit) -> Self {
        Simulator::with_options(ctx, circuit, SimOptions::default())
    }

    /// Creates a simulator with explicit options.
    ///
    /// The budget is installed *after* the initial `|0…0⟩` state is built,
    /// so its wall-clock epoch starts at the first operation and even a
    /// zero deadline yields a structured abort rather than a panicking
    /// constructor.
    pub fn with_options(ctx: W, circuit: &'c Circuit, options: SimOptions) -> Self {
        let mut manager = match options.cache_capacity {
            Some(c) => Manager::with_cache_capacity(ctx, circuit.n_qubits(), c),
            None => Manager::new(ctx, circuit.n_qubits()),
        };
        // No budget is installed yet and index 0 is in range for every
        // register, so this cannot fail; the fallback is never reached.
        let state = manager.try_basis_state(0).unwrap_or(Edge::ZERO_VEC);
        manager.set_budget(options.budget);
        Simulator {
            manager,
            circuit,
            state,
            cursor: 0,
            elapsed: 0.0,
            gate_cache: FxHashMap::default(),
            options,
        }
    }

    /// Creates a simulator on top of an existing (freshly reset) manager,
    /// for worker sessions that reuse one manager's allocations across
    /// jobs via [`Manager::reset_session`].
    ///
    /// The construction sequence is identical to
    /// [`Simulator::with_options`] — build `|0…0⟩`, then install the
    /// budget — so a run on a reset manager is bit-identical to a cold
    /// one. `options.cache_capacity` is ignored: the manager's caches
    /// already exist with the capacity it was built with.
    ///
    /// # Panics
    ///
    /// Panics if the manager's qubit count differs from the circuit's.
    pub fn with_manager(
        mut manager: Manager<W>,
        circuit: &'c Circuit,
        options: SimOptions,
    ) -> Self {
        assert_eq!(
            manager.n_qubits(),
            circuit.n_qubits(),
            "manager qubit count must match the circuit"
        );
        // As in `with_options`: unbudgeted, index 0 always in range —
        // the zero-state fallback is unreachable.
        let state = manager.try_basis_state(0).unwrap_or(Edge::ZERO_VEC);
        manager.set_budget(options.budget);
        Simulator {
            manager,
            circuit,
            state,
            cursor: 0,
            elapsed: 0.0,
            gate_cache: FxHashMap::default(),
            options,
        }
    }

    /// Consumes the simulator, returning its manager so a session can
    /// park it for the next job.
    pub fn into_manager(self) -> Manager<W> {
        self.manager
    }

    /// Restarts from the basis state `|index⟩`.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed while building the state
    /// (e.g. an already-expired deadline); the previous state stays
    /// current and the cursor does not move.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn try_reset_to(&mut self, index: u64) -> Result<(), EngineError> {
        self.state = self.manager.try_basis_state(index)?;
        self.cursor = 0;
        self.elapsed = 0.0;
        Ok(())
    }

    /// The underlying manager (for extraction helpers).
    pub fn manager(&self) -> &Manager<W> {
        &self.manager
    }

    /// Mutable access to the manager.
    pub fn manager_mut(&mut self) -> &mut Manager<W> {
        &mut self.manager
    }

    /// The current state edge.
    pub fn state(&self) -> Edge<VecId> {
        self.state
    }

    /// Operations applied so far.
    pub fn gates_applied(&self) -> usize {
        self.cursor
    }

    /// Cumulative DD-operation time in seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed
    }

    /// Whether the whole circuit has been applied.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.circuit.len()
    }

    /// Engine counters so far (caches, unique tables, compactions).
    pub fn statistics(&self) -> EngineStatistics {
        self.manager.statistics()
    }

    /// Applies the next operation. Returns `Ok(false)` when the circuit
    /// is exhausted.
    ///
    /// On an error the cursor does not advance and the pre-operation
    /// state stays valid — extraction helpers still work, which is how
    /// [`Simulator::try_run`] assembles its partial result.
    ///
    /// # Errors
    ///
    /// Fails if the operation is not representable in the weight system
    /// or a budget limit is crossed.
    pub fn try_step(&mut self) -> Result<bool, SimError> {
        let Some(op) = self.circuit.ops().get(self.cursor) else {
            return Ok(false);
        };
        let start = Instant::now();
        let result = (|| {
            let gate = self.try_operator_for(op)?;
            self.manager.try_mat_vec(&gate, &self.state)
        })();
        let state = match result {
            Ok(s) => s,
            Err(source) => {
                self.elapsed += start.elapsed().as_secs_f64();
                return Err(SimError {
                    op_index: self.cursor,
                    source,
                });
            }
        };
        self.state = state;
        self.elapsed += start.elapsed().as_secs_f64();
        self.cursor += 1;

        if self.manager.allocated_nodes() > self.options.compact_threshold {
            let t = Instant::now();
            // A failed compaction leaves the manager unchanged, so it is
            // not fatal: keep simulating uncompacted and let the budget
            // fire on the operation that actually exceeds it.
            if let Ok((vs, _)) = self.manager.try_compact(&[self.state], &[]) {
                self.state = vs[0];
                self.gate_cache.clear();
            }
            self.elapsed += t.elapsed().as_secs_f64();
        }
        Ok(true)
    }

    /// Current state DD size.
    pub fn nodes(&self) -> usize {
        self.manager.vec_nodes(&self.state)
    }

    /// Samples a [`TracePoint`] for the current position.
    pub fn sample(&self, error: Option<f64>) -> TracePoint {
        TracePoint {
            gates_applied: self.cursor,
            nodes: self.manager.vec_nodes(&self.state),
            seconds: self.elapsed,
            max_weight_bits: self.manager.max_weight_bits(&self.state),
            error,
        }
    }

    /// Runs the remaining circuit to completion, fail-soft.
    ///
    /// # Errors
    ///
    /// On a budget abort (or an unrepresentable operation) returns a
    /// [`SimAbort`] carrying the structured error **and** the partial
    /// trace and engine statistics up to the failing operation.
    pub fn try_run(&mut self) -> Result<SimResult, Box<SimAbort>> {
        let mut trace = Trace::default();
        loop {
            match self.try_step() {
                Ok(true) => {
                    if self.options.record_trace {
                        trace.points.push(self.sample(None));
                    }
                }
                Ok(false) => break,
                Err(error) => {
                    let statistics = self.manager.statistics();
                    trace.engine = Some(statistics);
                    trace.aborted = Some(error.to_string());
                    // Dump a checkpoint so a later process can resume the
                    // run. A failed dump must not mask the abort itself —
                    // it only leaves `checkpoint` unset.
                    let checkpoint = self.options.checkpoint_on_abort.clone().and_then(|path| {
                        self.checkpoint_with_trace(&path, "try_run-abort", &trace)
                            .ok()
                            .map(|()| path)
                    });
                    return Err(Box::new(SimAbort {
                        error,
                        trace,
                        statistics,
                        gates_applied: self.cursor,
                        checkpoint,
                    }));
                }
            }
        }
        let final_nodes = self.nodes();
        trace.engine = Some(self.manager.statistics());
        Ok(SimResult {
            amplitudes: self.manager.amplitudes(&self.state.clone()),
            final_nodes,
            trace,
            statistics: self.manager.statistics(),
        })
    }

    /// Writes a checkpoint of this simulator to `path`: the full manager
    /// (uncompacted, so a resumed run is bit-identical to an uninterrupted
    /// one), the current state, the cursor, and the accumulated DD time.
    ///
    /// `label` is free-form run identification; resume helpers match on it
    /// via [`peek_checkpoint`](crate::peek_checkpoint).
    ///
    /// # Errors
    ///
    /// [`EngineError::SnapshotIo`] when the file cannot be written.
    pub fn checkpoint(&self, path: impl AsRef<Path>, label: &str) -> Result<(), EngineError> {
        self.checkpoint_with_trace(path, label, &Trace::default())
    }

    /// Like [`Simulator::checkpoint`], additionally persisting a partial
    /// [`Trace`] (points and abort reason) so a resumed run can extend the
    /// recorded series instead of losing the prefix.
    ///
    /// # Errors
    ///
    /// [`EngineError::SnapshotIo`] when the file cannot be written.
    pub fn checkpoint_with_trace(
        &self,
        path: impl AsRef<Path>,
        label: &str,
        trace: &Trace,
    ) -> Result<(), EngineError> {
        let info = crate::checkpoint::CheckpointInfo {
            label: label.to_string(),
            n_qubits: self.circuit.n_qubits(),
            circuit_len: self.circuit.len() as u64,
            circuit_fingerprint: crate::checkpoint::circuit_fingerprint(self.circuit),
            gates_applied: self.cursor as u64,
            elapsed_seconds: self.elapsed,
        };
        let manager_bytes = self.manager.snapshot_to_bytes(&[self.state], &[]);
        let bytes = crate::checkpoint::encode_checkpoint(&info, trace, &manager_bytes);
        let path = path.as_ref();
        std::fs::write(path, bytes).map_err(|e| EngineError::SnapshotIo {
            path: path.display().to_string(),
            detail: e.to_string(),
        })
    }

    /// Reconstructs a simulator from a checkpoint written by
    /// [`Simulator::checkpoint`], positioned at the stored cursor and
    /// ready to continue stepping. Returns the persisted partial
    /// [`Trace`] with its abort reason cleared (the abort is what is
    /// being resumed past).
    ///
    /// The stored manager snapshot is validated on load. The checkpoint's
    /// budget is **not** restored — `options.budget` is installed with a
    /// fresh wall-clock epoch, because a checkpoint typically exists
    /// precisely because the previous budget fired.
    ///
    /// # Errors
    ///
    /// Every snapshot-layer error, plus
    /// [`EngineError::SnapshotMismatch`] when `circuit` or `ctx` differ
    /// from what the checkpoint was taken with, and
    /// [`EngineError::SnapshotCorrupt`] if the stored cursor or state
    /// root is inconsistent.
    pub fn resume(
        ctx: W,
        circuit: &'c Circuit,
        path: impl AsRef<Path>,
        options: SimOptions,
    ) -> Result<(Self, Trace), EngineError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| EngineError::SnapshotIo {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        let (info, mut trace, manager_bytes) = crate::checkpoint::decode_checkpoint(&bytes)?;
        crate::checkpoint::check_circuit_identity(&info, circuit)?;
        if info.gates_applied > info.circuit_len {
            return Err(EngineError::SnapshotCorrupt {
                section: "checkpoint info".into(),
                detail: format!(
                    "cursor {} past the end of the {}-op circuit",
                    info.gates_applied, info.circuit_len
                ),
            });
        }
        let (mut manager, vec_roots, _) = Manager::snapshot_from_bytes(ctx, &manager_bytes)?;
        let &[state] = vec_roots.as_slice() else {
            return Err(EngineError::SnapshotCorrupt {
                section: "checkpoint manager".into(),
                detail: format!("expected 1 state root, found {}", vec_roots.len()),
            });
        };
        manager.set_budget(options.budget);
        trace.aborted = None;
        Ok((
            Simulator {
                manager,
                circuit,
                state,
                cursor: info.gates_applied as usize,
                elapsed: info.elapsed_seconds,
                gate_cache: FxHashMap::default(),
                options,
            },
            trace,
        ))
    }

    /// Builds the unitary of the **entire remaining circuit** as a single
    /// operator DD by matrix–matrix multiplication — the other workhorse
    /// of DD-based design automation (synthesis and equivalence checking
    /// build whole-circuit matrices rather than evolving a state).
    ///
    /// Consumes the successfully applied operations (on an error the
    /// cursor stays at the failing operation).
    ///
    /// # Errors
    ///
    /// Fails if an operation is not representable in the weight system or
    /// a budget limit is crossed.
    pub fn try_build_unitary(&mut self) -> Result<Edge<MatId>, SimError> {
        let mut u = self.manager.try_identity().map_err(|source| SimError {
            op_index: self.cursor,
            source,
        })?;
        while let Some(op) = self.circuit.ops().get(self.cursor) {
            let start = Instant::now();
            let result = (|| {
                let gate = self.try_operator_for(&op.clone())?;
                self.manager.try_mat_mul(&gate, &u)
            })();
            self.elapsed += start.elapsed().as_secs_f64();
            u = result.map_err(|source| SimError {
                op_index: self.cursor,
                source,
            })?;
            self.cursor += 1;
            if self.manager.allocated_nodes() > self.options.compact_threshold {
                let t = Instant::now();
                if let Ok((_, ms)) = self.manager.try_compact(&[], &[u]) {
                    u = ms[0];
                    self.gate_cache.clear();
                }
                self.elapsed += t.elapsed().as_secs_f64();
            }
        }
        Ok(u)
    }

    /// Builds (or fetches) the operator DD for one circuit operation.
    fn try_operator_for(&mut self, op: &Op) -> Result<Edge<MatId>, EngineError> {
        let key = match op {
            Op::Gate {
                matrix,
                target,
                controls,
            } => {
                let mut entries = [WeightId::ZERO; 4];
                for (i, e) in matrix.entries().iter().enumerate() {
                    let v = match e {
                        aq_dd::GateEntry::Exact(d) => self.manager.ctx().from_exact(d),
                        aq_dd::GateEntry::Approx(c) => {
                            self.manager.ctx().from_approx(*c).ok_or_else(|| {
                                EngineError::UnrepresentableGate {
                                    gate: matrix.name().to_string(),
                                }
                            })?
                        }
                    };
                    entries[i] = self.manager.try_intern(v)?;
                }
                GateKey::Gate {
                    entries,
                    target: *target,
                    controls: controls.clone(),
                }
            }
            Op::MatchingEvolution { pairs } => GateKey::Matching(Arc::as_ptr(pairs) as usize),
            Op::Permutation { map } => GateKey::Permutation(Arc::as_ptr(map) as *const () as usize),
            // Uncacheable by construction: the builder rejects these with
            // a structured error (the sampler handles them instead).
            Op::Measure { .. } | Op::Reset { .. } | Op::Conditional { .. } => {
                return crate::operators::try_op_operator(&mut self.manager, op);
            }
        };
        if let Some(&hit) = self.gate_cache.get(&key) {
            return Ok(hit);
        }
        let built = crate::operators::try_op_operator(&mut self.manager, op)?;
        self.gate_cache.insert(key, built);
        Ok(built)
    }
}
