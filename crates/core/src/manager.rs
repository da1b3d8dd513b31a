//! The QMDD manager: arenas, unique tables, interning, construction.

use std::time::Instant;

use crate::cache::{CacheStats, LossyCache};
use crate::edge::{Edge, MatId, MatNode, VecId, VecNode};
use crate::error::{EngineError, RunBudget};
use crate::fxhash::{fx_hash, FxHashMap};
use crate::unique::UniqueTable;
use crate::weight::{WeightContext, WeightId, WeightTable};
use crate::wops::{normalize_ids_trivial, WeightOpCache, OP_ADD, OP_MUL};

/// Default slot count for each compute cache (`2^16` direct-mapped slots).
const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// A point-in-time snapshot of the engine's internal counters.
///
/// Obtained from [`Manager::statistics`]. Cache counters are lifetime
/// totals: they survive [`Manager::clear_caches`] and [`Manager::try_compact`],
/// so differences between snapshots measure the work in between.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineStatistics {
    /// Vector-addition compute cache counters.
    pub add_vec: CacheStats,
    /// Matrix-addition compute cache counters.
    pub add_mat: CacheStats,
    /// Matrix–vector compute cache counters.
    pub mv: CacheStats,
    /// Matrix–matrix compute cache counters.
    pub mm: CacheStats,
    /// Weight-handle operation cache counters (interned `mul`/`add` pairs).
    pub wop: CacheStats,
    /// Weight-handle normalization cache counters (whole-node rows).
    pub wnorm: CacheStats,
    /// Vector nodes currently allocated (live + garbage).
    pub vec_nodes: usize,
    /// Matrix nodes currently allocated (live + garbage).
    pub mat_nodes: usize,
    /// Entries in the vector unique table.
    pub vec_unique_len: usize,
    /// Slot count of the vector unique table.
    pub vec_unique_capacity: usize,
    /// Entries in the matrix unique table.
    pub mat_unique_len: usize,
    /// Slot count of the matrix unique table.
    pub mat_unique_capacity: usize,
    /// Distinct interned weights.
    pub distinct_weights: usize,
    /// Number of [`Manager::try_compact`] runs over this manager's lifetime.
    pub compactions: u64,
}

impl EngineStatistics {
    /// Aggregate hit rate over all four compute caches, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups =
            self.add_vec.lookups + self.add_mat.lookups + self.mv.lookups + self.mm.lookups;
        let hits = self.add_vec.hits + self.add_mat.hits + self.mv.hits + self.mm.hits;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Aggregate hit rate over the weight-handle caches (pair operations
    /// and node normalization), in `[0, 1]`. These hits are ring/complex
    /// operations that were skipped entirely — the lever that closes the
    /// algebraic/numeric throughput gap.
    pub fn weight_cache_hit_rate(&self) -> f64 {
        let lookups = self.wop.lookups + self.wnorm.lookups;
        let hits = self.wop.hits + self.wnorm.hits;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// Adds another snapshot field-wise. Callers aggregating per-job
    /// statistics into a session or service total use this; counters
    /// (including the size/capacity gauges) are summed, matching the
    /// carry-across-compaction semantics of the cache counters.
    pub fn absorb(&mut self, other: &EngineStatistics) {
        for (a, b) in [
            (&mut self.add_vec, &other.add_vec),
            (&mut self.add_mat, &other.add_mat),
            (&mut self.mv, &other.mv),
            (&mut self.mm, &other.mm),
            (&mut self.wop, &other.wop),
            (&mut self.wnorm, &other.wnorm),
        ] {
            a.absorb(b);
        }
        self.vec_nodes += other.vec_nodes;
        self.mat_nodes += other.mat_nodes;
        self.vec_unique_len += other.vec_unique_len;
        self.vec_unique_capacity += other.vec_unique_capacity;
        self.mat_unique_len += other.mat_unique_len;
        self.mat_unique_capacity += other.mat_unique_capacity;
        self.distinct_weights += other.distinct_weights;
        self.compactions += other.compactions;
    }

    /// Load factor of the vector unique table, in `[0, 1)`.
    pub fn vec_unique_load(&self) -> f64 {
        self.vec_unique_len as f64 / self.vec_unique_capacity.max(1) as f64
    }

    /// Load factor of the matrix unique table, in `[0, 1)`.
    pub fn mat_unique_load(&self) -> f64 {
        self.mat_unique_len as f64 / self.mat_unique_capacity.max(1) as f64
    }
}

/// A QMDD manager for a fixed number of qubits over one weight system.
///
/// Owns the node arenas, the unique tables (hash-consing: structurally
/// equal nodes are shared), the interned weight table and the compute
/// caches. All decision diagrams live inside a manager and are referenced
/// by [`Edge`]s.
///
/// Because every node is normalized on construction ([Sec. II-B] of the
/// paper), QMDDs are **canonical**: two edges are equal iff they represent
/// the same matrix/vector — equivalence checking is `O(1)` root comparison.
///
/// # Fail-soft operation
///
/// A [`RunBudget`] installed with [`Manager::set_budget`] caps allocated
/// nodes, distinct weights, coefficient bit-width and wall-clock time.
/// Every building operation is fallible (`try_*`, e.g.
/// [`Manager::try_mat_vec`](Self::try_mat_vec)): a crossed limit returns a
/// structured [`EngineError`] and leaves the manager in a consistent state
/// (all previously built DDs remain valid).
///
/// # Examples
///
/// ```
/// use aq_dd::{GateMatrix, Manager, NumericContext};
///
/// let mut m = Manager::new(NumericContext::new(), 2);
/// let state = m.try_basis_state(0b00)?;
/// let h0 = m.try_gate(&GateMatrix::h(), 0, &[])?;
/// let cx = m.try_gate(&GateMatrix::x(), 1, &[(0, true)])?;
/// let bell = {
///     let s = m.try_mat_vec(&h0, &state)?;
///     m.try_mat_vec(&cx, &s)?
/// };
/// let amps = m.amplitudes(&bell);
/// assert!((amps[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
/// assert!((amps[3].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
/// assert!(amps[1].abs() < 1e-12 && amps[2].abs() < 1e-12);
/// # Ok::<(), aq_dd::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Manager<W: WeightContext> {
    pub(crate) ctx: W,
    pub(crate) n_qubits: u32,
    pub(crate) table: W::Table,
    pub(crate) vec_nodes: Vec<VecNode>,
    pub(crate) mat_nodes: Vec<MatNode>,
    pub(crate) vec_unique: UniqueTable,
    pub(crate) mat_unique: UniqueTable,
    pub(crate) add_vec_cache: LossyCache<(Edge<VecId>, Edge<VecId>), Edge<VecId>>,
    pub(crate) add_mat_cache: LossyCache<(Edge<MatId>, Edge<MatId>), Edge<MatId>>,
    pub(crate) mv_cache: LossyCache<(MatId, VecId), Edge<VecId>>,
    pub(crate) mm_cache: LossyCache<(MatId, MatId), Edge<MatId>>,
    /// Handle-level caches for weight pair ops and node normalization.
    pub(crate) wops: WeightOpCache,
    pub(crate) cache_capacity: usize,
    pub(crate) compactions: u64,
    /// Active resource budget (unlimited by default). `budget_active`
    /// caches `!budget.is_unlimited()` so the hot-path probe is one
    /// branch when no budget is set.
    budget: RunBudget,
    budget_active: bool,
    /// Epoch for the wall-clock deadline.
    budget_epoch: Instant,
    /// Probe counter: the deadline (which needs an `Instant::now` syscall)
    /// is only checked every [`DEADLINE_PROBE_PERIOD`]th probe.
    probe_tick: u32,
}

/// How many budget probes elapse between wall-clock checks (the other
/// limits are plain integer comparisons and are checked on every probe).
const DEADLINE_PROBE_PERIOD: u32 = 64;

/// Remapped root edges returned by [`Manager::try_compact`]: the vector roots
/// and matrix roots, in input order.
pub type CompactedRoots = (Vec<Edge<VecId>>, Vec<Edge<MatId>>);

impl<W: WeightContext> Manager<W> {
    /// Creates an empty manager for `n_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn new(ctx: W, n_qubits: u32) -> Self {
        Manager::with_cache_capacity(ctx, n_qubits, DEFAULT_CACHE_CAPACITY)
    }

    /// Creates a manager whose four compute caches each have
    /// `cache_capacity` direct-mapped slots (rounded up to a power of two).
    ///
    /// Smaller caches trade recomputation for memory; results are identical
    /// either way because the caches are lossy memoisation, not state.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn with_cache_capacity(ctx: W, n_qubits: u32, cache_capacity: usize) -> Self {
        assert!(n_qubits > 0, "need at least one qubit");
        let table = ctx.new_table();
        Manager {
            ctx,
            n_qubits,
            table,
            vec_nodes: Vec::new(),
            mat_nodes: Vec::new(),
            vec_unique: UniqueTable::new(),
            mat_unique: UniqueTable::new(),
            add_vec_cache: LossyCache::new(cache_capacity),
            add_mat_cache: LossyCache::new(cache_capacity),
            mv_cache: LossyCache::new(cache_capacity),
            mm_cache: LossyCache::new(cache_capacity),
            wops: WeightOpCache::new(cache_capacity),
            cache_capacity,
            compactions: 0,
            budget: RunBudget::default(),
            budget_active: false,
            budget_epoch: Instant::now(),
            probe_tick: 0,
        }
    }

    /// Installs a resource budget and resets its wall-clock epoch.
    ///
    /// Subsequent `try_*` operations fail with a structured
    /// [`EngineError`] when a limit is crossed. Install
    /// [`RunBudget::unlimited`] to remove limits.
    pub fn set_budget(&mut self, budget: RunBudget) {
        self.budget_active = !budget.is_unlimited();
        self.budget = budget;
        self.budget_epoch = Instant::now();
        self.probe_tick = 0;
    }

    /// The active resource budget.
    pub fn budget(&self) -> RunBudget {
        self.budget
    }

    /// One cheap budget probe: integer comparisons on every call, a
    /// wall-clock read every [`DEADLINE_PROBE_PERIOD`]th call. Free (one
    /// predictable branch) when no budget is installed.
    #[inline]
    pub(crate) fn budget_probe(&mut self) -> Result<(), EngineError> {
        if !self.budget_active {
            return Ok(());
        }
        self.budget_probe_cold()
    }

    #[cold]
    fn budget_probe_cold(&mut self) -> Result<(), EngineError> {
        if let Some(limit) = self.budget.max_nodes {
            let allocated = self.vec_nodes.len() + self.mat_nodes.len();
            if allocated > limit {
                return Err(EngineError::NodeBudgetExceeded { allocated, limit });
            }
        }
        if let Some(limit) = self.budget.max_distinct_weights {
            let distinct = self.table.len();
            if distinct > limit {
                return Err(EngineError::WeightBudgetExceeded { distinct, limit });
            }
        }
        if let Some(limit) = self.budget.deadline {
            // the first probe after `set_budget` checks immediately, so
            // already-expired deadlines fail fast in tests and harnesses
            if self.probe_tick.is_multiple_of(DEADLINE_PROBE_PERIOD) {
                let elapsed = self.budget_epoch.elapsed();
                if elapsed > limit {
                    return Err(EngineError::DeadlineExceeded { elapsed, limit });
                }
            }
            self.probe_tick = self.probe_tick.wrapping_add(1);
        }
        Ok(())
    }

    /// A snapshot of the engine's counters: per-cache hits/misses/evictions,
    /// unique-table load, weight-table size and compaction count.
    pub fn statistics(&self) -> EngineStatistics {
        EngineStatistics {
            add_vec: self.add_vec_cache.stats(),
            add_mat: self.add_mat_cache.stats(),
            mv: self.mv_cache.stats(),
            mm: self.mm_cache.stats(),
            wop: self.wops.pair_stats(),
            wnorm: self.wops.norm_stats(),
            vec_nodes: self.vec_nodes.len(),
            mat_nodes: self.mat_nodes.len(),
            vec_unique_len: self.vec_unique.len(),
            vec_unique_capacity: self.vec_unique.capacity(),
            mat_unique_len: self.mat_unique.len(),
            mat_unique_capacity: self.mat_unique.capacity(),
            distinct_weights: self.table.len(),
            compactions: self.compactions,
        }
    }

    /// Resets the manager to the pristine state of `Manager::new(ctx,
    /// n_qubits)` while keeping its grown allocations: node arenas,
    /// unique-table slot arrays and compute-cache slots survive with their
    /// capacity intact but no contents. A long-lived worker session calls
    /// this between jobs so the next job skips the allocation and
    /// unique-table growth-rehash cost of a cold manager.
    ///
    /// The weight table is replaced wholesale (`ctx.new_table()`): numeric
    /// ε-interning is path-dependent on table contents, so carrying
    /// interned weights across jobs would make results depend on job
    /// order. After a reset, every result this manager produces is
    /// bit-identical to a cold manager's — only capacity-style statistics
    /// (`*_unique_capacity`) can differ.
    ///
    /// All counters restart at zero and the budget reverts to unlimited,
    /// so per-job [`Manager::statistics`] snapshots stay pure; callers
    /// wanting session-lifetime totals should take a snapshot before the
    /// reset and fold it with [`EngineStatistics::absorb`].
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn reset_session(&mut self, ctx: W, n_qubits: u32) {
        assert!(n_qubits > 0, "need at least one qubit");
        self.table = ctx.new_table();
        self.ctx = ctx;
        self.n_qubits = n_qubits;
        self.vec_nodes.clear();
        self.mat_nodes.clear();
        self.vec_unique.reset_in_place();
        self.mat_unique.reset_in_place();
        self.add_vec_cache.reset();
        self.add_mat_cache.reset();
        self.mv_cache.reset();
        self.mm_cache.reset();
        self.wops.reset();
        self.compactions = 0;
        self.budget = RunBudget::default();
        self.budget_active = false;
        self.budget_epoch = Instant::now();
        self.probe_tick = 0;
    }

    /// Like [`Manager::reset_session`], but first runs the full structural
    /// invariant checker ([`Manager::validate`]) over the *retained* state
    /// from the previous job. A session reusing a warm manager after a
    /// budget abort (or any other suspect exit) calls this so a
    /// partially-applied gate, a dangling weight id or a de-normalized node
    /// cannot leak into the next job: if the old state fails validation the
    /// manager is left untouched and the caller must rebuild cold.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvariantViolation`] from the pre-reset validation;
    /// on error no reset has happened.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is zero.
    pub fn validated_reset_session(&mut self, ctx: W, n_qubits: u32) -> Result<(), EngineError> {
        self.validate()?;
        self.reset_session(ctx, n_qubits);
        Ok(())
    }

    /// Memory retained across a session reset, in arena/table slots: node
    /// arena capacities plus unique-table slot counts. Sessions compare
    /// this against a retention budget to decide between resetting in
    /// place (keep the warm allocations) and dropping the manager (give
    /// the memory back after an unusually large job).
    pub fn retained_capacity(&self) -> usize {
        self.vec_nodes.capacity()
            + self.mat_nodes.capacity()
            + self.vec_unique.capacity()
            + self.mat_unique.capacity()
    }

    /// The number of qubits.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// The weight context.
    pub fn ctx(&self) -> &W {
        &self.ctx
    }

    /// Number of distinct weights currently interned.
    pub fn distinct_weights(&self) -> usize {
        self.table.len()
    }

    /// Looks up an interned weight value.
    pub fn weight(&self, id: WeightId) -> &W::Value {
        self.table.get(id)
    }

    /// Interns a weight value, collapsing ε-zeros to the canonical zero id.
    ///
    /// # Errors
    ///
    /// Fails on weight-table overflow, or when the value's coefficient
    /// bit-width exceeds the budget's `max_weight_bits`.
    pub fn try_intern(&mut self, v: W::Value) -> Result<WeightId, EngineError> {
        if self.ctx.is_zero(&v) {
            return Ok(WeightId::ZERO);
        }
        if let Some(limit) = self.budget.max_weight_bits {
            let bits = self.ctx.value_bits(&v);
            if bits > limit {
                return Err(EngineError::WeightBitsExceeded { bits, limit });
            }
        }
        self.table.try_intern(v)
    }

    /// Interned product of two weights.
    pub(crate) fn try_w_mul(&mut self, a: WeightId, b: WeightId) -> Result<WeightId, EngineError> {
        if a == WeightId::ZERO || b == WeightId::ZERO {
            return Ok(WeightId::ZERO);
        }
        if a == WeightId::ONE {
            return Ok(b);
        }
        if b == WeightId::ONE {
            return Ok(a);
        }
        if let Some(r) = self.wops.get_pair(OP_MUL, a, b) {
            return Ok(r);
        }
        let v = self.ctx.mul(self.table.get(a), self.table.get(b));
        let r = self.try_intern(v)?;
        self.wops.put_pair(OP_MUL, a, b, r);
        Ok(r)
    }

    /// Interned sum of two weights.
    pub(crate) fn try_w_add(&mut self, a: WeightId, b: WeightId) -> Result<WeightId, EngineError> {
        if a == WeightId::ZERO {
            return Ok(b);
        }
        if b == WeightId::ZERO {
            return Ok(a);
        }
        if let Some(r) = self.wops.get_pair(OP_ADD, a, b) {
            return Ok(r);
        }
        let v = self.ctx.add(self.table.get(a), self.table.get(b));
        let r = self.try_intern(v)?;
        self.wops.put_pair(OP_ADD, a, b, r);
        Ok(r)
    }

    /// Normalizes a 2-weight row entirely at the handle level: trivial rows
    /// (all non-zero entries sharing one id) resolve without touching the
    /// weight table, everything else goes through the normalization cache
    /// with the value-level [`WeightContext::normalize`] as the miss path.
    ///
    /// Returns `(normalized ids, η)`; η is [`WeightId::ZERO`] exactly for
    /// the all-zero row.
    fn try_normalize_weights2(
        &mut self,
        key: [WeightId; 2],
    ) -> Result<([WeightId; 2], WeightId), EngineError> {
        if let Some(hit) = normalize_ids_trivial(&key) {
            return Ok(hit);
        }
        if let Some(hit) = self.wops.get_norm2(&key) {
            return Ok(hit);
        }
        let mut vals = [
            self.table.get(key[0]).clone(),
            self.table.get(key[1]).clone(),
        ];
        let Some(eta) = self.ctx.normalize(&mut vals) else {
            return Ok(([WeightId::ZERO; 2], WeightId::ZERO));
        };
        let [v0, v1] = vals;
        let ws = [self.try_intern(v0)?, self.try_intern(v1)?];
        let eta = self.try_intern(eta)?;
        self.wops.put_norm2(key, (ws, eta));
        Ok((ws, eta))
    }

    /// 4-weight (matrix-row) analogue of
    /// [`Manager::try_normalize_weights2`].
    fn try_normalize_weights4(
        &mut self,
        key: [WeightId; 4],
    ) -> Result<([WeightId; 4], WeightId), EngineError> {
        if let Some(hit) = normalize_ids_trivial(&key) {
            return Ok(hit);
        }
        if let Some(hit) = self.wops.get_norm4(&key) {
            return Ok(hit);
        }
        let mut vals = [
            self.table.get(key[0]).clone(),
            self.table.get(key[1]).clone(),
            self.table.get(key[2]).clone(),
            self.table.get(key[3]).clone(),
        ];
        let Some(eta) = self.ctx.normalize(&mut vals) else {
            return Ok(([WeightId::ZERO; 4], WeightId::ZERO));
        };
        let [v0, v1, v2, v3] = vals;
        let ws = [
            self.try_intern(v0)?,
            self.try_intern(v1)?,
            self.try_intern(v2)?,
            self.try_intern(v3)?,
        ];
        let eta = self.try_intern(eta)?;
        self.wops.put_norm4(key, (ws, eta));
        Ok((ws, eta))
    }

    /// Creates (or finds) a normalized vector node and returns the edge to
    /// it carrying the extracted normalization factor.
    pub(crate) fn try_make_vec_node(
        &mut self,
        var: u32,
        children: [Edge<VecId>; 2],
    ) -> Result<Edge<VecId>, EngineError> {
        self.budget_probe()?;
        let (ws, eta) = self.try_normalize_weights2([children[0].w, children[1].w])?;
        if eta == WeightId::ZERO {
            return Ok(Edge::ZERO_VEC);
        }
        let e0 = Self::vec_edge(ws[0], children[0].n);
        let e1 = Self::vec_edge(ws[1], children[1].n);
        let node = VecNode {
            var,
            children: [e0, e1],
        };
        // the node hash is computed exactly once here; table growth reuses it
        let hash = fx_hash(&node);
        let nodes = &self.vec_nodes;
        let id = match self.vec_unique.find(hash, |i| nodes[i as usize] == node) {
            Some(id) => VecId(id),
            None => {
                let id = u32::try_from(self.vec_nodes.len())
                    .map_err(|_| EngineError::NodeArenaOverflow)?;
                self.vec_nodes.push(node);
                self.vec_unique.insert(hash, id);
                VecId(id)
            }
        };
        Ok(Edge { w: eta, n: id })
    }

    #[inline]
    fn vec_edge(w: WeightId, n: VecId) -> Edge<VecId> {
        if w == WeightId::ZERO {
            Edge::ZERO_VEC
        } else {
            Edge { w, n }
        }
    }

    /// Creates (or finds) a normalized matrix node.
    pub(crate) fn try_make_mat_node(
        &mut self,
        var: u32,
        children: [Edge<MatId>; 4],
    ) -> Result<Edge<MatId>, EngineError> {
        self.budget_probe()?;
        let (ws, eta) = self.try_normalize_weights4([
            children[0].w,
            children[1].w,
            children[2].w,
            children[3].w,
        ])?;
        if eta == WeightId::ZERO {
            return Ok(Edge::ZERO_MAT);
        }
        let mut edges = [Edge::ZERO_MAT; 4];
        for (i, &w) in ws.iter().enumerate() {
            if w != WeightId::ZERO {
                edges[i] = Edge {
                    w,
                    n: children[i].n,
                };
            }
        }
        let node = MatNode {
            var,
            children: edges,
        };
        let hash = fx_hash(&node);
        let nodes = &self.mat_nodes;
        let id = match self.mat_unique.find(hash, |i| nodes[i as usize] == node) {
            Some(id) => MatId(id),
            None => {
                let id = u32::try_from(self.mat_nodes.len())
                    .map_err(|_| EngineError::NodeArenaOverflow)?;
                self.mat_nodes.push(node);
                self.mat_unique.insert(hash, id);
                MatId(id)
            }
        };
        Ok(Edge { w: eta, n: id })
    }

    /// Extracts bit `n_qubits − 1 − var` of `index`, treating bit positions
    /// at and above 64 as zero — registers wider than 64 qubits address
    /// only the low 2⁶⁴ computational basis states, but must not overflow
    /// the shift (a debug panic / masked wrap in release builds).
    #[inline]
    fn index_bit(&self, index: u64, var: u32) -> u64 {
        let shift = self.n_qubits - 1 - var;
        if shift >= u64::BITS {
            0
        } else {
            (index >> shift) & 1
        }
    }

    /// The computational basis state `|index⟩` (qubit 0 is the most
    /// significant bit, matching the variable order).
    ///
    /// For registers wider than 64 qubits, the high qubits (which a `u64`
    /// index cannot address) are `|0⟩`.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_basis_state(&mut self, index: u64) -> Result<Edge<VecId>, EngineError> {
        assert!(
            self.n_qubits >= 64 || index < 1u64 << self.n_qubits,
            "basis state index out of range"
        );
        let mut e = Edge {
            w: WeightId::ONE,
            n: VecId::TERMINAL,
        };
        for var in (0..self.n_qubits).rev() {
            let bit = self.index_bit(index, var);
            let children = if bit == 0 {
                [e, Edge::ZERO_VEC]
            } else {
                [Edge::ZERO_VEC, e]
            };
            e = self.try_make_vec_node(var, children)?;
        }
        Ok(e)
    }

    /// The matrix DD with a single `1` entry at `(row, col)` — the outer
    /// product `|row⟩⟨col|`. Building-block for sparse operators such as
    /// the quantum-walk factors.
    ///
    /// For registers wider than 64 qubits, the high qubits take the
    /// `(0, 0)` block (a `u64` cannot address them).
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_unit_matrix(&mut self, row: u64, col: u64) -> Result<Edge<MatId>, EngineError> {
        let n = self.n_qubits;
        assert!(
            n >= 64 || (row < 1u64 << n && col < 1u64 << n),
            "unit matrix index out of range"
        );
        let mut e = Edge {
            w: WeightId::ONE,
            n: MatId::TERMINAL,
        };
        for var in (0..n).rev() {
            let r = self.index_bit(row, var) as usize;
            let c = self.index_bit(col, var) as usize;
            let mut children = [Edge::ZERO_MAT; 4];
            children[2 * r + c] = e;
            e = self.try_make_mat_node(var, children)?;
        }
        Ok(e)
    }

    /// The identity operator on all qubits.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_identity(&mut self) -> Result<Edge<MatId>, EngineError> {
        let mut e = Edge {
            w: WeightId::ONE,
            n: MatId::TERMINAL,
        };
        for var in (0..self.n_qubits).rev() {
            e = self.try_make_mat_node(var, [e, Edge::ZERO_MAT, Edge::ZERO_MAT, e])?;
        }
        Ok(e)
    }

    /// Total nodes currently allocated (live + garbage); used to trigger
    /// [`Manager::try_compact`].
    pub fn allocated_nodes(&self) -> usize {
        self.vec_nodes.len() + self.mat_nodes.len()
    }

    /// Clears all compute caches (unique tables and nodes are kept;
    /// lifetime counters are preserved, with the dropped entries recorded
    /// in [`CacheStats::cleared`]).
    pub fn clear_caches(&mut self) {
        self.add_vec_cache.clear();
        self.add_mat_cache.clear();
        self.mv_cache.clear();
        self.mm_cache.clear();
        self.wops.clear();
    }

    /// Rebuilds the manager keeping only the DDs reachable from the given
    /// roots, returning the remapped roots in order (vector roots first).
    ///
    /// This is the package's garbage collection: simulations create large
    /// amounts of dead nodes and weights; compaction copies the live
    /// structure into fresh arenas and drops everything else (including
    /// all compute caches).
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed mid-copy (e.g. the live
    /// structure alone exceeds `max_nodes`, or the deadline passes). On
    /// failure the manager is left **unchanged** — the original roots stay
    /// valid, so callers can still extract partial results.
    pub fn try_compact(
        &mut self,
        vec_roots: &[Edge<VecId>],
        mat_roots: &[Edge<MatId>],
    ) -> Result<CompactedRoots, EngineError> {
        // Count the live cache entries as cleared *before* their stats are
        // carried over, so the documented accounting identity holds across
        // compactions too.
        self.clear_caches();
        let mut fresh =
            Manager::with_cache_capacity(self.ctx.clone(), self.n_qubits, self.cache_capacity);
        // lifetime counters and the budget survive compaction so they
        // measure/limit whole runs
        fresh.compactions = self.compactions + 1;
        fresh.budget = self.budget;
        fresh.budget_active = self.budget_active;
        fresh.budget_epoch = self.budget_epoch;
        fresh.probe_tick = self.probe_tick;
        fresh
            .add_vec_cache
            .absorb_stats(&self.add_vec_cache.stats());
        fresh
            .add_mat_cache
            .absorb_stats(&self.add_mat_cache.stats());
        fresh.mv_cache.absorb_stats(&self.mv_cache.stats());
        fresh.mm_cache.absorb_stats(&self.mm_cache.stats());
        fresh
            .wops
            .absorb_stats(&self.wops.pair_stats(), &self.wops.norm_stats());
        // Copy into `fresh` while `self` stays intact; only swap on
        // success so a mid-copy abort cannot lose the caller's roots.
        let mut vec_map: FxHashMap<VecId, VecId> = FxHashMap::default();
        let mut mat_map: FxHashMap<MatId, MatId> = FxHashMap::default();
        let mut new_vecs = Vec::with_capacity(vec_roots.len());
        for e in vec_roots {
            let n = copy_vec(self, &mut fresh, e.n, &mut vec_map)?;
            let w = fresh.try_intern(self.table.get(e.w).clone())?;
            new_vecs.push(Edge { w, n });
        }
        let mut new_mats = Vec::with_capacity(mat_roots.len());
        for e in mat_roots {
            let n = copy_mat(self, &mut fresh, e.n, &mut mat_map)?;
            let w = fresh.try_intern(self.table.get(e.w).clone())?;
            new_mats.push(Edge { w, n });
        }
        *self = fresh;
        #[cfg(feature = "validate-invariants")]
        self.validate()
            // aq-lint: allow(R1): opt-in debug feature whose whole point is to fail loudly
            .expect("compaction must preserve the structural invariants");
        Ok((new_vecs, new_mats))
    }
}

fn copy_vec<W: WeightContext>(
    old: &Manager<W>,
    new: &mut Manager<W>,
    id: VecId,
    map: &mut FxHashMap<VecId, VecId>,
) -> Result<VecId, EngineError> {
    if id.is_terminal() {
        return Ok(VecId::TERMINAL);
    }
    if let Some(&m) = map.get(&id) {
        return Ok(m);
    }
    let node = old.vec_nodes[id.0 as usize];
    let mut children = [Edge::ZERO_VEC; 2];
    for (i, c) in node.children.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        let n = copy_vec(old, new, c.n, map)?;
        let w = new.try_intern(old.table.get(c.w).clone())?;
        children[i] = Edge { w, n };
    }
    // Children were already normalized, so re-making the node extracts a
    // factor of exactly 1 and reuses the same structure.
    let e = new.try_make_vec_node(node.var, children)?;
    debug_assert_eq!(
        e.w,
        WeightId::ONE,
        "copy of a normalized node must not rescale"
    );
    map.insert(id, e.n);
    Ok(e.n)
}

fn copy_mat<W: WeightContext>(
    old: &Manager<W>,
    new: &mut Manager<W>,
    id: MatId,
    map: &mut FxHashMap<MatId, MatId>,
) -> Result<MatId, EngineError> {
    if id.is_terminal() {
        return Ok(MatId::TERMINAL);
    }
    if let Some(&m) = map.get(&id) {
        return Ok(m);
    }
    let node = old.mat_nodes[id.0 as usize];
    let mut children = [Edge::ZERO_MAT; 4];
    for (i, c) in node.children.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        let n = copy_mat(old, new, c.n, map)?;
        let w = new.try_intern(old.table.get(c.w).clone())?;
        children[i] = Edge { w, n };
    }
    let e = new.try_make_mat_node(node.var, children)?;
    debug_assert_eq!(
        e.w,
        WeightId::ONE,
        "copy of a normalized node must not rescale"
    );
    map.insert(id, e.n);
    Ok(e.n)
}
