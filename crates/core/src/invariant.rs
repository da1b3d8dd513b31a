//! Structural invariant checker for a [`Manager`].
//!
//! The paper's whole argument rests on canonicity of the shared
//! representation: equal matrices/vectors *must* map to the same node, or
//! equivalence checking and hash-consing silently break. This module
//! checks the invariants that canonicity rests on, mechanically:
//!
//! 1. **Weight-table integrity** — the mandatory `0`/`1` constants are in
//!    place and re-interning every stored value in order reproduces its own
//!    id, which structurally rules out duplicate interned weights (two
//!    ε-close values cannot coexist: the second would have merged into the
//!    first).
//! 2. **Unique-table ↔ arena consistency** — entry counts match, every
//!    slot points into the arena with the node's true hash, and every node
//!    is findable under its own id.
//! 3. **Node canonicity** — child weights are in the canonical normalized
//!    form of the active scheme ([`WeightContext::is_normalized`]), zero
//!    weights only appear on the canonical zero edge, no node is all-zero,
//!    and levels are quasi-reduced (children sit exactly one variable
//!    deeper; terminals only below the last variable).
//!
//! [`Manager::validate`] runs on every snapshot load; under the
//! `validate-invariants` feature it also runs after every compaction and
//! sweep stage. A violation is reported as
//! [`EngineError::InvariantViolation`] — if it ever fires outside a
//! hand-corrupted test, it is an engine bug, not a user error.

use crate::edge::{Edge, MatId, VecId};
use crate::error::EngineError;
use crate::fxhash::fx_hash;
use crate::manager::Manager;
use crate::unique::UniqueTable;
use crate::weight::{WeightContext, WeightId, WeightTable};

fn violation(detail: String) -> EngineError {
    EngineError::InvariantViolation { detail }
}

impl<W: WeightContext> Manager<W> {
    /// Checks every structural invariant of this manager (see the module
    /// docs for the list). Runs in `O(nodes + weights)` with small
    /// constants; heavy enough for a debug feature, cheap enough to run on
    /// every snapshot load.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvariantViolation`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), EngineError> {
        self.validate_weight_table()?;
        self.validate_vec_arena()?;
        self.validate_mat_arena()?;
        Ok(())
    }

    fn validate_weight_table(&self) -> Result<(), EngineError> {
        let n = self.table.len();
        if n < 2 {
            return Err(violation(format!(
                "weight table has {n} entries; the 0/1 constants are mandatory"
            )));
        }
        if !self.ctx.is_zero(self.table.get(WeightId::ZERO)) {
            return Err(violation("weight id 0 does not hold zero".into()));
        }
        let one = self.table.get(WeightId::ONE);
        let diff = self.ctx.add(one, &self.ctx.neg(&self.ctx.one()));
        if !self.ctx.is_zero(&diff) {
            return Err(violation("weight id 1 does not hold one".into()));
        }
        // Re-intern every value in its original order into a fresh table:
        // each must land on its own index, otherwise two stored weights are
        // duplicates (equal, or ε-close for the numeric context). Each value
        // must also be in its number system's canonical representation —
        // with lazy GCD normalization, this proves no pending state (an
        // unreduced √2 exponent, non-canonical coefficients) escaped the
        // normalization pipeline into the weight table.
        let mut fresh = self.ctx.new_table();
        for i in 0..n {
            let v = self.table.get(WeightId(i as u32));
            if !self.ctx.is_canonical_value(v) {
                return Err(violation(format!(
                    "weight {i} is not in canonical reduced form: {v:?}"
                )));
            }
            let id = fresh
                .try_intern(v.clone())
                .map_err(|e| violation(format!("weight {i} cannot be re-interned: {e}")))?;
            if id.index() != i {
                return Err(violation(format!(
                    "weight {i} re-interns to id {} — duplicate interned weights",
                    id.index()
                )));
            }
        }
        Ok(())
    }

    fn validate_vec_arena(&self) -> Result<(), EngineError> {
        let nodes = &self.vec_nodes;
        validate_unique_table(&self.vec_unique, nodes.len(), "vec")?;
        for (i, node) in nodes.iter().enumerate() {
            let at = |d: String| violation(format!("vec node {i}: {d}"));
            if node.var >= self.n_qubits {
                return Err(at(format!(
                    "variable {} out of range (n_qubits {})",
                    node.var, self.n_qubits
                )));
            }
            let mut vals = Vec::with_capacity(2);
            for (c, child) in node.children.iter().enumerate() {
                self.check_vec_edge(child, node.var, false)
                    .map_err(|d| at(format!("child {c}: {d}")))?;
                vals.push(self.table.get(child.w).clone());
            }
            if node.children.iter().all(Edge::is_zero) {
                return Err(at("all children zero — the node should not exist".into()));
            }
            if !self.ctx.is_normalized(&vals) {
                return Err(at(format!(
                    "child weights not in canonical normalized form: {vals:?}"
                )));
            }
            let hash = fx_hash(node);
            let found = self.vec_unique.find(hash, |id| {
                (id as usize) < nodes.len() && nodes[id as usize] == *node
            });
            if found != Some(i as u32) {
                return Err(at(format!(
                    "unique-table lookup resolves to {found:?} instead of the node's own id"
                )));
            }
        }
        Ok(())
    }

    fn validate_mat_arena(&self) -> Result<(), EngineError> {
        let nodes = &self.mat_nodes;
        validate_unique_table(&self.mat_unique, nodes.len(), "mat")?;
        for (i, node) in nodes.iter().enumerate() {
            let at = |d: String| violation(format!("mat node {i}: {d}"));
            if node.var >= self.n_qubits {
                return Err(at(format!(
                    "variable {} out of range (n_qubits {})",
                    node.var, self.n_qubits
                )));
            }
            let mut vals = Vec::with_capacity(4);
            for (c, child) in node.children.iter().enumerate() {
                self.check_mat_edge(child, node.var, false)
                    .map_err(|d| at(format!("child {c}: {d}")))?;
                vals.push(self.table.get(child.w).clone());
            }
            if node.children.iter().all(Edge::is_zero) {
                return Err(at("all children zero — the node should not exist".into()));
            }
            if !self.ctx.is_normalized(&vals) {
                return Err(at(format!(
                    "child weights not in canonical normalized form: {vals:?}"
                )));
            }
            let hash = fx_hash(node);
            let found = self.mat_unique.find(hash, |id| {
                (id as usize) < nodes.len() && nodes[id as usize] == *node
            });
            if found != Some(i as u32) {
                return Err(at(format!(
                    "unique-table lookup resolves to {found:?} instead of the node's own id"
                )));
            }
        }
        Ok(())
    }

    /// Checks one vector edge: weight id in range, zero weights only on
    /// the canonical zero edge, quasi-reduced level structure. `parent_var`
    /// is the level of the node the edge leaves from; root edges pass
    /// `is_root = true` and must point at level 0.
    fn check_vec_edge(
        &self,
        e: &Edge<VecId>,
        parent_var: u32,
        is_root: bool,
    ) -> Result<(), String> {
        if e.w.index() >= self.table.len() {
            return Err(format!("weight id {} out of range", e.w.index()));
        }
        if e.w == WeightId::ZERO {
            if !e.n.is_terminal() {
                return Err("zero weight on a non-terminal edge (not the canonical zero)".into());
            }
            return Ok(());
        }
        if self.ctx.is_zero(self.table.get(e.w)) {
            return Err(format!(
                "nonzero weight id {} holds an ε-zero value",
                e.w.index()
            ));
        }
        let expected_var = if is_root { 0 } else { parent_var + 1 };
        if e.n.is_terminal() {
            if expected_var != self.n_qubits {
                return Err(format!(
                    "terminal child above the last level (expected variable {expected_var})"
                ));
            }
        } else {
            let idx = e.n.0 as usize;
            if idx >= self.vec_nodes.len() {
                return Err(format!("node id {idx} out of range"));
            }
            let var = self.vec_nodes[idx].var;
            if var != expected_var {
                return Err(format!(
                    "level skip: child at variable {var}, expected {expected_var}"
                ));
            }
        }
        Ok(())
    }

    /// The matrix analogue of [`Manager::check_vec_edge`].
    fn check_mat_edge(
        &self,
        e: &Edge<MatId>,
        parent_var: u32,
        is_root: bool,
    ) -> Result<(), String> {
        if e.w.index() >= self.table.len() {
            return Err(format!("weight id {} out of range", e.w.index()));
        }
        if e.w == WeightId::ZERO {
            if !e.n.is_terminal() {
                return Err("zero weight on a non-terminal edge (not the canonical zero)".into());
            }
            return Ok(());
        }
        if self.ctx.is_zero(self.table.get(e.w)) {
            return Err(format!(
                "nonzero weight id {} holds an ε-zero value",
                e.w.index()
            ));
        }
        let expected_var = if is_root { 0 } else { parent_var + 1 };
        if e.n.is_terminal() {
            if expected_var != self.n_qubits {
                return Err(format!(
                    "terminal child above the last level (expected variable {expected_var})"
                ));
            }
        } else {
            let idx = e.n.0 as usize;
            if idx >= self.mat_nodes.len() {
                return Err(format!("node id {idx} out of range"));
            }
            let var = self.mat_nodes[idx].var;
            if var != expected_var {
                return Err(format!(
                    "level skip: child at variable {var}, expected {expected_var}"
                ));
            }
        }
        Ok(())
    }

    /// Checks a vector root edge against this manager (used for the roots
    /// stored in a snapshot). A root is either the canonical zero edge, a
    /// bare scalar (terminal target), or an edge into level 0.
    pub(crate) fn validate_vec_root(&self, e: &Edge<VecId>) -> Result<(), EngineError> {
        if e.n.is_terminal() {
            // scalar or zero root: only the weight id must be in range
            if e.w.index() >= self.table.len() {
                return Err(violation(format!(
                    "root weight id {} out of range",
                    e.w.index()
                )));
            }
            return Ok(());
        }
        self.check_vec_edge(e, 0, true).map_err(violation)
    }

    /// The matrix analogue of [`Manager::validate_vec_root`].
    pub(crate) fn validate_mat_root(&self, e: &Edge<MatId>) -> Result<(), EngineError> {
        if e.n.is_terminal() {
            if e.w.index() >= self.table.len() {
                return Err(violation(format!(
                    "root weight id {} out of range",
                    e.w.index()
                )));
            }
            return Ok(());
        }
        self.check_mat_edge(e, 0, true).map_err(violation)
    }
}

fn validate_unique_table(
    unique: &UniqueTable,
    arena_len: usize,
    kind: &str,
) -> Result<(), EngineError> {
    if unique.len() != arena_len {
        return Err(violation(format!(
            "{kind} unique table has {} entries but the arena holds {arena_len} nodes",
            unique.len()
        )));
    }
    for (slot, &(_, id)) in unique.snapshot_slots().iter().enumerate() {
        if id != u32::MAX && id as usize >= arena_len {
            return Err(violation(format!(
                "{kind} unique table slot {slot} points at node {id}, past the arena"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates::GateMatrix;
    use crate::numeric::NumericContext;
    use crate::{GcdContext, QomegaContext};
    use aq_testutil::TestResult;

    fn busy_manager() -> Result<Manager<NumericContext>, EngineError> {
        let mut m = Manager::new(NumericContext::with_eps(1e-10), 3);
        let s = m.try_basis_state(0b010)?;
        let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
        let t = m.try_gate(&GateMatrix::t(), 1, &[(0, true)])?;
        let s = m.try_mat_vec(&h, &s)?;
        let _ = m.try_mat_vec(&t, &s)?;
        Ok(m)
    }

    #[test]
    fn healthy_managers_validate() -> TestResult {
        busy_manager()?
            .validate()
            .expect("numeric manager is canonical");
        let mut m = Manager::new(QomegaContext::new(), 2);
        let z = m.try_basis_state(0)?;
        let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
        let _ = m.try_mat_vec(&h, &z)?;
        m.validate().expect("algebraic manager is canonical");
        Ok(())
    }

    #[test]
    fn lazily_normalized_gcd_weights_intern_fully_reduced() -> TestResult {
        // a workload whose GCD normalizations all take the lazy path; the
        // validator's is_canonical_value sweep proves no pending √2
        // exponent or non-canonical coefficient form reached the table
        let mut m = Manager::new(GcdContext::new(), 3);
        let mut s = m.try_basis_state(0b101)?;
        for q in 0..3 {
            let h = m.try_gate(&GateMatrix::h(), q, &[])?;
            s = m.try_mat_vec(&h, &s)?;
            let t = m.try_gate(&GateMatrix::t(), q, &[((q + 1) % 3, true)])?;
            s = m.try_mat_vec(&t, &s)?;
        }
        assert!(m.distinct_weights() > 2, "workload must intern weights");
        m.validate().expect("lazy GCD manager is canonical");
        Ok(())
    }

    #[test]
    fn denormalized_edge_is_caught() -> TestResult {
        let mut m = busy_manager()?;
        // scale one child weight of a live node without re-normalizing:
        // exactly the corruption normalization exists to prevent
        let victim = m
            .vec_nodes
            .iter()
            .position(|n| !n.children[0].is_zero() && !n.children[1].is_zero())
            .expect("a two-child node exists");
        let scaled = {
            let w = m.vec_nodes[victim].children[1].w;
            let v = *m.table.get(w);
            let half = m.ctx.mul(&v, &aq_rings::Complex64::new(0.5, 0.0));
            m.try_intern(half)?
        };
        m.vec_nodes[victim].children[1].w = scaled;
        let err = m.validate().expect_err("denormalized edge must be caught");
        assert!(
            matches!(err, EngineError::InvariantViolation { .. }),
            "{err}"
        );
        Ok(())
    }

    #[test]
    fn duplicate_weight_is_caught() -> TestResult {
        let mut m = busy_manager()?;
        // force a duplicate by pushing a value ε-equal to an existing one
        // past the dedup (ids must be unique; re-interning catches it)
        let v = *m.table.get(WeightId::ONE);
        let dup = aq_rings::Complex64::new(v.re + 1e-13, v.im);
        m.table.push_duplicate_for_tests(dup);
        let err = m.validate().expect_err("duplicate weight must be caught");
        assert!(err.to_string().contains("duplicate"), "{err}");
        Ok(())
    }

    #[test]
    fn unique_table_desync_is_caught() -> TestResult {
        let mut m = busy_manager()?;
        m.vec_nodes.pop();
        let err = m.validate().expect_err("arena/unique desync");
        assert!(err.to_string().contains("unique table"), "{err}");
        Ok(())
    }
}
