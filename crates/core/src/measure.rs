//! DD-native measurement: marginal probabilities, collapse, and state
//! sampling support.
//!
//! Outcome probabilities come straight out of the diagram: a bottom-up
//! "sum of |amplitude|²" pass over the shared nodes (linear in the diagram
//! size, not the `2ⁿ` dimension) gives the squared norm of every subtree,
//! and a downward mass-propagation pass turns those into per-level marginal
//! probabilities. In the algebraic contexts both passes run in the exact
//! ring — a dyadic probability like ½ is reported *exactly*, not ε-close —
//! while the numeric context computes the same quantities in doubles.
//!
//! Collapse ([`Manager::try_measure_qubit`]) zeroes the discarded branch,
//! rebuilds the diagram above the measured level (re-canonicalizing per
//! scheme through the ordinary node constructor), and renormalizes by
//! `1/√p` of the surviving mass. The exact contexts can only represent that
//! factor when `p` is an even power of `√2` (which covers all dyadic
//! probabilities); anything else surfaces as
//! [`EngineError::UnrepresentableMeasurement`].

use std::collections::BTreeMap;

use crate::edge::{Edge, VecId};
use crate::error::EngineError;
use crate::fxhash::FxHashMap;
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightId, WeightTable};

/// Per-level `(mass of outcome 0, mass of outcome 1)` pairs in the ring.
type LevelMasses<V> = Vec<(V, V)>;

/// Precomputed per-node branch probabilities for repeated O(n)-per-shot
/// sampling of a *fixed* state DD (the measurement-free fast path).
///
/// Built once by [`Manager::try_state_sampler`]; each [`StateSampler::draw`]
/// walks root-to-terminal choosing the `|1⟩` branch with the node's
/// conditional probability, consuming one uniform f64 per level.
#[derive(Debug, Clone)]
pub struct StateSampler {
    /// Per node: (`p1`, `|0⟩` child, `|1⟩` child).
    branch: FxHashMap<VecId, (f64, VecId, VecId)>,
    root: VecId,
    n_qubits: u32,
}

impl StateSampler {
    /// Number of qubits of the sampled register.
    pub fn n_qubits(&self) -> u32 {
        self.n_qubits
    }

    /// Draws one basis-state index (qubit 0 = most significant bit) using
    /// `unit`, a source of uniform values in `[0, 1)` — one value consumed
    /// per qubit, so equal streams give equal outcomes.
    pub fn draw(&self, mut unit: impl FnMut() -> f64) -> u64 {
        let mut index = 0u64;
        let mut n = self.root;
        while !n.is_terminal() {
            let (p1, c0, c1) = self.branch[&n];
            let bit = u64::from(unit() < p1);
            index = (index << 1) | bit;
            n = if bit == 1 { c1 } else { c0 };
        }
        index
    }
}

impl<W: WeightContext> Manager<W> {
    /// Squared norm `|w|² = w·w̄` of an interned weight, in the weight ring.
    fn w_norm_sqr(&self, w: WeightId) -> W::Value {
        let v = self.table.get(w);
        self.ctx.mul(v, &self.ctx.conj(v))
    }

    /// Bottom-up memoized squared norm of a subtree (terminal = 1):
    /// `nsq(n) = Σ_b |w_b|²·nsq(child_b)`.
    fn nsq_rec(
        &mut self,
        n: VecId,
        memo: &mut FxHashMap<VecId, W::Value>,
    ) -> Result<W::Value, EngineError> {
        if n.is_terminal() {
            return Ok(self.ctx.one());
        }
        if let Some(v) = memo.get(&n) {
            return Ok(v.clone());
        }
        self.budget_probe()?;
        let node = self.vec_nodes[n.0 as usize];
        let mut acc = self.ctx.zero();
        for child in node.children {
            if child.is_zero() {
                continue;
            }
            let sub = self.nsq_rec(child.n, memo)?;
            let term = self.ctx.mul(&self.w_norm_sqr(child.w), &sub);
            acc = self.ctx.add(&acc, &term);
        }
        memo.insert(n, acc.clone());
        Ok(acc)
    }

    /// The squared norm `⟨ψ|ψ⟩` in the weight ring — exact in the algebraic
    /// contexts, and linear in the diagram size (unlike
    /// [`Manager::norm_sqr`], which expands all `2ⁿ` amplitudes).
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_norm_sqr_exact(&mut self, e: &Edge<VecId>) -> Result<W::Value, EngineError> {
        if e.is_zero() {
            return Ok(self.ctx.zero());
        }
        let mut memo = FxHashMap::default();
        let nsq = self.nsq_rec(e.n, &mut memo)?;
        Ok(self.ctx.mul(&self.w_norm_sqr(e.w), &nsq))
    }

    /// Unnormalized outcome masses per level, in the weight ring: entry
    /// `q` is `(mass of outcome 0, mass of outcome 1)` for qubit `q`,
    /// computed for levels `0..=upto`.
    ///
    /// The state DD is quasi-reduced (every root-to-terminal path visits
    /// every level), so a single downward sweep propagating `|path|²`
    /// masses visits each node once per level.
    fn masses_to_level(
        &mut self,
        e: &Edge<VecId>,
        upto: u32,
    ) -> Result<LevelMasses<W::Value>, EngineError> {
        debug_assert!(upto < self.n_qubits, "qubit {upto} out of range");
        let mut out = Vec::with_capacity(upto as usize + 1);
        if e.is_zero() {
            out.resize(upto as usize + 1, (self.ctx.zero(), self.ctx.zero()));
            return Ok(out);
        }
        let mut nsq_memo = FxHashMap::default();
        // BTreeMap keeps the fold order deterministic, which matters for
        // the numeric context (f64 addition is order-sensitive).
        let mut frontier: BTreeMap<VecId, W::Value> = BTreeMap::new();
        frontier.insert(e.n, self.w_norm_sqr(e.w));
        for level in 0..=upto {
            self.budget_probe()?;
            let mut m0 = self.ctx.zero();
            let mut m1 = self.ctx.zero();
            let mut next: BTreeMap<VecId, W::Value> = BTreeMap::new();
            for (n, mass) in std::mem::take(&mut frontier) {
                let node = self.vec_nodes[n.0 as usize];
                debug_assert_eq!(node.var, level, "state DD is not quasi-reduced");
                for (bit, child) in node.children.into_iter().enumerate() {
                    if child.is_zero() {
                        continue;
                    }
                    let flow = self.ctx.mul(&mass, &self.w_norm_sqr(child.w));
                    let nsq = self.nsq_rec(child.n, &mut nsq_memo)?;
                    let contrib = self.ctx.mul(&flow, &nsq);
                    if bit == 0 {
                        m0 = self.ctx.add(&m0, &contrib);
                    } else {
                        m1 = self.ctx.add(&m1, &contrib);
                    }
                    if level < upto {
                        match next.remove(&child.n) {
                            Some(prev) => {
                                let sum = self.ctx.add(&prev, &flow);
                                next.insert(child.n, sum);
                            }
                            None => {
                                next.insert(child.n, flow);
                            }
                        }
                    }
                }
            }
            out.push((m0, m1));
            frontier = next;
        }
        Ok(out)
    }

    /// Exact unnormalized outcome masses `(|0⟩ mass, |1⟩ mass)` of
    /// measuring `qubit`, in the weight ring. For a unit-norm state these
    /// are the outcome probabilities themselves.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n_qubits`.
    pub fn try_qubit_masses(
        &mut self,
        e: &Edge<VecId>,
        qubit: u32,
    ) -> Result<(W::Value, W::Value), EngineError> {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        let mut all = self.masses_to_level(e, qubit)?;
        // aq-lint: allow(R1): masses_to_level returns exactly `qubit + 1` entries
        let last = all.pop().expect("target level present");
        Ok(last)
    }

    /// Normalized marginal `(p0, p1)` of measuring `qubit`, as doubles.
    /// Dyadic probabilities from the exact contexts convert to f64 without
    /// rounding, so a GHZ marginal really is `0.5`, bit-for-bit.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed, or with
    /// [`EngineError::ImpossibleMeasurement`] if the state has no mass.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n_qubits`.
    pub fn try_qubit_marginal(
        &mut self,
        e: &Edge<VecId>,
        qubit: u32,
    ) -> Result<(f64, f64), EngineError> {
        let (m0, m1) = self.try_qubit_masses(e, qubit)?;
        let p0 = self.ctx.to_complex(&m0).re;
        let p1 = self.ctx.to_complex(&m1).re;
        let total = p0 + p1;
        if !total.is_finite() || total <= 0.0 {
            return Err(EngineError::ImpossibleMeasurement { qubit });
        }
        Ok((p0 / total, p1 / total))
    }

    /// Normalized marginal probabilities `(p0, p1)` for **every** qubit in
    /// one downward sweep.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed, or with
    /// [`EngineError::ImpossibleMeasurement`] (qubit 0) if the state has
    /// no mass.
    pub fn try_marginals(&mut self, e: &Edge<VecId>) -> Result<Vec<(f64, f64)>, EngineError> {
        if self.n_qubits == 0 {
            return Ok(Vec::new());
        }
        let masses = self.masses_to_level(e, self.n_qubits - 1)?;
        let mut out = Vec::with_capacity(masses.len());
        for (qubit, (m0, m1)) in masses.into_iter().enumerate() {
            let p0 = self.ctx.to_complex(&m0).re;
            let p1 = self.ctx.to_complex(&m1).re;
            let total = p0 + p1;
            if !total.is_finite() || total <= 0.0 {
                return Err(EngineError::ImpossibleMeasurement {
                    qubit: qubit as u32,
                });
            }
            out.push((p0 / total, p1 / total));
        }
        Ok(out)
    }

    /// Collapses `qubit` to `outcome`: the discarded branch is zeroed, the
    /// diagram above the measured level is rebuilt (re-canonicalized per
    /// scheme), and the survivor is renormalized by `1/√p` of its mass.
    /// Returns the collapsed unit-norm state and the outcome probability.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed, with
    /// [`EngineError::ImpossibleMeasurement`] if the requested outcome has
    /// probability zero, or with
    /// [`EngineError::UnrepresentableMeasurement`] if the exact context
    /// cannot represent `1/√p` (p not an even power of `√2`).
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n_qubits`.
    pub fn try_measure_qubit(
        &mut self,
        e: &Edge<VecId>,
        qubit: u32,
        outcome: bool,
    ) -> Result<(Edge<VecId>, f64), EngineError> {
        assert!(qubit < self.n_qubits, "qubit {qubit} out of range");
        let (m0, m1) = self.try_qubit_masses(e, qubit)?;
        let p0 = self.ctx.to_complex(&m0).re;
        let p1 = self.ctx.to_complex(&m1).re;
        let total = p0 + p1;
        let mass = if outcome { m1 } else { m0 };
        let p = if outcome { p1 } else { p0 };
        if !total.is_finite() || total <= 0.0 || p <= 0.0 || self.ctx.is_zero(&mass) {
            return Err(EngineError::ImpossibleMeasurement { qubit });
        }
        let scale = self
            .ctx
            .sqrt_inv(&mass)
            .ok_or(EngineError::UnrepresentableMeasurement { qubit })?;
        let mut memo = FxHashMap::default();
        let collapsed = self.collapse_rec(e.n, qubit, usize::from(outcome), &mut memo)?;
        if collapsed.is_zero() {
            // mass said otherwise — an ε-interning artifact at most
            return Err(EngineError::ImpossibleMeasurement { qubit });
        }
        let scale_id = self.try_intern(scale)?;
        let w = self.try_w_mul(e.w, collapsed.w)?;
        let w = self.try_w_mul(w, scale_id)?;
        Ok((Edge { w, n: collapsed.n }, p / total))
    }

    /// Rebuilds the subtree rooted at `n` with the non-`keep` branch of
    /// level `qubit` zeroed out. `n` must lie at a level `≤ qubit` (always
    /// true on a quasi-reduced state DD entered from the root).
    fn collapse_rec(
        &mut self,
        n: VecId,
        qubit: u32,
        keep: usize,
        memo: &mut FxHashMap<VecId, Edge<VecId>>,
    ) -> Result<Edge<VecId>, EngineError> {
        if let Some(hit) = memo.get(&n) {
            return Ok(*hit);
        }
        self.budget_probe()?;
        let node = self.vec_nodes[n.0 as usize];
        let e = if node.var == qubit {
            let mut children = [Edge::ZERO_VEC; 2];
            children[keep] = node.children[keep];
            self.try_make_vec_node(node.var, children)?
        } else {
            let mut children = [Edge::ZERO_VEC; 2];
            for (i, child) in node.children.into_iter().enumerate() {
                if child.is_zero() {
                    continue;
                }
                let sub = self.collapse_rec(child.n, qubit, keep, memo)?;
                let w = self.try_w_mul(child.w, sub.w)?;
                children[i] = if w == WeightId::ZERO {
                    Edge::ZERO_VEC
                } else {
                    Edge { w, n: sub.n }
                };
            }
            self.try_make_vec_node(node.var, children)?
        };
        memo.insert(n, e);
        Ok(e)
    }

    /// The exact probability `|⟨index|ψ⟩|²` of one basis state, in the
    /// weight ring, computed along a single root-to-terminal path.
    ///
    /// High qubits beyond a `u64` index are read as `|0⟩`, mirroring
    /// [`Manager::amplitude`](Self::amplitude).
    pub fn basis_probability(&self, e: &Edge<VecId>, index: u64) -> W::Value {
        if e.is_zero() {
            return self.ctx.zero();
        }
        let mut acc = self.table.get(e.w).clone();
        let mut n = e.n;
        let mut depth = 0;
        while !n.is_terminal() {
            let node = self.vec_nodes[n.0 as usize];
            let shift = self.n_qubits - 1 - depth;
            let bit = if shift >= u64::BITS {
                0
            } else {
                ((index >> shift) & 1) as usize
            };
            let child = node.children[bit];
            if child.is_zero() {
                return self.ctx.zero();
            }
            acc = self.ctx.mul(&acc, self.table.get(child.w));
            n = child.n;
            depth += 1;
        }
        self.ctx.mul(&acc, &self.ctx.conj(&acc))
    }

    /// Builds a [`StateSampler`] over `e`: one pass computing every node's
    /// conditional `|1⟩`-branch probability, after which each draw costs
    /// O(n) with no further manager access.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed, or with
    /// [`EngineError::ImpossibleMeasurement`] on a zero state.
    ///
    /// # Panics
    ///
    /// Panics if the register is wider than 64 qubits (a draw returns a
    /// `u64` index).
    pub fn try_state_sampler(&mut self, e: &Edge<VecId>) -> Result<StateSampler, EngineError> {
        assert!(self.n_qubits <= 64, "sampler indices are u64");
        if e.is_zero() {
            return Err(EngineError::ImpossibleMeasurement { qubit: 0 });
        }
        let mut nsq_memo = FxHashMap::default();
        self.nsq_rec(e.n, &mut nsq_memo)?;
        let mut branch = FxHashMap::default();
        let mut stack = vec![e.n];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || branch.contains_key(&n) {
                continue;
            }
            self.budget_probe()?;
            let node = self.vec_nodes[n.0 as usize];
            let mut mass = [0.0f64; 2];
            for (bit, child) in node.children.into_iter().enumerate() {
                if child.is_zero() {
                    continue;
                }
                let nsq = self.nsq_rec(child.n, &mut nsq_memo)?;
                let flow = self.ctx.mul(&self.w_norm_sqr(child.w), &nsq);
                mass[bit] = self.ctx.to_complex(&flow).re.max(0.0);
                stack.push(child.n);
            }
            let total = mass[0] + mass[1];
            let p1 = if total > 0.0 { mass[1] / total } else { 0.0 };
            branch.insert(n, (p1, node.children[0].n, node.children[1].n));
        }
        Ok(StateSampler {
            branch,
            root: e.n,
            n_qubits: self.n_qubits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebraic::{GcdContext, QomegaContext};
    use crate::gates::GateMatrix;
    use crate::numeric::NumericContext;
    use aq_testutil::TestResult;

    fn ghz<W: WeightContext>(m: &mut Manager<W>, n: u32) -> Result<Edge<VecId>, EngineError> {
        let mut state = m.try_basis_state(0)?;
        let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
        state = m.try_mat_vec(&h, &state)?;
        for q in 1..n {
            let cx = m.try_gate(&GateMatrix::x(), q, &[(0, true)])?;
            state = m.try_mat_vec(&cx, &state)?;
        }
        Ok(state)
    }

    #[test]
    fn ghz_marginals_are_exactly_half() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 10);
        let state = ghz(&mut m, 10)?;
        for q in 0..10 {
            let (p0, p1) = m.try_qubit_marginal(&state, q)?;
            assert_eq!(p0, 0.5, "qubit {q}: p0 must be exactly 0.5");
            assert_eq!(p1, 0.5, "qubit {q}: p1 must be exactly 0.5");
        }
        let all = m.try_marginals(&state).expect("unbudgeted");
        assert_eq!(all, vec![(0.5, 0.5); 10]);
        Ok(())
    }

    #[test]
    fn norm_sqr_exact_is_one_for_unitary_states() -> TestResult {
        let mut m = Manager::new(GcdContext::new(), 6);
        let state = ghz(&mut m, 6)?;
        let n = m.try_norm_sqr_exact(&state).expect("unbudgeted");
        assert!(n.is_one(), "GHZ norm² must be exactly 1, got {n}");
        Ok(())
    }

    #[test]
    fn collapse_produces_the_surviving_basis_state() -> TestResult {
        let mut m = Manager::new(GcdContext::new(), 4);
        let state = ghz(&mut m, 4)?;
        let (collapsed, p) = m.try_measure_qubit(&state, 0, true)?;
        assert_eq!(p, 0.5);
        m.validate()
            .expect("post-collapse diagram must stay canonical");
        // collapsing qubit 0 of GHZ to |1⟩ leaves |1111⟩ exactly
        let amps = m.amplitudes(&collapsed);
        for (i, a) in amps.iter().enumerate() {
            let expect = if i == 15 { 1.0 } else { 0.0 };
            assert_eq!(a.re, expect, "amplitude {i}");
            assert_eq!(a.im, 0.0, "amplitude {i}");
        }
        // follow-up marginals are now deterministic
        for q in 1..4 {
            assert_eq!(m.try_qubit_marginal(&collapsed, q)?, (0.0, 1.0));
        }
        Ok(())
    }

    #[test]
    fn collapse_matches_across_contexts() -> TestResult {
        let mut mn = Manager::new(NumericContext::with_eps(1e-10), 3);
        let sn = ghz(&mut mn, 3)?;
        let (cn, pn) = mn.try_measure_qubit(&sn, 1, false)?;
        let mut mq = Manager::new(QomegaContext::new(), 3);
        let sq = ghz(&mut mq, 3)?;
        let (cq, pq) = mq.try_measure_qubit(&sq, 1, false)?;
        assert!((pn - pq).abs() < 1e-12);
        let an = mn.amplitudes(&cn);
        let aq = mq.amplitudes(&cq);
        for (x, y) in an.iter().zip(&aq) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
        Ok(())
    }

    #[test]
    fn impossible_outcome_is_an_error() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 2);
        let state = m.try_basis_state(0)?; // |00⟩
        let err = m.try_measure_qubit(&state, 0, true).unwrap_err();
        assert_eq!(err, EngineError::ImpossibleMeasurement { qubit: 0 });
        Ok(())
    }

    #[test]
    fn unrepresentable_renormalization_is_reported() -> TestResult {
        // T·H|0⟩ then H gives p0 = (2+√2)/4: 1/√p leaves D[ω]/Q[ω]
        let mut m = Manager::new(QomegaContext::new(), 1);
        let mut state = m.try_basis_state(0)?;
        let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
        let t = m.try_gate(&GateMatrix::t(), 0, &[])?;
        for g in [&h, &t, &h] {
            state = m.try_mat_vec(g, &state)?;
        }
        let err = m.try_measure_qubit(&state, 0, false).unwrap_err();
        assert_eq!(err, EngineError::UnrepresentableMeasurement { qubit: 0 });
        // the numeric context has no such restriction
        let mut mn = Manager::new(NumericContext::new(), 1);
        let mut sn = mn.try_basis_state(0)?;
        let hn = mn.try_gate(&GateMatrix::h(), 0, &[])?;
        let tn = mn.try_gate(&GateMatrix::t(), 0, &[])?;
        for g in [&hn, &tn, &hn] {
            sn = mn.try_mat_vec(g, &sn)?;
        }
        let (_, p) = mn.try_measure_qubit(&sn, 0, false)?;
        assert!((p - (2.0 + std::f64::consts::SQRT_2) / 4.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn state_sampler_walks_the_distribution() -> TestResult {
        let mut m = Manager::new(GcdContext::new(), 3);
        let state = ghz(&mut m, 3)?;
        let sampler = m.try_state_sampler(&state).expect("unbudgeted");
        // a deterministic stream of alternating low/high uniforms must hit
        // both GHZ outcomes and nothing else
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u64 {
            let v = if i % 2 == 0 { 0.1 } else { 0.9 };
            seen.insert(sampler.draw(|| v));
        }
        assert_eq!(
            seen,
            [0u64, 7u64].into_iter().collect(),
            "GHZ must only produce |000⟩ and |111⟩"
        );
        Ok(())
    }

    #[test]
    fn basis_probability_is_exact() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 10);
        let state = ghz(&mut m, 10)?;
        let p = m.basis_probability(&state, 0);
        assert_eq!(m.ctx().to_complex(&p).re, 0.5);
        let p = m.basis_probability(&state, (1 << 10) - 1);
        assert_eq!(m.ctx().to_complex(&p).re, 0.5);
        assert!(m.ctx().is_zero(&m.basis_probability(&state, 5)));
        Ok(())
    }

    #[test]
    fn budget_is_probed_during_measurement() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 8);
        let state = ghz(&mut m, 8)?;
        m.set_budget(crate::error::RunBudget::unlimited().with_deadline(std::time::Duration::ZERO));
        let err = m
            .try_measure_qubit(&state, 0, false)
            .expect_err("a zero deadline must fire inside the measurement pass");
        assert!(err.is_budget(), "unexpected error {err}");
        Ok(())
    }
}
