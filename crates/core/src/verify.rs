//! Verification-oriented operations: exact inner products, operator
//! adjoints and Kronecker composition.
//!
//! These are the design-task payoffs of an exact representation that the
//! paper highlights (Sec. V-B): with canonical algebraic diagrams,
//! fidelities and unitarity checks are computed without any numerical
//! error at all.

use std::collections::HashMap;

use crate::edge::{Edge, MatId, VecId};
use crate::error::EngineError;
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightId, WeightTable};

impl<W: WeightContext> Manager<W> {
    /// The inner product `⟨a|b⟩`, computed in the weight system itself —
    /// **exactly** for the algebraic contexts.
    ///
    /// For normalized states, `⟨ψ|ψ⟩ = 1` holds structurally; two states
    /// are equal iff their fidelity `|⟨a|b⟩|²` is 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use aq_dd::{GateMatrix, Manager, QomegaContext, WeightContext};
    ///
    /// let mut m = Manager::new(QomegaContext::new(), 2);
    /// let z = m.try_basis_state(0)?;
    /// let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    /// let plus = m.try_mat_vec(&h, &z)?;
    /// // ⟨0|+⟩ = 1/√2, exactly:
    /// let ip = m.inner_product(&z, &plus);
    /// assert_eq!(ip, m.ctx().from_exact(&aq_rings::Domega::one_over_sqrt2()));
    /// # Ok::<(), aq_dd::EngineError>(())
    /// ```
    pub fn inner_product(&mut self, a: &Edge<VecId>, b: &Edge<VecId>) -> W::Value {
        if a.is_zero() || b.is_zero() {
            return self.ctx.zero();
        }
        let mut memo = HashMap::new();
        let sub = self.ip_rec(a.n, b.n, &mut memo);
        let wa = self.ctx.conj(self.table.get(a.w));
        let wb = self.table.get(b.w).clone();
        let top = self.ctx.mul(&wa, &wb);
        self.ctx.mul(&top, &sub)
    }

    fn ip_rec(
        &mut self,
        a: VecId,
        b: VecId,
        memo: &mut HashMap<(VecId, VecId), W::Value>,
    ) -> W::Value {
        if a.is_terminal() {
            debug_assert!(b.is_terminal(), "rank mismatch in inner product");
            return self.ctx.one();
        }
        if let Some(hit) = memo.get(&(a, b)) {
            return hit.clone();
        }
        let na = self.vec_nodes[a.0 as usize];
        let nb = self.vec_nodes[b.0 as usize];
        debug_assert_eq!(na.var, nb.var, "level mismatch in inner product");
        let mut acc = self.ctx.zero();
        for i in 0..2 {
            let ca = na.children[i];
            let cb = nb.children[i];
            if ca.is_zero() || cb.is_zero() {
                continue;
            }
            let sub = self.ip_rec(ca.n, cb.n, memo);
            let wa = self.ctx.conj(self.table.get(ca.w));
            let wb = self.table.get(cb.w).clone();
            let w = self.ctx.mul(&wa, &wb);
            let term = self.ctx.mul(&w, &sub);
            acc = self.ctx.add(&acc, &term);
        }
        memo.insert((a, b), acc.clone());
        acc
    }

    /// The adjoint (conjugate transpose) `U†` of an operator DD.
    ///
    /// With it, unitarity is an O(1) check after one multiplication:
    /// `U · U† == identity()`.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    ///
    /// # Examples
    ///
    /// ```
    /// use aq_dd::{GateMatrix, Manager, QomegaContext};
    ///
    /// let mut m = Manager::new(QomegaContext::new(), 2);
    /// let t = m.try_gate(&GateMatrix::t(), 1, &[(0, true)])?;
    /// let tdg = m.mat_adjoint(&t)?;
    /// let prod = m.try_mat_mul(&t, &tdg)?;
    /// assert_eq!(prod, m.try_identity()?);
    /// # Ok::<(), aq_dd::EngineError>(())
    /// ```
    pub fn mat_adjoint(&mut self, e: &Edge<MatId>) -> Result<Edge<MatId>, EngineError> {
        if e.is_zero() {
            return Ok(Edge::ZERO_MAT);
        }
        let mut memo = HashMap::new();
        let sub = self.adj_rec(e.n, &mut memo)?;
        let w = self.ctx.conj(self.table.get(e.w));
        let wid = self.try_intern(w)?;
        let top = self.try_w_mul(wid, sub.w)?;
        Ok(if top == WeightId::ZERO {
            Edge::ZERO_MAT
        } else {
            Edge { w: top, n: sub.n }
        })
    }

    fn adj_rec(
        &mut self,
        n: MatId,
        memo: &mut HashMap<MatId, Edge<MatId>>,
    ) -> Result<Edge<MatId>, EngineError> {
        if n.is_terminal() {
            return Ok(Edge {
                w: WeightId::ONE,
                n: MatId::TERMINAL,
            });
        }
        if let Some(&hit) = memo.get(&n) {
            return Ok(hit);
        }
        let node = self.mat_nodes[n.0 as usize];
        // transpose: (r,c) ↦ (c,r), i.e. children 1 and 2 swap
        let order = [0usize, 2, 1, 3];
        let mut children = [Edge::ZERO_MAT; 4];
        for (i, &src) in order.iter().enumerate() {
            let c = node.children[src];
            if c.is_zero() {
                continue;
            }
            let sub = self.adj_rec(c.n, memo)?;
            let w = self.ctx.conj(self.table.get(c.w));
            let wid = self.try_intern(w)?;
            let combined = self.try_w_mul(wid, sub.w)?;
            if combined != WeightId::ZERO {
                children[i] = Edge {
                    w: combined,
                    n: sub.n,
                };
            }
        }
        let e = self.try_make_mat_node(node.var, children)?;
        memo.insert(n, e);
        Ok(e)
    }
}

/// Kronecker composition of two states from (possibly different) managers
/// over the same weight system: builds `|a⟩ ⊗ |b⟩` in a fresh manager on
/// `n_a + n_b` qubits.
///
/// # Errors
///
/// Fails on weight-table or node-arena overflow in the fresh manager.
///
/// # Examples
///
/// ```
/// use aq_dd::{kron_states, GateMatrix, Manager, QomegaContext};
///
/// let mut ma = Manager::new(QomegaContext::new(), 1);
/// let plus = {
///     let z = ma.try_basis_state(0)?;
///     let h = ma.try_gate(&GateMatrix::h(), 0, &[])?;
///     ma.try_mat_vec(&h, &z)?
/// };
/// let mut mb = Manager::new(QomegaContext::new(), 2);
/// let one = mb.try_basis_state(0b11)?;
/// let (mut m, composed) = kron_states(QomegaContext::new(), (&ma, &plus), (&mb, &one))?;
/// let amps = m.amplitudes(&composed);
/// assert!((amps[0b011].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
/// assert!((amps[0b111].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
/// # Ok::<(), aq_dd::EngineError>(())
/// ```
pub fn kron_states<W: WeightContext>(
    ctx: W,
    a: (&Manager<W>, &Edge<VecId>),
    b: (&Manager<W>, &Edge<VecId>),
) -> Result<(Manager<W>, Edge<VecId>), EngineError> {
    let (ma, ea) = a;
    let (mb, eb) = b;
    let n = ma.n_qubits() + mb.n_qubits();
    let mut dst = Manager::new(ctx, n);
    if ea.is_zero() || eb.is_zero() {
        return Ok((dst, Edge::ZERO_VEC));
    }

    // copy b shifted below a's levels
    let shift = ma.n_qubits();
    let mut memo_b: HashMap<VecId, Edge<VecId>> = HashMap::new();
    let b_root = copy_shifted(mb, &mut dst, eb.n, shift, &mut memo_b)?;

    // copy a, grafting b's root (with weight folded in) onto terminals
    let wb = dst.try_intern(mb.weight(eb.w).clone())?;
    let graft = Edge {
        w: dst.try_w_mul(wb, b_root.w)?,
        n: b_root.n,
    };
    let mut memo_a: HashMap<VecId, Edge<VecId>> = HashMap::new();
    let a_root = graft_above(ma, &mut dst, ea.n, graft, &mut memo_a)?;
    let wa = dst.try_intern(ma.weight(ea.w).clone())?;
    let w0 = dst.try_w_mul(wa, a_root.w)?;
    Ok((dst, Edge { w: w0, n: a_root.n }))
}

fn copy_shifted<W: WeightContext>(
    src: &Manager<W>,
    dst: &mut Manager<W>,
    n: VecId,
    shift: u32,
    memo: &mut HashMap<VecId, Edge<VecId>>,
) -> Result<Edge<VecId>, EngineError> {
    if n.is_terminal() {
        return Ok(Edge {
            w: WeightId::ONE,
            n: VecId::TERMINAL,
        });
    }
    if let Some(&hit) = memo.get(&n) {
        return Ok(hit);
    }
    let node = src.vec_nodes[n.0 as usize];
    let mut children = [Edge::ZERO_VEC; 2];
    for (i, c) in node.children.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        let sub = copy_shifted(src, dst, c.n, shift, memo)?;
        let w = dst.try_intern(src.weight(c.w).clone())?;
        let combined = dst.try_w_mul(w, sub.w)?;
        if combined != WeightId::ZERO {
            children[i] = Edge {
                w: combined,
                n: sub.n,
            };
        }
    }
    let e = dst.try_make_vec_node(node.var + shift, children)?;
    memo.insert(n, e);
    Ok(e)
}

fn graft_above<W: WeightContext>(
    src: &Manager<W>,
    dst: &mut Manager<W>,
    n: VecId,
    graft: Edge<VecId>,
    memo: &mut HashMap<VecId, Edge<VecId>>,
) -> Result<Edge<VecId>, EngineError> {
    if n.is_terminal() {
        return Ok(graft);
    }
    if let Some(&hit) = memo.get(&n) {
        return Ok(hit);
    }
    let node = src.vec_nodes[n.0 as usize];
    let mut children = [Edge::ZERO_VEC; 2];
    for (i, c) in node.children.iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        let sub = graft_above(src, dst, c.n, graft, memo)?;
        let w = dst.try_intern(src.weight(c.w).clone())?;
        let combined = dst.try_w_mul(w, sub.w)?;
        if combined != WeightId::ZERO {
            children[i] = Edge {
                w: combined,
                n: sub.n,
            };
        }
    }
    let e = dst.try_make_vec_node(node.var, children)?;
    memo.insert(n, e);
    Ok(e)
}
