//! Decision-diagram arithmetic: addition, matrix–vector and matrix–matrix
//! multiplication, Kronecker products.
//!
//! All operations are recursive over the shared node structure and memoised
//! in the manager's compute caches; their complexity is polynomial in the
//! *diagram* sizes, not the `2ⁿ` dimensions — the reason decision diagrams
//! work at all (Sec. II-B of the paper).
//!
//! Every operation is fallible (`try_*`) and surfaces budget exhaustion as
//! a structured [`EngineError`] (the recursion unwinds cleanly: partial
//! sub-results stay interned but no invariant is broken).

use crate::edge::{Edge, MatId, VecId};
use crate::error::EngineError;
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightId};

impl<W: WeightContext> Manager<W> {
    /// Sum of two vector DDs.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_vec_add(
        &mut self,
        a: &Edge<VecId>,
        b: &Edge<VecId>,
    ) -> Result<Edge<VecId>, EngineError> {
        self.add_vec_rec(*a, *b)
    }

    #[allow(clippy::needless_range_loop)] // index mirrors the child layout
    pub(crate) fn add_vec_rec(
        &mut self,
        a: Edge<VecId>,
        b: Edge<VecId>,
    ) -> Result<Edge<VecId>, EngineError> {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.n.is_terminal() {
            debug_assert!(b.n.is_terminal(), "rank mismatch in vector addition");
            let w = self.try_w_add(a.w, b.w)?;
            return Ok(if w == WeightId::ZERO {
                Edge::ZERO_VEC
            } else {
                Edge {
                    w,
                    n: VecId::TERMINAL,
                }
            });
        }
        // addition is commutative: canonical argument order doubles hits
        let (a, b) = if (b.n, b.w) < (a.n, a.w) {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(hit) = self.add_vec_cache.get(&(a, b)) {
            return Ok(hit);
        }
        let na = self.vec_nodes[a.n.0 as usize];
        let nb = self.vec_nodes[b.n.0 as usize];
        debug_assert_eq!(na.var, nb.var, "level mismatch in vector addition");
        let mut children = [Edge::ZERO_VEC; 2];
        for i in 0..2 {
            let ca = self.scale_vec(na.children[i], a.w)?;
            let cb = self.scale_vec(nb.children[i], b.w)?;
            children[i] = self.add_vec_rec(ca, cb)?;
        }
        let e = self.try_make_vec_node(na.var, children)?;
        self.add_vec_cache.insert((a, b), e);
        Ok(e)
    }

    /// Sum of two matrix DDs.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_mat_add(
        &mut self,
        a: &Edge<MatId>,
        b: &Edge<MatId>,
    ) -> Result<Edge<MatId>, EngineError> {
        self.add_mat_rec(*a, *b)
    }

    #[allow(clippy::needless_range_loop)] // index mirrors the child layout
    pub(crate) fn add_mat_rec(
        &mut self,
        a: Edge<MatId>,
        b: Edge<MatId>,
    ) -> Result<Edge<MatId>, EngineError> {
        if a.is_zero() {
            return Ok(b);
        }
        if b.is_zero() {
            return Ok(a);
        }
        if a.n.is_terminal() {
            debug_assert!(b.n.is_terminal(), "rank mismatch in matrix addition");
            let w = self.try_w_add(a.w, b.w)?;
            return Ok(if w == WeightId::ZERO {
                Edge::ZERO_MAT
            } else {
                Edge {
                    w,
                    n: MatId::TERMINAL,
                }
            });
        }
        let (a, b) = if (b.n, b.w) < (a.n, a.w) {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(hit) = self.add_mat_cache.get(&(a, b)) {
            return Ok(hit);
        }
        let na = self.mat_nodes[a.n.0 as usize];
        let nb = self.mat_nodes[b.n.0 as usize];
        debug_assert_eq!(na.var, nb.var, "level mismatch in matrix addition");
        let mut children = [Edge::ZERO_MAT; 4];
        for i in 0..4 {
            let ca = self.scale_mat(na.children[i], a.w)?;
            let cb = self.scale_mat(nb.children[i], b.w)?;
            children[i] = self.add_mat_rec(ca, cb)?;
        }
        let e = self.try_make_mat_node(na.var, children)?;
        self.add_mat_cache.insert((a, b), e);
        Ok(e)
    }

    /// Matrix–vector product: applies an operator DD to a state DD —
    /// one quantum gate application in DD-based simulation.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_mat_vec(
        &mut self,
        m: &Edge<MatId>,
        v: &Edge<VecId>,
    ) -> Result<Edge<VecId>, EngineError> {
        if m.is_zero() || v.is_zero() {
            return Ok(Edge::ZERO_VEC);
        }
        let sub = self.mv_rec(m.n, v.n)?;
        let w0 = self.try_w_mul(m.w, v.w)?;
        let w = self.try_w_mul(w0, sub.w)?;
        Ok(if w == WeightId::ZERO {
            Edge::ZERO_VEC
        } else {
            Edge { w, n: sub.n }
        })
    }

    /// Product of two *normalized* nodes (weight-1 edges) — cacheable by
    /// node ids alone thanks to normalization.
    #[allow(clippy::needless_range_loop)] // (row, col) indexing mirrors the block structure
    fn mv_rec(&mut self, m: MatId, v: VecId) -> Result<Edge<VecId>, EngineError> {
        if m.is_terminal() {
            debug_assert!(v.is_terminal(), "rank mismatch in mat-vec product");
            return Ok(Edge {
                w: WeightId::ONE,
                n: VecId::TERMINAL,
            });
        }
        if let Some(hit) = self.mv_cache.get(&(m, v)) {
            return Ok(hit);
        }
        let mn = self.mat_nodes[m.0 as usize];
        let vn = self.vec_nodes[v.0 as usize];
        debug_assert_eq!(mn.var, vn.var, "level mismatch in mat-vec product");
        let mut children = [Edge::ZERO_VEC; 2];
        for r in 0..2 {
            let mut acc = Edge::ZERO_VEC;
            for c in 0..2 {
                let me = mn.children[2 * r + c];
                let ve = vn.children[c];
                if me.is_zero() || ve.is_zero() {
                    continue;
                }
                let sub = self.mv_rec(me.n, ve.n)?;
                let w0 = self.try_w_mul(me.w, ve.w)?;
                let w = self.try_w_mul(w0, sub.w)?;
                let term = if w == WeightId::ZERO {
                    Edge::ZERO_VEC
                } else {
                    Edge { w, n: sub.n }
                };
                acc = self.add_vec_rec(acc, term)?;
            }
            children[r] = acc;
        }
        let e = self.try_make_vec_node(mn.var, children)?;
        self.mv_cache.insert((m, v), e);
        Ok(e)
    }

    /// Matrix–matrix product `a · b` (operator composition: `a` applied
    /// after `b` in circuit order).
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_mat_mul(
        &mut self,
        a: &Edge<MatId>,
        b: &Edge<MatId>,
    ) -> Result<Edge<MatId>, EngineError> {
        if a.is_zero() || b.is_zero() {
            return Ok(Edge::ZERO_MAT);
        }
        let sub = self.mm_rec(a.n, b.n)?;
        let w0 = self.try_w_mul(a.w, b.w)?;
        let w = self.try_w_mul(w0, sub.w)?;
        Ok(if w == WeightId::ZERO {
            Edge::ZERO_MAT
        } else {
            Edge { w, n: sub.n }
        })
    }

    fn mm_rec(&mut self, a: MatId, b: MatId) -> Result<Edge<MatId>, EngineError> {
        if a.is_terminal() {
            debug_assert!(b.is_terminal(), "rank mismatch in mat-mat product");
            return Ok(Edge {
                w: WeightId::ONE,
                n: MatId::TERMINAL,
            });
        }
        if let Some(hit) = self.mm_cache.get(&(a, b)) {
            return Ok(hit);
        }
        let na = self.mat_nodes[a.0 as usize];
        let nb = self.mat_nodes[b.0 as usize];
        debug_assert_eq!(na.var, nb.var, "level mismatch in mat-mat product");
        let mut children = [Edge::ZERO_MAT; 4];
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = Edge::ZERO_MAT;
                for k in 0..2 {
                    let ea = na.children[2 * r + k];
                    let eb = nb.children[2 * k + c];
                    if ea.is_zero() || eb.is_zero() {
                        continue;
                    }
                    let sub = self.mm_rec(ea.n, eb.n)?;
                    let w0 = self.try_w_mul(ea.w, eb.w)?;
                    let w = self.try_w_mul(w0, sub.w)?;
                    let term = if w == WeightId::ZERO {
                        Edge::ZERO_MAT
                    } else {
                        Edge { w, n: sub.n }
                    };
                    acc = self.add_mat_rec(acc, term)?;
                }
                children[2 * r + c] = acc;
            }
        }
        let e = self.try_make_mat_node(na.var, children)?;
        self.mm_cache.insert((a, b), e);
        Ok(e)
    }

    fn scale_vec(&mut self, e: Edge<VecId>, w: WeightId) -> Result<Edge<VecId>, EngineError> {
        if e.is_zero() {
            return Ok(Edge::ZERO_VEC);
        }
        let nw = self.try_w_mul(e.w, w)?;
        Ok(if nw == WeightId::ZERO {
            Edge::ZERO_VEC
        } else {
            Edge { w: nw, n: e.n }
        })
    }

    fn scale_mat(&mut self, e: Edge<MatId>, w: WeightId) -> Result<Edge<MatId>, EngineError> {
        if e.is_zero() {
            return Ok(Edge::ZERO_MAT);
        }
        let nw = self.try_w_mul(e.w, w)?;
        Ok(if nw == WeightId::ZERO {
            Edge::ZERO_MAT
        } else {
            Edge { w: nw, n: e.n }
        })
    }

    /// Scales a vector DD by an interned weight.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_vec_scale(
        &mut self,
        e: &Edge<VecId>,
        w: WeightId,
    ) -> Result<Edge<VecId>, EngineError> {
        self.scale_vec(*e, w)
    }

    /// Scales a matrix DD by an interned weight.
    ///
    /// # Errors
    ///
    /// Fails when a budget limit is crossed.
    pub fn try_mat_scale(
        &mut self,
        e: &Edge<MatId>,
        w: WeightId,
    ) -> Result<Edge<MatId>, EngineError> {
        self.scale_mat(*e, w)
    }
}
