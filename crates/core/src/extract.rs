//! Reading decision diagrams back out: amplitudes, matrices, node counts.

use std::collections::HashSet;

use aq_rings::Complex64;

use crate::edge::{Edge, MatId, VecId};
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightTable};

impl<W: WeightContext> Manager<W> {
    /// The full `2ⁿ` amplitude vector, evaluated to complex doubles.
    ///
    /// For algebraic contexts the path products are computed **exactly**
    /// and converted only at the end — this is the reference vector
    /// `v_alg` of the paper's accuracy metric (footnote 8).
    pub fn amplitudes(&mut self, e: &Edge<VecId>) -> Vec<Complex64> {
        let dim = 1usize << self.n_qubits;
        let mut out = vec![Complex64::ZERO; dim];
        if e.is_zero() {
            return out;
        }
        let root_w = self.table.get(e.w).clone();
        self.walk_amplitudes(e.n, root_w, 0, 0, &mut out);
        out
    }

    fn walk_amplitudes(
        &mut self,
        n: VecId,
        acc: W::Value,
        prefix: usize,
        depth: u32,
        out: &mut [Complex64],
    ) {
        if n.is_terminal() {
            debug_assert_eq!(depth, self.n_qubits, "short path in vector DD");
            out[prefix] = self.ctx.to_complex(&acc);
            return;
        }
        let node = self.vec_nodes[n.0 as usize];
        for (bit, child) in node.children.into_iter().enumerate() {
            if child.is_zero() {
                continue;
            }
            let w = self.ctx.mul(&acc, self.table.get(child.w));
            self.walk_amplitudes(child.n, w, (prefix << 1) | bit, depth + 1, out);
        }
    }

    /// A single amplitude `⟨index|ψ⟩` (qubit 0 = most significant bit),
    /// computed along one root-to-terminal path.
    ///
    /// For registers wider than 64 qubits, the high qubits (which a `u64`
    /// index cannot address) are read as `|0⟩` — mirroring
    /// [`Manager::try_basis_state`](Self::try_basis_state).
    pub fn amplitude(&self, e: &Edge<VecId>, index: u64) -> Complex64 {
        if e.is_zero() {
            return Complex64::ZERO;
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
                return Complex64::ZERO;
            }
            acc = self.ctx.mul(&acc, self.table.get(child.w));
            n = child.n;
            depth += 1;
        }
        self.ctx.to_complex(&acc)
    }

    /// The full `2ⁿ × 2ⁿ` operator matrix in row-major order. Exponential —
    /// test/diagnostic use only.
    pub fn matrix(&mut self, e: &Edge<MatId>) -> Vec<Vec<Complex64>> {
        let dim = 1usize << self.n_qubits;
        let mut out = vec![vec![Complex64::ZERO; dim]; dim];
        if e.is_zero() {
            return out;
        }
        let root_w = self.table.get(e.w).clone();
        self.walk_matrix(e.n, root_w, 0, 0, &mut out);
        out
    }

    fn walk_matrix(
        &mut self,
        n: MatId,
        acc: W::Value,
        row: usize,
        col: usize,
        out: &mut [Vec<Complex64>],
    ) {
        if n.is_terminal() {
            out[row][col] = self.ctx.to_complex(&acc);
            return;
        }
        let node = self.mat_nodes[n.0 as usize];
        for (i, child) in node.children.into_iter().enumerate() {
            if child.is_zero() {
                continue;
            }
            let (r, c) = (i >> 1, i & 1);
            let w = self.ctx.mul(&acc, self.table.get(child.w));
            self.walk_matrix(child.n, w, (row << 1) | r, (col << 1) | c, out);
        }
    }

    /// Number of distinct non-terminal nodes reachable from a vector edge —
    /// the size metric of Figs. 2–5 of the paper.
    pub fn vec_nodes(&self, e: &Edge<VecId>) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            for c in self.vec_nodes[n.0 as usize].children {
                if !c.is_zero() {
                    stack.push(c.n);
                }
            }
        }
        seen.len()
    }

    /// Number of distinct non-terminal nodes reachable from a matrix edge.
    pub fn mat_nodes(&self, e: &Edge<MatId>) -> usize {
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            for c in self.mat_nodes[n.0 as usize].children {
                if !c.is_zero() {
                    stack.push(c.n);
                }
            }
        }
        seen.len()
    }

    /// Largest coefficient bit-width among the weights reachable from a
    /// vector edge (1 for floats) — the growth metric behind the GSE
    /// overhead analysis in Sec. V-B of the paper.
    pub fn max_weight_bits(&self, e: &Edge<VecId>) -> u64 {
        let mut best = self.ctx.value_bits(self.table.get(e.w));
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            for c in self.vec_nodes[n.0 as usize].children {
                if !c.is_zero() {
                    best = best.max(self.ctx.value_bits(self.table.get(c.w)));
                    stack.push(c.n);
                }
            }
        }
        best
    }

    /// Edge-weight statistics of a state DD: `(total_edges, unit_edges)`
    /// counting non-zero edges reachable from `e` (including the root).
    ///
    /// The fraction of *trivial* (weight-1) edges is the quantity the
    /// paper uses to explain why `Q[ω]` normalization outperforms the GCD
    /// scheme (Sec. V-B): trivial weights make the arithmetic cheap.
    pub fn vec_weight_stats(&self, e: &Edge<VecId>) -> (usize, usize) {
        use crate::weight::WeightId;
        if e.is_zero() {
            return (0, 0);
        }
        let mut total = 1;
        let mut unit = usize::from(e.w == WeightId::ONE);
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            for c in self.vec_nodes[n.0 as usize].children {
                if !c.is_zero() {
                    total += 1;
                    unit += usize::from(c.w == WeightId::ONE);
                    stack.push(c.n);
                }
            }
        }
        (total, unit)
    }

    /// The squared norm `⟨ψ|ψ⟩` of a state DD (exactly 1 for algebraic
    /// simulations of unitary circuits; drifts for numeric ones).
    pub fn norm_sqr(&mut self, e: &Edge<VecId>) -> f64 {
        self.amplitudes(e).iter().map(|a| a.norm_sqr()).sum()
    }
}
