//! Graphviz DOT export of decision diagrams (Fig. 1-style pictures).

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::edge::{Edge, MatId, VecId};
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightTable};

impl<W: WeightContext> Manager<W> {
    /// Renders a vector DD as Graphviz DOT — one box per node labelled
    /// with its qubit, weighted edges annotated with their (approximate)
    /// complex value, exactly like the diagrams in the paper's Fig. 1.
    ///
    /// ```
    /// use aq_dd::{GateMatrix, Manager, QomegaContext};
    ///
    /// let mut m = Manager::new(QomegaContext::new(), 2);
    /// let s = m.try_basis_state(0b10)?;
    /// let dot = m.vec_to_dot(&s);
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("q0"));
    /// # Ok::<(), aq_dd::EngineError>(())
    /// ```
    pub fn vec_to_dot(&self, e: &Edge<VecId>) -> String {
        let mut out = String::from("digraph qmdd {\n  rankdir=TB;\n  node [shape=circle];\n");
        let _ = writeln!(out, "  root [shape=point];");
        let _ = writeln!(
            out,
            "  root -> {} [label=\"{}\"];",
            vec_name(e.n),
            self.weight_label(e.w)
        );
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        let _ = writeln!(out, "  terminal [shape=box, label=\"1\"];");
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.vec_nodes[n.0 as usize];
            let _ = writeln!(out, "  {} [label=\"q{}\"];", vec_name(n), node.var);
            for (i, c) in node.children.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {} -> {} [label=\"{}: {}\"];",
                    vec_name(n),
                    vec_name(c.n),
                    i,
                    self.weight_label(c.w)
                );
                stack.push(c.n);
            }
        }
        out.push_str("}\n");
        out
    }

    /// Renders a matrix DD as Graphviz DOT (children labelled by their
    /// `(row, col)` block as in the paper's Fig. 1b/1c).
    pub fn mat_to_dot(&self, e: &Edge<MatId>) -> String {
        let mut out = String::from("digraph qmdd {\n  rankdir=TB;\n  node [shape=circle];\n");
        let _ = writeln!(out, "  root [shape=point];");
        let _ = writeln!(
            out,
            "  root -> {} [label=\"{}\"];",
            mat_name(e.n),
            self.weight_label(e.w)
        );
        let mut seen = HashSet::new();
        let mut stack = vec![e.n];
        let _ = writeln!(out, "  terminal [shape=box, label=\"1\"];");
        while let Some(n) = stack.pop() {
            if n.is_terminal() || !seen.insert(n) {
                continue;
            }
            let node = self.mat_nodes[n.0 as usize];
            let _ = writeln!(out, "  {} [label=\"q{}\"];", mat_name(n), node.var);
            for (i, c) in node.children.iter().enumerate() {
                if c.is_zero() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {} -> {} [label=\"({},{}): {}\"];",
                    mat_name(n),
                    mat_name(c.n),
                    i >> 1,
                    i & 1,
                    self.weight_label(c.w)
                );
                stack.push(c.n);
            }
        }
        out.push_str("}\n");
        out
    }

    fn weight_label(&self, w: crate::WeightId) -> String {
        let c = self.ctx.to_complex(self.table.get(w));
        // aq-lint: allow(R5): display-only check for an exactly-real weight
        if c.im == 0.0 {
            format!("{:.4}", c.re)
        } else {
            format!("{:.4}{:+.4}i", c.re, c.im)
        }
    }
}

fn vec_name(n: VecId) -> String {
    if n.is_terminal() {
        "terminal".to_string()
    } else {
        format!("v{}", n.0)
    }
}

fn mat_name(n: MatId) -> String {
    if n.is_terminal() {
        "terminal".to_string()
    } else {
        format!("m{}", n.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GateMatrix, QomegaContext};
    use aq_testutil::TestResult;

    #[test]
    fn fig1c_dot_structure() -> TestResult {
        // H ⊗ I₂ — the paper's Fig. 1c: one node per level plus terminal.
        let mut m = Manager::new(QomegaContext::new(), 2);
        let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
        let dot = m.mat_to_dot(&h);
        assert!(dot.contains("label=\"q0\""));
        assert!(dot.contains("label=\"q1\""));
        assert!(dot.contains("0.7071"), "root weight 1/√2 shown: {dot}");
        // the (1,1) block of the root carries weight −1
        assert!(dot.contains("(1,1): -1.0000"), "{dot}");
        assert_eq!(dot.matches("[label=\"q").count(), 2, "two nodes only");
        Ok(())
    }

    #[test]
    fn vector_dot_contains_all_branches() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 2);
        let z = m.try_basis_state(0)?;
        let hd = m.try_gate(&GateMatrix::h(), 1, &[])?;
        let s = m.try_mat_vec(&hd, &z)?;
        let dot = m.vec_to_dot(&s);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("terminal"));
        assert!(dot.contains("0: 1.0000"));
        assert!(dot.contains("1: 1.0000"));
        Ok(())
    }

    #[test]
    fn zero_edge_renders() {
        let m = Manager::new(QomegaContext::new(), 1);
        let dot = m.vec_to_dot(&Edge::ZERO_VEC);
        assert!(dot.contains("root -> terminal"));
    }
}
