//! Property tests for the QMDD engine: random Clifford+T circuits must
//! produce identical states across all three weight systems, preserve
//! norms, and satisfy canonicity invariants.

use aq_dd::{
    Edge, EngineError, GateMatrix, GcdContext, Manager, NumericContext, QomegaContext, VecId,
    WeightContext,
};
use aq_testutil::proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    H(u32),
    X(u32),
    Y(u32),
    Z(u32),
    S(u32),
    T(u32),
    Tdg(u32),
    Cx(u32, u32),
    Ccx(u32, u32, u32),
}

fn op(n: u32) -> impl Strategy<Value = Op> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::X),
        q.clone().prop_map(Op::Y),
        q.clone().prop_map(Op::Z),
        q.clone().prop_map(Op::S),
        q.clone().prop_map(Op::T),
        q.clone().prop_map(Op::Tdg),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(Op::Cx(a, b))),
        (0..n, 0..n, 0..n).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then_some(Op::Ccx(a, b, c))
        }),
    ]
}

fn apply<W: WeightContext>(
    m: &mut Manager<W>,
    state: Edge<VecId>,
    o: &Op,
) -> Result<Edge<VecId>, EngineError> {
    let (g, t, c): (GateMatrix, u32, Vec<(u32, bool)>) = match o {
        Op::H(q) => (GateMatrix::h(), *q, vec![]),
        Op::X(q) => (GateMatrix::x(), *q, vec![]),
        Op::Y(q) => (GateMatrix::y(), *q, vec![]),
        Op::Z(q) => (GateMatrix::z(), *q, vec![]),
        Op::S(q) => (GateMatrix::s(), *q, vec![]),
        Op::T(q) => (GateMatrix::t(), *q, vec![]),
        Op::Tdg(q) => (GateMatrix::tdg(), *q, vec![]),
        Op::Cx(c0, t0) => (GateMatrix::x(), *t0, vec![(*c0, true)]),
        Op::Ccx(c0, c1, t0) => (GateMatrix::x(), *t0, vec![(*c0, true), (*c1, true)]),
    };
    let gd = m.try_gate(&g, t, &c)?;
    m.try_mat_vec(&gd, &state)
}

const N: u32 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_contexts_agree_on_amplitudes(ops in prop::collection::vec(op(N), 0..25), start in 0u64..16) {
        let mut nm = Manager::new(NumericContext::with_eps(1e-13), N);
        let mut qm = Manager::new(QomegaContext::new(), N);
        let mut gm = Manager::new(GcdContext::new(), N);
        let mut sn = nm.try_basis_state(start)?;
        let mut sq = qm.try_basis_state(start)?;
        let mut sg = gm.try_basis_state(start)?;
        for o in &ops {
            sn = apply(&mut nm, sn, o)?;
            sq = apply(&mut qm, sq, o)?;
            sg = apply(&mut gm, sg, o)?;
        }
        let an = nm.amplitudes(&sn);
        let aq = qm.amplitudes(&sq);
        let ag = gm.amplitudes(&sg);
        for i in 0..an.len() {
            prop_assert!((an[i] - aq[i]).abs() < 1e-9, "numeric vs Qω at {i}: {:?} vs {:?}", an[i], aq[i]);
            prop_assert!((aq[i] - ag[i]).abs() < 1e-12, "Qω vs GCD at {i}: {:?} vs {:?}", aq[i], ag[i]);
        }
    }

    #[test]
    fn unitarity_preserves_norm(ops in prop::collection::vec(op(N), 0..30), start in 0u64..16) {
        let mut m = Manager::new(QomegaContext::new(), N);
        let mut s = m.try_basis_state(start)?;
        for o in &ops {
            s = apply(&mut m, s, o)?;
        }
        let norm = m.norm_sqr(&s);
        prop_assert!((norm - 1.0).abs() < 1e-10, "norm drifted: {norm}");
    }

    #[test]
    fn canonicity_same_state_same_edge(ops in prop::collection::vec(op(N), 0..15), start in 0u64..16) {
        // Build the same state twice in one manager: edges must be equal.
        let mut m = Manager::new(QomegaContext::new(), N);
        let mut s1 = m.try_basis_state(start)?;
        let mut s2 = m.try_basis_state(start)?;
        for o in &ops {
            s1 = apply(&mut m, s1, o)?;
        }
        for o in &ops {
            s2 = apply(&mut m, s2, o)?;
        }
        prop_assert_eq!(s1, s2);
    }

    #[test]
    fn gcd_and_qomega_node_counts_match(ops in prop::collection::vec(op(N), 0..20), start in 0u64..16) {
        // Both algebraic schemes detect exactly the real redundancies, so
        // their diagrams have identical size (only weights differ).
        let mut qm = Manager::new(QomegaContext::new(), N);
        let mut gm = Manager::new(GcdContext::new(), N);
        let mut sq = qm.try_basis_state(start)?;
        let mut sg = gm.try_basis_state(start)?;
        for o in &ops {
            sq = apply(&mut qm, sq, o)?;
            sg = apply(&mut gm, sg, o)?;
        }
        prop_assert_eq!(qm.vec_nodes(&sq), gm.vec_nodes(&sg));
    }

    #[test]
    fn compact_is_semantically_identity(ops in prop::collection::vec(op(N), 0..20)) {
        let mut m = Manager::new(GcdContext::new(), N);
        let mut s = m.try_basis_state(0)?;
        for o in &ops {
            s = apply(&mut m, s, o)?;
        }
        let before = m.amplitudes(&s);
        let nodes_before = m.vec_nodes(&s);
        let (vs, _) = m.try_compact(&[s], &[])?;
        let after = m.amplitudes(&vs[0]);
        prop_assert_eq!(m.vec_nodes(&vs[0]), nodes_before);
        for (a, b) in before.iter().zip(&after) {
            prop_assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn mat_mul_matches_sequential_application(ops in prop::collection::vec(op(3), 1..10), start in 0u64..8) {
        // (G_k ⋯ G_1)|ψ⟩ built as one operator equals step-by-step application.
        let mut m = Manager::new(QomegaContext::new(), 3);
        let mut u = m.try_identity()?;
        let mut s_seq = m.try_basis_state(start)?;
        for o in &ops {
            s_seq = apply(&mut m, s_seq, o)?;
            let g = match o {
                Op::H(q) => m.try_gate(&GateMatrix::h(), *q, &[])?,
                Op::X(q) => m.try_gate(&GateMatrix::x(), *q, &[])?,
                Op::Y(q) => m.try_gate(&GateMatrix::y(), *q, &[])?,
                Op::Z(q) => m.try_gate(&GateMatrix::z(), *q, &[])?,
                Op::S(q) => m.try_gate(&GateMatrix::s(), *q, &[])?,
                Op::T(q) => m.try_gate(&GateMatrix::t(), *q, &[])?,
                Op::Tdg(q) => m.try_gate(&GateMatrix::tdg(), *q, &[])?,
                Op::Cx(c, t) => m.try_gate(&GateMatrix::x(), *t, &[(*c, true)])?,
                Op::Ccx(c0, c1, t) => m.try_gate(&GateMatrix::x(), *t, &[(*c0, true), (*c1, true)])?,
            };
            u = m.try_mat_mul(&g, &u)?;
        }
        let basis = m.try_basis_state(start)?;
        let s_mat = m.try_mat_vec(&u, &basis)?;
        prop_assert_eq!(s_mat, s_seq, "canonicity: same state must be the same edge");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn inner_products_are_unitarily_invariant(ops in prop::collection::vec(op(3), 0..12), x in 0u64..8, y in 0u64..8) {
        // ⟨Ua|Ub⟩ = ⟨a|b⟩ for any circuit unitary U, exactly.
        let mut m = Manager::new(QomegaContext::new(), 3);
        let mut a = m.try_basis_state(x)?;
        let mut b = m.try_basis_state(y)?;
        let before = m.inner_product(&a, &b);
        for o in &ops {
            a = apply(&mut m, a, o)?;
            b = apply(&mut m, b, o)?;
        }
        let after = m.inner_product(&a, &b);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn adjoint_is_an_involution_on_random_unitaries(ops in prop::collection::vec(op(3), 1..10)) {
        let mut m = Manager::new(QomegaContext::new(), 3);
        let mut u = m.try_identity()?;
        for o in &ops {
            u = {
                let g = match o {
                    Op::H(q) => m.try_gate(&GateMatrix::h(), *q, &[])?,
                    Op::X(q) => m.try_gate(&GateMatrix::x(), *q, &[])?,
                    Op::Y(q) => m.try_gate(&GateMatrix::y(), *q, &[])?,
                    Op::Z(q) => m.try_gate(&GateMatrix::z(), *q, &[])?,
                    Op::S(q) => m.try_gate(&GateMatrix::s(), *q, &[])?,
                    Op::T(q) => m.try_gate(&GateMatrix::t(), *q, &[])?,
                    Op::Tdg(q) => m.try_gate(&GateMatrix::tdg(), *q, &[])?,
                    Op::Cx(c, t) => m.try_gate(&GateMatrix::x(), *t, &[(*c, true)])?,
                    Op::Ccx(c0, c1, t) => {
                        m.try_gate(&GateMatrix::x(), *t, &[(*c0, true), (*c1, true)])?
                    }
                };
                m.try_mat_mul(&g, &u)?
            };
        }
        let dag = m.mat_adjoint(&u)?;
        let back = m.mat_adjoint(&dag)?;
        prop_assert_eq!(back, u);
        // and unitarity: U·U† = I
        let prod = m.try_mat_mul(&u, &dag)?;
        let id = m.try_identity()?;
        prop_assert_eq!(prod, id);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gate_builder_matches_dense_construction(
        target in 0u32..4,
        controls in prop::collection::vec((0u32..4, any::<bool>()), 0..3),
        gate_pick in 0usize..6,
    ) {
        // deduplicate controls and drop ones colliding with the target
        let mut seen = std::collections::HashSet::new();
        let controls: Vec<(u32, bool)> = controls
            .into_iter()
            .filter(|&(q, _)| q != target && seen.insert(q))
            .collect();
        let gate = match gate_pick {
            0 => GateMatrix::h(),
            1 => GateMatrix::x(),
            2 => GateMatrix::y(),
            3 => GateMatrix::t(),
            4 => GateMatrix::sx(),
            _ => GateMatrix::sdg(),
        };
        let n = 4u32;
        let mut m = Manager::new(NumericContext::with_eps(1e-13), n);
        let e = m.try_gate(&gate, target, &controls)?;
        let got = m.matrix(&e);

        // dense construction straight from the definition
        let u = gate.to_complex();
        let dim = 1usize << n;
        let tbit = 1usize << (n - 1 - target);
        #[allow(clippy::needless_range_loop)] // row/col are basis states, not just indices
        for col in 0..dim {
            let fires = controls.iter().all(|&(c, pol)| {
                ((col >> (n - 1 - c)) & 1 == 1) == pol
            });
            for row in 0..dim {
                let want = if !fires {
                    if row == col { aq_rings::Complex64::ONE } else { aq_rings::Complex64::ZERO }
                } else if row & !tbit == col & !tbit {
                    let r = usize::from(row & tbit != 0);
                    let c = usize::from(col & tbit != 0);
                    u[2 * r + c]
                } else {
                    aq_rings::Complex64::ZERO
                };
                prop_assert!(
                    (got[row][col] - want).abs() < 1e-10,
                    "entry ({row},{col}): {:?} vs {want:?}",
                    got[row][col]
                );
            }
        }
    }
}
