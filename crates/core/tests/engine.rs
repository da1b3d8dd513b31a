//! Engine-level tests for the QMDD package: gate semantics, canonicity,
//! agreement between the numeric and both algebraic weight systems.

use aq_dd::{
    Edge, EngineError, GateMatrix, GcdContext, Manager, MatId, NormScheme, NumericContext,
    QomegaContext, VecId, WeightContext,
};
use aq_rings::Complex64;
use aq_testutil::TestResult;

/// `(gate, target, controls)` triple used throughout these tests.
type GateSpec = (GateMatrix, u32, Vec<(u32, bool)>);

const EPS: f64 = 1e-10;

fn assert_matrix_close(got: &[Vec<Complex64>], want: &[Vec<Complex64>]) {
    assert_eq!(got.len(), want.len());
    for (gr, wr) in got.iter().zip(want) {
        for (g, w) in gr.iter().zip(wr) {
            assert!((*g - *w).abs() < EPS, "entry {g:?} vs {w:?}");
        }
    }
}

fn run_for_all_contexts(
    f: impl Fn(&mut dyn FnMut(u32) -> Box<dyn ContextRunner>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let mut make: Box<dyn FnMut(u32) -> Box<dyn ContextRunner>> =
        Box::new(|n| Box::new(Runner::new(NumericContext::new(), n)));
    f(&mut make)?;
    let mut make: Box<dyn FnMut(u32) -> Box<dyn ContextRunner>> =
        Box::new(|n| Box::new(Runner::new(QomegaContext::new(), n)));
    f(&mut make)?;
    let mut make: Box<dyn FnMut(u32) -> Box<dyn ContextRunner>> =
        Box::new(|n| Box::new(Runner::new(GcdContext::new(), n)));
    f(&mut make)
}

/// Object-safe wrapper so the same test body runs over every context.
trait ContextRunner {
    fn basis(&mut self, idx: u64) -> Result<(usize, usize), EngineError>;
    fn apply_and_amplitudes(
        &mut self,
        ops: &[GateSpec],
        start: u64,
    ) -> Result<Vec<Complex64>, EngineError>;
    fn gate_matrix(
        &mut self,
        g: &GateMatrix,
        t: u32,
        c: &[(u32, bool)],
    ) -> Result<Vec<Vec<Complex64>>, EngineError>;
    fn circuits_equal(&mut self, a: &[GateSpec], b: &[GateSpec]) -> Result<bool, EngineError>;
}

struct Runner<W: WeightContext> {
    m: Manager<W>,
}

impl<W: WeightContext> Runner<W> {
    fn new(ctx: W, n: u32) -> Self {
        Runner {
            m: Manager::new(ctx, n),
        }
    }

    fn build_unitary(&mut self, ops: &[GateSpec]) -> Result<Edge<MatId>, EngineError> {
        let mut u = self.m.try_identity()?;
        for (g, t, c) in ops {
            let gd = self.m.try_gate(g, *t, c)?;
            u = self.m.try_mat_mul(&gd, &u)?;
        }
        Ok(u)
    }
}

impl<W: WeightContext> ContextRunner for Runner<W> {
    fn basis(&mut self, idx: u64) -> Result<(usize, usize), EngineError> {
        let e = self.m.try_basis_state(idx)?;
        Ok((self.m.vec_nodes(&e), self.m.distinct_weights()))
    }

    fn apply_and_amplitudes(
        &mut self,
        ops: &[GateSpec],
        start: u64,
    ) -> Result<Vec<Complex64>, EngineError> {
        let mut state: Edge<VecId> = self.m.try_basis_state(start)?;
        for (g, t, c) in ops {
            let gd = self.m.try_gate(g, *t, c)?;
            state = self.m.try_mat_vec(&gd, &state)?;
        }
        Ok(self.m.amplitudes(&state))
    }

    fn gate_matrix(
        &mut self,
        g: &GateMatrix,
        t: u32,
        c: &[(u32, bool)],
    ) -> Result<Vec<Vec<Complex64>>, EngineError> {
        let e = self.m.try_gate(g, t, c)?;
        Ok(self.m.matrix(&e))
    }

    fn circuits_equal(&mut self, a: &[GateSpec], b: &[GateSpec]) -> Result<bool, EngineError> {
        let ua = self.build_unitary(a)?;
        let ub = self.build_unitary(b)?;
        Ok(ua == ub) // O(1) root comparison — canonicity
    }
}

#[test]
fn basis_states_have_n_nodes() -> TestResult {
    run_for_all_contexts(|make| {
        let mut r = make(4);
        let (nodes, _) = r.basis(0b1010)?;
        assert_eq!(nodes, 4);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn single_qubit_gate_matrices() -> TestResult {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let cases: Vec<(GateMatrix, Vec<Vec<Complex64>>)> = vec![
        (
            GateMatrix::h(),
            vec![
                vec![Complex64::new(s, 0.0), Complex64::new(s, 0.0)],
                vec![Complex64::new(s, 0.0), Complex64::new(-s, 0.0)],
            ],
        ),
        (
            GateMatrix::x(),
            vec![
                vec![Complex64::ZERO, Complex64::ONE],
                vec![Complex64::ONE, Complex64::ZERO],
            ],
        ),
        (
            GateMatrix::y(),
            vec![
                vec![Complex64::ZERO, Complex64::new(0.0, -1.0)],
                vec![Complex64::I, Complex64::ZERO],
            ],
        ),
        (
            GateMatrix::z(),
            vec![
                vec![Complex64::ONE, Complex64::ZERO],
                vec![Complex64::ZERO, Complex64::new(-1.0, 0.0)],
            ],
        ),
        (
            GateMatrix::t(),
            vec![
                vec![Complex64::ONE, Complex64::ZERO],
                vec![Complex64::ZERO, Complex64::new(s, s)],
            ],
        ),
        (
            GateMatrix::s(),
            vec![
                vec![Complex64::ONE, Complex64::ZERO],
                vec![Complex64::ZERO, Complex64::I],
            ],
        ),
    ];
    run_for_all_contexts(|make| {
        for (g, want) in &cases {
            let mut r = make(1);
            let got = r.gate_matrix(g, 0, &[])?;
            assert_matrix_close(&got, want);
        }
        Ok(())
    })?;
    Ok(())
}

#[test]
fn fig1_h_tensor_i_has_one_node_per_level() -> TestResult {
    // Fig. 1 of the paper: U = H ⊗ I₂ is one node per level in a QMDD.
    run_for_all_contexts(|make| {
        let mut r = make(2);
        let got = r.gate_matrix(&GateMatrix::h(), 0, &[])?;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let want = vec![
            vec![
                Complex64::new(s, 0.0),
                Complex64::ZERO,
                Complex64::new(s, 0.0),
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::new(s, 0.0),
                Complex64::ZERO,
                Complex64::new(s, 0.0),
            ],
            vec![
                Complex64::new(s, 0.0),
                Complex64::ZERO,
                Complex64::new(-s, 0.0),
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::new(s, 0.0),
                Complex64::ZERO,
                Complex64::new(-s, 0.0),
            ],
        ];
        assert_matrix_close(&got, &want);
        Ok(())
    })?;
    // node count: exactly 2 (checked in the crate doc example as well)
    let mut m = Manager::new(QomegaContext::new(), 2);
    let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    assert_eq!(m.mat_nodes(&h), 2);
    Ok(())
}

#[test]
fn cnot_matrix_matches_paper_example_2() -> TestResult {
    run_for_all_contexts(|make| {
        let mut r = make(2);
        let got = r.gate_matrix(&GateMatrix::x(), 1, &[(0, true)])?;
        let want = vec![
            vec![
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
            ],
        ];
        assert_matrix_close(&got, &want);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn control_below_target_works() -> TestResult {
    // CNOT with control qubit 1, target qubit 0: |x,y⟩ ↦ |x⊕y, y⟩
    run_for_all_contexts(|make| {
        let mut r = make(2);
        let got = r.gate_matrix(&GateMatrix::x(), 0, &[(1, true)])?;
        let want = vec![
            vec![
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
        ];
        assert_matrix_close(&got, &want);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn negative_control() -> TestResult {
    // X on target 1 when control 0 is |0⟩
    run_for_all_contexts(|make| {
        let mut r = make(2);
        let got = r.gate_matrix(&GateMatrix::x(), 1, &[(0, false)])?;
        let want = vec![
            vec![
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
                Complex64::ZERO,
            ],
            vec![
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::ONE,
            ],
        ];
        assert_matrix_close(&got, &want);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn toffoli_truth_table() -> TestResult {
    run_for_all_contexts(|make| {
        for input in 0u64..8 {
            let mut r = make(3);
            let amps =
                r.apply_and_amplitudes(&[(GateMatrix::x(), 2, vec![(0, true), (1, true)])], input)?;
            let expected = if input >> 1 == 0b11 { input ^ 1 } else { input };
            for (i, a) in amps.iter().enumerate() {
                let want = if i as u64 == expected { 1.0 } else { 0.0 };
                assert!(
                    (a.re - want).abs() < EPS && a.im.abs() < EPS,
                    "input {input}: amplitude {i} = {a:?}"
                );
            }
        }
        Ok(())
    })?;
    Ok(())
}

#[test]
fn ghz_state_all_contexts() -> TestResult {
    run_for_all_contexts(|make| {
        let mut r = make(3);
        let amps = r.apply_and_amplitudes(
            &[
                (GateMatrix::h(), 0, vec![]),
                (GateMatrix::x(), 1, vec![(0, true)]),
                (GateMatrix::x(), 2, vec![(1, true)]),
            ],
            0,
        )?;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0].re - s).abs() < EPS);
        assert!((amps[7].re - s).abs() < EPS);
        for a in &amps[1..7] {
            assert!(a.abs() < EPS);
        }
        Ok(())
    })?;
    Ok(())
}

#[test]
fn hh_not_identity_under_exact_floating_point() -> TestResult {
    // The trade-off of Sec. III in miniature: with ε = 0, the floating
    // point (1/√2)² + (1/√2)² = 0.999…8 ≠ 1, so HH fails to equal I —
    // while every algebraic manager (and a tolerant numeric one) gets it.
    let mut r = Runner::new(NumericContext::new(), 1);
    assert!(!r.circuits_equal(
        &[(GateMatrix::h(), 0, vec![]), (GateMatrix::h(), 0, vec![])],
        &[],
    )?);
    Ok(())
}

#[test]
fn hh_equals_identity_via_root_comparison() -> TestResult {
    // Tolerant numeric + both exact contexts recognise the identities.
    let mut runners: Vec<Box<dyn ContextRunner>> = vec![
        Box::new(Runner::new(NumericContext::with_eps(1e-12), 3)),
        Box::new(Runner::new(QomegaContext::new(), 3)),
        Box::new(Runner::new(GcdContext::new(), 3)),
    ];
    for r in &mut runners {
        assert!(r.circuits_equal(
            &[(GateMatrix::h(), 1, vec![]), (GateMatrix::h(), 1, vec![]),],
            &[],
        )?);
        // HZH = X — a classic Clifford identity, checked in O(1)
        assert!(r.circuits_equal(
            &[
                (GateMatrix::h(), 0, vec![]),
                (GateMatrix::z(), 0, vec![]),
                (GateMatrix::h(), 0, vec![]),
            ],
            &[(GateMatrix::x(), 0, vec![])],
        )?);
        // T⁴ = Z
        assert!(r.circuits_equal(
            &[
                (GateMatrix::t(), 2, vec![]),
                (GateMatrix::t(), 2, vec![]),
                (GateMatrix::t(), 2, vec![]),
                (GateMatrix::t(), 2, vec![]),
            ],
            &[(GateMatrix::z(), 2, vec![])],
        )?);
        // and something that must differ
        assert!(!r.circuits_equal(
            &[(GateMatrix::t(), 0, vec![])],
            &[(GateMatrix::s(), 0, vec![])],
        )?);
    }
    Ok(())
}

#[test]
fn sx_squares_to_x() -> TestResult {
    run_for_all_contexts(|make| {
        let mut r = make(1);
        assert!(r.circuits_equal(
            &[(GateMatrix::sx(), 0, vec![]), (GateMatrix::sx(), 0, vec![]),],
            &[(GateMatrix::x(), 0, vec![])],
        )?);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn numeric_rotations_compose() -> TestResult {
    // Rz(a)·Rz(b) = Rz(a+b) — numeric context only.
    let mut m = Manager::new(NumericContext::with_eps(1e-12), 2);
    let a = m.try_gate(&GateMatrix::rz(0.3), 0, &[])?;
    let b = m.try_gate(&GateMatrix::rz(0.4), 0, &[])?;
    let ab = m.try_mat_mul(&a, &b)?;
    let want = m.try_gate(&GateMatrix::rz(0.7), 0, &[])?;
    assert_eq!(
        ab, want,
        "ε-tolerant manager should identify Rz(0.3+0.4) with Rz(0.7)"
    );
    Ok(())
}

#[test]
fn algebraic_contexts_reject_rotations() {
    let mut m = Manager::new(QomegaContext::new(), 1);
    assert!(m.try_gate(&GateMatrix::rz(0.123), 0, &[]).is_err());
    // …but π/4 multiples are exact:
    assert!(m
        .try_gate(&GateMatrix::phase(std::f64::consts::FRAC_PI_4), 0, &[])
        .is_ok());
    let mut g = Manager::new(GcdContext::new(), 1);
    assert!(g.try_gate(&GateMatrix::ry(1.0), 0, &[]).is_err());
}

#[test]
fn swap_permutes_basis_states() -> TestResult {
    run_for_all_contexts(|make| {
        // swap is built from 3 CNOTs; verify on |01⟩ → |10⟩ via circuits
        let mut r = make(2);
        let amps = r.apply_and_amplitudes(
            &[
                (GateMatrix::x(), 1, vec![]), // |01⟩
                (GateMatrix::x(), 1, vec![(0, true)]),
                (GateMatrix::x(), 0, vec![(1, true)]),
                (GateMatrix::x(), 1, vec![(0, true)]),
            ],
            0,
        )?;
        assert!((amps[0b10].re - 1.0).abs() < EPS);
        Ok(())
    })?;
    Ok(())
}

#[test]
fn three_cnots_swap_the_outer_qubits() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 3);
    let x = GateMatrix::x();
    let c1 = m.try_gate(&x, 2, &[(0, true)])?;
    let c2 = m.try_gate(&x, 0, &[(2, true)])?;
    let t0 = m.try_mat_mul(&c2, &c1)?;
    let sw = m.try_mat_mul(&c1, &t0)?;
    // |abc⟩ ↦ |cba⟩: a permutation matrix with exactly these ones
    let mat = m.matrix(&sw);
    for col in 0..8usize {
        let row = (col & 0b010) | (col >> 2) | ((col & 1) << 2);
        for (r, entries) in mat.iter().enumerate() {
            let want = if r == row { 1.0 } else { 0.0 };
            assert!((entries[col] - Complex64::new(want, 0.0)).abs() < EPS);
        }
    }
    Ok(())
}

#[test]
fn compact_preserves_structure_and_frees_garbage() -> TestResult {
    let mut m = Manager::new(NumericContext::new(), 5);
    let mut state = m.try_basis_state(0)?;
    let h = GateMatrix::h();
    for q in 0..5 {
        let g = m.try_gate(&h, q, &[])?;
        state = m.try_mat_vec(&g, &state)?;
    }
    let amps_before = m.amplitudes(&state);
    let nodes_before = m.vec_nodes(&state);
    let allocated_before = m.allocated_nodes();

    let (vs, _) = m.try_compact(&[state], &[])?;
    let state = vs[0];
    assert_eq!(m.vec_nodes(&state), nodes_before);
    assert!(m.allocated_nodes() <= allocated_before);
    let amps_after = m.amplitudes(&state);
    for (a, b) in amps_before.iter().zip(&amps_after) {
        assert!((*a - *b).abs() < EPS);
    }
    Ok(())
}

#[test]
fn uniform_superposition_is_one_node_per_level() -> TestResult {
    // H^⊗n |0…0⟩ has maximal redundancy: a single node per level.
    run_for_all_contexts(|make| {
        let mut r = make(6);
        let amps = r.apply_and_amplitudes(
            &(0..6)
                .map(|q| (GateMatrix::h(), q, vec![]))
                .collect::<Vec<_>>(),
            0,
        )?;
        let want = 1.0 / 8.0;
        for a in amps {
            assert!((a.re - want).abs() < EPS && a.im.abs() < EPS);
        }
        Ok(())
    })?;
    let mut m = Manager::new(QomegaContext::new(), 6);
    let mut state = m.try_basis_state(0)?;
    for q in 0..6 {
        let g = m.try_gate(&GateMatrix::h(), q, &[])?;
        state = m.try_mat_vec(&g, &state)?;
    }
    assert_eq!(m.vec_nodes(&state), 6);
    Ok(())
}

#[test]
fn max_magnitude_scheme_matches_leftmost_values() -> TestResult {
    let mut a = Manager::new(
        NumericContext::with_eps_and_scheme(0.0, NormScheme::Leftmost),
        3,
    );
    let mut b = Manager::new(
        NumericContext::with_eps_and_scheme(0.0, NormScheme::MaxMagnitude),
        3,
    );
    let ops = [
        (GateMatrix::h(), 0u32),
        (GateMatrix::t(), 1u32),
        (GateMatrix::h(), 2u32),
        (GateMatrix::y(), 1u32),
    ];
    let mut sa = a.try_basis_state(3)?;
    let mut sb = b.try_basis_state(3)?;
    for (g, q) in &ops {
        let ga = a.try_gate(g, *q, &[])?;
        sa = a.try_mat_vec(&ga, &sa)?;
        let gb = b.try_gate(g, *q, &[])?;
        sb = b.try_mat_vec(&gb, &sb)?;
    }
    let va = a.amplitudes(&sa);
    let vb = b.amplitudes(&sb);
    for (x, y) in va.iter().zip(&vb) {
        assert!((*x - *y).abs() < EPS, "{x:?} vs {y:?}");
    }
    Ok(())
}

#[test]
fn zero_tolerance_blowup_vs_tolerant_compactness() -> TestResult {
    // The accuracy/compactness trade-off in miniature: repeated H-pairs on
    // all qubits keep an exact manager's state at n nodes, while ε = 0
    // floating point may (and typically does) accumulate distinct weights.
    let n = 8;
    let mut exact = Manager::new(QomegaContext::new(), n);
    let mut state = exact.try_basis_state(0)?;
    for round in 0..4 {
        let _ = round;
        for q in 0..n {
            let g = exact.try_gate(&GateMatrix::h(), q, &[])?;
            state = exact.try_mat_vec(&g, &state)?;
            let g2 = exact.try_gate(&GateMatrix::t(), q, &[])?;
            state = exact.try_mat_vec(&g2, &state)?;
        }
    }
    // exact representation recognises every redundancy
    assert!(exact.vec_nodes(&state) <= n as usize);
    Ok(())
}

#[test]
fn session_reset_reproduces_cold_results_bit_identically() -> Result<(), EngineError> {
    // A worker session resets its manager between jobs instead of building
    // a fresh one. The contract: after `reset_session`, every result is
    // bit-identical to a cold manager's, and every statistic except the
    // (possibly inherited-larger) unique-table capacities matches too.
    fn check<W: WeightContext>(make: &dyn Fn() -> W) -> Result<(), EngineError> {
        let ops: Vec<GateSpec> = vec![
            (GateMatrix::h(), 0, vec![]),
            (GateMatrix::x(), 2, vec![(0, true)]),
            (GateMatrix::t(), 1, vec![]),
            (GateMatrix::h(), 1, vec![]),
            (GateMatrix::x(), 1, vec![(2, true)]),
        ];
        let apply = |m: &mut Manager<W>| -> Result<Vec<Complex64>, EngineError> {
            let mut s = m.try_basis_state(0)?;
            for (g, t, c) in &ops {
                let gd = m.try_gate(g, *t, c)?;
                s = m.try_mat_vec(&gd, &s)?;
            }
            Ok(m.amplitudes(&s))
        };
        let mut cold = Manager::new(make(), 3);
        let cold_amps = apply(&mut cold)?;
        let cold_stats = cold.statistics();

        // dirty an unrelated-shaped manager, then reset it for the job
        let mut warm = Manager::new(make(), 2);
        let mut s = warm.try_basis_state(1)?;
        for q in 0..2 {
            let g = warm.try_gate(&GateMatrix::h(), q, &[])?;
            s = warm.try_mat_vec(&g, &s)?;
        }
        warm.reset_session(make(), 3);
        let warm_amps = apply(&mut warm)?;
        let warm_stats = warm.statistics();

        assert_eq!(cold_amps.len(), warm_amps.len());
        for (a, b) in cold_amps.iter().zip(&warm_amps) {
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "{a:?} vs {b:?}");
        }
        // Everything but the capacity gauges must match a cold run exactly.
        let mut masked = warm_stats;
        masked.vec_unique_capacity = cold_stats.vec_unique_capacity;
        masked.mat_unique_capacity = cold_stats.mat_unique_capacity;
        assert_eq!(masked, cold_stats, "warm-vs-cold statistics diverged");
        assert!(warm.retained_capacity() >= cold.retained_capacity());
        Ok(())
    }
    check(&NumericContext::new)?;
    check(&QomegaContext::new)?;
    check(&GcdContext::new)
}
