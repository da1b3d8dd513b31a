//! Edge-case and failure-injection tests for the QMDD engine.

use aq_dd::{
    Edge, EngineError, GateMatrix, GcdContext, Manager, NumericContext, QomegaContext,
    WeightContext, WeightId,
};
use aq_rings::{Complex64, Qomega};
use aq_testutil::TestResult;

#[test]
#[should_panic(expected = "need at least one qubit")]
fn zero_qubit_manager_rejected() {
    let _ = Manager::new(QomegaContext::new(), 0);
}

#[test]
#[should_panic(expected = "basis state index out of range")]
fn basis_state_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.try_basis_state(4);
}

#[test]
#[should_panic(expected = "unit matrix index out of range")]
fn unit_matrix_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.try_unit_matrix(0, 7);
}

#[test]
#[should_panic(expected = "target out of range")]
fn gate_target_out_of_range() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.try_gate(&GateMatrix::x(), 2, &[]);
}

#[test]
#[should_panic(expected = "control coincides with target")]
fn gate_control_on_target() {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let _ = m.try_gate(&GateMatrix::x(), 1, &[(1, true)]);
}

#[test]
fn measuring_zero_vector_is_impossible() {
    let mut m = Manager::new(QomegaContext::new(), 1);
    assert!(matches!(
        m.try_state_sampler(&Edge::ZERO_VEC),
        Err(EngineError::ImpossibleMeasurement { qubit: 0 })
    ));
}

#[test]
fn interning_zero_always_yields_the_zero_id() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 1);
    assert_eq!(m.try_intern(Qomega::zero())?, WeightId::ZERO);
    let diff = &Qomega::from_int_ratio(2, 7) - &Qomega::from_int_ratio(2, 7);
    assert_eq!(m.try_intern(diff)?, WeightId::ZERO);
    // numeric: ε-close-to-zero collapses too
    let mut n = Manager::new(NumericContext::with_eps(1e-6), 1);
    assert_eq!(n.try_intern(Complex64::new(1e-9, -1e-9))?, WeightId::ZERO);
    Ok(())
}

#[test]
fn scaling_by_zero_gives_the_zero_edge() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 2);
    let s = m.try_basis_state(1)?;
    let z = m.try_vec_scale(&s, WeightId::ZERO)?;
    assert!(z.is_zero());
    let id = m.try_identity()?;
    assert!(m.try_mat_scale(&id, WeightId::ZERO)?.is_zero());
    Ok(())
}

#[test]
fn adding_a_state_to_its_negation_is_zero() -> TestResult {
    let mut m = Manager::new(GcdContext::new(), 3);
    let mut s = m.try_basis_state(5)?;
    for q in 0..3 {
        let h = m.try_gate(&GateMatrix::h(), q, &[])?;
        s = m.try_mat_vec(&h, &s)?;
    }
    let minus_one = {
        let v = m.ctx().neg(&m.ctx().one());
        m.try_intern(v)?
    };
    let neg = m.try_vec_scale(&s, minus_one)?;
    let sum = m.try_vec_add(&s, &neg)?;
    assert!(sum.is_zero(), "ψ − ψ must cancel structurally");
    Ok(())
}

#[test]
fn all_zero_children_normalize_to_zero_edge() -> TestResult {
    // mat_add of x and −x for operators
    let mut m = Manager::new(QomegaContext::new(), 2);
    let g = m.try_gate(&GateMatrix::t(), 0, &[(1, false)])?;
    let minus_one = {
        let v = m.ctx().neg(&m.ctx().one());
        m.try_intern(v)?
    };
    let ng = m.try_mat_scale(&g, minus_one)?;
    assert!(m.try_mat_add(&g, &ng)?.is_zero());
    Ok(())
}

#[test]
fn single_qubit_manager_works() -> TestResult {
    let mut m = Manager::new(NumericContext::new(), 1);
    let s = m.try_basis_state(1)?;
    assert_eq!(m.vec_nodes(&s), 1);
    let x = m.try_gate(&GateMatrix::x(), 0, &[])?;
    let flipped = m.try_mat_vec(&x, &s)?;
    assert!((m.amplitudes(&flipped)[0].re - 1.0).abs() < 1e-15);
    Ok(())
}

#[test]
fn many_controls_mixed_polarities() -> TestResult {
    // X on q3 iff q0=1, q1=0, q2=1 — check the full truth table.
    let mut m = Manager::new(QomegaContext::new(), 4);
    let g = m.try_gate(&GateMatrix::x(), 3, &[(0, true), (1, false), (2, true)])?;
    let mat = m.matrix(&g);
    for input in 0..16usize {
        let fires = (input >> 3) & 1 == 1 && (input >> 2) & 1 == 0 && (input >> 1) & 1 == 1;
        let expected = if fires { input ^ 1 } else { input };
        for (r, row) in mat.iter().enumerate() {
            let want = if r == expected { 1.0 } else { 0.0 };
            assert!(
                (row[input].re - want).abs() < 1e-12 && row[input].im.abs() < 1e-12,
                "input {input:04b}: row {r} = {:?}",
                row[input]
            );
        }
    }
    Ok(())
}

#[test]
fn weight_table_growth_is_observable() -> TestResult {
    // ε = 0: every new double is a new weight; ε = 1e-2: everything merges.
    let run = |eps: f64| -> Result<usize, EngineError> {
        let mut m = Manager::new(NumericContext::with_eps(eps), 4);
        let mut s = m.try_basis_state(0)?;
        for q in 0..4 {
            let h = m.try_gate(&GateMatrix::h(), q, &[])?;
            s = m.try_mat_vec(&h, &s)?;
            let t = m.try_gate(&GateMatrix::t(), q, &[])?;
            s = m.try_mat_vec(&t, &s)?;
        }
        Ok(m.distinct_weights())
    };
    assert!(
        run(0.0)? >= run(1e-2)?,
        "looser ε must not grow the table more"
    );
    Ok(())
}

#[test]
fn wide_register_basis_state_does_not_overflow_the_shift() -> TestResult {
    // 72 qubits: a u64 index only addresses the low 64; the high qubits
    // read as |0⟩ instead of hitting a shift-overflow panic.
    let mut m = Manager::new(QomegaContext::new(), 72);
    let s = m.try_basis_state(5)?;
    assert_eq!(m.vec_nodes(&s), 72);
    assert!((m.amplitude(&s, 5).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&s, 6).re, 0.0);
    // the all-ones u64 index is in range on a wide register
    let top = m.try_basis_state(u64::MAX)?;
    assert!((m.amplitude(&top, u64::MAX).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&top, 0).re, 0.0);
    Ok(())
}

#[test]
fn wide_register_unit_matrix_maps_col_to_row() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 70);
    let u = m.try_unit_matrix(3, 7)?;
    let col = m.try_basis_state(7)?;
    let mapped = m.try_mat_vec(&u, &col)?;
    assert!((m.amplitude(&mapped, 3).re - 1.0).abs() < 1e-15);
    assert_eq!(m.amplitude(&mapped, 7).re, 0.0);
    // gates still apply on a wide register: X on qubit 69 flips index
    // bit 0 (qubit q addresses index bit n−1−q)
    let x = m.try_gate(&GateMatrix::x(), 69, &[])?;
    let flipped = m.try_mat_vec(&x, &mapped)?;
    assert!((m.amplitude(&flipped, 2).re - 1.0).abs() < 1e-15);
    Ok(())
}

#[test]
fn compact_with_matrix_roots() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 3);
    let a = m.try_gate(&GateMatrix::h(), 0, &[])?;
    let b = m.try_gate(&GateMatrix::t(), 2, &[(0, true)])?;
    let prod = m.try_mat_mul(&a, &b)?;
    let before = m.matrix(&prod);
    let (_, ms) = m.try_compact(&[], &[prod])?;
    let after = m.matrix(&ms[0]);
    for (ra, rb) in before.iter().zip(&after) {
        for (x, y) in ra.iter().zip(rb) {
            assert!((*x - *y).abs() < 1e-12);
        }
    }
    Ok(())
}
