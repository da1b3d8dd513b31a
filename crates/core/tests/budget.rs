//! Resource-budget behaviour: `try_*` operations must return structured
//! [`EngineError`]s when a [`RunBudget`] limit is crossed, leaving the
//! manager's live diagrams intact for partial-result extraction.

use std::time::Duration;

use aq_dd::{
    Edge, EngineError, GateMatrix, Manager, NumericContext, QomegaContext, RunBudget, VecId,
    WeightContext,
};
use aq_testutil::TestResult;

/// Runs H/T layers until an operation fails, returning the error and the
/// last fully-applied state.
fn step_until_abort<W: WeightContext>(
    m: &mut Manager<W>,
    max_layers: usize,
) -> (Option<EngineError>, Edge<VecId>) {
    let mut state = m.try_basis_state(0).expect("start state within budget");
    for layer in 0..max_layers {
        // H then T on the same qubit, cycling qubits: (TH)^k per qubit
        // grows both entanglement (nodes) and coefficient bit-widths
        let q = ((layer / 2) % m.n_qubits() as usize) as u32;
        let gate = if layer % 2 == 0 {
            GateMatrix::h()
        } else {
            GateMatrix::t()
        };
        let g = match m.try_gate(&gate, q, &[]) {
            Ok(g) => g,
            Err(e) => return (Some(e), state),
        };
        match m.try_mat_vec(&g, &state) {
            Ok(next) => state = next,
            Err(e) => return (Some(e), state),
        }
    }
    (None, state)
}

#[test]
fn node_budget_aborts_with_structured_error() {
    let mut m = Manager::new(QomegaContext::new(), 6);
    m.set_budget(RunBudget::unlimited().with_max_nodes(10));
    let (err, state) = step_until_abort(&mut m, 200);
    let err = err.expect("tiny node budget must trip");
    assert!(err.is_budget(), "budget error expected, got {err}");
    assert!(
        err.to_string().contains("node budget exceeded"),
        "got: {err}"
    );
    // the last good state is still readable — fail-soft, not poisoned
    let probs: f64 = m.amplitudes(&state).iter().map(|a| a.norm_sqr()).sum();
    assert!((probs - 1.0).abs() < 1e-9, "partial state must stay unit");
}

#[test]
fn weight_budget_aborts_with_structured_error() {
    let mut m = Manager::new(NumericContext::with_eps(0.0), 4);
    m.set_budget(RunBudget::unlimited().with_max_distinct_weights(6));
    let (err, _) = step_until_abort(&mut m, 400);
    let err = err.expect("ε = 0 grows distinct weights without bound");
    assert!(err.is_budget());
    assert!(
        err.to_string().contains("weight budget exceeded"),
        "got: {err}"
    );
}

#[test]
fn weight_bits_budget_aborts_with_structured_error() {
    // exact H/T layers grow coefficient bit-widths monotonically — the
    // blow-up the paper's Fig. 5 measures. A tiny cap must trip.
    let mut m = Manager::new(QomegaContext::new(), 4);
    m.set_budget(RunBudget::unlimited().with_max_weight_bits(6));
    let (err, _) = step_until_abort(&mut m, 400);
    let err = err.expect("algebraic bit-widths grow without bound");
    assert!(err.is_budget());
    assert!(
        err.to_string().contains("weight bit-width budget exceeded"),
        "got: {err}"
    );
}

#[test]
fn expired_deadline_fails_the_first_operation() {
    let mut m = Manager::new(QomegaContext::new(), 4);
    m.set_budget(RunBudget::unlimited().with_deadline(Duration::ZERO));
    let err = m
        .try_basis_state(0)
        .expect_err("zero deadline must fail fast");
    assert!(err.is_budget());
    assert!(err.to_string().contains("deadline exceeded"), "got: {err}");
}

#[test]
fn lifting_the_budget_resumes_the_same_manager() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 6);
    m.set_budget(RunBudget::unlimited().with_max_nodes(10));
    let (err, state) = step_until_abort(&mut m, 200);
    assert!(err.is_some());
    // lift the budget: the identical manager (tables, caches, diagrams)
    // keeps working — aborts never poison engine state
    m.set_budget(RunBudget::unlimited());
    let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    let next = m.try_mat_vec(&h, &state)?;
    let probs: f64 = m.amplitudes(&next).iter().map(|a| a.norm_sqr()).sum();
    assert!((probs - 1.0).abs() < 1e-9);
    Ok(())
}

#[test]
fn failed_compaction_leaves_roots_valid() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 5);
    let mut state = m.try_basis_state(0)?;
    for q in 0..5 {
        let h = m.try_gate(&GateMatrix::h(), q, &[])?;
        state = m.try_mat_vec(&h, &state)?;
    }
    let before = m.amplitudes(&state);
    // a budget too small for even the live set: compaction must abort
    // atomically, leaving the old arenas (and the root) untouched
    m.set_budget(RunBudget::unlimited().with_max_nodes(1));
    let err = m
        .try_compact(&[state], &[])
        .expect_err("live set exceeds the budget");
    assert!(err.is_budget());
    m.set_budget(RunBudget::unlimited());
    let after = m.amplitudes(&state);
    assert_eq!(before.len(), after.len());
    for (x, y) in before.iter().zip(&after) {
        assert!(
            (*x - *y).norm_sqr() < 1e-24,
            "roots must survive a failed compact"
        );
    }
    Ok(())
}

#[test]
fn adjoint_under_a_crossed_budget_returns_the_error() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 3);
    let t = m.try_gate(&GateMatrix::t(), 2, &[(0, true)])?;
    m.set_budget(RunBudget::unlimited().with_max_nodes(m.allocated_nodes()));
    let err = m.mat_adjoint(&t).expect_err("T† needs fresh nodes");
    assert!(
        matches!(err, EngineError::NodeBudgetExceeded { .. }),
        "{err}"
    );
    // the operator built before the abort stays valid
    m.set_budget(RunBudget::unlimited());
    let tdg = m.mat_adjoint(&t)?;
    assert_eq!(m.try_mat_mul(&t, &tdg)?, m.try_identity()?);
    Ok(())
}

#[test]
fn crossed_budget_displays_the_structured_message() {
    let mut m = Manager::new(QomegaContext::new(), 6);
    m.set_budget(RunBudget::unlimited().with_max_nodes(4));
    let mut run = || -> Result<(), EngineError> {
        let mut state = m.try_basis_state(0)?;
        for q in 0..6 {
            let h = m.try_gate(&GateMatrix::h(), q, &[])?;
            state = m.try_mat_vec(&h, &state)?;
        }
        Ok(())
    };
    let err = run().expect_err("4 nodes cannot hold the 6-qubit register");
    assert!(err.to_string().contains("node budget exceeded"), "{err}");
}

#[test]
fn budget_accessors_round_trip() {
    let b = RunBudget::unlimited()
        .with_max_nodes(100)
        .with_max_distinct_weights(50)
        .with_max_weight_bits(64)
        .with_deadline(Duration::from_secs(1));
    assert!(!b.is_unlimited());
    let mut m = Manager::new(QomegaContext::new(), 2);
    assert!(m.budget().is_unlimited());
    m.set_budget(b);
    assert_eq!(m.budget().max_nodes, Some(100));
    assert_eq!(m.budget().max_distinct_weights, Some(50));
    assert_eq!(m.budget().max_weight_bits, Some(64));
    assert_eq!(m.budget().deadline, Some(Duration::from_secs(1)));
}
