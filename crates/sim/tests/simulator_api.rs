//! API-surface tests for the simulator: cursor semantics, resets,
//! unitary building, and option handling.

use aq_circuits::{grover, Circuit};
use aq_dd::{EngineError, GateMatrix, NumericContext, QomegaContext};
use aq_sim::{circuits_equivalent, try_circuit_unitary, SimOptions, Simulator};
use aq_testutil::TestResult;

#[test]
fn cursor_and_done_semantics() -> TestResult {
    let circuit = grover(3, 5);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    assert_eq!(sim.gates_applied(), 0);
    assert!(!sim.is_done());
    assert!(sim.try_step()?);
    assert_eq!(sim.gates_applied(), 1);
    while sim.try_step()? {}
    assert!(sim.is_done());
    assert_eq!(sim.gates_applied(), circuit.len());
    assert!(!sim.try_step()?, "stepping past the end returns false");
    assert!(sim.elapsed_seconds() > 0.0);
    Ok(())
}

#[test]
fn reset_restarts_cleanly() -> TestResult {
    let circuit = grover(3, 2);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    while sim.try_step()? {}
    let s1 = sim.state();
    let first = sim.manager_mut().amplitudes(&s1);
    sim.try_reset_to(0)?;
    assert_eq!(sim.gates_applied(), 0);
    assert_eq!(sim.elapsed_seconds(), 0.0);
    while sim.try_step()? {}
    let s2 = sim.state();
    let second = sim.manager_mut().amplitudes(&s2);
    for (a, b) in first.iter().zip(&second) {
        assert!((*a - *b).abs() < 1e-14, "determinism after reset");
    }
    Ok(())
}

#[test]
fn build_unitary_consumes_remaining_ops_only() -> TestResult {
    let mut circuit = Circuit::new(2);
    circuit.push_gate(GateMatrix::x(), 0, &[]);
    circuit.push_gate(GateMatrix::h(), 1, &[]);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    assert!(sim.try_step()?); // consume the X
    let u = sim.try_build_unitary()?; // only the H remains
    assert!(sim.is_done());
    let m = sim.manager_mut();
    let want = m.try_gate(&GateMatrix::h(), 1, &[])?;
    assert_eq!(u, want);
    Ok(())
}

#[test]
fn equivalence_helper_agrees_with_manual_build() -> TestResult {
    let mut a = Circuit::new(2);
    a.push_gate(GateMatrix::s(), 0, &[]);
    a.push_gate(GateMatrix::s(), 0, &[]);
    let mut b = Circuit::new(2);
    b.push_gate(GateMatrix::z(), 0, &[]);
    assert!(circuits_equivalent(QomegaContext::new(), &a, &b)?);

    let mut m = aq_dd::Manager::new(QomegaContext::new(), 2);
    let ua = try_circuit_unitary(&mut m, &a)?;
    let ub = try_circuit_unitary(&mut m, &b)?;
    assert_eq!(ua, ub);
    Ok(())
}

#[test]
fn equivalence_rejects_width_mismatch() -> TestResult {
    let a = Circuit::new(2);
    let b = Circuit::new(3);
    assert!(!circuits_equivalent(QomegaContext::new(), &a, &b)?);
    Ok(())
}

#[test]
fn equivalence_reports_unrepresentable_gates() {
    let mut a = Circuit::new(1);
    a.push_gate(GateMatrix::rz(0.7), 0, &[]);
    let err = circuits_equivalent(QomegaContext::new(), &a, &Circuit::new(1))
        .expect_err("Rz(0.7) is not in Q[ω]");
    assert!(
        matches!(err, EngineError::UnrepresentableGate { .. }),
        "{err}"
    );
}

#[test]
fn algebraic_simulator_rejects_rotations() {
    let mut c = Circuit::new(1);
    c.push_gate(GateMatrix::rz(0.7), 0, &[]);
    let mut sim = Simulator::new(QomegaContext::new(), &c);
    let err = sim.try_step().expect_err("Rz(0.7) is not in D[ω]");
    assert_eq!(err.op_index, 0);
    assert!(
        matches!(err.source, EngineError::UnrepresentableGate { .. }),
        "{err}"
    );
}

#[test]
fn trace_can_be_disabled() -> TestResult {
    let circuit = grover(4, 3);
    let mut sim = Simulator::with_options(
        NumericContext::with_eps(1e-12),
        &circuit,
        SimOptions {
            record_trace: false,
            ..SimOptions::default()
        },
    );
    let result = sim.try_run()?;
    assert!(result.trace.points.is_empty());
    assert!(result.final_nodes > 0);
    Ok(())
}

#[test]
fn empty_circuit_runs_to_a_basis_state() -> TestResult {
    let circuit = Circuit::new(3);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    sim.try_reset_to(6)?;
    let result = sim.try_run()?;
    assert!((result.amplitudes[6].re - 1.0).abs() < 1e-15);
    assert!(result.trace.points.is_empty());
    Ok(())
}

#[test]
fn circuit_inverse_composes_to_identity() -> TestResult {
    // gate circuit: Grover round trip
    let c = grover(4, 6);
    let mut both = c.clone();
    both.extend_from(&c.inverted());
    assert!(circuits_equivalent(
        QomegaContext::new(),
        &both,
        &Circuit::new(4)
    )?);

    // permutation ops: coined BWT shift inverts correctly
    use aq_circuits::{bwt, BwtParams};
    let (walk, tree) = bwt(BwtParams {
        height: 2,
        steps: 3,
        seed: 4,
    });
    let mut round = walk.clone();
    round.extend_from(&walk.inverted());
    let mut sim = Simulator::new(QomegaContext::new(), &round);
    sim.try_reset_to(tree.coined_start())?;
    let result = sim.try_run()?;
    assert!((result.amplitudes[tree.coined_start() as usize].re - 1.0).abs() < 1e-12);
    Ok(())
}
