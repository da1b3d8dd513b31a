//! Checkpoint/resume integration tests: a budget-aborted run dumped to
//! disk and resumed in a fresh simulator must finish with exactly the
//! state an uninterrupted run produces, and every way a checkpoint can be
//! wrong (different circuit, corrupted file, missing file) must surface
//! as a structured `EngineError::Snapshot*` value.

use std::path::PathBuf;

use aq_circuits::{grover, Circuit};
use aq_dd::{EngineError, NumericContext, QomegaContext, RunBudget};
use aq_sim::{peek_checkpoint, SimOptions, Simulator};
use aq_testutil::TestResult;

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("aq_sim_checkpoint_tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Aborts a Grover run on a node budget with `checkpoint_on_abort` set,
/// returning the circuit and the checkpoint path `try_run` reported.
fn aborted_run(name: &str) -> (Circuit, PathBuf) {
    let circuit = grover(5, 11);
    let path = temp_path(name);
    std::fs::remove_file(&path).ok();
    let options = SimOptions {
        budget: RunBudget::unlimited().with_max_nodes(12),
        checkpoint_on_abort: Some(path.clone()),
        ..SimOptions::default()
    };
    let mut sim = Simulator::with_options(NumericContext::with_eps(1e-10), &circuit, options);
    let abort = sim.try_run().expect_err("12-node budget must abort");
    assert!(abort.gates_applied > 0, "some prefix must have run");
    assert!(abort.gates_applied < circuit.len());
    let reported = abort.checkpoint.clone().expect("checkpoint dump succeeded");
    assert_eq!(reported, path);
    (circuit, path)
}

#[test]
fn resumed_run_matches_an_uninterrupted_one() -> TestResult {
    let (circuit, path) = aborted_run("resume_matches.aqckp");

    let info = peek_checkpoint(&path).expect("peek");
    assert_eq!(info.label, "try_run-abort");
    assert_eq!(info.n_qubits, circuit.n_qubits());
    assert_eq!(info.circuit_len, circuit.len() as u64);
    assert!(info.gates_applied > 0);

    let (mut resumed, stored_trace) = Simulator::resume(
        NumericContext::with_eps(1e-10),
        &circuit,
        &path,
        SimOptions::default(),
    )
    .expect("resume");
    assert_eq!(resumed.gates_applied() as u64, info.gates_applied);
    assert!(
        stored_trace.aborted.is_none(),
        "the abort reason is cleared on resume"
    );
    assert_eq!(stored_trace.points.len(), info.gates_applied as usize);
    let result = resumed.try_run().expect("unlimited budget completes");

    let mut uninterrupted = Simulator::new(NumericContext::with_eps(1e-10), &circuit);
    let expected = uninterrupted.try_run()?;

    // Bit-identical, not approximately equal: the checkpoint stores the
    // full uncompacted weight table, so the resumed run replays the exact
    // same ε-merge decisions as the uninterrupted one.
    assert_eq!(result.amplitudes, expected.amplitudes);
    assert_eq!(result.final_nodes, expected.final_nodes);
    std::fs::remove_file(&path).ok();
    Ok(())
}

#[test]
fn resume_against_a_different_circuit_is_a_mismatch() {
    let (_circuit, path) = aborted_run("resume_mismatch.aqckp");
    let other = grover(5, 12); // same shape, different oracle
    let err = Simulator::resume(
        NumericContext::with_eps(1e-10),
        &other,
        &path,
        SimOptions::default(),
    )
    .map(|_| ())
    .expect_err("different circuit must not resume");
    assert!(matches!(err, EngineError::SnapshotMismatch { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_with_a_different_context_is_a_mismatch() {
    let (circuit, path) = aborted_run("resume_ctx_mismatch.aqckp");
    let err = Simulator::resume(QomegaContext::new(), &circuit, &path, SimOptions::default())
        .map(|_| ())
        .expect_err("numeric checkpoint must not load into an algebraic context");
    assert!(matches!(err, EngineError::SnapshotMismatch { .. }), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_checkpoints_are_rejected_structurally() {
    let (circuit, path) = aborted_run("resume_corrupt.aqckp");
    let pristine = std::fs::read(&path).expect("read checkpoint");
    for i in (0..pristine.len()).step_by(7) {
        let mut corrupted = pristine.clone();
        corrupted[i] ^= 1 << (i % 8);
        std::fs::write(&path, &corrupted).expect("write corrupted");
        let err = Simulator::resume(
            NumericContext::with_eps(1e-10),
            &circuit,
            &path,
            SimOptions::default(),
        )
        .map(|_| ())
        .expect_err("corrupted checkpoint must not resume");
        assert!(err.is_snapshot(), "byte {i}: {err}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_checkpoint_is_an_io_error() {
    let circuit = grover(3, 2);
    let err = Simulator::resume(
        NumericContext::new(),
        &circuit,
        temp_path("never_written.aqckp"),
        SimOptions::default(),
    )
    .map(|_| ())
    .expect_err("missing file");
    assert!(matches!(err, EngineError::SnapshotIo { .. }), "{err}");
}

#[test]
fn manual_checkpoint_of_a_healthy_run_resumes_too() {
    // checkpoints are not abort-only: a long sweep can checkpoint
    // periodically and survive a kill -9 between gates
    let circuit = grover(4, 7);
    let path = temp_path("manual.aqckp");
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    for _ in 0..5 {
        sim.try_step().expect("unlimited budget");
    }
    sim.checkpoint(&path, "manual/grover4").expect("checkpoint");

    let info = peek_checkpoint(&path).expect("peek");
    assert_eq!(info.label, "manual/grover4");
    assert_eq!(info.gates_applied, 5);

    let (mut resumed, _) =
        Simulator::resume(QomegaContext::new(), &circuit, &path, SimOptions::default())
            .expect("resume");
    let got = resumed.try_run().expect("completes").amplitudes;
    let want = sim.try_run().expect("completes").amplitudes;
    assert_eq!(got, want, "exact algebraic runs must agree bit-for-bit");
    std::fs::remove_file(&path).ok();
}
