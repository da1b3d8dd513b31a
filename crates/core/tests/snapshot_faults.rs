//! Fault-injection tests for the snapshot layer: truncation at every
//! prefix, a bit flip in every byte, version skew, and context mismatch
//! must all surface as structured `EngineError::Snapshot*` values — never
//! a panic and never a silently-wrong diagram.

use aq_dd::{EngineError, GateMatrix, Manager, NumericContext, QomegaContext};
use aq_testutil::TestResult;

/// A small but non-trivial snapshot: every section is non-empty and the
/// weight table carries non-constant entries.
fn sample_snapshot() -> Result<Vec<u8>, EngineError> {
    let mut m = Manager::new(NumericContext::with_eps(1e-10), 3);
    let s = m.try_basis_state(0b010)?;
    let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    let s = m.try_mat_vec(&h, &s)?;
    let t = m.try_gate(&GateMatrix::t(), 2, &[(0, true)])?;
    let s = m.try_mat_vec(&t, &s)?;
    Ok(m.snapshot_to_bytes(&[s], &[t]))
}

fn load(bytes: &[u8]) -> Result<(), EngineError> {
    Manager::snapshot_from_bytes(NumericContext::with_eps(1e-10), bytes).map(|_| ())
}

#[test]
fn pristine_snapshot_loads() -> TestResult {
    load(&sample_snapshot()?).expect("uncorrupted snapshot must load");
    Ok(())
}

#[test]
fn every_truncation_is_rejected_structurally() -> TestResult {
    let bytes = sample_snapshot()?;
    for len in 0..bytes.len() {
        let err = load(&bytes[..len]).expect_err("truncated snapshot must not load");
        assert!(
            err.is_snapshot(),
            "truncation at {len}/{} produced a non-snapshot error: {err}",
            bytes.len()
        );
    }
    Ok(())
}

#[test]
fn every_single_bit_flip_is_rejected_structurally() -> TestResult {
    let bytes = sample_snapshot()?;
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 1 << (i % 8);
        let err = load(&corrupted).expect_err("bit-flipped snapshot must not load");
        assert!(
            err.is_snapshot(),
            "bit flip at byte {i} produced a non-snapshot error: {err}"
        );
    }
    Ok(())
}

#[test]
fn version_skew_is_reported_as_such() -> TestResult {
    let mut bytes = sample_snapshot()?;
    // version is the little-endian u32 right after the 8-byte magic
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let err = load(&bytes).expect_err("foreign version must not load");
    assert_eq!(
        err,
        EngineError::SnapshotVersionSkew {
            found: 99,
            supported: aq_dd::snapshot::MANAGER_VERSION,
        }
    );
    Ok(())
}

#[test]
fn wrong_context_kind_is_a_mismatch() -> TestResult {
    let bytes = sample_snapshot()?;
    let err = Manager::snapshot_from_bytes(QomegaContext::new(), &bytes)
        .map(|_| ())
        .expect_err("numeric snapshot must not load into an algebraic context");
    assert!(matches!(err, EngineError::SnapshotMismatch { .. }), "{err}");
    Ok(())
}

#[test]
fn wrong_context_parameters_are_a_mismatch() -> TestResult {
    let bytes = sample_snapshot()?;
    for ctx in [
        NumericContext::with_eps(1e-5),
        NumericContext::new(),
        NumericContext::with_eps_and_scheme(1e-10, aq_dd::NormScheme::MaxMagnitude),
    ] {
        let err = Manager::snapshot_from_bytes(ctx, &bytes)
            .map(|_| ())
            .expect_err("wrong ε or scheme must not load");
        assert!(matches!(err, EngineError::SnapshotMismatch { .. }), "{err}");
    }
    Ok(())
}

#[test]
fn missing_file_is_an_io_error() {
    let err = Manager::load_snapshot(
        NumericContext::new(),
        "/nonexistent/definitely/not/here.aqdd",
    )
    .map(|_| ())
    .expect_err("missing file");
    assert!(matches!(err, EngineError::SnapshotIo { .. }), "{err}");
    assert!(err.is_snapshot());
}

#[test]
fn garbage_and_empty_files_are_rejected() {
    for bytes in [&b""[..], &b"not a snapshot at all"[..], &[0u8; 64][..]] {
        let err = load(bytes).expect_err("garbage must not load");
        assert!(err.is_snapshot(), "{err}");
    }
}

#[test]
fn exact_coefficients_fault_injection() -> TestResult {
    // the algebraic path serializes bigint coefficient strings — corrupt
    // those too
    let mut m = Manager::new(QomegaContext::new(), 3);
    let mut s = m.try_basis_state(0)?;
    for _ in 0..6 {
        let h = m.try_gate(&GateMatrix::h(), 1, &[])?;
        let t = m.try_gate(&GateMatrix::t(), 1, &[])?;
        s = m.try_mat_vec(&h, &s)?;
        s = m.try_mat_vec(&t, &s)?;
    }
    let bytes = m.snapshot_to_bytes(&[s], &[]);
    Manager::snapshot_from_bytes(QomegaContext::new(), &bytes).expect("pristine loads");
    for i in (0..bytes.len()).step_by(3) {
        let mut corrupted = bytes.clone();
        corrupted[i] = corrupted[i].wrapping_add(0x41);
        if corrupted[i] == bytes[i] {
            continue;
        }
        let err = Manager::snapshot_from_bytes(QomegaContext::new(), &corrupted)
            .map(|_| ())
            .expect_err("corrupted algebraic snapshot must not load");
        assert!(err.is_snapshot(), "byte {i}: {err}");
    }
    Ok(())
}
