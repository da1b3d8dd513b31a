//! Integration tests for `Manager::validate`: healthy managers pass in
//! every context, and (under the `validate-invariants` feature) the
//! automatic post-compaction check runs on real workloads.

use aq_dd::{GateMatrix, GcdContext, Manager, NormScheme, NumericContext, QomegaContext};
use aq_testutil::TestResult;

#[test]
fn fresh_managers_validate_in_every_context() {
    Manager::new(NumericContext::new(), 2).validate().unwrap();
    Manager::new(NumericContext::with_eps(1e-4), 2)
        .validate()
        .unwrap();
    Manager::new(QomegaContext::new(), 2).validate().unwrap();
    Manager::new(GcdContext::new(), 2).validate().unwrap();
}

#[test]
fn busy_managers_validate_including_max_magnitude() -> TestResult {
    for eps in [0.0, 1e-10, 1e-3] {
        for scheme in [NormScheme::Leftmost, NormScheme::MaxMagnitude] {
            let mut m = Manager::new(NumericContext::with_eps_and_scheme(eps, scheme), 4);
            let mut s = m.try_basis_state(0b0110)?;
            for q in 0..4 {
                let h = m.try_gate(&GateMatrix::h(), q, &[])?;
                s = m.try_mat_vec(&h, &s)?;
                let t = m.try_gate(&GateMatrix::t(), (q + 1) % 4, &[(q, true)])?;
                s = m.try_mat_vec(&t, &s)?;
            }
            m.validate()
                .unwrap_or_else(|e| panic!("eps {eps}, {scheme:?}: {e}"));
        }
    }
    Ok(())
}

#[test]
fn compaction_preserves_invariants() -> TestResult {
    // with `validate-invariants` enabled this also exercises the automatic
    // post-compaction self-check inside try_compact
    let mut m = Manager::new(QomegaContext::new(), 4);
    let mut s = m.try_basis_state(0)?;
    for q in 0..4 {
        let h = m.try_gate(&GateMatrix::h(), q, &[])?;
        s = m.try_mat_vec(&h, &s)?;
        let t = m.try_gate(&GateMatrix::t(), q, &[])?;
        s = m.try_mat_vec(&t, &s)?;
    }
    let (vs, _) = m.try_compact(&[s], &[])?;
    m.validate().expect("compacted manager is canonical");
    assert_eq!(vs.len(), 1);
    Ok(())
}
