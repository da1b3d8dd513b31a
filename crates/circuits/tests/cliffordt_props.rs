//! Property tests for the Clifford+T synthesiser: every emitted word must
//! reproduce its claimed distance, and precision must hold across the
//! angle range.

use aq_circuits::cliffordt::{word_distance, CliffordTCompiler};
use aq_rings::Complex64;
use aq_testutil::proptest::prelude::*;

fn target_phase(theta: f64) -> [Complex64; 4] {
    [
        Complex64::ONE,
        Complex64::ZERO,
        Complex64::ZERO,
        Complex64::from_polar_unit(theta),
    ]
}

fn random_unitary(a: f64, b: f64, c: f64) -> [Complex64; 4] {
    // U = Rz(a)·Ry(b)·Rz(c) — covers SU(2)
    let (sb, cb) = (b / 2.0).sin_cos();
    let e = Complex64::from_polar_unit;
    [
        e(-(a + c) / 2.0) * cb,
        e(-(a - c) / 2.0) * (-sb),
        e((a - c) / 2.0) * sb,
        e((a + c) / 2.0) * cb,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn phase_words_verify_by_simulation(theta in -3.1f64..3.1) {
        let mut comp = CliffordTCompiler::new(7);
        let (word, err) = comp.approximate_phase(theta);
        prop_assert!(err < 0.12, "budget 7 must reach ~0.1: {err} at θ={theta}");
        let d = word_distance(&word, &target_phase(theta))?;
        prop_assert!((d - err).abs() < 1e-6, "claimed {err}, simulated {d}");
    }

    #[test]
    fn arbitrary_unitaries_approximate(a in -3.0f64..3.0, b in 0.0f64..3.0, c in -3.0f64..3.0) {
        let comp = CliffordTCompiler::new(7);
        let target = random_unitary(a, b, c);
        let (word, err) = comp.approximate_unitary(&target);
        prop_assert!(err < 0.15, "distance {err}");
        let d = word_distance(&word, &target)?;
        prop_assert!((d - err).abs() < 1e-6);
    }

    #[test]
    fn two_stage_never_worse_than_single(theta in -3.0f64..3.0) {
        let two = CliffordTCompiler::new(6);
        let one = CliffordTCompiler::new(6).without_two_stage();
        let t = target_phase(theta);
        let (_, d2) = two.approximate_unitary(&t);
        let (_, d1) = one.approximate_unitary(&t);
        prop_assert!(d2 <= d1 + 1e-12, "two-stage {d2} vs single {d1}");
    }
}
