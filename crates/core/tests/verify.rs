//! Tests for the verification operations: inner products, adjoints,
//! Kronecker composition and measurement sampling.

use aq_dd::{
    kron_states, EngineError, GateMatrix, GcdContext, Manager, NumericContext, QomegaContext,
    WeightContext,
};
use aq_rings::{Domega, Qomega};
use aq_testutil::TestResult;

#[test]
fn inner_product_of_state_with_itself_is_exactly_one() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 4);
    let mut s = m.try_basis_state(0)?;
    for q in 0..4 {
        let h = m.try_gate(&GateMatrix::h(), q, &[])?;
        s = m.try_mat_vec(&h, &s)?;
        let t = m.try_gate(&GateMatrix::t(), q, &[])?;
        s = m.try_mat_vec(&t, &s)?;
    }
    let ip = m.inner_product(&s, &s);
    assert!(ip.is_one(), "⟨ψ|ψ⟩ must be literally 1, got {ip:?}");
    Ok(())
}

#[test]
fn inner_product_of_orthogonal_states_is_exactly_zero() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 3);
    let a = m.try_basis_state(2)?;
    let b = m.try_basis_state(5)?;
    assert!(m.inner_product(&a, &b).is_zero());
    // and after the same unitary, still orthogonal — exactly
    let h = m.try_gate(&GateMatrix::h(), 1, &[])?;
    let t = m.try_gate(&GateMatrix::t(), 2, &[])?;
    let ua = {
        let x = m.try_mat_vec(&h, &a)?;
        m.try_mat_vec(&t, &x)?
    };
    let ub = {
        let x = m.try_mat_vec(&h, &b)?;
        m.try_mat_vec(&t, &x)?
    };
    assert!(m.inner_product(&ua, &ub).is_zero());
    Ok(())
}

#[test]
fn inner_product_matches_amplitude_sum() -> TestResult {
    let mut m = Manager::new(NumericContext::with_eps(1e-13), 3);
    let mut a = m.try_basis_state(1)?;
    let mut b = m.try_basis_state(6)?;
    for (q, g) in [
        (0, GateMatrix::h()),
        (1, GateMatrix::y()),
        (2, GateMatrix::t()),
    ] {
        let gd = m.try_gate(&g, q, &[])?;
        a = m.try_mat_vec(&gd, &a)?;
    }
    for (q, g) in [(2, GateMatrix::h()), (0, GateMatrix::s())] {
        let gd = m.try_gate(&g, q, &[])?;
        b = m.try_mat_vec(&gd, &b)?;
    }
    let ip = m.inner_product(&a, &b);
    let va = m.amplitudes(&a);
    let vb = m.amplitudes(&b);
    let direct = va
        .iter()
        .zip(&vb)
        .fold(aq_rings::Complex64::ZERO, |acc, (x, y)| acc + x.conj() * *y);
    assert!((ip - direct).abs() < 1e-12, "{ip:?} vs {direct:?}");
    Ok(())
}

#[test]
fn adjoint_of_unitary_is_inverse_in_every_context() -> TestResult {
    fn check<W: WeightContext>(ctx: W) -> Result<(), EngineError> {
        let mut m = Manager::new(ctx, 3);
        let mut u = m.try_identity()?;
        for (g, t, c) in [
            (GateMatrix::h(), 0u32, vec![]),
            (GateMatrix::t(), 1, vec![(0u32, true)]),
            (GateMatrix::y(), 2, vec![]),
            (GateMatrix::x(), 2, vec![(1, true), (0, false)]),
            (GateMatrix::sx(), 1, vec![]),
        ] {
            let gd = m.try_gate(&g, t, &c)?;
            u = m.try_mat_mul(&gd, &u)?;
        }
        let udg = m.mat_adjoint(&u)?;
        let left = m.try_mat_mul(&u, &udg)?;
        let right = m.try_mat_mul(&udg, &u)?;
        let id = m.try_identity()?;
        assert_eq!(left, id, "U·U† = I");
        assert_eq!(right, id, "U†·U = I");
        Ok(())
    }
    check(QomegaContext::new())?;
    check(GcdContext::new())?;
    check(NumericContext::with_eps(1e-12))?;
    Ok(())
}

#[test]
fn adjoint_is_involution_and_matches_known_daggers() -> TestResult {
    let mut m = Manager::new(QomegaContext::new(), 1);
    let t = m.try_gate(&GateMatrix::t(), 0, &[])?;
    let tdg = m.try_gate(&GateMatrix::tdg(), 0, &[])?;
    assert_eq!(m.mat_adjoint(&t)?, tdg);
    let again = m.mat_adjoint(&tdg)?;
    assert_eq!(again, t);
    // self-adjoint gates
    for g in [GateMatrix::h(), GateMatrix::x(), GateMatrix::z()] {
        let gd = m.try_gate(&g, 0, &[])?;
        assert_eq!(m.mat_adjoint(&gd)?, gd, "{g:?} is Hermitian");
    }
    Ok(())
}

#[test]
fn kron_composes_independent_registers() -> TestResult {
    let ctx = QomegaContext::new();
    let mut ma = Manager::new(ctx.clone(), 2);
    let bell = {
        let z = ma.try_basis_state(0)?;
        let h = ma.try_gate(&GateMatrix::h(), 0, &[])?;
        let cx = ma.try_gate(&GateMatrix::x(), 1, &[(0, true)])?;
        let s = ma.try_mat_vec(&h, &z)?;
        ma.try_mat_vec(&cx, &s)?
    };
    let mut mb = Manager::new(ctx.clone(), 1);
    let one = mb.try_basis_state(1)?;

    let (mut m, composed) = kron_states(ctx, (&ma, &bell), (&mb, &one))?;
    assert_eq!(m.n_qubits(), 3);
    let amps = m.amplitudes(&composed);
    let s = std::f64::consts::FRAC_1_SQRT_2;
    assert!((amps[0b001].re - s).abs() < 1e-12);
    assert!((amps[0b111].re - s).abs() < 1e-12);
    for i in [0b000, 0b010, 0b011, 0b100, 0b101, 0b110] {
        assert!(amps[i].abs() < 1e-12);
    }
    // norm still exactly 1
    let ip = m.inner_product(&composed, &composed);
    assert!(ip.is_one());
    Ok(())
}

#[test]
fn kron_with_zero_is_zero() -> TestResult {
    let ctx = QomegaContext::new();
    let mut ma = Manager::new(ctx.clone(), 1);
    let a = ma.try_basis_state(0)?;
    let mb = Manager::new(ctx.clone(), 1);
    let (_, z) = kron_states(ctx, (&ma, &a), (&mb, &aq_dd::Edge::ZERO_VEC))?;
    assert!(z.is_zero());
    Ok(())
}

#[test]
fn sampling_matches_distribution() -> TestResult {
    // Biased two-outcome state with exactly known probabilities.
    let mut m = Manager::new(QomegaContext::new(), 5);
    let a = m.try_basis_state(0)?;
    let b = m.try_basis_state(31)?;
    let half = m.try_intern(Qomega::from(Domega::one_over_sqrt2().mul_sqrt2_pow(-1)))?; // 1/2
    let s3_half = {
        // √3/2 is NOT in Q[ω]; use weights 1/2 and (1+i√2)/2 instead:
        // |w|² = 3/4 — giving probabilities 1/4 and 3/4.
        let v = &Qomega::from(Domega::one_plus_i_sqrt2()) * &Qomega::from_int_ratio(1, 1);
        let v = &v * &Qomega::from(Domega::one().div_sqrt2_pow(2));
        m.try_intern(v)?
    };
    let sa = m.try_vec_scale(&a, half)?;
    let sb = m.try_vec_scale(&b, s3_half)?;
    let state = m.try_vec_add(&sa, &sb)?;

    // deterministic "random" stream
    let mut seed = 0x2545f4914f6cdd1du64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let sampler = m.try_state_sampler(&state)?;
    let mut hits = [0u32; 2];
    for _ in 0..4000 {
        match sampler.draw(&mut rng) {
            0 => hits[0] += 1,
            31 => hits[1] += 1,
            other => panic!("impossible outcome {other}"),
        }
    }
    let p0 = hits[0] as f64 / 4000.0;
    assert!((p0 - 0.25).abs() < 0.05, "P(0) = {p0}, expected 0.25");
    Ok(())
}
