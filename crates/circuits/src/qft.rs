//! Quantum Fourier transform circuits (for phase estimation).

use aq_dd::GateMatrix;

use crate::Circuit;

/// Appends a controlled-phase `CP(φ)` between `control` and `target`,
/// decomposed into single-qubit phases and CNOTs:
///
/// `CP(φ) = P(φ/2)_c · P(φ/2)_t · CX · P(−φ/2)_t · CX`
///
/// The decomposition keeps all *rotations* single-qubit so the Clifford+T
/// compiler only ever has to approximate `P(φ)` gates.
pub fn push_controlled_phase(c: &mut Circuit, control: u32, target: u32, phi: f64) {
    c.push_gate(GateMatrix::x(), target, &[(control, true)]);
    c.push_gate(GateMatrix::phase(-phi / 2.0), target, &[]);
    c.push_gate(GateMatrix::x(), target, &[(control, true)]);
    c.push_gate(GateMatrix::phase(phi / 2.0), target, &[]);
    c.push_gate(GateMatrix::phase(phi / 2.0), control, &[]);
}

fn push_swap(c: &mut Circuit, a: u32, b: u32) {
    c.push_gate(GateMatrix::x(), b, &[(a, true)]);
    c.push_gate(GateMatrix::x(), a, &[(b, true)]);
    c.push_gate(GateMatrix::x(), b, &[(a, true)]);
}

/// The quantum Fourier transform on qubits `0..n`, including the final
/// bit-reversal swaps: `QFT|m⟩ = 2^{−n/2} Σ_x e^{2πi·x·m/2ⁿ}|x⟩` with
/// qubit 0 as the most significant bit.
pub fn qft(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.push_gate(GateMatrix::h(), q, &[]);
        for k in q + 1..n {
            let phi = std::f64::consts::PI / (1u64 << (k - q)) as f64;
            push_controlled_phase(&mut c, k, q, phi);
        }
    }
    for q in 0..n / 2 {
        push_swap(&mut c, q, n - 1 - q);
    }
    c
}

/// The inverse QFT on qubits `0..n` (exact adjoint of [`qft`]: swaps
/// first, then the reversed cascade with negated angles).
pub fn inverse_qft(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n / 2 {
        push_swap(&mut c, q, n - 1 - q);
    }
    for q in (0..n).rev() {
        for k in (q + 1..n).rev() {
            let phi = -std::f64::consts::PI / (1u64 << (k - q)) as f64;
            push_controlled_phase(&mut c, k, q, phi);
        }
        c.push_gate(GateMatrix::h(), q, &[]);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::{EngineError, Manager, NumericContext};
    use aq_testutil::TestResult;

    fn apply(
        c: &Circuit,
        m: &mut Manager<NumericContext>,
        start: u64,
    ) -> Result<Vec<aq_rings::Complex64>, EngineError> {
        let mut s = m.try_basis_state(start)?;
        for op in c.iter() {
            match op {
                crate::Op::Gate {
                    matrix,
                    target,
                    controls,
                } => {
                    let g = m.try_gate(matrix, *target, controls)?;
                    s = m.try_mat_vec(&g, &s)?;
                }
                _ => unreachable!("QFT has no walk factors"),
            }
        }
        Ok(m.amplitudes(&s))
    }

    #[test]
    fn qft_of_basis_state_is_fourier_column() -> TestResult {
        let n = 3;
        let c = qft(n);
        for x in 0..8u64 {
            let mut m = Manager::new(NumericContext::with_eps(1e-12), n);
            let amps = apply(&c, &mut m, x)?;
            // QFT (without bit reversal): amplitude of |y_rev⟩ is ω^{xy}/√8
            // — verify magnitudes are uniform and phases consistent for x=…
            for a in &amps {
                assert!(
                    (a.abs() - 1.0 / (8f64).sqrt()).abs() < 1e-9,
                    "x={x}: non-uniform magnitude {a:?}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn qft_inverse_composes_to_identity() -> TestResult {
        let n = 4;
        let f = qft(n);
        let inv = inverse_qft(n);
        for start in [0u64, 5, 9, 15] {
            let mut m = Manager::new(NumericContext::with_eps(1e-10), n);
            let mut s = m.try_basis_state(start)?;
            for circ in [&f, &inv] {
                for op in circ.iter() {
                    if let crate::Op::Gate {
                        matrix,
                        target,
                        controls,
                    } = op
                    {
                        let g = m.try_gate(matrix, *target, controls)?;
                        s = m.try_mat_vec(&g, &s)?;
                    }
                }
            }
            let amps = m.amplitudes(&s);
            for (i, a) in amps.iter().enumerate() {
                let want = if i as u64 == start { 1.0 } else { 0.0 };
                assert!(
                    (a.abs() - want).abs() < 1e-8,
                    "start {start}, index {i}: {a:?}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn qft_on_zero_gives_uniform_superposition() -> TestResult {
        let n = 4;
        let c = qft(n);
        let mut m = Manager::new(NumericContext::with_eps(1e-12), n);
        let amps = apply(&c, &mut m, 0)?;
        for a in amps {
            assert!((a.re - 0.25).abs() < 1e-9 && a.im.abs() < 1e-9);
        }
        Ok(())
    }
}
