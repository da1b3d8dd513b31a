//! Translation of circuit operations into decision-diagram operators.

use aq_circuits::{Circuit, Op};
use aq_dd::{Edge, EngineError, Manager, MatId, WeightContext};
use aq_rings::{Domega, Zomega};

/// Builds the operator DD for a single circuit operation.
///
/// # Errors
///
/// Fails if a gate entry is not representable in the weight system
/// (compile to Clifford+T first) or when a budget limit is crossed.
pub fn try_op_operator<W: WeightContext>(
    m: &mut Manager<W>,
    op: &Op,
) -> Result<Edge<MatId>, EngineError> {
    match op {
        Op::Gate {
            matrix,
            target,
            controls,
        } => m.try_gate(matrix, *target, controls),
        Op::MatchingEvolution { pairs } => try_matching_evolution(m, pairs),
        Op::Permutation { map } => try_permutation(m, map),
        // Non-unitary operations have no operator DD at all — they belong
        // to the sampler (`crate::sample`), not the unitary pipeline.
        Op::Measure { .. } | Op::Reset { .. } | Op::Conditional { .. } => {
            Err(EngineError::UnrepresentableGate {
                gate: "non-unitary operation (measure/reset/conditional); use the shot sampler"
                    .into(),
            })
        }
    }
}

/// Builds the unitary of a whole circuit by matrix–matrix multiplication
/// in the given manager — the operator-level design task (synthesis,
/// equivalence checking) of the paper's introduction.
///
/// # Errors
///
/// [`EngineError::WidthMismatch`] if the circuit width differs from the
/// manager's; otherwise fails if an operation is not representable in
/// the weight system or when a budget limit is crossed.
pub fn try_circuit_unitary<W: WeightContext>(
    m: &mut Manager<W>,
    circuit: &Circuit,
) -> Result<Edge<MatId>, EngineError> {
    if m.n_qubits() != circuit.n_qubits() {
        return Err(EngineError::WidthMismatch {
            manager: m.n_qubits(),
            circuit: circuit.n_qubits(),
        });
    }
    let mut u = m.try_identity()?;
    for op in circuit.iter() {
        let g = try_op_operator(m, op)?;
        u = m.try_mat_mul(&g, &u)?;
    }
    Ok(u)
}

/// `exp(−i·π/4·A_M) = I + (1/√2 − 1)·D_M − (i/√2)·P_M` where `D_M`
/// projects onto matched vertices and `P_M` swaps matched pairs. All
/// three constants are in `D[ω]`, so the operator is exact in every
/// weight system.
///
/// # Errors
///
/// Fails when a budget limit is crossed.
pub fn try_matching_evolution<W: WeightContext>(
    m: &mut Manager<W>,
    pairs: &[(u64, u64)],
) -> Result<Edge<MatId>, EngineError> {
    let w_diag = {
        let v = m
            .ctx()
            .from_exact(&(&Domega::one_over_sqrt2() - &Domega::one()));
        m.try_intern(v)?
    };
    let w_swap = {
        let minus_i_over_sqrt2 = Domega::new(-&Zomega::i(), 1);
        let v = m.ctx().from_exact(&minus_i_over_sqrt2);
        m.try_intern(v)?
    };

    let mut acc = m.try_identity()?;
    for &(a, b) in pairs {
        // diagonal depletion at a and b
        for v in [a, b] {
            let unit = m.try_unit_matrix(v, v)?;
            let scaled = m.try_mat_scale(&unit, w_diag)?;
            acc = m.try_mat_add(&acc, &scaled)?;
        }
        // off-diagonal coupling a↔b
        for (r, c) in [(a, b), (b, a)] {
            let unit = m.try_unit_matrix(r, c)?;
            let scaled = m.try_mat_scale(&unit, w_swap)?;
            acc = m.try_mat_add(&acc, &scaled)?;
        }
    }
    Ok(acc)
}

/// The permutation operator `Σ_x |map[x]⟩⟨x|` as the identity plus
/// corrections on the moved points.
///
/// # Errors
///
/// Fails when a budget limit is crossed.
pub fn try_permutation<W: WeightContext>(
    m: &mut Manager<W>,
    map: &[u64],
) -> Result<Edge<MatId>, EngineError> {
    let neg_one = {
        let v = m.ctx().from_exact(&-Domega::one());
        m.try_intern(v)?
    };
    let mut acc = m.try_identity()?;
    for (x, &y) in map.iter().enumerate() {
        let x = x as u64;
        if x == y {
            continue;
        }
        let remove = m.try_unit_matrix(x, x)?;
        let remove = m.try_mat_scale(&remove, neg_one)?;
        acc = m.try_mat_add(&acc, &remove)?;
        let add = m.try_unit_matrix(y, x)?;
        acc = m.try_mat_add(&acc, &add)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::QomegaContext;
    use aq_testutil::TestResult;

    #[test]
    fn permutation_operator_is_a_permutation_matrix() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 2);
        let p = try_permutation(&mut m, &[2, 0, 3, 1])?;
        let mat = m.matrix(&p);
        for (x, &y) in [2usize, 0, 3, 1].iter().enumerate() {
            for (r, row) in mat.iter().enumerate() {
                let want = if r == y { 1.0 } else { 0.0 };
                assert!((row[x].re - want).abs() < 1e-12, "entry ({r},{x})");
                assert!(row[x].im.abs() < 1e-12);
            }
        }
        Ok(())
    }

    #[test]
    fn matching_evolution_blocks() -> TestResult {
        let mut m = Manager::new(QomegaContext::new(), 2);
        let e = try_matching_evolution(&mut m, &[(0, 3)])?;
        let mat = m.matrix(&e);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        // matched pair (0,3): 2×2 rotation block
        assert!((mat[0][0].re - s).abs() < 1e-12);
        assert!((mat[0][3].im + s).abs() < 1e-12);
        assert!((mat[3][0].im + s).abs() < 1e-12);
        assert!((mat[3][3].re - s).abs() < 1e-12);
        // unmatched vertices 1, 2: identity
        assert!((mat[1][1].re - 1.0).abs() < 1e-12);
        assert!((mat[2][2].re - 1.0).abs() < 1e-12);
        assert!(mat[1][2].abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn circuit_unitary_matches_stepwise_simulation() -> TestResult {
        let circuit = aq_circuits::grover(4, 9);
        let mut m = Manager::new(QomegaContext::new(), 4);
        let u = try_circuit_unitary(&mut m, &circuit)?;
        let z = m.try_basis_state(0)?;
        let via_matrix = m.try_mat_vec(&u, &z)?;

        let mut sim = crate::Simulator::new(QomegaContext::new(), &circuit);
        let via_steps = sim.try_run()?.amplitudes;
        let got = m.amplitudes(&via_matrix);
        for (a, b) in got.iter().zip(&via_steps) {
            assert!((*a - *b).abs() < 1e-12);
        }
        Ok(())
    }
}
