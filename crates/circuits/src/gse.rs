//! Ground State Estimation: quantum phase estimation over a Trotterized
//! molecular Hamiltonian (the paper's Example 5 / Fig. 2 / Fig. 5
//! benchmark, after Whitfield et al.).

use aq_dd::GateMatrix;

use crate::hamiltonian::{Hamiltonian, Pauli};
use crate::qft::{inverse_qft, push_controlled_phase};
use crate::{h2_hamiltonian, Circuit};

/// Parameters of the [`gse`] benchmark generator.
#[derive(Debug, Clone)]
pub struct GseParams {
    /// Counting-register width (phase precision bits).
    pub precision_bits: u32,
    /// First-order Trotter slices per unit power of `U`.
    pub trotter_slices: u32,
    /// Evolution time `t` in `U = exp(iHt)`.
    pub time: f64,
    /// The molecular Hamiltonian.
    pub hamiltonian: Hamiltonian,
    /// Basis state of the system register to start from (the
    /// Hartree–Fock guess; `0b10` for minimal-basis H₂ in this
    /// coefficient convention — its diagonal energy −1.830 dominates the
    /// −1.851 ground state).
    pub initial_system_state: u64,
}

impl Default for GseParams {
    fn default() -> Self {
        GseParams {
            precision_bits: 6,
            trotter_slices: 1,
            time: 1.0,
            hamiltonian: h2_hamiltonian(),
            initial_system_state: 0b10,
        }
    }
}

impl GseParams {
    /// Total qubits: counting register + system register.
    pub fn n_qubits(&self) -> u32 {
        self.precision_bits + self.hamiltonian.n_qubits
    }
}

/// Generates the GSE circuit: Hartree–Fock preparation, Hadamards on the
/// counting register, controlled `U^{2^j}` powers as repeated Trotter
/// slices, then the inverse QFT.
///
/// The circuit contains arbitrary-angle `P(φ)` gates (from `exp(iθZ…)`
/// factors and the inverse QFT), so it is **not** exactly representable —
/// the defining property of the paper's GSE benchmark. Pass it through
/// [`crate::cliffordt::CliffordTCompiler`] to obtain the Clifford+T
/// approximation that both the numeric and algebraic evaluations simulate.
///
/// # Examples
///
/// ```
/// use aq_circuits::{gse, GseParams};
///
/// let c = gse(&GseParams { precision_bits: 3, ..GseParams::default() });
/// assert_eq!(c.n_qubits(), 5);
/// assert!(!c.is_exact()); // arbitrary rotations present
/// ```
pub fn gse(params: &GseParams) -> Circuit {
    let p = params.precision_bits;
    let sys0 = p; // first system qubit
    let mut c = Circuit::new(params.n_qubits());

    // Hartree–Fock initial state on the system register.
    for q in 0..params.hamiltonian.n_qubits {
        if (params.initial_system_state >> (params.hamiltonian.n_qubits - 1 - q)) & 1 == 1 {
            c.push_gate(GateMatrix::x(), sys0 + q, &[]);
        }
    }

    // Counting register into superposition.
    for q in 0..p {
        c.push_gate(GateMatrix::h(), q, &[]);
    }

    // Controlled powers: counting qubit j controls U^{2^{p−1−j}}
    // (so qubit 0 holds the most significant phase bit).
    for j in 0..p {
        let power = 1u64 << (p - 1 - j);
        let reps = power * params.trotter_slices as u64;
        let theta = params.time / params.trotter_slices as f64;
        for _ in 0..reps {
            push_controlled_trotter_slice(&mut c, j, sys0, &params.hamiltonian, theta);
        }
    }

    // Inverse QFT on the counting register.
    let iqft = inverse_qft(p);
    for op in iqft.iter() {
        c.push(op.clone());
    }
    c
}

/// Appends one first-order Trotter slice of `exp(iHθ)` controlled by
/// `ctrl`, acting on the system register starting at `sys0`.
///
/// Each Pauli string `g·P` contributes `exp(i·g·θ·P)`:
/// * identity terms become a phase `P(gθ)` on the control,
/// * `Z…Z` terms are CNOT-reduced to a single-qubit `exp(iφZ)` whose
///   controlled version is `P(φ)` on the control plus `CP(−2φ)`,
/// * `X`/`Y` factors are basis-changed with `H` / `S·H` conjugation.
fn push_controlled_trotter_slice(
    c: &mut Circuit,
    ctrl: u32,
    sys0: u32,
    h: &Hamiltonian,
    theta: f64,
) {
    for term in &h.terms {
        let phi = term.coeff * theta;
        if term.ops.is_empty() {
            // controlled global phase = phase gate on the control
            c.push_gate(GateMatrix::phase(phi), ctrl, &[]);
            continue;
        }
        // basis change X → Z (H), Y → Z (H·S†)
        let conjugate = |c: &mut Circuit, undo: bool| {
            for &(q, p) in &term.ops {
                let t = sys0 + q;
                match (p, undo) {
                    (Pauli::X, _) => c.push_gate(GateMatrix::h(), t, &[]),
                    (Pauli::Y, false) => {
                        c.push_gate(GateMatrix::sdg(), t, &[]);
                        c.push_gate(GateMatrix::h(), t, &[]);
                    }
                    (Pauli::Y, true) => {
                        c.push_gate(GateMatrix::h(), t, &[]);
                        c.push_gate(GateMatrix::s(), t, &[]);
                    }
                    (Pauli::Z, _) => {}
                }
            }
        };
        conjugate(c, false);
        // parity fan-in onto the last involved qubit
        let qubits: Vec<u32> = term.ops.iter().map(|&(q, _)| sys0 + q).collect();
        // aq-lint: allow(R1): Hamiltonian terms are built with at least one operator
        let last = *qubits.last().expect("non-empty term");
        for w in qubits.windows(2) {
            c.push_gate(GateMatrix::x(), w[1], &[(w[0], true)]);
        }
        // controlled exp(iφZ_last) = P(φ) on ctrl + CP(−2φ) on (ctrl,last)
        c.push_gate(GateMatrix::phase(phi), ctrl, &[]);
        push_controlled_phase(c, ctrl, last, -2.0 * phi);
        for w in qubits.windows(2).rev() {
            c.push_gate(GateMatrix::x(), w[1], &[(w[0], true)]);
        }
        conjugate(c, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::{EngineError, Manager, NumericContext};
    use aq_rings::Complex64;
    use aq_testutil::TestResult;

    fn simulate(c: &Circuit) -> Result<(Manager<NumericContext>, Vec<Complex64>), EngineError> {
        let mut m = Manager::new(NumericContext::with_eps(1e-12), c.n_qubits());
        let mut s = m.try_basis_state(0)?;
        for op in c.iter() {
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
        let amps = m.amplitudes(&s);
        Ok((m, amps))
    }

    #[test]
    fn structure_and_counts() {
        let params = GseParams {
            precision_bits: 3,
            ..GseParams::default()
        };
        let c = gse(&params);
        assert_eq!(c.n_qubits(), 5);
        assert!(c.approx_ops() > 0);
        // controlled powers dominate: (2^3 − 1) slices minimum
        assert!(c.len() > 7 * 6);
    }

    #[test]
    fn phase_estimation_recovers_ground_energy() -> TestResult {
        // With the Hartree–Fock start |10⟩ (dominant ground-state overlap
        // for H₂), the counting register peaks at φ ≈ E·t/2π mod 1.
        let params = GseParams {
            precision_bits: 5,
            trotter_slices: 4,
            ..GseParams::default()
        };
        let c = gse(&params);
        let (m, amps) = simulate(&c)?;
        let _ = m;
        let p = params.precision_bits;
        // marginal distribution over the counting register
        let sys_dim = 1usize << params.hamiltonian.n_qubits;
        let mut probs = vec![0.0; 1 << p];
        for (i, a) in amps.iter().enumerate() {
            probs[i / sys_dim] += a.norm_sqr();
        }
        let best = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty")
            .0;
        // counting register j (MSB-first) encodes phase j/2^p with
        // U = exp(iHt): phase = E·t/2π mod 1
        let measured_phase = best as f64 / (1 << p) as f64;
        let e_ref = params.hamiltonian.ground_energy();
        let expected_phase = (e_ref * params.time / std::f64::consts::TAU).rem_euclid(1.0);
        let dist = (measured_phase - expected_phase).abs();
        let dist = dist.min(1.0 - dist);
        assert!(
            dist <= 2.0 / (1 << p) as f64 + 0.02,
            "phase {measured_phase} vs expected {expected_phase} (E={e_ref})"
        );
        Ok(())
    }
}
