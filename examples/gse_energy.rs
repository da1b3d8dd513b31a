//! Ground State Estimation (the paper's Fig. 2/5 workload): quantum phase
//! estimation of the H₂ molecular ground-state energy, first with numeric
//! rotation gates, then compiled to Clifford+T and simulated **exactly**.
//!
//! ```text
//! cargo run --release --example gse_energy [precision_bits]
//! ```

use aqudd::circuits::cliffordt::CliffordTCompiler;
use aqudd::circuits::{gse, GseParams};
use aqudd::dd::{NumericContext, QomegaContext};
use aqudd::sim::Simulator;

fn peak_phase(probs: &[f64], p: u32, sys_dim: usize) -> (usize, f64) {
    let mut counting = vec![0.0; 1 << p];
    for (i, pr) in probs.iter().enumerate() {
        counting[i / sys_dim] += pr;
    }
    counting
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, p)| (i, *p))
        .expect("nonempty")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);
    let params = GseParams {
        precision_bits: p,
        trotter_slices: 2,
        ..GseParams::default()
    };
    let e_ref = params.hamiltonian.ground_energy();
    println!("H₂ reference ground energy: {e_ref:.6} hartree");
    let expected_phase = (e_ref * params.time / std::f64::consts::TAU).rem_euclid(1.0);

    // 1. The raw rotation circuit, simulated numerically.
    let raw = gse(&params);
    println!(
        "\nQPE circuit: {} qubits, {} gates (with arbitrary rotations)",
        raw.n_qubits(),
        raw.len()
    );
    let mut sim = Simulator::new(NumericContext::with_eps(1e-12), &raw);
    let result = sim.try_run()?;
    let (m, prob) = peak_phase(&result.probabilities(), p, 4);
    let phase = m as f64 / (1u64 << p) as f64;
    println!(
        "numeric:   phase peak {m}/{} = {phase:.4} (prob {prob:.3}); expected {expected_phase:.4} → E ≈ {:.4}",
        1u64 << p,
        phase_to_energy(phase, params.time)
    );

    // 2. Compile to Clifford+T (the paper uses Quipper here) and simulate
    //    the *same* circuit exactly — no ε anywhere.
    let mut comp = CliffordTCompiler::new(8);
    let (compiled, worst) = comp.compile(&raw);
    println!(
        "\nClifford+T compiled: {} gates (worst per-rotation distance {worst:.3})",
        compiled.len()
    );
    let mut sim = Simulator::new(QomegaContext::new(), &compiled);
    let result = sim.try_run()?;
    let (m, prob) = peak_phase(&result.probabilities(), p, 4);
    let phase = m as f64 / (1u64 << p) as f64;
    println!(
        "algebraic: phase peak {m}/{} = {phase:.4} (prob {prob:.3}) → E ≈ {:.4}",
        1u64 << p,
        phase_to_energy(phase, params.time)
    );
    println!(
        "state DD: {} nodes; peak coefficient bit-width {} — the growth\n\
         behind the paper's Fig. 5 overhead discussion",
        result.final_nodes,
        result.trace.peak_weight_bits()
    );
    Ok(())
}

fn phase_to_energy(phase: f64, t: f64) -> f64 {
    // undo phase = E·t/2π mod 1, choosing the branch in (−2π, 0] for
    // negative molecular energies
    let e = phase * std::f64::consts::TAU / t;
    if e > std::f64::consts::PI {
        e - std::f64::consts::TAU
    } else {
        e
    }
}
