//! The accuracy–compactness trade-off, live: sweep the tolerance value ε
//! over a Grover simulation and watch compactness, accuracy and run-time
//! move against each other (the paper's Sec. III / Fig. 3 in miniature).
//!
//! ```text
//! cargo run --release --example epsilon_tradeoff [n_qubits]
//! ```

use aqudd::circuits::grover;
use aqudd::dd::{NormScheme, NumericContext, QomegaContext};
use aqudd::sim::{normalized_distance, Simulator};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(9);
    let marked = (1u64 << n) - 3;
    let circuit = grover(n, marked);
    println!(
        "Grover on {n} qubits ({} gates); marked element {marked}\n",
        circuit.len()
    );

    // Exact algebraic reference (and its own cost).
    let t0 = Instant::now();
    let mut reference = Simulator::new(QomegaContext::new(), &circuit);
    let ref_result = reference.try_run()?;
    let ref_secs = t0.elapsed().as_secs_f64();

    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>10}",
        "epsilon", "peak nodes", "final nodes", "error", "seconds"
    );
    println!(
        "{:<12} {:>12} {:>12} {:>14} {:>10.3}",
        "algebraic",
        ref_result.trace.peak_nodes(),
        ref_result.final_nodes,
        "0 (exact)",
        ref_secs
    );

    for eps in [0.0, 1e-20, 1e-15, 1e-10, 1e-7, 1e-5, 1e-3, 1e-1] {
        let ctx = NumericContext::with_eps_and_scheme(eps, NormScheme::MaxMagnitude);
        let t0 = Instant::now();
        let mut sim = Simulator::new(ctx, &circuit);
        let result = sim.try_run()?;
        let secs = t0.elapsed().as_secs_f64();
        let err = normalized_distance(&result.amplitudes, &ref_result.amplitudes);
        println!(
            "{:<12.0e} {:>12} {:>12} {:>14.3e} {:>10.3}",
            eps,
            result.trace.peak_nodes(),
            result.final_nodes,
            err,
            secs
        );
    }

    println!(
        "\nsmall ε: huge diagrams (misses redundancies); large ε: corrupted\n\
         results (down to the zero vector). The algebraic representation\n\
         gets compactness AND exactness — with no parameter to tune."
    );
    Ok(())
}
