//! The Binary Welded Tree quantum walk (the paper's Fig. 4 workload):
//! a coined walker crosses from the entrance root to the exit side of a
//! randomly welded pair of binary trees — exponentially faster than any
//! classical random walk — simulated with exact algebraic QMDDs.
//!
//! ```text
//! cargo run --release --example bwt_walk [height] [steps]
//! ```

use aqudd::circuits::{bwt, BwtParams};
use aqudd::dd::QomegaContext;
use aqudd::sim::Simulator;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let height: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let steps: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(40);

    let (circuit, tree) = bwt(BwtParams {
        height,
        steps,
        seed: 0xBD7,
    });
    println!(
        "welded tree: height {height}, {} vertices, {} qubits ({} vertex + 2 coin)",
        tree.vertex_count(),
        circuit.n_qubits(),
        circuit.n_qubits() - 2
    );
    println!(
        "walking {} steps ({} exact operations)…\n",
        steps,
        circuit.len()
    );

    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    sim.try_reset_to(tree.coined_start())?;
    let result = sim.try_run()?;

    let probs = tree.vertex_probabilities(&result.amplitudes);
    let off = (1usize << (height + 1)) as u64;

    // probability per column of the welded tree
    let column = |v: u64| -> usize {
        if v < off {
            (63 - v.leading_zeros()) as usize // depth in tree A
        } else {
            let d = (63 - (v - off).leading_zeros()) as usize;
            (2 * height as usize + 1) - d // distance from entrance via exit side
        }
    };
    let mut per_column = vec![0.0; 2 * height as usize + 2];
    for (v, p) in probs.iter().enumerate() {
        if *p > 0.0 && v > 0 {
            per_column[column(v as u64)] += p;
        }
    }
    println!(
        "probability by column (entrance = column 0, exit = column {}):",
        2 * height + 1
    );
    for (c, p) in per_column.iter().enumerate() {
        let bar = "#".repeat((p * 120.0).round() as usize);
        println!("  col {c:>2}: {p:.4} {bar}");
    }
    println!(
        "\nP(exit vertex) = {:.4}; exit-side probability = {:.4}",
        probs[tree.exit() as usize],
        probs[off as usize..].iter().sum::<f64>()
    );
    println!(
        "state DD: {} nodes (of at most {}), norm preserved exactly: Σ|α|² = {:.12}",
        result.final_nodes,
        (1usize << circuit.n_qubits()) - 1,
        probs.iter().sum::<f64>()
    );
    Ok(())
}
