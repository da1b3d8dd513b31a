//! Simulate an OpenQASM 2.0 file with exact algebraic QMDDs.
//!
//! ```text
//! cargo run --release --example qasm_sim -- path/to/circuit.qasm
//! cargo run --release --example qasm_sim            # built-in demo circuit
//! ```
//!
//! Prints the outcome distribution, the state's decision-diagram size and
//! a Graphviz rendering of the final state.

use aqudd::circuits::qasm::parse_qasm;
use aqudd::dd::QomegaContext;
use aqudd::sim::Simulator;

const DEMO: &str = r#"
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
cx q[0], q[1];
ccx q[0], q[1], q[2];
t q[2];
cx q[1], q[2];
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = match std::env::args().nth(1) {
        Some(path) => std::fs::read_to_string(path)?,
        None => {
            println!("(no file given — simulating the built-in demo circuit)\n{DEMO}");
            DEMO.to_string()
        }
    };
    let circuit = parse_qasm(&source)?;
    println!(
        "{} qubits, {} operations, exactly representable: {}",
        circuit.n_qubits(),
        circuit.len(),
        circuit.is_exact()
    );

    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    let result = sim.try_run()?;
    println!("\noutcome probabilities (non-zero):");
    for (i, p) in result.probabilities().iter().enumerate() {
        if *p > 1e-12 {
            println!(
                "  |{:0width$b}⟩  {p:.6}",
                i,
                width = circuit.n_qubits() as usize
            );
        }
    }
    println!(
        "\nfinal state: {} DD nodes (of at most {}), norm {:.12}",
        result.final_nodes,
        (1u64 << circuit.n_qubits()) - 1,
        result.probabilities().iter().sum::<f64>()
    );

    let state = sim.state();
    println!("\nGraphviz of the final state DD:\n");
    println!("{}", sim.manager().vec_to_dot(&state));
    Ok(())
}
