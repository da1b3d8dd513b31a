//! Equivalence checking with exact QMDDs: because algebraic decision
//! diagrams are canonical, checking whether two circuits implement the
//! same unitary reduces to one pointer comparison of the root edges —
//! the design-task payoff the paper highlights in Sec. V-B.
//!
//! ```text
//! cargo run --release --example equivalence_check
//! ```

use aqudd::circuits::{Circuit, Op};
use aqudd::dd::{Edge, GateMatrix, Manager, MatId, QomegaContext};

fn build_unitary(
    m: &mut Manager<QomegaContext>,
    c: &Circuit,
) -> Result<Edge<MatId>, Box<dyn std::error::Error>> {
    let mut u = m.try_identity()?;
    for op in c.iter() {
        let Op::Gate {
            matrix,
            target,
            controls,
        } = op
        else {
            unreachable!("gate circuits only");
        };
        let g = m.try_gate(matrix, *target, controls)?;
        u = m.try_mat_mul(&g, &u)?;
    }
    Ok(u)
}

fn check(name: &str, a: &Circuit, b: &Circuit) -> Result<(), Box<dyn std::error::Error>> {
    let mut m = Manager::new(QomegaContext::new(), a.n_qubits());
    let ua = build_unitary(&mut m, a)?;
    let ub = build_unitary(&mut m, b)?;
    println!(
        "{name}: {}  (root edges {:?} vs {:?})",
        if ua == ub { "EQUIVALENT" } else { "different" },
        ua,
        ub
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A SWAP from three CNOTs vs the qubit-relabelled identity test:
    //    swap · swap = identity.
    let mut swap_twice = Circuit::new(2);
    for _ in 0..2 {
        swap_twice.push_gate(GateMatrix::x(), 1, &[(0, true)]);
        swap_twice.push_gate(GateMatrix::x(), 0, &[(1, true)]);
        swap_twice.push_gate(GateMatrix::x(), 1, &[(0, true)]);
    }
    check("swap² = identity", &swap_twice, &Circuit::new(2))?;

    // 2. The classic HXH = Z identity.
    let mut hxh = Circuit::new(1);
    hxh.push_gate(GateMatrix::h(), 0, &[]);
    hxh.push_gate(GateMatrix::x(), 0, &[]);
    hxh.push_gate(GateMatrix::h(), 0, &[]);
    let mut z = Circuit::new(1);
    z.push_gate(GateMatrix::z(), 0, &[]);
    check("HXH = Z", &hxh, &z)?;

    // 3. T⁷ vs T†: equal.
    let mut t7 = Circuit::new(1);
    for _ in 0..7 {
        t7.push_gate(GateMatrix::t(), 0, &[]);
    }
    let mut tdg = Circuit::new(1);
    tdg.push_gate(GateMatrix::tdg(), 0, &[]);
    check("T⁷ = T†", &t7, &tdg)?;

    // 4. And a near-miss that floating point with a loose tolerance would
    //    wave through: T vs the identity differ by a π/4 phase on one
    //    amplitude — structurally distinct, caught exactly.
    let mut t = Circuit::new(1);
    t.push_gate(GateMatrix::t(), 0, &[]);
    check("T = identity?", &t, &Circuit::new(1))?;
    Ok(())
}
