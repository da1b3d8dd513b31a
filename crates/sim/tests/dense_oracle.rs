//! Cross-validation against a straightforward dense state-vector
//! simulator — an oracle fully independent of the decision-diagram
//! engine, catching systematic errors that DD-vs-DD comparisons share.

use aq_circuits::{bwt, grover, BwtParams, Circuit, Op};
use aq_dd::{GateEntry, QomegaContext};
use aq_rings::Complex64;
use aq_sim::{normalized_distance, Simulator};
use aq_testutil::proptest::prelude::*;
use aq_testutil::TestResult;

/// Plain `2ⁿ`-vector simulation of a circuit (the “straight-forward
/// representation” the paper's Sec. II-B contrasts DDs with).
fn dense_simulate(circuit: &Circuit, start: u64) -> Vec<Complex64> {
    let n = circuit.n_qubits();
    let dim = 1usize << n;
    let mut state = vec![Complex64::ZERO; dim];
    state[start as usize] = Complex64::ONE;

    for op in circuit.iter() {
        match op {
            Op::Gate {
                matrix,
                target,
                controls,
            } => {
                let entries = matrix.entries();
                let get = |e: &GateEntry| match e {
                    GateEntry::Exact(d) => d.to_complex64(),
                    GateEntry::Approx(c) => *c,
                };
                let u = [
                    get(&entries[0]),
                    get(&entries[1]),
                    get(&entries[2]),
                    get(&entries[3]),
                ];
                let tbit = 1usize << (n - 1 - target);
                let mut next = state.clone();
                for i in 0..dim {
                    if i & tbit != 0 {
                        continue; // handle each target pair once, from the 0 side
                    }
                    let j = i | tbit;
                    let fires = controls.iter().all(|&(c, pol)| {
                        let cbit = 1usize << (n - 1 - c);
                        (i & cbit != 0) == pol
                    });
                    if !fires {
                        continue;
                    }
                    let (a, b) = (state[i], state[j]);
                    next[i] = u[0] * a + u[1] * b;
                    next[j] = u[2] * a + u[3] * b;
                }
                state = next;
            }
            Op::MatchingEvolution { pairs } => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                let c = Complex64::new(s, 0.0);
                let ms = Complex64::new(0.0, -s);
                for &(x, y) in pairs.iter() {
                    let (a, b) = (state[x as usize], state[y as usize]);
                    state[x as usize] = c * a + ms * b;
                    state[y as usize] = ms * a + c * b;
                }
            }
            Op::Permutation { map } => {
                let mut next = vec![Complex64::ZERO; dim];
                for (x, &y) in map.iter().enumerate() {
                    next[y as usize] = state[x];
                }
                state = next;
            }
            Op::Measure { .. } | Op::Reset { .. } | Op::Conditional { .. } => {
                panic!("the dense oracle only covers unitary circuits")
            }
        }
    }
    state
}

#[test]
fn grover_matches_dense_oracle() -> TestResult {
    let circuit = grover(6, 45);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    let dd = sim.try_run()?.amplitudes;
    let dense = dense_simulate(&circuit, 0);
    assert!(normalized_distance(&dd, &dense) < 1e-10);
    Ok(())
}

#[test]
fn bwt_matches_dense_oracle() -> TestResult {
    let (circuit, tree) = bwt(BwtParams {
        height: 3,
        steps: 15,
        seed: 21,
    });
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    sim.try_reset_to(tree.coined_start())?;
    let dd = sim.try_run()?.amplitudes;
    let dense = dense_simulate(&circuit, tree.coined_start());
    assert!(normalized_distance(&dd, &dense) < 1e-10);
    Ok(())
}

#[derive(Debug, Clone)]
enum RndOp {
    H(u32),
    T(u32),
    Y(u32),
    Sx(u32),
    Cx(u32, u32),
    NegCx(u32, u32),
    Ccz(u32, u32, u32),
}

fn rnd_op(n: u32) -> impl Strategy<Value = RndOp> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(RndOp::H),
        q.clone().prop_map(RndOp::T),
        q.clone().prop_map(RndOp::Y),
        q.clone().prop_map(RndOp::Sx),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(RndOp::Cx(a, b))),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(RndOp::NegCx(a, b))),
        (0..n, 0..n, 0..n).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then_some(RndOp::Ccz(a, b, c))
        }),
    ]
}

fn build(n: u32, ops: &[RndOp]) -> Circuit {
    use aq_dd::GateMatrix;
    let mut c = Circuit::new(n);
    for o in ops {
        match o {
            RndOp::H(q) => c.push_gate(GateMatrix::h(), *q, &[]),
            RndOp::T(q) => c.push_gate(GateMatrix::t(), *q, &[]),
            RndOp::Y(q) => c.push_gate(GateMatrix::y(), *q, &[]),
            RndOp::Sx(q) => c.push_gate(GateMatrix::sx(), *q, &[]),
            RndOp::Cx(a, b) => c.push_gate(GateMatrix::x(), *b, &[(*a, true)]),
            RndOp::NegCx(a, b) => c.push_gate(GateMatrix::x(), *b, &[(*a, false)]),
            RndOp::Ccz(a, b, t) => c.push_gate(GateMatrix::z(), *t, &[(*a, true), (*b, true)]),
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_circuits_match_dense_oracle(
        ops in prop::collection::vec(rnd_op(5), 0..30),
        start in 0u64..32,
    ) {
        let circuit = build(5, &ops);
        let mut sim = Simulator::new(QomegaContext::new(), &circuit);
        sim.try_reset_to(start)?;
        let dd = sim.try_run()?.amplitudes;
        let dense = dense_simulate(&circuit, start);
        for (i, (a, b)) in dd.iter().zip(&dense).enumerate() {
            prop_assert!((*a - *b).abs() < 1e-10, "amplitude {i}: {a:?} vs {b:?}");
        }
    }
}
