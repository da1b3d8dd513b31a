//! Fail-soft simulation: budget aborts carry partial results, operator
//! caching keys walk ops by kind, and compaction mid-`build_unitary`
//! stays transparent.

use aq_circuits::{grover, Circuit, Op};
use aq_dd::{GateMatrix, NumericContext, QomegaContext, RunBudget};
use aq_sim::{try_op_operator, SimOptions, Simulator};
use aq_testutil::TestResult;

#[test]
fn try_run_returns_partial_trace_and_statistics() {
    let circuit = grover(5, 9);
    let mut sim = Simulator::with_options(
        NumericContext::with_eps(0.0),
        &circuit,
        SimOptions {
            budget: RunBudget::unlimited().with_max_nodes(12),
            ..SimOptions::default()
        },
    );
    let abort = *sim.try_run().expect_err("tiny node budget must abort");
    assert!(abort.error.source.is_budget());
    assert!(abort.gates_applied < circuit.len());
    assert_eq!(abort.error.op_index, abort.gates_applied);
    // the partial trace covers exactly the applied prefix and names the
    // abort reason
    assert_eq!(abort.trace.points.len(), abort.gates_applied);
    let reason = abort.trace.aborted.as_deref().expect("reason recorded");
    assert!(reason.contains("node budget"), "reason: {reason}");
    // statistics at the abort point reflect real work
    assert!(abort.statistics.mv.lookups > 0);
}

#[test]
fn try_run_succeeds_under_a_generous_budget() {
    let circuit = grover(4, 3);
    let mut sim = Simulator::with_options(
        QomegaContext::new(),
        &circuit,
        SimOptions {
            budget: RunBudget::unlimited().with_max_nodes(1 << 20),
            ..SimOptions::default()
        },
    );
    let result = sim.try_run().expect("generous budget must not abort");
    assert!(result.trace.aborted.is_none());
    let best = result
        .probabilities()
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|x| x.0);
    assert_eq!(best, Some(3));
}

#[test]
fn try_build_unitary_aborts_with_the_failing_op_index() {
    let circuit = grover(5, 17);
    let mut sim = Simulator::with_options(
        QomegaContext::new(),
        &circuit,
        SimOptions {
            record_trace: false,
            budget: RunBudget::unlimited().with_max_nodes(16),
            ..SimOptions::default()
        },
    );
    let err = sim
        .try_build_unitary()
        .expect_err("matrix-matrix products blow the tiny budget");
    assert!(err.source.is_budget());
    assert!(err.op_index < circuit.len());
}

#[test]
fn matching_and_permutation_ops_are_cached_separately() -> TestResult {
    // Regression: the operator cache used to key `MatchingEvolution` and
    // `Permutation` by raw Arc address with no variant tag, so the two op
    // kinds could alias. A circuit interleaving *repeated* instances of
    // both (cache hits on each re-use) must match composing the operators
    // freshly, without any cache.
    let n = 3;
    let mut c = Circuit::new(n);
    let matching = vec![(0u64, 3u64), (1, 6)];
    let rotate: Vec<u64> = (0..(1u64 << n)).map(|x| (x + 1) % (1 << n)).collect();
    for q in 0..n {
        c.push_gate(GateMatrix::h(), q, &[]);
    }
    c.push_matching(matching.clone());
    c.push_permutation(rotate.clone());
    c.push_gate(GateMatrix::t(), 1, &[]);
    // literal re-use of the same Arcs — these hit the operator cache
    let ops: Vec<Op> = c.ops().to_vec();
    for op in &ops[n as usize..] {
        c.push(op.clone());
    }

    let mut sim = Simulator::new(QomegaContext::new(), &c);
    let cached = sim.try_run()?.amplitudes;

    // reference: apply each op's operator built fresh every time
    let mut m = aq_dd::Manager::new(QomegaContext::new(), n);
    let mut state = m.try_basis_state(0)?;
    for op in c.ops() {
        let u = try_op_operator(&mut m, op)?;
        state = m.try_mat_vec(&u, &state)?;
    }
    let fresh = m.amplitudes(&state);
    assert_eq!(cached.len(), fresh.len());
    for (a, b) in cached.iter().zip(&fresh) {
        assert_eq!(a.re.to_bits(), b.re.to_bits());
        assert_eq!(a.im.to_bits(), b.im.to_bits());
    }
    Ok(())
}

#[test]
fn compaction_mid_build_unitary_is_bit_identical() -> TestResult {
    // Compaction during the matrix-matrix pipeline remaps the partial
    // product (a *matrix* root). The compacted build must reproduce the
    // uncompacted unitary bit for bit.
    let compiled = grover(4, 5);

    let mut tight = Simulator::with_options(
        QomegaContext::new(),
        &compiled,
        SimOptions {
            record_trace: false,
            compact_threshold: 64, // compacts after almost every product
            ..SimOptions::default()
        },
    );
    let u_tight = tight.try_build_unitary()?;
    assert!(
        tight.statistics().compactions > 0,
        "threshold 64 must force compactions mid-build"
    );

    let mut loose = Simulator::with_options(
        QomegaContext::new(),
        &compiled,
        SimOptions {
            record_trace: false,
            ..SimOptions::default()
        },
    );
    let u_loose = loose.try_build_unitary()?;

    // compare the full matrices entrywise, as bits
    let a = tight.manager_mut().matrix(&u_tight);
    let b = loose.manager_mut().matrix(&u_loose);
    for (ra, rb) in a.iter().zip(&b) {
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
    Ok(())
}
