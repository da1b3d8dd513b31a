//! End-to-end simulation tests: the three benchmark workloads across
//! weight systems.

use aq_circuits::cliffordt::CliffordTCompiler;
use aq_circuits::{bwt, grover, gse, BwtParams, GseParams};
use aq_dd::{GcdContext, NumericContext, QomegaContext};
use aq_sim::{normalized_distance, PairedRun, SimOptions, Simulator};
use aq_testutil::TestResult;

#[test]
fn grover_finds_marked_element_all_contexts() -> TestResult {
    let n = 6;
    let marked = 0b101101u64;
    let circuit = grover(n, marked);

    let check = |probs: Vec<f64>| {
        let (best, p) = probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("nonempty");
        assert_eq!(best as u64, marked);
        assert!(*p > 0.9, "amplification too weak: {p}");
    };

    let mut s = Simulator::new(QomegaContext::new(), &circuit);
    check(s.try_run()?.probabilities());
    let mut s = Simulator::new(GcdContext::new(), &circuit);
    check(s.try_run()?.probabilities());
    let mut s = Simulator::new(NumericContext::with_eps(1e-12), &circuit);
    check(s.try_run()?.probabilities());
    Ok(())
}

#[test]
fn grover_state_stays_tiny_algebraically() -> TestResult {
    // The Grover state at iteration boundaries has two distinct
    // amplitudes (n nodes); mid-oracle/diffusion intermediates are
    // slightly richer but still linear in n — the compactness half of
    // the paper's claim. With exact weights nothing ever blows up.
    let circuit = grover(8, 17);
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    let result = sim.try_run()?;
    // two distinct amplitudes = a marked-path chain beside the uniform
    // subtree: at most 2n − 1 nodes
    assert!(result.final_nodes <= 15, "final {}", result.final_nodes);
    assert!(
        result.trace.peak_nodes() <= 4 * 8,
        "peak {}",
        result.trace.peak_nodes()
    );
    Ok(())
}

#[test]
fn bwt_walk_is_unitary_and_spreads_to_exit_side() -> TestResult {
    let (circuit, tree) = bwt(BwtParams {
        height: 3,
        steps: 40,
        seed: 11,
    });
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    sim.try_reset_to(tree.coined_start())?;
    let result = sim.try_run()?;
    let probs = tree.vertex_probabilities(&result.amplitudes);
    let total: f64 = probs.iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "walk must stay unitary: {total}"
    );
    // probability must have reached the second tree (labels ≥ offset)
    let off = 1usize << 4;
    let second_tree: f64 = probs[off..].iter().sum();
    assert!(
        second_tree > 0.05,
        "walk failed to cross the weld: {second_tree}"
    );
    // label 0 is unused and must stay unpopulated
    assert!(probs[0] < 1e-12);
    Ok(())
}

#[test]
fn bwt_trotter_walk_is_unitary() -> TestResult {
    use aq_circuits::bwt_trotter;
    let (circuit, tree) = bwt_trotter(BwtParams {
        height: 3,
        steps: 20,
        seed: 11,
    });
    let mut sim = Simulator::new(QomegaContext::new(), &circuit);
    sim.try_reset_to(tree.entrance())?;
    let result = sim.try_run()?;
    let total: f64 = result.probabilities().iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "walk must stay unitary: {total}"
    );
    Ok(())
}

#[test]
fn bwt_matches_between_numeric_and_algebraic() -> TestResult {
    let (circuit, tree) = bwt(BwtParams {
        height: 2,
        steps: 12,
        seed: 3,
    });
    let mut alg = Simulator::new(QomegaContext::new(), &circuit);
    alg.try_reset_to(tree.coined_start())?;
    let mut num = Simulator::new(NumericContext::with_eps(1e-12), &circuit);
    num.try_reset_to(tree.coined_start())?;
    let va = alg.try_run()?.amplitudes;
    let vn = num.try_run()?.amplitudes;
    assert!(normalized_distance(&vn, &va) < 1e-9);
    Ok(())
}

#[test]
fn gse_compiled_circuit_runs_in_every_context() -> TestResult {
    let params = GseParams {
        precision_bits: 2,
        ..GseParams::default()
    };
    let raw = gse(&params);
    let mut comp = CliffordTCompiler::new(6);
    let (compiled, worst) = comp.compile(&raw);
    assert!(compiled.is_exact());
    assert!(worst < 0.5);

    // the same Clifford+T circuit runs numerically and algebraically;
    // both must produce the identical state (it is the same circuit!)
    let mut alg = Simulator::new(QomegaContext::new(), &compiled);
    let va = alg.try_run()?.amplitudes;
    let mut num = Simulator::new(NumericContext::with_eps(1e-12), &compiled);
    let vn = num.try_run()?.amplitudes;
    assert!(normalized_distance(&vn, &va) < 1e-8);
    Ok(())
}

#[test]
fn epsilon_too_large_destroys_the_grover_state() -> TestResult {
    // Sec. III / Fig. 2 of the paper: a huge tolerance collapses the state
    // (information loss), here measured against the exact reference.
    let circuit = grover(5, 9);
    let pair = PairedRun::new(NumericContext::with_eps(1e-1), &circuit, 5);
    let (subject, _) = pair.run()?;
    let err = subject.final_error().expect("sampled");
    assert!(err > 0.5, "expected catastrophic loss, got {err}");
    Ok(())
}

#[test]
fn moderate_epsilon_tracks_exact_result() -> TestResult {
    let circuit = grover(5, 9);
    let pair = PairedRun::new(NumericContext::with_eps(1e-10), &circuit, 7);
    let (subject, reference) = pair.run()?;
    let err = subject.final_error().expect("sampled");
    assert!(err < 1e-6, "moderate ε should track: {err}");
    assert!(reference.max_error().is_none());
    Ok(())
}

#[test]
fn compaction_threshold_does_not_change_results() -> TestResult {
    let circuit = grover(5, 21);
    let mut tight = Simulator::with_options(
        QomegaContext::new(),
        &circuit,
        SimOptions {
            record_trace: false,
            compact_threshold: 64, // absurdly small: compacts constantly
            ..SimOptions::default()
        },
    );
    let mut loose = Simulator::new(QomegaContext::new(), &circuit);
    let a = tight.try_run()?.amplitudes;
    let b = loose.try_run()?.amplitudes;
    assert!(normalized_distance(&a, &b) < 1e-12);
    Ok(())
}

#[test]
fn tiny_lossy_caches_are_bit_identical_to_default_caches() -> TestResult {
    // The compute caches are lossy memoisation, not state: shrinking them
    // to a handful of slots (forcing constant evictions) and compacting
    // constantly must reproduce the default run bit for bit.
    let circuit = grover(6, 45);
    let mut starved = Simulator::with_options(
        QomegaContext::new(),
        &circuit,
        SimOptions {
            record_trace: false,
            compact_threshold: 64,   // compacts after almost every gate
            cache_capacity: Some(4), // four slots per compute cache
            ..SimOptions::default()
        },
    );
    let mut default = Simulator::new(QomegaContext::new(), &circuit);
    let a = starved.try_run()?.amplitudes;
    let b = default.try_run()?.amplitudes;
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        // exact algebraic weights: the amplitudes are equal as f64 bits
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
    let stats = starved.statistics();
    let total_evictions =
        stats.add_vec.evictions + stats.add_mat.evictions + stats.mv.evictions + stats.mm.evictions;
    assert!(
        total_evictions > 0,
        "tiny caches must actually evict to exercise the lossy path"
    );
    assert!(stats.compactions > 0, "threshold 64 must force compactions");
    Ok(())
}

#[test]
fn statistics_counters_are_monotone_and_consistent() -> TestResult {
    let circuit = grover(5, 9);
    let mut sim = Simulator::with_options(
        QomegaContext::new(),
        &circuit,
        SimOptions {
            record_trace: false,
            compact_threshold: 64, // counters must survive compaction
            ..SimOptions::default()
        },
    );
    let mut prev = sim.statistics();
    while sim.try_step()? {
        let now = sim.statistics();
        for (p, n) in [
            (prev.add_vec, now.add_vec),
            (prev.add_mat, now.add_mat),
            (prev.mv, now.mv),
            (prev.mm, now.mm),
        ] {
            assert!(n.lookups >= p.lookups, "lookups must be monotone");
            assert!(n.hits >= p.hits, "hits must be monotone");
            assert!(n.misses >= p.misses, "misses must be monotone");
            assert!(n.insertions >= p.insertions);
            assert!(n.evictions >= p.evictions);
            assert_eq!(n.lookups, n.hits + n.misses, "lookups = hits + misses");
        }
        assert!(now.compactions >= prev.compactions);
        prev = now;
    }
    // the run did real work through the caches
    assert!(prev.mv.lookups > 0);
    assert!(prev.cache_hit_rate() > 0.0);
    assert!(prev.distinct_weights >= 2);
    Ok(())
}

#[test]
fn trace_records_every_gate() -> TestResult {
    let circuit = grover(4, 1);
    let mut sim = Simulator::new(GcdContext::new(), &circuit);
    let result = sim.try_run()?;
    assert_eq!(result.trace.points.len(), circuit.len());
    assert!(result.trace.total_seconds() > 0.0);
    let last = result.trace.points.last().expect("nonempty");
    assert_eq!(last.gates_applied, circuit.len());
    assert_eq!(last.nodes, result.final_nodes);
    Ok(())
}
