//! Snapshot round-trip property tests: random Clifford+T circuits →
//! snapshot → load must reproduce the manager bit-identically — node and
//! weight counts, unique-table capacities, root edges, and exact inner
//! products — for both the numeric and the exact algebraic contexts.

use aq_dd::{
    Edge, EngineError, EngineStatistics, GateMatrix, Manager, NumericContext, QomegaContext, VecId,
    WeightContext,
};
use aq_testutil::proptest::prelude::*;
use aq_testutil::TestResult;

#[derive(Debug, Clone)]
enum Op {
    H(u32),
    X(u32),
    S(u32),
    T(u32),
    Tdg(u32),
    Cx(u32, u32),
}

fn op(n: u32) -> impl Strategy<Value = Op> {
    let q = 0..n;
    prop_oneof![
        q.clone().prop_map(Op::H),
        q.clone().prop_map(Op::X),
        q.clone().prop_map(Op::S),
        q.clone().prop_map(Op::T),
        q.clone().prop_map(Op::Tdg),
        (0..n, 0..n).prop_filter_map("distinct", |(a, b)| (a != b).then_some(Op::Cx(a, b))),
    ]
}

fn apply<W: WeightContext>(
    m: &mut Manager<W>,
    state: Edge<VecId>,
    o: &Op,
) -> Result<Edge<VecId>, EngineError> {
    let (g, t, c): (GateMatrix, u32, Vec<(u32, bool)>) = match o {
        Op::H(q) => (GateMatrix::h(), *q, vec![]),
        Op::X(q) => (GateMatrix::x(), *q, vec![]),
        Op::S(q) => (GateMatrix::s(), *q, vec![]),
        Op::T(q) => (GateMatrix::t(), *q, vec![]),
        Op::Tdg(q) => (GateMatrix::tdg(), *q, vec![]),
        Op::Cx(c0, t0) => (GateMatrix::x(), *t0, vec![(*c0, true)]),
    };
    let gd = m.try_gate(&g, t, &c)?;
    m.try_mat_vec(&gd, &state)
}

/// The counters a reloaded manager must reproduce exactly (cache counters
/// are lifetime totals of *operations run*, which a load does not replay).
fn structural(stats: &EngineStatistics) -> (usize, usize, usize, usize, usize, usize, usize, u64) {
    (
        stats.vec_nodes,
        stats.mat_nodes,
        stats.vec_unique_len,
        stats.vec_unique_capacity,
        stats.mat_unique_len,
        stats.mat_unique_capacity,
        stats.distinct_weights,
        stats.compactions,
    )
}

fn roundtrip<W: WeightContext>(ctx: W, ops: &[Op], start: u64) -> Result<(), EngineError>
where
    W::Value: PartialEq + std::fmt::Debug,
{
    let mut m = Manager::new(ctx.clone(), 4);
    let mut s = m.try_basis_state(start)?;
    for o in ops {
        s = apply(&mut m, s, o)?;
    }
    let ip_before = {
        let z = m.try_basis_state(start)?;
        m.inner_product(&z, &s)
    };
    let stats_before = m.statistics();

    let bytes = m.snapshot_to_bytes(&[s], &[]);
    let (mut m2, vec_roots, mat_roots) =
        Manager::snapshot_from_bytes(ctx, &bytes).expect("round-trip load");

    assert_eq!(vec_roots, vec![s], "root edge must round-trip verbatim");
    assert!(mat_roots.is_empty());
    assert_eq!(
        structural(&m2.statistics()),
        structural(&stats_before),
        "node/weight counts must be bit-identical"
    );
    let ip_after = {
        let z = m2.try_basis_state(start)?;
        m2.inner_product(&z, &vec_roots[0])
    };
    assert_eq!(ip_before, ip_after, "inner products must match exactly");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn numeric_snapshot_roundtrips(ops in prop::collection::vec(op(4), 0..25), start in 0u64..16) {
        roundtrip(NumericContext::with_eps(1e-10), &ops, start)?;
    }

    #[test]
    fn numeric_exact_snapshot_roundtrips(ops in prop::collection::vec(op(4), 0..25), start in 0u64..16) {
        roundtrip(NumericContext::new(), &ops, start)?;
    }

    #[test]
    fn qomega_snapshot_roundtrips(ops in prop::collection::vec(op(4), 0..25), start in 0u64..16) {
        roundtrip(QomegaContext::new(), &ops, start)?;
    }
}

#[test]
fn snapshot_survives_a_file_round_trip() -> TestResult {
    let dir = std::env::temp_dir().join("aq_dd_snapshot_roundtrip");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("grover.aqdd");

    let mut m = Manager::new(QomegaContext::new(), 3);
    let s = m.try_basis_state(0b101)?;
    let h = m.try_gate(&GateMatrix::h(), 0, &[])?;
    let s = m.try_mat_vec(&h, &s)?;
    let cx = m.try_gate(&GateMatrix::x(), 2, &[(0, true)])?;
    let s = m.try_mat_vec(&cx, &s)?;

    m.save_snapshot(&path, &[s], &[cx]).expect("save");
    let (mut m2, vec_roots, mat_roots) =
        Manager::load_snapshot(QomegaContext::new(), &path).expect("load");
    assert_eq!(vec_roots, vec![s]);
    assert_eq!(mat_roots, vec![cx]);
    assert_eq!(m2.amplitudes(&vec_roots[0]), m.amplitudes(&s));
    std::fs::remove_file(&path).ok();
    Ok(())
}

#[test]
fn gcd_snapshot_roundtrips_inline_and_promoted_coefficients() -> TestResult {
    use aq_bigint::IBig;
    use aq_dd::GcdContext;
    use aq_rings::{Domega, Zomega};

    // weights on both sides of the i64 inline boundary, including ones
    // whose coefficients only exist in the heap-promoted representation
    let big = &(&IBig::from(i64::MAX) * &IBig::from(7)) + &IBig::from(12345);
    let values = [
        Domega::new(Zomega::new(1.into(), 0.into(), 1.into(), 1.into()), 3),
        Domega::new(
            Zomega::new(i64::MAX.into(), i64::MIN.into(), 1.into(), 0.into()),
            1,
        ),
        Domega::new(
            Zomega::new(big.clone(), (-&big).clone(), 3.into(), big.clone()),
            5,
        ),
        Domega::from(Zomega::new(
            IBig::zero(),
            big.clone(),
            IBig::zero(),
            IBig::one(),
        )),
    ];
    let mut m = Manager::new(GcdContext::new(), 2);
    let s = m.try_basis_state(0)?;
    let mut ids = Vec::new();
    for v in &values {
        assert!(v.is_reduced(), "test values must be canonical");
        ids.push(m.try_intern(v.clone())?);
    }
    // mixed-repr forms must round-trip the decimal-string serialization
    let bytes = m.snapshot_to_bytes(&[s], &[]);
    let (m2, roots, _) = Manager::snapshot_from_bytes(GcdContext::new(), &bytes).expect("load");
    assert_eq!(roots, vec![s]);
    assert_eq!(m2.distinct_weights(), m.distinct_weights());
    for (v, id) in values.iter().zip(&ids) {
        let loaded = m2.weight(*id);
        assert_eq!(loaded, v, "weight w{} must be bit-identical", id.index());
        assert!(loaded.is_reduced(), "reloaded weight must stay canonical");
    }
    // inline values stay inline, promoted values stay promoted
    assert!(m2.weight(ids[0]).numerator().is_inline());
    assert!(m2.weight(ids[1]).numerator().is_inline());
    assert!(!m2.weight(ids[2]).numerator().is_inline());
    assert!(!m2.weight(ids[3]).numerator().is_inline());
    Ok(())
}

#[test]
fn gcd_context_snapshot_roundtrips() -> TestResult {
    use aq_dd::GcdContext;
    let mut m = Manager::new(GcdContext::new(), 3);
    let mut s = m.try_basis_state(0)?;
    for o in [Op::H(0), Op::T(0), Op::Cx(0, 2), Op::S(1), Op::Tdg(2)] {
        s = apply(&mut m, s, &o)?;
    }
    let bytes = m.snapshot_to_bytes(&[s], &[]);
    let (m2, roots, _) = Manager::snapshot_from_bytes(GcdContext::new(), &bytes).expect("load");
    assert_eq!(roots, vec![s]);
    assert_eq!(structural(&m2.statistics()), structural(&m.statistics()));
    Ok(())
}
