//! Per-layer probes of the traced run. Every layer is measured from
//! outside: spans around calls into its public functions, and the
//! counters it already exposes.

use std::collections::BTreeMap;
use std::time::Instant;

use aq_bigint::{IBig, UBig};
use aq_circuits::Circuit;
use aq_dd::{
    EngineError, EngineStatistics, GcdContext, Manager, NormScheme, NumericContext, QomegaContext,
    WeightContext,
};
use aq_rings::{Domega, Qomega, Zomega};
use aq_sim::SchemeSpec;
use aq_testutil::Rng;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// One circuit replayed gate by gate on a fresh manager.
#[derive(Debug, Clone)]
pub struct Replay {
    pub circuit: usize,
    pub start: u64,
    pub scheme: SchemeSpec,
}

/// Draws per replayed final state for the sampler rows.
const DRAWS: u64 = 4096;

/// Counters and times summed over every replay of a workload.
#[derive(Debug, Default)]
pub struct DdTotals {
    pub compute_hits: u64,
    pub compute_lookups: u64,
    pub weight_hits: u64,
    pub weight_lookups: u64,
    pub distinct_weights: usize,
    pub nodes_allocated: usize,
    pub peak_state_nodes: usize,
    pub coeff_bits_peak: u64,
    pub compactions: u64,
    pub draws: u64,
    /// Gate-build plus `mat_vec` seconds per (circuit, scheme label).
    pub replay_s: BTreeMap<(usize, String), f64>,
}

impl DdTotals {
    fn absorb(&mut self, s: &EngineStatistics) {
        for c in [&s.add_vec, &s.add_mat, &s.mv, &s.mm] {
            self.compute_hits += c.hits;
            self.compute_lookups += c.lookups;
        }
        for c in [&s.wop, &s.wnorm] {
            self.weight_hits += c.hits;
            self.weight_lookups += c.lookups;
        }
        self.distinct_weights = self.distinct_weights.max(s.distinct_weights);
        self.nodes_allocated = self.nodes_allocated.max(s.vec_nodes + s.mat_nodes);
        self.compactions += s.compactions;
    }

    /// Exact÷numeric(ε = 1e-10) replay time over the circuits replayed
    /// under both.
    fn gap(&self, exact: &str) -> f64 {
        let (mut e, mut n) = (0.0, 0.0);
        for ((c, label), t) in &self.replay_s {
            if label == exact {
                if let Some(tn) = self.replay_s.get(&(*c, "numeric_eps1e-10".to_string())) {
                    e += t;
                    n += tn;
                }
            }
        }
        e / n
    }
}

/// Replays every entry, mirroring the simulator's step loop (gate build,
/// `mat_vec`, compaction past the default threshold), then extracts
/// amplitudes and draws from a state sampler.
///
/// # Errors
///
/// The first engine error, with the replay it stopped.
pub fn replay_all(
    circuits: &[Circuit],
    replays: &[Replay],
    tracer: &mut Tracer,
    rng: &mut Rng,
) -> Result<DdTotals, String> {
    let mut acc = DdTotals::default();
    for r in replays {
        let c = &circuits[r.circuit];
        let (t, bits) = match &r.scheme {
            SchemeSpec::Numeric { eps } => replay_one(
                NumericContext::with_eps_and_scheme(*eps, NormScheme::MaxMagnitude),
                c,
                r.start,
                tracer,
                &mut acc,
                rng,
            ),
            SchemeSpec::Qomega => {
                replay_one(QomegaContext::new(), c, r.start, tracer, &mut acc, rng)
            }
            SchemeSpec::Gcd => replay_one(GcdContext::new(), c, r.start, tracer, &mut acc, rng),
        }
        .map_err(|e| format!("replay of circuit {} under {}: {e}", r.circuit, r.scheme))?;
        // Doubles report their mantissa width; only exact coefficients
        // grow, and they size the bigint and ring operands.
        if r.scheme.is_algebraic() {
            acc.coeff_bits_peak = acc.coeff_bits_peak.max(bits);
        }
        *acc.replay_s
            .entry((r.circuit, r.scheme.label()))
            .or_default() += t;
    }
    Ok(acc)
}

/// One replay; returns its gate-build plus `mat_vec` seconds and the peak
/// coefficient bit width of the state.
fn replay_one<W: WeightContext>(
    ctx: W,
    circuit: &Circuit,
    start: u64,
    tr: &mut Tracer,
    acc: &mut DdTotals,
    rng: &mut Rng,
) -> Result<(f64, u64), EngineError> {
    let threshold = aq_sim::SimOptions::default().compact_threshold;
    let mut m = Manager::new(ctx, circuit.n_qubits());
    let mut state = m.try_basis_state(start)?;
    let mut engine_s = 0.0;
    let mut bits = 0;
    tr.span("dd.replay", |tr| {
        for op in circuit.ops() {
            let t = Instant::now();
            let gate = tr.span("dd.gate_build", |_| aq_sim::try_op_operator(&mut m, op))?;
            state = tr.span("dd.mat_vec", |_| m.try_mat_vec(&gate, &state))?;
            engine_s += t.elapsed().as_secs_f64();
            acc.peak_state_nodes = acc.peak_state_nodes.max(m.vec_nodes(&state));
            bits = bits.max(m.max_weight_bits(&state));
            if m.allocated_nodes() > threshold {
                let (vs, _) = tr.span("dd.compact", |_| m.try_compact(&[state], &[]))?;
                state = vs[0];
            }
        }
        Ok::<(), EngineError>(())
    })?;
    acc.absorb(&m.statistics());
    tr.span("dd.extract", |tr| {
        let amps = m.amplitudes(&state);
        tr.count(amps.len() as u64);
        std::hint::black_box(amps.len());
    });
    let sampler = tr.span("dd.sampler_build", |_| m.try_state_sampler(&state))?;
    tr.span("dd.draw", |tr| {
        let mut x = 0u64;
        for _ in 0..DRAWS {
            x ^= sampler.draw(|| rng.unit_f64());
        }
        tr.count(DRAWS);
        std::hint::black_box(x);
    });
    acc.draws += DRAWS;
    Ok((engine_s, bits))
}

/// Emits the `dd.*` rows and the replay-based `sim.gap_*` rows.
pub fn dd_rows(report: &mut Report, acc: &DdTotals, tracer: &Tracer) {
    let tot = tracer.totals();
    let self_s = |name: &str| tot.get(name).map_or(0.0, |t| t.self_s);
    report.metric("dd.gate_build_s", "s", self_s("dd.gate_build"), vec![]);
    report.metric("dd.mat_vec_s", "s", self_s("dd.mat_vec"), vec![]);
    report.metric("dd.extract_s", "s", self_s("dd.extract"), vec![]);
    report.metric(
        "dd.sampler_build_s",
        "s",
        self_s("dd.sampler_build"),
        vec![],
    );
    report.metric(
        "dd.draw_ns",
        "ns",
        self_s("dd.draw") * 1e9 / acc.draws.max(1) as f64,
        vec![],
    );
    let ratio = |h: u64, l: u64| if l == 0 { 0.0 } else { h as f64 / l as f64 };
    report.metric(
        "dd.compute_hit_rate",
        "share",
        ratio(acc.compute_hits, acc.compute_lookups),
        vec![],
    );
    report.metric(
        "dd.weight_hit_rate",
        "share",
        ratio(acc.weight_hits, acc.weight_lookups),
        vec![],
    );
    report.metric(
        "dd.distinct_weights",
        "count",
        acc.distinct_weights as f64,
        vec![],
    );
    report.metric(
        "dd.nodes_allocated",
        "count",
        acc.nodes_allocated as f64,
        vec![],
    );
    report.metric(
        "dd.peak_state_nodes",
        "count",
        acc.peak_state_nodes as f64,
        vec![],
    );
    report.metric(
        "dd.coeff_bits_peak",
        "bits",
        acc.coeff_bits_peak as f64,
        vec![],
    );
    report.metric("dd.compactions", "count", acc.compactions as f64, vec![]);
    report.metric("sim.gap_gcd", "ratio", acc.gap("gcd"), vec![]);
    report.metric("sim.gap_qomega", "ratio", acc.gap("qomega"), vec![]);
}

/// A random non-negative integer of exactly `bits` bits.
fn random_ibig(rng: &mut Rng, bits: u64) -> IBig {
    let mut x = IBig::one();
    let mut left = bits.saturating_sub(1);
    while left > 0 {
        let take = left.min(32);
        x = &(&x << take) + &IBig::from(rng.next_u64() >> (64 - take));
        left -= take;
    }
    x
}

/// Nanoseconds per call of `f` over `inputs`: chunks of about 40 ms,
/// median of five, inside a span named `name`.
fn ns_per_op<T>(
    tr: &mut Tracer,
    name: &'static str,
    inputs: &[T],
    mut f: impl FnMut(&T) -> usize,
) -> (f64, Vec<f64>) {
    // calibrate the chunk length on one sweep over the inputs
    let t = Instant::now();
    let mut sink = 0usize;
    for x in inputs {
        sink ^= f(x);
    }
    let per_sweep = t.elapsed().as_secs_f64().max(1e-7);
    let sweeps = ((0.04 / per_sweep) as usize).clamp(1, 100_000);
    let mut chunks = Vec::with_capacity(5);
    tr.span(name, |tr| {
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..sweeps {
                for x in inputs {
                    sink ^= f(std::hint::black_box(x));
                }
            }
            chunks.push(t.elapsed().as_nanos() as f64 / (sweeps * inputs.len()) as f64);
        }
        tr.count((5 * sweeps * inputs.len()) as u64);
    });
    std::hint::black_box(sink);
    (median(&chunks), chunks)
}

/// `bigint.*` and `rings.*` rows on seeded operands `bits` wide (the
/// workload's peak coefficient width).
pub fn arithmetic_rows(report: &mut Report, tr: &mut Tracer, rng: &mut Rng, bits: u64) {
    let bits = bits.max(2);
    report.metric("bigint.operand_bits", "bits", bits as f64, vec![]);
    let pairs: Vec<(IBig, IBig)> = (0..16)
        .map(|_| (random_ibig(rng, bits), random_ibig(rng, bits)))
        .collect();
    let (v, s) = ns_per_op(tr, "bigint.mul", &pairs, |(a, b)| {
        (a * b).bit_len() as usize
    });
    report.metric("bigint.mul_ns", "ns", v, s);
    let products: Vec<(IBig, IBig)> = pairs
        .iter()
        .map(|(a, b)| {
            (
                &(a * b) + &random_ibig(rng, bits.saturating_sub(1).max(1)),
                b.clone(),
            )
        })
        .collect();
    let (v, s) = ns_per_op(tr, "bigint.divrem", &products, |(p, b)| {
        p.div_rem(b).1.bit_len() as usize
    });
    report.metric("bigint.divrem_ns", "ns", v, s);
    let (v, s) = ns_per_op(tr, "bigint.gcd", &pairs, |(a, b)| {
        a.gcd(b).bit_len() as usize
    });
    report.metric("bigint.gcd_ns", "ns", v, s);

    let zomega = |rng: &mut Rng, bits: u64| {
        Zomega::new(
            random_ibig(rng, bits),
            -random_ibig(rng, bits),
            random_ibig(rng, bits),
            -random_ibig(rng, bits),
        )
    };
    let big: Vec<(Zomega, Zomega)> = (0..16)
        .map(|_| (zomega(rng, bits.max(80)), zomega(rng, bits.max(80))))
        .collect();
    let inline: Vec<(Zomega, Zomega)> = (0..16)
        .map(|_| (zomega(rng, 12), zomega(rng, 12)))
        .collect();
    let (v, s) = ns_per_op(tr, "rings.mul_big", &big, |(a, b)| {
        usize::from((a * b).is_zero())
    });
    report.metric("rings.mul_big_ns", "ns", v, s);
    let (v, s) = ns_per_op(tr, "rings.mul_inline", &inline, |(a, b)| {
        usize::from((a * b).is_zero())
    });
    report.metric("rings.mul_inline_ns", "ns", v, s);
    let (v, s) = ns_per_op(tr, "rings.zomega_gcd", &big, |(a, b)| {
        usize::from(a.gcd(b).is_one())
    });
    report.metric("rings.zomega_gcd_ns", "ns", v, s);
    // numerators with several √2 factors, so canonicalisation has work
    let reducible: Vec<Zomega> = big.iter().map(|(a, _)| a.mul_sqrt2_pow(6)).collect();
    let (v, s) = ns_per_op(tr, "rings.domega_new", &reducible, |z| {
        Domega::new(z.clone(), 9).k() as usize
    });
    report.metric("rings.domega_new_ns", "ns", v, s);
    let fractions: Vec<Qomega> = big
        .iter()
        .map(|(a, b)| {
            let d = b.coeffs()[0].abs().magnitude().clone();
            Qomega::new(
                a.clone(),
                3,
                if d == UBig::from(0u64) {
                    UBig::from(1u64)
                } else {
                    d
                },
            )
        })
        .collect();
    let (v, s) = ns_per_op(tr, "rings.qomega_inverse", &fractions, |q| {
        usize::from(q.inverse().is_some_and(|i| i.is_zero()))
    });
    report.metric("rings.qomega_inverse_ns", "ns", v, s);
}

/// `circuits.*` rows: `parse_qasm` over the workload's QASM texts and
/// `CliffordTCompiler::compile` over its compile inputs, each the median
/// of five sweeps; a row whose inputs are empty is left out.
pub fn circuits_rows(report: &mut Report, tr: &mut Tracer, qasm: &[String], compile: &[Circuit]) {
    let mut parse = Vec::new();
    let mut comp = Vec::new();
    for _ in 0..5 {
        if !qasm.is_empty() {
            let t = Instant::now();
            tr.span("circuits.parse", |tr| {
                for text in qasm {
                    match aq_circuits::qasm::parse_qasm(text) {
                        Ok(c) => tr.count(c.len() as u64),
                        Err(e) => report.fail(format!("generated QASM does not parse: {e}")),
                    }
                }
            });
            parse.push(t.elapsed().as_secs_f64());
        }
        if !compile.is_empty() {
            let mut compiler =
                aq_circuits::cliffordt::CliffordTCompiler::new(8).without_two_stage();
            let t = Instant::now();
            tr.span("circuits.compile", |tr| {
                for c in compile {
                    let (out, _) = compiler.compile(c);
                    tr.count(out.len() as u64);
                }
            });
            comp.push(t.elapsed().as_secs_f64());
        }
    }
    if !parse.is_empty() {
        report.median("circuits.parse_s", "s", parse);
    }
    if !comp.is_empty() {
        report.median("circuits.compile_s", "s", comp);
    }
}
