//! Seeded input generators. Everything the program under test receives
//! is produced here from the workload seed.

use std::collections::BTreeSet;

use aq_serve::Json;
use aq_testutil::Rng;

/// A Clifford+T circuit whose state keeps a support of exactly `2^k`
/// basis states: `h` on `k` qubits first, then only permutations
/// (`x`/`cx`/`ccx`) and diagonal phases (`t`/`tdg`/`s`/`z`). Every
/// outcome of the final state has probability exactly `2^-k`.
#[derive(Debug, Clone)]
pub struct SupportCircuit {
    pub n: u32,
    pub k: u32,
    pub qasm: String,
    /// The final state's basis states, computed by a classical
    /// permutation model independent of the DD engine (phases leave the
    /// support alone). Qubit 0 is the most significant index bit.
    pub support: BTreeSet<u64>,
}

impl SupportCircuit {
    pub fn probability(&self) -> f64 {
        1.0 / (1u64 << self.k) as f64
    }
}

/// Picks `count` distinct qubits of an `n`-qubit register.
fn distinct_qubits(rng: &mut Rng, n: u32, count: usize) -> Vec<u32> {
    let mut picked: Vec<u32> = Vec::with_capacity(count);
    while picked.len() < count {
        let q = rng.below(u64::from(n)) as u32;
        if !picked.contains(&q) {
            picked.push(q);
        }
    }
    picked
}

/// Generates a support-bounded circuit of `gates` operations after the
/// `k` leading Hadamards. Controls and targets are always distinct.
pub fn support_circuit(rng: &mut Rng, n: u32, k: u32, gates: usize) -> SupportCircuit {
    let bit = |q: u32| 1u64 << (n - 1 - q);
    let mut qasm = format!("OPENQASM 2.0;\nqreg q[{n}];\n");
    let h_qubits = distinct_qubits(rng, n, k as usize);
    let mut support = BTreeSet::from([0u64]);
    for &q in &h_qubits {
        qasm.push_str(&format!("h q[{q}];\n"));
        let spread: Vec<u64> = support.iter().map(|&i| i | bit(q)).collect();
        support.extend(spread);
    }
    for _ in 0..gates {
        let roll = rng.below(16);
        let arity = match roll {
            0..=4 => 2,
            5 => 3,
            _ => 1,
        };
        let qs = distinct_qubits(rng, n, arity);
        let (name, permutes) = match (arity, roll) {
            (2, _) => ("cx", true),
            (3, _) => ("ccx", true),
            (_, 6..=7) => ("x", true),
            (_, 8..=9) => ("t", false),
            (_, 10..=11) => ("tdg", false),
            (_, 12..=13) => ("s", false),
            _ => ("z", false),
        };
        let operands: Vec<String> = qs.iter().map(|q| format!("q[{q}]")).collect();
        qasm.push_str(&format!("{name} {};\n", operands.join(",")));
        if permutes {
            let target = bit(qs[arity - 1]);
            let controls: u64 = qs[..arity - 1].iter().map(|&q| bit(q)).sum();
            support = support
                .into_iter()
                .map(|i| {
                    if i & controls == controls {
                        i ^ target
                    } else {
                        i
                    }
                })
                .collect();
        }
    }
    SupportCircuit {
        n,
        k,
        qasm,
        support,
    }
}

/// A small circuit with a mid-circuit measurement and a classically
/// controlled gate, so a `sample` request takes the fork-per-shot path.
pub fn forked_qasm(rng: &mut Rng) -> String {
    let n = 4 + rng.below(3) as u32;
    let mut s = format!("OPENQASM 2.0;\nqreg q[{n}];\ncreg c[{n}];\n");
    let qs = distinct_qubits(rng, n, 3);
    s.push_str(&format!(
        "h q[{}];\ncx q[{}],q[{}];\nt q[{}];\n",
        qs[0], qs[0], qs[1], qs[1]
    ));
    s.push_str(&format!("measure q[{}] -> c[0];\n", qs[0]));
    s.push_str(&format!("if (c==1) x q[{}];\nh q[{}];\n", qs[2], qs[1]));
    for q in 0..n {
        s.push_str(&format!("measure q[{q}] -> c[{q}];\n"));
    }
    s
}

/// Weight scheme of a generated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scheme {
    Gcd,
    Qomega,
    Numeric,
}

impl Scheme {
    pub const ALL: [Scheme; 3] = [Scheme::Gcd, Scheme::Qomega, Scheme::Numeric];

    pub fn wire(self) -> &'static str {
        match self {
            Scheme::Gcd => "gcd",
            Scheme::Qomega => "qomega",
            Scheme::Numeric => "numeric",
        }
    }

    /// The job scheme; numeric jobs use the tuned ε = 1e-10.
    pub fn spec(self) -> aq_sim::SchemeSpec {
        match self {
            Scheme::Gcd => aq_sim::SchemeSpec::Gcd,
            Scheme::Qomega => aq_sim::SchemeSpec::Qomega,
            Scheme::Numeric => aq_sim::SchemeSpec::Numeric { eps: 1e-10 },
        }
    }
}

/// The budget every valid wire request carries.
pub const WIRE_MAX_NODES: u64 = 4_000_000;

/// One valid wire job, as both the wire line and the in-process job it
/// must equal.
#[derive(Debug, Clone)]
pub struct WireJob {
    pub line: String,
    pub circuit: aq_serve::CircuitSpec,
    pub scheme: Scheme,
    pub sample: Option<aq_sim::SampleParams>,
    /// Request family, for reports.
    pub kind: &'static str,
}

/// What the server must answer to a deliberately invalid request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invalid {
    MalformedJson,
    MissingBudget,
    TooWide,
}

impl Invalid {
    pub fn line(self, rng: &mut Rng) -> String {
        match self {
            Invalid::MalformedJson => format!(
                "{{\"verb\":\"submit\",\"circuit\":\"grover\",\"n\":{},\"marked\":",
                5 + rng.below(4)
            ),
            Invalid::MissingBudget => format!(
                "{{\"verb\":\"submit\",\"circuit\":\"grover\",\"n\":{},\"marked\":1,\"scheme\":\"numeric\"}}",
                5 + rng.below(4)
            ),
            Invalid::TooWide => {
                let n = 25 + rng.below(4);
                let qasm = format!("OPENQASM 2.0;\nqreg q[{n}];\nh q[0];\ncx q[0],q[{}];\n", n - 1);
                format!(
                    "{{\"verb\":\"submit\",\"qasm\":{},\"scheme\":\"numeric\",\"budget\":{{\"max_nodes\":{WIRE_MAX_NODES}}}}}",
                    Json::str(qasm).render()
                )
            }
        }
    }
}

/// One step of a client's request sequence.
#[derive(Debug, Clone)]
pub enum Step {
    /// Index into the distinct valid job pool.
    Valid(usize),
    Invalid(Invalid, String),
}

/// A valid `submit`/`sample` line: the circuit fields, the scheme (numeric
/// at ε = 1e-10), the sampling parameters and the standard budget.
pub fn job_line(
    verb: &str,
    circuit_fields: &str,
    scheme: Scheme,
    sample: Option<aq_sim::SampleParams>,
) -> String {
    let mut line = format!(
        "{{\"verb\":\"{verb}\",{circuit_fields},\"scheme\":\"{}\"",
        scheme.wire()
    );
    if scheme == Scheme::Numeric {
        line.push_str(",\"eps\":1e-10");
    }
    if let Some(p) = sample {
        line.push_str(&format!(",\"shots\":{},\"seed\":{}", p.shots, p.seed));
    }
    line.push_str(&format!(",\"budget\":{{\"max_nodes\":{WIRE_MAX_NODES}}}}}"));
    line
}

/// Request family of a generated valid job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    QasmSubmit,
    QasmSample,
    Grover,
    Forked,
}

/// The family and scheme of a client's `i`-th job cycle through this
/// table, and sizes through [`QASM_WIDTHS`] and [`GROVER_WIDTHS`], so any
/// prefix of a client's jobs has the same mix and the same sizes whatever
/// the seed; the seed picks the circuits' content.
const SLOTS: [(Family, Scheme); 10] = [
    (Family::QasmSubmit, Scheme::Numeric),
    (Family::QasmSample, Scheme::Qomega),
    (Family::Grover, Scheme::Gcd),
    (Family::QasmSubmit, Scheme::Gcd),
    (Family::QasmSample, Scheme::Numeric),
    (Family::Forked, Scheme::Qomega),
    (Family::QasmSubmit, Scheme::Qomega),
    (Family::Grover, Scheme::Numeric),
    (Family::QasmSample, Scheme::Gcd),
    (Family::Grover, Scheme::Qomega),
];
const QASM_WIDTHS: [u32; 5] = [12, 16, 20, 14, 18];
const GROVER_WIDTHS: [u32; 4] = [6, 7, 8, 9];
/// Operations of a generated QASM job after its 3 leading Hadamards.
const QASM_GATES: usize = 250;

/// A client's `i`-th distinct valid job.
pub fn wire_job(rng: &mut Rng, i: usize) -> WireJob {
    let (family, scheme) = SLOTS[i % SLOTS.len()];
    let round = i / SLOTS.len();
    if family == Family::Grover {
        let n = GROVER_WIDTHS[round % GROVER_WIDTHS.len()];
        let marked = rng.below(1 << n);
        return WireJob {
            line: job_line(
                "submit",
                &format!("\"circuit\":\"grover\",\"n\":{n},\"marked\":{marked}"),
                scheme,
                None,
            ),
            circuit: aq_serve::CircuitSpec::Grover { n, marked },
            scheme,
            sample: None,
            kind: "grover",
        };
    }
    let sample_params = |rng: &mut Rng, shots: u64| aq_sim::SampleParams {
        shots,
        seed: rng.next_u64() >> 12,
    };
    let (qasm, sample, kind) = if family == Family::Forked {
        (
            forked_qasm(rng),
            Some(sample_params(rng, 64)),
            "forked-sample",
        )
    } else {
        let n = QASM_WIDTHS[(round + i) % QASM_WIDTHS.len()];
        let c = support_circuit(rng, n, 3, QASM_GATES);
        if family == Family::QasmSubmit {
            (c.qasm, None, "qasm-submit")
        } else {
            (c.qasm, Some(sample_params(rng, 1024)), "qasm-sample")
        }
    };
    let verb = if sample.is_some() { "sample" } else { "submit" };
    WireJob {
        line: job_line(
            verb,
            &format!("\"qasm\":{}", Json::str(qasm.as_str()).render()),
            scheme,
            sample,
        ),
        circuit: aq_serve::CircuitSpec::Qasm(qasm),
        scheme,
        sample,
        kind,
    }
}

/// The wire-mix inputs: a pool of distinct valid jobs, one request
/// sequence per client, and the pool entries the in-process reference
/// passes time.
#[derive(Debug, Clone)]
pub struct WireMix {
    pub pool: Vec<WireJob>,
    pub sequences: Vec<Vec<Step>>,
    /// Each client's hot jobs and its first fresh jobs: the same number
    /// and the same families, schemes and sizes for every seed.
    pub reference: Vec<usize>,
}

/// Hot jobs per client: repeats of these are result-cache hits.
const HOT_PER_CLIENT: usize = 6;
/// Fresh jobs per client in the reference set.
const REFERENCE_FRESH: usize = 20;

/// Builds the request sequences: about 10% invalid requests, 35% skewed
/// repeats of a client's own hot set (cache hits once the first copy has
/// completed) and 55% fresh distinct jobs (misses that run the engine and
/// fill the cache). Hot sets are per client, so a repeat is never in
/// flight on the other connection.
pub fn wire_mix(seed: u64, clients: usize, steps: usize) -> WireMix {
    let mut rng = Rng::from_seed(seed ^ 0x5749_5245);
    let mut pool: Vec<WireJob> = Vec::new();
    let mut sequences = Vec::with_capacity(clients);
    let mut reference = Vec::new();
    for _ in 0..clients {
        let first = pool.len();
        let fresh = |rng: &mut Rng, pool: &mut Vec<WireJob>| {
            let local = pool.len() - first;
            pool.push(wire_job(rng, local));
            pool.len() - 1
        };
        let hot: Vec<usize> = (0..HOT_PER_CLIENT)
            .map(|_| fresh(&mut rng, &mut pool))
            .collect();
        let mut seq = Vec::with_capacity(steps);
        let mut next_hot = 0;
        for _ in 0..steps {
            let roll = rng.below(20);
            let step = if roll < 2 {
                let kind = [
                    Invalid::MalformedJson,
                    Invalid::MissingBudget,
                    Invalid::TooWide,
                ][rng.below(3) as usize];
                let line = kind.line(&mut rng);
                Step::Invalid(kind, line)
            } else if roll < 9 {
                // Walk the hot set in order first so each hot job has been
                // issued once; afterwards repeats skew to the low indices.
                let idx = if next_hot < HOT_PER_CLIENT {
                    next_hot += 1;
                    next_hot - 1
                } else {
                    let r = rng.below((HOT_PER_CLIENT * HOT_PER_CLIENT) as u64);
                    HOT_PER_CLIENT - 1 - ((r as f64).sqrt() as usize).min(HOT_PER_CLIENT - 1)
                };
                Step::Valid(hot[idx])
            } else {
                Step::Valid(fresh(&mut rng, &mut pool))
            };
            seq.push(step);
        }
        reference.extend(first..(first + HOT_PER_CLIENT + REFERENCE_FRESH).min(pool.len()));
        sequences.push(seq);
    }
    WireMix {
        pool,
        sequences,
        reference,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_model_matches_dense_probabilities() {
        let mut rng = Rng::from_seed(3);
        let c = support_circuit(&mut rng, 6, 3, 80);
        assert_eq!(c.support.len(), 8);
        let circuit = aq_circuits::qasm::parse_qasm(&c.qasm).expect("valid qasm");
        let out = aq_sim::run_job(
            &aq_sim::JobSpec::new(&circuit, 0, aq_sim::SchemeSpec::Qomega),
            None,
        );
        for (i, p) in out.top_probabilities {
            assert!(c.support.contains(&i));
            assert!((p - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn same_seed_same_mix() {
        let a = wire_mix(9, 2, 50);
        let b = wire_mix(9, 2, 50);
        assert_eq!(a.pool.len(), b.pool.len());
        assert!(a.pool.iter().zip(&b.pool).all(|(x, y)| x.line == y.line));
    }
}
