//! `paper-figs`: the paper's evaluation circuits through `run_job` under
//! GCD (Alg. 3), Q[ω] (Alg. 2) and numeric weights.

use aq_circuits::cliffordt::CliffordTCompiler;
use aq_circuits::{bwt, grover, gse, BwtParams, Circuit, GseParams};
use aq_sim::{JobOutcome, SchemeSpec};
use aq_testutil::Rng;

use crate::gen::Scheme;
use crate::inproc::Job;
use crate::layers::Replay;

/// Committed exact results. Node counts and top-4 probabilities are
/// bit-exact outputs of both exact schemes; they do not depend on the
/// seed (the Grover marked element only permutes the basis).
const G12_NODES: usize = 23;
const G12_P_MARKED: f64 = 0.9999453461091142;
const G12_P_OTHER: f64 = 1.3346493500763452e-8;
const GSE_OPS: usize = 1282;
const GSE_NODES: usize = 15;
const GSE_TOP: [(u64, f64); 4] = [
    (14, 0.825309043094225),
    (10, 0.044664342800011664),
    (2, 0.028048460312119015),
    (15, 0.026350741961380944),
];
const BWT_NODES: usize = 248;
const BWT_TOP: [(u64, f64); 4] = [
    (4, 0.3335687174820125),
    (6, 0.044905249908837055),
    (7, 0.044905249908837055),
    (23, 0.025608589927252776),
];
/// Numeric runs at ε ≤ 1e-10 must match the exact probabilities this
/// closely.
const NUMERIC_TOL: f64 = 1e-9;

const G12: usize = 0;
const GSE: usize = 1;
const BWT: usize = 2;
const G11: usize = 3;
const G9: usize = 4;

/// Inputs of one run.
#[derive(Debug)]
pub struct Inputs {
    pub circuits: Vec<Circuit>,
    pub starts: [u64; 5],
    pub marked12: u64,
    pub gse_raw: Circuit,
}

/// Grover-11's marked element, as in the figure harness's quick-scale
/// Fig. 3. The ε = 1e-5 run's cost depends on it (0.03 s to 1.7 s across
/// marked elements), so it stays fixed: a seed must not pick the size of
/// the workload.
const G11_MARKED: u64 = 0b10110101101;
/// The ε = 0 run's marked element: Grover-11's, cut to nine qubits.
const G9_MARKED: u64 = G11_MARKED & 0x1ff;

/// Builds the circuits: Grover-12 with a seeded marked element, Grover-11
/// as in Fig. 3 and Grover-9 with a fixed marked element, GSE with 2 precision bits compiled to Clifford+T as the
/// figure harness does at quick scale, and the Fig. 4 welded-tree walk at
/// the harness's quick scale (height 4, 40 steps). At the paper's height
/// 5 and 60 steps the walk alone cost 3.8 s of a 9 s pass, which left
/// three or four passes per run and too few to hold the figures steady.
/// The numeric ε = 0 blow-up runs on Grover-9 rather than Grover-11: at
/// eleven qubits it built 1.8 M weights and 200 MB of tables in every
/// pass, and its time moved with other tenants' memory load far more than
/// any other job's, by a third from run to run.
///
/// # Errors
///
/// When the compiled GSE circuit is not the committed one.
pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::from_seed(seed ^ 0x5041_5045);
    let marked12 = rng.below(1 << 12);
    let gse_raw = gse(&GseParams {
        precision_bits: 2,
        ..GseParams::default()
    });
    let (gse_c, _) = CliffordTCompiler::new(8)
        .without_two_stage()
        .compile(&gse_raw);
    if gse_c.len() != GSE_OPS {
        return Err(format!(
            "GSE compiled to {} ops, not {GSE_OPS}",
            gse_c.len()
        ));
    }
    let (bwt_c, tree) = bwt(BwtParams {
        height: 4,
        steps: 40,
        seed: 0xBD7,
    });
    Ok(Inputs {
        circuits: vec![
            grover(12, marked12),
            gse_c,
            bwt_c,
            grover(11, G11_MARKED),
            grover(9, G9_MARKED),
        ],
        starts: [0, 0, tree.coined_start(), 0, 0],
        marked12,
        gse_raw,
    })
}

/// Rounds of the numeric jobs per pass. Each numeric job takes 0.02–0.2 s
/// and its time moves with other tenants' memory load in bursts, so it
/// gets several interleaved runs in every pass where an exact job, which
/// takes up to a second, gets one.
const NUMERIC_ROUNDS: usize = 3;

/// Eleven distinct jobs: the three circuits under each scheme, plus the
/// paper's numeric blow-up points, Grover-9 at ε = 0 and Grover-11 at
/// ε = 1e-5. The six numeric jobs are listed [`NUMERIC_ROUNDS`] times
/// over; a job's time is the median of its runs under its label.
pub fn jobs(inp: &Inputs) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut numeric = Vec::new();
    for g in Scheme::ALL {
        for (name, c) in [("grover12", G12), ("gse2", GSE), ("bwt4", BWT)] {
            let job = Job::new(
                format!("{name}/{}", g.wire()),
                c,
                inp.starts[c],
                g.spec(),
                g,
            );
            match g {
                Scheme::Numeric => numeric.push(job),
                _ => jobs.push(job),
            }
        }
    }
    for (name, c, eps) in [("grover9", G9, 0.0), ("grover11", G11, 1e-5)] {
        let scheme = SchemeSpec::Numeric { eps };
        numeric.push(Job::new(
            format!("{name}/{}", scheme.label()),
            c,
            0,
            scheme,
            Scheme::Numeric,
        ));
    }
    for _ in 0..NUMERIC_ROUNDS {
        jobs.extend(numeric.iter().cloned());
    }
    jobs
}

/// The replay list of the traced run: each distinct job once, gate by
/// gate.
pub fn replays(inp: &Inputs) -> Vec<Replay> {
    let mut seen = std::collections::BTreeSet::new();
    jobs(inp)
        .into_iter()
        .filter(|j| seen.insert(j.label.clone()))
        .map(|j| Replay {
            circuit: j.circuit,
            start: inp.starts[j.circuit],
            scheme: j.scheme,
        })
        .collect()
}

/// The exact probability of `index` after circuit `c`, when committed.
fn exact_probability(inp: &Inputs, c: usize, index: u64) -> Option<f64> {
    match c {
        G12 if index == inp.marked12 => Some(G12_P_MARKED),
        G12 => Some(G12_P_OTHER),
        GSE => GSE_TOP.iter().find(|(i, _)| *i == index).map(|x| x.1),
        BWT => BWT_TOP.iter().find(|(i, _)| *i == index).map(|x| x.1),
        _ => None,
    }
}

/// Output check: exact schemes give the committed node counts and top-k
/// bit for bit; numeric runs at ε = 1e-10 are within 1e-9 of the exact
/// probabilities; the ε = 0 and ε = 1e-5 runs only need to complete.
pub fn check(inp: &Inputs, job: &Job, out: &JobOutcome) -> Result<(), String> {
    if let Some(a) = &out.aborted {
        return Err(format!("aborted: {}", a.reason));
    }
    let circuit = &inp.circuits[job.circuit];
    if out.gates_applied != circuit.len() {
        return Err(format!(
            "applied {} of {} ops",
            out.gates_applied,
            circuit.len()
        ));
    }
    if job.circuit == G11 || job.circuit == G9 {
        return Ok(());
    }
    if job.scheme.is_algebraic() {
        let (nodes, top): (usize, Vec<(u64, f64)>) = match job.circuit {
            G12 => {
                let mut others = (0u64..).filter(|&i| i != inp.marked12);
                let mut top = vec![(inp.marked12, G12_P_MARKED)];
                top.extend(others.by_ref().take(3).map(|i| (i, G12_P_OTHER)));
                (G12_NODES, top)
            }
            GSE => (GSE_NODES, GSE_TOP.to_vec()),
            _ => (BWT_NODES, BWT_TOP.to_vec()),
        };
        if out.final_nodes != nodes {
            return Err(format!(
                "final nodes {} != committed {nodes}",
                out.final_nodes
            ));
        }
        let bits = |v: &[(u64, f64)]| v.iter().map(|(i, p)| (*i, p.to_bits())).collect::<Vec<_>>();
        if bits(&out.top_probabilities) != bits(&top) {
            return Err(format!(
                "top-k {:?} != committed {top:?}",
                out.top_probabilities
            ));
        }
        return Ok(());
    }
    if out.top_probabilities.len() != 4 {
        return Err("numeric run reported no top-k".into());
    }
    for &(i, p) in &out.top_probabilities {
        let exact = exact_probability(inp, job.circuit, i)
            .ok_or_else(|| format!("numeric top-k index {i} is not in the exact top-k"))?;
        if (p - exact).abs() > NUMERIC_TOL {
            return Err(format!("numeric p[{i}] = {p} vs exact {exact}"));
        }
    }
    Ok(())
}
