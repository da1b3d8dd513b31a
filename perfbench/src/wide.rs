//! `wide-local`: seeded support-bounded Clifford+T circuits on wide
//! registers, each run as a top-k job and as a seeded sampling job under
//! all three schemes.

use std::collections::BTreeMap;

use aq_circuits::Circuit;
use aq_sim::{JobOutcome, SampleParams};
use aq_testutil::Rng;

use crate::gen::{support_circuit, Scheme, SupportCircuit};
use crate::inproc::Job;
use crate::layers::Replay;

/// Register widths, one circuit each (the same for every seed, so the
/// memory peak and the extraction cost do not depend on the seed).
pub const WIDTHS: [u32; 3] = [20, 22, 24];
/// Operations after the leading Hadamards.
const GATES: usize = 6000;
/// Hadamards at the start: the state's support is `2^4` basis states.
const SUPPORT_QUBITS: u32 = 4;
const SHOTS: u64 = 4096;

#[derive(Debug)]
pub struct Inputs {
    pub models: Vec<SupportCircuit>,
    pub circuits: Vec<Circuit>,
    pub sample_seeds: Vec<u64>,
}

/// # Errors
///
/// When a generated circuit does not parse.
pub fn setup(seed: u64) -> Result<Inputs, String> {
    let mut rng = Rng::from_seed(seed ^ 0x5749_4445);
    let models: Vec<SupportCircuit> = WIDTHS
        .iter()
        .map(|&n| support_circuit(&mut rng, n, SUPPORT_QUBITS, GATES))
        .collect();
    let circuits = models
        .iter()
        .map(|m| aq_circuits::qasm::parse_qasm(&m.qasm).map_err(|e| format!("generated QASM: {e}")))
        .collect::<Result<_, _>>()?;
    let sample_seeds = models.iter().map(|_| rng.next_u64() >> 12).collect();
    Ok(Inputs {
        models,
        circuits,
        sample_seeds,
    })
}

pub fn jobs(inp: &Inputs) -> Vec<Job> {
    let mut jobs = Vec::new();
    for g in Scheme::ALL {
        for (c, m) in inp.models.iter().enumerate() {
            jobs.push(Job::new(
                format!("w{}/topk/{}", m.n, g.wire()),
                c,
                0,
                g.spec(),
                g,
            ));
            let mut s = Job::new(format!("w{}/sample/{}", m.n, g.wire()), c, 0, g.spec(), g);
            s.top_k = 0;
            s.sample = Some(SampleParams {
                shots: SHOTS,
                seed: inp.sample_seeds[c],
            });
            jobs.push(s);
        }
    }
    jobs
}

pub fn replays(inp: &Inputs) -> Vec<Replay> {
    Scheme::ALL
        .iter()
        .flat_map(|g| {
            (0..inp.circuits.len()).map(move |c| Replay {
                circuit: c,
                start: 0,
                scheme: g.spec(),
            })
        })
        .collect()
}

/// Cross-scheme memory of the outputs already seen, per circuit.
#[derive(Debug, Default)]
pub struct Seen {
    histograms: BTreeMap<usize, Vec<(u64, u64)>>,
    exact_topk: BTreeMap<usize, Vec<(u64, u64)>>,
}

/// Output check against the classical support model: every reported
/// outcome lies in the support with probability `2^-k`; seeded
/// histograms are identical across all three schemes and all passes;
/// the two exact schemes report bit-identical top-k.
pub fn check(inp: &Inputs, seen: &mut Seen, job: &Job, out: &JobOutcome) -> Result<(), String> {
    if let Some(a) = &out.aborted {
        return Err(format!("aborted: {}", a.reason));
    }
    let model = &inp.models[job.circuit];
    let p = model.probability();
    if let Some(params) = job.sample {
        let report = out
            .sample
            .as_ref()
            .ok_or("sampling job returned no histogram")?;
        if report.total() != params.shots {
            return Err(format!(
                "histogram sums to {} of {} shots",
                report.total(),
                params.shots
            ));
        }
        if let Some((i, _)) = report
            .counts
            .iter()
            .find(|(i, _)| !model.support.contains(i))
        {
            return Err(format!("sampled {i}, outside the support"));
        }
        if let Some(q) = report
            .probabilities
            .iter()
            .find(|q| (q.probability - p).abs() > 1e-12)
        {
            return Err(format!(
                "outcome {} has probability {} != {p}",
                q.index, q.probability
            ));
        }
        let first = seen
            .histograms
            .entry(job.circuit)
            .or_insert_with(|| report.counts.clone());
        if *first != report.counts {
            return Err("histogram differs from another scheme's for the same seed".into());
        }
        return Ok(());
    }
    if out.top_probabilities.len() != 4 {
        return Err(format!("top-k has {} entries", out.top_probabilities.len()));
    }
    for &(i, q) in &out.top_probabilities {
        if !model.support.contains(&i) || (q - p).abs() > 1e-12 {
            return Err(format!(
                "top-k entry ({i}, {q}) contradicts the support model"
            ));
        }
    }
    if job.scheme.is_algebraic() {
        let bits: Vec<(u64, u64)> = out
            .top_probabilities
            .iter()
            .map(|(i, q)| (*i, q.to_bits()))
            .collect();
        let first = seen
            .exact_topk
            .entry(job.circuit)
            .or_insert_with(|| bits.clone());
        if *first != bits {
            return Err("exact top-k differs between GCD and Q[ω]".into());
        }
    }
    Ok(())
}
