//! Interleaved in-process passes over a workload's jobs, through the
//! public `aq_sim::run_job` entry point.

use std::collections::BTreeMap;
use std::time::Instant;

use aq_circuits::Circuit;
use aq_sim::{run_job, JobOutcome, JobSpec, SampleParams, SchemeSpec};

use crate::gen::Scheme;
use crate::stats::median;
use crate::trace::Tracer;

/// One job: a circuit (by index), a scheme and what to extract.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub circuit: usize,
    pub start: u64,
    pub scheme: SchemeSpec,
    /// The end-to-end metric the job's time counts toward.
    pub group: Scheme,
    pub top_k: usize,
    pub sample: Option<SampleParams>,
    pub max_nodes: Option<usize>,
}

impl Job {
    pub fn new(
        label: impl Into<String>,
        circuit: usize,
        start: u64,
        scheme: SchemeSpec,
        group: Scheme,
    ) -> Job {
        Job {
            label: label.into(),
            circuit,
            start,
            scheme,
            group,
            top_k: 4,
            sample: None,
            max_nodes: None,
        }
    }

    pub fn run(&self, circuits: &[Circuit]) -> JobOutcome {
        let mut spec = JobSpec::new(&circuits[self.circuit], self.start, self.scheme.clone());
        spec.top_k = self.top_k;
        spec.sample = self.sample;
        if let Some(n) = self.max_nodes {
            spec.options.budget = aq_dd::RunBudget::unlimited().with_max_nodes(n);
        }
        run_job(&spec, None)
    }
}

/// Checks one outcome; `Err` carries the reason.
pub type Check<'a> = dyn FnMut(&Job, &JobOutcome) -> Result<(), String> + 'a;

/// One job's times over the passes of a run.
#[derive(Debug, Clone)]
pub struct JobTimes {
    pub group: Scheme,
    /// Wall seconds from `JobSpec` to a checked result, one per pass.
    pub seconds: Vec<f64>,
    /// Mean seconds of the calibration loops just before and just after
    /// each run.
    pub calib_s: Vec<f64>,
}

/// Seconds [`calibrate`] takes on the quiet host the benchmark was tuned
/// on (a 2-vCPU KVM guest, Intel Xeon), so that corrected times read as
/// seconds on that host at its quiet speed.
pub const CALIBRATION_REF_S: f64 = 0.010;

impl JobTimes {
    /// The job's time corrected for the host's speed: the median over its
    /// runs of its wall seconds times [`CALIBRATION_REF_S`] over the
    /// calibration loop's seconds around that run. The host slows every
    /// job on both vCPUs by up to 1.8 times for a minute or more at a
    /// time, longer than a run, so no run-local statistic of wall time
    /// alone holds steady from run to run; the calibration loop slows
    /// with it and the ratio does not.
    pub fn corrected(&self) -> f64 {
        let v: Vec<f64> = self
            .seconds
            .iter()
            .zip(&self.calib_s)
            .map(|(s, c)| s * CALIBRATION_REF_S / c)
            .collect();
        median(&v)
    }
}

/// Everything measured over the passes of one run.
#[derive(Debug, Default)]
pub struct Passes {
    /// Wall seconds of each scheme group's block, one entry per pass.
    pub group_s: BTreeMap<Scheme, Vec<f64>>,
    /// Wall seconds of each whole pass.
    pub pass_s: Vec<f64>,
    /// Whether the pass was recorded with spans.
    pub traced: Vec<bool>,
    /// Per-pass sum of `JobOutcome::seconds` (the step loop).
    pub step_s: Vec<f64>,
    /// Per-pass sum of `run_job` wall time minus the step loop.
    pub result_s: Vec<f64>,
    /// Per-pass gates applied.
    pub gates: Vec<u64>,
    /// The CPU each pass ran on (see [`crate::cpu`]).
    pub cpu: Vec<Option<usize>>,
    /// Every job's times, keyed by label.
    pub per_job: BTreeMap<String, JobTimes>,
    /// Peak resident memory (MB) after each pass. `peak_rss_mb` is the
    /// first reading, once set-up and the first pass, which runs every
    /// job, are done; not the last, because heap fragmentation keeps
    /// growing the peak slowly pass after pass, which would tie the figure
    /// to how many passes fit into the run.
    pub rss_mb: Vec<f64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Passes {
    /// One run of each of the scheme group's jobs, at corrected times.
    pub fn group_corrected_s(&self, g: Scheme) -> f64 {
        self.per_job
            .values()
            .filter(|j| j.group == g)
            .map(JobTimes::corrected)
            .sum()
    }

    /// Jobs per second of one run of each job, at corrected times.
    pub fn jobs_per_s(&self) -> f64 {
        let total: f64 = self.per_job.values().map(JobTimes::corrected).sum();
        self.per_job.len() as f64 / total
    }

    /// Each job's corrected time, in ms.
    pub fn corrected_ms(&self) -> Vec<f64> {
        self.per_job.values().map(|j| j.corrected() * 1e3).collect()
    }

    /// Quantile `q` over the jobs of their corrected times, in ms.
    pub fn latency_ms(&self, q: f64) -> f64 {
        crate::stats::quantile(&self.corrected_ms(), q)
    }

    /// The fastest whole pass among the traced (`true`) or untraced
    /// passes.
    pub fn fastest_pass(&self, traced: bool) -> f64 {
        self.pass_s
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(v, _)| *v)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs passes for about `seconds` (at least `min_passes`).
/// Every pass runs the GCD, Q[ω] and numeric blocks in that order, each
/// block's jobs in list order: the same allocation history in every pass
/// and for every seed keeps the memory peak and the allocator state a
/// job meets from varying between runs. Pass `p` runs on the `p`-th
/// allowed CPU, round robin (see [`crate::cpu`]). With tracing on, pairs
/// of passes alternate traced and untraced, so each kind runs on every
/// CPU and the run measures its own tracing overhead.
pub fn run_passes(
    circuits: &[Circuit],
    jobs: &[Job],
    seconds: f64,
    min_passes: usize,
    tracer: &mut Tracer,
    check: &mut Check<'_>,
) -> Passes {
    let tracing = tracer.is_on();
    let mut out = Passes::default();
    let groups: Vec<Scheme> = Scheme::ALL
        .into_iter()
        .filter(|g| jobs.iter().any(|j| j.group == *g))
        .collect();
    let t0 = Instant::now();
    loop {
        let done = out.pass_s.len();
        // Another pass starts while it would end no later than half a
        // median pass after `seconds`.
        if done >= min_passes && t0.elapsed().as_secs_f64() + median(&out.pass_s) / 2.0 > seconds {
            break;
        }
        let traced = tracing && (done / 2) % 2 == 0;
        tracer.set_on(traced);
        out.cpu.push(crate::cpu::pin_round_robin(done));
        let mut last_cal = calibrate();
        let (mut step, mut result, mut gates) = (0.0, 0.0, 0u64);
        let pass_start = Instant::now();
        tracer.span("pass", |tr| {
            for &g in &groups {
                let block = Instant::now();
                tr.span(group_span(g), |tr| {
                    for job in jobs.iter().filter(|j| j.group == g) {
                        let t = Instant::now();
                        let outcome = tr.span("sim.run_job", |tr| {
                            let o = job.run(circuits);
                            tr.count(o.gates_applied as u64);
                            o
                        });
                        let wall = t.elapsed().as_secs_f64();
                        out.attempted += 1;
                        let verdict = tr.span("bench.check", |_| check(job, &outcome));
                        if let Err(e) = verdict {
                            out.failures.push(format!("{}: {e}", job.label));
                        }
                        step += outcome.seconds;
                        result += wall - outcome.seconds;
                        gates += outcome.gates_applied as u64;
                        let secs = t.elapsed().as_secs_f64();
                        let cal = calibrate();
                        let times =
                            out.per_job
                                .entry(job.label.clone())
                                .or_insert_with(|| JobTimes {
                                    group: g,
                                    seconds: Vec::new(),
                                    calib_s: Vec::new(),
                                });
                        times.seconds.push(secs);
                        times.calib_s.push((last_cal + cal) / 2.0);
                        last_cal = cal;
                    }
                });
                out.group_s
                    .entry(g)
                    .or_default()
                    .push(block.elapsed().as_secs_f64());
            }
        });
        out.pass_s.push(pass_start.elapsed().as_secs_f64());
        out.rss_mb.push(crate::stats::peak_rss_mb());
        out.traced.push(traced);
        out.step_s.push(step);
        out.result_s.push(result);
        out.gates.push(gates);
    }
    tracer.set_on(tracing);
    crate::cpu::unpin();
    out
}

fn group_span(g: Scheme) -> &'static str {
    match g {
        Scheme::Gcd => "pass.gcd",
        Scheme::Qomega => "pass.qomega",
        Scheme::Numeric => "pass.numeric",
    }
}

/// Seconds of a fixed loop of hash-map updates and integer products: the
/// host's speed at the moment, measured by code that is not the
/// program's, so a change to the program never moves it.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut m: std::collections::HashMap<u64, u64> =
        std::collections::HashMap::with_capacity(1 << 16);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *m.entry(x % 50_000).or_insert(0) += i;
        acc = acc
            .wrapping_add(m.get(&(x % 70_000)).copied().unwrap_or(1))
            .wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}
