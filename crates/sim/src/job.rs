//! Job-oriented simulation entry point.
//!
//! A *job* is one self-contained simulation request: a circuit, a start
//! state, a weight scheme chosen at runtime (rather than by a generic
//! parameter), tuning options, and optionally a checkpoint to resume
//! from. [`run_job`] owns the whole lifecycle — scheme dispatch,
//! resume-label matching, the step loop, cooperative cancellation,
//! checkpoint-on-abort — and returns a flat [`JobOutcome`] that callers
//! (the `aq-serve` service, the bench binaries) can report without
//! touching the `Simulator` API themselves.
//!
//! Cancellation is cooperative: pass an [`AtomicBool`] and set it from
//! another thread; the step loop checks it between operations, writes a
//! checkpoint (when configured) and returns an evicted abort. Combined
//! with the bit-identical resume guarantee of
//! [`Simulator::resume`](crate::Simulator::resume), an evicted job can be
//! resubmitted and finishes exactly as an uninterrupted run would.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use aq_circuits::Circuit;
use aq_dd::{
    EngineStatistics, GcdContext, Manager, NormScheme, NumericContext, QomegaContext, WeightContext,
};

use crate::simulator::{SimOptions, Simulator};

/// Runtime choice of the engine's weight system for one job.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeSpec {
    /// IEEE 754 doubles with tolerance `eps`, normalized by the
    /// largest-magnitude weight (the stable scheme the figure harness
    /// uses).
    Numeric {
        /// Rounding tolerance ε (0 = no merging).
        eps: f64,
    },
    /// Exact weights in the field `Q[ω]` (the paper's Algorithm 2).
    Qomega,
    /// Exact weights in the ring `D[ω]` with GCD normalization (the
    /// paper's Algorithm 3).
    Gcd,
}

impl SchemeSpec {
    /// `true` for the exact algebraic schemes.
    pub fn is_algebraic(&self) -> bool {
        !matches!(self, SchemeSpec::Numeric { .. })
    }

    /// Canonical short label (`numeric_eps1e-10`, `qomega`, `gcd`), used
    /// in checkpoint labels and reports.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Numeric { eps } if aq_rings::is_exact_eps(*eps) => "numeric_eps0".into(),
            SchemeSpec::Numeric { eps } => format!("numeric_eps{eps:e}"),
            SchemeSpec::Qomega => "qomega".into(),
            SchemeSpec::Gcd => "gcd".into(),
        }
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One simulation request.
#[derive(Debug)]
pub struct JobSpec<'c> {
    /// The circuit to simulate.
    pub circuit: &'c Circuit,
    /// Basis state to start from.
    pub start: u64,
    /// Weight system to run under.
    pub scheme: SchemeSpec,
    /// Simulator tuning, including the budget and
    /// [`SimOptions::checkpoint_on_abort`] (also honoured for
    /// cancellation evictions).
    pub options: SimOptions,
    /// Free-form run identification. A checkpoint written by this job is
    /// tagged with it, and [`JobSpec::resume`] files are only honoured
    /// when their stored label matches — a stale or foreign checkpoint
    /// silently falls back to a fresh run.
    pub label: String,
    /// Checkpoint to continue from, if any.
    pub resume: Option<PathBuf>,
    /// How many of the largest measurement probabilities to report on
    /// completion (`0` skips amplitude extraction entirely, which
    /// matters for wide registers).
    pub top_k: usize,
    /// When set, the job is a *sampling* job: instead of reporting the
    /// final state it draws shots from it into a [`crate::SampleReport`].
    /// Sampling jobs ignore [`JobSpec::resume`] — a shot stream has no
    /// mid-point checkpoint.
    pub sample: Option<SampleParams>,
}

/// Parameters of a sampling job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleParams {
    /// Number of shots to draw.
    pub shots: u64,
    /// Seed of the deterministic sampler RNG: equal seeds give equal
    /// histograms, bit for bit.
    pub seed: u64,
}

impl<'c> JobSpec<'c> {
    /// A job with default options: run `circuit` from `|start⟩` under
    /// `scheme`, no budget, no resume, top-4 probabilities.
    pub fn new(circuit: &'c Circuit, start: u64, scheme: SchemeSpec) -> Self {
        let label = scheme.label();
        JobSpec {
            circuit,
            start,
            scheme,
            options: SimOptions {
                record_trace: false,
                ..SimOptions::default()
            },
            label,
            resume: None,
            top_k: 4,
            sample: None,
        }
    }
}

/// Why an aborted job stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobAbortInfo {
    /// Rendered engine/simulation error, or the eviction notice.
    pub reason: String,
    /// Checkpoint written at the abort point, when
    /// [`SimOptions::checkpoint_on_abort`] was set and the dump
    /// succeeded.
    pub checkpoint: Option<PathBuf>,
    /// `true` when the job was cancelled from outside (service eviction)
    /// rather than stopped by its own budget or an engine error.
    pub evicted: bool,
}

/// Flat result of [`run_job`]: measurements of whatever ran, plus the
/// abort record when the job did not complete.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Operations applied (cumulative across resume).
    pub gates_applied: usize,
    /// Wall-clock seconds of this invocation's step loop.
    pub seconds: f64,
    /// Nodes of the state DD at the end (or at the abort point).
    pub final_nodes: usize,
    /// Engine counters at the end of the run.
    pub statistics: EngineStatistics,
    /// The `top_k` largest measurement probabilities as
    /// `(basis index, probability)`, descending. Empty for aborted jobs
    /// and when `top_k` is 0.
    pub top_probabilities: Vec<(u64, f64)>,
    /// Whether the run continued from a matching resume checkpoint.
    pub resumed: bool,
    /// Shot histogram and per-outcome probabilities, present exactly when
    /// the job was a completed sampling job ([`JobSpec::sample`]).
    pub sample: Option<crate::sample::SampleReport>,
    /// `None` for completed jobs.
    pub aborted: Option<JobAbortInfo>,
}

impl JobOutcome {
    /// `true` when the whole circuit was applied.
    pub fn is_completed(&self) -> bool {
        self.aborted.is_none()
    }
}

/// Runs one job to completion, abort, or cancellation. Never panics on
/// budget exhaustion or unrepresentable gates — those come back as
/// [`JobOutcome::aborted`].
///
/// `cancel` is checked between operations; when it becomes `true` the job
/// checkpoints (if configured) and returns an abort with
/// [`JobAbortInfo::evicted`] set.
pub fn run_job(spec: &JobSpec<'_>, cancel: Option<&AtomicBool>) -> JobOutcome {
    match &spec.scheme {
        SchemeSpec::Numeric { eps } => run_with(
            NumericContext::with_eps_and_scheme(*eps, NormScheme::MaxMagnitude),
            spec,
            cancel,
        ),
        SchemeSpec::Qomega => run_with(QomegaContext::new(), spec, cancel),
        SchemeSpec::Gcd => run_with(GcdContext::new(), spec, cancel),
    }
}

fn run_with<W: WeightContext>(
    ctx: W,
    spec: &JobSpec<'_>,
    cancel: Option<&AtomicBool>,
) -> JobOutcome {
    if let Some(params) = spec.sample {
        return crate::sample::sample_job(ctx, spec, params, cancel);
    }
    // Only a checkpoint taken from the same stage resumes; anything else
    // (missing file, corrupt file, different label or circuit) falls back
    // to a fresh run.
    let resumed = spec.resume.as_deref().and_then(|path| {
        let info = crate::checkpoint::peek_checkpoint(path).ok()?;
        if info.label != spec.label {
            return None;
        }
        Simulator::resume(ctx.clone(), spec.circuit, path, spec.options.clone()).ok()
    });
    let was_resumed = resumed.is_some();
    let (mut sim, aborted) = match resumed {
        Some((sim, _)) => (sim, None),
        None => {
            let mut sim = Simulator::with_options(ctx, spec.circuit, spec.options.clone());
            let aborted = sim.try_reset_to(spec.start).err().map(|e| JobAbortInfo {
                reason: e.to_string(),
                checkpoint: None,
                evicted: false,
            });
            (sim, aborted)
        }
    };
    drive(&mut sim, spec, was_resumed, aborted, cancel)
}

/// Runs one fresh (non-resume) job on a caller-supplied manager and hands
/// the manager back afterwards, whatever the outcome. This is the session
/// entry point: [`EngineSession`](crate::EngineSession) parks the returned
/// manager for the next job. The manager must already match the job
/// (correct context and qubit count — typically straight out of
/// [`Manager::reset_session`](aq_dd::Manager::reset_session)); results are
/// bit-identical to [`run_job`] on a cold manager.
pub(crate) fn run_with_manager<W: WeightContext>(
    manager: Manager<W>,
    spec: &JobSpec<'_>,
    cancel: Option<&AtomicBool>,
) -> (JobOutcome, Manager<W>) {
    if let Some(params) = spec.sample {
        return crate::sample::sample_with_manager(manager, spec, params, cancel);
    }
    let mut sim = Simulator::with_manager(manager, spec.circuit, spec.options.clone());
    let aborted = sim.try_reset_to(spec.start).err().map(|e| JobAbortInfo {
        reason: e.to_string(),
        checkpoint: None,
        evicted: false,
    });
    let outcome = drive(&mut sim, spec, false, aborted, cancel);
    (outcome, sim.into_manager())
}

/// The shared job lifecycle: cancellation-aware step loop,
/// checkpoint-on-abort, measurement extraction. `aborted` carries a
/// pre-loop failure (e.g. the start state exceeded the budget).
fn drive<W: WeightContext>(
    sim: &mut Simulator<'_, W>,
    spec: &JobSpec<'_>,
    was_resumed: bool,
    mut aborted: Option<JobAbortInfo>,
    cancel: Option<&AtomicBool>,
) -> JobOutcome {
    let dump_checkpoint = |sim: &Simulator<'_, W>| -> Option<PathBuf> {
        let path = spec.options.checkpoint_on_abort.as_ref()?;
        match sim.checkpoint(path, &spec.label) {
            Ok(()) => Some(path.clone()),
            Err(e) => {
                eprintln!("warning: could not write checkpoint: {e}");
                None
            }
        }
    };

    let t = Instant::now();
    while aborted.is_none() {
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            aborted = Some(JobAbortInfo {
                reason: "evicted: cancelled by the caller".into(),
                checkpoint: dump_checkpoint(sim),
                evicted: true,
            });
            break;
        }
        match sim.try_step() {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => {
                aborted = Some(JobAbortInfo {
                    reason: e.to_string(),
                    checkpoint: dump_checkpoint(sim),
                    evicted: false,
                });
            }
        }
    }
    let seconds = t.elapsed().as_secs_f64();

    let top_probabilities = if aborted.is_none() && spec.top_k > 0 {
        let state = sim.state();
        top_k_probabilities(&sim.manager_mut().amplitudes(&state), spec.top_k)
    } else {
        Vec::new()
    };

    JobOutcome {
        gates_applied: sim.gates_applied(),
        seconds,
        final_nodes: sim.nodes(),
        statistics: sim.statistics(),
        top_probabilities,
        resumed: was_resumed,
        sample: None,
        aborted,
    }
}

fn top_k_probabilities(amplitudes: &[aq_rings::Complex64], k: usize) -> Vec<(u64, f64)> {
    let mut probs: Vec<(u64, f64)> = amplitudes
        .iter()
        .enumerate()
        .map(|(i, a)| (i as u64, a.norm_sqr()))
        .collect();
    probs.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    probs.truncate(k);
    probs
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::RunBudget;

    #[test]
    fn completed_job_reports_top_probabilities() {
        let c = aq_circuits::grover(4, 11);
        let out = run_job(&JobSpec::new(&c, 0, SchemeSpec::Qomega), None);
        assert!(out.is_completed());
        assert_eq!(out.gates_applied, c.len());
        assert_eq!(out.top_probabilities.len(), 4);
        assert_eq!(out.top_probabilities[0].0, 11, "marked element wins");
        assert!(out.top_probabilities[0].1 > 0.9);
        assert!(!out.resumed);
    }

    #[test]
    fn budget_abort_surfaces_reason_and_statistics() {
        let c = aq_circuits::grover(5, 3);
        let mut spec = JobSpec::new(&c, 0, SchemeSpec::Numeric { eps: 0.0 });
        spec.options.budget = RunBudget::unlimited().with_max_nodes(8);
        let out = run_job(&spec, None);
        let abort = out.aborted.expect("tight budget aborts");
        assert!(abort.reason.contains("node budget"), "{}", abort.reason);
        assert!(!abort.evicted);
        assert!(abort.checkpoint.is_none(), "no checkpoint configured");
        assert!(out.top_probabilities.is_empty());
    }

    #[test]
    fn cancellation_evicts_with_checkpoint_and_resume_is_bit_identical() {
        let c = aq_circuits::grover(5, 19);
        let path = std::env::temp_dir().join("aq_job_evict_test.aqckp");
        std::fs::remove_file(&path).ok();

        // cancel before the first step: the job checkpoints and reports
        // an eviction
        let cancel = AtomicBool::new(true);
        let mut spec = JobSpec::new(&c, 0, SchemeSpec::Numeric { eps: 1e-10 });
        spec.options.checkpoint_on_abort = Some(path.clone());
        let out = run_job(&spec, Some(&cancel));
        let abort = out.aborted.expect("cancelled job aborts");
        assert!(abort.evicted);
        assert_eq!(abort.checkpoint.as_deref(), Some(path.as_path()));

        // resuming the evicted job completes it, bit-identical to an
        // uninterrupted run
        let mut resume_spec = JobSpec::new(&c, 0, SchemeSpec::Numeric { eps: 1e-10 });
        resume_spec.resume = Some(path.clone());
        let resumed = run_job(&resume_spec, None);
        assert!(resumed.is_completed());
        assert!(resumed.resumed);

        let fresh = run_job(
            &JobSpec::new(&c, 0, SchemeSpec::Numeric { eps: 1e-10 }),
            None,
        );
        assert_eq!(resumed.final_nodes, fresh.final_nodes);
        assert_eq!(resumed.top_probabilities, fresh.top_probabilities);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_checkpoint_label_falls_back_to_fresh_run() {
        let c = aq_circuits::grover(4, 7);
        let path = std::env::temp_dir().join("aq_job_label_test.aqckp");
        std::fs::remove_file(&path).ok();
        let cancel = AtomicBool::new(true);
        let mut spec = JobSpec::new(&c, 0, SchemeSpec::Qomega);
        spec.label = "stage-a".into();
        spec.options.checkpoint_on_abort = Some(path.clone());
        run_job(&spec, Some(&cancel));
        assert!(path.exists());

        let mut other = JobSpec::new(&c, 0, SchemeSpec::Qomega);
        other.label = "stage-b".into();
        other.resume = Some(path.clone());
        let out = run_job(&other, None);
        assert!(out.is_completed());
        assert!(!out.resumed, "label mismatch must not resume");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(SchemeSpec::Numeric { eps: 0.0 }.label(), "numeric_eps0");
        assert_eq!(
            SchemeSpec::Numeric { eps: 1e-10 }.label(),
            "numeric_eps1e-10"
        );
        assert_eq!(SchemeSpec::Qomega.label(), "qomega");
        assert_eq!(SchemeSpec::Gcd.label(), "gcd");
        assert!(SchemeSpec::Gcd.is_algebraic());
        assert!(!SchemeSpec::Numeric { eps: 0.0 }.is_algebraic());
    }
}
