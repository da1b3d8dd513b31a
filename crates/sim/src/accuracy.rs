//! Accuracy measurement: numeric simulation against the exact algebraic
//! reference (footnote 8 of the paper).

use aq_circuits::Circuit;
use aq_dd::{EngineError, QomegaContext, WeightContext};
use aq_rings::Complex64;

use crate::simulator::{SimError, SimOptions, Simulator};
use crate::trace::Trace;

/// The paper's accuracy metric: Euclidean norm of `v_num/‖v_num‖ − v_alg`.
///
/// The numeric vector is renormalised first (“an error in the length of
/// the vector can be fixed easily”); a numeric zero vector — the
/// catastrophic outcome of too large an ε — yields the distance to the
/// exact unit vector, `1`.
pub fn normalized_distance(v_num: &[Complex64], v_alg: &[Complex64]) -> f64 {
    assert_eq!(v_num.len(), v_alg.len(), "dimension mismatch");
    let norm: f64 = v_num.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    // aq-lint: allow(R5): exact zero-vector guard; any nonzero norm takes the ratio path
    if norm == 0.0 {
        // ‖0 − v_alg‖ = ‖v_alg‖ = 1 for a unit reference
        return v_alg.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
    }
    v_num
        .iter()
        .zip(v_alg)
        .map(|(n, a)| (*n * (1.0 / norm) - *a).norm_sqr())
        .sum::<f64>()
        .sqrt()
}

/// A lock-step pair: a numeric simulation traced against the exact
/// algebraic (`Q[ω]`) reference of the same circuit.
///
/// This is the measurement harness behind the accuracy curves of
/// Figs. 3b/4b/5b — it is only possible *because* the algebraic
/// representation exists (Sec. V of the paper).
#[derive(Debug)]
pub struct PairedRun<'c, W: WeightContext> {
    subject: Simulator<'c, W>,
    reference: Simulator<'c, QomegaContext>,
    sample_every: usize,
}

impl<'c, W: WeightContext> PairedRun<'c, W> {
    /// Creates a paired run sampling the error every `sample_every` gates
    /// (and always at the final gate).
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn new(subject_ctx: W, circuit: &'c Circuit, sample_every: usize) -> Self {
        assert!(sample_every > 0, "sampling interval must be positive");
        PairedRun {
            subject: Simulator::with_options(subject_ctx, circuit, SimOptions::default()),
            reference: Simulator::with_options(
                QomegaContext::new(),
                circuit,
                SimOptions::default(),
            ),
            sample_every,
        }
    }

    /// Runs both simulations to completion, returning the subject's trace
    /// (with error samples) and the reference's trace.
    ///
    /// # Errors
    ///
    /// Fails if an operation is not representable in either weight system
    /// or a budget limit is crossed.
    pub fn run(mut self) -> Result<(Trace, Trace), SimError> {
        let mut subject_trace = Trace::default();
        let mut reference_trace = Trace::default();
        loop {
            let more = self.subject.try_step()?;
            let more_ref = self.reference.try_step()?;
            debug_assert_eq!(more, more_ref, "paired simulations desynchronised");
            if !more {
                break;
            }
            let at_sample = self
                .subject
                .gates_applied()
                .is_multiple_of(self.sample_every)
                || self.subject.is_done();
            let error = if at_sample {
                let v_num = {
                    let s = self.subject.state();
                    self.subject.manager_mut().amplitudes(&s)
                };
                let v_alg = {
                    let s = self.reference.state();
                    self.reference.manager_mut().amplitudes(&s)
                };
                Some(normalized_distance(&v_num, &v_alg))
            } else {
                None
            };
            subject_trace.points.push(self.subject.sample(error));
            reference_trace.points.push(self.reference.sample(None));
        }
        subject_trace.engine = Some(self.subject.statistics());
        reference_trace.engine = Some(self.reference.statistics());
        Ok((subject_trace, reference_trace))
    }
}

/// Checks whether two circuits implement the same unitary by building
/// both operator DDs in one manager and comparing root edges — the `O(1)`
/// equivalence check of Sec. V-B (after the two builds).
///
/// With an algebraic context the answer is *exact*; with a numeric one it
/// inherits the tolerance semantics (and the paper's trade-off). Circuits
/// of different widths are not equivalent.
///
/// # Errors
///
/// Fails if an operation is not representable in the weight system or a
/// budget limit is crossed.
///
/// # Examples
///
/// ```
/// use aq_circuits::Circuit;
/// use aq_dd::{GateMatrix, QomegaContext};
/// use aq_sim::circuits_equivalent;
///
/// let mut a = Circuit::new(1);
/// for _ in 0..8 {
///     a.push_gate(GateMatrix::t(), 0, &[]);
/// }
/// let identity = Circuit::new(1);
/// assert!(circuits_equivalent(QomegaContext::new(), &a, &identity)?);
/// # Ok::<(), aq_dd::EngineError>(())
/// ```
pub fn circuits_equivalent<W: WeightContext>(
    ctx: W,
    a: &Circuit,
    b: &Circuit,
) -> Result<bool, EngineError> {
    if a.n_qubits() != b.n_qubits() {
        return Ok(false);
    }
    // Both unitaries are built in ONE manager; canonicity makes the final
    // comparison a root-edge equality.
    let mut m = aq_dd::Manager::new(ctx, a.n_qubits());
    let ua = crate::try_circuit_unitary(&mut m, a)?;
    let ub = crate::try_circuit_unitary(&mut m, b)?;
    Ok(ua == ub)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_dd::NumericContext;
    use aq_testutil::TestResult;

    #[test]
    fn distance_of_identical_vectors_is_zero() {
        let v = vec![Complex64::new(0.6, 0.0), Complex64::new(0.0, 0.8)];
        assert!(normalized_distance(&v, &v) < 1e-15);
    }

    #[test]
    fn distance_renormalises_subject() {
        let v_alg = vec![Complex64::ONE, Complex64::ZERO];
        let v_num = vec![Complex64::new(0.5, 0.0), Complex64::ZERO]; // same direction, shorter
        assert!(normalized_distance(&v_num, &v_alg) < 1e-15);
    }

    #[test]
    fn zero_vector_has_unit_distance() {
        let v_alg = vec![Complex64::ONE, Complex64::ZERO];
        let v_num = vec![Complex64::ZERO, Complex64::ZERO];
        assert!((normalized_distance(&v_num, &v_alg) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn orthogonal_unit_vectors_have_distance_sqrt2() {
        let a = vec![Complex64::ONE, Complex64::ZERO];
        let b = vec![Complex64::ZERO, Complex64::ONE];
        assert!((normalized_distance(&a, &b) - std::f64::consts::SQRT_2).abs() < 1e-15);
    }

    #[test]
    fn paired_run_on_small_grover() -> TestResult {
        let circuit = aq_circuits::grover(4, 5);
        let pair = PairedRun::new(NumericContext::with_eps(1e-13), &circuit, 10);
        let (subject, reference) = pair.run()?;
        assert_eq!(subject.points.len(), circuit.len());
        assert_eq!(reference.points.len(), circuit.len());
        // tolerant doubles track the exact result closely on a tiny case
        let err = subject.final_error().expect("sampled at the end");
        assert!(err < 1e-9, "unexpectedly large error {err}");
        // the algebraic reference stays compact
        assert!(reference.peak_nodes() <= 16);
        Ok(())
    }
}
