//! Gate matrices and direct construction of (multi-)controlled gate DDs.

use std::fmt;

use aq_rings::{Complex64, Domega, Zomega};

use crate::edge::{Edge, MatId};
use crate::error::EngineError;
use crate::manager::Manager;
use crate::weight::{WeightContext, WeightId};

/// A 2×2 single-qubit gate matrix whose entries are either exact `D[ω]`
/// constants (Clifford+T and friends) or approximate complex doubles
/// (arbitrary rotations).
///
/// Exact entries are representable in *every* weight system; approximate
/// entries only in the numeric one — algebraic managers reject them, which
/// is precisely why the paper compiles the GSE rotations to Clifford+T
/// with Quipper before simulating them algebraically.
///
/// # Examples
///
/// ```
/// use aq_dd::GateMatrix;
///
/// assert!(GateMatrix::t().is_exact());
/// assert!(!GateMatrix::rz(0.123).is_exact());
/// ```
#[derive(Clone, PartialEq)]
pub struct GateMatrix {
    name: String,
    entries: [GateEntry; 4],
}

/// One entry of a [`GateMatrix`].
#[derive(Clone, PartialEq, Debug)]
pub enum GateEntry {
    /// An exact element of `D[ω]`.
    Exact(Domega),
    /// A complex double (for gates outside the Clifford+T entry ring).
    Approx(Complex64),
}

impl GateMatrix {
    /// Creates a gate from four exact entries in row-major order.
    pub fn from_exact(name: impl Into<String>, entries: [Domega; 4]) -> Self {
        let [a, b, c, d] = entries;
        GateMatrix {
            name: name.into(),
            entries: [
                GateEntry::Exact(a),
                GateEntry::Exact(b),
                GateEntry::Exact(c),
                GateEntry::Exact(d),
            ],
        }
    }

    /// Creates a gate from four complex entries in row-major order.
    pub fn from_complex(name: impl Into<String>, entries: [Complex64; 4]) -> Self {
        let [a, b, c, d] = entries;
        GateMatrix {
            name: name.into(),
            entries: [
                GateEntry::Approx(a),
                GateEntry::Approx(b),
                GateEntry::Approx(c),
                GateEntry::Approx(d),
            ],
        }
    }

    /// The gate's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entries in row-major order.
    pub fn entries(&self) -> &[GateEntry; 4] {
        &self.entries
    }

    /// Returns `true` if every entry is an exact `D[ω]` constant.
    pub fn is_exact(&self) -> bool {
        self.entries
            .iter()
            .all(|e| matches!(e, GateEntry::Exact(_)))
    }

    /// The entries evaluated to complex doubles.
    pub fn to_complex(&self) -> [Complex64; 4] {
        let get = |e: &GateEntry| match e {
            GateEntry::Exact(d) => d.to_complex64(),
            GateEntry::Approx(c) => *c,
        };
        [
            get(&self.entries[0]),
            get(&self.entries[1]),
            get(&self.entries[2]),
            get(&self.entries[3]),
        ]
    }

    /// Hadamard `H = 1/√2 [[1, 1], [1, −1]]`.
    pub fn h() -> Self {
        let s = Domega::one_over_sqrt2();
        GateMatrix::from_exact("H", [s.clone(), s.clone(), s.clone(), -&s])
    }

    /// Pauli `X` (NOT).
    pub fn x() -> Self {
        GateMatrix::from_exact(
            "X",
            [Domega::zero(), Domega::one(), Domega::one(), Domega::zero()],
        )
    }

    /// Pauli `Y`.
    pub fn y() -> Self {
        GateMatrix::from_exact(
            "Y",
            [Domega::zero(), -&Domega::i(), Domega::i(), Domega::zero()],
        )
    }

    /// Pauli `Z`.
    pub fn z() -> Self {
        GateMatrix::from_exact(
            "Z",
            [
                Domega::one(),
                Domega::zero(),
                Domega::zero(),
                -&Domega::one(),
            ],
        )
    }

    /// Phase gate `S = diag(1, i) = T²`.
    pub fn s() -> Self {
        GateMatrix::from_exact(
            "S",
            [Domega::one(), Domega::zero(), Domega::zero(), Domega::i()],
        )
    }

    /// Inverse phase gate `S† = diag(1, −i)`.
    pub fn sdg() -> Self {
        GateMatrix::from_exact(
            "Sdg",
            [Domega::one(), Domega::zero(), Domega::zero(), -&Domega::i()],
        )
    }

    /// `T = diag(1, ω)`, the π/4 gate.
    pub fn t() -> Self {
        GateMatrix::from_exact(
            "T",
            [
                Domega::one(),
                Domega::zero(),
                Domega::zero(),
                Domega::omega(),
            ],
        )
    }

    /// `T† = diag(1, ω⁷)`.
    pub fn tdg() -> Self {
        GateMatrix::from_exact(
            "Tdg",
            [
                Domega::one(),
                Domega::zero(),
                Domega::zero(),
                Domega::from(Zomega::omega().pow(7)),
            ],
        )
    }

    /// `√X = 1/2 [[1+i, 1−i], [1−i, 1+i]]` (exact in `D[ω]`).
    pub fn sx() -> Self {
        let half = |z: Zomega| Domega::new(z, 2); // z / 2
        let one_plus_i = &Zomega::one() + &Zomega::i();
        let one_minus_i = &Zomega::one() - &Zomega::i();
        GateMatrix::from_exact(
            "SX",
            [
                half(one_plus_i.clone()),
                half(one_minus_i.clone()),
                half(one_minus_i),
                half(one_plus_i),
            ],
        )
    }

    /// The adjoint (conjugate transpose) of the gate — its inverse, since
    /// gate matrices are unitary.
    ///
    /// ```
    /// use aq_dd::GateMatrix;
    /// assert_eq!(GateMatrix::t().adjoint().entries(), GateMatrix::tdg().entries());
    /// ```
    pub fn adjoint(&self) -> GateMatrix {
        let conj = |e: &GateEntry| match e {
            GateEntry::Exact(d) => GateEntry::Exact(d.conj()),
            GateEntry::Approx(c) => GateEntry::Approx(c.conj()),
        };
        GateMatrix {
            name: format!("{}†", self.name),
            entries: [
                conj(&self.entries[0]),
                conj(&self.entries[2]),
                conj(&self.entries[1]),
                conj(&self.entries[3]),
            ],
        }
    }

    /// Phase gate `diag(1, e^{iθ})`. Exact when θ is a multiple of π/4,
    /// approximate otherwise.
    pub fn phase(theta: f64) -> Self {
        if let Some(j) = multiple_of_pi_over_4(theta) {
            return GateMatrix::from_exact(
                format!("P({theta:.4})"),
                [
                    Domega::one(),
                    Domega::zero(),
                    Domega::zero(),
                    Domega::from(Zomega::omega().pow(j)),
                ],
            );
        }
        GateMatrix::from_complex(
            format!("P({theta:.4})"),
            [
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_polar_unit(theta),
            ],
        )
    }

    /// `Rz(θ) = diag(e^{−iθ/2}, e^{iθ/2})`.
    pub fn rz(theta: f64) -> Self {
        GateMatrix::from_complex(
            format!("Rz({theta:.4})"),
            [
                Complex64::from_polar_unit(-theta / 2.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_polar_unit(theta / 2.0),
            ],
        )
    }

    /// `Ry(θ)` rotation.
    pub fn ry(theta: f64) -> Self {
        let (s, c) = (theta / 2.0).sin_cos();
        GateMatrix::from_complex(
            format!("Ry({theta:.4})"),
            [
                Complex64::new(c, 0.0),
                Complex64::new(-s, 0.0),
                Complex64::new(s, 0.0),
                Complex64::new(c, 0.0),
            ],
        )
    }

    /// `Rx(θ)` rotation.
    pub fn rx(theta: f64) -> Self {
        let (s, c) = (theta / 2.0).sin_cos();
        GateMatrix::from_complex(
            format!("Rx({theta:.4})"),
            [
                Complex64::new(c, 0.0),
                Complex64::new(0.0, -s),
                Complex64::new(0.0, -s),
                Complex64::new(c, 0.0),
            ],
        )
    }
}

/// Detects θ = j·π/4 (within double rounding), returning `j mod 8`.
fn multiple_of_pi_over_4(theta: f64) -> Option<u32> {
    let q = theta / std::f64::consts::FRAC_PI_4;
    let j = q.round();
    if (q - j).abs() < 1e-12 {
        Some((j.rem_euclid(8.0)) as u32 % 8)
    } else {
        None
    }
}

impl fmt::Debug for GateMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GateMatrix({})", self.name)
    }
}

/// Error returned when a gate matrix cannot be represented in the
/// manager's weight system (e.g. an arbitrary rotation in an algebraic
/// manager).
///
/// Kept for backwards compatibility; [`Manager::try_gate`] now reports
/// this condition as [`EngineError::UnrepresentableGate`], which this
/// type converts into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnrepresentableGateError {
    gate: String,
}

impl From<UnrepresentableGateError> for EngineError {
    fn from(e: UnrepresentableGateError) -> EngineError {
        EngineError::UnrepresentableGate { gate: e.gate }
    }
}

impl fmt::Display for UnrepresentableGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate `{}` has entries outside this weight system; compile it to Clifford+T first",
            self.gate
        )
    }
}

impl std::error::Error for UnrepresentableGateError {}

impl<W: WeightContext> Manager<W> {
    /// Builds the operator DD for `gate` applied to `target` under the
    /// given `(qubit, polarity)` controls (`true` = control on `|1⟩`).
    ///
    /// The construction is direct and bottom-up — no Kronecker products,
    /// no exponential intermediates: identity chains for untouched qubits,
    /// diagonal control nodes, the 2×2 body at the target level.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnrepresentableGate`] if an entry is not
    /// representable in the weight system (see [`GateMatrix`]), or a
    /// budget error when a limit is crossed.
    ///
    /// # Panics
    ///
    /// Panics if `target` or a control is out of range, or a control
    /// coincides with the target.
    pub fn try_gate(
        &mut self,
        gate: &GateMatrix,
        target: u32,
        controls: &[(u32, bool)],
    ) -> Result<Edge<MatId>, EngineError> {
        assert!(target < self.n_qubits, "target out of range");
        for &(c, _) in controls {
            assert!(c < self.n_qubits, "control out of range");
            assert!(c != target, "control coincides with target");
        }

        let mut entry_ids = [WeightId::ZERO; 4];
        for (i, e) in gate.entries().iter().enumerate() {
            let v =
                match e {
                    GateEntry::Exact(d) => self.ctx.from_exact(d),
                    GateEntry::Approx(c) => self.ctx.from_approx(*c).ok_or_else(|| {
                        EngineError::UnrepresentableGate {
                            gate: gate.name().to_string(),
                        }
                    })?,
                };
            entry_ids[i] = self.try_intern(v)?;
        }

        let is_control = |v: u32| controls.iter().find(|&&(c, _)| c == v).map(|&(_, p)| p);

        // Identity chains id(v) for levels v..n−1 are built lazily.
        let mut id_below = Edge {
            w: WeightId::ONE,
            n: MatId::TERMINAL,
        };

        // Four block edges, bottom-up below the target.
        let mut blocks: [Edge<MatId>; 4] = entry_ids.map(|w| {
            if w == WeightId::ZERO {
                Edge::ZERO_MAT
            } else {
                Edge {
                    w,
                    n: MatId::TERMINAL,
                }
            }
        });

        for v in (target + 1..self.n_qubits).rev() {
            if let Some(pol) = is_control(v) {
                let mut nb = [Edge::ZERO_MAT; 4];
                for (i, b) in blocks.iter().enumerate() {
                    let diag = if i == 0 || i == 3 {
                        id_below
                    } else {
                        Edge::ZERO_MAT
                    };
                    nb[i] = if pol {
                        self.try_make_mat_node(v, [diag, Edge::ZERO_MAT, Edge::ZERO_MAT, *b])?
                    } else {
                        self.try_make_mat_node(v, [*b, Edge::ZERO_MAT, Edge::ZERO_MAT, diag])?
                    };
                }
                blocks = nb;
            } else {
                let mut nb = [Edge::ZERO_MAT; 4];
                for (i, b) in blocks.iter().enumerate() {
                    nb[i] = self.try_make_mat_node(v, [*b, Edge::ZERO_MAT, Edge::ZERO_MAT, *b])?;
                }
                blocks = nb;
            }
            id_below =
                self.try_make_mat_node(v, [id_below, Edge::ZERO_MAT, Edge::ZERO_MAT, id_below])?;
        }

        // Target level combines the four blocks into one node; the
        // identity chain is extended across the target for controls above.
        let mut e = self.try_make_mat_node(target, blocks)?;
        let mut id_from =
            self.try_make_mat_node(target, [id_below, Edge::ZERO_MAT, Edge::ZERO_MAT, id_below])?;

        for v in (0..target).rev() {
            e = if let Some(pol) = is_control(v) {
                if pol {
                    self.try_make_mat_node(v, [id_from, Edge::ZERO_MAT, Edge::ZERO_MAT, e])?
                } else {
                    self.try_make_mat_node(v, [e, Edge::ZERO_MAT, Edge::ZERO_MAT, id_from])?
                }
            } else {
                self.try_make_mat_node(v, [e, Edge::ZERO_MAT, Edge::ZERO_MAT, e])?
            };
            id_from =
                self.try_make_mat_node(v, [id_from, Edge::ZERO_MAT, Edge::ZERO_MAT, id_from])?;
        }
        Ok(e)
    }
}
