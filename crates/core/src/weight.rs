//! Edge-weight abstraction: interned weights and the number-system trait.

use std::fmt;

use aq_rings::{Complex64, Domega};

use crate::error::EngineError;

/// Handle to an interned edge weight inside a [`Manager`]'s weight table.
///
/// Weights are deduplicated on interning (exactly for algebraic contexts,
/// within the tolerance ε for the numeric context), so id equality is the
/// weight equality the decision diagram sees — which is precisely where the
/// accuracy-vs-compactness trade-off of the paper lives.
///
/// [`Manager`]: crate::Manager
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WeightId(pub(crate) u32);

impl WeightId {
    /// The interned weight `0` (always id 0).
    pub const ZERO: WeightId = WeightId(0);
    /// The interned weight `1` (always id 1).
    pub const ONE: WeightId = WeightId(1);

    /// Raw index into the weight table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WeightId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Storage and deduplication of weight values.
///
/// Implementations decide what “the same weight” means: the algebraic
/// tables use exact structural equality of canonical forms; the numeric
/// table identifies values within the tolerance ε of the paper.
pub trait WeightTable {
    /// The weight value type.
    type Value;

    /// Interns `v`, returning the id of an existing equal (or ε-close)
    /// entry if there is one.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::WeightTableOverflow`] if the table has
    /// exhausted its 32-bit id space.
    fn try_intern(&mut self, v: Self::Value) -> Result<WeightId, EngineError>;

    /// Looks up a weight by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    fn get(&self, id: WeightId) -> &Self::Value;

    /// Number of distinct weights stored.
    fn len(&self) -> usize;

    /// Returns `true` if only the mandatory `0` and `1` entries exist.
    fn is_empty(&self) -> bool {
        self.len() <= 2
    }
}

/// A number system for QMDD edge weights.
///
/// The decision-diagram engine is generic over this trait; the three
/// implementations ([`NumericContext`], [`QomegaContext`], [`GcdContext`])
/// are the systems compared in the paper's evaluation.
///
/// [`NumericContext`]: crate::NumericContext
/// [`QomegaContext`]: crate::QomegaContext
/// [`GcdContext`]: crate::GcdContext
#[allow(clippy::wrong_self_convention)] // from_* here converts *into* Self::Value, dispatched on the context
pub trait WeightContext: Clone + fmt::Debug {
    /// The weight value type (`Display` renders it exactly — the engine
    /// uses it to report measurement probabilities in exact form).
    type Value: Clone + fmt::Debug + fmt::Display;
    /// The interning table for this value type.
    type Table: WeightTable<Value = Self::Value> + fmt::Debug;

    /// Creates an empty weight table configured for this context
    /// (implementations must intern `0` at id 0 and `1` at id 1).
    fn new_table(&self) -> Self::Table;

    /// The additive identity.
    fn zero(&self) -> Self::Value;
    /// The multiplicative identity.
    fn one(&self) -> Self::Value;
    /// Addition.
    fn add(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// Multiplication.
    fn mul(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;
    /// Negation.
    fn neg(&self, a: &Self::Value) -> Self::Value;
    /// Complex conjugation.
    fn conj(&self, a: &Self::Value) -> Self::Value;

    /// Zero test (within ε for the numeric context).
    fn is_zero(&self, a: &Self::Value) -> bool;

    /// Normalizes the outgoing edge weights of a node **in place** and
    /// returns the extracted normalization factor, or `None` if all
    /// weights are zero.
    ///
    /// This is where the paper's three schemes differ: leftmost-non-zero
    /// or largest-magnitude division for the numeric context, field
    /// inverses for `Q[ω]` (Algorithm 2), canonical GCD extraction for
    /// `D[ω]` (Algorithm 3).
    fn normalize(&self, ws: &mut [Self::Value]) -> Option<Self::Value>;

    /// Converts an exact `D[ω]` constant (gate-matrix entry) into this
    /// number system. Always possible: `D[ω] ⊂ Q[ω]` and `D[ω] ⊂ C`.
    fn from_exact(&self, d: &Domega) -> Self::Value;

    /// Converts an arbitrary complex constant, or `None` if this number
    /// system cannot represent it (the algebraic contexts reject entries
    /// outside `D[ω]`/`Q[ω]` — such gates must first be compiled to
    /// Clifford+T, as the paper does with Quipper for GSE).
    fn from_approx(&self, c: Complex64) -> Option<Self::Value>;

    /// The reciprocal square root `1/√a` of a **non-negative real** value
    /// (a squared norm produced by `mul(w, conj(w))` sums), or `None` if
    /// this number system cannot represent it exactly.
    ///
    /// This is the measurement-collapse renormalization factor: after
    /// discarding one branch, the surviving state is scaled by `1/√p`.
    /// The numeric context can always do this (modulo `a ≤ 0`); the exact
    /// algebraic contexts only when `a` is an even power of `√2` — which
    /// covers every probability of the form `1/2^m`, i.e. all outcomes of
    /// measuring stabilizer-like branches. Anything else (e.g. the
    /// `(2+√2)/4` arising after a `T·H` pair) has no representable `1/√p`
    /// and must be reported as an unrepresentable measurement.
    fn sqrt_inv(&self, a: &Self::Value) -> Option<Self::Value>;

    /// Evaluates to a complex double (exact up to final rounding for the
    /// algebraic contexts).
    fn to_complex(&self, a: &Self::Value) -> Complex64;

    /// Bit-width of the representation (1 for hardware floats): the
    /// coefficient-growth metric discussed for Fig. 5 of the paper.
    fn value_bits(&self, a: &Self::Value) -> u64;

    // --- persistence hooks (see `crate::snapshot`) ---

    /// Short stable name of the number system, recorded in snapshots so a
    /// load with the wrong context fails with
    /// [`EngineError::SnapshotMismatch`] instead of misinterpreting the
    /// stored values.
    ///
    /// [`EngineError::SnapshotMismatch`]: crate::EngineError::SnapshotMismatch
    fn kind(&self) -> &'static str;

    /// Opaque fingerprint of the context parameters (ε and normalization
    /// scheme for the numeric context; empty for the exact contexts).
    /// Snapshots can only be loaded by a context with an equal fingerprint.
    fn params_fingerprint(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Serializes one weight value into a snapshot byte stream.
    fn write_value(&self, v: &Self::Value, out: &mut crate::snapshot::ByteWriter);

    /// Deserializes one weight value from a snapshot byte stream. The
    /// error string is wrapped into
    /// [`EngineError::SnapshotCorrupt`](crate::EngineError::SnapshotCorrupt)
    /// by the caller.
    fn read_value(&self, r: &mut crate::snapshot::ByteReader<'_>) -> Result<Self::Value, String>;

    /// Returns `true` if a single stored weight value is in the canonical
    /// representation its number system's constructors produce — the
    /// invariant every *interned* weight must satisfy, independent of the
    /// per-node normalization checked by [`WeightContext::is_normalized`].
    ///
    /// The exact contexts override this: with lazily deferred GCD
    /// normalization, it proves that no pending state (an unreduced `√2`
    /// denominator exponent, a non-canonical coefficient representation)
    /// ever escapes the normalization pipeline into the weight table.
    fn is_canonical_value(&self, _v: &Self::Value) -> bool {
        true
    }

    /// Returns `true` if `ws` is already in the canonical form
    /// [`WeightContext::normalize`] produces — the invariant every stored
    /// node's child weights must satisfy.
    ///
    /// The default implementation re-normalizes a copy and requires the
    /// extracted factor to be `1` and every value to be unchanged, which
    /// is exact for the algebraic contexts. The numeric context overrides
    /// this with tolerance-aware checks, because ε-interning means a
    /// stored pivot need not be bitwise `1.0` and re-normalization under
    /// `MaxMagnitude` is not idempotent at ε > 0.
    fn is_normalized(&self, ws: &[Self::Value]) -> bool {
        let mut copy: Vec<Self::Value> = ws.to_vec();
        let Some(eta) = self.normalize(&mut copy) else {
            // all-zero rows never occur on a stored node
            return false;
        };
        let unchanged = |a: &Self::Value, b: &Self::Value| self.is_zero(&self.add(a, &self.neg(b)));
        unchanged(&eta, &self.one()) && ws.iter().zip(&copy).all(|(a, b)| unchanged(a, b))
    }
}
