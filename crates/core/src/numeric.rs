//! The numerical weight system: `Complex64` with a tolerance value ε.
//!
//! This is the state-of-the-art representation the paper evaluates in
//! Sec. V-A: edge weights are IEEE 754 doubles, and two weights are
//! considered equal when they differ by at most ε per component. Small ε
//! misses redundancies (exponential blow-up); large ε merges distinct
//! values and loses information.

use aq_rings::{Complex64, Domega, Tolerance};

use crate::error::EngineError;
use crate::fxhash::FxHashMap;
use crate::weight::{WeightContext, WeightId, WeightTable};

/// Normalization scheme for numeric QMDDs (Sec. II-B of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NormScheme {
    /// Divide by the leftmost non-zero edge weight (the simple scheme).
    #[default]
    Leftmost,
    /// Divide by the (leftmost) weight of largest absolute value, keeping
    /// every stored weight at magnitude ≤ 1 for numerical stability
    /// (the scheme of \[29\], “On the ‘Q’ in QMDDs”).
    MaxMagnitude,
}

/// The numerical weight system: complex doubles compared within ε.
///
/// # Examples
///
/// ```
/// use aq_dd::{Manager, NumericContext};
///
/// // ε = 10⁻¹⁰, as in the middle curves of Fig. 3 of the paper
/// let ctx = NumericContext::with_eps(1e-10);
/// let m = Manager::new(ctx, 3);
/// # let _ = m;
/// ```
#[derive(Debug, Clone)]
pub struct NumericContext {
    tol: Tolerance,
    scheme: NormScheme,
}

impl NumericContext {
    /// Exact comparison (ε = 0) with leftmost normalization.
    pub fn new() -> Self {
        NumericContext {
            tol: Tolerance::exact(),
            scheme: NormScheme::Leftmost,
        }
    }

    /// Tolerance ε with leftmost normalization.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or not finite.
    pub fn with_eps(eps: f64) -> Self {
        NumericContext {
            tol: Tolerance::new(eps),
            scheme: NormScheme::Leftmost,
        }
    }

    /// Tolerance ε with an explicit normalization scheme.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative or not finite.
    pub fn with_eps_and_scheme(eps: f64, scheme: NormScheme) -> Self {
        NumericContext {
            tol: Tolerance::new(eps),
            scheme,
        }
    }

    /// The tolerance in use.
    pub fn tolerance(&self) -> Tolerance {
        self.tol
    }
}

impl Default for NumericContext {
    fn default() -> Self {
        NumericContext::new()
    }
}

impl WeightContext for NumericContext {
    type Value = Complex64;
    type Table = NumericTable;

    fn new_table(&self) -> NumericTable {
        let index = if self.tol.is_exact() {
            NumericIndex::Exact(FxHashMap::default())
        } else {
            NumericIndex::Grid {
                pitch: self.tol.eps(),
                map: FxHashMap::default(),
            }
        };
        let mut t = NumericTable {
            values: Vec::new(),
            tol: self.tol,
            index,
        };
        // an empty table has ids to spare: interning the constants cannot fail
        let z = t.try_intern(Complex64::ZERO);
        let o = t.try_intern(Complex64::ONE);
        debug_assert!(matches!((z, o), (Ok(WeightId::ZERO), Ok(WeightId::ONE))));
        t
    }

    fn zero(&self) -> Complex64 {
        Complex64::ZERO
    }

    fn one(&self) -> Complex64 {
        Complex64::ONE
    }

    fn add(&self, a: &Complex64, b: &Complex64) -> Complex64 {
        *a + *b
    }

    fn mul(&self, a: &Complex64, b: &Complex64) -> Complex64 {
        *a * *b
    }

    fn neg(&self, a: &Complex64) -> Complex64 {
        -*a
    }

    fn conj(&self, a: &Complex64) -> Complex64 {
        a.conj()
    }

    fn is_zero(&self, a: &Complex64) -> bool {
        self.tol.is_zero(*a)
    }

    fn normalize(&self, ws: &mut [Complex64]) -> Option<Complex64> {
        let pivot = match self.scheme {
            NormScheme::Leftmost => ws.iter().position(|w| !self.tol.is_zero(*w))?,
            NormScheme::MaxMagnitude => {
                let mut best: Option<(usize, f64)> = None;
                for (i, w) in ws.iter().enumerate() {
                    if self.tol.is_zero(*w) {
                        continue;
                    }
                    // Compare *linear* magnitudes against the linear ε so
                    // the tie window has consistent units (squared
                    // magnitude vs linear ε would make the "leftmost among
                    // ties" rule depend on the magnitude scale).
                    let m = w.norm_sqr().sqrt();
                    // strictly-greater keeps the leftmost among ties
                    if best.map(|(_, bm)| m > bm + self.tol.eps()).unwrap_or(true) {
                        best = Some((i, m));
                    }
                }
                best?.0
            }
        };
        let eta = ws[pivot];
        for (i, w) in ws.iter_mut().enumerate() {
            if self.tol.is_zero(*w) {
                *w = Complex64::ZERO;
            } else if i == pivot {
                *w = Complex64::ONE; // exact by construction
            } else {
                *w = *w / eta;
            }
        }
        Some(eta)
    }

    fn from_exact(&self, d: &Domega) -> Complex64 {
        d.to_complex64()
    }

    fn from_approx(&self, c: Complex64) -> Option<Complex64> {
        Some(c)
    }

    fn sqrt_inv(&self, a: &Complex64) -> Option<Complex64> {
        // squared norms are real; reject anything that is not a usable
        // positive probability mass (the caller treats `None` as an
        // impossible renormalization)
        if a.re <= 0.0 || !a.re.is_finite() {
            return None;
        }
        Some(Complex64::new(1.0 / a.re.sqrt(), 0.0))
    }

    fn to_complex(&self, a: &Complex64) -> Complex64 {
        *a
    }

    fn value_bits(&self, _a: &Complex64) -> u64 {
        53 // double-precision mantissa, constant by definition
    }

    fn kind(&self) -> &'static str {
        "numeric"
    }

    fn params_fingerprint(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(9);
        out.extend_from_slice(&self.tol.eps().to_bits().to_le_bytes());
        out.push(match self.scheme {
            NormScheme::Leftmost => 0,
            NormScheme::MaxMagnitude => 1,
        });
        out
    }

    fn write_value(&self, v: &Complex64, out: &mut crate::snapshot::ByteWriter) {
        out.put_f64(v.re);
        out.put_f64(v.im);
    }

    fn read_value(&self, r: &mut crate::snapshot::ByteReader<'_>) -> Result<Complex64, String> {
        let re = r.take_f64()?;
        let im = r.take_f64()?;
        if !re.is_finite() || !im.is_finite() {
            return Err(format!("non-finite weight ({re}, {im})"));
        }
        Ok(Complex64::new(re, im))
    }

    fn is_normalized(&self, ws: &[Complex64]) -> bool {
        // The default re-normalization check is too strict here: with ε > 0
        // the interned pivot need not be bitwise 1.0 (the grid table may
        // have merged it into an earlier ε-close representative), and
        // `MaxMagnitude` re-normalization is not idempotent inside the tie
        // window. The tolerance-aware invariant is: no stored nonzero
        // weight is an ε-zero, and the pivot position holds an ε-one.
        if ws.iter().any(|w| *w != Complex64::ZERO && self.is_zero(w)) {
            return false;
        }
        match self.scheme {
            NormScheme::Leftmost => ws
                .iter()
                .find(|w| **w != Complex64::ZERO)
                .is_some_and(|w| self.tol.eq(*w, Complex64::ONE)),
            NormScheme::MaxMagnitude => ws.iter().any(|w| self.tol.eq(*w, Complex64::ONE)),
        }
    }
}

/// Weight table for complex doubles with ε-deduplication.
///
/// For ε = 0 values are indexed by their exact bit pattern. For ε > 0 they
/// are bucketed on a grid of pitch ε and lookup probes the 3×3
/// neighbourhood, so any two values within ε land in probed cells.
#[derive(Debug)]
pub struct NumericTable {
    values: Vec<Complex64>,
    tol: Tolerance,
    index: NumericIndex,
}

impl NumericTable {
    /// Appends a value while bypassing deduplication — only for invariant
    /// tests that need a deliberately corrupted table.
    #[cfg(test)]
    pub(crate) fn push_duplicate_for_tests(&mut self, v: Complex64) {
        self.values.push(v);
    }
}

#[derive(Debug)]
enum NumericIndex {
    Exact(FxHashMap<(u64, u64), WeightId>),
    Grid {
        pitch: f64,
        map: FxHashMap<(i128, i128), Vec<WeightId>>,
    },
}

fn quantize(x: f64, pitch: f64) -> i128 {
    let q = (x / pitch).floor();
    // saturate so astronomically large weights stay hashable (they simply
    // share the boundary bucket)
    if q >= 1.7e38 {
        i128::MAX / 2
    } else if q <= -1.7e38 {
        i128::MIN / 2
    } else {
        q as i128
    }
}

impl WeightTable for NumericTable {
    type Value = Complex64;

    fn try_intern(&mut self, v: Complex64) -> Result<WeightId, EngineError> {
        // canonicalise signed zeros so hashing is stable
        let v = Complex64::new(v.re + 0.0, v.im + 0.0);
        match &mut self.index {
            NumericIndex::Exact(map) => {
                let key = (v.re.to_bits(), v.im.to_bits());
                if let Some(&id) = map.get(&key) {
                    return Ok(id);
                }
                let raw = u32::try_from(self.values.len())
                    .map_err(|_| EngineError::WeightTableOverflow)?;
                let id = WeightId(raw);
                self.values.push(v);
                map.insert(key, id);
                Ok(id)
            }
            NumericIndex::Grid { pitch, map } => {
                let (cx, cy) = (quantize(v.re, *pitch), quantize(v.im, *pitch));
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        if let Some(ids) = map.get(&(cx + dx, cy + dy)) {
                            for &id in ids {
                                if self.tol.eq(self.values[id.index()], v) {
                                    return Ok(id);
                                }
                            }
                        }
                    }
                }
                let raw = u32::try_from(self.values.len())
                    .map_err(|_| EngineError::WeightTableOverflow)?;
                let id = WeightId(raw);
                self.values.push(v);
                map.entry((cx, cy)).or_default().push(id);
                Ok(id)
            }
        }
    }

    fn get(&self, id: WeightId) -> &Complex64 {
        &self.values[id.index()]
    }

    fn len(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aq_testutil::TestResult;

    #[test]
    fn table_interns_constants_first() -> TestResult {
        let ctx = NumericContext::new();
        let mut t = ctx.new_table();
        assert_eq!(*t.get(WeightId::ZERO), Complex64::ZERO);
        assert_eq!(*t.get(WeightId::ONE), Complex64::ONE);
        assert_eq!(t.try_intern(Complex64::ZERO)?, WeightId::ZERO);
        assert_eq!(t.try_intern(Complex64::new(-0.0, 0.0))?, WeightId::ZERO);
        Ok(())
    }

    #[test]
    fn exact_table_distinguishes_ulps() -> TestResult {
        let ctx = NumericContext::new();
        let mut t = ctx.new_table();
        let a = t.try_intern(Complex64::new(1.0 / 3.0, 0.0))?;
        let b = t.try_intern(Complex64::new(1.0 / 3.0 + f64::EPSILON, 0.0))?;
        assert_ne!(a, b, "ε = 0 must not merge distinct doubles");
        assert_eq!(t.try_intern(Complex64::new(1.0 / 3.0, 0.0))?, a);
        Ok(())
    }

    #[test]
    fn tolerant_table_merges_close_values() -> TestResult {
        let ctx = NumericContext::with_eps(1e-10);
        let mut t = ctx.new_table();
        let a = t.try_intern(Complex64::new(0.5, 0.25))?;
        let b = t.try_intern(Complex64::new(0.5 + 1e-12, 0.25 - 1e-12))?;
        assert_eq!(a, b);
        let c = t.try_intern(Complex64::new(0.5 + 1e-9, 0.25))?;
        assert_ne!(a, c);
        Ok(())
    }

    #[test]
    fn near_one_snaps_to_the_one_id() -> TestResult {
        let ctx = NumericContext::with_eps(1e-6);
        let mut t = ctx.new_table();
        assert_eq!(
            t.try_intern(Complex64::new(1.0 + 1e-8, -1e-9))?,
            WeightId::ONE
        );
        Ok(())
    }

    #[test]
    fn leftmost_normalization() {
        let ctx = NumericContext::new();
        let mut ws = [
            Complex64::ZERO,
            Complex64::new(0.5, 0.0),
            Complex64::new(0.25, 0.0),
            Complex64::ZERO,
        ];
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        assert_eq!(eta, Complex64::new(0.5, 0.0));
        assert_eq!(ws[1], Complex64::ONE);
        assert_eq!(ws[2], Complex64::new(0.5, 0.0));
        assert!(ctx.normalize(&mut [Complex64::ZERO; 4]).is_none());
    }

    #[test]
    fn max_magnitude_normalization_bounds_weights() {
        let ctx = NumericContext::with_eps_and_scheme(0.0, NormScheme::MaxMagnitude);
        let mut ws = [
            Complex64::new(0.5, 0.0),
            Complex64::new(-2.0, 0.0),
            Complex64::ZERO,
            Complex64::new(1.0, 1.0),
        ];
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        assert_eq!(eta, Complex64::new(-2.0, 0.0));
        for w in ws {
            assert!(w.abs() <= 1.0 + 1e-12, "weight {w:?} exceeds 1");
        }
        assert_eq!(ws[1], Complex64::ONE);
    }

    #[test]
    fn max_magnitude_tie_break_uses_linear_units() {
        // Magnitudes 0.8 and 0.95 with ε = 0.2: |0.95| ≤ |0.8| + ε, so in
        // linear units they tie and the leftmost (0.8) must be the pivot.
        // The old comparison mixed units — squared magnitudes against the
        // linear ε (0.9025 > 0.64 + 0.2) — and wrongly declared 0.95 the
        // strict maximum, so the pivot depended on where in [0, 1] the
        // weights happened to sit.
        let ctx = NumericContext::with_eps_and_scheme(0.2, NormScheme::MaxMagnitude);
        let mut ws = [Complex64::new(0.8, 0.0), Complex64::new(0.95, 0.0)];
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        assert_eq!(
            eta,
            Complex64::new(0.8, 0.0),
            "tie within the linear ε window must keep the leftmost pivot"
        );
        // a magnitude gap larger than ε is not a tie: the right pivot wins
        let mut ws = [Complex64::new(0.5, 0.0), Complex64::new(0.9, 0.0)];
        let eta = ctx.normalize(&mut ws).expect("nonzero");
        assert_eq!(eta, Complex64::new(0.9, 0.0));
    }

    #[test]
    fn from_exact_matches_algebraic_eval() {
        let ctx = NumericContext::new();
        let h = ctx.from_exact(&Domega::one_over_sqrt2());
        assert!((h.re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-15);
    }
}
