//! A miniature property-testing harness with a `proptest`-compatible
//! macro surface.
//!
//! Supports the subset the workspace's tests use: range and `any::<T>()`
//! strategies, tuples, `prop::collection::vec`, `prop_map`,
//! `prop_filter_map`, `prop_oneof!`, `prop_assume!`, `prop_assert!`,
//! `prop_assert_eq!` and the `proptest! { ... }` test-block macro with an
//! optional `#![proptest_config(...)]` header.
//!
//! Differences from `proptest` proper: no shrinking, no persistence file,
//! and cases are seeded deterministically from the test name (so a
//! failure reproduces identically on every run).

use crate::rng::Rng;
use std::ops::Range;

/// Everything the test files import with `use ..::proptest::prelude::*`.
pub mod prelude {
    pub use super::prop;
    pub use super::{any, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// The `prop::` module path used by `prop::collection::vec(...)`.
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use super::super::{Strategy, VecStrategy};
        use std::ops::Range;

        /// A strategy producing `Vec`s with lengths drawn from `len`
        /// and elements drawn from `elem`.
        pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
            VecStrategy { elem, len }
        }
    }
}

/// Number of cases to run per property.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// How many accepted (non-rejected) cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Why a property case did not pass (the `proptest` crate's type of the
/// same name): `prop_assume!` rejected it, or the body propagated an error
/// with `?`.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Rejected by `prop_assume!`; retried with fresh values.
    Reject,
    /// Failed with the displayed error; fails the test.
    Fail(String),
}

impl<E: std::error::Error> From<E> for TestCaseError {
    fn from(e: E) -> Self {
        TestCaseError::Fail(e.to_string())
    }
}

/// A generator of random values, the object the combinators compose.
pub trait Strategy {
    /// The type of the generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Maps through `f`, resampling whenever it returns `None`.
    /// The label describes the accepted cases (diagnostics only).
    fn prop_filter_map<T, F: Fn(Self::Value) -> Option<T>>(
        self,
        label: &'static str,
        f: F,
    ) -> FilterMap<Self, F>
    where
        Self: Sized,
    {
        FilterMap {
            inner: self,
            f,
            label,
        }
    }

    /// Type-erases the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        (**self).sample(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
    label: &'static str,
}

impl<S: Strategy, T, F: Fn(S::Value) -> Option<T>> Strategy for FilterMap<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        for _ in 0..100_000 {
            if let Some(v) = (self.f)(self.inner.sample(rng)) {
                return v;
            }
        }
        panic!(
            "prop_filter_map(\"{}\") rejected 100000 samples",
            self.label
        );
    }
}

/// Uniform choice among type-erased strategies; built by `prop_oneof!`.
pub struct OneOf<T> {
    variants: Vec<BoxedStrategy<T>>,
}

impl<T> OneOf<T> {
    /// A strategy sampling uniformly from `variants`.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty.
    pub fn new(variants: Vec<BoxedStrategy<T>>) -> OneOf<T> {
        assert!(!variants.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { variants }
    }
}

impl<T> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        let i = rng.below(self.variants.len() as u64) as usize;
        self.variants[i].sample(rng)
    }
}

/// See [`prop::collection::vec`].
pub struct VecStrategy<S> {
    elem: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut Rng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start).max(1) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.elem.sample(rng)).collect()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

/// Types with a full-domain default strategy (the `any::<T>()` form).
pub trait Arb: Sized {
    /// Draws an unconstrained value.
    fn arb_sample(rng: &mut Rng) -> Self;
}

macro_rules! arb_uint {
    ($($t:ty),*) => {$(
        impl Arb for $t {
            fn arb_sample(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arb_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arb for bool {
    fn arb_sample(rng: &mut Rng) -> bool {
        rng.gen_bool()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arb> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        T::arb_sample(rng)
    }
}

/// The full-domain strategy for `T` (`any::<u64>()`, `any::<bool>()`, …).
pub fn any<T: Arb>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// FNV-1a over the test name: the per-test deterministic seed.
fn seed_from_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs `config.cases` accepted cases of `case`, retrying rejected ones
/// (bounded). Called by the `proptest!` macro expansion.
///
/// # Panics
///
/// Panics (failing the test) if a case fails with an error or rejection
/// exhausts the retry budget; assertion failures inside `case` propagate
/// as normal panics.
pub fn run_cases<F>(config: ProptestConfig, name: &str, mut case: F)
where
    F: FnMut(&mut Rng) -> Result<(), TestCaseError>,
{
    let mut rng = Rng::from_seed(seed_from_name(name));
    let mut accepted = 0u32;
    let mut rejected = 0u64;
    let budget = config.cases as u64 * 64 + 1024;
    while accepted < config.cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Fail(e)) => panic!("property `{name}` failed: {e}"),
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < budget,
                    "property `{name}`: too many rejected cases ({rejected})"
                );
            }
        }
    }
}

/// Defines property tests. Mirrors `proptest::proptest!`:
///
/// ```
/// use aq_testutil::proptest::prelude::*;
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(16))]
///     # #[allow(unused)]
///     fn addition_commutes(a in 0u32..100, b in 0u32..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// # addition_commutes();
/// ```
///
/// (In real use each function carries `#[test]`.)
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! {
            ($crate::proptest::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::proptest::run_cases($cfg, stringify!($name), |rng| {
                    $(let $arg = $crate::proptest::Strategy::sample(&($strat), rng);)+
                    #[allow(clippy::redundant_closure_call)]
                    (|| -> ::std::result::Result<(), $crate::proptest::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })()
                });
            }
        )*
    };
}

/// Rejects the current case unless the condition holds (the case is
/// retried with fresh values and does not count towards the total).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::proptest::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among the listed strategies (all arms must generate the
/// same value type).
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::proptest::OneOf::new(vec![
            $($crate::proptest::Strategy::boxed($s)),+
        ])
    };
}

/// Asserts within a property (an alias for `assert!` — no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality within a property (an alias for `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    fn even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn map_and_ranges(x in even(), y in -50i64..50, b in any::<bool>()) {
            prop_assert!(x % 2 == 0);
            prop_assert!((-50..50).contains(&y));
            let _ = b;
        }

        #[test]
        fn assume_retries(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }

        #[test]
        fn filter_map_and_oneof(v in prop_oneof![
            (0u32..5, 0u32..5).prop_filter_map("distinct", |(a, b)| (a != b).then_some((a, b))),
            (5u32..9).prop_map(|a| (a, a)),
        ]) {
            let (a, b) = v;
            prop_assert!(a < 5 && a != b || a >= 5 && a == b);
        }

        #[test]
        fn collection_vec(xs in prop::collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(xs.len() < 8);
        }
    }

    #[test]
    #[should_panic(expected = "property `errs` failed: invalid digit")]
    fn an_error_propagated_with_question_mark_fails_the_property() {
        super::run_cases(ProptestConfig::with_cases(4), "errs", |_| {
            "x".parse::<u32>()?;
            Ok(())
        });
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::Rng;
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        for out in [&mut out1, &mut out2] {
            super::run_cases(ProptestConfig::with_cases(10), "det", |rng: &mut Rng| {
                out.push((0u64..100).sample(rng));
                Ok(())
            });
        }
        assert_eq!(out1, out2);
    }
}
