//! Offline stand-in for the `proptest` crate.
//!
//! Supports the subset this workspace's property tests use: the
//! `proptest!` macro with `arg in strategy` bindings and an optional
//! `#![proptest_config(..)]` line, `Just`, integer-range strategies,
//! `prop_map`, `prop_oneof!`, `proptest::collection::vec`, `any::<u64>()`,
//! and the `prop_assert*` macros. Inputs are sampled from a generator
//! seeded deterministically per test (no persistence, no shrinking): a
//! failure report names the case index, and re-running reproduces it
//! exactly.

use std::ops::Range;

/// Test-case configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` sampled cases.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// The deterministic test-input generator (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from the test name, so each test gets a stable,
    /// distinct stream.
    #[must_use]
    pub fn deterministic(name: &str) -> Self {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            seed ^= u64::from(b);
            seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() as usize) % n
    }
}

/// A value-generation strategy.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erase the strategy type.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A boxed, type-erased strategy.
pub struct BoxedStrategy<V>(Box<dyn Strategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.generate(rng)
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss,
                    clippy::cast_possible_wrap)]
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.end > self.start, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let x = u128::from(rng.next_u64()) % span;
                (self.start as i128 + x as i128) as $t
            }
        }
    )*};
}

range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize);

/// The strategy behind [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

/// Types with a canonical "arbitrary value" strategy.
pub trait Arbitrary: Sized {
    /// Sample one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64()
    }
}

impl Arbitrary for u32 {
    #[allow(clippy::cast_possible_truncation)]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as u32
    }
}

impl Arbitrary for i64 {
    #[allow(clippy::cast_possible_wrap)]
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() as i64
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of arbitrary values of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// A uniform choice among boxed alternatives (built by `prop_oneof!`).
pub struct OneOf<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Strategy for OneOf<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len());
        self.options[i].generate(rng)
    }
}

/// Build a [`OneOf`] from boxed strategies (used by `prop_oneof!`).
#[must_use]
pub fn one_of<V>(options: Vec<BoxedStrategy<V>>) -> OneOf<V> {
    assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
    OneOf { options }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A length range for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        low: usize,
        high_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.end > r.start, "empty size range");
            SizeRange { low: r.start, high_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange { low: *r.start(), high_inclusive: *r.end() }
        }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.high_inclusive - self.size.low + 1;
            let len = self.size.low + rng.below(span.max(1));
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of values from `element`, with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// The common import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Uniformly choose among strategies yielding the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::one_of(vec![ $( $crate::Strategy::boxed($strategy) ),+ ])
    };
}

/// Assert within a property (maps to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Assert equality within a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Assert inequality within a property (maps to `assert_ne!`).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `arg in strategy` binding is sampled per
/// case from a per-test deterministic stream.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident ( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::deterministic(stringify!($name));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&$strategy, &mut __rng);)*
                let __run = || -> () { $body };
                __run();
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_and_oneof_sample_in_domain() {
        let mut rng = TestRng::deterministic("t");
        let s = prop_oneof![Just(0i64), (10i64..20).prop_map(|x| x * 2)];
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v == 0 || (20..40).contains(&v));
        }
    }

    #[test]
    fn vec_strategy_respects_bounds() {
        let mut rng = TestRng::deterministic("v");
        let s = collection::vec(0u8..5, 0..=3usize);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v.len() <= 3);
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_arguments(x in 0i64..10, ys in collection::vec(0u8..3, 0..4usize)) {
            prop_assert!((0..10).contains(&x));
            prop_assert!(ys.len() < 4);
        }
    }
}
