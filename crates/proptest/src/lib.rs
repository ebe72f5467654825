//! A small, dependency-free stand-in for the `proptest` crate.
//!
//! The build must work with no registry access (see ISSUE 1 / ROADMAP
//! tier-1 verify), so this crate re-implements the subset of the
//! proptest API the workspace uses: `Strategy` + `prop_map`, `any`,
//! `Just`, `prop_oneof!`, tuple and integer-range strategies,
//! `collection::vec`, and the `proptest!` macro with
//! `ProptestConfig::with_cases`.
//!
//! Differences from real proptest, on purpose:
//! - cases are generated from a seed derived from the test name, so
//!   runs are fully deterministic across machines;
//! - there is no shrinking — a failing case panics with its case index,
//!   which is enough to re-run it under a debugger;
//! - `prop_assert!`/`prop_assert_eq!` are plain assertions.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Deterministic splitmix64 generator used to drive all strategies.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator seeded from a test name and case index; the same
    /// `(name, case)` pair always yields the same stream.
    pub fn deterministic(name: &str, case: u32) -> TestRng {
        // FNV-1a over the name, mixed with the case index.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: hash ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded sampling; bias is irrelevant for tests.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Error type kept for API compatibility; assertions panic directly.
#[derive(Debug)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// How many cases each `proptest!` test runs (default 64 here; real
/// proptest defaults to 256 — trimmed for suite runtime).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values of one type. The `Value` associated type and
/// `prop_map` mirror real proptest's `Strategy`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// Object-safe view of [`Strategy`] backing [`BoxedStrategy`].
trait DynStrategy {
    type Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased strategy, as returned by [`Strategy::boxed`].
pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        self.0.dyn_generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produces a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives; built by `prop_oneof!`.
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let index = rng.below(self.arms.len() as u64) as usize;
        self.arms[index].generate(rng)
    }
}

/// Types with a canonical "any value" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy producing arbitrary values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T` (mirrors `proptest::prelude::any`).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_int {
    ($($ty:ty),*) => {$(
        impl Arbitrary for $ty {
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! range_strategy {
    ($($ty:ty),*) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $ty
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

macro_rules! tuple_strategy {
    ($(($($name:ident),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
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
    (A, B, C, D, E, F)
    (A, B, C, D, E, F, G)
    (A, B, C, D, E, F, G, H)
}

pub mod collection {
    //! `proptest::collection` subset: vectors of strategy-generated
    //! elements with a fixed or ranged length.

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Inclusive-exclusive length bounds accepted by [`vec()`]; built
    /// from a bare `usize` (exact length) or a `Range<usize>`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> SizeRange {
            SizeRange {
                min: exact,
                max_exclusive: exact + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> SizeRange {
            assert!(range.start < range.end, "empty vec size range");
            SizeRange {
                min: range.start,
                max_exclusive: range.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `proptest::collection::vec` equivalent.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min) as u64;
            let len = self.size.min + rng.below(span.max(1)) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod strategy {
    //! Re-exports mirroring `proptest::strategy`.
    pub use super::{BoxedStrategy, Just, Map, Strategy, Union};
}

pub mod prelude {
    //! The glob-import surface (`use proptest::prelude::*`).
    pub use super::{any, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Uniformly picks one of the listed strategies each case. All arms
/// must produce the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_eq!($left, $right, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => { assert_ne!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)+) => { assert_ne!($left, $right, $($fmt)+) };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { .. }`
/// item becomes a test running `config.cases` deterministic cases.
/// Attributes on the item (including `#[test]`) are passed through
/// unchanged, matching real proptest's expansion at our call sites.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                $body
            }
        }
    )*};
}
