//! Offline stand-in for `proptest`.
//!
//! The build container has no registry access, so the workspace patches
//! `proptest` to this crate (see `[patch.crates-io]` in the root
//! `Cargo.toml`). It keeps the property-test surface the workspace
//! uses — the [`proptest!`] macro, [`Strategy`](strategy::Strategy)
//! with `prop_map`, range and tuple strategies,
//! [`collection::vec`], [`sample::Index`], `any`, and the
//! `prop_assert*`/`prop_assume` macros — on top of a deliberately
//! simple runner:
//!
//! * cases are generated from a **fixed** deterministic seed (stable
//!   across runs and machines — handy for CI, unlike upstream's
//!   OS-entropy default);
//! * failing cases are reported with their case number but **not
//!   shrunk**;
//! * `prop_assume` rejections simply skip the case.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

/// Strategies: how to generate values of a type.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A recipe for generating values (the stand-in keeps upstream's
    /// name and `Value` associated type, but generates directly
    /// instead of building shrinkable value trees).
    pub trait Strategy {
        /// The type this strategy produces.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f` (upstream's `prop_map`).
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit_f64() * (hi - lo)
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_strategies!(usize, u8, u16, u32, u64, isize, i8, i16, i32, i64);

    macro_rules! tuple_strategies {
        ($(($($s:ident $i:tt),+);)*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies! {
        (A 0, B 1);
        (A 0, B 1, C 2);
        (A 0, B 1, C 2, D 3);
        (A 0, B 1, C 2, D 3, E 4);
        (A 0, B 1, C 2, D 3, E 4, F 5);
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// A length specification: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// `Vec` strategy: `size` elements of `element` each (upstream's
    /// `prop::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let n = self.size.lo + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Sampling helper types.
pub mod sample {
    /// An index into a collection of not-yet-known size (generate
    /// first, apply to a `len` later).
    #[derive(Debug, Clone, Copy)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// This index reduced into `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            (self.0 % len as u64) as usize
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for crate::sample::Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            crate::sample::Index(rng.next_u64())
        }
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for u64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64()
        }
    }

    /// The canonical strategy for any [`Arbitrary`] type.
    pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
        AnyStrategy(std::marker::PhantomData)
    }

    /// Strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct AnyStrategy<A>(std::marker::PhantomData<A>);

    impl<A: Arbitrary> Strategy for AnyStrategy<A> {
        type Value = A;

        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }
}

/// The case runner and its configuration.
pub mod test_runner {
    /// Per-test configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed: the property is violated.
        Fail(String),
        /// The case was rejected by `prop_assume` — skip, don't fail.
        Reject,
    }

    impl TestCaseError {
        /// A failed case carrying `message`.
        pub fn fail(message: String) -> Self {
            TestCaseError::Fail(message)
        }
    }

    /// Deterministic case generator (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub(crate) fn for_case(case: u64) -> Self {
            TestRng {
                state: case
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x243F_6A88_85A3_08D3),
            }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A uniform sample from `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Runs one property over `config.cases` generated cases.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// A runner for `config`.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Runs `property` once per case.
        ///
        /// # Panics
        ///
        /// Panics (failing the enclosing `#[test]`) on the first
        /// [`TestCaseError::Fail`], naming the case number. Rejected
        /// cases are skipped without retry or penalty.
        pub fn run(&mut self, mut property: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
            for case in 0..u64::from(self.config.cases) {
                let mut rng = TestRng::for_case(case);
                match property(&mut rng) {
                    Ok(()) | Err(TestCaseError::Reject) => {}
                    Err(TestCaseError::Fail(message)) => {
                        panic!("proptest case {case} failed: {message}");
                    }
                }
            }
        }
    }
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop::` module path used inside tests
    /// (`prop::collection::vec`, `prop::sample::Index`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
        pub use crate::strategy;
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases. An
/// optional leading `#![proptest_config(expr)]` sets the case count.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

/// Internal expansion of [`proptest!`] — one test fn per recursion
/// step.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($config:expr);) => {};
    (
        config = ($config:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let mut __runner = $crate::test_runner::TestRunner::new($config);
            __runner.run(|__rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&($strategy), __rng);)+
                (|| -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })()
            });
        }
        $crate::__proptest_impl! { config = ($config); $($rest)* }
    };
}

/// Asserts a condition inside a property, failing the case (not
/// panicking directly) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(::std::format!($($fmt)*)),
            );
        }
    };
}

/// Asserts equality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`", *l, *r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` != `{:?}`: {}", *l, *r, ::std::format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a property (see [`prop_assert!`]).
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "assertion failed: `{:?}` == `{:?}`", *l, *r);
    }};
}

/// Skips the current case when its inputs don't satisfy a premise.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 1.5f64..9.5, n in 3usize..17) {
            prop_assert!((1.5..9.5).contains(&x));
            prop_assert!((3..17).contains(&n));
        }

        #[test]
        fn vec_and_map_compose(
            v in prop::collection::vec((0.0f64..1.0, 5.0f64..6.0), 2..7),
            pick in any::<prop::sample::Index>(),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 7);
            let i = pick.index(v.len());
            prop_assert!(v[i].0 < 1.0 && v[i].1 >= 5.0);
        }

        #[test]
        fn tuple_patterns_and_assume((a, b) in (0u32..10, 0u32..10)) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
            prop_assert_eq!(a == b, false);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let s = (0.0f64..1.0).prop_map(|x| x * 2.0);
        let mut rng1 = crate::test_runner::TestRng::for_case(7);
        let mut rng2 = crate::test_runner::TestRng::for_case(7);
        assert_eq!(
            s.generate(&mut rng1).to_bits(),
            s.generate(&mut rng2).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "proptest case")]
    fn failures_name_the_case() {
        // No `#[test]` on the inner property: it is called directly.
        proptest! {
            fn always_fails(x in 0.0f64..1.0) {
                prop_assert!(x.is_sign_negative(), "x was {x}");
            }
        }
        always_fails();
    }
}
