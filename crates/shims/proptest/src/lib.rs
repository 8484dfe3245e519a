//! API-subset shim for the `proptest` crate (the build environment is
//! offline). Supports the surface this workspace's property tests use:
//!
//! * the [`proptest!`] macro (optionally with
//!   `#![proptest_config(ProptestConfig::with_cases(n))]`),
//! * [`prelude::prop_assert!`], [`prelude::prop_assert_eq!`] and
//!   [`prelude::prop_assume!`],
//! * strategies: integer/float ranges, tuples (up to 6), `any::<T>()`,
//!   [`collection::vec`], and [`strategy::Strategy::prop_map`].
//!
//! Semantic differences from real proptest: generation is deterministic per
//! test (seeded from the test's case count, stable across runs of the same
//! build) and there is **no shrinking** — a failing case panics with the
//! case number. `prop_assume!` rejects the case; a test fails if fewer than
//! the configured number of cases survive rejection within a 20× attempt
//! budget.

#![warn(missing_docs)]

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A generator of values for property tests.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through a function.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy produced by [`Strategy::prop_map`].
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

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

    /// Strategy for the full domain of a type (see [`crate::prelude::any`]).
    pub struct Any<T> {
        _marker: std::marker::PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any {
                _marker: std::marker::PhantomData,
            }
        }
    }

    /// Types with a full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.0.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.0.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);

    use rand::RngCore as _;
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Length specification for [`fn@vec`]: an exact length or a range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec`s with element strategy `S`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A vector whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 >= self.size.hi {
                self.size.lo
            } else {
                rng.0.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Deterministic RNG and case-level error plumbing.

    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The RNG handed to strategies (deterministic per seed).
    pub struct TestRng(pub SmallRng);

    impl TestRng {
        /// Seeded constructor.
        pub fn new(seed: u64) -> Self {
            TestRng(SmallRng::seed_from_u64(seed))
        }
    }

    /// Outcome of one generated case.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// The case did not satisfy a `prop_assume!` precondition.
        Reject,
        /// An assertion failed.
        Fail(String),
    }

    /// Runner configuration.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of (accepted) cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }
}

pub mod prelude {
    //! The customary glob import.

    pub use crate::collection;
    pub use crate::proptest;
    pub use crate::strategy::{Any, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume};

    /// Full-domain strategy for `T`.
    pub fn any<T: crate::strategy::Arbitrary>() -> Any<T> {
        Any::default()
    }
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Fail(format!(
                "assertion failed: {:?} == {:?}",
                l, r
            )));
        }
    }};
}

/// Reject the current case unless `cond` holds (does not count as a run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Define property tests. Each `#[test] fn name(pat in strategy, ...)` body
/// runs for the configured number of generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            $crate::test_runner::ProptestConfig::default(); $($rest)*
        }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])+ fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])+
            fn $name() {
                let cfg: $crate::test_runner::ProptestConfig = $cfg;
                // Stable per-test seed: the test name hashed FNV-style.
                let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
                for b in stringify!($name).bytes() {
                    seed ^= b as u64;
                    seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
                }
                let mut rng = $crate::test_runner::TestRng::new(seed);
                let mut accepted: u32 = 0;
                let mut attempts: u32 = 0;
                let max_attempts = cfg.cases.saturating_mul(20).max(20);
                while accepted < cfg.cases {
                    attempts += 1;
                    if attempts > max_attempts {
                        panic!(
                            "proptest `{}`: only {accepted}/{} cases survived \
                             prop_assume after {max_attempts} attempts",
                            stringify!($name),
                            cfg.cases,
                        );
                    }
                    #[allow(clippy::redundant_closure_call)]
                    let case: ::std::result::Result<(), $crate::test_runner::TestCaseError> =
                        (|| {
                            $(
                                let $pat = $crate::strategy::Strategy::generate(
                                    &($strat),
                                    &mut rng,
                                );
                            )+
                            $body
                            ::std::result::Result::Ok(())
                        })();
                    match case {
                        ::std::result::Result::Ok(()) => accepted += 1,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Reject,
                        ) => continue,
                        ::std::result::Result::Err(
                            $crate::test_runner::TestCaseError::Fail(msg),
                        ) => panic!(
                            "proptest `{}` failed on attempt {attempts}: {msg}",
                            stringify!($name),
                        ),
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_and_tuples(x in 3u64..17, (a, b) in (0usize..5, 1i64..4)) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(a < 5);
            prop_assert!((1..4).contains(&b));
        }

        #[test]
        fn vec_and_map(v in collection::vec(0u32..10, 0..6),
                       w in collection::vec(1u64..100, 4),
                       s in (1u64..50).prop_map(|x| x * 2)) {
            prop_assert!(v.len() < 6);
            prop_assert_eq!(w.len(), 4);
            prop_assert!(s % 2 == 0);
            prop_assert!((2..100).contains(&s));
        }

        #[test]
        fn assume_rejects(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    proptest! {
        #[test]
        fn any_covers_domain(x in any::<u64>(), y in any::<bool>()) {
            let _ = (x, y);
        }
    }

    mod failing {
        proptest! {
            #[allow(dead_code)]
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }

        #[test]
        #[should_panic(expected = "failed on attempt")]
        fn failures_panic() {
            always_fails();
        }
    }
}
