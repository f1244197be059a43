//! Offline stand-in for the slice of `proptest` this workspace uses.
//!
//! Implements the `proptest!` macro, `Strategy` (ranges, tuples, `Just`,
//! `prop_map`, `prop_oneof!`, `any`, `prop::collection::vec`) and the
//! `prop_assert*` macros over a deterministic per-test RNG. Differences
//! from real proptest: no shrinking (a failing case reports its values
//! via the assertion message only) and a default of 64 cases per
//! property (override with `PROPTEST_CASES`). Properties themselves run
//! unchanged.

pub mod test_runner {
    //! Deterministic case generator.

    /// Splitmix64 RNG seeded from the property name, so every test run
    //  explores the same cases (stable CI) while distinct properties get
    //  distinct streams.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG derived from a property name.
        pub fn from_name(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            Self { state: h }
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform f64 in [0, 1).
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform usize in [0, n).
        pub fn below(&mut self, n: usize) -> usize {
            debug_assert!(n > 0);
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Number of cases per property (`PROPTEST_CASES`, default 64).
    pub fn cases() -> u32 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }
}

pub mod strategy {
    //! Value-generation strategies.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generate one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returning a fixed (cloned) value.
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Output of [`Strategy::prop_map`].
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

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Uniform choice among boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> Union<T> {
        /// An empty union; push options before generating.
        pub fn empty() -> Self {
            Self {
                options: Vec::new(),
            }
        }

        /// Add an option.
        pub fn push<S: Strategy<Value = T> + 'static>(&mut self, s: S) {
            self.options.push(Box::new(s));
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            assert!(!self.options.is_empty(), "prop_oneof! of zero options");
            let i = rng.below(self.options.len());
            self.options[i].generate(rng)
        }
    }

    macro_rules! impl_float_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    self.start + ((self.end - self.start) as f64 * rng.unit_f64()) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    lo + ((hi - lo) as f64 * rng.unit_f64()) as $t
                }
            }
        )*};
    }
    impl_float_strategy!(f32, f64);

    macro_rules! impl_int_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = self.end.wrapping_sub(self.start) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = hi.wrapping_sub(lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )*};
    }
    impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

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
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical generation strategy.
    pub trait Arbitrary: Sized {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            (rng.unit_f64() * 2.0 - 1.0) as f32 * 1.0e6
        }
    }
    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            (rng.unit_f64() * 2.0 - 1.0) * 1.0e9
        }
    }
    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Strategy produced by [`any`].
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Sizes accepted by [`vec()`]: a fixed length or a (half-open or
    /// inclusive) range of lengths.
    pub trait IntoSizeRange {
        /// Convert to inclusive `(lo, hi)` bounds.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoSizeRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }
    impl IntoSizeRange for std::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            assert!(self.start < self.end, "empty size range");
            (self.start, self.end - 1)
        }
    }
    impl IntoSizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy generating `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        elem: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.hi > self.lo {
                self.lo + rng.below(self.hi - self.lo + 1)
            } else {
                self.lo
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// `prop::collection::vec(elem, size)`.
    pub fn vec<S: Strategy>(elem: S, size: impl IntoSizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { elem, lo, hi }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude::*`.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// The `prop` namespace (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
        pub use crate::strategy;
    }
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$attr])*
            fn $name() {
                let __cases = $crate::test_runner::cases();
                let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
                for __case in 0..__cases {
                    let __result: ::std::result::Result<(), ::std::string::String> = (|| {
                        $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(__e) = __result {
                        panic!(
                            "property `{}` failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __cases,
                            __e
                        );
                    }
                }
            }
        )+
    };
}

/// Assert inside a property; failure fails the current case with a message.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{}` == `{}` ({:?} vs {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    }};
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return ::std::result::Result::Err(format!(
                "assertion failed: `{}` != `{}` (both {:?})",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {{
        let mut __u = $crate::strategy::Union::empty();
        $(__u.push($s);)+
        __u
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_and_vecs(
            x in 0usize..100,
            f in -1.0f32..1.0,
            v in prop::collection::vec(0u32..16, 1..20),
            b in any::<bool>(),
        ) {
            prop_assert!(x < 100);
            prop_assert!((-1.0..1.0).contains(&f));
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&e| e < 16));
            prop_assert_eq!(b as u8 * 2 / 2, b as u8);
        }

        #[test]
        fn maps_and_oneof(
            pair in (1u32..5, 1u32..5).prop_map(|(a, b)| a * b),
            pick in prop_oneof![Just(1u8), Just(2), Just(3)],
        ) {
            prop_assert!((1..25).contains(&pair));
            prop_assert!((1..=3).contains(&pick));
        }
    }

    #[test]
    #[should_panic(expected = "property `always_fails`")]
    fn failing_property_panics_with_context() {
        proptest! {
            fn always_fails(x in 0u32..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
