//! Offline stand-in for the `proptest` crate.
//!
//! Implements the slice of the proptest API the workspace's property tests
//! use: the [`Strategy`] trait with `prop_map` / `prop_filter` /
//! `prop_recursive` / `boxed`, `any::<T>()`, ranges and `&str`
//! character-class patterns as strategies, `collection::vec`, tuple
//! composition, `prop_oneof!`, and the `proptest!` test macro.
//!
//! Differences from real proptest, by design:
//!
//! * no shrinking — failures report the generated inputs via the panic
//!   message of the inner assertion instead of a minimized counterexample;
//! * deterministic seeding per test name, so CI failures reproduce locally;
//! * `&str` strategies support the character-class subset actually used
//!   (`[a-z0-9_]{m,n}` sequences), not full regex.

use std::rc::Rc;

/// Deterministic test RNG (xorshift64*).
pub mod test_runner {
    /// Small deterministic RNG driving all generation.
    #[derive(Clone, Debug)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds from a test name so every test gets a distinct stream.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng(h | 1)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform value in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Run-time configuration (`cases` is the iteration count).
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` iterations.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 96 }
        }
    }
}

/// Uniform generation of primitive values (the `Standard` distribution).
pub mod arbitrary {
    use crate::test_runner::TestRng;

    /// Types `any::<T>()` can produce.
    pub trait Arbitrary: Sized {
        /// Generates one value, biased toward edge cases.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    // 1-in-8 edge case keeps boundary values well represented.
                    if rng.below(8) == 0 {
                        const EDGES: [$t; 4] = [0 as $t, 1 as $t, <$t>::MIN, <$t>::MAX];
                        EDGES[rng.below(EDGES.len())]
                    } else {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            match rng.below(8) {
                0 => f64::from_bits(rng.next_u64()), // may be NaN/inf/subnormal
                1 => 0.0,
                2 => -1.0,
                _ => {
                    let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                    (unit - 0.5) * 2e6
                }
            }
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            f64::arbitrary(rng) as f32
        }
    }
}

/// The strategy trait and combinators.
pub mod strategy {
    use super::Rc;
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Discards values failing `pred`, regenerating (bounded retries).
        fn prop_filter<F>(self, reason: &'static str, pred: F) -> Filter<Self, F>
        where
            Self: Sized,
            F: Fn(&Self::Value) -> bool,
        {
            Filter {
                inner: self,
                reason,
                pred,
            }
        }

        /// Builds recursive structures by applying `expand` up to `depth`
        /// times over the base strategy.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _size: u32,
            _branch: u32,
            expand: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R + 'static,
        {
            Recursive {
                base: self.boxed(),
                expand: Rc::new(move |b| expand(b).boxed()),
                depth,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// Object-safe view used by [`BoxedStrategy`].
    trait DynStrategy<T> {
        fn generate_dyn(&self, rng: &mut TestRng) -> T;
    }

    impl<S: Strategy> DynStrategy<S::Value> for S {
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate_dyn(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter`].
    #[derive(Clone)]
    pub struct Filter<S, F> {
        inner: S,
        reason: &'static str,
        pred: F,
    }

    impl<S, F> Strategy for Filter<S, F>
    where
        S: Strategy,
        F: Fn(&S::Value) -> bool,
    {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.pred)(&v) {
                    return v;
                }
            }
            panic!("prop_filter retries exhausted: {}", self.reason);
        }
    }

    /// See [`Strategy::prop_recursive`].
    pub struct Recursive<T> {
        base: BoxedStrategy<T>,
        expand: Rc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
        depth: u32,
    }

    impl<T> Clone for Recursive<T> {
        fn clone(&self) -> Self {
            Recursive {
                base: self.base.clone(),
                expand: Rc::clone(&self.expand),
                depth: self.depth,
            }
        }
    }

    impl<T: 'static> Strategy for Recursive<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            // Vary the nesting depth per value so leaves stay common.
            let depth = rng.below(self.depth as usize + 1) as u32;
            let mut strat = self.base.clone();
            for _ in 0..depth {
                strat = (self.expand)(strat);
            }
            strat.generate(rng)
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds from the macro-collected arms; must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len());
            self.arms[i].generate(rng)
        }
    }

    /// `any::<T>()` — arbitrary value of a primitive type.
    pub struct Any<T>(std::marker::PhantomData<T>);

    impl<T> Clone for Any<T> {
        fn clone(&self) -> Self {
            Any(std::marker::PhantomData)
        }
    }

    /// Creates the [`Any`] strategy for `T`.
    pub fn any<T: crate::arbitrary::Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: crate::arbitrary::Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    let span = (hi - lo) as u64 + 1;
                    lo + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }
    range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for std::ops::Range<i64> {
        type Value = i64;
        fn generate(&self, rng: &mut TestRng) -> i64 {
            assert!(self.start < self.end, "empty range strategy");
            let span = self.end.wrapping_sub(self.start) as u64;
            self.start.wrapping_add((rng.next_u64() % span) as i64)
        }
    }

    /// Character-class pattern strategies: `"[a-z0-9_]{1,12}"` and friends.
    impl Strategy for &'static str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            generate_pattern(self, rng)
        }
    }

    fn generate_pattern(pattern: &str, rng: &mut TestRng) -> String {
        let bytes = pattern.as_bytes();
        let mut out = String::new();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b'[' {
                let close = pattern[i..]
                    .find(']')
                    .map(|o| i + o)
                    .unwrap_or_else(|| panic!("unclosed class in pattern {pattern:?}"));
                let class = expand_class(&pattern[i + 1..close]);
                i = close + 1;
                let (min, max, used) = parse_quantifier(&pattern[i..]);
                i += used;
                let n = if max > min {
                    min + rng.below(max - min + 1)
                } else {
                    min
                };
                for _ in 0..n {
                    out.push(class[rng.below(class.len())]);
                }
            } else {
                // Literal character.
                let c = pattern[i..].chars().next().unwrap();
                out.push(c);
                i += c.len_utf8();
            }
        }
        out
    }

    fn expand_class(spec: &str) -> Vec<char> {
        let cs: Vec<char> = spec.chars().collect();
        let mut out = Vec::new();
        let mut i = 0;
        while i < cs.len() {
            if i + 2 < cs.len() && cs[i + 1] == '-' {
                for c in cs[i]..=cs[i + 2] {
                    out.push(c);
                }
                i += 3;
            } else {
                out.push(cs[i]);
                i += 1;
            }
        }
        assert!(!out.is_empty(), "empty character class");
        out
    }

    /// Returns (min, max, bytes consumed) for a trailing quantifier.
    fn parse_quantifier(rest: &str) -> (usize, usize, usize) {
        let bytes = rest.as_bytes();
        match bytes.first() {
            Some(b'{') => {
                let close = rest.find('}').expect("unclosed quantifier");
                let inner = &rest[1..close];
                let (min, max) = match inner.split_once(',') {
                    Some((lo, hi)) => (
                        lo.parse().expect("bad quantifier"),
                        hi.parse().expect("bad quantifier"),
                    ),
                    None => {
                        let n = inner.parse().expect("bad quantifier");
                        (n, n)
                    }
                };
                (min, max, close + 1)
            }
            Some(b'*') => (0, 8, 1),
            Some(b'+') => (1, 8, 1),
            Some(b'?') => (0, 1, 1),
            _ => (1, 1, 0),
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
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
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        /// Exclusive upper bound.
        max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                max: r.end.max(r.start + 1),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n + 1 }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from `size`.
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.max - self.size.min;
            let n = self.size.min + if span > 0 { rng.below(span) } else { 0 };
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

/// Everything a property test module imports.
pub mod prelude {
    pub use crate::arbitrary::Arbitrary;
    pub use crate::collection;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Uniform choice among strategy arms (all arms must yield the same type).
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assertion macros — plain asserts (no shrinking to report).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// See [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// The property-test harness macro.
///
/// Supports the standard forms:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///
///     #[test]
///     fn roundtrip(v: u64, data in collection::vec(any::<u8>(), 0..64)) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($args:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let _ = __case;
                $crate::__proptest_bind!{ __rng; $body; $($args)* }
            }
        }
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident; $body:block;) => { $body };
    ($rng:ident; $body:block; $name:ident : $ty:ty) => {{
        let $name: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!{ $rng; $body; }
    }};
    ($rng:ident; $body:block; $name:ident : $ty:ty, $($rest:tt)*) => {{
        let $name: $ty = $crate::arbitrary::Arbitrary::arbitrary(&mut $rng);
        $crate::__proptest_bind!{ $rng; $body; $($rest)* }
    }};
    ($rng:ident; $body:block; $pat:pat in $strat:expr) => {{
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!{ $rng; $body; }
    }};
    ($rng:ident; $body:block; $pat:pat in $strat:expr, $($rest:tt)*) => {{
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!{ $rng; $body; $($rest)* }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn pattern_strategies_respect_class_and_length() {
        let mut rng = TestRng::from_name("pattern");
        for _ in 0..200 {
            let s = Strategy::generate(&"[a-z0-9_]{1,12}", &mut rng);
            assert!((1..=12).contains(&s.len()), "{s:?}");
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'));
        }
    }

    #[test]
    fn union_and_ranges_cover_arms() {
        let strat = prop_oneof![(0u64..10).prop_map(|v| v as i64), Just(-1i64)];
        let mut rng = TestRng::from_name("union");
        let vals: Vec<i64> = (0..100).map(|_| strat.generate(&mut rng)).collect();
        assert!(vals.contains(&-1));
        assert!(vals.iter().any(|v| (0..10).contains(v)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_typed_and_strategy_args(
            flag: bool,
            n in 1usize..5,
            items in collection::vec(any::<u8>(), 0..4),
        ) {
            let _ = flag;
            prop_assert!((1..5).contains(&n));
            prop_assert!(items.len() < 4);
        }
    }
}
