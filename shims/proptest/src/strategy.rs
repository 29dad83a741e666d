//! The [`Strategy`] trait and the built-in value generators.

use std::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::test_runner::TestRng;

/// A recipe for generating random values of an output type.
///
/// Unlike the real crate there is no value tree and no shrinking:
/// `generate` draws one value directly.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `map`.
    fn prop_map<O, F>(self, map: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, map }
    }
}

/// Strategy adapter returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    map: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.map)(self.source.generate(rng))
    }
}

macro_rules! range_strategy {
    ($($t:ty),* $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategy {
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

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// A strategy that always yields a clone of one value (mirrors
/// `proptest::strategy::Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Boxes a strategy for use in heterogeneous unions ([`prop_oneof!`]).
///
/// [`prop_oneof!`]: crate::prop_oneof
pub fn boxed<S>(strategy: S) -> Box<dyn Strategy<Value = S::Value>>
where
    S: Strategy + 'static,
{
    Box::new(strategy)
}

/// A weighted choice over strategies with a common value type; the
/// expansion of [`prop_oneof!`].
///
/// [`prop_oneof!`]: crate::prop_oneof
pub struct Union<V> {
    options: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
}

impl<V> Union<V> {
    /// Builds a union from `(weight, strategy)` pairs.
    ///
    /// # Panics
    /// Panics if `options` is empty or all weights are zero.
    pub fn new(options: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Self {
        let total: u32 = options.iter().map(|(w, _)| *w).sum();
        assert!(total > 0, "prop_oneof! needs at least one positive weight");
        Self { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u32 = self.options.iter().map(|(w, _)| *w).sum();
        let mut draw = rng.gen_range(0..total);
        for (weight, strategy) in &self.options {
            if draw < *weight {
                return strategy.generate(rng);
            }
            draw -= *weight;
        }
        // The draw is < the sum of weights, so the loop above always returns.
        unreachable!("weighted draw exceeded total weight")
    }
}

/// String literals act as regex strategies (subset; see
/// [`crate::string`]).
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        crate::string::generate_matching(self, rng)
    }
}
