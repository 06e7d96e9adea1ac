//! Reduction operators (flexibility point F1).
//!
//! Flare handlers are arbitrary code, so any binary operator with an
//! identity works — including operators fixed-function switches cannot
//! offer (floating-point product, user closures, saturating arithmetic)
//! and, for demonstration purposes, deliberately non-associative ones that
//! expose aggregation-order differences (the reproducibility concern F3).

use crate::dtype::Element;

/// A binary reduction operator over element type `T`.
pub trait ReduceOp<T> {
    /// Combine two values. For order-sensitive operators the convention is
    /// `combine(accumulated_left, incoming_right)`.
    fn combine(&self, a: T, b: T) -> T;
    /// Identity element: `combine(identity, x) == x`.
    fn identity(&self) -> T;
    /// Whether the operator is associative *and* commutative in exact
    /// arithmetic of `T` (floating-point summation returns `false`: its
    /// result depends on aggregation order, the paper's motivation for
    /// reproducible tree aggregation).
    fn order_insensitive(&self) -> bool {
        true
    }
    /// Display name.
    fn name(&self) -> &'static str {
        "custom"
    }
}

/// Elementwise sum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sum;

impl<T: Element> ReduceOp<T> for Sum {
    fn combine(&self, a: T, b: T) -> T {
        a.add(b)
    }
    fn identity(&self) -> T {
        T::zero()
    }
    fn order_insensitive(&self) -> bool {
        // Integer wrapping sum is exactly associative; float sums are not.
        // We conservatively report sensitivity based on the type's wire
        // semantics via a specialization-free heuristic: floats round.
        !matches!(T::NAME, "f32" | "f16")
    }
    fn name(&self) -> &'static str {
        "sum"
    }
}

/// Elementwise minimum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Min;

impl<T: Element + MinMaxIdentity> ReduceOp<T> for Min {
    fn combine(&self, a: T, b: T) -> T {
        a.min_v(b)
    }
    fn identity(&self) -> T {
        T::max_identity()
    }
    fn name(&self) -> &'static str {
        "min"
    }
}

/// Elementwise maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct Max;

impl<T: Element + MinMaxIdentity> ReduceOp<T> for Max {
    fn combine(&self, a: T, b: T) -> T {
        a.max_v(b)
    }
    fn identity(&self) -> T {
        T::min_identity()
    }
    fn name(&self) -> &'static str {
        "max"
    }
}

/// Elementwise product.
#[derive(Debug, Clone, Copy, Default)]
pub struct Prod;

impl<T: Element + OneIdentity> ReduceOp<T> for Prod {
    fn combine(&self, a: T, b: T) -> T {
        a.mul(b)
    }
    fn identity(&self) -> T {
        T::one()
    }
    fn order_insensitive(&self) -> bool {
        !matches!(T::NAME, "f32" | "f16")
    }
    fn name(&self) -> &'static str {
        "prod"
    }
}

/// Identity bounds for min/max operators.
pub trait MinMaxIdentity {
    /// The value acting as identity for `min` (i.e. the type's maximum).
    fn max_identity() -> Self;
    /// The value acting as identity for `max` (i.e. the type's minimum).
    fn min_identity() -> Self;
}

macro_rules! impl_minmax {
    ($t:ty, $lo:expr, $hi:expr) => {
        impl MinMaxIdentity for $t {
            fn max_identity() -> Self {
                $hi
            }
            fn min_identity() -> Self {
                $lo
            }
        }
    };
}
impl_minmax!(i32, i32::MIN, i32::MAX);
impl_minmax!(i16, i16::MIN, i16::MAX);
impl_minmax!(i8, i8::MIN, i8::MAX);
impl_minmax!(f32, f32::NEG_INFINITY, f32::INFINITY);
impl MinMaxIdentity for crate::dtype::F16 {
    fn max_identity() -> Self {
        crate::dtype::F16::from_f32(f32::INFINITY)
    }
    fn min_identity() -> Self {
        crate::dtype::F16::from_f32(f32::NEG_INFINITY)
    }
}

/// Multiplicative identity.
pub trait OneIdentity {
    /// The value `1` of the type.
    fn one() -> Self;
}
macro_rules! impl_one {
    ($t:ty, $v:expr) => {
        impl OneIdentity for $t {
            fn one() -> Self {
                $v
            }
        }
    };
}
impl_one!(i32, 1);
impl_one!(i16, 1);
impl_one!(i8, 1);
impl_one!(f32, 1.0);
impl OneIdentity for crate::dtype::F16 {
    fn one() -> Self {
        crate::dtype::F16::from_f32(1.0)
    }
}

/// A user-defined operator from a closure — the F1 extensibility the paper
/// contrasts against fixed-function switches.
pub struct Custom<T, F> {
    identity: T,
    f: F,
    order_insensitive: bool,
    name: &'static str,
}

impl<T: Copy, F: Clone> Clone for Custom<T, F> {
    fn clone(&self) -> Self {
        Self {
            identity: self.identity,
            f: self.f.clone(),
            order_insensitive: self.order_insensitive,
            name: self.name,
        }
    }
}

impl<T: Copy, F: Fn(T, T) -> T> Custom<T, F> {
    /// Create a custom operator. Set `order_insensitive` truthfully: it
    /// gates whether non-tree aggregation is allowed to claim
    /// reproducibility.
    pub fn new(name: &'static str, identity: T, order_insensitive: bool, f: F) -> Self {
        Self {
            identity,
            f,
            order_insensitive,
            name,
        }
    }
}

impl<T: Element, F: Fn(T, T) -> T> ReduceOp<T> for Custom<T, F> {
    fn combine(&self, a: T, b: T) -> T {
        (self.f)(a, b)
    }
    fn identity(&self) -> T {
        self.identity
    }
    fn order_insensitive(&self) -> bool {
        self.order_insensitive
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

/// Golden reference: reduce `inputs` (one vector per host) elementwise in
/// host order with `op`. This is the result a sequential, in-order
/// aggregation produces — the baseline for correctness and reproducibility
/// checks.
pub fn golden_reduce<T: Element, O: ReduceOp<T>>(op: &O, inputs: &[Vec<T>]) -> Vec<T> {
    assert!(!inputs.is_empty(), "need at least one input vector");
    let len = inputs[0].len();
    let mut acc = vec![op.identity(); len];
    for v in inputs {
        assert_eq!(v.len(), len, "ragged inputs");
        for (a, &b) in acc.iter_mut().zip(v) {
            *a = op.combine(*a, b);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::F16;

    #[test]
    fn sum_has_zero_identity() {
        assert_eq!(<Sum as ReduceOp<i32>>::combine(&Sum, 3, 4), 7);
        assert_eq!(<Sum as ReduceOp<i32>>::identity(&Sum), 0);
        assert_eq!(<Sum as ReduceOp<f32>>::combine(&Sum, 1.5, 2.5), 4.0);
    }

    #[test]
    fn float_sum_is_declared_order_sensitive() {
        assert!(<Sum as ReduceOp<i32>>::order_insensitive(&Sum));
        assert!(!<Sum as ReduceOp<f32>>::order_insensitive(&Sum));
        assert!(!<Sum as ReduceOp<F16>>::order_insensitive(&Sum));
    }

    #[test]
    fn min_max_identities_absorb() {
        assert_eq!(
            <Min as ReduceOp<i32>>::combine(&Min, Min.identity(), 42),
            42
        );
        assert_eq!(
            <Max as ReduceOp<i32>>::combine(&Max, Max.identity(), -42),
            -42
        );
        assert_eq!(
            <Min as ReduceOp<f32>>::combine(&Min, Min.identity(), 1e30),
            1e30
        );
    }

    #[test]
    fn prod_identity_is_one() {
        assert_eq!(
            <Prod as ReduceOp<i32>>::combine(&Prod, Prod.identity(), 9),
            9
        );
        assert_eq!(<Prod as ReduceOp<f32>>::combine(&Prod, 2.0, 3.0), 6.0);
    }

    #[test]
    fn custom_operator_works_end_to_end() {
        // Saturating max-plus: the kind of operator no fixed-function
        // switch exposes.
        let op = Custom::new("satadd", 0i8, true, |a: i8, b: i8| a.saturating_add(b));
        assert_eq!(op.combine(100, 100), 127);
        assert_eq!(op.name(), "satadd");
        assert!(op.order_insensitive());
    }

    #[test]
    fn golden_reduce_matches_hand_computation() {
        let inputs = vec![vec![1i32, 2, 3], vec![10, 20, 30], vec![100, 200, 300]];
        assert_eq!(golden_reduce(&Sum, &inputs), vec![111, 222, 333]);
        assert_eq!(golden_reduce(&Max, &inputs), vec![100, 200, 300]);
        assert_eq!(golden_reduce(&Min, &inputs), vec![1, 2, 3]);
    }

    #[test]
    fn float_sum_order_sensitivity_is_real() {
        // The concrete phenomenon behind F3: (a+b)+c != a+(b+c) in f32.
        let a = 1e30f32;
        let b = -1e30f32;
        let c = 1.0f32;
        assert_ne!((a + b) + c, a + (b + c));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn golden_reduce_rejects_ragged_inputs() {
        golden_reduce(&Sum, &[vec![1i32], vec![1, 2]]);
    }
}
