//! Reduction operators for the global-reduction collectives.
//!
//! Mirrors the MPI predefined operations used by the paper's benchmarks
//! (`MPI_SUM` etc.): commutative, associative element-wise combiners.

use crate::datatype::{Ghost, Word};

/// A scalar type usable in reductions.
pub trait Numeric: Word {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Element-wise sum.
    fn add(self, other: Self) -> Self;
    /// Element-wise product.
    fn mul(self, other: Self) -> Self;
    /// Element-wise maximum.
    fn max_val(self, other: Self) -> Self;
    /// Element-wise minimum.
    fn min_val(self, other: Self) -> Self;
}

macro_rules! impl_numeric_int {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            fn zero() -> Self { 0 }
            fn one() -> Self { 1 }
            fn add(self, o: Self) -> Self { self.wrapping_add(o) }
            fn mul(self, o: Self) -> Self { self.wrapping_mul(o) }
            fn max_val(self, o: Self) -> Self { self.max(o) }
            fn min_val(self, o: Self) -> Self { self.min(o) }
        }
    )*};
}

impl_numeric_int!(u8, u16, u32, u64, i8, i16, i32, i64, usize, isize);

macro_rules! impl_numeric_float {
    ($($t:ty),*) => {$(
        impl Numeric for $t {
            fn zero() -> Self { 0.0 }
            fn one() -> Self { 1.0 }
            fn add(self, o: Self) -> Self { self + o }
            fn mul(self, o: Self) -> Self { self * o }
            fn max_val(self, o: Self) -> Self { self.max(o) }
            fn min_val(self, o: Self) -> Self { self.min(o) }
        }
    )*};
}

impl_numeric_float!(f32, f64);

/// Reducing ghosts does nothing: there are no values to combine, and no
/// virtual clock is charged for a fold.
impl<const N: usize> Numeric for Ghost<N> {
    fn zero() -> Self {
        Ghost
    }
    fn one() -> Self {
        Ghost
    }
    fn add(self, _: Self) -> Self {
        Ghost
    }
    fn mul(self, _: Self) -> Self {
        Ghost
    }
    fn max_val(self, _: Self) -> Self {
        Ghost
    }
    fn min_val(self, _: Self) -> Self {
        Ghost
    }
}

/// A predefined reduction operation (the MPI_Op of a collective call).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Element-wise sum (`MPI_SUM`).
    Sum,
    /// Element-wise product (`MPI_PROD`).
    Prod,
    /// Element-wise maximum (`MPI_MAX`).
    Max,
    /// Element-wise minimum (`MPI_MIN`).
    Min,
}

impl Op {
    /// Applies the operation to a pair of elements.
    #[inline]
    pub fn apply<T: Numeric>(self, a: T, b: T) -> T {
        match self {
            Op::Sum => a.add(b),
            Op::Prod => a.mul(b),
            Op::Max => a.max_val(b),
            Op::Min => a.min_val(b),
        }
    }

    /// The identity element of the operation, where one exists. `Max`/`Min`
    /// have no portable identity; reductions seed with the first operand
    /// instead.
    pub fn identity<T: Numeric>(self) -> Option<T> {
        match self {
            Op::Sum => Some(T::zero()),
            Op::Prod => Some(T::one()),
            Op::Max | Op::Min => None,
        }
    }

    /// Combines `src` into `acc` element-wise (`acc[i] = op(acc[i], src[i])`).
    pub(crate) fn fold_into<T: Numeric>(self, acc: &mut [T], src: &[T]) {
        assert_eq!(acc.len(), src.len(), "reduction operand length mismatch");
        match self {
            // Specialised loops keep the hot path free of a per-element match.
            Op::Sum => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a = a.add(s);
                }
            }
            Op::Prod => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a = a.mul(s);
                }
            }
            Op::Max => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a = a.max_val(s);
                }
            }
            Op::Min => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a = a.min_val(s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_ops() {
        assert_eq!(Op::Sum.apply(2.0, 3.5), 5.5);
        assert_eq!(Op::Prod.apply(4u64, 5), 20);
        assert_eq!(Op::Max.apply(-3i32, 7), 7);
        assert_eq!(Op::Min.apply(-3i32, 7), -3);
    }

    #[test]
    fn fold_into_combines_elementwise() {
        let mut acc = vec![1.0f64, 2.0, 3.0];
        Op::Sum.fold_into(&mut acc, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, vec![11.0, 22.0, 33.0]);
        Op::Max.fold_into(&mut acc, &[100.0, 0.0, 33.0]);
        assert_eq!(acc, vec![100.0, 22.0, 33.0]);
    }

    #[test]
    fn identities() {
        assert_eq!(Op::Sum.identity::<f64>(), Some(0.0));
        assert_eq!(Op::Prod.identity::<u32>(), Some(1));
        assert_eq!(Op::Max.identity::<f64>(), None);
    }

    #[test]
    fn integer_sum_wraps_instead_of_panicking() {
        assert_eq!(Op::Sum.apply(u8::MAX, 1u8), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn fold_length_mismatch_panics() {
        let mut acc = vec![0.0f64; 2];
        Op::Sum.fold_into(&mut acc, &[1.0]);
    }
}
