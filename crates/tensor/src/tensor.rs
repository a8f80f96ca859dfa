//! Generic dense tensors.

use std::fmt;

use crate::shape::Shape;

/// A dense row-major tensor.
///
/// The element type is typically `i32` (quantized values), `i64`
/// (accumulator-precision reference results) or `f32` (pre-quantization
/// data).
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T = i32> {
    data: Vec<T>,
    shape: Shape,
}

impl<T: Copy + Default> Tensor<T> {
    /// A tensor of default-valued (zero) elements.
    pub fn zeros(shape: Shape) -> Self {
        Self {
            data: vec![T::default(); shape.len()],
            shape,
        }
    }
}

impl<T> Tensor<T> {
    /// Wraps a data vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(data: Vec<T>, shape: Shape) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {}",
            data.len(),
            shape
        );
        Self { data, shape }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The elements in row-major order.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Consumes the tensor, returning its data vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at(&self, index: &[usize]) -> &T {
        &self.data[self.shape.offset(index)]
    }

    /// Mutable element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut T {
        let off = self.shape.offset(index);
        &mut self.data[off]
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true for validated shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reinterprets the data with a new shape of the same element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(self, shape: Shape) -> Self {
        assert_eq!(self.data.len(), shape.len(), "reshape must preserve length");
        Self {
            data: self.data,
            shape,
        }
    }

    /// Maps every element, preserving the shape.
    pub fn map<U>(&self, f: impl FnMut(&T) -> U) -> Tensor<U> {
        Tensor {
            data: self.data.iter().map(f).collect(),
            shape: self.shape.clone(),
        }
    }
}

impl<T: fmt::Debug> fmt::Display for Tensor<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "{:?}", self.data)
        } else {
            write!(f, "[{:?}, … {} elements]", &self.data[..8], self.data.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut t: Tensor<i32> = Tensor::zeros(Shape::new(&[2, 3]));
        *t.at_mut(&[1, 2]) = 7;
        assert_eq!(*t.at(&[1, 2]), 7);
        assert_eq!(*t.at(&[0, 0]), 0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn map_preserves_shape() {
        let t = Tensor::from_vec(vec![1, -2, 3], Shape::new(&[3]));
        let u = t.map(|&x| i64::from(x) * 2);
        assert_eq!(u.data(), &[2, -4, 6]);
        assert_eq!(u.shape(), t.shape());
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(vec![1, 2, 3], Shape::new(&[2, 2]));
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1, 2, 3, 4], Shape::new(&[2, 2]));
        let r = t.reshape(Shape::new(&[4]));
        assert_eq!(r.data(), &[1, 2, 3, 4]);
    }

    #[test]
    fn display_truncates_large_tensors() {
        let t = Tensor::from_vec((0..100).collect(), Shape::new(&[100]));
        let s = t.to_string();
        assert!(s.contains("100 elements"));
    }
}
