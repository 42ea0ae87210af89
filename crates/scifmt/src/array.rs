//! Typed N-dimensional arrays — the in-memory payload of SNC variables.

use std::ops::Range;

use crate::error::{FmtError, Result};

/// Element type of a variable (the netCDF "external types" we need).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DType {
    F32,
    F64,
    I32,
    I64,
    U8,
}

impl DType {
    /// Size of one element in bytes.
    #[inline]
    pub fn size(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F64 | DType::I64 => 8,
            DType::U8 => 1,
        }
    }

    pub fn id(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
            DType::U8 => 4,
        }
    }

    pub fn from_id(id: u8) -> Result<Self> {
        Ok(match id {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I32,
            3 => DType::I64,
            4 => DType::U8,
            other => return Err(FmtError::Corrupt(format!("unknown dtype id {other}"))),
        })
    }
}

/// Owned element storage.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrayData {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    U8(Vec<u8>),
}

impl ArrayData {
    pub fn len(&self) -> usize {
        match self {
            ArrayData::F32(v) => v.len(),
            ArrayData::F64(v) => v.len(),
            ArrayData::I32(v) => v.len(),
            ArrayData::I64(v) => v.len(),
            ArrayData::U8(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dtype(&self) -> DType {
        match self {
            ArrayData::F32(_) => DType::F32,
            ArrayData::F64(_) => DType::F64,
            ArrayData::I32(_) => DType::I32,
            ArrayData::I64(_) => DType::I64,
            ArrayData::U8(_) => DType::U8,
        }
    }
}

/// An N-dimensional row-major array with a shape.
#[derive(Clone, Debug, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: ArrayData,
}

impl Array {
    /// Build from parts; the element count must match the shape product.
    pub fn new(shape: Vec<usize>, data: ArrayData) -> Result<Self> {
        let n: usize = shape.iter().product();
        if n != data.len() {
            return Err(FmtError::Invalid(format!(
                "shape {shape:?} wants {n} elements, data has {}",
                data.len()
            )));
        }
        Ok(Array { shape, data })
    }

    pub fn from_f32(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        Array::new(shape, ArrayData::F32(data))
    }

    pub fn from_f64(shape: Vec<usize>, data: Vec<f64>) -> Result<Self> {
        Array::new(shape, ArrayData::F64(data))
    }

    /// All-zeros array of the given type and shape.
    pub fn zeros(dtype: DType, shape: Vec<usize>) -> Self {
        let n: usize = shape.iter().product();
        let data = match dtype {
            DType::F32 => ArrayData::F32(vec![0.0; n]),
            DType::F64 => ArrayData::F64(vec![0.0; n]),
            DType::I32 => ArrayData::I32(vec![0; n]),
            DType::I64 => ArrayData::I64(vec![0; n]),
            DType::U8 => ArrayData::U8(vec![0; n]),
        };
        Array { shape, data }
    }

    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    #[inline]
    pub fn data(&self) -> &ArrayData {
        &self.data
    }

    /// Raw little-endian bytes of the element storage.
    pub fn to_bytes(&self) -> Vec<u8> {
        fn bytes_of<T: Copy, const N: usize>(v: &[T], f: impl Fn(T) -> [u8; N]) -> Vec<u8> {
            let mut out = Vec::with_capacity(v.len() * N);
            for &x in v {
                out.extend_from_slice(&f(x));
            }
            out
        }
        match &self.data {
            ArrayData::F32(v) => bytes_of(v, f32::to_le_bytes),
            ArrayData::F64(v) => bytes_of(v, f64::to_le_bytes),
            ArrayData::I32(v) => bytes_of(v, i32::to_le_bytes),
            ArrayData::I64(v) => bytes_of(v, i64::to_le_bytes),
            ArrayData::U8(v) => v.clone(),
        }
    }

    /// Reconstruct from little-endian bytes.
    pub fn from_bytes(dtype: DType, shape: Vec<usize>, bytes: &[u8]) -> Result<Self> {
        let n: usize = shape.iter().product();
        if bytes.len() != n * dtype.size() {
            return Err(FmtError::Invalid(format!(
                "byte length {} does not match {n} x {dtype:?}",
                bytes.len()
            )));
        }
        fn from<T, const N: usize>(bytes: &[u8], f: impl Fn([u8; N]) -> T) -> Vec<T> {
            bytes
                .chunks_exact(N)
                .map(|c| f(c.try_into().unwrap()))
                .collect()
        }
        let data = match dtype {
            DType::F32 => ArrayData::F32(from(bytes, f32::from_le_bytes)),
            DType::F64 => ArrayData::F64(from(bytes, f64::from_le_bytes)),
            DType::I32 => ArrayData::I32(from(bytes, i32::from_le_bytes)),
            DType::I64 => ArrayData::I64(from(bytes, i64::from_le_bytes)),
            DType::U8 => ArrayData::U8(bytes.to_vec()),
        };
        Ok(Array { shape, data })
    }

    /// Element at a linear (row-major) index, widened to `f64`.
    #[inline]
    pub fn get_f64(&self, idx: usize) -> f64 {
        match &self.data {
            ArrayData::F32(v) => v[idx] as f64,
            ArrayData::F64(v) => v[idx],
            ArrayData::I32(v) => v[idx] as f64,
            ArrayData::I64(v) => v[idx] as f64,
            ArrayData::U8(v) => v[idx] as f64,
        }
    }

    /// Iterate all elements widened to f64, row-major.
    pub fn iter_f64(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.len()).map(move |i| self.get_f64(i))
    }

    /// Call `f` on every element of the contiguous row-major run `range`
    /// (linear indices), widened to `f64`, in order. The element type is
    /// matched once per run, not once per element, so the loop over a
    /// level, row or whole slab compiles to a plain typed slice walk.
    /// Panics when `range` reaches past [`Array::len`], like [`Array::at`].
    pub fn for_each_f64(&self, range: Range<usize>, mut f: impl FnMut(f64)) {
        fn walk<T: Copy>(v: &[T], range: Range<usize>, mut f: impl FnMut(T)) {
            // scilint::allow(p-index, reason = "documented contract shared with at()/get_f64: an out-of-range run is a caller bug")
            v[range].iter().for_each(|&x| f(x));
        }
        match &self.data {
            ArrayData::F32(v) => walk(v, range, |x| f(x as f64)),
            ArrayData::F64(v) => walk(v, range, f),
            ArrayData::I32(v) => walk(v, range, |x| f(x as f64)),
            ArrayData::I64(v) => walk(v, range, |x| f(x as f64)),
            ArrayData::U8(v) => walk(v, range, |x| f(x as f64)),
        }
    }

    /// Element at multi-dimensional coordinates, widened to `f64`.
    #[inline]
    pub fn at(&self, coords: &[usize]) -> f64 {
        assert_eq!(coords.len(), self.rank(), "rank mismatch");
        let mut idx = 0usize;
        for (c, s) in coords.iter().zip(self.shape.iter()) {
            assert!(c < s, "coordinate {c} out of bound {s}");
            idx = idx * s + c;
        }
        self.get_f64(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_ids_roundtrip() {
        for d in [DType::F32, DType::F64, DType::I32, DType::I64, DType::U8] {
            assert_eq!(DType::from_id(d.id()).unwrap(), d);
        }
        assert!(DType::from_id(200).is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(Array::from_f32(vec![2, 3], vec![0.0; 5]).is_err());
        assert!(Array::from_f32(vec![2, 3], vec![0.0; 6]).is_ok());
    }

    #[test]
    fn byte_roundtrip_all_types() {
        let cases = vec![
            Array::new(vec![4], ArrayData::F32(vec![1.0, -2.5, 3.25, 0.0])).unwrap(),
            Array::new(vec![2, 2], ArrayData::F64(vec![1e300, -1.0, 0.5, 2.0])).unwrap(),
            Array::new(vec![3], ArrayData::I32(vec![-1, 0, i32::MAX])).unwrap(),
            Array::new(vec![2], ArrayData::I64(vec![i64::MIN, 42])).unwrap(),
            Array::new(vec![5], ArrayData::U8(vec![0, 1, 2, 254, 255])).unwrap(),
        ];
        for a in cases {
            let b = a.to_bytes();
            assert_eq!(b.len(), a.len() * a.dtype().size());
            let back = Array::from_bytes(a.dtype(), a.shape().to_vec(), &b).unwrap();
            assert_eq!(back, a);
        }
    }

    #[test]
    fn multi_dim_indexing_is_row_major() {
        let a = Array::from_f32(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        assert_eq!(a.at(&[0, 0]), 0.0);
        assert_eq!(a.at(&[0, 2]), 2.0);
        assert_eq!(a.at(&[1, 0]), 3.0);
        assert_eq!(a.at(&[1, 2]), 5.0);
    }

    #[test]
    #[should_panic(expected = "out of bound")]
    fn out_of_bound_panics() {
        let a = Array::zeros(DType::F32, vec![2, 2]);
        a.at(&[2, 0]);
    }

    #[test]
    fn zeros_and_empty() {
        let a = Array::zeros(DType::I64, vec![0, 5]);
        assert!(a.is_empty());
        let b = Array::zeros(DType::U8, vec![3, 4]);
        assert_eq!(b.len(), 12);
        assert!(b.iter_f64().all(|v| v == 0.0));
    }
}
