//! Multi-dimensional array views — Kokkos `View`s, the data structure all
//! portable kernels operate on (paper §3.2).
//!
//! A [`View`] owns contiguous storage for up to four dimensions with a
//! configurable [`Layout`]: `Right` (row-major, C order — Kokkos' default on
//! CPU execution spaces) or `Left` (column-major, Fortran order — Kokkos'
//! default on GPUs). Octo-Tiger's sub-grid fields are rank-3 `f64` views of
//! extent 8(+ghosts)³.

/// Memory layout of a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Row-major (C): last index fastest. Kokkos CPU default.
    Right,
    /// Column-major (Fortran): first index fastest. Kokkos GPU default.
    Left,
}

/// An owned, contiguous, up-to-rank-4 array.
#[derive(Debug, Clone, PartialEq)]
pub struct View<T> {
    label: String,
    dims: [usize; 4],
    rank: usize,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Clone + Default> View<T> {
    /// Rank-1 view of `n` default-initialized elements.
    pub fn new_1d(label: &str, n: usize) -> Self {
        Self::with_layout(label, &[n], Layout::Right)
    }

    /// Rank-3 view (the Octo-Tiger sub-grid shape).
    pub fn new_3d(label: &str, n0: usize, n1: usize, n2: usize) -> Self {
        Self::with_layout(label, &[n0, n1, n2], Layout::Right)
    }

    /// Rank-4 view (field × cell).
    pub fn new_4d(label: &str, n0: usize, n1: usize, n2: usize, n3: usize) -> Self {
        Self::with_layout(label, &[n0, n1, n2, n3], Layout::Right)
    }

    /// View with an explicit layout; `dims` gives the rank (1–4).
    pub fn with_layout(label: &str, dims: &[usize], layout: Layout) -> Self {
        assert!(
            (1..=4).contains(&dims.len()),
            "views support rank 1..=4, got {}",
            dims.len()
        );
        let mut d = [1usize; 4];
        d[..dims.len()].copy_from_slice(dims);
        let size = d.iter().product();
        View {
            label: label.to_string(),
            dims: d,
            rank: dims.len(),
            layout,
            data: vec![T::default(); size],
        }
    }
}

impl<T> View<T> {
    /// Total element count.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Bytes of storage — what the memory model charges for a deep copy or
    /// a streaming kernel pass.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Flat index of `(i, j, k, l)` under the view's layout.
    #[inline]
    pub(crate) fn index4(&self, i: usize, j: usize, k: usize, l: usize) -> usize {
        debug_assert!(
            i < self.dims[0] && j < self.dims[1] && k < self.dims[2] && l < self.dims[3],
            "view {:?} index ({i},{j},{k},{l}) out of bounds {:?}",
            self.label,
            &self.dims[..self.rank]
        );
        match self.layout {
            Layout::Right => ((i * self.dims[1] + j) * self.dims[2] + k) * self.dims[3] + l,
            Layout::Left => ((l * self.dims[2] + k) * self.dims[1] + j) * self.dims[0] + i,
        }
    }

    /// Flat index of `(i, j, k)`.
    #[inline]
    pub fn index3(&self, i: usize, j: usize, k: usize) -> usize {
        self.index4(i, j, k, 0)
    }

    /// Raw storage.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Raw mutable storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy> View<T> {
    /// Element at rank-1 index.
    #[inline]
    pub fn get1(&self, i: usize) -> T {
        self.data[self.index4(i, 0, 0, 0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_and_size() {
        let v: View<f64> = View::new_3d("rho", 8, 8, 8);
        assert_eq!(v.size(), 512);
        assert_eq!(v.index3(7, 7, 7), 511);
        assert_eq!(v.bytes(), 512 * 8);
    }

    #[test]
    fn right_layout_last_index_fastest() {
        let v: View<f64> = View::new_3d("x", 4, 5, 6);
        assert_eq!(v.index3(0, 0, 1) - v.index3(0, 0, 0), 1);
        assert_eq!(v.index3(0, 1, 0) - v.index3(0, 0, 0), 6);
        assert_eq!(v.index3(1, 0, 0) - v.index3(0, 0, 0), 30);
    }

    #[test]
    fn left_layout_first_index_fastest() {
        let v: View<f64> = View::with_layout("x", &[4, 5, 6], Layout::Left);
        assert_eq!(v.index3(1, 0, 0) - v.index3(0, 0, 0), 1);
        assert_eq!(v.index3(0, 1, 0) - v.index3(0, 0, 0), 4);
        assert_eq!(v.index3(0, 0, 1) - v.index3(0, 0, 0), 20);
    }

    #[test]
    fn indices_are_bijective() {
        for layout in [Layout::Right, Layout::Left] {
            let v: View<u32> = View::with_layout("b", &[3, 4, 5], layout);
            let mut seen = vec![false; v.size()];
            for i in 0..3 {
                for j in 0..4 {
                    for k in 0..5 {
                        let idx = v.index3(i, j, k);
                        assert!(!seen[idx], "collision at ({i},{j},{k}) {layout:?}");
                        seen[idx] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut v: View<f64> = View::new_3d("f", 8, 8, 8);
        let at = v.index3(1, 2, 3);
        v.as_mut_slice()[at] = 42.5;
        assert_eq!(v.as_slice()[v.index3(1, 2, 3)], 42.5);
        assert_eq!(v.as_slice()[v.index3(3, 2, 1)], 0.0);
        let mut v1: View<i64> = View::new_1d("g", 3);
        v1.as_mut_slice()[2] = -1;
        assert_eq!(v1.get1(2), -1);
    }

    #[test]
    fn rank4_field_major() {
        let mut v: View<f64> = View::new_4d("u", 5, 8, 8, 8);
        let at = v.index4(4, 7, 7, 7);
        v.as_mut_slice()[at] = 9.0;
        assert_eq!(at, 5 * 512 - 1);
        assert_eq!(v.as_slice()[v.index4(4, 7, 7, 7)], 9.0);
        assert_eq!(v.size(), 5 * 512);
    }

    #[test]
    #[should_panic(expected = "rank 1..=4")]
    fn rank_zero_rejected() {
        let _: View<f64> = View::with_layout("z", &[], Layout::Right);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_check() {
        let v: View<f64> = View::new_3d("x", 2, 2, 2);
        let _ = v.index3(2, 0, 0);
    }
}
