//! The execution policy describing a kernel's iteration space —
//! `Kokkos::RangePolicy`.

/// 1-D iteration range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePolicy {
    /// First index (inclusive).
    pub(crate) begin: usize,
    /// One past the last index.
    pub end: usize,
}

impl RangePolicy {
    /// Policy over `[begin, end)`.
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end, "RangePolicy begin {begin} > end {end}");
        RangePolicy { begin, end }
    }

    /// The underlying `Range`.
    pub(crate) fn range(&self) -> std::ops::Range<usize> {
        self.begin..self.end
    }
}

impl From<std::ops::Range<usize>> for RangePolicy {
    fn from(r: std::ops::Range<usize>) -> Self {
        RangePolicy::new(r.start, r.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_basics() {
        let p = RangePolicy::new(2, 10);
        assert_eq!(p.range(), 2..10);
        let q: RangePolicy = (0..0).into();
        assert!(q.range().is_empty());
    }

    #[test]
    #[should_panic(expected = "begin 5 > end 3")]
    fn inverted_range_rejected() {
        let _ = RangePolicy::new(5, 3);
    }
}
