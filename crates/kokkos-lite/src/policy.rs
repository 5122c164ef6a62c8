//! The execution policy describing a kernel's iteration space —
//! `Kokkos::RangePolicy`.

/// 1-D iteration range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangePolicy {
    /// First index (inclusive).
    pub begin: usize,
    /// One past the last index.
    pub end: usize,
}

impl RangePolicy {
    /// Policy over `[begin, end)`.
    pub fn new(begin: usize, end: usize) -> Self {
        assert!(begin <= end, "RangePolicy begin {begin} > end {end}");
        RangePolicy { begin, end }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// True for an empty range.
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// The underlying `Range`.
    pub fn range(&self) -> std::ops::Range<usize> {
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
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
        assert_eq!(p.range(), 2..10);
        let q: RangePolicy = (0..0).into();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "begin 5 > end 3")]
    fn inverted_range_rejected() {
        let _ = RangePolicy::new(5, 3);
    }
}
