//! Global ids — what HPX's AGAS (§3.1 of the paper) hands out so that
//! callers address a component without knowing where it lives.
//!
//! A [`Gid`] encodes the locality that created its component in its upper
//! bits and a cluster-wide sequence number in the rest. A component lives
//! where it was created (Octo-Tiger places its tree nodes at creation and
//! never migrates them), so the gid itself names the locality a call goes
//! to: the cluster keeps no address map.

/// Identifier of one locality (one VisionFive2 board in the paper's
/// two-node cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalityId(pub u32);

/// Global id of a component (an octree node in Octo-Tiger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(pub(crate) u64);

const LOCALITY_SHIFT: u32 = 48;

impl Gid {
    /// The gid of the `seq`-th component of the cluster, created on
    /// `creator`.
    pub(crate) fn new(creator: LocalityId, seq: u64) -> Gid {
        assert!(seq < (1 << LOCALITY_SHIFT), "gid space exhausted");
        Gid((u64::from(creator.0) << LOCALITY_SHIFT) | seq)
    }

    /// The locality that created this gid's component, which is where it
    /// lives and where every call to it goes.
    pub(crate) fn creator(self) -> LocalityId {
        LocalityId((self.0 >> LOCALITY_SHIFT) as u32)
    }

    /// Sequence number within the cluster.
    pub(crate) fn sequence(self) -> u64 {
        self.0 & ((1u64 << LOCALITY_SHIFT) - 1)
    }
}

impl std::fmt::Display for Gid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gid({}:{})", self.creator().0, self.sequence())
    }
}
