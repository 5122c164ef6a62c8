//! Active Global Address Space — HPX's AGAS (§3.1 of the paper), the
//! service that lets components live on any locality while callers address
//! them by a location-transparent global id.
//!
//! A [`Gid`] encodes the *creating* locality in its upper bits plus a
//! sequence number; the [`Agas`] registry maps gids to the locality their
//! component lives on. HPX can also migrate components; Octo-Tiger uses
//! placement at creation, which is all [`Agas::register`] covers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Identifier of one locality (one VisionFive2 board in the paper's
/// two-node cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocalityId(pub u32);

/// Global id of a component (an octree node in Octo-Tiger).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(pub(crate) u64);

const LOCALITY_SHIFT: u32 = 48;

impl Gid {
    /// The locality that *created* this gid (not necessarily where the
    /// component currently lives — ask [`Agas::resolve`] for that).
    pub(crate) fn creator(self) -> LocalityId {
        LocalityId((self.0 >> LOCALITY_SHIFT) as u32)
    }

    /// Sequence number within the creating locality.
    pub(crate) fn sequence(self) -> u64 {
        self.0 & ((1u64 << LOCALITY_SHIFT) - 1)
    }
}

impl std::fmt::Display for Gid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gid({}:{})", self.creator().0, self.sequence())
    }
}

/// The global address registry shared by all localities of a cluster.
#[derive(Debug, Default)]
pub struct Agas {
    map: RwLock<HashMap<Gid, LocalityId>>,
    next: AtomicU64,
}

impl Agas {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The map for reading, ignoring poison (the policy of [`amt::lock`]).
    fn read(&self) -> RwLockReadGuard<'_, HashMap<Gid, LocalityId>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The map for writing, ignoring poison.
    fn write(&self) -> RwLockWriteGuard<'_, HashMap<Gid, LocalityId>> {
        self.map.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mint a fresh gid on behalf of `creator`.
    pub fn new_gid(&self, creator: LocalityId) -> Gid {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(seq < (1 << LOCALITY_SHIFT), "gid space exhausted");
        Gid((u64::from(creator.0) << LOCALITY_SHIFT) | seq)
    }

    /// Bind `gid` to the locality where its component lives.
    pub(crate) fn register(&self, gid: Gid, at: LocalityId) {
        let prev = self.write().insert(gid, at);
        assert!(prev.is_none(), "gid {gid} registered twice");
    }

    /// Where does `gid` live?
    pub(crate) fn resolve(&self, gid: Gid) -> Option<LocalityId> {
        self.read().get(&gid).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gid_encodes_creator_and_sequence() {
        let agas = Agas::new();
        let g0 = agas.new_gid(LocalityId(0));
        let g1 = agas.new_gid(LocalityId(1));
        assert_eq!(g0.creator(), LocalityId(0));
        assert_eq!(g1.creator(), LocalityId(1));
        assert_ne!(g0, g1);
        assert_eq!(g0.sequence() + 1, g1.sequence());
    }

    #[test]
    fn register_resolve_roundtrip() {
        let agas = Agas::new();
        let g = agas.new_gid(LocalityId(0));
        assert_eq!(agas.resolve(g), None);
        agas.register(g, LocalityId(1));
        assert_eq!(agas.resolve(g), Some(LocalityId(1)));
    }

    #[test]
    fn component_may_live_away_from_creator() {
        // The essence of AGAS: creation locality ≠ residence locality.
        let agas = Agas::new();
        let g = agas.new_gid(LocalityId(0));
        agas.register(g, LocalityId(1));
        assert_eq!(g.creator(), LocalityId(0));
        assert_eq!(agas.resolve(g), Some(LocalityId(1)));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_register_panics() {
        let agas = Agas::new();
        let g = agas.new_gid(LocalityId(0));
        agas.register(g, LocalityId(0));
        agas.register(g, LocalityId(1));
    }

    #[test]
    fn gids_unique_across_threads() {
        let agas = std::sync::Arc::new(Agas::new());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let a = std::sync::Arc::clone(&agas);
            handles.push(std::thread::spawn(move || {
                (0..1000)
                    .map(|_| a.new_gid(LocalityId(t)))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Gid> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000);
    }
}
