//! Read-mostly snapshot publication for the concurrent analyzer.
//!
//! The EIA check is read-mostly: millions of classifications per adoption.
//! [`SnapshotCell`] exploits that by keeping the current value behind an
//! `Arc` that writers replace ([`SnapshotCell::publish`]) or patch
//! copy-on-write ([`SnapshotCell::update`]) — never mutating a value a
//! reader holds. Readers either clone the `Arc` under a briefly-held
//! shared lock ([`SnapshotCell::load`]) or — on the per-flow hot path —
//! validate a thread-cached `Arc` against a single relaxed-atomic version
//! counter ([`SnapshotCell::load_cached`]), which costs one uncontended
//! atomic load per flow in steady state: no lock, no reference-count
//! traffic, no shared cache-line writes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Globally unique cell identities so thread-local caches keyed by id can
/// never confuse two cells (even across drop/re-allocation).
static NEXT_CELL_ID: AtomicU64 = AtomicU64::new(1);

/// A published, versioned `Arc` snapshot. See the module docs.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    id: u64,
    version: AtomicU64,
    slot: RwLock<Arc<T>>,
}

/// A per-thread cache slot for [`SnapshotCell::load_cached`]. Callers keep
/// one per (thread, cell) — typically in a `thread_local!` map keyed by
/// [`SnapshotCell::id`].
#[derive(Debug, Clone)]
pub struct CachedSnapshot<T> {
    version: u64,
    value: Arc<T>,
}

impl<T> SnapshotCell<T> {
    /// Publishes an initial value.
    pub fn new(value: T) -> SnapshotCell<T> {
        SnapshotCell {
            id: NEXT_CELL_ID.fetch_add(1, Ordering::Relaxed),
            version: AtomicU64::new(0),
            slot: RwLock::new(Arc::new(value)),
        }
    }

    /// This cell's process-unique identity (thread-local cache key).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The current version; bumped by every [`SnapshotCell::publish`] and
    /// [`SnapshotCell::update`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (brief shared lock).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read())
    }

    /// Returns the current snapshot, reusing `cache` when it is still
    /// current. In steady state this is one atomic load; after a publish it
    /// falls back to [`SnapshotCell::load`] once per thread.
    ///
    /// A stale cache entry (published-to concurrently with the version
    /// check) can be returned for at most one call; the next call observes
    /// the bumped version. Callers must tolerate that one-snapshot lag —
    /// the EIA fast path does, since classification against a snapshot is
    /// exactly the paper's semantics.
    pub fn load_cached(&self, cache: &mut Option<CachedSnapshot<T>>) -> Arc<T> {
        let version = self.version.load(Ordering::Acquire);
        if let Some(c) = cache {
            if c.version == version {
                return Arc::clone(&c.value);
            }
        }
        let value = self.load();
        *cache = Some(CachedSnapshot {
            version,
            value: Arc::clone(&value),
        });
        value
    }

    /// Publishes a new snapshot: future loads see `value`; in-flight
    /// readers keep whatever snapshot they already hold.
    pub fn publish(&self, value: T) {
        let mut slot = self.slot.write();
        *slot = Arc::new(value);
        // The bump is inside the write lock so versions and values cannot
        // cross: a reader that sees version N under the read lock sees the
        // N-th value or newer.
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Publishes a change to the current snapshot. When no reader holds it
    /// the change is applied in place — no copy, no allocation; otherwise
    /// to a private clone, and those readers keep the snapshot they hold,
    /// exactly as with [`SnapshotCell::publish`]. Either way the version
    /// moves, so caches refresh and mid-batch staleness checks fire.
    pub fn update(&self, change: impl FnOnce(&mut T))
    where
        T: Clone,
    {
        let mut slot = self.slot.write();
        change(Arc::make_mut(&mut slot));
        self.version.fetch_add(1, Ordering::Release);
    }

    /// Recovers the current value, consuming the cell.
    pub fn into_inner(self) -> Arc<T> {
        self.slot.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sees_latest_publish() {
        let cell = SnapshotCell::new(1u32);
        assert_eq!(*cell.load(), 1);
        cell.publish(2);
        assert_eq!(*cell.load(), 2);
        assert_eq!(cell.version(), 1);
    }

    #[test]
    fn cached_load_refreshes_on_version_change() {
        let cell = SnapshotCell::new("a");
        let mut cache = None;
        assert_eq!(*cell.load_cached(&mut cache), "a");
        // Cached: same Arc back without touching the slot.
        assert_eq!(*cell.load_cached(&mut cache), "a");
        cell.publish("b");
        assert_eq!(*cell.load_cached(&mut cache), "b");
        assert_eq!(cache.as_ref().map(|c| c.version), Some(1));
    }

    #[test]
    fn ids_are_unique() {
        let a = SnapshotCell::new(0u8);
        let b = SnapshotCell::new(0u8);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn update_patches_in_place_unless_a_reader_holds_the_snapshot() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = Arc::as_ptr(&cell.load());
        cell.update(|v| v.push(4));
        assert_eq!(Arc::as_ptr(&cell.load()), before, "nobody looking: no copy");
        assert_eq!(cell.version(), 1);

        let held = cell.load();
        cell.update(|v| v.push(5));
        assert_eq!(*held, vec![1, 2, 3, 4], "the reader's table is untouched");
        assert_eq!(*cell.load(), vec![1, 2, 3, 4, 5]);
        assert_eq!(cell.version(), 2);
    }

    #[test]
    fn readers_keep_their_snapshot_across_publishes() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let held = cell.load();
        cell.publish(vec![9]);
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*cell.load(), vec![9]);
    }
}
