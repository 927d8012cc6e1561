//! Read-mostly snapshot publication for the concurrent analyzer.
//!
//! The EIA check is read-mostly: millions of classifications per adoption.
//! [`SnapshotCell`] keeps the current value behind an `Arc` that writers
//! replace ([`SnapshotCell::publish`]) or patch copy-on-write
//! ([`SnapshotCell::update`]) — never mutating a value a reader holds.
//! Readers look at it under the cell's shared lock for the length of a
//! closure ([`SnapshotCell::with`]: no handle outlives the lookup, so a
//! later update patches in place), or clone the `Arc` when they must keep
//! the value ([`SnapshotCell::load`]: the next update then copies it).
//! Either way a read is one atomic read-modify-write on a word all readers
//! share — cheap for one thread, a contended cache line for several.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A published, versioned `Arc` snapshot. See the module docs.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    version: AtomicU64,
    slot: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Publishes an initial value.
    pub fn new(value: T) -> SnapshotCell<T> {
        SnapshotCell {
            version: AtomicU64::new(0),
            slot: RwLock::new(Arc::new(value)),
        }
    }

    /// The current version; bumped by every [`SnapshotCell::publish`] and
    /// [`SnapshotCell::update`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (brief shared lock), for a
    /// caller that keeps the value: while the handle lives, an
    /// [`SnapshotCell::update`] copies the value instead of patching it.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read())
    }

    /// Runs `read` on the current snapshot under the shared lock. The
    /// borrow cannot leave the closure, so nothing a reader does here can
    /// make a later [`SnapshotCell::update`] copy; writers wait for `read`
    /// to return, so keep it to the lookup.
    pub fn with<R>(&self, read: impl FnOnce(&T) -> R) -> R {
        read(&self.slot.read())
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
    /// moves, so mid-batch staleness checks fire.
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
    fn with_reads_the_latest_value_and_holds_no_handle() {
        let cell = SnapshotCell::new(vec![1, 2, 3]);
        let before = Arc::as_ptr(&cell.load());
        assert_eq!(cell.with(|v| v.len()), 3);
        cell.update(|v| v.push(4));
        assert_eq!(
            Arc::as_ptr(&cell.load()),
            before,
            "a finished `with` pins nothing: the update patched in place"
        );
        cell.publish(vec![9]);
        assert_eq!(cell.with(|v| v[0]), 9);
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
