//! Rank-checked lock wrappers enforcing the documented lock hierarchy.
//!
//! The broker overlay and the daemon above it document a strict acquisition
//! order — daemon → netreg → broker — and `acd-lint`'s
//! `lock-order` pass checks it syntactically. Syntax cannot see through
//! helper functions or closures, so these wrappers add the runtime half of
//! the contract: under `debug_assertions`, every acquisition asserts that
//! its rank is **strictly greater** than every rank already held by the
//! current thread (tracked in a thread-local stack), and panics naming both
//! lock classes when the order is violated. Release builds compile the
//! tracking away entirely — the wrappers are then plain `RwLock`/`Mutex`
//! with poison recovery folded in.
//!
//! Ranks are assigned per class (see `LOCKING.md` and the mirrored table in
//! `acd-analysis`). The covering indexes of this crate take no lock
//! themselves — a broker owns its indexes outright and mutates them under
//! its own [`RANK_BROKER`] lock; the wrappers live here because this is the
//! lowest crate both the overlay and the daemon depend on.
//!
//! Poison recovery (`unwrap_or_else(|e| e.into_inner())`) lives *inside*
//! these wrappers: a panic mid-update can at worst leave a stale statistic,
//! never a torn index, so continuing past a poisoned lock is sound and call
//! sites stay free of `unwrap`-shaped noise.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Rank of the daemon's one mutation lock (`ledger`: the session map and
/// the journal). The bottom of the hierarchy: a daemon mutation holds it
/// across `BrokerNetwork::subscribe`/`unsubscribe`.
pub const RANK_DAEMON: u32 = 3;
/// Rank of the overlay's writer lock, its registration map (`registered`).
/// Above [`RANK_DAEMON`], whose holders call into the overlay; below
/// [`RANK_BROKER`], because a subscribe or unsubscribe holds it for its
/// whole walk, taking one broker lock per step.
pub const RANK_NET_REGISTRY: u32 = 4;
/// Rank of the per-broker overlay locks (`brokers`), the top of the
/// hierarchy. All brokers share one rank — the overlay never holds two
/// broker locks at once.
pub const RANK_BROKER: u32 = 5;

/// The lock classes in acquisition order: `(rank, class name)`.
///
/// This table is the single runtime source of truth mirrored by the static
/// table in `acd-analysis` (`lints::lock_order::LOCK_CLASSES`) and by the
/// prose in `LOCKING.md`; a workspace test cross-checks the two.
pub fn rank_table() -> &'static [(u32, &'static str)] {
    &[
        (RANK_DAEMON, "daemon"),
        (RANK_NET_REGISTRY, "netreg"),
        (RANK_BROKER, "broker"),
    ]
}

#[cfg(debug_assertions)]
mod tracking {
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Locks held by this thread: `(token, rank, class name)`.
        static HELD: RefCell<Vec<(u64, u32, &'static str)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Proof of a tracked acquisition; dropping it releases the rank.
    #[derive(Debug)]
    pub struct Held {
        token: u64,
    }

    impl Held {
        /// Asserts the strict-increase invariant against every rank the
        /// current thread holds, then records the acquisition. Runs *before*
        /// blocking on the lock — a true deadlock would otherwise block the
        /// assertion forever.
        pub fn acquire(rank: u32, name: &'static str) -> Held {
            let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
            HELD.with(|cell| {
                let mut held = cell.borrow_mut();
                if let Some(&(_, top_rank, top_name)) =
                    held.iter().max_by_key(|&&(_, rank, _)| rank)
                {
                    assert!(
                        rank > top_rank,
                        "lock-order violation: acquiring `{name}` (rank {rank}) while \
                         holding `{top_name}` (rank {top_rank}); locks must be taken in \
                         the order daemon → netreg → broker — see \
                         LOCKING.md"
                    );
                }
                held.push((token, rank, name));
            });
            Held { token }
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            // Remove by token rather than popping: guards may be dropped in
            // any order.
            HELD.with(|cell| {
                let mut held = cell.borrow_mut();
                if let Some(i) = held.iter().position(|&(t, _, _)| t == self.token) {
                    held.swap_remove(i);
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod tracking {
    /// Release builds: no tracking, zero size, nothing to drop.
    #[derive(Debug)]
    pub struct Held;

    impl Held {
        #[inline(always)]
        pub fn acquire(_rank: u32, _name: &'static str) -> Held {
            Held
        }
    }
}

use tracking::Held;

/// An `RwLock` that carries its rank in the documented lock hierarchy.
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    rank: u32,
    name: &'static str,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in a lock of the given rank and class name.
    pub fn new(rank: u32, name: &'static str, value: T) -> OrderedRwLock<T> {
        OrderedRwLock {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Shared acquisition; recovers from poisoning.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let held = Held::acquire(self.rank, self.name);
        let guard = self.inner.read().unwrap_or_else(|e| e.into_inner());
        OrderedReadGuard { guard, _held: held }
    }

    /// Exclusive acquisition; recovers from poisoning.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let held = Held::acquire(self.rank, self.name);
        let guard = self.inner.write().unwrap_or_else(|e| e.into_inner());
        OrderedWriteGuard { guard, _held: held }
    }
}

/// A `Mutex` that carries its rank in the documented lock hierarchy.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex of the given rank and class name.
    pub fn new(rank: u32, name: &'static str, value: T) -> OrderedMutex<T> {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Exclusive acquisition; recovers from poisoning.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let held = Held::acquire(self.rank, self.name);
        let guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        OrderedMutexGuard { guard, _held: held }
    }
}

/// Shared guard for an [`OrderedRwLock`]; releases its rank on drop.
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive guard for an [`OrderedRwLock`]; releases its rank on drop.
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _held: Held,
}

/// Guard for an [`OrderedMutex`]; releases its rank on drop.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_table_is_strictly_increasing() {
        let table = rank_table();
        assert!(table.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn in_order_acquisitions_succeed() {
        let daemon = OrderedMutex::new(RANK_DAEMON, "daemon", 0u32);
        let netreg = OrderedMutex::new(RANK_NET_REGISTRY, "netreg", 0u32);
        let broker = OrderedRwLock::new(RANK_BROKER, "broker", 0u32);

        let a = daemon.lock();
        let b = netreg.lock();
        let c = broker.write();
        assert_eq!(*a + *b + *c, 0);
    }

    #[test]
    fn guards_release_their_rank_on_drop() {
        let netreg = OrderedMutex::new(RANK_NET_REGISTRY, "netreg", ());
        let daemon = OrderedMutex::new(RANK_DAEMON, "daemon", ());
        drop(netreg.lock());
        // `daemon` has a lower rank; legal only because the netreg guard
        // is gone.
        let _g = daemon.lock();
    }

    #[test]
    fn out_of_order_drops_are_tracked_correctly() {
        let daemon = OrderedMutex::new(RANK_DAEMON, "daemon", ());
        let broker = OrderedRwLock::new(RANK_BROKER, "broker", ());
        let g0 = daemon.lock();
        let g1 = broker.write();
        drop(g0); // dropped before g1 — not in stack order
        drop(g1);
        let _again = daemon.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "acquiring `netreg` (rank 4) while holding `broker` (rank 5)")]
    fn out_of_order_acquisition_panics_naming_both_classes() {
        let broker = OrderedRwLock::new(RANK_BROKER, "broker", ());
        let netreg = OrderedMutex::new(RANK_NET_REGISTRY, "netreg", ());
        let _b = broker.read();
        let _r = netreg.lock(); // rank 4 after rank 5: must panic
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn a_second_broker_lock_panics() {
        // All brokers share one rank: the overlay holds at most one.
        let one = OrderedRwLock::new(RANK_BROKER, "broker", ());
        let other = OrderedRwLock::new(RANK_BROKER, "broker", ());
        let _a = one.read();
        let _b = other.read(); // equal rank: not strictly increasing
    }

    #[test]
    fn poisoned_locks_recover() {
        use std::sync::Arc;
        let lock = Arc::new(OrderedMutex::new(RANK_DAEMON, "daemon", 7u32));
        let poisoner = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _g = poisoner.lock();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.lock(), 7);
    }
}
