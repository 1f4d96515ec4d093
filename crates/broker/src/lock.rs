//! Lock order as a type. The daemon and the overlay take their locks in one
//! chain, [`Daemon`] → [`Netreg`] → [`Broker`] (`LOCKING.md`), and each
//! level is a capability token, [`Locked`]. Taking a lock of level `L`
//! borrows `&mut` a token of a level `P: Before<L>`, and a [`Mutex`] hands
//! back the token of `L` with its guard. Both borrow the token they came
//! from, so while a lock is held that token is spent: a second lock of the
//! same level, or one the chain has passed, does not compile. The doctests
//! on `OrderCases`, at the end of this file, take the chain once in order,
//! then pin each case it rules out to its error code.
//!
//! A chain starts at a [`Root`], which each public entry point mints.
//! Tokens cannot see a thread call an entry point again from inside a chain
//! it holds, so a debug build panics when a second root is minted on one
//! thread; a release build compiles the check away, and tokens are
//! zero-sized. Poison is recovered inside the locks: a panic mid-update can
//! at worst leave a stale statistic, never a torn index.

use std::marker::PhantomData;
use std::sync::{MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// The level of a [`Root`]: no lock held.
#[derive(Debug)]
pub enum Unlocked {}

/// The daemon's one mutation lock: its session map and journal.
#[derive(Debug)]
pub enum Daemon {}

/// The overlay's writer lock: its registration map.
#[derive(Debug)]
pub enum Netreg {}

/// One broker's routing and covering state, the top of the chain.
#[derive(Debug)]
pub enum Broker {}

/// A lock of level `L` may be taken with a token of level `Self`.
pub trait Before<L> {}

impl Before<Daemon> for Unlocked {}
impl Before<Netreg> for Unlocked {}
impl Before<Netreg> for Daemon {}
impl Before<Broker> for Unlocked {}
impl Before<Broker> for Netreg {}

/// The capability to take the locks after level `L`, borrowing its parent for `'a`.
#[derive(Debug)]
pub struct Locked<'a, L>(PhantomData<(&'a mut (), L)>);

/// The root of a lock chain. Not `Send`: the debug check is per thread.
#[derive(Debug)]
pub struct Root(Locked<'static, Unlocked>, PhantomData<*const ()>);

#[cfg(debug_assertions)]
thread_local!(static ROOTED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) });

impl Root {
    /// Starts this thread's lock chain; a debug build panics if it holds one.
    pub fn mint() -> Root {
        #[cfg(debug_assertions)]
        ROOTED.with(|rooted| assert!(!rooted.replace(true), "a lock chain is already held"));
        Root(Locked(PhantomData), PhantomData)
    }

    /// The root's token, of level [`Unlocked`].
    pub fn token(&mut self) -> &mut Locked<'static, Unlocked> {
        &mut self.0
    }
}

#[cfg(debug_assertions)]
impl Drop for Root {
    fn drop(&mut self) {
        ROOTED.with(|rooted| rooted.set(false));
    }
}

/// A mutex at level `L` of the chain.
#[derive(Debug)]
pub struct Mutex<T, L>(std::sync::Mutex<T>, PhantomData<L>);

impl<T, L> Mutex<T, L> {
    /// A mutex holding `value`.
    pub fn new(value: T) -> Mutex<T, L> {
        Mutex(std::sync::Mutex::new(value), PhantomData)
    }

    /// Takes the lock with `token`, returning the guard and the token of
    /// level `L`, which both borrow `token`.
    pub fn lock<'a, P: Before<L>>(
        &'a self,
        _token: &'a mut Locked<'_, P>,
    ) -> (MutexGuard<'a, T>, Locked<'a, L>) {
        let guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        (guard, Locked(PhantomData))
    }
}

/// A reader-writer lock at level `L`, the end of the chain: its guards yield no token.
#[derive(Debug)]
pub struct RwLock<T, L>(std::sync::RwLock<T>, PhantomData<L>);

impl<T, L> RwLock<T, L> {
    /// A lock holding `value`.
    pub fn new(value: T) -> RwLock<T, L> {
        RwLock(std::sync::RwLock::new(value), PhantomData)
    }

    /// Shared access with `token`, which the guard borrows.
    pub fn read<'a, P: Before<L>>(
        &'a self,
        _token: &'a mut Locked<'_, P>,
    ) -> RwLockReadGuard<'a, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access with `token`, which the guard borrows.
    pub fn write<'a, P: Before<L>>(
        &'a self,
        _token: &'a mut Locked<'_, P>,
    ) -> RwLockWriteGuard<'a, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn guards_may_be_dropped_in_any_order() {
        let ledger: Mutex<u32, Daemon> = Mutex::new(0);
        let registry: Mutex<u32, Netreg> = Mutex::new(0);
        let broker: RwLock<u32, Broker> = RwLock::new(0);
        let mut root = Root::mint();
        let (daemon_guard, mut daemon) = ledger.lock(root.token());
        let (registry_guard, mut netreg) = registry.lock(&mut daemon);
        let broker_guard = broker.write(&mut netreg);
        // Not in stack order: the ledger first, the broker last.
        drop(daemon_guard);
        drop(registry_guard);
        drop(broker_guard);
        let _again = ledger.lock(root.token());
    }

    #[test]
    fn poisoned_locks_recover() {
        let lock: Arc<Mutex<u32, Daemon>> = Arc::new(Mutex::new(7));
        let poisoner = Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let mut root = Root::mint();
            let _g = poisoner.lock(root.token());
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.lock(Root::mint().token()).0, 7);
    }

    /// A public entry point called from inside a held chain: the one case
    /// the tokens cannot see.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "a lock chain is already held")]
    fn an_entry_point_called_from_inside_a_chain_panics() {
        use crate::broker::tests::{schema, sub};
        use crate::{BrokerConfig, Topology};
        let s = schema();
        let net = BrokerConfig::new(Topology::line(2).unwrap(), &s)
            .build()
            .unwrap();
        let _ = net.inspect(0, |_| {
            net.subscribe(1, 1, &sub(&s, 1, (0.0, 1.0), (0.0, 1.0)))
        });
    }
}

/// The chain taken in order, one broker at a time:
///
/// ```
/// use acd_broker::lock::{Broker, Daemon, Mutex, Netreg, Root, RwLock};
///
/// let ledger: Mutex<u32, Daemon> = Mutex::new(0);
/// let registry: Mutex<u32, Netreg> = Mutex::new(0);
/// let brokers: [RwLock<u32, Broker>; 2] = [RwLock::new(0), RwLock::new(0)];
///
/// let mut root = Root::mint();
/// let (_ledger, mut daemon) = ledger.lock(root.token());
/// let (_registry, mut netreg) = registry.lock(&mut daemon);
/// // One broker at a time: each guard is gone by the next statement.
/// *brokers[0].write(&mut netreg) += 1;
/// *brokers[1].write(&mut netreg) += 1;
/// ```
///
/// Each case below fails to compile, for the reason pinned to it.
///
/// Taking the daemon lock under the registry, whose token is not
/// `Before<Daemon>`:
///
/// ```compile_fail,E0277
/// # use acd_broker::lock::{Daemon, Mutex, Netreg, Root};
/// # let ledger: Mutex<u32, Daemon> = Mutex::new(0);
/// # let registry: Mutex<u32, Netreg> = Mutex::new(0);
/// let mut root = Root::mint();
/// let (_registry, mut netreg) = registry.lock(root.token());
/// let (_ledger, _) = ledger.lock(&mut netreg);
/// ```
///
/// Taking the daemon lock while a broker lock is held, whose guard still
/// borrows the only token:
///
/// ```compile_fail,E0499
/// # use acd_broker::lock::{Broker, Daemon, Mutex, Root, RwLock};
/// # let ledger: Mutex<u32, Daemon> = Mutex::new(0);
/// # let brokers: [RwLock<u32, Broker>; 2] = [RwLock::new(0), RwLock::new(0)];
/// let mut root = Root::mint();
/// let broker = brokers[0].read(root.token());
/// let (_ledger, _) = ledger.lock(root.token());
/// drop(broker);
/// ```
///
/// Taking the registry while a broker lock is held:
///
/// ```compile_fail,E0499
/// # use acd_broker::lock::{Broker, Mutex, Netreg, Root, RwLock};
/// # let registry: Mutex<u32, Netreg> = Mutex::new(0);
/// # let brokers: [RwLock<u32, Broker>; 2] = [RwLock::new(0), RwLock::new(0)];
/// let mut root = Root::mint();
/// let broker = brokers[0].read(root.token());
/// let (_registry, _) = registry.lock(root.token());
/// drop(broker);
/// ```
///
/// Two broker locks at once:
///
/// ```compile_fail,E0499
/// # use acd_broker::lock::{Broker, Mutex, Netreg, Root, RwLock};
/// # let registry: Mutex<u32, Netreg> = Mutex::new(0);
/// # let brokers: [RwLock<u32, Broker>; 2] = [RwLock::new(0), RwLock::new(0)];
/// let mut root = Root::mint();
/// let (_registry, mut netreg) = registry.lock(root.token());
/// let first = brokers[0].write(&mut netreg);
/// let second = brokers[1].write(&mut netreg);
/// drop((first, second));
/// ```
///
/// Two broker locks at once, each reached through a helper, as the overlay
/// reaches its brokers through `cell`:
///
/// ```compile_fail,E0499
/// # use acd_broker::lock::{Broker, Root, RwLock};
/// # let brokers: [RwLock<u32, Broker>; 2] = [RwLock::new(0), RwLock::new(0)];
/// fn cell(brokers: &[RwLock<u32, Broker>], id: usize) -> &RwLock<u32, Broker> {
///     &brokers[id]
/// }
/// let mut root = Root::mint();
/// let first = cell(&brokers, 0).write(root.token());
/// let second = cell(&brokers, 1).write(root.token());
/// drop((first, second));
/// ```
#[cfg(doctest)]
pub struct OrderCases;
