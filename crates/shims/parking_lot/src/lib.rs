//! Offline stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind the `parking_lot` API surface the
//! workspace uses: non-poisoning `lock()` / `read()` / `write()` that return
//! guards directly. Poisoned locks are recovered rather than propagated,
//! matching `parking_lot`'s no-poisoning semantics.
//!
//! # Lock-order tracking
//!
//! In debug builds (`debug_assertions`), locks constructed with
//! [`Mutex::with_rank`] / [`RwLock::with_rank`] participate in a per-thread
//! acquisition-order check mirroring the static hierarchy `provlight-lint`
//! enforces from `lints.toml`. A thread must acquire ranked locks in
//! strictly ascending rank order; equal ranks (sibling locks) are allowed
//! in ascending address order only, which permits ordered sweeps while
//! still catching ABBA inversions between siblings. Violations panic at the
//! acquisition site — before the lock is taken, so the would-be deadlock is
//! reported instead of hung. Locks built with `new()` are unranked and
//! exempt. Release builds compile all of this away.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;

/// Rank given to locks that opt out of order checking.
const UNRANKED: u32 = u32::MAX;

/// Lock ranks mirroring the `[lock_order]` hierarchy in `lints.toml`,
/// outermost first. Keep the two lists in sync: the static lint checks
/// source order by receiver name, this module checks runtime order by rank.
pub mod rank {
    /// Gateway broker state (`mqtt-sn`).
    pub const BROKER: u32 = 1;
    /// Queue of a gateway-local subscription (`mqtt-sn::local`): pushed
    /// under a broker lock, popped by its consumer with no other lock held.
    pub const INBOX: u32 = 2;
    /// Server-side translator (`core::server`, `continuum`).
    pub const TRANSLATOR: u32 = 3;
    /// The provenance store's one lock (`prov_store::ShardedStore`).
    pub const STORE: u32 = 4;
    /// Capture-side record grouper (`core::client`).
    pub const GROUPER: u32 = 5;
    /// Transmitter batch pool (`core::transmitter`).
    pub const POOL: u32 = 6;
}

#[cfg(debug_assertions)]
mod order {
    use std::cell::RefCell;

    thread_local! {
        /// `(lock address, rank)` for every ranked lock this thread holds.
        static HELD: RefCell<Vec<(usize, u32)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII registration of one held ranked lock; dropping it pops the
    /// entry.
    #[derive(Debug)]
    pub(crate) struct Held {
        addr: usize,
        tracked: bool,
    }

    pub(crate) fn acquire(addr: usize, rank: u32) -> Held {
        if rank == super::UNRANKED {
            return Held {
                addr,
                tracked: false,
            };
        }
        // `try_with` so guards living inside other thread-local destructors
        // degrade to untracked instead of aborting at thread teardown.
        let tracked = HELD
            .try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(&(worst_addr, worst_rank)) = held.iter().max_by_key(|&&(a, r)| (r, a)) {
                    let ok = rank > worst_rank || (rank == worst_rank && addr > worst_addr);
                    assert!(
                        ok,
                        "lock-order violation: acquiring rank {rank} (lock {addr:#x}) while \
                         holding rank {worst_rank} (lock {worst_addr:#x}); ranks must ascend \
                         (outermost lock first), equal ranks in ascending address order — \
                         see the [lock_order] hierarchy in lints.toml"
                    );
                }
                held.push((addr, rank));
            })
            .is_ok();
        Held { addr, tracked }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            if !self.tracked {
                return;
            }
            let _ = HELD.try_with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(a, _)| a == self.addr) {
                    held.remove(pos);
                }
            });
        }
    }
}

/// A mutex whose `lock` never returns a poison error.
#[derive(Debug)]
pub struct Mutex<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: sync::Mutex<T>,
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    /// Creates a new, unranked mutex (exempt from order checking).
    pub const fn new(value: T) -> Self {
        Mutex::with_rank(UNRANKED, value)
    }

    /// Creates a mutex participating in debug-build lock-order checking at
    /// `rank` (see [`rank`]).
    pub const fn with_rank(rank: u32, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        Mutex {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, recovering from poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self as *const Self as *const () as usize, self.rank);
        MutexGuard {
            #[cfg(debug_assertions)]
            _held: held,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Tries to acquire the lock without blocking. A successful `try_lock`
    /// registers (and order-checks) like a blocking acquisition: it cannot
    /// itself deadlock, but a misordered one is still a hierarchy bug, and
    /// later blocking acquisitions must be validated against it.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            #[cfg(debug_assertions)]
            _held: order::acquire(self as *const Self as *const () as usize, self.rank),
            inner: Some(inner),
        })
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// Guard of a [`Mutex`], carrying the debug-build lock-order registration.
pub struct MutexGuard<'a, T: ?Sized> {
    #[cfg(debug_assertions)]
    _held: order::Held,
    /// `None` only inside [`Condvar::wait`], which hands the `std` guard to
    /// the `std` condition variable by value and puts the one it gets back
    /// here before returning.
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_deref().expect("guard held outside a wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard held outside a wait")
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A condition variable paired with a [`Mutex`]. The waiting thread keeps
/// its lock-order registration while blocked: it owns the lock again by
/// the time `wait` returns.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    /// Releases the guard's lock, blocks until notified, and reacquires
    /// it. Wake-ups can be spurious: call it in a loop on the condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.inner.take().expect("guard held outside a wait");
        guard.inner = Some(self.inner.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    /// Wakes one waiting thread, if any.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wakes every waiting thread.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// A reader-writer lock whose accessors never return poison errors.
#[derive(Debug)]
pub struct RwLock<T: ?Sized> {
    #[cfg(debug_assertions)]
    rank: u32,
    inner: sync::RwLock<T>,
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T> RwLock<T> {
    /// Creates a new, unranked lock (exempt from order checking).
    pub const fn new(value: T) -> Self {
        RwLock::with_rank(UNRANKED, value)
    }

    /// Creates a lock participating in debug-build lock-order checking at
    /// `rank` (see [`rank`]).
    pub const fn with_rank(rank: u32, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = rank;
        RwLock {
            #[cfg(debug_assertions)]
            rank,
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self as *const Self as *const () as usize, self.rank);
        RwLockReadGuard {
            #[cfg(debug_assertions)]
            _held: held,
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let held = order::acquire(self as *const Self as *const () as usize, self.rank);
        RwLockWriteGuard {
            #[cfg(debug_assertions)]
            _held: held,
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Mutable access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

macro_rules! guard {
    ($name:ident, mutable: $mutable:tt) => {
        /// Guard wrapping the `std::sync` guard of the same name, carrying
        /// the debug-build lock-order registration.
        pub struct $name<'a, T: ?Sized> {
            #[cfg(debug_assertions)]
            _held: order::Held,
            inner: sync::$name<'a, T>,
        }

        impl<T: ?Sized> Deref for $name<'_, T> {
            type Target = T;
            fn deref(&self) -> &T {
                &self.inner
            }
        }

        guard!(@mut $mutable, $name);

        impl<T: ?Sized + fmt::Debug> fmt::Debug for $name<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                (**self).fmt(f)
            }
        }

        impl<T: ?Sized + fmt::Display> fmt::Display for $name<'_, T> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                (**self).fmt(f)
            }
        }
    };
    (@mut true, $name:ident) => {
        impl<T: ?Sized> DerefMut for $name<'_, T> {
            fn deref_mut(&mut self) -> &mut T {
                &mut self.inner
            }
        }
    };
    (@mut false, $name:ident) => {};
}

guard!(RwLockReadGuard, mutable: false);
guard!(RwLockWriteGuard, mutable: true);

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_hands_the_lock_over_and_back() {
        let state = std::sync::Arc::new((Mutex::with_rank(rank::INBOX, 0u32), Condvar::new()));
        let waiter = {
            let state = std::sync::Arc::clone(&state);
            std::thread::spawn(move || {
                let (lock, ready) = &*state;
                let mut value = lock.lock();
                while *value == 0 {
                    ready.wait(&mut value);
                }
                *value += 1;
                *value
            })
        };
        *state.0.lock() = 41;
        state.1.notify_all();
        assert_eq!(waiter.join().unwrap(), 42);
        assert_eq!(*state.0.lock(), 42);
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn ascending_rank_order_is_allowed() {
        let outer = Mutex::with_rank(rank::BROKER, ());
        let mid = RwLock::with_rank(rank::STORE, ());
        let inner = Mutex::with_rank(rank::POOL, ());
        let _a = outer.lock();
        let _b = mid.read();
        let _c = inner.lock();
    }

    #[test]
    fn descending_rank_order_panics_in_debug() {
        let outer = Mutex::with_rank(rank::STORE, ());
        let inner = Mutex::with_rank(rank::BROKER, ());
        let _g = outer.lock();
        let result = catch_unwind(AssertUnwindSafe(|| drop(inner.lock())));
        assert_eq!(
            result.is_err(),
            cfg!(debug_assertions),
            "descending-rank acquisition must panic exactly in debug builds"
        );
    }

    #[test]
    fn equal_rank_follows_address_order() {
        let locks = [
            RwLock::with_rank(rank::STORE, ()),
            RwLock::with_rank(rank::STORE, ()),
        ];
        // Arrays are address-ordered, so an index sweep is the legal order.
        let lo = locks[0].read();
        let hi = locks[1].read();
        drop(hi);
        drop(lo);

        let _hi = locks[1].read();
        let result = catch_unwind(AssertUnwindSafe(|| drop(locks[0].read())));
        assert_eq!(
            result.is_err(),
            cfg!(debug_assertions),
            "descending-address sibling acquisition must panic exactly in debug builds"
        );
    }

    #[test]
    fn tracker_pops_on_guard_drop() {
        let inner = Mutex::with_rank(rank::POOL, ());
        let outer = Mutex::with_rank(rank::BROKER, ());
        drop(inner.lock());
        // With the stack popped, the outer (lower-rank) lock is legal again.
        drop(outer.lock());
        drop(inner.lock());
    }

    #[test]
    fn unranked_locks_are_exempt() {
        let ranked = Mutex::with_rank(rank::POOL, ());
        let unranked = Mutex::new(());
        let _g = ranked.lock();
        // Acquiring an unranked lock under a ranked one never trips.
        drop(unranked.lock());
    }
}
