//! Offline stand-in for `parking_lot`: the guard-returning `lock`/`read`/
//! `write` (and `into_inner`) the workspace calls, over `std::sync`. Poisoning is ignored, as
//! in the real crate — the guarded data here is counters and tables that
//! stay valid at every step.

use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// `parking_lot::Mutex` over `std::sync::Mutex`.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// `parking_lot::RwLock` over `std::sync::RwLock`.
#[derive(Debug, Default)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}
