//! Thread-local storage: the `#pragma unshared` mechanism.
//!
//! "Threads have some private storage (in addition to the stack) called
//! thread-local storage. ... The contents of thread-local storage are
//! zeroed, initially; static initialization is not allowed. ... The size of
//! thread-local storage is computed by the run-time linker at program start
//! time ... Once the size is computed it is not changed."
//!
//! The compiler/linker `#pragma` becomes a registration call: every
//! [`Unshared<T>`] must be registered before the first thread is created
//! (our "program start time"); the first thread creation freezes the layout
//! exactly as the paper's run-time linker does. Each thread then carries a
//! zeroed block of the frozen size.

use std::marker::PhantomData;
use std::sync::{Mutex, OnceLock};

use crate::runq::unpoisoned;

/// Types that may live in thread-local storage.
///
/// # Safety
///
/// Implementors must be plain-old-data for which the all-zero bit pattern
/// is a valid value ("the contents of thread-local storage are zeroed,
/// initially") — no padding-sensitive invariants, no niches excluding zero.
pub unsafe trait Zeroable: Copy {}

macro_rules! impl_zeroable {
    ($($t:ty),*) => {
        $(
            // SAFETY: All-zero is a valid value of this primitive type.
            unsafe impl Zeroable for $t {}
        )*
    };
}
impl_zeroable!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64, bool);

// SAFETY: A null raw pointer is a valid raw-pointer value.
unsafe impl<T> Zeroable for *const T {}
// SAFETY: As above.
unsafe impl<T> Zeroable for *mut T {}
// SAFETY: An array of zero-valid elements is zero-valid.
unsafe impl<T: Zeroable, const N: usize> Zeroable for [T; N] {}

/// The layout's size while registrations may still grow it. Taken by
/// [`Unshared::register`] and by the first create only: once [`FROZEN`] is
/// set, creates read that instead.
static LAYOUT: Mutex<usize> = Mutex::new(0);

/// The frozen layout size. Set once, under the [`LAYOUT`] lock, by the
/// first thread creation.
static FROZEN: OnceLock<usize> = OnceLock::new();

/// Registration failed because a thread already exists.
#[derive(Debug, PartialEq, Eq)]
pub struct TlsFrozen;

impl core::fmt::Display for TlsFrozen {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(
            "thread-local storage layout is frozen: register all unshared \
             variables before creating the first thread",
        )
    }
}

impl std::error::Error for TlsFrozen {}

/// A registered thread-local ("unshared") variable.
///
/// The Rust spelling of the paper's
///
/// ```c
/// #pragma unshared errno
/// extern int errno;
/// ```
///
/// Each thread (including the initial one) sees its own zero-initialized
/// copy. "Thread-local storage is potentially expensive to access, so it
/// should be limited to the essentials, such as supporting older,
/// non-reentrant interfaces."
pub struct Unshared<T: Zeroable> {
    offset: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Zeroable> Unshared<T> {
    /// Registers a new unshared variable, reserving zeroed space for it in
    /// every future thread's TLS block.
    ///
    /// Fails with [`TlsFrozen`] once any thread exists — the paper's "this
    /// restriction prevents the size of thread-local storage from changing
    /// once a thread is started".
    pub fn register() -> Result<Unshared<T>, TlsFrozen> {
        let mut size = unpoisoned(&LAYOUT);
        if FROZEN.get().is_some() {
            return Err(TlsFrozen);
        }
        let align = core::mem::align_of::<T>();
        let offset = size.next_multiple_of(align);
        *size = offset + core::mem::size_of::<T>();
        Ok(Unshared {
            offset,
            _marker: PhantomData,
        })
    }

    fn ptr(&self) -> *mut T {
        let t = crate::sched::current_thread();
        // SAFETY: Only the owning thread touches its TLS block, and the
        // block was sized from the frozen layout that contains our offset.
        let block = unsafe { &mut *t.tls.get() };
        assert!(
            self.offset + core::mem::size_of::<T>() <= block.len(),
            "TLS block smaller than layout; variable registered after freeze?"
        );
        // SAFETY: In-bounds and aligned by construction of `offset`.
        unsafe { block.as_mut_ptr().add(self.offset) as *mut T }
    }

    /// Reads this thread's copy (zero until first written).
    pub fn get(&self) -> T {
        // SAFETY: `ptr` is valid, aligned, and zero-initialized; T is
        // Zeroable so any stored pattern (incl. the initial zeros) is valid.
        unsafe { core::ptr::read(self.ptr()) }
    }

    /// Writes this thread's copy.
    pub fn set(&self, value: T) {
        // SAFETY: As in `get`; the owning thread has exclusive access.
        unsafe { core::ptr::write(self.ptr(), value) }
    }
}

/// Freezes the layout (first thread creation) and returns the block size.
/// After the first call this is one read of [`FROZEN`]: no lock, no write.
pub(crate) fn freeze_and_len() -> usize {
    if let Some(&size) = FROZEN.get() {
        return size;
    }
    let size = unpoisoned(&LAYOUT);
    *FROZEN.get_or_init(|| *size)
}

/// Whether the layout is already frozen (diagnostic).
pub fn is_frozen() -> bool {
    FROZEN.get().is_some()
}

/// The paper's worked example: a per-thread `errno`.
///
/// "The C library variable `errno` is a good example of a variable that
/// should be placed in thread-local storage. This allows each thread to
/// reference `errno` directly and it allows threads to interleave execution
/// without fear of corrupting `errno` in other threads."
pub mod errno {
    use super::{TlsFrozen, Unshared};
    use std::sync::OnceLock;

    static ERRNO: OnceLock<Result<Unshared<i32>, TlsFrozen>> = OnceLock::new();

    fn slot() -> &'static Unshared<i32> {
        ERRNO
            .get_or_init(Unshared::register)
            .as_ref()
            .expect("errno must be registered before the first thread (call errno::get early)")
    }

    /// This thread's `errno`.
    pub fn get() -> i32 {
        slot().get()
    }

    /// Sets this thread's `errno`.
    pub fn set(v: i32) {
        slot().set(v);
    }
}

impl<T: Zeroable> core::fmt::Debug for Unshared<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Unshared")
            .field("offset", &self.offset)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Layout freezing is process-global, so the success path (register →
    // create thread → read/write per-thread copies) lives in the dedicated
    // integration test `tests/tls.rs`, which owns a fresh process. Here we
    // only check pure layout arithmetic that cannot race with other tests.

    #[test]
    fn offsets_respect_alignment() {
        // Either both registrations succeed (we ran before any freeze) or
        // both fail (another test froze first); both outcomes are valid.
        let a = Unshared::<u8>::register();
        let b = Unshared::<u64>::register();
        if let (Ok(a), Ok(b)) = (a, b) {
            assert!(b.offset % core::mem::align_of::<u64>() == 0);
            assert!(b.offset > a.offset);
        }
        // A concurrent test may have frozen the layout first; Err outcomes
        // are equally valid here.
    }

    #[test]
    fn frozen_layout_rejects_registration() {
        let _ = freeze_and_len();
        assert!(is_frozen());
        assert_eq!(Unshared::<u32>::register().unwrap_err(), TlsFrozen);
    }
}
