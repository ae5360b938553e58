//! Shared memory: synchronization variables in files.
//!
//! "Synchronization variables can also be placed in files and have lifetimes
//! beyond that of the creating process. For example, a file can be created
//! that contains data base records. Each record can contain a mutual
//! exclusion lock variable that controls access to the associated record. A
//! process can map the file and a thread within it can obtain the lock
//! associated with a particular record ... if any thread within any process
//! mapping the file attempts to acquire the lock that thread will block
//! until the lock is released."
//!
//! [`SharedFile`] maps a file `MAP_SHARED`; [`SharedFile::sync_var`] places
//! a `sunmt-sync` variable at an offset inside it. Because every variable in
//! `sunmt-sync` is `repr(C)`, position independent, and valid when zeroed, a
//! freshly created (zero-filled) file is a valid array of unlocked
//! default-variant variables — processes mapping the file at different
//! virtual addresses synchronize through them with the `SyncType::SHARED`
//! variant.

#![deny(missing_docs)]

pub mod ipc;

use std::fs::{File, OpenOptions};
use std::io;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};

use sunmt_sys::mem;

/// A file mapped shared into this process.
///
/// Dropping unmaps (the file itself persists — lock lifetime "beyond that of
/// the creating process" is the point).
pub struct SharedFile {
    map: *mut u8,
    len: usize,
    path: PathBuf,
    _file: File,
}

// SAFETY: The mapping is valid process-wide; concurrent access is governed
// by the synchronization variables placed inside it.
unsafe impl Send for SharedFile {}
// SAFETY: As above; `&SharedFile` only hands out raw pointers and
// shared references to Sync types.
unsafe impl Sync for SharedFile {}

impl SharedFile {
    /// Creates (or truncates) `path` as `len` zero bytes and maps it shared.
    pub fn create(path: impl AsRef<Path>, len: usize) -> io::Result<SharedFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.set_len(len as u64)?;
        Self::map(file, len, path)
    }

    /// Opens and maps an existing shared file created by [`Self::create`]
    /// (possibly by another process).
    pub fn open(path: impl AsRef<Path>) -> io::Result<SharedFile> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let len = file.metadata()?.len() as usize;
        Self::map(file, len, path)
    }

    fn map(file: File, len: usize, path: PathBuf) -> io::Result<SharedFile> {
        if len == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let map = mem::map_shared_file(file.as_raw_fd(), 0, len)
            .map_err(|e| io::Error::other(format!("mmap failed: {e}")))?;
        Ok(SharedFile {
            map,
            len,
            path,
            _file: file,
        })
    }

    /// The mapping's length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mapping is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Base address of the mapping.
    pub fn as_ptr(&self) -> *mut u8 {
        self.map
    }

    /// A shared reference to a synchronization variable (or any other
    /// zero-valid `repr(C)` value) at byte `offset` inside the mapping.
    ///
    /// # Safety
    ///
    /// * `offset + size_of::<T>()` must be within the mapping and `offset`
    ///   must satisfy `T`'s alignment.
    /// * `T` must be valid for any bit pattern the file may contain — the
    ///   `sunmt-sync` variable types (atomics-only, zero-valid) qualify,
    ///   except `RwLock`: a private one keeps a process-local pointer to its
    ///   reader slots, so its bytes must be all-zero or `SHARED`-initialised
    ///   (`init(SyncType::SHARED)`, which discards that pointer unread)
    ///   before its first use.
    /// * All processes mapping the file must agree on the layout, and any
    ///   `T` whose operations block must use its `SHARED` variant.
    pub unsafe fn sync_var<T>(&self, offset: usize) -> &T {
        assert!(
            offset + core::mem::size_of::<T>() <= self.len,
            "offset {offset}+{} exceeds mapping of {} bytes",
            core::mem::size_of::<T>(),
            self.len
        );
        assert_eq!(
            (self.map as usize + offset) % core::mem::align_of::<T>(),
            0,
            "offset {offset} misaligned for {}",
            core::any::type_name::<T>()
        );
        // SAFETY: In bounds and aligned (checked above); the caller
        // guarantees bit-pattern validity and cross-process layout agreement.
        unsafe { &*(self.map.add(offset) as *const T) }
    }

    /// Copies `bytes` into the mapping at `offset` (setup helper for tests
    /// and examples; not synchronized).
    pub fn write_bytes(&self, offset: usize, bytes: &[u8]) {
        assert!(offset + bytes.len() <= self.len);
        // SAFETY: In-bounds; the mapping is writable. Races with concurrent
        // readers are the caller's responsibility, as documented.
        unsafe {
            core::ptr::copy_nonoverlapping(bytes.as_ptr(), self.map.add(offset), bytes.len());
        }
    }

    /// Reads `len` bytes from the mapping at `offset`.
    pub fn read_bytes(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= self.len);
        let mut out = vec![0u8; len];
        // SAFETY: In-bounds read of the live mapping.
        unsafe {
            core::ptr::copy_nonoverlapping(self.map.add(offset), out.as_mut_ptr(), len);
        }
        out
    }
}

impl Drop for SharedFile {
    fn drop(&mut self) {
        // SAFETY: `map..map+len` is exactly the mapping created in `map()`;
        // Drop proves no `sync_var` references remain (they borrow self).
        let _ = unsafe { mem::unmap(self.map, self.len) };
    }
}

impl core::fmt::Debug for SharedFile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SharedFile")
            .field("path", &self.path)
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sunmt_sync::{Mutex, Sema, SyncType};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sunmt-shm-{}-{name}", std::process::id()))
    }

    #[test]
    fn create_open_share_within_process() {
        let path = tmp("dual");
        let a = SharedFile::create(&path, 4096).expect("create");
        let b = SharedFile::open(&path).expect("open");
        a.write_bytes(100, b"hello");
        assert_eq!(b.read_bytes(100, 5), b"hello");
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn zero_filled_file_is_a_valid_mutex() {
        let path = tmp("mutex");
        let f = SharedFile::create(&path, 4096).expect("create");
        // SAFETY: Offset 0 is aligned and in-bounds; Mutex is zero-valid.
        let m: &Mutex = unsafe { f.sync_var(0) };
        m.init(SyncType::SHARED);
        m.enter();
        assert!(m.is_locked());
        m.exit();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_mappings_same_variable() {
        // Two mappings of one file within one process: distinct virtual
        // addresses, one lock — a miniature of the paper's Figure 1.
        let path = tmp("twomap");
        let a = SharedFile::create(&path, 4096).expect("create");
        let b = SharedFile::open(&path).expect("open");
        assert_ne!(a.as_ptr(), b.as_ptr());
        // SAFETY: Aligned, in-bounds, zero-valid.
        let sa: &Sema = unsafe { a.sync_var(64) };
        // SAFETY: As above.
        let sb: &Sema = unsafe { b.sync_var(64) };
        sa.init(0, SyncType::SHARED);
        sb.v();
        assert!(sa.try_p(), "the V through mapping B must be visible via A");
        assert!(!sb.try_p());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_var_rejects_out_of_bounds() {
        let path = tmp("oob");
        let f = SharedFile::create(&path, 64).expect("create");
        let r = std::panic::catch_unwind(|| {
            // SAFETY: Bounds are checked before any dereference; this call
            // panics and never creates the reference.
            let _: &Mutex = unsafe { f.sync_var(60) };
        });
        assert!(r.is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_is_rejected() {
        let path = tmp("empty");
        assert!(SharedFile::create(&path, 0).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
