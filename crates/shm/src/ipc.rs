//! Cooperating-process helpers for cross-process experiments.
//!
//! The paper demonstrates "threads in different processes" synchronizing
//! "via synchronization variables placed in shared memory" (Figure 1) and
//! measures it in Figure 6 ("Cross process thread sync"). We cannot `fork()`
//! a multithreaded Rust process safely without libc, so cooperating
//! processes are created by re-executing the current binary with a role
//! argument — the child opens the same [`crate::SharedFile`] and runs its
//! half of the protocol. (Full `fork`/`fork1` semantics are reproduced in
//! `sunmt-simkernel`.)

use std::io;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Environment variable carrying the child's role.
pub const ROLE_ENV: &str = "SUNMT_CHILD_ROLE";

/// Environment variable carrying the shared file's path.
pub const PATH_ENV: &str = "SUNMT_SHARED_PATH";

/// Spawns the current executable as a cooperating child process.
///
/// The child sees `role` in the [`ROLE_ENV`] environment variable and
/// `shared_path` both in [`PATH_ENV`] and as its first argument. Binaries
/// hosting cross-process experiments call [`child_role`] first thing in
/// `main` and branch to the child protocol when it returns `Some`.
pub fn spawn_cooperating(role: &str, shared_path: &Path, extra_args: &[&str]) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .env(ROLE_ENV, role)
        .env(PATH_ENV, shared_path)
        .arg(shared_path)
        .args(extra_args)
        .spawn()
}

/// Like [`spawn_cooperating`] but passes the path only through the
/// environment — required when the current executable is a *test binary*,
/// whose harness would interpret a positional argument as a test-name
/// filter and skip the child protocol entirely.
///
/// The child's standard output is discarded: it is the child harness's
/// own test report, which would otherwise interleave with the parent's
/// report mid-line. A failing child still shows through its exit status,
/// which the parent checks.
pub fn spawn_cooperating_env(role: &str, shared_path: &Path) -> io::Result<Child> {
    let exe = std::env::current_exe()?;
    Command::new(exe)
        .env(ROLE_ENV, role)
        .env(PATH_ENV, shared_path)
        .stdout(Stdio::null())
        .spawn()
}

/// Returns the role this process was spawned with, if it is a cooperating
/// child.
pub fn child_role() -> Option<String> {
    std::env::var(ROLE_ENV).ok()
}

/// The shared path passed by the parent (environment first, then argv for
/// plain binaries).
pub fn child_shared_path() -> Option<std::path::PathBuf> {
    child_role()?;
    if let Ok(p) = std::env::var(PATH_ENV) {
        return Some(p.into());
    }
    std::env::args_os().nth(1).map(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_env_round_trips_name() {
        assert_eq!(ROLE_ENV, "SUNMT_CHILD_ROLE");
        // This test process was not spawned as a child.
        if std::env::var(ROLE_ENV).is_err() {
            assert_eq!(child_role(), None);
            assert_eq!(child_shared_path(), None);
        }
    }
}
