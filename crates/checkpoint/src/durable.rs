//! [`atomic_replace`]: the one tmp→rename writer for every file the
//! system replaces whole (checkpoints, the compacted WAL, partial-state
//! files). A crash at any instant leaves the old or the new complete
//! file at the final path; whether that holds across *power loss* is
//! the caller's explicit [`SyncLevel`].

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// How hard [`atomic_replace`] pushes the new file to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncLevel {
    /// Write and rename, no fsync: after power loss the rename may land
    /// ahead of the data. Only for sealed formats whose torn file is
    /// detected on load and cheap to discard.
    Unsynced,
    /// fsync the file, rename, fsync the directory: old-or-new holds
    /// across power loss and the new file is durable on return.
    Durable,
}

/// The staging path for `path`: `.<stem>.tmp` beside it, so the rename
/// stays on one filesystem and never matches a `<stem>.<ext>` reader.
fn temp_path(path: &Path) -> PathBuf {
    let stem = path.file_stem().unwrap_or_default().to_string_lossy();
    path.with_file_name(format!(".{stem}.tmp"))
}

/// Atomically replaces (or creates) `path` with `bytes`.
///
/// # Errors
///
/// Propagates every filesystem error, the directory fsync's included.
/// A failed call leaves the previous file intact.
pub fn atomic_replace(path: &Path, sync: SyncLevel, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path(path);
    let durable = sync == SyncLevel::Durable;
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        if durable {
            file.sync_all()?;
        }
    }
    std::fs::rename(&tmp, path)?;
    // Directories can be opened and fsynced on unix; elsewhere the
    // rename alone is the best the platform offers.
    #[cfg(unix)]
    if durable {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vecycle-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn temp_name_is_dot_stem_beside_the_target() {
        let p = Path::new("/x/y/vm-5.ckpt");
        assert_eq!(temp_path(p), Path::new("/x/y/.vm-5.tmp"));
        assert_eq!(
            temp_path(Path::new("vecycled.wal")),
            Path::new(".vecycled.tmp")
        );
    }

    #[test]
    fn replaces_and_leaves_no_temp_at_either_level() {
        let dir = tmpdir("levels");
        let path = dir.join("f.bin");
        for (sync, content) in [
            (SyncLevel::Durable, &b"first"[..]),
            (SyncLevel::Unsynced, &b"second"[..]),
            (SyncLevel::Durable, &b""[..]),
        ] {
            atomic_replace(&path, sync, content).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), content);
            assert!(!temp_path(&path).exists());
        }
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_stale_temp_file_is_overwritten_not_promoted() {
        let dir = tmpdir("stale");
        let path = dir.join("f.bin");
        std::fs::write(temp_path(&path), b"half-written garbage from a crash").unwrap();
        atomic_replace(&path, SyncLevel::Durable, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_failed_replace_keeps_the_old_file() {
        let dir = tmpdir("fail");
        let path = dir.join("f.bin");
        atomic_replace(&path, SyncLevel::Durable, b"old").unwrap();
        // A directory squatting on the temp name makes staging fail.
        std::fs::create_dir(temp_path(&path)).unwrap();
        assert!(atomic_replace(&path, SyncLevel::Durable, b"new").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
