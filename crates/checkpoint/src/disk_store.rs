//! [`DiskStore`]: checkpoints persisted as real files.
//!
//! The in-memory [`crate::CheckpointStore`] models a host inside the
//! simulator; this store actually writes the §3 checkpoint files to a
//! directory — what a deployment would do — using the corruption-checked
//! wire format (one [`vecycle_hash::sealed`] buffer per file). Loads
//! that fail validation report [`Error::Corrupt`] so callers can fall
//! back to a full migration instead of restoring garbage. Saves go
//! through [`atomic_replace`] at [`SyncLevel::Durable`]: a checkpoint is
//! only worth recycling if it survives the days until the VM returns.

use std::path::{Path, PathBuf};

use vecycle_types::{Error, VmId};

use crate::durable::{atomic_replace, SyncLevel};
use crate::{wire, Checkpoint};

/// What a [`DiskStore::scrub`] pass found: the checkpoints that passed
/// re-verification and the VMs whose files were quarantined.
#[derive(Debug, Default)]
pub struct ScrubOutcome {
    /// Checkpoints that re-verified clean, in VM-id order.
    pub clean: Vec<Checkpoint>,
    /// VMs whose files failed validation and were deleted.
    pub quarantined: Vec<VmId>,
    /// Estimated pages across quarantined files (from file length — the
    /// corrupt payload itself is untrustworthy).
    pub corrupt_pages: u64,
}

impl ScrubOutcome {
    /// Pages across the checkpoints that re-verified clean.
    pub fn clean_pages(&self) -> u64 {
        self.clean.iter().map(|c| c.page_count().as_u64()).sum()
    }
}

/// A directory of checkpoint files, one per VM.
///
/// Layout: `<root>/vm-<id>.ckpt`, atomically replaced on save (staged
/// in `.vm-<id>.tmp`, then renamed) so a crash mid-save never leaves a
/// torn checkpoint where a good one stood.
///
/// # Examples
///
/// ```
/// use vecycle_checkpoint::{Checkpoint, DiskStore};
/// use vecycle_mem::DigestMemory;
/// use vecycle_types::{PageCount, SimTime, VmId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("vecycle-diskstore-doc");
/// let store = DiskStore::open(&dir)?;
/// let mem = DigestMemory::with_distinct_content(PageCount::new(8), 1);
/// store.save(&Checkpoint::capture(VmId::new(5), SimTime::EPOCH, &mem))?;
/// let back = store.load(VmId::new(5))?.expect("checkpoint exists");
/// assert_eq!(back.page_count(), PageCount::new(8));
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(root: impl AsRef<Path>) -> vecycle_types::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStore { root })
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, vm: VmId) -> PathBuf {
        self.root.join(format!("vm-{}.ckpt", vm.as_u32()))
    }

    /// Saves (atomically replaces) the checkpoint for its VM.
    ///
    /// Crash-durability invariant: at every instant there is either the
    /// old complete checkpoint or the new complete checkpoint at the
    /// final path, never a torn one and never neither — across power
    /// loss too, which is why this is the [`SyncLevel::Durable`] path
    /// of [`atomic_replace`] (fsync the file, rename, fsync the
    /// directory).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a failed save leaves any previous
    /// checkpoint intact.
    pub fn save(&self, checkpoint: &Checkpoint) -> vecycle_types::Result<()> {
        let path = self.path_for(checkpoint.vm());
        atomic_replace(&path, SyncLevel::Durable, &checkpoint.encode())?;
        Ok(())
    }

    /// Loads the checkpoint for `vm`, if one exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] if the file exists but fails
    /// validation — callers should treat that as "no usable checkpoint"
    /// and may call [`DiskStore::remove`] to clear it.
    pub fn load(&self, vm: VmId) -> vecycle_types::Result<Option<Checkpoint>> {
        let path = self.path_for(vm);
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let cp = Checkpoint::read_from(std::io::BufReader::new(file))?;
        if cp.vm() != vm {
            return Err(Error::Corrupt {
                detail: format!("checkpoint file for {vm} contains {}", cp.vm()),
            });
        }
        Ok(Some(cp))
    }

    /// Removes the checkpoint for `vm`. Removing a missing checkpoint is
    /// not an error.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than "not found".
    pub fn remove(&self, vm: VmId) -> vecycle_types::Result<()> {
        match std::fs::remove_file(self.path_for(vm)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// The VMs with a stored checkpoint file, in id order — the on-disk
    /// catalog, for comparison against
    /// [`CheckpointStore::vm_ids`](crate::CheckpointStore::vm_ids).
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn vm_ids(&self) -> vecycle_types::Result<Vec<VmId>> {
        self.list()
    }

    /// Re-verifies every checkpoint file against its wire trailer
    /// checksum — what a host runs after restarting from a crash, when
    /// it can no longer trust that disk matches memory.
    ///
    /// Files that fail validation are *quarantined*: deleted from disk
    /// (never restored from) and reported in
    /// [`ScrubOutcome::quarantined`]. Clean checkpoints are returned in
    /// VM-id order so the caller can re-warm an in-memory catalog.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors other than validation failures
    /// (those are quarantines, not errors).
    pub fn scrub(&self) -> vecycle_types::Result<ScrubOutcome> {
        let mut outcome = ScrubOutcome::default();
        for vm in self.list()? {
            match self.load(vm) {
                Ok(Some(cp)) => outcome.clean.push(cp),
                Ok(None) => {} // raced away; nothing to verify
                Err(Error::Corrupt { .. }) => {
                    // Estimate the page count from the file size (header
                    // + 16-byte digests) before deleting — the payload
                    // itself is untrustworthy.
                    let len = std::fs::metadata(self.path_for(vm))
                        .map(|m| m.len())
                        .unwrap_or(0);
                    outcome.corrupt_pages += len.saturating_sub(wire::HEADER_AND_TRAILER) / 16;
                    self.remove(vm)?;
                    outcome.quarantined.push(vm);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(outcome)
    }

    /// Lists the VMs with a stored checkpoint file.
    ///
    /// # Errors
    ///
    /// Propagates directory-read errors.
    pub fn list(&self) -> vecycle_types::Result<Vec<VmId>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("vm-")
                .and_then(|s| s.strip_suffix(".ckpt"))
                .and_then(|s| s.parse::<u32>().ok())
            {
                out.push(VmId::new(id));
            }
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::DigestMemory;
    use vecycle_types::{PageCount, SimTime};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vecycle-diskstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cp(vm: u32, seed: u64) -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(16), seed);
        Checkpoint::capture(VmId::new(vm), SimTime::EPOCH, &mem)
    }

    #[test]
    fn save_load_remove_cycle() {
        let dir = tmpdir("cycle");
        let store = DiskStore::open(&dir).unwrap();
        assert!(store.load(VmId::new(1)).unwrap().is_none());
        store.save(&cp(1, 10)).unwrap();
        let loaded = store.load(VmId::new(1)).unwrap().unwrap();
        assert_eq!(loaded, cp(1, 10));
        store.remove(VmId::new(1)).unwrap();
        assert!(store.load(VmId::new(1)).unwrap().is_none());
        store.remove(VmId::new(1)).unwrap(); // idempotent
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn save_replaces_previous_version() {
        let dir = tmpdir("replace");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(2, 10)).unwrap();
        store.save(&cp(2, 11)).unwrap();
        assert_eq!(store.load(VmId::new(2)).unwrap().unwrap(), cp(2, 11));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn corrupt_file_is_reported_not_returned() {
        let dir = tmpdir("corrupt");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(3, 10)).unwrap();
        // Flip a byte on disk.
        let path = dir.join("vm-3.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        let err = store.load(VmId::new(3)).unwrap_err();
        assert!(matches!(err, Error::Corrupt { .. }));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn vm_id_mismatch_is_corrupt() {
        let dir = tmpdir("mismatch");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(4, 10)).unwrap();
        // Rename vm-4's file to claim vm-5.
        std::fs::rename(dir.join("vm-4.ckpt"), dir.join("vm-5.ckpt")).unwrap();
        let err = store.load(VmId::new(5)).unwrap_err();
        assert!(err.to_string().contains("contains vm-4"));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn list_enumerates_saved_vms() {
        let dir = tmpdir("list");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(7, 1)).unwrap();
        store.save(&cp(2, 2)).unwrap();
        store.save(&cp(9, 3)).unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec![VmId::new(2), VmId::new(7), VmId::new(9)]
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn scrub_quarantines_corrupt_keeps_clean() {
        let dir = tmpdir("scrub");
        let store = DiskStore::open(&dir).unwrap();
        store.save(&cp(1, 10)).unwrap();
        store.save(&cp(2, 20)).unwrap();
        store.save(&cp(3, 30)).unwrap();
        // Rot vm-2's file.
        let path = dir.join("vm-2.ckpt");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, bytes).unwrap();

        let outcome = store.scrub().unwrap();
        assert_eq!(outcome.quarantined, vec![VmId::new(2)]);
        assert_eq!(outcome.clean.len(), 2);
        assert_eq!(outcome.clean_pages(), 32);
        // corrupt_pages is estimated from the file length.
        assert_eq!(outcome.corrupt_pages, 16);
        // The quarantined file is gone; clean ones survive.
        assert_eq!(store.vm_ids().unwrap(), vec![VmId::new(1), VmId::new(3)]);
        // A second scrub finds nothing to quarantine.
        let again = store.scrub().unwrap();
        assert!(again.quarantined.is_empty());
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn stray_files_are_ignored_by_list() {
        let dir = tmpdir("stray");
        let store = DiskStore::open(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), b"hi").unwrap();
        std::fs::write(dir.join("vm-x.ckpt"), b"junk").unwrap();
        store.save(&cp(1, 1)).unwrap();
        assert_eq!(store.list().unwrap(), vec![VmId::new(1)]);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
