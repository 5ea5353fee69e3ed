//! On-disk serialization of checkpoints: one [`sealed`] buffer per
//! file, so this module only lays out and validates fields.

use bytes::{Buf, BufMut};

use vecycle_hash::sealed;
use vecycle_types::{Error, PageDigest, SimTime, VmId, PAGE_SIZE};

use crate::{Checkpoint, CheckpointData};

const MAGIC: &[u8; 8] = b"VECYCHK1";
/// Fixed framing bytes around the payload: 32-byte header (magic,
/// version, kind, reserved, vm, timestamp, page count) + 8-byte FNV
/// trailer — the shortest valid file. Also used to estimate page
/// counts of corrupt files from their length alone.
pub(crate) const HEADER_AND_TRAILER: u64 = 40;
const VERSION: u16 = 1;
const KIND_DIGESTS: u8 = 0;
const KIND_PAGES: u8 = 1;

impl Checkpoint {
    /// Serializes the checkpoint to `w`.
    ///
    /// Layout: magic, version, kind, VM id, timestamp, page count,
    /// payload, then the sealed trailer — cheap insurance against
    /// truncation and bit rot for data that may sit on a disk for days.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_to<W: std::io::Write>(&self, mut w: W) -> vecycle_types::Result<()> {
        w.write_all(&self.encode())?;
        Ok(())
    }

    /// The sealed file image [`Checkpoint::write_to`] writes.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.storage_size().as_u64() as usize);
        buf.put_slice(MAGIC);
        buf.put_u16(VERSION);
        match self.data() {
            CheckpointData::Digests(_) => buf.put_u8(KIND_DIGESTS),
            CheckpointData::Pages(_) => buf.put_u8(KIND_PAGES),
        }
        buf.put_u8(0); // reserved
        buf.put_u32(self.vm().as_u32());
        buf.put_u64(self.taken_at().since_epoch().as_nanos());
        buf.put_u64(self.page_count().as_u64());
        match self.data() {
            CheckpointData::Digests(digests) => {
                for d in digests {
                    buf.put_slice(d.as_bytes());
                }
            }
            CheckpointData::Pages(bytes) => buf.put_slice(bytes),
        }
        sealed::seal(&mut buf);
        buf
    }

    /// Deserializes a checkpoint previously written by
    /// [`Checkpoint::write_to`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Corrupt`] on bad magic, version, kind, truncated
    /// payload or trailer mismatch, and [`Error::Io`] on read failures.
    pub fn read_from<R: std::io::Read>(mut r: R) -> vecycle_types::Result<Checkpoint> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw)?;
        let mut buf =
            sealed::unseal(&raw, HEADER_AND_TRAILER as usize).map_err(|e| Error::Corrupt {
                detail: format!("checkpoint {e}"),
            })?;
        let mut magic = [0u8; 8];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(Error::Corrupt {
                detail: "bad checkpoint magic".into(),
            });
        }
        let version = buf.get_u16();
        if version != VERSION {
            return Err(Error::Corrupt {
                detail: format!("unsupported checkpoint version {version}"),
            });
        }
        let kind = buf.get_u8();
        let _reserved = buf.get_u8();
        let vm = VmId::new(buf.get_u32());
        let taken_at = SimTime::from_epoch(vecycle_types::SimDuration::from_nanos(buf.get_u64()));
        let pages = buf.get_u64();

        // The declared page count is attacker-controlled (a forged
        // trailer reaches this point): multiply with checked arithmetic
        // and validate against the bytes actually present *before*
        // sizing any allocation, so a hostile header can never request
        // more memory than the input's own length.
        let remaining = buf.remaining() as u64;
        let data = match kind {
            KIND_DIGESTS => {
                let need = pages.checked_mul(16).ok_or_else(|| Error::Corrupt {
                    detail: format!("declared page count {pages} overflows digest payload size"),
                })?;
                if remaining != need {
                    return Err(Error::Corrupt {
                        detail: format!("digest payload length {remaining} != expected {need}"),
                    });
                }
                // `pages <= remaining / 16 <= input length`: bounded.
                let mut digests = Vec::with_capacity(pages as usize);
                for _ in 0..pages {
                    let mut d = [0u8; 16];
                    buf.copy_to_slice(&mut d);
                    digests.push(PageDigest::new(d));
                }
                CheckpointData::Digests(digests)
            }
            KIND_PAGES => {
                let need = pages.checked_mul(PAGE_SIZE).ok_or_else(|| Error::Corrupt {
                    detail: format!("declared page count {pages} overflows page payload size"),
                })?;
                if remaining != need {
                    return Err(Error::Corrupt {
                        detail: format!("page payload length {remaining} != expected {need}"),
                    });
                }
                CheckpointData::Pages(buf.copy_to_bytes(need as usize).to_vec())
            }
            other => {
                return Err(Error::Corrupt {
                    detail: format!("unknown checkpoint kind {other}"),
                })
            }
        };
        Checkpoint::from_parts(vm, taken_at, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecycle_mem::{ByteMemory, DigestMemory};
    use vecycle_types::{PageCount, SimDuration};

    fn sample() -> Checkpoint {
        let mem = DigestMemory::with_distinct_content(PageCount::new(32), 3);
        Checkpoint::capture(
            VmId::new(7),
            SimTime::EPOCH + SimDuration::from_hours(5),
            &mem,
        )
    }

    #[test]
    fn digest_checkpoint_round_trips() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let back = Checkpoint::read_from(&file[..]).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn byte_checkpoint_round_trips() {
        let mem = ByteMemory::with_distinct_content(PageCount::new(4), 11);
        let cp = Checkpoint::capture_bytes(VmId::new(1), SimTime::EPOCH, &mem);
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let back = Checkpoint::read_from(&file[..]).unwrap();
        assert_eq!(back, cp);
        assert!(back.restore_byte_memory().unwrap().content_equals(&mem));
    }

    #[test]
    fn truncation_is_detected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        for cut in [file.len() - 1, file.len() / 2, 10] {
            let err = Checkpoint::read_from(&file[..cut]).unwrap_err();
            assert!(matches!(err, Error::Corrupt { .. }), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn bit_flip_is_detected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        let mid = file.len() / 2;
        file[mid] ^= 0x40;
        assert!(matches!(
            Checkpoint::read_from(&file[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        file[0] = b'X';
        // Trailer now mismatches too; either way it must fail Corrupt.
        assert!(matches!(
            Checkpoint::read_from(&file[..]),
            Err(Error::Corrupt { .. })
        ));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        // Bump version and re-fix the trailer so only the version differs.
        file[9] = 2;
        sealed::reseal(&mut file);
        let err = Checkpoint::read_from(&file[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn forged_page_count_is_rejected_before_allocating() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        // Page count lives at offset 24 (magic 8 + version 2 + kind 1 +
        // reserved 1 + vm 4 + timestamp 8). Forge counts whose naive
        // `pages * 16` wraps to a small (or matching) value, plus a
        // plainly huge one: all must fail Corrupt without a giant
        // pre-allocation or an overflow panic.
        for forged in [
            u64::MAX,
            u64::MAX / 16 + 1,
            (1u64 << 60) + cp.page_count().as_u64(), // wraps to the real count * 16
            1 << 32,
        ] {
            let mut f = file.clone();
            f[24..32].copy_from_slice(&forged.to_be_bytes());
            sealed::reseal(&mut f);
            let err = Checkpoint::read_from(&f[..]).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt { .. }),
                "pages={forged}: {err}"
            );
        }
    }

    #[test]
    fn forged_kind_with_fixed_trailer_is_rejected() {
        let cp = sample();
        let mut file = Vec::new();
        cp.write_to(&mut file).unwrap();
        file[10] = 7; // unknown kind
        sealed::reseal(&mut file);
        let err = Checkpoint::read_from(&file[..]).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn empty_input_is_corrupt_not_panic() {
        assert!(matches!(
            Checkpoint::read_from(&[][..]),
            Err(Error::Corrupt { .. })
        ));
    }
}
