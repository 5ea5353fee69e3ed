//! The sealed-record codec: the one integrity trailer of every on-disk
//! format.
//!
//! A *sealed* buffer is a body followed by the big-endian FNV-1a 64 of
//! that body; checkpoint, trace and partial-state files are one each.
//! A *sealed frame* is `[u32 BE body len][body][FNV-1a 64 of body]`;
//! the daemon WAL is a stream of them, so a torn tail is detected
//! record by record. The trailer catches truncation and bit rot, not
//! tampering: FNV is not a MAC.

use std::fmt;

use crate::{Fnv1a64, Hasher};

/// Bytes the trailer adds to a sealed body.
pub const TRAILER_LEN: usize = 8;

/// Why a sealed buffer or frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Shorter than the format's minimum, or a torn frame (carries the
    /// bytes present).
    Short(usize),
    /// A frame declared a body longer than the caller's cap.
    OverCap,
    /// The trailer does not match the body.
    Mismatch,
}

impl fmt::Display for SealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SealError::Short(len) => write!(f, "file too short: {len} bytes"),
            SealError::OverCap => f.write_str("declared length exceeds the cap"),
            SealError::Mismatch => f.write_str("trailer checksum mismatch"),
        }
    }
}

/// The trailer of `body`.
pub fn checksum(body: &[u8]) -> [u8; TRAILER_LEN] {
    Fnv1a64::digest(body)
}

/// Appends the trailer over everything already in `buf`.
pub fn seal(buf: &mut Vec<u8>) {
    let trailer = checksum(buf);
    buf.extend_from_slice(&trailer);
}

/// Checks a sealed buffer of at least `min_len` bytes (trailer
/// included) and returns its body.
///
/// # Errors
///
/// [`SealError::Short`] before the trailer is looked at, then
/// [`SealError::Mismatch`].
pub fn unseal(bytes: &[u8], min_len: usize) -> Result<&[u8], SealError> {
    if bytes.len() < min_len.max(TRAILER_LEN) {
        return Err(SealError::Short(bytes.len()));
    }
    let (body, trailer) = bytes.split_at(bytes.len() - TRAILER_LEN);
    if trailer != checksum(body) {
        return Err(SealError::Mismatch);
    }
    Ok(body)
}

/// Recomputes the trailer in place (buffers too short to carry one are
/// left alone), so fuzzers and forged-header tests get hostile bodies
/// past the integrity check and into the field parsers.
pub fn reseal(buf: &mut [u8]) {
    if let Some(body_len) = buf.len().checked_sub(TRAILER_LEN) {
        let trailer = checksum(&buf[..body_len]);
        buf[body_len..].copy_from_slice(&trailer);
    }
}

/// Appends one sealed frame carrying `body` to `out`.
///
/// # Panics
///
/// If `body` is longer than `u32::MAX` bytes.
pub fn encode_frame(body: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(body.len()).expect("sealed frame body fits a u32 length");
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&checksum(body));
}

/// Decodes the sealed frame at the start of `bytes`, returning its body
/// and the frame's total length. The declared length is checked against
/// `cap` first, so a forged prefix never sizes a slice or allocation.
///
/// # Errors
///
/// [`SealError::OverCap`], [`SealError::Short`] (torn) or
/// [`SealError::Mismatch`].
pub fn decode_frame(bytes: &[u8], cap: u32) -> Result<(&[u8], usize), SealError> {
    let short = SealError::Short(bytes.len());
    let declared = u32::from_be_bytes(bytes.get(..4).ok_or(short)?.try_into().expect("4"));
    if declared > cap {
        return Err(SealError::OverCap);
    }
    let total = 4 + declared as usize + TRAILER_LEN;
    let frame = bytes.get(4..total).ok_or(short)?;
    Ok((unseal(frame, TRAILER_LEN)?, total))
}

/// [`reseal`] for a stream of frames: fixes each whole frame in place,
/// stopping at the first that runs past the end.
pub fn reseal_frames(buf: &mut [u8]) {
    let mut off = 0;
    while let Some(prefix) = buf.get(off..off + 4) {
        let end = off + 4 + u32::from_be_bytes(prefix.try_into().expect("4")) as usize;
        match buf.get_mut(off + 4..end + TRAILER_LEN) {
            Some(frame) => reseal(frame),
            None => return,
        }
        off = end + TRAILER_LEN;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut buf = body.to_vec();
        seal(&mut buf);
        buf
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(body, &mut out);
        out
    }

    #[test]
    fn seal_appends_the_fnv_of_the_body() {
        // Doubles as the usage example.
        let buf = sealed(b"abc");
        assert_eq!(&buf[..3], b"abc");
        assert_eq!(buf[3..], Fnv1a64::digest(b"abc"));
        assert_eq!(unseal(&buf, 11).unwrap(), b"abc");
        assert_eq!(unseal(&sealed(b""), 0).unwrap(), b"");
    }

    #[test]
    fn unseal_enforces_the_minimum_before_the_trailer() {
        let buf = sealed(b"abc");
        assert_eq!(unseal(&buf, 12), Err(SealError::Short(11)));
        assert_eq!(unseal(&[1, 2, 3], 0), Err(SealError::Short(3)));
    }

    #[test]
    fn every_torn_prefix_and_byte_flip_of_a_seal_is_rejected() {
        let buf = sealed(b"sealed body for the exhaustive sweep");
        for cut in 0..buf.len() {
            assert!(unseal(&buf[..cut], 9).is_err(), "prefix of {cut} bytes");
        }
        for pos in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[pos] ^= 1 << bit;
                assert_eq!(
                    unseal(&bad, 9),
                    Err(SealError::Mismatch),
                    "flip {pos}.{bit}"
                );
            }
        }
    }

    #[test]
    fn frames_round_trip_and_report_their_extent() {
        let mut stream = frame(b"first");
        stream.extend_from_slice(&frame(b""));
        let (body, used) = decode_frame(&stream, 64).unwrap();
        assert_eq!((body, used), (&b"first"[..], 4 + 5 + 8));
        assert_eq!(decode_frame(&stream[used..], 64).unwrap(), (&b""[..], 12));
    }

    #[test]
    fn every_torn_prefix_and_byte_flip_of_a_frame_is_rejected() {
        let buf = frame(b"{\"kind\":\"submitted\"}");
        for cut in 0..buf.len() {
            assert!(
                matches!(decode_frame(&buf[..cut], 1 << 20), Err(SealError::Short(_))),
                "prefix of {cut} bytes"
            );
        }
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x5A;
            assert!(decode_frame(&bad, 1 << 20).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn over_cap_length_is_rejected_before_the_body_is_touched() {
        // Only the 4-byte prefix exists: a decoder that sized a buffer
        // or a slice from it first would fail differently (or allocate).
        let prefix = u32::MAX.to_be_bytes();
        assert_eq!(decode_frame(&prefix, 1 << 20), Err(SealError::OverCap));
        let buf = frame(&[7u8; 65]);
        assert_eq!(decode_frame(&buf, 64), Err(SealError::OverCap));
        assert!(decode_frame(&buf, 65).is_ok());
    }

    #[test]
    fn reseal_repairs_a_forged_body_and_skips_short_buffers() {
        let mut buf = sealed(b"version=1");
        buf[8] = b'2';
        assert_eq!(unseal(&buf, 0), Err(SealError::Mismatch));
        reseal(&mut buf);
        assert_eq!(unseal(&buf, 0).unwrap(), b"version=2");
        let mut tiny = vec![1u8, 2, 3];
        reseal(&mut tiny);
        assert_eq!(tiny, [1, 2, 3]);
    }

    #[test]
    fn reseal_frames_fixes_each_whole_frame_and_stops_at_a_torn_one() {
        let mut stream = frame(b"one");
        stream.extend_from_slice(&frame(b"two"));
        stream.extend_from_slice(&[0, 0, 0, 9, b'x']);
        stream[5] = b'N';
        stream[4 + 3 + 8 + 4] = b'T';
        reseal_frames(&mut stream);
        let (a, used) = decode_frame(&stream, 64).unwrap();
        assert_eq!(a, b"oNe");
        let (b, used_b) = decode_frame(&stream[used..], 64).unwrap();
        assert_eq!(b, b"Two");
        assert!(decode_frame(&stream[used + used_b..], 64).is_err());
    }
}
