//! The destination's reconstruction state, shared with the source's
//! resume verifier, plus its crash-durable partial-state files.
//!
//! Both ends run the same state machine: the destination applies the
//! live stream through [`SessionState::apply`], and during the resume
//! handshake the *source* simulates it over its regenerated stream.
//! The two sides then compare [`SessionState::state_hash`] — equal
//! hashes mean the destination's landed prefix is exactly the first
//! `applied` messages of the deterministic stream, so the source can
//! skip them.
//!
//! What survives a destination crash is two files per session, both
//! written unsynced (see [`save_partial`]):
//!
//! * the **base snapshot** `partial-job<id>-<fingerprint>.bin`, one
//!   [`sealed`] buffer holding the whole state ([`SessionState::encode`]),
//!   written once when the session starts;
//! * the **delta log** `partial-job<id>-<fingerprint>.log`
//!   ([`PartialLog`]), a stream of sealed frames appended at every
//!   boundary (each 64 applied messages — the source's write batch —
//!   and each round delimiter). A header frame binds
//!   the log to its snapshot; every later frame carries the [`Step`]s
//!   applied since the previous boundary, so a boundary costs about
//!   25 bytes per message instead of the whole guest image.
//!
//! [`load_partial`] replays the log onto the snapshot frame by frame
//! and stops at the first frame it cannot take whole, so the loaded
//! state is always a whole-boundary prefix of the stream. The landed
//! pages double as a [`PartialCheckpoint`], the same resume substrate
//! the engine's retry machinery uses — the paper's
//! checkpoint-as-recovery-unit idea applied to an in-flight transfer.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use vecycle_checkpoint::durable::{atomic_replace, SyncLevel};
use vecycle_checkpoint::{ChecksumIndex, PageLookup, PartialCheckpoint};
use vecycle_hash::sealed::{self, SealError};
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::DigestMemory;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{PageDigest, VmId};

use crate::source::STREAM_CHUNK;
use crate::DaemonError;

/// Magic prefix of a partial-state file: vecycled partial, format 1.
pub const PARTIAL_MAGIC: &[u8; 8] = b"VECYPAR1";

/// Magic prefix of a delta log's header frame: vecycled log, format 1.
pub const LOG_MAGIC: &[u8; 8] = b"VECYLOG1";

/// Largest body a delta-log frame may declare: the starting counter
/// plus one boundary's worth of the widest step. Checked before any
/// frame is sliced.
pub const LOG_FRAME_CAP: u32 = (8 + STREAM_CHUNK * Step::MAX_LEN) as u32;

/// Bytes of the identity header (magic, job, fingerprint) that open a
/// partial file; the state's own fields follow.
const PARTIAL_ID_LEN: usize = 24;

/// Body length of the log's header frame.
const LOG_HEADER_LEN: usize = 40;

/// A stable fingerprint of a scenario (FNV-1a 64 over its key-value
/// form) — partial files are keyed by `(job, fingerprint)` so a resume
/// for a different spec can never pick up the wrong state.
pub fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    u64::from_be_bytes(Fnv1a64::digest(spec.to_kv().as_bytes()))
}

/// One resolved transition of a [`SessionState`]: what a data message
/// did, with checksums and back-references already looked up. The
/// delta log records these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Page `idx` now holds `digest`.
    Write {
        /// Page index.
        idx: u64,
        /// The page's new content digest.
        digest: PageDigest,
    },
    /// A pre-copy round delimiter (the next one in order).
    RoundEnd,
    /// The stop-and-copy delimiter.
    StopEnd,
}

impl Step {
    /// Encoded length of the widest step (a page write).
    const MAX_LEN: usize = 1 + 8 + PageDigest::LEN;

    const TAG_WRITE: u8 = 0;
    const TAG_ROUND_END: u8 = 1;
    const TAG_STOP_END: u8 = 2;

    fn encode(self, out: &mut Vec<u8>) {
        match self {
            Step::Write { idx, digest } => {
                out.push(Step::TAG_WRITE);
                out.extend_from_slice(&idx.to_be_bytes());
                out.extend_from_slice(digest.as_bytes());
            }
            Step::RoundEnd => out.push(Step::TAG_ROUND_END),
            Step::StopEnd => out.push(Step::TAG_STOP_END),
        }
    }

    /// Decodes the step at the start of `rest` and moves past it.
    fn decode(rest: &mut &[u8], pages: u64) -> Result<Step, LogStop> {
        let (step, len) = match rest.first() {
            Some(&Step::TAG_WRITE) => {
                let body = rest.get(1..Step::MAX_LEN).ok_or(LogStop::Malformed)?;
                let idx = u64::from_be_bytes(body[..8].try_into().expect("8"));
                if idx >= pages {
                    return Err(LogStop::PageIndex);
                }
                let digest = PageDigest::new(body[8..].try_into().expect("16"));
                (Step::Write { idx, digest }, Step::MAX_LEN)
            }
            Some(&Step::TAG_ROUND_END) => (Step::RoundEnd, 1),
            Some(&Step::TAG_STOP_END) => (Step::StopEnd, 1),
            _ => return Err(LogStop::Malformed),
        };
        *rest = &rest[len..];
        Ok(step)
    }
}

/// The counters that decide which step a stream may take next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    applied: u64,
    expected_round: u64,
    finished: bool,
}

impl Cursor {
    fn check_open(&self) -> Result<(), DaemonError> {
        if self.finished {
            return Err(DaemonError::Protocol(
                "data message after the stop-and-copy delimiter".into(),
            ));
        }
        Ok(())
    }

    /// Moves past `step`, or says why a stream cannot take it here.
    fn advance(&mut self, step: Step, pages: u64) -> Result<(), DaemonError> {
        self.check_open()?;
        match step {
            Step::Write { idx, .. } if idx >= pages => {
                return Err(DaemonError::Corrupt(format!(
                    "page index {idx} beyond guest size {pages}"
                )));
            }
            Step::Write { .. } => {}
            Step::RoundEnd => self.expected_round += 1,
            Step::StopEnd if self.expected_round < 2 => {
                return Err(DaemonError::Protocol(
                    "stop-and-copy delimiter before any pre-copy round".into(),
                ));
            }
            Step::StopEnd => self.finished = true,
        }
        self.applied += 1;
        Ok(())
    }
}

/// The deterministic apply-state of one migration stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionState {
    pages: u64,
    mem: Vec<PageDigest>,
    landed: Vec<bool>,
    /// First-wins digest per page index, `None` until the page is
    /// first written.
    anchors: Vec<Option<PageDigest>>,
    cursor: Cursor,
}

impl SessionState {
    /// The pre-stream state: the warm checkpoint image, or all-zero
    /// pages for a cold start.
    pub fn fresh(spec: &ScenarioSpec, initial: &DigestMemory) -> SessionState {
        let pages = spec.pages();
        let mem = if spec.warm {
            initial.snapshot().into_digests()
        } else {
            vec![PageDigest::ZERO_PAGE; pages as usize]
        };
        SessionState {
            pages,
            mem,
            landed: vec![false; pages as usize],
            anchors: vec![None; pages as usize],
            cursor: Cursor {
                applied: 0,
                expected_round: 1,
                finished: false,
            },
        }
    }

    /// Messages applied so far (pages, round delimiters, everything).
    pub fn applied(&self) -> u64 {
        self.cursor.applied
    }

    /// The next round delimiter this state expects.
    pub fn expected_round(&self) -> u64 {
        self.cursor.expected_round
    }

    /// Whether the stop-and-copy delimiter has been applied — the
    /// stream is complete and only the COMPLETE/DONE exchange remains.
    pub fn finished(&self) -> bool {
        self.cursor.finished
    }

    /// The reconstructed digests (content-hash input).
    pub fn mem(&self) -> &[PageDigest] {
        &self.mem
    }

    /// The landed pages as a partial checkpoint — the recovery unit a
    /// resumed transfer continues from.
    pub fn partial_checkpoint(&self, spec: &ScenarioSpec) -> PartialCheckpoint {
        let landed = self
            .mem
            .iter()
            .zip(&self.landed)
            .map(|(d, l)| l.then_some(*d))
            .collect();
        PartialCheckpoint::new(VmId::new(spec.vm), landed)
    }

    /// Applies one data-plane message. Identical on the destination
    /// (live stream) and the source (resume-prefix simulation).
    ///
    /// # Errors
    ///
    /// See [`SessionState::apply_step`].
    pub fn apply(
        &mut self,
        msg: &WireMsg,
        index: Option<&ChecksumIndex>,
    ) -> Result<(), DaemonError> {
        self.apply_step(msg, index).map(drop)
    }

    /// [`SessionState::apply`], returning the resolved [`Step`] the
    /// message took — what a [`PartialLog`] records.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Corrupt`] for a full page whose bytes are not its
    /// digest filler, a checksum the index lacks, a back-reference to
    /// an unsent page or a page index beyond the guest;
    /// [`DaemonError::Protocol`] for a checksum without an index, an
    /// out-of-order delimiter, a bulk exchange, or any message after
    /// the stop-and-copy delimiter.
    pub fn apply_step(
        &mut self,
        msg: &WireMsg,
        index: Option<&ChecksumIndex>,
    ) -> Result<Step, DaemonError> {
        self.cursor.check_open()?;
        let step = match msg {
            WireMsg::Full { idx, digest, page } => {
                if page.chunks(16).any(|c| c != digest.as_bytes()) {
                    return Err(DaemonError::Corrupt(format!(
                        "full page {idx} bytes do not match the digest filler"
                    )));
                }
                Step::Write {
                    idx: *idx,
                    digest: *digest,
                }
            }
            WireMsg::Checksum { idx, digest } => {
                let ix = index.ok_or_else(|| {
                    DaemonError::Protocol("checksum message without a checkpoint".into())
                })?;
                if !ix.contains(*digest) {
                    return Err(DaemonError::Corrupt(format!(
                        "checksum for page {idx} references content this side lacks"
                    )));
                }
                Step::Write {
                    idx: *idx,
                    digest: *digest,
                }
            }
            WireMsg::DedupRef { idx, source } => {
                // A back-reference means "the content page `source`
                // carried when it was first sent", even if a later
                // round rewrote that page — the engine's first-wins
                // `DedupIndex::insert_first`.
                let anchor = usize::try_from(*source)
                    .ok()
                    .and_then(|s| self.anchors.get(s).copied().flatten());
                let digest = anchor.ok_or_else(|| {
                    DaemonError::Corrupt(format!(
                        "dedup ref for page {idx} names unsent page {source}"
                    ))
                })?;
                Step::Write { idx: *idx, digest }
            }
            WireMsg::Zero { idx } => Step::Write {
                idx: *idx,
                digest: PageDigest::ZERO_PAGE,
            },
            WireMsg::RoundEnd { round } => {
                if *round != self.cursor.expected_round {
                    return Err(DaemonError::Protocol(format!(
                        "round delimiter {round} out of order, expected {}",
                        self.cursor.expected_round
                    )));
                }
                Step::RoundEnd
            }
            WireMsg::StopEnd => Step::StopEnd,
            WireMsg::BulkExchange { .. } => {
                return Err(DaemonError::Protocol(
                    "bulk exchange is destination-to-source only".into(),
                ));
            }
        };
        self.cursor.advance(step, self.pages)?;
        self.land(step);
        Ok(step)
    }

    /// The memory side of a step the cursor already admitted.
    fn land(&mut self, step: Step) {
        if let Step::Write { idx, digest } = step {
            let i = idx as usize;
            self.mem[i] = digest;
            self.landed[i] = true;
            self.anchors[i].get_or_insert(digest);
        }
    }

    /// Feeds the state's fields, in partial-file order, to `put`:
    /// counters, memory image with landed map, then the dedup anchors
    /// sorted by page index. The one field list behind both
    /// [`SessionState::encode`] and [`SessionState::state_hash`].
    fn fields(&self, put: &mut impl FnMut(&[u8])) {
        put(&self.cursor.applied.to_be_bytes());
        put(&self.cursor.expected_round.to_be_bytes());
        put(&[u8::from(self.cursor.finished)]);
        put(&self.pages.to_be_bytes());
        for (digest, landed) in self.mem.iter().zip(&self.landed) {
            put(digest.as_bytes());
            put(&[u8::from(*landed)]);
        }
        put(&(self.anchor_count() as u64).to_be_bytes());
        for (idx, digest) in self.anchors.iter().enumerate() {
            if let Some(digest) = digest {
                put(&(idx as u64).to_be_bytes());
                put(digest.as_bytes());
            }
        }
    }

    fn anchor_count(&self) -> usize {
        self.anchors.iter().filter(|a| a.is_some()).count()
    }

    /// FNV-1a 64 over everything that determines future behavior — the
    /// partial-file fields after the identity header — fed straight to
    /// the hasher without building the encoding. Two states with equal
    /// hashes apply any suffix identically.
    pub fn state_hash(&self) -> [u8; 8] {
        let mut h = Fnv1a64::new();
        self.fields(&mut |b| h.update(b));
        h.finalize()
    }

    /// Serializes the state (with its job/spec identity) into the
    /// partial-file format: magic, job, fingerprint, counters, memory
    /// image with landed map, sorted anchors, then the sealed trailer.
    pub fn encode(&self, job: u64, fingerprint: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            64 + self.mem.len() * (PageDigest::LEN + 1) + self.anchor_count() * 24,
        );
        buf.extend_from_slice(PARTIAL_MAGIC);
        buf.extend_from_slice(&job.to_be_bytes());
        buf.extend_from_slice(&fingerprint.to_be_bytes());
        self.fields(&mut |b| buf.extend_from_slice(b));
        sealed::seal(&mut buf);
        buf
    }

    /// Decodes a partial file, returning `(job, fingerprint, state)`.
    /// Every length is validated before use, and the trailer checksum
    /// must match — a torn or tampered file is a typed error, never a
    /// panic or over-allocation.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Corrupt`] on any structural or checksum failure.
    pub fn decode(bytes: &[u8]) -> Result<(u64, u64, SessionState), DaemonError> {
        let fail = |what: &str| DaemonError::Corrupt(format!("partial state: {what}"));
        let min_len = 8 + 8 + 8 + 8 + 8 + 1 + 8 + 8 + sealed::TRAILER_LEN;
        let body = sealed::unseal(bytes, min_len).map_err(|e| fail(&e.to_string()))?;
        if &body[0..8] != PARTIAL_MAGIC {
            return Err(fail("bad magic"));
        }
        let u64_at = |off: usize| u64::from_be_bytes(body[off..off + 8].try_into().expect("8"));
        let job = u64_at(8);
        let fingerprint = u64_at(16);
        let applied = u64_at(24);
        let expected_round = u64_at(32);
        let finished = match body[40] {
            0 => false,
            1 => true,
            b => return Err(fail(&format!("finished flag {b}"))),
        };
        let pages = u64_at(41);
        let per_page = PageDigest::LEN + 1;
        let mem_len = (pages as usize)
            .checked_mul(per_page)
            .ok_or_else(|| fail("page count overflows"))?;
        let mem_off = 49usize;
        let anchors_count_off = mem_off
            .checked_add(mem_len)
            .ok_or_else(|| fail("memory section overflows"))?;
        if body.len() < anchors_count_off.saturating_add(8) {
            return Err(fail("memory section truncated"));
        }
        let mut mem = Vec::with_capacity(pages as usize);
        let mut landed = Vec::with_capacity(pages as usize);
        for p in 0..pages as usize {
            let off = mem_off + p * per_page;
            let digest: [u8; 16] = body[off..off + 16].try_into().expect("16");
            mem.push(PageDigest::new(digest));
            landed.push(match body[off + 16] {
                0 => false,
                1 => true,
                b => return Err(fail(&format!("landed flag {b}"))),
            });
        }
        let anchor_count = u64_at(anchors_count_off);
        let anchors_off = anchors_count_off + 8;
        let anchors_len = (anchor_count as usize)
            .checked_mul(24)
            .ok_or_else(|| fail("anchor count overflows"))?;
        if anchors_off.checked_add(anchors_len) != Some(body.len()) {
            return Err(fail("anchor section length mismatch"));
        }
        let mut anchors = vec![None; pages as usize];
        for a in 0..anchor_count as usize {
            let off = anchors_off + a * 24;
            let idx = u64_at(off);
            if idx >= pages {
                return Err(fail(&format!("anchor index {idx} beyond {pages} pages")));
            }
            let digest: [u8; 16] = body[off + 8..off + 24].try_into().expect("16");
            anchors[idx as usize] = Some(PageDigest::new(digest));
        }
        Ok((
            job,
            fingerprint,
            SessionState {
                pages,
                mem,
                landed,
                anchors,
                cursor: Cursor {
                    applied,
                    expected_round,
                    finished,
                },
            },
        ))
    }
}

/// The state hash of an encoded partial file: the FNV of its field
/// bytes, which is what [`SessionState::state_hash`] streams.
fn encoded_state_hash(encoded: &[u8]) -> [u8; 8] {
    sealed::checksum(&encoded[PARTIAL_ID_LEN..encoded.len() - sealed::TRAILER_LEN])
}

/// The base-snapshot path for `(job, fingerprint)` under `dir`.
pub fn partial_path(dir: &Path, job: u64, fingerprint: u64) -> PathBuf {
    dir.join(format!("partial-job{job}-{fingerprint:016x}.bin"))
}

/// The delta-log path for `(job, fingerprint)` under `dir`.
pub fn log_path(dir: &Path, job: u64, fingerprint: u64) -> PathBuf {
    partial_path(dir, job, fingerprint).with_extension("log")
}

/// Persists a partial state as the base snapshot, through
/// [`atomic_replace`] at [`SyncLevel::Unsynced`], on purpose: a torn or
/// missing file after power loss fails its trailer on load and costs
/// only a fresh transfer. The WAL, which must not lose records, does
/// sync. A delta log bound to a different snapshot stops applying.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_partial(
    dir: &Path,
    job: u64,
    fingerprint: u64,
    state: &SessionState,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = partial_path(dir, job, fingerprint);
    atomic_replace(&path, SyncLevel::Unsynced, &state.encode(job, fingerprint))
}

/// Loads a partial state, if an intact snapshot exists for this exact
/// `(job, fingerprint)`, with every whole frame of its delta log
/// replayed on top. A corrupt or mismatched snapshot yields `None` —
/// the resume machinery falls back to a fresh transfer.
pub fn load_partial(dir: &Path, job: u64, fingerprint: u64) -> Option<SessionState> {
    let bytes = std::fs::read(partial_path(dir, job, fingerprint)).ok()?;
    let (j, f, mut state) = match SessionState::decode(&bytes) {
        Ok(decoded) if (decoded.0, decoded.1) == (job, fingerprint) => decoded,
        _ => return None,
    };
    if let Ok(log) = std::fs::read(log_path(dir, j, f)) {
        replay_log(&mut state, j, f, &log);
    }
    Some(state)
}

/// Removes a session's snapshot and delta log (job finished or state
/// invalidated).
pub fn drop_partial(dir: &Path, job: u64, fingerprint: u64) {
    let _ = std::fs::remove_file(log_path(dir, job, fingerprint));
    let _ = std::fs::remove_file(partial_path(dir, job, fingerprint));
}

/// Why [`replay_log`] stopped before the end of a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogStop {
    /// The frame is torn, over [`LOG_FRAME_CAP`] or fails its trailer.
    Frame(SealError),
    /// The first frame is not a log header.
    Header,
    /// The header binds the log to another job, spec or base snapshot.
    Unbound,
    /// The frame does not start where the previous one ended.
    Sequence,
    /// A step has an unknown tag or is cut short.
    Malformed,
    /// A page write names an index beyond the guest.
    PageIndex,
    /// The steps are well formed but no stream could take them here.
    Illegal,
}

/// What [`replay_log`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogReplay {
    /// Step frames applied.
    pub frames: u64,
    /// Log bytes consumed: the header and every applied frame.
    pub valid: usize,
    /// Why replay stopped early; `None` when the whole log applied.
    pub stop: Option<LogStop>,
}

/// Replays a delta log onto its base snapshot `state`. Each frame
/// applies whole or not at all, and replay stops at the first frame
/// that is torn, over the cap, out of sequence or not applicable, so
/// `state` always ends on a whole-boundary prefix. A log whose header
/// does not match `(job, fingerprint, state)` applies nothing; an
/// empty one is no log at all.
pub fn replay_log(state: &mut SessionState, job: u64, fingerprint: u64, log: &[u8]) -> LogReplay {
    let mut out = LogReplay {
        frames: 0,
        valid: 0,
        stop: None,
    };
    if log.is_empty() {
        return out;
    }
    let bound = log_header(job, fingerprint, state.applied(), state.state_hash());
    match sealed::decode_frame(log, LOG_FRAME_CAP) {
        Ok((body, used)) if body == bound => out.valid = used,
        Ok((body, _)) => {
            let header = body.len() == LOG_HEADER_LEN && body.starts_with(LOG_MAGIC);
            out.stop = Some(if header {
                LogStop::Unbound
            } else {
                LogStop::Header
            });
            return out;
        }
        Err(e) => {
            out.stop = Some(LogStop::Frame(e));
            return out;
        }
    }
    while out.valid < log.len() {
        match replay_frame(state, &log[out.valid..]) {
            Ok(used) => {
                out.frames += 1;
                out.valid += used;
            }
            Err(stop) => {
                out.stop = Some(stop);
                break;
            }
        }
    }
    out
}

/// Decodes, checks and applies the frame at the start of `bytes`,
/// returning its length.
fn replay_frame(state: &mut SessionState, bytes: &[u8]) -> Result<usize, LogStop> {
    let (body, used) = sealed::decode_frame(bytes, LOG_FRAME_CAP).map_err(LogStop::Frame)?;
    let start = body.get(..8).ok_or(LogStop::Malformed)?;
    if u64::from_be_bytes(start.try_into().expect("8")) != state.applied() {
        return Err(LogStop::Sequence);
    }
    // Admit the whole frame on a copy of the cursor before landing any
    // of it, so a bad step leaves the state at the previous boundary.
    // Decoding twice keeps replay free of allocation.
    let pages = state.pages;
    let mut cursor = state.cursor;
    let mut rest = &body[8..];
    while !rest.is_empty() {
        let step = Step::decode(&mut rest, pages)?;
        cursor.advance(step, pages).map_err(|_| LogStop::Illegal)?;
    }
    state.cursor = cursor;
    let mut rest = &body[8..];
    while let Ok(step) = Step::decode(&mut rest, pages) {
        state.land(step);
    }
    Ok(used)
}

/// The body of a log header frame.
fn log_header(job: u64, fingerprint: u64, applied: u64, hash: [u8; 8]) -> [u8; LOG_HEADER_LEN] {
    let mut body = [0u8; LOG_HEADER_LEN];
    body[..8].copy_from_slice(LOG_MAGIC);
    body[8..16].copy_from_slice(&job.to_be_bytes());
    body[16..24].copy_from_slice(&fingerprint.to_be_bytes());
    body[24..32].copy_from_slice(&applied.to_be_bytes());
    body[32..].copy_from_slice(&hash);
    body
}

/// The destination's open partial-state files for one session: the
/// base snapshot, written once by [`PartialLog::begin`], and the delta
/// log that [`PartialLog::record`] appends to at every boundary. Both
/// are unsynced for the reason [`save_partial`] gives; a crash leaves a
/// whole-frame prefix of the log, which is what [`load_partial`]
/// replays.
#[derive(Debug)]
pub struct PartialLog {
    file: File,
    /// Body of the frame being built: its starting counter, then the
    /// steps recorded since the last boundary.
    pending: Vec<u8>,
    steps: usize,
    start: u64,
    frame: Vec<u8>,
    written: u64,
}

impl PartialLog {
    /// Writes `base` as the session's snapshot and starts a fresh log
    /// bound to it, replacing any earlier files for `(job, fingerprint)`.
    /// The snapshot and the header's state hash come from one encoding.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn begin(
        dir: &Path,
        job: u64,
        fingerprint: u64,
        base: &SessionState,
    ) -> io::Result<PartialLog> {
        std::fs::create_dir_all(dir)?;
        let snapshot = base.encode(job, fingerprint);
        let header = log_header(
            job,
            fingerprint,
            base.applied(),
            encoded_state_hash(&snapshot),
        );
        let mut frame = Vec::with_capacity(LOG_FRAME_CAP as usize + 12);
        sealed::encode_frame(&header, &mut frame);
        // Snapshot first: a crash between the two writes leaves the new
        // snapshot beside a log bound to the old one, which replays
        // nothing.
        let path = partial_path(dir, job, fingerprint);
        atomic_replace(&path, SyncLevel::Unsynced, &snapshot)?;
        let log = log_path(dir, job, fingerprint);
        atomic_replace(&log, SyncLevel::Unsynced, &frame)?;
        let file = OpenOptions::new().append(true).open(&log)?;
        let mut pending = Vec::with_capacity(LOG_FRAME_CAP as usize);
        pending.extend_from_slice(&base.applied().to_be_bytes());
        Ok(PartialLog {
            file,
            pending,
            steps: 0,
            start: base.applied(),
            written: (snapshot.len() + frame.len()) as u64,
            frame,
        })
    }

    /// Records the next applied step, appending a frame at a boundary:
    /// 64 steps since the last one (the source's write batch), or a
    /// delimiter. Returns whether it appended.
    ///
    /// # Errors
    ///
    /// Propagates write errors; the log should then be abandoned.
    pub fn record(&mut self, step: Step) -> io::Result<bool> {
        step.encode(&mut self.pending);
        self.steps += 1;
        if self.steps == STREAM_CHUNK || !matches!(step, Step::Write { .. }) {
            return self.flush();
        }
        Ok(false)
    }

    /// Appends the steps recorded since the last boundary as one frame,
    /// if there are any. Returns whether it appended.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub(crate) fn flush(&mut self) -> io::Result<bool> {
        if self.steps == 0 {
            return Ok(false);
        }
        self.frame.clear();
        sealed::encode_frame(&self.pending, &mut self.frame);
        self.file.write_all(&self.frame)?;
        self.written += self.frame.len() as u64;
        self.start += self.steps as u64;
        self.steps = 0;
        self.pending.clear();
        self.pending.extend_from_slice(&self.start.to_be_bytes());
        Ok(true)
    }

    /// Bytes written to the snapshot and the log so far.
    pub(crate) fn written(&self) -> u64 {
        self.written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    fn state_with_traffic() -> (ScenarioSpec, SessionState) {
        let spec = ScenarioSpec::golden(0x5e55);
        let initial = scenario::initial_memory(&spec).unwrap();
        let mut st = SessionState::fresh(&spec, &initial);
        for i in 0..40u64 {
            st.apply(
                &WireMsg::full_filler(i, PageDigest::from_content_id(i)),
                None,
            )
            .unwrap();
        }
        st.apply(&WireMsg::DedupRef { idx: 40, source: 3 }, None)
            .unwrap();
        st.apply(&WireMsg::Zero { idx: 41 }, None).unwrap();
        st.apply(&WireMsg::RoundEnd { round: 1 }, None).unwrap();
        (spec, st)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vecycle-partial-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A cold 1 MiB guest and a seeded stream over it: three pre-copy
    /// rounds of full pages, back-references and zero pages, then a
    /// stop-and-copy flush. Long enough to cross several boundaries.
    fn seeded_stream(seed: u64) -> (ScenarioSpec, SessionState, Vec<WireMsg>) {
        let spec = ScenarioSpec {
            ram_mib: 1,
            warm: false,
            ..ScenarioSpec::golden(seed)
        };
        let initial = scenario::initial_memory(&spec).unwrap();
        let base = SessionState::fresh(&spec, &initial);
        let pages = spec.pages();
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut msgs = Vec::new();
        let mut sent = Vec::new();
        for round in 1..=4u64 {
            let count = if round == 4 { 20 } else { 90 + next() % 40 };
            for _ in 0..count {
                let idx = next() % pages;
                msgs.push(match next() % 8 {
                    0 => WireMsg::Zero { idx },
                    1 | 2 if !sent.is_empty() => WireMsg::DedupRef {
                        idx,
                        source: sent[(next() % sent.len() as u64) as usize],
                    },
                    _ => {
                        sent.push(idx);
                        WireMsg::full_filler(idx, PageDigest::from_content_id(1 + next() % 50))
                    }
                });
            }
            msgs.push(if round == 4 {
                WireMsg::StopEnd
            } else {
                WireMsg::RoundEnd { round }
            });
        }
        (spec, base, msgs)
    }

    /// Runs `msgs` through a live state and a [`PartialLog`], returning
    /// the log bytes and, for every boundary, the log length after it
    /// and the live state at it.
    fn logged_run(
        dir: &Path,
        base: &SessionState,
        msgs: &[WireMsg],
    ) -> (Vec<u8>, Vec<(usize, SessionState)>) {
        let mut live = base.clone();
        let mut log = PartialLog::begin(dir, 3, 0xfeed, &live).unwrap();
        let header_len = std::fs::metadata(log_path(dir, 3, 0xfeed)).unwrap().len() as usize;
        let mut boundaries = vec![(header_len, live.clone())];
        for msg in msgs {
            let step = live.apply_step(msg, None).unwrap();
            if log.record(step).unwrap() {
                let len = std::fs::metadata(log_path(dir, 3, 0xfeed)).unwrap().len();
                boundaries.push((len as usize, live.clone()));
            }
        }
        (std::fs::read(log_path(dir, 3, 0xfeed)).unwrap(), boundaries)
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let (spec, st) = state_with_traffic();
        let fp = spec_fingerprint(&spec);
        let bytes = st.encode(9, fp);
        let (job, f, back) = SessionState::decode(&bytes).unwrap();
        assert_eq!((job, f), (9, fp));
        assert_eq!(back, st);
        assert_eq!(back.state_hash(), st.state_hash());
    }

    #[test]
    fn state_hash_streams_exactly_the_encoded_fields() {
        let (spec, st) = state_with_traffic();
        let initial = scenario::initial_memory(&spec).unwrap();
        for s in [st, SessionState::fresh(&spec, &initial)] {
            assert_eq!(s.state_hash(), encoded_state_hash(&s.encode(1, 2)));
        }
    }

    #[test]
    fn forged_anchor_count_is_rejected_without_overflow() {
        let (spec, st) = state_with_traffic();
        let bytes = st.encode(1, spec_fingerprint(&spec));
        // The anchor count sits just before the anchors and the trailer.
        let count_off = bytes.len() - sealed::TRAILER_LEN - st.anchor_count() * 24 - 8;
        for forged in [u64::MAX, u64::MAX / 24, (usize::MAX / 24) as u64 - 1] {
            let mut bad = bytes.clone();
            bad[count_off..count_off + 8].copy_from_slice(&forged.to_be_bytes());
            sealed::reseal(&mut bad);
            let err = SessionState::decode(&bad).unwrap_err();
            assert!(err.to_string().contains("anchor"), "count={forged}: {err}");
        }
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let (spec, st) = state_with_traffic();
        let bytes = st.encode(1, spec_fingerprint(&spec));
        for pos in [0, 8, 24, 40, 49, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x5A;
            assert!(
                SessionState::decode(&bad).is_err(),
                "flip at {pos} must fail decode"
            );
        }
        for cut in [0, 10, bytes.len() - 1] {
            assert!(SessionState::decode(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn save_load_drop_partial_lifecycle() {
        let dir = scratch("lifecycle");
        let (spec, st) = state_with_traffic();
        let fp = spec_fingerprint(&spec);
        assert!(load_partial(&dir, 5, fp).is_none());
        save_partial(&dir, 5, fp, &st).unwrap();
        assert_eq!(load_partial(&dir, 5, fp).unwrap(), st);
        // Wrong identity never matches.
        assert!(load_partial(&dir, 6, fp).is_none());
        assert!(load_partial(&dir, 5, fp ^ 1).is_none());
        drop_partial(&dir, 5, fp);
        assert!(load_partial(&dir, 5, fp).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_boundary_of_a_seeded_stream_loads_back_exactly() {
        for seed in [1, 2, 3] {
            let dir = scratch(&format!("seeded-{seed}"));
            let (_, base, msgs) = seeded_stream(seed);
            let mut live = base.clone();
            let mut log = PartialLog::begin(&dir, 3, 0xfeed, &live).unwrap();
            assert_eq!(load_partial(&dir, 3, 0xfeed).unwrap(), live);
            let mut boundaries = 0;
            for (i, msg) in msgs.iter().enumerate() {
                let step = live.apply_step(msg, None).unwrap();
                if log.record(step).unwrap() {
                    boundaries += 1;
                    assert_eq!(
                        load_partial(&dir, 3, 0xfeed).as_ref(),
                        Some(&live),
                        "seed {seed}, boundary after message {i}"
                    );
                }
                // A second session resumes halfway from what loads and
                // starts its own snapshot and log.
                if i == msgs.len() / 2 {
                    log.flush().unwrap();
                    live = load_partial(&dir, 3, 0xfeed).unwrap();
                    log = PartialLog::begin(&dir, 3, 0xfeed, &live).unwrap();
                }
            }
            assert!(live.finished());
            assert!(boundaries >= 6, "seed {seed}: only {boundaries} boundaries");
            drop_partial(&dir, 3, 0xfeed);
            assert!(load_partial(&dir, 3, 0xfeed).is_none());
            assert!(!log_path(&dir, 3, 0xfeed).exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn truncating_the_log_anywhere_loads_the_last_whole_frame() {
        let dir = scratch("torn");
        let (_, base, msgs) = seeded_stream(7);
        let (log, boundaries) = logged_run(&dir, &base, &msgs);
        assert_eq!(boundaries.last().unwrap().0, log.len());
        for cut in 0..=log.len() {
            let want = boundaries
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .map_or(&base, |(_, st)| st);
            let mut st = base.clone();
            let replay = replay_log(&mut st, 3, 0xfeed, &log[..cut]);
            assert_eq!(&st, want, "cut at {cut}");
            assert_eq!(replay.stop.is_none(), replay.valid == cut, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_flipped_byte_stops_replay_at_the_previous_boundary() {
        let dir = scratch("flip");
        let (_, base, msgs) = seeded_stream(11);
        let (log, boundaries) = logged_run(&dir, &base, &msgs);
        for pos in 0..log.len() {
            let mut bad = log.clone();
            bad[pos] ^= 0x20;
            // The flipped frame and everything after it are dropped.
            let want = boundaries
                .iter()
                .rev()
                .find(|(end, _)| *end <= pos)
                .map_or(&base, |(_, st)| st);
            let mut st = base.clone();
            let replay = replay_log(&mut st, 3, 0xfeed, &bad);
            assert_eq!(&st, want, "flip at {pos}");
            assert!(replay.stop.is_some(), "flip at {pos}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_log_bound_to_another_snapshot_is_ignored() {
        let dir = scratch("stale");
        let (_, base, msgs) = seeded_stream(5);
        let (log, boundaries) = logged_run(&dir, &base, &msgs[..140]);
        assert!(boundaries.len() > 2);
        // A later attempt's snapshot beside the earlier attempt's log:
        // the log's header names the old base, so nothing replays.
        let later = &boundaries[1].1;
        save_partial(&dir, 3, 0xfeed, later).unwrap();
        assert_eq!(load_partial(&dir, 3, 0xfeed).as_ref(), Some(later));
        let mut st = later.clone();
        assert_eq!(
            replay_log(&mut st, 3, 0xfeed, &log).stop,
            Some(LogStop::Unbound)
        );
        // So is a log for another job or spec over the same base.
        for (job, fp) in [(4, 0xfeed), (3, 0xbeef)] {
            let mut st = base.clone();
            let replay = replay_log(&mut st, job, fp, &log);
            assert_eq!(replay.stop, Some(LogStop::Unbound));
            assert_eq!(st, base);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_replayed_frame_out_of_sequence_stops_replay() {
        let dir = scratch("sequence");
        let (_, base, msgs) = seeded_stream(9);
        let (log, boundaries) = logged_run(&dir, &base, &msgs);
        // Append the first step frame again after the last one.
        let (first_end, second_end) = (boundaries[0].0, boundaries[1].0);
        let mut doubled = log.clone();
        doubled.extend_from_slice(&log[first_end..second_end]);
        let mut st = base.clone();
        let replay = replay_log(&mut st, 3, 0xfeed, &doubled);
        assert_eq!(replay.stop, Some(LogStop::Sequence));
        assert_eq!(
            (replay.valid, &st),
            (log.len(), &boundaries.last().unwrap().1)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_frame_with_a_bad_step_applies_none_of_it() {
        let dir = scratch("bad-step");
        let (_, base, _) = seeded_stream(15);
        let (header, _) = logged_run(&dir, &base, &[]);
        let write = Step::Write {
            idx: 1,
            digest: PageDigest::from_content_id(4),
        };
        let beyond = Step::Write {
            idx: base.pages,
            digest: PageDigest::from_content_id(4),
        };
        for (tail, stop) in [
            (vec![write, Step::StopEnd], LogStop::Illegal),
            (vec![write, beyond], LogStop::PageIndex),
            (vec![write, write], LogStop::Sequence),
        ] {
            let start = if stop == LogStop::Sequence { 1u64 } else { 0 };
            let mut body = start.to_be_bytes().to_vec();
            for step in tail {
                step.encode(&mut body);
            }
            let mut log = header.clone();
            sealed::encode_frame(&body, &mut log);
            let mut st = base.clone();
            let replay = replay_log(&mut st, 3, 0xfeed, &log);
            assert_eq!((replay.stop, replay.valid), (Some(stop), header.len()));
            assert_eq!(st, base, "{stop:?}: nothing of the frame lands");
        }
        let mut log = header.clone();
        sealed::encode_frame(&[0, 0, 0, 0, 0, 0, 0, 0, 9], &mut log);
        let replay = replay_log(&mut base.clone(), 3, 0xfeed, &log);
        assert_eq!(replay.stop, Some(LogStop::Malformed));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn boundary_cost_is_per_message_not_per_guest() {
        let dir = scratch("cost");
        let (_, base, msgs) = seeded_stream(13);
        let (log, boundaries) = logged_run(&dir, &base, &msgs);
        for pair in boundaries.windows(2) {
            let steps = pair[1].1.applied() - pair[0].1.applied();
            let frame = (pair[1].0 - pair[0].0) as u64;
            assert!(steps as usize <= STREAM_CHUNK);
            assert!(frame <= 4 + 8 + steps * Step::MAX_LEN as u64 + 8);
        }
        assert!(log.len() < msgs.len() * Step::MAX_LEN + boundaries.len() * 20 + 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_covers_anchors_not_just_memory() {
        // Two states with identical memory but different first-wins
        // anchors must hash differently — they would apply a future
        // DedupRef differently.
        let spec = ScenarioSpec::golden(1);
        let initial = scenario::initial_memory(&spec).unwrap();
        let a_digest = PageDigest::from_content_id(7);
        let b_digest = PageDigest::from_content_id(8);
        let mut a = SessionState::fresh(&spec, &initial);
        a.apply(&WireMsg::full_filler(0, a_digest), None).unwrap();
        a.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        let mut b = SessionState::fresh(&spec, &initial);
        b.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        b.apply(&WireMsg::full_filler(0, b_digest), None).unwrap();
        assert_eq!(a.mem(), b.mem());
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn partial_checkpoint_counts_only_landed_pages() {
        let (spec, st) = state_with_traffic();
        let pc = st.partial_checkpoint(&spec);
        // 40 full + 1 dedup + 1 zero distinct page writes.
        assert_eq!(pc.landed_pages().as_u64(), 42);
        assert_eq!(pc.page_count().as_u64(), spec.pages());
    }

    #[test]
    fn spec_fingerprint_tracks_the_spec() {
        let a = ScenarioSpec::golden(1);
        let mut b = ScenarioSpec::golden(1);
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
        b.ram_mib += 1;
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
    }
}
