//! Byte-level pins for every sealed on-disk format.
//!
//! Each format is encoded from fixed inputs and its length and FNV-1a
//! 64 digest are compared against constants recorded from the encoders
//! as they stood before the formats shared one codec (the partial-state
//! delta log, which came later, from its first encoder). Any change to a
//! single on-disk byte — field order, endianness, trailer coverage,
//! frame prefix — fails here, so files written by an older build keep
//! loading.

use vecycle_checkpoint::{Checkpoint, CheckpointData, DiskStore};
use vecycle_daemon::journal::{rec, Journal, WalRecord};
use vecycle_daemon::scenario;
use vecycle_daemon::session_state::{
    load_partial, log_path, partial_path, save_partial, spec_fingerprint, PartialLog, SessionState,
};
use vecycle_hash::{Fnv1a64, Hasher};
use vecycle_mem::ByteMemory;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_trace::{Fingerprint, Trace};
use vecycle_types::{Bytes, PageCount, PageDigest, SimDuration, SimTime, VmId};

/// `(length, FNV-1a 64 of the whole encoding)`.
fn pin(bytes: &[u8]) -> (usize, u64) {
    (bytes.len(), u64::from_be_bytes(Fnv1a64::digest(bytes)))
}

fn digest_checkpoint() -> Vec<u8> {
    let mut digests: Vec<PageDigest> = (0..48u64)
        .map(|i| PageDigest::from_content_id(1 + i % 19))
        .collect();
    digests[7] = PageDigest::ZERO_PAGE;
    let cp = Checkpoint::from_parts(
        VmId::new(3),
        SimTime::EPOCH + SimDuration::from_hours(2),
        CheckpointData::Digests(digests),
    )
    .unwrap();
    let mut buf = Vec::new();
    cp.write_to(&mut buf).unwrap();
    buf
}

fn page_checkpoint() -> Vec<u8> {
    let mem = ByteMemory::with_distinct_content(PageCount::new(2), 11);
    let cp = Checkpoint::capture_bytes(VmId::new(9), SimTime::EPOCH, &mem);
    let mut buf = Vec::new();
    cp.write_to(&mut buf).unwrap();
    buf
}

fn trace() -> Vec<u8> {
    let fp = |hours: u64, ids: &[u64]| {
        Fingerprint::new(
            SimTime::EPOCH + SimDuration::from_hours(hours),
            ids.iter()
                .map(|&i| PageDigest::from_content_id(i))
                .collect(),
        )
    };
    let t = Trace::from_parts(
        Bytes::from_pages(8),
        vec![fp(0, &[1, 2, 3, 4, 5, 6, 7, 8]), fp(6, &[1, 2, 3, 0, 99])],
    );
    let mut buf = Vec::new();
    t.write_to(&mut buf).unwrap();
    buf
}

fn wal_records() -> Vec<WalRecord> {
    let mut submitted = WalRecord::bare(rec::SUBMITTED, 1);
    submitted.spec = ScenarioSpec::golden(5).to_kv();
    submitted.peer = "127.0.0.1:7000".into();
    let mut transferring = WalRecord::bare(rec::TRANSFERRING, 1);
    transferring.pages_landed = 192;
    let mut failed = WalRecord::bare(rec::FAILED, 2);
    failed.detail = "peer i/o: connection reset \"quoted\"".into();
    let mut note = WalRecord::bare(rec::NOTE, 0);
    note.detail = "recovered 1 job".into();
    vec![
        submitted,
        WalRecord::bare(rec::CLAIMED, 1),
        transferring,
        WalRecord::bare(rec::DONE, 1),
        failed,
        note,
    ]
}

fn partial_state() -> (u64, SessionState) {
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
    (spec_fingerprint(&spec), st)
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("vecycle-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn checkpoint_bytes_are_pinned() {
    assert_eq!(pin(&digest_checkpoint()), (808, 0x01bd_eb28_24d7_e664));
    assert_eq!(pin(&page_checkpoint()), (8232, 0xd6d8_2469_3204_febf));
    // The durable store writes exactly the wire image.
    let dir = scratch_dir("ckpt");
    let store = DiskStore::open(&dir).unwrap();
    let cp = Checkpoint::read_from(&digest_checkpoint()[..]).unwrap();
    store.save(&cp).unwrap();
    assert_eq!(
        std::fs::read(dir.join("vm-3.ckpt")).unwrap(),
        digest_checkpoint()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_bytes_are_pinned() {
    assert_eq!(pin(&trace()), (272, 0x5359_ae0b_daa5_6f7f));
}

#[test]
fn wal_bytes_are_pinned_for_append_and_compact() {
    let dir = scratch_dir("wal");
    let (journal, _) = Journal::open(&dir).unwrap();
    for r in &wal_records() {
        journal.append(r).unwrap();
    }
    let appended = std::fs::read(journal.path()).unwrap();
    assert_eq!(pin(&appended), (722, 0xf845_35c1_70ae_ee8e));
    // Compaction re-sequences from 1, so rewriting the same records
    // reproduces the appended file byte for byte.
    journal.compact(&wal_records()).unwrap();
    assert_eq!(std::fs::read(journal.path()).unwrap(), appended);
    drop(journal);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_state_bytes_and_state_hash_are_pinned() {
    let (fp, st) = partial_state();
    let bytes = st.encode(9, fp);
    assert_eq!(pin(&bytes), (18481, 0xf4da_bbe1_60b5_31c3));
    assert_eq!(u64::from_be_bytes(st.state_hash()), 0x102a_fb8b_abc9_da0a);
    // The partial file is exactly the encoding.
    let dir = scratch_dir("partial");
    save_partial(&dir, 9, fp, &st).unwrap();
    assert_eq!(std::fs::read(partial_path(&dir, 9, fp)).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_log_bytes_are_pinned() {
    let spec = ScenarioSpec::golden(0x5e55);
    let fp = spec_fingerprint(&spec);
    let initial = scenario::initial_memory(&spec).unwrap();
    let base = SessionState::fresh(&spec, &initial);
    let dir = scratch_dir("log");
    let mut log = PartialLog::begin(&dir, 9, fp, &base).unwrap();
    // 70 page writes cross one 64-step boundary, the round delimiter
    // closes the second frame, and the stop closes the third.
    let mut msgs: Vec<WireMsg> = (0..70u64)
        .map(|i| WireMsg::full_filler(i, PageDigest::from_content_id(i)))
        .collect();
    msgs.extend([
        WireMsg::DedupRef { idx: 70, source: 3 },
        WireMsg::Zero { idx: 71 },
        WireMsg::RoundEnd { round: 1 },
        WireMsg::full_filler(5, PageDigest::from_content_id(99)),
        WireMsg::StopEnd,
    ]);
    let mut st = base.clone();
    for msg in &msgs {
        log.record(st.apply_step(msg, None).unwrap()).unwrap();
    }
    let bytes = std::fs::read(log_path(&dir, 9, fp)).unwrap();
    // Header 52 B, then frames of 64, 9 and 2 steps: 1620 + 221 + 46 B.
    assert_eq!(pin(&bytes), (1939, 0x2fbf_1fb6_b728_e5c6));
    // The snapshot beside the log is the base state's partial-file
    // encoding, and the two load back to the live state.
    assert_eq!(
        std::fs::read(partial_path(&dir, 9, fp)).unwrap(),
        base.encode(9, fp)
    );
    assert_eq!(load_partial(&dir, 9, fp).unwrap(), st);
    std::fs::remove_dir_all(&dir).unwrap();
}
