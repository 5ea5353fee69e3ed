//! The structured fuzz targets: every parser that will ever see bytes
//! from a disk or a socket.
//!
//! Each target couples a parser entry point with deterministic seed
//! inputs, a grammar dictionary for the mutator, and an outcome
//! classifier. The classifier maps every parse result onto a small
//! fixed set of *outcome classes* (one per distinct accept/reject
//! path); the driver keeps the first input to reach each class as a
//! corpus entry, which is how the corpus stays tiny, meaningful and
//! deterministic — a poor man's coverage signal that needs no
//! instrumentation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use vecycle_checkpoint::{Checkpoint, CheckpointData, EvictionPolicy};
use vecycle_cli::args::{parse_duration, parse_faults, parse_link, parse_size};
use vecycle_daemon::journal::{self, rec, WalRecord};
use vecycle_daemon::session_state::{self, LogStop, PartialLog, SessionState};
use vecycle_daemon::{scenario, DaemonError};
use vecycle_hash::sealed::{self, SealError};
use vecycle_mem::ByteMemory;
use vecycle_net::WireMsg;
use vecycle_sim::chaos::ChaosConfig;
use vecycle_sim::ScenarioSpec;
use vecycle_trace::{Fingerprint, Trace};
use vecycle_types::{Bytes, Error, PageCount, PageDigest, SimDuration, SimTime, VmId};

/// One fuzzable parser surface.
pub struct Target {
    /// Stable name: corpus subdirectory, stats label, `--target` filter.
    pub name: &'static str,
    /// Deterministic seed inputs (valid and near-valid by construction).
    pub seeds: fn() -> Vec<Vec<u8>>,
    /// Grammar tokens for dictionary splices.
    pub dict: &'static [&'static [u8]],
    /// Post-mutation fixup (the codec's trailer-fixing reseal).
    pub post: Option<fn(&mut [u8])>,
    /// Runs the parser, returning the outcome class.
    pub run: fn(&[u8]) -> &'static str,
    /// Mutant length cap (large enough for one full page where the
    /// format carries page payloads).
    pub max_len: usize,
}

/// All registered targets, in fixed order (the order is part of the
/// deterministic run: stats print in it, and each target's mutator is
/// seeded from its name, not its position).
pub fn all_targets() -> Vec<Target> {
    vec![
        Target {
            name: "ckpt_raw",
            seeds: checkpoint_seeds,
            dict: BINARY_DICT,
            post: None,
            run: run_checkpoint,
            max_len: 8192,
        },
        Target {
            name: "ckpt_fix",
            seeds: checkpoint_seeds,
            dict: BINARY_DICT,
            post: Some(sealed::reseal),
            run: run_checkpoint,
            max_len: 8192,
        },
        Target {
            name: "trace_raw",
            seeds: trace_seeds,
            dict: BINARY_DICT,
            post: None,
            run: run_trace,
            max_len: 8192,
        },
        Target {
            name: "trace_fix",
            seeds: trace_seeds,
            dict: BINARY_DICT,
            post: Some(sealed::reseal),
            run: run_trace,
            max_len: 8192,
        },
        Target {
            name: "wal_fix",
            seeds: wal_seeds,
            dict: WAL_DICT,
            post: Some(sealed::reseal_frames),
            run: run_wal,
            max_len: 4096,
        },
        Target {
            name: "partial_fix",
            seeds: partial_seeds,
            dict: PARTIAL_DICT,
            post: Some(sealed::reseal),
            run: run_partial,
            max_len: 8192,
        },
        Target {
            name: "partial_log",
            seeds: partial_log_seeds,
            dict: PARTIAL_LOG_DICT,
            post: Some(sealed::reseal_frames),
            run: run_partial_log,
            max_len: 4096,
        },
        Target {
            name: "chaos_cfg",
            seeds: || text_seeds(CHAOS_SEEDS),
            dict: CHAOS_DICT,
            post: None,
            run: run_chaos,
            max_len: 512,
        },
        Target {
            name: "evict_policy",
            seeds: || text_seeds(&["oldest", "lru", "largest_first", "staleness_score", ""]),
            dict: EVICT_DICT,
            post: None,
            run: run_evict,
            max_len: 128,
        },
        Target {
            name: "bytes_size",
            seeds: || text_seeds(&["4GiB", "512MiB", "64KiB", "100B", "4096", "0"]),
            dict: SIZE_DICT,
            post: None,
            run: run_bytes,
            max_len: 128,
        },
        Target {
            name: "cli_size",
            seeds: || text_seeds(&["4GiB", "512MiB", "18446744073709551615", "1B"]),
            dict: SIZE_DICT,
            post: None,
            run: run_cli_size,
            max_len: 128,
        },
        Target {
            name: "cli_link",
            seeds: || text_seeds(&["lan", "wan", "wan:0.5%", "wan:10"]),
            dict: LINK_DICT,
            post: None,
            run: run_cli_link,
            max_len: 128,
        },
        Target {
            name: "cli_duration",
            seeds: || text_seeds(&["16h", "2d", "0h", "100000d"]),
            dict: DURATION_DICT,
            post: None,
            run: run_cli_duration,
            max_len: 128,
        },
        Target {
            name: "cli_faults",
            seeds: || text_seeds(FAULT_SEEDS),
            dict: FAULT_DICT,
            post: None,
            run: run_cli_faults,
            max_len: 512,
        },
    ]
}

/// Looks a target up by name.
pub fn find_target(name: &str) -> Option<Target> {
    all_targets().into_iter().find(|t| t.name == name)
}

// ---------------------------------------------------------------- seeds

fn checkpoint_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    // Digest checkpoint with a mix of distinct, repeated and zero pages
    // (exercises every classifier arm downstream).
    let mut digests: Vec<PageDigest> = (0..48u64)
        .map(|i| PageDigest::from_content_id(1 + i % 19))
        .collect();
    digests[7] = PageDigest::ZERO_PAGE;
    digests[23] = PageDigest::ZERO_PAGE;
    let cp = Checkpoint::from_parts(
        VmId::new(3),
        SimTime::EPOCH + SimDuration::from_hours(2),
        CheckpointData::Digests(digests),
    )
    .expect("digest payload is valid");
    let mut buf = Vec::new();
    cp.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Zero-page-count digest checkpoint: the smallest valid file.
    let empty = Checkpoint::from_parts(
        VmId::new(0),
        SimTime::EPOCH,
        CheckpointData::Digests(Vec::new()),
    )
    .expect("empty payload is valid");
    let mut buf = Vec::new();
    empty.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Single-page full-byte checkpoint.
    let mem = ByteMemory::with_distinct_content(PageCount::new(1), 11);
    let pages = Checkpoint::capture_bytes(VmId::new(9), SimTime::EPOCH, &mem);
    let mut buf = Vec::new();
    pages.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    seeds
}

fn trace_seeds() -> Vec<Vec<u8>> {
    let mut seeds = Vec::new();
    let fp = |at_hours: u64, ids: &[u64]| {
        Fingerprint::new(
            SimTime::EPOCH + SimDuration::from_hours(at_hours),
            ids.iter()
                .map(|&i| PageDigest::from_content_id(i))
                .collect(),
        )
    };
    let trace = Trace::from_parts(
        Bytes::from_pages(8),
        vec![
            fp(0, &[1, 2, 3, 4, 5, 6, 7, 8]),
            fp(6, &[1, 2, 3, 4, 0, 6, 7, 99]),
            fp(12, &[1, 2, 3, 4, 0, 0, 77, 99]),
        ],
    );
    let mut buf = Vec::new();
    trace.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    // Empty trace (zero fingerprints).
    let empty = Trace::from_parts(Bytes::from_pages(4), Vec::new());
    let mut buf = Vec::new();
    empty.write_to(&mut buf).expect("vec write cannot fail");
    seeds.push(buf);

    seeds
}

fn wal_seeds() -> Vec<Vec<u8>> {
    let mut submitted = WalRecord::bare(rec::SUBMITTED, 1);
    submitted.seq = 1;
    submitted.spec = ScenarioSpec::golden(3).to_kv();
    submitted.peer = "127.0.0.1:7000".into();
    let mut transferring = WalRecord::bare(rec::TRANSFERRING, 1);
    (transferring.seq, transferring.pages_landed) = (2, 128);
    let mut failed = WalRecord::bare(rec::FAILED, 1);
    (failed.seq, failed.detail) = (3, "peer i/o: reset".into());
    // The empty journal is a daemon that never accepted a job.
    vec![
        journal::encode_records(&[submitted, transferring, failed]),
        Vec::new(),
    ]
}

fn partial_seeds() -> Vec<Vec<u8>> {
    // A 1 MiB cold guest keeps the image (256 pages) under `max_len`.
    let spec = ScenarioSpec {
        ram_mib: 1,
        warm: false,
        ..ScenarioSpec::golden(3)
    };
    let initial = scenario::initial_memory(&spec).expect("1 MiB spec is valid");
    let fresh = SessionState::fresh(&spec, &initial);
    let mut mid = fresh.clone();
    for msg in [
        WireMsg::full_filler(0, PageDigest::from_content_id(5)),
        WireMsg::full_filler(1, PageDigest::from_content_id(6)),
        WireMsg::DedupRef { idx: 2, source: 0 },
        WireMsg::Zero { idx: 3 },
        WireMsg::RoundEnd { round: 1 },
    ] {
        mid.apply(&msg, None).expect("seed stream applies");
    }
    let mut done = mid.clone();
    done.apply(&WireMsg::StopEnd, None)
        .expect("stop after one round");
    vec![
        fresh.encode(1, 2),
        mid.encode(7, 0xfeed),
        done.encode(7, 0xfeed),
    ]
}

/// The job and spec fingerprint every `partial_log` input is replayed
/// under; seed logs are bound to them.
const LOG_JOB: u64 = 7;
const LOG_FP: u64 = 0xfeed;

/// The base snapshot every `partial_log` input is replayed onto: a cold
/// 1 MiB guest (256 pages) before any message.
fn log_base() -> &'static SessionState {
    static BASE: OnceLock<SessionState> = OnceLock::new();
    BASE.get_or_init(|| {
        let spec = ScenarioSpec {
            ram_mib: 1,
            warm: false,
            ..ScenarioSpec::golden(3)
        };
        let initial = scenario::initial_memory(&spec).expect("1 MiB spec is valid");
        SessionState::fresh(&spec, &initial)
    })
}

fn partial_log_seeds() -> Vec<Vec<u8>> {
    // The appender writes real files, so the seeds are read back from a
    // scratch directory: a header-only log, and one that crosses a
    // 64-step boundary, two round delimiters and the stop.
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vecycle-fuzz-log-{}-{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut state = log_base().clone();
    let mut log = PartialLog::begin(&dir, LOG_JOB, LOG_FP, &state).expect("scratch log");
    let path = session_state::log_path(&dir, LOG_JOB, LOG_FP);
    let header = std::fs::read(&path).expect("log readable");
    let mut msgs: Vec<WireMsg> = (0..70u64)
        .map(|i| WireMsg::full_filler(i, PageDigest::from_content_id(i % 9)))
        .collect();
    msgs.extend([
        WireMsg::RoundEnd { round: 1 },
        WireMsg::DedupRef {
            idx: 200,
            source: 3,
        },
        WireMsg::Zero { idx: 255 },
        WireMsg::RoundEnd { round: 2 },
        WireMsg::full_filler(4, PageDigest::from_content_id(1)),
        WireMsg::StopEnd,
    ]);
    for msg in &msgs {
        let step = state.apply_step(msg, None).expect("seed stream applies");
        log.record(step).expect("scratch log appends");
    }
    let full = std::fs::read(&path).expect("log readable");
    let _ = std::fs::remove_dir_all(&dir);
    vec![header, full, Vec::new()]
}

fn text_seeds(strs: &[&str]) -> Vec<Vec<u8>> {
    strs.iter().map(|s| s.as_bytes().to_vec()).collect()
}

const CHAOS_SEEDS: &[&str] = &[
    "seed=7,legs=50,crash=0.1,pressure=0.2",
    "seed=42,legs=200,hosts=4,crash=0.15,pressure=0.4,corrupt=0.1,drop=0.1,loss=0.05",
    "",
];

const FAULT_SEEDS: &[&str] = &[
    "seed=7,drop=0.3,corrupt=0.1",
    "crash=1,spike=0.5,degrade=0.25,hostcrash=0.2",
    "",
];

// ----------------------------------------------------------- dictionaries

const BINARY_DICT: &[&[u8]] = &[
    b"VECYCHK1",
    b"VECYTRC1",
    &[0, 0, 0, 0, 0, 0, 0, 0],
    &[0xff; 8],
    &[0, 0, 0, 0, 0, 0, 16, 0],
];

const WAL_DICT: &[&[u8]] = &[
    b"\"kind\":\"",
    b"18446744073709551616",
    b"\\u0000",
    b"\"",
    b"}",
    &[0xff; 4],
    &[0, 0x10, 0, 1],
];

const PARTIAL_DICT: &[&[u8]] = &[
    b"VECYPAR1",
    &[0; 8],
    &[0xff; 8],
    &[0, 0, 0, 0, 0, 0, 1, 0],
    &[2],
];

const PARTIAL_LOG_DICT: &[&[u8]] = &[
    b"VECYLOG1",
    &[0; 8],
    &[0xff; 8],
    &[0, 0, 0, 0, 0, 0, 1, 0],
    &[0, 0, 6, 0x48],
    &[0],
    &[1],
    &[2],
];

const CHAOS_DICT: &[&[u8]] = &[
    b"seed",
    b"legs",
    b"hosts",
    b"crash",
    b"pressure",
    b"corrupt",
    b"drop",
    b"loss",
    b"=",
    b",",
    b"0.5",
    b"1e300",
    b"-1",
    b"NaN",
    b"inf",
    b"0",
    b"18446744073709551616",
];

const EVICT_DICT: &[&[u8]] = &[
    b"oldest",
    b"lru",
    b"largest",
    b"staleness",
    b"_first",
    b"_by_recycle",
    b"_score",
];

const SIZE_DICT: &[&[u8]] = &[
    b"GiB",
    b"MiB",
    b"KiB",
    b"B",
    b"0",
    b"9",
    b"18446744073709551615",
    b"-",
    b" ",
    b"GB",
];

const LINK_DICT: &[&[u8]] = &[b"lan", b"wan", b"wan:", b"%", b"0.5", b"100", b"-1", b"NaN"];

const DURATION_DICT: &[&[u8]] = &[b"h", b"d", b"0", b"9", b"18446744073709551615", b"-1", b" "];

const FAULT_DICT: &[&[u8]] = &[
    b"seed",
    b"drop",
    b"degrade",
    b"corrupt",
    b"spike",
    b"crash",
    b"hostcrash",
    b"=",
    b",",
    b"0.5",
    b"2.0",
    b"-0.0",
    b"NaN",
    b"1e-300",
];

// ------------------------------------------------------------ classifiers

fn corrupt_class(detail: &str, table: &[(&str, &'static str)]) -> &'static str {
    for (needle, class) in table {
        if detail.contains(needle) {
            return class;
        }
    }
    "err_other"
}

fn run_checkpoint(input: &[u8]) -> &'static str {
    match Checkpoint::read_from(input) {
        Ok(cp) => match cp.data() {
            CheckpointData::Digests(_) => "ok_digests",
            CheckpointData::Pages(_) => "ok_pages",
        },
        Err(Error::Corrupt { detail }) => corrupt_class(
            &detail,
            &[
                ("too short", "err_short"),
                ("trailer checksum", "err_trailer"),
                ("magic", "err_magic"),
                ("version", "err_version"),
                ("kind", "err_kind"),
                ("overflows", "err_overflow"),
                ("payload length", "err_payload_len"),
                ("page-aligned", "err_align"),
            ],
        ),
        Err(_) => "err_io",
    }
}

fn run_trace(input: &[u8]) -> &'static str {
    match Trace::read_from(input) {
        Ok(_) => "ok",
        Err(Error::Corrupt { detail }) => corrupt_class(
            &detail,
            &[
                ("too short", "err_short"),
                ("trailer checksum", "err_trailer"),
                ("magic", "err_magic"),
                ("fingerprint count", "err_count"),
                ("overflows", "err_overflow"),
                ("truncated mid-record", "err_truncated"),
                ("length overflow", "err_pos_overflow"),
                ("trailing bytes", "err_trailing"),
            ],
        ),
        Err(_) => "err_io",
    }
}

fn run_wal(input: &[u8]) -> &'static str {
    let (records, valid) = journal::decode_records(input);
    let rest = &input[valid as usize..];
    if rest.is_empty() {
        return if records.is_empty() { "ok_empty" } else { "ok" };
    }
    // Replay stopped early: classify why from the first rejected frame.
    match sealed::decode_frame(rest, journal::MAX_RECORD) {
        Err(SealError::Short(_)) => "stop_torn",
        Err(SealError::OverCap) => "stop_over_cap",
        Err(SealError::Mismatch) => "stop_trailer",
        Ok((payload, _)) if std::str::from_utf8(payload).is_err() => "stop_utf8",
        Ok(_) => "stop_json",
    }
}

fn run_partial(input: &[u8]) -> &'static str {
    match SessionState::decode(input) {
        Ok((_, _, st)) if st.finished() => "ok_finished",
        Ok(_) => "ok",
        Err(DaemonError::Corrupt(detail)) => corrupt_class(
            &detail,
            &[
                ("too short", "err_short"),
                ("trailer checksum", "err_trailer"),
                ("magic", "err_magic"),
                ("finished flag", "err_finished_flag"),
                ("page count overflows", "err_overflow"),
                ("memory section", "err_mem_len"),
                ("landed flag", "err_landed_flag"),
                ("anchor count overflows", "err_anchor_overflow"),
                ("anchor section", "err_anchor_len"),
                ("anchor index", "err_anchor_idx"),
            ],
        ),
        Err(_) => "err_other",
    }
}

fn run_partial_log(input: &[u8]) -> &'static str {
    let mut state = log_base().clone();
    let replay = session_state::replay_log(&mut state, LOG_JOB, LOG_FP, input);
    // Replay always ends on a whole-frame prefix: the bytes it accepted
    // replay cleanly on their own, to the same state.
    let mut again = log_base().clone();
    let prefix = session_state::replay_log(&mut again, LOG_JOB, LOG_FP, &input[..replay.valid]);
    assert!(prefix.stop.is_none() && prefix.frames == replay.frames && again == state);
    match replay.stop {
        None if replay.frames == 0 => "ok_no_steps",
        None if state.finished() => "ok_finished",
        None => "ok",
        Some(LogStop::Frame(SealError::Short(_))) => "stop_torn",
        Some(LogStop::Frame(SealError::OverCap)) => "stop_over_cap",
        Some(LogStop::Frame(SealError::Mismatch)) => "stop_trailer",
        Some(LogStop::Header) => "stop_header",
        Some(LogStop::Unbound) => "stop_unbound",
        Some(LogStop::Sequence) => "stop_sequence",
        Some(LogStop::Malformed) => "stop_malformed",
        Some(LogStop::PageIndex) => "stop_page_idx",
        Some(LogStop::Illegal) => "stop_illegal",
    }
}

fn run_chaos(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match ChaosConfig::parse(&s) {
        Ok(_) => "ok",
        Err(Error::InvalidConfig { reason }) => corrupt_class(
            &reason,
            &[
                ("given twice", "err_dup"),
                ("is not key=value", "err_pair"),
                ("outside [0, 1]", "err_rate_range"),
                ("is not a number", "err_rate_nan"),
                ("seed", "err_seed"),
                ("legs must be", "err_legs_zero"),
                ("legs", "err_legs"),
                ("at least 2 hosts", "err_hosts_few"),
                ("hosts", "err_hosts"),
                ("unknown chaos key", "err_unknown"),
            ],
        ),
        Err(_) => "err_other",
    }
}

fn run_evict(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match EvictionPolicy::parse(&s) {
        Some(EvictionPolicy::OldestFirst) => "ok_oldest",
        Some(EvictionPolicy::LruByRecycle) => "ok_lru",
        Some(EvictionPolicy::LargestFirst) => "ok_largest",
        Some(EvictionPolicy::StalenessScore) => "ok_staleness",
        None => "err_unknown",
    }
}

fn run_bytes(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match Bytes::parse(&s) {
        Ok(_) => "ok",
        Err(Error::InvalidConfig { reason }) => corrupt_class(
            &reason,
            &[
                ("overflows", "err_overflow"),
                ("cannot parse size", "err_parse"),
            ],
        ),
        Err(_) => "err_other",
    }
}

fn run_cli_size(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_size(&s) {
        Ok(_) => "ok",
        Err(e) if e.contains("overflows") => "err_overflow",
        Err(_) => "err_parse",
    }
}

fn run_cli_link(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_link(&s) {
        Ok(_) if s.starts_with("wan:") => "ok_lossy",
        Ok(_) => "ok_named",
        Err(e) if e.contains("cannot parse loss") => "err_loss_nan",
        Err(e) if e.contains("out of range") => "err_loss_range",
        Err(_) => "err_unknown",
    }
}

fn run_cli_duration(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_duration(&s) {
        Ok(_) if s.ends_with('s') => "ok_secs",
        Ok(_) if s.ends_with('m') => "ok_mins",
        Ok(_) if s.ends_with('h') => "ok_hours",
        Ok(_) => "ok_days",
        Err(e) if e.contains("seconds") => "err_secs",
        Err(e) if e.contains("minutes") => "err_mins",
        Err(e) if e.contains("hours") => "err_hours",
        Err(e) if e.contains("days") => "err_days",
        Err(_) => "err_suffix",
    }
}

fn run_cli_faults(input: &[u8]) -> &'static str {
    let s = String::from_utf8_lossy(input);
    match parse_faults(&s) {
        Ok(_) => "ok",
        Err(e) if e.contains("given twice") => "err_dup",
        Err(e) if e.contains("is not key=value") => "err_pair",
        Err(e) if e.contains("out of [0, 1]") => "err_rate_range",
        Err(e) if e.contains("fault rate") => "err_rate_nan",
        Err(e) if e.contains("fault seed") => "err_seed",
        Err(e) if e.contains("unknown fault") => "err_unknown",
        Err(_) => "err_other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_hit_their_ok_classes() {
        for seed in checkpoint_seeds() {
            assert!(
                run_checkpoint(&seed).starts_with("ok_"),
                "checkpoint seed rejected"
            );
        }
        for seed in trace_seeds() {
            assert_eq!(run_trace(&seed), "ok");
        }
        let wal = wal_seeds();
        assert_eq!(run_wal(&wal[0]), "ok");
        assert_eq!(run_wal(&wal[1]), "ok_empty");
        let partials: Vec<_> = partial_seeds().iter().map(|s| run_partial(s)).collect();
        assert_eq!(partials, ["ok", "ok", "ok_finished"]);
        for seed in CHAOS_SEEDS {
            assert_eq!(run_chaos(seed.as_bytes()), "ok");
        }
        for seed in FAULT_SEEDS {
            assert_eq!(run_cli_faults(seed.as_bytes()), "ok");
        }
    }

    #[test]
    fn target_names_are_unique() {
        let targets = all_targets();
        let mut names: Vec<_> = targets.iter().map(|t| t.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), targets.len());
    }

    #[test]
    fn classifier_covers_handcrafted_rejects() {
        assert_eq!(run_checkpoint(b""), "err_short");
        assert_eq!(run_trace(b""), "err_short");
        assert_eq!(run_partial(b""), "err_short");
        assert_eq!(run_wal(&u32::MAX.to_be_bytes()), "stop_over_cap");
        assert_eq!(run_wal(&[0, 0, 0, 9, b'{']), "stop_torn");
        let mut junk = Vec::new();
        sealed::encode_frame(b"{not json", &mut junk);
        assert_eq!(run_wal(&junk), "stop_json");
        assert_eq!(run_chaos(b"crash=0.1,crash=0.2"), "err_dup");
        assert_eq!(run_chaos(b"meteor=1"), "err_unknown");
        assert_eq!(run_evict(b"mru"), "err_unknown");
        assert_eq!(run_bytes(b"4GB"), "err_parse");
        assert_eq!(run_cli_link(b"wan:150%"), "err_loss_range");
        assert_eq!(run_cli_duration(b"90m"), "ok_mins");
        assert_eq!(run_cli_duration(b"30s"), "ok_secs");
        assert_eq!(run_cli_duration(b"zzm"), "err_mins");
        assert_eq!(run_cli_duration(b"1w"), "err_suffix");
        assert_eq!(run_cli_faults(b"drop=0.1,drop=0.2"), "err_dup");
    }

    #[test]
    fn find_target_by_name() {
        assert!(find_target("ckpt_fix").is_some());
        assert!(find_target("nope").is_none());
    }
}
