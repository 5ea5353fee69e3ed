//! Per-layer timing of one daemon job, taken by replaying the daemons'
//! public calls in the daemons' order on the job's spec.
//!
//! The replay runs source and destination one after the other in one
//! thread; the real pair overlaps them on two threads, which is why the
//! residual (`job_p50_s` minus the replay's sum) is signed. Before any
//! layer number is printed, [`check_fidelity`] proves the replay did
//! the work the real job did: same forward bytes, same final content,
//! same number of WAL records.

use std::path::Path;
use std::time::Instant;

use vecycle_checkpoint::{Checkpoint, ChecksumIndex};
use vecycle_core::{LiveTranscript, PageMsg};
use vecycle_daemon::journal::{rec, Journal, WalRecord};
use vecycle_daemon::proto::forward_overhead;
use vecycle_daemon::scenario::{self, ReferenceRun};
use vecycle_daemon::session_state::{self, spec_fingerprint, SessionState};
use vecycle_daemon::Measured;
use vecycle_net::WireMsg;
use vecycle_sim::ScenarioSpec;
use vecycle_types::{SimTime, VmId};

use crate::stats::median;

/// Messages between destination persistence points — the daemon's
/// stream chunk (`source::STREAM_CHUNK`, crate-private there).
const STREAM_CHUNK: usize = 64;

/// What one replayed job cost, layer by layer (seconds unless named
/// otherwise).
#[derive(Debug, Default, Clone)]
pub struct Layers {
    mem_initial_s: f64,
    mem_diverge_s: f64,
    capture_s: f64,
    index_build_s: f64,
    migrate_s: f64,
    flatten_s: f64,
    flatten_bytes: u64,
    encode_s: f64,
    decode_s: f64,
    /// Forward data-plane bytes the replay encoded.
    wire_bytes: u64,
    apply_s: f64,
    partial_clone_s: f64,
    partial_save_s: f64,
    partial_saves: u64,
    partial_bytes: u64,
    wal_append_s: f64,
    wal_records: u64,
    verify_s: f64,
    msgs_full: u64,
    msgs_checksum: u64,
    msgs_other: u64,
    round1_pages: u64,
    /// The destination's final content hash.
    dest_hash: [u8; 8],
}

impl Layers {
    /// Wall time of every replayed call.
    fn total_s(&self) -> f64 {
        self.mem_initial_s
            + self.mem_diverge_s
            + self.capture_s
            + self.index_build_s
            + self.migrate_s
            + self.flatten_s
            + self.encode_s
            + self.decode_s
            + self.apply_s
            + self.partial_clone_s
            + self.partial_save_s
            + self.wal_append_s
            + self.verify_s
    }
}

/// Renders any error as the gate's message.
fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    *acc += t.elapsed().as_secs_f64();
    v
}

/// Appends a WAL record as the daemon would, counting and timing it.
fn wal(l: &mut Layers, journal: Option<&Journal>, record: WalRecord) -> Result<(), String> {
    let Some(journal) = journal else {
        return Ok(());
    };
    timed(&mut l.wal_append_s, || journal.append(&record)).map_err(|e| format!("wal: {e}"))?;
    l.wal_records += 1;
    Ok(())
}

/// Replays job `job` of `spec`. `journal` and `partial_dir` are set
/// for a journal-backed pair.
pub fn replay_job(
    spec: &ScenarioSpec,
    job: u64,
    journal: Option<&Journal>,
    partial_dir: Option<&Path>,
) -> Result<Layers, String> {
    let mut l = Layers::default();

    // Queue: `submitted` at submit, `claimed` at admission.
    let mut submitted = WalRecord::bare(rec::SUBMITTED, job);
    submitted.spec = spec.to_kv();
    submitted.peer = "unix:replay/b.sock".into();
    wal(&mut l, journal, submitted)?;
    wal(&mut l, journal, WalRecord::bare(rec::CLAIMED, job))?;

    // Destination: initial state, and the checkpoint index when warm.
    let initial = timed(&mut l.mem_initial_s, || scenario::initial_memory(spec)).map_err(err)?;
    let dest_index = if spec.warm {
        let cp = timed(&mut l.capture_s, || {
            Checkpoint::capture(VmId::new(spec.vm), SimTime::EPOCH, &initial)
        });
        Some(timed(&mut l.index_build_s, || cp.build_index()))
    } else {
        None
    };

    // Bulk checksum exchange (vecycle only), destination to source.
    let index = if spec.strategy == "vecycle" {
        let ix = dest_index
            .as_ref()
            .ok_or("vecycle without a warm destination")?;
        let mut buf = Vec::new();
        timed(&mut l.encode_s, || {
            WireMsg::BulkExchange {
                digests: ix.digests().collect(),
            }
            .encode(&mut buf)
        });
        let msg =
            timed(&mut l.decode_s, || WireMsg::read_from(&mut buf.as_slice())).map_err(err)?;
        let WireMsg::BulkExchange { digests } = msg else {
            return Err("bulk exchange decoded as another message".into());
        };
        Some(timed(&mut l.index_build_s, || {
            ChecksumIndex::build(digests)
        }))
    } else {
        None
    };

    // Source: strategy, guest, the whole migration, recorded.
    let strategy = timed(&mut l.migrate_s, || scenario::wire_strategy(spec, index)).map_err(err)?;
    let src_initial =
        timed(&mut l.mem_initial_s, || scenario::initial_memory(spec)).map_err(err)?;
    let (mut guest, mut workload) = timed(&mut l.mem_diverge_s, || {
        scenario::live_guest(spec, &src_initial)
    })
    .map_err(err)?;
    let (_report, transcript) = timed(&mut l.migrate_s, || {
        scenario::engine_for(spec).migrate_live_with_transcript(&mut guest, &mut workload, strategy)
    })
    .map_err(err)?;
    count_messages(&mut l, &transcript, spec.pages());

    let msgs = timed(&mut l.flatten_s, || flatten(&transcript));
    drop(transcript);
    l.flatten_bytes = msgs
        .iter()
        .map(|m| {
            let payload = match m {
                WireMsg::Full { page, .. } => page.len(),
                _ => 0,
            };
            (std::mem::size_of::<WireMsg>() + payload) as u64
        })
        .sum();

    // Source stream: encode everything, journaling progress at round
    // delimiters as the source does.
    wal(&mut l, journal, WalRecord::bare(rec::TRANSFERRING, job))?;
    let mut wire = Vec::new();
    let wal_before = l.wal_append_s;
    let t = Instant::now();
    for (i, msg) in msgs.iter().enumerate() {
        msg.encode(&mut wire);
        if matches!(msg, WireMsg::RoundEnd { .. }) {
            let mut progress = WalRecord::bare(rec::TRANSFERRING, job);
            progress.pages_landed = i as u64 + 1;
            wal(&mut l, journal, progress)?;
        }
    }
    l.encode_s += t.elapsed().as_secs_f64() - (l.wal_append_s - wal_before);
    l.wire_bytes = wire.len() as u64;
    drop(msgs);

    // Destination stream: decode, apply, persist at chunk and round
    // boundaries (in-memory clone always, partial file when
    // journal-backed).
    let fingerprint = spec_fingerprint(spec);
    let mut state = timed(&mut l.apply_s, || SessionState::fresh(spec, &initial));
    let mut cursor = wire.as_slice();
    let mut since = 0usize;
    while !state.finished() {
        let msg = timed(&mut l.decode_s, || WireMsg::read_from(&mut cursor)).map_err(err)?;
        timed(&mut l.apply_s, || state.apply(&msg, dest_index.as_ref())).map_err(err)?;
        since += 1;
        if since >= STREAM_CHUNK || matches!(msg, WireMsg::RoundEnd { .. } | WireMsg::StopEnd) {
            let copy = timed(&mut l.partial_clone_s, || state.clone());
            if let Some(dir) = partial_dir {
                timed(&mut l.partial_save_s, || {
                    session_state::save_partial(dir, job, fingerprint, &copy)
                })
                .map_err(|e| format!("save_partial: {e}"))?;
                l.partial_saves += 1;
                l.partial_bytes +=
                    std::fs::metadata(session_state::partial_path(dir, job, fingerprint))
                        .map_or(0, |m| m.len());
            }
            drop(copy);
            since = 0;
        }
    }
    if !cursor.is_empty() {
        return Err(format!(
            "{} bytes left after the stop-and-copy delimiter",
            cursor.len()
        ));
    }

    // End-to-end verification: both sides hash the final digests.
    let (src_hash, dest_hash) = timed(&mut l.verify_s, || {
        (
            scenario::content_hash(guest.memory().as_slice()),
            scenario::content_hash(state.mem()),
        )
    });
    if src_hash != dest_hash {
        return Err("source and destination content hashes differ".into());
    }
    l.dest_hash = dest_hash;
    if let Some(dir) = partial_dir {
        timed(&mut l.partial_save_s, || {
            session_state::drop_partial(dir, job, fingerprint)
        });
    }
    wal(&mut l, journal, WalRecord::bare(rec::DONE, job))?;
    Ok(l)
}

/// The daemon's transcript-to-wire flattening (`source::wire_messages`,
/// crate-private there): per-round messages and a `RoundEnd`, then the
/// stop-and-copy flush and `StopEnd`. Full pages ship the 4 KiB digest
/// filler.
fn flatten(t: &LiveTranscript) -> Vec<WireMsg> {
    let mut msgs = Vec::with_capacity(t.message_count() + t.rounds.len() + 1);
    for (i, round) in t.rounds.iter().enumerate() {
        msgs.extend(round.iter().map(to_wire));
        msgs.push(WireMsg::RoundEnd {
            round: i as u64 + 1,
        });
    }
    msgs.extend(t.stop_copy.iter().map(to_wire));
    msgs.push(WireMsg::StopEnd);
    msgs
}

fn to_wire(msg: &PageMsg) -> WireMsg {
    match msg {
        PageMsg::Full { idx, digest, .. } => WireMsg::full_filler(idx.as_u64(), *digest),
        PageMsg::Checksum { idx, digest } => WireMsg::Checksum {
            idx: idx.as_u64(),
            digest: *digest,
        },
        PageMsg::DedupRef { idx, source } => WireMsg::DedupRef {
            idx: idx.as_u64(),
            source: source.as_u64(),
        },
        PageMsg::Zero { idx } => WireMsg::Zero { idx: idx.as_u64() },
    }
}

fn count_messages(l: &mut Layers, t: &LiveTranscript, pages: u64) {
    for msg in t.rounds.iter().flatten().chain(&t.stop_copy) {
        match msg {
            PageMsg::Full { .. } => l.msgs_full += 1,
            PageMsg::Checksum { .. } => l.msgs_checksum += 1,
            PageMsg::DedupRef { .. } | PageMsg::Zero { .. } => l.msgs_other += 1,
        }
    }
    l.round1_pages = pages;
}

/// The replay-fidelity gate: the replay must have sent the bytes the
/// real job sent, rebuilt the reference content, and journaled as many
/// records as the real source daemon did for this job.
pub fn check_fidelity(
    l: &Layers,
    measured: &Measured,
    reference: &ReferenceRun,
    wal_records: u64,
) -> Result<(), String> {
    let real_bytes = measured
        .tx
        .saturating_sub(forward_overhead(measured.job_json_len));
    if l.wire_bytes != real_bytes {
        return Err(format!(
            "replay encoded {} forward bytes, the job sent {real_bytes}",
            l.wire_bytes
        ));
    }
    if l.dest_hash != reference.hash {
        return Err("replay content hash differs from the reference run".into());
    }
    if l.wal_records != wal_records {
        return Err(format!(
            "replay journaled {} WAL records, the daemon {wal_records}",
            l.wal_records
        ));
    }
    Ok(())
}

/// Per-job medians of every layer over the replayed jobs, the residual
/// against the real jobs' median latency, and a share table in the
/// notes.
pub fn layer_metrics(
    layers: &[Layers],
    job_p50_s: f64,
    notes: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
    let per_record = |l: &Layers| {
        if l.wal_records == 0 {
            0.0
        } else {
            l.wal_append_s / l.wal_records as f64
        }
    };
    let timings: [(&'static str, f64); 13] = [
        ("mem.initial_s", med(&|l| l.mem_initial_s)),
        ("mem.diverge_s", med(&|l| l.mem_diverge_s)),
        ("checkpoint.capture_s", med(&|l| l.capture_s)),
        ("checkpoint.index_build_s", med(&|l| l.index_build_s)),
        ("core.migrate_s", med(&|l| l.migrate_s)),
        ("daemon.flatten_s", med(&|l| l.flatten_s)),
        ("net.encode_s", med(&|l| l.encode_s)),
        ("net.decode_s", med(&|l| l.decode_s)),
        ("daemon.apply_s", med(&|l| l.apply_s)),
        ("daemon.partial_clone_s", med(&|l| l.partial_clone_s)),
        ("daemon.partial_save_s", med(&|l| l.partial_save_s)),
        ("daemon.wal_append_s", med(&per_record)),
        ("daemon.verify_s", med(&|l| l.verify_s)),
    ];
    let replay_sum = med(&Layers::total_s);
    let residual = job_p50_s - replay_sum;
    notes.push(format!(
        "layer shares of a {job_p50_s:.4} s job (median of {} replayed jobs):",
        layers.len()
    ));
    let wal_total = med(&|l| l.wal_append_s);
    for (name, v) in &timings {
        let v = if *name == "daemon.wal_append_s" {
            wal_total
        } else {
            *v
        };
        notes.push(format!(
            "  {name:<26} {:>10.6} s {:>6.1} %",
            v,
            100.0 * v / job_p50_s
        ));
    }
    notes.push(format!(
        "  {:<26} {:>10.6} s {:>6.1} %",
        "daemon.residual_s",
        residual,
        100.0 * residual / job_p50_s
    ));
    let mut m: Vec<(&'static str, f64)> = timings.to_vec();
    m.extend([
        ("daemon.flatten_bytes", med(&|l| l.flatten_bytes as f64)),
        ("net.wire_bytes", med(&|l| l.wire_bytes as f64)),
        ("daemon.partial_saves", med(&|l| l.partial_saves as f64)),
        ("daemon.partial_bytes", med(&|l| l.partial_bytes as f64)),
        ("daemon.wal_records_per_job", med(&|l| l.wal_records as f64)),
        ("daemon.residual_s", residual),
        ("core.msgs_full", med(&|l| l.msgs_full as f64)),
        ("core.msgs_checksum", med(&|l| l.msgs_checksum as f64)),
        ("core.msgs_other", med(&|l| l.msgs_other as f64)),
        (
            "core.checksum_hit_ratio",
            med(&|l| l.msgs_checksum as f64 / l.round1_pages as f64),
        ),
    ]);
    m
}
