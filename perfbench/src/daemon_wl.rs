//! The two daemon workloads: a `vecycled` pair in this process, driven
//! by one closed-loop client.
//!
//! * `migrate-full` ships distinct cold VMs with the `full` strategy
//!   over TCP loopback and no journal: every page is a 4 KiB message,
//!   so transcript flattening, the codec, the socket and destination
//!   apply carry the time.
//! * `recycle-journaled` ping-pongs a few warm VMs between the two
//!   daemons over a Unix socket with `vecycle`, both daemons
//!   journal-backed: most pages travel as 28-byte checksums, so
//!   checkpoint, index, engine, apply, partial-state persistence and
//!   WAL appends carry the time.
//!
//! Every job is checked against the in-process reference run and the
//! byte ledger; the traced run then replays the daemons' public calls
//! on the first jobs ([`crate::replay`]).

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use vecycle_daemon::journal::decode_records;
use vecycle_daemon::queue::JobRecord;
use vecycle_daemon::scenario::{self, ReferenceRun};
use vecycle_daemon::{Daemon, DaemonConfig, DaemonHandle, Endpoint, JobState};
use vecycle_sim::ScenarioSpec;

use crate::replay;
use crate::report::Outcome;
use crate::stats::{median, tail, MIN_SAMPLES};
use crate::{splitmix, Args, MIB};

/// How long one job may take before the run gives up on it.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);
/// The guard metrics are taken over exactly the first jobs, which every
/// run completes, so they depend on the seed alone.
const GUARD_JOBS: usize = 8;
const _: () = assert!(GUARD_JOBS <= MIN_SAMPLES);
/// Daemon pairs set up per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// VMs the `recycle-journaled` workload ping-pongs.
const RECYCLE_VMS: u64 = 4;
/// Jobs the traced run replays.
const REPLAY_JOBS: usize = 8;

/// Which daemon workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    MigrateFull,
    RecycleJournaled,
}

impl Shape {
    fn journaled(self) -> bool {
        self == Shape::RecycleJournaled
    }

    /// The scenario of job `i` and whether it runs from daemon B to A.
    /// Warm-up jobs use indexes past any measured job.
    fn job(self, seed: u64, i: u64, ram_mib: u64) -> (ScenarioSpec, bool) {
        let mut spec = ScenarioSpec::golden(0);
        spec.ram_mib = ram_mib;
        match self {
            Shape::MigrateFull => {
                spec.vm = i as u32;
                spec.seed = splitmix(seed, i);
                spec.strategy = "full".into();
                spec.warm = false;
                (spec, false)
            }
            Shape::RecycleJournaled => {
                // VM `i % n` on its `i / n`-th leg: even legs A→B, odd
                // legs back B→A, each against a warm destination after
                // the golden hour of 2 %/h dirtying.
                let vm = i % RECYCLE_VMS;
                let back = (i / RECYCLE_VMS) % 2 == 1;
                spec.vm = vm as u32;
                spec.seed = splitmix(seed, vm);
                if back {
                    spec.source_host = 1;
                    spec.dest_host = 0;
                }
                (spec, back)
            }
        }
    }
}

/// A running daemon pair and the state directory it owns.
struct Pair {
    a: DaemonHandle,
    b: DaemonHandle,
}

impl Pair {
    fn spawn(shape: Shape, dir: &Path) -> std::io::Result<Pair> {
        std::fs::create_dir_all(dir)?;
        let config = |name: &str| {
            let ep = match shape {
                Shape::MigrateFull => Endpoint::Tcp("127.0.0.1:0".into()),
                Shape::RecycleJournaled => Endpoint::Unix(dir.join(format!("{name}.sock"))),
            };
            let config = DaemonConfig::new(ep).with_workers(1);
            if shape.journaled() {
                config.with_journal_dir(dir.join(format!("wal-{name}")))
            } else {
                config
            }
        };
        let a = Daemon::spawn(config("a"))?;
        let b = match Daemon::spawn(config("b")) {
            Ok(b) => b,
            Err(e) => {
                a.shutdown();
                return Err(e);
            }
        };
        Ok(Pair { a, b })
    }

    fn shutdown(self) {
        self.a.shutdown();
        self.b.shutdown();
    }

    /// Submits `spec` to its source daemon and blocks until the job is
    /// terminal. Returns the source side (`true` = B), the job id, the
    /// submit-to-terminal latency and the final record.
    fn run(&self, spec: ScenarioSpec, back: bool) -> Result<Job, String> {
        let (src, dst) = if back {
            (&self.b, &self.a)
        } else {
            (&self.a, &self.b)
        };
        let t = Instant::now();
        let id = src
            .submit(spec.clone(), dst.endpoint().clone())
            .map_err(|e| format!("submit: {e}"))?;
        let record = src
            .wait_job(id, JOB_TIMEOUT)
            .ok_or_else(|| format!("job {id} did not finish within {JOB_TIMEOUT:?}"))?;
        Ok(Job {
            spec,
            back,
            id,
            latency_s: t.elapsed().as_secs_f64(),
            record,
        })
    }

    /// WAL records per job id of the daemon on side `back`.
    fn wal_counts(&self, back: bool) -> HashMap<u64, u64> {
        let handle = if back { &self.b } else { &self.a };
        let mut counts = HashMap::new();
        if let Some(path) = handle.wal_path() {
            let bytes = std::fs::read(path).unwrap_or_default();
            for r in decode_records(&bytes).0 {
                *counts.entry(r.job).or_insert(0) += 1;
            }
        }
        counts
    }
}

/// One completed closed-loop job.
struct Job {
    spec: ScenarioSpec,
    back: bool,
    id: u64,
    latency_s: f64,
    record: JobRecord,
}

/// Memoized in-process reference runs, keyed by the spec's kv form.
#[derive(Default)]
struct References(HashMap<String, ReferenceRun>);

impl References {
    fn get(&mut self, spec: &ScenarioSpec) -> Result<&ReferenceRun, String> {
        let key = spec.to_kv();
        if !self.0.contains_key(&key) {
            let r = scenario::reference_run(spec).map_err(|e| format!("reference run: {e}"))?;
            self.0.insert(key.clone(), r);
        }
        Ok(&self.0[&key])
    }
}

/// The correctness gate of one job: done, both ledgers reconciled,
/// report equal to the in-process reference. `corrupt` perturbs the
/// expected forward bytes, which must trip the gate.
fn check(job: &Job, reference: &ReferenceRun, corrupt: bool) -> Result<(), String> {
    let r = &job.record;
    if r.state != JobState::Done {
        return Err(format!("state {} ({})", r.state.label(), r.detail));
    }
    let m = r.measured.ok_or("no byte accounting")?;
    let expected_tx = m.expected_tx + u64::from(corrupt);
    if m.tx != expected_tx || m.rx != m.expected_rx {
        return Err(format!(
            "ledger: tx {} vs {expected_tx}, rx {} vs {}",
            m.tx, m.rx, m.expected_rx
        ));
    }
    if r.report.as_ref() != Some(&reference.report) {
        return Err("report differs from the in-process reference run".into());
    }
    Ok(())
}

/// Runs a daemon workload and fills `out`.
pub fn run(shape: Shape, args: &Args, root: &Path, out: &mut Outcome) -> Result<(), String> {
    let ram_mib = if args.tiny { 4 } else { 64 };
    let setups = if args.tiny { 2 } else { SETUPS };

    // Set-up: spawn a pair (opening fresh WALs) and run one warm-up
    // job, several times; the last pair stays up for measurement.
    let mut setup_s = Vec::new();
    let mut pair = None;
    for k in 0..setups {
        let dir = root.join(format!("pair{k}"));
        let t = Instant::now();
        let p = Pair::spawn(shape, &dir).map_err(|e| format!("spawn daemons: {e}"))?;
        let (spec, back) = shape.job(args.seed, 1_000_000 + k as u64, ram_mib);
        let warm = p.run(spec, back);
        setup_s.push(t.elapsed().as_secs_f64());
        match warm {
            Ok(job) if job.record.state == JobState::Done => {}
            Ok(job) => {
                p.shutdown();
                return Err(format!("warm-up job failed: {}", job.record.detail));
            }
            Err(e) => {
                p.shutdown();
                return Err(format!("warm-up job: {e}"));
            }
        }
        if k + 1 == setups {
            pair = Some(p);
        } else {
            p.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let pair = pair.expect("at least one set-up");

    // The closed loop: one client, next job after the previous ends.
    let mut jobs = Vec::new();
    let start = Instant::now();
    let mut loop_err = None;
    while jobs.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        let (spec, back) = shape.job(args.seed, jobs.len() as u64, ram_mib);
        match pair.run(spec, back) {
            Ok(job) => jobs.push(job),
            Err(e) => {
                loop_err = Some(e);
                break;
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let peak_rss = crate::peak_rss_mib();
    let wal = [pair.wal_counts(false), pair.wal_counts(true)];
    pair.shutdown();
    if let Some(e) = loop_err {
        return Err(e);
    }

    // Correctness gates, outside the timed window.
    let mut refs = References::default();
    out.attempted = jobs.len() as u64;
    for (i, job) in jobs.iter().enumerate() {
        let reference = refs.get(&job.spec)?;
        // The traced run corrupts a replay-fidelity expectation instead
        // (below), so the smoke test sees each gate trip on its own.
        if let Err(why) = check(job, reference, args.corrupt && !args.trace && i == 0) {
            out.fail(format!("job {i} ({}): {why}", job.spec.to_kv()));
        }
    }
    let done: Vec<&Job> = jobs
        .iter()
        .filter(|j| j.record.state == JobState::Done)
        .collect();
    out.note(format!(
        "failed_frac {} ({} of {} jobs)",
        out.failed as f64 / jobs.len() as f64,
        out.failed,
        jobs.len()
    ));

    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    let p50 = median(&latencies);
    let t = tail(&latencies);
    out.note(format!(
        "samples: setup_s n={}, job latency n={} (tail = p{:.1}), loop wall {wall_s:.3} s",
        setup_s.len(),
        t.n,
        t.pct
    ));

    if !args.trace {
        let guard = &jobs[..GUARD_JOBS];
        let tx_mib: Vec<f64> = guard
            .iter()
            .map(|j| j.record.measured.map_or(0, |m| m.tx) as f64 / MIB)
            .collect();
        let sim_s: Vec<f64> = guard
            .iter()
            .map(|j| {
                j.record
                    .report
                    .as_ref()
                    .map_or(0.0, |r| r.total_time().as_secs_f64())
            })
            .collect();
        let guest_mib: u64 = done.iter().map(|j| j.spec.ram_mib).sum();
        out.metrics = vec![
            ("setup_s", median(&setup_s)),
            ("job_p50_s", p50),
            ("job_tail_s", t.value),
            ("guest_mib_per_s", guest_mib as f64 / wall_s),
            ("placements_per_s", done.len() as f64 / wall_s),
            ("peak_rss_mib", peak_rss),
            (
                "traffic_mib_per_migration",
                tx_mib.iter().sum::<f64>() / tx_mib.len() as f64,
            ),
            ("sim_migration_s", median(&sim_s)),
        ];
        return Ok(());
    }

    // Traced run: replay the daemons' public calls on the first jobs,
    // sequentially, into a fresh journal of its own.
    let replay_dir = root.join("replay");
    let journal = if shape.journaled() {
        Some(
            vecycle_daemon::journal::Journal::open(&replay_dir.join("wal"))
                .map_err(|e| format!("replay journal: {e}"))?
                .0,
        )
    } else {
        None
    };
    let partial_dir = shape.journaled().then(|| replay_dir.join("partials"));
    let mut layers = Vec::new();
    for (i, job) in jobs.iter().take(REPLAY_JOBS).enumerate() {
        let reference = refs.get(&job.spec)?.clone();
        let measured = job.record.measured.ok_or("no byte accounting")?;
        let wal_count = wal[usize::from(job.back)]
            .get(&job.id)
            .copied()
            .unwrap_or(0)
            + u64::from(args.corrupt && i == 0);
        let l = replay::replay_job(
            &job.spec,
            i as u64 + 1,
            journal.as_ref(),
            partial_dir.as_deref(),
        )
        .map_err(|e| format!("replay of job {i}: {e}"))?;
        replay::check_fidelity(&l, &measured, &reference, wal_count)
            .map_err(|e| format!("replay fidelity, job {i}: {e}"))?;
        layers.push(l);
    }
    out.metrics = replay::layer_metrics(&layers, p50, &mut out.notes);
    // Jobs whose migration recycled pages from the destination's
    // checkpoint.
    let warm = done
        .iter()
        .filter(|j| {
            j.record
                .report
                .as_ref()
                .is_some_and(|r| r.pages_reused().as_u64() > 0)
        })
        .count();
    out.metrics
        .push(("warm_hit_rate", warm as f64 / done.len() as f64));
    // The timed jobs run untraced and the replay runs after them, so
    // tracing adds nothing to the jobs.
    out.metrics.push(("trace.overhead_frac", 0.0));
    Ok(())
}
