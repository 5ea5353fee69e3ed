//! The `fleet-aware` workload: checkpoint-aware placement at the
//! committed `fleet_sweep` shape (1024 hosts, 10240 VMs), no sockets,
//! no disk.
//!
//! Each measured operation is one `Fleet::run()` on a freshly
//! assembled fleet of the same spec, so every report must be
//! bit-identical. The traced run wraps the production executor in a
//! timing [`LegExecutor`], built exactly as `Fleet::new` builds it, and
//! alternates traced and untraced runs: their reports must match, and
//! their time ratio is the tracing overhead.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use vecycle_core::session::{LegExecutor, SessionEvent, VeCycleSession, VmInstance};
use vecycle_core::{MigrationEngine, MigrationReport};
use vecycle_faults::FaultPlan;
use vecycle_fleet::{Fleet, FleetReport, FleetSpec, PlacementMode};
use vecycle_host::Cluster;
use vecycle_mem::workload::GuestWorkload;
use vecycle_mem::DigestMemory;
use vecycle_obs::MetricsRegistry;
use vecycle_types::{HostId, SimTime, PAGE_SIZE};

use crate::report::Outcome;
use crate::stats::{median, tail, MIN_SAMPLES};
use crate::{Args, MIB};

/// Traced/untraced run pairs every traced run makes, however short
/// `--seconds` is.
const MIN_PAIRS: usize = 3;

fn spec(args: &Args) -> FleetSpec {
    let (hosts, vms) = if args.tiny { (8, 16) } else { (1024, 10_240) };
    FleetSpec::new(hosts, vms)
        .with_seed(args.seed)
        .with_placement(PlacementMode::CheckpointAware)
}

/// Leg wall times, shared between the executor and the benchmark.
type LegTimes = Rc<RefCell<Vec<f64>>>;

/// The production executor with every leg's wall time recorded.
struct TimedLegs {
    inner: VeCycleSession,
    legs: LegTimes,
}

impl LegExecutor<DigestMemory> for TimedLegs {
    fn execute_leg<W: GuestWorkload<DigestMemory>>(
        &self,
        vm: &mut VmInstance<DigestMemory>,
        to: HostId,
        now: SimTime,
        workload: &mut W,
        plan: &FaultPlan,
        leg: usize,
        events: &mut Vec<SessionEvent>,
    ) -> vecycle_types::Result<MigrationReport> {
        let t = Instant::now();
        let r = self
            .inner
            .execute_leg(vm, to, now, workload, plan, leg, events);
        self.legs.borrow_mut().push(t.elapsed().as_secs_f64());
        r
    }
}

/// A fleet executed by [`TimedLegs`], assembled as `Fleet::new` does.
fn traced_fleet(spec: FleetSpec) -> vecycle_types::Result<(Fleet<TimedLegs>, LegTimes)> {
    let cluster = Cluster::homogeneous(spec.hosts, spec.link);
    let metrics = MetricsRegistry::new();
    let engine = MigrationEngine::new(spec.link).with_threads(spec.threads);
    let inner = VeCycleSession::new(cluster.clone())
        .with_engine(engine)
        .with_metrics(metrics.clone());
    let legs = Rc::new(RefCell::new(Vec::new()));
    let exec = TimedLegs {
        inner,
        legs: Rc::clone(&legs),
    };
    Ok((Fleet::with_executor(spec, cluster, exec, metrics)?, legs))
}

/// One untraced fleet run: assembly time, `run()` time, report.
fn untraced(spec: &FleetSpec) -> Result<(f64, f64, FleetReport), String> {
    let t = Instant::now();
    let mut fleet = Fleet::new(spec.clone()).map_err(|e| format!("assemble: {e}"))?;
    let assemble_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = fleet.run().map_err(|e| format!("run: {e}"))?;
    Ok((assemble_s, t.elapsed().as_secs_f64(), report))
}

/// One traced fleet run: assembly time, `run()` time, report and the
/// wall time of every leg.
fn traced(spec: &FleetSpec) -> Result<(f64, f64, FleetReport, Vec<f64>), String> {
    let t = Instant::now();
    let (mut fleet, legs) = traced_fleet(spec.clone()).map_err(|e| format!("assemble: {e}"))?;
    let assemble_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let report = fleet.run().map_err(|e| format!("traced run: {e}"))?;
    let run_s = t.elapsed().as_secs_f64();
    let legs = legs.take();
    Ok((assemble_s, run_s, report, legs))
}

/// What every clean fleet report must satisfy: one journal record and
/// one completed outcome per migration, each placement a hit or a miss.
fn consistent(r: &FleetReport) -> Result<(), String> {
    let completed = r.outcomes.get("completed").copied().unwrap_or(0);
    if r.migrations == 0
        || r.decisions.len() as u64 != r.migrations
        || completed != r.migrations
        || r.placement_hits + r.placement_misses != r.migrations
    {
        return Err(format!(
            "inconsistent fleet report: {} migrations, {} decisions, {completed} completed, {} hits + {} misses",
            r.migrations,
            r.decisions.len(),
            r.placement_hits,
            r.placement_misses
        ));
    }
    Ok(())
}

/// Reports of one spec must be identical in every field and in the
/// serialized journal.
fn same(a: &FleetReport, b: &FleetReport) -> bool {
    a == b && a.journal_jsonl() == b.journal_jsonl()
}

/// Runs the fleet workload and fills `out`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let spec = spec(args);
    if args.trace {
        return run_traced(args, &spec, out);
    }
    let mut assemble = Vec::new();
    let mut runs = Vec::new();
    let mut first: Option<FleetReport> = None;
    let start = Instant::now();
    while runs.len() < MIN_SAMPLES || start.elapsed().as_secs_f64() < args.seconds {
        let (a, r, report) = untraced(&spec)?;
        assemble.push(a);
        runs.push(r);
        out.attempted += 1;
        match &first {
            None => {
                consistent(&report)?;
                let mut expected = report.clone();
                // A corrupted expectation must trip the repeat gate.
                expected.migrations += u64::from(args.corrupt);
                first = Some(expected);
            }
            Some(f) if !same(f, &report) => out.fail(format!(
                "fleet run {} differs from the first run of the same spec",
                runs.len()
            )),
            Some(_) => {}
        }
    }
    let peak_rss = crate::peak_rss_mib();
    let report = first.expect("at least one run");
    let migrations = report.migrations;
    let run_s: f64 = runs.iter().sum();
    let t = tail(&runs);
    out.note(format!(
        "failed_frac {} ({} of {} fleet runs)",
        out.failed as f64 / runs.len() as f64,
        out.failed,
        runs.len()
    ));
    out.note(format!(
        "samples: setup_s n={}, run() latency n={} (tail = p{:.1}); {migrations} migrations per run",
        assemble.len(),
        t.n,
        t.pct
    ));
    let guest_mib = (migrations * spec.pages_per_vm * PAGE_SIZE) as f64 / MIB;
    let durations: Vec<f64> = report
        .decisions
        .iter()
        .map(|d| d.duration_nanos as f64 / 1e9)
        .collect();
    out.metrics = vec![
        ("setup_s", median(&assemble)),
        ("job_p50_s", median(&runs)),
        ("job_tail_s", t.value),
        ("guest_mib_per_s", guest_mib * runs.len() as f64 / run_s),
        (
            "placements_per_s",
            (migrations * runs.len() as u64) as f64 / run_s,
        ),
        ("peak_rss_mib", peak_rss),
        (
            "traffic_mib_per_migration",
            report.total_traffic.as_u64() as f64 / migrations as f64 / MIB,
        ),
        ("sim_migration_s", median(&durations)),
    ];
    Ok(())
}

/// The traced run: alternating untraced and traced fleet runs.
fn run_traced(args: &Args, spec: &FleetSpec, out: &mut Outcome) -> Result<(), String> {
    let mut assemble = Vec::new();
    let mut leg_s = Vec::new();
    let mut leg_p50 = Vec::new();
    let mut orchestrate = Vec::new();
    let mut overhead = Vec::new();
    let mut run_s = Vec::new();
    let mut last = None;
    let start = Instant::now();
    let mut pair = 0usize;
    while pair < MIN_PAIRS || start.elapsed().as_secs_f64() < args.seconds {
        // Alternate which side runs first so drift hits both equally.
        let ((_, plain_s, plain), (a, traced_s, report, legs)) = if pair.is_multiple_of(2) {
            let p = untraced(spec)?;
            (p, traced(spec)?)
        } else {
            let t = traced(spec)?;
            (untraced(spec)?, t)
        };
        out.attempted += 1;
        consistent(&plain)?;
        let mut expected = plain;
        expected.migrations += u64::from(args.corrupt && pair == 0);
        if !same(&expected, &report) {
            out.fail(format!(
                "traced fleet run {pair} differs from the untraced run"
            ));
        }
        let total: f64 = legs.iter().sum();
        assemble.push(a);
        leg_s.push(total);
        leg_p50.push(median(&legs) * 1e6);
        orchestrate.push(traced_s - total);
        overhead.push(traced_s / plain_s - 1.0);
        run_s.push(traced_s);
        last = Some((report, legs.len()));
        pair += 1;
    }
    let (report, legs) = last.expect("at least one pair");
    let leg = median(&leg_s);
    let orch = median(&orchestrate);
    out.note(format!(
        "samples: {pair} traced/untraced run pairs, {legs} legs per run (failed_frac {})",
        out.failed as f64 / pair as f64
    ));
    let run_s = median(&run_s);
    out.note(format!(
        "layer shares of a {run_s:.4} s traced fleet run() (median):"
    ));
    for (name, v) in [("fleet.leg_s", leg), ("fleet.orchestrate_s", orch)] {
        out.note(format!(
            "  {name:<26} {v:>10.6} s {:>6.1} %",
            100.0 * v / run_s
        ));
    }
    out.metrics = vec![
        ("fleet.assemble_s", median(&assemble)),
        ("fleet.leg_s", leg),
        ("fleet.leg_p50_us", median(&leg_p50)),
        ("fleet.orchestrate_s", orch),
        ("fleet.legs", legs as f64),
        ("fleet.queued", report.queued as f64),
        ("fleet.peak_inflight", report.peak_inflight as f64),
        ("warm_hit_rate", report.hit_rate()),
        ("trace.overhead_frac", median(&overhead)),
    ];
    Ok(())
}
