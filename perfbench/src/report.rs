//! What one benchmark run prints: a readable run description, then one
//! JSON result object as the last line of standard output.

use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("guest_mib_per_s", "MiB/s"),
    ("placements_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("traffic_mib_per_migration", "MiB"),
    ("sim_migration_s", "sim_s"),
];

/// Per-layer metrics: `(name, unit)`, printed by a traced run. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mem.initial_s", "s"),
    ("mem.diverge_s", "s"),
    ("checkpoint.capture_s", "s"),
    ("checkpoint.index_build_s", "s"),
    ("core.migrate_s", "s"),
    ("daemon.flatten_s", "s"),
    ("daemon.flatten_bytes", "B"),
    ("net.encode_s", "s"),
    ("net.decode_s", "s"),
    ("net.wire_bytes", "B"),
    ("daemon.apply_s", "s"),
    ("daemon.partial_clone_s", "s"),
    ("daemon.partial_save_s", "s"),
    ("daemon.partial_saves", "count"),
    ("daemon.partial_bytes", "B"),
    ("daemon.wal_append_s", "s"),
    ("daemon.wal_records_per_job", "count"),
    ("daemon.verify_s", "s"),
    ("daemon.residual_s", "s"),
    ("core.msgs_full", "count"),
    ("core.msgs_checksum", "count"),
    ("core.msgs_other", "count"),
    ("core.checksum_hit_ratio", "ratio"),
    ("fleet.assemble_s", "s"),
    ("fleet.leg_s", "s"),
    ("fleet.leg_p50_us", "us"),
    ("fleet.orchestrate_s", "s"),
    ("fleet.legs", "count"),
    ("fleet.queued", "count"),
    ("fleet.peak_inflight", "count"),
    ("warm_hit_rate", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (daemon jobs or fleet runs) attempted in the
    /// measured window.
    pub attempted: u64,
    /// Of those, the ones that failed a correctness gate.
    pub failed: u64,
    /// Fidelity or setup errors that void the whole run.
    pub errors: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Readable lines printed before the result (samples, shares).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed gate: counted against `failed` and explained.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Prints the notes and the result line with every metric of `table`,
/// in table order. A run that is not correct prints no metrics: its
/// numbers would describe a program that did not do its job.
pub fn print(outcome: &Outcome, table: &[(&str, &str)]) {
    for line in &outcome.notes {
        println!("# {line}");
    }
    for e in &outcome.errors {
        println!("# ERROR: {e}");
    }
    let correct = outcome.correct();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    if correct {
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = outcome
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    json.push_str("}}");
    println!("{json}");
}
