//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <migrate-full|recycle-journaled|fleet-aware>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process, checks every
//! output against its reference, and prints a run description followed
//! by one JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports per-layer timings taken from the benchmark's own
//! calls into each layer's public functions. `--tiny` shrinks VMs and
//! the fleet for the smoke test, and `--corrupt-expected` perturbs one
//! expected value so the smoke test can see the correctness gate trip.
//! Exit status: 0 when every gate passed, 1 when one failed, 2 on bad
//! arguments.

mod daemon_wl;
mod fleet_wl;
mod replay;
mod report;
mod stats;

use std::path::PathBuf;
use std::time::{SystemTime, UNIX_EPOCH};

use daemon_wl::Shape;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--corrupt-expected" => args.corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// splitmix64 lane `lane` of `seed`: how job and VM seeds derive from
/// the workload seed.
pub fn splitmix(seed: u64, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(lane.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The CPU model line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A fresh directory for this run's sockets, journals and partial
/// files, under the working directory; removed when dropped.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> std::io::Result<RunDir> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(".perfbench_run").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only if no other run is using it.
        let _ = std::fs::remove_dir(".perfbench_run");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let shape = match args.workload.as_str() {
        "migrate-full" => Some(Shape::MigrateFull),
        "recycle-journaled" => Some(Shape::RecycleJournaled),
        "fleet-aware" => None,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let mut out = Outcome::default();
    out.note(format!(
        "run: workload={} seed={} seconds={} trace={} rev={} rustc={} nproc={} cpu={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
        std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
    ));
    let result = match shape {
        Some(shape) => RunDir::create()
            .map_err(|e| format!("run directory: {e}"))
            .and_then(|dir| daemon_wl::run(shape, &args, &dir.0, &mut out)),
        None => fleet_wl::run(&args, &mut out),
    };
    if let Err(e) = result {
        out.errors.push(e);
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    if out.correct() {
        for (name, value) in &out.metrics {
            if !table.iter().any(|(n, _)| n == name) {
                out.errors
                    .push(format!("metric {name} is not in the table"));
            } else if !value.is_finite() {
                out.errors.push(format!("metric {name} is {value}"));
            }
        }
        if !args.trace {
            for (name, _) in END_TO_END {
                if !out.metrics.iter().any(|(n, _)| n == name) {
                    out.errors
                        .push(format!("end-to-end metric {name} was not measured"));
                }
            }
        }
    }
    if !out.errors.is_empty() {
        // A voided run still accounts for itself: nothing it attempted
        // counts as passed.
        out.attempted = out.attempted.max(1);
        out.failed = out.attempted;
    }
    report::print(&out, table);
    std::process::exit(if out.correct() { 0 } else { 1 });
}
