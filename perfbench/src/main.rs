//! The repo benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each invocation runs one workload in its
//! own process, so `peak_rss_mb` belongs to it. The load is a closed loop
//! with one caller: each op starts when the previous one ends, and ops
//! start while the next one is expected to end within `--seconds`
//! (after a per-workload minimum). With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it runs the same untraced pass,
//! then a traced pass over the same inputs, and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The workloads
//! and metrics are described in `perfbench/README.md`.

mod broadcast;
mod probe;
mod report;
mod spans;
mod stats;
mod sweep;

use std::path::{Path, PathBuf};

use ebc_graphs::families::Family;
use ebc_radio::Model;

use broadcast::Spec;
use report::Report;
use spans::Tracer;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["thm12-cd-tree", "thm11-local-tree", "sweep-quick"];

fn broadcast_spec(name: &str) -> Option<Spec> {
    Some(match name {
        "thm12-cd-tree" => Spec {
            family: Family::BinaryTree,
            n: 4096,
            model: Model::Cd,
            algo: "theorem12",
            min_ops: 3,
            counter_rows: 1 << 18,
        },
        "thm11-local-tree" => Spec {
            family: Family::BinaryTree,
            n: 131_071,
            model: Model::Local,
            algo: "theorem11",
            min_ops: 3,
            counter_rows: 1 << 16,
        },
        _ => return None,
    })
}

/// The command line.
#[derive(Debug)]
pub struct Args {
    /// The workload name.
    pub workload: String,
    /// The workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether to run the traced pass and print the per-layer metrics.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Op `i`'s seed under workload seed `seed` (splitmix64 of both).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Removes the run's scratch directory when the run ends, also on a
/// panic.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    // Everything the run writes stays under `.bench_work/` in the working
    // directory (the repository root): scratch caches are removed at the
    // end, span files are kept.
    let work = Path::new(".bench_work");
    let scratch = Scratch(work.join(format!("{}-{}", args.workload, std::process::id())));
    let dirs = sweep::Dirs::new(&scratch.0);
    // Set before any thread starts or any dataset loads: the sweep runs on
    // one worker, since a second one on a two-vCPU shared host makes cell
    // times follow the scheduler; and dataset CSR caches go to a directory
    // this run owns rather than the repository's `.ebc-cache`.
    std::env::set_var("EBC_NUM_THREADS", "1");
    std::env::set_var("EBC_DATASET_CACHE_DIR", dirs.datasets());

    println!(
        "perfbench workload={} seed={} seconds={} trace={} threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match broadcast_spec(&args.workload) {
        Some(spec) => broadcast::run(&spec, &args, &mut tracer, &mut report),
        None => sweep::run(&args, &dirs, &mut tracer, &mut report),
    }
    if args.trace {
        let path = work
            .join("trace")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
        }
        for (layer, ns) in tracer.layer_self_times() {
            println!("self time {layer:<8} {:>12.3} ms", ns as f64 / 1e6);
        }
        println!("self time singlehop unmeasured (runs inside core's srcomm; no span reaches it)");
    }
    report.print(args.trace);
}
