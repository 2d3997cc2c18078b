//! The single-broadcast workloads: one seeded broadcast run per op, on
//! one graph built during set-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebc_core::BroadcastOutcome;
use ebc_graphs::families::Family;
use ebc_radio::{Graph, Model, Sim};

use crate::probe::{self, RunTotals};
use crate::report::{Report, BENCH_METRICS, SWEEP_ALGORITHMS};
use crate::spans::Tracer;
use crate::{mix, peak_rss_mb, stats, Args};

/// Runs registered algorithm `name` from source 0, through
/// `suite::by_name(..).run`.
fn run_algo(name: &str, sim: &mut Sim) -> BroadcastOutcome {
    ebc_core::suite::by_name(name)
        .expect("registered algorithm")
        .run(sim, 0)
}

/// One single-broadcast workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The graph family and the size requested from it.
    pub family: Family,
    /// The size requested from `family`.
    pub n: usize,
    /// The collision model.
    pub model: Model,
    /// The registered algorithm.
    pub algo: &'static str,
    /// Ops always run, however long they take; `sim_digest` covers
    /// exactly these, so it does not depend on machine speed.
    pub min_ops: usize,
    /// Per-slot counter rows a traced op may keep.
    pub counter_rows: usize,
}

/// Set-up samples per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// The shortest set-up sample.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);

/// Charged actions per target per repetition of the drive microbench.
const DRIVE_ACTIONS: u64 = 1 << 23;

/// What one op produced, for metrics and checks. The default is a
/// failed op.
#[derive(Debug, Default, Clone, Copy)]
struct OpOutcome {
    host_ns: u64,
    actions: u64,
    max_energy: u64,
    now: u64,
    digest: u64,
    ok: bool,
}

/// Runs one op: `Sim::new` plus the algorithm, timed together; then the
/// output checks, untimed. A panic is a failed op.
fn op(graph: &Arc<Graph>, spec: &Spec, seed: u64) -> OpOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let mut sim = Sim::new(Arc::clone(graph), spec.model, seed);
        let out = run_algo(spec.algo, &mut sim);
        let host_ns = t0.elapsed().as_nanos() as u64;
        let max_energy = sim.meter().max_energy();
        OpOutcome {
            host_ns,
            actions: sim.meter().total_energy(),
            max_energy,
            now: sim.now(),
            digest: probe::run_digest(&sim, &out.informed),
            ok: out.all_informed() && max_energy <= sim.now(),
        }
    }));
    result.unwrap_or_default()
}

/// Runs the workload and records its metrics: the end-to-end set, or
/// with `args.trace` the per-layer set from a traced pass over the same
/// op seeds after the untraced one.
pub fn run(spec: &Spec, args: &Args, tracer: &mut Tracer, report: &mut Report) {
    // Set-up: the graph build, repeated; the last build is the input. A
    // sample times builds back to back until SETUP_SAMPLE has passed and
    // reports the time per build: a small graph builds in microseconds,
    // too short for one timer read to measure steadily.
    let mut setup_s = Vec::new();
    let mut graph = None;
    for rep in 0..SETUP_REPS as u64 {
        tracer.enter("setup", rep);
        let t0 = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || t0.elapsed() < SETUP_SAMPLE {
            tracer.enter("graphs.instance", rep);
            let inst = spec.family.instance(spec.n, mix(args.seed, u64::MAX));
            tracer.exit();
            graph = Some(inst.graph);
            builds += 1;
        }
        setup_s.push(t0.elapsed().as_secs_f64() / f64::from(builds));
        tracer.exit();
    }
    let graph = Arc::new(graph.expect("at least one set-up repetition"));
    println!(
        "input: {} n={} (vertices={} edges={}) model={:?} algorithm={} seed={}",
        spec.family.name(),
        spec.n,
        graph.n(),
        graph.m(),
        spec.model,
        spec.algo,
        args.seed
    );

    // The untraced, timed loop: closed, one caller, each op starting when
    // the previous one ends. Every op is followed at once by its repeat on
    // identical inputs, which must reproduce it; pairs run while the next
    // pair is expected to end inside the window.
    let op_seed = |i: usize| mix(args.seed, i as u64);
    let window = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut outcomes: Vec<OpOutcome> = Vec::new();
    let mut repeats: Vec<OpOutcome> = Vec::new();
    let mut last_pair = Duration::ZERO;
    while outcomes.len() < spec.min_ops || started.elapsed() + last_pair <= window {
        let t0 = Instant::now();
        let first = op(&graph, spec, op_seed(outcomes.len()));
        report.op(first.ok);
        let again = op(&graph, spec, op_seed(outcomes.len()));
        report.op(again.ok && again.digest == first.digest);
        outcomes.push(first);
        repeats.push(again);
        last_pair = t0.elapsed();
    }
    let loop_s = started.elapsed().as_secs_f64();
    let digest = probe::fold_digests(outcomes[..spec.min_ops].iter().map(|o| o.digest));
    println!(
        "sim_digest {digest:016x} (first {} ops; energies, clock, informed set)",
        spec.min_ops
    );

    // Timings cover every clean run of the loop, ops and repeats alike.
    let ok: Vec<&OpOutcome> = outcomes.iter().filter(|o| o.ok).collect();
    let ok_runs: Vec<&OpOutcome> = ok
        .iter()
        .copied()
        .chain(repeats.iter().filter(|o| o.ok))
        .collect();
    let ms: Vec<f64> = ok_runs.iter().map(|o| o.host_ns as f64 / 1e6).collect();
    let total_ns: f64 = ok_runs.iter().map(|o| o.host_ns as f64).sum();
    let actions: u64 = ok_runs.iter().map(|o| o.actions).sum();
    let run_ns_per_action = stats::ns_per_action(total_ns, actions).unwrap_or(0.0);
    match stats::tail(&ms) {
        Some(t) => println!(
            "tail: p{} = {:.3} ms ({} samples beyond)",
            t.pct, t.value, t.beyond
        ),
        None => println!(
            "tail: no percentile has {} samples beyond it among {} runs",
            stats::TAIL_MIN_BEYOND,
            ms.len()
        ),
    }

    if !args.trace {
        let n = ms.len();
        report.add(
            "setup_s",
            stats::median(&setup_s).unwrap_or(0.0),
            setup_s.len(),
        );
        report.add("run_ms_p50", stats::median(&ms).unwrap_or(0.0), n);
        let runs = outcomes.len() + repeats.len();
        report.add("ops_per_s", runs as f64 / loop_s, runs);
        report.add("ns_per_action", run_ns_per_action, n);
        let rerun_ms: Vec<f64> = repeats.iter().map(|o| o.host_ns as f64 / 1e6).collect();
        let warm_rerun_ms = stats::median(&rerun_ms).unwrap_or(0.0);
        report.add("warm_rerun_ms", warm_rerun_ms, rerun_ms.len());
        report.add("ok_frac", report.ok_frac(), report.attempted as usize);
        report.add("peak_rss_mb", peak_rss_mb(), 1);
        let energy: Vec<f64> = ok.iter().map(|o| o.max_energy as f64).collect();
        let slots: Vec<f64> = ok.iter().map(|o| o.now as f64).collect();
        report.add(
            "energy_max_p50",
            stats::median(&energy).unwrap_or(0.0),
            ok.len(),
        );
        report.add(
            "time_slots_p50",
            stats::median(&slots).unwrap_or(0.0),
            ok.len(),
        );
        return;
    }

    // The traced pass: the same op seeds, with telemetry attached and
    // every layer call wrapped in a span.
    let mut totals = RunTotals::default();
    let mut traced_ns = 0u64;
    let mut untraced_ns = 0u64;
    for (i, base) in outcomes.iter().enumerate() {
        let seed = op_seed(i);
        let depth = tracer.depth();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            tracer.enter("op", i as u64);
            let t0 = Instant::now();
            tracer.enter("radio.sim_new", i as u64);
            let mut sim = Sim::new(Arc::clone(&graph), spec.model, seed);
            tracer.exit();
            sim.set_telemetry(probe::recorder(spec.counter_rows));
            tracer.enter("core.run", i as u64);
            let out = run_algo(spec.algo, &mut sim);
            tracer.exit();
            let ns = t0.elapsed().as_nanos() as u64;
            tracer.exit();
            let telemetry = sim.take_telemetry().expect("telemetry was attached");
            totals.absorb(&sim, &telemetry);
            let same = probe::run_digest(&sim, &out.informed) == base.digest;
            (ns, same)
        }));
        tracer.close_to(depth);
        let (ns, ok) = outcome.unwrap_or((0, false));
        report.op(ok && base.ok);
        if !ok {
            println!("traced op {i} failed: result differs from its untraced run");
        }
        traced_ns += ns;
        untraced_ns += base.host_ns;
    }
    let ops = outcomes.len();

    let drive = probe::drive_ns_per_action(&[(Arc::clone(&graph), spec.model)], DRIVE_ACTIONS, 3);
    let build_ms: Vec<f64> = tracer
        .durations("graphs.instance")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    let sim_new_us: Vec<f64> = tracer
        .durations("radio.sim_new")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    let run_ms: Vec<f64> = tracer
        .durations("core.run")
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    report.add(
        "graphs.build_ms",
        stats::median(&build_ms).unwrap_or(0.0),
        build_ms.len(),
    );
    report.add("graphs.vertices", graph.n() as f64, 1);
    report.add("graphs.edges", graph.m() as f64, 1);
    report.add(
        "radio.sim_new_us",
        stats::median(&sim_new_us).unwrap_or(0.0),
        ops,
    );
    totals.report(ops, report);
    report.add("radio.drive_ns_per_action", drive, 3);
    report.add(
        "radio.trace_overhead_pct",
        100.0 * (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0),
        ops,
    );
    report.add("core.run_ms", stats::median(&run_ms).unwrap_or(0.0), ops);
    report.add(
        "core.algo_ns_per_action",
        stats::algo_ns_per_action(run_ns_per_action, drive),
        ops,
    );
    for alg in SWEEP_ALGORITHMS {
        let share = if alg == spec.algo { 1.0 } else { 0.0 };
        report.add(&format!("core.sweep.{alg}.sim_share"), share, ops);
    }
    // The cell cache, the sweep and the emitters are not on this path.
    for (name, _) in BENCH_METRICS {
        report.add(name, 0.0, 0);
    }
}
