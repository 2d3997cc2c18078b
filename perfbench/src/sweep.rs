//! The `sweep-quick` workload: the scenario matrix in quick mode over
//! five families, cold into a fresh cell cache, then warm from it. An op
//! is one cold cell.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ebc_bench::baseline::{baseline_doc, diff, Tolerances};
use ebc_bench::cache::{fnv1a64, CacheStats, SourceDigests};
use ebc_bench::json::Json;
use ebc_bench::measure::{CellProfile, UNLIMITED_BUDGET_MS};
use ebc_bench::scenario::matrix_fault_plan;
use ebc_bench::{
    find_experiment, run_experiment, write_result_files, Case, ExperimentResult, RunConfig,
};
use ebc_core::suite::{by_name, MESSAGING_MODELS};
use ebc_graphs::families::Family;
use ebc_radio::{Graph, Model, Sim};

use crate::probe::{self, RunTotals};
use crate::report::{Report, SWEEP_ALGORITHMS};
use crate::spans::Tracer;
use crate::{mix, peak_rss_mb, stats, Args};

/// The families the sweep covers.
const FAMILIES: [Family; 5] = [
    Family::Cycle,
    Family::Grid,
    Family::DsSocial,
    Family::DsKnn,
    Family::UnitDisk,
];

/// Cells the five families yield in quick mode with no budget cut; any
/// other count means the case set changed.
const EXPECTED_CELLS: usize = 942;

/// The quick-mode sizes the scenario matrix requests from each family.
const QUICK_SIZES: [usize; 4] = [16, 32, 64, 128];

/// The scenario matrix builds its size-`n` graph with seed
/// `0xebc0 + n`; set-up builds the same graphs and the replay reuses them.
const GRAPH_SEED_BASE: u64 = 0xebc0;

/// Set-up repetitions per run; `setup_s` is their median. One set-up
/// takes a few ms, so it takes hundreds for the samples to span more
/// than a moment of the host's load.
const SETUP_REPS: usize = 501;

/// All-hits reruns after each cold pass; `warm_rerun_ms` is their
/// median.
const WARM_RERUNS: usize = 8;

/// Rounds that always run: a round takes 7–20 s as the host's load
/// varies, and one round alone samples too short a stretch of it.
const MIN_ROUNDS: usize = 2;

/// Charged actions per (graph, model) target of the drive microbench.
const DRIVE_ACTIONS: u64 = 1 << 19;

/// Counter rows a replayed run may keep.
const COUNTER_ROWS: usize = 1 << 20;

/// The checked-in baseline every cold cell is compared with.
const BASELINE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../bench-baselines/scenario_matrix.json"
);

/// The directories one run owns: the cell cache, the dataset CSR cache
/// (`EBC_DATASET_CACHE_DIR`, set by `main`), and the emitted documents.
pub struct Dirs {
    cells: PathBuf,
    datasets: PathBuf,
    out: PathBuf,
}

impl Dirs {
    /// The layout under `work`.
    pub fn new(work: &Path) -> Dirs {
        Dirs {
            cells: work.join("cells"),
            datasets: work.join("datasets"),
            out: work.join("out"),
        }
    }

    /// Where the dataset CSR cache lives.
    pub fn datasets(&self) -> &Path {
        &self.datasets
    }
}

fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("remove a benchmark-owned directory");
    }
    std::fs::create_dir_all(dir).expect("create a benchmark-owned directory");
}

fn model_by_name(name: &str) -> Option<Model> {
    MESSAGING_MODELS.into_iter().find(|&m| {
        name == match m {
            Model::NoCd => "no-cd",
            Model::Cd => "cd",
            Model::CdStar => "cd-star",
            Model::Local => "local",
            Model::Beep => "beep",
        }
    })
}

fn param<'a>(case: &'a Case, key: &str) -> Option<&'a Json> {
    case.params.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
}

fn param_str<'a>(case: &'a Case, key: &str) -> &'a str {
    param(case, key).and_then(Json::as_str).unwrap_or("")
}

fn cases_json(result: &ExperimentResult) -> String {
    Json::Arr(result.cases.iter().map(Case::to_json).collect()).to_string_pretty()
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// One family's call into the program, cold or warm.
struct FamilyRun {
    family: Family,
    /// `None` if the call panicked.
    result: Option<ExperimentResult>,
    run_s: f64,
    emit_s: f64,
}

impl FamilyRun {
    fn cells(&self) -> &[CellProfile] {
        self.result.as_ref().map_or(&[], |r| &r.profile.cells)
    }

    fn cases(&self) -> &[Case] {
        self.result.as_ref().map_or(&[], |r| &r.cases)
    }

    fn wall_s(&self) -> f64 {
        self.run_s + self.emit_s
    }
}

/// `run_experiment(scenario_matrix)` over one family, then
/// `write_result_files`.
fn run_family(family: Family, dirs: &Dirs, tracer: &mut Tracer, op: u64) -> FamilyRun {
    let config = RunConfig {
        quick: true,
        family: Some(family.name().to_string()),
        budget_ms: Some(UNLIMITED_BUDGET_MS),
        cache_dir: Some(dirs.cells.clone()),
        ..RunConfig::default()
    };
    let spec = find_experiment("scenario_matrix").expect("the scenario matrix is registered");
    let depth = tracer.depth();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        tracer.enter("bench.run_experiment", op);
        let t0 = Instant::now();
        let result = run_experiment(spec, &config);
        let run_s = t0.elapsed().as_secs_f64();
        tracer.exit();
        tracer.enter("bench.write_result_files", op);
        let t1 = Instant::now();
        write_result_files(&result, &dirs.out).expect("write the emitted documents");
        let emit_s = t1.elapsed().as_secs_f64();
        tracer.exit();
        (result, run_s, emit_s)
    }));
    tracer.close_to(depth);
    let (result, run_s, emit_s) = match ran {
        Ok((result, run_s, emit_s)) => (Some(result), run_s, emit_s),
        Err(_) => (None, 0.0, 0.0),
    };
    FamilyRun {
        family,
        result,
        run_s,
        emit_s,
    }
}

fn run_all(order: &[Family], dirs: &Dirs, tracer: &mut Tracer) -> Vec<FamilyRun> {
    order
        .iter()
        .enumerate()
        .map(|(i, &f)| run_family(f, dirs, tracer, i as u64))
        .collect()
}

/// The first complete `{…}` or `[…]` value at the start of `text`.
fn balanced(text: &str) -> Option<&str> {
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, c) in text.bytes().enumerate() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&text[..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The checked-in baseline's `config` and the case rows of the sweep's
/// families. The rows are cut out of the 1.5 MB document by a scan and
/// parsed one by one: the bench layer's parser is quadratic in its input
/// length, and parsing the whole document takes tens of seconds.
struct Baseline {
    config: Json,
    rows: Vec<Json>,
}

impl Baseline {
    fn load() -> Baseline {
        let text = std::fs::read_to_string(BASELINE).expect("read the baseline");
        let after = |key: &str| -> &str {
            let at = text.find(&format!("\"{key}\": ")).expect("baseline key");
            &text[at + key.len() + 4..]
        };
        let config = balanced(after("config")).expect("baseline config");
        let cases = balanced(after("cases")).expect("baseline cases");
        let prefixes: Vec<String> = FAMILIES
            .iter()
            .map(|f| format!("\"case\": \"family={}/", f.name()))
            .collect();
        let mut rows = Vec::new();
        let mut rest = &cases[1..];
        while let Some(start) = rest.find('{') {
            let row = balanced(&rest[start..]).expect("a complete baseline row");
            if prefixes.iter().any(|p| row.contains(p.as_str())) {
                rows.push(Json::parse(row).expect("parse a baseline row"));
            }
            rest = &rest[start + row.len()..];
        }
        Baseline {
            config: Json::parse(config).expect("parse the baseline config"),
            rows,
        }
    }

    fn family_rows(&self, family: Family) -> Vec<Json> {
        let prefix = format!("family={}/", family.name());
        self.rows
            .iter()
            .filter(|r| {
                r.get("case")
                    .and_then(Json::as_str)
                    .is_some_and(|k| k.starts_with(&prefix))
            })
            .cloned()
            .collect()
    }
}

/// `doc` with `cases` as its case rows, `config` when given, and no
/// scalars or fits: the baseline's are aggregated over every family.
fn family_doc(doc: &Json, config: Option<&Json>, cases: &[Json]) -> Json {
    let Json::Obj(pairs) = doc else {
        return Json::Null;
    };
    let pairs = pairs.iter().map(|(k, v)| {
        let v = match (k.as_str(), config) {
            ("scalars" | "fits", _) => Json::Arr(Vec::new()),
            ("cases", _) => Json::Arr(cases.to_vec()),
            ("config", Some(config)) => config.clone(),
            _ => v.clone(),
        };
        (k.clone(), v)
    });
    Json::Obj(pairs.collect())
}

/// Compares one family's cold cells with their baseline rows under the
/// gate's tolerances (`baseline::diff`). Returns `(cells compared,
/// failing cells)`; a cell that only one side has fails.
fn check_family(baseline: &Baseline, run: &FamilyRun) -> (usize, usize) {
    let rows = baseline.family_rows(run.family);
    let Some(result) = &run.result else {
        return (rows.len(), rows.len());
    };
    let fresh = baseline_doc(result);
    let fresh_rows = fresh.get("cases").and_then(Json::as_arr).unwrap_or(&[]);
    let report = diff(
        &family_doc(&fresh, Some(&baseline.config), &rows),
        &family_doc(&fresh, None, fresh_rows),
        &Tolerances::default(),
    );
    let mut failing: BTreeSet<&str> = BTreeSet::new();
    for line in &report.regressions {
        match line
            .strip_prefix("case ")
            .and_then(|l| l.split(": ").next())
        {
            Some(key) => {
                failing.insert(key);
            }
            None => {
                // A document-level mismatch (experiment or config).
                println!("baseline check: {line}");
                let all = rows.len().max(fresh_rows.len());
                return (all, all);
            }
        }
    }
    let extra = report
        .notes
        .iter()
        .filter(|l| l.starts_with("case ") && l.contains(": new (not in baseline"))
        .count();
    for key in failing.iter().take(5) {
        println!("baseline check: cell {key} disagrees with its baseline row");
    }
    (rows.len() + extra, failing.len() + extra)
}

/// Every family's graphs at the quick sizes, by (family, vertices).
type Graphs = BTreeMap<(&'static str, usize), Arc<Graph>>;

/// What set-up left for the timed loop, and its timings.
struct Setup {
    setup_s: Vec<f64>,
    digest_s: Vec<f64>,
    build_ms: Vec<f64>,
    graphs: Graphs,
}

/// Set-up, repeated: fresh cache directories, source digests, and every
/// family's graphs at the quick sizes. The first dataset-backed build of
/// each repetition parses the dataset and fills the CSR cache.
fn setup(dirs: &Dirs, tracer: &mut Tracer) -> Setup {
    let mut s = Setup {
        setup_s: Vec::new(),
        digest_s: Vec::new(),
        build_ms: Vec::new(),
        graphs: BTreeMap::new(),
    };
    for rep in 0..SETUP_REPS as u64 {
        tracer.enter("setup", rep);
        let t0 = Instant::now();
        fresh_dir(&dirs.cells);
        fresh_dir(&dirs.datasets);
        fresh_dir(&dirs.out);
        tracer.enter("bench.source_digests", rep);
        let t1 = Instant::now();
        SourceDigests::compute().expect("digest the sources");
        s.digest_s.push(t1.elapsed().as_secs_f64());
        tracer.exit();
        s.graphs.clear();
        let mut built = Duration::ZERO;
        for family in FAMILIES {
            for n in QUICK_SIZES {
                tracer.enter("graphs.instance", rep);
                let t2 = Instant::now();
                let g = family.instance(n, GRAPH_SEED_BASE + n as u64).graph;
                built += t2.elapsed();
                tracer.exit();
                s.graphs.insert((family.name(), g.n()), Arc::new(g));
            }
        }
        s.build_ms.push(built.as_secs_f64() * 1e3);
        s.setup_s.push(t0.elapsed().as_secs_f64());
        tracer.exit();
    }
    s
}

/// The cold passes: op samples and the last pass's runs; and the warm
/// reruns after them: their times and the last rerun's runs.
struct Cold {
    runs: Vec<FamilyRun>,
    cell_ms: Vec<f64>,
    cell_ns: f64,
    actions: u64,
    /// Wall-clock of every cold pass, emits included.
    wall_s: f64,
    warm_ms: Vec<f64>,
    warm: Vec<FamilyRun>,
}

impl Cold {
    fn cells(&self) -> usize {
        self.runs.iter().map(|r| r.cases().len()).sum()
    }
}

/// Charged actions of one cold cell's runs. A faulted cell also ran a
/// clean twin per seed, whose total the overhead ratio recovers.
fn cell_actions(case: &Case) -> u64 {
    let faulted = param_str(case, "fault") != "none";
    case.measurements
        .iter()
        .map(|m| {
            let total = m.metric("energy_total").unwrap_or(0.0);
            let overhead = m.metric("energy_overhead_vs_clean").unwrap_or(0.0);
            let twin = if faulted && overhead > 0.0 {
                total / overhead
            } else {
                0.0
            };
            (total + twin).round() as u64
        })
        .sum()
}

/// Rounds of one cold pass into a fresh cell cache followed by
/// [`WARM_RERUNS`] warm reruns from it, while the next round is expected
/// to end inside the window (always at least [`MIN_ROUNDS`]). Every
/// pass's cells are checked against the baseline, untimed.
fn cold_passes(
    order: &[Family],
    window: Duration,
    dirs: &Dirs,
    baseline: &Baseline,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Cold {
    let mut cold = Cold {
        runs: Vec::new(),
        cell_ms: Vec::new(),
        cell_ns: 0.0,
        actions: 0,
        wall_s: 0.0,
        warm_ms: Vec::new(),
        warm: Vec::new(),
    };
    let started = Instant::now();
    let mut last_round = Duration::ZERO;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed() + last_round <= window {
        rounds += 1;
        let round = Instant::now();
        // The last round's results go first, so that peak memory does not
        // depend on how many rounds fit in the window.
        cold.runs.clear();
        cold.warm.clear();
        fresh_dir(&dirs.cells);
        cold.runs = run_all(order, dirs, tracer);
        cold.wall_s += cold.runs.iter().map(FamilyRun::wall_s).sum::<f64>();
        for run in &cold.runs {
            for cell in run.cells() {
                let ns = (cell.build + cell.sim + cell.cache).as_nanos() as f64;
                cold.cell_ms.push(ns / 1e6);
                cold.cell_ns += ns;
            }
            cold.actions += run.cases().iter().map(cell_actions).sum::<u64>();
            let (compared, failing) = check_family(baseline, run);
            for i in 0..compared {
                report.op(i >= failing);
            }
        }
        if cold.cells() != EXPECTED_CELLS {
            println!("cell count {} != expected {EXPECTED_CELLS}", cold.cells());
            report.op(false);
        }
        let (warm_ms, warm) = warm_reruns(order, &cold.runs, dirs, tracer, report);
        cold.warm_ms.extend(warm_ms);
        cold.warm = warm;
        last_round = round.elapsed();
    }
    cold
}

/// The all-hits reruns from the cache cold pass `cold` filled: each is
/// one op, passing iff every cell hit and every case document matches the
/// cold pass byte for byte. Returns the rerun times and the last rerun.
fn warm_reruns(
    order: &[Family],
    cold: &[FamilyRun],
    dirs: &Dirs,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Vec<f64>, Vec<FamilyRun>) {
    let cold_json: Vec<Option<String>> = cold
        .iter()
        .map(|r| r.result.as_ref().map(cases_json))
        .collect();
    let mut warm_ms = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..WARM_RERUNS {
        let t0 = Instant::now();
        warm = run_all(order, dirs, tracer);
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ok = warm.iter().zip(&cold_json).all(|(w, json)| {
            let (Some(result), Some(json)) = (&w.result, json) else {
                return false;
            };
            let stats = result.cache.unwrap_or_default();
            stats.hits == result.cases.len() && stats.executed() == 0 && cases_json(result) == *json
        });
        report.op(ok);
    }
    (warm_ms, warm)
}

/// Runs the workload; see [`crate::broadcast::run`] for the two passes.
pub fn run(args: &Args, dirs: &Dirs, tracer: &mut Tracer, report: &mut Report) {
    let baseline = Baseline::load();
    let setup = setup(dirs, tracer);
    println!(
        "input: scenario_matrix quick, families {:?}, sizes {:?}, unlimited cell budget, \
         {} worker threads; family order from seed {}",
        FAMILIES.map(Family::name),
        QUICK_SIZES,
        std::env::var("EBC_NUM_THREADS").unwrap_or_default(),
        args.seed
    );
    // The family order is the only input the seed reaches: each cell's
    // graph and seeds are fixed, so that it can be checked against the
    // checked-in baseline.
    let mut order = FAMILIES.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, (mix(args.seed, i as u64) % (i as u64 + 1)) as usize);
    }

    tracer.set_enabled(false);
    let window = Duration::from_secs_f64(args.seconds);
    let cold = cold_passes(&order, window, dirs, &baseline, tracer, report);
    let mut by_family: Vec<&FamilyRun> = cold.runs.iter().collect();
    by_family.sort_by_key(|r| FAMILIES.iter().position(|&f| f == r.family));
    let digest = probe::fold_digests(by_family.iter().map(|r| {
        r.result
            .as_ref()
            .map_or(0, |res| fnv1a64(cases_json(res).as_bytes()))
    }));
    println!("sim_digest {digest:016x} (every cold cell's case document)");
    let cell_ms = &cold.cell_ms;
    match stats::tail(cell_ms) {
        Some(t) => println!(
            "tail: p{} = {:.3} ms ({} samples beyond)",
            t.pct, t.value, t.beyond
        ),
        None => println!(
            "tail: no percentile has {} samples beyond it",
            stats::TAIL_MIN_BEYOND
        ),
    }
    let run_ns_per_action = stats::ns_per_action(cold.cell_ns, cold.actions).unwrap_or(0.0);

    if !args.trace {
        let measurements = || {
            cold.runs
                .iter()
                .flat_map(FamilyRun::cases)
                .flat_map(|c| &c.measurements)
        };
        let energy: Vec<f64> = measurements()
            .filter_map(|m| m.metric("energy_max"))
            .collect();
        let slots: Vec<f64> = measurements().filter_map(|m| m.metric("time")).collect();
        let n = cell_ms.len();
        let setup_s = stats::median(&setup.setup_s).unwrap_or(0.0);
        report.add("setup_s", setup_s, SETUP_REPS);
        report.add("run_ms_p50", stats::median(cell_ms).unwrap_or(0.0), n);
        report.add("ops_per_s", n as f64 / cold.wall_s, n);
        report.add("ns_per_action", run_ns_per_action, n);
        let warm_rerun_ms = stats::median(&cold.warm_ms).unwrap_or(0.0);
        report.add("warm_rerun_ms", warm_rerun_ms, cold.warm_ms.len());
        report.add("ok_frac", report.ok_frac(), report.attempted as usize);
        report.add("peak_rss_mb", peak_rss_mb(), 1);
        let energy_p50 = stats::median(&energy).unwrap_or(0.0);
        report.add("energy_max_p50", energy_p50, energy.len());
        report.add(
            "time_slots_p50",
            stats::median(&slots).unwrap_or(0.0),
            slots.len(),
        );
        return;
    }

    // The traced pass: one warm rerun with the bench-layer calls in spans,
    // then the replay.
    tracer.set_enabled(true);
    tracer.enter("op", u64::MAX);
    run_all(&order, dirs, tracer);
    tracer.exit();
    let replay = replay(&cold, &setup.graphs, tracer, report);
    let drive = probe::drive_ns_per_action(&drive_targets(&setup.graphs), DRIVE_ACTIONS, 3);
    let ops = cold.cells();
    let graph_count = setup.graphs.len();
    let vertices: usize = setup.graphs.values().map(|g| g.n()).sum();
    let edges: usize = setup.graphs.values().map(|g| g.m()).sum();
    let build_ms = stats::median(&setup.build_ms).unwrap_or(0.0);
    report.add("graphs.build_ms", build_ms, SETUP_REPS);
    report.add("graphs.vertices", vertices as f64, graph_count);
    report.add("graphs.edges", edges as f64, graph_count);
    let runs = replay.run_ms.len();
    report.add(
        "radio.sim_new_us",
        stats::median(&replay.sim_new_us).unwrap_or(0.0),
        runs,
    );
    replay.totals.report(ops, report);
    report.add("radio.drive_ns_per_action", drive, 3);
    report.add(
        "radio.trace_overhead_pct",
        100.0 * (replay.traced_ns as f64 / replay.untraced_ns.max(1) as f64 - 1.0),
        runs,
    );
    report.add(
        "core.run_ms",
        stats::median(&replay.run_ms).unwrap_or(0.0),
        runs,
    );
    report.add(
        "core.algo_ns_per_action",
        stats::algo_ns_per_action(run_ns_per_action, drive),
        ops,
    );
    let cold_cells = || cold.runs.iter().flat_map(FamilyRun::cells);
    let sim_total: f64 = cold_cells().map(|c| c.sim.as_secs_f64()).sum();
    for alg in SWEEP_ALGORITHMS {
        let label = format!("algorithm={alg}");
        let sim: f64 = cold_cells()
            .filter(|c| c.label.split(' ').any(|kv| kv == label))
            .map(|c| c.sim.as_secs_f64())
            .sum();
        report.add(
            &format!("core.sweep.{alg}.sim_share"),
            share(sim, sim_total),
            ops,
        );
    }
    bench_layer(&setup, &cold, report);
}

/// The bench-layer metrics, from the program's own per-cell profile and
/// the benchmark's timing of each call.
fn bench_layer(setup: &Setup, cold: &Cold, report: &mut Report) {
    let warm = &cold.warm[..];
    let stat = |runs: &[FamilyRun], f: fn(CacheStats) -> usize| -> f64 {
        runs.iter()
            .filter_map(|r| r.result.as_ref()?.cache)
            .map(f)
            .sum::<usize>() as f64
    };
    let cell_time = |runs: &[FamilyRun], f: fn(&CellProfile) -> Duration| -> f64 {
        runs.iter()
            .flat_map(FamilyRun::cells)
            .map(|c| f(c).as_secs_f64())
            .sum()
    };
    let cold_pass_s: f64 = cold.runs.iter().map(FamilyRun::wall_s).sum();
    let warm_s: f64 = warm.iter().map(FamilyRun::wall_s).sum();
    let analysis_s: f64 = warm
        .iter()
        .filter_map(|r| r.result.as_ref())
        .map(|r| r.profile.analysis.as_secs_f64())
        .sum();
    let emit_s: f64 = warm.iter().map(|r| r.emit_s).sum();
    let digest_s = stats::median(&setup.digest_s).unwrap_or(0.0);
    let setup_s = stats::median(&setup.setup_s).unwrap_or(0.0);
    let cells = cold.cells();
    let sim_share = share(cell_time(&cold.runs, |c| c.sim), cold_pass_s);
    let store_share = share(cell_time(&cold.runs, |c| c.cache), cold_pass_s);
    let load_share = share(cell_time(warm, |c| c.cache), warm_s);
    report.add("bench.cells", cells as f64, 1);
    report.add(
        "bench.cells_executed",
        stat(&cold.runs, |s| s.executed()),
        1,
    );
    report.add("bench.cache_hits", stat(warm, |s| s.hits), 1);
    report.add("bench.cache_misses", stat(&cold.runs, |s| s.misses), 1);
    report.add("bench.cell_sim_share", sim_share, cells);
    report.add("bench.cache_store_share", store_share, cells);
    report.add("bench.cache_load_share", load_share, cells);
    report.add("bench.analysis_share", share(analysis_s, warm_s), 1);
    report.add("bench.emit_share", share(emit_s, warm_s), 1);
    report.add("bench.digest_share", share(digest_s, setup_s), SETUP_REPS);
    println!(
        "bench: cold pass {:.1} ms, warm rerun {:.1} ms (analysis {:.2} ms, emit {:.2} ms), \
         digests {:.2} ms",
        cold_pass_s * 1e3,
        warm_s * 1e3,
        analysis_s * 1e3,
        emit_s * 1e3,
        digest_s * 1e3
    );
}

/// The replay's totals and timings.
struct Replay {
    totals: RunTotals,
    untraced_ns: u64,
    traced_ns: u64,
    run_ms: Vec<f64>,
    sim_new_us: Vec<f64>,
}

/// Replays every measured run of the last cold pass through the radio
/// and core layers directly: untraced, then with telemetry and spans.
/// The clean twins of faulted cells are the clean cells' own runs, so
/// they are not replayed twice. Each traced run must reproduce the
/// result its cell recorded; one op counts every mismatch.
fn replay(cold: &Cold, graphs: &Graphs, tracer: &mut Tracer, report: &mut Report) -> Replay {
    let mut r = Replay {
        totals: RunTotals::default(),
        untraced_ns: 0,
        traced_ns: 0,
        run_ms: Vec::new(),
        sim_new_us: Vec::new(),
    };
    let mut mismatches = 0usize;
    for (cell, case) in cold.runs.iter().flat_map(FamilyRun::cases).enumerate() {
        let cell = cell as u64;
        let n = param(case, "n").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let graph = graphs.get(&(
            FAMILIES
                .iter()
                .map(|f| f.name())
                .find(|&f| f == param_str(case, "family"))
                .unwrap_or(""),
            n,
        ));
        let (Some(graph), Some(model), Some(alg)) = (
            graph,
            model_by_name(param_str(case, "model")),
            by_name(param_str(case, "algorithm")),
        ) else {
            mismatches += 1;
            continue;
        };
        let plan = matrix_fault_plan(param_str(case, "fault"), graph.n());
        for m in &case.measurements {
            let t0 = Instant::now();
            let mut sim = Sim::with_faults(Arc::clone(graph), model, m.seed, plan.clone());
            alg.run(&mut sim, 0);
            r.untraced_ns += t0.elapsed().as_nanos() as u64;

            let depth = tracer.depth();
            let same = catch_unwind(AssertUnwindSafe(|| {
                tracer.enter("op", cell);
                let t0 = Instant::now();
                tracer.enter("radio.sim_new", cell);
                let mut sim = Sim::with_faults(Arc::clone(graph), model, m.seed, plan.clone());
                r.sim_new_us.push(tracer.exit() as f64 / 1e3);
                sim.set_telemetry(probe::recorder(COUNTER_ROWS));
                tracer.enter("core.run", cell);
                alg.run(&mut sim, 0);
                r.run_ms.push(tracer.exit() as f64 / 1e6);
                r.traced_ns += t0.elapsed().as_nanos() as u64;
                tracer.exit();
                let telemetry = sim.take_telemetry().expect("telemetry was attached");
                r.totals.absorb(&sim, &telemetry);
                let e = sim.meter().report();
                m.metric("time") == Some(e.time as f64)
                    && m.metric("energy_total") == Some(e.total as f64)
                    && m.metric("energy_max") == Some(e.max as f64)
            }));
            tracer.close_to(depth);
            mismatches += usize::from(!same.unwrap_or(false));
        }
    }
    if mismatches > 0 {
        println!("replay: {mismatches} runs did not reproduce their cell's recorded result");
    }
    report.op(mismatches == 0);
    r
}

/// The drive microbench's targets: each family's largest quick-size
/// graph under every messaging model.
fn drive_targets(graphs: &Graphs) -> Vec<(Arc<Graph>, Model)> {
    FAMILIES
        .iter()
        .filter_map(|f| {
            graphs
                .iter()
                .filter(|((name, _), _)| *name == f.name())
                .max_by_key(|((_, n), _)| *n)
        })
        .flat_map(|(_, g)| MESSAGING_MODELS.map(|m| (Arc::clone(g), m)))
        .collect()
}
