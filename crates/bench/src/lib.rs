//! The experiment harness: every row of the paper's Table 1 and every
//! figure, as a structured, parallel, JSON-emitting experiment subsystem.
//!
//! The layers:
//!
//! * [`measure`] — [`measure::Measurement`] / [`measure::Summary`] and the
//!   rayon-parallel seed sweeps ([`measure::sweep_seeds`],
//!   [`measure::sweep_broadcast`]), plus the [`measure::CaseRunner`]
//!   executor routing every cell through the cache and splitting each
//!   cell's wall-clock into build / sim / analysis / cache time
//!   ([`measure::RunnerProfile`], emitted as `BENCH_profile.json`).
//! * [`cache`] — the content-addressed cell cache: on-disk results keyed
//!   on `(cell-config hash, per-crate source digests)`, making
//!   `--check-against` / `--update-baselines` incremental (warm cells
//!   skip execution; a graphs-only edit invalidates only graph-sensitive
//!   cells).
//! * [`experiments`] — the registry: one [`experiments::ExperimentSpec`]
//!   per experiment, run via [`experiments::run_experiment`], producing an
//!   [`experiments::ExperimentResult`].
//! * [`scenario`] — the scenario matrix: the full `Family × Model ×
//!   algorithm × n` cross-product over [`ebc_core::suite`], with skipped
//!   incompatible pairs counted in the emitted JSON and per-cell
//!   wall-clock budgets truncating runaway n-sweeps.
//! * [`analysis`] — log-log scaling fits across the matrix's n axis:
//!   exponent, R², bootstrap exponent CIs, and a polylog-vs-polynomial
//!   growth classification per `(algorithm, family, model)` cell, emitted
//!   as `BENCH_scaling_fits.json`.
//! * [`stats`] — the statistics layer under the fits: a deterministic
//!   splitmix-seeded resampler, percentile confidence intervals, and the
//!   seed-level bootstrap driver.
//! * [`baseline`] — checked-in baselines under `bench-baselines/` (one
//!   per registered experiment) and the `--check-against` regression gate
//!   diffing summaries, gate scalars, *and* exponent CIs.
//! * [`json`] — the dependency-free JSON document model the results
//!   serialize through (schema-stable field order), with a parser for
//!   reading baselines back.
//! * [`report`] — aligned human-readable tables of the same results.
//!
//! The CLI (`cargo run -p ebc-bench -- --list`) and the `cargo bench`
//! targets under `benches/` are thin wrappers over [`run_to_files`].
//! Absolute constants are not expected to match the paper's asymptotic
//! formulas; the *shape* is what each experiment demonstrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod cache;
pub mod experiments;
pub mod json;
pub mod measure;
pub mod report;
pub mod scenario;
pub mod stats;

pub use experiments::{
    find_experiment, run_experiment, ExperimentOutput, ExperimentResult, ExperimentSpec,
    EXPERIMENTS, SCHEMA_VERSION,
};
pub use measure::{Case, Measurement, RunConfig, Stats, Summary};

use std::path::{Path, PathBuf};

use json::Json;

/// Writes `result`'s JSON documents under `out_dir`: `BENCH_<name>.json`
/// always, plus `BENCH_scaling_fits.json` when the result carries a
/// top-level `fits` section (the scenario matrix). Returns the written
/// paths, main document first.
pub fn write_result_files(
    result: &ExperimentResult,
    out_dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    let path = out_dir.join(format!("BENCH_{}.json", result.spec.name));
    std::fs::write(&path, result.to_json().to_string_pretty())?;
    paths.push(path);
    if let Some((_, fits)) = result.extra.iter().find(|(k, _)| *k == "fits") {
        let doc = Json::obj()
            .field("schema_version", SCHEMA_VERSION)
            .field("experiment", "scaling_fits")
            .field("source", result.spec.name)
            .field(
                "config",
                Json::obj()
                    .field("seeds", result.config.seeds.map_or(Json::Null, Json::from))
                    .field("quick", result.config.quick),
            )
            .field("fits", fits.clone());
        let path = out_dir.join("BENCH_scaling_fits.json");
        std::fs::write(&path, doc.to_string_pretty())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Prints `result`'s table (with the run's wall-clock) and writes its
/// JSON documents under `out_dir` (see [`write_result_files`]). The
/// shared back half of [`run_to_files`] and the CLI, which needs the
/// [`ExperimentResult`] itself for the baseline gate.
pub fn report_and_write(
    result: &ExperimentResult,
    elapsed: std::time::Duration,
    out_dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    print!("{}", report::render(result));
    print!("{}", report::render_profile(result));
    println!(
        "[{} cases in {:.2}s across {} threads]",
        result.cases.len(),
        elapsed.as_secs_f64(),
        rayon::current_num_threads()
    );
    write_result_files(result, out_dir)
}

/// Runs `spec`, prints its table, and writes its JSON documents under
/// `out_dir` (see [`write_result_files`]). Returns the main written path.
pub fn run_to_files(
    spec: &'static ExperimentSpec,
    config: &RunConfig,
    out_dir: &Path,
) -> std::io::Result<PathBuf> {
    let started = std::time::Instant::now();
    let result = run_experiment(spec, config);
    let paths = report_and_write(&result, started.elapsed(), out_dir)?;
    Ok(paths.into_iter().next().expect("main path"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_to_files_writes_named_json() {
        let dir = std::env::temp_dir().join("ebc_bench_test_out");
        std::fs::create_dir_all(&dir).unwrap();
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            ..RunConfig::default()
        };
        let path = run_to_files(find_experiment("table1_det").unwrap(), &config, &dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "BENCH_table1_det.json"
        );
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"experiment\": \"table1_det\""), "{body}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scenario_matrix_also_writes_the_fits_document() {
        let dir = std::env::temp_dir().join("ebc_bench_test_fits_out");
        std::fs::create_dir_all(&dir).unwrap();
        let config = RunConfig {
            seeds: Some(1),
            quick: true,
            budget_ms: Some(0),
            family: Some("cycle".into()),
            model: Some("cd".into()),
            ..RunConfig::default()
        };
        let result = run_experiment(find_experiment("scenario_matrix").unwrap(), &config);
        let paths = write_result_files(&result, &dir).unwrap();
        assert_eq!(paths.len(), 2, "{paths:?}");
        assert!(paths[1].ends_with("BENCH_scaling_fits.json"));
        let body = std::fs::read_to_string(&paths[1]).unwrap();
        let doc = Json::parse(&body).unwrap();
        assert_eq!(doc.get("source").unwrap().as_str(), Some("scenario_matrix"));
        assert!(!doc.get("fits").unwrap().as_arr().unwrap().is_empty());
        for p in paths {
            std::fs::remove_file(p).ok();
        }
    }
}
