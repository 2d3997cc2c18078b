//! The metric sets the benchmark declares, and the report it prints: one
//! human-readable line per metric (name, value, unit, sample count), then
//! the result object as the last line of standard output.

use std::fmt::Write as _;

/// The end-to-end metrics, `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_ms_p50", "ms"),
    ("ops_per_s", "1/s"),
    ("ns_per_action", "ns"),
    ("warm_rerun_ms", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("energy_max_p50", "actions"),
    ("time_slots_p50", "slots"),
];

/// The protocol phases whose telemetry spans the traced pass reads.
pub const PHASES: [&str; 7] = [
    "relabel",
    "broadcast",
    "up_cast",
    "down_cast",
    "all_cast",
    "ruling_set",
    "merge",
];

/// The algorithms whose share of op time the traced pass reports: every
/// registered algorithm that runs on the sweep's families.
pub const SWEEP_ALGORITHMS: [&str; 9] = [
    "theorem11",
    "theorem12",
    "corollary13",
    "theorem16",
    "theorem20",
    "det_local_theorem25",
    "det_cd_theorem27",
    "naive_flood",
    "bgi_decay",
];

/// The per-layer metrics, `(name, unit)`, measured in the traced pass.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("graphs.build_ms", "ms"),
        ("graphs.vertices", "count"),
        ("graphs.edges", "count"),
        ("radio.sim_new_us", "us"),
        ("radio.actions", "count"),
        ("radio.sends", "count"),
        ("radio.listens", "count"),
        ("radio.slots_simulated", "slots"),
        ("radio.slots_skipped", "slots"),
        ("radio.slots_stepped", "slots"),
        ("radio.polls_per_stepped_slot", "ratio"),
        ("radio.deliveries", "count"),
        ("radio.collisions", "count"),
        ("radio.useful_listen_ratio", "ratio"),
        ("radio.drive_ns_per_action", "ns"),
        ("radio.lost_sends", "count"),
        ("radio.jammed_slots", "slots"),
        ("radio.counters_dropped", "count"),
        ("radio.trace_overhead_pct", "%"),
        ("core.run_ms", "ms"),
        ("core.algo_ns_per_action", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for phase in PHASES {
        out.push((format!("core.phase.{phase}.slots"), "slots"));
        out.push((format!("core.phase.{phase}.slot_share"), "ratio"));
        out.push((format!("core.phase.{phase}.actions"), "count"));
    }
    for alg in SWEEP_ALGORITHMS {
        out.push((format!("core.sweep.{alg}.sim_share"), "ratio"));
    }
    for (n, u) in BENCH_METRICS {
        out.push((n.to_string(), u));
    }
    out
}

/// The bench layer's per-layer metrics; only `sweep-quick` reaches it.
/// Its timings are shares of the pass they belong to, so that a
/// workload that bypasses the layer reads 0 without reporting a time.
pub const BENCH_METRICS: [(&str, &str); 10] = [
    ("bench.cells", "count"),
    ("bench.cells_executed", "count"),
    ("bench.cache_hits", "count"),
    ("bench.cache_misses", "count"),
    ("bench.cell_sim_share", "ratio"),
    ("bench.cache_store_share", "ratio"),
    ("bench.cache_load_share", "ratio"),
    ("bench.analysis_share", "ratio"),
    ("bench.emit_share", "ratio"),
    ("bench.digest_share", "ratio"),
];

/// One measured metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// The metrics, op counts and notes of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check (or panicked).
    pub failed: u64,
}

impl Report {
    /// Records `name` with the unit its declaration gives it.
    ///
    /// # Panics
    ///
    /// Panics if `name` is declared in neither metric set, or `value` is
    /// not finite: both are bugs in the benchmark.
    pub fn add(&mut self, name: &str, value: f64, samples: usize) {
        let unit = END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .or_else(|| {
                per_layer()
                    .into_iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, u)| u)
            })
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // An empty f64 sum is -0.0; report it as 0.
        let value = value + 0.0;
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records one op's outcome.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The share of attempted ops that passed every check.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        }
    }

    /// Prints one line per metric, then the result object as the last
    /// line. `trace` selects which declared set must be complete.
    ///
    /// # Panics
    ///
    /// Panics if the selected set is not exactly the recorded metrics.
    pub fn print(&self, trace: bool) {
        let declared: Vec<String> = if trace {
            per_layer().into_iter().map(|(n, _)| n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
        };
        let mut recorded: Vec<&str> = self.metrics.iter().map(|m| m.name.as_str()).collect();
        recorded.sort_unstable();
        let mut want: Vec<&str> = declared.iter().map(String::as_str).collect();
        want.sort_unstable();
        assert_eq!(
            recorded, want,
            "recorded metrics differ from the declared set"
        );
        for m in &self.metrics {
            println!(
                "metric {:<36} {:>18.6} {:<8} (samples={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        println!("ops attempted={} failed={}", self.attempted, self.failed);
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            // `{}` prints an f64 with every digit needed to read it back.
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_sets_match_benchmark_json() {
        let doc = ebc_bench::json::Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn sweep_algorithms_are_registered() {
        for alg in SWEEP_ALGORITHMS {
            assert!(ebc_core::suite::by_name(alg).is_some(), "{alg}");
        }
    }

    #[test]
    fn ok_frac_counts_failures_against_attempts() {
        let mut r = Report::default();
        assert_eq!(r.ok_frac(), 0.0);
        for ok in [true, true, false, true] {
            r.op(ok);
        }
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.ok_frac(), 0.75);
    }
}
