//! The content-addressed cell cache: the on-disk result store that makes
//! sweeps incremental.
//!
//! Every experiment case — one `(params, seed set)` cell of a sweep — is
//! keyed by two components:
//!
//! * the **cell-config key** ([`case_key`]): the experiment name, every
//!   case param (`family`, `model`, `algorithm`, `n`, `fault`, …) in
//!   *sorted* order, and the seed count. Sorting makes the key stable
//!   under param reordering; the seed list itself is derived
//!   deterministically from the count ([`crate::measure::master_seed`]),
//!   so the count pins the exact seed set. Wall-clock budget knobs are
//!   deliberately **not** part of the key: the budget decides which cells
//!   run, never what a cell measures, so a budgeted smoke run and an
//!   unlimited gate run share entries for the cells they have in common.
//! * the **code-version fingerprint**: one source digest per workspace
//!   crate feeding the cell ([`SourceDigests`]), stored alongside the
//!   result. A lookup revalidates each dependency digest against the
//!   current sources, so a `crates/graphs` edit invalidates every cell
//!   that builds a graph while a `crates/singlehop` edit only invalidates
//!   the cells whose algorithms reach single-hop code
//!   ([`deps_for`]). The `bench` digest covers only the measurement
//!   recipes (`experiments.rs`, `scenario.rs`, `measure.rs`) — report or
//!   gate-layer changes never invalidate measured cells. Cells whose
//!   `family` is dataset-derived additionally carry one `dataset:<file>`
//!   pseudo-dependency per backing file, digesting the dataset's
//!   *content* — editing the dataset on disk invalidates exactly the
//!   dataset-backed cells, the same way a source edit invalidates its
//!   dependents.
//!
//! Entries live under `<cache-dir>/<hh>/<hash16>.json` (two-hex-char
//! shards of the FNV-1a key hash). Each entry stores the full key (hash
//! collisions degrade to misses, never to wrong results), the dependency
//! digests it was built under, and the case's serialized measurements.
//! Writes go through a temp file + atomic rename, so concurrent sweeps
//! and a crashed run can never leave a torn entry behind.
//!
//! Non-finite metrics serialize as JSON `null` and would not survive a
//! round trip bit-identically, so cases containing any non-finite
//! measurement are never stored — they simply re-run every time.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;
use crate::measure::{Case, Measurement};

/// Cache entry schema version; entries with another version are misses.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// The workspace crates that can feed a cell, in digest order.
pub const DEP_CRATES: [&str; 5] = ["radio", "graphs", "singlehop", "core", "bench"];

/// Dependency set of cells that execute single-hop (leader-election /
/// SR-transform) code — at module granularity, everything that reaches
/// `ebc_core::srcomm` or `ebc_core::reduction`.
pub const FULL_DEPS: &[&str] = &DEP_CRATES;

/// Dependency set of cells that provably never reach `ebc-singlehop`:
/// flooding, BGI decay, and the §8 path algorithm live in modules that
/// import only the engine, the graph layer, and core utilities.
pub const NO_SINGLEHOP_DEPS: &[&str] = &["radio", "graphs", "core", "bench"];

/// Algorithms whose cells take [`NO_SINGLEHOP_DEPS`]; everything else is
/// conservatively given the full set (an over-approximation is always
/// sound — it can only cause extra re-runs, never a stale hit).
const NO_SINGLEHOP_ALGOS: [&str; 3] = ["naive_flood", "bgi_decay", "path_theorem21"];

/// The bench-crate sources that shape measurements (the `bench` digest).
const BENCH_RECIPE_FILES: [&str; 3] = ["experiments.rs", "scenario.rs", "measure.rs"];

/// Streaming FNV-1a 64-bit hash — stable across platforms and runs, which
/// is all a cache key needs (this is not a cryptographic boundary).
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}

fn hex16(h: u64) -> String {
    format!("{h:016x}")
}

/// The dependency set of one cell, from its experiment and params: the
/// crate set plus — for cells whose `family` param names a
/// dataset-derived family — one `dataset:<file>` pseudo-dependency per
/// backing file, so editing the dataset on disk invalidates exactly the
/// cells whose graphs were built from it. (Before this, dataset-backed
/// cells were keyed only on crate sources and would serve stale results
/// after a dataset edit.)
///
/// The `algorithm` param (the registry name) drives the crate split; the
/// `fig1_path` experiment is the path algorithm by construction and gets
/// the same treatment despite carrying no `algorithm` param. Unknown
/// algorithms — and experiments whose cells mix primitives (`ablation`,
/// `table1_lower`) — take the full set.
pub fn deps_for(experiment: &str, params: &[(&'static str, Json)]) -> Vec<&'static str> {
    let algorithm = params
        .iter()
        .find(|(k, _)| *k == "algorithm")
        .and_then(|(_, v)| v.as_str());
    let crates: &[&str] = if experiment == "fig1_path" {
        NO_SINGLEHOP_DEPS
    } else {
        match algorithm {
            Some(a) if NO_SINGLEHOP_ALGOS.contains(&a) => NO_SINGLEHOP_DEPS,
            _ => FULL_DEPS,
        }
    };
    let mut deps: Vec<&'static str> = crates.to_vec();
    if let Some(family) = params
        .iter()
        .find(|(k, _)| *k == "family")
        .and_then(|(_, v)| v.as_str())
    {
        for file in ebc_graphs::datasets::family_files(family) {
            deps.push(dataset_dep(file));
        }
    }
    deps
}

/// The pseudo-dependency key of one dataset file (`dataset:<file>`),
/// interned so deserialized and live cells share one `&'static str`.
pub fn dataset_dep(file: &str) -> &'static str {
    intern(&format!("dataset:{file}"))
}

fn canon_param(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        Json::Int(i) => i.to_string(),
        Json::Num(x) => format!("{x}"),
        Json::Bool(b) => b.to_string(),
        // Params are scalars today; containers get the (stable) serializer.
        other => other.to_string_pretty(),
    }
}

/// The cell-config key of one case: experiment, seed count, and every
/// param as `key=value` in **sorted** order — reordering the params of a
/// case never changes its key.
pub fn case_key(experiment: &str, params: &[(&'static str, Json)], seeds: u64) -> String {
    let mut parts: Vec<String> = params
        .iter()
        .map(|(k, v)| format!("{k}={}", canon_param(v)))
        .collect();
    parts.sort();
    format!("{experiment}|seeds={seeds}|{}", parts.join("|"))
}

/// Per-crate source digests — the code-version half of every cache key.
#[derive(Debug, Clone)]
pub struct SourceDigests {
    digests: BTreeMap<&'static str, String>,
}

impl SourceDigests {
    /// Computes digests from the default source root: `$EBC_SRC_ROOT` if
    /// set, else the workspace root this binary was built from.
    pub fn compute() -> Result<SourceDigests, String> {
        Self::compute_at(&default_root())
    }

    /// Computes digests for the workspace rooted at `root` (tests point
    /// this at planted source trees).
    ///
    /// Besides the per-crate digests, every vendored dataset file gets a
    /// `dataset:<file>` digest — the content key dataset-backed cells
    /// validate against. Dataset files resolve through
    /// `$EBC_DATASET_DIR` when set (the `--dataset-dir` flag), else
    /// `<root>/datasets`; a missing file digests as `"absent"`, so
    /// adding the file later reads as a content change.
    pub fn compute_at(root: &Path) -> Result<SourceDigests, String> {
        let mut digests = BTreeMap::new();
        for krate in DEP_CRATES {
            digests.insert(krate, crate_digest(root, krate)?);
        }
        let dataset_root = match std::env::var_os("EBC_DATASET_DIR") {
            Some(dir) => PathBuf::from(dir),
            None => root.join("datasets"),
        };
        for file in ebc_graphs::datasets::SAMPLE_FILES {
            let digest = match std::fs::read(dataset_root.join(file)) {
                Ok(bytes) => hex16(fnv1a64(&bytes)),
                Err(_) => "absent".to_string(),
            };
            digests.insert(dataset_dep(file), digest);
        }
        Ok(SourceDigests { digests })
    }

    /// The digest under `key` (a crate name or `dataset:<file>`), if
    /// this fingerprint knows it.
    pub fn try_digest(&self, key: &str) -> Option<&str> {
        self.digests.get(key).map(String::as_str)
    }

    /// The digest of one crate (panics on names outside [`DEP_CRATES`]).
    pub fn digest(&self, krate: &str) -> &str {
        self.digests
            .get(krate)
            .unwrap_or_else(|| panic!("unknown dep crate {krate:?}"))
    }

    /// One combined fingerprint over `deps`' digests — order-independent
    /// in the input (the set is sorted first).
    pub fn fingerprint(&self, deps: &[&str]) -> String {
        let mut sorted: Vec<&str> = deps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut h = Fnv::default();
        for krate in sorted {
            h.update(krate.as_bytes());
            h.update(b"=");
            h.update(self.digest(krate).as_bytes());
            h.update(b"\n");
        }
        hex16(h.finish())
    }

    /// The combined fingerprint over every dependency this store knows —
    /// all crates *and* all dataset files — what CI keys its cross-run
    /// cache restore on. A dataset edit moves it just like a source edit.
    pub fn combined(&self) -> String {
        let keys: Vec<&str> = self.digests.keys().copied().collect();
        self.fingerprint(&keys)
    }

    /// All per-crate digests as a JSON object (the cache-stats document).
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj();
        for (krate, digest) in &self.digests {
            obj = obj.field(krate, digest.as_str());
        }
        obj
    }
}

/// The workspace root the digests read sources from.
fn default_root() -> PathBuf {
    match std::env::var_os("EBC_SRC_ROOT") {
        Some(root) => PathBuf::from(root),
        // crates/bench → crates → workspace root.
        None => Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf(),
    }
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Digest of one crate's sources: every `.rs` under `crates/<name>/src`
/// (for `bench`, only the measurement-recipe files), hashed as sorted
/// `(relative path, contents)` pairs.
fn crate_digest(root: &Path, krate: &str) -> Result<String, String> {
    let src = root.join("crates").join(krate).join("src");
    let mut files = Vec::new();
    if krate == "bench" {
        for name in BENCH_RECIPE_FILES {
            files.push(src.join(name));
        }
    } else {
        walk_rs(&src, &mut files)?;
    }
    files.sort();
    let mut h = Fnv::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let body =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        h.update(rel.as_bytes());
        h.update(b"\0");
        h.update(&body);
        h.update(b"\0");
    }
    Ok(hex16(h.finish()))
}

/// Hit/miss/invalidation counters for one run (or one experiment).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the store without re-executing.
    pub hits: usize,
    /// Cells absent from the store (first sight of this config).
    pub misses: usize,
    /// Cells present but built under different source digests.
    pub invalidated: usize,
}

impl CacheStats {
    /// Cells that actually executed (everything that was not a hit).
    pub fn executed(&self) -> usize {
        self.misses + self.invalidated
    }

    /// Folds `other` into this tally.
    pub fn add(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidated += other.invalidated;
    }

    /// The stats as a JSON object (the shape embedded in result docs,
    /// the gate report, and `BENCH_cache_stats.json`).
    pub fn to_json(self) -> Json {
        Json::obj()
            .field("hits", self.hits)
            .field("misses", self.misses)
            .field("invalidated", self.invalidated)
    }
}

/// What one lookup found.
pub enum Lookup {
    /// The cell is warm: a stored case built under the current sources.
    Hit(Case),
    /// No entry under this key.
    Miss,
    /// An entry exists, but at least one dependency digest moved (or the
    /// dependency set itself changed) — the cell must re-run.
    Invalidated,
}

/// The on-disk store. One instance per run; all methods take `&self`
/// (writes are atomic renames, safe under rayon).
pub struct CellCache {
    dir: PathBuf,
    digests: SourceDigests,
}

impl CellCache {
    /// Opens (creating if needed) the store at `dir`, fingerprinting the
    /// default source root.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache, String> {
        let digests = SourceDigests::compute()?;
        Self::open_with(dir, digests)
    }

    /// Opens the store at `dir` under pre-computed digests (tests plant
    /// their own source trees).
    pub fn open_with(dir: impl Into<PathBuf>, digests: SourceDigests) -> Result<CellCache, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create cache dir {}: {e}", dir.display()))?;
        Ok(CellCache { dir, digests })
    }

    /// The source digests this store validates entries against.
    pub fn digests(&self) -> &SourceDigests {
        &self.digests
    }

    /// Where this store lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        let hash = hex16(fnv1a64(key.as_bytes()));
        self.dir.join(&hash[..2]).join(format!("{hash}.json"))
    }

    /// Looks `key` up, revalidating the entry's per-crate digests against
    /// the current sources for exactly the crates in `deps`.
    pub fn lookup(&self, key: &str, deps: &[&str]) -> Lookup {
        let Some((entry, fresh)) = self.read_entry(key) else {
            return Lookup::Miss;
        };
        let stored: BTreeSet<&str> = entry
            .get("deps")
            .and_then(|d| match d {
                Json::Obj(pairs) => Some(pairs.iter().map(|(k, _)| k.as_str()).collect()),
                _ => None,
            })
            .unwrap_or_default();
        let wanted: BTreeSet<&str> = deps.iter().copied().collect();
        if stored != wanted || !fresh {
            return Lookup::Invalidated;
        }
        match entry.get("case").and_then(case_from_json) {
            Some(case) => Lookup::Hit(case),
            // A torn or hand-edited entry: treat as absent.
            None => Lookup::Miss,
        }
    }

    /// Reads the raw entry under `key`, if any, plus whether every stored
    /// dependency digest still matches the current sources. Key mismatches
    /// (hash collisions) read as absent.
    fn read_entry(&self, key: &str) -> Option<(Json, bool)> {
        let text = std::fs::read_to_string(self.entry_path(key)).ok()?;
        let entry = Json::parse(&text).ok()?;
        if entry.get("cache_schema").and_then(Json::as_f64) != Some(f64::from(CACHE_SCHEMA_VERSION))
            || entry.get("key").and_then(Json::as_str) != Some(key)
        {
            return None;
        }
        let fresh = match entry.get("deps") {
            Some(Json::Obj(pairs)) => pairs.iter().all(|(dep, digest)| {
                // Unknown dependency names — a crate this build doesn't
                // know, a dataset file no longer vendored — read as not
                // fresh, never as a panic.
                self.digests
                    .try_digest(dep)
                    .is_some_and(|current| digest.as_str() == Some(current))
            }),
            _ => false,
        };
        Some((entry, fresh))
    }

    /// Stores `case` under `key`, tagged with the current digests of
    /// `deps`. Atomic (temp file + rename); cases with any non-finite
    /// metric are skipped (they cannot round-trip bit-identically).
    pub fn store(&self, key: &str, deps: &[&str], case: &Case) -> Result<(), String> {
        let finite = case
            .measurements
            .iter()
            .all(|m| m.metrics.iter().all(|(_, v)| v.is_finite()));
        if !finite {
            return Ok(());
        }
        let mut dep_obj = Json::obj();
        let mut sorted: Vec<&str> = deps.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for krate in sorted {
            dep_obj = dep_obj.field(krate, self.digests.digest(krate));
        }
        let entry = Json::obj()
            .field("cache_schema", CACHE_SCHEMA_VERSION)
            .field("key", key)
            .field("deps", dep_obj)
            .field("case", case.to_json());
        let path = self.entry_path(key);
        let shard = path.parent().expect("sharded path");
        std::fs::create_dir_all(shard)
            .map_err(|e| format!("cannot create {}: {e}", shard.display()))?;
        let tmp = shard.join(format!(
            ".{}.tmp{}",
            path.file_stem().expect("stem").to_string_lossy(),
            std::process::id()
        ));
        std::fs::write(&tmp, entry.to_string_pretty())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename into {}: {e}", path.display()))
    }
}

/// Interns a string so deserialized cases can share the `&'static str`
/// keys live cases use. The pool is bounded by the set of distinct metric
/// and param names, so the leak is a few hundred bytes total.
fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .expect("intern pool");
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// Rebuilds a [`Case`] from its [`Case::to_json`] serialization. The
/// summary is recomputed from the measurements (same fold, same order →
/// bit-identical statistics). Returns `None` on any shape mismatch.
pub fn case_from_json(doc: &Json) -> Option<Case> {
    let Json::Obj(param_pairs) = doc.get("params")? else {
        return None;
    };
    let params: Vec<(&'static str, Json)> = param_pairs
        .iter()
        .map(|(k, v)| (intern(k), v.clone()))
        .collect();
    let mut measurements = Vec::new();
    for m in doc.get("measurements")?.as_arr()? {
        let Json::Obj(pairs) = m else { return None };
        let seed = m.get("seed").and_then(Json::as_f64)? as u64;
        let mut metrics = Vec::new();
        for (k, v) in pairs {
            if k == "seed" {
                continue;
            }
            metrics.push((intern(k), v.as_f64()?));
        }
        measurements.push(Measurement { seed, metrics });
    }
    Some(Case::new(params, measurements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::sweep_seeds;

    fn sample_case() -> Case {
        let measurements = sweep_seeds(3, |seed| {
            vec![
                ("time", seed as f64 * 1.25),
                ("energy_max", (seed % 7) as f64 + 0.1),
            ]
        });
        Case::new(
            vec![
                ("family", "cycle".into()),
                ("n", 64usize.into()),
                ("model", "local".into()),
                ("algorithm", "naive_flood".into()),
            ],
            measurements,
        )
    }

    /// A planted two-crate source tree under a temp root; returns the
    /// root. Each crate gets one `src/lib.rs` with distinct contents.
    fn plant_tree(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!("ebc_cache_tree_{tag}_{}", line!()));
        std::fs::remove_dir_all(&root).ok();
        for krate in DEP_CRATES {
            let src = root.join("crates").join(krate).join("src");
            std::fs::create_dir_all(&src).unwrap();
            if krate == "bench" {
                for f in BENCH_RECIPE_FILES {
                    std::fs::write(src.join(f), format!("// {krate}/{f} v1\n")).unwrap();
                }
            } else {
                std::fs::write(src.join("lib.rs"), format!("// {krate} v1\n")).unwrap();
            }
        }
        root
    }

    fn temp_cache(tag: &str, root: &Path) -> CellCache {
        let dir = std::env::temp_dir().join(format!("ebc_cache_store_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        CellCache::open_with(dir, SourceDigests::compute_at(root).unwrap()).unwrap()
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: the on-disk shard layout depends on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let root = plant_tree("roundtrip");
        let cache = temp_cache("roundtrip", &root);
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, NO_SINGLEHOP_DEPS, &case).unwrap();
        match cache.lookup(&key, NO_SINGLEHOP_DEPS) {
            Lookup::Hit(loaded) => {
                // Bit-identical: the serialized documents (params, summary
                // statistics, raw measurements) match byte for byte.
                assert_eq!(
                    loaded.to_json().to_string_pretty(),
                    case.to_json().to_string_pretty()
                );
            }
            _ => panic!("stored case did not hit"),
        }
    }

    #[test]
    fn key_is_stable_under_param_reordering() {
        let a = vec![
            ("family", Json::from("cycle")),
            ("n", Json::from(64usize)),
            ("model", Json::from("cd")),
        ];
        let b = vec![
            ("model", Json::from("cd")),
            ("family", Json::from("cycle")),
            ("n", Json::from(64usize)),
        ];
        assert_eq!(case_key("m", &a, 2), case_key("m", &b, 2));
        // …but any config change — a param value or the seed set — is a
        // different cell.
        let mut c = a.clone();
        c[1].1 = Json::from(128usize);
        assert_ne!(case_key("m", &a, 2), case_key("m", &c, 2));
        assert_ne!(case_key("m", &a, 2), case_key("m", &a, 3));
        assert_ne!(case_key("m", &a, 2), case_key("other", &a, 2));
    }

    #[test]
    fn config_change_is_a_miss_not_a_stale_hit() {
        let root = plant_tree("config");
        let cache = temp_cache("config", &root);
        let case = sample_case();
        let key = case_key("scenario_matrix", &case.params, 3);
        cache.store(&key, FULL_DEPS, &case).unwrap();
        // More seeds → different key → miss.
        let other = case_key("scenario_matrix", &case.params, 4);
        assert!(matches!(cache.lookup(&other, FULL_DEPS), Lookup::Miss));
    }

    #[test]
    fn source_change_invalidates_only_dependent_cells() {
        // The planted-staleness contract: two cells, one depending on
        // singlehop and one not. Changing crates/singlehop re-runs only
        // the dependent cell; the other still hits.
        let root = plant_tree("staleness");
        let store_dir = std::env::temp_dir().join("ebc_cache_store_staleness");
        std::fs::remove_dir_all(&store_dir).ok();
        let cache =
            CellCache::open_with(&store_dir, SourceDigests::compute_at(&root).unwrap()).unwrap();
        let case = sample_case();
        let flood_key = case_key("scenario_matrix", &case.params, 3);
        let mut t11_params = case.params.clone();
        t11_params[3].1 = Json::from("theorem11");
        let t11_key = case_key("scenario_matrix", &t11_params, 3);
        cache.store(&flood_key, NO_SINGLEHOP_DEPS, &case).unwrap();
        cache
            .store(
                &t11_key,
                FULL_DEPS,
                &Case::new(t11_params, case.measurements.clone()),
            )
            .unwrap();

        // Plant: a single-crate source change in singlehop.
        std::fs::write(
            root.join("crates/singlehop/src/lib.rs"),
            "// singlehop v2\n",
        )
        .unwrap();
        let cache =
            CellCache::open_with(&store_dir, SourceDigests::compute_at(&root).unwrap()).unwrap();
        assert!(
            matches!(cache.lookup(&flood_key, NO_SINGLEHOP_DEPS), Lookup::Hit(_)),
            "flood cell does not depend on singlehop — must stay warm"
        );
        assert!(
            matches!(cache.lookup(&t11_key, FULL_DEPS), Lookup::Invalidated),
            "theorem11 cell depends on singlehop — must invalidate"
        );

        // Plant: a graphs change invalidates both (every cell builds a
        // graph).
        std::fs::write(root.join("crates/graphs/src/lib.rs"), "// graphs v2\n").unwrap();
        let cache =
            CellCache::open_with(&store_dir, SourceDigests::compute_at(&root).unwrap()).unwrap();
        assert!(matches!(
            cache.lookup(&flood_key, NO_SINGLEHOP_DEPS),
            Lookup::Invalidated
        ));
        assert!(matches!(
            cache.lookup(&t11_key, FULL_DEPS),
            Lookup::Invalidated
        ));
    }

    #[test]
    fn dep_set_change_invalidates() {
        let root = plant_tree("depset");
        let cache = temp_cache("depset", &root);
        let case = sample_case();
        let key = case_key("m", &case.params, 3);
        cache.store(&key, NO_SINGLEHOP_DEPS, &case).unwrap();
        assert!(matches!(cache.lookup(&key, FULL_DEPS), Lookup::Invalidated));
    }

    #[test]
    fn nonfinite_metrics_are_never_stored() {
        let root = plant_tree("nonfinite");
        let cache = temp_cache("nonfinite", &root);
        let case = Case::new(
            vec![("n", 4usize.into())],
            vec![Measurement {
                seed: 1000,
                metrics: vec![("time", f64::NAN)],
            }],
        );
        let key = case_key("m", &case.params, 1);
        cache.store(&key, FULL_DEPS, &case).unwrap();
        assert!(matches!(cache.lookup(&key, FULL_DEPS), Lookup::Miss));
    }

    #[test]
    fn fingerprint_is_order_independent_and_source_sensitive() {
        let root = plant_tree("fp");
        let d = SourceDigests::compute_at(&root).unwrap();
        assert_eq!(
            d.fingerprint(&["radio", "core"]),
            d.fingerprint(&["core", "radio"])
        );
        assert_ne!(d.fingerprint(&["radio"]), d.fingerprint(&["core"]));
        let combined = d.combined();
        std::fs::write(root.join("crates/radio/src/lib.rs"), "// radio v2\n").unwrap();
        let d2 = SourceDigests::compute_at(&root).unwrap();
        assert_ne!(
            combined,
            d2.combined(),
            "source change must move the fingerprint"
        );
        assert_eq!(
            d.digest("core"),
            d2.digest("core"),
            "untouched crates keep their digest"
        );
    }

    #[test]
    fn deps_for_splits_on_algorithm_reach() {
        let flood = vec![("algorithm", Json::from("naive_flood"))];
        assert_eq!(deps_for("scenario_matrix", &flood), NO_SINGLEHOP_DEPS);
        let t11 = vec![("algorithm", Json::from("theorem11"))];
        assert_eq!(deps_for("scenario_matrix", &t11), FULL_DEPS);
        // No algorithm param → conservative full set…
        assert_eq!(deps_for("table1_lower", &[]), FULL_DEPS);
        // …except fig1_path, which is the path algorithm by construction.
        assert_eq!(deps_for("fig1_path", &[]), NO_SINGLEHOP_DEPS);
    }

    #[test]
    fn deps_for_adds_dataset_files_for_dataset_families() {
        // Synthetic families carry crate deps only.
        let cycle = vec![
            ("algorithm", Json::from("naive_flood")),
            ("family", Json::from("cycle")),
        ];
        assert_eq!(deps_for("scenario_matrix", &cycle), NO_SINGLEHOP_DEPS);
        // Dataset families append one dataset:<file> pseudo-dep per
        // backing file, on top of the same crate split.
        let ds = vec![
            ("algorithm", Json::from("naive_flood")),
            ("family", Json::from("ds-social")),
        ];
        let deps = deps_for("scenario_matrix", &ds);
        assert_eq!(&deps[..NO_SINGLEHOP_DEPS.len()], NO_SINGLEHOP_DEPS);
        assert_eq!(
            &deps[NO_SINGLEHOP_DEPS.len()..],
            ["dataset:sample-social.txt"]
        );
        let ds_t11 = vec![
            ("algorithm", Json::from("theorem11")),
            ("family", Json::from("ds-unit-disk")),
        ];
        let deps = deps_for("scenario_matrix", &ds_t11);
        assert_eq!(&deps[..FULL_DEPS.len()], FULL_DEPS);
        assert_eq!(&deps[FULL_DEPS.len()..], ["dataset:sample-roadnet.co"]);
    }

    #[test]
    fn dataset_edit_invalidates_only_dataset_backed_cells() {
        // The planted-edit contract, mirroring
        // source_change_invalidates_only_dependent_cells: two cells, one
        // built from a synthetic family and one from an on-disk dataset.
        // Editing the dataset file re-runs only the dataset-backed cell.
        let root = plant_tree("dataset_edit");
        let ds_dir = root.join("datasets");
        std::fs::create_dir_all(&ds_dir).unwrap();
        std::fs::write(ds_dir.join("sample-social.txt"), "0 1\n1 2\n").unwrap();
        let store_dir = std::env::temp_dir().join("ebc_cache_store_dataset_edit");
        std::fs::remove_dir_all(&store_dir).ok();
        let cache =
            CellCache::open_with(&store_dir, SourceDigests::compute_at(&root).unwrap()).unwrap();
        let combined_before = cache.digests().combined();

        let cycle_case = sample_case();
        let cycle_deps = deps_for("scenario_matrix", &cycle_case.params);
        let cycle_key = case_key("scenario_matrix", &cycle_case.params, 3);
        let mut ds_params = cycle_case.params.clone();
        ds_params[0].1 = Json::from("ds-social");
        let ds_deps = deps_for("scenario_matrix", &ds_params);
        let ds_key = case_key("scenario_matrix", &ds_params, 3);
        cache.store(&cycle_key, &cycle_deps, &cycle_case).unwrap();
        cache
            .store(
                &ds_key,
                &ds_deps,
                &Case::new(ds_params, cycle_case.measurements.clone()),
            )
            .unwrap();
        assert!(matches!(cache.lookup(&ds_key, &ds_deps), Lookup::Hit(_)));

        // Plant the edit: one more edge in the dataset file.
        std::fs::write(ds_dir.join("sample-social.txt"), "0 1\n1 2\n2 3\n").unwrap();
        let cache =
            CellCache::open_with(&store_dir, SourceDigests::compute_at(&root).unwrap()).unwrap();
        assert!(
            matches!(cache.lookup(&cycle_key, &cycle_deps), Lookup::Hit(_)),
            "synthetic cell does not read the dataset — must stay warm"
        );
        assert!(
            matches!(cache.lookup(&ds_key, &ds_deps), Lookup::Invalidated),
            "dataset-backed cell must invalidate on a dataset edit"
        );
        assert_ne!(
            combined_before,
            cache.digests().combined(),
            "the combined fingerprint must move on a dataset edit"
        );
    }

    #[test]
    fn real_workspace_digests_compute() {
        // The production path: the digests of this very workspace.
        let d = SourceDigests::compute().expect("workspace sources readable");
        assert_eq!(d.combined().len(), 16);
        for krate in DEP_CRATES {
            assert_eq!(d.digest(krate).len(), 16);
        }
    }
}
