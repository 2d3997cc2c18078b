//! Cross-crate integration tests: every broadcast algorithm of the paper,
//! on every applicable topology family, must inform all vertices — and the
//! measured costs must sit in the regime the paper's Table 1 predicts.

use ebc_core::baseline::{bgi_decay_broadcast, flood_local};
use ebc_core::cdfast::{broadcast_theorem20, Theorem20Config};
use ebc_core::cluster::{broadcast_theorem16, Theorem16Config};
use ebc_core::det::{broadcast_det_cd, broadcast_det_local, DetCdConfig, DetLocalConfig};
use ebc_core::path::{path_broadcast, PathConfig};
use ebc_core::randomized::{
    broadcast_corollary13, broadcast_theorem11, broadcast_theorem12, Theorem11Config,
    Theorem12Config,
};
use ebc_graphs::families::Family;
use ebc_radio::{Model, Sim};

const FAMILIES: [Family; 6] = [
    Family::Path,
    Family::Cycle,
    Family::Grid,
    Family::BoundedDeg4,
    Family::GnpAvgDeg8,
    Family::ClusterChain8,
];

#[test]
fn theorem11_informs_everyone_across_families_and_models() {
    for fam in FAMILIES {
        for model in [Model::Local, Model::NoCd, Model::Cd] {
            let inst = fam.instance(48, 11);
            let mut sim = Sim::new(inst.graph, model, 5);
            let out = broadcast_theorem11(&mut sim, 0, &Theorem11Config::default());
            assert!(out.all_informed(), "{} / {model}", inst.name);
        }
    }
}

#[test]
fn theorem12_informs_everyone_across_families() {
    for fam in FAMILIES {
        let inst = fam.instance(40, 3);
        let mut sim = Sim::new(inst.graph, Model::Cd, 9);
        let out = broadcast_theorem12(&mut sim, 1, &Theorem12Config::default());
        assert!(out.all_informed(), "{}", inst.name);
    }
}

#[test]
fn theorem16_informs_everyone_on_long_diameter_graphs() {
    for fam in [Family::Cycle, Family::Ladder, Family::Grid] {
        let inst = fam.instance(64, 5);
        let mut sim = Sim::new(inst.graph, Model::NoCd, 31);
        let cfg = Theorem16Config {
            beta_override: Some(0.3),
            ..Theorem16Config::default()
        };
        let out = broadcast_theorem16(&mut sim, 0, &cfg);
        assert!(out.all_informed(), "{}", inst.name);
    }
}

#[test]
fn theorem20_informs_everyone() {
    for fam in [Family::Path, Family::Grid, Family::BoundedDeg4] {
        let inst = fam.instance(32, 8);
        let mut sim = Sim::new(inst.graph, Model::Cd, 21);
        let out = broadcast_theorem20(&mut sim, 0, &Theorem20Config::default());
        assert!(out.all_informed(), "{}", inst.name);
    }
}

#[test]
fn corollary13_beats_decay_energy_on_constant_degree() {
    // Corollary 13's whole point: on Δ = O(1) graphs the TDMA pipeline has
    // O(log n) energy, beating the O(log Δ log² n) generic pipeline.
    let inst = Family::Cycle.instance(192, 0);
    let mut tdma = Sim::new(inst.graph.clone(), Model::NoCd, 4);
    assert!(broadcast_corollary13(&mut tdma, 0).all_informed());
    let mut generic = Sim::new(inst.graph, Model::NoCd, 4);
    assert!(broadcast_theorem11(&mut generic, 0, &Theorem11Config::default()).all_informed());
    assert!(
        tdma.meter().max_energy() < generic.meter().max_energy(),
        "tdma {} !< generic {}",
        tdma.meter().max_energy(),
        generic.meter().max_energy()
    );
}

#[test]
fn deterministic_algorithms_inform_everyone() {
    for fam in [Family::Path, Family::Cycle, Family::Grid, Family::Star] {
        let inst = fam.instance(24, 1);
        let mut sim = Sim::new(inst.graph.clone(), Model::Local, 0);
        assert!(
            broadcast_det_local(&mut sim, 0, &DetLocalConfig::default()).all_informed(),
            "det local / {}",
            inst.name
        );
        let mut sim = Sim::new(inst.graph, Model::Cd, 0);
        assert!(
            broadcast_det_cd(&mut sim, 0, &DetCdConfig::default()).all_informed(),
            "det cd / {}",
            inst.name
        );
    }
}

#[test]
fn energy_hierarchy_matches_table1_on_cycles() {
    // Shape test, not absolute-constant test (the paper's bounds are
    // asymptotic): on cycles, LOCAL energy < No-CD energy at a fixed size,
    // and the BGI baseline's energy grows linearly in n while Theorem 11's
    // grows polylogarithmically — so BGI's growth *ratio* between two sizes
    // must be much larger.
    let energy_t11 = |n: usize, model: Model| -> u64 {
        let g = ebc_graphs::deterministic::cycle(n);
        let mut sim = Sim::new(g, model, 13);
        assert!(broadcast_theorem11(&mut sim, 0, &Theorem11Config::default()).all_informed());
        sim.meter().max_energy()
    };
    let energy_bgi = |n: usize| -> u64 {
        let g = ebc_graphs::deterministic::cycle(n);
        let mut sim = Sim::new(g, Model::NoCd, 13);
        assert!(bgi_decay_broadcast(&mut sim, 0, None).all_informed());
        sim.meter().max_energy()
    };
    assert!(
        energy_t11(128, Model::Local) < energy_t11(128, Model::NoCd),
        "LOCAL should be cheaper than No-CD"
    );
    let t11_growth = energy_t11(512, Model::NoCd) as f64 / energy_t11(128, Model::NoCd) as f64;
    let bgi_growth = energy_bgi(512) as f64 / energy_bgi(128) as f64;
    assert!(
        t11_growth < 2.5 && bgi_growth > 2.5,
        "growth 128→512: t11 {t11_growth:.2} (polylog) vs bgi {bgi_growth:.2} (linear)"
    );
}

#[test]
fn flood_time_is_diameter_but_energy_is_not_constant() {
    let inst = Family::Path.instance(100, 0);
    let mut sim = Sim::new(inst.graph, Model::Local, 0);
    let out = flood_local(&mut sim, 0);
    assert!(out.all_informed());
    assert_eq!(sim.now(), 100);
    assert!(sim.meter().max_energy() > 50);
}

#[test]
fn path_algorithm_full_pipeline() {
    for seed in 0..5 {
        let (stats, sim) = path_broadcast(256, 128, &PathConfig::default(), seed);
        assert!(stats.all_informed, "seed {seed}");
        // Time within a constant of n even from the middle.
        assert!(stats.delivery_time <= 3 * 256);
        // Mean energy logarithmic.
        assert!(sim.meter().report().mean <= 10.0 * 8.0);
    }
}

#[test]
fn sources_other_than_zero_work_everywhere() {
    let inst = Family::Grid.instance(49, 2);
    let n = inst.graph.n();
    for src in [1, n / 2, n - 1] {
        let mut sim = Sim::new(inst.graph.clone(), Model::NoCd, 3);
        assert!(
            broadcast_theorem11(&mut sim, src, &Theorem11Config::default()).all_informed(),
            "source {src}"
        );
    }
}
