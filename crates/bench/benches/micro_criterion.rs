//! Criterion micro-benchmarks of the simulator substrate: wall-clock cost
//! of channel resolution, decay SR-communication, and deterministic SR —
//! the inner loops every experiment above rests on.

use criterion::{criterion_group, criterion_main, Criterion};
use ebc_core::srcomm::{det_sr, Sr};
use ebc_core::util::NodeRngs;
use ebc_graphs::deterministic::{complete_tree, star};
use ebc_radio::{Model, NodeId, Sim};

fn bench_decay_sr(c: &mut Criterion) {
    let delta = 64;
    let g = star(delta);
    let senders: Vec<(NodeId, u32)> = (1..=delta).map(|v| (v, v as u32)).collect();
    c.bench_function("decay_sr_star64", |b| {
        b.iter(|| {
            let mut sim = Sim::new(g.clone(), Model::NoCd, 5);
            let sr = Sr::Decay { delta, sweeps: 10 };
            let got = sr.run(
                &mut sim,
                &senders,
                &[0],
                &mut NodeRngs::new(5, delta + 1, 1),
            );
            std::hint::black_box(got)
        })
    });
}

fn bench_cd_sr(c: &mut Criterion) {
    let delta = 64;
    let g = star(delta);
    let senders: Vec<(NodeId, u32)> = (1..=delta).map(|v| (v, v as u32)).collect();
    c.bench_function("cd_transform_sr_star64", |b| {
        b.iter(|| {
            let mut sim = Sim::new(g.clone(), Model::Cd, 5);
            let sr = Sr::CdTransform {
                delta,
                epochs: 20,
                relevance_check: false,
            };
            let got = sr.run(
                &mut sim,
                &senders,
                &[0],
                &mut NodeRngs::new(5, delta + 1, 1),
            );
            std::hint::black_box(got)
        })
    });
}

/// One Theorem-12-shaped relabel round: the relevance check on, `S` the
/// few message holders of one binary-tree layer (every 32nd of 1024) and
/// `R` the whole next layer (2048), so only 64 receivers and the 32
/// senders survive the check into Lemma 8's epochs. Like consecutive
/// relabel rounds, iterations share one `Sim` and one set of node streams,
/// so the 8191-node set-up stays out of the timed loop.
fn bench_cd_sr_tree_layers(c: &mut Criterion) {
    let g = complete_tree(2, 12);
    let n = g.n();
    let layer = |d: u32| (1usize << d) - 1..(1usize << (d + 1)) - 1;
    let senders: Vec<(NodeId, u32)> = layer(10).step_by(32).map(|v| (v, 1)).collect();
    let receivers: Vec<NodeId> = layer(11).collect();
    let sr = Sr::CdTransform {
        delta: 3,
        epochs: 38,
        relevance_check: true,
    };
    let mut sim = Sim::new(g, Model::Cd, 5);
    let mut rngs = NodeRngs::new(5, n, 1);
    c.bench_function("cd_transform_sr_tree_layers_checked", |b| {
        b.iter(|| std::hint::black_box(sr.run(&mut sim, &senders, &receivers, &mut rngs)))
    });
}

fn bench_det_sr(c: &mut Criterion) {
    let delta = 64;
    let g = star(delta);
    let senders: Vec<(NodeId, u64)> = (1..=delta).map(|v| (v, v as u64)).collect();
    c.bench_function("det_sr_star64_space1024", |b| {
        b.iter(|| {
            let mut sim = Sim::new(g.clone(), Model::Cd, 0);
            std::hint::black_box(det_sr(&mut sim, &senders, &[0], 1024))
        })
    });
}

criterion_group!(
    benches,
    bench_decay_sr,
    bench_cd_sr,
    bench_cd_sr_tree_layers,
    bench_det_sr
);
criterion_main!(benches);
