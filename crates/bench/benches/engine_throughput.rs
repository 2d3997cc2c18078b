//! Criterion slots-per-second benchmark of the slot engine:
//! [`Sim::drive`] over a [`Schedule::Dense`] primitive.
//!
//! Each size runs a fixed number of dense slots per iteration (scaled so
//! one iteration stays in the milliseconds), so slots/s is
//! `slots × 10⁹ / (ns/iter)` with the slot count in the benchmark id.
//! The workload is deterministic — every 16th vertex (rotating with the
//! slot index) transmits while the rest listen — so every run resolves
//! the same collision pattern without allocating per slot.

use criterion::{criterion_group, criterion_main, Criterion};
use ebc_graphs::families::Family;
use ebc_radio::{Action, Feedback, Model, NodeId, Schedule, Sim};
use std::sync::Arc;

/// `(n requested, dense slots per iteration)`: 2^10, 2^16, and the
/// million-node tier (2^20 − 1 vertices — the complete-binary-tree
/// generator's exact size).
const SIZES: &[(usize, u64)] = &[(1 << 10, 512), (1 << 16, 16), (1048575, 4)];

fn graph_for(n: usize) -> Arc<ebc_radio::Graph> {
    Arc::new(Family::BinaryTree.instance(n, 0xebc0 + n as u64).graph)
}

/// One deterministic engine workload: vertices with `(v + t) % 16 == 0`
/// send, everyone else listens.
fn workload(n: usize) -> impl FnMut(NodeId, u64) -> Action<u8> {
    debug_assert!(n >= 16);
    move |v, t| {
        if (v as u64 + t) % 16 == 0 {
            Action::Send(1u8)
        } else {
            Action::Listen
        }
    }
}

fn bench_drive(c: &mut Criterion) {
    for &(n, slots) in SIZES {
        let graph = graph_for(n);
        let all: Vec<NodeId> = (0..graph.n()).collect();
        let nv = graph.n();

        c.bench_function(&format!("engine_drive_n{nv}_slots{slots}"), |b| {
            let mut sim = Sim::new(Arc::clone(&graph), Model::NoCd, 0);
            b.iter(|| {
                let mut heard = 0u64;
                let mut behavior = ebc_radio::from_fns(workload(nv), |_v, _t, fb| {
                    if !matches!(fb, Feedback::Silence) {
                        heard += 1;
                    }
                });
                sim.drive(
                    Schedule::Dense {
                        participants: &all,
                        slots,
                    },
                    &mut behavior,
                );
                drop(behavior);
                heard
            })
        });
    }
}

criterion_group!(benches, bench_drive);
criterion_main!(benches);
