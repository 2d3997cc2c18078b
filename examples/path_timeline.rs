//! Figure 1 reproduction: a timeline of message traffic in the §8 path
//! algorithm. Messages propagate down-and-right one hop per slot, except
//! where a *blocking* vertex (one with a large blocking time B) absorbs
//! the synchronization traffic — exactly the picture in the paper.
//!
//! Legend:  `#` transmit   `o` receive   `.` listen (silence)
//!          `P` the payload transmission reaching that vertex
//!
//! Run with: `cargo run --release --example path_timeline`

use ebc_core::path::{run_path_broadcast, PathConfig};
use ebc_radio::{EventKind, Model, Sim};

fn main() {
    let n = 32;
    let seed = 8;
    let g = ebc_graphs::deterministic::path(n);
    let mut sim = Sim::new(g, Model::Local, seed);
    sim.enable_telemetry();
    let cfg = PathConfig {
        oriented: true,
        cap_blocking: true,
    };
    let stats = run_path_broadcast(&mut sim, 0, &cfg);
    assert!(stats.all_informed);

    let max_slot = stats.quiescence as usize;
    // grid[slot][vertex]
    let mut grid = vec![vec![' '; n]; max_slot + 1];
    let tel = sim.telemetry().expect("telemetry enabled");
    for e in tel.events() {
        let c = match e.kind() {
            EventKind::Tx => '#',
            EventKind::Recv => 'o',
            EventKind::Silence | EventKind::Noise => '.',
            _ => continue,
        };
        grid[e.slot as usize][e.node()] = c;
    }
    // Telemetry events are payload-agnostic; recover the payload's track from
    // the per-vertex delivery slots: vertex v first receives the payload at
    // `delivery_slot[v]`, transmitted by its upstream neighbor the same slot.
    for (v, slot) in stats.delivery_slot.iter().enumerate() {
        let Some(t) = *slot else { continue };
        let t = t as usize;
        if v == 0 || t > max_slot {
            continue; // the source holds the payload from the start
        }
        grid[t][v] = 'P';
        if grid[t][v - 1] == '#' {
            grid[t][v - 1] = 'P';
        }
    }

    println!("path of n = {n}, source = 0, seed = {seed} (paper Fig. 1)");
    println!(
        "delivery time = {} slots (≤ 2n = {}), max energy = {}, mean = {:.1}\n",
        stats.delivery_time,
        2 * n,
        sim.meter().max_energy(),
        sim.meter().report().mean
    );
    print!("slot  ");
    for v in 0..n {
        print!(
            "{}",
            if v % 10 == 0 {
                (b'0' + (v / 10) as u8) as char
            } else {
                ' '
            }
        );
    }
    println!();
    print!("      ");
    for v in 0..n {
        print!("{}", (b'0' + (v % 10) as u8) as char);
    }
    println!();
    for (t, row) in grid.iter().enumerate() {
        if row.iter().all(|&c| c == ' ') {
            continue;
        }
        print!("{t:>5} ");
        for &c in row {
            print!("{c}");
        }
        println!();
    }
    println!("\n# = sync transmission, P = payload, o = reception, . = idle listen");
}
