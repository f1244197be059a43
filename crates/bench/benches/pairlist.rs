//! Criterion bench of pair-list generation (§3.5): host builder vs the
//! simulated CPE generation, plus the direct-mapped vs two-way cache
//! study the section's 85% -> 10% claim rests on.

use criterion::{criterion_group, criterion_main, Criterion};
use mdsim::pairlist::{ListKind, PairList};
use sw26010::cg::CoreGroup;
use swgmx::pairgen::{generate_pairlist, grid_walk_miss_study};

fn bench_pairlist(c: &mut Criterion) {
    println!(
        "\n# cache study (3.5): direct-mapped miss {:.1}% vs two-way {:.1}% (paper: >85% -> ~10%)",
        100.0 * grid_walk_miss_study(1),
        100.0 * grid_walk_miss_study(2)
    );
    let cg = CoreGroup::new();
    // 6 K particles, then the sizes swbench runs the search at: the
    // `md_*_4k` box (1334 molecules) and the `kernel_48k` one.
    for (name, n_mol) in [
        ("pairlist_6k_particles", 2000),
        ("pairlist_4k_particles", 1334),
        ("pairlist_48k_particles", 16000),
    ] {
        let sys = mdsim::water::water_box(n_mol, 300.0, 9);
        let mut g = c.benchmark_group(name);
        g.sample_size(10);
        g.bench_function("host_builder", |b| {
            b.iter(|| PairList::build(&sys, 1.0, ListKind::Half).n_pairs())
        });
        g.bench_function("cpe_generation_2way", |b| {
            b.iter(|| {
                generate_pairlist(&sys, 1.0, ListKind::Half, &cg, 2)
                    .list
                    .n_pairs()
            })
        });
        g.finish();
    }
}

criterion_group!(benches, bench_pairlist);
criterion_main!(benches);
