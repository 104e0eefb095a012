//! Microbenchmarks of the §4 balancer: a single preferable-swap scan and a
//! full run-to-quiescence balancing pass on a stocked inventory.
//!
//! The torus rows stock only a few rich peers per node. `dense25` stocks
//! every pair of a 25-node inventory with thousands of pairs, as in the
//! steady state of an open-loop `cycle:25` oblivious run, so every peer is
//! rich and each scan has all 276 beneficiary pairs to choose from.
//! `scan_and_swap/dense25` executes the swaps it finds, so the count
//! writes, and the row minima they maintain, are timed along with the
//! scans.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use qnet_core::balancer::BalancerPolicy;
use qnet_core::inventory::Inventory;
use qnet_topology::pairs::all_pairs;
use qnet_topology::{builders, NodeId, NodePair};

/// Build an inventory with `per_edge` pairs on every edge of a torus grid.
fn stocked_torus(side: usize, per_edge: u64) -> Inventory {
    let graph = builders::torus_grid(side);
    let mut inv = Inventory::new(graph.node_count());
    for (a, b) in graph.edges() {
        for _ in 0..per_edge {
            inv.add_pair(NodePair::new(a, b)).unwrap();
        }
    }
    inv
}

/// Build an `n`-node inventory with every pair stocked at 2000–3890 pairs,
/// the count varying deterministically with the pair so some scans find a
/// preferable swap and others do not.
fn stocked_dense(n: usize) -> Inventory {
    let mut inv = Inventory::new(n);
    for pair in all_pairs(n) {
        let (lo, hi) = (pair.lo().index(), pair.hi().index());
        let count = 2000 + ((lo * 31 + hi * 17) % 64) * 30;
        for _ in 0..count {
            inv.add_pair(pair).unwrap();
        }
    }
    inv
}

fn scan_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("balancer_scan");
    group.sample_size(30);
    let cases = [
        ("25", stocked_torus(5, 6)),
        ("64", stocked_torus(8, 6)),
        ("dense25", stocked_dense(25)),
    ];
    for (label, inv) in &cases {
        let policy = BalancerPolicy;
        let overhead = |_: NodePair| 1.0;
        group.bench_with_input(BenchmarkId::new("find_preferable", label), inv, |b, inv| {
            b.iter(|| {
                let mut found = 0;
                for node in 0..inv.node_count() {
                    if policy
                        .find_preferable_swap(inv, inv, NodeId::from(node), &overhead)
                        .is_some()
                    {
                        found += 1;
                    }
                }
                found
            })
        });
    }
    // Four rounds of one scan-and-swap per node, each round scanning the
    // inventory the previous swaps left. Every iteration starts from the
    // same stock (cloned outside the timed region).
    let dense = stocked_dense(25);
    group.bench_function(BenchmarkId::new("scan_and_swap", "dense25"), |b| {
        let policy = BalancerPolicy;
        let overhead = |_: NodePair| 1.0;
        b.iter_batched(
            || dense.clone(),
            |mut inv| {
                let mut swaps = 0;
                for _ in 0..4 {
                    for node in 0..inv.node_count() {
                        if policy
                            .scan_and_swap(&mut inv, NodeId::from(node), &overhead)
                            .is_some()
                        {
                            swaps += 1;
                        }
                    }
                }
                swaps
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn quiescence_benchmark(c: &mut Criterion) {
    let mut group = c.benchmark_group("balancer_quiescence");
    group.sample_size(10);
    for &side in &[4usize, 5] {
        group.bench_with_input(BenchmarkId::new("torus", side * side), &side, |b, &side| {
            b.iter(|| {
                let mut inv = stocked_torus(side, 5);
                let policy = BalancerPolicy;
                let overhead = |_: NodePair| 1.0;
                policy.run_to_quiescence(&mut inv, &overhead, 50_000).len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, scan_benchmark, quiescence_benchmark);
criterion_main!(benches);
