//! End-to-end integration tests of the §5 experiment pipeline on small
//! instances of the paper's settings: the swap-overhead metric behaves as the
//! paper describes (≥ 1, grows with D, grows slowly with |N|), protocol modes
//! compare sensibly, and the knowledge-model ablation trades messages for
//! overhead.

use qnet::core::classical::KnowledgeModel;
use qnet::core::config::DistillationSpec;
use qnet::prelude::*;

fn config(topology: Topology, d: f64, requests: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        network: NetworkConfig::new(topology)
            .with_topology_seed(seed)
            .with_distillation(DistillationSpec::Uniform(d)),
        workload: WorkloadSpec::closed_loop(topology.node_count(), 10, requests),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed,
        max_sim_time_s: 6_000.0,
    }
}

#[test]
fn overhead_is_at_least_one_across_topologies() {
    for topology in [
        Topology::Cycle { nodes: 9 },
        Topology::TorusGrid { side: 3 },
        Topology::RandomConnectedGrid { side: 3 },
    ] {
        let result = Experiment::new(config(topology, 1.0, 12, 7)).run();
        assert!(
            result.satisfaction_ratio() > 0.8,
            "{}: only {} of requests satisfied",
            topology.label(),
            result.satisfaction_ratio()
        );
        if let Some(overhead) = result.swap_overhead() {
            assert!(overhead >= 1.0, "{}: overhead {overhead}", topology.label());
        }
    }
}

#[test]
fn distillation_overhead_increases_total_work() {
    // Figure 4's qualitative claim, in its noise-robust form at this small
    // scale: raising D makes the network do more work per satisfied request
    // (more swaps and more generated pairs), and the swap-overhead metric
    // does not *shrink* materially. The full paper-scale Figure-4 shape is
    // regenerated by the `campaign_figures` binary in `qnet-bench`.
    let stats = |d: f64| {
        let mut swaps_per_sat = 0.0;
        let mut generated_per_sat = 0.0;
        let mut overheads = Vec::new();
        let seeds = [3u64, 5, 9];
        for &seed in &seeds {
            let r = Experiment::new(config(Topology::Cycle { nodes: 9 }, d, 10, seed)).run();
            assert!(r.satisfied_requests > 0);
            swaps_per_sat += r.swaps_performed as f64 / r.satisfied_requests as f64;
            generated_per_sat += r.metrics.pairs_generated as f64 / r.satisfied_requests as f64;
            if let Some(o) = r.swap_overhead() {
                overheads.push(o);
            }
        }
        let n = seeds.len() as f64;
        let mean_overhead = overheads.iter().sum::<f64>() / overheads.len().max(1) as f64;
        (swaps_per_sat / n, generated_per_sat / n, mean_overhead)
    };
    let (swaps1, gen1, overhead1) = stats(1.0);
    let (swaps2, gen2, overhead2) = stats(2.0);
    assert!(
        swaps2 > swaps1,
        "swaps per request: D=1 {swaps1:.2}, D=2 {swaps2:.2}"
    );
    assert!(
        gen2 > gen1,
        "pairs per request: D=1 {gen1:.2}, D=2 {gen2:.2}"
    );
    assert!(
        overhead2 > overhead1 * 0.75,
        "overhead must not collapse with D: D=1 {overhead1:.3}, D=2 {overhead2:.3}"
    );
}

#[test]
fn overhead_grows_slowly_with_network_size() {
    // Figure 5's qualitative claim: going from 9 to 16 nodes at D = 1 must
    // not blow the overhead up (the paper reports slow growth).
    //
    // Calibration note: at this micro scale (10 sequential requests over 10
    // consumer pairs) the growth is steeper than the paper's near-flat curve,
    // because the sequential workload head-of-line blocks on distant pairs
    // while every node keeps spending scan-rate-bound balancing swaps — a
    // numerator that scales with |N| × wait time against a nearly fixed
    // denominator. Measured with these seeds: 7.14 → 25.95, a 3.6× step.
    // The committed paper-scale sweep (results/fig45_overhead.jsonl, cycle
    // family, oblivious, D = 1) grows 23.1 → 51.4 → 81.1 over |N| = 25 →
    // 36 → 49 — an overhead ∝ |N|^1.9 fit that predicts ≈ 2.9× for this
    // test's 9 → 16 step, consistent with the measurement. The bound (5×,
    // ≈ 1.4× headroom over the measured ratio) fails on any regression that
    // pushes the growth past that quadratic-ish envelope.
    let seeds = [3u64, 5, 8];
    let run = |nodes: usize, seed: u64| {
        Experiment::new(config(Topology::Cycle { nodes }, 1.0, 10, seed))
            .run()
            .swap_overhead()
    };
    let small: Vec<f64> = seeds.iter().filter_map(|&s| run(9, s)).collect();
    let large: Vec<f64> = seeds.iter().filter_map(|&s| run(16, s)).collect();
    assert!(!small.is_empty() && !large.is_empty());
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    assert!(
        mean(&large) < mean(&small) * 5.0,
        "overhead grew too fast with |N|: {} → {}",
        mean(&small),
        mean(&large)
    );
}

#[test]
fn planned_baseline_performs_fewer_swaps_but_oblivious_leaves_seeded_pairs() {
    let base = config(Topology::TorusGrid { side: 3 }, 1.0, 12, 11);
    let oblivious = Experiment::new(base).run();
    let planned = Experiment::new(ExperimentConfig {
        mode: PolicyId::PLANNED,
        ..base
    })
    .run();
    assert!(planned.satisfaction_ratio() > 0.8);
    assert!(oblivious.satisfaction_ratio() > 0.8);
    assert!(planned.swaps_performed <= oblivious.swaps_performed);
    // The oblivious protocol's "waste" is partly leftover value: pairs still
    // stored at the end, available to future requests.
    assert!(oblivious.metrics.leftover_pairs > 0);
}

#[test]
fn gossip_saves_count_update_messages() {
    let base = config(Topology::Cycle { nodes: 9 }, 1.0, 10, 13);
    let global = Experiment::new(base).run();
    let gossip = Experiment::new(ExperimentConfig {
        knowledge: KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.0,
        },
        ..base
    })
    .run();
    assert!(
        gossip.satisfaction_ratio() > 0.7,
        "gossip must still make progress"
    );
    assert!(
        gossip.metrics.classical.count_update_messages
            < global.metrics.classical.count_update_messages,
        "gossip should send fewer count updates ({} vs {})",
        gossip.metrics.classical.count_update_messages,
        global.metrics.classical.count_update_messages
    );
}

#[test]
fn stale_gossip_misses_swaps_that_global_knowledge_never_does() {
    // The §6 staleness trade-off, end-to-end: under a latency-delayed gossip
    // plane some believed counts are old enough that acting on them fails a
    // truth probe (a missed swap) and the decisions that do land were taken
    // on rows with measurably nonzero age. The very same seed under global
    // knowledge must report neither — zero misses, no age distribution.
    let base = config(Topology::Cycle { nodes: 9 }, 1.0, 10, 13);
    let stale = ExperimentConfig {
        mode: PolicyId::HYBRID,
        knowledge: KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 1.0,
        },
        ..base
    };
    let gossip = Experiment::new(stale).run();
    assert!(
        gossip.metrics.missed_swaps > 0,
        "the stale plane never produced a missed swap"
    );
    let age = gossip
        .metrics
        .stale_row_age_mean_s
        .expect("stale decisions must carry a row-age distribution");
    assert!(age > 0.0, "mean believed-row age must be nonzero: {age}");

    let global = Experiment::new(ExperimentConfig {
        mode: PolicyId::HYBRID,
        ..base
    })
    .run();
    assert_eq!(global.metrics.missed_swaps, 0);
    assert_eq!(global.metrics.stale_row_age_mean_s, None);
}

#[test]
fn swap_rate_invariance_claim_holds_roughly() {
    // §5: "varying this rate did not significantly alter the results".
    let overhead_at = |rate: f64| {
        let mut c = config(Topology::Cycle { nodes: 9 }, 1.0, 10, 17);
        c.network = c.network.with_swap_scan_rate(rate);
        Experiment::new(c).run().swap_overhead()
    };
    let slow = overhead_at(2.0);
    let fast = overhead_at(16.0);
    if let (Some(slow), Some(fast)) = (slow, fast) {
        assert!(
            fast < slow * 3.0 && slow < fast * 3.0,
            "swap-rate sensitivity too strong: {slow:.3} vs {fast:.3}"
        );
    }
}

#[test]
fn results_serialize_to_json() {
    let result = Experiment::new(config(Topology::Cycle { nodes: 9 }, 1.0, 6, 19)).run();
    let json = serde_json::to_string(&result).expect("serializable");
    assert!(json.contains("\"topology\""));
    assert!(json.contains("\"swaps_performed\""));
    let back: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(back["node_count"], 9);
}
