//! Swap-policy plugin API guarantees, pinned at the workspace level.
//!
//! 1. **Determinism golden values**: each built-in policy must reproduce
//!    the exact `ExperimentResult` the pre-plugin-API (`ProtocolMode` enum)
//!    implementation produced for the `paper_section5` configuration on
//!    `cycle-9` at `D = 2`, seeds {1, 13, 23}. The numbers below were
//!    captured from the enum-dispatch implementation immediately before the
//!    refactor; any drift means the trait decomposition changed behaviour.
//! 2. **Policy-table round-trip**: every named policy parses the way
//!    the campaign CLI parses `--modes`, serializes through
//!    `ExperimentConfig` JSON, and appears in the `campaign
//!    --list-policies` output.
//! 3. **Planned-family golden**: `tests/data/golden_planned_campaign.jsonl`
//!    pins the nested-swap executor through the planned, connectionless
//!    and greedy disciplines under global and stale gossip knowledge,
//!    missed swaps included.

use qnet::campaign::{aggregate, policy_listing, run_campaign, to_jsonl_string};
use qnet::core::classical::KnowledgeModel;
use qnet::core::policy::POLICIES;
use qnet::prelude::*;
use qnet_topology::Topology;

/// `(policy, seed, swaps, satisfied, unsatisfied, overhead)` captured from
/// the seed-era enum implementation.
const GOLDEN: &[(&str, u64, u64, usize, u64, f64)] = &[
    ("oblivious", 1, 325, 35, 0, 2.6639344262295084),
    ("oblivious", 13, 322, 35, 0, 2.683333333333333),
    ("oblivious", 23, 366, 35, 0, 2.506849315068493),
    ("hybrid", 1, 260, 35, 0, 2.1311475409836067),
    ("hybrid", 13, 294, 35, 0, 2.45),
    ("hybrid", 23, 278, 35, 0, 1.904109589041096),
    ("planned", 1, 156, 35, 0, 1.278688524590164),
    ("planned", 13, 154, 35, 0, 1.2833333333333334),
    ("planned", 23, 188, 35, 0, 1.2876712328767124),
    ("connectionless", 1, 156, 35, 0, 1.278688524590164),
    ("connectionless", 13, 154, 35, 0, 1.2833333333333334),
    ("connectionless", 23, 188, 35, 0, 1.2876712328767124),
];

fn paper_run(policy: PolicyId, seed: u64) -> ExperimentResult {
    let config = ExperimentConfig::paper_section5(Topology::Cycle { nodes: 9 }, 2.0, seed)
        .with_policy(policy);
    Experiment::new(config).run()
}

#[test]
fn builtin_policies_reproduce_seed_era_golden_results() {
    for &(name, seed, swaps, satisfied, unsatisfied, overhead) in GOLDEN {
        let policy = PolicyId::parse(name).expect("built-in policy");
        let r = paper_run(policy, seed);
        assert_eq!(
            r.swaps_performed, swaps,
            "{name} seed {seed}: swap count drifted"
        );
        assert_eq!(
            r.satisfied_requests, satisfied,
            "{name} seed {seed}: satisfied count drifted"
        );
        assert_eq!(
            r.unsatisfied_requests, unsatisfied,
            "{name} seed {seed}: unsatisfied count drifted"
        );
        let got = r.swap_overhead().expect("non-zero denominator");
        assert!(
            (got - overhead).abs() < 1e-12,
            "{name} seed {seed}: overhead {got} != golden {overhead}"
        );
    }
}

#[test]
fn greedy_policy_runs_the_paper_config_deterministically() {
    // The greedy nested-ordering policy has no enum-era golden values (it
    // post-dates the enum); pin its behaviour to itself instead.
    let a = paper_run(PolicyId::GREEDY, 1);
    let b = paper_run(PolicyId::GREEDY, 1);
    assert_eq!(a, b);
    assert_eq!(a.satisfied_requests, 35);
    assert!(a.swaps_performed > 0);
    // A planned-family discipline: far less swap overhead than balancing.
    let oblivious = paper_run(PolicyId::OBLIVIOUS, 1);
    assert!(a.swaps_performed < oblivious.swaps_performed);
}

#[test]
fn every_registered_policy_parses_like_the_campaign_cli() {
    assert!(POLICIES.len() >= 5, "the five built-ins are in the table");
    for entry in POLICIES {
        // The CLI's --modes axis goes through PolicyId::parse.
        let id = PolicyId::parse(entry.name).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert_eq!(id.name(), entry.name);
        // Aliases and the legacy display label resolve to the same policy.
        assert_eq!(PolicyId::parse(entry.display).unwrap(), id);
        for alias in entry.aliases {
            assert_eq!(PolicyId::parse(alias).unwrap(), id, "alias {alias}");
        }
    }
}

#[test]
fn every_registered_policy_serializes_through_experiment_config() {
    for entry in POLICIES {
        let id = PolicyId::parse(entry.name).unwrap();
        let config = ExperimentConfig::default().with_policy(id);
        let json = serde_json::to_string(&config).expect("serializable");
        let back: ExperimentConfig = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.mode, id);
        // Byte-stable round trip (full struct equality would trip over the
        // serde shim's non-finite-float → null convention for ideal
        // decoherence, a pre-existing quirk unrelated to policies).
        let json2 = serde_json::to_string(&back).expect("re-serializable");
        assert_eq!(json, json2, "{}: config JSON round-trip", entry.name);
    }
    // Legacy configs carrying the old enum variant labels still load.
    let legacy = serde_json::to_string(&ExperimentConfig::default()).unwrap();
    assert!(
        legacy.contains("\"Oblivious\""),
        "legacy label preserved: {legacy}"
    );
}

#[test]
fn every_registered_policy_appears_in_list_policies_output() {
    let listing = policy_listing();
    for entry in POLICIES {
        assert!(
            listing.lines().any(|l| l.starts_with(entry.name)),
            "{} missing from --list-policies output:\n{listing}",
            entry.name
        );
    }
}

#[test]
fn greedy_joins_the_campaign_grid_axis() {
    let grid = ScenarioGrid::new(5)
        .with_topologies(vec![Topology::Cycle { nodes: 7 }])
        .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::GREEDY])
        // node_count 0 is patched per topology at expansion time.
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 5, 5)])
        .with_replicates(2)
        .with_horizon_s(800.0);
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::serial()));
    assert_eq!(report.cell_reports.len(), 2);
    assert_eq!(report.cell_reports[1].key.mode, PolicyId::GREEDY);
    // Greedy is planned-family, so the oblivious/greedy ratio row appears.
    assert!(report
        .ratios
        .iter()
        .any(|r| r.denominator_mode == PolicyId::GREEDY));
}

/// The exact grid `campaign --topologies cycle:16,rand-grid:4 --modes
/// planned,connectionless,greedy --dist 1,2 --knowledge global,gossip:1:2
/// --requests 20 --pairs 8 --replicates 2 --horizon 4000 --seed 3` built
/// when the planned golden file was captured.
fn golden_planned_grid() -> ScenarioGrid {
    ScenarioGrid::new(3)
        .with_topologies(vec![
            Topology::Cycle { nodes: 16 },
            Topology::RandomConnectedGrid { side: 4 },
        ])
        .with_modes(vec![
            PolicyId::PLANNED,
            PolicyId::CONNECTIONLESS,
            PolicyId::GREEDY,
        ])
        .with_distillations(vec![1.0, 2.0])
        .with_knowledge(vec![
            KnowledgeModel::Global,
            KnowledgeModel::parse("gossip:1:2").unwrap(),
        ])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 8, 20)])
        .with_replicates(2)
        .with_horizon_s(4_000.0)
}

#[test]
fn planned_family_campaign_reproduces_the_golden_bytes() {
    let grid = golden_planned_grid();
    assert_eq!(grid.scenario_count(), 48);
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::default()));
    let jsonl = to_jsonl_string(&report);
    let golden = include_str!("data/golden_planned_campaign.jsonl");
    assert_eq!(
        jsonl, golden,
        "planned-family campaign bytes drifted from the golden capture"
    );
}
