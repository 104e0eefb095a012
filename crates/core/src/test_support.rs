//! Shared test helpers for the simulation substrate and the per-policy
//! modules (compiled only under `cfg(test)`).

use crate::classical::KnowledgeModel;
use crate::config::NetworkConfig;
use crate::network::{NetEvent, QuantumNetworkWorld};
use crate::policy::PolicyId;
use crate::workload::Workload;
use qnet_sim::{run_until, EventQueue, SimTime};
use qnet_topology::{NodeId, NodePair};

/// Shorthand pair constructor.
pub fn pair(a: u32, b: u32) -> NodePair {
    NodePair::new(NodeId(a), NodeId(b))
}

/// Build a world for `policy`, run it to `horizon_s` simulated seconds (or
/// until the workload completes) and return it for inspection.
pub fn run_world(
    config: NetworkConfig,
    workload: Workload,
    policy: PolicyId,
    seed: u64,
    horizon_s: u64,
) -> QuantumNetworkWorld {
    run_world_with_knowledge(
        config,
        workload,
        policy,
        KnowledgeModel::Global,
        seed,
        horizon_s,
    )
}

/// [`run_world`] with an explicit knowledge model.
pub fn run_world_with_knowledge(
    config: NetworkConfig,
    workload: Workload,
    policy: PolicyId,
    knowledge: KnowledgeModel,
    seed: u64,
    horizon_s: u64,
) -> QuantumNetworkWorld {
    drive(horizon_s, |queue| {
        QuantumNetworkWorld::new(
            config,
            workload,
            policy.instantiate(),
            knowledge,
            seed,
            queue,
        )
    })
}

/// Mirror the `Experiment::run` lifecycle: `build` seeds a world into the
/// queue that runs it, the world runs to `horizon_s` simulated seconds,
/// and the policy's end-of-run hook fires before it is returned.
pub fn drive(
    horizon_s: u64,
    build: impl FnOnce(&mut EventQueue<NetEvent>) -> QuantumNetworkWorld,
) -> QuantumNetworkWorld {
    let mut queue = EventQueue::new();
    let mut world = build(&mut queue);
    run_until(&mut world, &mut queue, SimTime::from_secs(horizon_s));
    world.finish();
    world
}
