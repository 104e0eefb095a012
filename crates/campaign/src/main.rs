//! `campaign` — run a scenario-grid sweep from the command line.
//!
//! ```text
//! campaign [OPTIONS]                 run a sweep (full grid or one shard)
//! campaign merge [--out F] SHARD...  recombine shard files (or a directory
//!                                    of them) into the report
//! campaign orchestrate --workers N --run-dir DIR [OPTIONS]
//!                                    supervise N worker subprocesses over a
//!                                    shared run directory, with retries,
//!                                    crash recovery and live merging
//! campaign orchestrate --resume DIR  pick a killed/failed run back up
//!
//!   --topologies LIST   comma-separated topology specs (default:
//!                       cycle:9,rand-grid:3,ws:9:4:0.2); see
//!                       --list-topologies
//!   --modes LIST        swap policies by registry name (default:
//!                       oblivious,planned,hybrid); see --list-policies
//!   --dist LIST         distillation overheads (default: 1,2)
//!   --physics LIST      link-physics axis specs: ideal and/or
//!                       decoherent:T2[:FLOOR] (default: ideal); see
//!                       --list-physics
//!   --fabric LIST       link-fabric axis items: none, PRESET or
//!                       TOPO@PRESET (the TOPO joins the topology axis),
//!                       e.g. scale-free:1000@metro-fiber; see
//!                       --list-fabrics
//!   --gossip K          add a gossip knowledge axis with K peers/refresh
//!   --knowledge LIST    explicit knowledge axis: global, gossip:K and/or
//!                       gossip:K:PERIOD items (PERIOD in simulated
//!                       seconds; omitted couples exchanges to the
//!                       swap-scan cadence)
//!   --pairs N           consumer pairs per workload (default: 10)
//!   --requests N        requests per run (default: 12)
//!   --workload LIST     comma-separated workload axis specs (see
//!                       --list-workloads); default: one closed-loop cell
//!                       built from --pairs/--requests
//!   --replicates N      replicates per cell (default: 6)
//!   --seed N            master seed (default: 1)
//!   --horizon S         simulated-seconds horizon (default: 4000)
//!   --threads N         worker threads (default: all cores)
//!   --cache-dir DIR     consult/extend a content-addressed outcome cache;
//!                       already-cached scenarios are not simulated
//!   --shard I/N         run only shard I of a deterministic N-way
//!                       partition and emit a shard file instead of the
//!                       report (recombine with `campaign merge`)
//!   --out FILE          write the JSONL report (or shard file) to FILE
//!                       (default: stdout)
//!   --compare-serial    also run single-threaded; verify byte-identical
//!                       reports and print the parallel speedup
//!   --dry-run           print the grid shape and exit
//!   --list-policies     print the registered swap policies and exit without running
//!   --list-workloads    print the workload-spec grammar and exit
//!   --list-topologies   print the topology-spec grammar and exit
//!   --list-physics      print the physics-spec grammar and exit
//!   --list-fabrics      print the fabric-spec grammar and exit
//! ```
//!
//! The JSON-lines report goes to stdout (or `--out`); the human summary and
//! timing go to stderr, so `campaign > sweep.jsonl` composes cleanly.
//!
//! Determinism contract: a cold single-process run, a warm fully-cached
//! run, and any `--shard I/N` partition recombined with `campaign merge`
//! all produce byte-identical JSONL reports (the CI smoke job `cmp`s them).

use qnet_campaign::orchestrator::events::ProgressWriter;
use qnet_campaign::{
    aggregate, merge_shards, orchestrate, policy_listing, read_shard, resume_orchestrated,
    run_campaign, run_scenarios_streaming, shard_to_string, to_jsonl_string, InjectAbort,
    OrchestratorConfig, OutcomeCache, OutcomeSource, RunDir, RunnerConfig, ScenarioGrid, ShardSpec,
};
use qnet_core::classical::KnowledgeModel;
use qnet_core::physics::PhysicsModel;
use qnet_core::policy::PolicyId;
use qnet_core::workload::{PairSelection, TrafficModel, WorkloadSpec};
use qnet_topology::{FabricSpec, Topology};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    /// The grid the grid-shaping flags describe, starting from the CLI
    /// defaults. `build_grid` resolves its workload axis from `workloads`,
    /// appends `fabric_topologies` and defaults an untouched (empty) fabric
    /// axis to homogeneous links.
    grid: ScenarioGrid,
    /// Topologies named via `TOPO@PRESET` fabric items; appended to the
    /// topology axis after the `--topologies` values.
    fabric_topologies: Vec<Topology>,
    pairs: usize,
    requests: usize,
    /// Raw --workload specs; resolved against --pairs, --requests and
    /// --horizon in `build_grid` (open-loop arrival horizons default to the
    /// run horizon).
    workloads: Vec<String>,
    threads: usize,
    cache_dir: Option<String>,
    shard: Option<ShardSpec>,
    out: Option<String>,
    compare_serial: bool,
    dry_run: bool,
    /// Load the grid from a JSON descriptor instead of the grid-shaping
    /// flags (how orchestrated workers receive their grid).
    grid_file: Option<String>,
    /// Stream seq-numbered JSONL progress events (shard claimed, scenario
    /// simulated/cache-hit, shard sealed) to this file.
    progress: Option<String>,
    /// Testing hook: exit with code 17 after N simulated scenarios.
    worker_abort_after: Option<usize>,
    /// True once any grid-shaping flag was given (conflicts with
    /// --grid-file).
    grid_flags_used: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            grid: ScenarioGrid {
                topologies: vec![
                    Topology::Cycle { nodes: 9 },
                    Topology::RandomConnectedGrid { side: 3 },
                    Topology::WattsStrogatz {
                        nodes: 9,
                        neighbors: 4,
                        rewire_probability: 0.2,
                    },
                ],
                modes: vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED, PolicyId::HYBRID],
                distillations: vec![1.0, 2.0],
                // --fabric items accumulate in first-mention order.
                fabrics: Vec::new(),
                replicates: 6,
                max_sim_time_s: 4_000.0,
                ..ScenarioGrid::new(1)
            },
            fabric_topologies: Vec::new(),
            pairs: 10,
            requests: 12,
            workloads: Vec::new(),
            threads: 0,
            cache_dir: None,
            shard: None,
            out: None,
            compare_serial: false,
            dry_run: false,
            grid_file: None,
            progress: None,
            worker_abort_after: None,
            grid_flags_used: false,
        }
    }
}

/// The grid-shaping flags, each taking a value. They conflict with
/// `--grid-file`, and they (with `--grid-file`) are exactly what
/// `campaign orchestrate` forwards to the grid builder.
const GRID_FLAGS: [&str; 13] = [
    "--topologies",
    "--modes",
    "--dist",
    "--gossip",
    "--knowledge",
    "--physics",
    "--fabric",
    "--pairs",
    "--requests",
    "--workload",
    "--replicates",
    "--seed",
    "--horizon",
];

/// What a `--list-*` flag prints before exiting (`None` for any other
/// argument).
fn listing(flag: &str) -> Option<String> {
    let text = match flag {
        "--list-policies" => return Some(policy_listing()),
        "--list-workloads" => WORKLOADS_HELP,
        "--list-topologies" => TOPOLOGIES_HELP,
        "--list-physics" => PHYSICS_HELP,
        "--list-fabrics" => FABRICS_HELP,
        _ => return None,
    };
    Some(text.to_string())
}

fn parse_topology(spec: &str) -> Result<Topology, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let n = |i: usize| -> Result<usize, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("{spec}: missing parameter {i}"))?
            .parse()
            .map_err(|_| format!("{spec}: bad integer parameter"))
    };
    let f = |i: usize| -> Result<f64, String> {
        parts
            .get(i)
            .ok_or_else(|| format!("{spec}: missing parameter {i}"))?
            .parse()
            .map_err(|_| format!("{spec}: bad float parameter"))
    };
    let topology = match parts[0] {
        "cycle" => Topology::Cycle { nodes: n(1)? },
        "path" => Topology::Path { nodes: n(1)? },
        "star" => Topology::Star { nodes: n(1)? },
        "complete" => Topology::Complete { nodes: n(1)? },
        "torus" => Topology::TorusGrid { side: n(1)? },
        "grid" => Topology::PlanarGrid { side: n(1)? },
        "rand-grid" => Topology::RandomConnectedGrid { side: n(1)? },
        "er" => Topology::ErdosRenyiConnected {
            nodes: n(1)?,
            edge_probability: f(2)?,
        },
        "ws" => Topology::WattsStrogatz {
            nodes: n(1)?,
            neighbors: n(2)?,
            rewire_probability: f(3)?,
        },
        "tree" => Topology::RandomTree { nodes: n(1)? },
        "scale-free" => Topology::ScaleFree {
            nodes: n(1)?,
            // Preferential attachment defaults to 2 edges per newcomer (the
            // classic internet-like Barabási–Albert setting).
            attach: if parts.len() > 2 { n(2)? } else { 2 },
        },
        "nyc-fiber" => {
            if parts.len() > 1 {
                return Err(format!("{spec}: nyc-fiber takes no parameters"));
            }
            Topology::DeployedFiber
        }
        other => {
            return Err(format!(
                "unknown topology family '{other}' (valid: cycle, path, star, complete, \
                 torus, grid, rand-grid, er, ws, tree, scale-free, nyc-fiber; \
                 see --list-topologies)"
            ))
        }
    };
    topology.check()?;
    Ok(topology)
}

/// Parse one `--fabric` item: `none`, `PRESET`, or `TOPO@PRESET` (the
/// topology joins the grid's topology axis). Returns the fabric-axis entry
/// plus the optional topology rider.
fn parse_fabric_item(item: &str) -> Result<(Option<FabricSpec>, Option<Topology>), String> {
    if item == "none" {
        return Ok((None, None));
    }
    match item.split_once('@') {
        Some((topo, preset)) => Ok((
            Some(FabricSpec::parse(preset)?),
            Some(parse_topology(topo)?),
        )),
        None => Ok((Some(FabricSpec::parse(item)?), None)),
    }
}

/// Parse one workload spec over `pairs` consumer pairs:
/// `closed[:REQUESTS]` or `open-loop:RATE_HZ[:HORIZON_S]`, optionally
/// suffixed with a selection: `@uniform`, `@round-robin` or `@zipf:S`.
/// The value rules are [`WorkloadSpec::check`]'s.
fn parse_workload(
    spec: &str,
    pairs: usize,
    default_requests: usize,
    default_horizon_s: f64,
) -> Result<WorkloadSpec, String> {
    let (traffic_spec, selection_spec) = match spec.split_once('@') {
        Some((t, sel)) => (t, Some(sel)),
        None => (spec, None),
    };
    let parts: Vec<&str> = traffic_spec.split(':').collect();
    let traffic = match parts[0] {
        "closed" => {
            let requests = match parts.get(1) {
                Some(r) => r
                    .parse()
                    .map_err(|_| format!("{spec}: bad request count"))?,
                None => default_requests,
            };
            if parts.len() > 2 {
                return Err(format!("{spec}: closed takes at most one parameter"));
            }
            TrafficModel::ClosedLoopBatch { requests }
        }
        "open-loop" => {
            let rate_hz: f64 = parts
                .get(1)
                .ok_or_else(|| format!("{spec}: open-loop needs a rate"))?
                .parse()
                .map_err(|_| format!("{spec}: bad arrival rate"))?;
            let horizon_s: f64 = match parts.get(2) {
                Some(h) => h.parse().map_err(|_| format!("{spec}: bad horizon"))?,
                None => default_horizon_s,
            };
            if parts.len() > 3 {
                return Err(format!("{spec}: open-loop takes at most two parameters"));
            }
            TrafficModel::OpenLoopPoisson { rate_hz, horizon_s }
        }
        other => Err(format!(
            "unknown traffic model '{other}' (valid: closed, open-loop; \
             see --list-workloads)"
        ))?,
    };
    let selection = match selection_spec {
        None | Some("uniform") => PairSelection::UniformRandom,
        Some("round-robin") => PairSelection::RoundRobin,
        Some(sel) => match sel.split_once(':') {
            Some(("zipf", s)) => PairSelection::ZipfSkew {
                s: s.parse()
                    .map_err(|_| format!("{spec}: bad Zipf exponent"))?,
            },
            _ => {
                return Err(format!(
                    "unknown selection '@{sel}' (valid: @uniform, @round-robin, \
                     @zipf:S; see --list-workloads)"
                ))
            }
        },
    };
    let workload = WorkloadSpec {
        node_count: 0, // patched per topology at expansion time
        consumer_pairs: pairs,
        traffic,
        selection,
    };
    workload.check().map_err(|e| format!("{spec}: {e}"))?;
    Ok(workload)
}

fn parse_list<T, E: std::fmt::Display>(
    name: &str,
    value: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Vec<T> = value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| parse(s.trim()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("{name} needs at least one value"));
    }
    Ok(items)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        // Grid-shaping flags conflict with --grid-file (a descriptor file
        // is authoritative; silently overriding part of it would be worse).
        if GRID_FLAGS.contains(&arg.as_str()) {
            opts.grid_flags_used = true;
        }
        if listing(arg).is_some() {
            return Err(arg[2..].to_string());
        }
        let grid = &mut opts.grid;
        match arg.as_str() {
            "--topologies" => {
                grid.topologies =
                    parse_list("--topologies", value("--topologies")?, parse_topology)?
            }
            "--modes" => grid.modes = parse_list("--modes", value("--modes")?, PolicyId::parse)?,
            "--dist" => {
                grid.distillations = parse_list("--dist", value("--dist")?, |s| {
                    s.parse::<f64>().map_err(|e| e.to_string())
                })?
            }
            "--gossip" => {
                let peers_per_refresh = value("--gossip")?
                    .parse()
                    .map_err(|_| "--gossip needs an integer".to_string())?;
                grid.knowledge = vec![
                    KnowledgeModel::Global,
                    KnowledgeModel::Gossip {
                        peers_per_refresh,
                        refresh_period_s: 0.0,
                    },
                ];
            }
            "--knowledge" => {
                grid.knowledge =
                    parse_list("--knowledge", value("--knowledge")?, KnowledgeModel::parse)?
            }
            "--physics" => {
                grid.physics = parse_list("--physics", value("--physics")?, PhysicsModel::parse)?
            }
            "--fabric" => {
                let items = parse_list("--fabric", value("--fabric")?, parse_fabric_item)?;
                for (fabric, topology) in items {
                    if !grid.fabrics.contains(&fabric) {
                        grid.fabrics.push(fabric);
                    }
                    if let Some(t) = topology {
                        if !opts.fabric_topologies.contains(&t) {
                            opts.fabric_topologies.push(t);
                        }
                    }
                }
            }
            "--pairs" => {
                opts.pairs = value("--pairs")?
                    .parse()
                    .map_err(|_| "--pairs needs an integer".to_string())?
            }
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "--requests needs an integer".to_string())?
            }
            "--workload" => {
                opts.workloads = value("--workload")?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().to_string())
                    .collect();
                if opts.workloads.is_empty() {
                    return Err("--workload needs at least one spec".to_string());
                }
            }
            "--replicates" => {
                grid.replicates = value("--replicates")?
                    .parse()
                    .map_err(|_| "--replicates needs an integer".to_string())?
            }
            "--seed" => {
                grid.master_seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?
            }
            "--horizon" => {
                grid.max_sim_time_s = value("--horizon")?
                    .parse()
                    .map_err(|_| "--horizon needs a number".to_string())?
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads needs an integer".to_string())?
            }
            "--cache-dir" => opts.cache_dir = Some(value("--cache-dir")?.clone()),
            "--shard" => opts.shard = Some(ShardSpec::parse(value("--shard")?)?),
            "--out" => opts.out = Some(value("--out")?.clone()),
            "--grid-file" => opts.grid_file = Some(value("--grid-file")?.clone()),
            "--progress" => opts.progress = Some(value("--progress")?.clone()),
            "--worker-abort-after" => {
                opts.worker_abort_after = Some(
                    value("--worker-abort-after")?
                        .parse()
                        .map_err(|_| "--worker-abort-after needs an integer".to_string())?,
                )
            }
            "--compare-serial" => opts.compare_serial = true,
            "--dry-run" => opts.dry_run = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown argument '{other}' (try --help)")),
        }
    }
    // Validate here so bad input exits with a message, not a panic from a
    // grid builder or a worker thread.
    if opts.grid_file.is_none() {
        build_grid(&opts)?;
    }
    if opts.shard.is_some() && opts.compare_serial {
        return Err(
            "--compare-serial compares full-grid reports; it cannot run on a --shard \
             (merge the shards and compare reports instead)"
                .to_string(),
        );
    }
    if opts.grid_file.is_some() && opts.grid_flags_used {
        return Err(
            "--grid-file provides the whole grid; it cannot be combined with \
             grid-shaping flags (--topologies, --modes, --seed, …)"
                .to_string(),
        );
    }
    Ok(opts)
}

/// The grid a run executes: the `--grid-file` descriptor (how orchestrated
/// workers receive their grid without re-serializing it through CLI flags)
/// or else the grid the grid-shaping flags describe.
fn resolve_grid(opts: &Options) -> Result<ScenarioGrid, String> {
    let Some(path) = &opts.grid_file else {
        return build_grid(opts);
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read grid file {path}: {e}"))?;
    ScenarioGrid::from_json(&text).map_err(|e| format!("grid file {path}: {e}"))
}

/// The grid the grid-shaping flags describe, checked with
/// [`ScenarioGrid::check`].
fn build_grid(opts: &Options) -> Result<ScenarioGrid, String> {
    let mut grid = opts.grid.clone();
    grid.workloads = if opts.workloads.is_empty() {
        // The pre-traffic-model default: one closed-loop uniform cell.
        vec![WorkloadSpec::closed_loop(0, opts.pairs, opts.requests)]
    } else {
        opts.workloads
            .iter()
            .map(|w| parse_workload(w, opts.pairs, opts.requests, grid.max_sim_time_s))
            .collect::<Result<_, _>>()?
    };
    // Topologies named by `TOPO@PRESET` fabric items join the axis after
    // the explicit `--topologies` values (first mention wins on duplicates).
    for t in &opts.fabric_topologies {
        if !grid.topologies.contains(t) {
            grid.topologies.push(*t);
        }
    }
    if grid.fabrics.is_empty() {
        grid.fabrics = vec![None];
    }
    grid.check()?;
    Ok(grid)
}

/// Shard files inside `dir` (`shard-*.jsonl`, sealed only), sorted by name
/// for deterministic merge input order. Falls back to a `shards/`
/// subdirectory, so an orchestrator run directory merges directly.
fn shard_files_in_dir(dir: &Path) -> Result<Vec<String>, String> {
    let listing = |d: &Path| -> Result<Vec<String>, String> {
        let mut found = Vec::new();
        let entries = std::fs::read_dir(d)
            .map_err(|e| format!("cannot read directory {}: {e}", d.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot read directory {}: {e}", d.display()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-") && name.ends_with(".jsonl") {
                found.push(entry.path().to_string_lossy().into_owned());
            }
        }
        found.sort();
        Ok(found)
    };
    let direct = listing(dir)?;
    if !direct.is_empty() {
        return Ok(direct);
    }
    let shards_subdir = dir.join("shards");
    if shards_subdir.is_dir() {
        let nested = listing(&shards_subdir)?;
        if !nested.is_empty() {
            return Ok(nested);
        }
    }
    Err(format!(
        "{}: no shard-*.jsonl files found (in-flight .partial files are \
         ignored; did the shard runs finish?)",
        dir.display()
    ))
}

/// `campaign merge [--out FILE] SHARD_FILE...`: recombine shard files into
/// the exact single-process aggregate report.
fn run_merge(args: &[String]) -> ExitCode {
    let mut out: Option<String> = None;
    let mut files: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("campaign merge: --out needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprint!("{}", MERGE_USAGE);
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("campaign merge: unknown argument '{other}' (try --help)");
                return ExitCode::FAILURE;
            }
            path => files.push(path),
        }
    }
    if files.is_empty() {
        eprintln!("campaign merge: no shard files given (try --help)");
        return ExitCode::FAILURE;
    }

    // A directory argument stands for every sealed shard file inside it.
    let mut expanded: Vec<String> = Vec::new();
    for path in &files {
        if Path::new(path).is_dir() {
            match shard_files_in_dir(Path::new(path)) {
                Ok(found) => expanded.extend(found),
                Err(e) => {
                    eprintln!("campaign merge: {e}");
                    return ExitCode::FAILURE;
                }
            }
        } else {
            expanded.push(path.to_string());
        }
    }
    let files = expanded;

    let mut shards = Vec::with_capacity(files.len());
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("campaign merge: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match read_shard(&text) {
            Ok(shard) => shards.push(shard),
            Err(e) => {
                eprintln!("campaign merge: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (grid, result) = match merge_shards(shards) {
        Ok(merged) => merged,
        Err(e) => {
            eprintln!("campaign merge: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "campaign merge: {} shards × grid {} → {} scenarios, {} cells",
        files.len(),
        grid.fingerprint(),
        result.outcomes.len(),
        grid.cell_count(),
    );
    let jsonl = to_jsonl_string(&aggregate(&grid, &result));
    write_output_exit(&jsonl, out.as_deref(), "campaign merge")
}

/// Write report/shard text to `--out` or stdout, with diagnostics on
/// stderr. Returns `true` on success.
fn write_output(text: &str, out: Option<&str>, who: &str) -> bool {
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("{who}: cannot write {path}: {e}");
                return false;
            }
            eprintln!("{who}: wrote {path}");
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            if stdout.write_all(text.as_bytes()).is_err() {
                return false;
            }
        }
    }
    true
}

/// Exit-code wrapper around [`write_output`].
fn write_output_exit(text: &str, out: Option<&str>, who: &str) -> ExitCode {
    if write_output(text, out, who) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `campaign orchestrate`: spawn and supervise worker subprocesses over a
/// shared run directory. The [`GRID_FLAGS`] and `--grid-file` pass through
/// to the same parser as a plain run, and any other flag is an error; a
/// `--resume` takes no grid flags (the run directory is authoritative).
fn run_orchestrate(args: &[String]) -> ExitCode {
    let mut workers: Option<usize> = None;
    let mut run_dir: Option<String> = None;
    let mut resume_dir: Option<String> = None;
    let mut out: Option<String> = None;
    let mut config_overrides: Vec<(&str, String)> = Vec::new();
    let mut grid_args: Vec<String> = Vec::new();
    let take = |it: &mut std::slice::Iter<String>, name: &str| -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let parsed: Result<(), String> = match arg.as_str() {
            "--workers" => take(&mut it, "--workers").and_then(|v| {
                workers = Some(
                    v.parse()
                        .map_err(|_| "--workers needs an integer".to_string())?,
                );
                Ok(())
            }),
            "--run-dir" => take(&mut it, "--run-dir").map(|v| run_dir = Some(v)),
            "--resume" => take(&mut it, "--resume").map(|v| resume_dir = Some(v)),
            "--out" => take(&mut it, "--out").map(|v| out = Some(v)),
            "--worker-threads" => {
                take(&mut it, "--worker-threads").map(|v| config_overrides.push(("threads", v)))
            }
            "--heartbeat-timeout" => take(&mut it, "--heartbeat-timeout")
                .map(|v| config_overrides.push(("heartbeat", v))),
            "--max-attempts" => {
                take(&mut it, "--max-attempts").map(|v| config_overrides.push(("attempts", v)))
            }
            "--inject-abort" => {
                take(&mut it, "--inject-abort").map(|v| config_overrides.push(("inject", v)))
            }
            "--quiet" => {
                config_overrides.push(("quiet", String::new()));
                Ok(())
            }
            "--help" | "-h" => Err("help".to_string()),
            flag if flag == "--grid-file" || GRID_FLAGS.contains(&flag) => {
                take(&mut it, flag).map(|v| grid_args.extend([flag.to_string(), v]))
            }
            other => Err(format!("unknown argument '{other}' (try --help)")),
        };
        if let Err(msg) = parsed {
            if msg == "help" {
                eprint!("{}", ORCHESTRATE_USAGE);
                return ExitCode::SUCCESS;
            }
            eprintln!("campaign orchestrate: {msg}");
            return ExitCode::FAILURE;
        }
    }

    if resume_dir.is_some() && (run_dir.is_some() || workers.is_some() || !grid_args.is_empty()) {
        eprintln!(
            "campaign orchestrate: --resume takes the run directory as the only \
             source of truth; it cannot be combined with --run-dir, --workers or \
             grid-shaping flags"
        );
        return ExitCode::FAILURE;
    }

    let dir = match (&resume_dir, &run_dir) {
        (Some(d), _) => d.clone(),
        (None, Some(d)) => d.clone(),
        (None, None) => {
            eprintln!("campaign orchestrate: --run-dir is required (or --resume DIR; try --help)");
            return ExitCode::FAILURE;
        }
    };
    // Worker count is resolved from the manifest on resume.
    let mut config = OrchestratorConfig::new(workers.unwrap_or(1), &dir);
    for (key, raw) in &config_overrides {
        let applied: Result<(), String> = (|| {
            match *key {
                "threads" => {
                    config.worker_threads = raw
                        .parse()
                        .map_err(|_| "--worker-threads needs an integer".to_string())?
                }
                "heartbeat" => {
                    let secs: f64 = raw
                        .parse()
                        .map_err(|_| "--heartbeat-timeout needs seconds".to_string())?;
                    if secs <= 0.0 || !secs.is_finite() {
                        return Err("--heartbeat-timeout must be positive".to_string());
                    }
                    config.heartbeat_timeout = std::time::Duration::from_secs_f64(secs);
                }
                "attempts" => {
                    config.max_attempts = raw
                        .parse()
                        .map_err(|_| "--max-attempts needs an integer".to_string())?
                }
                "inject" => config.inject_abort = Some(InjectAbort::parse(raw)?),
                "quiet" => config.quiet = true,
                _ => unreachable!(),
            }
            Ok(())
        })();
        if let Err(msg) = applied {
            eprintln!("campaign orchestrate: {msg}");
            return ExitCode::FAILURE;
        }
    }

    let outcome = if resume_dir.is_some() {
        resume_orchestrated(&config)
    } else {
        if workers.is_none() {
            eprintln!("campaign orchestrate: --workers N is required for a fresh run (try --help)");
            return ExitCode::FAILURE;
        }
        match parse_args(&grid_args).and_then(|opts| resolve_grid(&opts)) {
            Ok(grid) => orchestrate(&grid, &config),
            Err(msg) => {
                eprintln!("campaign orchestrate: {msg}");
                return ExitCode::FAILURE;
            }
        }
    };
    match outcome {
        Ok(report) => {
            eprintln!(
                "campaign orchestrate: {} scenarios across {} shard(s) \
                 (simulated={} cache_hits={} retries={}) → {}",
                report.scenarios,
                report.sealed_shards,
                report.simulated,
                report.cache_hits,
                report.retries,
                RunDir::new(&dir).merged_path().display(),
            );
            match out {
                // merged.jsonl is already on disk; --out additionally
                // copies the report where asked (stdout with no --out
                // would double-print for pipelines, so it is opt-in here).
                Some(path) => {
                    write_output_exit(&report.merged_jsonl, Some(&path), "campaign orchestrate")
                }
                None => ExitCode::SUCCESS,
            }
        }
        Err(msg) => {
            eprintln!("campaign orchestrate: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        return run_merge(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("orchestrate") {
        return run_orchestrate(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if msg == "help" {
                eprint!("{}", USAGE);
                return ExitCode::SUCCESS;
            }
            if let Some(text) = listing(&format!("--{msg}")) {
                print!("{text}");
                return ExitCode::SUCCESS;
            }
            eprintln!("campaign: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let grid = match resolve_grid(&opts) {
        Ok(grid) => grid,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "campaign: {} cells × {} replicates = {} scenarios ({} topologies × {} modes × {} D × {} knowledge × {} physics × {} fabrics × {} workloads)",
        grid.cell_count(),
        grid.replicates,
        grid.scenario_count(),
        grid.topologies.len(),
        grid.modes.len(),
        grid.distillations.len(),
        grid.knowledge.len(),
        grid.physics.len(),
        grid.fabrics.len(),
        grid.workloads.len(),
    );
    if opts.dry_run {
        for key in grid.cell_keys() {
            let traffic = match key.traffic {
                Some(TrafficModel::OpenLoopPoisson { rate_hz, horizon_s }) => {
                    format!(" open-loop:{rate_hz}Hz×{horizon_s}s")
                }
                _ => String::new(),
            };
            let physics = match key.physics {
                Some(p) => format!(" physics={}", p.label()),
                None => String::new(),
            };
            let fabric = match key.fabric {
                Some(f) => format!(" fabric={}", f.label()),
                None => String::new(),
            };
            eprintln!(
                "  cell {:>4}: {:<16} N={:<3} mode={:?} D={} pairs={} requests={}{traffic}{physics}{fabric}",
                key.cell,
                key.topology,
                key.nodes,
                key.mode,
                key.distillation,
                key.consumer_pairs,
                key.requests,
            );
        }
        return ExitCode::SUCCESS;
    }

    let runner = RunnerConfig {
        threads: opts.threads,
        chunk_size: 0,
    };
    let total = grid.scenario_count();
    let ids: Vec<usize> = match opts.shard {
        Some(spec) => spec.ids(total),
        None => (0..total).collect(),
    };
    let mut cache = match &opts.cache_dir {
        Some(dir) => match OutcomeCache::open(Path::new(dir), &grid) {
            Ok(cache) => {
                if cache.rejected_lines() > 0 {
                    eprintln!(
                        "campaign: cache {} held {} damaged/foreign line(s); \
                         the affected scenarios will be recomputed",
                        cache.path().display(),
                        cache.rejected_lines(),
                    );
                }
                Some(cache)
            }
            Err(e) => {
                eprintln!("campaign: cannot open cache dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    // Optional progress stream: one flushed, seq-numbered JSONL record per
    // scenario, so the file's growth doubles as this process's heartbeat
    // for an orchestrator watching it.
    let progress_spec = opts.shard.unwrap_or(ShardSpec { index: 0, count: 1 });
    let mut progress_writer = match &opts.progress {
        Some(path) => {
            let mut writer = match ProgressWriter::create(Path::new(path)) {
                Ok(writer) => writer,
                Err(e) => {
                    eprintln!("campaign: cannot create progress file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = writer.shard_claimed(progress_spec, ids.len()) {
                eprintln!("campaign: cannot write progress file {path}: {e}");
                return ExitCode::FAILURE;
            }
            Some(writer)
        }
        None => None,
    };
    let abort_after = opts.worker_abort_after;
    let mut simulated_seen = 0usize;
    let mut progress_error: Option<std::io::Error> = None;
    let result = match run_scenarios_streaming(&grid, &runner, &ids, cache.as_mut(), |event| {
        if progress_error.is_none() {
            if let Some(writer) = progress_writer.as_mut() {
                if let Err(e) = writer.scenario(event.id, event.source) {
                    progress_error = Some(e);
                }
            }
        }
        if event.source == OutcomeSource::Simulated {
            simulated_seen += 1;
            if abort_after.is_some_and(|n| simulated_seen >= n) {
                // Testing hook: die abruptly mid-run, after the cache
                // append, exactly like a crashed worker would.
                eprintln!(
                    "campaign: aborting after {simulated_seen} simulated scenario(s) \
                     (--worker-abort-after)"
                );
                std::process::exit(17);
            }
        }
    }) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("campaign: cache append failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(e) = progress_error {
        eprintln!("campaign: cannot write progress file: {e}");
        return ExitCode::FAILURE;
    }

    eprintln!(
        "campaign: {} scenarios on {} threads in {:.2}s ({:.1} scenarios/s) \
         simulated={} cache_hits={}",
        result.outcomes.len(),
        result.threads_used,
        result.wall_seconds,
        result.outcomes.len() as f64 / result.wall_seconds.max(1e-9),
        result.simulated,
        result.cache_hits,
    );

    if let Some(spec) = opts.shard {
        // A shard run emits a self-describing shard file, not a report: the
        // aggregate is only exact once every shard is merged.
        eprintln!(
            "campaign: shard {spec} holds {} of {total} scenarios (grid {})",
            ids.len(),
            grid.fingerprint(),
        );
        let shard_text = shard_to_string(&grid, spec, &result.outcomes);
        if !write_output(&shard_text, opts.out.as_deref(), "campaign") {
            return ExitCode::FAILURE;
        }
        // The sealed event goes out only after the shard file is durably
        // written — the orchestrator treats it as informational either way
        // (its authoritative seal is validate+rename).
        if let Some(writer) = progress_writer.as_mut() {
            if let Err(e) = writer.shard_sealed(ids.len()) {
                eprintln!("campaign: cannot write progress file: {e}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let report = aggregate(&grid, &result);
    let jsonl = to_jsonl_string(&report);

    if opts.compare_serial {
        let serial = run_campaign(&grid, &RunnerConfig::serial());
        let serial_report = aggregate(&grid, &serial);
        let serial_jsonl = to_jsonl_string(&serial_report);
        assert_eq!(
            jsonl, serial_jsonl,
            "parallel and serial reports must be byte-identical"
        );
        eprintln!(
            "campaign: serial run {:.2}s → speedup {:.2}× on {} threads (reports byte-identical ✓)",
            serial.wall_seconds,
            serial.wall_seconds / result.wall_seconds.max(1e-9),
            result.threads_used,
        );
    }

    // Human summary of the headline metric.
    for cell in &report.cell_reports {
        let knowledge = match cell.key.knowledge {
            KnowledgeModel::Global => String::new(),
            gossip => format!(" {}", gossip.label()),
        };
        let latency = match (cell.latency_p50_s, cell.latency_p95_s) {
            (Some(p50), Some(p95)) => format!("  lat p50 {p50:.1}s p95 {p95:.1}s"),
            _ => String::new(),
        };
        let fidelity = match cell.fidelity_mean {
            Some(mean) => format!(
                "  fid {mean:.3} (expired {}, rejected {})",
                cell.expired_pairs_total, cell.fidelity_rejected_total
            ),
            None => String::new(),
        };
        eprintln!(
            "  {:<16} N={:<3} {:>26}{knowledge} D={:<4} overhead {:>8} ±{:>6} sat {:>5.1}%{latency}{fidelity}",
            cell.key.topology,
            cell.key.nodes,
            format!("{:?}", cell.key.mode),
            cell.key.distillation,
            cell.overhead_mean
                .map(|m| format!("{m:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            cell.overhead_ci95
                .map(|c| format!("{c:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            cell.satisfaction_mean * 100.0,
        );
    }
    for ratio in &report.ratios {
        eprintln!(
            "  ratio {:<16} D={:<4} {:?}/{:?} = {:.3}",
            ratio.topology,
            ratio.distillation,
            ratio.numerator_mode,
            ratio.denominator_mode,
            ratio.ratio,
        );
    }

    if !write_output(&jsonl, opts.out.as_deref(), "campaign") {
        return ExitCode::FAILURE;
    }
    if let Some(writer) = progress_writer.as_mut() {
        if let Err(e) = writer.shard_sealed(ids.len()) {
            eprintln!("campaign: cannot write progress file: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "\
campaign — run a qnet scenario-grid sweep

USAGE:
  campaign [OPTIONS]                      run the sweep, JSONL on stdout
  campaign --shard I/N [OPTIONS]          run one shard, shard file on stdout
  campaign merge [--out F] SHARD...       recombine shard files (or a
                                          directory of them) into the report
  campaign orchestrate --workers N --run-dir DIR [OPTIONS]
                                          multi-process supervised run
                                          (see campaign orchestrate --help)
  campaign --dry-run [OPTIONS]            print the grid shape and exit

OPTIONS:
  --topologies LIST  topology specs, comma-separated (see --list-topologies)
  --modes LIST       swap policies by name (see --list-policies)
  --dist LIST        distillation overheads, e.g. 1,2,3
  --physics LIST     link-physics axis: ideal, decoherent:T2[:FLOOR]
                     (see --list-physics)                [ideal]
  --fabric LIST      link-fabric axis: none, PRESET or TOPO@PRESET
                     (see --list-fabrics)                [none]
  --gossip K         add a gossip knowledge axis (K peers per refresh)
  --knowledge LIST   explicit knowledge axis: global, gossip:K,
                     gossip:K:PERIOD (seconds)          [global]
  --pairs N          consumer pairs per workload        [10]
  --requests N       requests per run                   [12]
  --workload LIST    workload axis specs (comma-separated;
                     see --list-workloads)              [closed]
  --replicates N     replicates per cell                [6]
  --seed N           master seed                        [1]
  --horizon S        simulated-seconds horizon          [4000]
  --threads N        worker threads                     [all cores]
  --cache-dir DIR    reuse cached outcomes; append new ones (incremental
                     sweeps: a fully warm run simulates nothing)
  --shard I/N        run shard I of an N-way deterministic partition and
                     emit a shard file instead of the report
  --grid-file FILE   load the grid from a JSON descriptor instead of the
                     grid-shaping flags (how orchestrated workers get theirs)
  --progress FILE    stream seq-numbered JSONL progress events to FILE
                     (shard claimed / scenario / shard sealed)
  --out FILE         write JSONL report/shard to FILE   [stdout]
  --compare-serial   verify 1-thread determinism, print speedup
  --dry-run          print the grid shape and exit
  --list-policies    print the registered swap policies and exit
  --list-workloads   print the workload-spec grammar and exit
  --list-topologies  print the topology-spec grammar and exit
  --list-physics     print the physics-spec grammar and exit
  --list-fabrics     print the fabric-spec grammar and exit

Determinism: cold run ≡ warm (cached) run ≡ any shard partition after
`campaign merge` — all byte-identical JSONL reports.
";

const MERGE_USAGE: &str = "\
campaign merge — recombine shard files into the aggregate report

USAGE:
  campaign merge [--out FILE] SHARD_FILE...
  campaign merge [--out FILE] DIRECTORY

A directory argument stands for every sealed shard-*.jsonl inside it (or
inside its shards/ subdirectory — an orchestrator run directory merges
directly); in-flight .partial files are ignored.

Every shard file of the partition must be given exactly once, all from the
same grid (equal fingerprints). The merged JSONL report is byte-identical
to a single-process run of the full grid.
";

const ORCHESTRATE_USAGE: &str = "\
campaign orchestrate — multi-process supervised campaign run

USAGE:
  campaign orchestrate --workers N --run-dir DIR [OPTIONS] [GRID FLAGS]
  campaign orchestrate --resume DIR [OPTIONS]

Spawns N worker subprocesses (campaign --shard I/N --cache-dir …) over a
shared run directory and supervises them to completion: per-worker liveness
via progress-file heartbeats, dead/straggler detection and shard retry,
live partial reports as shards seal, and a final validated merge that is
byte-identical to an uninterrupted single-process run.

OPTIONS:
  --workers N            worker subprocesses = shard count (fresh runs)
  --run-dir DIR          the shared run directory (must not hold a run)
  --resume DIR           pick a killed/failed run back up; the directory's
                         manifest is the only source of truth (no grid
                         flags, no --workers)
  --out FILE             also write the merged report to FILE
                         (merged.jsonl in the run dir is always written)
  --worker-threads N     --threads per worker                    [1]
  --heartbeat-timeout S  kill a worker whose progress file has not grown
                         for S seconds, and retry its shard       [60]
  --max-attempts K       attempts per shard before the run fails  [3]
  --inject-abort I:N     testing hook: shard I's first attempt aborts
                         after N simulated scenarios
  --quiet                suppress the human progress line on stderr

GRID FLAGS are the grid-shaping flags of a plain run (--topologies,
--modes, --dist, --gossip, --knowledge, --physics, --fabric, --pairs,
--requests, --workload, --replicates, --seed, --horizon) and --grid-file;
they pass through to the grid builder (see campaign --help). Any other
flag is rejected. Progress: a human line on stderr (done/total, cache
hits, per-worker state, ETA); machine-readable seq-numbered events in
RUN_DIR/events.jsonl (no wall-clock timestamps).

A failed run exits nonzero and leaves the run directory resumable; resume
is byte-identical to an uninterrupted run.
";

const TOPOLOGIES_HELP: &str = "\
topology specs (--topologies LIST, comma-separated; each joins the grid's
topology axis):

  cycle:N        ring over N nodes (the paper's baseline family)
  path:N         simple path 0 - 1 - ... - N-1
  star:N         node 0 joined to every other node
  complete:N     complete graph on N nodes
  torus:S        S x S wraparound grid (N = S^2)
  grid:S         S x S planar grid (no wraparound)
  rand-grid:S    the paper's random connected grid over S x S nodes
  er:N:P         Erdos-Renyi G(N, P), resampled until connected
  ws:N:K:P       Watts-Strogatz small world: N nodes, K ring neighbours,
                 rewire probability P
  tree:N         uniformly random spanning tree on N nodes
  scale-free:N[:M]  Barabasi-Albert preferential attachment: N nodes, each
                 newcomer wiring M edges to degree-weighted targets
                 (default M = 2) — the internet-like heavy-tail family
  nyc-fiber      the deployed 12-node NYC metro fiber template with
                 heterogeneous link lengths (pairs naturally with
                 --fabric metro-fiber)

examples:

  campaign --topologies cycle:25,rand-grid:5
  campaign --topologies ws:25:4:0.1,ws:25:4:0.5 --modes oblivious,planned
";

const PHYSICS_HELP: &str = "\
physics specs (--physics LIST, comma-separated; each joins the grid's
link-physics axis):

  ideal                        the paper's idealisation (default): pairs are
                               ageless, noiseless tokens — results stay
                               byte-identical to pre-physics reports
  decoherent:T2                stored pairs decay under the Werner model
                               with memory coherence time T2 seconds; swaps
                               age both inputs to the swap time and compose
                               them (F_out = F1*F2 + (1-F1)(1-F2)/3); cells
                               gain fidelity_mean/p50/p95 report columns
  decoherent:T2:FLOOR          additionally require every delivery to meet
                               fidelity FLOOR: pairs are discarded once a
                               fresh pair of their age would fall below the
                               floor (expired_pairs_total column), and
                               deliveries below it count as rejected
                               (fidelity_rejected_total column)

elementary pairs are born at fidelity 0.98; consumption order and explicit
cutoff ages are available through the qnet API (PhysicsModel builders).

examples:

  # the decoherence knee: satisfaction and fidelity vs coherence time
  campaign --physics ideal,decoherent:8,decoherent:2,decoherent:0.5

  # fidelity-floor failures by discipline
  campaign --physics decoherent:2:0.7 --modes oblivious,planned,hybrid
";

const FABRICS_HELP: &str = "\
fabric specs (--fabric LIST, comma-separated; each joins the grid's
link-fabric axis):

  none                         homogeneous links (default): every edge
                               generates at the grid's uniform rate with
                               the global physics numbers — results stay
                               byte-identical to pre-fabric reports
  PRESET                       attach hardware-calibrated per-edge profiles
                               to every topology in the grid: each edge
                               draws a length from the preset's range
                               (seed-deterministic), and its generation
                               rate, birth fidelity and memory coherence
                               time derive from that length
  TOPO@PRESET                  additionally append TOPO (any --topologies
                               spec) to the topology axis, e.g.
                               scale-free:1000@metro-fiber

presets:

  lab                          tabletop links (5 m - 250 m): high rate,
                               F0 = 0.99, T2 = 10 s — calibrated to
                               trapped-ion testbed numbers
  metro-fiber                  deployed telecom fiber (1 - 30 km): 0.2
                               dB/km attenuation, F0 = 0.95 at zero
                               length, T2 = 1.5 s — calibrated to
                               metropolitan fiber testbed numbers

derivations (length L km): rate = base * 10^(-0.2 L / 10);
fidelity = 0.5 + (F0 - 0.5) * exp(-L / scale) — both strictly decreasing
in L, so long links are both slower and noisier, exactly the regime
path-oblivious balancing targets.

examples:

  # internet-scale heavy-tail graph on metro hardware
  campaign --fabric scale-free:1000@metro-fiber --modes oblivious,planned

  # the deployed NYC template, homogeneous vs calibrated
  campaign --topologies nyc-fiber --fabric none,metro-fiber
";

const WORKLOADS_HELP: &str = "\
workload specs (--workload LIST, comma-separated; each cell joins the
grid's workload axis):

  closed[:REQUESTS]            closed-loop batch: REQUESTS requests (default
                               --requests), all pending at t = 0, satisfied
                               in sequence order (the paper's §5 semantics)
  open-loop:RATE[:HORIZON]     open-loop Poisson arrivals at RATE requests
                               per simulated second for HORIZON simulated
                               seconds (default: the --horizon value);
                               reports gain sojourn-latency p50/p95 columns

selection suffix (how each request picks its consumer pair):

  @uniform                     independent uniform draws (default)
  @round-robin                 cycle deterministically through the pairs
  @zipf:S                      Zipf-skewed popularity with exponent S
                               (rank-r pair drawn ∝ 1/r^S)

examples:

  # offered-load sweep: satisfaction and latency vs arrival rate
  campaign --workload open-loop:0.5,open-loop:1,open-loop:2,open-loop:4

  # skewed open-loop demand vs the closed-loop baseline
  campaign --workload closed:35,open-loop:1@zipf:1.1
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_grid_is_the_108_scenario_sweep() {
        let opts = parse_args(&[]).unwrap();
        let grid = build_grid(&opts).unwrap();
        // 3 topologies × 3 modes × 2 D × 1 knowledge × 1 workload × 6
        // replicates — the default smoke sweep CI runs.
        assert_eq!(grid.cell_count(), 18);
        assert_eq!(grid.scenario_count(), 108);
    }

    #[test]
    fn unknown_mode_error_enumerates_the_registry() {
        let err = parse_args(&args(&["--modes", "oblivious,bogus"])).unwrap_err();
        assert!(err.contains("unknown policy 'bogus'"), "{err}");
        // The error names the valid policies rather than failing bare.
        for name in ["oblivious", "planned", "hybrid", "connectionless", "greedy"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn unknown_workload_error_enumerates_the_grammar() {
        let err = parse_args(&args(&["--workload", "bursty:3"])).unwrap_err();
        assert!(err.contains("unknown traffic model 'bursty'"), "{err}");
        assert!(err.contains("closed") && err.contains("open-loop"), "{err}");

        let err = parse_args(&args(&["--workload", "closed:5@hot"])).unwrap_err();
        assert!(err.contains("unknown selection '@hot'"), "{err}");
        for name in ["@uniform", "@round-robin", "@zipf:S"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn unknown_topology_error_enumerates_the_families() {
        let err = parse_args(&args(&["--topologies", "moebius:9"])).unwrap_err();
        assert!(err.contains("unknown topology family 'moebius'"), "{err}");
        for name in ["cycle", "rand-grid", "ws", "tree"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
    }

    #[test]
    fn unknown_physics_error_enumerates_the_grammar() {
        let err = parse_args(&args(&["--physics", "ideal,noisy:3"])).unwrap_err();
        assert!(err.contains("unknown physics model 'noisy'"), "{err}");
        for name in ["ideal", "decoherent:T2", "decoherent:T2:FLOOR"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        // Malformed parameters fail loudly too.
        assert!(parse_args(&args(&["--physics", "decoherent"])).is_err());
        assert!(parse_args(&args(&["--physics", "decoherent:0"])).is_err());
        assert!(parse_args(&args(&["--physics", "decoherent:1:2"])).is_err());
    }

    #[test]
    fn physics_flag_builds_the_axis() {
        let opts = parse_args(&args(&["--physics", "ideal,decoherent:2:0.7"])).unwrap();
        let grid = build_grid(&opts).unwrap();
        assert_eq!(grid.physics.len(), 2);
        assert!(grid.physics[0].is_ideal());
        assert_eq!(grid.physics[1].fidelity_floor(), Some(0.7));
        // The axis doubles the default 108-scenario sweep.
        assert_eq!(grid.scenario_count(), 216);
    }

    #[test]
    fn shard_flag_parses_and_rejects_nonsense() {
        let opts = parse_args(&args(&["--shard", "2/5"])).unwrap();
        assert_eq!(opts.shard, Some(ShardSpec { index: 2, count: 5 }));
        assert!(parse_args(&args(&["--shard", "5/5"])).is_err());
        assert!(parse_args(&args(&["--shard", "x"])).is_err());
        assert!(
            parse_args(&args(&["--shard", "0/2", "--compare-serial"])).is_err(),
            "--compare-serial is a full-grid check"
        );
    }

    #[test]
    fn cache_dir_flag_is_recorded() {
        let opts = parse_args(&args(&["--cache-dir", "/tmp/qnet-cache"])).unwrap();
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/qnet-cache"));
    }

    #[test]
    fn list_flags_surface_as_control_errors() {
        assert_eq!(
            parse_args(&args(&["--list-topologies"])).unwrap_err(),
            "list-topologies"
        );
        assert_eq!(
            parse_args(&args(&["--list-policies"])).unwrap_err(),
            "list-policies"
        );
        assert_eq!(
            parse_args(&args(&["--list-workloads"])).unwrap_err(),
            "list-workloads"
        );
        assert_eq!(
            parse_args(&args(&["--list-physics"])).unwrap_err(),
            "list-physics"
        );
        assert_eq!(
            parse_args(&args(&["--list-fabrics"])).unwrap_err(),
            "list-fabrics"
        );
    }

    #[test]
    fn default_grid_has_no_fabric_axis_and_keeps_its_fingerprint() {
        let opts = parse_args(&[]).unwrap();
        let grid = build_grid(&opts).unwrap();
        assert_eq!(grid.fabrics, vec![None]);
        // The default 108-scenario sweep must keep its pre-fabric content
        // address, or every cached outcome and shard file goes stale.
        assert_eq!(grid.fingerprint().to_hex(), "3d0ceedd6e2ff513");
    }

    #[test]
    fn fabric_flag_builds_the_axis_and_topology_riders() {
        use qnet_topology::HardwarePreset;
        let opts =
            parse_args(&args(&["--fabric", "none,scale-free:1000@metro-fiber,lab"])).unwrap();
        let grid = build_grid(&opts).unwrap();
        assert_eq!(
            grid.fabrics,
            vec![
                None,
                Some(FabricSpec::new(HardwarePreset::MetroFiber)),
                Some(FabricSpec::new(HardwarePreset::Lab)),
            ]
        );
        // The @TOPO rider joined the topology axis after the defaults.
        assert_eq!(grid.topologies.len(), 4);
        assert_eq!(
            grid.topologies[3],
            Topology::ScaleFree {
                nodes: 1000,
                attach: 2
            }
        );
        // 4 topologies × 3 modes × 2 D × 3 fabrics × 6 replicates.
        assert_eq!(grid.scenario_count(), 4 * 3 * 2 * 3 * 6);
    }

    #[test]
    fn fabric_errors_enumerate_the_presets() {
        let err = parse_args(&args(&["--fabric", "cryo"])).unwrap_err();
        assert!(err.contains("unknown hardware preset `cryo`"), "{err}");
        for name in ["lab", "metro-fiber"] {
            assert!(err.contains(name), "error must list '{name}': {err}");
        }
        // A bad topology rider fails loudly too.
        assert!(parse_args(&args(&["--fabric", "moebius:9@lab"])).is_err());
    }

    #[test]
    fn scale_free_and_nyc_fiber_topology_specs_parse() {
        assert_eq!(
            parse_topology("scale-free:50").unwrap(),
            Topology::ScaleFree {
                nodes: 50,
                attach: 2
            }
        );
        assert_eq!(
            parse_topology("scale-free:50:3").unwrap(),
            Topology::ScaleFree {
                nodes: 50,
                attach: 3
            }
        );
        assert_eq!(
            parse_topology("nyc-fiber").unwrap(),
            Topology::DeployedFiber
        );
        assert!(parse_topology("nyc-fiber:3").is_err());
        assert!(parse_topology("scale-free").is_err());
    }

    /// Grammar heads, parameters and selection suffixes that steer
    /// arbitrary specs into the parsers' accepting branches rather than
    /// straight into an unknown-name error. Each case tries every head with
    /// every first parameter.
    const HEADS: [&str; 16] = [
        "cycle",
        "torus",
        "er",
        "ws",
        "scale-free",
        "nyc-fiber",
        "closed",
        "open-loop",
        "global",
        "gossip",
        "ideal",
        "decoherent",
        "lab",
        "metro-fiber",
        "oblivious",
        "planned",
    ];
    const PARAMS: [&str; 16] = [
        "0", "1", "2", "3", "9", "10", "0.2", "0.5", "0.99", "-1", "2.0", "1e400", "inf", "NaN",
        "x", "",
    ];
    const SUFFIXES: [&str; 7] = [
        "",
        "@uniform",
        "@round-robin",
        "@zipf:1.1",
        "@zipf:-1",
        "@zipf:NaN",
        "@hot",
    ];

    proptest::proptest! {
        /// Every spec parser returns `Ok` or `Err` on arbitrary input,
        /// never panics, and every value it accepts passes its type's
        /// `check`.
        #[test]
        fn spec_parsers_never_panic_and_accept_only_checked_values(
            params in proptest::collection::vec(0usize..PARAMS.len(), 0..4),
            suffix in 0usize..SUFFIXES.len(),
            raw in "[ -~]{0,16}",
        ) {
            let tail: String = params.iter().map(|&p| format!(":{}", PARAMS[p])).collect();
            let shard = format!("{}/{}", PARAMS[params.first().copied().unwrap_or(0)], PARAMS[suffix]);
            let mut specs = vec![shard, raw];
            for head in HEADS {
                specs.push(format!("{head}{tail}{}", SUFFIXES[suffix]));
                for first in PARAMS {
                    specs.push(format!("{head}:{first}{tail}{}", SUFFIXES[suffix]));
                }
            }
            for spec in specs {
                if let Ok(topology) = parse_topology(&spec) {
                    proptest::prop_assert_eq!(topology.check(), Ok(()), "{}", spec);
                }
                if let Ok(workload) = parse_workload(&spec, 10, 12, 4_000.0) {
                    proptest::prop_assert_eq!(workload.check(), Ok(()), "{}", spec);
                }
                if let Ok(knowledge) = KnowledgeModel::parse(&spec) {
                    proptest::prop_assert_eq!(knowledge.check(), Ok(()), "{}", spec);
                }
                if let Ok(physics) = PhysicsModel::parse(&spec) {
                    proptest::prop_assert_eq!(physics.check(), Ok(()), "{}", spec);
                }
                let _ = FabricSpec::parse(&spec);
                let _ = PolicyId::parse(&spec);
                let _ = ShardSpec::parse(&spec);
            }
        }
    }
}
