//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the goodput benchmark and prints a header, one line
//! per metric, and, as the last line, a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Exits non-zero when an
//! argument is invalid, when a simulator-swapping environment variable is
//! set, or when any correctness check fails.

use perfbench::outside_in::{self, Trace, KINDS};
use perfbench::workloads::{self, Run, Workload, CAMPAIGN_THREADS};
use perfbench::{median, peak_rss_mb, sample_for};
use qnet_campaign::{
    aggregate, run_campaign, run_campaign_cached, to_jsonl_string, CampaignResult, OutcomeCache,
    RunnerConfig, Scenario, ScenarioGrid, ScenarioOutcome,
};
use qnet_core::experiment::ExperimentResult;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: cycle25_oblivious_open, scalefree1000_hybrid_open, campaign_mixed";

/// Each of these swaps another implementation into the simulator, so a run
/// with any of them set would measure a different program.
const GUARDED_ENV: [&str; 4] = [
    "QNET_EVENT_QUEUE",
    "QNET_INVENTORY",
    "QNET_KNOWLEDGE",
    "QNET_EXACT_SAMPLES",
];

/// Where the traced campaign keeps its outcome cache, relative to the
/// working directory; created and removed by the run.
const CACHE_DIR: &str = ".bench_work/campaign-cache";

/// Repetitions the set-up median is taken over, at least.
const MIN_SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one invocation measured and checked.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    errors: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            self.errors.push(e);
        }
    }

    /// The one host-time throughput metric: the median of the timed runs.
    fn rates(&mut self, rates: &[f64]) {
        let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rates.iter().copied().fold(0.0, f64::max);
        println!(
            "# satisfied_per_s over {} timed runs: min {min} max {max}",
            rates.len()
        );
        self.metric("satisfied_per_s", median(rates), "1/s");
    }

    /// `VmHWM` read right after the first pass in a fresh process: later
    /// set-ups and passes only add allocator fragmentation, and how many of
    /// them fit in the budget depends on the speed being measured.
    fn peak_rss(&mut self, mb: Option<f64>) {
        match mb {
            Some(mb) => self.metric("peak_rss_mb", mb, "MiB"),
            None => self.errors.push("VmHWM unavailable".to_string()),
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The set-up budget: a tenth of the run, so set-ups under a millisecond
/// are taken over thousands of repetitions.
fn setup_budget(seconds: f64) -> f64 {
    0.1 * seconds
}

fn count_requests(report: &mut Report, result: &ExperimentResult) {
    let arrived = result.metrics.arrived_requests;
    report.attempted += arrived;
    report.failed += arrived.saturating_sub(result.satisfied_requests as u64);
}

/// The timed runs of one `--trace 0` invocation.
struct Timed<R> {
    /// The first run's output; every later run must reproduce it.
    first: R,
    repeats_differ: bool,
    /// Satisfied requests per host second, one entry per run.
    rates: Vec<f64>,
    setups: Vec<f64>,
    rss: Option<f64>,
}

impl<R> Timed<R> {
    fn repeat_check(&self) -> Result<(), String> {
        if self.repeats_differ {
            Err("a repetition of the workload did not reproduce the first run".to_string())
        } else {
            Ok(())
        }
    }

    /// The host metrics: `satisfied_per_s`, `setup_s`, `peak_rss_mb`.
    fn report(&self, report: &mut Report) {
        report.rates(&self.rates);
        report.metric("setup_s", median(&self.setups), "s");
        report.peak_rss(self.rss);
    }
}

/// Run the workload once in the fresh process and read its peak RSS, then
/// take the set-up samples, then repeat the workload until the runs' host
/// seconds reach `seconds`. `run` returns its output and the number of
/// requests it satisfied; `each` sees every run's output.
fn measure<R: PartialEq>(
    seconds: f64,
    set_up: impl FnMut() -> f64,
    mut run: impl FnMut() -> (R, usize),
    mut each: impl FnMut(&R),
) -> Timed<R> {
    let mut timed_run = || {
        let t = Instant::now();
        let (out, satisfied) = run();
        let run_s = t.elapsed().as_secs_f64();
        each(&out);
        (out, satisfied as f64 / run_s, run_s)
    };
    let (first, rate, mut total_s) = timed_run();
    let rss = peak_rss_mb();
    let setups = sample_for(setup_budget(seconds), MIN_SETUPS, set_up);
    let mut rates = vec![rate];
    let mut repeats_differ = false;
    while total_s < seconds {
        let (out, rate, run_s) = timed_run();
        repeats_differ |= out != first;
        rates.push(rate);
        total_s += run_s;
    }
    Timed {
        first,
        repeats_differ,
        rates,
        setups,
        rss,
    }
}

/// End-to-end metrics of one open-loop workload, from untraced passes over
/// its runs.
fn single_untraced(runs: &[Run], seconds: f64) -> Report {
    let mut report = Report::default();
    let timed = measure(
        seconds,
        || {
            let (set_up, times) = outside_in::set_up(&runs[0]);
            black_box(set_up);
            times.iter().sum()
        },
        || {
            let results: Vec<ExperimentResult> = runs.iter().map(Run::run).collect();
            let satisfied = results.iter().map(|r| r.satisfied_requests).sum();
            (results, satisfied)
        },
        |results| {
            for r in results {
                count_requests(&mut report, r);
            }
        },
    );
    for r in &timed.first {
        report.check(outside_in::check_accounting(r));
    }
    report.check(timed.repeat_check());
    let sum = |f: &dyn Fn(&ExperimentResult) -> f64| -> f64 { timed.first.iter().map(f).sum() };
    let satisfied = sum(&|r| r.satisfied_requests as f64);
    timed.report(&mut report);
    report.metric(
        "satisfaction_ratio",
        ratio(satisfied, sum(&|r| r.metrics.arrived_requests as f64)),
        "ratio",
    );
    report.metric(
        "swaps_per_satisfied",
        ratio(sum(&|r| r.metrics.swaps_performed as f64), satisfied),
        "swaps/req",
    );
    report.metric(
        "messages_per_satisfied",
        ratio(
            sum(&|r| r.metrics.classical.count_update_messages as f64),
            satisfied,
        ),
        "msgs/req",
    );
    // Exact per seed, but it swings by half its median between seeds of
    // one workload (one slow pair dominates a near-zero mean), so it is
    // printed for reading and kept out of the bounded metrics.
    let sojourn = ratio(
        sum(&|r| r.metrics.sojourn_stats().mean() * r.satisfied_requests as f64),
        satisfied,
    );
    println!("# sojourn_mean_s (unbounded) {sojourn} s");
    report
}

/// One campaign pass the way the CLI runs it without a cache: run every
/// scenario, aggregate, render the JSONL report.
fn campaign_pass(grid: &ScenarioGrid) -> (CampaignResult, String) {
    let result = run_campaign(grid, &RunnerConfig::with_threads(CAMPAIGN_THREADS));
    let jsonl = to_jsonl_string(&aggregate(grid, &result));
    (result, jsonl)
}

/// Host seconds of one grid expansion: the campaign's set-up.
fn grid_expansion_s(grid: &ScenarioGrid) -> f64 {
    let t = Instant::now();
    let scenarios: Vec<Scenario> = grid.scenarios().collect();
    let dt = t.elapsed().as_secs_f64();
    black_box(scenarios);
    dt
}

/// End-to-end metrics of the campaign workload, from untraced passes.
fn campaign_untraced(grid: &ScenarioGrid, seconds: f64) -> Report {
    let mut report = Report::default();
    let timed = measure(
        seconds,
        || grid_expansion_s(grid),
        || {
            let (result, jsonl) = campaign_pass(grid);
            let satisfied = result.outcomes.iter().map(|o| o.satisfied_requests).sum();
            ((result.outcomes, jsonl), satisfied)
        },
        |(outcomes, _)| {
            for o in outcomes {
                report.attempted += o.arrived_requests;
                report.failed += o
                    .arrived_requests
                    .saturating_sub(o.satisfied_requests as u64);
            }
        },
    );
    let (outcomes, _) = &timed.first;
    for o in outcomes {
        // The outcome rows carry no dropped count, so the full identity is
        // checked by the traced mode; here nothing may be counted twice.
        if o.satisfied_requests as u64 + o.unsatisfied_requests + o.fidelity_rejected
            > o.arrived_requests
        {
            report.errors.push(format!(
                "scenario {}: more requests accounted than arrived",
                o.id
            ));
        }
    }
    report.check(timed.repeat_check());
    let sum = |f: &dyn Fn(&ScenarioOutcome) -> f64| -> f64 { outcomes.iter().map(f).sum() };
    let satisfied = sum(&|o| o.satisfied_requests as f64);
    timed.report(&mut report);
    report.metric(
        "satisfaction_ratio",
        ratio(satisfied, sum(&|o| o.arrived_requests as f64)),
        "ratio",
    );
    report.metric(
        "swaps_per_satisfied",
        ratio(sum(&|o| o.swaps_performed as f64), satisfied),
        "swaps/req",
    );
    report.metric(
        "messages_per_satisfied",
        ratio(sum(&|o| o.count_update_messages as f64), satisfied),
        "msgs/req",
    );
    report
}

/// Work counts of the simulated runs behind a trace.
#[derive(Default)]
struct Outcomes {
    swaps: u64,
    repair_swaps: u64,
    missed_swaps: u64,
    leftover_pairs: u64,
    stale_age_sum_s: f64,
    stale_age_runs: u64,
    sketch_runs: u64,
}

impl Outcomes {
    fn add(&mut self, r: &ExperimentResult) {
        let m = &r.metrics;
        self.swaps += m.swaps_performed;
        self.repair_swaps += m.repair_swaps();
        self.missed_swaps += m.missed_swaps;
        self.leftover_pairs += m.leftover_pairs;
        if let Some(age) = m.stale_row_age_mean_s {
            self.stale_age_sum_s += age;
            self.stale_age_runs += 1;
        }
        self.sketch_runs += u64::from(m.is_streamed());
    }
}

/// Host time of the campaign stages around the runner (traced mode).
#[derive(Default)]
struct CampaignStages {
    grid_expand_s: f64,
    runner_s: f64,
    scenario_s: Vec<f64>,
    cache_append_s: f64,
    cache_open_s: f64,
    warm_replay_s: f64,
    aggregate_s: f64,
    jsonl_s: f64,
}

/// Every per-layer metric. Layers a workload does not exercise read 0.
fn per_layer(
    report: &mut Report,
    trace: &Trace,
    outcomes: &Outcomes,
    stages: &CampaignStages,
    untraced_s: f64,
) {
    report.metric("setup.build_graph_s", trace.build_graph_s, "s");
    report.metric("setup.build_fabric_s", trace.build_fabric_s, "s");
    report.metric("setup.world_new_s", trace.world_new_s, "s");
    report.metric("campaign.grid_expand_s", stages.grid_expand_s, "s");
    report.metric("event.pops", trace.pops as f64, "count");
    report.metric("event.pop_s", trace.pop_s, "s");
    report.metric("event.queue_len_max", trace.queue_len_max as f64, "count");
    // Cutoff sweeps never fire on these workloads (no storage cutoff).
    for kind in KINDS.iter().filter(|&&k| k != "cutoff_sweep") {
        let k = trace.kind(kind);
        report.metric(format!("handle.{kind}.events"), k.events as f64, "count");
        report.metric(format!("handle.{kind}.self_s"), k.self_s, "s");
        report.metric(
            format!("handle.{kind}.ns_per_event"),
            ratio(k.self_s * 1e9, k.events as f64),
            "ns",
        );
    }
    let scans = trace.kind("swap_scan").events as f64;
    let balancing = outcomes.swaps.saturating_sub(outcomes.repair_swaps) as f64;
    report.metric("balancer.swaps_per_scan", ratio(balancing, scans), "ratio");
    report.metric("policy.repair_swaps", outcomes.repair_swaps as f64, "count");
    report.metric(
        "inventory.leftover_pairs",
        outcomes.leftover_pairs as f64,
        "count",
    );
    report.metric(
        "control.missed_per_execute",
        ratio(
            outcomes.missed_swaps as f64,
            trace.kind("swap_execute").events as f64,
        ),
        "ratio",
    );
    report.metric(
        "control.stale_row_age_mean_s",
        ratio(outcomes.stale_age_sum_s, outcomes.stale_age_runs as f64),
        "s",
    );
    report.metric("metrics.sketch", outcomes.sketch_runs as f64, "count");
    report.metric("metrics.finish_s", trace.finish_s, "s");
    let scenario_s = if stages.scenario_s.is_empty() {
        vec![0.0]
    } else {
        stages.scenario_s.clone()
    };
    report.metric("campaign.runner_s", stages.runner_s, "s");
    report.metric("campaign.scenario_s_p50", median(&scenario_s), "s");
    report.metric(
        "campaign.scenario_s_max",
        scenario_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    report.metric(
        "campaign.runner_efficiency",
        ratio(
            stages.scenario_s.iter().sum(),
            CAMPAIGN_THREADS as f64 * stages.runner_s,
        ),
        "ratio",
    );
    report.metric("campaign.cache_append_s", stages.cache_append_s, "s");
    report.metric("campaign.cache_open_s", stages.cache_open_s, "s");
    report.metric("campaign.warm_replay_s", stages.warm_replay_s, "s");
    report.metric("campaign.aggregate_s", stages.aggregate_s, "s");
    report.metric("campaign.jsonl_s", stages.jsonl_s, "s");
    report.metric(
        "trace.overhead_share",
        ratio(trace.total_s - untraced_s, trace.total_s),
        "ratio",
    );
}

/// Per-layer metrics of one open-loop workload: each run of one pass
/// untraced, then driven from outside and compared with it.
fn single_traced(runs: &[Run]) -> Report {
    let mut report = Report::default();
    let mut trace = Trace::default();
    let mut outcomes = Outcomes::default();
    let mut untraced_s = 0.0;
    for run in runs {
        match outside_in::drive_and_compare(run) {
            Ok((result, run_s, run_trace)) => {
                report.check(outside_in::check_accounting(&result));
                count_requests(&mut report, &result);
                outcomes.add(&result);
                trace.merge(&run_trace);
                untraced_s += run_s;
            }
            Err(e) => report.errors.push(e),
        }
    }
    per_layer(
        &mut report,
        &trace,
        &outcomes,
        &CampaignStages::default(),
        untraced_s,
    );
    report
}

/// Per-layer metrics of the campaign: the threaded runner untraced, every
/// scenario untraced and driven from outside, then the report and cache
/// stages, with the cold report compared against a warm replay's.
fn campaign_traced(grid: &ScenarioGrid, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut stages = CampaignStages {
        grid_expand_s: median(&sample_for(setup_budget(seconds), MIN_SETUPS, || {
            grid_expansion_s(grid)
        })),
        ..CampaignStages::default()
    };
    let runner = RunnerConfig::with_threads(CAMPAIGN_THREADS);

    let t = Instant::now();
    let cold = run_campaign(grid, &runner);
    stages.runner_s = t.elapsed().as_secs_f64();

    let mut trace = Trace::default();
    let mut outcomes = Outcomes::default();
    let mut untraced_s = 0.0;
    for (scenario, row) in grid.scenarios().zip(&cold.outcomes) {
        match outside_in::drive_and_compare(&Run::streamed(scenario.config)) {
            Ok((result, scenario_s, scenario_trace)) => {
                report.check(outside_in::check_accounting(&result));
                let m = &result.metrics;
                if (
                    row.satisfied_requests,
                    row.arrived_requests,
                    row.swaps_performed,
                ) != (
                    result.satisfied_requests,
                    m.arrived_requests,
                    m.swaps_performed,
                ) {
                    report.errors.push(format!(
                        "scenario {}: runner outcome differs from a serial run",
                        scenario.id
                    ));
                }
                count_requests(&mut report, &result);
                outcomes.add(&result);
                trace.merge(&scenario_trace);
                stages.scenario_s.push(scenario_s);
                untraced_s += scenario_s;
            }
            Err(e) => report.errors.push(e),
        }
    }

    let t = Instant::now();
    let cold_report = aggregate(grid, &cold);
    stages.aggregate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cold_jsonl = to_jsonl_string(&cold_report);
    stages.jsonl_s = t.elapsed().as_secs_f64();

    match replay_through_cache(grid, &runner, &cold, &mut stages) {
        Ok(warm_jsonl) if warm_jsonl == cold_jsonl => {}
        Ok(_) => report
            .errors
            .push("warm-replay report differs from the cold report".to_string()),
        Err(e) => report.errors.push(format!("cache replay: {e}")),
    }
    per_layer(&mut report, &trace, &outcomes, &stages, untraced_s);
    report
}

/// Append the cold outcomes to a fresh cache, reopen it, replay the grid
/// from it without simulating, and return the replayed report.
fn replay_through_cache(
    grid: &ScenarioGrid,
    runner: &RunnerConfig,
    cold: &CampaignResult,
    stages: &mut CampaignStages,
) -> std::io::Result<String> {
    let dir = Path::new(CACHE_DIR);
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    let result = (|| {
        let mut cache = OutcomeCache::open(dir, grid)?;
        let t = Instant::now();
        cache.append(&cold.outcomes)?;
        stages.cache_append_s = t.elapsed().as_secs_f64();
        drop(cache);

        let t = Instant::now();
        let mut cache = OutcomeCache::open(dir, grid)?;
        stages.cache_open_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let warm = run_campaign_cached(grid, runner, &mut cache, |_, _| {})?;
        stages.warm_replay_s = t.elapsed().as_secs_f64();
        if warm.simulated != 0 {
            return Err(std::io::Error::other(format!(
                "warm replay simulated {} scenarios",
                warm.simulated
            )));
        }
        Ok(to_jsonl_string(&aggregate(grid, &warm)))
    })();
    std::fs::remove_dir_all(dir.parent().expect("cache dir has a parent"))?;
    result
}

/// The commit of a git checkout in the working directory, read from
/// `.git` without running git; `unknown` elsewhere.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(reference) {
        return id.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it swaps in another implementation");
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# nproc={nproc} commit={} rustc={}",
        git_commit(),
        rustc_version()
    );

    let report = match (args.workload, args.trace) {
        (Workload::CampaignMixed, false) => {
            campaign_untraced(&workloads::campaign_mixed(), args.seconds)
        }
        (Workload::CampaignMixed, true) => {
            campaign_traced(&workloads::campaign_mixed(), args.seconds)
        }
        (w, false) => single_untraced(&workloads::open_loop_pass(w, args.seed), args.seconds),
        (w, true) => single_traced(&workloads::open_loop_pass(w, args.seed)),
    };

    let mut report = report;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        report.errors.push(format!("{} is not finite", m.name));
        report.metrics.retain(|m| m.value.is_finite());
    }
    for m in &report.metrics {
        println!("# {:<34} {:>18.9} {}", m.name, m.value, m.unit);
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.to_json());
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
