//! The three engine workloads. Each replays a pre-generated open-loop
//! trace as fast as the program goes, timing every slot step from the
//! benchmark side, and checks each replay's window fingerprint against
//! the pinned value in `pins.txt`.
//!
//! * `olive_plan` — OLIVE on Iris with a PLAN-VNE plan (the paper's path);
//! * `fullg_exact` — FULLG on Citta Studi (tree-DP plus the ILP fallback);
//! * `shard_span` — QUICKG per shard behind a `ShardCoordinator` at
//!   k = 4, loaded so that cross-shard spanning both grants and denies.
//!
//! The world (topology, application set, history, plan, partition) and
//! the online trace are fixed per workload ([`Kind::trace_seed`]), so
//! `--seed` changes nothing here.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vne_model::app::{shapes, AppSet, AppShape};
use vne_model::cost::RejectionPenalty;
use vne_model::policy::PlacementPolicy;
use vne_model::request::{Slot, SlotEvents};
use vne_model::shard::ShardedSubstrate;
use vne_model::substrate::SubstrateNetwork;
use vne_olive::aggregate::AggregateDemand;
use vne_olive::algorithm::OnlineAlgorithm;
use vne_olive::colgen::{solve_plan, PlanSolveStats};
use vne_olive::fullg::FullG;
use vne_olive::olive::{Olive, OliveConfig};
use vne_olive::plan::Plan;
use vne_shard::{ShardCoordinator, SpanningStats};
use vne_sim::engine::{EngineState, ReembedAll, RequestOutcome, RequestStatus, SimObserver};
use vne_sim::metrics::Summary;
use vne_sim::observe::{Tee, WindowSummary};
use vne_sim::runner::default_apps;
use vne_sim::scenario::{Scenario, ScenarioConfig};
use vne_topology::partition::{large_synthetic, GreedyEdgeCut, Partitioner};
use vne_topology::zoo;
use vne_workload::rng::SeededRng;
use vne_workload::tracegen::{self, ArrivalKind, TraceConfig};

use crate::measure::{
    check, median, peak_rss_mb, tail, weighted_tail, AlgCounts, CheckFailed, Metrics, Probe,
    SpanId, Timed, TimedIter, Tracer,
};
use crate::{Args, Outcome};

/// Replays a run makes at least, so the exact work counts of two
/// replays can be compared.
const MIN_REPS: usize = 2;

/// A set-up cheaper than this is repeated for this long before every
/// replay, so `setup_s` samples the whole run as the replays do,
/// rather than one moment of the host's speed.
const SETUP_BURST: Duration = Duration::from_millis(250);

/// Pinned window fingerprints: `workload 0x…` per line.
const PINS: &str = include_str!("../pins.txt");

/// The shard workload's world: nodes, shard count, horizon and the
/// utilization that makes home shards reject and spanning both grant
/// and deny.
const SHARD_NODES: usize = 1000;
const SHARD_K: usize = 4;
const SHARD_SLOTS: Slot = 160;
const SHARD_UTILIZATION: f64 = 1.6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    OlivePlan,
    FullgExact,
    ShardSpan,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OlivePlan => "olive_plan",
            Kind::FullgExact => "fullg_exact",
            Kind::ShardSpan => "shard_span",
        }
    }

    /// The RNG seed of the one online trace the workload replays,
    /// whatever `--seed` says: a different trace is a different
    /// workload, and its fingerprint is pinned.
    /// * `olive_plan` replays trace 1, the scenario's own online phase.
    ///   Sixteen traces drawn from the same distribution spread its
    ///   rejection rate by 10% (quartile distance over median).
    /// * `fullg_exact` replays the trace of the scenario it is named
    ///   after (seed 5). Its cost sits in a few slots whose ILP
    ///   fallbacks depend on the exact trace; six traces drawn from the
    ///   same distribution took 536–956 µs per arrival.
    /// * `shard_span` replays trace 42, `bench_shard`'s trace seed. Over
    ///   sixteen traces its rejection rate spread 13%.
    pub fn trace_seed(self) -> u64 {
        match self {
            Kind::OlivePlan => 1,
            Kind::FullgExact => 5,
            Kind::ShardSpan => 42,
        }
    }

    /// The pinned window fingerprint of the workload's full-size replay.
    fn pinned(self) -> Option<u64> {
        PINS.lines().find_map(|line| {
            let (w, fp) = line.split_once(' ')?;
            (w == self.name())
                .then(|| u64::from_str_radix(fp.trim().trim_start_matches("0x"), 16).ok())?
        })
    }
}

/// Time spent in the workload and planning layers while setting up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// Inside the history and online event iterators.
    pub gen: Duration,
    /// Inside `AggregateDemand::from_stream`, minus the history
    /// iterator's own time.
    pub fold: Duration,
    /// Inside `solve_plan`.
    pub solve: Duration,
}

/// Everything a replay needs; built once per setup.
struct World {
    substrate: SubstrateNetwork,
    apps: AppSet,
    policy: PlacementPolicy,
    penalty: RejectionPenalty,
    window: (Slot, Slot),
    events: Vec<SlotEvents>,
    plan: Option<(Plan, PlanSolveStats)>,
    olive: OliveConfig,
    sharded: Option<ShardedSubstrate>,
    layers: SetupLayers,
}

/// The online trace: the world's calibrated trace configuration (its
/// node popularity included) drawn with the trace seed's RNG.
fn online_events(
    substrate: &SubstrateNetwork,
    apps: &AppSet,
    tc: &TraceConfig,
    trace_seed: u64,
) -> (Vec<SlotEvents>, Duration) {
    let mut it = TimedIter::new(tracegen::stream(
        substrate,
        apps,
        tc,
        SeededRng::new(trace_seed).derive(2),
    ));
    let events: Vec<SlotEvents> = it.by_ref().collect();
    (events, it.spent)
}

/// Builds `scenario`'s OLIVE plan the way its registry does (streamed
/// history fold, then PLAN-VNE), timing the layers from outside.
pub fn build_plan(scenario: &Scenario, layers: &mut SetupLayers) -> (Plan, PlanSolveStats) {
    let config = &scenario.config;
    let mut estimator = config
        .estimator
        .build(config.history_slots, &config.aggregation);
    let mut history = TimedIter::new(scenario.history_events());
    let mut rng = SeededRng::new(config.seed).derive(3);
    let started = Instant::now();
    let aggregate = AggregateDemand::from_stream(&mut history, estimator.as_mut(), &mut rng);
    layers.fold += started.elapsed().saturating_sub(history.spent);
    layers.gen += history.spent;
    let started = Instant::now();
    let solved = solve_plan(
        &scenario.substrate,
        &scenario.apps,
        &scenario.policy,
        &aggregate,
        &scenario.plan_config(),
    );
    layers.solve += started.elapsed();
    solved
}

/// `scenario`'s online trace configuration, node popularity included,
/// so a trace drawn from it follows the history's distribution.
pub fn online_trace_config(scenario: &Scenario) -> TraceConfig {
    let config = &scenario.config;
    let mut tc =
        config
            .trace
            .at_utilization(config.utilization, &scenario.substrate, &scenario.apps);
    tc.slots = config.test_slots;
    tc.popularity_seed = config.seed.wrapping_mul(0x9e37_79b9).wrapping_add(7);
    tc
}

/// A scenario world: its plan (when asked) and an online trace.
fn scenario_world(scenario: &Scenario, trace_seed: u64, plan: bool) -> World {
    let config = &scenario.config;
    let mut layers = SetupLayers::default();
    let plan = plan.then(|| build_plan(scenario, &mut layers));
    let tc = online_trace_config(scenario);
    let (events, gen) = online_events(&scenario.substrate, &scenario.apps, &tc, trace_seed);
    layers.gen += gen;
    World {
        substrate: scenario.substrate.clone(),
        apps: scenario.apps.clone(),
        policy: scenario.policy.clone(),
        penalty: scenario.penalty(),
        window: config.measure_window,
        events,
        plan,
        olive: config.olive,
        sharded: None,
        layers,
    }
}

/// `bench_shard`'s two chain applications.
fn shard_apps() -> AppSet {
    let mut apps = AppSet::new();
    for (name, len) in [("chain2", 2), ("chain3", 3)] {
        apps.push(
            name,
            AppShape::Chain,
            shapes::uniform_chain(len, 10.0, 1.0).expect("chain shape"),
        )
        .expect("distinct app names");
    }
    apps
}

fn setup(kind: Kind, tiny: bool) -> World {
    let trace_seed = kind.trace_seed();
    match kind {
        Kind::OlivePlan => {
            let mut config = ScenarioConfig::paper(1.0).with_seed(1);
            if tiny {
                config.history_slots = 200;
                config.test_slots = 60;
                config.measure_window = (5, 55);
                config.aggregation.bootstrap_replicates = 10;
            } else {
                config.test_slots = 3000;
                config.measure_window = (100, 2900);
            }
            let scenario = Scenario::new(zoo::iris().expect("iris"), default_apps(1), config);
            scenario_world(&scenario, trace_seed, true)
        }
        Kind::FullgExact => {
            // `tests/pipeline.rs::tiny_config(1.0, 5)`.
            let mut config = ScenarioConfig::small(1.0).with_seed(5);
            config.history_slots = 200;
            config.test_slots = if tiny { 8 } else { 80 };
            config.measure_window = if tiny { (1, 7) } else { (10, 70) };
            config.aggregation.bootstrap_replicates = 20;
            let scenario = Scenario::new(
                zoo::citta_studi().expect("citta studi"),
                default_apps(5),
                config,
            );
            scenario_world(&scenario, trace_seed, false)
        }
        Kind::ShardSpan => {
            let (nodes, slots) = if tiny {
                (200, 12)
            } else {
                (SHARD_NODES, SHARD_SLOTS)
            };
            let substrate = large_synthetic(nodes, 7).expect("large synthetic world");
            let apps = shard_apps();
            let tc = TraceConfig {
                slots,
                mean_rate_per_node: 0.1,
                demand_mean: 1.0,
                demand_std: 0.2,
                duration_mean: 5.0,
                arrivals: ArrivalKind::Poisson,
                ..TraceConfig::default()
            }
            .at_utilization(SHARD_UTILIZATION, &substrate, &apps);
            let (events, gen) = online_events(&substrate, &apps, &tc, trace_seed);
            let assignment = GreedyEdgeCut { seed: 7 }
                .partition(&substrate, SHARD_K)
                .expect("partition");
            let sharded = ShardedSubstrate::new(&substrate, &assignment).expect("sharded view");
            World {
                penalty: RejectionPenalty::uniform(&apps, 1.0),
                window: (slots / 10, slots - slots / 10),
                substrate,
                apps,
                policy: PlacementPolicy::default(),
                events,
                plan: None,
                olive: OliveConfig::default(),
                sharded: Some(sharded),
                layers: SetupLayers {
                    gen,
                    ..SetupLayers::default()
                },
            }
        }
    }
}

/// Tallies per-arrival outcomes as the engine reports them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Outcomes {
    accepted: usize,
    rejected: usize,
    preempted: usize,
}

impl SimObserver for Outcomes {
    fn on_arrival(&mut self, outcome: &RequestOutcome) {
        match outcome.status {
            RequestStatus::Accepted => self.accepted += 1,
            _ => self.rejected += 1,
        }
    }

    fn on_preemption(&mut self, _outcome: &RequestOutcome) {
        self.preempted += 1;
    }
}

/// Exact work counts that must repeat across replays of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WorkCounts {
    fingerprint: u64,
    outcomes: Outcomes,
    alg: Option<AlgCounts>,
    spanning: Option<SpanningStats>,
    alg_calls: Option<(u64, u64)>,
}

/// One replay of the world's trace.
struct Rep {
    traced: bool,
    /// Timed around each `EngineState::step` / `ShardCoordinator::step`.
    timing: Timing,
    arrivals: usize,
    summary: Summary,
    counts: WorkCounts,
    probe: Option<Probe>,
}

fn build_alg(kind: Kind, world: &World) -> Box<dyn OnlineAlgorithm> {
    match kind {
        Kind::OlivePlan => {
            let (plan, _) = world.plan.as_ref().expect("olive_plan builds a plan");
            Box::new(Olive::new(
                world.substrate.clone(),
                world.apps.clone(),
                world.policy.clone(),
                plan.clone(),
                world.olive,
            ))
        }
        Kind::FullgExact => Box::new(FullG::new(
            world.substrate.clone(),
            world.apps.clone(),
            world.policy.clone(),
        )),
        Kind::ShardSpan => unreachable!("shard_span builds one algorithm per shard"),
    }
}

/// What one timed pass over a trace measured.
struct Timing {
    online: Duration,
    /// Σ of the per-slot step calls.
    step: Duration,
    /// `(step seconds, arrivals decided in the step)` per slot.
    steps: Vec<(f64, u64)>,
}

/// Feeds `events` to `step` one slot at a time, timing each call (and
/// recording a `span` per slot under `root`) from the benchmark side.
fn timed_pass(
    events: Vec<SlotEvents>,
    tracer: &Tracer,
    root: SpanId,
    span: &'static str,
    mut step: impl FnMut(SlotEvents),
) -> Timing {
    let mut t = Timing {
        online: Duration::ZERO,
        step: Duration::ZERO,
        steps: Vec::with_capacity(events.len()),
    };
    let started = Instant::now();
    for ev in events {
        let n = ev.arrivals.len() as u64;
        let id = tracer.begin(span, root, u64::from(ev.slot));
        tracer.set_current(id);
        let t0 = Instant::now();
        step(ev);
        let took = t0.elapsed();
        tracer.end(id);
        t.step += took;
        t.steps.push((took.as_secs_f64(), n));
    }
    t.online = started.elapsed();
    tracer.set_current(None);
    t
}

fn replay(kind: Kind, world: &World, tracer: &Tracer, rep_id: u64) -> Rep {
    let events = world.events.clone();
    let probe = tracer
        .enabled()
        .then(|| Arc::new(Mutex::new(Probe::default())));
    let mut window = WindowSummary::new(world.window, world.penalty.clone());
    let mut outcomes = Outcomes::default();
    let arrivals: usize = events.iter().map(|e| e.arrivals.len()).sum();
    let root = tracer.begin("rep", None, rep_id);

    let (timing, stats, alg, spanning) = if let Some(sharded) = &world.sharded {
        let apps = world.apps.clone();
        let mut primaries = BTreeSet::new();
        let mut coordinator = ShardCoordinator::new(sharded.clone(), |sid, local| {
            let inner: Box<dyn OnlineAlgorithm> = Box::new(Olive::quickg(
                local.clone(),
                apps.clone(),
                PlacementPolicy::default(),
            ));
            match &probe {
                // The coordinator builds each shard's primary first,
                // then its reserve-trial scratch instance.
                Some(p) if primaries.insert(sid) => Box::new(Timed::primary(inner, p, tracer)),
                Some(p) => Box::new(Timed::scratch(inner, p, tracer)),
                None => inner,
            }
        });
        let timing = timed_pass(events, tracer, root, "shard.step", |ev| {
            coordinator.step(ev, &mut Tee(&mut window, &mut outcomes));
        });
        let spanning = coordinator.spanning_stats();
        (timing, coordinator.stats(), None, Some(spanning))
    } else {
        let mut alg = build_alg(kind, world);
        if let Some(p) = &probe {
            alg = Box::new(Timed::primary(alg, p, tracer));
        }
        let mut state = EngineState::fresh();
        let timing = timed_pass(events, tracer, root, "engine.step", |ev| {
            let _ = state.step(
                &mut *alg,
                &world.substrate,
                ev,
                &mut Tee(&mut window, &mut outcomes),
                &mut ReembedAll,
            );
        });
        (timing, state.stats(), Some(AlgCounts::of(&*alg)), None)
    };
    tracer.end(root);
    let probe = probe.map(|p| std::mem::take(&mut *p.lock().expect("probe lock poisoned")));
    let summary = window.finish(&stats);
    let counts = WorkCounts {
        fingerprint: summary.fingerprint(),
        outcomes,
        alg: alg.or_else(|| probe.as_ref().map(Probe::total_counts)),
        spanning,
        alg_calls: probe.as_ref().map(|p| (p.calls, p.scratch_calls)),
    };
    Rep {
        traced: tracer.enabled(),
        timing,
        arrivals,
        summary,
        counts,
        probe,
    }
}

/// Correctness of one replay: every arrival decided once, the
/// algorithm's own counters agree with the engine's outcomes, the
/// window fingerprint matches its pin.
fn check_rep(kind: Kind, rep: &Rep, pin: Option<u64>) -> Result<(), CheckFailed> {
    let o = rep.counts.outcomes;
    check(o.accepted + o.rejected == rep.arrivals, || {
        format!(
            "{} arrivals but {} accepted + {} rejected outcomes",
            rep.arrivals, o.accepted, o.rejected
        )
    })?;
    check(rep.summary.arrivals > 0, || {
        "empty measurement window".into()
    })?;
    check(
        rep.summary.total_cost.is_finite() && rep.summary.total_cost > 0.0,
        || format!("bad total cost {}", rep.summary.total_cost),
    )?;
    if let Some(fp) = pin {
        check(rep.counts.fingerprint == fp, || {
            format!(
                "window fingerprint {:#018x} != pinned {fp:#018x}",
                rep.counts.fingerprint
            )
        })?;
    }
    if let Some(alg) = rep.counts.alg {
        match kind {
            Kind::FullgExact => {
                let f = alg.fullg;
                // arrivals = dp_solved + dp_repaired + ilp_accepts + rejected
                let decided = f.dp_solved + f.dp_repaired + f.rejected;
                check(decided <= rep.arrivals, || {
                    format!("FULLG counts {f:?} exceed arrivals")
                })?;
                let ilp_accepts = rep.arrivals - decided;
                check(ilp_accepts <= f.ilp_fallbacks, || {
                    format!(
                        "{ilp_accepts} ILP accepts from {} fallbacks",
                        f.ilp_fallbacks
                    )
                })?;
                check(f.rejected == o.rejected, || {
                    format!("FULLG rejected {} != engine {}", f.rejected, o.rejected)
                })?;
            }
            Kind::OlivePlan | Kind::ShardSpan => {
                let s = alg.olive;
                check(s.planned + s.borrowed + s.greedy == o.accepted, || {
                    format!("OLIVE counts {s:?} != {} engine accepts", o.accepted)
                })?;
                check(
                    s.rejected == o.rejected && s.preempted == o.preempted,
                    || format!("OLIVE counts {s:?} != engine outcomes {o:?}"),
                )?;
            }
        }
    }
    if let Some(span) = rep.counts.spanning {
        check(span.granted > 0 && span.denied > 0, || {
            format!("spanning must both grant and deny: {span:?}")
        })?;
        check(span.granted + span.denied == span.candidates, || {
            format!("spanning counters inconsistent: {span:?}")
        })?;
    }
    Ok(())
}

/// Times set-ups of one workload and checks that they agree.
struct Setups {
    kind: Kind,
    tiny: bool,
    secs: Vec<f64>,
    plan: Option<PlanSolveStats>,
}

impl Setups {
    fn one(&mut self) -> Result<World, CheckFailed> {
        let started = Instant::now();
        let world = setup(self.kind, self.tiny);
        self.secs.push(started.elapsed().as_secs_f64());
        if let Some((_, stats)) = &world.plan {
            let first = self.plan.get_or_insert_with(|| stats.clone());
            check(first == stats, || {
                format!("plan solve differs between setups: {first:?} vs {stats:?}")
            })?;
        }
        Ok(world)
    }

    /// Repeats a cheap set-up for [`SETUP_BURST`].
    fn burst(&mut self) -> Result<(), CheckFailed> {
        if median(&self.secs) >= SETUP_BURST.as_secs_f64() {
            return Ok(());
        }
        let started = Instant::now();
        while started.elapsed() < SETUP_BURST {
            self.one()?;
        }
        Ok(())
    }
}

/// Replays `kind`'s full-size trace once and prints its window
/// fingerprint as a `pins.txt` line.
pub fn print_fingerprint(kind: Kind) {
    let rep = replay(kind, &setup(kind, false), &Tracer::new(false), 0);
    println!("{} {:#018x}", kind.name(), rep.counts.fingerprint);
}

/// Runs one engine workload: set-ups, then replays until the
/// measurement time is used (at least two, so the exact work counts
/// can be compared), every replay checked.
pub fn run(kind: Kind, args: &Args, tracer: &Tracer) -> Result<Outcome, CheckFailed> {
    // Pins hold for the full-size workloads only; a tiny run still
    // checks every identity and replay-to-replay determinism.
    let pin = if args.tiny {
        None
    } else {
        Some(
            kind.pinned()
                .ok_or_else(|| CheckFailed(format!("no pinned fingerprint for {}", kind.name())))?,
        )
    };

    let mut setups = Setups {
        kind,
        tiny: args.tiny,
        secs: Vec::new(),
        plan: None,
    };
    let mut world = setups.one()?;
    for _ in 1..crate::SETUPS {
        world = setups.one()?;
    }
    // A traced run first replays once untraced: the gap to the traced
    // replays is the tracing overhead.
    let plain = Tracer::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    while reps.len() < MIN_REPS
        || started.elapsed().as_secs_f64() < args.seconds
        || (tracer.enabled() && reps.iter().filter(|r| r.traced).count() < MIN_REPS)
    {
        setups.burst()?;
        let traced = tracer.enabled() && !reps.is_empty();
        let rep = replay(
            kind,
            &world,
            if traced { tracer } else { &plain },
            reps.len() as u64,
        );
        check_rep(kind, &rep, pin)?;
        if let Some(first) = reps.first() {
            check(
                rep.counts.fingerprint == first.counts.fingerprint
                    && rep.counts.outcomes == first.counts.outcomes
                    && rep.counts.spanning == first.counts.spanning,
                || format!("replays disagree: {:?} vs {:?}", rep.counts, first.counts),
            )?;
        }
        if let Some(prev) = reps.iter().rev().find(|r| r.traced == rep.traced) {
            check(rep.counts == prev.counts, || {
                format!(
                    "exact work counts differ between replays: {:?} vs {:?}",
                    rep.counts, prev.counts
                )
            })?;
        }
        reps.push(rep);
        if reps.len() > 1000 {
            break;
        }
    }

    let measured: Vec<&Rep> = reps
        .iter()
        .filter(|r| r.traced == tracer.enabled())
        .collect();
    let attempted: usize = reps.iter().map(|r| r.arrivals).sum();
    let mut m = Metrics::default();
    let last = measured.last().expect("at least one measured replay");
    if tracer.enabled() {
        per_layer(kind, &world, &reps, &measured, &mut m);
    } else {
        let rate: Vec<f64> = measured
            .iter()
            .map(|r| r.arrivals as f64 / r.timing.online.as_secs_f64())
            .collect();
        let best = fastest_steps(&measured);
        let best_rate = last.arrivals as f64 / best.iter().map(|s| s.0).sum::<f64>();
        let best_tail = weighted_tail(&best);
        eprintln!(
            "{}: {} replays, {} arrivals each; latency samples per replay {} (tail = p{}); \
             decisions/s per replay {:.0?}, over the fastest step of each slot {:.0}",
            kind.name(),
            measured.len(),
            last.arrivals,
            best_tail.samples,
            best_tail.tail_pct,
            rate,
            best_rate
        );
        let setup = tail(&setups.secs);
        eprintln!(
            "{}: {} set-ups, median {:.6} s, p{} {:.6} s",
            kind.name(),
            setup.samples,
            setup.p50,
            setup.tail_pct,
            setup.tail
        );
        m.put("decisions_per_s", best_rate, "1/s");
        m.put("decision_p50_ms", best_tail.p50 * 1e3, "ms");
        m.put("decision_p99_ms", best_tail.tail * 1e3, "ms");
        m.put("setup_s", median(&setups.secs), "s");
        m.put("peak_rss_mb", peak_rss_mb(), "MiB");
        m.put("rejection_rate", last.summary.rejection_rate, "ratio");
        m.put("total_cost", last.summary.total_cost, "cost");
        // A replay is an open loop offered as fast as the program goes:
        // the highest rate it sustains is its decision rate.
        m.put("serve_max_rate_per_s", best_rate, "1/s");
    }
    Ok(Outcome {
        attempted,
        failed: 0,
        metrics: m,
    })
}

/// Each slot's fastest step over `reps`, with the arrivals it decided.
///
/// Replays of one run are the same input with the same outcome, so a
/// slot's steps differ only by what the host did meanwhile. On a
/// shared host that costs some replays 20–40% for seconds at a time,
/// and the median replay of a run reads the host's load as much as the
/// program; the fastest step of each slot reads the program.
fn fastest_steps(reps: &[&Rep]) -> Vec<(f64, u64)> {
    let mut best = reps[0].timing.steps.clone();
    for rep in &reps[1..] {
        for (b, s) in best.iter_mut().zip(&rep.timing.steps) {
            b.0 = b.0.min(s.0);
        }
    }
    best
}

/// The traced run's per-layer metrics.
fn per_layer(kind: Kind, world: &World, reps: &[Rep], traced: &[&Rep], m: &mut Metrics) {
    let secs = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    let last = traced.last().expect("a traced replay");
    let probe = last.probe.as_ref().expect("traced replays carry a probe");
    let alg = last.counts.alg.unwrap_or_default();
    let plan = world.plan.as_ref().map(|(_, s)| s.clone());
    let arrivals = last.arrivals as f64;

    m.put("workload.gen_s", world.layers.gen.as_secs_f64(), "s");
    m.put("workload.fold_s", world.layers.fold.as_secs_f64(), "s");
    m.put("plan.solve_s", world.layers.solve.as_secs_f64(), "s");
    m.put(
        "plan.rounds",
        plan.as_ref().map_or(0, |s| s.rounds) as f64,
        "count",
    );
    m.put(
        "plan.columns",
        plan.as_ref().map_or(0, |s| s.columns) as f64,
        "count",
    );
    m.put(
        "lp.simplex_iterations",
        plan.as_ref().map_or(0, |s| s.simplex_iterations) as f64,
        "count",
    );
    let f = alg.fullg;
    let ilp_accepts = if kind == Kind::FullgExact {
        last.arrivals - (f.dp_solved + f.dp_repaired + f.rejected)
    } else {
        0
    };
    m.put("lp.ilp_fallbacks", f.ilp_fallbacks as f64, "count");
    m.put("lp.ilp_accepts", ilp_accepts as f64, "count");
    m.put(
        "lp.ilp_yield",
        if f.ilp_fallbacks == 0 {
            0.0
        } else {
            ilp_accepts as f64 / f.ilp_fallbacks as f64
        },
        "ratio",
    );
    m.put("alg.dp_solved", f.dp_solved as f64, "count");
    m.put("alg.dp_repaired", f.dp_repaired as f64, "count");

    let busy = secs(&|r| r.probe.as_ref().map_or(0.0, |p| p.busy.as_secs_f64()));
    m.put("alg.busy_s", busy, "s");
    m.put("alg.us_per_arrival", busy / arrivals * 1e6, "us");
    let o = alg.olive;
    let rejected = if kind == Kind::FullgExact {
        f.rejected
    } else {
        o.rejected
    };
    m.put("alg.planned", o.planned as f64, "count");
    m.put("alg.borrowed", o.borrowed as f64, "count");
    m.put("alg.greedy", o.greedy as f64, "count");
    m.put("alg.rejected", rejected as f64, "count");
    m.put("alg.preempted", o.preempted as f64, "count");
    m.put("alg.plan_hit_ratio", o.planned as f64 / arrivals, "ratio");

    let sharded = world.sharded.is_some();
    let step = secs(&|r| r.timing.step.as_secs_f64());
    m.put("engine.step_s", if sharded { 0.0 } else { step }, "s");
    m.put(
        "engine.self_s",
        if sharded { 0.0 } else { step - busy },
        "s",
    );
    let span = last.counts.spanning.unwrap_or_default();
    m.put("shard.step_s", if sharded { step } else { 0.0 }, "s");
    m.put(
        "shard.alg_calls",
        if sharded {
            (probe.calls + probe.scratch_calls) as f64
        } else {
            0.0
        },
        "count",
    );
    m.put(
        "shard.alg_busy_s",
        if sharded {
            secs(&|r| {
                r.probe
                    .as_ref()
                    .map_or(0.0, |p| (p.busy + p.scratch_busy).as_secs_f64())
            })
        } else {
            0.0
        },
        "s",
    );
    m.put("shard.span_candidates", span.candidates as f64, "count");
    m.put("shard.span_attempts", span.attempts as f64, "count");
    m.put("shard.span_granted", span.granted as f64, "count");
    m.put("shard.span_denied", span.denied as f64, "count");
    m.put(
        "shard.span_yield",
        if span.attempts == 0 {
            0.0
        } else {
            span.granted as f64 / span.attempts as f64
        },
        "ratio",
    );
    let plain = reps
        .iter()
        .find(|r| !r.traced)
        .map_or(0.0, |r| r.timing.online.as_secs_f64());
    let traced_online = secs(&|r| r.timing.online.as_secs_f64());
    m.put(
        "trace.overhead_pct",
        if plain > 0.0 {
            (traced_online / plain - 1.0) * 100.0
        } else {
            0.0
        },
        "%",
    );
}
