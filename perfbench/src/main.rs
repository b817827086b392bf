//! The repository benchmark: end-to-end and per-layer numbers for four
//! workloads, driven only through the public API of the workspace
//! crates and timed from outside them. See `NOTES.md` for the workload
//! table and the metric map; `run.py` is the entry point that builds
//! this binary and records host facts.
//!
//! ```text
//! vne-perfbench --workload <olive_plan|fullg_exact|shard_span|serve_open>
//!               --seed N --seconds S --trace <0|1>
//!               [--tiny] [--print-fingerprint]
//! ```
//!
//! The last stdout line is the result object. A failed correctness or
//! determinism check prints `"correct": false` with no metrics and exits
//! with code 1.

mod engine;
mod measure;
mod serve;

use std::path::Path;
use std::process::ExitCode;

use measure::{Metrics, Tracer};

/// Every end-to-end metric with its unit (`--trace 0`).
const END_TO_END: &[(&str, &str)] = &[
    ("decisions_per_s", "1/s"),
    ("decision_p50_ms", "ms"),
    ("decision_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rejection_rate", "ratio"),
    ("total_cost", "cost"),
    ("serve_max_rate_per_s", "1/s"),
];

/// Every per-layer metric with its unit (`--trace 1`). A workload that
/// leaves a layer idle reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.fold_s", "s"),
    ("plan.solve_s", "s"),
    ("plan.rounds", "count"),
    ("plan.columns", "count"),
    ("lp.simplex_iterations", "count"),
    ("lp.ilp_fallbacks", "count"),
    ("lp.ilp_accepts", "count"),
    ("lp.ilp_yield", "ratio"),
    ("alg.dp_solved", "count"),
    ("alg.dp_repaired", "count"),
    ("alg.busy_s", "s"),
    ("alg.us_per_arrival", "us"),
    ("alg.planned", "count"),
    ("alg.borrowed", "count"),
    ("alg.greedy", "count"),
    ("alg.rejected", "count"),
    ("alg.preempted", "count"),
    ("alg.plan_hit_ratio", "ratio"),
    ("engine.step_s", "s"),
    ("engine.self_s", "s"),
    ("shard.step_s", "s"),
    ("shard.alg_calls", "count"),
    ("shard.alg_busy_s", "s"),
    ("shard.span_candidates", "count"),
    ("shard.span_attempts", "count"),
    ("shard.span_granted", "count"),
    ("shard.span_denied", "count"),
    ("shard.span_yield", "ratio"),
    ("serve.actor_submit_p50_ms", "ms"),
    ("serve.actor_submit_p99_ms", "ms"),
    ("serve.decisions_per_slot", "count"),
    ("serve.shed", "count"),
    ("serve.backlog_end", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Set-ups per run, at least; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Where a traced run writes its spans, relative to the repository root.
const TRACE_DIR: &str = "perfbench/out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Every workload at smoke-test size (seconds, no pinned fingerprints).
    pub tiny: bool,
    /// Print the workload's window fingerprint as a `pins.txt` line
    /// and stop (engine workloads only).
    pub print_fingerprint: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        print_fingerprint: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--tiny" => args.tiny = true,
            "--print-fingerprint" => args.print_fingerprint = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A workload's result before formatting.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
}

/// Orders the workload's metrics by the declared list, filling idle
/// layers with 0, and rejects anything undeclared or non-finite.
fn finish_metrics(
    declared: &[(&str, &'static str)],
    got: Metrics,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    for m in &got.0 {
        let Some((_, unit)) = declared.iter().find(|(n, _)| *n == m.name) else {
            return Err(format!("workload reported undeclared metric {}", m.name));
        };
        if *unit != m.unit {
            return Err(format!(
                "{} reported in {} but declared in {unit}",
                m.name, m.unit
            ));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not finite: {}", m.name, m.value));
        }
    }
    Ok(declared
        .iter()
        .map(|&(name, unit)| {
            let value = got
                .0
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            (name.to_string(), value, unit)
        })
        .collect())
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"pipeline_enabled\":{},\"profile\":\"{}\"}}",
        vne_sim::engine::pipeline_enabled(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vne-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let kind = match args.workload.as_str() {
        "olive_plan" => Some(engine::Kind::OlivePlan),
        "fullg_exact" => Some(engine::Kind::FullgExact),
        "shard_span" => Some(engine::Kind::ShardSpan),
        "serve_open" => None,
        other => {
            eprintln!("vne-perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if args.print_fingerprint {
        let Some(kind) = kind else {
            eprintln!("vne-perfbench: {} has no pinned fingerprint", args.workload);
            return ExitCode::from(2);
        };
        engine::print_fingerprint(kind);
        return ExitCode::SUCCESS;
    }
    println!("# host {}", host_line());
    let tracer = Tracer::new(args.trace);
    let result = match kind {
        Some(kind) => engine::run(kind, &args, &tracer),
        None => serve::run(&args, &tracer),
    };
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let outcome = result.map_err(|e| e.0).and_then(|o| {
        let metrics = finish_metrics(declared, o.metrics)?;
        Ok((o.attempted, o.failed, metrics))
    });
    match outcome {
        Ok((attempted, failed, metrics)) => {
            for (name, value, unit) in &metrics {
                println!("{name:<28} {value:>16.6} {unit}");
            }
            if tracer.enabled() {
                let path = Path::new(TRACE_DIR)
                    .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
                let header = format!(
                    "{{\"workload\":\"{}\",\"seed\":{},\"host\":{},\"host_env\":{},\"spans\":{}}}",
                    args.workload,
                    args.seed,
                    host_line(),
                    std::env::var("PERFBENCH_HOST").unwrap_or_else(|_| "null".into()),
                    tracer.len()
                );
                if let Err(e) = tracer.write(&path, &header) {
                    eprintln!("vne-perfbench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("spans written to {}", path.display());
            }
            let body: Vec<String> = metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
                })
                .collect();
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
                attempted.max(1),
                body.join(", ")
            );
            ExitCode::SUCCESS
        }
        Err(reason) => {
            eprintln!("vne-perfbench: {}: {reason}", args.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}
