//! Measurement plumbing shared by every workload: percentiles, peak
//! memory, the in-memory span tracer and the timing decorator that
//! wraps an [`OnlineAlgorithm`] from outside the program.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use vne_model::churn::EffectiveCapacities;
use vne_model::embedding::Footprint;
use vne_model::ids::RequestId;
use vne_model::load::LoadLedger;
use vne_model::request::{Request, Slot};
use vne_model::state::{StateBlob, StateError};
use vne_olive::algorithm::{OnlineAlgorithm, SlotOutcome};
use vne_olive::fullg::{FullG, FullGStats};
use vne_olive::olive::{Olive, OliveStats};

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A latency distribution reported as p50 and the highest of p99, p98,
/// p95, p90, p50 that has at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p50: f64,
    pub tail: f64,
    /// The percentile `tail` is (99 when the samples support it).
    pub tail_pct: u32,
    pub samples: usize,
}

/// Percentiles of weighted samples `(value, weight)`: each sample
/// counts `weight` times (an engine slot step decides `weight`
/// arrivals, and each of them waited that long).
pub fn weighted_tail(samples: &[(f64, u64)]) -> Tail {
    let mut v: Vec<(f64, u64)> = samples.iter().copied().filter(|s| s.1 > 0).collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = v.iter().map(|s| s.1).sum();
    let at = |q: f64| -> f64 {
        // The smallest value whose cumulative weight reaches q·total.
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for &(value, w) in &v {
            acc += w;
            if acc >= target {
                return value;
            }
        }
        v.last().map_or(0.0, |s| s.0)
    };
    let (tail_pct, tail) = supported_percentile(total as usize, at);
    Tail {
        p50: at(0.5),
        tail,
        tail_pct,
        samples: total as usize,
    }
}

/// Percentiles of unweighted samples.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let (tail_pct, tail) = supported_percentile(v.len(), |q| quantile_sorted(&v, q));
    Tail {
        p50: quantile_sorted(&v, 0.5),
        tail,
        tail_pct,
        samples: v.len(),
    }
}

fn supported_percentile(n: usize, at: impl Fn(f64) -> f64) -> (u32, f64) {
    for pct in [99u32, 98, 95, 90] {
        let beyond = n as f64 * (1.0 - f64::from(pct) / 100.0);
        if beyond >= 10.0 {
            return (pct, at(f64::from(pct) / 100.0));
        }
    }
    (50, at(0.5))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a named interval, the span that caused it, and
/// the slot or request id it belongs to.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    id: u64,
}

/// An in-memory span recorder; spans are written out once, at the end
/// of the run. A disabled tracer records nothing.
#[derive(Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Arc<Mutex<Vec<Span>>>>,
    /// The innermost span the benchmark has open around a call into the
    /// program (`usize::MAX` when none): the parent of spans recorded by
    /// decorators the program calls back into.
    current: Arc<AtomicUsize>,
}

/// A span handle: `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: enabled.then(|| Arc::new(Mutex::new(Vec::new()))),
            current: Arc::new(AtomicUsize::new(usize::MAX)),
        }
    }

    /// Marks `span` as the parent of decorator spans until the next call.
    pub fn set_current(&self, span: SpanId) {
        self.current
            .store(span.unwrap_or(usize::MAX), Ordering::Relaxed);
    }

    fn current(&self) -> SpanId {
        Some(self.current.load(Ordering::Relaxed)).filter(|&i| i != usize::MAX)
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Opens a span now.
    pub fn begin(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        let spans = self.spans.as_ref()?;
        let start = self.origin.elapsed();
        let mut spans = spans.lock().expect("tracer lock poisoned");
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, span: SpanId) {
        if let (Some(spans), Some(i)) = (&self.spans, span) {
            let end = self.origin.elapsed();
            spans.lock().expect("tracer lock poisoned")[i].end = end;
        }
    }

    /// Records a finished interval (for spans timed elsewhere, such as
    /// a request's due time to its reply).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        id: u64,
    ) {
        if let Some(spans) = &self.spans {
            let rel = |t: Instant| t.saturating_duration_since(self.origin);
            spans.lock().expect("tracer lock poisoned").push(Span {
                name,
                start: rel(start),
                end: rel(end),
                parent,
                id,
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("tracer lock poisoned").len())
    }

    /// Writes every span as one JSON line (`name`, `start_us`, `end_us`,
    /// `parent`, `id`) after a header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in spans.lock().expect("tracer lock poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"id\":{}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                parent,
                s.id
            )?;
        }
        out.flush()
    }
}

/// Exact work counts read from the algorithm's own stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgCounts {
    pub olive: OliveStats,
    pub fullg: FullGStats,
}

impl AlgCounts {
    /// The counts of a builtin algorithm seen through the trait object.
    pub fn of(alg: &dyn OnlineAlgorithm) -> Self {
        let any = alg.as_any();
        Self {
            olive: any
                .and_then(|a| a.downcast_ref::<Olive>())
                .map(Olive::stats)
                .unwrap_or_default(),
            fullg: any
                .and_then(|a| a.downcast_ref::<FullG>())
                .map(FullG::stats)
                .unwrap_or_default(),
        }
    }

    pub fn add(&mut self, o: &Self) {
        self.olive.planned += o.olive.planned;
        self.olive.borrowed += o.olive.borrowed;
        self.olive.greedy += o.olive.greedy;
        self.olive.rejected += o.olive.rejected;
        self.olive.preempted += o.olive.preempted;
        self.fullg.dp_solved += o.fullg.dp_solved;
        self.fullg.dp_repaired += o.fullg.dp_repaired;
        self.fullg.ilp_fallbacks += o.fullg.ilp_fallbacks;
        self.fullg.rejected += o.fullg.rejected;
    }
}

/// What a [`Timed`] decorator accumulates, shared with the benchmark.
#[derive(Debug, Default)]
pub struct Probe {
    /// Σ wall time inside `process_slot`, primary instances.
    pub busy: Duration,
    /// Σ wall time inside `process_slot`, reserve-trial scratch
    /// instances (sharded runs only).
    pub scratch_busy: Duration,
    /// `process_slot` calls on primary / scratch instances.
    pub calls: u64,
    pub scratch_calls: u64,
    /// Latest counts of each primary instance, by instance index.
    pub counts: Vec<AlgCounts>,
    /// Σ time the decorator adds around `process_slot`: its span,
    /// clock reads and probe update.
    pub overhead: Duration,
}

impl Probe {
    /// Σ of every primary instance's latest counts.
    pub fn total_counts(&self) -> AlgCounts {
        let mut total = AlgCounts::default();
        for c in &self.counts {
            total.add(c);
        }
        total
    }
}

/// A forwarding [`OnlineAlgorithm`] that times `process_slot` and
/// records an `alg.process_slot` span per call.
pub struct Timed {
    inner: Box<dyn OnlineAlgorithm>,
    probe: Arc<Mutex<Probe>>,
    tracer: Tracer,
    /// Index into [`Probe::counts`] for a primary; `None` for a scratch.
    primary: Option<usize>,
}

impl Timed {
    /// Wraps a primary instance.
    pub fn primary(
        inner: Box<dyn OnlineAlgorithm>,
        probe: &Arc<Mutex<Probe>>,
        tracer: &Tracer,
    ) -> Self {
        let index = {
            let mut p = probe.lock().expect("probe lock poisoned");
            p.counts.push(AlgCounts::default());
            p.counts.len() - 1
        };
        Self {
            inner,
            probe: Arc::clone(probe),
            tracer: tracer.clone(),
            primary: Some(index),
        }
    }

    /// Wraps a reserve-trial scratch instance.
    pub fn scratch(
        inner: Box<dyn OnlineAlgorithm>,
        probe: &Arc<Mutex<Probe>>,
        tracer: &Tracer,
    ) -> Self {
        Self {
            inner,
            probe: Arc::clone(probe),
            tracer: tracer.clone(),
            primary: None,
        }
    }
}

impl OnlineAlgorithm for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }

    fn process_slot(
        &mut self,
        t: Slot,
        departures: &[Request],
        arrivals: &[Request],
    ) -> SlotOutcome {
        let name = if self.primary.is_some() {
            "alg.process_slot"
        } else {
            "alg.trial_slot"
        };
        let entered = Instant::now();
        let span = self.tracer.begin(name, self.tracer.current(), u64::from(t));
        let started = Instant::now();
        let outcome = self.inner.process_slot(t, departures, arrivals);
        let took = started.elapsed();
        self.tracer.end(span);
        let mut p = self.probe.lock().expect("probe lock poisoned");
        match self.primary {
            Some(i) => {
                p.busy += took;
                p.calls += 1;
                p.counts[i] = AlgCounts::of(&*self.inner);
            }
            None => {
                p.scratch_busy += took;
                p.scratch_calls += 1;
            }
        }
        p.overhead += entered.elapsed().saturating_sub(took);
        outcome
    }

    fn loads(&self) -> &LoadLedger {
        self.inner.loads()
    }

    fn apply_churn(&mut self, effective: &EffectiveCapacities) {
        self.inner.apply_churn(effective);
    }

    fn footprint_of(&self, id: RequestId) -> Option<&Footprint> {
        self.inner.footprint_of(id)
    }

    fn snapshot_state(&self) -> Option<StateBlob> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, blob: &StateBlob) -> Result<(), StateError> {
        self.inner.restore_state(blob)
    }
}

/// An iterator adapter summing the wall time spent inside `next` — the
/// workload generator's own time, measured from outside.
pub struct TimedIter<I> {
    inner: I,
    pub spent: Duration,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I) -> Self {
        Self {
            inner,
            spent: Duration::ZERO,
        }
    }
}

impl<I: Iterator> Iterator for TimedIter<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let started = Instant::now();
        let item = self.inner.next();
        self.spent += started.elapsed();
        item
    }
}

/// A result line metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// A failed correctness or determinism check: the run yields no numbers.
#[derive(Debug)]
pub struct CheckFailed(pub String);

/// Fails the run with `what` unless `ok`.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), CheckFailed> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailed(what()))
    }
}
