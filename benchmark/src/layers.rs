//! Benchmark-owned instruments for the traced run: wrappers behind the
//! workspace's public traits (`TelemetrySink`, `MeasurementBackend`,
//! `PredictionEngine`) and direct probes of public layer functions.
//! None of them is installed in an untraced run.

use crate::stats::Samples;
use kc_core::{
    KernelId, Measurement, MeasurementBackend, MeasurementKey, TelemetryEvent, TelemetrySink,
};
use kc_experiments::{AnalysisSpec, Campaign, CampaignEngine};
use kc_machine::{Cluster, MachineConfig};
use kc_npb::{ExecConfig, NpbApp, NpbExecutor, RankState};
use kc_prophesy::CellBackend;
use kc_serve::{PredictRequest, PredictionEngine, PredictionReport};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One executed cell as the sink saw it: when the scheduler worker
/// picked it up and how long the simulation ran.
#[derive(Clone, Copy, Debug)]
pub struct CellSpan {
    pub started: Instant,
    pub exec_secs: f64,
}

#[derive(Default)]
struct SinkState {
    /// `(key, worker)` → when the request entered the provider.
    open: HashMap<(String, String), Instant>,
    cells: Vec<CellSpan>,
}

/// Counts every telemetry event and keeps the spans of executed cells.
#[derive(Default)]
pub struct RecordingSink {
    events: AtomicU64,
    state: Mutex<SinkState>,
}

impl RecordingSink {
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// Executed cells recorded so far.
    pub fn cells(&self) -> Vec<CellSpan> {
        self.state.lock().unwrap().cells.clone()
    }
}

impl TelemetrySink for RecordingSink {
    fn record(&self, event: TelemetryEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        match event {
            TelemetryEvent::CellStarted { key, worker } => {
                self.state.lock().unwrap().open.insert((key, worker), now);
            }
            TelemetryEvent::CellExecuted {
                key,
                duration_secs,
                worker,
            } => {
                let mut st = self.state.lock().unwrap();
                let started = st
                    .open
                    .remove(&(key, worker))
                    .unwrap_or(now - std::time::Duration::from_secs_f64(duration_secs));
                st.cells.push(CellSpan {
                    started,
                    exec_secs: duration_secs,
                });
            }
            _ => {}
        }
    }
}

/// Queue wait of each cell: from the prefetch that submitted it to a
/// scheduler worker picking it up.
pub fn queue_waits_ms(cells: &[CellSpan], submitted: Instant) -> Vec<f64> {
    cells
        .iter()
        .map(|c| c.started.saturating_duration_since(submitted).as_secs_f64() * 1e3)
        .collect()
}

/// Times every load and store a campaign makes against its cell store.
pub struct TimedBackend {
    inner: Arc<dyn CellBackend>,
    gets_us: Mutex<Vec<f64>>,
    appends_us: Mutex<Vec<f64>>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn CellBackend>) -> Self {
        Self {
            inner,
            gets_us: Mutex::default(),
            appends_us: Mutex::default(),
        }
    }

    pub fn gets_us(&self) -> Samples {
        Samples::new(self.gets_us.lock().unwrap().clone())
    }

    pub fn appends_us(&self) -> Samples {
        Samples::new(self.appends_us.lock().unwrap().clone())
    }
}

impl MeasurementBackend for TimedBackend {
    fn load(&self, key: &MeasurementKey) -> Option<Measurement> {
        let t = Instant::now();
        let out = self.inner.load(key);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.gets_us.lock().unwrap().push(us);
        out
    }

    fn store(&self, key: &MeasurementKey, m: &Measurement) {
        let t = Instant::now();
        self.inner.store(key, m);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.appends_us.lock().unwrap().push(us);
    }
}

/// One engine call as the wrapper saw it.
#[derive(Clone, Debug)]
pub struct BatchSpan {
    pub secs: f64,
    pub ids: Vec<u64>,
}

/// Times each `predict_batch` call of the wrapped engine.
pub struct TimedEngine {
    inner: CampaignEngine,
    batches: Mutex<Vec<BatchSpan>>,
}

impl TimedEngine {
    pub fn new(inner: CampaignEngine) -> Self {
        Self {
            inner,
            batches: Mutex::default(),
        }
    }

    pub fn batches(&self) -> Vec<BatchSpan> {
        self.batches.lock().unwrap().clone()
    }
}

impl PredictionEngine for TimedEngine {
    fn predict_batch(&self, batch: &[PredictRequest]) -> Vec<Result<PredictionReport, String>> {
        let started = Instant::now();
        let out = self.inner.predict_batch(batch);
        self.batches.lock().unwrap().push(BatchSpan {
            secs: started.elapsed().as_secs_f64(),
            ids: batch.iter().map(|r| r.id).collect(),
        });
        out
    }
}

/// Mean microseconds per `Campaign::analysis` call for already-cached
/// specs (cache lookups of the spec's cells plus the assembly).
pub fn analysis_us(campaign: &Campaign, specs: &[AnalysisSpec]) -> f64 {
    let rounds = 20;
    let t = Instant::now();
    for _ in 0..rounds {
        for spec in specs {
            campaign.analysis(spec).expect("cached analysis assembles");
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (rounds * specs.len()) as f64
}

/// Mean microseconds of one `Cluster::run` whose ranks each pass one
/// small message around a ring, at each rank count (median per count,
/// averaged over the counts).
pub fn dispatch_us(machine: &MachineConfig, rank_counts: &[usize]) -> f64 {
    let cluster = Cluster::new(machine.clone());
    let ring = |ctx: &mut kc_machine::RankCtx| {
        let (r, p) = (ctx.rank(), ctx.size());
        ctx.send((r + 1) % p, 7, vec![r as f64; 8]);
        ctx.recv((r + p - 1) % p, 7).data.len()
    };
    let per_count: Vec<f64> = rank_counts
        .iter()
        .map(|&p| {
            cluster.run(p, ring); // builds this thread's rank pool
            let runs: Vec<f64> = (0..40)
                .map(|_| {
                    let t = Instant::now();
                    cluster.run(p, ring);
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            crate::stats::median(&runs)
        })
        .collect();
    per_count.iter().sum::<f64>() / per_count.len() as f64
}

/// One measured cell replayed through `Cluster::run`.
pub struct ReplayCell {
    pub app: NpbApp,
    pub chain: Vec<usize>,
}

/// Work counts summed over a replayed sample of cells.
#[derive(Debug, Default)]
pub struct Replay {
    pub cells: usize,
    pub messages: u64,
    pub bytes: u64,
    pub flops: u64,
    pub lines: u64,
    pub l1_hits: u64,
    pub memory: u64,
    pub host_secs: f64,
    /// Cells whose replayed virtual time differed from
    /// `NpbExecutor::run_chain_raw` for the same chain.
    pub mismatches: usize,
}

/// Replay each cell's chain measurement with the public kernel API,
/// reading the per-rank work counters, and prove the replay ran the
/// same program: its virtual time must equal `run_chain_raw`'s bit
/// for bit.
pub fn replay(machine: &MachineConfig, sample: &[ReplayCell]) -> Replay {
    let cfg = ExecConfig::default();
    let cluster = Cluster::new(machine.clone());
    let mut out = Replay::default();
    for cell in sample {
        let app = cell.app;
        let spec = app.benchmark.spec();
        let kernels: Vec<_> = cell.chain.iter().map(|&k| spec.loop_kernels[k]).collect();
        let cold = cfg.cold_start.applies_to(kernels.len());
        let t = Instant::now();
        let run = cluster.run(app.procs, |ctx| {
            let mut st = RankState::new(
                app.benchmark,
                app.physics(),
                app.problem().dims(),
                app.grid(),
                ctx,
                cfg.mode.numeric(),
            );
            for k in &spec.init {
                (k.run)(&mut st, ctx, cfg.mode);
            }
            ctx.barrier();
            let pass = |ctx: &mut kc_machine::RankCtx, st: &mut RankState| {
                if cold {
                    ctx.flush_caches();
                }
                for k in &kernels {
                    (k.run)(st, ctx, cfg.mode);
                }
                if cfg.barrier_per_iteration {
                    ctx.barrier();
                }
            };
            for _ in 0..cfg.warmup_iters {
                pass(ctx, &mut st);
            }
            ctx.barrier();
            let t0 = ctx.now();
            for _ in 0..cfg.timed_iters {
                pass(ctx, &mut st);
            }
            ctx.barrier();
            let elapsed = ctx.now() - t0;
            st.recycle();
            elapsed
        });
        out.host_secs += t.elapsed().as_secs_f64();
        let chain: Vec<KernelId> = cell.chain.iter().map(|&k| KernelId(k as u32)).collect();
        let reference = NpbExecutor::new(app, machine.clone(), cfg).run_chain_raw(&chain);
        if run.results[0].to_bits() != reference.to_bits() {
            out.mismatches += 1;
        }
        out.cells += 1;
        out.messages += run.total_messages();
        out.bytes += run.total_bytes();
        out.flops += run.total_flops();
        for r in &run.reports {
            out.lines += r.cache.total();
            out.l1_hits += r.cache.hits_at(0);
            out.memory += r.cache.misses_to_memory();
        }
    }
    out
}

/// Mean microseconds per call of `f` over `items`, repeated until at
/// least 20 ms have been timed.
pub fn per_call_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t.elapsed().as_secs_f64() < 0.02 {
        for item in items {
            f(item);
        }
        calls += items.len();
    }
    t.elapsed().as_secs_f64() * 1e6 / calls as f64
}
