//! `serve-warm`: an open-loop request stream over loopback TCP into an
//! in-process `kc_serve::Server` backed by a `CampaignEngine` on a
//! fresh sharded store, then a saturating run for its capacity.

use crate::harness::{
    build_campaign, drive, needed_cells, open_fresh_store, poisson, saturate, spec_key, Driven,
    Reference, ServeHarness, Slot, Traced, Workdir, JOBS,
};
use crate::layers::{
    self, queue_waits_ms, BatchSpan, CellSpan, RecordingSink, ReplayCell, TimedBackend,
};
use crate::stats::{self, Samples};
use crate::{Args, Report};
use kc_core::CacheStats;
use kc_experiments::{AnalysisSpec, Campaign, CampaignEngine, Runner};
use kc_loadgen::workload::{schedule, Frame, WorkloadConfig, COLD_SPECS, HOT_SPECS};
use kc_machine::MachineConfig;
use kc_npb::{Benchmark, Class, NpbApp};
use kc_prophesy::CellBackend;
use kc_serve::protocol::{encode_response, parse_request};
use kc_serve::{PredictRequest, PredictResponse, Status};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; the last one serves the window.
const SETUPS: usize = 15;

/// Requests per consecutive part the window's latency is taken over
/// (p90 of each part has ten samples beyond it), and the percentile
/// across parts that is reported: the quietest tenth of the window.
const PART: usize = 100;
const QUIET_PCT: f64 = 10.0;

/// Admission bound of the server (`kc_served`'s default).
const MAX_INFLIGHT: usize = 256;

/// Mean offered rate of the latency window, and the window's share of
/// the run.  The admission bound lets 256 requests queue, which at this
/// rate absorbs a 256 ms stall of the host.  On the shared two-core
/// host, 2000 rps runs refused requests while other guests took up to
/// half the CPU time.
const WARM_RPS: f64 = 1000.0;
const WARM_WINDOW_SHARE: f64 = 0.25;

/// Capacity: this many parts sharing this share of the run, each on a
/// fresh campaign and server over the warm store, with this many
/// requests kept in flight (two full engine batches, well within the
/// admission bound).
const CAPACITY_PARTS: usize = 10;
const CAPACITY_SHARE: f64 = 0.5;
const OUTSTANDING: usize = 128;
/// Requests drawn per second of a capacity part: more than the server
/// answers.
const CAPACITY_RPS: f64 = 50_000.0;

fn request(
    benchmark: &str,
    class: &str,
    procs: usize,
    chain_len: usize,
    fine: bool,
) -> PredictRequest {
    PredictRequest {
        id: 0,
        benchmark: benchmark.to_string(),
        class: class.to_string(),
        procs,
        chain_len,
        fine,
        deadline_ms: None,
    }
}

/// The hot set: every spec `kc-loadgen` draws its traffic from.
fn hot_set() -> Vec<PredictRequest> {
    HOT_SPECS
        .iter()
        .chain(COLD_SPECS)
        .map(|&(b, c, p, len)| request(b, c, p, len, false))
        .collect()
}

/// `n` requests in `kc-loadgen`'s default mix, drawn by `seed`: nine in
/// ten ask for its one hot spec, the rest spread over its cold specs.
fn loadgen_mix(n: usize, seed: u64) -> Vec<PredictRequest> {
    let cfg = WorkloadConfig {
        rps: n as f64,
        duration: Duration::from_secs(1),
        seed,
        ..WorkloadConfig::default()
    };
    schedule(&cfg)
        .into_iter()
        .map(|slot| match slot.frame {
            Frame::Request(r) => r,
            Frame::Malformed(_) => unreachable!("the default mix has no fault frames"),
        })
        .collect()
}

/// Requests for analysis specs (campaign-default machine).
pub fn requests_for(specs: &[AnalysisSpec]) -> Vec<PredictRequest> {
    specs
        .iter()
        .map(|s| {
            request(
                s.benchmark.name(),
                &s.class.letter().to_string(),
                s.procs,
                s.chain_len,
                s.fine,
            )
        })
        .collect()
}

fn specs_of(engine: &CampaignEngine, requests: &[PredictRequest]) -> Vec<AnalysisSpec> {
    requests
        .iter()
        .map(|r| engine.validate(r).expect("benchmark requests are valid"))
        .collect()
}

/// A served campaign after its set-up.
struct Served {
    store: Arc<dyn CellBackend>,
    campaign: Arc<Campaign>,
    harness: ServeHarness,
    setup_secs: f64,
    prefetch_start: Instant,
    prefetch_secs: f64,
    assemble_ms: f64,
}

/// Campaign, server and warm-up over `store`: every hot spec is
/// resolved so the window starts with the hot set cached.
fn serve_on(
    store: Arc<dyn CellBackend>,
    traced: Option<&Traced>,
    hot: &[PredictRequest],
) -> Served {
    let t = Instant::now();
    let campaign = build_campaign(Runner::default(), &store, traced);
    let specs = specs_of(&CampaignEngine::new(campaign.clone()), hot);
    let prefetch_start = Instant::now();
    campaign.prefetch(&specs).expect("warm-up prefetch");
    let prefetch_secs = prefetch_start.elapsed().as_secs_f64();
    let ta = Instant::now();
    for spec in &specs {
        campaign.analysis(spec).expect("warm-up assembly");
    }
    let assemble_ms = ta.elapsed().as_secs_f64() * 1e3;
    let harness = ServeHarness::start(&campaign, traced, MAX_INFLIGHT);
    Served {
        store,
        campaign,
        harness,
        setup_secs: t.elapsed().as_secs_f64(),
        prefetch_start,
        prefetch_secs,
        assemble_ms,
    }
}

/// The set-up: a fresh store, then [`serve_on`].  A traced set-up
/// wraps the store and attaches the recording sink; it also returns
/// how long the store took to open.
fn setup(work: &mut Workdir, trace: bool, hot: &[PredictRequest]) -> (Served, Option<Traced>, f64) {
    let t = Instant::now();
    let store = open_fresh_store(&work.fresh());
    let open_ms = t.elapsed().as_secs_f64() * 1e3;
    let traced = trace.then(|| Traced {
        sink: Arc::new(RecordingSink::default()),
        backend: Arc::new(TimedBackend::new(Arc::clone(&store))),
    });
    let mut served = serve_on(store, traced.as_ref(), hot);
    served.setup_secs = t.elapsed().as_secs_f64();
    (served, traced, open_ms)
}

/// The window's schedule: `kc-loadgen`'s request mix at Poisson
/// arrival times, both drawn by seed.  `kc-loadgen` paces its requests
/// evenly; random gaps keep the latencies from locking onto a fixed
/// send grid.
fn window_slots(seconds: f64, seed: u64) -> Vec<Slot> {
    let secs = seconds * WARM_WINDOW_SHARE;
    // a margin over the mean count, for the Poisson draw's spread
    let mix = loadgen_mix((WARM_RPS * secs * 1.2) as usize + 100, seed);
    poisson(WARM_RPS, secs, 1, seed, |i| {
        mix[i as usize % mix.len()].clone()
    })
}

/// Parsed responses of a driven window.
fn parse_responses(driven: &Driven) -> Vec<Option<PredictResponse>> {
    driven
        .responses
        .iter()
        .map(|l| serde_json::from_str::<PredictResponse>(l).ok())
        .collect()
}

/// What the capacity parts measured.
struct Capacity {
    /// Completed requests per CPU-second of the process, per part.
    cpu_rates: Vec<f64>,
    /// Completed requests per wall second, per part.
    wall_rates: Vec<f64>,
    /// Every request sent, with its response line.
    sent: Vec<(PredictRequest, String)>,
    /// Part campaigns that executed a cell although the store held
    /// them all.
    violations: u64,
}

/// The server's capacity: [`CAPACITY_PARTS`] saturating parts, each on
/// a fresh campaign and server over the warm store, so no part inherits
/// another's memory.
fn capacity(
    store: &Arc<dyn CellBackend>,
    seconds: f64,
    seed: u64,
    hot: &[PredictRequest],
    first_id: u64,
) -> Capacity {
    let part_secs = seconds * CAPACITY_SHARE / CAPACITY_PARTS as f64;
    let mut next_id = first_id;
    let mut cpu_rates = Vec::with_capacity(CAPACITY_PARTS);
    let mut wall_rates = Vec::with_capacity(CAPACITY_PARTS);
    let mut sent = Vec::new();
    let mut violations = 0;
    for part in 0..CAPACITY_PARTS {
        let n = (CAPACITY_RPS * part_secs) as usize + OUTSTANDING;
        let mut requests = loadgen_mix(n, seed ^ (0xCA9A_C17E + part as u64));
        for r in &mut requests {
            r.id = next_id;
            next_id += 1;
        }
        let served = serve_on(Arc::clone(store), None, hot);
        let (t, cpu) = (Instant::now(), stats::cpu_secs());
        let responses = saturate(served.harness.addr, &requests, OUTSTANDING, part_secs)
            .expect("capacity part");
        let n = responses.len() as f64;
        cpu_rates.push(n / (stats::cpu_secs() - cpu));
        wall_rates.push(n / t.elapsed().as_secs_f64());
        violations += u64::from(served.campaign.cache_stats().executed != 0);
        sent.extend(requests.into_iter().zip(responses));
    }
    Capacity {
        cpu_rates,
        wall_rates,
        sent,
        violations,
    }
}

/// The exactly-once contract: the campaign executed exactly the
/// distinct cells of the hot set, which every request draws from.
/// Returns the number of violations (0 or 1).
fn exactly_once(report: &mut Report, campaign: &Arc<Campaign>, hot: &[PredictRequest]) -> u64 {
    let needed = needed_cells(
        campaign,
        &specs_of(&CampaignEngine::new(campaign.clone()), hot),
    );
    let executed = campaign.cache_stats().executed as usize;
    if executed == needed {
        return 0;
    }
    report.problem(format!(
        "executed {executed} cells, {needed} distinct cells needed"
    ));
    report.failed += 1;
    1
}

/// Check every response against a fresh reference engine: each
/// request must be answered `ok`, with exactly the reference's report.
/// Returns the number of wrong answers.
fn answers(report: &mut Report, hot: &[PredictRequest], sent: &[(PredictRequest, String)]) -> u64 {
    let reference = Reference::build(Runner::default(), hot);
    let mut wrong = 0;
    let mut failed = 0;
    for (request, line) in sent {
        match serde_json::from_str::<PredictResponse>(line).map(|r| r.status) {
            Ok(Status::Ok) => wrong += u64::from(!reference.matches(request, line)),
            _ => failed += 1,
        }
    }
    if wrong > 0 {
        report.problem(format!(
            "{wrong} ok response(s) differ from a fresh CampaignEngine's report"
        ));
    }
    if failed > 0 {
        report.problem(format!("{failed} request(s) not answered ok"));
    }
    report.attempted += sent.len() as u64;
    report.failed += wrong + failed;
    wrong
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let hot = hot_set();
    let mut work = Workdir::new().expect("scratch directory");
    if args.trace {
        traced(args, &mut report, &mut work, &hot);
        return report;
    }

    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for i in 0..SETUPS {
        let (s, _, _) = setup(&mut work, false, &hot);
        setups.push(s.setup_secs);
        if i + 1 == SETUPS {
            served = Some(s);
        } else {
            drop(s);
            work.remove_last();
        }
    }
    let served = served.expect("at least one set-up");
    let slots = window_slots(args.seconds, args.seed);
    let rss0 = stats::current_rss_kb();
    let driven = drive(served.harness.addr, &slots).expect("window");
    let rss1 = stats::current_rss_kb();
    // the serving peak, before the capacity parts
    let peak_kb = stats::peak_rss_kb();
    exactly_once(&mut report, &served.campaign, &hot);
    // the capacity parts start their own campaigns over the same warm store
    let store = Arc::clone(&served.store);
    drop(served);
    let Capacity {
        cpu_rates,
        wall_rates,
        mut sent,
        violations,
    } = capacity(
        &store,
        args.seconds,
        args.seed,
        &hot,
        slots.len() as u64 + 1,
    );
    if violations > 0 {
        report.problem(format!(
            "{violations} capacity part(s) executed cells the store already held"
        ));
        report.failed += violations;
    }
    let responses = parse_responses(&driven);
    let capacity_requests = sent.len();
    sent.extend(
        slots
            .iter()
            .map(|s| s.request.clone())
            .zip(driven.responses.iter().cloned()),
    );
    answers(&mut report, &hot, &sent);

    let (p50, parts) = stats::per_part(&driven.latency_ms, PART, QUIET_PCT, Samples::p50);
    let (tail, _) = stats::per_part(&driven.latency_ms, PART, QUIET_PCT, |s| s.tail().value);
    let part_tail =
        Samples::new(driven.latency_ms[..PART.min(driven.latency_ms.len())].to_vec()).tail();
    report.note(format!(
        "{} requests at {} rps over {:.1} s; latency from each request's due time; \
         p50 and tail p{} ({} beyond) taken per part of {PART} requests, reported at the \
         p{QUIET_PCT} of {parts} parts: p50 {:.3} ms, tail {:.3} ms; whole-window p50 {:.3} ms; \
         generator late p50 {:.3} ms; RSS grew {:.0} KB over the window",
        slots.len(),
        WARM_RPS,
        driven.wall_secs,
        part_tail.pct,
        part_tail.beyond,
        p50,
        tail,
        stats::median(&driven.latency_ms),
        stats::median(&driven.late_ms),
        rss1 - rss0,
    ));
    report.note(format!(
        "capacity: {capacity_requests} requests with {OUTSTANDING} in flight, \
         {CAPACITY_PARTS} parts at {cpu_rates:.0?} requests per CPU-second, \
         {wall_rates:.0?} requests per wall second"
    ));
    report.metric("setup_s", stats::median(&setups), "s");
    report.metric("throughput_per_cpu_s", stats::median(&cpu_rates), "1/s");
    report.metric("peak_rss_mb", peak_kb / 1024.0, "MB");
    report.metric("predict_err_pct", spec_err_pct(&slots, &responses), "%");
    report
}

/// Mean |`coupled_rel_err_pct`| over the distinct specs answered `ok`,
/// each counted once, so the figure does not depend on the seed's mix.
fn spec_err_pct(slots: &[Slot], responses: &[Option<PredictResponse>]) -> f64 {
    let per_spec: BTreeMap<_, f64> = slots
        .iter()
        .zip(responses)
        .filter_map(|(slot, r)| {
            let result = r.as_ref()?.result.as_ref()?;
            Some((spec_key(&slot.request), result.coupled_rel_err_pct.abs()))
        })
        .collect();
    per_spec.values().sum::<f64>() / per_spec.len().max(1) as f64
}

fn traced(args: &Args, report: &mut Report, work: &mut Workdir, hot: &[PredictRequest]) {
    let slots = window_slots(args.seconds, args.seed);

    // the untraced reference for the tracing overhead
    let (plain, _, _) = setup(work, false, hot);
    let plain_lat = Samples::new(
        drive(plain.harness.addr, &slots)
            .expect("window")
            .latency_ms,
    )
    .p50();
    drop(plain);
    work.remove_last();

    let (served, traced, open_ms) = setup(work, true, hot);
    let traced = traced.expect("traced set-up");
    let sink = traced.sink.clone();
    // the window executes no cell: the cell-level figures are the set-up's
    let cells = sink.cells();
    let events0 = sink.events();
    let rss0 = stats::current_rss_kb();
    let driven = drive(served.harness.addr, &slots).expect("window");
    let rss1 = stats::current_rss_kb();
    let events = sink.events() - events0;
    let batches = served
        .harness
        .timed
        .as_ref()
        .expect("timed engine")
        .batches();

    let sent: Vec<(PredictRequest, String)> = slots
        .iter()
        .map(|s| s.request.clone())
        .zip(driven.responses.iter().cloned())
        .collect();
    let violations = exactly_once(report, &served.campaign, hot);
    let wrong = answers(report, hot, &sent);
    let cache = served.campaign.cache_stats();
    let n = slots.len() as f64;

    report.metric("campaign.prefetch_s", served.prefetch_secs, "s");
    report.metric("campaign.assemble_ms", served.assemble_ms, "ms");
    let busy: f64 = cells.iter().map(|c| c.exec_secs).sum();
    report.metric(
        "scheduler.busy_ratio",
        busy / (JOBS as f64 * served.prefetch_secs),
        "ratio",
    );
    let waits = Samples::new(queue_waits_ms(&cells, served.prefetch_start));
    report.metric("scheduler.queue_wait_ms_p50", waits.p50(), "ms");
    report.metric("scheduler.queue_wait_ms_tail", waits.tail().value, "ms");
    provider_metrics(report, &cache);
    report.metric("telemetry.events_per_request", events as f64 / n, "count");
    report.metric("mem.rss_kb_per_request", (rss1 - rss0) / n, "KB");
    cell_metrics(report, &cells);
    let tf = Instant::now();
    served.store.flush().expect("store flush");
    let flush_ms = tf.elapsed().as_secs_f64() * 1e3;
    store_metrics(report, &traced.backend, open_ms, flush_ms);
    serve_metrics(report, &slots, &driven, &batches);
    report.metric("check.exactly_once_violations", violations as f64, "count");
    report.metric("check.mismatches", wrong as f64, "count");
    let p50 = stats::per_part(&driven.latency_ms, PART, QUIET_PCT, Samples::p50).0;
    let tail = stats::per_part(&driven.latency_ms, PART, QUIET_PCT, |s| s.tail().value).0;
    report.metric("latency.p50_ms", p50, "ms");
    report.metric("latency.tail_ms", tail, "ms");
    let traced_lat = Samples::new(driven.latency_ms.clone()).p50();
    report.metric(
        "trace.overhead_pct",
        (traced_lat - plain_lat) / plain_lat * 100.0,
        "%",
    );

    let engine = CampaignEngine::new(served.campaign.clone());
    report.metric(
        "analysis.assemble_us",
        layers::analysis_us(&served.campaign, &specs_of(&engine, hot)),
        "us",
    );
    let machine = served.campaign.runner().machine.clone();
    report.metric(
        "cluster.dispatch_us",
        layers::dispatch_us(&machine, &RANK_COUNTS),
        "us",
    );
    replay_metrics(report, &machine, &replay_sample());
    report.metric(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
    );
}

/// Rank counts of the hot set.
const RANK_COUNTS: [usize; 3] = [4, 8, 9];

/// Hot-set cells replayed in the traced run: all class S, in L1.
fn replay_sample() -> Vec<ReplayCell> {
    [(Benchmark::Bt, 4), (Benchmark::Sp, 9), (Benchmark::Lu, 8)]
        .into_iter()
        .map(|(b, p)| ReplayCell {
            app: NpbApp::new(b, Class::S, p),
            chain: vec![0, 1],
        })
        .collect()
}

pub fn provider_metrics(report: &mut Report, cache: &CacheStats) {
    report.metric("provider.requests", cache.requests as f64, "count");
    report.metric("provider.hits", cache.hits as f64, "count");
    report.metric("provider.backend_hits", cache.backend_hits as f64, "count");
    report.metric("provider.executed", cache.executed as f64, "count");
}

pub fn cell_metrics(report: &mut Report, cells: &[CellSpan]) {
    let ms = Samples::new(cells.iter().map(|c| c.exec_secs * 1e3).collect());
    report.metric("cell.executed", cells.len() as f64, "count");
    report.metric("cell.exec_ms_p50", ms.p50(), "ms");
    report.metric("cell.exec_ms_tail", ms.tail().value, "ms");
}

pub fn store_metrics(report: &mut Report, backend: &TimedBackend, open_ms: f64, flush_ms: f64) {
    let gets = backend.gets_us();
    let appends = backend.appends_us();
    report.metric("store.open_ms", open_ms, "ms");
    report.metric("store.get_us_p50", gets.p50(), "us");
    report.metric("store.get_us_tail", gets.tail().value, "us");
    report.metric("store.append_us_p50", appends.p50(), "us");
    report.metric("store.append_us_tail", appends.tail().value, "us");
    report.metric("store.gets", gets.len() as f64, "count");
    report.metric("store.appends", appends.len() as f64, "count");
    report.metric("store.flush_ms", flush_ms, "ms");
}

/// Serve-layer metrics of one driven window.
pub fn serve_metrics(report: &mut Report, slots: &[Slot], driven: &Driven, batches: &[BatchSpan]) {
    let batch_ms = Samples::new(batches.iter().map(|b| b.secs * 1e3).collect());
    report.metric("engine.batch_ms_p50", batch_ms.p50(), "ms");
    report.metric("engine.batch_ms_tail", batch_ms.tail().value, "ms");
    let sizes: usize = batches.iter().map(|b| b.ids.len()).sum();
    report.metric(
        "serve.batch_size_mean",
        sizes as f64 / batches.len().max(1) as f64,
        "count",
    );
    report.metric("serve.batches", batches.len() as f64, "count");
    let engine_ms: HashMap<u64, f64> = batches
        .iter()
        .flat_map(|b| b.ids.iter().map(move |id| (*id, b.secs * 1e3)))
        .collect();
    let waits: Vec<f64> = slots
        .iter()
        .zip(&driven.latency_ms)
        .map(|(s, lat)| lat - engine_ms.get(&s.request.id).copied().unwrap_or(0.0))
        .collect();
    report.metric("serve.wait_ms_p50", stats::median(&waits), "ms");
    let statuses = driven.statuses();
    let count = |want: Status| statuses.iter().filter(|s| **s == want).count() as f64;
    report.metric("serve.refused", count(Status::Overloaded), "count");
    report.metric("serve.deadline_shed", count(Status::Deadline), "count");
    let lines: Vec<String> = slots
        .iter()
        .map(|s| serde_json::to_string(&s.request).expect("requests serialize"))
        .collect();
    report.metric(
        "protocol.parse_us",
        layers::per_call_us(&lines, |l| {
            parse_request(l).expect("request parses");
        }),
        "us",
    );
    let responses: Vec<PredictResponse> = parse_responses(driven).into_iter().flatten().collect();
    report.metric(
        "protocol.encode_us",
        layers::per_call_us(&responses, |r| {
            std::hint::black_box(encode_response(r));
        }),
        "us",
    );
    report.metric(
        "gen.late_ms_tail",
        Samples::new(driven.late_ms.clone()).tail().value,
        "ms",
    );
}

/// Work counts of a replayed sample; a replay whose virtual time
/// differs from the executor's is a correctness failure.
pub fn replay_metrics(report: &mut Report, machine: &MachineConfig, sample: &[ReplayCell]) {
    let r = layers::replay(machine, sample);
    if r.mismatches > 0 {
        report.problem(format!(
            "{} replayed cell(s) differ from NpbExecutor::run_chain_raw",
            r.mismatches
        ));
        report.failed += r.mismatches as u64;
    }
    report.attempted += r.cells as u64;
    let per_cell = |v: u64| v as f64 / r.cells.max(1) as f64;
    report.metric("comm.messages_per_cell", per_cell(r.messages), "count");
    report.metric("comm.bytes_per_cell", per_cell(r.bytes), "B");
    report.metric("perf.flops_per_cell", per_cell(r.flops), "count");
    report.metric("cachesim.lines_per_cell", per_cell(r.lines), "count");
    report.metric(
        "cachesim.l1_hit_ratio",
        r.l1_hits as f64 / r.lines.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cachesim.mem_ratio",
        r.memory as f64 / r.lines.max(1) as f64,
        "ratio",
    );
    report.metric(
        "cachesim.ns_per_line",
        r.host_secs * 1e9 / r.lines.max(1) as f64,
        "ns",
    );
}
