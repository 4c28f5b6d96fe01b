//! Shared plumbing: scratch stores, campaigns, an in-process TCP
//! server, the open-loop client and the answer check.

use crate::layers::{RecordingSink, TimedBackend, TimedEngine};
use kc_experiments::{AnalysisSpec, Campaign, CampaignEngine, Runner};
use kc_loadgen::workload::Rng;
use kc_prophesy::{CellBackend, StoreSpec};
use kc_serve::protocol::encode_response;
use kc_serve::{PredictRequest, PredictResponse, PredictionEngine, Server, ServerConfig, Status};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Scheduler workers: the benchmark machine has two cores.
pub const JOBS: usize = 2;

/// A per-process scratch directory under the checkout, removed on drop.
pub struct Workdir {
    root: PathBuf,
    next: usize,
}

impl Workdir {
    pub fn new() -> std::io::Result<Self> {
        let root = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: 0 })
    }

    /// A fresh, not yet existing path for one store.
    pub fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("store-{}", self.next))
    }

    /// Remove the store [`Workdir::fresh`] handed out last.  Creating
    /// files slows down as a directory tree fills, so a run keeps only
    /// the stores it still uses.
    pub fn remove_last(&self) {
        let _ = std::fs::remove_dir_all(self.root.join(format!("store-{}", self.next)));
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent); // only if empty
        }
    }
}

/// Create and open an empty sharded store at `path`.
pub fn open_fresh_store(path: &Path) -> Arc<dyn CellBackend> {
    let spec: StoreSpec = format!("sharded:{}", path.display())
        .parse()
        .expect("store spec parses");
    spec.open().expect("sharded store opens")
}

/// Instruments attached to a campaign in a traced run.
pub struct Traced {
    pub sink: Arc<RecordingSink>,
    pub backend: Arc<TimedBackend>,
}

/// A campaign over `store`, with the traced-run instruments when given.
pub fn build_campaign(
    runner: Runner,
    store: &Arc<dyn CellBackend>,
    traced: Option<&Traced>,
) -> Arc<Campaign> {
    let mut builder = Campaign::builder(runner).jobs(JOBS);
    builder = match traced {
        Some(t) => builder
            .backend(Box::new(Arc::clone(&t.backend)))
            .sink(t.sink.clone()),
        None => builder.backend(Box::new(Arc::clone(store))),
    };
    let campaign = Arc::new(builder.build());
    store.attach_sink(campaign.sink());
    campaign
}

/// An in-process `kc_serve::Server` accepting loopback TCP.
pub struct ServeHarness {
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    pub timed: Option<Arc<TimedEngine>>,
    accept: Option<JoinHandle<()>>,
}

impl ServeHarness {
    pub fn start(campaign: &Arc<Campaign>, traced: Option<&Traced>, max_inflight: usize) -> Self {
        let engine = CampaignEngine::new(Arc::clone(campaign));
        let (engine, timed): (Arc<dyn PredictionEngine>, _) = match traced {
            Some(_) => {
                let t = Arc::new(TimedEngine::new(engine));
                (t.clone(), Some(t))
            }
            None => (Arc::new(engine), None),
        };
        let config = ServerConfig {
            max_inflight,
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::new(engine, config));
        if let Some(t) = traced {
            server.attach_sink(t.sink.clone());
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("listener address");
        let accept = {
            let server = server.clone();
            std::thread::spawn(move || server.serve_tcp(listener).expect("serve_tcp"))
        };
        Self {
            server,
            addr,
            timed,
            accept: Some(accept),
        }
    }
}

impl Drop for ServeHarness {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.server.shutdown();
    }
}

/// One request of an open-loop schedule.
#[derive(Clone, Debug)]
pub struct Slot {
    pub offset: Duration,
    pub request: PredictRequest,
}

/// Poisson arrivals at `rps` for `secs`: exponential gaps drawn from a
/// generator seeded with `seed`, ids from `first_id`, the `i`-th
/// request drawn by `pick(i)`.  Independent clients arrive this way,
/// and random gaps keep the latencies from locking onto a fixed send
/// grid.
pub fn poisson(
    rps: f64,
    secs: f64,
    first_id: u64,
    seed: u64,
    mut pick: impl FnMut(u64) -> PredictRequest,
) -> Vec<Slot> {
    let mut gaps = Rng::new(seed ^ 0x9A95_0000_0000_0001);
    let mut slots = Vec::new();
    let mut t = 0.0;
    while t < secs {
        let i = slots.len() as u64;
        let mut request = pick(i);
        request.id = first_id + i;
        slots.push(Slot {
            offset: Duration::from_secs_f64(t),
            request,
        });
        t += -(1.0 - gaps.next_f64()).ln() / rps;
    }
    slots
}

/// What one driven window returned, per slot in schedule order.
pub struct Driven {
    /// Response line → due time, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Actual send → due time, milliseconds.
    pub late_ms: Vec<f64>,
    pub responses: Vec<String>,
    pub wall_secs: f64,
}

impl Driven {
    pub fn statuses(&self) -> Vec<Status> {
        self.responses
            .iter()
            .map(|l| {
                serde_json::from_str::<PredictResponse>(l)
                    .map(|r| r.status)
                    .unwrap_or(Status::Error)
            })
            .collect()
    }
}

/// Drive `slots` open-loop over one TCP connection: each request is
/// sent at its scheduled offset whatever the server is doing, and its
/// latency runs from when it was due, so a stalled sender or server
/// charges the wait to every request queued behind it.
pub fn drive(addr: SocketAddr, slots: &[Slot]) -> std::io::Result<Driven> {
    let lines: Vec<String> = slots
        .iter()
        .map(|s| serde_json::to_string(&s.request).expect("requests serialize") + "\n")
        .collect();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let expected = slots.len();
    let reader = std::thread::spawn(move || -> std::io::Result<Vec<(Instant, String)>> {
        let mut out = Vec::with_capacity(expected);
        for line in BufReader::new(reader_stream).lines() {
            let line = line?;
            out.push((Instant::now(), line));
        }
        Ok(out)
    });
    // a short lead so the first request is not already late
    let start = Instant::now() + Duration::from_millis(2);
    let mut due = Vec::with_capacity(slots.len());
    let mut late_ms = Vec::with_capacity(slots.len());
    for (slot, line) in slots.iter().zip(&lines) {
        let at = start + slot.offset;
        let now = Instant::now();
        if at > now {
            std::thread::sleep(at - now);
        }
        late_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
        stream.write_all(line.as_bytes())?;
        due.push(at);
    }
    stream.shutdown(Shutdown::Write)?;
    let received = reader
        .join()
        .map_err(|_| std::io::Error::other("reader panicked"))??;
    if received.len() != slots.len() {
        return Err(std::io::Error::other(format!(
            "{} responses for {} requests",
            received.len(),
            slots.len()
        )));
    }
    let wall_secs = received
        .last()
        .map(|(t, _)| t.saturating_duration_since(start).as_secs_f64())
        .unwrap_or(0.0);
    let latency_ms = received
        .iter()
        .zip(&due)
        .map(|((t, _), d)| t.saturating_duration_since(*d).as_secs_f64() * 1e3)
        .collect();
    Ok(Driven {
        latency_ms,
        late_ms,
        responses: received.into_iter().map(|(_, l)| l).collect(),
        wall_secs,
    })
}

/// Keep `outstanding` requests in flight over one TCP connection for
/// `secs`, taking `requests` in order (it must be long enough): each
/// response frees a slot for the next request, so the server always
/// has a backlog to batch and never refuses one when `outstanding` is
/// within its admission bound.  The completion rate is then its
/// capacity.  Returns the response lines, in send order.
pub fn saturate(
    addr: SocketAddr,
    requests: &[PredictRequest],
    outstanding: usize,
    secs: f64,
) -> std::io::Result<Vec<String>> {
    let lines: Vec<String> = requests
        .iter()
        .map(|r| serde_json::to_string(r).expect("requests serialize") + "\n")
        .collect();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    // one token per response; the channel never holds more than
    // `outstanding` of them
    let (free, slots) = std::sync::mpsc::sync_channel::<()>(outstanding);
    let start = Instant::now();
    let reader = std::thread::spawn(move || -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        for line in BufReader::new(reader_stream).lines() {
            out.push(line?);
            let _ = free.try_send(());
        }
        Ok(out)
    });
    let mut sent = 0;
    for (i, line) in lines.iter().enumerate() {
        if i >= outstanding && slots.recv().is_err() {
            break; // the reader stopped
        }
        if start.elapsed().as_secs_f64() >= secs {
            break;
        }
        stream.write_all(line.as_bytes())?;
        sent += 1;
    }
    stream.shutdown(Shutdown::Write)?;
    let received = reader
        .join()
        .map_err(|_| std::io::Error::other("reader panicked"))??;
    if received.len() != sent {
        return Err(std::io::Error::other(format!(
            "{} responses for {sent} requests",
            received.len()
        )));
    }
    Ok(received)
}

/// Request identity without id or deadline.
pub fn spec_key(r: &PredictRequest) -> (String, String, usize, usize, bool) {
    (
        r.benchmark.clone(),
        r.class.clone(),
        r.procs,
        r.chain_len,
        r.fine,
    )
}

/// Reference answers from a fresh, storeless `CampaignEngine`: one
/// expected `ok` response line per distinct spec, keyed by spec.
pub struct Reference {
    reports: HashMap<(String, String, usize, usize, bool), kc_serve::PredictionReport>,
}

impl Reference {
    pub fn build(runner: Runner, requests: &[PredictRequest]) -> Self {
        let mut seen = BTreeSet::new();
        let distinct: Vec<PredictRequest> = requests
            .iter()
            .filter(|r| seen.insert(spec_key(r)))
            .map(|r| PredictRequest {
                id: 0,
                deadline_ms: None,
                ..r.clone()
            })
            .collect();
        let campaign = Arc::new(Campaign::builder(runner).jobs(JOBS).build());
        let engine = CampaignEngine::new(campaign);
        let results = engine.predict_batch(&distinct);
        let reports = distinct
            .iter()
            .zip(results)
            .filter_map(|(r, res)| res.ok().map(|rep| (spec_key(r), rep)))
            .collect();
        Self { reports }
    }

    /// Whether `line` is exactly the `ok` response the reference gives
    /// for `request`.
    pub fn matches(&self, request: &PredictRequest, line: &str) -> bool {
        self.reports.get(&spec_key(request)).is_some_and(|report| {
            let want = PredictResponse::new(request.id, Status::Ok, Ok(report.clone()));
            encode_response(&want) == line
        })
    }
}

/// The distinct cells a set of analyses needs.
pub fn needed_cells(campaign: &Campaign, specs: &[AnalysisSpec]) -> usize {
    let mut cells = BTreeSet::new();
    for spec in specs {
        cells.extend(campaign.cells(spec).expect("valid spec"));
    }
    cells.len()
}
