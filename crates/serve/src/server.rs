//! The daemon: admission control, worker pool, routing, degradation
//! ladder, metrics, and graceful shutdown.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use powerlens::{PlanOutcome, PowerLens, TrainedModels};
use powerlens_dnn::Graph;
use powerlens_obs as obs;
use powerlens_platform::Platform;
use powerlens_store::{CacheMode, LintCache, PlanStore};
use serde::Serialize;

use crate::http::{read_request, write_response, Request};
use crate::ops;
use crate::proto::{
    CompareRequest, CompareResponse, CompareRowBody, ErrorResponse, LintRequest, LintResponse,
    PlanBatchResponse, PlanBlock, PlanPoint, PlanRequest, PlanResponse,
};

/// How long a worker waits on a socket read or write before giving up on
/// the client.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Entries in the in-memory plan cache, and in the lint report cache
/// beside it. [`PlanStore::new`] spreads them over 8 shards.
const CACHE_CAPACITY: usize = 256;

/// Tasks one `/compare` flow runs when the request does not say.
const COMPARE_TASKS: usize = 3;

/// Most tasks one `/compare` flow may run. The flow holds a task list of
/// this length and simulates every task once per controller, so a request
/// for more is refused before it can exhaust memory or hold a worker.
const MAX_COMPARE_TASKS: usize = 64;

/// Most images one `/compare` task may simulate. A flow's time and memory
/// grow with its images, so a request for more is refused before it can
/// exhaust memory or hold a worker. At this cap a densenet201 flow of
/// [`MAX_COMPARE_TASKS`] tasks took 0.7–1.1 s and raised the daemon's peak
/// RSS to 166 MB on a 2-vCPU VM; 4,096 images took 7 s and 1.28 GB.
const MAX_COMPARE_IMAGES: usize = 512;

/// Capacity and behaviour knobs for [`Server`].
///
/// The defaults are sized for a development box: an ephemeral-capable
/// port, one worker per core, a 64-deep queue, and an in-memory cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (`127.0.0.1` by default).
    pub addr: String,
    /// TCP port; `0` picks an ephemeral port (printed via
    /// [`Server::local_addr`]).
    pub port: u16,
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// Bounded admission queue depth; connections beyond it are answered
    /// `429` immediately.
    pub queue_depth: usize,
    /// Cache mode for the shared [`PlanStore`] and the lint cache.
    pub cache: CacheMode,
    /// Disk-tier directory when `cache` includes the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Default platform for requests that do not name one.
    pub platform: String,
    /// Default inference batch size.
    pub batch: usize,
    /// Default images per comparison task.
    pub images: usize,
    /// Trained prediction models; `None` plans with the exhaustive oracle.
    pub models: Option<TrainedModels>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1".to_string(),
            port: 0,
            workers: 0,
            queue_depth: 64,
            cache: CacheMode::Mem,
            cache_dir: None,
            platform: "agx".to_string(),
            batch: 8,
            images: 16,
            models: None,
        }
    }
}

/// Final tallies returned by [`Server::run`] after shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeReport {
    /// Requests handled to completion (any status except shed).
    pub requests: u64,
    /// Connections shed with `429` before queueing.
    pub rejected: u64,
    /// Responses answered from the BiM-heuristic rung of the ladder.
    pub degraded: u64,
}

/// A bound, not-yet-running daemon. Created by [`Server::bind`]; consumed
/// by [`Server::run`], which blocks until `POST /shutdown`.
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    store: PlanStore,
    lint_cache: Option<LintCache>,
    default_platform: Platform,
}

/// State shared between the accept loop and the worker pool.
struct Shared {
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    shutdown: AtomicBool,
    requests: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
}

impl Shared {
    /// Raises the shutdown flag and wakes every idle worker. The flag is
    /// set under the queue lock, so a worker between its flag check and
    /// its wait cannot miss the wake-up.
    fn begin_shutdown(&self) {
        let queue = self
            .queue
            .lock()
            .expect("a worker panicked holding the queue");
        self.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.available.notify_all();
    }
}

impl Server {
    /// Binds the listener and builds the shared plan store.
    ///
    /// If the obs layer is not already initialised, it is switched on in
    /// JSON mode with a [`obs::NullSubscriber`] so counters and gauges
    /// accumulate silently for `/metrics` without spamming stderr.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be bound, the cache directory cannot
    /// be created, `cfg.platform` names an unknown platform, or `/compare`
    /// would refuse `cfg.images`.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let default_platform = ops::platform_by_name(&cfg.platform).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown platform {:?}", cfg.platform),
            )
        })?;
        compare_images(cfg.images)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("default {e}")))?;
        if !obs::enabled() {
            obs::init(obs::TraceMode::Json);
            obs::set_subscriber(Arc::new(obs::NullSubscriber));
        }
        let store = PlanStore::new(cfg.cache, CACHE_CAPACITY, cfg.cache_dir.as_deref())?;
        let lint_cache = LintCache::open(cfg.cache, CACHE_CAPACITY, cfg.cache_dir.as_deref())?;
        let listener = TcpListener::bind((cfg.addr.as_str(), cfg.port))?;
        Ok(Server {
            listener,
            cfg,
            store,
            lint_cache,
            default_platform,
        })
    }

    /// The bound address, e.g. `127.0.0.1:41873`. With `port: 0` this is
    /// where the ephemeral port shows up.
    pub fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown>".to_string())
    }

    /// Serves until a `POST /shutdown` arrives, then drains the queue and
    /// returns the final tallies.
    ///
    /// The accept loop blocks in `accept` and sheds connections with `429`
    /// once the queue is full; queued connections are handled by
    /// `cfg.workers` threads. `POST /shutdown` wakes the accept loop by
    /// connecting to the listener itself; connections accepted after the
    /// shutdown flag is up are closed unanswered.
    ///
    /// # Errors
    ///
    /// Fails only on listener-level I/O errors; per-connection errors are
    /// answered on that connection (or logged and dropped) without taking
    /// the daemon down.
    pub fn run(self) -> io::Result<ServeReport> {
        let workers = powerlens_par::resolve_threads(self.cfg.workers);
        obs::gauge("serve.workers", workers as f64);
        let shared = Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        };

        thread::scope(|scope| -> io::Result<()> {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(&shared));
            }
            // Accept loop. `accept` blocks; `/shutdown` raises the flag and
            // then connects here to wake it (`wake_accept`).
            let accepted = loop {
                match self.listener.accept() {
                    Ok(_) if shared.shutdown.load(Ordering::SeqCst) => break Ok(()),
                    Ok((stream, _)) => self.admit(stream, &shared),
                    Err(e) => break Err(e),
                }
            };
            // Idle drain: workers finish the queue, then observe the flag
            // and exit; the scope joins them.
            shared.begin_shutdown();
            accepted
        })?;

        Ok(ServeReport {
            requests: shared.requests.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            degraded: shared.degraded.load(Ordering::SeqCst),
        })
    }

    /// Wakes the blocking `accept` in [`Server::run`] by connecting to the
    /// listener's own address — loopback when it is bound to `0.0.0.0` or
    /// `::`. The connection is dropped at once; the accept loop sees the
    /// shutdown flag and closes it unread.
    fn wake_accept(&self) {
        let Ok(mut addr) = self.listener.local_addr() else {
            return;
        };
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let _ = TcpStream::connect_timeout(&addr, IO_TIMEOUT);
    }

    /// Queues a connection, or sheds it with `429` when the queue is full.
    fn admit(&self, mut stream: TcpStream, shared: &Shared) {
        let mut q = shared.queue.lock().unwrap();
        if q.len() >= self.cfg.queue_depth {
            drop(q);
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            obs::counter("serve.rejected", 1);
            // Drain the request before answering: closing a socket with
            // unread data raises RST and destroys the in-flight 429. A
            // short timeout bounds how long a slow sender can hold the
            // accept loop.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            let _ = read_request(&mut stream);
            let _ = json_response(
                &mut stream,
                429,
                &ErrorResponse {
                    error: "admission queue full; retry with backoff".to_string(),
                },
            );
            return;
        }
        q.push_back(stream);
        obs::gauge("serve.queue_depth", q.len() as f64);
        drop(q);
        shared.available.notify_one();
    }

    fn worker_loop(&self, shared: &Shared) {
        loop {
            let stream = {
                let mut q = shared.queue.lock().unwrap();
                loop {
                    if let Some(s) = q.pop_front() {
                        obs::gauge("serve.queue_depth", q.len() as f64);
                        break Some(s);
                    }
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = shared
                        .available
                        .wait(q)
                        .expect("a worker panicked holding the queue");
                }
            };
            let Some(mut stream) = stream else { return };
            let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
            let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
            match read_request(&mut stream) {
                Ok(req) => {
                    self.handle(&mut stream, &req, shared);
                    shared.requests.fetch_add(1, Ordering::SeqCst);
                    obs::counter("serve.requests", 1);
                }
                Err(_) => {
                    // Malformed or timed-out request; best-effort error.
                    let _ = json_response(
                        &mut stream,
                        400,
                        &ErrorResponse {
                            error: "malformed request".to_string(),
                        },
                    );
                }
            }
        }
    }

    /// Routes one parsed request. Every branch writes exactly one
    /// response; write failures are ignored (the client is gone).
    fn handle(&self, stream: &mut TcpStream, req: &Request, shared: &Shared) {
        let outcome = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => json_response(stream, 200, &ok_body()),
            ("GET", "/metrics") => {
                let body = self.render_metrics(shared);
                write_response(stream, 200, "text/plain; charset=utf-8", &body)
            }
            ("POST", "/shutdown") => {
                shared.begin_shutdown();
                self.wake_accept();
                json_response(stream, 200, &ok_body())
            }
            ("POST", "/plan") => self.endpoint_plan(stream, &req.body, shared),
            ("POST", "/compare") => self.endpoint_compare(stream, &req.body, shared),
            ("POST", "/lint") => self.endpoint_lint(stream, &req.body),
            (_, "/healthz" | "/metrics" | "/shutdown" | "/plan" | "/compare" | "/lint") => {
                json_response(
                    stream,
                    405,
                    &ErrorResponse {
                        error: format!("method {} not allowed for {}", req.method, req.path),
                    },
                )
            }
            ("GET" | "POST", _) => json_response(
                stream,
                404,
                &ErrorResponse {
                    error: format!("no such endpoint: {}", req.path),
                },
            ),
            _ => json_response(
                stream,
                405,
                &ErrorResponse {
                    error: format!("method {} not allowed", req.method),
                },
            ),
        };
        let _ = outcome;
    }

    /// `true` once the queue is at least half full — the cached-only rung
    /// of the degradation ladder.
    fn under_pressure(&self, shared: &Shared) -> bool {
        let len = shared.queue.lock().unwrap().len();
        len * 2 >= self.cfg.queue_depth.max(1)
    }

    /// Resolves the request's platform override, falling back to the
    /// daemon default.
    fn platform_for(&self, name: Option<&str>) -> Result<Platform, String> {
        match name {
            None => Ok(self.default_platform.clone()),
            Some(n) => ops::platform_by_name(n).ok_or_else(|| format!("unknown platform {n:?}")),
        }
    }

    /// Resolves the request's batch size, falling back to the daemon
    /// default. Zero is refused: planning and simulation divide the images
    /// into batches of this size.
    fn batch_for(&self, batch: Option<usize>) -> Result<usize, String> {
        match batch.unwrap_or(self.cfg.batch) {
            0 => Err("`batch` must be positive".to_string()),
            b => Ok(b),
        }
    }

    /// Plans one graph through the degradation ladder. Returns the
    /// outcome plus `(cached, degraded)` flags.
    fn plan_via_ladder(
        &self,
        pl: &PowerLens<'_>,
        platform: &Platform,
        graph: &Graph,
        tenant: Option<&str>,
        pressured: bool,
        shared: &Shared,
    ) -> Result<(PlanOutcome, bool, bool), String> {
        if pressured {
            // Cached-only rung: serve hits, answer misses heuristically.
            if let Some(outcome) = self.store.get_cached(pl, graph, tenant) {
                return Ok((outcome, true, false));
            }
            shared.degraded.fetch_add(1, Ordering::SeqCst);
            obs::counter("serve.degraded", 1);
            return Ok((ops::bim_heuristic_outcome(platform, graph), false, true));
        }
        let (outcome, cached) = self
            .store
            .lookup_or_plan(pl, graph, tenant)
            .map_err(|e| format!("planning {} failed: {e}", graph.name()))?;
        Ok((outcome, cached, false))
    }

    fn endpoint_plan(&self, stream: &mut TcpStream, body: &str, shared: &Shared) -> io::Result<()> {
        let req: PlanRequest = match parse_body(body) {
            Ok(r) => r,
            Err(resp) => return json_response(stream, 400, &resp),
        };
        let platform = match self.platform_for(req.platform.as_deref()) {
            Ok(p) => p,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let batch = match self.batch_for(req.batch) {
            Ok(b) => b,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let tenant = req.tenant.as_deref();
        let pl = ops::make_planner(&platform, batch, self.cfg.models.clone());
        let pressured = self.under_pressure(shared);

        let graphs: Vec<Graph> = if let Some(manifest) = &req.manifest {
            if req.model.is_some() || req.models.is_some() {
                return json_response(
                    stream,
                    400,
                    &ErrorResponse {
                        error: "specify either an inline `manifest` or model names, not both"
                            .to_string(),
                    },
                );
            }
            match import_manifest(manifest) {
                Ok(g) => vec![g],
                Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
            }
        } else {
            let names: Vec<String> = match (&req.model, &req.models) {
                (Some(_), Some(_)) => {
                    return json_response(
                        stream,
                        400,
                        &ErrorResponse {
                            error: "specify either `model` or `models`, not both".to_string(),
                        },
                    )
                }
                (Some(m), None) => vec![m.clone()],
                (None, Some(ms)) if !ms.is_empty() => ms.clone(),
                _ => {
                    return json_response(
                        stream,
                        400,
                        &ErrorResponse {
                            error: "request needs a `model`, a non-empty `models` array, \
                                    or an inline `manifest`"
                                .to_string(),
                        },
                    )
                }
            };
            let mut graphs = Vec::with_capacity(names.len());
            for name in &names {
                match ops::graph_by_name(name) {
                    Ok(g) => graphs.push(g),
                    Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
                }
            }
            graphs
        };

        // Batch requests fan out over the same worker budget the daemon
        // itself was given; a single model plans inline.
        let planned: Vec<Result<(PlanOutcome, bool, bool), String>> = if graphs.len() == 1 {
            vec![self.plan_via_ladder(&pl, &platform, &graphs[0], tenant, pressured, shared)]
        } else {
            powerlens_par::map_slice(&graphs, self.cfg.workers, |_, g| {
                self.plan_via_ladder(&pl, &platform, g, tenant, pressured, shared)
            })
        };

        let mut plans = Vec::with_capacity(planned.len());
        for (graph, result) in graphs.iter().zip(planned) {
            match result {
                Ok((outcome, cached, degraded)) => plans.push(plan_response(
                    graph,
                    &platform,
                    &self.cfg.platform,
                    req.platform.as_deref(),
                    batch,
                    tenant,
                    &outcome,
                    cached,
                    degraded,
                )),
                Err(e) => return json_response(stream, 500, &ErrorResponse { error: e }),
            }
        }
        if req.models.is_some() {
            json_response(stream, 200, &PlanBatchResponse { plans })
        } else {
            json_response(stream, 200, &plans.remove(0))
        }
    }

    fn endpoint_compare(
        &self,
        stream: &mut TcpStream,
        body: &str,
        shared: &Shared,
    ) -> io::Result<()> {
        let req: CompareRequest = match parse_body(body) {
            Ok(r) => r,
            Err(resp) => return json_response(stream, 400, &resp),
        };
        let Some(model) = req.model.as_deref() else {
            return json_response(
                stream,
                400,
                &ErrorResponse {
                    error: "compare request needs a `model`".to_string(),
                },
            );
        };
        let platform = match self.platform_for(req.platform.as_deref()) {
            Ok(p) => p,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let graph = match ops::graph_by_name(model) {
            Ok(g) => g,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let batch = match self.batch_for(req.batch) {
            Ok(b) => b,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let tasks = req.tasks.unwrap_or(COMPARE_TASKS);
        if tasks > MAX_COMPARE_TASKS {
            return json_response(
                stream,
                400,
                &ErrorResponse {
                    error: format!("`tasks` {tasks} exceeds the limit of {MAX_COMPARE_TASKS}"),
                },
            );
        }
        let images = match compare_images(req.images.unwrap_or(self.cfg.images)) {
            Ok(n) => n,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let pl = ops::make_planner(&platform, batch, self.cfg.models.clone());
        let pressured = self.under_pressure(shared);
        let (outcome, _, degraded) = match self.plan_via_ladder(
            &pl,
            &platform,
            &graph,
            req.tenant.as_deref(),
            pressured,
            shared,
        ) {
            Ok(r) => r,
            Err(e) => return json_response(stream, 500, &ErrorResponse { error: e }),
        };
        let (rows, _hybrid_stats) = ops::compare_controllers(
            &platform,
            &graph,
            &outcome.plan,
            batch,
            images,
            tasks,
            None,
            req.hybrid.unwrap_or(false),
        );
        let resp = CompareResponse {
            model: graph.name().to_string(),
            platform: req
                .platform
                .clone()
                .unwrap_or_else(|| self.cfg.platform.clone()),
            degraded,
            rows: rows
                .into_iter()
                .map(|r| CompareRowBody {
                    method: r.method,
                    energy_j: r.energy_j,
                    time_s: r.time_s,
                    energy_efficiency: r.energy_efficiency,
                    switches: r.switches,
                })
                .collect(),
        };
        json_response(stream, 200, &resp)
    }

    fn endpoint_lint(&self, stream: &mut TcpStream, body: &str) -> io::Result<()> {
        let req: LintRequest = match parse_body(body) {
            Ok(r) => r,
            Err(resp) => return json_response(stream, 400, &resp),
        };
        let Some(model) = req.model.as_deref() else {
            return json_response(
                stream,
                400,
                &ErrorResponse {
                    error: "lint request needs a `model`".to_string(),
                },
            );
        };
        let platform = match self.platform_for(req.platform.as_deref()) {
            Ok(p) => p,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let graph = match ops::graph_by_name(model) {
            Ok(g) => g,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let batch = match self.batch_for(req.batch) {
            Ok(b) => b,
            Err(e) => return json_response(stream, 400, &ErrorResponse { error: e }),
        };
        let reports = match &self.lint_cache {
            Some(cache) => ops::lint_model_cached(&platform, &graph, batch, cache),
            None => ops::lint_model(&platform, &graph, batch).map(|r| vec![r]),
        };
        let reports = match reports {
            Ok(r) => r,
            Err(e) => return json_response(stream, 500, &ErrorResponse { error: e }),
        };
        let resp = LintResponse {
            model: graph.name().to_string(),
            errors: reports.iter().map(|r| r.num_errors()).sum(),
            warnings: reports.iter().map(|r| r.num_warnings()).sum(),
            report: powerlens_lint::to_json(&reports),
        };
        json_response(stream, 200, &resp)
    }

    /// Renders `/metrics` as `name value` lines: live serve gauges, every
    /// obs counter/gauge/histogram mean, the hybrid-ladder counters (always
    /// present, zero before the first hybrid run), derived hit rates, and
    /// per-tenant store stats (bounded by the store's tenant-table cap).
    fn render_metrics(&self, shared: &Shared) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "serve.queue_len {}",
            shared.queue.lock().unwrap().len()
        );
        let _ = writeln!(out, "serve.queue_cap {}", self.cfg.queue_depth);
        let snap = obs::snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map_or(0, |(_, v)| *v)
        };
        for (name, v) in &snap.counters {
            let _ = writeln!(out, "{name} {v}");
        }
        // The hybrid ladder's counters must be scrapeable from the first
        // request on — dashboards alert on absence — so render zeros for
        // any that have not incremented yet.
        for name in [
            "hybrid.drift_detected",
            "hybrid.nudges",
            "hybrid.replans",
            "hybrid.replan_throttled",
        ] {
            if !snap.counters.iter().any(|(n, _)| n == name) {
                let _ = writeln!(out, "{name} 0");
            }
        }
        for (name, v) in &snap.gauges {
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, h) in &snap.histograms {
            let _ = writeln!(out, "{name}.count {}", h.count);
            let _ = writeln!(out, "{name}.mean {}", h.mean());
        }
        // Derived rates guard against zero denominators: a store that has
        // seen lookups but no completions (or none at all) reports 0, never
        // NaN — `/metrics` consumers parse every line as a finite float.
        let (hits, misses) = (counter("store.hits"), counter("store.misses"));
        let _ = writeln!(out, "store.hit_rate {}", rate(hits, hits + misses));
        for (tenant, stats) in self.store.tenant_stats() {
            let _ = writeln!(out, "store.tenant.{tenant}.hits {}", stats.hits);
            let _ = writeln!(out, "store.tenant.{tenant}.misses {}", stats.misses);
            let _ = writeln!(
                out,
                "store.tenant.{tenant}.hit_rate {}",
                rate(stats.hits, stats.hits + stats.misses)
            );
        }
        out
    }
}

/// Lowers an inline manifest through the PL7xx lint gate. Error findings
/// become the 400 message with their rule codes so API clients can fix the
/// manifest without consulting daemon logs; warnings do not block.
fn import_manifest(manifest: &serde::Value) -> Result<Graph, String> {
    let config = powerlens_lint::LintConfig::default();
    match powerlens_ingest::import_value(manifest) {
        Ok(import) => Ok(import.graph),
        Err(e) => {
            let report = powerlens_lint::lint_import("inline manifest", e.issues(), &config);
            let findings: Vec<String> = report
                .diagnostics
                .iter()
                .filter(|d| d.rule.severity == powerlens_lint::Severity::Error)
                .map(|d| format!("{}: {}", d.rule.code, d.message))
                .collect();
            if findings.is_empty() {
                Err(format!("cannot import manifest: {e}"))
            } else {
                Err(format!("cannot import manifest: {}", findings.join("; ")))
            }
        }
    }
}

/// Checks a `/compare` task's image count: zero simulates nothing, and
/// more than [`MAX_COMPARE_IMAGES`] could exhaust the daemon's memory.
fn compare_images(images: usize) -> Result<usize, String> {
    match images {
        0 => Err("`images` must be positive".to_string()),
        n if n > MAX_COMPARE_IMAGES => Err(format!(
            "`images` {n} exceeds the limit of {MAX_COMPARE_IMAGES}"
        )),
        n => Ok(n),
    }
}

/// `numerator / denominator` as a finite metrics value: 0 when the
/// denominator is 0 (no traffic yet is a rate of zero, not NaN).
fn rate(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Parses a JSON request body, mapping failure to a 400 payload.
fn parse_body<T: serde::Deserialize>(body: &str) -> Result<T, ErrorResponse> {
    let text = if body.trim().is_empty() { "{}" } else { body };
    serde_json::from_str(text).map_err(|e| ErrorResponse {
        error: format!("bad request body: {e}"),
    })
}

/// Serializes `payload` and writes it with the given status.
fn json_response<T: Serialize>(stream: &mut TcpStream, status: u16, payload: &T) -> io::Result<()> {
    let body = serde_json::to_string(payload)
        .unwrap_or_else(|_| r#"{"error":"serialization failure"}"#.to_string());
    write_response(stream, status, "application/json", &body)
}

fn ok_body() -> serde::Value {
    serde::Value::Object(vec![("ok".to_string(), serde::Value::Bool(true))])
}

/// Builds the JSON view of one planned model.
#[allow(clippy::too_many_arguments)]
fn plan_response(
    graph: &Graph,
    platform: &Platform,
    default_platform_name: &str,
    requested_platform: Option<&str>,
    batch: usize,
    tenant: Option<&str>,
    outcome: &PlanOutcome,
    cached: bool,
    degraded: bool,
) -> PlanResponse {
    PlanResponse {
        model: graph.name().to_string(),
        platform: requested_platform
            .unwrap_or(default_platform_name)
            .to_string(),
        batch,
        tenant: tenant.unwrap_or("").to_string(),
        cached,
        degraded,
        scheme_index: outcome.scheme_index,
        cpu_level: outcome.plan.cpu_level(),
        blocks: outcome
            .view
            .blocks()
            .iter()
            .map(|b| PlanBlock {
                start: b.start,
                end: b.end,
            })
            .collect(),
        points: outcome
            .plan
            .points()
            .iter()
            .map(|p| PlanPoint {
                layer: p.layer,
                gpu_level: p.gpu_level,
                freq_mhz: platform.gpu_table().freq_mhz(p.gpu_level),
            })
            .collect(),
    }
}
