//! serve_warm and serve_cold: `powerlens-cli serve` as a child process,
//! driven by two closed-loop client connections.
//!
//! Both workloads send the same model mix (the five pool models, one
//! request in five as an inline manifest). serve_warm replays a pool of
//! `(tenant, model)` keys planned during setup, so every lookup hits the
//! memory tier; serve_cold gives every request a fresh tenant, so every
//! lookup misses and the daemon runs the oracle planner.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use powerlens::PowerLens;
use powerlens_dnn::{zoo, Graph};
use powerlens_platform::Platform;
use powerlens_serve::http;
use powerlens_serve::proto::{PlanBlock, PlanPoint, PlanRequest, PlanResponse};
use powerlens_store::{cache_key_for, MemTier};

use crate::reference::{self, parse_serve_plan, staged_plan_oracle, PlanShape, Reference};
use crate::stats::{self, ms};
use crate::trace::Tracer;
use crate::workload::{self, ServeReq, POOL_MODELS, WARM_TENANTS};
use crate::{closed_loop, Done, Report, Run};

/// The daemon child process.
pub struct Daemon {
    child: Child,
    addr: String,
    // Held open so the daemon's final report line never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `powerlens-cli serve` and waits for its `listening on` line.
    pub fn spawn(cli: &Path, dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(cli)
            .args(["serve", "--port", "0", "--threads", "2", "--cache", "mem"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        crate::register_child(child.id());
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".to_string());
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.to_string();
            }
        };
        Ok(Daemon {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// `GET /metrics` as a name → value map.
    pub fn metrics(&self) -> Result<BTreeMap<String, f64>, String> {
        let (status, body) =
            http::request(&self.addr, "GET", "/metrics", "").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        Ok(body
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_string(), v.trim().parse().ok()?))
            })
            .collect())
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        stats::vm_hwm_mb(Some(self.child.id()))
    }

    /// `POST /shutdown`, then waits (bounded) for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let _ = http::request(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            if Instant::now() > deadline {
                return Err("daemon did not stop within 10 s of /shutdown".to_string());
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        crate::unregister_child(self.child.id());
    }
}

/// Everything a serve workload plans against: graphs, compact manifests,
/// and one reference per pool model.
struct Fixture {
    platform: Platform,
    graphs: Vec<Graph>,
    manifests: Vec<String>,
    refs: Vec<Reference>,
}

impl Fixture {
    fn build() -> Result<Fixture, String> {
        let platform = Platform::agx();
        let graphs: Vec<Graph> = POOL_MODELS
            .iter()
            .map(|m| zoo::by_name(m).ok_or_else(|| format!("zoo lacks {m}")))
            .collect::<Result<_, _>>()?;
        let refs = crate::par_map(&graphs, |g| Reference::oracle(&platform, g));
        let mut manifests = Vec::new();
        for (g, r) in graphs.iter().zip(&refs) {
            let value = powerlens_ingest::export_value(g);
            // Reference per manifest fingerprint: the imported graph must
            // content-address to the zoo graph, or it gets its own plan.
            let imported = powerlens_ingest::import_value(&value)
                .map_err(|e| format!("exported {} does not import: {e}", g.name()))?
                .graph;
            if imported.fingerprint() != g.fingerprint()
                && Reference::oracle(&platform, &imported).shape != r.shape
            {
                return Err(format!("{} plans differently from its manifest", g.name()));
            }
            manifests.push(serde_json::to_string(&value).map_err(|e| e.to_string())?);
        }
        Ok(Fixture {
            platform,
            graphs,
            manifests,
            refs,
        })
    }

    fn body(&self, req: &ServeReq) -> String {
        if req.manifest {
            format!(
                r#"{{"manifest": {}, "tenant": "{}"}}"#,
                self.manifests[req.model], req.tenant
            )
        } else {
            format!(
                r#"{{"model": "{}", "tenant": "{}"}}"#,
                POOL_MODELS[req.model], req.tenant
            )
        }
    }
}

/// A request's answer: HTTP status (0 when the exchange failed) and body.
type Answer = (u16, String);

/// Checks every sample against its model's reference. Returns the number
/// of failures and the request-weighted mean EE gain of the served plans.
fn verify(fx: &Fixture, seq: &[ServeReq], samples: &[Done<Answer>], report: &mut Report) -> f64 {
    let mut gains: BTreeMap<usize, f64> = BTreeMap::new();
    let mut gain_sum = 0.0;
    let mut served = 0usize;
    for s in samples {
        report.attempted += 1;
        let model = seq[s.index].model;
        let (status, body) = &s.out;
        let ok = *status == 200
            && match parse_serve_plan(body) {
                Ok((shape, degraded)) => !degraded && shape == fx.refs[model].shape,
                Err(_) => false,
            };
        if !ok {
            report.failed += 1;
            if report.failed <= 3 {
                eprintln!(
                    "perfbench: request {} ({}) failed: status {status} body {body:.200}",
                    s.index, POOL_MODELS[model]
                );
            }
            continue;
        }
        // The served plan equals the reference, so one evaluation per model
        // covers every response for it.
        let gain = *gains.entry(model).or_insert_with(|| {
            let plan = fx.refs[model].shape.plan();
            reference::ee_gain_vs_bim(&fx.platform, &fx.graphs[model], &plan)
        });
        gain_sum += gain;
        served += 1;
    }
    if served == 0 {
        0.0
    } else {
        gain_sum / served as f64
    }
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Starts a daemon and plans the workload's pre-warm set through it.
fn setup(fx: &Fixture, run: &Run, cold: bool) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(&run.cli, &run.dir)?;
    let tenants: Vec<String> = if cold {
        vec!["prewarm".to_string()]
    } else {
        (0..WARM_TENANTS).map(|t| format!("warm-{t}")).collect()
    };
    for tenant in &tenants {
        for (model, name) in POOL_MODELS.iter().enumerate() {
            for manifest in [false, true] {
                let body = fx.body(&ServeReq {
                    model,
                    manifest,
                    tenant: tenant.clone(),
                });
                let (status, resp) = http::request(&daemon.addr, "POST", "/plan", &body)
                    .map_err(|e| e.to_string())?;
                if status != 200 {
                    return Err(format!("pre-warm of {name} answered {status}: {resp}"));
                }
            }
        }
    }
    Ok(daemon)
}

/// Runs serve_warm (`cold == false`) or serve_cold.
pub fn run(run: &Run, cold: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let ((daemon, fx), setup_s) = crate::timed_setups(
        || {
            let fx = Fixture::build()?;
            Ok((setup(&fx, run, cold)?, fx))
        },
        |(daemon, _)| daemon.shutdown(),
    )?;
    report.setup_s = Some(setup_s);

    // Requests beyond any plausible rate, so the window, not the sequence,
    // ends the run.
    let seq = workload::serve_sequence(cold, run.seed, (run.seconds * 20_000.0) as usize + 1000);
    let window = if run.trace {
        run.seconds * 0.5
    } else {
        run.seconds
    };
    let before = daemon.metrics()?;
    let (samples, elapsed) = closed_loop(Duration::from_secs_f64(window), seq.len(), |i| {
        http::request(&daemon.addr, "POST", "/plan", &fx.body(&seq[i]))
            .unwrap_or((0, String::new()))
    });
    let after = daemon.metrics()?;
    let ee_gain = verify(&fx, &seq, &samples, &mut report);
    let latencies: Vec<f64> = samples.iter().map(|s| ms(s.latency)).collect();

    // Workload sanity: a run that does not do what its name says is invalid.
    let hits = delta(&before, &after, "store.hits");
    let misses = delta(&before, &after, "store.misses");
    let hit_ratio = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    let rejected = delta(&before, &after, "serve.rejected");
    let degraded = delta(&before, &after, "serve.degraded");
    let schemes = delta(&before, &after, "plan.schemes_scored");
    let want_ratio = if cold { 0.0 } else { 1.0 };
    if hit_ratio != want_ratio || hits + misses != samples.len() as f64 {
        report.problem(format!(
            "store hit ratio {hit_ratio} over {} lookups for {} requests; want {want_ratio}",
            hits + misses,
            samples.len()
        ));
    }
    if rejected != 0.0 || degraded != 0.0 {
        report.problem(format!(
            "{rejected} rejected and {degraded} degraded responses"
        ));
    }
    let per_miss = reference::config().schemes.len() as f64;
    if schemes != per_miss * misses {
        report.problem(format!("{schemes} schemes scored for {misses} misses"));
    }

    let peak_rss = daemon.peak_rss_mb();
    if run.trace {
        let untraced_mean = stats::mean(&latencies).unwrap_or(0.0);
        let layers = &mut report.layers;
        layers.insert("serve.rejected", rejected);
        layers.insert("serve.degraded", degraded);
        layers.insert("store.hit_ratio", hit_ratio);
        layers.insert("store.evictions", delta(&before, &after, "store.evictions"));
        layers.insert("plan.schemes_scored", schemes);
        traced_socket(
            &fx,
            &daemon.addr,
            &seq[samples.len()..],
            run,
            untraced_mean,
            &mut report,
        );
        replay(&fx, &seq, run, cold, untraced_mean, &mut report)?;
    } else {
        let done: Vec<f64> = samples.iter().map(|s| s.at.as_secs_f64()).collect();
        report.throughput(&done, elapsed);
        report.latencies(&latencies);
        report.peak_rss_mb = peak_rss;
        report.ee_gain = Some(ee_gain);
    }
    daemon.shutdown()?;
    Ok(report)
}

/// The traced socket window: the same client loop, with spans around
/// connect, request write, the wait for the first response byte, and the
/// rest of the read.
fn traced_socket(
    fx: &Fixture,
    addr: &str,
    seq: &[ServeReq],
    run: &Run,
    untraced_mean: f64,
    report: &mut Report,
) {
    let epoch = Instant::now();
    let window = Duration::from_secs_f64(run.seconds * 0.2);
    let (done, _) = closed_loop(window, seq.len(), |i| {
        let mut t = Tracer::new(epoch);
        let body = fx.body(&seq[i]);
        t.span("serve.request", i as u64, |t| {
            traced_exchange(t, i as u64, addr, &body)
        });
        t
    });
    let mut t = Tracer::new(epoch);
    for d in done {
        t.absorb(d.out);
    }
    let total = t.durations();
    let n = t
        .spans()
        .iter()
        .filter(|s| s.name == "serve.request")
        .count()
        .max(1) as f64;
    let per = |name: &str| total.get(name).map_or(0.0, |d| ms(*d) / n);
    let layers = &mut report.layers;
    layers.insert("serve.connect_ms", per("serve.connect"));
    layers.insert("serve.response_wait_ms", per("serve.response_wait"));
    layers.insert("trace.overhead_ms", per("serve.request") - untraced_mean);
    let _ = t.write_csv(&run.dir.join("socket_spans.csv"));
}

fn traced_exchange(t: &mut Tracer, id: u64, addr: &str, body: &str) {
    let Ok(mut stream) = t.span("serve.connect", id, |_| TcpStream::connect(addr)) else {
        return;
    };
    let head = format!(
        "POST /plan HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = t.span("serve.write", id, |_| {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()
    });
    let mut first = [0u8; 1];
    let _ = t.span("serve.response_wait", id, |_| stream.read_exact(&mut first));
    let mut rest = Vec::new();
    let _ = t.span("serve.read_rest", id, |_| stream.read_to_end(&mut rest));
}

/// Replays the daemon's per-request work in-process, one span per layer
/// call, over a loopback socket so the HTTP framing is real.
fn replay(
    fx: &Fixture,
    seq: &[ServeReq],
    run: &Run,
    cold: bool,
    untraced_mean: f64,
    report: &mut Report,
) -> Result<(), String> {
    let platform = &fx.platform;
    let pl = PowerLens::untrained(platform, reference::config());
    let mem = MemTier::with_shards(256, 8);
    if !cold {
        for t in 0..WARM_TENANTS {
            for (m, g) in fx.graphs.iter().enumerate() {
                let outcome = pl.plan_oracle(g).map_err(|e| e.to_string())?;
                if PlanShape::of(&outcome) != fx.refs[m].shape {
                    return Err(format!("direct plan_oracle of {} moved", POOL_MODELS[m]));
                }
                mem.insert(cache_key_for(&pl, g, Some(&format!("warm-{t}"))).0, outcome);
            }
        }
    }
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch);
    // Direct calls, used to check the staged replay below.
    let mut direct = Vec::new();
    for (m, g) in fx.graphs.iter().enumerate() {
        let outcome = t.span("core.plan_oracle", m as u64, |_| pl.plan_oracle(g));
        direct.push(PlanShape::of(&outcome.map_err(|e| e.to_string())?));
    }

    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let budget = Duration::from_secs_f64(run.seconds * 0.25);
    let max_ops = if cold { 400 } else { 2000 };
    let mut done = 0usize;
    let mut mismatches = 0u64;
    let addr = &addr;
    thread::scope(|s| -> Result<(), String> {
        // The client sends request `i` when told to, so it never waits on
        // a connection the replay will not accept. Dropping `go` (on any
        // return from this closure) ends it.
        let (go, todo) = mpsc::channel::<usize>();
        s.spawn(move || {
            for i in todo {
                let _ = http::request(addr, "POST", "/plan", &fx.body(&seq[i]));
            }
        });
        let started = Instant::now();
        for (i, req) in seq.iter().take(max_ops).enumerate() {
            go.send(i).map_err(|e| e.to_string())?;
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            let id = i as u64;
            let shape = t.span("serve.op", id, |t| {
                replay_one(t, id, &mut stream, &pl, &mem, platform, &req.tenant)
            })?;
            if shape != fx.refs[req.model].shape || shape != direct[req.model] {
                mismatches += 1;
            }
            done += 1;
            if started.elapsed() > budget {
                break;
            }
        }
        Ok(())
    })?;
    if mismatches > 0 {
        report.problem(format!(
            "{mismatches} replayed plans differ from plan_oracle"
        ));
    }

    let own = t.self_times();
    let n = done.max(1) as f64;
    let per = |name: &str, scale: f64| own.get(name).map_or(0.0, |d| d.as_secs_f64() * scale / n);
    let op_ms = t.durations().get("serve.op").map_or(0.0, |d| ms(*d) / n);
    let direct_ms = t
        .durations()
        .get("core.plan_oracle")
        .map_or(0.0, |d| ms(*d))
        / fx.graphs.len() as f64;
    let layers = &mut report.layers;
    layers.insert("serve.http_read_us", per("serve.http_read", 1e6));
    layers.insert("serve.parse_us", per("serve.parse", 1e6));
    layers.insert("ingest.import_value_us", per("ingest.import_value", 1e6));
    layers.insert("dnn.graph_build_us", per("dnn.graph_build", 1e6));
    layers.insert("dnn.fingerprint_us", per("dnn.fingerprint", 1e6));
    layers.insert("store.key_us", per("store.key", 1e6));
    layers.insert("store.mem_lookup_ns", per("store.mem_lookup", 1e9));
    layers.insert("store.mem_insert_us", per("store.mem_insert", 1e6));
    layers.insert("features.global_us", per("features.global", 1e6));
    layers.insert(
        "cluster.distance_build_ms",
        per("cluster.distance_build", 1e3),
    );
    layers.insert("cluster.rethreshold_ms", per("cluster.rethreshold", 1e3));
    layers.insert("governors.oracle_ms", per("governors.oracle", 1e3));
    layers.insert("core.evaluate_ms", per("core.evaluate", 1e3));
    layers.insert("core.plan_oracle_ms", direct_ms);
    layers.insert("serve.serialize_us", per("serve.serialize", 1e6));
    layers.insert("serve.http_write_us", per("serve.http_write", 1e6));
    layers.insert("replay.glue_us", per("serve.op", 1e6));
    layers.insert("serve.unattributed_ms", untraced_mean - op_ms);
    layers.insert("replay.ops", done as f64);
    report.check_accounting(op_ms, untraced_mean);
    let _ = t.write_csv(&run.dir.join("replay_spans.csv"));
    Ok(())
}

/// One request's daemon-side work: read, parse, resolve the graph, key,
/// look up (planning on a miss), serialize, write.
#[allow(clippy::too_many_arguments)]
fn replay_one(
    t: &mut Tracer,
    id: u64,
    stream: &mut TcpStream,
    pl: &PowerLens<'_>,
    mem: &MemTier,
    platform: &Platform,
    tenant: &str,
) -> Result<PlanShape, String> {
    let raw = t
        .span("serve.http_read", id, |_| http::read_request(stream))
        .map_err(|e| e.to_string())?;
    let req: PlanRequest = t
        .span("serve.parse", id, |_| serde_json::from_str(&raw.body))
        .map_err(|e| e.to_string())?;
    let graph = match (&req.manifest, &req.model) {
        (Some(m), _) => {
            t.span("ingest.import_value", id, |_| {
                powerlens_ingest::import_value(m)
            })
            .map_err(|e| e.to_string())?
            .graph
        }
        (None, Some(name)) => t
            .span("dnn.graph_build", id, |_| zoo::by_name(name))
            .ok_or("unknown model")?,
        (None, None) => return Err("request names no model".to_string()),
    };
    t.span("dnn.fingerprint", id, |_| graph.fingerprint());
    // The daemon builds a planner per request; its context hash is part of
    // the key computation.
    let pl_req = powerlens_serve::ops::make_planner(platform, reference::BATCH, None);
    let key = t.span("store.key", id, |_| {
        cache_key_for(&pl_req, &graph, Some(tenant))
    });
    let outcome = match t.span("store.mem_lookup", id, |_| mem.get(key.0)) {
        Some(o) => o,
        None => {
            let o = staged_plan_oracle(t, id, pl, &graph)?;
            t.span("store.mem_insert", id, |_| mem.insert(key.0, o.clone()));
            o
        }
    };
    let body = t.span("serve.serialize", id, |_| {
        serde_json::to_string(&PlanResponse {
            model: graph.name().to_string(),
            platform: "agx".to_string(),
            batch: reference::BATCH,
            tenant: tenant.to_string(),
            cached: true,
            degraded: false,
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
        })
    });
    let body = body.map_err(|e| e.to_string())?;
    t.span("serve.http_write", id, |_| {
        http::write_response(stream, 200, "application/json", &body)
    })
    .map_err(|e| e.to_string())?;
    Ok(PlanShape::of(&outcome))
}
