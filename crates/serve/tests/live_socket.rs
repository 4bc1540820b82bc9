//! Drives a live daemon over real TCP sockets: concurrent mixed traffic,
//! cache warm-up across requests, overload shedding, and clean shutdown.
//!
//! The obs registry is process-global and shared across parallel tests,
//! so all counter assertions here are on *deltas* between two `/metrics`
//! scrapes, never on absolute values.

use std::net::{Ipv4Addr, SocketAddr};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use powerlens_serve::http::request;
use powerlens_serve::{ServeConfig, ServeReport, Server};
use serde::Value;

/// Binds a daemon with `cfg`, runs it on a background thread, and returns
/// its address plus the join handle that yields the final report.
fn spawn_daemon(cfg: ServeConfig) -> (String, thread::JoinHandle<ServeReport>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run().expect("run"));
    (addr, handle)
}

fn metric(metrics_body: &str, name: &str) -> Option<f64> {
    metrics_body.lines().find_map(|line| {
        let (n, v) = line.split_once(' ')?;
        (n == name).then(|| v.parse().ok())?
    })
}

fn field<'v>(v: &'v Value, name: &str) -> &'v Value {
    v.field(name)
        .unwrap_or_else(|_| panic!("missing field {name}"))
}

#[test]
fn serves_concurrent_mixed_traffic_with_cache_reuse_and_clean_shutdown() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 4,
        queue_depth: 64,
        batch: 4,
        images: 8,
        ..ServeConfig::default()
    });

    let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(status, 200, "healthz: {body}");

    // Nine concurrent clients mixing the three POST endpoints.
    let kinds = [
        ("/plan", r#"{"model": "alexnet", "tenant": "mix-a"}"#),
        ("/compare", r#"{"model": "alexnet", "tenant": "mix-b"}"#),
        ("/lint", r#"{"model": "alexnet"}"#),
    ];
    thread::scope(|s| {
        let handles: Vec<_> = (0..9)
            .map(|i| {
                let (path, body) = kinds[i % kinds.len()];
                let addr = addr.clone();
                s.spawn(move || request(&addr, "POST", path, body).unwrap())
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200, "client {i} ({}): {body}", kinds[i % 3].0);
            let v: Value = serde_json::from_str(&body).unwrap();
            match i % 3 {
                0 => assert!(matches!(field(&v, "points"), Value::Array(a) if !a.is_empty())),
                1 => assert!(matches!(field(&v, "rows"), Value::Array(a) if a.len() >= 4)),
                _ => assert_eq!(field(&v, "errors"), &Value::Num(0.0)),
            }
        }
    });

    // Cold plan, then the identical request again: the second must be a
    // store hit (flagged on the response, visible in /metrics, and warmer
    // than the cold one). A unique tenant isolates this from other tests.
    let tenant_req = r#"{"model": "mobilenet_v3", "tenant": "warmth-probe"}"#;
    let (_, before) = request(&addr, "GET", "/metrics", "").unwrap();
    let hits_before = metric(&before, "store.hits").unwrap_or(0.0);

    let t0 = Instant::now();
    let (status, cold_body) = request(&addr, "POST", "/plan", tenant_req).unwrap();
    let cold = t0.elapsed();
    assert_eq!(status, 200, "{cold_body}");
    let cold_v: Value = serde_json::from_str(&cold_body).unwrap();
    assert_eq!(field(&cold_v, "cached"), &Value::Bool(false));
    assert_eq!(field(&cold_v, "degraded"), &Value::Bool(false));

    let t1 = Instant::now();
    let (status, warm_body) = request(&addr, "POST", "/plan", tenant_req).unwrap();
    let warm = t1.elapsed();
    assert_eq!(status, 200);
    let warm_v: Value = serde_json::from_str(&warm_body).unwrap();
    assert_eq!(field(&warm_v, "cached"), &Value::Bool(true));
    assert_eq!(field(&warm_v, "points"), field(&cold_v, "points"));
    assert!(
        warm < cold,
        "warm request ({warm:?}) should beat the cold one ({cold:?})"
    );

    // A tenant that looked up once and never came back: exactly the
    // zero-completion shape whose hit rate used to render as NaN.
    let (status, _) = request(
        &addr,
        "POST",
        "/plan",
        r#"{"model": "alexnet", "tenant": "one-shot-probe"}"#,
    )
    .unwrap();
    assert_eq!(status, 200);

    let (_, after) = request(&addr, "GET", "/metrics", "").unwrap();
    let hits_after = metric(&after, "store.hits").unwrap_or(0.0);
    assert!(
        hits_after >= hits_before + 1.0,
        "store.hits {hits_before} -> {hits_after}: warm request must register a hit"
    );
    assert!(metric(&after, "serve.requests").unwrap_or(0.0) >= 1.0);
    assert!(metric(&after, "store.tenant.warmth-probe.hits") >= Some(1.0));

    // Derived hit rates are present, guarded, and finite: the global rate
    // sits in [0, 1], the warm tenant's reflects its 1 miss + 1 hit, and
    // the one-shot tenant (a lookup but no second visit) reads exactly 0
    // rather than dividing by zero.
    let global_rate = metric(&after, "store.hit_rate").expect("store.hit_rate row");
    assert!((0.0..=1.0).contains(&global_rate), "{global_rate}");
    let warm_rate =
        metric(&after, "store.tenant.warmth-probe.hit_rate").expect("tenant hit_rate row");
    assert!(warm_rate.is_finite() && warm_rate > 0.0, "{warm_rate}");
    let one_shot = metric(&after, "store.tenant.one-shot-probe.hit_rate")
        .expect("one-shot tenant hit_rate row");
    assert_eq!(one_shot, 0.0, "miss-only tenant rate must be 0, not NaN");

    // The hybrid ladder counters are scrapeable before any hybrid run.
    for name in [
        "hybrid.drift_detected",
        "hybrid.nudges",
        "hybrid.replans",
        "hybrid.replan_throttled",
    ] {
        let v = metric(&after, name).unwrap_or_else(|| panic!("missing {name} row"));
        assert!(v >= 0.0);
    }
    // Every /metrics line is `name <finite float>` — no NaN leaks anywhere.
    for line in after.lines() {
        let (name, value) = line.split_once(' ').expect("name value");
        let parsed: f64 = value.parse().unwrap_or_else(|_| panic!("{name}: {value}"));
        assert!(parsed.is_finite(), "{name} rendered non-finite: {value}");
    }

    // Opting into the hybrid row grows the compare line-up by one.
    let (status, body) = request(
        &addr,
        "POST",
        "/compare",
        r#"{"model": "alexnet", "hybrid": true}"#,
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");
    let v: Value = serde_json::from_str(&body).unwrap();
    let Value::Array(rows) = field(&v, "rows") else {
        panic!("rows must be an array")
    };
    assert_eq!(rows.len(), 5, "powerlens + hybrid + three baselines");
    let methods: Vec<String> = rows
        .iter()
        .map(|r| format!("{:?}", field(r, "method")))
        .collect();
    assert!(methods.iter().any(|m| m.contains("hybrid(")), "{methods:?}");

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let report = handle.join().unwrap();
    // healthz + 9 mixed + 2 metrics scrapes + cold + warm + shutdown
    assert!(
        report.requests >= 15,
        "expected >= 15 handled requests, got {}",
        report.requests
    );
}

#[test]
fn inline_manifests_plan_through_the_ingest_gate() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 2,
        batch: 4,
        ..ServeConfig::default()
    });

    // A zoo graph posted as an inline manifest plans end to end, and the
    // identical manifest again is a cache hit: the store keys on the
    // imported graph's content fingerprint, not on a name lookup.
    let exported = powerlens_ingest::export(&powerlens_dnn::zoo::by_name("alexnet").unwrap());
    let body = format!(r#"{{"manifest": {exported}, "tenant": "ingest-probe"}}"#);
    let (status, cold_body) = request(&addr, "POST", "/plan", &body).unwrap();
    assert_eq!(status, 200, "{cold_body}");
    let cold: Value = serde_json::from_str(&cold_body).unwrap();
    assert_eq!(field(&cold, "model"), &Value::Str("alexnet".into()));
    assert_eq!(field(&cold, "cached"), &Value::Bool(false));
    assert!(matches!(field(&cold, "points"), Value::Array(a) if !a.is_empty()));

    let (status, warm_body) = request(&addr, "POST", "/plan", &body).unwrap();
    assert_eq!(status, 200);
    let warm: Value = serde_json::from_str(&warm_body).unwrap();
    assert_eq!(field(&warm, "cached"), &Value::Bool(true));
    assert_eq!(field(&warm, "points"), field(&cold, "points"));

    // A manifest with an unknown op is refused with its PL code in the
    // error body, and naming a model besides the manifest is ambiguous.
    let bad = r#"{"manifest": {"schema_version": 1, "name": "junk",
        "input": {"kind": "chw", "dims": [3, 32, 32]},
        "nodes": [{"op": "warp_drive", "attrs": {}}]}}"#;
    let (status, body) = request(&addr, "POST", "/plan", bad).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("PL702"), "{body}");

    let both = format!(r#"{{"model": "alexnet", "manifest": {exported}}}"#);
    let (status, body) = request(&addr, "POST", "/plan", &both).unwrap();
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("not both"), "{body}");

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn deeply_nested_bodies_are_refused_without_killing_the_daemon() {
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });

    // One worker: a request that kills it leaves nothing to answer the
    // next one, so every body here must be refused and `/healthz` must
    // still answer after each.
    let nested = "[".repeat(20_000);
    let bodies = [
        ("/plan", nested.as_str()),
        ("/plan", r#"{"model": "alexnet", "batch": 0}"#),
        ("/compare", r#"{"model": "alexnet", "batch": 0}"#),
        (
            "/compare",
            r#"{"model": "alexnet", "tasks": 1152921504606846976}"#,
        ),
        ("/compare", r#"{"model": "alexnet", "images": 0}"#),
        // One past the cap: a larger value would take the daemon down
        // wherever the cap is missing, instead of failing this assertion.
        ("/compare", r#"{"model": "alexnet", "images": 513}"#),
    ];
    for (path, body) in bodies {
        let (status, resp) = request(&addr, "POST", path, body).unwrap();
        assert_eq!(status, 400, "{path}: {resp}");
        let (status, _) = request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 200, "the daemon survives the request to {path}");
    }

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    handle.join().unwrap();
}

#[test]
fn bind_refuses_a_default_image_count_compare_would_refuse() {
    for images in [0, 513] {
        let refused = Server::bind(ServeConfig {
            images,
            ..ServeConfig::default()
        })
        .err()
        .unwrap_or_else(|| panic!("bind accepted images = {images}"));
        assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
    }
}

#[test]
fn overload_degrades_or_sheds_instead_of_hanging() {
    // One worker and a 2-deep queue: a burst of 8 slow planning requests
    // (distinct tenants force real cache misses) must overflow admission.
    let (addr, handle) = spawn_daemon(ServeConfig {
        workers: 1,
        queue_depth: 2,
        batch: 4,
        ..ServeConfig::default()
    });

    let responses: Vec<(u16, String)> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                s.spawn(move || {
                    let body = format!(r#"{{"model": "resnet34", "tenant": "burst-{i}"}}"#);
                    request(&addr, "POST", "/plan", &body).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut shed = 0u64;
    let mut degraded = 0u64;
    let mut full = 0u64;
    for (status, body) in &responses {
        match status {
            429 => shed += 1,
            200 => {
                let v: Value = serde_json::from_str(body).unwrap();
                if field(&v, "degraded") == &Value::Bool(true) {
                    degraded += 1;
                } else {
                    full += 1;
                }
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(shed + degraded + full, 8, "every client got an answer");
    assert!(
        shed + degraded >= 1,
        "a 1-worker/2-deep daemon must shed or degrade under an 8-burst \
         (shed={shed} degraded={degraded} full={full})"
    );

    let (status, _) = request(&addr, "POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200);
    let report = handle.join().unwrap();
    assert_eq!(
        shed, report.rejected,
        "shed responses and the report must agree"
    );
    assert!(report.degraded >= degraded.min(1));
}

#[test]
fn shutdown_wakes_the_blocking_accept_without_other_traffic() {
    // 0.0.0.0 is not a portable destination, so a wildcard bind must
    // wake its accept loop through loopback.
    for bind in ["127.0.0.1", "0.0.0.0"] {
        let server = Server::bind(ServeConfig {
            addr: bind.to_string(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut addr: SocketAddr = server.local_addr().parse().unwrap();
        addr.set_ip(Ipv4Addr::LOCALHOST.into());
        let (done, finished) = mpsc::channel();
        let handle = thread::spawn(move || {
            let report = server.run();
            let _ = done.send(());
            report
        });

        let (status, _) = request(&addr.to_string(), "POST", "/shutdown", "").unwrap();
        assert_eq!(status, 200);
        finished
            .recv_timeout(Duration::from_secs(2))
            .unwrap_or_else(|_| panic!("run did not return within 2 s of /shutdown on {bind}"));
        let report = handle.join().unwrap().expect("run");
        assert_eq!(report.requests, 1, "only the /shutdown request was served");
    }
}
