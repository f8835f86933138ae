//! Acceptance gate for request-scoped serving observability (DESIGN.md
//! §7.10): request IDs survive the full admission → coalescing → batch →
//! response path, stage latency attribution is self-consistent, the
//! `/metrics` exposition agrees with `/stats`, and a 5xx leaves a flight
//! recorder dump naming the failing request.

#![cfg(target_os = "linux")] // serving is Linux-only (epoll transport)

use indigo_serve::client::{self, Client};
use indigo_serve::{Server, ServerConfig};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// First integer after `"key":` in a response body.
fn body_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = body
        .find(&pat)
        .unwrap_or_else(|| panic!("{pat} not in {body}"))
        + pat.len();
    let rest = &body[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("{pat} not numeric in {body}"))
}

#[test]
fn every_batched_waiter_gets_its_own_request_id_and_timing() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // overlapping /run + /sweep mix so requests coalesce and queue for the
    // executor while every client carries its own ID
    let targets = [
        "/run?algo=tc&graph=2d-grid&scale=tiny",
        "/run?algo=bfs&graph=2d-grid&scale=tiny",
        "/sweep?algo=tc&graph=2d-grid&scale=tiny&limit=3",
        "/run?algo=cc&graph=rmat&scale=tiny",
    ];
    std::thread::scope(|s| {
        for t in 0..4usize {
            s.spawn(move || {
                let mut conn = Client::new(addr, TIMEOUT);
                for i in 0..targets.len() {
                    let target = targets[(i + t) % targets.len()];
                    let id = format!("client-{t}-{i}");
                    let r = conn
                        .get_with_id(target, Some(&id))
                        .expect("request must be answered");
                    assert_eq!(r.status, 200, "{target}: {}", r.body);
                    // the client's ID comes back on the header AND in the body
                    assert_eq!(r.request_id.as_deref(), Some(id.as_str()), "{target}");
                    assert!(
                        r.body.contains(&format!("\"rid\":\"{id}\"")),
                        "{target}: {}",
                        r.body
                    );
                    assert!(r.body.contains("\"served_by\":"), "{}", r.body);
                    // stage attribution must be self-consistent: queue +
                    // execute account for the whole request, minus only the
                    // microseconds between stamping and serialization
                    let queue = body_u64(&r.body, "queue_us");
                    let execute = body_u64(&r.body, "execute_us");
                    let total = body_u64(&r.body, "total_us");
                    let batch_wait = body_u64(&r.body, "batch_wait_us");
                    assert!(
                        queue + execute <= total,
                        "stages exceed total in {}",
                        r.body
                    );
                    assert!(
                        total - (queue + execute) < 5_000,
                        "stages leave >5ms unattributed in {}",
                        r.body
                    );
                    // batch wait happens inside execution, never outside it
                    assert!(
                        batch_wait <= execute + 5_000,
                        "batch wait exceeds execution in {}",
                        r.body
                    );
                }
            });
        }
    });

    // a client that sends no ID still gets a server-assigned one (16 hex)
    let anon = client::get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny", TIMEOUT).unwrap();
    let rid = anon.request_id.expect("server must assign an ID");
    assert_eq!(rid.len(), 16, "server-assigned ID should be 16 hex: {rid}");
    assert!(rid.chars().all(|c| c.is_ascii_hexdigit()), "{rid}");
    assert!(anon.body.contains(&format!("\"rid\":\"{rid}\"")));

    // non-JSON-splice routes still echo the header
    let health = client::get(addr, "/health", TIMEOUT).unwrap();
    assert!(health.request_id.is_some(), "health lost the ID echo");
}

#[test]
fn metrics_exposition_is_valid_and_agrees_with_stats() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    // traffic: one miss, two cache hits, one 404
    for _ in 0..3 {
        let r = client::get(addr, "/run?algo=pr&graph=rmat&scale=tiny", TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
    }
    let _ = client::get(addr, "/nope", TIMEOUT).unwrap();

    let stats = client::get(addr, "/stats", TIMEOUT).unwrap();
    let metrics = client::get(addr, "/metrics", TIMEOUT).unwrap();
    assert_eq!(metrics.status, 200);
    let series = indigo_serve::metrics::validate_exposition(&metrics.body)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{}", metrics.body));
    assert!(
        series > 20,
        "suspiciously small exposition: {series} series"
    );

    // the serve-family samples are rendered from the same coherent
    // snapshot /stats uses; the two scrapes can only disagree on counters
    // the scrapes themselves bump (requests, ok) — not on these
    for key in ["cache_hits", "shed", "breaker_trips", "coalesced"] {
        let from_stats = body_u64(&stats.body, key);
        let name = format!("indigo_serve_{key}_total");
        let line = metrics
            .body
            .lines()
            .find(|l| l.starts_with(&format!("{name} ")))
            .unwrap_or_else(|| panic!("{name} missing from exposition"));
        let from_metrics: u64 = line.split(' ').nth(1).unwrap().parse().unwrap();
        assert_eq!(from_metrics, from_stats, "{name} drifted from /stats");
    }
    assert!(metrics.body.contains("indigo_serve_cache_hits_total 2"));

    // gauges and rolling-window summaries are present
    for name in [
        "indigo_serve_queue_depth",
        "indigo_serve_live_flights",
        "indigo_serve_rolling_p99_us",
        "indigo_serve_slo_burn_rate",
    ] {
        assert!(
            metrics.body.contains(name),
            "{name} missing from exposition"
        );
    }
}

#[test]
fn forced_5xx_dumps_a_flight_record_naming_the_request() {
    let dir = std::env::temp_dir().join(format!("indigo-flightrec-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        allow_fault_param: true,
        flightrec_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // a healthy request first, so the dump shows context before the crash
    let ok = client::get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny", TIMEOUT).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    // wrong-answer fault: permanent 500 with a caller-chosen ID
    let mut conn = Client::new(addr, TIMEOUT);
    let doomed = conn
        .get_with_id(
            "/run?algo=tc&graph=soc-net&scale=tiny&fault=corrupt&fault_attempts=9",
            Some("doomed-req-1"),
        )
        .unwrap();
    assert_eq!(doomed.status, 500, "{}", doomed.body);
    assert_eq!(doomed.request_id.as_deref(), Some("doomed-req-1"));

    // the 5xx triggered a dump: find it and check the trigger line carries
    // the failing request's ID and its stage timeline
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name();
            let n = n.to_string_lossy();
            n.starts_with("FLIGHT_") && n.ends_with(".jsonl")
        })
        .collect();
    assert_eq!(dumps.len(), 1, "expected exactly one dump in {dir:?}");
    let text = std::fs::read_to_string(dumps[0].path()).unwrap();
    let trigger = text
        .lines()
        .find(|l| l.contains("\"trigger\":true"))
        .unwrap_or_else(|| panic!("no trigger line in dump:\n{text}"));
    assert!(trigger.contains("\"id\":\"doomed-req-1\""), "{trigger}");
    assert!(trigger.contains("\"status\":500"), "{trigger}");
    assert!(trigger.contains("\"outcome\":\"quarantined\""), "{trigger}");
    assert!(trigger.contains("\"stages\":{\"queue_us\":"), "{trigger}");
    assert!(trigger.contains("\"execute_us\":"), "{trigger}");
    // the healthy request is in the same dump as context
    assert!(text.contains("\"status\":200"), "{text}");

    // the live ring is inspectable on demand too
    let rec = client::get(addr, "/debug/flightrec", TIMEOUT).unwrap();
    assert_eq!(rec.status, 200);
    assert!(rec.body.contains("\"records\":["), "{}", rec.body);
    assert!(rec.body.contains("doomed-req-1"), "{}", rec.body);
    assert!(rec.body.contains("\"dumps_written\":1"), "{}", rec.body);

    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
