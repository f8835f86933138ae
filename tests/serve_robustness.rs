//! Acceptance gate for the query server (DESIGN.md §7.8): every leg of the
//! admission → deadline → retry → breaker → degrade pipeline, exercised
//! over real loopback TCP against a real `Server`.
//!
//! The chaos harness (`indigo-exp serve --chaos`) stresses the same
//! pipeline under concurrency and randomized interleavings; these tests
//! pin each behavior down deterministically, one at a time.

#![cfg(target_os = "linux")] // serving is Linux-only (epoll transport)

use indigo_serve::client::{self, ClientResponse};
use indigo_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

fn get(addr: SocketAddr, target: &str) -> ClientResponse {
    client::get(addr, target, TIMEOUT).expect("request must be answered")
}

fn chaos_cfg() -> ServerConfig {
    ServerConfig {
        allow_fault_param: true,
        ..ServerConfig::default()
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("indigo-serve-it-{}-{name}", std::process::id()))
}

#[test]
fn health_stats_and_unknown_routes_answer_structured_json() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let health = get(addr, "/health");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"queue_depth\""), "{}", health.body);
    assert!(health.body.contains("\"breakers\""), "{}", health.body);

    let stats = get(addr, "/stats");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"requests\""), "{}", stats.body);

    let missing = get(addr, "/nope");
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"status\""), "{}", missing.body);

    let bad = get(addr, "/run?algo=quantum&graph=2d-grid");
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("unknown algo"), "{}", bad.body);

    // fault injection must be rejected outside chaos mode
    let fault = get(addr, "/run?algo=tc&graph=2d-grid&fault=panic");
    assert_eq!(fault.status, 400);
    assert!(fault.body.contains("chaos mode only"), "{}", fault.body);
}

#[test]
fn clean_queries_answer_and_repeat_queries_hit_the_cache() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();

    let first = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(first.status, 200, "{}", first.body);
    assert!(first.body.contains("\"cached\":false"), "{}", first.body);
    assert!(first.body.contains("\"geps_bits\""), "{}", first.body);

    let again = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(again.status, 200);
    assert!(again.body.contains("\"cached\":true"), "{}", again.body);

    let snap = server.stats();
    assert_eq!(snap.cache_hits, 1);

    // a sweep over the same (algo, graph) reuses the baseline's cells and
    // reports a best variant
    let sweep = get(addr, "/sweep?algo=tc&graph=2d-grid&scale=tiny&limit=3");
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    assert!(sweep.body.contains("\"best_variant\""), "{}", sweep.body);
}

#[test]
fn transient_fault_is_retried_within_the_deadline() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    // the first attempt panics, the retry runs clean
    let r = get(
        addr,
        "/run?algo=cc&graph=rmat&scale=tiny&fault=panic&fault_attempts=1",
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(r.body.contains("\"attempts\":2"), "{}", r.body);
    assert!(server.stats().retries >= 1);
}

#[test]
fn persistent_stall_exhausts_the_deadline_as_a_structured_504() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    let r = get(
        addr,
        "/run?algo=bfs&graph=copapers&scale=tiny&deadline_ms=400&fault=stall&fault_attempts=9",
    );
    assert_eq!(r.status, 504, "{}", r.body);
    assert!(r.body.contains("\"status\":\"timeout\""), "{}", r.body);
    assert!(server.stats().timeouts >= 1);
}

#[test]
fn wrong_answers_are_permanent_failures_not_retried() {
    let server = Server::start(chaos_cfg()).unwrap();
    let addr = server.addr();

    // fault_attempts high enough that a retry *would* fault again: the 500
    // must come from quarantine after attempt 1, not retry exhaustion
    let r = get(
        addr,
        "/run?algo=tc&graph=soc-net&scale=tiny&fault=corrupt&fault_attempts=9",
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(r.body.contains("wrong answer"), "{}", r.body);
    assert!(r.body.contains("\"attempts\":1"), "{}", r.body);
    assert_eq!(server.stats().retries, 0);

    // verification stays live on a warm input: a clean run leaves the
    // serial reference memoized in the shard's resident input, and a
    // corrupted cell of the same (algo, graph) is still caught against it
    let clean = get(addr, "/run?algo=tc&graph=soc-net&scale=tiny");
    assert_eq!(clean.status, 200, "{}", clean.body);
    let r = get(
        addr,
        "/run?algo=tc&graph=soc-net&scale=tiny&reps=2&fault=corrupt&fault_attempts=9",
    );
    assert_eq!(r.status, 500, "{}", r.body);
    assert!(r.body.contains("wrong answer (quarantined)"), "{}", r.body);
    assert!(r.body.contains("\"attempts\":1"), "{}", r.body);
    assert_eq!(server.stats().retries, 0);
}

#[test]
fn breaker_trips_to_degraded_answers_and_recovers_after_cooldown() {
    let mut cfg = chaos_cfg();
    cfg.breaker.threshold = 2;
    cfg.breaker.cooldown = Duration::from_millis(200);
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // two consecutive permanently-failing requests trip the road shard
    for _ in 0..2 {
        let r = get(
            addr,
            "/run?algo=bfs&graph=road&scale=tiny&fault=panic&fault_attempts=9",
        );
        assert_eq!(r.status, 500, "{}", r.body);
    }
    assert_eq!(server.stats().breaker_trips, 1);

    // open breaker: a clean query gets a degraded serial-oracle answer
    // immediately — not an error, and with Retry-After advice
    let d = get(addr, "/run?algo=bfs&graph=road&scale=tiny");
    assert_eq!(d.status, 200, "{}", d.body);
    assert!(d.body.contains("\"degraded\":true"), "{}", d.body);
    assert!(d.body.contains("\"serial-bfs\""), "{}", d.body);
    assert!(d.retry_after.is_some());

    // other shards are unaffected
    let ok = get(addr, "/run?algo=tc&graph=2d-grid&scale=tiny");
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert!(ok.body.contains("\"degraded\":false"), "{}", ok.body);

    // after the cooldown a half-open probe runs for real and recovers
    std::thread::sleep(Duration::from_millis(250));
    let mut recovered = false;
    for _ in 0..20 {
        let r = get(addr, "/run?algo=bfs&graph=road&scale=tiny");
        if r.status == 200 && r.body.contains("\"degraded\":false") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(recovered, "breaker never recovered");
    assert_eq!(server.stats().breaker_recoveries, 1);
}

#[test]
fn overload_is_shed_with_429_and_retry_after() {
    let mut cfg = chaos_cfg();
    cfg.workers = 1;
    cfg.queue = 1;
    let server = Server::start(cfg).unwrap();
    let addr = server.addr();

    // pin the only worker with a stalled request, then burst
    let pinner = std::thread::spawn(move || {
        client::get(
            addr,
            "/run?algo=cc&graph=soc-net&scale=tiny&deadline_ms=800&fault=stall&fault_attempts=9",
            TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    // the burst must be concurrent: a sequential client would just park in
    // the queue slot and wait the pinner out instead of overflowing it
    let responses: Vec<ClientResponse> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|_| s.spawn(move || get(addr, "/health")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut sheds = 0;
    for r in &responses {
        if r.status == 429 {
            assert!(r.retry_after.is_some(), "{}", r.body);
            assert!(r.body.contains("\"status\":\"shed\""), "{}", r.body);
            sheds += 1;
        }
    }
    assert!(sheds >= 1, "burst of 6 against a full queue shed nothing");
    assert_eq!(server.stats().shed, sheds);
    let pinned = pinner
        .join()
        .unwrap()
        .expect("pinned request still answered");
    assert_eq!(pinned.status, 504, "{}", pinned.body);
}

#[test]
fn restart_replays_the_journal_bit_exact() {
    let journal = tmp("restart.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    };

    let (fp, bits) = {
        let server = Server::start(cfg.clone()).unwrap();
        let r = get(server.addr(), "/run?algo=mis&graph=rmat&scale=tiny");
        assert_eq!(r.status, 200, "{}", r.body);
        (
            extract(&r.body, "\"fp\":\""),
            extract(&r.body, "\"geps_bits\":\""),
        )
        // server drops here: crash-only — no flush step, no shutdown protocol
    };

    let server = Server::start(cfg).unwrap();
    assert!(server.recovered_cells() >= 1);
    let r = get(server.addr(), &format!("/cell?fp={fp}"));
    assert_eq!(r.status, 200, "{}", r.body);
    assert!(
        r.body.contains(&format!("\"geps_bits\":\"{bits}\"")),
        "bits changed across restart: {}",
        r.body
    );

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn second_server_on_the_same_journal_fails_fast() {
    let journal = tmp("locked.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = ServerConfig {
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    };
    let _holder = Server::start(cfg.clone()).unwrap();
    let err = match Server::start(cfg) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("two servers must not share a journal"),
    };
    assert!(err.contains("locked"), "{err}");
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn concurrent_clients_answer_bit_identically_to_one_sequential_client() {
    use std::collections::HashMap;

    // loaded server: four concurrent clients, so requests coalesce onto
    // each other's flights and queue behind each other's plans on warm
    // inputs; reference server: one client, one request at a time
    let busy = Server::start(chaos_cfg()).unwrap();
    let quiet = Server::start(chaos_cfg()).unwrap();

    // overlapping /run + /sweep mix: same cells appear in multiple queries,
    // so claims split across requests and later plans replan the remainder
    let targets = [
        "/run?algo=tc&graph=2d-grid&scale=tiny",
        "/run?algo=bfs&graph=2d-grid&scale=tiny",
        "/run?algo=cc&graph=rmat&scale=tiny",
        "/sweep?algo=tc&graph=2d-grid&scale=tiny&limit=3",
        "/sweep?algo=bfs&graph=rmat&scale=tiny&limit=3",
        "/run?algo=pr&graph=copapers&scale=tiny",
    ];
    let collect = |addr: SocketAddr, clients: usize| -> HashMap<String, String> {
        let merged = std::sync::Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for offset in 0..clients {
                let merged = &merged;
                s.spawn(move || {
                    let mut conn = client::Client::new(addr, TIMEOUT);
                    for i in 0..targets.len() {
                        let t = targets[(i + offset) % targets.len()];
                        let r = conn.get(t).expect("request must be answered");
                        assert_eq!(r.status, 200, "{t}: {}", r.body);
                        let mut m = merged.lock().unwrap();
                        for (fp, bits) in cells_of(&r.body) {
                            if let Some(prev) = m.insert(fp.clone(), bits.clone()) {
                                assert_eq!(prev, bits, "fp {fp} answered two ways");
                            }
                        }
                    }
                });
            }
        });
        merged.into_inner().unwrap()
    };
    let concurrent = collect(busy.addr(), 4);
    let sequential = collect(quiet.addr(), 1);
    assert!(!concurrent.is_empty());
    assert_eq!(concurrent.len(), sequential.len(), "cell sets diverged");
    for (fp, bits) in &concurrent {
        assert_eq!(
            Some(bits),
            sequential.get(fp),
            "fp {fp}: concurrent and sequential bits differ"
        );
    }

    // hit leg: every target again, now answered from the cache. Apart from
    // its rid/served_by/timing tail a hit body is a pure function of the
    // query and the cached bits, so the two servers answer byte-for-byte
    // alike, with exactly the bits the computing requests were served
    let head = |body: &str| body[..body.find(",\"rid\":").expect("rid fragment")].to_string();
    for t in targets {
        let hit = get(busy.addr(), t);
        assert_eq!(hit.status, 200, "{t}: {}", hit.body);
        assert!(hit.body.contains("\"cached\":true"), "{t}: {}", hit.body);
        assert_eq!(head(&hit.body), head(&get(quiet.addr(), t).body), "{t}");
        let cells = cells_of(&hit.body);
        assert!(!cells.is_empty(), "{t}: {}", hit.body);
        for (fp, bits) in cells {
            assert_eq!(
                Some(&bits),
                concurrent.get(&fp),
                "{t}: fp {fp} changed on a hit"
            );
        }
    }

    // fault leg: a stalled claimer holds the flight while a clean
    // short-deadline waiter coalesces onto it and expires mid-plan —
    // the waiter's 504 must not cancel the shared run, and a later clean
    // request must still produce the sequential server's bits
    let addr = busy.addr();
    let stall = std::thread::spawn(move || {
        client::get(
            addr,
            "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=1500\
             &fault=stall&fault_attempts=9",
            TIMEOUT,
        )
    });
    std::thread::sleep(Duration::from_millis(150));
    let waiter = get(
        addr,
        "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=300",
    );
    assert_eq!(waiter.status, 504, "{}", waiter.body);
    let stalled = stall.join().unwrap().expect("stalled request answered");
    assert_eq!(stalled.status, 504, "{}", stalled.body);
    assert!(busy.stats().coalesced >= 1, "waiter never coalesced");
    let clean = get(
        addr,
        "/run?algo=mis&graph=soc-net&scale=tiny&deadline_ms=8000",
    );
    assert_eq!(clean.status, 200, "{}", clean.body);
    let reference = get(quiet.addr(), "/run?algo=mis&graph=soc-net&scale=tiny");
    assert_eq!(
        extract(&clean.body, "\"geps_bits\":\""),
        extract(&reference.body, "\"geps_bits\":\""),
        "post-fault bits diverged from the sequential server"
    );
}

#[test]
fn concurrent_executors_journal_each_cell_once_and_replay_it_bit_exact() {
    use std::collections::HashMap;
    use std::sync::{Barrier, Mutex};

    // the server runs one plan executor per usable core (at most one per
    // worker); with one core there is no second executor to race
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipped: {cores} usable core(s), so the server runs a single executor");
        return;
    }
    let journal = tmp("executors.jsonl");
    let _ = std::fs::remove_file(&journal);
    let cfg = ServerConfig {
        workers: 2,
        journal: Some(journal.clone()),
        ..ServerConfig::default()
    };
    // two clients, disjoint cold cells: every request claims its own plan
    let lanes: [&[&str]; 2] = [
        &[
            "/run?algo=bfs&graph=road&scale=tiny",
            "/run?algo=cc&graph=2d-grid&scale=tiny",
            "/run?algo=sssp&graph=rmat&scale=tiny",
        ],
        &[
            "/run?algo=mis&graph=soc-net&scale=tiny",
            "/run?algo=pr&graph=copapers&scale=tiny",
            "/run?algo=tc&graph=road&scale=tiny",
        ],
    ];
    let computed = {
        let server = Server::start(cfg.clone()).unwrap();
        let addr = server.addr();
        let start = Barrier::new(lanes.len());
        let merged = Mutex::new(HashMap::new());
        std::thread::scope(|s| {
            for lane in lanes {
                let (start, merged) = (&start, &merged);
                s.spawn(move || {
                    let mut conn = client::Client::new(addr, TIMEOUT);
                    start.wait();
                    for t in lane {
                        let r = conn.get(t).expect("request must be answered");
                        assert_eq!(r.status, 200, "{t}: {}", r.body);
                        assert!(r.body.contains("\"cached\":false"), "{t}: {}", r.body);
                        for (fp, bits) in cells_of(&r.body) {
                            let prev = merged.lock().unwrap().insert(fp.clone(), bits);
                            assert!(prev.is_none(), "{t}: fp {fp} computed twice");
                        }
                    }
                });
            }
        });
        merged.into_inner().unwrap()
        // server drops here: its executors are joined before the journal
        // is read
    };
    assert!(computed.len() >= 2 * lanes.len(), "{computed:?}");

    // each computed cell is exactly one whole journal line
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines = text.lines().filter(|l| !l.trim().is_empty()).count();
    assert_eq!(lines, computed.len(), "journal:\n{text}");
    let (entries, skipped) = indigo_harness::journal::load(&journal).unwrap();
    assert_eq!(skipped, 0, "torn journal line:\n{text}");
    for (fp, bits) in &computed {
        let entry = &entries[&u64::from_str_radix(fp, 16).unwrap()];
        assert!(
            matches!(entry.outcome, indigo_harness::journal::JournalOutcome::Ok { geps_bits, .. }
                if format!("{geps_bits:016x}") == *bits),
            "fp {fp}: journaled {:?}, served {bits}",
            entry.outcome
        );
    }

    // a restarted server recovers all of them and serves the same bits
    let server = Server::start(cfg).unwrap();
    assert_eq!(server.recovered_cells(), computed.len());
    for (fp, bits) in &computed {
        let r = get(server.addr(), &format!("/cell?fp={fp}"));
        assert_eq!(r.status, 200, "{}", r.body);
        assert!(r.body.contains("\"cached\":true"), "{}", r.body);
        assert_eq!(extract(&r.body, "\"geps_bits\":\""), *bits, "fp {fp}");
    }
    drop(server);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn pipelined_keep_alive_requests_answer_in_order() {
    use std::io::{Read, Write};

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    // two requests in one write, no Connection header: both must come back
    // on this connection, in order
    stream
        .write_all(
            b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /stats HTTP/1.1\r\nHost: x\r\n\r\n",
        )
        .unwrap();
    let mut raw = Vec::new();
    let mut chunk = [0u8; 1024];
    let deadline = std::time::Instant::now() + TIMEOUT;
    while raw.windows(4).filter(|w| w == b"\r\n\r\n").count() < 2
        && std::time::Instant::now() < deadline
    {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(
        text.matches("HTTP/1.1 200").count(),
        2,
        "expected two 200s on one connection: {text}"
    );
    let first = text.find("\"queue_depth\"").expect("health body first");
    let second = text.find("\"requests\"").expect("stats body second");
    assert!(first < second, "responses out of order: {text}");
    assert!(
        server.stats().keepalive_reuses >= 1,
        "second request was not counted as a keep-alive reuse"
    );
}

#[test]
fn slow_header_connections_are_reaped() {
    use std::io::{Read, Write};

    let cfg = ServerConfig {
        header_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /heal").unwrap(); // never finishes the head
    let started = std::time::Instant::now();
    let mut buf = [0u8; 64];
    // the server must close us without an answer, and promptly
    let n = loop {
        match stream.read(&mut buf) {
            Ok(n) => break n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("expected EOF from the reaped connection, got {e}"),
        }
    };
    assert_eq!(n, 0, "reaped connection should EOF without a response");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slow-header reap took {:?}",
        started.elapsed()
    );
}

#[test]
fn oversized_request_head_is_refused_counted_and_recorded() {
    use std::io::{Read, Write};

    let server = Server::start(ServerConfig::default()).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    // one byte past the 8 KiB head limit, never a terminator
    stream.write_all(&[b'a'; 8 * 1024 + 1]).unwrap();
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .expect("the server answers, then closes");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 400"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");
    let rid = text
        .lines()
        .find_map(|l| l.strip_prefix("X-Request-Id: "))
        .unwrap_or_else(|| panic!("no X-Request-Id: {text}"))
        .trim()
        .to_string();
    assert!(text.contains("request head exceeds 8192 bytes"), "{text}");

    let stats = get(server.addr(), "/stats");
    assert!(stats.body.contains("\"bad_requests\":1,"), "{}", stats.body);
    let rec = get(server.addr(), "/debug/flightrec");
    let entry = rec
        .body
        .split("{\"seq\":")
        .find(|r| r.contains(&format!("\"id\":\"{rid}\"")))
        .unwrap_or_else(|| panic!("no flight record for {rid}: {}", rec.body));
    assert!(entry.contains("\"target\":\"<unparsed>\""), "{entry}");
    assert!(entry.contains("\"status\":400"), "{entry}");
}

/// Every `(fp, geps_bits)` pair in a success body.
fn cells_of(body: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(i) = rest.find("\"fp\":\"") {
        let fp_start = &rest[i + 6..];
        let Some(fp_end) = fp_start.find('"') else {
            break;
        };
        let fp = fp_start[..fp_end].to_string();
        rest = &fp_start[fp_end..];
        let Some(j) = rest.find("\"geps_bits\":\"") else {
            continue;
        };
        let gb_start = &rest[j + 13..];
        let Some(gb_end) = gb_start.find('"') else {
            break;
        };
        out.push((fp, gb_start[..gb_end].to_string()));
        rest = &gb_start[gb_end..];
    }
    out
}

/// First occurrence of `"key":"<value>"` in a body.
fn extract(body: &str, prefix: &str) -> String {
    let start = body
        .find(prefix)
        .unwrap_or_else(|| panic!("{prefix} not in {body}"))
        + prefix.len();
    body[start..].split('"').next().unwrap().to_string()
}
