//! Chaos harness: synthetic multi-client traffic against an in-process
//! server, with injected faults, and hard invariants (DESIGN.md §7.8).
//!
//! Six phases, each exercising one leg of the robustness pipeline:
//!
//! 1. **baseline** — clean mixed traffic, repeated queries → cache hits;
//! 2. **storm** — every Nth request carries a transient injected fault;
//! 3. **breaker** — one shard is failed until its breaker trips, degraded
//!    answers are observed, then recovery via a half-open probe;
//! 4. **saturation** — stalled requests pin the worker pool while a burst
//!    overflows the admission queue → load shedding;
//! 5. **throughput** — cached-query requests per second, then the style
//!    advisor: `/advise` must name a variant and `style=auto` on `/run`
//!    must answer bit-identically to requesting that variant explicitly;
//! 6. **restart** — the server is torn down and restarted on the same
//!    journal; previously served cells must come back bit-exact.
//!
//! The gate: the process never dies, every request gets a structured
//! answer (or a structured shed), client-measured p99 stays within the
//! deadline plus a fixed overhead allowance, and breaker trips/recoveries
//! are observable in the stats.

use crate::client::{self, ClientResponse};
use crate::config::ServerConfig;
use crate::server::Server;
use indigo_harness::CellFaultKind;
use indigo_obs::json_num;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which injected fault the storm phase uses, striking every `every`-th
/// request (the breaker phase always uses `panic` so its invariants stay
/// deterministic).
#[derive(Clone, Copy, Debug)]
pub struct ChaosFault {
    /// Fault kind for storm-phase requests.
    pub kind: CellFaultKind,
    /// Stride: request indices `every, 2·every, …` carry the fault.
    pub every: usize,
}

/// Chaos-run tuning.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// Concurrent synthetic clients in baseline/storm phases.
    pub clients: usize,
    /// Requests per phase (baseline and storm).
    pub requests: usize,
    /// Storm-phase fault; `None` skips the storm phase.
    pub fault: Option<ChaosFault>,
    /// Journal path (required for the restart phase; `None` creates a
    /// scratch journal under the system temp dir).
    pub journal: Option<PathBuf>,
    /// Per-request deadline for the synthetic traffic.
    pub deadline: Duration,
    /// Where the server dumps `FLIGHT_*.jsonl` on 5xx responses (`None`
    /// disables dumping; the in-memory ring stays live).
    pub flightrec_dir: Option<PathBuf>,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions {
            clients: 4,
            requests: 32,
            fault: Some(ChaosFault {
                kind: CellFaultKind::Panic,
                every: 3,
            }),
            journal: None,
            deadline: Duration::from_secs(2),
            flightrec_dir: None,
        }
    }
}

/// What a chaos run produced; `to_json` is the `BENCH_serve.json` schema.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Requests issued by the harness (all phases).
    pub requests: u64,
    /// 2xx responses (degraded included).
    pub ok: u64,
    /// Responses answered from the cache.
    pub cached: u64,
    /// Degraded (breaker-open) responses.
    pub degraded: u64,
    /// 429 sheds.
    pub shed: u64,
    /// 504 deadline exhaustions.
    pub timed_out: u64,
    /// 5xx structured failures.
    pub failed: u64,
    /// Server-side retry count.
    pub retries: u64,
    /// Server-side breaker trips.
    pub breaker_trips: u64,
    /// Server-side breaker recoveries.
    pub breaker_recoveries: u64,
    /// Cells recovered from the journal after the restart phase.
    pub recovered_cells: u64,
    /// Client-measured latency percentiles, milliseconds.
    pub latency_ms: LatencySummary,
    /// Cached-query throughput (phase 5).
    pub saturation_rps: f64,
    /// Samples in the validated `/metrics` exposition (phase 5b).
    pub metrics_series: u64,
    /// Style-advisor answers (`/advise` queries + `style=auto` runs).
    pub advised: u64,
    /// Requests the flight recorder retained over the run.
    pub flight_pushed: u64,
    /// `FLIGHT_*.jsonl` dumps the server wrote (5xx-triggered).
    pub flight_dumps: u64,
    /// Whether the `telemetry` feature was compiled in.
    pub telemetry_enabled: bool,
    /// Echo of the run configuration.
    pub config: String,
}

/// Client-side latency percentiles (exact, from the sorted sample vec).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst request.
    pub max: f64,
}

impl ChaosReport {
    /// Renders the report as the `BENCH_serve.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"schema\": \"bench-serve-v1\",\n  \"requests\": {},\n  \"ok\": {},\n  \
             \"cached\": {},\n  \"degraded\": {},\n  \"shed\": {},\n  \"timed_out\": {},\n  \
             \"failed\": {},\n  \"retries\": {},\n  \"breaker_trips\": {},\n  \
             \"breaker_recoveries\": {},\n  \"recovered_cells\": {},\n  \
             \"latency_ms\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},\n  \
             \"saturation_rps\": {},\n  \"metrics_series\": {},\n  \"advised\": {},\n  \
             \"flight_pushed\": {},\n  \
             \"flight_dumps\": {},\n  \"telemetry_enabled\": {},\n  \"config\": {}\n}}\n",
            self.requests,
            self.ok,
            self.cached,
            self.degraded,
            self.shed,
            self.timed_out,
            self.failed,
            self.retries,
            self.breaker_trips,
            self.breaker_recoveries,
            self.recovered_cells,
            json_num(self.latency_ms.p50),
            json_num(self.latency_ms.p90),
            json_num(self.latency_ms.p99),
            json_num(self.latency_ms.max),
            json_num(self.saturation_rps),
            self.metrics_series,
            self.advised,
            self.flight_pushed,
            self.flight_dumps,
            self.telemetry_enabled,
            indigo_obs::json_str(&self.config),
        )
    }
}

/// Clean traffic mix: (algo, graph) pairs cycled by request index. All
/// tiny-scale so a chaos run stays CI-sized.
const MIX: &[(&str, &str)] = &[
    ("tc", "2d-grid"),
    ("bfs", "copapers"),
    ("cc", "rmat"),
    ("tc", "copapers"),
    ("bfs", "2d-grid"),
];

/// Graph reserved for the breaker phase (kept out of [`MIX`] so baseline
/// and storm traffic can't pollute its breaker state).
const BREAKER_GRAPH: &str = "road";
/// Graph reserved for the saturation phase's worker-pinning stalls.
const PIN_GRAPH: &str = "soc-net";

/// Shared per-request bookkeeping across client threads.
#[derive(Default)]
struct Recorder {
    latencies_us: Mutex<Vec<u64>>,
    transport_errors: AtomicUsize,
    unstructured: AtomicUsize,
    missing_echo: AtomicUsize,
    cells: Mutex<Vec<(String, String)>>, // (fp, geps_bits) pairs served
}

impl Recorder {
    fn observe(&self, r: &std::io::Result<ClientResponse>, started: Instant) {
        match r {
            Ok(resp) => {
                self.latencies_us
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
                if !resp.body.contains("\"status\"") {
                    self.unstructured.fetch_add(1, Ordering::Relaxed);
                }
                if resp.request_id.is_none() {
                    self.missing_echo.fetch_add(1, Ordering::Relaxed);
                }
                let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
                cells.extend(extract_cells(&resp.body));
            }
            Err(_) => {
                self.transport_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// First integer value of `"key":` in a flat JSON body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = body.find(&pat)? + pat.len();
    let rest = body[i..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// First string value of `"key":"…"` in a flat JSON body.
fn json_str(body: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let i = body.find(&pat)? + pat.len();
    let rest = &body[i..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Value of the un-labeled Prometheus sample named exactly `name`.
fn prom_u64(text: &str, name: &str) -> Option<u64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(name) {
            if let Some(v) = rest.strip_prefix(' ') {
                return v.trim().parse().ok();
            }
        }
    }
    None
}

/// Pulls `(fp, geps_bits)` pairs out of a success body.
fn extract_cells(body: &str) -> Vec<(String, String)> {
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

fn clean_target(i: usize, deadline_ms: u64) -> String {
    let (algo, graph) = MIX[i % MIX.len()];
    format!("/run?algo={algo}&graph={graph}&scale=tiny&deadline_ms={deadline_ms}")
}

/// Fans `n` requests across `clients` threads, each holding one keep-alive
/// connection; `target_of(i)` names each request.
fn fan_out<F>(addr: SocketAddr, rec: &Recorder, clients: usize, n: usize, target_of: F)
where
    F: Fn(usize) -> String + Sync,
{
    let next = AtomicUsize::new(0);
    let timeout = Duration::from_secs(30);
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| {
                let mut conn = client::Client::new(addr, timeout);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let started = Instant::now();
                    let r = conn.get(&target_of(i));
                    rec.observe(&r, started);
                }
            });
        }
    });
}

/// Runs the full chaos scenario. `Err` is a violated invariant — the CI
/// gate fails on it.
pub fn run_chaos(opts: &ChaosOptions) -> Result<ChaosReport, String> {
    let scratch;
    let journal = match &opts.journal {
        Some(p) => p.clone(),
        None => {
            scratch = std::env::temp_dir()
                .join(format!("indigo-serve-chaos-{}.jsonl", std::process::id()));
            let _ = std::fs::remove_file(&scratch);
            scratch.clone()
        }
    };
    let deadline_ms = opts.deadline.as_millis() as u64;
    let mut cfg = ServerConfig {
        journal: Some(journal.clone()),
        allow_fault_param: true,
        workers: 2,
        queue: 4,
        default_deadline: opts.deadline,
        flightrec_dir: opts.flightrec_dir.clone(),
        ..ServerConfig::default()
    };
    cfg.breaker.threshold = 3;
    cfg.breaker.cooldown = Duration::from_millis(300);
    let timeout = Duration::from_secs(30);

    let rec = Recorder::default();
    let mut server = Server::start(cfg.clone()).map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();

    // ---- phase 1: baseline (second half repeats the first → cache hits)
    fan_out(addr, &rec, opts.clients, opts.requests, |i| {
        clean_target(i % (opts.requests / 2).max(1), deadline_ms)
    });

    // ---- phase 2: storm
    if let Some(fault) = opts.fault {
        let every = fault.every.max(1);
        fan_out(addr, &rec, opts.clients, opts.requests, |i| {
            let mut t = clean_target(i, deadline_ms);
            if i % every == every - 1 {
                t.push_str(&format!("&fault={}&fault_attempts=1", fault.kind.label()));
            }
            t
        });
    }

    // ---- phase 3: breaker trip → degraded → recovery (sequential, on a
    // shard no other phase touches)
    let trip = format!(
        "/run?algo=tc&graph={BREAKER_GRAPH}&scale=tiny&deadline_ms={deadline_ms}\
         &fault=panic&fault_attempts=9"
    );
    for _ in 0..cfg.breaker.threshold {
        let started = Instant::now();
        let r = client::get(addr, &trip, timeout);
        rec.observe(&r, started);
        let resp = r.map_err(|e| format!("breaker phase transport error: {e}"))?;
        if resp.status != 500 {
            return Err(format!(
                "expected 500 while tripping the breaker, got {} ({})",
                resp.status, resp.body
            ));
        }
    }
    let probe_target =
        format!("/run?algo=tc&graph={BREAKER_GRAPH}&scale=tiny&deadline_ms={deadline_ms}");
    let started = Instant::now();
    let r = client::get(addr, &probe_target, timeout);
    rec.observe(&r, started);
    let resp = r.map_err(|e| format!("breaker phase transport error: {e}"))?;
    if resp.status != 200 || !resp.body.contains("\"degraded\":true") {
        return Err(format!(
            "expected a degraded 200 from the open breaker, got {} ({})",
            resp.status, resp.body
        ));
    }
    if resp.retry_after.is_none() {
        return Err("degraded response is missing Retry-After".into());
    }
    // wait out the cooldown, then poll (bounded) until the half-open probe
    // recovers the shard
    std::thread::sleep(cfg.breaker.cooldown + Duration::from_millis(50));
    let mut recovered = false;
    for _ in 0..20 {
        let started = Instant::now();
        let r = client::get(addr, &probe_target, timeout);
        rec.observe(&r, started);
        let resp = r.map_err(|e| format!("breaker recovery transport error: {e}"))?;
        if resp.status == 200 && !resp.body.contains("\"degraded\":true") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if !recovered {
        return Err("breaker never recovered after cooldown".into());
    }

    // ---- phase 4: saturation — pin both workers with stalls, then burst
    let pin = format!(
        "/run?algo=cc&graph={PIN_GRAPH}&scale=tiny&deadline_ms=700\
         &fault=stall&fault_attempts=9"
    );
    std::thread::scope(|s| {
        let rec = &rec;
        let pin = &pin;
        let mut pinners = Vec::new();
        for _ in 0..cfg.workers {
            pinners.push(s.spawn(move || {
                let started = Instant::now();
                let r = client::get(addr, pin, timeout);
                rec.observe(&r, started);
            }));
        }
        std::thread::sleep(Duration::from_millis(200)); // let workers pop them
        let burst = cfg.queue + 8;
        let mut clients_v = Vec::new();
        for _ in 0..burst {
            clients_v.push(s.spawn(move || {
                let started = Instant::now();
                let r = client::get(addr, &clean_target(0, deadline_ms), timeout);
                rec.observe(&r, started);
            }));
        }
        for h in clients_v.into_iter().chain(pinners) {
            let _ = h.join();
        }
    });

    // ---- phase 5: throughput over cached queries
    let tput_n = 50usize;
    let tput_target = clean_target(0, deadline_ms);
    let tput_started = Instant::now();
    let mut tput_conn = client::Client::new(addr, timeout);
    for _ in 0..tput_n {
        let started = Instant::now();
        let r = tput_conn.get(&tput_target);
        rec.observe(&r, started);
    }
    drop(tput_conn);
    let tput_secs = tput_started.elapsed().as_secs_f64().max(1e-9);
    let saturation_rps = tput_n as f64 / tput_secs;

    // ---- phase 5a: style advisor. `/advise` predicts from the cells the
    // run has cached so far; `style=auto` on `/run` must then serve exactly
    // what an explicit `variant=` request for the advised style serves —
    // tc/2d-grid is fully cached from phase 1, so both answers are pure
    // cache hits and the bodies must agree byte-for-byte once the
    // per-request observability splice (`,"rid":…`) is stripped.
    let advise_resp = client::get(addr, "/advise?algo=tc&graph=2d-grid&scale=tiny", timeout)
        .map_err(|e| format!("/advise transport error: {e}"))?;
    if advise_resp.status != 200 || !advise_resp.body.contains("\"status\":\"ok\"") {
        return Err(format!(
            "/advise returned {} ({})",
            advise_resp.status, advise_resp.body
        ));
    }
    let style = json_str(&advise_resp.body, "style")
        .ok_or_else(|| format!("/advise body has no \"style\": {}", advise_resp.body))?;
    let advised_pair = [
        format!("/run?algo=tc&graph=2d-grid&scale=tiny&style=auto&deadline_ms={deadline_ms}"),
        format!("/run?algo=tc&graph=2d-grid&scale=tiny&variant={style}&deadline_ms={deadline_ms}"),
    ]
    .map(|target| -> Result<String, String> {
        let started = Instant::now();
        let r = client::get(addr, &target, timeout);
        rec.observe(&r, started);
        let resp = r.map_err(|e| format!("{target}: transport error: {e}"))?;
        if resp.status != 200 {
            return Err(format!("{target}: status {} ({})", resp.status, resp.body));
        }
        Ok(resp.body)
    });
    let [auto_body, explicit_body] = advised_pair;
    let (auto_body, explicit_body) = (auto_body?, explicit_body?);
    if !auto_body.contains(&format!("\"variant\":\"{style}\"")) {
        return Err(format!(
            "style=auto body does not echo the advised variant {style}: {auto_body}"
        ));
    }
    let strip = |b: &str| b.split(",\"rid\":").next().unwrap_or(b).to_string();
    if strip(&auto_body) != strip(&explicit_body) {
        return Err(format!(
            "style=auto body diverges from explicit variant {style}:\n{auto_body}\n{explicit_body}"
        ));
    }

    // ---- phase 5b: /metrics exposition agrees with /stats. The server is
    // quiet now, and the scrapes themselves only bump requests/ok, so the
    // cross-checked counters cannot move between the two reads.
    let stats_resp =
        client::get(addr, "/stats", timeout).map_err(|e| format!("/stats scrape failed: {e}"))?;
    let metrics_resp = client::get(addr, "/metrics", timeout)
        .map_err(|e| format!("/metrics scrape failed: {e}"))?;
    if metrics_resp.status != 200 {
        return Err(format!("/metrics returned {}", metrics_resp.status));
    }
    let metrics_series = crate::metrics::validate_exposition(&metrics_resp.body)
        .map_err(|e| format!("/metrics exposition invalid: {e}"))? as u64;
    for key in ["shed", "cache_hits", "breaker_trips", "advised"] {
        let from_stats = json_u64(&stats_resp.body, key)
            .ok_or_else(|| format!("/stats body is missing \"{key}\""))?;
        let name = format!("indigo_serve_{key}_total");
        let from_metrics = prom_u64(&metrics_resp.body, &name)
            .ok_or_else(|| format!("/metrics exposition is missing {name}"))?;
        if from_stats != from_metrics {
            return Err(format!(
                "counter drift: /stats {key}={from_stats} but /metrics {name}={from_metrics}"
            ));
        }
    }
    let flightrec_resp = client::get(addr, "/debug/flightrec", timeout)
        .map_err(|e| format!("/debug/flightrec scrape failed: {e}"))?;
    if flightrec_resp.status != 200 || !flightrec_resp.body.contains("\"records\":") {
        return Err(format!(
            "/debug/flightrec returned {} without a records array",
            flightrec_resp.status
        ));
    }
    let flight_pushed = json_u64(&flightrec_resp.body, "pushed").unwrap_or(0);
    let flight_dumps = json_u64(&flightrec_resp.body, "dumps_written").unwrap_or(0);

    // ---- collect server stats, then tear down for the restart phase
    let health = client::get(addr, "/health", timeout)
        .map_err(|e| format!("final health check failed: {e}"))?;
    if health.status != 200 {
        return Err(format!("final health check returned {}", health.status));
    }
    let snap = server.stats();
    server.shutdown();
    drop(server);

    // ---- phase 6: crash-only restart — same journal, bit-exact replay
    let server2 = Server::start(cfg).map_err(|e| format!("restart failed: {e}"))?;
    let addr2 = server2.addr();
    if server2.recovered_cells() == 0 {
        return Err("restart recovered 0 cells from the journal".into());
    }
    let mut seen = std::collections::HashMap::new();
    {
        let cells = rec.cells.lock().unwrap_or_else(|e| e.into_inner());
        for (fp, bits) in cells.iter() {
            seen.entry(fp.clone()).or_insert_with(|| bits.clone());
        }
    }
    if seen.is_empty() {
        return Err("no served cells recorded — nothing to verify after restart".into());
    }
    for (fp, bits) in seen.iter().take(10) {
        let r = client::get(addr2, &format!("/cell?fp={fp}"), timeout)
            .map_err(|e| format!("restart /cell transport error: {e}"))?;
        if r.status != 200 {
            return Err(format!(
                "cell {fp} lost across restart (status {})",
                r.status
            ));
        }
        if !r.body.contains(&format!("\"geps_bits\":\"{bits}\"")) {
            return Err(format!("cell {fp} changed bits across restart: {}", r.body));
        }
    }
    let recovered_cells = server2.recovered_cells() as u64;
    drop(server2);
    if opts.journal.is_none() {
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file({
            let mut l = journal.clone().into_os_string();
            l.push(".lock");
            PathBuf::from(l)
        });
    }

    // ---- invariants over the whole run
    let transport_errors = rec.transport_errors.load(Ordering::Relaxed);
    if transport_errors != 0 {
        return Err(format!(
            "{transport_errors} request(s) died at the transport layer — \
             every request must be answered or shed"
        ));
    }
    let unstructured = rec.unstructured.load(Ordering::Relaxed);
    if unstructured != 0 {
        return Err(format!(
            "{unstructured} response(s) lacked a structured status"
        ));
    }
    let missing_echo = rec.missing_echo.load(Ordering::Relaxed);
    if missing_echo != 0 {
        return Err(format!(
            "{missing_echo} response(s) lacked an X-Request-Id echo"
        ));
    }
    if flight_pushed == 0 {
        return Err("flight recorder retained no records over the run".into());
    }
    if let Some(dir) = &opts.flightrec_dir {
        if snap.failed > 0 || snap.timeouts > 0 {
            if flight_dumps == 0 {
                return Err(format!(
                    "{} failure(s) and {} timeout(s) produced no flight-recorder dump",
                    snap.failed, snap.timeouts
                ));
            }
            let on_disk = std::fs::read_dir(dir)
                .map_err(|e| format!("flightrec dir {}: {e}", dir.display()))?
                .filter_map(|e| e.ok())
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy();
                    n.starts_with("FLIGHT_") && n.ends_with(".jsonl")
                })
                .count();
            if on_disk == 0 {
                return Err(format!(
                    "flight recorder reported {flight_dumps} dump(s) but no \
                     FLIGHT_*.jsonl exists in {}",
                    dir.display()
                ));
            }
        }
    }
    let mut lat = rec
        .latencies_us
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * lat.len() as f64).ceil().max(1.0) as usize;
        lat[rank.min(lat.len()) - 1] as f64 / 1_000.0
    };
    let latency_ms = LatencySummary {
        p50: pct(50.0),
        p90: pct(90.0),
        p99: pct(99.0),
        max: lat.last().copied().unwrap_or(0) as f64 / 1_000.0,
    };
    // p99 within the deadline plus a fixed allowance for connection setup,
    // queue admission, and response serialization
    let allowance_ms = 1_000.0;
    if latency_ms.p99 > deadline_ms as f64 + allowance_ms {
        return Err(format!(
            "p99 latency {:.1} ms exceeds deadline {deadline_ms} ms + {allowance_ms} ms allowance",
            latency_ms.p99
        ));
    }
    if snap.breaker_trips == 0 || snap.breaker_recoveries == 0 {
        return Err(format!(
            "breaker lifecycle not observed (trips {}, recoveries {})",
            snap.breaker_trips, snap.breaker_recoveries
        ));
    }
    if snap.shed == 0 {
        return Err("saturation produced no load shedding".into());
    }
    if snap.advised < 2 {
        return Err(format!(
            "advise phase should have counted one /advise and one style=auto \
             resolution, saw {}",
            snap.advised
        ));
    }
    if opts.fault.is_some() && snap.retries == 0 {
        return Err("fault storm produced no retries".into());
    }

    Ok(ChaosReport {
        requests: snap.requests,
        ok: snap.ok,
        cached: snap.cache_hits,
        degraded: snap.degraded,
        shed: snap.shed,
        timed_out: snap.timeouts,
        failed: snap.failed,
        retries: snap.retries,
        breaker_trips: snap.breaker_trips,
        breaker_recoveries: snap.breaker_recoveries,
        recovered_cells,
        latency_ms,
        saturation_rps,
        metrics_series,
        advised: snap.advised,
        flight_pushed,
        flight_dumps,
        telemetry_enabled: indigo_obs::enabled(),
        config: format!(
            "clients={} requests={} fault={} deadline_ms={deadline_ms} workers={} queue={}",
            opts.clients,
            opts.requests,
            opts.fault
                .map(|f| format!("{}@{}", f.kind.label(), f.every))
                .unwrap_or_else(|| "none".into()),
            2,
            4
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_cells_pairs_fp_with_bits() {
        let body =
            r#"{"cells":[{"fp":"00ab","geps_bits":"11cd"},{"fp":"22ef","geps_bits":"33aa"}]}"#;
        assert_eq!(
            extract_cells(body),
            vec![
                ("00ab".into(), "11cd".into()),
                ("22ef".into(), "33aa".into())
            ]
        );
        assert!(extract_cells("{\"status\":\"ok\"}").is_empty());
    }

    #[test]
    fn report_json_carries_the_schema_marker() {
        let r = ChaosReport::default();
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"bench-serve-v1\""));
        assert!(j.contains("\"breaker_trips\""));
        assert!(j.contains("\"latency_ms\""));
    }
}
