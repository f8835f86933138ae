//! The three serving workloads, driven over loopback HTTP against an
//! in-process `Server` (`workers: 2`, journal on): `serve_cold` (closed
//! loop, every request a never-seen cell), `serve_hot` (open loop over a
//! primed set at four fixed rates) and `serve_mixed` (open loop, reads
//! beside writes beside `style=auto`).

use crate::batch::{end_to_end, timed, traced_pair, Measured, Sample};
use crate::layers;
use crate::sample::{fixed_slice, rounds, run_target, Cell, Code, Population};
use crate::spec::{Report, RunCfg};
use crate::trace::{Tracer, NO_PARENT};
use crate::util::{cpu_split, median, nproc, percentile, pin_this_thread, sorted, KeepAwake, Rng};
use indigo_core::GraphInput;
use indigo_graph::gen::{suite_graph, Scale, SUITE_GRAPHS};
use indigo_harness::journal::fingerprint;
use indigo_harness::{CellOutcome, CellRecord, Resilience, RunOptions, RunPlan, TargetSpec};
use indigo_serve::cache::ResultCache;
use indigo_serve::client::{Client, ClientResponse};
use indigo_serve::engine::parse_query;
use indigo_serve::http::{Request, Response};
use indigo_serve::{Server, ServerConfig};
use indigo_styles::{Algorithm, Model};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load threads and connections: never more than the host has cores.
const CONNS: usize = 2;
const STEP: usize = 32;
/// Cells primed before the hot phases: 256 requests of 2 cells.
const HOT_REQUESTS: usize = 256;
const HOT_RATES: [f64; 4] = [1000.0, 2000.0, 4000.0, 6000.0];
const MIXED_RPS: f64 = 250.0;
/// The latency limit `serve.max_ok_rps` is judged against.
const LIMIT_MS: f64 = 2.0;
const REPLAY_OPS: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hot,
    Cold,
    Auto,
}

/// One request and what a correct reply to it looks like.
struct Req {
    target: String,
    class: Class,
    /// `None` for `style=auto`, whose pick may or may not be cached.
    want_cached: Option<bool>,
    /// The priming reply's `geps_bits`, for hot requests.
    want_bits: Option<String>,
    edges: u64,
}

/// One slot of the send schedule.
#[derive(Clone, Copy)]
struct Due {
    req: u32,
    /// Seconds after the phase start the request is due (open loop).
    at_s: f64,
    stage: u8,
}

#[derive(Clone, Copy)]
enum Pace {
    /// Each connection sends its next request when the last one returns.
    Closed { seconds: Option<f64> },
    /// Requests are sent on the schedule whatever the server does.
    Open,
}

struct Done {
    req: u32,
    stage: u8,
    due_ns: u64,
    sent_ns: u64,
    recv_ns: u64,
    ok: bool,
    /// `queue_us, batch_wait_us, execute_us, total_us` from the body.
    timing: Option<[u64; 4]>,
    bits: Option<String>,
}

/// A running server and its scratch directory; both go when it drops.
struct Env {
    server: Server,
    dir: PathBuf,
    /// Keeps an open loop's server CPUs from going idle between requests.
    _awake: Option<KeepAwake>,
}

impl Env {
    /// `open_loop`: the server is for an open loop, whose load threads get
    /// the last CPU to themselves ([`cpu_split`]); its threads are then
    /// started on the other CPUs, which are kept awake ([`KeepAwake`]).
    fn start(cfg: &RunCfg, open_loop: bool) -> Env {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = cfg.out_dir.join(format!(
            "tmp/serve-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir under the output dir");
        // a thread starts with the affinity of the one that starts it
        let split = if open_loop { cpu_split() } else { None };
        if let Some(split) = &split {
            pin_this_thread(&split.server);
        }
        let server = Server::start(ServerConfig {
            workers: 2,
            journal: Some(dir.join("journal.jsonl")),
            default_deadline: Duration::from_secs(10),
            ..ServerConfig::default()
        })
        .expect("server start on loopback");
        if let Some(split) = &split {
            pin_this_thread(&split.all);
        }
        Env {
            server,
            dir,
            _awake: split.map(|split| KeepAwake::on(&split.server)),
        }
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn timing_u64(body: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &body[body.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every cell's `geps_bits`, in body order.
fn bits_of(body: &str) -> String {
    const KEY: &str = "\"geps_bits\":\"";
    body.match_indices(KEY)
        .map(|(i, _)| &body[i + KEY.len()..i + KEY.len() + 16])
        .collect::<Vec<_>>()
        .join(",")
}

/// A reply is right when it is a 200 `ok` body, not degraded, carrying
/// both devices' cells, with the `cached` flag and bits the request expects.
fn reply_ok(resp: &ClientResponse, req: &Req) -> bool {
    let b = &resp.body;
    resp.status == 200
        && b.contains("\"status\":\"ok\"")
        && b.contains("\"degraded\":false")
        && b.matches("\"fp\":\"").count() == 2
        && req.want_cached.is_none_or(|c| {
            b.contains(if c {
                "\"cached\":true"
            } else {
                "\"cached\":false"
            })
        })
        && req.want_bits.as_deref().is_none_or(|w| bits_of(b) == w)
}

/// Waits for `at` by yielding: the load thread never blocks, so it is not
/// late by a timer slack as after a `sleep`, and never spins either, so
/// another thread that becomes runnable on its CPU gets it at once.
fn wait_until(at: Instant) {
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

/// Sends the plans in `lanes` over keep-alive connections, one load thread
/// each. One lane is shared by `CONNS` connections, each taking the next
/// unsent request; two lanes get a connection each, so a slow request holds
/// up only its own lane. The load threads of an open loop run on the last
/// CPU only (see [`cpu_split`]; the server must have been started with
/// `open_loop`). With `trace` (the trace's epoch) it also records
/// spans and reads each reply's `timing`. Returns what came back, in
/// completion order per connection, the spans, and the wall seconds.
fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    lanes: &[&[Due]],
    pace: Pace,
    trace: Option<Instant>,
) -> (Vec<Done>, Tracer, f64) {
    let traced = trace.is_some();
    let epoch = trace.unwrap_or_else(Instant::now);
    let next: Vec<AtomicUsize> = lanes.iter().map(|_| AtomicUsize::new(0)).collect();
    let all: Mutex<(Vec<Done>, Tracer)> = Mutex::new((Vec::new(), Tracer::new(traced, epoch)));
    let load_cpus = match pace {
        Pace::Open => cpu_split().map(|split| split.load),
        Pace::Closed { .. } => None,
    };
    let t0 = Instant::now();
    let t0_ns = t0.duration_since(epoch).as_nanos() as u64;
    std::thread::scope(|s| {
        for conn in 0..lanes.len().max(CONNS.min(nproc())) {
            let lane = conn % lanes.len();
            let (plan, next) = (lanes[lane], &next[lane]);
            let all = &all;
            s.spawn(move || {
                if let Some(cpus) = &load_cpus {
                    pin_this_thread(cpus);
                }
                let mut client = Client::new(addr, Duration::from_secs(30));
                let mut tr = Tracer::new(traced, epoch);
                let mut done = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(due) = plan.get(i) else { break };
                    let op_id = (lane as u64) << 32 | i as u64;
                    let mut due_ns = 0;
                    match pace {
                        Pace::Closed { seconds: Some(s) } if t0.elapsed().as_secs_f64() >= s => {
                            break
                        }
                        Pace::Closed { .. } => {}
                        Pace::Open => {
                            wait_until(t0 + Duration::from_secs_f64(due.at_s));
                            due_ns = t0_ns + (due.at_s * 1e9) as u64;
                        }
                    }
                    let req = &reqs[due.req as usize];
                    let sent_ns = tr.now_ns();
                    let resp = client.get(&req.target);
                    let recv_ns = tr.now_ns();
                    let mut d = Done {
                        req: due.req,
                        stage: due.stage,
                        due_ns: if due_ns == 0 { sent_ns } else { due_ns },
                        sent_ns,
                        recv_ns,
                        ok: false,
                        timing: None,
                        bits: None,
                    };
                    if let Ok(resp) = resp {
                        d.ok = reply_ok(&resp, req);
                        if req.class == Class::Hot && req.want_bits.is_none() {
                            // a priming request: later replies must repeat these
                            d.bits = Some(bits_of(&resp.body));
                        }
                        if traced {
                            let f = |k| timing_u64(&resp.body, k);
                            if let (Some(q), Some(w), Some(e), Some(t)) = (
                                f("queue_us"),
                                f("batch_wait_us"),
                                f("execute_us"),
                                f("total_us"),
                            ) {
                                d.timing = Some([q, w, e, t]);
                                // the server's stages sit inside the round trip;
                                // split the rest evenly before and after
                                let rtt = recv_ns - sent_ns;
                                let start = sent_ns + rtt.saturating_sub(t * 1000) / 2;
                                let get = tr.add("client.get", sent_ns, recv_ns, NO_PARENT, op_id);
                                tr.add("serve.queue", start, start + q * 1000, get, op_id);
                                let ex = tr.add(
                                    "serve.execute",
                                    start + q * 1000,
                                    start + (q + e) * 1000,
                                    get,
                                    op_id,
                                );
                                tr.add(
                                    "serve.batch_wait",
                                    start + q * 1000,
                                    start + (q + w) * 1000,
                                    ex,
                                    op_id,
                                );
                            }
                        }
                    }
                    done.push(d);
                }
                let mut all = all.lock().expect("load threads do not panic holding it");
                all.0.extend(done);
                all.1.merge(tr);
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let (done, tr) = all.into_inner().expect("load threads joined");
    (done, tr, wall)
}

/// Where an open loop's threads run, for the notes.
fn cpu_note() -> &'static str {
    if cpu_split().is_some() {
        "load threads on the last CPU, the server's on the others, kept awake"
    } else {
        "no thread pinned"
    }
}

/// Latency of one reply in seconds: from the due time on a schedule, from
/// the send in a closed loop (where the two coincide).
fn latency(d: &Done) -> f64 {
    d.recv_ns.saturating_sub(d.due_ns) as f64 / 1e9
}

fn measured(reqs: &[Req], done: &[Done], wall: f64) -> Measured {
    let mut m = Measured {
        wall,
        ..Measured::default()
    };
    for d in done {
        m.attempted += 1;
        if d.ok {
            let secs = latency(d);
            m.ok.push(Sample {
                secs,
                kernel_secs: secs,
                edges: reqs[d.req as usize].edges,
            });
        } else {
            m.failed += 1;
        }
    }
    m
}

fn pct_ms(done: &[Done], keep: impl Fn(&Done) -> bool, p: f64) -> f64 {
    // a failed request counts as over any limit
    let v = sorted(
        done.iter()
            .filter(|d| keep(d))
            .map(|d| {
                if d.ok {
                    latency(d) * 1e3
                } else {
                    f64::INFINITY
                }
            })
            .collect(),
    );
    percentile(&v, p).filter(|x| x.is_finite()).unwrap_or(0.0)
}

/// The cells, in op-list order, and per-graph edge counts.
struct Cells {
    pop: Population,
    list: Vec<Cell>,
    edges: [u64; 5],
}

impl Cells {
    fn new(seed: u64) -> Cells {
        let pop = Population::cuda();
        let list = rounds(&pop, STEP, &mut Rng::new(seed)).concat();
        let mut edges = [0u64; 5];
        for (e, g) in edges.iter_mut().zip(SUITE_GRAPHS) {
            *e = suite_graph(g, Scale::Tiny).num_edges() as u64;
        }
        Cells { pop, list, edges }
    }

    fn req(&self, cell: Cell, reps: usize, class: Class) -> Req {
        Req {
            target: run_target(&self.pop, cell, reps),
            class,
            want_cached: Some(class == Class::Hot),
            want_bits: None,
            edges: self.edges[cell.graph as usize],
        }
    }
}

fn closed_plan(n: usize) -> Vec<Due> {
    (0..n)
        .map(|i| Due {
            req: i as u32,
            at_s: 0.0,
            stage: 0,
        })
        .collect()
}

/// Starts a server and primes the first `HOT_REQUESTS` cells of the list;
/// returns the hot requests with the bits their replies must repeat.
fn primed(cfg: &RunCfg, cells: &Cells) -> (Env, Vec<Req>) {
    let env = Env::start(cfg, true);
    let mut hot: Vec<Req> = (cells.list[..HOT_REQUESTS].iter())
        .map(|&c| Req {
            want_cached: Some(false),
            ..cells.req(c, 1, Class::Hot)
        })
        .collect();
    let (done, _, _) = drive(
        env.server.addr(),
        &hot,
        &[&closed_plan(hot.len())],
        Pace::Closed { seconds: None },
        None,
    );
    assert!(
        done.len() == hot.len() && done.iter().all(|d| d.ok),
        "priming failed"
    );
    for d in done {
        hot[d.req as usize].want_bits = d.bits;
        hot[d.req as usize].want_cached = Some(true);
    }
    (env, hot)
}

/// Server-side stage percentiles, the waterfall's closure, and `/stats`.
fn server_layers(done: &[Done], env: &Env, report: &mut Report) {
    let timed: Vec<&Done> = done.iter().filter(|d| d.ok && d.timing.is_some()).collect();
    let col = |f: &dyn Fn(&Done, [u64; 4]) -> f64| {
        sorted(
            timed
                .iter()
                .map(|d| f(d, d.timing.expect("filtered")))
                .collect(),
        )
    };
    let queue = col(&|_, t| t[0] as f64);
    let wait = col(&|_, t| t[1] as f64);
    // the body's execute_us includes the batch wait; here it does not
    let exec = col(&|_, t| t[2].saturating_sub(t[1]) as f64);
    let transport = col(&|d, t| ((d.recv_ns - d.sent_ns) / 1000).saturating_sub(t[3]) as f64);
    let late = col(&|d, _| d.sent_ns.saturating_sub(d.due_ns) as f64 / 1e3);
    let total = col(&|d, _| d.recv_ns.saturating_sub(d.due_ns) as f64 / 1e3);
    let p = |v: &[f64], q| percentile(v, q).unwrap_or(0.0);
    report.set("serve.queue_us_p50", p(&queue, 50.0));
    report.set("serve.queue_us_p99", p(&queue, 99.0));
    report.set("serve.batch_wait_us_p50", p(&wait, 50.0));
    report.set("serve.batch_wait_us_p99", p(&wait, 99.0));
    report.set("serve.execute_us_p50", p(&exec, 50.0));
    report.set("serve.execute_us_p99", p(&exec, 99.0));
    report.set("serve.transport_us_p50", p(&transport, 50.0));
    report.set("loadgen.lateness_us_p99", p(&late, 99.0));
    // The waterfall of the median request: stage means over the replies
    // whose latency lies between the 40th and 60th percentile. Marginal
    // medians would not add up, because a request that waits long in the
    // batch former is usually the one whose own cells then run second.
    let (lo, hi) = (p(&total, 40.0), p(&total, 60.0));
    let band: Vec<&&Done> = (timed.iter())
        .filter(|d| (lo..=hi).contains(&(d.recv_ns.saturating_sub(d.due_ns) as f64 / 1e3)))
        .collect();
    let mean = |f: &dyn Fn(&Done, [u64; 4]) -> f64| {
        band.iter()
            .map(|d| f(d, d.timing.expect("filtered")))
            .sum::<f64>()
            / band.len().max(1) as f64
    };
    let parts = [
        (
            "late",
            mean(&|d, _| d.sent_ns.saturating_sub(d.due_ns) as f64 / 1e3),
        ),
        ("queue", mean(&|_, t| t[0] as f64)),
        ("batch_wait", mean(&|_, t| t[1] as f64)),
        ("execute", mean(&|_, t| t[2].saturating_sub(t[1]) as f64)),
        (
            "transport",
            mean(&|d, t| ((d.recv_ns - d.sent_ns) / 1000).saturating_sub(t[3]) as f64),
        ),
    ];
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    report.set(
        "serve.waterfall_gap_pct",
        (p(&total, 50.0) - sum) / p(&total, 50.0).max(1e-9) * 100.0,
    );
    report.note(format!(
        "median-request waterfall (us): {} = {sum:.0} against client p50 {:.0}",
        parts.map(|(n, v)| format!("{n} {v:.0}")).join(" + "),
        p(&total, 50.0)
    ));

    let s = env.server.stats();
    report.set(
        "serve.cache_hit_ratio",
        s.cache_hits as f64 / s.requests.max(1) as f64,
    );
    report.set(
        "serve.cells_per_batch",
        s.batched_cells as f64 / s.batches.max(1) as f64,
    );
    report.set("serve.coalesced", s.coalesced as f64);
    report.set("serve.shed", s.shed as f64);
    report.set("serve.retries", s.retries as f64);
    report.set(
        "serve.keepalive_reuse_ratio",
        s.keepalive_reuses as f64 / s.requests.max(1) as f64,
    );
}

/// Layer replay of cold requests straight against the public functions the
/// server composes, so `execute` splits into plan, kernel, verify, insert
/// and serialize, with what the split leaves unexplained beside it.
fn replay(
    cells: &Cells,
    ops: &[Cell],
    cold_execute_us: f64,
    cfg: &RunCfg,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let dir = cfg
        .out_dir
        .join(format!("tmp/replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir under the output dir");
    let cache = ResultCache::open(Some(&dir.join("journal.jsonl"))).expect("replay cache");
    let server_cfg = ServerConfig::default();
    let inputs: Vec<GraphInput> = SUITE_GRAPHS
        .iter()
        .map(|&g| GraphInput::new(suite_graph(g, Scale::Tiny)))
        .collect();
    let styles: Vec<_> = (ops.iter())
        .map(|c| match cells.pop.codes[c.code as usize] {
            Code::Style(s) => (s, c.graph as usize),
            Code::Baseline(_) => unreachable!("CUDA population"),
        })
        .collect();
    let bare = layers::gpu_replay(&styles, &inputs, tr, report);

    let mut cols: [Vec<f64>; 4] = Default::default(); // parse+keys, run_cells, insert, serialize
    for (i, &cell) in ops.iter().enumerate() {
        let op = tr.begin("replay.request", NO_PARENT, i as u64);
        let lap = |tr: &mut Tracer, name: &'static str, f: &mut dyn FnMut()| {
            let span = tr.begin(name, op, i as u64);
            let t = Instant::now();
            f();
            tr.end(span);
            t.elapsed().as_secs_f64() * 1e6
        };
        let head = format!(
            "GET {} HTTP/1.1\r\nHost: indigo\r\n\r\n",
            run_target(&cells.pop, cell, 3)
        );
        let mut query = None;
        cols[0].push(lap(tr, "serve.parse+fingerprint+cache_get", &mut || {
            let req = Request::parse(&head).expect("well-formed head");
            let q = parse_query(&req, &server_cfg, false).expect("valid query");
            for t in TargetSpec::defaults_for(Model::Cuda) {
                let fp = fingerprint(
                    q.scale,
                    q.reps,
                    true,
                    &q.variants[0].name(),
                    q.graph.label(),
                    &t.label(),
                );
                assert!(cache.get(fp).is_none());
            }
            query = Some(q);
        }));
        let q = query.expect("parsed above");
        let plan = RunPlan {
            variants: q.variants,
            graphs: vec![q.graph],
            scale: q.scale,
            reps: q.reps,
            verify: true,
        };
        let mut records: Vec<CellRecord> = Vec::new();
        cols[1].push(lap(tr, "harness.run_cells", &mut || {
            let res = Resilience::none().with_cell_timeout(Duration::from_secs(10));
            records = plan
                .run_cells(&RunOptions::default(), &res, |_| {})
                .expect("no journal to fail on")
                .records;
        }));
        report.attempted += records.len() as u64;
        report.failed += records
            .iter()
            .filter(|r| !matches!(r.outcome, CellOutcome::Ok(_)))
            .count() as u64;
        cols[2].push(lap(tr, "serve.cache.insert_batch", &mut || {
            assert_eq!(cache.insert_batch(&records.iter().collect::<Vec<_>>()), 0);
        }));
        cols[3].push(lap(tr, "serve.Response::to_bytes", &mut || {
            std::hint::black_box(
                Response::json(200, layers::TWO_CELL_BODY)
                    .with_request_id("0000000000000042")
                    .to_bytes(),
            );
        }));
        tr.end(op);
    }
    let kernel = median(&bare.iter().map(|b| b.0 * 1e6).collect::<Vec<_>>());
    let verify = median(&bare.iter().map(|b| b.1 * 1e6).collect::<Vec<_>>());
    let run_cells = median(&cols[1]);
    report.set(
        "serve.replay_plan_us",
        median(&cols[0]) + run_cells - kernel - verify,
    );
    report.set("serve.replay_kernel_us", kernel);
    report.set("serve.replay_verify_us", verify);
    report.set("serve.replay_insert_us", median(&cols[2]));
    report.set("serve.replay_serialize_us", median(&cols[3]));
    let explained = median(&cols[0]) + run_cells + median(&cols[2]) + median(&cols[3]);
    report.set(
        "serve.replay_gap_pct",
        (cold_execute_us - explained) / cold_execute_us.max(1e-9) * 100.0,
    );
    report.note(format!(
        "replay of {} cold requests: {explained:.0} us explained of the cold class's median execute {cold_execute_us:.0} us (batch wait excluded)",
        ops.len()
    ));
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What every traced serving run adds once its timed phases are over:
/// the server's own stage timings, the layer replay of `replay_ops`, and
/// the direct-call probes.
#[allow(clippy::too_many_arguments)]
fn traced_tail(
    workload: &str,
    cfg: &RunCfg,
    env: Env,
    cells: &Cells,
    replay_ops: &[Cell],
    reqs: &[Req],
    done: &[Done],
    mut tr: Tracer,
    report: &mut Report,
) {
    server_layers(done, &env, report);
    if !replay_ops.is_empty() {
        let cold = sorted(
            (done.iter())
                .filter(|d| d.ok && reqs[d.req as usize].class == Class::Cold)
                .filter_map(|d| d.timing.map(|t| t[2].saturating_sub(t[1]) as f64))
                .collect(),
        );
        replay(
            cells,
            replay_ops,
            percentile(&cold, 50.0).unwrap_or(0.0),
            cfg,
            &mut tr,
            report,
        );
    }
    layers::advisor(&env.journal(), &mut tr, report);
    drop(env);
    layers::common(Scale::Tiny, cfg, &mut tr, report);
    layers::write_trace(cfg, workload, &tr.spans, report);
}

// ---- serve_cold ------------------------------------------------------------

fn cold_setup(cfg: &RunCfg, cells: &Cells) -> Env {
    let env = Env::start(cfg, false);
    // outside the measured key space (reps=3): makes every shard's graph
    // resident and the worker, batcher and journal paths warm
    let warm: Vec<Req> = (fixed_slice(&cells.pop, STEP).iter())
        .map(|&cell| cells.req(cell, 3, Class::Cold))
        .collect();
    let (done, _, _) = drive(
        env.server.addr(),
        &warm,
        &[&closed_plan(warm.len())],
        Pace::Closed { seconds: None },
        None,
    );
    assert!(done.iter().all(|d| d.ok), "warm-up failed");
    env
}

pub fn serve_cold(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let cells = Cells::new(cfg.seed);
    // never-seen cells, without replacement: the list at reps=1, then reps=2
    let reqs: Vec<Req> = (1..=2)
        .flat_map(|reps| cells.list.iter().map(move |&c| (c, reps)))
        .map(|(c, reps)| cells.req(c, reps, Class::Cold))
        .collect();
    let plan = closed_plan(reqs.len());
    let (env, setup_s) = timed(|| cold_setup(cfg, &cells));
    let addr = env.server.addr();
    if !cfg.trace {
        let pace = Pace::Closed {
            seconds: Some(cfg.seconds),
        };
        let (done, _, wall) = drive(addr, &reqs, &[&plan], pace, None);
        drop(env);
        let m = measured(&reqs, &done, wall);
        end_to_end(&mut report, cfg, setup_s, &m, None, || {
            cold_setup(cfg, &cells)
        });
        report.note(format!(
            "closed loop, {CONNS} keep-alive connections, scale tiny, 2 cells per request"
        ));
        return report;
    }
    let pace = Pace::Closed {
        seconds: Some(cfg.seconds / 2.0),
    };
    let (done, tr, wall) = drive(addr, &reqs, &[&plan], pace, Some(Instant::now()));
    let traced = measured(&reqs, &done, wall);
    // the same requests untraced; they must be unseen again: a fresh server
    let fresh = cold_setup(cfg, &cells);
    let pace = Pace::Closed { seconds: None };
    let (again, _, wall) = drive(
        fresh.server.addr(),
        &reqs,
        &[&plan[..done.len()]],
        pace,
        None,
    );
    drop(fresh);
    traced_pair(&mut report, &traced, &measured(&reqs, &again, wall), None);
    let replay_ops = &cells.list[..REPLAY_OPS];
    traced_tail(
        "serve_cold",
        cfg,
        env,
        &cells,
        replay_ops,
        &reqs,
        &done,
        tr,
        &mut report,
    );
    report
}

// ---- serve_hot -------------------------------------------------------------

/// `HOT_RATES`, each for a quarter of `seconds`, cycling a seeded order of
/// the hot set.
fn hot_plan(seed: u64, seconds: f64) -> Vec<Due> {
    let mut order: Vec<u32> = (0..HOT_REQUESTS as u32).collect();
    Rng::new(seed ^ 0x407).shuffle(&mut order);
    let stage_s = seconds / HOT_RATES.len() as f64;
    let mut plan = Vec::new();
    for (stage, rps) in HOT_RATES.iter().enumerate() {
        for k in 0..(stage_s * rps) as usize {
            plan.push(Due {
                req: order[plan.len() % order.len()],
                at_s: stage as f64 * stage_s + k as f64 / rps,
                stage: stage as u8,
            });
        }
    }
    plan
}

/// `p50_ms` on `serve_hot`: each fixed rate counts once, however many
/// requests it sent, and one disturbed stage cannot move it far.
fn median_of_stage_medians(done: &[Done]) -> f64 {
    let stages: Vec<f64> = (0..HOT_RATES.len())
        .map(|stage| pct_ms(done, |d| d.stage as usize == stage, 50.0))
        .collect();
    let s = sorted(stages);
    (s[1] + s[2]) / 2.0
}

/// Latency at each fixed rate, and `serve.max_ok_rps`: the highest rate
/// with p99 within `LIMIT_MS`, at least 99 % of the offered rate delivered,
/// and no backlog growing (the last tenth of the stage not sent late).
fn hot_rates(done: &[Done], stage_s: f64, report: &mut Report) {
    let names = [
        ("serve.p50_ms_1000rps", "serve.p99_ms_1000rps"),
        ("serve.p50_ms_2000rps", "serve.p99_ms_2000rps"),
        ("serve.p50_ms_4000rps", "serve.p99_ms_4000rps"),
        ("serve.p50_ms_6000rps", "serve.p99_ms_6000rps"),
    ];
    let mut max_ok = 0.0;
    for (stage, (p50, p99)) in names.into_iter().enumerate() {
        let here = |d: &Done| d.stage as usize == stage;
        let p99_ms = pct_ms(done, here, 99.0);
        report.set(p50, pct_ms(done, here, 50.0));
        report.set(p99, p99_ms);
        let replies: Vec<&Done> = done.iter().filter(|d| here(d)).collect();
        let achieved = replies.iter().filter(|d| d.ok).count() as f64 / stage_s;
        let tail = &replies[replies.len() - replies.len() / 10..];
        let late_ms = median(
            &tail
                .iter()
                .map(|d| d.sent_ns.saturating_sub(d.due_ns) as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        if p99_ms > 0.0
            && p99_ms <= LIMIT_MS
            && achieved >= 0.99 * HOT_RATES[stage]
            && late_ms <= LIMIT_MS
        {
            max_ok = HOT_RATES[stage];
        }
    }
    report.set("serve.max_ok_rps", max_ok);
    report.set("serve.read_p50_ms", pct_ms(done, |_| true, 50.0));
    report.set("serve.read_p99_ms", pct_ms(done, |_| true, 99.0));
}

pub fn serve_hot(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let cells = Cells::new(cfg.seed);
    let ((env, hot), setup_s) = timed(|| primed(cfg, &cells));
    let addr = env.server.addr();
    if !cfg.trace {
        let plan = hot_plan(cfg.seed, cfg.seconds);
        let (done, _, wall) = drive(addr, &hot, &[&plan], Pace::Open, None);
        drop(env);
        let m = measured(&hot, &done, wall);
        let p50_ms = median_of_stage_medians(&done);
        end_to_end(&mut report, cfg, setup_s, &m, Some(p50_ms), || {
            primed(cfg, &cells)
        });
        hot_rates(&done, cfg.seconds / HOT_RATES.len() as f64, &mut report);
        report.note(format!(
            "open loop, {CONNS} connections, {HOT_RATES:?} rps for {:.2} s each; p50 is the median of the four stages' medians, from the due time; {}",
            cfg.seconds / 4.0,
            cpu_note()
        ));
        return report;
    }
    let plan = hot_plan(cfg.seed, cfg.seconds / 2.0);
    let (done, tr, wall) = drive(addr, &hot, &[&plan], Pace::Open, Some(Instant::now()));
    let traced = measured(&hot, &done, wall);
    let (again, _, wall) = drive(addr, &hot, &[&plan], Pace::Open, None);
    let p50_ms = median_of_stage_medians(&done);
    traced_pair(
        &mut report,
        &traced,
        &measured(&hot, &again, wall),
        Some(p50_ms),
    );
    hot_rates(
        &done,
        cfg.seconds / 2.0 / HOT_RATES.len() as f64,
        &mut report,
    );

    // closed-loop saturation on the hot set; the plan is sized for 50k rps,
    // a few times what two connections reach here
    let sat_s = (cfg.seconds / 5.0).max(0.2);
    let sat_plan: Vec<Due> = (0..(sat_s * 50_000.0) as usize)
        .map(|i| Due {
            req: (i % HOT_REQUESTS) as u32,
            at_s: 0.0,
            stage: 0,
        })
        .collect();
    let pace = Pace::Closed {
        seconds: Some(sat_s),
    };
    let (sat, _, wall) = drive(addr, &hot, &[&sat_plan], pace, None);
    report.attempted += sat.len() as u64;
    report.failed += sat.iter().filter(|d| !d.ok).count() as u64;
    report.set(
        "serve.saturation_rps",
        sat.iter().filter(|d| d.ok).count() as f64 / wall,
    );

    traced_tail(
        "serve_hot",
        cfg,
        env,
        &cells,
        &[],
        &hot,
        &done,
        tr,
        &mut report,
    );
    report
}

// ---- serve_mixed -----------------------------------------------------------

/// The request table and schedule: 88 % hot reads, 10 % never-seen cold
/// cells (reps=2, so `style=auto` picks at reps=1 can never pre-warm
/// them), 2 % `style=auto`, at `MIXED_RPS`.
fn mixed_plan(seed: u64, seconds: f64, cells: &Cells, hot: Vec<Req>) -> (Vec<Req>, Vec<Due>) {
    let mut rng = Rng::new(seed ^ 0x313);
    let mut reqs = hot;
    let mut plan = Vec::new();
    let mut next_cold = HOT_REQUESTS;
    for k in 0..(seconds * MIXED_RPS) as usize {
        let draw = rng.below(100);
        let req = if draw < 88 {
            rng.below(HOT_REQUESTS) as u32
        } else {
            if draw < 98 {
                reqs.push(cells.req(
                    cells.list[next_cold % cells.list.len()],
                    2 + next_cold / cells.list.len(),
                    Class::Cold,
                ));
                next_cold += 1;
            } else {
                let graph = rng.below(5);
                reqs.push(Req {
                    target: format!(
                        "/run?algo={}&graph={}&scale=tiny&style=auto&deadline_ms=10000",
                        Algorithm::ALL[rng.below(6)].label(),
                        SUITE_GRAPHS[graph].label()
                    ),
                    class: Class::Auto,
                    want_cached: None,
                    want_bits: None,
                    edges: cells.edges[graph],
                });
            }
            (reqs.len() - 1) as u32
        };
        plan.push(Due {
            req,
            at_s: k as f64 / MIXED_RPS,
            stage: 0,
        });
    }
    (reqs, plan)
}

/// The reads on one connection, the cold and `style=auto` requests on the
/// other: a read then waits for the server, never for a slow request
/// ahead of it in its own client.
fn mixed_lanes(reqs: &[Req], plan: Vec<Due>) -> [Vec<Due>; 2] {
    let (reads, writes) = plan
        .into_iter()
        .partition(|d| reqs[d.req as usize].class == Class::Hot);
    [reads, writes]
}

/// Latency per class (reported, not gated). Returns `p50_ms` on
/// `serve_mixed`: the median of the cold class, the requests that compute
/// and insert beside the reads. The median over all requests is a hot read,
/// a 0.13 ms chain of three thread wake-ups which on a shared 2-vCPU host
/// moves by a quarter from run to run with no change to the code.
fn mixed_classes(reqs: &[Req], done: &[Done], report: &mut Report) -> f64 {
    let of = |c: Class, p: f64| pct_ms(done, |d| reqs[d.req as usize].class == c, p);
    report.set("serve.read_p50_ms", of(Class::Hot, 50.0));
    report.set("serve.read_p99_ms", of(Class::Hot, 99.0));
    report.set("serve.cold_p50_ms", of(Class::Cold, 50.0));
    report.set("serve.auto_p50_ms", of(Class::Auto, 50.0));
    of(Class::Cold, 50.0)
}

pub fn serve_mixed(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    let cells = Cells::new(cfg.seed);
    let ((env, hot), setup_s) = timed(|| primed(cfg, &cells));
    let addr = env.server.addr();
    if !cfg.trace {
        let (reqs, plan) = mixed_plan(cfg.seed, cfg.seconds, &cells, hot);
        let [reads, writes] = mixed_lanes(&reqs, plan);
        let (done, _, wall) = drive(addr, &reqs, &[&reads, &writes], Pace::Open, None);
        drop(env);
        let m = measured(&reqs, &done, wall);
        let p50_ms = mixed_classes(&reqs, &done, &mut report);
        end_to_end(&mut report, cfg, setup_s, &m, Some(p50_ms), || {
            primed(cfg, &cells)
        });
        report.note(format!(
            "open loop at {MIXED_RPS} rps: 88% hot on one connection; 10% cold, 2% style=auto on the other; p50 is the cold class's, from the due time; {}",
            cpu_note()
        ));
        return report;
    }
    let (reqs, plan) = mixed_plan(cfg.seed, cfg.seconds / 2.0, &cells, hot);
    let [reads, writes] = mixed_lanes(&reqs, plan);
    let lanes = [&reads[..], &writes[..]];
    let (done, tr, wall) = drive(addr, &reqs, &lanes, Pace::Open, Some(Instant::now()));
    let traced = measured(&reqs, &done, wall);
    // the cold cells must be unseen again: a fresh server, primed the same
    let (fresh, _) = primed(cfg, &cells);
    let (again, _, wall) = drive(fresh.server.addr(), &reqs, &lanes, Pace::Open, None);
    drop(fresh);
    let p50_ms = mixed_classes(&reqs, &done, &mut report);
    traced_pair(
        &mut report,
        &traced,
        &measured(&reqs, &again, wall),
        Some(p50_ms),
    );
    let replay_ops = &cells.list[cells.list.len() - REPLAY_OPS..];
    traced_tail(
        "serve_mixed",
        cfg,
        env,
        &cells,
        replay_ops,
        &reqs,
        &done,
        tr,
        &mut report,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets(reqs: &[Req], plan: &[Due]) -> String {
        plan.iter()
            .map(|d| format!("{:.6} {}\n", d.at_s, reqs[d.req as usize].target))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let cells = Cells::new(4);
        let hot = || {
            cells.list[..HOT_REQUESTS]
                .iter()
                .map(|&c| cells.req(c, 1, Class::Hot))
                .collect::<Vec<_>>()
        };
        let (r1, p1) = mixed_plan(4, 2.0, &cells, hot());
        let (r2, p2) = mixed_plan(4, 2.0, &cells, hot());
        assert_eq!(targets(&r1, &p1), targets(&r2, &p2));
        let (r3, p3) = mixed_plan(5, 2.0, &cells, hot());
        assert_ne!(targets(&r1, &p1), targets(&r3, &p3));
        assert_eq!(p1.len(), (2.0 * MIXED_RPS) as usize);
        let h = hot();
        assert_eq!(
            targets(&h, &hot_plan(4, 1.0)),
            targets(&h, &hot_plan(4, 1.0))
        );
        assert_eq!(hot_plan(4, 1.0).len(), 250 + 500 + 1000 + 1500);
    }

    #[test]
    fn mixed_cold_requests_are_never_repeated_and_never_hot() {
        let cells = Cells::new(2);
        let hot: Vec<Req> = cells.list[..HOT_REQUESTS]
            .iter()
            .map(|&c| cells.req(c, 1, Class::Hot))
            .collect();
        let (reqs, plan) = mixed_plan(2, 20.0, &cells, hot);
        let mut seen = std::collections::HashSet::new();
        for d in &plan {
            let r = &reqs[d.req as usize];
            if r.class == Class::Cold {
                assert!(seen.insert(&r.target), "{} twice", r.target);
                assert!(r.target.contains("reps=2"));
            }
        }
        // a tenth of 20 s at MIXED_RPS, give or take the draw
        let tenth = 2.0 * MIXED_RPS;
        assert!((seen.len() as f64 - tenth).abs() < 0.2 * tenth);
        // reads on one lane, everything that computes on the other
        let [reads, writes] = mixed_lanes(&reqs, plan.clone());
        assert_eq!(reads.len() + writes.len(), plan.len());
        assert!(reads
            .iter()
            .all(|d| reqs[d.req as usize].class == Class::Hot));
        assert!(writes
            .iter()
            .all(|d| reqs[d.req as usize].class != Class::Hot));
    }

    #[test]
    fn reply_checks_catch_each_way_of_being_wrong() {
        let req = Req {
            target: String::new(),
            class: Class::Hot,
            want_cached: Some(true),
            want_bits: Some("3fdc000000000000,3fe2000000000000".into()),
            edges: 1,
        };
        let resp = |status, body: &str| ClientResponse {
            status,
            retry_after: None,
            request_id: None,
            body: body.to_string(),
        };
        assert!(reply_ok(&resp(200, layers::TWO_CELL_BODY), &req));
        assert!(!reply_ok(&resp(504, layers::TWO_CELL_BODY), &req));
        assert!(!reply_ok(
            &resp(
                200,
                &layers::TWO_CELL_BODY.replace("\"cached\":true", "\"cached\":false")
            ),
            &req
        ));
        assert!(!reply_ok(
            &resp(200, &layers::TWO_CELL_BODY.replace("3fe2", "3fe3")),
            &req
        ));
        assert!(!reply_ok(
            &resp(
                200,
                &layers::TWO_CELL_BODY.replace("\"degraded\":false", "\"degraded\":true")
            ),
            &req
        ));
        assert!(!reply_ok(
            &resp(
                200,
                &layers::TWO_CELL_BODY.replacen("\"fp\":\"", "\"xx\":\"", 1)
            ),
            &req
        ));
        assert_eq!(timing_u64(layers::TWO_CELL_BODY, "execute_us"), Some(88));
    }
}
