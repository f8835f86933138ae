//! Query parsing and the execution pipeline: deadline → cache → breaker →
//! retry → degrade (DESIGN.md §7.8).
//!
//! A query names an algorithm, a graph, a scale, and one or more style
//! variants; the engine turns its missing cells into one
//! [`Submission`] per attempt on the shard's resident [`Prepared`] input
//! (`crate::batch::run_submission` is the only place a plan is built). The
//! robustness contract:
//!
//! * **Deadlines.** The remaining request budget is split across the
//!   remaining attempts and handed to the PR 2 cooperative watchdog as the
//!   per-cell timeout, so a wedged cell costs one attempt, not the request.
//! * **Retries.** Crashed and timed-out cells are transient: the engine
//!   re-plans only the still-missing cells (idempotent via fingerprints —
//!   completed cells are cached and never re-run) with capped exponential
//!   backoff + deterministic jitter. Wrong answers are permanent failures.
//! * **Breaker + degrade.** Request outcomes feed the shard's circuit
//!   breaker; while it is open the engine answers from the cache when it
//!   can, and otherwise falls back to the serial oracle with a
//!   `degraded: true` marker rather than going dark.

use crate::batch::{Batcher, CellClaim, Flight, FlightResult, Flights, Submission};
use crate::breaker::{Admit, Breaker, BreakerConfig, Transition};
use crate::cache::{CachedCell, ResultCache};
use crate::config::{parse_scale, scale_label, ServerConfig};
use crate::flightrec::{Outcome, RequestScope};
use crate::http::{Request, Response};
use crate::stats::{ServeCounter, Stats};
use indigo_core::serial;
use indigo_graph::gen::{Scale, SuiteGraph, SUITE_GRAPHS};
use indigo_graph::{Csr, INF};
use indigo_harness::journal::fingerprint;
use indigo_harness::{CellFaultKind, FaultSpec, Prepared, TargetSpec};
use indigo_obs::{json_num, json_str};
use indigo_styles::{enumerate, Algorithm, Model, StyleConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Smallest per-attempt watchdog budget worth arming.
const MIN_ATTEMPT_BUDGET: Duration = Duration::from_millis(10);

/// One graph shard: its breaker plus its resident prepared inputs, one per
/// scale, generated on first use. Execution, the degraded oracle and the
/// advisor's features all read the same instance, so a graph is generated,
/// uploaded and serially solved once per process, not once per request.
pub struct Shard {
    /// Which suite graph this shard owns.
    pub which: SuiteGraph,
    /// The shard's circuit breaker.
    pub breaker: Breaker,
    prepared: Mutex<HashMap<Scale, Arc<Prepared>>>,
}

impl Shard {
    /// A fresh shard with a closed breaker.
    pub fn new(which: SuiteGraph, breaker: BreakerConfig) -> Shard {
        Shard {
            which,
            breaker: Breaker::new(breaker),
            prepared: Mutex::new(HashMap::new()),
        }
    }

    /// The resident input at `scale` (generated on first use, under the
    /// shard's lock, so concurrent first requests generate it once).
    pub fn prepared(&self, scale: Scale) -> Arc<Prepared> {
        let mut prepared = self.prepared.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            prepared
                .entry(scale)
                .or_insert_with(|| Arc::new(Prepared::new(self.which, scale))),
        )
    }
}

/// A client-requested fault (chaos mode only): `kind` strikes the first
/// cell of every attempt numbered `<= attempts`.
#[derive(Clone, Copy, Debug)]
pub struct RequestFault {
    /// What the fault does.
    pub kind: CellFaultKind,
    /// Highest 1-based attempt number that still faults (`1` = transient:
    /// only the first try fails; large = the request keeps failing).
    pub attempts: u32,
}

/// A parsed, validated query.
#[derive(Clone, Debug)]
pub struct Query {
    /// Algorithm to run.
    pub algo: Algorithm,
    /// Programming model (decides the target set).
    pub model: Model,
    /// Input graph.
    pub graph: SuiteGraph,
    /// Instance scale.
    pub scale: Scale,
    /// Repetitions per cell.
    pub reps: usize,
    /// Style variants to measure.
    pub variants: Vec<StyleConfig>,
    /// Sweep (style-slice) query, vs single-variant run.
    pub sweep: bool,
    /// `style=auto`: the server resolves `variants` to the advisor's
    /// predicted-best style before execution (DESIGN.md §7.11). Until that
    /// resolution happens `variants` holds the baseline placeholder.
    pub auto: bool,
    /// Request deadline.
    pub deadline: Duration,
    /// Injected fault (chaos mode).
    pub fault: Option<RequestFault>,
}

/// Parses the `algo` query value (shared by `/run`, `/sweep`, `/advise`).
pub fn parse_algo(label: &str) -> Result<Algorithm, String> {
    Algorithm::ALL
        .iter()
        .find(|a| a.label() == label)
        .copied()
        .ok_or_else(|| format!("unknown algo `{label}` (bfs|sssp|cc|mis|pr|tc)"))
}

/// Parses the optional `model` query value (default CUDA).
pub fn parse_model(label: Option<&str>) -> Result<Model, String> {
    match label {
        None => Ok(Model::Cuda),
        Some(m) => Model::ALL
            .iter()
            .find(|x| x.label() == m)
            .copied()
            .ok_or_else(|| format!("unknown model `{m}` (cuda|omp|cpp)")),
    }
}

/// Parses the `graph` query value into a suite graph.
pub fn parse_graph(label: &str) -> Result<SuiteGraph, String> {
    SUITE_GRAPHS
        .iter()
        .find(|g| g.label() == label)
        .copied()
        .ok_or_else(|| format!("unknown graph `{label}` (2d-grid|copapers|rmat|soc-net|road)"))
}

/// Decodes a variant name for one `(algo, model)` group. The name carries
/// its own group, so one that is valid for a *different* group than the
/// request's is unknown here, exactly as when the group's list was searched.
pub fn resolve_variant(name: &str, algo: Algorithm, model: Model) -> Option<StyleConfig> {
    StyleConfig::from_name(name).filter(|c| c.algorithm == algo && c.model == model)
}

/// Parses `/run` (`sweep = false`) or `/sweep` (`sweep = true`) params.
pub fn parse_query(req: &Request, cfg: &ServerConfig, sweep: bool) -> Result<Query, String> {
    let algo_label = req.param("algo").ok_or("missing `algo` parameter")?;
    let algo = parse_algo(algo_label)?;
    let model = parse_model(req.param("model"))?;
    let graph_label = req.param("graph").ok_or("missing `graph` parameter")?;
    let graph = parse_graph(graph_label)?;
    let scale = match req.param("scale") {
        None => cfg.default_scale,
        Some(s) => parse_scale(s)?,
    };
    let auto = match req.param("style") {
        None => false,
        Some("auto") => {
            if sweep {
                return Err(
                    "`style=auto` applies to /run only (a sweep measures every style)".into(),
                );
            }
            if req.param("variant").is_some() {
                return Err("`style=auto` conflicts with an explicit `variant`".into());
            }
            true
        }
        Some(other) => {
            return Err(format!(
                "unknown `style` value `{other}` (only `auto`; name an explicit style \
                 with `variant=`)"
            ))
        }
    };
    let reps = match req.param("reps") {
        None => cfg.reps,
        Some(r) => match r.parse::<usize>() {
            Ok(n) if (1..=9).contains(&n) => n,
            _ => return Err(format!("`reps` must be 1..=9, got `{r}`")),
        },
    };
    let deadline = match req.param("deadline_ms") {
        None => cfg.default_deadline,
        Some(d) => {
            let ms: u64 = d
                .parse()
                .map_err(|_| format!("`deadline_ms` is not a number: `{d}`"))?;
            if ms == 0 {
                // the serving-layer face of the zero-duration deadline fix:
                // a 0 ms deadline would expire before the first checkpoint
                return Err("`deadline_ms` of 0 would expire immediately; \
                            omit it to use the server default"
                    .into());
            }
            Duration::from_millis(ms).min(cfg.max_deadline)
        }
    };
    let variants = if sweep {
        let limit = match req.param("limit") {
            None => 0,
            Some(l) => l
                .parse::<usize>()
                .map_err(|_| format!("`limit` is not a number: `{l}`"))?,
        };
        // the one query that wants every style; /run decodes its one name
        let mut v = enumerate::variants(algo, model);
        if limit > 0 {
            v.truncate(limit);
        }
        v
    } else if auto {
        // placeholder until the server resolves the advised style; keeps
        // the Query invariant (`variants` never empty) for every consumer
        vec![StyleConfig::baseline(algo, model)]
    } else {
        let name = req.param("variant").unwrap_or("baseline");
        if name == "baseline" {
            vec![StyleConfig::baseline(algo, model)]
        } else {
            vec![resolve_variant(name, algo, model).ok_or_else(|| {
                format!(
                    "unknown variant `{name}` for {algo_label}/{}; \
                                        use `baseline` or a name from /sweep",
                    model.label()
                )
            })?]
        }
    };
    let fault = match req.param("fault") {
        None => None,
        Some(_) if !cfg.allow_fault_param => {
            return Err("fault injection is disabled on this server (chaos mode only)".into())
        }
        Some(kind) => {
            let kind = match kind {
                "panic" => CellFaultKind::Panic,
                "stall" => CellFaultKind::Stall,
                "corrupt" => CellFaultKind::Corrupt,
                other => return Err(format!("unknown fault `{other}` (panic|stall|corrupt)")),
            };
            let attempts = match req.param("fault_attempts") {
                None => 1,
                Some(a) => a
                    .parse::<u32>()
                    .map_err(|_| format!("`fault_attempts` is not a number: `{a}`"))?,
            };
            Some(RequestFault { kind, attempts })
        }
    };
    Ok(Query {
        algo,
        model,
        graph,
        scale,
        reps,
        variants,
        sweep,
        auto,
        deadline,
        fault,
    })
}

/// One expected cell of a query.
struct CellKey {
    fp: u64,
    cfg: StyleConfig,
    variant: String,
    target: String,
}

fn cells_for(q: &Query) -> Vec<CellKey> {
    let targets = TargetSpec::defaults_for(q.model);
    let mut cells = Vec::with_capacity(q.variants.len() * targets.len());
    for v in &q.variants {
        let name = v.name();
        for t in &targets {
            let target = t.label();
            cells.push(CellKey {
                fp: fingerprint(q.scale, q.reps, true, &name, q.graph.label(), &target),
                cfg: *v,
                variant: name.clone(),
                target,
            });
        }
    }
    cells
}

/// Borrowed server state the engine runs against.
pub struct EngineCtx<'a> {
    /// Server configuration.
    pub cfg: &'a ServerConfig,
    /// Result cache (+ journal).
    pub cache: &'a Arc<ResultCache>,
    /// Always-on stats.
    pub stats: &'a Arc<Stats>,
    /// Single-flight registry keyed by cell fingerprint.
    pub flights: &'a Arc<Flights>,
    /// The plan executors.
    pub batcher: &'a Batcher,
}

/// Executes a parsed query against its shard. `deadline_at` is absolute
/// (stamped at accept, so queue wait counts against the budget).
///
/// Since PR 8 execution goes through the single-flight registry: each
/// round, the request *claims* the missing cells nobody else is computing
/// and *joins* the flights already in the air. A round with claims runs
/// them (on an executor thread; inline when the submission carries an
/// injected fault or the executors' queue is full or closed); a round with
/// only joins just waits. Either way the request then settles its own
/// verdict — its 504 clock, retry budget, and breaker report are never
/// delegated to whoever happens to execute the cells.
///
/// `scope` is the request's observability scope (DESIGN.md §7.10): the
/// engine fills in attempts, batch-wait attribution, the serving flight's
/// owner for coalesced waiters, and the refined outcome.
pub fn execute(
    ctx: &EngineCtx<'_>,
    shard: &Shard,
    q: &Query,
    deadline_at: Instant,
    scope: &mut RequestScope,
) -> Response {
    let cells = cells_for(q);
    // each cell's cached entry, probed once: a slot that is filled is never
    // looked up again, and the body is assembled from these same entries
    let mut found: Vec<Option<CachedCell>> = vec![None; cells.len()];

    // ---- cache: a fully answered query never touches the breaker
    if probe_missing(ctx.cache, &cells, &mut found) {
        ctx.stats.bump(ServeCounter::CacheHits);
        scope.outcome = Outcome::Cached;
        return Response::json(200, result_body(q, &cells, &found, true, false, 0));
    }

    // ---- breaker: open shard → degraded answer, never an error page
    let probe = match shard.breaker.admit() {
        Admit::Run => false,
        Admit::Probe => true,
        Admit::Degraded { retry_after } => return degraded(ctx, shard, q, retry_after, scope),
    };

    // ---- claim/join/wait loop over the still-missing cells
    let mut attempt = 0u32; // executions *this request* paid for
    let mut failures: Vec<(String, String, &'static str, String)> = Vec::new();
    let mut timed_out_only = true;
    loop {
        let now = Instant::now();
        let remaining = deadline_at.saturating_duration_since(now);
        if remaining < MIN_ATTEMPT_BUDGET {
            // the request's own deadline expired — any shared flights keep
            // running for their other waiters and land in the cache
            ctx.stats.bump(ServeCounter::Timeouts);
            scope.attempts = u64::from(attempt);
            scope.outcome = Outcome::Timeout;
            report_breaker(ctx, shard, false, probe);
            let body = format!(
                "{{\"status\":\"timeout\",\"error\":{},\"attempts\":{attempt}}}",
                json_str(&format!(
                    "deadline of {} ms exhausted after {attempt} attempt(s)",
                    q.deadline.as_millis(),
                )),
            );
            return Response::json(504, body);
        }

        if probe_missing(ctx.cache, &cells, &mut found) {
            break; // every cell is cached — assemble the answer
        }
        let missing: Vec<&CellKey> = cells
            .iter()
            .zip(&found)
            .filter_map(|(c, hit)| hit.is_none().then_some(c))
            .collect();

        let attempts_left = ctx.cfg.retry.max_attempts.saturating_sub(attempt);
        let (claimed, joined) = if attempts_left > 0 {
            let wanted: Vec<CellClaim<'_>> = missing
                .iter()
                .map(|c| CellClaim {
                    fp: c.fp,
                    variant: &c.variant,
                    target: &c.target,
                })
                .collect();
            Flights::claim_or_join(ctx.flights, &wanted, scope.seq)
        } else {
            // out of execution attempts: free-ride on flights others run
            let fps: Vec<u64> = missing.iter().map(|c| c.fp).collect();
            (Vec::new(), ctx.flights.join_only(&fps))
        };

        if claimed.is_empty() {
            if joined.is_empty() {
                // nothing left to wait on and no attempts left to execute
                return exhausted(ctx, shard, probe, attempt, timed_out_only, &failures, scope);
            }
            // pure waiter: every missing cell is already in the air —
            // record whose flight is doing our work (first joined flight's
            // claimer; a multi-cell join credits the first)
            ctx.stats.bump(ServeCounter::Coalesced);
            if scope.served_by == 0 {
                scope.served_by = joined.first().map(|f| f.owner()).unwrap_or(0);
            }
            if let Some(resp) =
                wait_flights(ctx, shard, probe, &joined, deadline_at, attempt, scope)
            {
                return resp;
            }
            continue; // re-check cache / deadline, re-claim what failed
        }

        // claimer: this request executes (or batches) the unclaimed cells
        attempt += 1;
        let budget = (remaining / attempts_left.max(1))
            .max(MIN_ATTEMPT_BUDGET)
            .min(remaining);
        let fault = q.fault.and_then(|f| {
            (attempt <= f.attempts).then_some(FaultSpec {
                kind: f.kind,
                cell: 0,
            })
        });
        let run_variants: Vec<StyleConfig> = q
            .variants
            .iter()
            .filter(|v| {
                claimed
                    .iter()
                    .any(|g| cells.iter().any(|c| c.fp == g.fp() && c.cfg == **v))
            })
            .copied()
            .collect();
        let my_flights: Vec<Arc<Flight>> = claimed.iter().map(|g| g.flight()).collect();
        let sub = Submission {
            input: shard.prepared(q.scale),
            reps: q.reps,
            variants: run_variants,
            budget,
            fault,
            claims: claimed,
        };
        // faulted submissions run inline so an injected stall wedges this
        // request's attempt, never a shared executor
        let inline = match fault {
            None => ctx.batcher.submit(sub).err(),
            Some(_) => Some(sub),
        };
        if let Some(sub) = inline {
            crate::batch::run_submission(ctx.cache, ctx.stats, ctx.cfg.jobs, sub);
        }

        failures.clear();
        let all: Vec<Arc<Flight>> = my_flights.into_iter().chain(joined).collect();
        let mut wrong_answer = false;
        for flight in &all {
            // batch-wait attribution: how long our claims sat queued for
            // a free executor before their plan actually started running
            if flight.owner() == scope.seq {
                scope.batch_wait_us = scope.batch_wait_us.max(flight.batch_wait_us());
            }
            match flight.wait_until(deadline_at) {
                // still running past our deadline: the shared run keeps
                // going for its other waiters; our top-of-loop check 504s
                None => {}
                Some(FlightResult::Done) => {}
                Some(FlightResult::Transient {
                    variant,
                    target,
                    outcome,
                    detail,
                }) => {
                    if outcome == "crashed" {
                        timed_out_only = false;
                    }
                    failures.push((variant, target, outcome, detail));
                }
                Some(FlightResult::Poisoned {
                    variant,
                    target,
                    detail,
                }) => {
                    timed_out_only = false;
                    wrong_answer = true;
                    failures.push((variant, target, "wrong-answer", detail));
                }
            }
        }
        if wrong_answer {
            // a verification failure is not transient: retrying would burn
            // the deadline re-computing the same wrong bits
            ctx.stats.bump(ServeCounter::Failed);
            scope.attempts = u64::from(attempt);
            scope.outcome = Outcome::Quarantined;
            report_breaker(ctx, shard, false, probe);
            return Response::json(
                500,
                failure_body("error", "wrong answer (quarantined)", attempt, &failures),
            );
        }
        if failures.is_empty() {
            continue; // all Done: the top of the loop finds them cached
        }
        if attempt >= ctx.cfg.retry.max_attempts {
            return exhausted(ctx, shard, probe, attempt, timed_out_only, &failures, scope);
        }

        // transient: back off (within the deadline) and go again
        ctx.stats.add(ServeCounter::Retries, failures.len() as u64);
        let fp0 = cells.first().map(|c| c.fp).unwrap_or(0);
        let backoff = ctx.cfg.retry.backoff(fp0, attempt);
        let remaining = deadline_at.saturating_duration_since(Instant::now());
        std::thread::sleep(backoff.min(remaining));
    }

    // loop only breaks when every cell is cached; `attempt == 0` means this
    // request never executed anything (pure cache/coalescing win)
    report_breaker(ctx, shard, true, probe);
    scope.attempts = u64::from(attempt);
    scope.outcome = if attempt == 0 && scope.served_by == 0 {
        Outcome::Cached
    } else {
        Outcome::Ok
    };
    Response::json(
        200,
        result_body(q, &cells, &found, attempt == 0, false, attempt),
    )
}

/// The verdict of a request that is out of execution attempts with cells
/// still failing: 504 when every failure was a timeout, else 500.
fn exhausted(
    ctx: &EngineCtx<'_>,
    shard: &Shard,
    probe: bool,
    attempt: u32,
    timed_out_only: bool,
    failures: &[(String, String, &'static str, String)],
    scope: &mut RequestScope,
) -> Response {
    report_breaker(ctx, shard, false, probe);
    scope.attempts = u64::from(attempt);
    if timed_out_only {
        ctx.stats.bump(ServeCounter::Timeouts);
        scope.outcome = Outcome::Timeout;
        Response::json(
            504,
            failure_body("timeout", "timed out on every attempt", attempt, failures),
        )
    } else {
        ctx.stats.bump(ServeCounter::Failed);
        scope.outcome = Outcome::Error;
        Response::json(
            500,
            failure_body("error", "retries exhausted", attempt, failures),
        )
    }
}

/// Looks up the cells `found` does not hold yet (`found[i]` answers
/// `cells[i]`); true once every cell is found.
fn probe_missing(cache: &ResultCache, cells: &[CellKey], found: &mut [Option<CachedCell>]) -> bool {
    for (c, hit) in cells.iter().zip(found.iter_mut()) {
        if hit.is_none() {
            *hit = cache.get(c.fp);
        }
    }
    found.iter().all(Option::is_some)
}

/// Waits out a pure-waiter round. Returns the final response when a joined
/// flight was poisoned (the only verdict a waiter settles mid-round);
/// otherwise `None`, and the caller loops to re-check the cache.
#[allow(clippy::too_many_arguments)]
fn wait_flights(
    ctx: &EngineCtx<'_>,
    shard: &Shard,
    probe: bool,
    joined: &[Arc<Flight>],
    deadline_at: Instant,
    attempt: u32,
    scope: &mut RequestScope,
) -> Option<Response> {
    let mut poisoned: Vec<(String, String, &'static str, String)> = Vec::new();
    for flight in joined {
        // Done/Transient/still-running need nothing here: the top of the
        // loop re-checks the cache, the deadline, and what's left to
        // (re-)claim. Poisoned is the only verdict a waiter settles on.
        if let Some(FlightResult::Poisoned {
            variant,
            target,
            detail,
        }) = flight.wait_until(deadline_at)
        {
            poisoned.push((variant, target, "wrong-answer", detail));
        }
    }
    if poisoned.is_empty() {
        return None;
    }
    ctx.stats.bump(ServeCounter::Failed);
    scope.attempts = u64::from(attempt);
    scope.outcome = Outcome::Quarantined;
    report_breaker(ctx, shard, false, probe);
    Some(Response::json(
        500,
        failure_body("error", "wrong answer (quarantined)", attempt, &poisoned),
    ))
}

fn report_breaker(ctx: &EngineCtx<'_>, shard: &Shard, ok: bool, probe: bool) {
    match shard.breaker.report(ok, probe) {
        Some(Transition::Tripped) => {
            ctx.stats.bump(ServeCounter::BreakerTrips);
            indigo_obs::Gauge::ServeOpenBreakers.add(1);
        }
        Some(Transition::Recovered) => {
            ctx.stats.bump(ServeCounter::BreakerRecoveries);
            indigo_obs::Gauge::ServeOpenBreakers.add(-1);
        }
        None => {}
    }
}

/// Success body: every cell from its cache entry, exact bits included.
fn result_body(
    q: &Query,
    cells: &[CellKey],
    found: &[Option<CachedCell>],
    cached: bool,
    degraded: bool,
    attempts: u32,
) -> String {
    let mut cell_objs = Vec::with_capacity(cells.len());
    let mut best: Option<(f64, &CellKey)> = None;
    for (c, entry) in cells.iter().zip(found) {
        let Some(entry) = entry else {
            continue;
        };
        let geps = entry.geps();
        if best.as_ref().is_none_or(|(b, _)| geps > *b) {
            best = Some((geps, c));
        }
        cell_objs.push(format!(
            "{{\"fp\":\"{:016x}\",\"variant\":{},\"target\":{},\"geps\":{},\"geps_bits\":\"{:016x}\",\"iterations\":{}}}",
            c.fp,
            json_str(&c.variant),
            json_str(&c.target),
            json_num(geps),
            entry.geps_bits,
            entry.iterations
        ));
    }
    let mut body = format!(
        "{{\"status\":\"ok\",\"cached\":{cached},\"degraded\":{degraded},\"attempts\":{attempts},\
         \"algo\":{},\"model\":{},\"graph\":{},\"scale\":{},\"cells\":[{}]",
        json_str(q.algo.label()),
        json_str(q.model.label()),
        json_str(q.graph.label()),
        json_str(scale_label(q.scale)),
        cell_objs.join(",")
    );
    if q.sweep {
        if let Some((geps, c)) = best {
            body.push_str(&format!(
                ",\"summary\":{{\"cells\":{},\"best_geps\":{},\"best_variant\":{},\"best_target\":{}}}",
                cell_objs.len(),
                json_num(geps),
                json_str(&c.variant),
                json_str(&c.target)
            ));
        }
    }
    body.push('}');
    body
}

fn failure_body(
    status: &str,
    error: &str,
    attempts: u32,
    failures: &[(String, String, &'static str, String)],
) -> String {
    let items: Vec<String> = failures
        .iter()
        .map(|(variant, target, outcome, detail)| {
            format!(
                "{{\"variant\":{},\"target\":{},\"outcome\":{},\"detail\":{}}}",
                json_str(variant),
                json_str(target),
                json_str(outcome),
                json_str(detail)
            )
        })
        .collect();
    format!(
        "{{\"status\":{},\"error\":{},\"attempts\":{attempts},\"failures\":[{}]}}",
        json_str(status),
        json_str(error),
        items.join(",")
    )
}

/// Degraded path: journal-cached cells when the query is fully covered,
/// otherwise a serial-oracle summary — either way `degraded: true` and a
/// `Retry-After` pointing at the breaker's half-open horizon.
fn degraded(
    ctx: &EngineCtx<'_>,
    shard: &Shard,
    q: &Query,
    retry_after: Duration,
    scope: &mut RequestScope,
) -> Response {
    ctx.stats.bump(ServeCounter::Degraded);
    scope.outcome = Outcome::Degraded;
    let retry_secs = retry_after.as_secs().max(1);

    let oracle = catch_unwind(AssertUnwindSafe(|| {
        oracle_summary(q.algo, &shard.prepared(q.scale).input().csr)
    }));
    match oracle {
        Ok(summary) => {
            let body = format!(
                "{{\"status\":\"degraded\",\"degraded\":true,\"breaker\":\"open\",\
                 \"algo\":{},\"graph\":{},\"scale\":{},\"oracle\":{summary},\
                 \"retry_after_ms\":{}}}",
                json_str(q.algo.label()),
                json_str(q.graph.label()),
                json_str(scale_label(q.scale)),
                retry_after.as_millis()
            );
            Response::json(200, body).with_retry_after(retry_secs)
        }
        Err(_) => {
            ctx.stats.bump(ServeCounter::Failed);
            scope.outcome = Outcome::Error;
            Response::json(
                503,
                "{\"status\":\"unavailable\",\"error\":\"breaker open and the serial fallback failed\"}",
            )
            .with_retry_after(retry_secs)
        }
    }
}

/// Serial-oracle answer summary: not a measurement, but the actual analytic
/// result a degraded client can still act on. `g` is a prepared input's
/// CSR, so it is weighted.
fn oracle_summary(algo: Algorithm, g: &Csr) -> String {
    match algo {
        Algorithm::Bfs => {
            let levels = serial::bfs(g, indigo_core::SOURCE);
            let reached = levels.iter().filter(|&&l| l != INF).count();
            let max = levels
                .iter()
                .filter(|&&l| l != INF)
                .max()
                .copied()
                .unwrap_or(0);
            format!("{{\"kind\":\"serial-bfs\",\"reached\":{reached},\"max_level\":{max}}}")
        }
        Algorithm::Sssp => {
            let dist = serial::sssp(g, indigo_core::SOURCE);
            let reached = dist.iter().filter(|&&d| d != INF).count();
            let max = dist
                .iter()
                .filter(|&&d| d != INF)
                .max()
                .copied()
                .unwrap_or(0);
            format!("{{\"kind\":\"serial-sssp\",\"reached\":{reached},\"max_dist\":{max}}}")
        }
        Algorithm::Cc => {
            let labels = serial::cc(g);
            let mut distinct: Vec<u32> = labels.clone();
            distinct.sort_unstable();
            distinct.dedup();
            format!(
                "{{\"kind\":\"serial-cc\",\"components\":{},\"vertices\":{}}}",
                distinct.len(),
                labels.len()
            )
        }
        Algorithm::Mis => {
            let in_set = serial::mis(g, indigo_core::MIS_SEED);
            let size = in_set.iter().filter(|&&b| b).count();
            format!("{{\"kind\":\"serial-mis\",\"set_size\":{size}}}")
        }
        Algorithm::Pr => {
            let ranks = serial::pagerank(
                g,
                indigo_core::PR_DAMPING,
                indigo_core::PR_EPSILON,
                indigo_core::PR_MAX_ITERS,
            );
            let max = ranks.iter().cloned().fold(0.0f32, f32::max);
            format!(
                "{{\"kind\":\"serial-pagerank\",\"vertices\":{},\"max_rank\":{}}}",
                ranks.len(),
                json_num(max as f64)
            )
        }
        Algorithm::Tc => {
            let n = serial::triangles(g);
            format!("{{\"kind\":\"serial-triangles\",\"triangles\":{n}}}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(target: &str) -> Request {
        Request::parse(&format!("GET {target} HTTP/1.1\r\n\r\n")).unwrap()
    }

    fn cfg() -> ServerConfig {
        ServerConfig::default()
    }

    #[test]
    fn parses_a_minimal_run_query() {
        let q = parse_query(&req("/run?algo=tc&graph=2d-grid"), &cfg(), false).unwrap();
        assert_eq!(q.algo, Algorithm::Tc);
        assert_eq!(q.model, Model::Cuda);
        assert_eq!(q.graph, SuiteGraph::Grid2d);
        assert_eq!(q.variants.len(), 1);
        assert_eq!(q.deadline, cfg().default_deadline);
        assert!(q.fault.is_none());
        assert!(!q.sweep);
    }

    #[test]
    fn rejects_bad_params_with_clear_messages() {
        let cases = [
            ("/run?graph=2d-grid", "missing `algo`"),
            ("/run?algo=nope&graph=2d-grid", "unknown algo"),
            ("/run?algo=tc", "missing `graph`"),
            ("/run?algo=tc&graph=petersen", "unknown graph"),
            ("/run?algo=tc&graph=2d-grid&scale=huge", "unknown scale"),
            (
                "/run?algo=tc&graph=2d-grid&deadline_ms=0",
                "expire immediately",
            ),
            ("/run?algo=tc&graph=2d-grid&variant=zzz", "unknown variant"),
            ("/run?algo=tc&graph=2d-grid&fault=panic", "chaos mode only"),
            (
                "/run?algo=tc&graph=2d-grid&style=fastest",
                "unknown `style`",
            ),
            (
                "/run?algo=tc&graph=2d-grid&style=auto&variant=baseline",
                "conflicts",
            ),
        ];
        for (target, want) in cases {
            let err = parse_query(&req(target), &cfg(), false).unwrap_err();
            assert!(err.contains(want), "{target}: {err}");
        }
    }

    /// One `(algo, model)` group with every variant's rendered name.
    type NamedGroup = (Algorithm, Model, Vec<(String, StyleConfig)>);

    /// The pre-PR-12 resolution, kept here as the oracle: enumerate the
    /// group, render every name, scan.
    fn groups() -> Vec<NamedGroup> {
        let mut out = Vec::new();
        for model in Model::ALL {
            for algo in Algorithm::ALL {
                let named = enumerate::variants(algo, model)
                    .into_iter()
                    .map(|c| (c.name(), c))
                    .collect();
                out.push((algo, model, named));
            }
        }
        out
    }

    #[test]
    fn decoding_a_variant_name_equals_searching_the_enumerated_group() {
        let groups = groups();
        let names: Vec<&String> = groups
            .iter()
            .flat_map(|(_, _, named)| named.iter().map(|(n, _)| n))
            .collect();
        assert_eq!(names.len(), 1098);
        let (mut own, mut foreign) = (0usize, 0usize);
        for (algo, model, named) in &groups {
            for name in &names {
                let old = named.iter().find(|(n, _)| n == *name).map(|(_, c)| *c);
                assert_eq!(resolve_variant(name, *algo, *model), old, "{name}");
                let target = format!(
                    "/run?algo={}&model={}&graph=rmat&variant={name}",
                    algo.label(),
                    model.label()
                );
                match (parse_query(&req(&target), &cfg(), false), old) {
                    (Ok(q), Some(c)) => {
                        assert_eq!(q.variants, [c], "{target}");
                        own += 1;
                    }
                    // a name from another group is still a 400, same text
                    (Err(e), None) => {
                        assert_eq!(
                            e,
                            format!(
                                "unknown variant `{name}` for {}/{}; use `baseline` \
                                 or a name from /sweep",
                                algo.label(),
                                model.label()
                            )
                        );
                        foreign += 1;
                    }
                    (got, want) => panic!("{target}: {got:?} vs {want:?}"),
                }
            }
        }
        assert_eq!((own, foreign), (1098, 17 * 1098));
    }

    /// The pre-PR-12 success body, kept here as the oracle: one
    /// `cache.get` per cell at assembly time.
    fn old_result_body(cache: &ResultCache, q: &Query, cells: &[CellKey]) -> String {
        let mut cell_objs = Vec::new();
        let mut best: Option<(f64, &CellKey)> = None;
        for c in cells {
            let entry = cache.get(c.fp).unwrap();
            let geps = entry.geps();
            if best.as_ref().is_none_or(|(b, _)| geps > *b) {
                best = Some((geps, c));
            }
            cell_objs.push(format!(
                "{{\"fp\":\"{:016x}\",\"variant\":{},\"target\":{},\"geps\":{},\"geps_bits\":\"{:016x}\",\"iterations\":{}}}",
                c.fp,
                json_str(&c.variant),
                json_str(&c.target),
                json_num(geps),
                entry.geps_bits,
                entry.iterations
            ));
        }
        let mut body = format!(
            "{{\"status\":\"ok\",\"cached\":true,\"degraded\":false,\"attempts\":0,\
             \"algo\":{},\"model\":{},\"graph\":{},\"scale\":{},\"cells\":[{}]",
            json_str(q.algo.label()),
            json_str(q.model.label()),
            json_str(q.graph.label()),
            json_str(scale_label(q.scale)),
            cell_objs.join(",")
        );
        if q.sweep {
            let (geps, c) = best.unwrap();
            body.push_str(&format!(
                ",\"summary\":{{\"cells\":{},\"best_geps\":{},\"best_variant\":{},\"best_target\":{}}}",
                cell_objs.len(),
                json_num(geps),
                json_str(&c.variant),
                json_str(&c.target)
            ));
        }
        body.push('}');
        body
    }

    /// The server state `execute` borrows, without the server.
    struct Rig {
        cfg: ServerConfig,
        cache: Arc<ResultCache>,
        stats: Arc<Stats>,
        flights: Arc<Flights>,
        batcher: Batcher,
    }

    impl Rig {
        fn new() -> Rig {
            let cfg = cfg();
            let cache = Arc::new(ResultCache::open(None).unwrap());
            let stats = Arc::new(Stats::new());
            let batcher =
                Batcher::spawn(Arc::clone(&cache), Arc::clone(&stats), cfg.jobs, 1).unwrap();
            Rig {
                cfg,
                cache,
                stats,
                flights: Arc::new(Flights::new()),
                batcher,
            }
        }

        fn ctx(&self) -> EngineCtx<'_> {
            EngineCtx {
                cfg: &self.cfg,
                cache: &self.cache,
                stats: &self.stats,
                flights: &self.flights,
                batcher: &self.batcher,
            }
        }
    }

    #[test]
    fn a_cache_hit_answers_with_the_body_the_old_path_assembled() {
        use indigo_harness::{CellOutcome, CellRecord, Measurement};
        // every query below is a full cache hit, so the executor stays idle
        let rig = Rig::new();
        let (ctx, cfg, cache, stats) = (rig.ctx(), &rig.cfg, &rig.cache, &rig.stats);
        let variant = "cuda-sssp-vertex-data-nodup-push-rmw-nondet-persist-block-cudaatomic";
        let targets = [
            (
                format!("/run?algo=sssp&graph=road&variant={variant}"),
                false,
            ),
            (
                "/run?algo=pr&model=omp&graph=rmat&reps=3".to_string(),
                false,
            ),
            ("/sweep?algo=tc&model=cpp&graph=soc-net".to_string(), true),
            ("/sweep?algo=bfs&graph=2d-grid&limit=7".to_string(), true),
        ];
        for (i, (target, sweep)) in targets.iter().enumerate() {
            let q = parse_query(&req(target), cfg, *sweep).unwrap();
            let cells = cells_for(&q);
            assert!(cells.len() >= 2, "{target}");
            for (j, c) in cells.iter().enumerate() {
                // distinct bits per cell; the best cell sits mid-list
                let geps = 1.0 + ((j * 7 + i) % cells.len()) as f64 / 3.0;
                let graph = q.graph.label();
                cache
                    .insert(&CellRecord {
                        fingerprint: c.fp,
                        variant: c.variant.clone(),
                        graph,
                        target: c.target.clone(),
                        outcome: CellOutcome::Ok(Measurement {
                            cfg: c.cfg,
                            graph,
                            target: c.target.clone(),
                            geps,
                            iterations: 10 + j,
                        }),
                        resumed: false,
                    })
                    .unwrap();
            }
            let shard = Shard::new(q.graph, cfg.breaker);
            let mut scope = RequestScope::new(1 + i as u64, None, Instant::now());
            let resp = execute(&ctx, &shard, &q, Instant::now() + q.deadline, &mut scope);
            assert_eq!(resp.status, 200, "{target}");
            assert_eq!(scope.outcome, Outcome::Cached);
            assert_eq!(resp.body, old_result_body(cache, &q, &cells), "{target}");
        }
        assert_eq!(stats.snapshot().cache_hits, targets.len() as u64);
    }

    #[test]
    fn a_computing_execute_leaves_the_shards_one_resident_input_in_place() {
        let rig = Rig::new();
        let q = parse_query(&req("/run?algo=tc&graph=2d-grid"), &rig.cfg, false).unwrap();
        let shard = Shard::new(q.graph, rig.cfg.breaker);
        let before = shard.prepared(q.scale);
        let mut scope = RequestScope::new(1, None, Instant::now());
        let deadline_at = Instant::now() + q.deadline;
        let resp = execute(&rig.ctx(), &shard, &q, deadline_at, &mut scope);
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!((scope.outcome, scope.attempts), (Outcome::Ok, 1));
        // one generation per (graph, scale): the plan ran on this instance
        // and the next request, oracle or advisor read gets it again
        assert!(Arc::ptr_eq(&before, &shard.prepared(q.scale)));
    }

    #[test]
    fn style_auto_parses_on_run_and_rejects_on_sweep() {
        let q = parse_query(&req("/run?algo=bfs&graph=rmat&style=auto"), &cfg(), false).unwrap();
        assert!(q.auto);
        // placeholder until the server resolves the advised style
        assert_eq!(q.variants.len(), 1);
        let plain = parse_query(&req("/run?algo=bfs&graph=rmat"), &cfg(), false).unwrap();
        assert!(!plain.auto);
        let err =
            parse_query(&req("/sweep?algo=bfs&graph=rmat&style=auto"), &cfg(), true).unwrap_err();
        assert!(err.contains("/run only"), "{err}");
    }

    #[test]
    fn fault_params_parse_in_chaos_mode() {
        let mut c = cfg();
        c.allow_fault_param = true;
        let q = parse_query(
            &req("/run?algo=tc&graph=rmat&fault=stall&fault_attempts=2"),
            &c,
            false,
        )
        .unwrap();
        let f = q.fault.unwrap();
        assert_eq!(f.kind, CellFaultKind::Stall);
        assert_eq!(f.attempts, 2);
    }

    #[test]
    fn deadline_is_clamped_to_the_configured_max() {
        let q = parse_query(
            &req("/run?algo=tc&graph=2d-grid&deadline_ms=999999999"),
            &cfg(),
            false,
        )
        .unwrap();
        assert_eq!(q.deadline, cfg().max_deadline);
    }

    #[test]
    fn sweep_limit_truncates_the_variant_list() {
        let all = parse_query(&req("/sweep?algo=tc&graph=rmat"), &cfg(), true).unwrap();
        let capped = parse_query(&req("/sweep?algo=tc&graph=rmat&limit=2"), &cfg(), true).unwrap();
        assert!(all.variants.len() > 2);
        assert_eq!(capped.variants.len(), 2);
        assert!(capped.sweep);
    }

    #[test]
    fn oracle_summaries_cover_every_algorithm() {
        let g = Prepared::new(SuiteGraph::Grid2d, Scale::Tiny);
        for algo in Algorithm::ALL {
            let s = oracle_summary(algo, &g.input().csr);
            assert!(s.starts_with("{\"kind\":\"serial-"), "{algo:?}: {s}");
        }
    }
}
