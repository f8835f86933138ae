//! Request scopes and the crash flight recorder (DESIGN.md §7.10).
//!
//! A [`RequestScope`] is born when a request is admitted and rides through
//! the whole pipeline: it carries the request's deterministic ID (client-
//! supplied `X-Request-Id` or the server-assigned `{seq:016x}`), the
//! arrival instant, and the per-stage durations the engine fills in as the
//! request moves admission → flight claim/join → executor queue → execution.
//! After writeback the server folds the scope into a fixed-size
//! [`ReqRecord`] and pushes it into the [`FlightRecorder`] — a lock-free
//! [`SeqRing`] of the most recent requests, alive in every build (the
//! chaos invariants run telemetry-off).
//!
//! Any 5xx response triggers a dump of the whole ring to
//! `FLIGHT_<n>_<id>.jsonl` in the configured directory — quarantines and
//! breaker trips surface as 500s, deadline exhaustion as 504s, so "every
//! 5xx dumps" covers all three trigger classes. Dumps are capped per
//! server lifetime so a failure storm cannot fill the disk; `/debug/
//! flightrec` reads the same ring on demand without writing anything.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use indigo_obs::{json_str, now_micros, SeqRing};

/// Records the flight recorder retains (newest win).
pub const FLIGHTREC_CAPACITY: usize = 256;

/// Most `FLIGHT_*.jsonl` dumps one server will write (failure-storm cap).
pub const MAX_FLIGHT_DUMPS: u64 = 64;

/// Longest request target preserved in a [`ReqRecord`] (longer targets are
/// truncated — the ID is the durable correlation key, not the target).
pub const MAX_RECORD_TARGET: usize = 48;

/// Longest request ID preserved in a [`ReqRecord`] (matches
/// `http::MAX_REQUEST_ID_BYTES`).
pub const MAX_RECORD_ID: usize = 64;

/// How a request left the pipeline (one byte in the POD record).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    /// Still in flight / never classified (unwritten records only).
    Unknown = 0,
    /// Fresh 2xx execution.
    Ok = 1,
    /// Answered entirely from the fingerprint cache.
    Cached = 2,
    /// Served degraded while a breaker was open.
    Degraded = 3,
    /// Shed by admission control (429).
    Shed = 4,
    /// Deadline exhausted (504).
    Timeout = 5,
    /// 5xx failure (retries exhausted, harness error).
    Error = 6,
    /// 4xx client error.
    BadRequest = 7,
    /// Wrong-answer quarantine (500, never retried).
    Quarantined = 8,
}

impl Outcome {
    /// Stable label for JSON bodies and dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Unknown => "unknown",
            Outcome::Ok => "ok",
            Outcome::Cached => "cached",
            Outcome::Degraded => "degraded",
            Outcome::Shed => "shed",
            Outcome::Timeout => "timeout",
            Outcome::Error => "error",
            Outcome::BadRequest => "bad-request",
            Outcome::Quarantined => "quarantined",
        }
    }

    /// Classifies a status code when the engine didn't set anything finer.
    #[must_use]
    pub fn from_status(status: u16) -> Outcome {
        match status {
            200..=299 => Outcome::Ok,
            429 => Outcome::Shed,
            504 => Outcome::Timeout,
            400..=499 => Outcome::BadRequest,
            _ => Outcome::Error,
        }
    }
}

/// Per-request identity + stage attribution, threaded through the
/// pipeline by reference (see module docs).
#[derive(Clone, Debug)]
pub struct RequestScope {
    /// Server-assigned monotonic sequence number (dispatch order).
    pub seq: u64,
    /// The ID echoed as `X-Request-Id` and reported as `rid` in bodies:
    /// the client's sanitized ID if supplied, else `{seq:016x}`.
    pub echo: String,
    /// When the connection's bytes for this request arrived.
    pub arrived: Instant,
    /// Admission-queue wait: arrival → a worker picked the job up, µs.
    pub queue_us: u64,
    /// Claim submitted → its plan started executing (time queued for a
    /// free executor), µs (0 for cache hits, pure waiters, and non-engine routes).
    pub batch_wait_us: u64,
    /// Route entry → response body assembled, µs (includes batch wait).
    pub execute_us: u64,
    /// Execution attempts (1 = first try; 0 = never reached the engine).
    pub attempts: u64,
    /// For coalesced waiters: the `seq` of the request whose flight served
    /// them (0 = executed its own cells).
    pub served_by: u64,
    /// Pipeline outcome (refined by the engine; defaults from status).
    pub outcome: Outcome,
}

impl RequestScope {
    /// A scope for request `seq` arriving at `arrived`, echoing the
    /// client's sanitized ID when present.
    #[must_use]
    pub fn new(seq: u64, client_id: Option<String>, arrived: Instant) -> RequestScope {
        RequestScope {
            seq,
            echo: client_id.unwrap_or_else(|| format!("{seq:016x}")),
            arrived,
            queue_us: 0,
            batch_wait_us: 0,
            execute_us: 0,
            attempts: 0,
            served_by: 0,
            outcome: Outcome::Unknown,
        }
    }

    /// Elapsed µs since arrival (the running total).
    #[must_use]
    pub fn total_us(&self) -> u64 {
        self.arrived.elapsed().as_micros() as u64
    }

    /// The `"rid"`/`"served_by"`/`"timing"` JSON fragment appended to
    /// engine response bodies (leading comma included). `total_us` is
    /// stamped here, at body assembly, so `queue_us + execute_us ≈
    /// total_us` holds within the route-parse epsilon; the write stage
    /// can't appear in its own body and goes to the recorder instead.
    #[must_use]
    pub fn body_fragment(&self) -> String {
        let served = if self.served_by == 0 {
            "null".to_string()
        } else {
            format!("\"{:016x}\"", self.served_by)
        };
        format!(
            ",\"rid\":{},\"served_by\":{},\"timing\":{{\"queue_us\":{},\"batch_wait_us\":{},\"execute_us\":{},\"total_us\":{}}}",
            json_str(&self.echo),
            served,
            self.queue_us,
            self.batch_wait_us,
            self.execute_us,
            self.total_us(),
        )
    }
}

/// One finished request, fixed-size and `Copy` (inline byte strings) so it
/// can live in the lock-free ring.
#[derive(Clone, Copy)]
pub struct ReqRecord {
    /// Server-assigned sequence number (sort key for dumps).
    pub seq: u64,
    /// Completion timestamp, µs since the process epoch.
    pub ts_us: u64,
    /// HTTP status written.
    pub status: u16,
    /// [`Outcome`] discriminant.
    pub outcome: u8,
    /// Execution attempts.
    pub attempts: u16,
    /// Serving flight's owner seq (0 = own execution).
    pub served_by: u64,
    /// Stage durations, µs (saturated into u32 — 71 min caps).
    pub queue_us: u32,
    /// See [`RequestScope::batch_wait_us`].
    pub batch_wait_us: u32,
    /// See [`RequestScope::execute_us`].
    pub execute_us: u32,
    /// Response serialization + socket write, µs.
    pub write_us: u32,
    /// End-to-end latency, µs.
    pub total_us: u32,
    /// Echoed request ID bytes (`id_len` of them).
    pub id: [u8; MAX_RECORD_ID],
    /// Length of [`ReqRecord::id`].
    pub id_len: u8,
    /// Request target bytes, truncated (`target_len` of them).
    pub target: [u8; MAX_RECORD_TARGET],
    /// Length of [`ReqRecord::target`].
    pub target_len: u8,
}

fn fill(dst: &mut [u8], src: &str) -> u8 {
    let mut n = 0usize;
    for &b in src.as_bytes() {
        if n == dst.len() {
            break;
        }
        dst[n] = b;
        n += 1;
    }
    n as u8
}

fn sat32(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

impl ReqRecord {
    /// The all-zero record seeding unwritten ring slots (never exposed).
    #[must_use]
    pub fn blank() -> ReqRecord {
        ReqRecord {
            seq: 0,
            ts_us: 0,
            status: 0,
            outcome: Outcome::Unknown as u8,
            attempts: 0,
            served_by: 0,
            queue_us: 0,
            batch_wait_us: 0,
            execute_us: 0,
            write_us: 0,
            total_us: 0,
            id: [0; MAX_RECORD_ID],
            id_len: 0,
            target: [0; MAX_RECORD_TARGET],
            target_len: 0,
        }
    }

    /// Folds a finished request into a record. `write_us` is measured by
    /// the caller after the socket write completes.
    #[must_use]
    pub fn from_scope(scope: &RequestScope, target: &str, status: u16, write_us: u64) -> ReqRecord {
        let mut rec = ReqRecord::blank();
        rec.seq = scope.seq;
        rec.ts_us = now_micros();
        rec.status = status;
        rec.outcome = if scope.outcome == Outcome::Unknown {
            Outcome::from_status(status) as u8
        } else {
            scope.outcome as u8
        };
        rec.attempts = scope.attempts.min(u16::MAX as u64) as u16;
        rec.served_by = scope.served_by;
        rec.queue_us = sat32(scope.queue_us);
        rec.batch_wait_us = sat32(scope.batch_wait_us);
        rec.execute_us = sat32(scope.execute_us);
        rec.write_us = sat32(write_us);
        rec.total_us = sat32(scope.total_us());
        rec.id_len = fill(&mut rec.id, &scope.echo);
        rec.target_len = fill(&mut rec.target, target);
        rec
    }

    fn id_str(&self) -> &str {
        std::str::from_utf8(&self.id[..self.id_len as usize]).unwrap_or("")
    }

    fn target_str(&self) -> &str {
        std::str::from_utf8(&self.target[..self.target_len as usize]).unwrap_or("")
    }

    fn outcome_label(&self) -> &'static str {
        match self.outcome {
            1 => Outcome::Ok,
            2 => Outcome::Cached,
            3 => Outcome::Degraded,
            4 => Outcome::Shed,
            5 => Outcome::Timeout,
            6 => Outcome::Error,
            7 => Outcome::BadRequest,
            8 => Outcome::Quarantined,
            _ => Outcome::Unknown,
        }
        .label()
    }

    /// One JSONL line: the record's full stage timeline. `trigger` marks
    /// the record whose 5xx caused the dump it appears in.
    #[must_use]
    pub fn to_json_line(&self, trigger: bool) -> String {
        let served = if self.served_by == 0 {
            "null".to_string()
        } else {
            format!("\"{:016x}\"", self.served_by)
        };
        format!(
            "{{\"seq\":{},\"id\":{},\"ts_us\":{},\"target\":{},\"status\":{},\"outcome\":\"{}\",\"attempts\":{},\"served_by\":{},\"stages\":{{\"queue_us\":{},\"batch_wait_us\":{},\"execute_us\":{},\"write_us\":{},\"total_us\":{}}},\"trigger\":{}}}",
            self.seq,
            json_str(self.id_str()),
            self.ts_us,
            json_str(self.target_str()),
            self.status,
            self.outcome_label(),
            self.attempts,
            served,
            self.queue_us,
            self.batch_wait_us,
            self.execute_us,
            self.write_us,
            self.total_us,
            trigger,
        )
    }
}

/// The in-memory recorder: a seqlock ring of recent [`ReqRecord`]s plus
/// the dump budget.
pub struct FlightRecorder {
    ring: SeqRing<ReqRecord>,
    dumps: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A fresh recorder with [`FLIGHTREC_CAPACITY`] slots.
    #[must_use]
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            ring: SeqRing::new(FLIGHTREC_CAPACITY, ReqRecord::blank()),
            dumps: AtomicU64::new(0),
        }
    }

    /// Pushes one finished request (wait-free, allocation-free).
    pub fn push(&self, rec: ReqRecord) {
        self.ring.push(rec);
    }

    /// Records pushed over the recorder's lifetime.
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.ring.pushed()
    }

    /// Dumps written so far.
    #[must_use]
    pub fn dumps_written(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// Ring contents, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<ReqRecord> {
        let mut recs = self.ring.collect();
        recs.sort_unstable_by_key(|r| r.seq);
        recs
    }

    /// The `/debug/flightrec` body: every live record plus ring totals.
    #[must_use]
    pub fn to_json(&self) -> String {
        let recs = self.records();
        let mut out = String::with_capacity(recs.len() * 160 + 64);
        out.push_str("{\"records\":[");
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json_line(false));
        }
        out.push_str(&format!(
            "],\"pushed\":{},\"dumps_written\":{}}}",
            self.pushed(),
            self.dumps_written()
        ));
        out
    }

    /// Dumps the ring to `FLIGHT_<n>_<trigger id>.jsonl` under `dir`,
    /// marking `trigger_seq`'s record. Returns the path, or `None` once
    /// the [`MAX_FLIGHT_DUMPS`] budget is spent (a failure storm must not
    /// fill the disk) or if the write failed (dumping is best-effort —
    /// the serving path never errors on recorder trouble).
    pub fn dump(&self, dir: &Path, trigger_seq: u64, trigger_id: &str) -> Option<PathBuf> {
        let n = self.dumps.fetch_add(1, Ordering::Relaxed);
        if n >= MAX_FLIGHT_DUMPS {
            self.dumps.store(MAX_FLIGHT_DUMPS, Ordering::Relaxed);
            return None;
        }
        let safe_id: String = trigger_id
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(40)
            .collect();
        let path = dir.join(format!("FLIGHT_{n:03}_{safe_id}.jsonl"));
        let mut body = String::new();
        for r in self.records() {
            body.push_str(&r.to_json_line(r.seq == trigger_seq));
            body.push('\n');
        }
        if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, body).is_err() {
            return None;
        }
        indigo_obs::Counter::ServeFlightDumps.incr();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope(seq: u64) -> RequestScope {
        let mut s = RequestScope::new(seq, None, Instant::now());
        s.queue_us = 10;
        s.batch_wait_us = 5;
        s.execute_us = 40;
        s.attempts = 1;
        s
    }

    #[test]
    fn scope_assigns_hex_ids_and_honors_client_ids() {
        let s = RequestScope::new(255, None, Instant::now());
        assert_eq!(s.echo, "00000000000000ff");
        let c = RequestScope::new(7, Some("mine-42".into()), Instant::now());
        assert_eq!(c.echo, "mine-42");
        let frag = c.body_fragment();
        assert!(frag.starts_with(",\"rid\":\"mine-42\""));
        assert!(frag.contains("\"timing\":{\"queue_us\":0"));
        assert!(frag.contains("\"served_by\":null"));
    }

    #[test]
    fn records_roundtrip_through_the_ring_in_seq_order() {
        let rec = FlightRecorder::new();
        for i in [3u64, 1, 2] {
            rec.push(ReqRecord::from_scope(&scope(i), "/run?algo=bfs", 200, 7));
        }
        let got = rec.records();
        assert_eq!(got.iter().map(|r| r.seq).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(got[0].queue_us, 10);
        assert_eq!(got[0].write_us, 7);
        let body = rec.to_json();
        assert!(body.contains("\"target\":\"/run?algo=bfs\""));
        assert!(body.contains("\"pushed\":3"));
    }

    #[test]
    fn outcome_defaults_from_status_when_engine_left_unknown() {
        let r = ReqRecord::from_scope(&scope(1), "/run", 504, 0);
        assert_eq!(r.outcome, Outcome::Timeout as u8);
        let mut s = scope(2);
        s.outcome = Outcome::Quarantined;
        let r = ReqRecord::from_scope(&s, "/run", 500, 0);
        assert_eq!(r.outcome, Outcome::Quarantined as u8);
        assert!(r.to_json_line(true).contains("\"outcome\":\"quarantined\""));
    }

    #[test]
    fn dump_writes_jsonl_and_respects_the_budget() {
        let dir = std::env::temp_dir().join(format!("indigo-flightrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new();
        rec.push(ReqRecord::from_scope(&scope(1), "/run?algo=bfs", 200, 1));
        rec.push(ReqRecord::from_scope(&scope(2), "/run?algo=sssp", 500, 1));
        let path = rec.dump(&dir, 2, "0000000000000002").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"trigger\":true"));
        assert!(text.contains("\"id\":\"0000000000000002\""));
        assert!(text.contains("\"stages\":{\"queue_us\":10"));
        assert_eq!(rec.dumps_written(), 1);
        // budget: after MAX_FLIGHT_DUMPS the recorder refuses politely
        for _ in 0..(MAX_FLIGHT_DUMPS + 5) {
            rec.dump(&dir, 1, "x");
        }
        assert!(rec.dump(&dir, 1, "x").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn long_ids_and_targets_truncate_without_panicking() {
        let mut s = scope(1);
        s.echo = "i".repeat(500);
        let r = ReqRecord::from_scope(&s, &"t".repeat(500), 200, 0);
        assert_eq!(r.id_len as usize, MAX_RECORD_ID);
        assert_eq!(r.target_len as usize, MAX_RECORD_TARGET);
        // still valid JSON-able strings
        assert!(r.to_json_line(false).contains(&"i".repeat(MAX_RECORD_ID)));
    }
}
