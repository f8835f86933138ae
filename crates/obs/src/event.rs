//! Trace events: monotonic-timestamped spans and instants, with a flat
//! JSONL wire form.
//!
//! One event is one line: `{"v": 1, "ts": …, "dur": …, "kind": "…",
//! "name": "…", "tid": …, "args": {…}}` — `ts`/`dur` in microseconds since
//! the process epoch, `dur == 0` for instants, and `args` a flat object of
//! string values. The format is hand-rolled (the workspace is dependency-
//! free) and mirrors the checkpoint journal's discipline: the writer emits
//! whole lines, the reader ([`load_trace`]) skips malformed lines, so a
//! torn tail from a killed run costs exactly one event.
//!
//! Everything here is compiled regardless of the `telemetry` feature:
//! `indigo-exp trace` / `indigo-exp profile` must read traces recorded by
//! other builds.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Wire-format version stamped into every line.
pub const TRACE_VERSION: u32 = 1;

/// Event kinds the validator accepts.
pub const KNOWN_KINDS: &[&str] = &[
    "run-start",
    "run-end",
    "phase",
    "cell",
    "watchdog-arm",
    "watchdog-fire",
    "counters",
    "request",
];

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Microseconds since the process-wide monotonic epoch (set on first call).
#[must_use]
pub fn now_micros() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start timestamp, µs since the process epoch.
    pub ts_us: u64,
    /// Span duration in µs; 0 for instants.
    pub dur_us: u64,
    /// Event kind (see [`KNOWN_KINDS`]).
    pub kind: String,
    /// Human-readable name (phase label, cell identity, …).
    pub name: String,
    /// Logical thread/worker id of the emitter.
    pub tid: u64,
    /// Flat key → string-value payload.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// A span covering `[ts_us, ts_us + dur_us)`.
    #[must_use]
    pub fn span(kind: &str, name: impl Into<String>, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            ts_us,
            dur_us,
            kind: kind.to_string(),
            name: name.into(),
            tid: 0,
            args: Vec::new(),
        }
    }

    /// An instant at `ts_us`.
    #[must_use]
    pub fn instant(kind: &str, name: impl Into<String>, ts_us: u64) -> TraceEvent {
        TraceEvent::span(kind, name, ts_us, 0)
    }

    /// Attaches one arg (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: &str, value: impl Into<String>) -> TraceEvent {
        self.args.push((key.to_string(), value.into()));
        self
    }

    /// Sets the logical thread id (builder style).
    #[must_use]
    pub fn with_tid(mut self, tid: u64) -> TraceEvent {
        self.tid = tid;
        self
    }

    /// Looks up an arg by key.
    #[must_use]
    pub fn arg(&self, key: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// An arg parsed as `f64`.
    #[must_use]
    pub fn arg_f64(&self, key: &str) -> Option<f64> {
        self.arg(key).and_then(|v| v.parse().ok())
    }

    /// Encodes the event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = format!(
            "{{\"v\": {TRACE_VERSION}, \"ts\": {}, \"dur\": {}, \"kind\": {}, \"name\": {}, \"tid\": {}, \"args\": {{",
            self.ts_us,
            self.dur_us,
            json_str(&self.kind),
            json_str(&self.name),
            self.tid,
        );
        for (i, (k, v)) in self.args.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(k));
            s.push_str(": ");
            s.push_str(&json_str(v));
        }
        s.push_str("}}");
        s
    }

    /// Parses one JSONL line back into an event.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err("not a JSON object".to_string());
        }
        let v = parse_u64_field(line, "v")?;
        if v != u64::from(TRACE_VERSION) {
            return Err(format!("unsupported trace version {v}"));
        }
        let ts_us = parse_u64_field(line, "ts")?;
        let dur_us = parse_u64_field(line, "dur")?;
        let tid = parse_u64_field(line, "tid")?;
        let kind = parse_str_field(line, "kind")?;
        let name = parse_str_field(line, "name")?;
        let args = parse_args_object(line)?;
        Ok(TraceEvent {
            ts_us,
            dur_us,
            kind,
            name,
            tid,
            args,
        })
    }
}

/// Parses **and validates** one line: version, known kind, non-empty name.
/// This is the schema check used by tests and `indigo-exp trace --check`.
pub fn validate_line(line: &str) -> Result<TraceEvent, String> {
    let ev = TraceEvent::parse(line)?;
    if !KNOWN_KINDS.contains(&ev.kind.as_str()) {
        return Err(format!("unknown event kind `{}`", ev.kind));
    }
    if ev.name.is_empty() {
        return Err("empty event name".to_string());
    }
    Ok(ev)
}

/// Loads a trace file, skipping malformed lines (torn tails, partial
/// writes). Returns the events plus the number of lines skipped.
pub fn load_trace(path: &Path) -> std::io::Result<(Vec<TraceEvent>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut events = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match validate_line(line) {
            Ok(ev) => events.push(ev),
            Err(_) => skipped += 1,
        }
    }
    Ok((events, skipped))
}

// ---- minimal flat-JSON machinery ----------------------------------------

/// Escapes `s` as a JSON string literal (quotes included).
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite `f64` as a JSON number (shortest round-trip form).
/// JSON has no NaN/inf literals — those become `null`.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Finds `"key": ` at top level and returns the byte offset just past it.
fn find_field(line: &str, key: &str) -> Option<usize> {
    let tag = format!("\"{key}\": ");
    // keys never appear inside the args object with these reserved names,
    // and values are escaped, so a plain find on the quoted tag is exact
    line.find(&tag).map(|at| at + tag.len())
}

fn parse_u64_field(line: &str, key: &str) -> Result<u64, String> {
    let at = find_field(line, key).ok_or_else(|| format!("missing field `{key}`"))?;
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|_| format!("field `{key}` is not a number"))
}

/// Reads a JSON string literal starting at `rest[0] == '"'`; returns the
/// unescaped value and the byte length consumed (including both quotes).
fn read_string(rest: &str) -> Result<(String, usize), String> {
    let mut chars = rest.char_indices();
    match chars.next() {
        Some((_, '"')) => {}
        _ => return Err("expected string".to_string()),
    }
    let mut out = String::new();
    let mut escaped = false;
    for (i, c) in chars {
        if escaped {
            match c {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => out.push('\u{fffd}'), // \uXXXX: only written for C0 controls; lossy is fine
                other => out.push(other),
            }
            escaped = false;
            continue;
        }
        match c {
            '\\' => escaped = true,
            '"' => return Ok((out, i + 1)),
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

fn parse_str_field(line: &str, key: &str) -> Result<String, String> {
    let at = find_field(line, key).ok_or_else(|| format!("missing field `{key}`"))?;
    read_string(&line[at..]).map(|(s, _)| s)
}

/// Parses the trailing `"args": { "k": "v", … }` object.
fn parse_args_object(line: &str) -> Result<Vec<(String, String)>, String> {
    let at = find_field(line, "args").ok_or_else(|| "missing field `args`".to_string())?;
    let mut rest = line[at..]
        .strip_prefix('{')
        .ok_or_else(|| "args is not an object".to_string())?
        .trim_start();
    let mut args = Vec::new();
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            let _ = after;
            return Ok(args);
        }
        let (key, used) = read_string(rest)?;
        rest = rest[used..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| "missing `:` in args".to_string())?
            .trim_start();
        let (value, used) = read_string(rest)?;
        args.push((key, value));
        rest = rest[used..].trim_start();
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_args_and_escapes() {
        let ev = TraceEvent::span("cell", "bfs|grid\"2d\"", 120, 45)
            .with_tid(3)
            .with_arg("variant", "bfs-cuda\\topo")
            .with_arg("outcome", "ok")
            .with_arg("note", "line1\nline2");
        let line = ev.to_json_line();
        let back = TraceEvent::parse(&line).unwrap();
        assert_eq!(back, ev);
        assert_eq!(back.arg("outcome"), Some("ok"));
        assert_eq!(back.arg("missing"), None);
    }

    #[test]
    fn escapes_cover_the_dangerous_cases() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn validate_rejects_garbage_and_unknown_kinds() {
        assert!(validate_line("not json").is_err());
        assert!(validate_line("{\"v\": 1}").is_err());
        let bad_kind = TraceEvent::instant("martian", "x", 1).to_json_line();
        assert!(validate_line(&bad_kind).unwrap_err().contains("unknown"));
        let ok = TraceEvent::instant("phase", "gpu-sim", 1).to_json_line();
        assert!(validate_line(&ok).is_ok());
        // a torn prefix of a valid line must be rejected, not mis-parsed
        let torn = &ok[..ok.len() / 2];
        assert!(validate_line(torn).is_err());
    }

    #[test]
    fn load_trace_skips_torn_tail() {
        let dir = std::env::temp_dir().join(format!("indigo-obs-ev-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let a = TraceEvent::instant("run-start", "smoke", 1).to_json_line();
        let b = TraceEvent::span("phase", "gpu-sim", 2, 100).to_json_line();
        let torn = &b[..b.len() - 7]; // killed mid-write
        std::fs::write(&path, format!("{a}\n{b}\n{torn}")).unwrap();
        let (events, skipped) = load_trace(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(skipped, 1);
        assert_eq!(events[0].kind, "run-start");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monotonic_clock_is_monotonic() {
        let a = now_micros();
        let b = now_micros();
        assert!(b >= a);
    }

    #[test]
    fn arg_f64_parses_numbers() {
        let ev = TraceEvent::instant("cell", "x", 0).with_arg("geps", "1.25");
        assert_eq!(ev.arg_f64("geps"), Some(1.25));
        assert_eq!(ev.arg_f64("absent"), None);
    }
}
