//! Server configuration (DESIGN.md §7.8).

use crate::breaker::BreakerConfig;
use crate::retry::RetryPolicy;
use indigo_graph::gen::Scale;
use std::path::PathBuf;
use std::time::Duration;

/// Everything the server needs to start. `Default` is tuned for tests and
/// the chaos harness: loopback, ephemeral port, tiny graphs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Admission-queue capacity; connections beyond it are shed (429).
    pub queue: usize,
    /// `--jobs` handed to `run_cells_on` per plan.
    pub jobs: usize,
    /// Deadline for requests that don't pass `deadline_ms`.
    pub default_deadline: Duration,
    /// Largest accepted per-request deadline (larger asks are clamped).
    pub max_deadline: Duration,
    /// Scale for requests that don't pass `scale`.
    pub default_scale: Scale,
    /// Repetitions per cell.
    pub reps: usize,
    /// Retry policy for transiently failed cells.
    pub retry: RetryPolicy,
    /// Per-graph-shard circuit breaker tuning.
    pub breaker: BreakerConfig,
    /// Journal path for crash-only persistence (`None` = in-memory only).
    pub journal: Option<PathBuf>,
    /// Honor `fault=`/`fault_attempts=` query parameters (chaos harness
    /// only — a production server must never let clients inject faults).
    pub allow_fault_param: bool,
    /// How long a connection may dribble in its request head before the
    /// reactor reaps it (slow-loris bound).
    pub header_timeout: Duration,
    /// Directory the flight recorder dumps `FLIGHT_*.jsonl` files into on
    /// any 5xx response (`None` disables dumping; the in-memory ring and
    /// `/debug/flightrec` stay live either way).
    pub flightrec_dir: Option<PathBuf>,
    /// Latency SLO threshold, µs — `/metrics` reports the rolling-window
    /// violation ratio and burn rate against it.
    pub slo_micros: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 16,
            jobs: 1,
            default_deadline: Duration::from_secs(2),
            max_deadline: Duration::from_secs(60),
            default_scale: Scale::Tiny,
            reps: 1,
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            journal: None,
            allow_fault_param: false,
            header_timeout: Duration::from_secs(10),
            flightrec_dir: None,
            slo_micros: 250_000,
        }
    }
}

/// Lowercase scale label used in queries and responses.
pub fn scale_label(s: Scale) -> &'static str {
    match s {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Default => "default",
        Scale::Large => "large",
    }
}

/// Parses a scale label.
pub fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        other => Err(format!(
            "unknown scale `{other}` (tiny|small|default|large)"
        )),
    }
}
