//! Small shared pieces: the seeded generator, the one percentile routine,
//! and the JSON number/string writers.
//!
//! The workspace has a splitmix stream and a geomean of its own
//! (`graph::gen::random`, `harness::stats`). They are not used here on
//! purpose: the op lists a seed gives must not change when a PR edits the
//! code under measurement, and every workspace item the benchmark calls is
//! one a later PR cannot rename without breaking the instrument that judges
//! it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from `--seed`, so equal seeds give equal op lists.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound >= 1`); the modulo bias is below 2^-40
    /// for every bound used here.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest rank of percentile `p` among `n` samples (1-based). The small
/// guard keeps `0.99 * 100` from rounding up to rank 100.
fn rank(p: f64, n: usize) -> usize {
    (((p * n as f64) / 100.0 - 1e-9).ceil().max(1.0) as usize).min(n)
}

/// Exact-sample percentile (nearest rank) of an ascending-sorted slice.
/// `None` on an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten
/// samples beyond it, so a reported tail is never one or two stragglers.
/// `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n >= 10 && n - rank(*p, n) >= 10)
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0).unwrap_or(0.0)
}

/// Geometric mean of the positive entries (0 when there are none).
pub fn geomean(v: &[f64]) -> f64 {
    let logs: Vec<f64> = v.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// A finite JSON number with all its digits (non-finite values print 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A set of CPUs as the kernel's affinity calls take it: bit `i` of word
/// `i / 64` is CPU `i`.
pub type CpuSet = [u64; 16];

/// The CPUs this thread may run on, split for an open-loop serving
/// workload: the last one for the load threads, the others for the server.
///
/// An open loop's load threads never block while they wait for a due time,
/// so with the server's threads they are more runnable threads than a small
/// host has cores, and which thread the scheduler happens to put beside
/// which decides a 0.1 ms round trip: unpinned, the median hot read moved by
/// up to 0.24 (quartile spread over ten runs) with no change to the code;
/// with the load threads on a CPU of their own, by 0.03 to 0.08.
#[derive(Clone, Copy)]
pub struct CpuSplit {
    pub all: CpuSet,
    pub server: CpuSet,
    pub load: CpuSet,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `None` where there is nothing to split: fewer than two CPUs, or a
/// platform without the affinity calls. Nothing is pinned then.
pub fn cpu_split() -> Option<CpuSplit> {
    #[cfg(target_os = "linux")]
    {
        let mut all: CpuSet = [0; 16];
        // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes to `all`
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), all.as_mut_ptr()) } != 0 {
            return None;
        }
        split_last(all)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn split_last(all: CpuSet) -> Option<CpuSplit> {
    if all.iter().map(|w| w.count_ones()).sum::<u32>() < 2 {
        return None;
    }
    let word = all.iter().rposition(|w| *w != 0)?;
    let bit = 1u64 << (63 - all[word].leading_zeros());
    let (mut server, mut load) = (all, [0; 16]);
    server[word] &= !bit;
    load[word] = bit;
    Some(CpuSplit { all, server, load })
}

/// Restricts the calling thread, and every thread it starts from now on, to
/// `cpus`. A refusal is ignored: the run is then as if nothing were pinned.
pub fn pin_this_thread(cpus: &CpuSet) {
    #[cfg(target_os = "linux")]
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes from `cpus`
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), cpus.as_ptr());
    }
    #[cfg(not(target_os = "linux"))]
    let _ = cpus;
}

/// One spinning thread of the lowest scheduling class (`SCHED_IDLE`) on each
/// of a set of CPUs, until dropped: a user-space `idle=poll`.
///
/// With the load threads on a CPU of their own, the server's CPUs go idle
/// between requests, and a halted vCPU is woken through the hypervisor: the
/// median hot read rose from 0.11 to 0.15 ms, more at the low rates, and by
/// how much moved with the host from one half hour to the next. Any other
/// thread that becomes runnable preempts a `SCHED_IDLE` one at once and
/// leaves it 3 parts in 1000 of a contended CPU, so the server loses nothing
/// it would have used. Interleaved with the same runs without it, the
/// quartile spread of `serve_hot`'s `p50_ms` was 0.07 against 0.15.
///
/// Not for a CPU whose threads wait by yielding: `sched_yield` hands the CPU
/// to the spinner for a time slice. Tried on `kernels_cpu`, whose pools wait
/// that way, it took 115 cells/s down to 43.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    pub fn on(cpus: &CpuSet) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for cpu in (0..cpus.len() * 64).filter(|i| cpus[i / 64] >> (i % 64) & 1 == 1) {
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut one: CpuSet = [0; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                pin_this_thread(&one);
                // at any other priority it would take the CPU from the server
                if !lowest_priority() {
                    return;
                }
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
        }
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; false where that is refused or
/// does not exist.
fn lowest_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        const SCHED_IDLE: i32 = 5;
        let priority = 0i32; // `struct sched_param`, which this class ignores
                             // SAFETY: the kernel reads one `int` from `priority`
        unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}

#[cfg(test)]
pub mod testjson {
    //! A strict little JSON reader, test-only: the self-tests parse what
    //! the benchmark emits instead of trusting the writers.

    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        pub fn arr(&self) -> &[Value] {
            match self {
                Value::Arr(v) => v,
                _ => &[],
            }
        }
        pub fn str(&self) -> &str {
            match self {
                Value::Str(s) => s,
                _ => "",
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let b = text.as_bytes();
        let mut i = 0;
        let v = value(b, &mut i)?;
        ws(b, &mut i);
        if i != b.len() {
            return Err(format!("trailing bytes at {i}"));
        }
        Ok(v)
    }

    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }

    fn value(b: &[u8], i: &mut usize) -> Result<Value, String> {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                let mut kv = Vec::new();
                loop {
                    ws(b, i);
                    if b.get(*i) == Some(&b'}') {
                        *i += 1;
                        return Ok(Value::Obj(kv));
                    }
                    if !kv.is_empty() {
                        expect(b, i, b',')?;
                        ws(b, i);
                    }
                    let Value::Str(k) = string(b, i)? else {
                        unreachable!()
                    };
                    ws(b, i);
                    expect(b, i, b':')?;
                    kv.push((k, value(b, i)?));
                }
            }
            Some(b'[') => {
                *i += 1;
                let mut items = Vec::new();
                loop {
                    ws(b, i);
                    if b.get(*i) == Some(&b']') {
                        *i += 1;
                        return Ok(Value::Arr(items));
                    }
                    if !items.is_empty() {
                        expect(b, i, b',')?;
                    }
                    items.push(value(b, i)?);
                }
            }
            Some(b'"') => string(b, i),
            Some(b't') => lit(b, i, "true", Value::Bool(true)),
            Some(b'f') => lit(b, i, "false", Value::Bool(false)),
            Some(b'n') => lit(b, i, "null", Value::Null),
            Some(_) => {
                let start = *i;
                while *i < b.len()
                    && matches!(b[*i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    *i += 1;
                }
                std::str::from_utf8(&b[start..*i])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Value::Num)
                    .ok_or_else(|| format!("bad number at {start}"))
            }
            None => Err("unexpected end".into()),
        }
    }

    fn expect(b: &[u8], i: &mut usize, c: u8) -> Result<(), String> {
        if b.get(*i) == Some(&c) {
            *i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {i}", c as char))
        }
    }

    fn lit(b: &[u8], i: &mut usize, word: &str, v: Value) -> Result<Value, String> {
        if b[*i..].starts_with(word.as_bytes()) {
            *i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {i}"))
        }
    }

    fn string(b: &[u8], i: &mut usize) -> Result<Value, String> {
        expect(b, i, b'"')?;
        let mut out = Vec::new();
        loop {
            match b.get(*i) {
                Some(b'"') => {
                    *i += 1;
                    return String::from_utf8(out)
                        .map(Value::Str)
                        .map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let c = *b.get(*i + 1).ok_or("dangling escape")?;
                    *i += 2;
                    match c {
                        b'u' => {
                            let hex = std::str::from_utf8(b.get(*i..*i + 4).ok_or("short \\u")?)
                                .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            let ch = char::from_u32(cp).ok_or("bad code point")?;
                            out.extend_from_slice(ch.to_string().as_bytes());
                            *i += 4;
                        }
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'"' | b'\\' | b'/' => out.push(c),
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    *i += 1;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn cpu_split_gives_the_last_cpu_to_the_load_threads() {
        let mut all: CpuSet = [0; 16];
        assert!(split_last(all).is_none());
        all[0] = 0b100;
        assert!(split_last(all).is_none(), "one CPU is not split");
        all[0] = 0b1101;
        let s = split_last(all).unwrap();
        assert_eq!((s.server[0], s.load[0]), (0b0101, 0b1000));
        all[1] = 1;
        let s = split_last(all).unwrap();
        assert_eq!((s.server[0], s.server[1]), (0b1101, 0));
        assert_eq!((s.load[0], s.load[1]), (0, 1));
        assert_eq!(s.all, all);
    }

    #[test]
    fn geomean_skips_non_positive_entries() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[0.0, 4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            [r.next_u64(), r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut v);
        let mut w = v.clone();
        w.sort_unstable();
        assert_eq!(w, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn json_writers_round_trip_through_the_reader() {
        let text = format!(
            "{{\"s\":{},\"n\":{},\"inf\":{}}}",
            json_str("a\"b\\c\n"),
            json_num(1.25e-7),
            json_num(f64::INFINITY)
        );
        let v = testjson::parse(&text).unwrap();
        assert_eq!(v.get("s").unwrap().str(), "a\"b\\c\n");
        assert_eq!(v.get("n"), Some(&testjson::Value::Num(1.25e-7)));
        assert_eq!(v.get("inf"), Some(&testjson::Value::Num(0.0)));
    }
}
