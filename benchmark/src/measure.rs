//! Closed-loop phases: caller latencies in windows scaled to a reference
//! host speed, spans, the counters read at phase boundaries, and the
//! exact-count ledger window.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ingot_common::{Connection, StatementResult, Value};
use ingot_core::Engine;
use ingot_trace::ServerStats;

use crate::hist::Histogram;
use crate::stats::{median, ratio};

/// One statement as its caller saw it. Kept in memory only in traced
/// phases; an untraced phase keeps just the caller latency.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Caller-observed latency (request sent to reply decoded).
    pub caller_ns: u64,
    /// `StatementResult::wallclock_ns`: the engine's own statement time.
    pub engine_ns: u64,
    /// `StatementResult::wait_ns`: the part of `engine_ns` spent waiting.
    pub wait_ns: u64,
}

/// When a phase stops: at `until`, or after `max_ops` statements.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub until: Instant,
    pub max_ops: u64,
}

impl Stop {
    /// Whether a loop that has issued `done` statements must stop.
    pub fn reached(&self, done: u64) -> bool {
        done >= self.max_ops || Instant::now() >= self.until
    }
}

/// One window of wall time: its statements are scaled by the host kernel
/// timed as it opened.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Statements that returned in the window.
    pub count: u64,
    /// Σ and count of the host-kernel times measured as the window opened
    /// (one per client thread).
    pub kernel_ns: u64,
    pub kernels: u64,
    /// Start of the first and end of the last statement, ns after phase start.
    pub first_ns: u64,
    pub last_ns: u64,
}

/// The host-kernel time that defines the reference speed, in ns.
pub const KERNEL_REF_NS: f64 = 100_000.0;

/// A time `ns` measured while the host kernel took `kernel_ns`, at the
/// reference host speed.
pub fn at_reference(ns: f64, kernel_ns: f64) -> f64 {
    ns * KERNEL_REF_NS / kernel_ns
}

/// CPU time consumed by the calling thread, in ns: `CLOCK_THREAD_CPUTIME_ID`.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this builds for).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// A fixed piece of work independent of the program: format, parse and
/// file 300 short statements in a `BTreeMap`, then sort their keys; the
/// fastest of three runs, in ns. Like the program, it allocates, hashes and
/// branches, so it slows down with it when the host is busy: on the machine
/// the benchmark was sized on both took ≈1.6 times longer in the host's
/// slow state than in its fast one.
///
/// It is timed on the calling thread's CPU clock, not the wall clock: while
/// another thread of this process holds the CPU (a server, reaper, ASH or
/// heartbeat thread pinned beside the client), the kernel's clock stops, so
/// a regression that takes CPU from the client shows in the scaled figures
/// instead of being divided out. `--selfcheck` verifies this.
pub fn host_kernel() -> u64 {
    let once = || {
        let t0 = thread_cpu_ns();
        let mut map: BTreeMap<String, u64> = BTreeMap::new();
        let mut keys = Vec::with_capacity(300);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..300u64 {
            x ^= x >> 29;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let sql = format!("select v from kv where id = {} and k = '{i}'", x % 100_000);
            let n: u64 = sql
                .split_whitespace()
                .filter_map(|w| w.parse::<u64>().ok())
                .sum();
            *map.entry(sql).or_default() += n;
            keys.push(x);
        }
        keys.sort_unstable();
        std::hint::black_box((&map, &keys));
        thread_cpu_ns() - t0
    };
    (0..3).map(|_| once()).min().unwrap_or(1).max(1)
}

/// What one closed-loop client (or a merged fleet) observed.
#[derive(Debug)]
pub struct Recorder {
    trace: bool,
    start: Instant,
    /// Statements are grouped by the time they returned into windows of
    /// this length; each window measures the host kernel once.
    window: Duration,
    pub windows: Vec<Window>,
    /// Caller latencies of the returned statements, each scaled by its
    /// window's kernel (see [`host_kernel`]).
    pub scaled: Histogram,
    /// The same latencies as measured.
    pub raw: Histogram,
    /// Per-statement spans (traced phases only).
    pub spans: Vec<Span>,
    /// Statements attempted: this is also the ordinal of the next one.
    pub attempted: u64,
    /// Errors plus wrong results.
    pub failed: u64,
    /// Σ `actual_cost.cpu` (tuples processed) of returned statements.
    pub tuples: f64,
    /// Σ `actual_cost.io` (physical page accesses).
    pub io_pages: f64,
    /// Σ rows returned.
    pub rows: u64,
    /// The last result, kept for encoding the workload's own frames.
    pub last: Option<StatementResult>,
}

impl Recorder {
    pub fn new(trace: bool, start: Instant, window: Duration) -> Recorder {
        Recorder {
            trace,
            start,
            window,
            windows: Vec::new(),
            scaled: Histogram::default(),
            raw: Histogram::default(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            tuples: 0.0,
            io_pages: 0.0,
            rows: 0,
            last: None,
        }
    }

    /// An empty recorder of the same phase, for another client thread.
    pub fn child(&self) -> Recorder {
        Recorder::new(self.trace, self.start, self.window)
    }

    /// Record a statement issued at `t0` that just returned `r`; `correct`
    /// is the caller's output check.
    pub fn record(&mut self, t0: Instant, r: &StatementResult, correct: bool) {
        let end = Instant::now();
        let caller_ns = (end - t0).as_nanos() as u64;
        let idx = ((end - self.start).as_nanos() / self.window.as_nanos().max(1)) as usize;
        if self.windows.len() <= idx {
            self.windows.resize_with(idx + 1, Window::default);
        }
        let w = &mut self.windows[idx];
        if w.kernels == 0 {
            w.kernel_ns = host_kernel();
            w.kernels = 1;
        }
        let first = (t0 - self.start).as_nanos() as u64;
        if w.count == 0 || first < w.first_ns {
            w.first_ns = first;
        }
        w.last_ns = w.last_ns.max((end - self.start).as_nanos() as u64);
        w.count += 1;
        self.scaled
            .record(at_reference(caller_ns as f64, w.kernel_ns as f64) as u64);
        self.raw.record(caller_ns);
        self.attempted += 1;
        self.failed += u64::from(!correct);
        self.tuples += r.actual_cost.cpu;
        self.io_pages += r.actual_cost.io;
        self.rows += r.rows.len() as u64;
        if self.trace {
            self.spans.push(Span {
                caller_ns,
                engine_ns: r.wallclock_ns,
                wait_ns: r.wait_ns,
            });
        }
    }

    /// Record one statement that returned an error.
    pub fn error(&mut self, e: &ingot_common::Error) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("statement failed: {e}");
    }

    /// Fold another client's observations into this one.
    pub fn merge(&mut self, other: Recorder) {
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), Window::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            if theirs.count == 0 {
                continue;
            }
            if mine.count == 0 || theirs.first_ns < mine.first_ns {
                mine.first_ns = theirs.first_ns;
            }
            mine.last_ns = mine.last_ns.max(theirs.last_ns);
            mine.count += theirs.count;
            mine.kernel_ns += theirs.kernel_ns;
            mine.kernels += theirs.kernels;
        }
        self.scaled.merge(&other.scaled);
        self.raw.merge(&other.raw);
        self.spans.extend(other.spans);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tuples += other.tuples;
        self.io_pages += other.io_pages;
        self.rows += other.rows;
        if other.last.is_some() {
            self.last = other.last;
        }
    }

    /// Statements that returned.
    pub fn returned(&self) -> u64 {
        self.raw.len()
    }
}

/// Throughput at the reference host speed: the statements of every window
/// over its wall time scaled by the kernel timed as it opened.
#[derive(Debug, Clone, Copy)]
pub struct Scaled {
    pub ops_per_s: f64,
    /// Median host-kernel time over the windows, in ns.
    pub kernel_ns: f64,
}

pub fn host_scaled(windows: &[Window]) -> Scaled {
    let (mut count, mut scaled_ns) = (0, 0.0);
    let mut kernels = Vec::new();
    for w in windows.iter().filter(|w| w.count > 0) {
        let kernel = w.kernel_ns as f64 / w.kernels as f64;
        count += w.count;
        scaled_ns += at_reference((w.last_ns - w.first_ns) as f64, kernel);
        kernels.push(kernel);
    }
    Scaled {
        ops_per_s: ratio(count as f64, scaled_ns / 1e9),
        kernel_ns: median(&kernels),
    }
}

/// Engine and server counters, read through their public accessors.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub buf_evictions: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_fsyncs: u64,
    pub wal_groups: u64,
    pub wal_grouped_commits: u64,
    pub frames: u64,
    pub wire_bytes: u64,
    pub heartbeats: u64,
    pub ash_samples: u64,
    pub lock_waits: u64,
}

impl Counters {
    pub fn read(engine: &Engine, server: Option<&ServerStats>) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let plan = engine.plan_cache_stats();
        let buf = engine.buffer_stats();
        let wal = engine.wal_stats();
        let mut c = Counters {
            plan_hits: plan.hits,
            plan_misses: plan.misses,
            buf_hits: buf.hits,
            buf_misses: buf.misses,
            buf_evictions: buf.evictions,
            wal_appends: wal.appends,
            wal_bytes: wal.bytes_written,
            wal_fsyncs: wal.fsyncs,
            wal_groups: wal.groups,
            wal_grouped_commits: wal.grouped_commits,
            ash_samples: engine.ash_sampler().map_or(0, |a| a.samples_taken()),
            lock_waits: engine.locks().stats().waits_total,
            ..Counters::default()
        };
        if let Some(s) = server {
            c.frames = s.frames_in.load(Relaxed) + s.frames_out.load(Relaxed);
            c.wire_bytes = s.bytes_in.load(Relaxed) + s.bytes_out.load(Relaxed);
            c.heartbeats = s.heartbeats.load(Relaxed);
        }
        c
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, e: &Counters) -> Counters {
        Counters {
            plan_hits: self.plan_hits - e.plan_hits,
            plan_misses: self.plan_misses - e.plan_misses,
            buf_hits: self.buf_hits - e.buf_hits,
            buf_misses: self.buf_misses - e.buf_misses,
            buf_evictions: self.buf_evictions - e.buf_evictions,
            wal_appends: self.wal_appends - e.wal_appends,
            wal_bytes: self.wal_bytes - e.wal_bytes,
            wal_fsyncs: self.wal_fsyncs - e.wal_fsyncs,
            wal_groups: self.wal_groups - e.wal_groups,
            wal_grouped_commits: self.wal_grouped_commits - e.wal_grouped_commits,
            frames: self.frames - e.frames,
            wire_bytes: self.wire_bytes - e.wire_bytes,
            heartbeats: self.heartbeats - e.heartbeats,
            ash_samples: self.ash_samples - e.ash_samples,
            lock_waits: self.lock_waits - e.lock_waits,
        }
    }
}

/// Totals read from the engine's SQL surface (`ima$wait_events`,
/// `ima$transactions`) at phase boundaries.
#[derive(Debug, Clone, Default)]
pub struct ImaTotals {
    /// `(event, total_ns)` for every wait event, in taxonomy order.
    pub waits_ns: Vec<(String, u64)>,
    pub aborts: u64,
    pub validation_failures: u64,
}

impl ImaTotals {
    pub fn read(conn: &dyn Connection) -> ingot_common::Result<ImaTotals> {
        let int = |v: &Value| v.as_int().unwrap_or(0) as u64;
        let waits = conn.query("select event, total_ns from ima$wait_events")?;
        let txns = conn.query("select metric, value from ima$transactions")?;
        let metric = |name: &str| {
            txns.rows
                .iter()
                .find(|r| r.get(0).as_str() == Some(name))
                .map_or(0, |r| int(r.get(1)))
        };
        Ok(ImaTotals {
            waits_ns: waits
                .rows
                .iter()
                .map(|r| (r.get(0).as_str().unwrap_or("?").to_owned(), int(r.get(1))))
                .collect(),
            aborts: metric("aborted_total"),
            validation_failures: metric("validation_failures"),
        })
    }

    pub fn since(&self, e: &ImaTotals) -> ImaTotals {
        ImaTotals {
            waits_ns: self
                .waits_ns
                .iter()
                .map(|(name, ns)| {
                    let before = e
                        .waits_ns
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |w| w.1);
                    (name.clone(), ns - before)
                })
                .collect(),
            aborts: self.aborts - e.aborts,
            validation_failures: self.validation_failures - e.validation_failures,
        }
    }
}

/// Counts over the ledger window: statements `[len, 2*len)` of a phase,
/// whose inputs are the same in every phase for a fixed seed.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    pub counters: Counters,
    pub tuples: f64,
    pub rows: u64,
}

/// One measured phase.
pub struct Phase {
    pub rec: Recorder,
    pub elapsed: Duration,
    /// Counter deltas over the whole phase.
    pub counters: Counters,
    pub ledger: Option<Ledger>,
    /// Engine monotonic clock at phase start (filters `Monitor::workload`).
    pub start_ns: u64,
}

/// A workload's statement loop: issue statements until `Stop`, numbering
/// them by `Recorder::attempted` so each phase replays the same inputs.
pub type RunFn<'a> = dyn FnMut(Stop, &mut Recorder) + 'a;

/// The engine and, for wire workloads, the server whose counters a phase
/// reads.
#[derive(Clone)]
pub struct Target {
    pub engine: Arc<Engine>,
    pub server: Option<Arc<ServerStats>>,
}

impl Target {
    pub fn counters(&self) -> Counters {
        Counters::read(&self.engine, self.server.as_deref())
    }
}

/// How to run one phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpec {
    pub seconds: f64,
    pub trace: bool,
    /// Statements per ledger window; 0 for none.
    pub ledger: u64,
    /// Keep issuing statements past the deadline until this many.
    pub min_ops: u64,
    pub window: Duration,
}

/// Run one phase. With a ledger the phase first runs two windows of that
/// many statements and records the counters of the second one; then it
/// continues until the deadline, and past it until `min_ops` statements.
pub fn run_phase(run: &mut RunFn<'_>, target: &Target, spec: PhaseSpec) -> Phase {
    let start_ns = target.engine.wall_clock().now_nanos();
    let c0 = target.counters();
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(spec.seconds);
    let mut rec = Recorder::new(spec.trace, t0, spec.window);
    let ops = |n| Stop {
        until: t0 + Duration::from_secs(3600),
        max_ops: n,
    };
    let ledger = (spec.ledger > 0).then(|| {
        run(ops(spec.ledger), &mut rec);
        let (a, tuples, rows) = (target.counters(), rec.tuples, rec.rows);
        run(ops(2 * spec.ledger), &mut rec);
        Ledger {
            counters: target.counters().since(&a),
            tuples: rec.tuples - tuples,
            rows: rec.rows - rows,
        }
    });
    run(
        Stop {
            until,
            max_ops: u64::MAX,
        },
        &mut rec,
    );
    if rec.attempted < spec.min_ops {
        run(ops(spec.min_ops), &mut rec);
    }
    let elapsed = t0.elapsed();
    Phase {
        counters: target.counters().since(&c0),
        rec,
        elapsed,
        ledger,
        start_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(kernel_ns: u64, span_ns: u64, count: u64) -> Window {
        Window {
            count,
            kernel_ns,
            kernels: 1,
            first_ns: 0,
            last_ns: span_ns,
        }
    }

    #[test]
    fn windows_are_scaled_by_their_own_kernel() {
        // The same work seen at reference speed and on a host twice as slow.
        assert_eq!(at_reference(40.0, 100_000.0), 40.0);
        assert_eq!(at_reference(80.0, 200_000.0), 40.0);
        let fast = window(100_000, 1_000_000, 20);
        let slow = window(200_000, 2_000_000, 20);
        let s = host_scaled(&[fast, slow, Window::default()]);
        // 40 statements in 1 ms + 2 ms scaled to 1 ms: 2 ms of reference time.
        assert!((s.ops_per_s - 20_000.0).abs() < 1e-6);
        assert_eq!(s.kernel_ns, 150_000.0);
    }

    #[test]
    fn the_kernel_clock_stops_while_the_thread_is_off_cpu() {
        let (cpu0, wall0) = (thread_cpu_ns(), Instant::now());
        // Off the CPU for 50 ms: a wait that nothing ends early.
        let (_tx, rx) = std::sync::mpsc::channel::<()>();
        let _ = rx.recv_timeout(Duration::from_millis(50));
        let cpu = thread_cpu_ns() - cpu0;
        assert!(wall0.elapsed() >= Duration::from_millis(50));
        assert!(cpu < 10_000_000, "{cpu} ns of CPU while asleep");
        assert!(host_kernel() > 0);
    }

    #[test]
    fn merged_threads_keep_every_kernel() {
        let t0 = Instant::now();
        let mut a = Recorder::new(false, t0, Duration::from_secs(60));
        let mut b = a.child();
        let r = StatementResult::default();
        a.record(Instant::now(), &r, true);
        b.record(Instant::now(), &r, false);
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.returned()), (2, 1, 2));
        assert_eq!((a.windows[0].count, a.windows[0].kernels), (2, 2));
        assert_eq!(a.scaled.len(), 2);
    }
}
