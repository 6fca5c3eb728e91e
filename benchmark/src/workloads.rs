//! The four workloads: set-up, closed-loop statement streams, output
//! checks, and what each contributes to the traced run.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ingot_client::ClientConnection;
use ingot_common::{
    Connection, EngineConfig, Error, PreparedStatement, Result, Row, SocketSpec, SplitMix64, Value,
};
use ingot_core::Engine;
use ingot_server::{RunOutcome, Server, ServerConfig, StopHandle};
use ingot_trace::ServerStats;
use ingot_workload::{analytic_queries, load_nref, nref_schema_ddl, NrefConfig};

use crate::digest::{is_ordered, result_digest};
use crate::hist::Histogram;
use crate::layers::{self, Probes, Shape, Summary, Traced};
use crate::measure::{
    at_reference, host_kernel, host_scaled, run_phase, ImaTotals, Phase, PhaseSpec, Recorder,
    RunFn, Stop, Target,
};
use crate::report::{dir_bytes, peak_rss_mib, run_context, Json, Metric};
use crate::stats::{median, ratio};

/// Rows of `kv`, the table of the point and insert workloads. 64 Ki rows
/// of two ints take ≈860 B-Tree pages: resident in the default
/// 2,048-page pool.
pub const KV_ROWS: i64 = 65_536;
const SELECT: &str = "select v from kv where id = $1";
const INSERT: &str = "insert into kv values ($1, $2)";

/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 3;
/// NREF scale of `analytic_cold`: ≈197 data pages against a 64-page pool,
/// small enough that a ten-second run holds thousands of queries (a p99
/// needs 1,000).
const NREF_PROTEINS: u64 = 1_250;
const ANALYTIC_POOL_PAGES: usize = 64;
/// The analytic set: its 50 queries are one pass.
const PASS: u64 = 50;
/// Statements in the exact-count ledger window of the point workloads.
const POINT_LEDGER: u64 = 5_000;
/// Fewest samples for the reported p99 to keep ten samples beyond it.
const MIN_SAMPLES: u64 = 1_000;
/// Windows of wall time, each scaled by its own host-kernel measurement.
/// The machine the benchmark was sized on switches between a fast and a
/// ≈1.6 times slower state (other tenants), often several times a second:
/// with 100 ms windows, samples of one state scaled by a kernel timed in
/// the other spread the point_wire p90 by up to 0.19 over ten seeds. The
/// kernel's ≈0.2 ms per window costs ≈1% of `ops_per_s`, the same in
/// every run.
const WINDOW: Duration = Duration::from_millis(20);

/// The gated p50 and p90 average the samples ranked within this share of
/// their rank (see [`Histogram::band_mean`]).
const BAND: f64 = 0.01;

/// The band mean around the `q`-quantile of `h`, in µs.
fn band_us(h: &Histogram, q: f64) -> f64 {
    h.band_mean(q, BAND).map_or(f64::NAN, |ns| ns / 1e3)
}

/// Clients issuing inserts concurrently: the fewest that could share a
/// commit group, and no more than the two cores the benchmark was sized
/// on. At two closed-loop clients the groups hold about one commit each:
/// the clients take turns leading them.
const INSERT_CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PointEmbedded,
    PointWire,
    InsertWire,
    AnalyticCold,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointEmbedded,
        Workload::PointWire,
        Workload::InsertWire,
        Workload::AnalyticCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointEmbedded => "point_embedded",
            Workload::PointWire => "point_wire",
            Workload::InsertWire => "insert_wire",
            Workload::AnalyticCold => "analytic_cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One invocation's parameters.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run the host-scaling self-check instead of measuring.
    pub selfcheck: bool,
}

/// What a run prints.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run context, sample counts, set-up times and ledgers.
    pub report: Json,
}

/// The `i`-th point key of the stream `seed`: uniform over `kv`.
pub fn point_key(seed: u64, i: u64) -> i64 {
    let mut rng = SplitMix64::new(seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03));
    (rng.next_u64() % KV_ROWS as u64) as i64
}

/// The `i`-th insert key of the stream `seed`: above every preloaded key,
/// scattered over the tree, and distinct for every `i < 2^30` (an odd
/// multiplier is a bijection modulo a power of two).
pub fn insert_key(seed: u64, i: u64) -> i64 {
    const MASK: u64 = (1 << 30) - 1;
    let offset = SplitMix64::new(seed).next_u64();
    KV_ROWS + (i.wrapping_mul(0x2545_F491).wrapping_add(offset) & MASK) as i64
}

/// Scratch space of this process inside the benchmark directory.
fn run_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("run-{}", std::process::id()))
}

/// Unix socket paths are limited to ~100 bytes: prefer the path relative
/// to the working directory when it is shorter.
fn socket_path(path: PathBuf) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|rel| rel.as_os_str().len() < path.as_os_str().len())
        .unwrap_or(path)
}

/// An in-process server on a unix socket.
struct Served {
    spec: SocketSpec,
    stop: StopHandle,
    join: JoinHandle<Result<RunOutcome>>,
    stats: Arc<ServerStats>,
}

impl Served {
    fn start(engine: &Arc<Engine>, sock: PathBuf) -> Result<Served> {
        let spec = SocketSpec::Unix(socket_path(sock));
        let mut cfg = ServerConfig::new(spec.clone());
        cfg.drain_deadline_ms = 10_000;
        let server = Server::bind(Arc::clone(engine), cfg)?;
        let stats = Arc::clone(server.stats());
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Served {
            spec,
            stop,
            join,
            stats,
        })
    }

    fn connect(&self, n: usize) -> Result<Vec<ClientConnection>> {
        (0..n)
            .map(|i| ClientConnection::connect_with_name(&self.spec, &format!("bench-{i}")))
            .collect()
    }

    /// Stop accepting, drain, and wait for the server thread.
    fn shutdown(self) -> Result<()> {
        self.stop.request_stop();
        self.join
            .join()
            .map_err(|_| Error::execution("server thread panicked"))?
            .map(|_| ())
    }
}

/// An engine on `dir`, optionally served to `clients` wire connections.
struct Instance {
    dir: PathBuf,
    engine: Arc<Engine>,
    served: Option<Served>,
    clients: Vec<ClientConnection>,
}

impl Instance {
    fn target(&self) -> Target {
        Target {
            engine: Arc::clone(&self.engine),
            server: self.served.as_ref().map(|s| Arc::clone(&s.stats)),
        }
    }

    /// Close clients and server; returns the engine and its directory.
    fn stop_serving(self) -> Result<(Arc<Engine>, PathBuf)> {
        drop(self.clients);
        if let Some(s) = self.served {
            s.shutdown()?;
        }
        Ok((self.engine, self.dir))
    }

    fn discard(self) -> Result<()> {
        let (engine, dir) = self.stop_serving()?;
        drop(engine);
        std::fs::remove_dir_all(&dir).map_err(|e| Error::storage(e.to_string()))
    }
}

fn kv_config() -> EngineConfig {
    // Monitoring setup with the default durability: WAL group commit,
    // default window, no simulated fsync delay (a real fsync on this disk).
    EngineConfig::monitoring()
}

/// Build `kv` file-backed in `dir`: B-Tree, loaded in one transaction,
/// then checkpointed so the data files hold it and the log is cut.
fn kv_instance(dir: PathBuf, clients: usize, sock: PathBuf) -> Result<Instance> {
    let engine = Engine::builder().config(kv_config()).path(&dir).build()?;
    {
        let s = engine.open_session();
        s.execute("create table kv (id int not null primary key, v int)")?;
        s.execute("modify kv to btree")?;
        s.begin()?;
        let ins = s.prepare(INSERT)?;
        for id in 0..KV_ROWS {
            ins.execute(&[Value::Int(id), Value::Int(id * 10)])?;
        }
        drop(ins);
        s.commit()?;
    }
    engine.checkpoint()?;
    let served = (clients > 0)
        .then(|| Served::start(&engine, sock))
        .transpose()?;
    let clients = match &served {
        Some(s) => s.connect(clients)?,
        None => Vec::new(),
    };
    Ok(Instance {
        dir,
        engine,
        served,
        clients,
    })
}

fn nref_config(seed: u64) -> NrefConfig {
    NrefConfig {
        proteins: NREF_PROTEINS,
        seed,
        ..NrefConfig::scaled(NREF_PROTEINS as f64 / NrefConfig::default().proteins as f64)
    }
}

fn nref_engine_config() -> EngineConfig {
    EngineConfig::monitoring().with_buffer_pool_pages(ANALYTIC_POOL_PAGES)
}

/// Keyed NREF, file-backed: bulk load, statistics, B-Tree primary
/// structures, checkpoint, then a reopen so the pool starts cold (the pool
/// is no-steal, so pages dirtied by the load would otherwise stay resident).
fn nref_instance(dir: PathBuf, cfg: &NrefConfig) -> Result<Instance> {
    {
        let engine = Engine::builder()
            .config(nref_engine_config())
            .path(&dir)
            .build()?;
        load_nref(&engine, cfg)?;
        let s = engine.open_session();
        for table in nref_tables() {
            s.execute(&format!("create statistics on {table}"))?;
            s.execute(&format!("modify {table} to btree"))?;
        }
        drop(s);
        engine.checkpoint()?;
    }
    let engine = Engine::builder()
        .config(nref_engine_config())
        .path(&dir)
        .build()?;
    Ok(Instance {
        dir,
        engine,
        served: None,
        clients: Vec::new(),
    })
}

fn nref_tables() -> Vec<&'static str> {
    nref_schema_ddl()
        .into_iter()
        .filter_map(|ddl| ddl.split_whitespace().nth(2))
        .collect()
}

/// Set-up times in seconds: as measured, and scaled to the reference host
/// speed by the host kernel timed just before and just after each set-up.
#[derive(Debug, Default)]
struct SetupTimes {
    raw: Vec<f64>,
    scaled: Vec<f64>,
}

/// Set up `SETUPS` times, timing each; keep the last instance.
fn repeated_setup(
    mut build: impl FnMut(PathBuf, PathBuf) -> Result<Instance>,
) -> Result<(Instance, SetupTimes)> {
    let root = run_dir();
    let mut times = SetupTimes::default();
    let mut kept: Option<Instance> = None;
    for k in 0..SETUPS {
        if let Some(previous) = kept.take() {
            previous.discard()?;
        }
        let before = host_kernel();
        let t0 = Instant::now();
        let inst = build(
            root.join(format!("data{k}")),
            root.join(format!("s{k}.sock")),
        )?;
        let secs = t0.elapsed().as_secs_f64();
        let kernel = (before + host_kernel()) as f64 / 2.0;
        times.raw.push(secs);
        times.scaled.push(at_reference(secs, kernel));
        kept = Some(inst);
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// Payload bytes of a row as the user wrote it (8 per number, the string
/// length, 1 per boolean).
fn user_bytes(row: &Row) -> u64 {
    row.values()
        .iter()
        .map(|v| match v {
            Value::Null => 0,
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len() as u64,
        })
        .sum()
}

fn table_user_bytes(conn: &dyn Connection, tables: &[&str]) -> Result<u64> {
    let mut total = 0;
    for t in tables {
        total += conn
            .query(&format!("select * from {t}"))?
            .rows
            .iter()
            .map(user_bytes)
            .sum::<u64>();
    }
    Ok(total)
}

/// The traced run: an untraced phase, a traced phase and the layer probes,
/// each on a share of the run's seconds.
struct TracedRun {
    untraced: Phase,
    traced: Phase,
    ima: ImaTotals,
    monitor_share: f64,
}

/// The measured part of a run, in either mode.
enum Measured {
    Plain(Box<Phase>),
    Traced(Box<TracedRun>),
}

impl Measured {
    fn phases(&self) -> Vec<&Phase> {
        match self {
            Measured::Plain(p) => vec![p],
            Measured::Traced(t) => vec![&t.untraced, &t.traced],
        }
    }

    fn last(&self) -> &Phase {
        match self {
            Measured::Plain(p) => p,
            Measured::Traced(t) => &t.traced,
        }
    }
}

fn measure(args: &Args, run: &mut RunFn<'_>, target: &Target, ledger: u64) -> Result<Measured> {
    let spec = PhaseSpec {
        seconds: args.seconds,
        trace: false,
        ledger,
        min_ops: MIN_SAMPLES,
        window: WINDOW,
    };
    if !args.trace {
        return Ok(Measured::Plain(Box::new(run_phase(run, target, spec))));
    }
    // The traced run reports no tail percentile: no sample floor.
    let spec = PhaseSpec {
        seconds: args.seconds * 0.4,
        min_ops: 0,
        ..spec
    };
    let untraced = run_phase(run, target, spec);
    let admin = target.engine.open_session();
    let ima0 = ImaTotals::read(&admin)?;
    let traced = run_phase(
        run,
        target,
        PhaseSpec {
            trace: true,
            ..spec
        },
    );
    let ima = ImaTotals::read(&admin)?.since(&ima0);
    let monitor_share = layers::monitor_share(&target.engine, traced.start_ns);
    Ok(Measured::Traced(Box::new(TracedRun {
        untraced,
        traced,
        ima,
        monitor_share,
    })))
}

/// Everything a workload hands back to the common reporting.
struct Ran {
    measured: Measured,
    setup_s: SetupTimes,
    /// Failures found after the measured phases (durability checks).
    late_failures: u64,
    space_amp: f64,
    shape: Shape,
    probes: Probes,
    context: Vec<(&'static str, Json)>,
}

/// Pin this thread, and so every thread it starts afterwards, to the
/// highest-numbered CPU it may run on; returns that CPU. A single client and
/// the server thread answering it then hand the CPU to each other instead
/// of waking a halted virtual CPU for every message, a cost that varies
/// several-fold with the host's load.
fn pin_to_one_cpu() -> Option<usize> {
    /// `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|c| allowed.0[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes.
    (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
}

pub fn run(args: &Args) -> Result<Outcome> {
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| Error::storage(e.to_string()))?;
    // Read before pinning: `nproc` counts the CPUs this process may use.
    let mut context = run_context(&dir, args.seed);
    // Two insert clients need two CPUs to overlap; every other workload
    // has one client.
    let pinned = (args.workload != Workload::InsertWire)
        .then(pin_to_one_cpu)
        .flatten();
    let pin = pinned.map_or_else(|| "none".to_owned(), |c| format!("cpu {c}"));
    if let Json::Obj(pairs) = &mut context {
        pairs.push(("pinned".into(), Json::Str(pin)));
    }
    let ran = match args.workload {
        Workload::PointEmbedded | Workload::PointWire => point(args),
        Workload::InsertWire => insert(args),
        Workload::AnalyticCold => analytic(args),
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome(args, ran?, context))
}

fn outcome(args: &Args, ran: Ran, context: Json) -> Outcome {
    let phases = ran.measured.phases();
    let attempted: u64 = phases.iter().map(|p| p.rec.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.rec.failed).sum::<u64>() + ran.late_failures;
    let mut report = vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("trace", Json::Bool(args.trace)),
        ("context", context),
        (
            "setup_runs_s",
            Json::Arr(ran.setup_s.raw.iter().map(|s| Json::Num(*s)).collect()),
        ),
        (
            "setup_scaled_s",
            Json::Arr(ran.setup_s.scaled.iter().map(|s| Json::Num(*s)).collect()),
        ),
    ];
    report.extend(ran.context);
    let mut ledger_failures = 0;
    let metrics = match &ran.measured {
        Measured::Plain(p) => {
            let all = &p.rec.raw;
            let sel = host_scaled(&p.rec.windows);
            let p99 = |h: &Histogram| h.percentile(0.99).map_or(f64::NAN, |ns| ns / 1e3);
            report.extend([
                ("samples", Json::Int(p.rec.scaled.len())),
                // Not gated: on a shared disk the insert tail moves by a
                // third between runs of the same code.
                ("p99_us", Json::Num(p99(&p.rec.scaled))),
                ("windows", Json::Int(p.rec.windows.len() as u64)),
                ("host_kernel_us", Json::Num(sel.kernel_ns / 1e3)),
                (
                    "as_measured",
                    Json::obj([
                        (
                            "ops_per_s",
                            Json::Num(ratio(all.len() as f64, p.elapsed.as_secs_f64())),
                        ),
                        ("p50_us", Json::Num(band_us(all, 0.5))),
                        ("p90_us", Json::Num(band_us(all, 0.9))),
                        ("p99_us", Json::Num(p99(all))),
                    ]),
                ),
                ("ledger", ledger_json(p)),
            ]);
            vec![
                Metric::new("ops_per_s", "1/s", sel.ops_per_s),
                Metric::new("p50_us", "us", band_us(&p.rec.scaled, 0.5)),
                Metric::new("p90_us", "us", band_us(&p.rec.scaled, 0.9)),
                Metric::new("setup_s", "s", median(&ran.setup_s.scaled)),
                Metric::new("peak_rss_mib", "MiB", peak_rss_mib()),
                Metric::new("space_amp", "ratio", ran.space_amp),
            ]
        }
        Measured::Traced(t) => {
            let (verdict, mismatches) = compare_ledgers(args.workload, &t.untraced, &t.traced);
            ledger_failures = mismatches;
            report.push(("samples_untraced", Json::Int(t.untraced.rec.returned())));
            report.push(("samples_traced", Json::Int(t.traced.rec.spans.len() as u64)));
            report.push(("ledger", verdict));
            write_spans(args, &t.traced);
            layers::per_layer(&Traced {
                shape: ran.shape,
                untraced: &t.untraced,
                traced: &t.traced,
                ima: t.ima.clone(),
                monitor_share: t.monitor_share,
                probes: ran.probes,
            })
        }
    };
    let failed = failed + ledger_failures;
    report.push((
        "failed_frac",
        Json::Num(ratio(failed as f64, attempted as f64)),
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        report: Json::obj(report),
    }
}

/// The ledger window's counts by name.
fn ledger_counts(p: &Phase) -> Vec<(&'static str, f64)> {
    let Some(l) = &p.ledger else {
        return Vec::new();
    };
    let c = &l.counters;
    [
        ("plan_hits", c.plan_hits),
        ("plan_misses", c.plan_misses),
        ("buffer_fetches", c.buf_hits + c.buf_misses),
        ("buffer_misses", c.buf_misses),
        ("buffer_evictions", c.buf_evictions),
        ("wal_appends", c.wal_appends),
        ("frames", c.frames),
        ("wire_bytes", c.wire_bytes),
        ("heartbeats", c.heartbeats),
        ("rows", l.rows),
    ]
    .into_iter()
    .map(|(k, v)| (k, v as f64))
    .chain([("tuples", l.tuples)])
    .collect()
}

fn ledger_json(p: &Phase) -> Json {
    Json::obj(ledger_counts(p).into_iter().map(|(k, v)| (k, Json::Num(v))))
}

/// The ledger counts that repeat exactly for a fixed seed on a
/// single-client workload. Buffer misses and evictions of `analytic_cold`
/// do not (they vary run to run on the same seed) and are reported with
/// their spread only.
fn exact_counts(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::InsertWire => &[],
        Workload::AnalyticCold => &[
            "plan_hits",
            "plan_misses",
            "buffer_fetches",
            "wal_appends",
            "tuples",
            "rows",
        ],
        _ => &[
            "plan_hits",
            "plan_misses",
            "buffer_fetches",
            "buffer_misses",
            "wal_appends",
            "frames",
            "wire_bytes",
            "heartbeats",
            "tuples",
            "rows",
        ],
    }
}

/// Compare the ledger windows of the untraced and the traced phase: counts
/// that repeat exactly must match; the rest are reported with their spread.
fn compare_ledgers(workload: Workload, a: &Phase, b: &Phase) -> (Json, u64) {
    let exact = exact_counts(workload);
    let mut mismatches = 0;
    let mut rows = Vec::new();
    for ((key, x), (_, y)) in ledger_counts(a).into_iter().zip(ledger_counts(b)) {
        let entry = if exact.contains(&key) {
            let same = x == y;
            mismatches += u64::from(!same);
            if !same {
                eprintln!("ledger: exact count {key} differs: untraced {x}, traced {y}");
            }
            Json::obj([("exact", Json::Bool(same)), ("value", Json::Num(x))])
        } else {
            Json::obj([
                ("untraced", Json::Num(x)),
                ("traced", Json::Num(y)),
                ("spread", Json::Num(ratio((x - y).abs(), (x + y) / 2.0))),
            ])
        };
        rows.push((key, entry));
    }
    (Json::obj(rows), mismatches)
}

/// Write the traced phase's spans, kept in memory until now, as TSV.
fn write_spans(args: &Args, traced: &Phase) {
    use std::fmt::Write as _;
    let mut out = String::from("stmt\tcaller_ns\tengine_ns\twait_ns\n");
    for (i, s) in traced.rec.spans.iter().enumerate() {
        let _ = writeln!(out, "{i}\t{}\t{}\t{}", s.caller_ns, s.engine_ns, s.wait_ns);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// The statement loop of the point workloads: selects of the key stream
/// `seed`, each result checked as `v = id*10`.
fn point_loop<'a>(
    stmt: &'a dyn PreparedStatement,
    seed: u64,
) -> impl FnMut(Stop, &mut Recorder) + 'a {
    move |stop, rec| {
        let mut last = None;
        while !stop.reached(rec.attempted) {
            let key = point_key(seed, rec.attempted);
            let t0 = Instant::now();
            match stmt.execute(&[Value::Int(key)]) {
                Ok(r) => {
                    let ok = r.rows.len() == 1 && r.rows[0].get(0).as_int() == Some(key * 10);
                    rec.record(t0, &r, ok);
                    last = Some(r);
                }
                Err(e) => rec.error(&e),
            }
        }
        rec.last = last.or(rec.last.take());
    }
}

/// Pairs of phases in the scaling self-check.
const SELFCHECK_PAIRS: usize = 20;
/// How far the scaled figures' factor may stray from the as-measured one.
const SELFCHECK_TOLERANCE: f64 = 0.1;

/// The host-scaling self-check. A point workload runs pinned, as in a
/// measured run, in phases that alternate between running alone and
/// running beside a thread of this process that burns the same CPU, as a
/// busier server, reaper, ASH or heartbeat thread of the program would.
/// Such a slowdown must survive the scaling: the scaled `ops_per_s` and
/// `p50_us` must move by the factor the as-measured figures move by (the
/// median over the pairs), and the burner must slow the program at all.
/// Returns the report and whether the check passed.
pub fn selfcheck(args: &Args) -> Result<(Json, bool)> {
    let wire = match args.workload {
        Workload::PointEmbedded => false,
        Workload::PointWire => true,
        _ => {
            return Err(Error::execution(
                "the self-check runs point_embedded or point_wire",
            ))
        }
    };
    let dir = run_dir();
    std::fs::create_dir_all(&dir).map_err(|e| Error::storage(e.to_string()))?;
    let pinned = pin_to_one_cpu();
    let inst = kv_instance(dir.join("data"), usize::from(wire), dir.join("s.sock"))?;
    let target = inst.target();
    let session = inst.engine.open_session();
    let conn: &dyn Connection = match inst.clients.first() {
        Some(c) => c,
        None => &session,
    };
    let stmt = conn.prepare(SELECT)?;
    let mut run = point_loop(&*stmt, args.seed);
    let spec = PhaseSpec {
        seconds: args.seconds / (2 * SELFCHECK_PAIRS) as f64,
        trace: false,
        ledger: 0,
        min_ops: 0,
        window: WINDOW,
    };
    // Per phase: as-measured ops/s and p50, scaled ops/s and p50, and the
    // median host-kernel time in µs.
    let mut figures: [Vec<[f64; 5]>; 2] = [Vec::new(), Vec::new()];
    let mut failed = 0;
    for _ in 0..SELFCHECK_PAIRS {
        for burn in [false, true] {
            let stop = AtomicBool::new(false);
            let phase = std::thread::scope(|s| {
                if burn {
                    // Started after pinning, so it shares the pinned CPU.
                    s.spawn(|| {
                        let mut x = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            x = std::hint::black_box(x.wrapping_add(1));
                        }
                    });
                }
                let phase = run_phase(&mut run, &target, spec);
                stop.store(true, Ordering::Relaxed);
                phase
            });
            failed += phase.rec.failed;
            let scaled = host_scaled(&phase.rec.windows);
            figures[usize::from(burn)].push([
                ratio(phase.rec.returned() as f64, phase.elapsed.as_secs_f64()),
                band_us(&phase.rec.raw, 0.5),
                scaled.ops_per_s,
                band_us(&phase.rec.scaled, 0.5),
                scaled.kernel_ns / 1e3,
            ]);
        }
    }
    drop(run);
    drop(stmt);
    drop(session);
    drop(target);
    inst.discard()?;
    let _ = std::fs::remove_dir_all(&dir);

    let factor = |i: usize| {
        let per_pair: Vec<f64> = figures[1]
            .iter()
            .zip(&figures[0])
            .map(|(b, a)| b[i] / a[i])
            .collect();
        median(&per_pair)
    };
    let mut pass = failed == 0 && factor(0) < 1.0 - 2.0 * SELFCHECK_TOLERANCE;
    let mut metrics = Vec::new();
    for (name, raw, scaled) in [("ops_per_s", 0, 2), ("p50_us", 1, 3)] {
        let (raw, scaled) = (factor(raw), factor(scaled));
        let ok = (scaled / raw - 1.0).abs() <= SELFCHECK_TOLERANCE;
        pass &= ok;
        metrics.push((
            name,
            Json::obj([
                ("as_measured_factor", Json::Num(raw)),
                ("scaled_factor", Json::Num(scaled)),
                ("ok", Json::Bool(ok)),
            ]),
        ));
    }
    let phases = |f: &[[f64; 5]]| {
        Json::Arr(
            f.iter()
                .map(|p| Json::Arr(p.map(Json::Num).to_vec()))
                .collect(),
        )
    };
    let report = Json::obj([
        ("selfcheck", Json::Str(args.workload.name().into())),
        ("pinned", Json::Bool(pinned.is_some())),
        ("failed", Json::Int(failed)),
        ("factors", Json::obj(metrics)),
        ("alone", phases(&figures[0])),
        ("burning", phases(&figures[1])),
        ("pass", Json::Bool(pass)),
    ]);
    Ok((report, pass))
}

/// `point_embedded` and `point_wire`: one client, prepared point selects
/// of uniform random keys, each result checked as `v = id*10`.
fn point(args: &Args) -> Result<Ran> {
    let wire = args.workload == Workload::PointWire;
    let (inst, setup_s) = repeated_setup(|dir, sock| kv_instance(dir, usize::from(wire), sock))?;
    let target = inst.target();
    let session = inst.engine.open_session();
    let conn: &dyn Connection = match inst.clients.first() {
        Some(c) => c,
        None => &session,
    };
    let stmt = conn.prepare(SELECT)?;
    let seed = args.seed;
    let measured = measure(args, &mut point_loop(&*stmt, seed), &target, POINT_LEDGER)?;
    drop(stmt);

    let mut probes = Probes::default();
    if args.trace {
        let samples: Vec<(String, Vec<Value>)> = (0..64)
            .map(|i| (SELECT.to_owned(), vec![Value::Int(point_key(seed, i))]))
            .collect();
        probes = layers::probe_planner(&inst.engine, &samples, 20_000, Summary::Median, true)?;
        if let (Some(client), Some(last)) = (inst.clients.first(), &measured.last().rec.last) {
            let params: Vec<Vec<Value>> = samples.into_iter().map(|s| s.1).collect();
            layers::probe_wire(client, &params, last, 5_000, &mut probes)?;
        }
    }
    let pages = inst.engine.total_data_pages();
    drop(session);
    drop(target);
    let (engine, dir) = inst.stop_serving()?;
    let user = table_user_bytes(&engine.open_session(), &["kv"])?;
    let space_amp = ratio(dir_bytes(&dir) as f64, user as f64);
    Ok(Ran {
        measured,
        setup_s,
        late_failures: 0,
        space_amp,
        shape: Shape {
            wire,
            writes: false,
            summary: Summary::Median,
        },
        probes,
        context: kv_context(pages, 1),
    })
}

fn kv_context(pages: u64, clients: u64) -> Vec<(&'static str, Json)> {
    let cfg = kv_config();
    vec![
        ("clients", Json::Int(clients)),
        ("data_pages", Json::Int(pages)),
        ("pool_pages", Json::Int(cfg.buffer_pool_pages as u64)),
        (
            "wal_flush",
            Json::Str(format!(
                "wal_fsync_mode={} group_commit_window_us={} wal_sync_delay_us={}",
                cfg.wal_fsync_mode, cfg.group_commit_window_us, cfg.wal_sync_delay_us
            )),
        ),
    ]
}

/// `insert_wire`: two wire clients, prepared auto-commit single-row
/// inserts of unique keys; after the run the engine is reopened from its
/// directory and every acknowledged key must be there.
fn insert(args: &Args) -> Result<Ran> {
    let (inst, setup_s) = repeated_setup(|dir, sock| kv_instance(dir, INSERT_CLIENTS, sock))?;
    let target = inst.target();
    let seed = args.seed;
    let next = AtomicU64::new(0);
    let mut acked: Vec<i64> = Vec::new();
    let clients = &inst.clients;
    let mut run = |stop: Stop, rec: &mut Recorder| {
        // Statements of this phase issued by both clients together.
        let issued = AtomicU64::new(rec.attempted);
        let results: Vec<(Recorder, Vec<i64>)> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter()
                .map(|conn| {
                    let (next, issued, mut mine) = (&next, &issued, rec.child());
                    s.spawn(move || {
                        let mut keys = Vec::new();
                        let stmt = match conn.prepare(INSERT) {
                            Ok(stmt) => stmt,
                            Err(e) => {
                                mine.error(&e);
                                return (mine, keys);
                            }
                        };
                        while !stop.reached(issued.fetch_add(1, Ordering::Relaxed)) {
                            let key = insert_key(seed, next.fetch_add(1, Ordering::Relaxed));
                            let t0 = Instant::now();
                            match stmt.execute(&[Value::Int(key), Value::Int(key * 10)]) {
                                Ok(r) => {
                                    let ok = r.affected == 1;
                                    mine.record(t0, &r, ok);
                                    if ok {
                                        keys.push(key);
                                    }
                                    mine.last = Some(r);
                                }
                                Err(e) => mine.error(&e),
                            }
                        }
                        (mine, keys)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("insert client thread panicked"))
                .collect()
        });
        for (r, keys) in results {
            rec.merge(r);
            acked.extend(keys);
        }
    };
    let measured = measure(args, &mut run, &target, 0)?;

    let mut probes = Probes::default();
    if args.trace {
        let samples: Vec<(String, Vec<Value>)> = (0..64)
            .map(|i| {
                let key = insert_key(seed ^ 1, i);
                (INSERT.to_owned(), vec![Value::Int(key), Value::Int(key)])
            })
            .collect();
        probes = layers::probe_planner(&inst.engine, &samples, 20_000, Summary::Median, false)?;
        if let Some(last) = &measured.last().rec.last {
            let params: Vec<Vec<Value>> = samples.into_iter().map(|s| s.1).collect();
            layers::probe_wire(&inst.clients[0], &params, last, 5_000, &mut probes)?;
        }
    }
    let pages = inst.engine.total_data_pages();
    drop(target);
    let (engine, dir) = inst.stop_serving()?;
    let disk = dir_bytes(&dir);
    drop(engine);

    // Durability: reopen from the directory alone (recovery replays the
    // WAL) and check every acknowledged insert.
    let engine = Engine::builder().config(kv_config()).path(&dir).build()?;
    let session = engine.open_session();
    let late_failures = check_acked(&session, &mut acked)?;
    let user = table_user_bytes(&session, &["kv"])?;
    Ok(Ran {
        measured,
        setup_s,
        late_failures,
        space_amp: ratio(disk as f64, user as f64),
        shape: Shape {
            wire: true,
            writes: true,
            summary: Summary::Median,
        },
        probes,
        context: kv_context(pages, INSERT_CLIENTS as u64),
    })
}

/// Failures among acknowledged inserts after a restart: each missing or
/// wrong key, plus one if `count(*)` disagrees with the acknowledged count.
fn check_acked(conn: &dyn Connection, acked: &mut [i64]) -> Result<u64> {
    acked.sort_unstable();
    let found = conn.query(&format!("select id, v from kv where id >= {KV_ROWS}"))?;
    let mut present: Vec<(i64, i64)> = found
        .rows
        .iter()
        .filter_map(|r| Some((r.get(0).as_int()?, r.get(1).as_int()?)))
        .collect();
    present.sort_unstable();
    let mut failures = 0;
    for key in acked.iter() {
        match present.binary_search_by_key(key, |p| p.0) {
            Ok(i) if present[i].1 == key * 10 => {}
            _ => failures += 1,
        }
    }
    let count = conn.query("select count(*) from kv")?.rows[0]
        .get(0)
        .as_int();
    if count != Some(KV_ROWS + acked.len() as i64) {
        eprintln!(
            "insert_wire: count(*) {count:?} != {}",
            KV_ROWS + acked.len() as i64
        );
        failures += 1;
    }
    if failures > 0 {
        eprintln!("insert_wire: {failures} acknowledged inserts missing or wrong after restart");
    }
    Ok(failures)
}

/// `analytic_cold`: one embedded session repeating the 50 analytic queries
/// over keyed NREF twice the size of the buffer pool, which starts cold.
/// Every result must match the digest of the same query's first pass.
fn analytic(args: &Args) -> Result<Ran> {
    let cfg = nref_config(args.seed);
    let (inst, setup_s) = repeated_setup(|dir, _| nref_instance(dir, &cfg))?;
    let target = inst.target();
    let session = inst.engine.open_session();
    let queries = analytic_queries(&cfg);
    let ordered: Vec<bool> = queries.iter().map(|q| is_ordered(q)).collect();
    let mut reference: Vec<Option<u64>> = vec![None; queries.len()];
    let mut run = |stop: Stop, rec: &mut Recorder| {
        while !stop.reached(rec.attempted) {
            let qi = (rec.attempted % PASS) as usize;
            let t0 = Instant::now();
            match session.query(&queries[qi]) {
                Ok(r) => {
                    let digest = result_digest(&r.rows, ordered[qi]);
                    let ok = *reference[qi].get_or_insert(digest) == digest;
                    if !ok {
                        eprintln!("analytic_cold: query {qi} result differs from its first pass");
                    }
                    rec.record(t0, &r, ok);
                }
                Err(e) => rec.error(&e),
            }
        }
    };
    let measured = measure(args, &mut run, &target, PASS)?;

    let mut probes = Probes::default();
    if args.trace {
        let stmts: Vec<(String, Vec<Value>)> =
            queries.iter().map(|q| (q.clone(), Vec::new())).collect();
        probes =
            layers::probe_planner(&inst.engine, &stmts, 2 * queries.len(), Summary::Mean, true)?;
    }
    let pages = inst.engine.total_data_pages();
    let tables = nref_tables();
    let user = table_user_bytes(&session, &tables)?;
    let disk = dir_bytes(&inst.dir);
    Ok(Ran {
        measured,
        setup_s,
        late_failures: 0,
        space_amp: ratio(disk as f64, user as f64),
        shape: Shape {
            wire: false,
            writes: false,
            summary: Summary::Mean,
        },
        probes,
        context: vec![
            ("clients", Json::Int(1)),
            ("nref_proteins", Json::Int(cfg.proteins)),
            ("data_pages", Json::Int(pages)),
            ("pool_pages", Json::Int(ANALYTIC_POOL_PAGES as u64)),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_streams_are_seeded_and_in_range() {
        let a: Vec<i64> = (0..1000).map(|i| point_key(7, i)).collect();
        let b: Vec<i64> = (0..1000).map(|i| point_key(7, i)).collect();
        let c: Vec<i64> = (0..1000).map(|i| point_key(8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|k| (0..KV_ROWS).contains(k)));
    }

    #[test]
    fn insert_keys_are_unique_and_above_the_preload() {
        let mut keys: Vec<i64> = (0..200_000).map(|i| insert_key(3, i)).collect();
        assert!(keys.iter().all(|k| *k >= KV_ROWS));
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 200_000);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
