//! Per-layer metrics, measured from outside the program: by timing calls
//! into each layer's public functions on the workload's own statements and
//! frames, and by reading the counters the engine and server expose.

use std::time::Instant;

use ingot_client::ClientConnection;
use ingot_common::wire::{Request, Response};
use ingot_common::{Snapshot, StatementResult, Value, WaitEvent};
use ingot_core::Engine;
use ingot_executor::execute_plan_snapshot;
use ingot_planner::{normalize_template, optimize, Binder, OptimizerOptions, PlannedStatement};
use ingot_sql::parse_statement;

use crate::measure::{ImaTotals, Phase, Span};
use crate::report::Metric;
use crate::stats::{median, ratio, remainder};

/// Mean or median time per call of each probed layer function, in ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub heartbeat: f64,
    pub encode: f64,
    pub decode: f64,
    pub probe: f64,
    pub parse: f64,
    pub bind: f64,
    pub optimize: f64,
    pub exec: f64,
}

/// How calls on one workload's statements are summarised: a single
/// repeated statement by its median, a mix of different queries by the
/// mean per query (the median would pick one query of the mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    Median,
    Mean,
}

fn summarise(ns: &[f64], how: Summary) -> f64 {
    match how {
        Summary::Median => median(ns),
        Summary::Mean => ratio(ns.iter().sum(), ns.len() as f64),
    }
}

fn timed<T>(out: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    out.push(t0.elapsed().as_nanos() as f64);
    r
}

/// Time the plan-cache probe, parser, binder, optimizer and (for queries,
/// when `exec`) the executor on `stmts`, `iters` calls each in rotation.
pub fn probe_planner(
    engine: &Engine,
    stmts: &[(String, Vec<Value>)],
    iters: usize,
    how: Summary,
    exec: bool,
) -> ingot_common::Result<Probes> {
    let (mut probe, mut parse, mut bind, mut opt, mut run) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..iters {
        let (sql, params) = &stmts[i % stmts.len()];
        timed(&mut probe, || {
            let template = normalize_template(sql);
            let epoch = engine.catalog().read().epoch();
            engine.plan_cache().probe(&template, epoch)
        });
        let catalog = engine.catalog().read();
        let stmt = timed(&mut parse, || parse_statement(sql))?;
        let (bound, _) = timed(&mut bind, || Binder::new(&catalog).bind(&stmt))?;
        let planned = timed(&mut opt, || {
            optimize(&catalog, &bound, OptimizerOptions::default())
        })?;
        if let (true, PlannedStatement::Query(q)) = (exec, planned.substitute_params(params)?) {
            timed(&mut run, || {
                execute_plan_snapshot(&catalog, &q.root, &Snapshot::latest())
            })?;
        }
    }
    Ok(Probes {
        probe: summarise(&probe, how),
        parse: summarise(&parse, how),
        bind: summarise(&bind, how),
        optimize: summarise(&opt, how),
        exec: summarise(&run, how),
        ..Probes::default()
    })
}

/// Time heartbeat round trips on `conn` (transport and dispatch with no
/// engine work) and the encode/decode of the workload's own request and
/// response frames, per statement (request plus response).
pub fn probe_wire(
    conn: &ClientConnection,
    params: &[Vec<Value>],
    result: &StatementResult,
    iters: usize,
    probes: &mut Probes,
) -> ingot_common::Result<()> {
    let mut rtt = Vec::with_capacity(iters);
    for _ in 0..iters {
        timed(&mut rtt, || conn.heartbeat())?;
    }
    let response = Response::Rows(result.clone());
    let (mut enc, mut dec) = (Vec::with_capacity(iters), Vec::with_capacity(iters));
    for i in 0..iters {
        let request = Request::ExecutePrepared {
            id: 1,
            params: params[i % params.len()].clone(),
        };
        let ((qop, qbody), (rop, rbody)) =
            timed(&mut enc, || (request.to_frame(), response.to_frame()));
        timed(&mut dec, || {
            Request::decode(qop, &qbody).and_then(|_| Response::decode(rop, &rbody))
        })?;
    }
    probes.heartbeat = median(&rtt);
    probes.encode = median(&enc);
    probes.decode = median(&dec);
    Ok(())
}

/// `Σ monitor_ns ÷ Σ wallclock_ns` over the monitor's per-execution
/// records of statements that started at or after `since_ns`.
pub fn monitor_share(engine: &Engine, since_ns: u64) -> f64 {
    let Some(monitor) = engine.monitor() else {
        return 0.0;
    };
    let (mon, wall) = monitor
        .workload()
        .iter()
        .filter(|w| w.at_ns >= since_ns)
        .fold((0u64, 0u64), |(m, w), r| {
            (m + r.monitor_ns, w + r.wallclock_ns)
        });
    ratio(mon as f64, wall as f64)
}

/// Which layers a workload's statements pass through.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Over the wire (client, codec, server) rather than embedded.
    pub wire: bool,
    /// Every statement is a committed write.
    pub writes: bool,
    /// How layer times of the workload's statements are summarised.
    pub summary: Summary,
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    pub shape: Shape,
    pub untraced: &'a Phase,
    pub traced: &'a Phase,
    /// `ima$` deltas over the traced phase.
    pub ima: ImaTotals,
    pub monitor_share: f64,
    pub probes: Probes,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// layer the workload's statements do not pass through reads 0.
pub fn per_layer(t: &Traced<'_>) -> Vec<Metric> {
    let spans: &[Span] = &t.traced.rec.spans;
    let n = spans.len() as f64;
    let c = &t.traced.counters;
    let how = t.shape.summary;
    let us = |ns: f64| ns / 1e3;
    let over_spans = |f: fn(&Span) -> u64| {
        let ns: Vec<f64> = spans.iter().map(|s| f(s) as f64).collect();
        us(summarise(&ns, how))
    };
    let outside_us = over_spans(|s| s.caller_ns.saturating_sub(s.engine_ns));
    let engine_us = over_spans(|s| s.engine_ns);
    let caller_us = over_spans(|s| s.caller_ns);
    let wait_us = over_spans(|s| s.wait_ns);
    let commits = if t.shape.writes { n } else { 0.0 };
    let p = &t.probes;
    let wire = |v: f64| if t.shape.wire { v } else { 0.0 };
    let embedded = |v: f64| if t.shape.wire { 0.0 } else { v };
    let fetches = (c.buf_hits + c.buf_misses) as f64;

    // The disjoint layers each statement passes through; what they leave
    // of the caller's latency is the part no layer explains.
    let mut parts = vec![us(p.probe), us(p.exec)];
    if t.shape.wire {
        parts.extend([us(p.heartbeat), us(p.encode), us(p.decode)]);
    } else {
        parts.push(outside_us);
    }
    if t.shape.writes {
        parts.push(wait_us);
    }
    let rest = remainder(caller_us, &parts);
    // Both phases at the reference host speed, so the ratio is the
    // tracing's own cost and not a change of the host between phases.
    let scaled_p50 = |p: &Phase| p.rec.scaled.median();

    let mut m = vec![
        Metric::new("wire.outside_engine_us", "us", wire(outside_us)),
        Metric::new("wire.heartbeat_rtt_us", "us", wire(us(p.heartbeat))),
        Metric::new("wire.encode_ns", "ns", wire(p.encode)),
        Metric::new("wire.decode_ns", "ns", wire(p.decode)),
        Metric::new(
            "server.bytes_per_stmt",
            "bytes",
            wire(ratio(c.wire_bytes as f64, n)),
        ),
        Metric::new(
            "server.frames_per_stmt",
            "count",
            wire(ratio(c.frames as f64, n)),
        ),
        Metric::new("server.heartbeats", "count", wire(c.heartbeats as f64)),
        Metric::new("engine.stmt_us", "us", engine_us),
        Metric::new("engine.session_overhead_us", "us", embedded(outside_us)),
        Metric::new("monitor.share", "ratio", t.monitor_share),
        Metric::new("ash.samples", "count", c.ash_samples as f64),
        Metric::new("planner.probe_ns", "ns", p.probe),
        Metric::new("sql.parse_ns", "ns", p.parse),
        Metric::new("planner.bind_ns", "ns", p.bind),
        Metric::new("planner.optimize_ns", "ns", p.optimize),
        Metric::new(
            "plan_cache.hit_ratio",
            "ratio",
            ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
        ),
        Metric::new("executor.exec_ns", "ns", p.exec),
        Metric::new(
            "executor.tuples_per_row",
            "ratio",
            ratio(t.traced.rec.tuples, t.traced.rec.rows as f64),
        ),
        Metric::new(
            "buffer.hit_ratio",
            "ratio",
            ratio(c.buf_hits as f64, fetches),
        ),
        Metric::new(
            "buffer.misses_per_query",
            "count",
            ratio(c.buf_misses as f64, n),
        ),
        Metric::new(
            "buffer.evictions_per_query",
            "count",
            ratio(c.buf_evictions as f64, n),
        ),
        Metric::new("buffer.fetches_per_stmt", "count", ratio(fetches, n)),
        Metric::new(
            "io.pages_per_stmt",
            "count",
            ratio(t.traced.rec.io_pages, n),
        ),
        Metric::new(
            "wal.fsyncs_per_commit",
            "ratio",
            ratio(c.wal_fsyncs as f64, commits),
        ),
        Metric::new(
            "wal.commits_per_group",
            "ratio",
            ratio(c.wal_grouped_commits as f64, c.wal_groups as f64),
        ),
        Metric::new(
            "wal.bytes_per_commit",
            "bytes",
            ratio(c.wal_bytes as f64, commits),
        ),
    ];
    for event in WaitEvent::ALL {
        let ns = t
            .ima
            .waits_ns
            .iter()
            .find(|(name, _)| name == event.name())
            .map_or(0, |w| w.1);
        m.push(Metric::new(
            format!("wait.{}_us_per_stmt", event.name()),
            "us",
            ratio(us(ns as f64), n),
        ));
    }
    m.extend([
        Metric::new("txn.aborts", "count", t.ima.aborts as f64),
        Metric::new(
            "txn.validation_failures",
            "count",
            t.ima.validation_failures as f64,
        ),
        Metric::new("lock.waits_total", "count", c.lock_waits as f64),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            ratio(scaled_p50(t.traced), scaled_p50(t.untraced)),
        ),
        Metric::new("remainder.unexplained_us", "us", rest.unexplained),
        Metric::new("remainder.unexplained_share", "ratio", rest.share),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{Counters, Recorder};
    use std::time::Duration;

    fn phase() -> Phase {
        Phase {
            rec: Recorder::new(true, Instant::now(), Duration::from_millis(50)),
            elapsed: Duration::ZERO,
            counters: Counters::default(),
            ledger: None,
            start_ns: 0,
        }
    }

    /// Every per-layer metric the traced run prints is declared in
    /// `BENCHMARK.json`, in the same order.
    #[test]
    fn per_layer_names_match_the_benchmark_file() {
        let (a, b) = (phase(), phase());
        let printed: Vec<String> = per_layer(&Traced {
            shape: Shape {
                wire: true,
                writes: true,
                summary: Summary::Median,
            },
            untraced: &a,
            traced: &b,
            ima: ImaTotals::default(),
            monitor_share: 0.0,
            probes: Probes::default(),
        })
        .into_iter()
        .map(|m| m.name)
        .collect();
        let spec =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let per_layer = &spec[spec.find("\"per_layer\"").expect("per_layer key")..];
        let declared: Vec<String> = per_layer
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("closing quote")].to_owned())
            .collect();
        assert_eq!(printed, declared);
    }
}
