//! The traced run: the same seed replayed in-process through
//! `wire::Session::handle`, with spans around calls into each layer's
//! public entry points.
//!
//! Three in-process services are configured like the server and fed the
//! same operations in lockstep:
//! * an untraced one, whose `Session::handle` times are the in-process
//!   end-to-end cost of each operation (and the baseline for
//!   `front.tcp_overhead_ms` and `trace.overhead_pct`);
//! * a traced twin driven through `Session::handle` amid the spans, so its
//!   slowdown against the untraced one is the tracing overhead;
//! * a layer twin driven through the service's own entry points
//!   (`Service::query_spec`, `ServiceOutcome::try_answers`,
//!   `Service::append`), whose outcomes feed the re-executed layers.
//!
//! Layers reachable only inside `Service::query_spec` are re-executed on
//! the same catalog through their public entry points: planning
//! (`Engine::plan`, charged only to `cache=miss|invalidated` queries), the
//! shuffle (`Cluster::try_run_round_on`), each server's local join
//! (`join_foreach_mult` over `Cluster::fragment`), the merge
//! (`AnswerSet::append` + `sort_dedup`) and the aggregate fold
//! (`try_aggregate_cluster`). None of it runs inside the timed window.

use crate::workload::{Catalog, Op, ServeFlags, Workload};
use crate::Metric;
use mpc_bench::alloc_counter::alloc_count;
use mpc_core::aggregate::try_aggregate_cluster;
use mpc_core::engine::{planning_projections, Engine, Plan, SketchStats, Stats, StatsMode};
use mpc_core::service::{CacheStatus, QuerySpec, Service};
use mpc_core::wire::Session;
use mpc_data::answers::AnswerSet;
use mpc_data::fastmap::FastMap;
use mpc_data::join::{join_foreach_mult, JoinOrder};
use mpc_data::{rows_materialized_total, stats_scan_bytes_total, visited_bindings_total};
use mpc_data::{QueryBudget, Relation};
use mpc_query::parse_aggregate_query;
use mpc_sim::backend::Backend;
use mpc_sim::cluster::Cluster;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The replay covers whole cycles and at least this many operations.
const MIN_OPS: usize = 100;

/// The server's configuration, in process.
fn service(flags: &ServeFlags) -> Result<Service, String> {
    let backend = Backend::parse(&flags.threads)?;
    let stats = StatsMode::parse(&flags.stats)?;
    Ok(Service::new(flags.domain)
        .with_backend(backend)
        .with_defaults(flags.p, flags.seed)
        .with_stats_mode(stats))
}

/// Load and warm a session exactly as set-up does over TCP.
fn set_up(w: &Workload, flags: &ServeFlags) -> Result<(Service, Session), String> {
    let mut svc = service(flags)?;
    let mut session = Session::new();
    for line in w
        .load_lines()
        .into_iter()
        .chain(w.warmup.iter().map(|q| q.line()))
    {
        let reply = session.handle(&mut svc, &line);
        if !reply.first().is_some_and(|r| r.starts_with("ok")) {
            return Err(format!("in-process set-up failed: {reply:?}"));
        }
    }
    Ok((svc, session))
}

/// Number of operations the traced run replays.
fn replayed_ops(w: &Workload) -> usize {
    w.cycle.len() * MIN_OPS.div_ceil(w.cycle.len())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Counter deltas of one untraced `Session::handle` call.
#[derive(Default)]
struct Counters {
    allocs: u64,
    scan_bytes_append: u64,
    scan_bytes_query: u64,
    bindings: u64,
    rows_materialized: u64,
    reply_bytes: u64,
    appends: u64,
    queries: u64,
}

/// One untraced `Session::handle` call: its time, with the program's own
/// counters accumulated into `c`.
fn untraced(
    svc: &mut Service,
    session: &mut Session,
    line: &str,
    op: &Op,
    c: &mut Counters,
) -> Result<Duration, String> {
    let (a0, s0, b0, r0) = (
        alloc_count(),
        stats_scan_bytes_total(),
        visited_bindings_total(),
        rows_materialized_total(),
    );
    let t = Instant::now();
    let reply = session.handle(svc, line);
    let took = t.elapsed();
    c.allocs += alloc_count() - a0;
    let scan = stats_scan_bytes_total().wrapping_sub(s0);
    match op {
        Op::Append { .. } => {
            c.appends += 1;
            c.scan_bytes_append += scan;
        }
        Op::Query(_) => {
            c.queries += 1;
            c.scan_bytes_query += scan;
        }
        Op::Load(_) => {}
    }
    c.bindings += visited_bindings_total() - b0;
    c.rows_materialized += rows_materialized_total() - r0;
    c.reply_bytes += reply.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
    if !reply.first().is_some_and(|r| r.starts_with("ok")) {
        return Err(format!("in-process `{line}` failed: {reply:?}"));
    }
    Ok(took)
}

/// Span totals of the traced replay, summed over operations.
#[derive(Default)]
struct Spans {
    handle: Duration,
    parse: Duration,
    render: f64,
    spec_hit: Duration,
    spec_miss: Duration,
    append: Duration,
    plan: Duration,
    plan_allocs: u64,
    bin_combinations: u64,
    heavy_keys: u64,
    shuffle: Duration,
    shuffle_allocs: u64,
    join_max: Duration,
    join_mean: f64,
    join_total: Duration,
    bindings_imbalance: Vec<f64>,
    merge: Duration,
    aggregate: f64,
    groups: u64,
    hits: u64,
    lookups: u64,
    algos: FastMap<&'static str, u64>,
    total_bits: u64,
    replication: Vec<f64>,
    imbalance: Vec<f64>,
    load_over_predicted: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

/// Re-execute the local join, merge and aggregate layers on the cluster
/// the service actually built.
fn local_layers(
    cluster: &Cluster,
    q: &mpc_query::Query,
    aggregate: Option<&mpc_query::AggregateSpec>,
    sp: &mut Spans,
) {
    let p = cluster.p();
    let mut times = Vec::with_capacity(p);
    let mut bindings = Vec::with_capacity(p);
    for s in 0..p {
        let rels: Vec<&Relation> = (0..q.num_atoms()).map(|j| cluster.fragment(j, s)).collect();
        let mut derivations = 0u64;
        let t = Instant::now();
        let stats = join_foreach_mult(q, &rels, JoinOrder::Dynamic, |_, m| derivations += m);
        times.push(t.elapsed());
        black_box(derivations);
        bindings.push(stats.bindings_visited as f64);
    }
    let total: Duration = times.iter().sum();
    sp.join_total += total;
    sp.join_max += times.iter().max().copied().unwrap_or_default();
    sp.join_mean += us(total) / p as f64;
    let mean_bindings = mean(&bindings);
    if mean_bindings > 0.0 {
        sp.bindings_imbalance
            .push(bindings.iter().cloned().fold(0.0, f64::max) / mean_bindings);
    }
    match aggregate {
        None => {
            let parts: Vec<AnswerSet> = (0..p)
                .map(|s| {
                    let rels: Vec<&Relation> =
                        (0..q.num_atoms()).map(|j| cluster.fragment(j, s)).collect();
                    let mut part = AnswerSet::new(q.num_vars());
                    join_foreach_mult(q, &rels, JoinOrder::Dynamic, |row, m| {
                        part.push_repeat(row, m)
                    });
                    part
                })
                .collect();
            let t = Instant::now();
            let mut merged = AnswerSet::new(q.num_vars());
            for part in parts {
                merged.append(part);
            }
            merged.sort_dedup();
            sp.merge += t.elapsed();
            black_box(merged.len());
        }
        Some(spec) => {
            let t = Instant::now();
            let result = try_aggregate_cluster(cluster, q, spec, &QueryBudget::unlimited())
                .expect("an unlimited budget cannot be exceeded");
            // The fold's own cost: the call minus the joins it runs inside.
            sp.aggregate += us(t.elapsed()) - us(total);
            sp.groups += result.num_groups() as u64;
        }
    }
}

/// The per-layer metrics for `w`. `tcp` holds the end-to-end latencies of
/// the timed window's operations, in order.
pub fn run(
    w: &Workload,
    flags: &ServeFlags,
    tcp: &[Duration],
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let n = replayed_ops(w);
    let lines: Vec<String> = (0..n).map(|i| w.line(w.op(i))).collect();
    let mut c = Counters::default();
    let mut base_times = Vec::with_capacity(n);
    let (mut svc_u, mut session_u) = set_up(w, flags)?;
    let (mut svc_a, mut session_a) = set_up(w, flags)?;
    let (mut svc_b, _) = set_up(w, flags)?;
    let capacity = svc_b.sketch_capacity_for_p();
    let backend = svc_b.backend();
    let mut catalog = Catalog::new(w);
    let mut plans: FastMap<(String, usize), Plan> = FastMap::default();
    let mut sp = Spans::default();
    let budget = QueryBudget::unlimited();
    for (i, line) in lines.iter().enumerate() {
        let op = w.op(i);
        // The untraced and traced twins take turns going first, so neither
        // is systematically the one running on caches the other warmed.
        let mut handle = Duration::ZERO;
        for turn in 0..2 {
            if (turn + i) % 2 == 0 {
                base_times.push(untraced(&mut svc_u, &mut session_u, line, op, &mut c)?);
            } else {
                let t = Instant::now();
                black_box(session_a.handle(&mut svc_a, line));
                handle = t.elapsed();
            }
        }
        sp.handle += handle;
        let q = match op {
            Op::Query(q) => q,
            Op::Append { rel, flat } => {
                let t = Instant::now();
                svc_b.append(rel, flat).map_err(|e| e.to_string())?;
                sp.append += t.elapsed();
                catalog.apply(w, op);
                continue;
            }
            Op::Load(j) => {
                svc_b.load(w.base[*j].clone()).map_err(|e| e.to_string())?;
                catalog.apply(w, op);
                continue;
            }
        };
        let p = q.p.unwrap_or(flags.p);
        let t = Instant::now();
        let (query, aggregate) = parse_aggregate_query(&q.body).map_err(|e| e.to_string())?;
        let parse = t.elapsed();
        sp.parse += parse;
        let mut spec = QuerySpec::new(query.clone()).p(p);
        if let Some(agg) = &aggregate {
            spec = spec.aggregate(agg.clone());
        }
        let t = Instant::now();
        let outcome = svc_b.query_spec(&spec).map_err(|e| e.to_string())?;
        let spec_time = t.elapsed();
        let status = outcome.cache_status();
        sp.lookups += 1;
        if status == CacheStatus::Hit {
            sp.hits += 1;
            sp.spec_hit += spec_time;
        } else {
            sp.spec_miss += spec_time;
        }
        let mut answers = Duration::ZERO;
        if aggregate.is_none() {
            let t = Instant::now();
            black_box(outcome.try_answers().map_err(|e| e.to_string())?.len());
            answers = t.elapsed();
        }
        // The wire layer's remainder: parsing and rendering around the
        // service call, measured on the twin with the same state.
        sp.render += us(handle) - us(parse) - us(spec_time) - us(answers);
        *sp.algos.entry(outcome.algorithm().name()).or_default() += 1;

        let canonical = query.canonical();
        let db = catalog.database(&canonical, flags.domain);
        let key = (q.body.clone(), p);
        if status != CacheStatus::Hit || !plans.contains_key(&key) {
            let stats = SketchStats::of(&db, capacity);
            // Build the sketches outside the planning span, as the service
            // maintains them on ingest.
            let heavy: usize = planning_projections(&canonical)
                .iter()
                .map(|(j, cols)| stats.heavy_hitters(*j, cols, p).len())
                .sum();
            let mut engine = Engine::new(&canonical).p(p).seed(flags.seed);
            if let Some(agg) = &aggregate {
                engine = engine.aggregate(agg.clone());
            }
            let a0 = alloc_count();
            let t = Instant::now();
            let plan = engine.stats(&stats).plan(&db);
            if status != CacheStatus::Hit {
                sp.plan += t.elapsed();
                sp.plan_allocs += alloc_count() - a0;
                sp.heavy_keys += heavy as u64;
                sp.bin_combinations += plan.num_bin_combinations().unwrap_or(0) as u64;
            }
            plans.insert(key.clone(), plan);
        }
        let plan = &plans[&key];
        let a0 = alloc_count();
        let t = Instant::now();
        let shuffled = Cluster::try_run_round_on(&db, p, plan, backend, &budget)
            .expect("an unlimited budget cannot be exceeded");
        sp.shuffle += t.elapsed();
        sp.shuffle_allocs += alloc_count() - a0;
        drop(shuffled);

        let run = outcome.run_outcome();
        sp.load_over_predicted
            .push(run.max_load_bits() as f64 / run.predicted_load_bits());
        if let (Some(cluster), Some(report)) = (run.cluster(), run.report()) {
            sp.total_bits += report.total_bits();
            sp.replication.push(report.replication_rate());
            sp.imbalance.push(report.imbalance());
            local_layers(cluster, &canonical, aggregate.as_ref(), &mut sp);
        }
    }

    let base_total: Duration = base_times.iter().sum();
    let ops = n as f64;
    let per_op = |d: Duration| us(d) / ops;
    let counters = svc_a.counters();
    let sketch_bytes = svc_a.sketch_telemetry().map_or(0, |t| t.bytes);
    let overlap = tcp.len().min(n);
    let tcp_overhead_ms = if overlap == 0 {
        f64::NAN
    } else {
        (0..overlap)
            .map(|i| (tcp[i].as_secs_f64() - base_times[i].as_secs_f64()) * 1e3)
            .sum::<f64>()
            / overlap as f64
    };
    let layer_sum = sp.parse + sp.plan + sp.shuffle + sp.join_total + sp.merge + sp.append;
    let layer_sum_us = per_op(layer_sum) + sp.aggregate / ops;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let mut m = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    put("front.tcp_overhead_ms", tcp_overhead_ms, "ms");
    put("wire.parse_us", per_op(sp.parse), "us");
    put("wire.render_us", sp.render / ops, "us");
    put("wire.reply_bytes", c.reply_bytes as f64 / ops, "bytes");
    put(
        "service.cache_hit_ratio",
        ratio(sp.hits, sp.lookups),
        "ratio",
    );
    put(
        "service.invalidations",
        counters.invalidations as f64 / ops,
        "count",
    );
    put(
        "service.evictions",
        counters.evictions as f64 / ops,
        "count",
    );
    put("service.query_spec_hit_us", per_op(sp.spec_hit), "us");
    put("service.query_spec_miss_us", per_op(sp.spec_miss), "us");
    put("service.append_us", per_op(sp.append), "us");
    put(
        "stats.scan_bytes_per_append",
        ratio(c.scan_bytes_append, c.appends),
        "bytes",
    );
    put(
        "stats.scan_bytes_per_query",
        ratio(c.scan_bytes_query, c.queries),
        "bytes",
    );
    put("stats.sketch_bytes", sketch_bytes as f64, "bytes");
    put("engine.plan_us", per_op(sp.plan), "us");
    put("engine.plan_allocs", sp.plan_allocs as f64 / ops, "count");
    put(
        "engine.bin_combinations",
        sp.bin_combinations as f64 / ops,
        "count",
    );
    put("engine.heavy_keys", sp.heavy_keys as f64 / ops, "count");
    put(
        "engine.load_over_predicted",
        geomean(&sp.load_over_predicted),
        "ratio",
    );
    for algo in ["hc", "hc-equal", "skew-join", "general"] {
        let share = ratio(sp.algos.get(algo).copied().unwrap_or(0), sp.lookups);
        put(&format!("engine.algo_share.{algo}"), share, "ratio");
    }
    put("sim.shuffle_us", per_op(sp.shuffle), "us");
    put(
        "sim.shuffle_allocs",
        sp.shuffle_allocs as f64 / ops,
        "count",
    );
    put("sim.total_bits", sp.total_bits as f64 / ops, "bits");
    put("sim.replication_rate", mean(&sp.replication), "ratio");
    put("sim.load_imbalance", mean(&sp.imbalance), "ratio");
    put("join.bindings", c.bindings as f64 / ops, "count");
    put("join.server_max_us", per_op(sp.join_max), "us");
    put("join.server_mean_us", sp.join_mean / ops, "us");
    put(
        "join.bindings_imbalance",
        mean(&sp.bindings_imbalance),
        "ratio",
    );
    put("merge.us", per_op(sp.merge), "us");
    put(
        "merge.rows_materialized",
        c.rows_materialized as f64 / ops,
        "count",
    );
    put("aggregate.us", sp.aggregate / ops, "us");
    put("aggregate.groups", sp.groups as f64 / ops, "count");
    put("allocs_per_op", c.allocs as f64 / ops, "count");
    put(
        "trace.overhead_pct",
        (us(sp.handle) / us(base_total) - 1.0) * 100.0,
        "%",
    );
    put("trace.inproc_op_us", per_op(base_total), "us");
    put("trace.layer_sum_us", layer_sum_us, "us");

    let notes = vec![
        format!("replayed {n} operations in process ({} queries, {} appends)", c.queries, c.appends),
        format!(
            "layer self times sum to {:.1} us/op against {:.1} us/op in-process end to end ({:.0}% attributed)",
            layer_sum_us,
            per_op(base_total),
            100.0 * layer_sum_us / per_op(base_total)
        ),
        format!("front.tcp_overhead_ms averages the first {overlap} operations of the timed window"),
    ];
    Ok((m, notes))
}
