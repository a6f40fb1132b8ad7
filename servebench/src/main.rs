//! `servebench`: a client-side benchmark for `mpcskew serve`.
//!
//! ```text
//! servebench --server <mpcskew binary> --serve-flags "<pinned serve flags>"
//!            --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run starts a real `mpcskew serve --listen 127.0.0.1:0` process,
//! sets it up several times (timing each), then drives it for `--seconds`
//! as a closed loop over one TCP connection, checks every reply against
//! the sequential oracles and prints the end-to-end metrics. With
//! `--trace 1` it also replays the same operations in process and prints
//! the per-layer metrics instead. The last line of standard output is one
//! JSON object; a wrong answer makes the exit status non-zero.

mod check;
mod client;
mod trace;
mod workload;

use check::Checker;
use client::Server;
use mpc_data::Rng;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Op, ServeFlags, Workload};

/// One named figure: name, value, unit.
type Metric = (String, f64, &'static str);

#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Upper end of the client's think time between a reply and its next
/// request. Drawn uniformly from the seed, it keeps the closed loop from
/// phase-locking to the kernel's 4 ms timer tick, which would otherwise
/// round every stalled reply to the same tick and make medians jump
/// between ticks from run to run.
const THINK_NS: u64 = 4_000_000;

struct Args {
    server: String,
    serve_flags: String,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let num = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} expects a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        server: get("--server")?.to_string(),
        serve_flags: get("--serve-flags")?.to_string(),
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

/// Linear-interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Spawn, load and warm one server; returns it with its set-up time.
fn set_up(args: &Args, flags: &ServeFlags, w: &Workload) -> Result<(Server, Duration), String> {
    let start = Instant::now();
    let mut server = Server::spawn(&args.server, &flags.args)?;
    let lines = w
        .load_lines()
        .into_iter()
        .chain(w.warmup.iter().map(|q| q.line()));
    for line in lines {
        let reply = server.request(&line, false)?;
        if !reply.text.starts_with("ok") {
            return Err(format!("set-up failed: {}", reply.text.trim_end()));
        }
    }
    Ok((server, start.elapsed()))
}

/// One timed operation.
struct Record {
    latency: Duration,
    text: String,
    err: bool,
}

/// The end-to-end outcome of one run.
struct Outcome {
    /// The bounded metrics (`end_to_end` in `BENCHMARK.json`).
    metrics: Vec<Metric>,
    /// Printed but not bounded: too few samples lie beyond p99 while the
    /// TCP stall lasts, and the error rate is 0 on every workload.
    reported: Vec<Metric>,
    attempted: usize,
    failed: usize,
    wrong: Vec<String>,
    notes: Vec<String>,
    latencies: Vec<Duration>,
    /// A transport error or client timeout cut the window short.
    broken: bool,
}

fn measure(args: &Args, flags: &ServeFlags, w: &Workload) -> Result<Outcome, String> {
    let mut notes = vec![w.self_check(flags)?];
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for k in 0..SETUPS {
        let (s, took) = set_up(args, flags, w)?;
        setups.push(took.as_secs_f64());
        if k + 1 < SETUPS {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let lines: Vec<String> = w.cycle.iter().map(|op| w.line(op)).collect();

    // The timed window: a closed loop replaying the cycle from its start.
    let mut records = Vec::new();
    let mut broken = None;
    let mut think = Rng::seed_from_u64(args.seed ^ THINK_NS);
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let i = records.len();
        let rows = matches!(w.op(i), Op::Query(q) if q.rows);
        std::thread::sleep(Duration::from_nanos(think.below(THINK_NS)));
        match server.request(&lines[i % lines.len()], rows) {
            Ok(reply) => records.push(Record {
                latency: reply.latency,
                err: reply.is_err(),
                text: reply.text,
            }),
            Err(e) => {
                broken = Some(e);
                break;
            }
        }
    }
    let elapsed = start.elapsed();
    let peak_rss_mb = server.peak_rss_mb()?;

    // Outside the window: check every reply against the oracles.
    let mut checker = Checker::new(w, flags);
    let mut wrong = Vec::new();
    let (mut query_ms, mut append_ms, mut log_ratio) = (Vec::new(), Vec::new(), Vec::new());
    let mut shape_ms: Vec<(String, f64)> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        let op = w.op(i);
        match op {
            Op::Query(q) => {
                query_ms.push(ms(r.latency));
                match shape_ms.iter_mut().find(|(b, _)| *b == q.body) {
                    Some((_, t)) => *t += ms(r.latency),
                    None => shape_ms.push((q.body.clone(), ms(r.latency))),
                }
                if !r.err {
                    let v = checker.check_query(q, &r.text);
                    wrong.extend(v.wrong);
                    log_ratio.push(v.load_over_lower.ln());
                }
            }
            Op::Append { .. } => append_ms.push(ms(r.latency)),
            Op::Load(_) => {}
        }
        if !r.err {
            checker.apply(op);
        }
    }
    // Replies without `rows` carry only the group count: fetch every
    // aggregate's groups once and check them row by row.
    if broken.is_none() {
        for q in w.warmup.iter().filter(|q| q.parse().1.is_some()) {
            let mut with_rows = q.clone();
            with_rows.rows = true;
            let reply = server.request(&with_rows.line(), true)?;
            wrong.extend(checker.check_query(&with_rows, &reply.text).wrong);
        }
        server.shutdown()?;
    }
    let errs = records.iter().filter(|r| r.err).count();
    if let Some(r) = records.iter().find(|r| r.err) {
        notes.push(format!("first err reply: {}", r.text.trim_end()));
    }
    if let Some(e) = &broken {
        notes.push(format!("client error ended the window: {e}"));
    }
    let attempted = records.len() + usize::from(broken.is_some());
    let failed = errs + wrong.len() + usize::from(broken.is_some());

    query_ms.sort_by(f64::total_cmp);
    append_ms.sort_by(f64::total_cmp);
    setups.sort_by(f64::total_cmp);
    notes.push(format!(
        "{} operations in {:.2} s",
        records.len(),
        elapsed.as_secs_f64()
    ));
    for (what, v) in [("query", &query_ms), ("append", &append_ms)] {
        let beyond = |q: f64| v.len() - (q * v.len() as f64).ceil() as usize;
        notes.push(format!(
            "{what} latency over {} samples: p90 {:.2}, p95 {:.2}, p97 {:.2}, p99 {:.2} ms; {} beyond p95, {} beyond p99",
            v.len(),
            quantile(v, 0.9),
            quantile(v, 0.95),
            quantile(v, 0.97),
            quantile(v, 0.99),
            beyond(0.95),
            beyond(0.99),
        ));
    }
    notes.push(format!("set-up times (s): {setups:?}"));
    let window_ms: f64 = shape_ms.iter().map(|(_, t)| t).sum();
    for (body, t) in &shape_ms {
        notes.push(format!(
            "{:5.1}% of query time: {body}",
            100.0 * t / window_ms
        ));
    }
    let geo = (log_ratio.iter().sum::<f64>() / log_ratio.len().max(1) as f64).exp();
    let latencies = records.iter().map(|r| r.latency).collect();
    let m = |name: &str, value: f64, unit| (name.to_string(), value, unit);
    Ok(Outcome {
        metrics: vec![
            m("query_p50_ms", quantile(&query_ms, 0.5), "ms"),
            m("query_p95_ms", quantile(&query_ms, 0.95), "ms"),
            m("append_p50_ms", quantile(&append_ms, 0.5), "ms"),
            m("append_p95_ms", quantile(&append_ms, 0.95), "ms"),
            m(
                "ops_per_s",
                records.len() as f64 / elapsed.as_secs_f64(),
                "ops/s",
            ),
            m("load_over_lower", geo, "ratio"),
            m("setup_s", quantile(&setups, 0.5), "s"),
            m("peak_rss_mb", peak_rss_mb, "MiB"),
        ],
        reported: vec![
            m("query_p99_ms", quantile(&query_ms, 0.99), "ms"),
            m("append_p99_ms", quantile(&append_ms, 0.99), "ms"),
            m(
                "error_rate",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ],
        attempted,
        failed,
        wrong,
        notes,
        latencies,
        broken: broken.is_some(),
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let flags = ServeFlags::parse(&args.serve_flags)?;
    let w = workload::build(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload `{}` (have {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    let out = measure(&args, &flags, &w)?;
    println!(
        "workload {} seed {} ({} s window)",
        w.name, args.seed, args.seconds
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for wrong in &out.wrong {
        println!("  WRONG {wrong}");
    }
    let show = |(name, value, unit): &Metric| {
        println!("  {name:<32} {value:>14.4} {unit}");
    };
    out.metrics.iter().for_each(show);
    println!("  reported, not bounded:");
    out.reported.iter().for_each(show);
    let printed = if args.trace {
        let (layers, notes) = trace::run(&w, &flags, &out.latencies)?;
        for note in notes {
            println!("  {note}");
        }
        layers.iter().for_each(show);
        layers
    } else {
        out.metrics
    };
    let correct = out.wrong.is_empty() && !out.broken;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&printed)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}
