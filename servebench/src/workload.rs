//! The three workloads: a seed-determined catalog, warm-up queries and a
//! fixed operation cycle that the timed window replays from its start.
//!
//! Every tuple value is drawn from `--seed`. Sizes, shapes, the operation
//! order and the batch sizes come from a fixed seed of their own, so two
//! seeds differ only in which values the tuples hold and every run does the
//! same amount of work at the same point of the cycle. The server sees
//! nothing but the `LOAD` / `APPEND` / `QUERY` lines rendered here.

use mpc_bench::workloads::{correlated_zipf_db, product_skew_db, skewed_join_db, zipf_triangle_db};
use mpc_core::aggregate::aggregate_oracle;
use mpc_core::engine::{Algorithm, PlanKey};
use mpc_data::fastmap::{FastMap, FastSet};
use mpc_data::{generators, Database, Relation, Rng};
use mpc_query::{parse_aggregate_query, parse_query, AggregateOp, AggregateSpec, Query};
use mpc_sim::backend::Backend;
use std::fmt::Write as _;
use std::sync::Arc;

/// The server flags every workload runs under; the in-process replay
/// configures its `Service` from the same values.
pub struct ServeFlags {
    /// The flags verbatim, as passed to `mpcskew serve`.
    pub args: Vec<String>,
    pub domain: u64,
    pub p: usize,
    pub seed: u64,
    pub threads: String,
    pub stats: String,
}

impl ServeFlags {
    /// Parse `--domain N --p N --seed N --threads T --stats S
    /// --max-clients N`; every flag must be present, so nothing is left to
    /// the server's defaults.
    pub fn parse(text: &str) -> Result<ServeFlags, String> {
        let args: Vec<String> = text.split_whitespace().map(str::to_string).collect();
        let get = |name: &str| -> Result<&str, String> {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("--serve-flags must pin {name}"))
        };
        let num = |name: &str| -> Result<u64, String> {
            get(name)?
                .parse()
                .map_err(|_| format!("{name} expects an integer"))
        };
        num("--max-clients")?;
        let threads = get("--threads")?;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        match Backend::parse(threads)? {
            Backend::Sequential => {}
            Backend::Pooled(n) if n <= cores => {}
            other => {
                return Err(format!(
                    "--threads {threads} selects {other}; pin the sequential backend or a pool of at most {cores} workers"
                ))
            }
        }
        Ok(ServeFlags {
            domain: num("--domain")?,
            p: num("--p")? as usize,
            seed: num("--seed")?,
            threads: get("--threads")?.to_string(),
            stats: get("--stats")?.to_string(),
            args,
        })
    }
}

/// One `QUERY` line.
#[derive(Clone)]
pub struct QueryOp {
    /// Query text: a conjunctive body, optionally with an aggregate head.
    pub body: String,
    /// `p=` override; `None` runs at the server's default `p`.
    pub p: Option<usize>,
    /// Ask for the answer rows (or group rows) after the status line.
    pub rows: bool,
}

impl QueryOp {
    fn new(body: &str, p: Option<usize>, rows: bool) -> QueryOp {
        QueryOp {
            body: body.to_string(),
            p,
            rows,
        }
    }

    pub fn line(&self) -> String {
        let mut line = format!("QUERY {}", self.body);
        if let Some(p) = self.p {
            let _ = write!(line, " p={p}");
        }
        if self.rows {
            line.push_str(" rows");
        }
        line
    }

    /// The parsed body and aggregate head.
    pub fn parse(&self) -> (Query, Option<AggregateSpec>) {
        parse_aggregate_query(&self.body).expect("workload queries parse")
    }

    /// The service's plan-cache key for this query.
    pub fn plan_key(&self, flags: &ServeFlags) -> PlanKey {
        let (q, aggregate) = self.parse();
        PlanKey {
            shape: q.canonical().shape(),
            p: self.p.unwrap_or(flags.p),
            seed: flags.seed,
            algorithm: Algorithm::Auto,
            aggregate,
        }
    }
}

/// One operation of the timed stream.
pub enum Op {
    Query(QueryOp),
    /// Append row-major tuples to the named relation.
    Append {
        rel: String,
        flat: Vec<u64>,
    },
    /// Reload base relation `i` (resets it to its initial contents).
    Load(usize),
}

/// A workload: what set-up loads and warms, and the cycle the timed window
/// replays (operation `i` is `cycle[i % cycle.len()]`).
pub struct Workload {
    pub name: &'static str,
    pub base: Vec<Relation>,
    pub warmup: Vec<QueryOp>,
    pub cycle: Vec<Op>,
    /// A relation only ever appended to, never queried: it gives the two
    /// read workloads a trickle of writes that touches no cached plan.
    pub side: Option<&'static str>,
}

pub const NAMES: [&str; 3] = ["skewed_reads", "append_replan", "aggregate_product_skew"];

/// Plan-cache capacity of `mpcskew serve`
/// (`mpc_core::service::DEFAULT_PLAN_CACHE_CAPACITY`).
pub const PLAN_CACHE_CAPACITY: usize = mpc_core::service::DEFAULT_PLAN_CACHE_CAPACITY;

/// Seeds the operation order and batch sizes, which are the same for
/// every `--seed`.
const ORDER_SEED: u64 = 0x5e_7be7c4;

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let data = &mut Rng::seed_from_u64(seed);
    let order = &mut Rng::seed_from_u64(ORDER_SEED);
    Some(match name {
        "skewed_reads" => skewed_reads(data, order),
        "append_replan" => append_replan(data, order),
        "aggregate_product_skew" => aggregate_product_skew(data, order),
        _ => return None,
    })
}

impl Workload {
    pub fn op(&self, i: usize) -> &Op {
        &self.cycle[i % self.cycle.len()]
    }

    /// The wire line for `op`.
    pub fn line(&self, op: &Op) -> String {
        match op {
            Op::Query(q) => q.line(),
            Op::Append { rel, flat } => {
                let arity = self.base_relation(rel).arity();
                format!("APPEND {rel} {}", render_rows(flat, arity))
            }
            Op::Load(i) => load_line(&self.base[*i]),
        }
    }

    pub fn load_lines(&self) -> Vec<String> {
        self.base.iter().map(load_line).collect()
    }

    pub fn base_relation(&self, name: &str) -> &Relation {
        self.base
            .iter()
            .find(|r| r.name() == name)
            .expect("operations name loaded relations")
    }

    /// Check the input properties this workload exists to exercise; they
    /// depend only on the generated inputs, never on the program.
    pub fn self_check(&self, flags: &ServeFlags) -> Result<String, String> {
        let keys: FastSet<PlanKey> = self
            .warmup
            .iter()
            .chain(self.cycle.iter().filter_map(|op| match op {
                Op::Query(q) => Some(q),
                _ => None,
            }))
            .map(|q| q.plan_key(flags))
            .collect();
        let keys = keys.len();
        match self.name {
            "skewed_reads" if keys > PLAN_CACHE_CAPACITY => Err(format!(
                "{keys} distinct plan keys exceed the {PLAN_CACHE_CAPACITY}-plan cache"
            )),
            "append_replan" if keys <= PLAN_CACHE_CAPACITY => Err(format!(
                "{keys} distinct plan keys fit the {PLAN_CACHE_CAPACITY}-plan cache"
            )),
            "append_replan" => {
                let changes = self.heavy_set_changes(flags.p);
                if changes == 0 {
                    return Err("no append changes an exact heavy-hitter set".into());
                }
                Ok(format!(
                    "{keys} plan keys > {PLAN_CACHE_CAPACITY}; {changes} appends change an exact heavy-hitter set"
                ))
            }
            "aggregate_product_skew" => {
                let mut least = f64::INFINITY;
                for q in &self.warmup {
                    let (body, _) = q.parse();
                    let db = Catalog::new(self).database(&body, flags.domain);
                    let count = AggregateSpec::new(vec![], vec![AggregateOp::Count])
                        .expect("COUNT(*) is a valid head");
                    let derivations = aggregate_oracle(&db, &count).rows()[0].1[0] as f64;
                    let inputs: usize = db.cardinalities().iter().sum();
                    least = least.min(derivations / inputs as f64);
                }
                if least < 10.0 {
                    return Err(format!("derivations only {least:.1}x the input tuples"));
                }
                Ok(format!(
                    "{keys} plan keys; derivations >= {least:.1}x input"
                ))
            }
            _ => Ok(format!("{keys} plan keys <= {PLAN_CACHE_CAPACITY}")),
        }
    }

    /// How many appends in one cycle change some relation's exact
    /// heavy-hitter set (values of one column with more than `m / p`
    /// tuples).
    fn heavy_set_changes(&self, p: usize) -> usize {
        let heavy = |rel: &Relation| -> FastSet<(usize, u64)> {
            let mut set = FastSet::default();
            for col in 0..rel.arity() {
                let mut freq: FastMap<u64, usize> = FastMap::default();
                for row in rel.rows() {
                    *freq.entry(row[col]).or_default() += 1;
                }
                let threshold = rel.len() / p;
                set.extend(
                    freq.into_iter()
                        .filter(|&(_, c)| c > threshold)
                        .map(|(v, _)| (col, v)),
                );
            }
            set
        };
        let mut rels: Vec<Relation> = self.base.clone();
        let mut changes = 0;
        for op in &self.cycle {
            match op {
                Op::Append { rel, flat } => {
                    let r = rels.iter_mut().find(|r| r.name() == rel).expect("loaded");
                    let before = heavy(r);
                    r.push_rows(flat);
                    changes += usize::from(heavy(r) != before);
                }
                Op::Load(i) => rels[*i] = self.base[*i].clone(),
                Op::Query(_) => {}
            }
        }
        changes
    }
}

/// The catalog as the server holds it after some prefix of operations.
pub struct Catalog {
    rels: Vec<Arc<Relation>>,
}

impl Catalog {
    pub fn new(w: &Workload) -> Catalog {
        Catalog {
            rels: w.base.iter().cloned().map(Arc::new).collect(),
        }
    }

    /// Apply one operation; returns true when it changed a relation some
    /// query reads (so cached expectations are stale).
    pub fn apply(&mut self, w: &Workload, op: &Op) -> bool {
        match op {
            Op::Query(_) => false,
            Op::Append { rel, flat } => {
                let i = self.index(rel);
                Arc::make_mut(&mut self.rels[i]).push_rows(flat);
                w.side != Some(rel.as_str())
            }
            Op::Load(i) => {
                self.rels[*i] = Arc::new(w.base[*i].clone());
                true
            }
        }
    }

    fn index(&self, name: &str) -> usize {
        self.rels
            .iter()
            .position(|r| r.name() == name)
            .expect("operations name loaded relations")
    }

    /// A zero-copy database over the current relations of `q`'s atoms.
    pub fn database(&self, q: &Query, domain: u64) -> Database {
        let rels = q
            .atoms()
            .iter()
            .map(|a| self.rels[self.index(a.name())].clone())
            .collect();
        Database::from_shared(q.clone(), rels, domain).expect("atoms match the catalog")
    }
}

fn render_rows(flat: &[u64], arity: usize) -> String {
    let mut out = String::with_capacity(flat.len() * 7);
    for (i, row) in flat.chunks_exact(arity).enumerate() {
        if i > 0 {
            out.push(';');
        }
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{v}");
        }
    }
    out
}

fn load_line(rel: &Relation) -> String {
    let flat: Vec<u64> = rel.rows().flatten().copied().collect();
    format!(
        "LOAD {} {} {}",
        rel.name(),
        rel.arity(),
        render_rows(&flat, rel.arity())
    )
}

/// `rel` under a new name (the shared builders name their outputs `S1..`).
fn renamed(rel: &Relation, name: &str) -> Relation {
    Relation::from_flat(name, rel.arity(), rel.rows().flatten().copied().collect())
}

/// The relations of a two- or three-atom builder, renamed to `names`.
fn built(db: Database, names: &[&str]) -> Vec<Relation> {
    names
        .iter()
        .enumerate()
        .map(|(j, n)| renamed(db.relation(j), n))
        .collect()
}

fn query(text: &str) -> Query {
    parse_query(text).expect("builder query parses")
}

/// The side relation and one small append batch for it.
const SIDE: &str = "Wlog";

fn side_append(rng: &mut Rng) -> Op {
    let flat = (0..16).map(|_| rng.below(1 << 16)).collect();
    Op::Append {
        rel: SIDE.to_string(),
        flat,
    }
}

/// Shuffle `queries` and interleave them with a side append after every
/// `every` of them.
fn with_side_appends(
    mut queries: Vec<QueryOp>,
    every: usize,
    data: &mut Rng,
    order: &mut Rng,
) -> Vec<Op> {
    order.shuffle(&mut queries);
    let mut ops = Vec::new();
    for (i, q) in queries.into_iter().enumerate() {
        ops.push(Op::Query(q));
        if (i + 1) % every == 0 {
            ops.push(side_append(data));
        }
    }
    ops
}

/// Zipf-skewed relations sharing heavy hitters (the §4.1 H12 class) next
/// to uniform ones; a few materializing shapes at the default `p`.
fn skewed_reads(data: &mut Rng, order: &mut Rng) -> Workload {
    let mut base = Vec::new();
    // A1 ⋈ A2: Zipf(1.0) on z with the hot values at opposite ends, plus
    // one value heavy on both sides (H12).
    base.extend(built(
        skewed_join_db(
            &query("A1(x,z), A2(y,z)"),
            8192,
            1 << 16,
            1.0,
            140,
            data.next_u64(),
        ),
        &["A1", "A2"],
    ));
    // C1, C2: Zipf on the star centre, hot ends apart; C3 uniform.
    base.extend(built(
        skewed_join_db(
            &query("C1(x,z), C2(y,z)"),
            4096,
            4096,
            1.1,
            48,
            data.next_u64(),
        ),
        &["C1", "C2"],
    ));
    base.push(generators::uniform("C3", 2, 4096, 4096, data));
    // Chain B1 - B2 - B3 with B2 Zipf on its first column.
    base.push(generators::uniform("B1", 2, 4096, 8192, data));
    base.push(generators::zipf_column("B2", 2, 4096, 8192, 0, 1.0, data));
    base.push(generators::uniform("B3", 2, 4096, 8192, data));
    // A locally skewed triangle.
    base.extend(built(
        zipf_triangle_db(
            &query("T1(x,y), T2(y,z), T3(z,x)"),
            4096,
            4096,
            1.0,
            data.next_u64(),
        ),
        &["T1", "T2", "T3"],
    ));
    // Uniform pair: the skew-free HyperCube case.
    base.push(generators::uniform("U1", 2, 4096, 8192, data));
    base.push(generators::uniform("U2", 2, 4096, 8192, data));
    base.push(generators::uniform(SIDE, 2, 64, 1 << 16, data));

    // (body, copies per cycle, rows)
    let shapes: [(&str, usize, bool); 8] = [
        ("A1(x,z), A2(y,z)", 4, false),
        ("U1(x,z), U2(y,z)", 4, true),
        ("C1(x,z), C2(y,z), C3(w,z)", 4, false),
        ("B1(x,y), B2(y,z), B3(z,w)", 4, true),
        ("T1(x,y), T2(y,z), T3(z,x)", 4, false),
        ("A1(x,z), U2(y,z)", 4, false),
        ("U1(x,y), B2(y,z)", 4, true),
        ("C1(x,z), A2(y,z)", 4, false),
    ];
    let warmup: Vec<QueryOp> = shapes
        .iter()
        .map(|&(b, _, _)| QueryOp::new(b, None, false))
        .collect();
    let queries: Vec<QueryOp> = shapes
        .iter()
        .flat_map(|&(b, n, rows)| (0..n).map(move |_| QueryOp::new(b, None, rows)))
        .collect();
    Workload {
        name: "skewed_reads",
        base,
        warmup,
        cycle: with_side_appends(queries, 8, data, order),
        side: Some(SIDE),
    }
}

/// Small relations; half the operations append batches to the two ingest
/// relations, bringing in heavy keys and crossing cardinality buckets,
/// between queries over more plan keys than the plan cache holds. Plans
/// over the static relations are never invalidated, so the cache fills and
/// evicts. The cycle ends by reloading the ingest relations, so the
/// catalog stays small however many cycles run.
fn append_replan(data: &mut Rng, order: &mut Rng) -> Workload {
    const M: usize = 2048;
    const N: u64 = 1024;
    let fixed = ["D1", "D2", "D3", "D4"];
    let ingest = ["R1", "R2"];
    let base: Vec<Relation> = ingest
        .iter()
        .chain(&fixed)
        .map(|n| generators::uniform(n, 2, M, N, data))
        .collect();
    let mut shapes: Vec<String> = Vec::new();
    for i in 0..4 {
        for j in i + 1..4 {
            shapes.push(format!("{}(x,z), {}(y,z)", fixed[i], fixed[j]));
        }
        shapes.push(format!("{}(x,y), {}(y,z)", fixed[i], fixed[(i + 1) % 4]));
    }
    shapes.extend(
        [
            "R1(x,z), R2(y,z)",
            "R1(x,y), R2(y,z)",
            "R1(x,z), D1(y,z)",
            "R2(x,y), D2(y,z)",
            "R1(x,y), R2(y,z), D3(z,w)",
            "R1(x,y), R2(y,z), D4(z,x)",
        ]
        .map(String::from),
    );
    let ps = [4, 6, 8, 12, 16, 20, 24, 32, 40, 48, 56, 64];
    let mut queries: Vec<QueryOp> = shapes
        .iter()
        .flat_map(|s| ps.iter().map(move |&p| QueryOp::new(s, Some(p), false)))
        .collect();
    order.shuffle(&mut queries);
    // A hot set that recurs within the cycle, so some queries can hit.
    let hot: Vec<QueryOp> = queries[..8].to_vec();
    for _ in 0..44 {
        let q = hot[order.below(hot.len() as u64) as usize].clone();
        let at = order.below(queries.len() as u64 + 1) as usize;
        queries.insert(at, q);
    }
    // Heavy keys are fresh values above the base range, and light tuples
    // are spread over a range 64 times wider: appends change heavy-hitter
    // sets and cardinalities (and so plans) while the joins stay cheap.
    let mut fresh = 1 << 20;
    let mut cycle = Vec::new();
    for (i, q) in queries.into_iter().enumerate() {
        cycle.push(Op::Query(q));
        let flat: Vec<u64> = if i % 3 == 0 {
            let col = order.below(2) as usize;
            let copies = 96 + order.below(64) as usize;
            fresh -= 1;
            (0..copies)
                .flat_map(|_| {
                    let other = data.below(N);
                    if col == 0 {
                        [fresh, other]
                    } else {
                        [other, fresh]
                    }
                })
                .collect()
        } else {
            let tuples = 16 + order.below(48);
            (0..2 * tuples).map(|_| data.below(64 * N)).collect()
        };
        cycle.push(Op::Append {
            rel: ingest[i % 2].to_string(),
            flat,
        });
    }
    cycle.extend((0..ingest.len()).map(Op::Load));
    Workload {
        name: "append_replan",
        base,
        warmup: hot,
        cycle,
        side: None,
    }
}

/// Correlated-Zipf and product-skew pairs under aggregate heads: the
/// local join enumerates far more derivations than there are input
/// tuples, and nothing is materialized.
fn aggregate_product_skew(data: &mut Rng, order: &mut Rng) -> Workload {
    let mut base = Vec::new();
    base.extend(built(
        correlated_zipf_db(&query("Z1(x,z), Z2(y,z)"), 4096, 4096, 1.0, data.next_u64()),
        &["Z1", "Z2"],
    ));
    base.extend(built(
        product_skew_db(
            &query("P1(x,z), P2(y,z)"),
            4096,
            1 << 16,
            4,
            256,
            data.next_u64(),
        ),
        &["P1", "P2"],
    ));
    base.push(generators::uniform(SIDE, 2, 64, 1 << 16, data));
    let bodies = [
        "Q(; count) :- Z1(x,z), Z2(y,z)",
        "Q(z; count) :- Z1(x,z), Z2(y,z)",
        "Q(; sum(x)) :- Z1(x,z), Z2(y,z)",
        "Q(z; count_distinct(y)) :- Z1(x,z), Z2(y,z)",
        "Q(; count) :- P1(x,z), P2(y,z)",
        "Q(z; sum(y)) :- P1(x,z), P2(y,z)",
        "Q(x; count) :- P1(x,z), P2(y,z)",
        "Q(; count_distinct(x)) :- P1(x,z), P2(y,z)",
    ];
    let warmup: Vec<QueryOp> = bodies
        .iter()
        .map(|b| QueryOp::new(b, None, false))
        .collect();
    let queries: Vec<QueryOp> = (0..4).flat_map(|_| warmup.iter().cloned()).collect();
    Workload {
        name: "aggregate_product_skew",
        base,
        warmup,
        cycle: with_side_appends(queries, 8, data, order),
        side: Some(SIDE),
    }
}
