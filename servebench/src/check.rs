//! The correctness gate: every reply checked, outside the timed window,
//! against the sequential oracles evaluated on the catalog state the
//! server held when it answered.

use crate::workload::{Catalog, Op, QueryOp, ServeFlags, Workload};
use mpc_core::aggregate::aggregate_oracle;
use mpc_core::bounds::l_lower;
use mpc_data::fastmap::FastMap;
use mpc_data::mix64;
use mpc_sim::backend::Backend;
use mpc_sim::oracle::join_database_on;
use mpc_stats::SimpleStatistics;

/// What the oracles say one query must return.
struct Expected {
    /// Distinct answers, or groups for an aggregate head.
    count: u64,
    /// Order-independent digest of the answer rows (plain queries).
    digest: u64,
    /// The group lines as the wire renders them (aggregate heads).
    groups: Vec<String>,
    /// `L_lower` in bits at the catalog's cardinalities and the query's `p`.
    lower_bits: f64,
}

/// The fields of an `ok answers=` / `ok groups=` status line.
struct Status {
    count: u64,
    load_bits: f64,
}

fn parse_status(line: &str) -> Option<Status> {
    let field = |name: &str| {
        line.split_whitespace()
            .find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
    };
    Some(Status {
        count: field("answers").or_else(|| field("groups"))?.parse().ok()?,
        load_bits: field("load")?.parse().ok()?,
    })
}

/// Order-independent digest of rows: a sum of per-row hashes.
fn digest<'a>(rows: impl Iterator<Item = &'a [u64]>) -> u64 {
    rows.map(|row| {
        row.iter()
            .fold(0x243f_6a88_85a3_08d3, |acc, &v| mix64(acc, v))
    })
    .fold(0u64, u64::wrapping_add)
}

/// Replays the operation stream over a model catalog and checks replies
/// in operation order, memoizing oracle results per catalog version.
pub struct Checker<'w> {
    w: &'w Workload,
    flags: &'w ServeFlags,
    catalog: Catalog,
    version: u64,
    memo: FastMap<(u64, String, usize), Expected>,
}

/// What one checked query reply contributes to the end-to-end metrics.
pub struct Verdict {
    pub wrong: Option<String>,
    /// Measured load over `L_lower`.
    pub load_over_lower: f64,
}

impl<'w> Checker<'w> {
    pub fn new(w: &'w Workload, flags: &'w ServeFlags) -> Checker<'w> {
        Checker {
            w,
            flags,
            catalog: Catalog::new(w),
            version: 0,
            memo: FastMap::default(),
        }
    }

    /// Advance the model past a non-query operation.
    pub fn apply(&mut self, op: &Op) {
        if self.catalog.apply(self.w, op) {
            self.version += 1;
        }
    }

    fn expected(&mut self, q: &QueryOp) -> &Expected {
        let p = q.p.unwrap_or(self.flags.p);
        let key = (self.version, q.body.clone(), p);
        let (catalog, domain) = (&self.catalog, self.flags.domain);
        self.memo.entry(key).or_insert_with(|| {
            let (query, aggregate) = q.parse();
            let db = catalog.database(&query, domain);
            let arities: Vec<usize> = query.atoms().iter().map(|a| a.arity()).collect();
            let stats = SimpleStatistics::synthetic(&arities, db.cardinalities(), domain);
            let lower_bits = l_lower(&query, &stats, p).0;
            match aggregate {
                Some(spec) => {
                    let result = aggregate_oracle(&db, &spec);
                    Expected {
                        count: result.num_groups() as u64,
                        digest: 0,
                        groups: result.to_string().lines().map(str::to_string).collect(),
                        lower_bits,
                    }
                }
                None => {
                    let answers = join_database_on(&db, Backend::Sequential);
                    Expected {
                        count: answers.len() as u64,
                        digest: digest(answers.rows()),
                        groups: Vec::new(),
                        lower_bits,
                    }
                }
            }
        })
    }

    /// Check one `ok` reply to `q` (not an `err`, which the caller counts).
    pub fn check_query(&mut self, q: &QueryOp, reply: &str) -> Verdict {
        let aggregate = q.parse().1.is_some();
        let mut lines = reply.lines();
        let status = lines.next().and_then(parse_status);
        let exp = self.expected(q);
        let Some(status) = status else {
            return Verdict {
                wrong: Some(format!("malformed reply {:?}", reply.lines().next())),
                load_over_lower: f64::NAN,
            };
        };
        let load_over_lower = status.load_bits / exp.lower_bits;
        let mut wrong = None;
        if status.count != exp.count {
            wrong = Some(format!("count {} != oracle {}", status.count, exp.count));
        } else if q.rows {
            let body: Vec<&str> = lines.collect();
            let (rows, end) = body.split_at(body.len().saturating_sub(1));
            if end != ["end"] || rows.len() as u64 != exp.count {
                wrong = Some(format!("{} row lines for count {}", rows.len(), exp.count));
            } else if aggregate {
                if rows.iter().zip(&exp.groups).any(|(a, b)| a != b) {
                    wrong = Some("group rows differ from the oracle fold".into());
                }
            } else {
                let parsed: Option<Vec<Vec<u64>>> = rows
                    .iter()
                    .map(|r| r.split_whitespace().map(|v| v.parse().ok()).collect())
                    .collect();
                let got = parsed.map(|rows| digest(rows.iter().map(Vec::as_slice)));
                if got != Some(exp.digest) {
                    wrong = Some("row digest differs from the oracle join".into());
                }
            }
        }
        Verdict {
            wrong: wrong.map(|w| format!("`{}`: {w}", q.line())),
            load_over_lower,
        }
    }
}
