//! On-disk arrival-trace loader: replay real cluster traces through the
//! traffic engine.
//!
//! A trace is CSV: an optional header line (detected by a non-numeric
//! first field) followed by `arrival_ns,tenant,elems,iterations` rows.
//!
//! A file mixes freely into tenants: every distinct `tenant` value
//! becomes one [`TenantSpec`] whose jobs arrive at that tenant's rows'
//! instants ([`ArrivalProcess::Trace`]), in first-appearance order so
//! admission order — and therefore allreduce-id assignment — is
//! deterministic. `elems`/`iterations` must agree across one tenant's
//! rows ([`TraceError::InconsistentTenant`] otherwise); payloads and
//! compute phases are layered on afterwards by the caller via the
//! returned specs' builder methods.

use std::fmt;
use std::path::Path;

use flare_des::Time;

use crate::traffic::{ArrivalProcess, TenantSpec};

/// One trace row: a job arrival for `tenant`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Arrival instant, ns.
    pub arrival_ns: Time,
    /// Tenant name (groups rows into one [`TenantSpec`]).
    pub tenant: String,
    /// Elements per allreduce for this tenant.
    pub elems: usize,
    /// Iterations per job for this tenant.
    pub iterations: usize,
}

/// Why a trace failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file could not be read.
    Io(String),
    /// A line failed to parse; `line` is 1-based.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        why: String,
    },
    /// One tenant's rows disagree on `elems` or `iterations`.
    InconsistentTenant {
        /// The tenant whose rows disagree.
        tenant: String,
        /// 1-based line number of the disagreeing row.
        line: usize,
        /// What disagreed.
        why: String,
    },
    /// The trace contains no records.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(why) => write!(f, "trace I/O error: {why}"),
            TraceError::Malformed { line, why } => {
                write!(f, "malformed trace line {line}: {why}")
            }
            TraceError::InconsistentTenant { tenant, line, why } => {
                write!(f, "trace line {line}: tenant {tenant:?} {why}")
            }
            TraceError::Empty => write!(f, "trace holds no records"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Parse trace `text`. Blank lines, `#` comments and one header line are
/// skipped.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, TraceError> {
    let mut records = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = i + 1;
        let s = raw.trim();
        if s.is_empty() || s.starts_with('#') {
            continue;
        }
        if let Some(rec) = parse_csv_line(s, line, records.is_empty())? {
            records.push(rec);
        }
    }
    if records.is_empty() {
        return Err(TraceError::Empty);
    }
    Ok(records)
}

/// [`parse_trace`] over a file's contents.
pub fn load_trace(path: impl AsRef<Path>) -> Result<Vec<TraceRecord>, TraceError> {
    let text = std::fs::read_to_string(path.as_ref())
        .map_err(|e| TraceError::Io(format!("{}: {e}", path.as_ref().display())))?;
    parse_trace(&text)
}

/// Group `records` into per-tenant [`TenantSpec`]s (first-appearance
/// order) with [`ArrivalProcess::Trace`] arrivals. Each spec starts from
/// [`TenantSpec::new`] defaults; chain builder methods (payload, compute,
/// hosts…) on the result.
pub fn tenant_specs(records: &[TraceRecord]) -> Result<Vec<TenantSpec>, TraceError> {
    if records.is_empty() {
        return Err(TraceError::Empty);
    }
    let mut specs: Vec<TenantSpec> = Vec::new();
    let mut arrivals: Vec<Vec<Time>> = Vec::new();
    for (i, r) in records.iter().enumerate() {
        match specs.iter().position(|s| s.name == r.tenant) {
            Some(k) => {
                let s = &specs[k];
                if s.elems != r.elems {
                    return Err(TraceError::InconsistentTenant {
                        tenant: r.tenant.clone(),
                        line: i + 1,
                        why: format!("elems {} disagrees with earlier {}", r.elems, s.elems),
                    });
                }
                if s.iterations != r.iterations {
                    return Err(TraceError::InconsistentTenant {
                        tenant: r.tenant.clone(),
                        line: i + 1,
                        why: format!(
                            "iterations {} disagrees with earlier {}",
                            r.iterations, s.iterations
                        ),
                    });
                }
                arrivals[k].push(r.arrival_ns);
            }
            None => {
                specs.push(TenantSpec::new(r.tenant.clone(), r.elems).iterations(r.iterations));
                arrivals.push(vec![r.arrival_ns]);
            }
        }
    }
    for (s, a) in specs.iter_mut().zip(arrivals) {
        *s = s.clone().arrivals(ArrivalProcess::Trace(a));
    }
    Ok(specs)
}

/// Render `records` as CSV with a header (the round-trip inverse of
/// [`parse_trace`]).
pub fn to_csv(records: &[TraceRecord]) -> String {
    let mut out = String::from("arrival_ns,tenant,elems,iterations\n");
    for r in records {
        out.push_str(&format!(
            "{},{},{},{}\n",
            r.arrival_ns, r.tenant, r.elems, r.iterations
        ));
    }
    out
}

/// Parse one CSV row. Returns `Ok(None)` for the header: a first row
/// whose `arrival_ns` field is non-numeric while later fields look like
/// column names is treated as a header only when no records have been
/// read yet (`first`).
fn parse_csv_line(s: &str, line: usize, first: bool) -> Result<Option<TraceRecord>, TraceError> {
    let fields: Vec<&str> = s.split(',').map(str::trim).collect();
    if fields.len() != 4 {
        return Err(TraceError::Malformed {
            line,
            why: format!("expected 4 comma-separated fields, got {}", fields.len()),
        });
    }
    if first && fields[0].parse::<u64>().is_err() {
        // Header line (e.g. "arrival_ns,tenant,elems,iterations").
        return Ok(None);
    }
    let arrival_ns = fields[0]
        .parse::<Time>()
        .map_err(|_| TraceError::Malformed {
            line,
            why: format!("arrival_ns {:?} is not a non-negative integer", fields[0]),
        })?;
    if fields[1].is_empty() {
        return Err(TraceError::Malformed {
            line,
            why: "tenant name is empty".into(),
        });
    }
    let elems = parse_positive(fields[2], "elems", line)?;
    let iterations = parse_positive(fields[3], "iterations", line)?;
    Ok(Some(TraceRecord {
        arrival_ns,
        tenant: fields[1].to_string(),
        elems,
        iterations,
    }))
}

fn parse_positive(field: &str, name: &str, line: usize) -> Result<usize, TraceError> {
    match field.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(TraceError::Malformed {
            line,
            why: format!("{name} {field:?} is not a positive integer"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                arrival_ns: 0,
                tenant: "resnet".into(),
                elems: 4096,
                iterations: 3,
            },
            TraceRecord {
                arrival_ns: 1_500,
                tenant: "bert".into(),
                elems: 8192,
                iterations: 2,
            },
            TraceRecord {
                arrival_ns: 9_000,
                tenant: "resnet".into(),
                elems: 4096,
                iterations: 3,
            },
        ]
    }

    #[test]
    fn csv_round_trips() {
        let recs = sample();
        assert_eq!(parse_trace(&to_csv(&recs)).unwrap(), recs);
    }

    #[test]
    fn rows_mix_with_comments_and_blanks() {
        let text =
            "# cluster trace\narrival_ns,tenant,elems,iterations\n0,a,64,1\n\n 5, b, 32, 2 \n";
        let recs = parse_trace(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].tenant.as_str(), recs[0].elems), ("a", 64));
        assert_eq!((recs[1].tenant.as_str(), recs[1].iterations), ("b", 2));
    }

    #[test]
    fn malformed_lines_carry_the_line_number() {
        let bad_fields = parse_trace("0,a,64\n").unwrap_err();
        assert!(matches!(bad_fields, TraceError::Malformed { line: 1, .. }));

        let bad_number = parse_trace("0,a,64,1\nnope,b,32,1\n").unwrap_err();
        assert!(matches!(bad_number, TraceError::Malformed { line: 2, .. }));

        assert_eq!(
            parse_trace("# only comments\n").unwrap_err(),
            TraceError::Empty
        );
    }

    #[test]
    fn tenant_specs_group_and_validate() {
        let specs = tenant_specs(&sample()).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "resnet"); // first-appearance order
        assert_eq!(specs[0].arrivals, ArrivalProcess::Trace(vec![0, 9_000]));
        assert_eq!(specs[0].iterations, 3);
        assert_eq!(specs[1].name, "bert");
        assert_eq!(specs[1].arrivals, ArrivalProcess::Trace(vec![1_500]));

        let mut recs = sample();
        recs[2].elems = 1; // resnet rows now disagree
        let err = tenant_specs(&recs).unwrap_err();
        assert!(matches!(
            err,
            TraceError::InconsistentTenant { line: 3, .. }
        ));
    }
}
