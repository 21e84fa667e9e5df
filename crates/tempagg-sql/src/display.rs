//! Rendering parsed statements back to SQL text (an "unparser").
//!
//! `parse(statement.to_string())` reproduces the original AST — a property
//! the round-trip tests enforce — which makes the AST printable for
//! logging, plan caching keys, and the REPL's error reporting.

use crate::ast::{
    CompareOp, Condition, JoinSelect, PlainSelect, Query, Statement, TemporalGrouping,
};
use std::fmt;
use tempagg_core::{Interval, Value, ValueType};

/// Print a result table: the header, a rule, then one line per row, every
/// column padded to its widest cell. `rows` yields each row's cells and is
/// walked twice — once for the widths, once to print — so the rows of a
/// result are read through their cursor and never gathered into a table of
/// strings first.
pub(crate) fn write_table(
    f: &mut fmt::Formatter<'_>,
    header: &[String],
    rows: impl Iterator<Item = Vec<String>> + Clone,
) -> fmt::Result {
    let mut widths: Vec<usize> = header.iter().map(|cell| cell.chars().count()).collect();
    for cells in rows.clone() {
        for (width, cell) in widths.iter_mut().zip(&cells) {
            *width = (*width).max(cell.chars().count());
        }
    }
    let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
        for (c, (cell, width)) in cells.iter().zip(&widths).enumerate() {
            if c > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{cell:<width$}")?;
        }
        writeln!(f)
    };
    line(f, header)?;
    let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    writeln!(f, "{}", "-".repeat(rule))?;
    for cells in rows {
        line(f, &cells)?;
    }
    Ok(())
}

/// Print a value as a re-parseable SQL literal.
pub(crate) fn sql_literal(value: &Value, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match value {
        Value::Null => write!(f, "NULL"),
        Value::Bool(true) => write!(f, "TRUE"),
        Value::Bool(false) => write!(f, "FALSE"),
        Value::Int(v) => write!(f, "{v}"),
        Value::Float(v) => {
            // Keep a decimal point so the literal re-lexes as a float.
            if v.fract() == 0.0 && v.abs() < 1e15 {
                write!(f, "{v:.1}")
            } else {
                write!(f, "{v}")
            }
        }
        Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
    }
}

struct Literal<'a>(&'a Value);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        sql_literal(self.0, f)
    }
}

fn interval_literal(iv: &Interval, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if iv.end().is_forever() {
        write!(f, "[{}, FOREVER]", iv.start())
    } else {
        write!(f, "[{}, {}]", iv.start(), iv.end())
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "<>",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        };
        write!(f, "{op}")
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, Literal(&self.value))
    }
}

fn where_clause(
    conditions: &[Condition],
    valid_window: &Option<Interval>,
    f: &mut fmt::Formatter<'_>,
) -> fmt::Result {
    if conditions.is_empty() && valid_window.is_none() {
        return Ok(());
    }
    write!(f, " WHERE ")?;
    let mut first = true;
    for c in conditions {
        if !first {
            write!(f, " AND ")?;
        }
        write!(f, "{c}")?;
        first = false;
    }
    if let Some(window) = valid_window {
        if !first {
            write!(f, " AND ")?;
        }
        write!(f, "VALID OVERLAPS ")?;
        interval_literal(window, f)?;
    }
    Ok(())
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.explain {
            write!(f, "EXPLAIN ")?;
        }
        write!(f, "SELECT ")?;
        if self.snapshot {
            write!(f, "SNAPSHOT ")?;
        }
        if let Some(k) = self.top_k {
            write!(f, "TOP {k} BY ")?;
        }
        for (i, agg) in self.aggregates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", agg.label())?;
        }
        if let Some(window) = &self.window {
            write!(f, " OVER ")?;
            interval_literal(window, f)?;
        }
        write!(f, " FROM {}", self.relation)?;
        if let Some(alias) = &self.alias {
            write!(f, " {alias}")?;
        }
        where_clause(&self.conditions, &self.valid_window, f)?;
        match (&self.group_column, self.temporal_grouping) {
            (None, TemporalGrouping::Instant) => {}
            (Some(col), TemporalGrouping::Instant) => write!(f, " GROUP BY {col}")?,
            (None, TemporalGrouping::Span(n)) => write!(f, " GROUP BY SPAN {n}")?,
            (Some(col), TemporalGrouping::Span(n)) => write!(f, " GROUP BY {col}, SPAN {n}")?,
        }
        Ok(())
    }
}

impl fmt::Display for PlainSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        match &self.columns {
            None => write!(f, "*")?,
            Some(cols) => {
                for (i, c) in cols.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{c}")?;
                }
            }
        }
        write!(f, " FROM {}", self.relation)?;
        if let Some(alias) = &self.alias {
            write!(f, " {alias}")?;
        }
        where_clause(&self.conditions, &self.valid_window, f)
    }
}

impl fmt::Display for JoinSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.explain {
            write!(f, "EXPLAIN ")?;
        }
        write!(f, "SELECT * FROM {}", self.left)?;
        if let Some(alias) = &self.left_alias {
            write!(f, " {alias}")?;
        }
        write!(f, " JOIN {}", self.right)?;
        if let Some(alias) = &self.right_alias {
            write!(f, " {alias}")?;
        }
        write!(f, " ON {}", self.predicate.name())
    }
}

fn type_name(ty: ValueType) -> &'static str {
    match ty {
        ValueType::Int => "INT",
        ValueType::Float => "FLOAT",
        ValueType::Str => "STRING",
        ValueType::Bool => "BOOL",
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Query(q) => write!(f, "{q}"),
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Join(j) => write!(f, "{j}"),
            Statement::CreateTable {
                name,
                columns,
                persist,
            } => {
                write!(f, "CREATE TABLE {name} (")?;
                for (i, (col, ty)) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{col} {}", type_name(*ty))?;
                }
                write!(f, ")")?;
                if let Some(path) = persist {
                    write!(f, " PERSIST TO '{path}'")?;
                }
                Ok(())
            }
            Statement::Insert { relation, rows } => {
                write!(f, "INSERT INTO {relation} VALUES ")?;
                for (i, (values, valid)) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    for (j, v) in values.iter().enumerate() {
                        if j > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", Literal(v))?;
                    }
                    write!(f, ") VALID ")?;
                    interval_literal(valid, f)?;
                }
                Ok(())
            }
            Statement::Delete {
                relation,
                conditions,
                valid_window,
            } => {
                write!(f, "DELETE FROM {relation}")?;
                where_clause(conditions, valid_window, f)
            }
            Statement::Update {
                relation,
                assignments,
                conditions,
                valid_window,
            } => {
                write!(f, "UPDATE {relation} SET ")?;
                for (i, (col, value)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{col} = {}", Literal(value))?;
                }
                where_clause(conditions, valid_window, f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::{parse, parse_statement};

    fn roundtrip(sql: &str) {
        let stmt = parse_statement(sql).unwrap();
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("printed form failed to parse: `{printed}`: {e}"));
        assert_eq!(stmt, reparsed, "printed: `{printed}`");
    }

    #[test]
    fn prints_the_papers_query() {
        let q = parse("SELECT COUNT(Name) FROM Employed E").unwrap();
        assert_eq!(q.to_string(), "SELECT COUNT(Name) FROM Employed E");
    }

    #[test]
    fn roundtrips_aggregate_queries() {
        roundtrip("SELECT COUNT(Name) FROM Employed E");
        roundtrip("EXPLAIN SELECT COUNT(*) FROM r");
        roundtrip(
            "SELECT MIN(salary), MAX(salary) FROM Employed \
             WHERE salary >= 36000 AND name <> 'Karen' AND VALID OVERLAPS [0, 100]",
        );
        roundtrip("SELECT SUM(x) FROM r GROUP BY dept, SPAN 500");
        roundtrip("SELECT AVG(x) FROM r GROUP BY dept");
        roundtrip("SELECT COUNT(x) FROM r WHERE VALID OVERLAPS [18, FOREVER]");
    }

    #[test]
    fn roundtrips_statements() {
        roundtrip("CREATE TABLE staff (name STRING, salary INT, rate FLOAT, active BOOL)");
        roundtrip("INSERT INTO staff VALUES ('O''Brien', 40000, 1.5, TRUE) VALID [18, FOREVER]");
        roundtrip("INSERT INTO t VALUES (1) VALID [0, 5], (2) VALID [6, 9]");
        roundtrip("SELECT * FROM staff");
        roundtrip("SELECT name, salary FROM staff WHERE salary > 40000");
    }

    #[test]
    fn roundtrips_joins() {
        roundtrip("SELECT * FROM a JOIN b ON OVERLAPS");
        roundtrip("SELECT * FROM Employed E JOIN Projects P ON DURING");
        roundtrip("EXPLAIN SELECT * FROM a x JOIN b ON CONTAINS");
        roundtrip("SELECT * FROM a JOIN b y ON MEETS");
    }

    #[test]
    fn roundtrips_dml() {
        roundtrip("DELETE FROM staff");
        roundtrip("DELETE FROM staff WHERE salary < 30000 AND VALID OVERLAPS [0, 100]");
        roundtrip("UPDATE staff SET salary = 45000 WHERE name = 'Kim'");
        roundtrip(
            "UPDATE staff SET salary = 45000, active = FALSE WHERE VALID OVERLAPS [5, FOREVER]",
        );
    }

    #[test]
    fn float_literals_keep_their_point() {
        roundtrip("SELECT COUNT(x) FROM r WHERE rate = 2.0");
        roundtrip("SELECT COUNT(x) FROM r WHERE rate = -0.5");
        roundtrip("INSERT INTO t VALUES (3.25) VALID [0, 1]");
    }

    #[test]
    fn string_escaping() {
        roundtrip("SELECT COUNT(x) FROM r WHERE name = 'it''s'");
        let stmt = parse_statement("SELECT COUNT(x) FROM r WHERE name = 'it''s'").unwrap();
        assert!(stmt.to_string().contains("'it''s'"));
    }
}
