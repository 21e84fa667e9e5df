//! Recursive-descent parser for the mini-TSQL2 dialect.

use crate::ast::{
    AggExpr, CompareOp, Condition, JoinSelect, PlainSelect, Query, Statement, TemporalGrouping,
};
use crate::lexer::lex;
use crate::token::{Keyword, Spanned, Token};
use tempagg_agg::AggKind;
use tempagg_algo::JoinPredicate;
use tempagg_core::{
    Calendar, Interval, Result, TempAggError, TimeUnit, Timestamp, Value, ValueType,
};

/// Parse one aggregate query with the default (second-granularity)
/// calendar. Errors on DDL/DML; use [`parse_statement`] for those.
pub fn parse(src: &str) -> Result<Query> {
    parse_with_calendar(src, &Calendar::default())
}

/// Parse one aggregate query, resolving calendar-unit spans
/// (`GROUP BY SPAN 7 DAY`) against the given calendar.
pub fn parse_with_calendar(src: &str, calendar: &Calendar) -> Result<Query> {
    match parse_statement_with_calendar(src, calendar)? {
        Statement::Query(query) => Ok(query),
        _ => Err(TempAggError::Sql {
            line: 1,
            column: 1,
            detail: "expected an aggregate query".into(),
        }),
    }
}

/// Parse any statement (aggregate query, plain SELECT, CREATE TABLE,
/// INSERT) with the default calendar.
pub fn parse_statement(src: &str) -> Result<Statement> {
    parse_statement_with_calendar(src, &Calendar::default())
}

/// Parse any statement against the given calendar.
pub fn parse_statement_with_calendar(src: &str, calendar: &Calendar) -> Result<Statement> {
    let tokens = lex(src)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        calendar: *calendar,
    };
    let statement = parser.statement()?;
    parser.expect_end()?;
    Ok(statement)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    calendar: Calendar,
}

impl Parser {
    fn error_at(&self, detail: impl Into<String>) -> TempAggError {
        let (line, column) = self
            .tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or((1, 1), |s| (s.line, s.column));
        TempAggError::Sql {
            line,
            column,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, token: &Token) -> bool {
        if self.peek() == Some(token) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: Keyword) -> bool {
        self.eat(&Token::Keyword(kw))
    }

    fn expect_token(&mut self, token: Token) -> Result<()> {
        if self.eat(&token) {
            Ok(())
        } else {
            Err(self.error_at(format!(
                "expected `{token}`, found {}",
                self.peek()
                    .map_or("end of input".to_owned(), |t| format!("`{t}`"))
            )))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<()> {
        self.expect_token(Token::Keyword(kw))
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => {
                self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                Err(self.error_at(format!("expected {what}")))
            }
        }
    }

    fn int(&mut self, what: &str) -> Result<i64> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(v),
            other => {
                self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                Err(self.error_at(format!("expected {what}")))
            }
        }
    }

    fn expect_end(&mut self) -> Result<()> {
        self.eat(&Token::Semicolon);
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            Err(self.error_at("unexpected trailing input"))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Some(Token::Keyword(Keyword::Create)) => self.create_table(),
            Some(Token::Keyword(Keyword::Insert)) => self.insert(),
            Some(Token::Keyword(Keyword::Delete)) => self.delete(),
            Some(Token::Keyword(Keyword::Update)) => self.update(),
            _ => {
                let explain = self.eat_keyword(Keyword::Explain);
                self.expect_keyword(Keyword::Select)?;
                // TSQL2's `SELECT SNAPSHOT` requests a non-temporal result.
                let snapshot = self.eat_keyword(Keyword::Snapshot);
                // Aggregate select lists start with `name(`; everything
                // else (`*` or bare columns) is a plain selection.
                if self.peek() == Some(&Token::Keyword(Keyword::Top)) {
                    return Ok(Statement::Query(
                        self.top_k_after_select(explain, snapshot)?,
                    ));
                }
                let is_aggregate = matches!(
                    (self.peek(), self.tokens.get(self.pos + 1).map(|s| &s.token)),
                    (Some(Token::Ident(_)), Some(Token::LParen))
                );
                if is_aggregate {
                    Ok(Statement::Query(
                        self.query_after_select(explain, snapshot)?,
                    ))
                } else {
                    self.select_or_join_after_select(explain, snapshot)
                }
            }
        }
    }

    /// `FROM rel [alias]`.
    fn parse_from(&mut self) -> Result<(String, Option<String>)> {
        self.expect_keyword(Keyword::From)?;
        let relation = self.ident("relation name")?;
        let alias = match self.peek() {
            Some(Token::Ident(_)) => Some(self.ident("alias")?),
            _ => None,
        };
        Ok((relation, alias))
    }

    /// `[WHERE condition (AND condition)*]`, separating VALID windows.
    fn where_clause(&mut self) -> Result<(Vec<Condition>, Option<Interval>)> {
        let mut conditions = Vec::new();
        let mut valid_window = None;
        if self.eat_keyword(Keyword::Where) {
            loop {
                if self.eat_keyword(Keyword::Valid) {
                    self.expect_keyword(Keyword::Overlaps)?;
                    valid_window = Some(self.interval_literal()?);
                } else {
                    conditions.push(self.condition()?);
                }
                if !self.eat_keyword(Keyword::And) {
                    break;
                }
            }
        }
        Ok((conditions, valid_window))
    }

    /// A non-aggregate selection: either a plain tuple SELECT or, when a
    /// `JOIN` follows the first relation, a sweep-based interval join.
    fn select_or_join_after_select(&mut self, explain: bool, snapshot: bool) -> Result<Statement> {
        let columns = if self.eat(&Token::Star) {
            None
        } else {
            let mut cols = vec![self.ident("column name")?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident("column name")?);
            }
            Some(cols)
        };
        let (relation, alias) = self.parse_from()?;
        if self.peek() == Some(&Token::Keyword(Keyword::Join)) {
            if snapshot {
                return Err(self.error_at("SNAPSHOT applies to aggregate queries only"));
            }
            if columns.is_some() {
                return Err(
                    self.error_at("join queries project `*` (both sides' columns, qualified)")
                );
            }
            self.expect_keyword(Keyword::Join)?;
            let right = self.ident("relation name")?;
            let right_alias = match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident("alias")?),
                _ => None,
            };
            self.expect_keyword(Keyword::On)?;
            let predicate = self.join_predicate()?;
            return Ok(Statement::Join(JoinSelect {
                explain,
                left: relation,
                left_alias: alias,
                right,
                right_alias,
                predicate,
            }));
        }
        if explain {
            return Err(self.error_at("EXPLAIN applies to aggregate queries and joins only"));
        }
        if snapshot {
            return Err(self.error_at("SNAPSHOT applies to aggregate queries only"));
        }
        let (conditions, valid_window) = self.where_clause()?;
        Ok(Statement::Select(PlainSelect {
            columns,
            relation,
            alias,
            conditions,
            valid_window,
        }))
    }

    /// `OVERLAPS | CONTAINS | DURING | MEETS` after `ON`.
    fn join_predicate(&mut self) -> Result<JoinPredicate> {
        match self.bump() {
            Some(Token::Keyword(Keyword::Overlaps)) => Ok(JoinPredicate::Overlaps),
            Some(Token::Keyword(Keyword::Contains)) => Ok(JoinPredicate::Contains),
            Some(Token::Keyword(Keyword::During)) => Ok(JoinPredicate::During),
            Some(Token::Keyword(Keyword::Meets)) => Ok(JoinPredicate::Meets),
            other => {
                self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                Err(self.error_at("expected OVERLAPS, CONTAINS, DURING, or MEETS"))
            }
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Create)?;
        self.expect_keyword(Keyword::Table)?;
        let name = self.ident("table name")?;
        self.expect_token(Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("column name")?;
            let ty_name = self.ident("column type")?;
            let ty = match ty_name.to_ascii_uppercase().as_str() {
                "INT" | "INTEGER" | "BIGINT" => ValueType::Int,
                "FLOAT" | "REAL" | "DOUBLE" => ValueType::Float,
                "STRING" | "TEXT" | "VARCHAR" | "CHAR" => ValueType::Str,
                "BOOL" | "BOOLEAN" => ValueType::Bool,
                other => {
                    self.pos -= 1;
                    return Err(self.error_at(format!("unknown column type `{other}`")));
                }
            };
            columns.push((col, ty));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect_token(Token::RParen)?;
        let persist = if self.eat_keyword(Keyword::Persist) {
            self.expect_keyword(Keyword::To)?;
            match self.bump() {
                Some(Token::Str(path)) => Some(path),
                other => {
                    self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                    return Err(self.error_at("expected a quoted file path after PERSIST TO"));
                }
            }
        } else {
            None
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            persist,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let relation = self.ident("relation name")?;
        self.expect_keyword(Keyword::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect_token(Token::LParen)?;
            let mut values = vec![self.literal()?];
            while self.eat(&Token::Comma) {
                values.push(self.literal()?);
            }
            self.expect_token(Token::RParen)?;
            self.expect_keyword(Keyword::Valid)?;
            let valid = self.interval_literal()?;
            rows.push((values, valid));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert { relation, rows })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let relation = self.ident("relation name")?;
        let (conditions, valid_window) = self.where_clause()?;
        Ok(Statement::Delete {
            relation,
            conditions,
            valid_window,
        })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Update)?;
        let relation = self.ident("relation name")?;
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let column = self.ident("column name in assignment")?;
            self.expect_token(Token::Eq)?;
            let value = self.literal()?;
            assignments.push((column, value));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let (conditions, valid_window) = self.where_clause()?;
        Ok(Statement::Update {
            relation,
            assignments,
            conditions,
            valid_window,
        })
    }

    /// `SELECT TOP k BY agg(col) OVER [a, b) FROM rel [WHERE …] GROUP BY g`
    /// — rank groups by their windowed aggregate, keep the k best.
    fn top_k_after_select(&mut self, explain: bool, snapshot: bool) -> Result<Query> {
        if snapshot {
            return Err(self.error_at("SNAPSHOT does not combine with TOP-k ranking"));
        }
        self.expect_keyword(Keyword::Top)?;
        let k = self.int("ranking depth after TOP")?;
        if k < 1 {
            self.pos = self.pos.saturating_sub(1);
            return Err(self.error_at("TOP requires a depth of at least 1"));
        }
        self.expect_keyword(Keyword::By)?;
        let agg = self.agg_expr()?;
        self.expect_keyword(Keyword::Over)?;
        let window = self.over_window()?;
        let (relation, alias) = self.parse_from()?;
        let (conditions, valid_window) = self.where_clause()?;
        if !self.eat_keyword(Keyword::Group) {
            return Err(self.error_at("TOP-k queries rank groups: add GROUP BY <column>"));
        }
        self.expect_keyword(Keyword::By)?;
        let group_column = self.ident("grouping column")?;
        Ok(Query {
            explain,
            snapshot: false,
            aggregates: vec![agg],
            relation,
            alias,
            conditions,
            valid_window,
            group_column: Some(group_column),
            temporal_grouping: TemporalGrouping::Instant,
            window: Some(window),
            top_k: Some(k as usize),
        })
    }

    fn query_after_select(&mut self, explain: bool, snapshot: bool) -> Result<Query> {
        let mut aggregates = vec![self.agg_expr()?];
        while self.eat(&Token::Comma) {
            aggregates.push(self.agg_expr()?);
        }
        let window = if self.eat_keyword(Keyword::Over) {
            Some(self.over_window()?)
        } else {
            None
        };
        let (relation, alias) = self.parse_from()?;
        let (conditions, valid_window) = self.where_clause()?;

        let mut group_column = None;
        let mut temporal_grouping = TemporalGrouping::Instant;
        if self.eat_keyword(Keyword::Group) {
            self.expect_keyword(Keyword::By)?;
            loop {
                if self.eat_keyword(Keyword::Instant) {
                    temporal_grouping = TemporalGrouping::Instant;
                } else if self.eat_keyword(Keyword::Span) {
                    let count = self.int("span length")?;
                    let unit = match self.peek() {
                        Some(Token::Ident(word)) => TimeUnit::parse(word),
                        _ => None,
                    };
                    let len = match unit {
                        Some(unit) => {
                            self.pos += 1;
                            self.calendar.span(count, unit)?
                        }
                        None => count,
                    };
                    temporal_grouping = TemporalGrouping::Span(len);
                } else {
                    let col = self.ident("grouping column, INSTANT, or SPAN <n>")?;
                    if group_column.replace(col).is_some() {
                        return Err(self.error_at("at most one grouping column is supported"));
                    }
                }
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }

        if snapshot && !matches!(temporal_grouping, TemporalGrouping::Instant) {
            return Err(self.error_at("SNAPSHOT queries cannot use SPAN grouping"));
        }
        if window.is_some() {
            if snapshot {
                return Err(self.error_at("SNAPSHOT does not combine with OVER windows"));
            }
            if group_column.is_some() {
                return Err(self.error_at(
                    "OVER windows do not combine with GROUP BY; use SELECT TOP k BY … to rank groups",
                ));
            }
            if !matches!(temporal_grouping, TemporalGrouping::Instant) {
                return Err(self.error_at("OVER windows do not combine with SPAN grouping"));
            }
        }
        Ok(Query {
            explain,
            snapshot,
            aggregates,
            relation,
            alias,
            conditions,
            valid_window,
            group_column,
            temporal_grouping,
            window,
            top_k: None,
        })
    }

    fn agg_expr(&mut self) -> Result<AggExpr> {
        let name = self.ident("aggregate function name")?;
        let Some(kind) = AggKind::parse(&name) else {
            self.pos -= 1;
            return Err(self.error_at(format!("unknown aggregate function `{name}`")));
        };
        self.expect_token(Token::LParen)?;
        if self.eat_keyword(Keyword::Distinct) {
            if kind != AggKind::Count {
                self.pos -= 1;
                return Err(self.error_at(format!("DISTINCT is only valid in COUNT, not {name}")));
            }
            let column = self.ident("column name")?;
            self.expect_token(Token::RParen)?;
            return Ok(AggExpr {
                kind: AggKind::CountDistinct,
                column: Some(column),
            });
        }
        let expr = if self.eat(&Token::Star) {
            if kind != AggKind::Count {
                self.pos -= 1;
                return Err(self.error_at(format!("`*` is only valid in COUNT, not {name}")));
            }
            AggExpr {
                kind: AggKind::CountStar,
                column: None,
            }
        } else {
            let column = self.ident("column name")?;
            AggExpr {
                kind,
                column: Some(column),
            }
        };
        self.expect_token(Token::RParen)?;
        Ok(expr)
    }

    fn condition(&mut self) -> Result<Condition> {
        let column = self.ident("column name in condition")?;
        let op = match self.bump() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::NotEq) => CompareOp::NotEq,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::LtEq) => CompareOp::LtEq,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::GtEq) => CompareOp::GtEq,
            _ => {
                self.pos = self.pos.saturating_sub(1);
                return Err(self.error_at("expected comparison operator"));
            }
        };
        let value = self.literal()?;
        Ok(Condition { column, op, value })
    }

    fn literal(&mut self) -> Result<Value> {
        match self.bump() {
            Some(Token::Int(v)) => Ok(Value::Int(v)),
            Some(Token::Float(v)) => Ok(Value::Float(v)),
            Some(Token::Str(s)) => Ok(Value::from(s)),
            Some(Token::Keyword(Keyword::True)) => Ok(Value::Bool(true)),
            Some(Token::Keyword(Keyword::False)) => Ok(Value::Bool(false)),
            Some(Token::Keyword(Keyword::Null)) => Ok(Value::Null),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                Err(self.error_at("expected literal value"))
            }
        }
    }

    /// `[ start , end | FOREVER ]`
    fn interval_literal(&mut self) -> Result<Interval> {
        self.expect_token(Token::LBracket)?;
        let start = self.int("interval start")?;
        self.expect_token(Token::Comma)?;
        let end = if self.eat_keyword(Keyword::Forever) {
            Timestamp::FOREVER
        } else {
            Timestamp::new(self.int("interval end or FOREVER")?)
        };
        self.expect_token(Token::RBracket)?;
        Interval::new(start, end)
    }

    /// Window literal after `OVER`: `[ start , end )` is half-open (the end
    /// instant is excluded, as in the familiar SQL window notation) while
    /// `[ start , end ]` keeps the repo's closed-interval convention.
    /// `FOREVER` is unbounded either way.
    fn over_window(&mut self) -> Result<Interval> {
        self.expect_token(Token::LBracket)?;
        let start = self.int("window start")?;
        self.expect_token(Token::Comma)?;
        let end = if self.eat_keyword(Keyword::Forever) {
            if !self.eat(&Token::RBracket) && !self.eat(&Token::RParen) {
                return Err(self.error_at("expected `]` or `)` to close the window"));
            }
            Timestamp::FOREVER
        } else {
            let end = self.int("window end or FOREVER")?;
            match self.bump() {
                Some(Token::RBracket) => Timestamp::new(end),
                Some(Token::RParen) => {
                    if end <= start {
                        self.pos = self.pos.saturating_sub(1);
                        return Err(
                            self.error_at(format!("half-open window [{start}, {end}) is empty"))
                        );
                    }
                    Timestamp::new(end).prev()
                }
                other => {
                    self.pos = self.pos.saturating_sub(usize::from(other.is_some()));
                    return Err(self.error_at("expected `]` or `)` to close the window"));
                }
            }
        };
        Interval::new(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_query() {
        let q = parse("SELECT COUNT(Name) FROM Employed E").unwrap();
        assert_eq!(q.aggregates.len(), 1);
        assert_eq!(q.aggregates[0].kind, AggKind::Count);
        assert_eq!(q.aggregates[0].column.as_deref(), Some("Name"));
        assert_eq!(q.relation, "Employed");
        assert_eq!(q.alias.as_deref(), Some("E"));
        assert_eq!(q.temporal_grouping, TemporalGrouping::Instant);
        assert!(q.group_column.is_none());
    }

    #[test]
    fn parses_group_by_department() {
        let q = parse("SELECT AVG(Salary) FROM Employed GROUP BY Dept").unwrap();
        assert_eq!(q.group_column.as_deref(), Some("Dept"));
        assert_eq!(q.temporal_grouping, TemporalGrouping::Instant);
    }

    #[test]
    fn parses_span_grouping() {
        let q = parse("SELECT COUNT(*) FROM r GROUP BY SPAN 1000").unwrap();
        assert_eq!(q.temporal_grouping, TemporalGrouping::Span(1000));
        assert_eq!(q.aggregates[0].kind, AggKind::CountStar);
    }

    #[test]
    fn parses_group_by_column_and_span() {
        let q = parse("SELECT SUM(x) FROM r GROUP BY dept, SPAN 500").unwrap();
        assert_eq!(q.group_column.as_deref(), Some("dept"));
        assert_eq!(q.temporal_grouping, TemporalGrouping::Span(500));
    }

    #[test]
    fn parses_where_conditions_and_valid_window() {
        let q = parse(
            "SELECT MIN(salary), MAX(salary) FROM Employed \
             WHERE salary >= 36000 AND name <> 'Karen' AND VALID OVERLAPS [0, 100]",
        )
        .unwrap();
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.conditions.len(), 2);
        assert_eq!(q.conditions[0].op, CompareOp::GtEq);
        assert_eq!(q.valid_window, Some(Interval::at(0, 100)));
    }

    #[test]
    fn parses_forever_window() {
        let q = parse("SELECT COUNT(x) FROM r WHERE VALID OVERLAPS [18, FOREVER]").unwrap();
        assert_eq!(q.valid_window, Some(Interval::from_start(18)));
    }

    #[test]
    fn parses_over_windows_half_open_and_closed() {
        let q = parse("SELECT SUM(x) OVER [10, 20) FROM r").unwrap();
        assert_eq!(q.window, Some(Interval::at(10, 19)));
        assert!(q.top_k.is_none());
        let q = parse("SELECT COUNT(*), MAX(x) OVER [10, 20] FROM r").unwrap();
        assert_eq!(q.window, Some(Interval::at(10, 20)));
        assert_eq!(q.aggregates.len(), 2);
        let q = parse("EXPLAIN SELECT MIN(x) OVER [0, FOREVER) FROM r").unwrap();
        assert!(q.explain);
        assert_eq!(q.window, Some(Interval::TIMELINE));
    }

    #[test]
    fn parses_top_k_ranking_queries() {
        let q = parse("SELECT TOP 3 BY SUM(v) OVER [5, 30) FROM readings GROUP BY sensor").unwrap();
        assert_eq!(q.top_k, Some(3));
        assert_eq!(q.window, Some(Interval::at(5, 29)));
        assert_eq!(q.aggregates[0].kind, AggKind::Sum);
        assert_eq!(q.group_column.as_deref(), Some("sensor"));
        let q =
            parse("EXPLAIN SELECT TOP 1 BY COUNT(*) OVER [0, 100] FROM r WHERE v > 2 GROUP BY g")
                .unwrap();
        assert!(q.explain);
        assert_eq!(q.conditions.len(), 1);
    }

    #[test]
    fn rejects_malformed_window_queries() {
        for bad in [
            "SELECT SUM(x) OVER [10, 10) FROM r",
            "SELECT SUM(x) OVER [10, 20 FROM r",
            "SELECT SNAPSHOT SUM(x) OVER [0, 10] FROM r",
            "SELECT SUM(x) OVER [0, 10] FROM r GROUP BY g",
            "SELECT SUM(x) OVER [0, 10] FROM r GROUP BY SPAN 5",
            "SELECT TOP 0 BY SUM(x) OVER [0, 10] FROM r GROUP BY g",
            "SELECT TOP 2 BY SUM(x) OVER [0, 10] FROM r",
            "SELECT TOP 2 BY SUM(x) FROM r GROUP BY g",
            "SELECT SNAPSHOT TOP 2 BY SUM(x) OVER [0, 10] FROM r GROUP BY g",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn window_queries_round_trip_through_display() {
        for src in [
            "SELECT SUM(x) OVER [10, 19] FROM r",
            "SELECT TOP 3 BY SUM(v) OVER [5, 29] FROM readings GROUP BY sensor",
        ] {
            let q = parse(src).unwrap();
            assert_eq!(parse(&q.to_string()).unwrap(), q, "round-trip: {src}");
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT COUNT(x) FROM r;").is_ok());
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "COUNT(x) FROM r",
            "SELECT COUNT(x)",
            "SELECT COUNT x FROM r",
            "SELECT MEDIAN(x) FROM r",
            "SELECT SUM(*) FROM r",
            "SELECT COUNT(x) FROM r WHERE",
            "SELECT COUNT(x) FROM r WHERE x >",
            "SELECT COUNT(x) FROM r GROUP BY",
            "SELECT COUNT(x) FROM r GROUP BY a, b",
            "SELECT COUNT(x) FROM r extra tokens here",
            "SELECT COUNT(x) FROM r WHERE VALID OVERLAPS [5, 3]",
            "SELECT COUNT(x) FROM r GROUP BY SPAN",
        ] {
            assert!(parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn error_positions_point_at_the_problem() {
        let err = parse("SELECT COUNT(x) FROM r GROUP BY SPAN oops").unwrap_err();
        match err {
            TempAggError::Sql { column, .. } => assert!(column >= 38, "column = {column}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_with_conditions() {
        let s = parse_statement("DELETE FROM r WHERE x > 3 AND VALID OVERLAPS [0, 50]").unwrap();
        match s {
            Statement::Delete {
                relation,
                conditions,
                valid_window,
            } => {
                assert_eq!(relation, "r");
                assert_eq!(conditions.len(), 1);
                assert_eq!(conditions[0].op, CompareOp::Gt);
                assert_eq!(valid_window, Some(Interval::at(0, 50)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_update_with_assignments() {
        let s = parse_statement("UPDATE r SET salary = 40000, name = 'Kim' WHERE id = 7").unwrap();
        match s {
            Statement::Update {
                relation,
                assignments,
                conditions,
                valid_window,
            } => {
                assert_eq!(relation, "r");
                assert_eq!(assignments.len(), 2);
                assert_eq!(assignments[0], ("salary".into(), Value::Int(40000)));
                assert_eq!(assignments[1], ("name".into(), Value::Str("Kim".into())));
                assert_eq!(conditions.len(), 1);
                assert!(valid_window.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_dml() {
        for bad in [
            "DELETE r",
            "DELETE FROM",
            "UPDATE r",
            "UPDATE r SET",
            "UPDATE r SET x",
            "UPDATE r SET x = ",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parses_interval_joins() {
        let s = parse_statement("SELECT * FROM a x JOIN b y ON DURING").unwrap();
        match s {
            Statement::Join(j) => {
                assert_eq!(j.left, "a");
                assert_eq!(j.left_alias.as_deref(), Some("x"));
                assert_eq!(j.right, "b");
                assert_eq!(j.right_alias.as_deref(), Some("y"));
                assert_eq!(j.predicate, JoinPredicate::During);
                assert!(!j.explain);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_statement("EXPLAIN SELECT * FROM a JOIN b ON OVERLAPS").unwrap(),
            Statement::Join(j) if j.explain && j.predicate == JoinPredicate::Overlaps
        ));
        assert!(matches!(
            parse_statement("select * from a join b on meets;").unwrap(),
            Statement::Join(j) if j.predicate == JoinPredicate::Meets
        ));
    }

    #[test]
    fn rejects_malformed_joins() {
        for bad in [
            "SELECT * FROM a JOIN",
            "SELECT * FROM a JOIN b",
            "SELECT * FROM a JOIN b ON",
            "SELECT * FROM a JOIN b ON BEFORE",
            "SELECT x FROM a JOIN b ON OVERLAPS",
            "SELECT SNAPSHOT * FROM a JOIN b ON OVERLAPS",
            "SELECT * FROM a JOIN b ON OVERLAPS WHERE x = 1",
        ] {
            assert!(parse_statement(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn count_star_vs_count_column() {
        let star = parse("SELECT COUNT(*) FROM r").unwrap();
        assert_eq!(star.aggregates[0].kind, AggKind::CountStar);
        let col = parse("SELECT COUNT(c) FROM r").unwrap();
        assert_eq!(col.aggregates[0].kind, AggKind::Count);
    }
}
