//! SQL tokenizer and parser for the supported subset.
//!
//! Supported statements: `CREATE TABLE`, `INSERT`, `SELECT` (with `WHERE`,
//! `ORDER BY`, `LIMIT`, and the aggregates `COUNT/SUM/AVG/MIN/MAX`),
//! `UPDATE`, `DELETE`, and transaction control
//! (`BEGIN`/`START TRANSACTION`, `COMMIT`, `ROLLBACK`) — everything the
//! paper's state-isolation machinery issues against the database (§III-C).

use crate::value::{SqlType, SqlValue};
use std::fmt;

/// Parse error with a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlParseError(pub String);

impl fmt::Display for SqlParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for SqlParseError {}

/// Comparison operator in a `WHERE` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    Le,
    Gt,
    Ge,
    Like,
}

/// Boolean filter expression.
#[derive(Debug, Clone, PartialEq)]
pub enum WhereExpr {
    Cmp {
        column: String,
        op: CmpOp,
        value: SqlValue,
    },
    And(Box<WhereExpr>, Box<WhereExpr>),
    Or(Box<WhereExpr>, Box<WhereExpr>),
    IsNull {
        column: String,
        negated: bool,
    },
}

/// Projection item of a `SELECT`.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Star,
    Column(String),
    Count,
    Sum(String),
    Avg(String),
    Min(String),
    Max(String),
}

/// Column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub ty: SqlType,
    pub primary_key: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
        if_not_exists: bool,
    },
    Insert {
        table: String,
        columns: Vec<String>,
        rows: Vec<Vec<SqlValue>>,
    },
    Select {
        items: Vec<SelectItem>,
        table: String,
        where_expr: Option<WhereExpr>,
        order_by: Option<(String, bool)>, // (column, descending)
        limit: Option<usize>,
    },
    Update {
        table: String,
        sets: Vec<(String, SqlValue)>,
        where_expr: Option<WhereExpr>,
    },
    Delete {
        table: String,
        where_expr: Option<WhereExpr>,
    },
    Begin,
    Commit,
    Rollback,
    DropTable {
        name: String,
    },
}

impl Statement {
    /// Whether this statement can modify table contents.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }
                | Statement::CreateTable { .. }
                | Statement::DropTable { .. }
        )
    }

    /// The columns a `SELECT` references — its projection, its `WHERE`
    /// and its `ORDER BY` — by name, repeats included. `None` when it
    /// projects `*` (every column) and for any other statement. `COUNT(*)`
    /// references no column.
    #[must_use]
    pub fn referenced_columns(&self) -> Option<Vec<&str>> {
        let Statement::Select {
            items,
            where_expr,
            order_by,
            ..
        } = self
        else {
            return None;
        };
        let mut names = Vec::new();
        for item in items {
            match item {
                SelectItem::Star => return None,
                SelectItem::Count => {}
                SelectItem::Column(c)
                | SelectItem::Sum(c)
                | SelectItem::Avg(c)
                | SelectItem::Min(c)
                | SelectItem::Max(c) => names.push(c.as_str()),
            }
        }
        if let Some(e) = where_expr {
            e.columns(&mut names);
        }
        if let Some((c, _)) = order_by {
            names.push(c.as_str());
        }
        Some(names)
    }
}

impl WhereExpr {
    /// Push every column the expression names onto `out`.
    fn columns<'s>(&'s self, out: &mut Vec<&'s str>) {
        match self {
            WhereExpr::Cmp { column, .. } | WhereExpr::IsNull { column, .. } => out.push(column),
            WhereExpr::And(a, b) | WhereExpr::Or(a, b) => {
                a.columns(out);
                b.columns(out);
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
    Num(String),
    Blob(Vec<u8>),
    Punct(char),
    Op(String),
}

fn tokenize(sql: &str) -> Result<Vec<Tok>, SqlParseError> {
    let chars: Vec<char> = sql.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '\'' {
            i += 1;
            let mut s = String::new();
            loop {
                if i >= chars.len() {
                    return Err(SqlParseError("unterminated string".into()));
                }
                if chars[i] == '\'' {
                    if i + 1 < chars.len() && chars[i + 1] == '\'' {
                        s.push('\'');
                        i += 2;
                    } else {
                        i += 1;
                        break;
                    }
                } else {
                    s.push(chars[i]);
                    i += 1;
                }
            }
            out.push(Tok::Str(s));
        } else if (c == 'X' || c == 'x') && i + 1 < chars.len() && chars[i + 1] == '\'' {
            i += 2;
            let mut hexs = String::new();
            while i < chars.len() && chars[i] != '\'' {
                hexs.push(chars[i]);
                i += 1;
            }
            if i >= chars.len() {
                return Err(SqlParseError("unterminated blob literal".into()));
            }
            i += 1;
            if !hexs.len().is_multiple_of(2) {
                return Err(SqlParseError("odd-length blob literal".into()));
            }
            let bytes: Result<Vec<u8>, _> = (0..hexs.len())
                .step_by(2)
                .map(|j| u8::from_str_radix(&hexs[j..j + 2], 16))
                .collect();
            out.push(Tok::Blob(
                bytes.map_err(|_| SqlParseError("invalid blob literal".into()))?,
            ));
        } else if c.is_ascii_digit()
            || (c == '-' && i + 1 < chars.len() && chars[i + 1].is_ascii_digit())
        {
            let start = i;
            i += 1;
            while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                i += 1;
            }
            out.push(Tok::Num(chars[start..i].iter().collect()));
        } else if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Tok::Word(chars[start..i].iter().collect()));
        } else if matches!(c, '(' | ')' | ',' | '*' | ';') {
            out.push(Tok::Punct(c));
            i += 1;
        } else if matches!(c, '=' | '<' | '>' | '!') {
            let mut op = String::from(c);
            if i + 1 < chars.len() && (chars[i + 1] == '=' || (c == '<' && chars[i + 1] == '>')) {
                op.push(chars[i + 1]);
                i += 1;
            }
            i += 1;
            out.push(Tok::Op(op));
        } else {
            return Err(SqlParseError(format!("unexpected character '{c}'")));
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn kw(&mut self, word: &str) -> bool {
        if let Some(Tok::Word(w)) = self.peek() {
            if w.eq_ignore_ascii_case(word) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, word: &str) -> Result<(), SqlParseError> {
        if self.kw(word) {
            Ok(())
        } else {
            Err(SqlParseError(format!(
                "expected keyword {word}, found {:?}",
                self.peek()
            )))
        }
    }

    fn punct(&mut self, c: char) -> bool {
        if let Some(Tok::Punct(p)) = self.peek() {
            if *p == c {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_punct(&mut self, c: char) -> Result<(), SqlParseError> {
        if self.punct(c) {
            Ok(())
        } else {
            Err(SqlParseError(format!(
                "expected '{c}', found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String, SqlParseError> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(SqlParseError(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn value(&mut self) -> Result<SqlValue, SqlParseError> {
        match self.next() {
            Some(Tok::Str(s)) => Ok(SqlValue::Text(s)),
            Some(Tok::Blob(b)) => Ok(SqlValue::Blob(b)),
            Some(Tok::Num(n)) => {
                if n.contains('.') {
                    n.parse::<f64>()
                        .map(SqlValue::Real)
                        .map_err(|_| SqlParseError(format!("bad number {n}")))
                } else {
                    n.parse::<i64>()
                        .map(SqlValue::Int)
                        .map_err(|_| SqlParseError(format!("bad number {n}")))
                }
            }
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("null") => Ok(SqlValue::Null),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("true") => Ok(SqlValue::Int(1)),
            Some(Tok::Word(w)) if w.eq_ignore_ascii_case("false") => Ok(SqlValue::Int(0)),
            other => Err(SqlParseError(format!("expected value, found {other:?}"))),
        }
    }

    fn where_expr(&mut self) -> Result<WhereExpr, SqlParseError> {
        let mut lhs = self.where_term()?;
        while self.kw("or") {
            let rhs = self.where_term()?;
            lhs = WhereExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn where_term(&mut self) -> Result<WhereExpr, SqlParseError> {
        let mut lhs = self.where_atom()?;
        while self.kw("and") {
            let rhs = self.where_atom()?;
            lhs = WhereExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn where_atom(&mut self) -> Result<WhereExpr, SqlParseError> {
        if self.punct('(') {
            let e = self.where_expr()?;
            self.expect_punct(')')?;
            return Ok(e);
        }
        let column = self.ident()?;
        if self.kw("is") {
            let negated = self.kw("not");
            self.expect_kw("null")?;
            return Ok(WhereExpr::IsNull { column, negated });
        }
        if self.kw("like") {
            let value = self.value()?;
            return Ok(WhereExpr::Cmp {
                column,
                op: CmpOp::Like,
                value,
            });
        }
        let op = match self.next() {
            Some(Tok::Op(o)) => match o.as_str() {
                "=" | "==" => CmpOp::Eq,
                "!=" | "<>" => CmpOp::NotEq,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                other => return Err(SqlParseError(format!("unknown operator {other}"))),
            },
            other => return Err(SqlParseError(format!("expected operator, found {other:?}"))),
        };
        let value = self.value()?;
        Ok(WhereExpr::Cmp { column, op, value })
    }
}

/// Parse one SQL statement.
///
/// # Errors
///
/// Returns [`SqlParseError`] for unsupported or malformed SQL.
pub fn parse_sql(sql: &str) -> Result<Statement, SqlParseError> {
    let toks = tokenize(sql)?;
    let mut p = P { toks, pos: 0 };
    let stmt = if p.kw("create") {
        p.expect_kw("table")?;
        let if_not_exists = if p.kw("if") {
            p.expect_kw("not")?;
            p.expect_kw("exists")?;
            true
        } else {
            false
        };
        let name = p.ident()?;
        p.expect_punct('(')?;
        let mut columns = Vec::new();
        loop {
            let col = p.ident()?;
            let ty_word = p.ident()?;
            let ty = match ty_word.to_ascii_lowercase().as_str() {
                "int" | "integer" => SqlType::Int,
                "real" | "float" | "double" => SqlType::Real,
                "text" | "varchar" | "string" => SqlType::Text,
                "blob" => SqlType::Blob,
                other => return Err(SqlParseError(format!("unknown type {other}"))),
            };
            let mut primary_key = false;
            if p.kw("primary") {
                p.expect_kw("key")?;
                primary_key = true;
            }
            columns.push(ColumnDef {
                name: col,
                ty,
                primary_key,
            });
            if !p.punct(',') {
                break;
            }
        }
        p.expect_punct(')')?;
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        }
    } else if p.kw("insert") {
        p.expect_kw("into")?;
        let table = p.ident()?;
        let mut columns = Vec::new();
        if p.punct('(') {
            loop {
                columns.push(p.ident()?);
                if !p.punct(',') {
                    break;
                }
            }
            p.expect_punct(')')?;
        }
        p.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            p.expect_punct('(')?;
            let mut row = Vec::new();
            loop {
                row.push(p.value()?);
                if !p.punct(',') {
                    break;
                }
            }
            p.expect_punct(')')?;
            rows.push(row);
            if !p.punct(',') {
                break;
            }
        }
        Statement::Insert {
            table,
            columns,
            rows,
        }
    } else if p.kw("select") {
        let mut items = Vec::new();
        loop {
            if p.punct('*') {
                items.push(SelectItem::Star);
            } else {
                let word = p.ident()?;
                let lower = word.to_ascii_lowercase();
                let agg = matches!(lower.as_str(), "count" | "sum" | "avg" | "min" | "max")
                    && p.punct('(');
                if agg {
                    let item = if lower == "count" {
                        p.expect_punct('*')?;
                        SelectItem::Count
                    } else {
                        let col = p.ident()?;
                        match lower.as_str() {
                            "sum" => SelectItem::Sum(col),
                            "avg" => SelectItem::Avg(col),
                            "min" => SelectItem::Min(col),
                            "max" => SelectItem::Max(col),
                            _ => unreachable!(),
                        }
                    };
                    p.expect_punct(')')?;
                    items.push(item);
                } else {
                    items.push(SelectItem::Column(word));
                }
            }
            if !p.punct(',') {
                break;
            }
        }
        p.expect_kw("from")?;
        let table = p.ident()?;
        let where_expr = if p.kw("where") {
            Some(p.where_expr()?)
        } else {
            None
        };
        let order_by = if p.kw("order") {
            p.expect_kw("by")?;
            let col = p.ident()?;
            let desc = if p.kw("desc") {
                true
            } else {
                let _ = p.kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if p.kw("limit") {
            match p.next() {
                Some(Tok::Num(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| SqlParseError(format!("bad limit {n}")))?,
                ),
                other => {
                    return Err(SqlParseError(format!(
                        "expected limit count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Statement::Select {
            items,
            table,
            where_expr,
            order_by,
            limit,
        }
    } else if p.kw("update") {
        let table = p.ident()?;
        p.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = p.ident()?;
            match p.next() {
                Some(Tok::Op(o)) if o == "=" => {}
                other => return Err(SqlParseError(format!("expected '=', found {other:?}"))),
            }
            let v = p.value()?;
            sets.push((col, v));
            if !p.punct(',') {
                break;
            }
        }
        let where_expr = if p.kw("where") {
            Some(p.where_expr()?)
        } else {
            None
        };
        Statement::Update {
            table,
            sets,
            where_expr,
        }
    } else if p.kw("delete") {
        p.expect_kw("from")?;
        let table = p.ident()?;
        let where_expr = if p.kw("where") {
            Some(p.where_expr()?)
        } else {
            None
        };
        Statement::Delete { table, where_expr }
    } else if p.kw("begin") {
        let _ = p.kw("transaction");
        Statement::Begin
    } else if p.kw("start") {
        p.expect_kw("transaction")?;
        Statement::Begin
    } else if p.kw("commit") {
        Statement::Commit
    } else if p.kw("rollback") {
        Statement::Rollback
    } else if p.kw("drop") {
        p.expect_kw("table")?;
        let name = p.ident()?;
        Statement::DropTable { name }
    } else {
        return Err(SqlParseError(format!(
            "unsupported statement starting with {:?}",
            p.peek()
        )));
    };
    let _ = p.punct(';');
    if p.peek().is_some() {
        return Err(SqlParseError(format!(
            "trailing tokens after statement: {:?}",
            p.peek()
        )));
    }
    Ok(stmt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table() {
        let s = parse_sql(
            "CREATE TABLE books (id INT PRIMARY KEY, title TEXT, price REAL, cover BLOB)",
        )
        .unwrap();
        match s {
            Statement::CreateTable { name, columns, .. } => {
                assert_eq!(name, "books");
                assert_eq!(columns.len(), 4);
                assert!(columns[0].primary_key);
                assert_eq!(columns[2].ty, SqlType::Real);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        match s {
            Statement::Insert { columns, rows, .. } => {
                assert_eq!(columns, vec!["a", "b"]);
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1][1], SqlValue::Text("y".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_select_with_everything() {
        let s = parse_sql(
            "SELECT id, title FROM books WHERE price >= 10.5 AND (stock > 0 OR title LIKE 'Du%') ORDER BY price DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select {
                items,
                where_expr,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(items.len(), 2);
                assert!(where_expr.is_some());
                assert_eq!(order_by, Some(("price".to_string(), true)));
                assert_eq!(limit, Some(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_aggregates() {
        let s = parse_sql("SELECT COUNT(*), AVG(price) FROM books").unwrap();
        match s {
            Statement::Select { items, .. } => {
                assert_eq!(items[0], SelectItem::Count);
                assert_eq!(items[1], SelectItem::Avg("price".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_update_delete() {
        assert!(matches!(
            parse_sql("UPDATE t SET a = 1, b = 'z' WHERE id = 3").unwrap(),
            Statement::Update { .. }
        ));
        assert!(matches!(
            parse_sql("DELETE FROM t WHERE id = 3").unwrap(),
            Statement::Delete { .. }
        ));
    }

    #[test]
    fn parses_transactions() {
        assert_eq!(parse_sql("START TRANSACTION").unwrap(), Statement::Begin);
        assert_eq!(parse_sql("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_sql("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_sql("ROLLBACK").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parses_blob_literal() {
        let s = parse_sql("INSERT INTO t VALUES (X'0aff')").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], SqlValue::Blob(vec![0x0a, 0xff]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn escaped_quotes_in_strings() {
        let s = parse_sql("INSERT INTO t VALUES ('it''s')").unwrap();
        match s {
            Statement::Insert { rows, .. } => {
                assert_eq!(rows[0][0], SqlValue::Text("it's".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn is_null_predicate() {
        let s = parse_sql("SELECT * FROM t WHERE note IS NOT NULL").unwrap();
        match s {
            Statement::Select { where_expr, .. } => {
                assert_eq!(
                    where_expr,
                    Some(WhereExpr::IsNull {
                        column: "note".into(),
                        negated: true
                    })
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_sql("EXPLAIN SELECT 1").is_err());
        assert!(parse_sql("SELECT FROM").is_err());
        assert!(parse_sql("INSERT INTO t VALUES (1) garbage").is_err());
    }

    #[test]
    fn write_classification() {
        assert!(parse_sql("INSERT INTO t VALUES (1)").unwrap().is_write());
        assert!(!parse_sql("SELECT * FROM t").unwrap().is_write());
        assert!(!parse_sql("BEGIN").unwrap().is_write());
    }
}
