//! The formula language: lexer, recursive-descent parser, evaluator.
//!
//! Grammar (lowest to highest precedence):
//!
//! ```text
//! expr    := cmp
//! cmp     := add (("<" | "<=" | ">" | ">=" | "==" | "!=") add)?
//! add     := mul (("+" | "-") mul)*
//! mul     := unary (("*" | "/") unary)*
//! unary   := "-" unary | power
//! power   := atom ("^" unary)?            (right-associative)
//! atom    := number | ident ("(" args ")")? | "(" expr ")"
//! ident   := [A-Za-z_][A-Za-z0-9_.]*      (dots allow namespacing)
//! ```
//!
//! Comparisons yield `1.0` / `0.0`, so `if(cond, a, b)` composes naturally.

use std::collections::BTreeSet;
use std::fmt;

use crate::SheetError;

/// A parsed formula expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A numeric literal.
    Number(f64),
    /// A reference to another cell.
    Cell(String),
    /// A unary negation.
    Neg(Box<Expr>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A function call.
    Call {
        /// The function.
        func: Func,
        /// Arguments in order.
        args: Vec<Expr>,
    },
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation.
    Pow,
    /// Less-than comparison (yields 0/1).
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
}

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// Minimum of ≥ 1 arguments.
    Min,
    /// Maximum of ≥ 1 arguments.
    Max,
    /// Sum of ≥ 1 arguments.
    Sum,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Base-2 exponential (`exp2(x) = 2^x`, the leakage doubling form).
    Exp2,
    /// Conditional: `if(cond, then, else)`.
    If,
    /// Clamp: `clamp(x, lo, hi)`.
    Clamp,
}

impl Func {
    fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "min" => Self::Min,
            "max" => Self::Max,
            "sum" => Self::Sum,
            "abs" => Self::Abs,
            "sqrt" => Self::Sqrt,
            "exp" => Self::Exp,
            "ln" => Self::Ln,
            "exp2" => Self::Exp2,
            "if" => Self::If,
            "clamp" => Self::Clamp,
            _ => return None,
        })
    }

    fn arity_ok(self, n: usize) -> bool {
        match self {
            Self::Min | Self::Max | Self::Sum => n >= 1,
            Self::Abs | Self::Sqrt | Self::Exp | Self::Ln | Self::Exp2 => n == 1,
            Self::If | Self::Clamp => n == 3,
        }
    }
}

impl Expr {
    /// Collects every cell name referenced by the expression.
    #[must_use]
    pub fn dependencies(&self) -> BTreeSet<String> {
        let mut deps = BTreeSet::new();
        self.collect_deps(&mut deps);
        deps
    }

    fn collect_deps(&self, deps: &mut BTreeSet<String>) {
        match self {
            Self::Number(_) => {}
            Self::Cell(name) => {
                deps.insert(name.clone());
            }
            Self::Neg(inner) => inner.collect_deps(deps),
            Self::Binary { lhs, rhs, .. } => {
                lhs.collect_deps(deps);
                rhs.collect_deps(deps);
            }
            Self::Call { args, .. } => {
                for arg in args {
                    arg.collect_deps(deps);
                }
            }
        }
    }

    /// Evaluates the expression with `lookup` resolving cell references.
    ///
    /// The sheet engine never calls this: it runs compiled programs (see
    /// [`crate::compile`]). This tree walk is the reference semantics the
    /// compiled VM is tested against, bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates lookup failures (unknown cells).
    pub fn eval<F>(&self, lookup: &F) -> Result<f64, SheetError>
    where
        F: Fn(&str) -> Result<f64, SheetError>,
    {
        Ok(match self {
            Self::Number(n) => *n,
            Self::Cell(name) => lookup(name)?,
            Self::Neg(inner) => -inner.eval(lookup)?,
            Self::Binary { op, lhs, rhs } => {
                let a = lhs.eval(lookup)?;
                let b = rhs.eval(lookup)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Pow => a.powf(b),
                    BinOp::Lt => f64::from(a < b),
                    BinOp::Le => f64::from(a <= b),
                    BinOp::Gt => f64::from(a > b),
                    BinOp::Ge => f64::from(a >= b),
                    BinOp::Eq => f64::from(a == b),
                    BinOp::Ne => f64::from(a != b),
                }
            }
            Self::Call { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                // `if` is lazy in its branches to allow guarded division.
                if *func == Func::If {
                    let cond = args[0].eval(lookup)?;
                    return if cond != 0.0 {
                        args[1].eval(lookup)
                    } else {
                        args[2].eval(lookup)
                    };
                }
                for arg in args {
                    values.push(arg.eval(lookup)?);
                }
                match func {
                    Func::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
                    Func::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    Func::Sum => values.iter().sum(),
                    Func::Abs => values[0].abs(),
                    Func::Sqrt => values[0].sqrt(),
                    Func::Exp => values[0].exp(),
                    Func::Ln => values[0].ln(),
                    Func::Exp2 => values[0].exp2(),
                    Func::Clamp => {
                        values[0].clamp(values[1].min(values[2]), values[2].max(values[1]))
                    }
                    Func::If => unreachable!("handled above"),
                }
            }
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Number(n) => write!(f, "{n}"),
            Self::Cell(name) => f.write_str(name),
            Self::Neg(inner) => write!(f, "-({inner})"),
            Self::Binary { op, lhs, rhs } => {
                let sym = match op {
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Pow => "^",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                };
                write!(f, "({lhs} {sym} {rhs})")
            }
            Self::Call { func, args } => {
                let name = match func {
                    Func::Min => "min",
                    Func::Max => "max",
                    Func::Sum => "sum",
                    Func::Abs => "abs",
                    Func::Sqrt => "sqrt",
                    Func::Exp => "exp",
                    Func::Ln => "ln",
                    Func::Exp2 => "exp2",
                    Func::If => "if",
                    Func::Clamp => "clamp",
                };
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    LParen,
    RParen,
    Comma,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    Ne,
}

fn lex(src: &str) -> Result<Vec<Token>, SheetError> {
    let mut tokens = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '^' => {
                tokens.push(Token::Caret);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Le);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ge);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '=' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::EqEq);
                    i += 2;
                } else {
                    return Err(SheetError::parse(src, "single `=` (use `==`)"));
                }
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(SheetError::parse(src, "stray `!`"));
                }
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, '0'..='9' | '.' | 'e' | 'E' | '+' | '-')
                {
                    // Only consume +/- directly after an exponent marker.
                    if matches!(bytes[i] as char, '+' | '-')
                        && !matches!(bytes[i - 1] as char, 'e' | 'E')
                    {
                        break;
                    }
                    i += 1;
                }
                let text = &src[start..i];
                let value: f64 = text
                    .parse()
                    .map_err(|_| SheetError::parse(src, format!("bad number `{text}`")))?;
                tokens.push(Token::Number(value));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i] as char, 'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | '.')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(src[start..i].to_owned()));
            }
            other => {
                return Err(SheetError::parse(src, format!("unexpected `{other}`")));
            }
        }
    }
    Ok(tokens)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<(), SheetError> {
        match self.next() {
            Some(ref t) if t == expected => Ok(()),
            _ => Err(SheetError::parse(self.src, format!("expected {what}"))),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, SheetError> {
        self.parse_cmp()
    }

    fn parse_cmp(&mut self) -> Result<Expr, SheetError> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::Lt) => BinOp::Lt,
            Some(Token::Le) => BinOp::Le,
            Some(Token::Gt) => BinOp::Gt,
            Some(Token::Ge) => BinOp::Ge,
            Some(Token::EqEq) => BinOp::Eq,
            Some(Token::Ne) => BinOp::Ne,
            _ => return Ok(lhs),
        };
        self.next();
        let rhs = self.parse_add()?;
        Ok(Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        })
    }

    fn parse_add(&mut self) -> Result<Expr, SheetError> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.next();
            let rhs = self.parse_mul()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr, SheetError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.next();
            let rhs = self.parse_unary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr, SheetError> {
        if matches!(self.peek(), Some(Token::Minus)) {
            self.next();
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        self.parse_power()
    }

    fn parse_power(&mut self) -> Result<Expr, SheetError> {
        let base = self.parse_atom()?;
        if matches!(self.peek(), Some(Token::Caret)) {
            self.next();
            let exp = self.parse_unary()?; // right-associative
            return Ok(Expr::Binary {
                op: BinOp::Pow,
                lhs: Box::new(base),
                rhs: Box::new(exp),
            });
        }
        Ok(base)
    }

    fn parse_atom(&mut self) -> Result<Expr, SheetError> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen, "closing `)`")?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => {
                if matches!(self.peek(), Some(Token::LParen)) {
                    self.next();
                    let func = Func::from_name(&name).ok_or_else(|| {
                        SheetError::parse(self.src, format!("unknown function `{name}`"))
                    })?;
                    let mut args = Vec::new();
                    if !matches!(self.peek(), Some(Token::RParen)) {
                        loop {
                            args.push(self.parse_expr()?);
                            match self.peek() {
                                Some(Token::Comma) => {
                                    self.next();
                                }
                                _ => break,
                            }
                        }
                    }
                    self.expect(&Token::RParen, "closing `)` after arguments")?;
                    if !func.arity_ok(args.len()) {
                        return Err(SheetError::parse(
                            self.src,
                            format!("wrong argument count for `{name}`"),
                        ));
                    }
                    Ok(Expr::Call { func, args })
                } else {
                    Ok(Expr::Cell(name))
                }
            }
            _ => Err(SheetError::parse(self.src, "expected a value")),
        }
    }
}

/// Parses a formula into an expression AST.
///
/// # Errors
///
/// Returns [`SheetError::Parse`] on any lexical or syntactic error.
///
/// ```
/// let expr = monityre_sheet::parse("2 * (a.b + 1)").unwrap();
/// assert_eq!(expr.dependencies().len(), 1);
/// ```
pub fn parse(src: &str) -> Result<Expr, SheetError> {
    let tokens = lex(src)?;
    if tokens.is_empty() {
        return Err(SheetError::parse(src, "empty formula"));
    }
    let mut parser = Parser {
        src,
        tokens,
        pos: 0,
    };
    let expr = parser.parse_expr()?;
    if parser.pos != parser.tokens.len() {
        return Err(SheetError::parse(src, "trailing input"));
    }
    Ok(expr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval_closed(src: &str) -> f64 {
        parse(src)
            .unwrap()
            .eval(&|name: &str| Err(SheetError::unknown_cell(name)))
            .unwrap()
    }

    fn eval_with(src: &str, bind: &[(&str, f64)]) -> f64 {
        parse(src)
            .unwrap()
            .eval(&|name: &str| {
                bind.iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .ok_or_else(|| SheetError::unknown_cell(name))
            })
            .unwrap()
    }

    #[test]
    fn precedence() {
        assert_eq!(eval_closed("2 + 3 * 4"), 14.0);
        assert_eq!(eval_closed("(2 + 3) * 4"), 20.0);
        assert_eq!(eval_closed("2 ^ 3 ^ 2"), 512.0); // right-associative
        assert_eq!(eval_closed("-2 ^ 2"), -4.0); // `^` binds tighter than unary minus
    }

    #[test]
    fn unary_minus() {
        assert_eq!(eval_closed("-5 + 3"), -2.0);
        assert_eq!(eval_closed("--5"), 5.0);
        assert_eq!(eval_closed("2 * -3"), -6.0);
    }

    #[test]
    fn scientific_numbers() {
        assert_eq!(eval_closed("1.5e-3 * 1000"), 1.5);
        assert_eq!(eval_closed("2E2"), 200.0);
    }

    #[test]
    fn cell_references() {
        let v = eval_with(
            "dsp.active_uw * duty",
            &[("dsp.active_uw", 600.0), ("duty", 0.05)],
        );
        assert_eq!(v, 30.0);
    }

    #[test]
    fn functions() {
        assert_eq!(eval_closed("min(3, 1, 2)"), 1.0);
        assert_eq!(eval_closed("max(3, 1, 2)"), 3.0);
        assert_eq!(eval_closed("sum(1, 2, 3, 4)"), 10.0);
        assert_eq!(eval_closed("abs(-7)"), 7.0);
        assert_eq!(eval_closed("sqrt(16)"), 4.0);
        assert!((eval_closed("exp(1)") - std::f64::consts::E).abs() < 1e-12);
        assert!((eval_closed("ln(exp(2))") - 2.0).abs() < 1e-12);
        assert_eq!(eval_closed("exp2(3)"), 8.0);
        assert_eq!(eval_closed("clamp(5, 0, 2)"), 2.0);
    }

    #[test]
    fn comparisons_and_if() {
        assert_eq!(eval_closed("3 > 2"), 1.0);
        assert_eq!(eval_closed("3 <= 2"), 0.0);
        assert_eq!(eval_closed("if(2 > 1, 10, 20)"), 10.0);
        assert_eq!(eval_closed("if(2 < 1, 10, 20)"), 20.0);
        assert_eq!(eval_closed("1 == 1"), 1.0);
        assert_eq!(eval_closed("1 != 1"), 0.0);
    }

    #[test]
    fn if_is_lazy() {
        // The false branch divides by zero but must not be evaluated…
        // (division yields inf, not an error, but laziness matters for
        // unknown-cell guards).
        let v = eval_with("if(flag, a, b)", &[("flag", 1.0), ("a", 5.0)]);
        assert_eq!(v, 5.0);
    }

    #[test]
    fn dependencies_collected() {
        let expr = parse("min(a.x, b.y) + a.x * 2").unwrap();
        let deps: Vec<_> = expr.dependencies().into_iter().collect();
        assert_eq!(deps, vec!["a.x".to_owned(), "b.y".to_owned()]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("foo(1)").is_err()); // unknown function
        assert!(parse("min()").is_err()); // arity
        assert!(parse("if(1, 2)").is_err()); // arity
        assert!(parse("(1").is_err());
        assert!(parse("1 2").is_err()); // trailing input
        assert!(parse("a = b").is_err()); // single '='
        assert!(parse("#").is_err());
    }

    #[test]
    fn unknown_cell_propagates() {
        let expr = parse("ghost + 1").unwrap();
        let err = expr
            .eval(&|name: &str| Err(SheetError::unknown_cell(name)))
            .unwrap_err();
        assert!(matches!(err, SheetError::UnknownCell { .. }));
    }

    #[test]
    fn display_round_trips_semantics() {
        let expr = parse("2 + 3 * max(a, 4)").unwrap();
        let printed = expr.to_string();
        let reparsed = parse(&printed).unwrap();
        let v1 = expr.eval(&|_: &str| Ok(10.0)).unwrap();
        let v2 = reparsed.eval(&|_: &str| Ok(10.0)).unwrap();
        assert_eq!(v1, v2);
    }
}
