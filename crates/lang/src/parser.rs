//! Recursive-descent parser for MiniC.

use crate::ast::*;
use crate::token::{err, lex, LangError, Spanned, Tok};

/// The deepest nesting a program may have: statements inside statements,
/// operands inside expressions, parentheses included, counted from 1 for a
/// function's top-level statements. Parsing, lowering and dropping the
/// tree each recurse once per level, so a deeper program is refused here
/// instead of overflowing the stack. 256 is also clang's default bracket
/// depth; at it a release build needs under 512 KB of stack.
pub const MAX_DEPTH: usize = 256;

/// Parse a translation unit.
pub fn parse(src: &str) -> Result<Program, LangError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// The nesting level of the node being parsed: the parent's level
    /// before a node starts, its deepest node's level once an expression is
    /// parsed. A statement leaves it where it found it.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: Tok) -> Result<(), LangError> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            err(self.line(), format!("expected {want:?}, found {}", self.peek()))
        }
    }

    /// Move to nesting level `level`, refusing one past [`MAX_DEPTH`].
    fn nest(&mut self, level: usize) -> Result<(), LangError> {
        if level > MAX_DEPTH {
            return err(self.line(), format!("nesting deeper than the limit of {MAX_DEPTH} levels"));
        }
        self.depth = level;
        Ok(())
    }

    /// An expression whose parent sits at `level`.
    fn expr_at(&mut self, level: usize) -> Result<Expr, LangError> {
        self.depth = level;
        self.expr()
    }

    /// A block whose statements' parent sits at `level`.
    fn block_at(&mut self, level: usize) -> Result<Vec<Stmt>, LangError> {
        self.depth = level;
        self.block()
    }

    fn ident(&mut self) -> Result<String, LangError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => err(self.toks[self.pos.saturating_sub(1)].line, format!("expected identifier, found {other}")),
        }
    }

    // ---- items ---------------------------------------------------------

    fn program(&mut self) -> Result<Program, LangError> {
        let mut prog = Program::default();
        while *self.peek() != Tok::Eof {
            if *self.peek() == Tok::KwGlobal {
                prog.globals.push(self.global_decl()?);
            } else {
                prog.funcs.push(self.func_decl()?);
            }
        }
        Ok(prog)
    }

    fn scalar(&mut self) -> Result<Scalar, LangError> {
        match self.bump() {
            Tok::KwInt => Ok(Scalar::Int),
            Tok::KwFloat => Ok(Scalar::Float),
            Tok::KwByte => Ok(Scalar::Byte),
            other => err(self.line(), format!("expected type, found {other}")),
        }
    }

    fn global_decl(&mut self) -> Result<GlobalDecl, LangError> {
        let line = self.line();
        self.expect(Tok::KwGlobal)?;
        let scalar = self.scalar()?;
        let name = self.ident()?;
        let mut count = 1u64;
        if *self.peek() == Tok::LBracket {
            self.bump();
            match self.bump() {
                Tok::Int(n) if n > 0 => count = n as u64,
                other => return err(line, format!("expected array size, found {other}")),
            }
            self.expect(Tok::RBracket)?;
        }
        let mut init = None;
        if *self.peek() == Tok::Assign {
            self.bump();
            self.expect(Tok::LBrace)?;
            let mut vals = Vec::new();
            loop {
                let neg = if *self.peek() == Tok::Minus {
                    self.bump();
                    true
                } else {
                    false
                };
                let v = match self.bump() {
                    Tok::Int(v) => v as f64,
                    Tok::Float(v) => v,
                    other => return err(line, format!("expected literal in initializer, found {other}")),
                };
                vals.push(if neg { -v } else { v });
                match self.bump() {
                    Tok::Comma => continue,
                    Tok::RBrace => break,
                    other => return err(line, format!("expected ',' or '}}', found {other}")),
                }
            }
            if vals.len() as u64 > count {
                return err(line, format!("{} initializers for {} elements", vals.len(), count));
            }
            init = Some(vals);
        }
        self.expect(Tok::Semi)?;
        Ok(GlobalDecl { name, scalar, count, init, line })
    }

    fn type_name(&mut self) -> Result<TypeName, LangError> {
        if *self.peek() == Tok::KwVoid {
            self.bump();
            return Ok(TypeName::Void);
        }
        let s = self.scalar()?;
        if *self.peek() == Tok::Star {
            self.bump();
            Ok(TypeName::Ptr(s))
        } else {
            Ok(TypeName::Scalar(s))
        }
    }

    fn func_decl(&mut self) -> Result<FuncDecl, LangError> {
        let line = self.line();
        let ret = self.type_name()?;
        if matches!(ret, TypeName::Ptr(_)) {
            return err(line, "functions cannot return pointers");
        }
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let ty = self.type_name()?;
                if ty == TypeName::Void {
                    return err(self.line(), "void parameter");
                }
                let pname = self.ident()?;
                params.push(Param { name: pname, ty });
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(FuncDecl { name, params, ret, body, line })
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, LangError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if *self.peek() == Tok::Eof {
                return err(self.line(), "unexpected end of file in block");
            }
            stmts.push(self.stmt()?);
        }
        self.bump();
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, LangError> {
        let outer = self.depth;
        let level = outer + 1;
        self.nest(level)?;
        let s = self.stmt_at(level)?;
        self.depth = outer;
        Ok(s)
    }

    /// A statement at nesting level `level`.
    fn stmt_at(&mut self, level: usize) -> Result<Stmt, LangError> {
        let line = self.line();
        match self.peek() {
            Tok::KwInt | Tok::KwFloat | Tok::KwByte => {
                let s = self.decl_stmt(level)?;
                Ok(s)
            }
            Tok::KwIf => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr_at(level)?;
                self.expect(Tok::RParen)?;
                let then_body = self.block_at(level)?;
                let else_body = if *self.peek() == Tok::KwElse {
                    self.bump();
                    if *self.peek() == Tok::KwIf {
                        self.depth = level;
                        vec![self.stmt()?]
                    } else {
                        self.block_at(level)?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt { kind: StmtKind::If { cond, then_body, else_body }, line })
            }
            Tok::KwWhile => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr_at(level)?;
                self.expect(Tok::RParen)?;
                let body = self.block_at(level)?;
                Ok(Stmt { kind: StmtKind::While { cond, body }, line })
            }
            Tok::KwFor => {
                self.bump();
                self.expect(Tok::LParen)?;
                self.nest(level + 1)?;
                let init = if *self.peek() == Tok::Semi {
                    self.bump();
                    None
                } else {
                    let s = self.simple_stmt(level + 1)?;
                    self.expect(Tok::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr_at(level)?)
                };
                self.expect(Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt(level + 1)?))
                };
                self.expect(Tok::RParen)?;
                let body = self.block_at(level)?;
                Ok(Stmt { kind: StmtKind::For { init, cond, step, body }, line })
            }
            Tok::KwReturn => {
                self.bump();
                let val = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr_at(level)?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt { kind: StmtKind::Return(val), line })
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt { kind: StmtKind::Break, line })
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt { kind: StmtKind::Continue, line })
            }
            _ => {
                let s = self.simple_stmt(level)?;
                self.expect(Tok::Semi)?;
                Ok(s)
            }
        }
    }

    /// Declaration statement at `level` (consumes the trailing semicolon).
    fn decl_stmt(&mut self, level: usize) -> Result<Stmt, LangError> {
        let line = self.line();
        let scalar = self.scalar()?;
        let name = self.ident()?;
        let mut array = None;
        if *self.peek() == Tok::LBracket {
            self.bump();
            match self.bump() {
                Tok::Int(n) if n > 0 => array = Some(n as u32),
                other => return err(line, format!("expected array size, found {other}")),
            }
            self.expect(Tok::RBracket)?;
        }
        let init = if *self.peek() == Tok::Assign {
            if array.is_some() {
                return err(line, "local arrays cannot have initializers");
            }
            self.bump();
            Some(self.expr_at(level)?)
        } else {
            None
        };
        self.expect(Tok::Semi)?;
        Ok(Stmt { kind: StmtKind::Decl { name, scalar, array, init }, line })
    }

    /// Assignment or expression statement at `level` (no trailing
    /// semicolon). An assignment's operands are parsed as if compound: the
    /// desugared `target op rhs` puts them up to two levels deeper.
    fn simple_stmt(&mut self, level: usize) -> Result<Stmt, LangError> {
        let line = self.line();
        // Lookahead: `ident =`/`ident op=` or the indexed forms.
        if let Tok::Ident(name) = self.peek().clone() {
            if let Some(op) = assign_op(self.peek2()) {
                self.bump();
                self.bump();
                let rhs = self.expr_at(level + 1)?;
                let value = desugar_compound(op, LValue::Var(name.clone()), rhs, line);
                return Ok(Stmt {
                    kind: StmtKind::Assign { target: LValue::Var(name), value },
                    line,
                });
            }
            if *self.peek2() == Tok::LBracket {
                // Could be `a[i] = e` / `a[i] op= e` or an expression.
                let save = self.pos;
                self.bump(); // ident
                self.bump(); // [
                let idx = self.expr_at(level + 2)?;
                if *self.peek() == Tok::RBracket {
                    if let Some(op) = assign_op(self.peek2()) {
                        self.bump(); // ]
                        self.bump(); // op=
                        let rhs = self.expr_at(level + 1)?;
                        let target = LValue::Index(name.clone(), Box::new(idx.clone()));
                        let value = desugar_compound(op, target.clone(), rhs, line);
                        return Ok(Stmt { kind: StmtKind::Assign { target, value }, line });
                    }
                }
                self.pos = save;
            }
        }
        let e = self.expr_at(level)?;
        Ok(Stmt { kind: StmtKind::Expr(e), line })
    }

    // ---- expressions (precedence climbing) ------------------------------

    fn expr(&mut self) -> Result<Expr, LangError> {
        self.bin_expr(0)
    }

    /// Left-deep chains grow without recursing, so each fold pushes the
    /// whole left operand one level down and is checked against the limit.
    fn bin_expr(&mut self, min_prec: u8) -> Result<Expr, LangError> {
        let parent = self.depth;
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                Tok::OrOr => (BinKind::LogOr, 1),
                Tok::AndAnd => (BinKind::LogAnd, 2),
                Tok::Pipe => (BinKind::BitOr, 3),
                Tok::Caret => (BinKind::BitXor, 4),
                Tok::Amp => (BinKind::BitAnd, 5),
                Tok::Eq => (BinKind::Eq, 6),
                Tok::Ne => (BinKind::Ne, 6),
                Tok::Lt => (BinKind::Lt, 7),
                Tok::Le => (BinKind::Le, 7),
                Tok::Gt => (BinKind::Gt, 7),
                Tok::Ge => (BinKind::Ge, 7),
                Tok::Shl => (BinKind::Shl, 8),
                Tok::Shr => (BinKind::Shr, 8),
                Tok::Plus => (BinKind::Add, 9),
                Tok::Minus => (BinKind::Sub, 9),
                Tok::Star => (BinKind::Mul, 10),
                Tok::Slash => (BinKind::Div, 10),
                Tok::Percent => (BinKind::Rem, 10),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let line = self.line();
            self.bump();
            let deepest_lhs = self.depth;
            self.depth = parent + 1;
            let rhs = self.bin_expr(prec + 1)?;
            self.nest(self.depth.max(deepest_lhs + 1))?;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                line,
            };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        match self.peek() {
            Tok::Minus => {
                self.bump();
                self.nest(self.depth + 1)?;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Unary(UnKind::Neg, Box::new(e)), line })
            }
            Tok::Not => {
                self.bump();
                self.nest(self.depth + 1)?;
                let e = self.unary()?;
                Ok(Expr { kind: ExprKind::Unary(UnKind::Not, Box::new(e)), line })
            }
            _ => self.primary(),
        }
    }

    /// Every primary is one node one level down; parentheses count as one
    /// too, since they recurse.
    fn primary(&mut self) -> Result<Expr, LangError> {
        let line = self.line();
        let level = self.depth + 1;
        self.nest(level)?;
        match self.bump() {
            Tok::Int(v) => Ok(Expr { kind: ExprKind::IntLit(v), line }),
            Tok::Float(v) => Ok(Expr { kind: ExprKind::FloatLit(v), line }),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            // Casts look like calls of type keywords: int(e), float(e), byte(e).
            Tok::KwInt | Tok::KwFloat | Tok::KwByte => {
                let s = match &self.toks[self.pos - 1].tok {
                    Tok::KwInt => Scalar::Int,
                    Tok::KwFloat => Scalar::Float,
                    _ => Scalar::Byte,
                };
                self.expect(Tok::LParen)?;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr { kind: ExprKind::Cast(s, Box::new(e)), line })
            }
            Tok::Ident(name) => match self.peek() {
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    let mut deepest = level;
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr_at(level)?);
                            deepest = deepest.max(self.depth);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.depth = deepest;
                    Ok(Expr { kind: ExprKind::Call(name, args), line })
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    Ok(Expr { kind: ExprKind::Index(name, Box::new(idx)), line })
                }
                _ => Ok(Expr { kind: ExprKind::Ident(name), line }),
            },
            other => err(line, format!("unexpected token {other} in expression")),
        }
    }
}

/// The binary operator of an assignment token (`None` for plain `=`
/// meaning: `Some(None)`; not an assignment at all: `None`).
fn assign_op(t: &Tok) -> Option<Option<BinKind>> {
    match t {
        Tok::Assign => Some(None),
        Tok::PlusEq => Some(Some(BinKind::Add)),
        Tok::MinusEq => Some(Some(BinKind::Sub)),
        Tok::StarEq => Some(Some(BinKind::Mul)),
        Tok::SlashEq => Some(Some(BinKind::Div)),
        Tok::PercentEq => Some(Some(BinKind::Rem)),
        _ => None,
    }
}

/// Desugar `target op= rhs` into `target = target op rhs`. The index
/// expression of an indexed target is evaluated twice, as in the direct
/// spelling (benchmarks keep index expressions pure).
fn desugar_compound(op: Option<BinKind>, target: LValue, rhs: Expr, line: u32) -> Expr {
    match op {
        None => rhs,
        Some(op) => {
            let read = match target {
                LValue::Var(n) => Expr { kind: ExprKind::Ident(n), line },
                LValue::Index(n, i) => Expr { kind: ExprKind::Index(n, i), line },
            };
            Expr {
                kind: ExprKind::Binary(op, Box::new(read), Box::new(rhs)),
                line,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_global_and_function() {
        let p = parse(
            "global int tbl[4] = {1, 2, 3, 4};\n\
             int main() { int s = 0; return s; }",
        )
        .unwrap();
        assert_eq!(p.globals.len(), 1);
        assert_eq!(p.globals[0].count, 4);
        assert_eq!(p.globals[0].init.as_ref().unwrap().len(), 4);
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
    }

    #[test]
    fn parses_control_flow() {
        let p = parse(
            "void f(int n) {\n\
               int i;\n\
               for (i = 0; i < n; i = i + 1) {\n\
                 if (i % 2 == 0) { continue; } else { output(i); }\n\
               }\n\
               while (n > 0) { n = n - 1; if (n == 3) { break; } }\n\
             }",
        )
        .unwrap();
        assert_eq!(p.funcs[0].params.len(), 1);
        assert!(matches!(p.funcs[0].body[1].kind, StmtKind::For { .. }));
        assert!(matches!(p.funcs[0].body[2].kind, StmtKind::While { .. }));
    }

    #[test]
    fn precedence_is_c_like() {
        let p = parse("int f() { return 1 + 2 * 3 < 4 && 5 == 5; }").unwrap();
        // ((1 + (2*3)) < 4) && (5 == 5)
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        let ExprKind::Binary(BinKind::LogAnd, l, _) = &e.kind else {
            panic!("{:?}", e.kind)
        };
        let ExprKind::Binary(BinKind::Lt, a, _) = &l.kind else {
            panic!("{:?}", l.kind)
        };
        let ExprKind::Binary(BinKind::Add, _, m) = &a.kind else {
            panic!("{:?}", a.kind)
        };
        assert!(matches!(m.kind, ExprKind::Binary(BinKind::Mul, _, _)));
    }

    #[test]
    fn parses_array_assign_and_index_expr() {
        let p = parse("void f(int* a) { a[0] = a[1] + 2; }").unwrap();
        assert!(matches!(
            &p.funcs[0].body[0].kind,
            StmtKind::Assign { target: LValue::Index(n, _), .. } if n == "a"
        ));
    }

    #[test]
    fn parses_casts() {
        let p = parse("float f(int x) { return float(x) * 0.5; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        let ExprKind::Binary(BinKind::Mul, l, _) = &e.kind else {
            panic!()
        };
        assert!(matches!(l.kind, ExprKind::Cast(Scalar::Float, _)));
    }

    #[test]
    fn parses_negative_initializers() {
        let p = parse("global float w[2] = {-1.5, 2.0};\nvoid f() { }").unwrap();
        assert_eq!(p.globals[0].init, Some(vec![-1.5, 2.0]));
    }

    #[test]
    fn else_if_chains() {
        let p = parse("int f(int x) { if (x < 0) { return 0; } else if (x < 10) { return 1; } else { return 2; } }")
            .unwrap();
        let StmtKind::If { else_body, .. } = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert_eq!(else_body.len(), 1);
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }

    #[test]
    fn error_has_line_number() {
        let e = parse("int f() {\n  return +;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_local_array_initializer() {
        assert!(parse("void f() { int a[3] = 1; }").is_err());
    }

    /// Levels of a statement tree, one per statement, expression and
    /// indexed target: the recursion depth of lowering it.
    fn stmt_height(s: &Stmt) -> usize {
        let block = |b: &[Stmt]| b.iter().map(stmt_height).max().unwrap_or(0);
        let opt = |e: &Option<Expr>| e.as_ref().map_or(0, expr_height);
        1 + match &s.kind {
            StmtKind::Decl { init, .. } => opt(init),
            StmtKind::Assign { target: LValue::Var(_), value } => expr_height(value),
            StmtKind::Assign { target: LValue::Index(_, i), value } => (1 + expr_height(i)).max(expr_height(value)),
            StmtKind::If { cond, then_body, else_body } => {
                expr_height(cond).max(block(then_body)).max(block(else_body))
            }
            StmtKind::While { cond, body } => expr_height(cond).max(block(body)),
            StmtKind::For { init, cond, step, body } => {
                let simple = |s: &Option<Box<Stmt>>| s.as_deref().map_or(0, stmt_height);
                simple(init).max(opt(cond)).max(simple(step)).max(block(body))
            }
            StmtKind::Return(v) => opt(v),
            StmtKind::Expr(e) => expr_height(e),
            StmtKind::Break | StmtKind::Continue => 0,
        }
    }

    fn expr_height(e: &Expr) -> usize {
        1 + match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) | ExprKind::Ident(_) => 0,
            ExprKind::Index(_, x) | ExprKind::Unary(_, x) | ExprKind::Cast(_, x) => expr_height(x),
            ExprKind::Binary(_, l, r) => expr_height(l).max(expr_height(r)),
            ExprKind::Call(_, args) => args.iter().map(expr_height).max().unwrap_or(0),
        }
    }

    /// A function nesting `n` levels of each shape the parser recurses or
    /// folds on, the deep part on line 2.
    fn nested(n: usize) -> [String; 4] {
        [
            format!("int f() {{\n return {}1{}; }}", "(".repeat(n), ")".repeat(n)),
            format!("int f() {{\n return {}1; }}", "-".repeat(n)),
            format!("int f() {{\n return 1{}; }}", " + 1".repeat(n)),
            format!("void f() {{\n {}{} }}", "if (1) { ".repeat(n), "}".repeat(n)),
        ]
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_and_the_tree_stays_within_it() {
        // Debug-build frames are several times a release build's, more
        // than a test thread's 2 MB holds at the limit.
        std::thread::Builder::new()
            .stack_size(32 << 20)
            .spawn(nesting_stops_at_the_limit)
            .unwrap()
            .join()
            .unwrap();
    }

    fn nesting_stops_at_the_limit() {
        for shape in 0..4 {
            let deepest = (1..=MAX_DEPTH).rev().find(|&n| parse(&nested(n)[shape]).is_ok()).unwrap();
            assert!(deepest + 3 >= MAX_DEPTH, "shape {shape} refused at only {deepest} levels");
            let prog = parse(&nested(deepest)[shape]).unwrap();
            let height = prog.funcs[0].body.iter().map(stmt_height).max().unwrap();
            assert!(height <= MAX_DEPTH, "shape {shape}: a tree {height} levels deep reached lowering");
            for n in [deepest + 1, 100_000] {
                let e = parse(&nested(n)[shape]).unwrap_err();
                assert_eq!(e.line, 2, "shape {shape} at {n}: {e}");
                assert!(e.msg.contains(&format!("limit of {MAX_DEPTH} levels")), "shape {shape} at {n}: {e}");
            }
        }
    }
}
