//! Parser for the textual IR produced by [`crate::printer`], enabling
//! print/parse round-trips for tooling, golden tests and hand-written IR
//! fixtures.
//!
//! The accepted grammar is exactly what the printer emits (one instruction
//! per line, `; ...` comments ignored), not a general assembler.

use crate::inst::{BinOp, Callee, CastKind, FPred, IPred, InstData, InstKind, Intrinsic, IrRole, Terminator};
use crate::module::{Function, Global, GlobalInit, Module};
use crate::types::Type;
use crate::value::{BlockId, FuncId, GlobalId, InstId, Op};
use crate::Const;
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IR parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, msg: msg.into() })
}

/// Parse a module from printer-format text.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut module = Module::new("parsed");
    // Pass 1: collect function names so calls can resolve forward.
    let mut func_names: Vec<String> = Vec::new();
    for raw in text.lines() {
        let line = strip_comment(raw).trim();
        if let Some(rest) = line.strip_prefix("define ") {
            let name = rest
                .split('@')
                .nth(1)
                .and_then(|s| s.split('(').next())
                .unwrap_or("")
                .to_string();
            func_names.push(name);
        }
    }

    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line.starts_with('@') {
            module.add_global(parse_global(&line, lineno)?);
        } else if line.starts_with("define ") {
            let (func, consumed) = parse_function(&lines, i - 1, &func_names, &module)?;
            module.add_function(func);
            i = consumed;
        } else if line.starts_with("; module") {
            module.name = line.trim_start_matches("; module").trim().to_string();
        } else {
            return err(lineno, format!("unexpected top-level line: {line}"));
        }
    }
    Ok(module)
}

fn strip_comment(s: &str) -> &str {
    // `; module` headers are handled before stripping; everything after a
    // bare `;` is a comment.
    if s.trim_start().starts_with("; module") {
        return s;
    }
    match s.find(';') {
        Some(p) => &s[..p],
        None => s,
    }
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    match s {
        "i1" => Ok(Type::I1),
        "i8" => Ok(Type::I8),
        "i16" => Ok(Type::I16),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "f32" => Ok(Type::F32),
        "f64" => Ok(Type::F64),
        "ptr" => Ok(Type::Ptr),
        other => err(line, format!("unknown type '{other}'")),
    }
}

/// `@name = global [N x ty] zeroinitializer | [v, v, ...]`
fn parse_global(line: &str, lineno: usize) -> Result<Global, ParseError> {
    let (lhs, rhs) = line
        .split_once('=')
        .ok_or_else(|| ParseError { line: lineno, msg: "expected '=' in global".into() })?;
    let name = lhs.trim().trim_start_matches('@').to_string();
    let rhs = rhs
        .trim()
        .strip_prefix("global")
        .map(str::trim)
        .ok_or_else(|| ParseError { line: lineno, msg: "expected 'global'".into() })?;
    let open = rhs
        .find('[')
        .ok_or_else(|| ParseError { line: lineno, msg: "expected '['".into() })?;
    let close = rhs[open..]
        .find(']')
        .map(|i| open + i)
        .ok_or_else(|| ParseError { line: lineno, msg: "expected ']' after '['".into() })?;
    let decl = &rhs[open + 1..close];
    let (count_s, ty_s) = decl
        .split_once(" x ")
        .ok_or_else(|| ParseError { line: lineno, msg: "expected 'N x ty'".into() })?;
    let count: u64 = count_s
        .trim()
        .parse()
        .map_err(|_| ParseError { line: lineno, msg: "bad count".into() })?;
    let elem = parse_type(ty_s.trim(), lineno)?;
    let init_s = rhs[close + 1..].trim();
    let init = if init_s == "zeroinitializer" {
        GlobalInit::Zero
    } else if init_s.starts_with('[') && init_s.ends_with(']') {
        let inner = &init_s[1..init_s.len() - 1];
        let vals: Result<Vec<u64>, _> = inner
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| s.trim().parse::<u64>())
            .collect();
        GlobalInit::Elems(vals.map_err(|_| ParseError { line: lineno, msg: "bad initializer".into() })?)
    } else {
        return err(lineno, format!("bad global initializer '{init_s}'"));
    };
    Ok(Global { name, elem, count, init })
}

struct FuncParser<'a> {
    func_names: &'a [String],
    module: &'a Module,
    func: Function,
    /// Textual value id -> arena id.
    value_map: HashMap<u32, InstId>,
    /// Label -> block id (created on demand).
    label_map: HashMap<String, BlockId>,
}

fn parse_function(
    lines: &[&str],
    start: usize,
    func_names: &[String],
    module: &Module,
) -> Result<(Function, usize), ParseError> {
    let header = strip_comment(lines[start]).trim();
    let lineno = start + 1;
    // define <ret> @name(<ty> %argN, ...) {
    let rest = header.strip_prefix("define ").unwrap();
    let (ret_s, rest) = rest
        .split_once(" @")
        .ok_or_else(|| ParseError { line: lineno, msg: "bad define header".into() })?;
    let ret_ty = if ret_s.trim() == "void" {
        None
    } else {
        Some(parse_type(ret_s.trim(), lineno)?)
    };
    let name = rest
        .split('(')
        .next()
        .ok_or_else(|| ParseError { line: lineno, msg: "bad name".into() })?;
    let params_s = rest
        .split_once('(')
        .and_then(|(_, r)| r.rsplit_once(')'))
        .map(|(p, _)| p)
        .ok_or_else(|| ParseError { line: lineno, msg: "bad parameter list".into() })?;
    let mut params = Vec::new();
    for p in params_s.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let ty_s = p
            .split_whitespace()
            .next()
            .ok_or_else(|| ParseError { line: lineno, msg: "bad param".into() })?;
        params.push(parse_type(ty_s, lineno)?);
    }

    let mut fp = FuncParser {
        func_names,
        module,
        func: Function {
            name: name.to_string(),
            params,
            ret_ty,
            insts: Vec::new(),
            blocks: Vec::new(),
        },
        value_map: HashMap::new(),
        label_map: HashMap::new(),
    };

    let mut cur: Option<BlockId> = None;
    let mut i = start + 1;
    while i < lines.len() {
        let lineno = i + 1;
        let line = strip_comment(lines[i]).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line == "}" {
            return Ok((fp.func, i));
        }
        if let Some(label) = line.strip_suffix(':') {
            cur = Some(fp.block(label));
            continue;
        }
        let Some(block) = cur else {
            return err(lineno, "instruction outside a block");
        };
        if let Some(term) = fp.try_parse_terminator(&line, lineno)? {
            fp.func.block_mut(block).term = term;
            continue;
        }
        let inst = fp.parse_inst(&line, lineno)?;
        fp.func.block_mut(block).insts.push(inst);
    }
    err(lineno_of(lines.len()), "unterminated function (missing '}')")
}

fn lineno_of(n: usize) -> usize {
    n
}

impl FuncParser<'_> {
    fn block(&mut self, label: &str) -> BlockId {
        if let Some(&b) = self.label_map.get(label) {
            return b;
        }
        let b = self.func.add_block(label);
        self.label_map.insert(label.to_string(), b);
        b
    }

    /// Parse an operand: `%argN`, `%N`, `@gN`, `ty const`, `ptr null`.
    fn operand(&mut self, s: &str, line: usize) -> Result<Op, ParseError> {
        let s = s.trim();
        if let Some(arg) = s.strip_prefix("%arg") {
            let n: u32 = arg.parse().map_err(|_| ParseError { line, msg: format!("bad param '{s}'") })?;
            return Ok(Op::param(n));
        }
        if let Some(v) = s.strip_prefix('%') {
            let n: u32 = v.parse().map_err(|_| ParseError { line, msg: format!("bad value '{s}'") })?;
            let id = self
                .value_map
                .get(&n)
                .copied()
                .ok_or_else(|| ParseError { line, msg: format!("use of undefined %{n}") })?;
            return Ok(Op::inst(id));
        }
        if let Some(g) = s.strip_prefix("@g") {
            let n: u32 = g.parse().map_err(|_| ParseError { line, msg: format!("bad global '{s}'") })?;
            return Ok(Op::Global(GlobalId(n)));
        }
        // Typed constant: `ty value`.
        let (ty_s, val_s) = s
            .split_once(' ')
            .ok_or_else(|| ParseError { line, msg: format!("bad operand '{s}'") })?;
        let ty = parse_type(ty_s, line)?;
        if ty == Type::Ptr {
            if val_s.trim() == "null" {
                return Ok(Op::Const(Const::NullPtr));
            }
            return err(line, format!("bad pointer constant '{val_s}'"));
        }
        if ty.is_float() {
            let v: f64 = val_s
                .trim()
                .parse()
                .map_err(|_| ParseError { line, msg: format!("bad float '{val_s}'") })?;
            return Ok(if ty == Type::F64 {
                Op::Const(Const::F64(v))
            } else {
                Op::Const(Const::F32(v as f32))
            });
        }
        let v: i64 = val_s
            .trim()
            .parse()
            .map_err(|_| ParseError { line, msg: format!("bad integer '{val_s}'") })?;
        Ok(Op::cint(ty, v as u64))
    }

    fn try_parse_terminator(&mut self, line: &str, lineno: usize) -> Result<Option<Terminator>, ParseError> {
        if line == "unreachable" {
            return Ok(Some(Terminator::Unreachable));
        }
        if line == "ret void" {
            return Ok(Some(Terminator::Ret { val: None }));
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            let val = self.operand(rest, lineno)?;
            return Ok(Some(Terminator::Ret { val: Some(val) }));
        }
        if let Some(rest) = line.strip_prefix("br label %") {
            let dest = self.block(rest.trim());
            return Ok(Some(Terminator::Jmp { dest }));
        }
        if let Some(rest) = line.strip_prefix("br ") {
            // br <op> , label %a, label %b
            let (cond_s, rest) = rest
                .split_once(", label %")
                .ok_or_else(|| ParseError { line: lineno, msg: "bad br".into() })?;
            let cond_s = cond_s.trim().trim_end_matches(',').trim();
            let (then_s, else_s) = rest
                .split_once(", label %")
                .ok_or_else(|| ParseError { line: lineno, msg: "bad br targets".into() })?;
            let cond = self.operand(cond_s, lineno)?;
            let then_bb = self.block(then_s.trim());
            let else_bb = self.block(else_s.trim());
            return Ok(Some(Terminator::Br { cond, then_bb, else_bb }));
        }
        Ok(None)
    }

    fn define(&mut self, text_id: Option<u32>, kind: InstKind, role: IrRole) -> InstId {
        let id = self.func.add_inst(InstData { kind, role, dup_of: None });
        if let Some(t) = text_id {
            self.value_map.insert(t, id);
        }
        id
    }

    fn parse_inst(&mut self, line: &str, lineno: usize) -> Result<InstId, ParseError> {
        // Optional `%N = ` result prefix.
        let (text_id, body) = if line.starts_with('%') {
            let (lhs, rhs) = line
                .split_once('=')
                .ok_or_else(|| ParseError { line: lineno, msg: "expected '='".into() })?;
            let n: u32 = lhs
                .trim()
                .trim_start_matches('%')
                .parse()
                .map_err(|_| ParseError { line: lineno, msg: "bad result id".into() })?;
            (Some(n), rhs.trim().to_string())
        } else {
            (None, line.to_string())
        };

        let (mnemonic, rest) = body.split_once(' ').unwrap_or((body.as_str(), ""));
        let rest = rest.trim();
        let kind = match mnemonic {
            "alloca" => {
                // alloca <ty> x <count>
                let (ty_s, count_s) = rest
                    .split_once(" x ")
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad alloca".into() })?;
                InstKind::Alloca {
                    elem: parse_type(ty_s.trim(), lineno)?,
                    count: count_s
                        .trim()
                        .parse()
                        .map_err(|_| ParseError { line: lineno, msg: "bad count".into() })?,
                }
            }
            "load" => {
                // load <ty>, <ptr>
                let (ty_s, ptr_s) = rest
                    .split_once(',')
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad load".into() })?;
                InstKind::Load {
                    ty: parse_type(ty_s.trim(), lineno)?,
                    ptr: self.operand(ptr_s, lineno)?,
                }
            }
            "store" => {
                // store <ty> <val>, <ptr>
                let (ty_s, rest2) = rest
                    .split_once(' ')
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad store".into() })?;
                let ty = parse_type(ty_s.trim(), lineno)?;
                let (val_s, ptr_s) = split_top_level(rest2)
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad store operands".into() })?;
                let val = self.typed_or_plain(&val_s, ty, lineno)?;
                InstKind::Store { ty, val, ptr: self.operand(&ptr_s, lineno)? }
            }
            "icmp" | "fcmp" => {
                // icmp <pred> <ty> <a>, <b>
                let mut it = rest.splitn(3, ' ');
                let pred_s = it.next().unwrap_or("");
                let ty_s = it.next().unwrap_or("");
                let ops = it.next().unwrap_or("");
                let ty = parse_type(ty_s, lineno)?;
                let (a_s, b_s) =
                    split_top_level(ops).ok_or_else(|| ParseError { line: lineno, msg: "bad compare".into() })?;
                let lhs = self.typed_or_plain(&a_s, ty, lineno)?;
                let rhs = self.typed_or_plain(&b_s, ty, lineno)?;
                if mnemonic == "icmp" {
                    InstKind::ICmp { pred: parse_ipred(pred_s, lineno)?, ty, lhs, rhs }
                } else {
                    InstKind::FCmp { pred: parse_fpred(pred_s, lineno)?, ty, lhs, rhs }
                }
            }
            "gep" => {
                // gep <elem>, <base>, <index>
                let mut parts = rest.splitn(2, ',');
                let elem = parse_type(parts.next().unwrap_or("").trim(), lineno)?;
                let ops = parts.next().unwrap_or("");
                let (base_s, idx_s) =
                    split_top_level(ops).ok_or_else(|| ParseError { line: lineno, msg: "bad gep".into() })?;
                InstKind::Gep {
                    elem,
                    base: self.operand(&base_s, lineno)?,
                    index: self.typed_or_plain(&idx_s, Type::I64, lineno)?,
                }
            }
            "select" => {
                // select <ty> <cond>, <t>, <f>
                let (ty_s, ops) = rest
                    .split_once(' ')
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad select".into() })?;
                let ty = parse_type(ty_s, lineno)?;
                let (cond_s, rest2) =
                    split_top_level(ops).ok_or_else(|| ParseError { line: lineno, msg: "bad select".into() })?;
                let (t_s, f_s) =
                    split_top_level(&rest2).ok_or_else(|| ParseError { line: lineno, msg: "bad select".into() })?;
                InstKind::Select {
                    ty,
                    cond: self.operand(&cond_s, lineno)?,
                    t: self.typed_or_plain(&t_s, ty, lineno)?,
                    f: self.typed_or_plain(&f_s, ty, lineno)?,
                }
            }
            "call" => {
                // call @name(op, op, ...)
                let name = rest
                    .trim_start_matches('@')
                    .split('(')
                    .next()
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad call".into() })?;
                let args_s = rest
                    .split_once('(')
                    .and_then(|(_, r)| r.rsplit_once(')'))
                    .map(|(a, _)| a)
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad call args".into() })?;
                let mut args = Vec::new();
                let mut remaining = args_s.trim().to_string();
                while !remaining.is_empty() {
                    match split_top_level(&remaining) {
                        Some((head, tail)) => {
                            args.push(self.operand(&head, lineno)?);
                            remaining = tail;
                        }
                        None => {
                            args.push(self.operand(&remaining, lineno)?);
                            break;
                        }
                    }
                }
                let callee = if let Some(intr) = intrinsic_by_name(name) {
                    Callee::Intrinsic(intr)
                } else if let Some(fi) = self.func_names.iter().position(|n| n == name) {
                    Callee::Func(FuncId(fi as u32))
                } else if let Some(fi) = self.module.find_func(name) {
                    Callee::Func(fi)
                } else {
                    return err(lineno, format!("unknown callee '@{name}'"));
                };
                InstKind::Call { callee, args }
            }
            cast @ ("zext" | "sext" | "trunc" | "sitofp" | "fptosi" | "fpcast" | "bitcast") => {
                // <cast> <val> : <from> -> <to>
                let (val_s, types) = rest
                    .split_once(':')
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad cast".into() })?;
                let (from_s, to_s) = types
                    .split_once("->")
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad cast types".into() })?;
                let kind = match cast {
                    "zext" => CastKind::Zext,
                    "sext" => CastKind::Sext,
                    "trunc" => CastKind::Trunc,
                    "sitofp" => CastKind::SiToFp,
                    "fptosi" => CastKind::FpToSi,
                    "fpcast" => CastKind::FpCast,
                    _ => CastKind::Bitcast,
                };
                let from = parse_type(from_s.trim(), lineno)?;
                InstKind::Cast {
                    kind,
                    from,
                    to: parse_type(to_s.trim(), lineno)?,
                    val: self.typed_or_plain(val_s.trim(), from, lineno)?,
                }
            }
            bin => {
                // <binop> <ty> <a>, <b>
                let op = parse_binop(bin, lineno)?;
                let (ty_s, ops) = rest
                    .split_once(' ')
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad binop".into() })?;
                let ty = parse_type(ty_s, lineno)?;
                let (a_s, b_s) = split_top_level(ops)
                    .ok_or_else(|| ParseError { line: lineno, msg: "bad binop operands".into() })?;
                InstKind::Bin {
                    op,
                    ty,
                    lhs: self.typed_or_plain(&a_s, ty, lineno)?,
                    rhs: self.typed_or_plain(&b_s, ty, lineno)?,
                }
            }
        };
        Ok(self.define(text_id, kind, IrRole::App))
    }

    /// Operand that may be a bare number (context type known) or any
    /// normal operand.
    fn typed_or_plain(&mut self, s: &str, ty: Type, line: usize) -> Result<Op, ParseError> {
        let s = s.trim();
        if s.starts_with('%') || s.starts_with('@') || s.contains(' ') {
            return self.operand(s, line);
        }
        // Bare literal with contextual type.
        if ty.is_float() {
            let v: f64 = s.parse().map_err(|_| ParseError { line, msg: format!("bad float '{s}'") })?;
            return Ok(if ty == Type::F64 {
                Op::Const(Const::F64(v))
            } else {
                Op::Const(Const::F32(v as f32))
            });
        }
        let v: i64 = s.parse().map_err(|_| ParseError { line, msg: format!("bad literal '{s}'") })?;
        Ok(Op::cint(ty, v as u64))
    }
}

/// Split `"a, b"` at the first top-level comma.
fn split_top_level(s: &str) -> Option<(String, String)> {
    let p = s.find(',')?;
    Some((s[..p].trim().to_string(), s[p + 1..].trim().to_string()))
}

fn parse_ipred(s: &str, line: usize) -> Result<IPred, ParseError> {
    Ok(match s {
        "eq" => IPred::Eq,
        "ne" => IPred::Ne,
        "slt" => IPred::Slt,
        "sle" => IPred::Sle,
        "sgt" => IPred::Sgt,
        "sge" => IPred::Sge,
        "ult" => IPred::Ult,
        "ule" => IPred::Ule,
        "ugt" => IPred::Ugt,
        "uge" => IPred::Uge,
        other => return err(line, format!("unknown icmp predicate '{other}'")),
    })
}

fn parse_fpred(s: &str, line: usize) -> Result<FPred, ParseError> {
    Ok(match s {
        "oeq" => FPred::Oeq,
        "one" => FPred::One,
        "olt" => FPred::Olt,
        "ole" => FPred::Ole,
        "ogt" => FPred::Ogt,
        "oge" => FPred::Oge,
        other => return err(line, format!("unknown fcmp predicate '{other}'")),
    })
}

fn parse_binop(s: &str, line: usize) -> Result<BinOp, ParseError> {
    Ok(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "sdiv" => BinOp::SDiv,
        "udiv" => BinOp::UDiv,
        "srem" => BinOp::SRem,
        "urem" => BinOp::URem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::LShr,
        "ashr" => BinOp::AShr,
        "fadd" => BinOp::FAdd,
        "fsub" => BinOp::FSub,
        "fmul" => BinOp::FMul,
        "fdiv" => BinOp::FDiv,
        other => return err(line, format!("unknown instruction '{other}'")),
    })
}

fn intrinsic_by_name(name: &str) -> Option<Intrinsic> {
    Some(match name {
        "output_i64" => Intrinsic::OutputI64,
        "output_f64" => Intrinsic::OutputF64,
        "output_byte" => Intrinsic::OutputByte,
        "detect_error" => Intrinsic::DetectError,
        "sqrt" => Intrinsic::Sqrt,
        "sin" => Intrinsic::Sin,
        "cos" => Intrinsic::Cos,
        "exp" => Intrinsic::Exp,
        "log" => Intrinsic::Log,
        "fabs" => Intrinsic::Fabs,
        "floor" => Intrinsic::Floor,
        "pow" => Intrinsic::Pow,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{ExecConfig, Interpreter};
    use crate::printer::print_module;
    use crate::verify::verify_module;

    fn round_trip(m: &Module) -> Module {
        let text = print_module(m);
        parse_module(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"))
    }

    #[test]
    fn round_trips_handwritten_text() {
        let text = "\
; module demo
@counts = global [4 x i64] [1, 2, 3, 4]
@buf = global [8 x i8] zeroinitializer

define i64 @main() {
entry:
  %0 = gep i64, @g0, i64 2
  %1 = load i64, %0
  %2 = add i64 %1, i64 39
  call @output_i64(%2)
  ret %2
}
";
        let m = parse_module(text).unwrap();
        verify_module(&m).unwrap();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, crate::interp::ExecStatus::Completed(42));
    }

    #[test]
    fn print_parse_round_trip_preserves_behaviour() {
        // Build a program with every construct via the builder.
        use crate::builder::{FuncBuilder, ModuleBuilder};
        let mut mb = ModuleBuilder::new("rt");
        let g = mb.global_i64("data", &[5, 10, 15]);
        let helper = mb.declare_func("helper", vec![Type::I64, Type::F64], Some(Type::F64));
        let mut fb = FuncBuilder::new("helper", vec![Type::I64, Type::F64], Some(Type::F64));
        let c = fb.cast(CastKind::SiToFp, Type::I64, Type::F64, Op::param(0));
        let s = fb.bin(BinOp::FMul, Type::F64, Op::inst(c), Op::param(1));
        let q = fb.intrinsic(Intrinsic::Sqrt, vec![Op::inst(s)]);
        fb.ret(Some(Op::inst(q)));
        mb.define_func(helper, fb.finish());

        let mut fb = FuncBuilder::new("main", vec![], Some(Type::I64));
        let a = fb.alloca(Type::I64, 2);
        let p = fb.gep(Op::Global(g), Op::ci64(1), Type::I64);
        let v = fb.load(Type::I64, Op::inst(p));
        fb.store(Type::I64, Op::inst(v), Op::inst(a));
        let cnd = fb.icmp(IPred::Sgt, Type::I64, Op::inst(v), Op::ci64(3));
        let t = fb.new_block("bigger");
        let e = fb.new_block("smaller");
        fb.br(Op::inst(cnd), t, e);
        fb.switch_to(t);
        let h = fb.call(helper, vec![Op::inst(v), Op::cf64(2.5)]);
        let sel = fb.select(Type::F64, Op::inst(cnd), Op::inst(h), Op::cf64(0.0));
        fb.output_f64(Op::inst(sel));
        fb.ret(Some(Op::ci64(1)));
        fb.switch_to(e);
        fb.ret(Some(Op::ci64(0)));
        mb.add_func(fb.finish());
        let m = mb.finish();
        verify_module(&m).unwrap();

        let m2 = round_trip(&m);
        verify_module(&m2).unwrap();
        let r1 = Interpreter::new(&m).run(&ExecConfig::default(), None);
        let r2 = Interpreter::new(&m2).run(&ExecConfig::default(), None);
        assert_eq!(r1.status, r2.status);
        assert_eq!(r1.output, r2.output);
        assert_eq!(r1.dyn_insts, r2.dyn_insts);
    }

    #[test]
    fn round_trips_every_workload_shape() {
        // The frontend exercises the full construct set; round-trip a
        // representative compiled program.
        use crate::builder::ModuleBuilder;
        let _ = ModuleBuilder::new("x"); // keep import balance
        let src = "\
define void @noop() {
entry:
  ret void
}

define i64 @main() {
entry:
  %0 = alloca i64 x 1
  store i64 7, %0
  %2 = load i64, %0
  %3 = srem i64 %2, i64 3
  %4 = shl i64 %3, i64 2
  %5 = xor i64 %4, i64 15
  call @noop()
  ret %5
}
";
        let m = parse_module(src).unwrap();
        verify_module(&m).unwrap();
        let r = Interpreter::new(&m).run(&ExecConfig::default(), None);
        assert_eq!(r.status, crate::interp::ExecStatus::Completed((1 << 2) ^ 15));
        // And a second round trip through the printer.
        let m2 = round_trip(&m);
        let r2 = Interpreter::new(&m2).run(&ExecConfig::default(), None);
        assert_eq!(r2.status, r.status);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "define i64 @main() {\nentry:\n  %0 = frobnicate i64 1, i64 2\n  ret %0\n}\n";
        let e = parse_module(bad).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.msg.contains("frobnicate"), "{e}");
    }

    #[test]
    fn rejects_undefined_values_and_callees() {
        let bad = "define i64 @main() {\nentry:\n  ret %9\n}\n";
        assert!(parse_module(bad).unwrap_err().msg.contains("undefined"));
        let bad2 = "define void @main() {\nentry:\n  call @nothere()\n  ret void\n}\n";
        assert!(parse_module(bad2).unwrap_err().msg.contains("unknown callee"));
    }

    use crate::inst::{BinOp, CastKind, IPred, Intrinsic};
    use crate::value::Op;
}
