//! MiniC is the text the product reads: every `--src` and file argument
//! goes through `flowery_lang::compile`. Mutated workload sources must come
//! back as a module or a `LangError`, never a panic.

use flowery_workloads::{all_workloads, Scale};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Bytes a mutation writes: MiniC's punctuation and operators, digits, and
/// letters that start its keywords and types.
const ALPHABET: &[u8] = b"(){}[];,=+-*/%<>!&|^. 0123456789ifwhlertunobyg";

#[test]
fn mutated_sources_compile_or_fail_but_never_panic() {
    const MUTANTS: u64 = 300;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |bound: usize| {
        // xorshift64*: a fixed stream, so every run tries the same mutants.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % bound
    };
    let (mut compiled, mut panics) = (0, Vec::new());
    for w in all_workloads(Scale::Tiny) {
        let text = w.source.clone().into_bytes();
        for k in 0..MUTANTS {
            let mut t = text.clone();
            let at = next(t.len());
            match next(3) {
                0 => t[at] = ALPHABET[next(ALPHABET.len())],
                1 => {
                    t.remove(at);
                }
                _ => t.insert(at, ALPHABET[next(ALPHABET.len())]),
            }
            // A mutation may split a multi-byte character of a comment.
            let t = String::from_utf8_lossy(&t);
            match catch_unwind(AssertUnwindSafe(|| flowery_lang::compile(w.name, &t))) {
                Ok(Ok(_)) => compiled += 1,
                Ok(Err(_)) => {}
                Err(_) => {
                    let line = t[..at.min(t.len())].lines().count();
                    panics.push(format!("{} mutant {k} (line {line})", w.name));
                }
            }
        }
    }
    assert!(panics.is_empty(), "flowery_lang::compile panicked on: {panics:?}");
    assert!(compiled > 0, "no mutant compiled: the sweep only exercises the lexer");
}
