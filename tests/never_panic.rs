//! Never-panic properties over the inputs a user types: CCLU source text
//! (lexer, parser, type checker, code generator, and the interpreter
//! running whatever compiles) and metric watch expressions.
//!
//! Each case applies up to four byte edits (`pilgrim_sim::check`'s
//! `byte_edits`) to a committed valid input. Every outcome is fine except
//! a panic: a mutant either fails to compile with a `CompileError`, or it
//! compiles and then every one of its procedures runs — with integer
//! arguments, whatever its signature says — for a bounded stretch of
//! simulated time on a one-node world, ending in an exit, a fault, a
//! block, or the time bound.

use pilgrim::{SimTime, Value, World};
use pilgrim_cclu::compile;
use pilgrim_services::FILE_SERVER_SOURCE;
use pilgrim_sim::check::{apply_edits, byte_edits, check_n, ensure_eq, int_range, zip};
use pilgrim_sim::Watchpoint;

/// The `const NAME: &str = "\` … `";` literals of a test file, unescaped:
/// the lock programs are mutated from their one committed copy.
fn str_consts(file: &str) -> Vec<String> {
    file.split("&str = \"\\\n")
        .skip(1)
        .map(|rest| {
            let end = rest.find("\";\n").expect("the literal is closed");
            rest[..end].replace("\\\"", "\"").replace("\\\\", "\\")
        })
        .collect()
}

/// The file server, the semantics-lock programs, and the burst-lock
/// programs; each compiles as committed.
fn sources() -> Vec<String> {
    let mut all = vec![FILE_SERVER_SOURCE.to_string()];
    all.extend(str_consts(include_str!("semantics_lock.rs")));
    all.extend(str_consts(include_str!("burst_lock.rs")));
    assert_eq!(
        all.len(),
        5,
        "file server, two semantics-lock, two burst-lock"
    );
    for src in &all {
        if let Err(e) = compile(src) {
            panic!("committed source does not compile: {e}\n{src}");
        }
    }
    all
}

/// Spawns every procedure of `src` with small integer arguments on one
/// node and runs the world for 10 ms of simulated time (at most a few
/// thousand instructions, whatever the program does).
fn run_every_proc(src: &str) {
    let Ok(program) = compile(src) else {
        return;
    };
    let mut w = World::builder()
        .nodes(1)
        .program(src)
        .debugger(false)
        .seed(7)
        .build()
        .expect("a compiled program builds a world");
    for (k, code) in program.procs.iter().enumerate() {
        let name = &code.debug.name;
        let arity = program.signature_of(name).map_or(0, |s| s.params.len());
        let args = (0..arity)
            .map(|i| Value::Int(((7 * k + 13 * i) % 50) as i64))
            .collect();
        w.try_spawn(0, name, args)
            .expect("a compiled procedure spawns");
    }
    w.run_until(SimTime::from_millis(10));
}

#[test]
fn compiler_never_panics_on_mutated_sources() {
    let sources = sources();
    let gen = zip(int_range(0, sources.len() as i64), byte_edits(4));
    check_n(
        "compiler_never_panics_on_mutated_sources",
        3000,
        &gen,
        |(which, edits)| {
            let _ = compile(&apply_edits(&sources[*which as usize], edits));
            Ok(())
        },
    );
}

#[test]
fn compiled_mutants_run_without_panicking() {
    let sources = sources();
    for src in &sources {
        run_every_proc(src);
    }
    let gen = zip(int_range(0, sources.len() as i64), byte_edits(4));
    check_n(
        "compiled_mutants_run_without_panicking",
        500,
        &gen,
        |(which, edits)| {
            run_every_proc(&apply_edits(&sources[*which as usize], edits));
            Ok(())
        },
    );
}

#[test]
fn watch_parser_never_panics_on_mutated_expressions() {
    let exprs = [
        "rpc.failed > 0",
        "rpc.completed >= 12",
        "net.sent != -3",
        "cpu.busy_us == 9223372036854775807",
        "vm.steps <= 1",
    ];
    let gen = zip(int_range(0, exprs.len() as i64), byte_edits(4));
    check_n(
        "watch_parser_never_panics_on_mutated_expressions",
        2000,
        &gen,
        |(which, edits)| {
            let text = apply_edits(exprs[*which as usize], edits);
            match Watchpoint::parse(&text) {
                // A parsed watch re-parses from its canonical form.
                Ok(w) => ensure_eq(Watchpoint::parse(&w.expr()), Ok(w)),
                Err(_) => Ok(()),
            }
        },
    );
}
