//! `pilgrim-replay` — load a recorded debugging session and re-run it.
//!
//! A recorded artifact (from the REPL's `record <path>` command or
//! [`pilgrim::World::record`]) carries the complete reproduction recipe:
//! builder inputs, the stimulus journal, and the trace the original run
//! emitted. This tool rebuilds the world from the artifact alone,
//! re-applies the journal, and diffs the fresh trace against the recorded
//! one event-by-event.
//!
//! ```text
//! pilgrim-replay <artifact.json>   replay a recording; exit 1 on divergence
//! pilgrim-replay selftest          record+replay the semantics-lock scenario
//!                                  in-process, then prove the checker catches
//!                                  a deliberately mutated trace
//! ```

use std::process::ExitCode;
use std::time::Instant;

use pilgrim::replay::{replay, Artifact};
use pilgrim::{DebugEvent, SimDuration, SimTime, World};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("selftest") => selftest(),
        Some(path) if !path.starts_with('-') => replay_file(path),
        _ => {
            eprintln!("usage: pilgrim-replay <artifact.json> | pilgrim-replay selftest");
            ExitCode::from(2)
        }
    }
}

/// Replays one artifact from disk and reports the outcome.
fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("pilgrim-replay: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let artifact = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pilgrim-replay: {path} is not a replay artifact: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {path}: {} nodes, seed {}, {} stimuli, {} recorded trace bytes",
        artifact.recipe.nodes,
        artifact.recipe.seed,
        artifact.stimuli.len(),
        artifact.trace.len()
    );
    let start = Instant::now();
    let report = match replay(&artifact, 1, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pilgrim-replay: replay failed: {e}");
            return ExitCode::from(2);
        }
    };
    let elapsed = start.elapsed();
    match report.divergence {
        None => {
            println!(
                "OK: {} events replayed identically{} in {:.1}ms",
                report.recorded_events,
                if report.byte_identical {
                    " (byte-for-byte)"
                } else {
                    ""
                },
                elapsed.as_secs_f64() * 1e3
            );
            ExitCode::SUCCESS
        }
        Some(d) => {
            eprintln!("DIVERGENCE after {:.1}ms:", elapsed.as_secs_f64() * 1e3);
            eprintln!("{}", d.report());
            ExitCode::FAILURE
        }
    }
}

/// The semantics-lock scenario from `tests/semantics_lock.rs`: a sleep, a
/// cross-node RPC, and a breakpoint hit + resume under a pinned seed.
fn lock_scenario() -> World {
    const NODE0: &str = "\
ping = proc (x: int) returns (int)
 fail(\"only node 1 implements ping\")
end

main = proc ()
 sleep(5)
 r: int := call ping(21) at 1
 print(\"got \" || int$unparse(r))
end";
    const NODE1: &str = "\
ping = proc (x: int) returns (int)
 print(\"ping \" || int$unparse(x))
 return (x * 2)
end";

    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .build()
        .expect("scenario builds");
    w.debug_connect(&[0, 1], false).unwrap();
    w.break_at_proc(1, "ping").unwrap();
    w.spawn(0, "main", vec![]);
    let ev = w.wait_for_stop(SimDuration::from_secs(10)).unwrap();
    let DebugEvent::BreakpointHit { pid, .. } = ev else {
        panic!("expected breakpoint hit, got {ev:?}");
    };
    let bp = w.debugger().unwrap().breakpoints()[0].bp;
    w.clear_breakpoint(1, bp).unwrap();
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// Records and replays the lock scenario in-process, then mutates one
/// recorded event and proves the divergence checker reports it.
fn selftest() -> ExitCode {
    println!("== pilgrim-replay selftest ==");

    // Baseline: how long the scenario takes without recording overhead is
    // not separable here (recording is always on), so time the run itself.
    let t0 = Instant::now();
    let world = lock_scenario();
    let run_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let artifact = world.record();
    let text = artifact.render();
    let record_ms = t1.elapsed().as_secs_f64() * 1e3;
    println!(
        "run: {run_ms:.1}ms | record: {record_ms:.1}ms | artifact: {} bytes, {} stimuli",
        text.len(),
        artifact.stimuli.len()
    );

    let reparsed = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("selftest FAILED: rendered artifact does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };

    let t2 = Instant::now();
    let report = match replay(&reparsed, 1, None) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selftest FAILED: replay errored: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replay_ms = t2.elapsed().as_secs_f64() * 1e3;
    if let Some(d) = report.divergence {
        eprintln!("selftest FAILED: clean replay diverged:\n{}", d.report());
        return ExitCode::FAILURE;
    }
    if !report.byte_identical {
        eprintln!("selftest FAILED: traces equal event-wise but not byte-identical");
        return ExitCode::FAILURE;
    }
    println!(
        "replay: {replay_ms:.1}ms | {} events byte-identical",
        report.recorded_events
    );

    // Now corrupt one recorded event and demand a precise report.
    let mut lines: Vec<&str> = reparsed.trace.lines().collect();
    let victim = lines.len() / 2;
    let mutated_line = lines[victim].replace("\"time_us\": ", "\"time_us\": 9");
    if mutated_line == lines[victim] {
        eprintln!("selftest FAILED: could not mutate event {victim}");
        return ExitCode::FAILURE;
    }
    lines[victim] = &mutated_line;
    let mut corrupted = reparsed.clone();
    corrupted.trace = lines.join("\n") + "\n";
    match replay(&corrupted, 1, None) {
        Ok(r) => match r.divergence {
            Some(d) if d.index == victim => {
                println!("mutation check: divergence correctly pinned to event {victim}:");
                for line in d.report().lines().take(4) {
                    println!("  {line}");
                }
                println!("selftest OK");
                ExitCode::SUCCESS
            }
            Some(d) => {
                eprintln!(
                    "selftest FAILED: mutated event {victim} but divergence reported at {}",
                    d.index
                );
                ExitCode::FAILURE
            }
            None => {
                eprintln!("selftest FAILED: mutated trace replayed without divergence");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("selftest FAILED: replay of mutated artifact errored: {e}");
            ExitCode::FAILURE
        }
    }
}
