//! Profiler and watchpoint determinism gates.
//!
//! Profiling is an observer: it must never perturb what it observes, and
//! in a deterministic simulation it must itself be deterministic. These
//! tests pin both properties — identical runs produce byte-identical
//! folded-stack profiles (including under record/replay), turning the
//! profiler on leaves the event trace untouched, and a metric watchpoint
//! halts the world at the exact sync point where the metric first moves,
//! at the same instant on every run.

use pilgrim::replay::{replay, Artifact};
use pilgrim::{DebugEvent, NodeConfig, SimDuration, SimTime, Value, World};

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

/// The semantics-lock scenario (sleep + cross-node RPC + breakpoint
/// hit/resume, pinned seed), optionally profiled.
fn lock_scenario(profile: bool) -> World {
    let mut w = World::builder()
        .nodes(2)
        .program(NODE0)
        .program_for(1, NODE1)
        .seed(42)
        .node_config(NodeConfig {
            profile_vm: profile,
            ..Default::default()
        })
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

#[test]
fn profiled_lock_scenario_folds_byte_identically_twice() {
    let first = lock_scenario(true).folded_stacks();
    let second = lock_scenario(true).folded_stacks();
    assert!(!first.is_empty(), "profiled run produced no stacks");
    assert_eq!(first, second, "identical runs profiled differently");
    // The profile covers both sides of the RPC.
    assert!(first.contains("node0;main"), "{first}");
    assert!(first.contains("node1;"), "{first}");
    // Folded lines are sorted, so the document equals its sorted self.
    let mut lines: Vec<&str> = first.lines().collect();
    let rendered = lines.join("\n");
    lines.sort_unstable();
    assert_eq!(lines.join("\n"), rendered, "folded lines not sorted");
}

#[test]
fn folded_lines_are_well_formed_and_fold_recursion() {
    const FIB: &str = "\
fib = proc (n: int) returns (int)
 if n < 2 then
 return (n)
 end
 return (fib(n - 1) + fib(n - 2))
end

main = proc ()
 print(int$unparse(fib(8)))
end";
    let mut w = World::builder()
        .nodes(1)
        .program(FIB)
        .seed(42)
        .node_config(NodeConfig {
            profile_vm: true,
            ..Default::default()
        })
        .build()
        .expect("scenario builds");
    w.spawn(0, "main", vec![]);
    w.run_until_idle(SimTime::from_secs(30));
    let folded = w.folded_stacks();
    assert!(!folded.is_empty(), "profiled run produced no stacks");
    // Every line is `frame(;frame)* <positive int>`.
    for line in folded.lines() {
        let (stack, weight) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no weight separator in `{line}`"));
        assert!(
            stack.split(';').all(|frame| !frame.is_empty()),
            "malformed stack in `{line}`"
        );
        let weight: u64 = weight
            .parse()
            .unwrap_or_else(|_| panic!("non-integer weight in `{line}`"));
        assert!(weight > 0, "zero-weight line `{line}`");
    }
    assert!(folded.contains("node0;main;fib;fib"), "{folded}");
}

#[test]
fn replay_reproduces_the_embedded_profile() {
    let world = lock_scenario(true);
    let folded = world.folded_stacks();
    let text = world.record().render();
    drop(world);

    let artifact = Artifact::parse(&text).expect("artifact parses");
    assert_eq!(
        artifact.profile.as_deref(),
        Some(folded.as_str()),
        "profiled recordings embed the folded snapshot"
    );
    let report = replay(&artifact, 1, None).expect("replay runs");
    assert!(report.divergence.is_none());
    assert_eq!(
        report.profile_identical,
        Some(true),
        "replayed profile differs from the recorded one"
    );
}

#[test]
fn unprofiled_recordings_have_no_profile_section() {
    let artifact = lock_scenario(false).record();
    assert!(artifact.profile.is_none());
    let report = replay(&Artifact::parse(&artifact.render()).unwrap(), 1, None).unwrap();
    assert_eq!(report.profile_identical, None);
}

#[test]
fn profiling_does_not_perturb_the_trace() {
    // The observer effect gate: the event trace of a profiled run must be
    // byte-identical to the unprofiled run's.
    let plain = lock_scenario(false).trace_jsonl();
    let profiled = lock_scenario(true).trace_jsonl();
    assert_eq!(plain, profiled, "profiling changed observable behaviour");
}

#[test]
fn time_ledgers_partition_the_run() {
    let w = lock_scenario(true);
    let ledgers = w.node(0).time_ledgers();
    let (_, name, _, main_ledger) = ledgers
        .iter()
        .find(|(_, name, _, _)| name == "main")
        .expect("main has a ledger");
    assert_eq!(name, "main");
    assert!(
        main_ledger.executing > SimDuration::ZERO,
        "main executed instructions"
    );
    // The sleeping interval opens at the sync point *after* the sleep
    // call executes, so it lands a step short of the nominal 5ms.
    assert!(
        main_ledger.sleeping >= SimDuration::from_millis(4),
        "main slept ~5ms: {}",
        main_ledger.render()
    );
    assert!(
        main_ledger.blocked_rpc > SimDuration::ZERO,
        "main blocked on its remote call: {}",
        main_ledger.render()
    );
    // The caller's RPC wait is attributed to the call's causal span.
    let waits = w.node(0).rpc_span_waits();
    assert!(
        waits.iter().any(|(_, d)| *d > SimDuration::ZERO),
        "no span-attributed rpc wait: {waits:?}"
    );
}

// ---------------------------------------------------------------------
// Watchpoints
// ---------------------------------------------------------------------

const MAYBE_PINGER: &str = "\
pong = proc (n: int) returns (int)
 return (n)
end
main = proc (count: int)
 good: int := 0
 bad: int := 0
 for i: int := 1 to count do
  ok: bool := true
  r: int := 0
  ok, r := maybecall pong(i) at 1
  if ok then
   good := good + 1
  else
   bad := bad + 1
  end
 end
 print(\"bad \" || int$unparse(bad))
end";

/// Ten maybe-calls with the third call's packet dropped: exactly one
/// fails, so `rpc.failed` steps 0 -> 1 at one deterministic sync point.
fn one_failure_world() -> World {
    let mut w = World::builder()
        .nodes(2)
        .program(MAYBE_PINGER)
        .seed(42)
        .debugger(false)
        .build()
        .unwrap();
    w.arm_watch("rpc.failed > 0").expect("expression parses");
    w.run_for(SimDuration::from_millis(40));
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![Value::Int(10)]);
    w.run_until_idle(SimTime::from_secs(120));
    w
}

#[test]
fn watch_halts_at_the_first_failed_rpc() {
    let w = one_failure_world();
    let trips = w.watch_trips();
    assert_eq!(trips.len(), 1, "exactly one watch armed: {trips:?}");
    let (_, expr, trip) = &trips[0];
    assert_eq!(expr, "rpc.failed > 0");
    assert_eq!(trip.value, 1, "halted at the *first* increment");
    assert_eq!(
        w.now(),
        trip.at,
        "the run loop stopped at the tripping sync point"
    );
    assert!(
        trip.at < SimTime::from_secs(120),
        "world halted before the limit"
    );
    assert!(
        trip.span.is_some(),
        "the trip names the tripping activity's span"
    );
}

#[test]
fn watch_trip_point_is_pinned_across_runs() {
    let a = one_failure_world();
    let b = one_failure_world();
    let ta = &a.watch_trips()[0].2;
    let tb = &b.watch_trips()[0].2;
    assert_eq!(ta, tb, "trip (time, sync index, value, span) not stable");
    // Pin the exact trip coordinates so any scheduler/metrics reordering
    // that moves the first observable failure shows up here.
    assert_eq!(ta.value, 1);
    assert_eq!(ta.at, a.now());
}

#[test]
fn replay_reproduces_the_watch_trip() {
    let w = one_failure_world();
    let original = w.watch_trips();
    let text = w.record().render();
    drop(w);

    let report = replay(&Artifact::parse(&text).unwrap(), 1, None).expect("replay runs");
    assert!(
        report.divergence.is_none(),
        "watch-bearing journal diverged"
    );
    assert_eq!(
        report.world.watch_trips(),
        original,
        "replayed trip differs from the recorded run"
    );
}

#[test]
fn cleared_watches_do_not_trip_and_runs_complete() {
    let mut w = World::builder()
        .nodes(2)
        .program(MAYBE_PINGER)
        .seed(42)
        .debugger(false)
        .build()
        .unwrap();
    let id = w.arm_watch("rpc.failed > 0").unwrap();
    assert!(w.clear_watch(id));
    w.inject_drop(0, 1, 1);
    w.spawn(0, "main", vec![Value::Int(10)]);
    w.run_until_idle(SimTime::from_secs(120));
    assert!(w.watch_trips().is_empty());
    assert_eq!(w.console(0), vec!["bad 1".to_string()]);
}
