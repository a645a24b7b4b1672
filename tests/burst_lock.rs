//! Burst-boundary lock: scheduler-visible behaviour of CPU-bound CCLU
//! processes, pinned against digests captured before the VM learned to
//! execute runs of instructions per scheduler visit.
//!
//! Each scenario puts the places where one process's run of
//! instructions must end — a time-slice rotation, a timer falling due,
//! the end of a lockstep window, a syscall, an allocation, a fault, a
//! planted breakpoint, a step-over, a cohort halt — in the middle of
//! some other process's loop. The digest of every run (the full JSONL
//! trace, the consoles, the final clocks and per-node instruction counts,
//! and with `profile_vm` on the folded stacks) must equal the committed
//! file in `tests/burst_lock/`, serially and at every thread count of
//! [`twin_threads`] (`PILGRIM_TWIN_THREADS`).
//!
//! The committed digests are the contract: they are never regenerated to
//! make a change pass. `BURST_LOCK_DUMP=<dir>` writes the digests this
//! build computes into `<dir>` for inspection.

use pilgrim::{twin_threads, DebugEvent, NodeConfig, SimDuration, SimTime, Value, World};

const PROGRAM: &str = "\
own gate: sem := sem$create(0)

spin = proc (id: int, n: int) returns (int)
 t: int := id
 for i: int := 1 to n do
  t := (t * 31 + i) // 1000003
  if i // 700 = 0 then
   print(\"spin \" || int$unparse(id) || \" i=\" || int$unparse(i) || \" now=\" || int$unparse(now()))
  end
 end
 print(\"spin \" || int$unparse(id) || \" done \" || int$unparse(t))
 return (t)
end

sleeper = proc (ms: int)
 sleep(ms)
 print(\"slept \" || int$unparse(ms) || \" now=\" || int$unparse(now()))
end

waiter = proc (ms: int)
 ok: bool := sem$wait(gate, ms)
 print(ok)
 print(\"waited \" || int$unparse(ms) || \" now=\" || int$unparse(now()))
end

opener = proc (n: int)
 t: int := 0
 for i: int := 1 to n do
  t := t + i * i
 end
 sem$signal(gate)
 print(\"opened \" || int$unparse(t))
end

collect = proc (id: int, n: int)
 xs: array[int] := array$new()
 for i: int := 1 to n do
  append(xs, i * id)
 end
 print(\"collect \" || int$unparse(id) || \" len=\" || int$unparse(len(xs)))
end

divider = proc (k: int)
 t: int := 0
 for i: int := 1 to 2 * k do
  t := t + 1000 // (k - i)
 end
 print(\"unreachable \" || int$unparse(t))
end

parity = proc (i: int) signals (odd)
 if i // 2 = 1 then
  signal odd
 end
end

flip = proc (n: int)
 odds: int := 0
 for i: int := 1 to n do
  parity(i)
  except when odd:
   odds := odds + 1
  end
 end
 print(\"odds \" || int$unparse(odds))
end";

/// Forks in a loop with computation between forks, and allocation-heavy
/// loops for halts to land in the allocator critical region.
const SPAWNER: &str = "\
child = proc (id: int, n: int)
 t: int := id
 for i: int := 1 to n do
  t := (t * 17 + i) // 10007
 end
 print(\"child \" || int$unparse(id) || \" \" || int$unparse(t) || \" now=\" || int$unparse(now()))
end

parent = proc (k: int)
 for j: int := 1 to k do
  fork child(j, 50 * j)
  x: int := 0
  for i: int := 1 to 40 do
   x := x + i
  end
 end
end

hoard = proc (id: int, n: int)
 xs: array[int] := array$new()
 for i: int := 1 to n do
  append(xs, i)
  append(xs, id)
 end
 print(\"hoard \" || int$unparse(id) || \" \" || int$unparse(len(xs)) || \" now=\" || int$unparse(now()))
end";

/// The 1-based source line holding `text`.
fn line_of(text: &str) -> u32 {
    PROGRAM
        .lines()
        .position(|l| l.contains(text))
        .expect("line is in the program") as u32
        + 1
}

fn world(nodes: u32, slice_us: u64, debugger: bool, threads: usize, profile: bool) -> World {
    world_of(PROGRAM, nodes, slice_us, debugger, threads, profile)
}

fn world_of(
    program: &str,
    nodes: u32,
    slice_us: u64,
    debugger: bool,
    threads: usize,
    profile: bool,
) -> World {
    World::builder()
        .nodes(nodes)
        .program(program)
        .node_config(NodeConfig {
            time_slice: SimDuration::from_micros(slice_us),
            profile_vm: profile,
            ..NodeConfig::default()
        })
        .seed(0xb0257)
        .debugger(debugger)
        .step_threads(threads)
        .build()
        .expect("burst-lock program compiles")
}

fn ints(xs: &[i64]) -> Vec<Value> {
    xs.iter().map(|&x| Value::Int(x)).collect()
}

/// Several CPU-bound loops per node with a time slice (777 µs) below
/// the lockstep window, printing the logical time as they go.
fn slices(threads: usize, profile: bool) -> World {
    let mut w = world(2, 777, false, threads, profile);
    for node in 0..2 {
        for (id, n) in [(1, 2100), (2, 1400), (3, 3500)] {
            w.spawn(node, "spin", ints(&[id + 10 * i64::from(node), n]));
        }
        w.spawn(node, "flip", ints(&[900]));
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// `time_slice_us: 0`: the scheduler rotates after every instruction.
fn zero_slice(threads: usize, profile: bool) -> World {
    let mut w = world(2, 0, false, threads, profile);
    for node in 0..2 {
        w.spawn(node, "spin", ints(&[1, 1500]));
        w.spawn(node, "spin", ints(&[2, 800]));
        w.spawn(node, "collect", ints(&[3, 300]));
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// A sleeper and a `sem$wait` timeout expire while another process is
/// mid-loop; a second waiter is released by a `sem$signal` instead.
fn timers(threads: usize, profile: bool) -> World {
    let mut w = world(2, 2500, false, threads, profile);
    for node in 0..2 {
        w.spawn(node, "spin", ints(&[1, 6000]));
        w.spawn(node, "sleeper", ints(&[7]));
        w.spawn(node, "waiter", ints(&[3]));
        w.spawn(node, "sleeper", ints(&[1 + i64::from(node)]));
        w.spawn(node, "spin", ints(&[2, 2500]));
    }
    w.spawn(1, "waiter", ints(&[-1]));
    w.spawn(1, "opener", ints(&[1200]));
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// Allocating loops (array append) interleaved with a plain loop.
fn alloc(threads: usize, profile: bool) -> World {
    let mut w = world(2, 1000, false, threads, profile);
    for node in 0..2 {
        w.spawn(node, "collect", ints(&[1, 1800]));
        w.spawn(node, "spin", ints(&[5, 1500]));
        w.spawn(node, "collect", ints(&[2, 700]));
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// `// 0` faults in the middle of a loop while other loops keep running.
fn fault(threads: usize, profile: bool) -> World {
    let mut w = world(2, 1500, false, threads, profile);
    for node in 0..2 {
        w.spawn(node, "spin", ints(&[1, 2000]));
        w.spawn(node, "divider", ints(&[400 + 100 * i64::from(node)]));
        w.spawn(node, "spin", ints(&[2, 900]));
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// A breakpoint planted on the body line of a loop that is already
/// running, then a step-over, a continue + resume that re-traps on the
/// next iteration, and a clear + continue + resume.
fn breakpoint(threads: usize, profile: bool) -> World {
    let mut w = world(2, 900, true, threads, profile);
    w.debug_connect(&[0, 1], false).unwrap();
    let target = w.spawn(1, "spin", ints(&[1, 3000]));
    w.spawn(1, "collect", ints(&[2, 900]));
    w.spawn(1, "flip", ints(&[700]));
    w.spawn(0, "spin", ints(&[3, 2500]));
    w.run_for(SimDuration::from_millis(9));
    let bp = w
        .break_at_line(1, line_of("t := (t * 31 + i) // 1000003"))
        .unwrap();
    let pid = match w.wait_for_stop(SimDuration::from_secs(5)).unwrap() {
        DebugEvent::BreakpointHit { pid, .. } => pid,
        other => panic!("expected a breakpoint hit, got {other:?}"),
    };
    w.step_over(1, pid).unwrap();
    w.run_for(SimDuration::from_millis(2));
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();
    match w.wait_for_stop(SimDuration::from_secs(5)).unwrap() {
        DebugEvent::BreakpointHit { pid: again, .. } => assert_eq!(again, pid),
        other => panic!("expected the breakpoint to re-trap, got {other:?}"),
    }
    w.clear_breakpoint(1, bp).unwrap();
    w.continue_process(1, pid).unwrap();
    w.debug_resume_all().unwrap();
    w.run_until_idle(SimTime::from_secs(30));
    assert!(w.node(1).exit_values(target).is_some());
    w
}

/// `debug_halt_all` and `debug_resume_all` while loops (one of them
/// allocating) and a sleeper are mid-run.
fn halt(threads: usize, profile: bool) -> World {
    let mut w = world(2, 1200, true, threads, profile);
    w.debug_connect(&[0, 1], false).unwrap();
    for node in 0..2 {
        w.spawn(node, "spin", ints(&[1, 3000]));
        w.spawn(node, "collect", ints(&[2, 1500]));
        w.spawn(node, "sleeper", ints(&[6]));
    }
    w.run_for(SimDuration::from_micros(4_321));
    w.debug_halt_all(0).unwrap();
    w.run_for(SimDuration::from_millis(5));
    w.debug_resume_all().unwrap();
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// A parent forking children between stretches of computation, on a
/// node where another loop competes for the processor.
fn forks(threads: usize, profile: bool) -> World {
    let mut w = world_of(SPAWNER, 2, 600, false, threads, profile);
    w.spawn(0, "parent", ints(&[6]));
    w.spawn(0, "hoard", ints(&[1, 300]));
    w.spawn(1, "parent", ints(&[4]));
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// Repeated cohort halts while allocation-heavy loops run, so some
/// halts find a process inside the allocator critical region and are
/// deferred to its commit.
fn halt_in_allocator(threads: usize, profile: bool) -> World {
    let mut w = world_of(SPAWNER, 2, 350, true, threads, profile);
    w.debug_connect(&[0, 1], false).unwrap();
    for node in 0..2 {
        for id in 1..=3 {
            w.spawn(node, "hoard", ints(&[id, 900 + 100 * id]));
        }
    }
    for k in 0..8 {
        w.run_for(SimDuration::from_micros(1_337 + 211 * k));
        w.debug_halt_all(k as u32 % 2).unwrap();
        w.run_for(SimDuration::from_micros(700));
        w.debug_resume_all().unwrap();
    }
    w.run_until_idle(SimTime::from_secs(30));
    w
}

/// Everything observable about a finished run, as one string.
fn digest(w: &World, profile: bool) -> String {
    let mut out = String::new();
    for i in 0..w.user_nodes() {
        let n = w.node(i);
        out.push_str(&format!(
            "node {i}: clock {} logical {} steps_total {}\n",
            n.clock(),
            n.logical_now(),
            n.steps_total()
        ));
        for line in w.console(i) {
            out.push_str(&format!("console n{i}: {line}\n"));
        }
    }
    out.push_str(&format!("world now: {}\n", w.now()));
    if profile {
        out.push_str("folded stacks:\n");
        out.push_str(&w.folded_stacks());
    }
    out.push_str("trace:\n");
    out.push_str(&w.trace_jsonl());
    out
}

/// Runs `scenario` serially and at every twin thread count, with
/// `profile_vm` off and on, and compares each digest with the committed
/// one.
fn check(name: &str, scenario: fn(usize, bool) -> World) {
    for profile in [false, true] {
        let file = format!(
            "{}/tests/burst_lock/{name}{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            if profile { "_profiled" } else { "" }
        );
        let serial = digest(&scenario(1, profile), profile);
        if let Some(dir) = std::env::var_os("BURST_LOCK_DUMP") {
            let path = std::path::Path::new(&dir).join(
                std::path::Path::new(&file)
                    .file_name()
                    .expect("digest file name"),
            );
            std::fs::write(&path, &serial).expect("write the dumped digest");
        }
        let want = std::fs::read_to_string(&file)
            .unwrap_or_else(|e| panic!("{name}: cannot read {file}: {e}"));
        assert_same(name, profile, 1, &want, &serial);
        for threads in twin_threads() {
            let got = digest(&scenario(threads, profile), profile);
            assert_same(name, profile, threads, &want, &got);
        }
    }
}

fn assert_same(name: &str, profile: bool, threads: usize, want: &str, got: &str) {
    if want == got {
        return;
    }
    let line = want
        .lines()
        .zip(got.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
    panic!(
        "{name} (profile_vm {profile}, {threads} step threads) drifted from the lock \
         at line {}:\n  lock: {}\n  run:  {}",
        line + 1,
        want.lines().nth(line).unwrap_or("<end>"),
        got.lines().nth(line).unwrap_or("<end>"),
    );
}

#[test]
fn cpu_loops_rotating_below_the_lockstep_window() {
    check("slices", slices);
}

#[test]
fn zero_time_slice_rotates_every_instruction() {
    check("zero_slice", zero_slice);
}

#[test]
fn timers_expire_in_the_middle_of_another_loop() {
    check("timers", timers);
}

#[test]
fn allocating_loops_keep_their_two_phase_boundaries() {
    check("alloc", alloc);
}

#[test]
fn division_by_zero_faults_mid_loop() {
    check("fault", fault);
}

#[test]
fn breakpoint_on_a_running_loop_then_step_over_and_continue() {
    check("breakpoint", breakpoint);
}

#[test]
fn halt_all_and_resume_all_mid_run() {
    check("halt", halt);
}

#[test]
fn forks_between_computation() {
    check("forks", forks);
}

#[test]
fn halts_landing_in_the_allocator_are_deferred_to_the_commit() {
    check("halt_in_allocator", halt_in_allocator);
}
