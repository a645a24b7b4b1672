//! `debug_session`: one developer drives the debugger, closed loop,
//! against a loaded services world on the lossy 4-arm star. One pass
//! runs several such sessions one after another, each in a fresh world
//! with a seed of its own.
//!
//! Each cycle plants a breakpoint in the file server's `fs_read`, starts
//! one client read that will hit it, takes a distributed backtrace,
//! inspects an argument, clears the breakpoint, continues the process and
//! resumes the cohort; then halts the cohort, lists the halted origin's
//! processes and resumes again. A command whose request or reply is lost
//! on a bridge times out (the debugger does not retransmit across
//! bridges); it counts as a failed operation, and the developer reclaims
//! the agents with a forced reconnect before the next cycle.

use std::fmt::Write as _;
use std::time::Instant;

use pilgrim::{
    Agent, DebugError, DebugEvent, NodeId, Pid, SimDuration, SimTime, StateView, Value, World,
};
use pilgrim_services::{build_load_world, Scenario, AOT_NODE, FIRST_CLIENT_NODE, FS_NODE, NS_NODE};
use pilgrim_sim::DetRng;

use crate::common::{
    count_faulted, replay_phase, time_compile, timed, CmdStats, Fingerprint, Iteration,
};
use crate::probe::Probe;
use crate::stats::fnv1a;
use crate::Scale;

const SCENARIO: &str = include_str!("../../scenarios/million_users.toml");

/// Client stations of the session's world (plus the three servers).
const CLIENT_NODES: u32 = 8;
/// Background client operations started before each cycle.
const BACKGROUND: usize = 3;
/// The developer's think time before each cycle.
const THINK: SimDuration = SimDuration::from_millis(100);
/// How long the developer waits for the breakpoint to fire.
const STOP_WAIT: SimDuration = SimDuration::from_secs(10);
/// Slack for the drain after the session, beyond the halt allowance.
const DRAIN: SimDuration = SimDuration::from_secs(600);
/// How long the developer waits for a disconnect to reach every agent.
const SETTLE: SimDuration = SimDuration::from_millis(500);
/// Attempts at a connect or a disconnect before the run counts as stuck.
const MAX_ATTEMPTS: usize = 50;
/// Process faults the developer skips past while waiting for the
/// breakpoint.
const MAX_FAULT_EVENTS: usize = 4;

/// Spacing of the session seeds of successive benchmark seeds, so that no
/// two benchmark seeds share a session.
const SESSIONS_STRIDE: u64 = 1 << 16;

/// One debugger command kind of the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cmd {
    /// `debug_connect` (forced after a failure).
    Connect,
    /// `break_at_proc`.
    BreakAtProc,
    /// `wait_for_stop`.
    WaitForStop,
    /// `distributed_backtrace`.
    Backtrace,
    /// `inspect`.
    Inspect,
    /// `clear_breakpoint`.
    ClearBreakpoint,
    /// `continue_process`.
    Continue,
    /// `debug_resume_all`.
    ResumeAll,
    /// `debug_halt_all`.
    HaltAll,
    /// `debug_processes`.
    Processes,
    /// `debug_disconnect`.
    Disconnect,
}

impl Cmd {
    /// Every kind, in report order.
    pub const ALL: [Cmd; 11] = [
        Cmd::Connect,
        Cmd::BreakAtProc,
        Cmd::WaitForStop,
        Cmd::Backtrace,
        Cmd::Inspect,
        Cmd::ClearBreakpoint,
        Cmd::Continue,
        Cmd::ResumeAll,
        Cmd::HaltAll,
        Cmd::Processes,
        Cmd::Disconnect,
    ];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        self.span().trim_start_matches("core.dbg.")
    }

    /// Span name of one command.
    pub fn span(self) -> &'static str {
        match self {
            Cmd::Connect => "core.dbg.connect",
            Cmd::BreakAtProc => "core.dbg.break_at_proc",
            Cmd::WaitForStop => "core.dbg.wait_for_stop",
            Cmd::Backtrace => "core.dbg.distributed_backtrace",
            Cmd::Inspect => "core.dbg.inspect",
            Cmd::ClearBreakpoint => "core.dbg.clear_breakpoint",
            Cmd::Continue => "core.dbg.continue_process",
            Cmd::ResumeAll => "core.dbg.resume_all",
            Cmd::HaltAll => "core.dbg.halt_all",
            Cmd::Processes => "core.dbg.processes",
            Cmd::Disconnect => "core.dbg.disconnect",
        }
    }
}

/// Generated inputs of one cycle.
struct Cycle {
    /// `(station, entry, args)` started before the cycle.
    background: Vec<(u32, &'static str, Vec<Value>)>,
    /// Station of the client whose read hits the breakpoint.
    reader: u32,
    /// File key the read asks for.
    key: i64,
    /// Station whose agent starts the halt broadcast.
    origin: u32,
}

/// One developer's session: its scenario (with its own seed) and script.
struct Session {
    sc: Scenario,
    cycles: Vec<Cycle>,
}

/// The workload's generated inputs: several independent sessions, each
/// in a world of its own. Pooling the sessions of one pass averages out
/// how much one seed's losses happen to cost, which a single session's
/// tail latency would follow.
pub struct DebugSession {
    sessions: Vec<Session>,
}

/// Why a cycle stopped early.
enum Abort {
    /// A command timed out (a lost debugger packet).
    Lost,
    /// A command answered something the script does not expect.
    Wrong(String),
}

impl From<DebugError> for Abort {
    fn from(e: DebugError) -> Abort {
        match e {
            DebugError::Timeout => Abort::Lost,
            other => Abort::Wrong(other.to_string()),
        }
    }
}

impl DebugSession {
    /// The headline scenario's network (4-arm star, 1% bridge loss) with
    /// its partition removed and 8 client stations; 4 sessions of 125
    /// cycles, about 1.1k commands each (tiny: 2 of 3). Session `k` takes
    /// its seed from the benchmark seed and `k`.
    pub fn new(seed: u64, scale: Scale) -> DebugSession {
        let (sessions, cycles) = match scale {
            Scale::Full => (4, 125),
            Scale::Tiny => (2, 3),
        };
        let sessions = (0..sessions)
            .map(|k| Session::new(seed.wrapping_mul(SESSIONS_STRIDE).wrapping_add(k), cycles))
            .collect();
        DebugSession { sessions }
    }

    /// Every session of the pass in turn, each with its set-up, timed
    /// phase (the scripted session), drain and replay phase; the
    /// iteration sums their host times and work counts and pools their
    /// command latencies.
    pub fn iterate(&self, probe: &mut Probe, id: u64) -> Iteration {
        let mut it = Iteration::default();
        let mut next_id = 0;
        let mut digest = Vec::new();
        for s in &self.sessions {
            let Some(fp) = s.run(probe, id, &mut next_id, &mut it) else {
                return it;
            };
            let f = &mut it.fingerprint;
            f.vm_steps += fp.vm_steps;
            f.packets += fp.packets;
            f.delivered += fp.delivered;
            f.bytes += fp.bytes;
            f.bridge_lost += fp.bridge_lost;
            f.rpc_started += fp.rpc_started;
            f.rpc_completed += fp.rpc_completed;
            f.rpc_failed += fp.rpc_failed;
            f.rpc_retransmits += fp.rpc_retransmits;
            f.stimuli += fp.stimuli;
            f.artifact_bytes += fp.artifact_bytes;
            f.recorded_events += fp.recorded_events;
            f.sim_us += fp.sim_us;
            digest.extend_from_slice(&fp.digest.to_le_bytes());
        }
        it.fingerprint.digest = fnv1a(&digest);
        it
    }
}

impl Session {
    fn new(seed: u64, cycles: usize) -> Session {
        let mut sc = Scenario::parse(SCENARIO).expect("committed scenario parses");
        sc.name = "debug-session".into();
        sc.seed = seed;
        sc.client_nodes = CLIENT_NODES;
        sc.partitions.clear();
        let mut rng = DetRng::seed(seed ^ 0x6465_6275_6767_6572); // "debugger"
        let users = FIRST_CLIENT_NODE + CLIENT_NODES;
        let client = |rng: &mut DetRng| FIRST_CLIENT_NODE + rng.below(CLIENT_NODES.into()) as u32;
        let cycles = (0..cycles)
            .map(|_| Cycle {
                background: (0..BACKGROUND)
                    .map(|_| {
                        let node = client(&mut rng);
                        let ns = Value::Int(NS_NODE.into());
                        match rng.below(3) {
                            0 => (node, "op_lookup", vec![ns]),
                            1 => (node, "op_write", vec![ns, Value::Int(rng.below(16) as i64)]),
                            _ => (node, "op_auth", vec![Value::Int(AOT_NODE.into())]),
                        }
                    })
                    .collect(),
                reader: client(&mut rng),
                key: rng.below(16) as i64,
                origin: rng.below(users.into()) as u32,
            })
            .collect();
        Session { sc, cycles }
    }

    /// Set-up, timed phase (the scripted session), drain, replay phase,
    /// added into `it`. Returns the session's fingerprint, or `None` when
    /// the world does not build. Command span ids continue from
    /// `next_id`.
    fn run(
        &self,
        probe: &mut Probe,
        id: u64,
        next_id: &mut u64,
        it: &mut Iteration,
    ) -> Option<Fingerprint> {
        let (world, setup_s) = timed(|| {
            probe.time("services.build_load_world", id, || {
                build_load_world(&self.sc)
            })
        });
        it.setup_s += setup_s;
        let mut world = match world {
            Ok(w) => w,
            Err(e) => {
                it.check(false, || format!("world does not build: {e}"));
                return None;
            }
        };
        if probe.is_on() {
            time_compile(probe, &world, id);
        }
        let cohort: Vec<u32> = (0..world.user_nodes()).collect();

        probe.open_window();
        let t0 = Instant::now();
        let mut dev = Developer {
            world: &mut world,
            probe,
            it,
            next_id: *next_id,
            transcript: String::new(),
            spawned: Vec::new(),
        };
        dev.reconnect(&cohort, false);
        for c in &self.cycles {
            match dev.cycle(c) {
                Ok(()) => {}
                Err(Abort::Lost) => dev.reconnect(&cohort, true),
                Err(Abort::Wrong(msg)) => {
                    dev.it.errors.push(msg);
                    dev.reconnect(&cohort, true);
                }
            }
        }
        dev.hang_up(&cohort);
        let transcript = std::mem::take(&mut dev.transcript);
        let spawned = std::mem::take(&mut dev.spawned);
        *next_id = dev.next_id;
        it.timed_s += t0.elapsed().as_secs_f64();
        probe.close_window();
        let session = world.now();

        // Frozen timeouts push the AOT watchers' deadlines out by as long
        // as their clients sat halted, which is at most the session's
        // length; the drain check allows that much again.
        let drain_by = session + (session - SimTime::ZERO) + DRAIN;
        probe.time("core.run_until_idle", id, || world.run_until_idle(drain_by));
        it.check(world.now() < drain_by, || {
            "the world did not drain before its deadline".into()
        });
        count_faulted(&world, &spawned, it);
        let mut fp = Fingerprint::of_world(&world);
        fp.sim_us = session.as_micros();
        it.check(fp.rpc_started == fp.rpc_completed + fp.rpc_failed, || {
            format!(
                "rpc.started {} != rpc.completed {} + rpc.failed {} after drain",
                fp.rpc_started, fp.rpc_completed, fp.rpc_failed
            )
        });
        fp.digest = fnv1a(transcript.as_bytes());

        let t1 = Instant::now();
        probe.begin("bench.replay", id);
        let mut replayed = Iteration::default();
        replay_phase(&world, probe, id, 1, &mut replayed);
        probe.end();
        it.replay_s += t1.elapsed().as_secs_f64();
        fp.artifact_bytes = replayed.fingerprint.artifact_bytes;
        fp.recorded_events = replayed.fingerprint.recorded_events;
        it.attempted += replayed.attempted;
        it.failed += replayed.failed;
        it.errors.append(&mut replayed.errors);
        Some(fp)
    }
}

/// The scripted developer at the terminal.
struct Developer<'a> {
    world: &'a mut World,
    probe: &'a mut Probe,
    it: &'a mut Iteration,
    next_id: u64,
    transcript: String,
    /// Every client operation started, as `(station, pid)`.
    spawned: Vec<(u32, Pid)>,
}

impl Developer<'_> {
    /// Issues one command, timing it in host and simulated time. A
    /// timeout counts as a failed operation.
    fn cmd<T>(
        &mut self,
        kind: Cmd,
        f: impl FnOnce(&mut World) -> Result<T, DebugError>,
    ) -> Result<T, DebugError> {
        let id = self.next_id;
        self.next_id += 1;
        let sim0 = self.world.now();
        let t = Instant::now();
        let world = &mut *self.world;
        let out = self.probe.time(kind.span(), id, || f(world));
        let host = t.elapsed().as_secs_f64();
        let stats: &mut CmdStats = self.it.cmds.entry(kind.name()).or_default();
        stats.lat_us.push(host * 1e6);
        stats.sim_us += self.world.now().saturating_since(sim0).as_micros();
        self.it.op_ms.push(host * 1e3);
        self.it.attempted += 1;
        if out.is_err() {
            stats.errors += 1;
            self.it.failed += 1;
        }
        let verdict = match &out {
            Ok(_) => "ok",
            Err(DebugError::Timeout) => "timeout",
            Err(_) => "error",
        };
        let _ = writeln!(
            self.transcript,
            "{} {verdict} @{}",
            kind.name(),
            self.world.now()
        );
        out
    }

    /// Connects to the cohort, retrying until every agent answers; a
    /// forced connect clears whatever a failed cycle left behind. A retry
    /// is always forced: an agent whose acceptance of the timed-out
    /// attempt was lost already belongs to that attempt's session.
    fn reconnect(&mut self, cohort: &[u32], mut force: bool) {
        for _ in 0..MAX_ATTEMPTS {
            match self.cmd(Cmd::Connect, |w| w.debug_connect(cohort, force)) {
                Ok(_) => return,
                Err(DebugError::Timeout) => force = true,
                Err(e) => {
                    self.it.errors.push(format!("connect: {e}"));
                    return;
                }
            }
        }
        self.it
            .errors
            .push(format!("connect: no success in {MAX_ATTEMPTS} attempts"));
    }

    /// Ends the session. A disconnect is not acknowledged, so the
    /// developer checks that every agent let go and, if one did not (its
    /// message was lost), reclaims the cohort and hangs up again: an agent
    /// left connected would keep the servers' debugger-aware timeouts
    /// extended for ever.
    fn hang_up(&mut self, cohort: &[u32]) {
        for _ in 0..MAX_ATTEMPTS {
            let _ = self.cmd(Cmd::Disconnect, World::debug_disconnect);
            // The disconnect messages leave one after another on the
            // ring; give the last one time to land.
            self.world.run_for(SETTLE);
            let world = &*self.world;
            if !cohort
                .iter()
                .any(|n| world.agent(*n).is_some_and(Agent::connected))
            {
                return;
            }
            self.it.failed += 1;
            self.it
                .cmds
                .entry(Cmd::Disconnect.name())
                .or_default()
                .errors += 1;
            self.reconnect(cohort, true);
        }
        self.it.errors.push(format!(
            "disconnect: agents still connected after {MAX_ATTEMPTS} attempts"
        ));
    }

    /// A command answered but not as the script expects: a failed
    /// operation and a correctness failure.
    fn wrong(&mut self, msg: String) -> Abort {
        self.it.failed += 1;
        Abort::Wrong(msg)
    }

    fn spawn(&mut self, node: u32, entry: &str, args: Vec<Value>) {
        let id = self.next_id;
        let world = &mut *self.world;
        let pid = self
            .probe
            .time("core.spawn", id, || world.spawn(node, entry, args));
        self.spawned.push((node, pid));
    }

    fn cycle(&mut self, c: &Cycle) -> Result<(), Abort> {
        for (node, entry, args) in &c.background {
            self.spawn(*node, entry, args.clone());
        }
        // The developer reads the last answer while the load runs on.
        let id = self.next_id;
        let until = self.world.now() + THINK;
        let world = &mut *self.world;
        self.probe
            .time("core.run_until", id, || world.run_until(until));
        let bp = self.cmd(Cmd::BreakAtProc, |w| w.break_at_proc(FS_NODE, "fs_read"))?;
        let reader = c.reader;
        self.spawn(
            reader,
            "op_read",
            vec![
                Value::Int(NS_NODE.into()),
                Value::Int(reader.into()),
                Value::Int(c.key),
            ],
        );
        // A client whose halt broadcast was lost on a bridge keeps its
        // RPC timeouts running and may fault while the server sits at the
        // breakpoint; the developer notes the fault and waits on.
        let mut faults = 0;
        let pid = loop {
            match self.cmd(Cmd::WaitForStop, |w| w.wait_for_stop(STOP_WAIT))? {
                DebugEvent::BreakpointHit {
                    node,
                    pid,
                    bp: hit,
                    proc,
                    ..
                } if node == NodeId(FS_NODE) && hit == bp && proc == "fs_read" => break pid,
                // The faulted client counts as a failed arrival.
                DebugEvent::ProcessFaulted { .. } if faults < MAX_FAULT_EVENTS => faults += 1,
                other => return Err(self.wrong(format!("wait_for_stop: unexpected {other:?}"))),
            }
        };
        let frames = self.cmd(Cmd::Backtrace, |w| w.distributed_backtrace(FS_NODE, pid))?;
        // The read that hits may be an earlier cycle's, still retrying;
        // whichever it is, the backtrace and the inspected argument must
        // name the same client.
        let outer = frames.first().map(|f| (f.node, f.proc_name.as_str()));
        let inner = frames.last().map(|f| (f.node, f.proc_name.as_str()));
        let client = match (outer, inner) {
            (Some((c, "op_read")), Some((FS_NODE, "fs_read"))) => c,
            _ => {
                return Err(self.wrong(format!(
                    "distributed_backtrace: outermost {outer:?}, innermost {inner:?}; expected \
                     op_read on a client down to fs_read on {FS_NODE}"
                )))
            }
        };
        let caller = self.cmd(Cmd::Inspect, |w| w.inspect(FS_NODE, pid, "caller"))?;
        if caller != client.to_string() {
            return Err(self.wrong(format!(
                "inspect caller = {caller}, but the backtrace starts on station {client}"
            )));
        }
        self.cmd(Cmd::ClearBreakpoint, |w| w.clear_breakpoint(FS_NODE, bp))?;
        self.cmd(Cmd::Continue, |w| w.continue_process(FS_NODE, pid))?;
        self.cmd(Cmd::ResumeAll, World::debug_resume_all)?;

        let origin = c.origin;
        let halted = self.cmd(Cmd::HaltAll, |w| w.debug_halt_all(origin))?;
        let procs = self.cmd(Cmd::Processes, |w| w.debug_processes(origin))?;
        let live_unhalted = procs
            .iter()
            .filter(|p| !p.halted && !p.no_halt)
            .filter(|p| !matches!(p.state, StateView::Exited | StateView::Faulted { .. }))
            .count();
        // Calls that arrive while the node is halted may add (halted)
        // server processes between the two replies.
        if procs.len() < halted || live_unhalted != 0 {
            return Err(self.wrong(format!(
                "station {origin}: halt_all reported {halted} processes, the listing shows {} \
                 with {live_unhalted} live and not halted",
                procs.len()
            )));
        }
        self.cmd(Cmd::ResumeAll, World::debug_resume_all)?;
        Ok(())
    }
}
