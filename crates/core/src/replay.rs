//! Record/replay: capture a world's full reproduction recipe and its
//! stimulus journal, then rebuild and re-run it offline.
//!
//! The paper rejects reversible execution as too costly (§5.3); the cheap
//! alternative is determinism. Every [`World`] is a closed, seeded
//! discrete-event simulation, so the *complete* reproduction recipe is
//! small: the builder inputs (seed, topology, configs, programs, lockstep
//! window) plus the ordered journal of public driver calls ([`Stimulus`])
//! that pumped it. [`World::record`] packages those alongside the emitted
//! trace into a single self-describing [`Artifact`]; [`replay`] rebuilds
//! the world from the artifact alone, re-applies the journal, and diffs
//! the fresh trace against the recorded one event-by-event with
//! [`first_divergence`] — the same idea as URDB's record/replay and
//! out-of-place debugging's "replay away from the live system".
//!
//! # Examples
//!
//! ```
//! use pilgrim::replay::{replay, Artifact};
//! use pilgrim::World;
//! use pilgrim_sim::SimTime;
//!
//! let mut w = World::builder()
//!     .program("main = proc ()\n print(\"hi\")\n end")
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! w.spawn(0, "main", vec![]);
//! w.run_until_idle(SimTime::from_secs(1));
//!
//! let text = w.record().render();
//! let report = replay(&Artifact::parse(&text).unwrap(), 1, None).unwrap();
//! assert!(report.divergence.is_none());
//! ```

use std::fmt;

use pilgrim_cclu::Value;
use pilgrim_mayflower::NodeConfig;
use pilgrim_ring::NetworkConfig;
use pilgrim_rpc::RpcConfig;
use pilgrim_sim::json::{
    decode_field, parse_document, render_document, Adapter, Codec, DecodeError, Pairs,
};
use pilgrim_sim::{first_divergence, Divergence, Json, SimDuration, TraceEvent};

use crate::agent::AgentConfig;
use crate::proto::AgentRequest;
use crate::world::{BuildError, World};

/// Artifact format tag, checked on load.
pub const FORMAT: &str = "pilgrim-replay";
/// Artifact format version, checked on load.
pub const VERSION: u32 = 1;

/// Everything [`crate::WorldBuilder`] needs to rebuild a world
/// bit-for-bit: topology, seeds, configs, programs, and the lockstep
/// window. Captured automatically by `build()`.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Number of user nodes.
    pub nodes: u32,
    /// Master seed.
    pub seed: u64,
    /// Requested lockstep window (the builder still applies its
    /// base-latency floor when rebuilding).
    pub window: SimDuration,
    /// The shared program source, if one was set.
    pub default_source: Option<String>,
    /// Per-node program overrides, sorted by node.
    pub per_node_source: Vec<(u32, String)>,
    /// Network model configuration.
    pub net: NetworkConfig,
    /// RPC runtime configuration.
    pub rpc: RpcConfig,
    /// Supervisor configuration.
    pub node_cfg: NodeConfig,
    /// Agent configuration.
    pub agent_cfg: AgentConfig,
    /// Whether a debugger station is attached.
    pub with_debugger: bool,
    /// Whether agents are linked into the nodes.
    pub with_agents: bool,
    /// Whether the full-resolution time-series store is armed. Part of
    /// the recipe so a replayed world samples identically and `tsdb`
    /// queries reproduce byte-for-byte.
    pub tsdb: bool,
    /// Head-based span sampling rate (0 or 1 = off). Recipe-carried so a
    /// replay keeps exactly the spans the live run kept.
    pub trace_sample: u32,
    /// Flight-recorder ring budget in events.
    pub blackbox_capacity: usize,
    /// Coarse always-on store: sync points per sample.
    pub coarse_interval: u64,
    /// Coarse always-on store: samples retained per series.
    pub coarse_budget: usize,
    /// Rust-side setup steps that ran against the built world before the
    /// first stimulus — native service installs (nameserver, aotman),
    /// trace filters, and the like. These cannot be journalled as
    /// stimuli (they register native handler closures), so the recipe
    /// records `(kind, params)` markers and [`replay`] asks its caller's
    /// installer to re-perform them. Replaying a setup-bearing artifact
    /// without an installer fails with a message naming the kinds.
    pub setup: Vec<(String, Json)>,
}

pilgrim_sim::json_codec! {
    struct Recipe as "recipe" {
        nodes: "nodes",
        seed: "seed",
        window: "window_us",
        default_source: "default_program",
        per_node_source: "programs" with Pairs("node", "source"),
        net: "net",
        rpc: "rpc",
        node_cfg: "node_cfg",
        agent_cfg: "agent",
        with_debugger: "debugger",
        with_agents: "agents",
        // The keys below are absent in artifacts recorded before the
        // knob existed; those worlds ran at the then-fixed default.
        tsdb: "tsdb" = false,
        trace_sample: "trace_sample" = 0,
        blackbox_capacity: "blackbox_capacity" = pilgrim_sim::BLACKBOX_CAPACITY,
        coarse_interval: "coarse_interval" = crate::world::TSDB_COARSE_INTERVAL,
        coarse_budget: "coarse_budget" = crate::world::TSDB_COARSE_BUDGET,
        setup: "setup" with Pairs("kind", "params") = Vec::new(),
    }
}

impl Recipe {
    /// Builds a fresh world from the recipe.
    ///
    /// # Errors
    ///
    /// Program compilation failures and empty topologies.
    pub fn build_world(&self) -> Result<World, BuildError> {
        let mut b = World::builder()
            .nodes(self.nodes)
            .seed(self.seed)
            .lockstep_window(self.window)
            .network(self.net.clone())
            .rpc(self.rpc.clone())
            .node_config(self.node_cfg.clone())
            .agent(self.agent_cfg.clone())
            .debugger(self.with_debugger)
            .agents(self.with_agents)
            .tsdb(self.tsdb)
            .trace_sample(self.trace_sample)
            .blackbox_capacity(self.blackbox_capacity)
            .coarse_window(self.coarse_interval, self.coarse_budget);
        if let Some(src) = &self.default_source {
            b = b.program(src);
        }
        for (node, src) in &self.per_node_source {
            b = b.program_for(*node, src);
        }
        b.build()
    }
}

/// One recorded call into the world's public driving API, with concrete
/// arguments. Determinism makes the journal self-sufficient: replaying
/// the same stimuli against the same recipe reproduces every pid, call
/// id, and packet of the original run.
#[derive(Debug, Clone)]
pub enum Stimulus {
    /// [`World::spawn`] / [`World::try_spawn`].
    Spawn {
        /// Target node.
        node: u32,
        /// Entry procedure.
        entry: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// [`World::run_until`].
    RunUntil {
        /// Absolute limit, µs.
        until_us: u64,
    },
    /// [`World::run_for`].
    RunFor {
        /// Duration, µs.
        dur_us: u64,
    },
    /// [`World::run_until_idle`].
    RunUntilIdle {
        /// Absolute limit, µs.
        limit_us: u64,
    },
    /// [`World::debug_connect`].
    Connect {
        /// Session cohort.
        nodes: Vec<u32>,
        /// Forcible connection.
        force: bool,
    },
    /// [`World::debug_disconnect`].
    Disconnect,
    /// [`World::debug_abandon`].
    Abandon,
    /// [`World::debug_request`] — also the funnel for every composite
    /// query method (backtrace, inspect, …), which records one `Request`
    /// per wire round trip it makes.
    Request {
        /// Target node.
        node: u32,
        /// The request body.
        req: AgentRequest,
    },
    /// [`World::debug_events`].
    DrainEvents,
    /// [`World::wait_for_stop`].
    WaitForStop {
        /// Timeout, µs.
        timeout_us: u64,
    },
    /// [`World::break_at_line`].
    BreakAtLine {
        /// Target node.
        node: u32,
        /// Source line.
        line: u32,
    },
    /// [`World::break_at_proc`].
    BreakAtProc {
        /// Target node.
        node: u32,
        /// Procedure name.
        name: String,
    },
    /// [`World::clear_breakpoint`].
    ClearBreakpoint {
        /// Target node.
        node: u32,
        /// Agent breakpoint slot.
        bp: u16,
    },
    /// [`World::debug_halt_all`].
    HaltAll {
        /// Node whose agent initiates the halt.
        origin: u32,
    },
    /// [`World::debug_resume_all`].
    ResumeAll,
    /// [`World::diagnose_maybe_failure`].
    Diagnose {
        /// Server node.
        node: u32,
        /// The failed call.
        call_id: u64,
    },
    /// [`World::inject_drop`].
    DropNext {
        /// Sending node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Packets to drop.
        count: u32,
    },
    /// [`World::set_node_up`].
    SetNodeUp {
        /// Target station.
        node: u32,
        /// New interface state.
        up: bool,
    },
    /// [`World::set_link_up`].
    SetLinkUp {
        /// One end of the bridge link (a segment id).
        a: u32,
        /// The other end.
        b: u32,
        /// New link state.
        up: bool,
    },
    /// [`World::arm_watch`]. The expression is journalled in canonical
    /// form, so replay re-parses exactly what the original run armed.
    ArmWatch {
        /// Watch expression, e.g. `rpc.failed > 0`.
        expr: String,
    },
    /// [`World::clear_watch`].
    ClearWatch {
        /// Watch id returned by `arm_watch`.
        id: u64,
    },
}

pilgrim_sim::json_codec! {
    enum Stimulus as "stimulus", tag "op" {
        Spawn = "spawn" { node: "node", entry: "entry", args: "args" with SpawnArgs },
        RunUntil = "run_until" { until_us: "until_us" },
        RunFor = "run_for" { dur_us: "dur_us" },
        RunUntilIdle = "run_until_idle" { limit_us: "limit_us" },
        Connect = "connect" { nodes: "nodes", force: "force" },
        Disconnect = "disconnect",
        Abandon = "abandon",
        Request = "request" { node: "node", req: "req" },
        DrainEvents = "drain_events",
        WaitForStop = "wait_for_stop" { timeout_us: "timeout_us" },
        BreakAtLine = "break_at_line" { node: "node", line: "line" },
        BreakAtProc = "break_at_proc" { node: "node", name: "name" },
        ClearBreakpoint = "clear_breakpoint" { node: "node", bp: "bp" },
        HaltAll = "halt_all" { origin: "origin" },
        ResumeAll = "resume_all",
        Diagnose = "diagnose" { node: "node", call_id: "call_id" },
        DropNext = "drop_next" { src: "src", dst: "dst", count: "count" },
        SetNodeUp = "set_node_up" { node: "node", up: "up" },
        SetLinkUp = "set_link_up" { a: "a", b: "b", up: "up" },
        ArmWatch = "arm_watch" { expr: "expr" },
        ClearWatch = "clear_watch" { id: "id" },
    }
}

pilgrim_sim::json_codec! {
    enum AgentRequest as "request", tag "type" {
        Ping = "Ping",
        SetBreakpoint = "SetBreakpoint" { proc_id: "proc_id", pc: "pc" },
        ClearBreakpoint = "ClearBreakpoint" { bp: "bp" },
        ListBreakpoints = "ListBreakpoints",
        HaltAll = "HaltAll",
        ResumeAll = "ResumeAll",
        ListProcesses = "ListProcesses",
        ProcessState = "ProcessState" { pid: "pid" },
        ReadStack = "ReadStack" { pid: "pid" },
        ReadVar = "ReadVar" { pid: "pid", frame: "frame", slot: "slot" },
        WriteVar = "WriteVar" { pid: "pid", frame: "frame", slot: "slot", value: "value" },
        ReadGlobal = "ReadGlobal" { slot: "slot" },
        WriteGlobal = "WriteGlobal" { slot: "slot", value: "value" },
        PrintVar = "PrintVar" { pid: "pid", frame: "frame", slot: "slot" },
        Invoke = "Invoke" { proc: "proc", args: "args" },
        StepOver = "StepOver" { pid: "pid" },
        ContinueProcess = "ContinueProcess" { pid: "pid" },
        ForceRunnable = "ForceRunnable" { pid: "pid" },
        HaltProcess = "HaltProcess" { pid: "pid" },
        ResumeProcess = "ResumeProcess" { pid: "pid" },
        RpcStatus = "RpcStatus" { pid: "pid" },
        RecentCalls = "RecentCalls",
        RecentServed = "RecentServed",
        ServingProcess = "ServingProcess" { call_id: "call_id" },
        ServerKnowledge = "ServerKnowledge" { call_id: "call_id" },
        ClientProcess = "ClientProcess" { call_id: "call_id" },
        ReadConsole = "ReadConsole" { from: "from" },
    }
}

/// Spawn arguments. [`Value`] belongs to the dependency-free cclu crate,
/// and the orphan rule forbids implementing the sim crate's `Codec` for
/// it here, so its two functions are plugged into the `args` field by
/// hand.
struct SpawnArgs;

impl Adapter<Vec<Value>> for SpawnArgs {
    fn encode(&self, args: &Vec<Value>) -> Json {
        Json::Array(args.iter().map(value_to_json).collect())
    }

    fn decode(&self, v: &Json) -> Result<Vec<Value>, DecodeError> {
        let args = v.as_array().ok_or(DecodeError::Invalid)?;
        args.iter().map(value_from_json).collect()
    }
}

fn value_to_json(v: &Value) -> Json {
    let (kind, value) = match v {
        Value::Null => ("null", None),
        Value::Int(i) => ("int", Some(i.encode())),
        Value::Bool(b) => ("bool", Some(b.encode())),
        Value::Str(s) => ("str", Some(s.encode())),
        // Handles and heap references are node-local run-time state; a
        // journal containing one cannot be replayed and says so on load.
        Value::Sem(_) | Value::Mutex(_) | Value::Ref(_) => ("opaque", None),
    };
    let mut members = vec![("kind", Json::Str(kind.to_string()))];
    members.extend(value.map(|v| ("value", v)));
    Json::obj(members)
}

fn value_from_json(v: &Json) -> Result<Value, DecodeError> {
    let kind: String = decode_field(v, &["value"], "kind", Codec::decode, None)?;
    let what = ["value", kind.as_str()];
    Ok(match kind.as_str() {
        "null" => Value::Null,
        "int" => Value::Int(decode_field(v, &what, "value", Codec::decode, None)?),
        "bool" => Value::Bool(decode_field(v, &what, "value", Codec::decode, None)?),
        "str" => Value::Str(decode_field(v, &what, "value", Codec::decode, None)?),
        "opaque" => {
            return Err(DecodeError::Message(
                "value: a spawn argument was a node-local handle (semaphore, mutex, or heap \
                 reference); such journals cannot be replayed"
                    .to_string(),
            ))
        }
        other => {
            return Err(DecodeError::Message(format!(
                "value: unknown kind `{other}`"
            )))
        }
    })
}

/// A self-describing recording: recipe + stimulus journal + the trace the
/// original run emitted.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// World reconstruction inputs.
    pub recipe: Recipe,
    /// Ordered public-API calls that drove the world.
    pub stimuli: Vec<Stimulus>,
    /// The recorded run's `trace_jsonl()` output, byte-exact.
    pub trace: String,
    /// Folded-stack profile snapshot (`World::folded_stacks`), captured
    /// when the recorded world profiled its VMs. Replay diffs a fresh
    /// profile against this, so a recording also pins *where simulated
    /// time went*, not just what happened.
    pub profile: Option<String>,
}

pilgrim_sim::json_codec! {
    struct Artifact as "artifact" {
        recipe: "recipe",
        stimuli: "stimuli",
        trace: "trace",
        // Absent in artifacts recorded before profiling existed.
        profile: "profile",
    }
}

impl Artifact {
    /// Renders the artifact as one self-describing JSON document
    /// (trailing newline included).
    pub fn render(&self) -> String {
        render_document(FORMAT, VERSION, self.to_json())
    }

    /// Parses an artifact rendered by [`render`](Artifact::render).
    ///
    /// # Errors
    ///
    /// Malformed JSON, wrong format tag or version, or bad sections.
    pub fn parse(text: &str) -> Result<Artifact, ReplayError> {
        let doc = parse_document(text, FORMAT, VERSION, "artifact").map_err(ReplayError::Format)?;
        Artifact::from_json(&doc).map_err(ReplayError::Format)
    }
}

/// Errors from loading or replaying an artifact.
#[derive(Debug)]
pub enum ReplayError {
    /// The artifact text is malformed or has the wrong format/version.
    Format(String),
    /// The recipe no longer builds (e.g. the program fails to compile).
    Build(BuildError),
    /// A journal entry could not be applied.
    Stimulus(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Format(e) => write!(f, "artifact format: {e}"),
            ReplayError::Build(e) => write!(f, "rebuilding world: {e}"),
            ReplayError::Stimulus(e) => write!(f, "applying stimulus: {e}"),
        }
    }
}
impl std::error::Error for ReplayError {}

/// Outcome of a replay run.
#[derive(Debug)]
pub struct ReplayReport {
    /// The replayed world, positioned after the last stimulus — ready for
    /// further interactive debugging past the recorded horizon.
    pub world: World,
    /// First difference between the recorded and fresh traces, if any.
    pub divergence: Option<Divergence>,
    /// Number of events in the recorded trace.
    pub recorded_events: usize,
    /// Whether the fresh trace is byte-identical to the recorded one
    /// (stronger than `divergence.is_none()`: it also pins the JSONL
    /// rendering itself).
    pub byte_identical: bool,
    /// When the artifact embedded a folded-stack profile: whether the
    /// replayed world's profile is byte-identical to it. `None` when the
    /// recording carried no profile.
    pub profile_identical: Option<bool>,
}

/// The kind of callback [`replay`] uses to re-perform a recipe's
/// Rust-side setup steps against the freshly built world.
pub type SetupInstaller<'a> = dyn FnMut(&mut World, &str, &Json) -> Result<(), String> + 'a;

/// Rebuilds the world named by `artifact`, re-runs its journal, and diffs
/// the fresh trace against the recorded one.
///
/// The rebuilt world steps on `threads` worker threads. Thread count is
/// an execution knob, not part of the recorded recipe, so a run recorded
/// serially must replay byte-identically in parallel and vice versa.
///
/// `installer` re-performs the recipe's Rust-side [`Recipe::setup`] steps
/// (native service handlers, trace filters): it is called once per
/// recorded `(kind, params)` entry, in order, right after the world is
/// built and before any stimulus is applied. Without one, a
/// setup-bearing artifact is refused with an error naming its kinds.
///
/// # Errors
///
/// [`ReplayError::Format`] for a setup-bearing artifact without an
/// installer or an unparsable trace; [`ReplayError::Build`] when the
/// recipe no longer builds; [`ReplayError::Stimulus`] when the installer
/// rejects a setup entry or a journal entry cannot be applied (e.g. a
/// spawn argument recorded as opaque, or an out-of-range station).
pub fn replay(
    artifact: &Artifact,
    threads: usize,
    installer: Option<&mut SetupInstaller<'_>>,
) -> Result<ReplayReport, ReplayError> {
    let setup = &artifact.recipe.setup;
    if installer.is_none() && !setup.is_empty() {
        let kinds: Vec<&str> = setup.iter().map(|(k, _)| k.as_str()).collect();
        return Err(ReplayError::Format(format!(
            "artifact needs Rust-side setup ({}); replay it with a setup installer \
             that knows these kinds",
            kinds.join(", ")
        )));
    }
    let mut world = artifact.recipe.build_world().map_err(ReplayError::Build)?;
    world.set_step_threads(threads);
    if let Some(install) = installer {
        for (kind, params) in setup {
            install(&mut world, kind, params)
                .map_err(|e| ReplayError::Stimulus(format!("setup `{kind}`: {e}")))?;
        }
    }
    for s in &artifact.stimuli {
        world.apply(s).map_err(ReplayError::Stimulus)?;
    }
    let fresh = world.trace_jsonl();
    let recorded = TraceEvent::parse_jsonl(&artifact.trace)
        .map_err(|e| ReplayError::Format(format!("recorded trace: {e}")))?;
    let fresh_events = TraceEvent::parse_jsonl(&fresh)
        .map_err(|e| ReplayError::Format(format!("fresh trace: {e}")))?;
    Ok(ReplayReport {
        divergence: first_divergence(&recorded, &fresh_events),
        recorded_events: recorded.len(),
        byte_identical: fresh == artifact.trace,
        profile_identical: artifact
            .profile
            .as_ref()
            .map(|p| *p == world.folded_stacks()),
        world,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pilgrim_rpc::WireValue;

    #[test]
    fn stimuli_round_trip_through_json() {
        let all = vec![
            Stimulus::Spawn {
                node: 1,
                entry: "main".into(),
                args: vec![
                    Value::Null,
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::Str("hi \"there\"\n".into()),
                ],
            },
            Stimulus::RunUntil { until_us: u64::MAX },
            Stimulus::RunFor { dur_us: 1 },
            Stimulus::RunUntilIdle {
                limit_us: 30_000_000,
            },
            Stimulus::Connect {
                nodes: vec![0, 1, 2],
                force: true,
            },
            Stimulus::Disconnect,
            Stimulus::Abandon,
            Stimulus::Request {
                node: 0,
                req: AgentRequest::WriteVar {
                    pid: 3,
                    frame: 1,
                    slot: 2,
                    value: WireValue::Record {
                        type_name: "pt".into(),
                        fields: vec![WireValue::Int(1), WireValue::Array(vec![])],
                    },
                },
            },
            Stimulus::DrainEvents,
            Stimulus::WaitForStop {
                timeout_us: 5_000_000,
            },
            Stimulus::BreakAtLine { node: 0, line: 12 },
            Stimulus::BreakAtProc {
                node: 1,
                name: "ping".into(),
            },
            Stimulus::ClearBreakpoint { node: 1, bp: 0 },
            Stimulus::HaltAll { origin: 0 },
            Stimulus::ResumeAll,
            Stimulus::Diagnose {
                node: 1,
                call_id: (1u64 << 40) | 5,
            },
            Stimulus::DropNext {
                src: 0,
                dst: 1,
                count: 3,
            },
            Stimulus::SetNodeUp { node: 2, up: false },
            Stimulus::SetLinkUp {
                a: 0,
                b: 3,
                up: false,
            },
            Stimulus::ArmWatch {
                expr: "rpc.failed > 0".into(),
            },
            Stimulus::ClearWatch { id: 1 },
        ];
        for s in &all {
            let mut rendered = String::new();
            s.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = Stimulus::from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            back.to_json().write(&mut rendered2);
            assert_eq!(rendered, rendered2, "stimulus did not round-trip: {s:?}");
        }
    }

    #[test]
    fn every_agent_request_round_trips() {
        let reqs = vec![
            AgentRequest::Ping,
            AgentRequest::SetBreakpoint { proc_id: 1, pc: 2 },
            AgentRequest::ClearBreakpoint { bp: 3 },
            AgentRequest::ListBreakpoints,
            AgentRequest::HaltAll,
            AgentRequest::ResumeAll,
            AgentRequest::ListProcesses,
            AgentRequest::ProcessState { pid: 4 },
            AgentRequest::ReadStack { pid: 5 },
            AgentRequest::ReadVar {
                pid: 6,
                frame: 7,
                slot: 8,
            },
            AgentRequest::WriteVar {
                pid: 9,
                frame: 10,
                slot: 11,
                value: WireValue::Str("x".into()),
            },
            AgentRequest::ReadGlobal { slot: 12 },
            AgentRequest::WriteGlobal {
                slot: 13,
                value: WireValue::Null,
            },
            AgentRequest::PrintVar {
                pid: 14,
                frame: 15,
                slot: 16,
            },
            AgentRequest::Invoke {
                proc: "p".into(),
                args: vec![WireValue::Bool(false)],
            },
            AgentRequest::StepOver { pid: 17 },
            AgentRequest::ContinueProcess { pid: 18 },
            AgentRequest::ForceRunnable { pid: 19 },
            AgentRequest::HaltProcess { pid: 20 },
            AgentRequest::ResumeProcess { pid: 21 },
            AgentRequest::RpcStatus { pid: 22 },
            AgentRequest::RecentCalls,
            AgentRequest::RecentServed,
            AgentRequest::ServingProcess { call_id: 23 },
            AgentRequest::ServerKnowledge { call_id: 24 },
            AgentRequest::ClientProcess { call_id: 25 },
            AgentRequest::ReadConsole { from: 26 },
        ];
        for req in &reqs {
            let mut rendered = String::new();
            req.to_json().write(&mut rendered);
            let parsed = Json::parse(&rendered).expect("valid JSON");
            let back = AgentRequest::from_json(&parsed).expect("decodes");
            let mut rendered2 = String::new();
            back.to_json().write(&mut rendered2);
            assert_eq!(rendered, rendered2, "request did not round-trip: {req:?}");
        }
    }

    #[test]
    fn opaque_spawn_args_fail_replay_loudly() {
        let rendered = {
            let mut out = String::new();
            value_to_json(&Value::Sem(3)).write(&mut out);
            out
        };
        let parsed = Json::parse(&rendered).unwrap();
        let err = value_from_json(&parsed).unwrap_err().describe("value");
        assert!(err.contains("node-local"), "{err}");
    }

    #[test]
    fn artifact_rejects_foreign_documents() {
        assert!(matches!(
            Artifact::parse("{\"format\": \"other\"}"),
            Err(ReplayError::Format(_))
        ));
        assert!(matches!(
            Artifact::parse("not json"),
            Err(ReplayError::Format(_))
        ));
    }
}
