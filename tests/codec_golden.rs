//! Golden bytes for the replay artifact, the flight-recorder dump, and the
//! JSONL trace encoding.
//!
//! The fixtures under `tests/golden/` were rendered once and are never
//! re-blessed: a codec change that moves a single byte fails here. Each
//! rich fixture exercises every key its format can carry (every stimulus
//! op, every agent request, every wire and spawn value kind, every trace
//! event variant, every non-default recipe knob); the legacy fixtures
//! carry none of the keys that later format revisions made optional, and
//! must still decode to today's defaults.
//!
//! The same fixtures seed a never-panic property over the decoders, and
//! a 200 000-level document checks the parser's nesting limit.

use std::sync::Arc;

use pilgrim::replay::{Artifact, Recipe, Stimulus};
use pilgrim::{
    AgentConfig, AgentRequest, BlackboxSnapshot, EventKind, LinkModel, Medium, NetworkConfig,
    NodeConfig, PartitionWindow, RpcConfig, SimDuration, SimTime, SpanId, Topology, TraceCategory,
    TraceEvent, Value, WireValue, World,
};
use pilgrim_sim::check::{apply_edits, byte_edits, check_n, int_range, zip};
use pilgrim_sim::json::MAX_DEPTH;
use pilgrim_sim::Json;

const ARTIFACT: &str = include_str!("golden/artifact.json");
const BLACKBOX: &str = include_str!("golden/blackbox.json");
const LEGACY_ARTIFACT: &str = include_str!("golden/legacy_artifact.json");
const LEGACY_BLACKBOX: &str = include_str!("golden/legacy_blackbox.json");

/// A string that needs every escape the writer knows.
const HOSTILE: &str = "q\"b\\s/n\nr\rt\tc\u{1}é\u{1F600}";

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// One trace event of every [`EventKind`] variant, with every optional
/// envelope field both set and unset somewhere.
fn every_event() -> Vec<TraceEvent> {
    let kinds = vec![
        (TraceCategory::Service, EventKind::Message(HOSTILE.into())),
        (
            TraceCategory::Net,
            EventKind::PacketSent {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        ),
        (
            TraceCategory::Net,
            EventKind::PacketDelivered {
                src: 0,
                dst: 1,
                bytes: 32,
            },
        ),
        (
            TraceCategory::Net,
            EventKind::PacketLost {
                src: 1,
                dst: 2,
                bytes: 40,
            },
        ),
        (
            TraceCategory::Net,
            EventKind::PacketNacked {
                src: 2,
                dst: 0,
                bytes: u32::MAX,
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallStarted {
                call_id: (1 << 40) | 7,
                proc: "ping".into(),
                args: 2,
                dst: 1,
                protocol: "exactly-once".into(),
                parent_span: 0,
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallStarted {
                call_id: 8,
                proc: "nested".into(),
                args: 0,
                dst: 2,
                protocol: "maybe".into(),
                parent_span: 3,
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallRetransmitted {
                call_id: 8,
                attempt: 2,
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallCompleted {
                call_id: 8,
                ok: true,
                outcome: "ok".into(),
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallCompleted {
                call_id: 9,
                ok: false,
                outcome: HOSTILE.into(),
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::CallTimedOut { call_id: u64::MAX },
        ),
        (
            TraceCategory::Rpc,
            EventKind::ServerDispatched {
                call_id: 8,
                proc: "nested".into(),
            },
        ),
        (
            TraceCategory::Rpc,
            EventKind::ReplySent {
                call_id: 8,
                cached: true,
            },
        ),
        (TraceCategory::Rpc, EventKind::MaybeLostCall { call_id: 10 }),
        (
            TraceCategory::Rpc,
            EventKind::MaybeLostReply { call_id: 11 },
        ),
        (
            TraceCategory::Sched,
            EventKind::ProcessSpawned {
                pid: 4,
                proc: "main".into(),
            },
        ),
        (TraceCategory::Sched, EventKind::ProcessExited { pid: 4 }),
        (
            TraceCategory::Sched,
            EventKind::ProcessesHalted { count: 3 },
        ),
        (
            TraceCategory::Sched,
            EventKind::ProcessesResumed { count: 3 },
        ),
        (
            TraceCategory::Clock,
            EventKind::ClockAdjusted {
                delta: us(1_500),
                now: us(2_750),
            },
        ),
        (
            TraceCategory::Vm,
            EventKind::Print {
                pid: 5,
                text: HOSTILE.into(),
            },
        ),
        (
            TraceCategory::Vm,
            EventKind::Faulted {
                pid: 6,
                fault: "division by zero".into(),
            },
        ),
        (TraceCategory::Debug, EventKind::BreakpointHalt),
        (TraceCategory::Debug, EventKind::HaltBroadcast { origin: 2 }),
        (
            TraceCategory::Debug,
            EventKind::WatchTripped {
                expr: "rpc.failed > 0".into(),
                value: -3,
            },
        ),
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, (category, kind))| TraceEvent {
            time: SimTime::from_micros(1_000 * i as u64),
            category,
            node: (i % 3 != 0).then_some(i as u32 % 3),
            span: (i % 2 == 1).then_some(SpanId(i as u64)),
            kind,
        })
        .collect()
}

fn jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|e| e.to_json() + "\n").collect()
}

fn every_request() -> Vec<AgentRequest> {
    let record = WireValue::Record {
        type_name: "pt".into(),
        fields: vec![
            WireValue::Int(i64::MIN),
            WireValue::Array(vec![WireValue::Null, WireValue::Bool(true)]),
            WireValue::Str(Arc::from(HOSTILE)),
        ],
    };
    vec![
        AgentRequest::Ping,
        AgentRequest::SetBreakpoint {
            proc_id: u16::MAX,
            pc: u32::MAX,
        },
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
            value: record,
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
            proc: "show".into(),
            args: vec![
                WireValue::Null,
                WireValue::Int(i64::MAX),
                WireValue::Bool(false),
                WireValue::Str("s".into()),
                WireValue::Array(vec![]),
                WireValue::Record {
                    type_name: "empty".into(),
                    fields: vec![],
                },
            ],
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
        AgentRequest::ClientProcess { call_id: u64::MAX },
        AgentRequest::ReadConsole { from: 26 },
    ]
}

fn every_stimulus() -> Vec<Stimulus> {
    let mut stimuli = vec![
        Stimulus::Spawn {
            node: 1,
            entry: "main".into(),
            args: vec![
                Value::Null,
                Value::Int(-7),
                Value::Bool(true),
                Value::Str(Arc::from(HOSTILE)),
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
        Stimulus::HaltAll { origin: 2 },
        Stimulus::ResumeAll,
        Stimulus::Diagnose {
            node: 1,
            call_id: (1 << 40) | 5,
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
    stimuli.extend(
        every_request()
            .into_iter()
            .enumerate()
            .map(|(i, req)| Stimulus::Request {
                node: i as u32 % 3,
                req,
            }),
    );
    stimuli
}

/// A recipe with every knob away from its default.
fn rich_recipe() -> Recipe {
    Recipe {
        nodes: 6,
        seed: u64::MAX - 1,
        window: us(2_000),
        default_source: Some("main = proc ()\n print(\"hi\")\nend".into()),
        per_node_source: vec![(1, "ping = proc ()\nend".into()), (4, HOSTILE.into())],
        net: NetworkConfig {
            base_latency: us(3_000),
            per_byte: us(7),
            p_interface_loss: 0.015,
            p_silent_loss: 0.0025,
            medium: Medium::Ethernet,
            seed: 99,
            topology: Topology::Star { arms: 3 },
            link: LinkModel {
                latency: us(750),
                jitter: us(125),
                per_byte: us(2),
                p_loss: 0.01,
            },
            partitions: vec![
                PartitionWindow {
                    from: SimTime::from_micros(1_000_000),
                    to: SimTime::from_micros(2_500_000),
                    a: 0,
                    b: 2,
                },
                PartitionWindow {
                    from: SimTime::from_micros(4_000_000),
                    to: SimTime::from_micros(4_000_001),
                    a: 3,
                    b: 0,
                },
            ],
        },
        rpc: RpcConfig {
            client_send: us(2_400),
            server_recv: us(2_300),
            server_send: us(1_900),
            client_recv: us(1_800),
            debug_client_call: us(170),
            debug_client_done: us(50),
            debug_server: us(150),
            debug_support: false,
            monitor: true,
            monitor_per_packet: us(3_000),
            retry_interval: us(150_000),
            max_attempts: 6,
            maybe_timeout: us(30_000),
            header_bytes: 48,
        },
        node_cfg: NodeConfig {
            time_slice: us(5_000),
            seed: 17,
            freeze_timeouts_on_halt: false,
            profile_vm: true,
        },
        agent_cfg: AgentConfig {
            request_cost: us(300),
            halt_retransmit: 5,
            broadcast_halt: true,
        },
        with_debugger: false,
        with_agents: false,
        tsdb: true,
        trace_sample: 64,
        blackbox_capacity: 2_048,
        coarse_interval: 16,
        coarse_budget: 300,
        setup: vec![
            (
                "nameserver".into(),
                Json::obj(vec![("node", Json::Int(0)), ("names", Json::Array(vec![]))]),
            ),
            ("filter".into(), Json::Null),
            (
                "odd".into(),
                Json::obj(vec![
                    ("f", Json::Float(0.5)),
                    ("s", Json::Str(HOSTILE.into())),
                    ("b", Json::Bool(false)),
                ]),
            ),
        ],
    }
}

fn rich_artifact() -> Artifact {
    Artifact {
        recipe: rich_recipe(),
        stimuli: every_stimulus(),
        trace: jsonl(&every_event()),
        profile: Some("node0;main;fib 120\nnode1;ping 7\n".into()),
    }
}

fn rich_blackbox() -> BlackboxSnapshot {
    BlackboxSnapshot {
        reason: "watch rpc.failed > 0".into(),
        at: SimTime::from_micros(123_456),
        sync_index: 17,
        metrics: "counter rpc.failed: 1\n".into(),
        windows: "tsdb: 1 samples retained (1 taken)\n".into(),
        series: "tsdb counter rpc.failed: 1 samples (interval 64 sync points)\n".into(),
        events: jsonl(&every_event()[..6]),
    }
}

#[test]
fn live_renders_match_the_golden_bytes() {
    assert_eq!(rich_artifact().render(), ARTIFACT);
    assert_eq!(rich_blackbox().render(), BLACKBOX);
}

#[test]
fn golden_fixtures_reparse_to_the_same_bytes() {
    let artifact = Artifact::parse(ARTIFACT).expect("golden artifact parses");
    assert_eq!(artifact.render(), ARTIFACT);
    let blackbox = BlackboxSnapshot::parse(BLACKBOX).expect("golden blackbox parses");
    assert_eq!(blackbox.render(), BLACKBOX);
}

#[test]
fn golden_trace_decodes_every_event_kind() {
    let artifact = Artifact::parse(ARTIFACT).expect("golden artifact parses");
    let events = TraceEvent::parse_jsonl(&artifact.trace).expect("golden trace parses");
    assert_eq!(events, every_event());
    assert_eq!(jsonl(&events), artifact.trace);
    let blackbox = BlackboxSnapshot::parse(BLACKBOX).expect("golden blackbox parses");
    assert_eq!(
        blackbox.decode_events().expect("ring decodes"),
        every_event()[..6]
    );
}

#[test]
fn legacy_fixtures_decode_to_todays_defaults() {
    let defaults = World::builder()
        .build()
        .expect("default world")
        .recipe()
        .clone();
    let legacy = Artifact::parse(LEGACY_ARTIFACT).expect("legacy artifact parses");
    let r = &legacy.recipe;
    assert!(!r.tsdb);
    assert_eq!(r.trace_sample, 0);
    assert_eq!(r.blackbox_capacity, defaults.blackbox_capacity);
    assert_eq!(r.coarse_interval, defaults.coarse_interval);
    assert_eq!(r.coarse_budget, defaults.coarse_budget);
    assert!(r.setup.is_empty());
    assert_eq!(r.net.topology, Topology::Flat);
    assert_eq!(r.net.link, LinkModel::default());
    assert!(r.net.partitions.is_empty());
    assert_eq!(legacy.profile, None);
    for key in [
        "\"tsdb\"",
        "\"trace_sample\"",
        "\"blackbox_capacity\"",
        "\"coarse_interval\"",
        "\"coarse_budget\"",
        "\"setup\"",
        "\"topology\"",
        "\"link\"",
        "\"partitions\"",
        "\"profile\"",
    ] {
        assert!(!LEGACY_ARTIFACT.contains(key), "legacy fixture has {key}");
        assert!(legacy.render().contains(key), "re-render lacks {key}");
    }

    assert!(!LEGACY_BLACKBOX.contains("\"series\""));
    let snap = BlackboxSnapshot::parse(LEGACY_BLACKBOX).expect("legacy blackbox parses");
    assert_eq!(snap.series, "");
    assert!(snap.render().contains("\"series\": \"\""));
}

#[test]
fn mistyped_back_compat_keys_are_errors_not_defaults() {
    // A default applies only when the key is absent; a present key of the
    // wrong type is reported, never silently replaced.
    let with =
        |key: &str| LEGACY_ARTIFACT.replacen("\"debugger\"", &format!("{key}, \"debugger\""), 1);
    for (key, msg) in [
        ("\"tsdb\": \"yes\"", "recipe: out-of-range `tsdb`"),
        (
            "\"trace_sample\": -1",
            "recipe: out-of-range `trace_sample`",
        ),
        ("\"setup\": {}", "recipe: out-of-range `setup`"),
    ] {
        let err = Artifact::parse(&with(key)).expect_err(key).to_string();
        assert!(err.contains(msg), "{key}: {err}");
    }
    let err = BlackboxSnapshot::parse(&LEGACY_BLACKBOX.replacen(
        "\"events\"",
        "\"series\": 7, \"events\"",
        1,
    ))
    .expect_err("numeric series");
    assert!(err.contains("blackbox: out-of-range `series`"), "{err}");
}

#[test]
fn decoders_never_panic_on_mutated_fixtures() {
    let fixtures = [ARTIFACT, BLACKBOX, LEGACY_ARTIFACT, LEGACY_BLACKBOX];
    let gen = zip(int_range(0, fixtures.len() as i64), byte_edits(4));
    check_n(
        "decoders_never_panic_on_mutated_fixtures",
        500,
        &gen,
        |(which, edits)| {
            let text = apply_edits(fixtures[*which as usize], edits);
            // Every outcome is fine except a panic; a decoded document
            // must also survive re-rendering and decoding its trace.
            if let Ok(a) = Artifact::parse(&text) {
                let _ = TraceEvent::parse_jsonl(&a.trace);
                let _ = Artifact::parse(&a.render());
            }
            if let Ok(b) = BlackboxSnapshot::parse(&text) {
                let _ = b.decode_events();
                let _ = BlackboxSnapshot::parse(&b.render());
            }
            let _ = TraceEvent::parse_jsonl(&text);
            Ok(())
        },
    );
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let open = "[".repeat(200_000);
    let err = Json::parse(&open).expect_err("200 000 levels are refused");
    assert!(err.message.contains("nesting"), "{err}");
    assert!(Artifact::parse(&open).is_err());
    assert!(BlackboxSnapshot::parse(&open).is_err());
    assert!(TraceEvent::parse_json(&open).is_err());
    let objects = "{\"a\": ".repeat(200_000);
    assert!(Json::parse(&objects).is_err());
    let inside = format!("{{\"format\": \"pilgrim-replay\", \"version\": 1, \"recipe\": {open}");
    assert!(Artifact::parse(&inside).is_err());

    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
}
