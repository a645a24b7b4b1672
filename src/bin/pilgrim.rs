//! `pilgrim` — one command-line tool over recorded and loaded sessions.
//!
//! - `replay <artifact>`: rebuild the recorded world, re-run its journal
//!   and diff the fresh trace against the recorded one, event by event.
//! - `prof <artifact>`: replay with VM profiling forced on and print the
//!   run's folded-stack profile.
//! - `trace <artifact|dump>`: the causal critical path and the `--slow k`
//!   slowest spans, one `--span id`'s causal path, or (`--tsdb [metric]`)
//!   the windowed time series a blackbox dump carries.
//! - `load <scenario.toml>`: drive the scenario's open-loop workload and
//!   gate on its declared floors; `--record`, `--report` and `--blackbox`
//!   write the artifact, the run report and (on gate failure) a flight
//!   recorder dump, `--threads` sets the stepping threads, and
//!   `--verify-replay` replays the recording in-process.
//!
//! Every artifact, from the REPL's `record`, [`World::record`] or
//! `pilgrim load --record`, replays through [`replay()`] with the
//! services [`setup_installer`], which artifacts without setup never call.
//!
//! Exit codes: 0 ok, 1 divergence or gate failure, 2 usage, read or
//! parse error.
//!
//! [`World::record`]: pilgrim::World::record

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use pilgrim::{replay, Artifact, BlackboxSnapshot, CausalGraph, ReplayReport, TraceEvent};
use pilgrim_services::{
    outcome_from_world, render_run_report, run_scenario_threads, setup_installer, Scenario,
};

const USAGE: &str = "\
usage: pilgrim replay <artifact>
       pilgrim prof <artifact>
       pilgrim trace <artifact|dump> [--slow <k>] [--span <id>] [--tsdb [metric]]
       pilgrim load <scenario.toml> [--record <path>] [--report <path>] [--blackbox <path>] \
[--threads <n>] [--verify-replay]";

/// How many slowest spans the run report lists.
const REPORT_TOP_K: usize = 5;

/// Why a subcommand stopped: the exit code, then the message.
struct Failure(u8, String);

impl Failure {
    /// Divergence or a failed gate (exit 1).
    fn failed(msg: impl Into<String>) -> Failure {
        Failure(1, msg.into())
    }

    /// Unusable input: bad arguments, unreadable or malformed files (exit 2).
    fn input(msg: impl Into<String>) -> Failure {
        Failure(2, msg.into())
    }

    /// A malformed command line: the message plus the usage text (exit 2).
    fn usage(msg: impl std::fmt::Display) -> Failure {
        Failure::input(format!("{msg}\n{USAGE}"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&args, &mut out);
    // Output is rendered first and written once, so a reader that closes
    // the pipe early (`pilgrim trace … | head`) cannot make the process
    // panic: the write error is dropped and the exit code stands.
    let _ = std::io::stdout().lock().write_all(out.as_bytes());
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            let _ = writeln!(std::io::stderr(), "pilgrim: {}", f.1);
            ExitCode::from(f.0)
        }
    }
}

fn run(args: &[String], out: &mut String) -> Result<(), Failure> {
    let (sub, rest) = match args.split_first() {
        Some((sub, rest)) => (sub.as_str(), rest),
        None => return Err(Failure::usage("no subcommand given")),
    };
    match sub {
        "replay" => replay_cmd(&Cmdline::parse(rest, &[])?, out),
        "prof" => prof_cmd(&Cmdline::parse(rest, &[])?, out),
        "trace" => trace_cmd(&Cmdline::parse(rest, TRACE_FLAGS)?, out),
        "load" => load_cmd(&Cmdline::parse(rest, LOAD_FLAGS)?, out),
        other => Err(Failure::usage(format!("unknown subcommand `{other}`"))),
    }
}

/// How many values a flag takes.
#[derive(Clone, Copy)]
enum Arity {
    /// A bare switch.
    None,
    /// Exactly one value.
    One,
    /// One value when the next argument is not itself a flag.
    Optional,
}

const TRACE_FLAGS: &[(&str, Arity)] = &[
    ("--slow", Arity::One),
    ("--span", Arity::One),
    ("--tsdb", Arity::Optional),
];

const LOAD_FLAGS: &[(&str, Arity)] = &[
    ("--record", Arity::One),
    ("--report", Arity::One),
    ("--blackbox", Arity::One),
    ("--threads", Arity::One),
    ("--verify-replay", Arity::None),
];

/// A subcommand's arguments: one file path plus the flags given (a
/// repeated flag's last value wins).
struct Cmdline<'a> {
    path: &'a str,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Cmdline<'a> {
    fn parse(args: &'a [String], known: &[(&'static str, Arity)]) -> Result<Cmdline<'a>, Failure> {
        let mut path = None;
        let mut flags = Vec::new();
        let mut it = args.iter().map(String::as_str).peekable();
        while let Some(arg) = it.next() {
            match known.iter().find(|(name, _)| *name == arg) {
                Some(&(name, arity)) => {
                    let value = match arity {
                        Arity::None => None,
                        Arity::One => Some(
                            it.next()
                                .ok_or_else(|| Failure::usage(format!("{name} needs a value")))?,
                        ),
                        Arity::Optional => it.next_if(|v| !v.starts_with("--")),
                    };
                    flags.push((name, value));
                }
                None if !arg.starts_with('-') && path.is_none() => path = Some(arg),
                None => return Err(Failure::usage(format!("unknown argument `{arg}`"))),
            }
        }
        let path = path.ok_or_else(|| Failure::usage("no file given"))?;
        Ok(Cmdline { path, flags })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, v)| *v)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, Failure> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| Failure::usage(format!("{flag} needs a number, not `{v}`")))
            })
            .transpose()
    }
}

fn read(path: &str) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| Failure::input(format!("cannot read {path}: {e}")))
}

fn write(path: &str, text: &str) -> Result<(), Failure> {
    std::fs::write(path, text).map_err(|e| Failure::input(format!("cannot write {path}: {e}")))
}

fn load_artifact(path: &str) -> Result<Artifact, Failure> {
    Artifact::parse(&read(path)?)
        .map_err(|e| Failure::input(format!("{path} is not a replay artifact: {e}")))
}

/// Replays `artifact` on `threads` stepping threads, re-installing any
/// recorded services setup. A replay error is bad input (exit 2); a
/// trace or profile that differs from the recording is a divergence
/// (exit 1).
fn replay_checked(artifact: &Artifact, threads: usize) -> Result<ReplayReport, Failure> {
    let report = replay(artifact, threads, Some(&mut setup_installer()))
        .map_err(|e| Failure::input(format!("replay failed: {e}")))?;
    if let Some(d) = &report.divergence {
        return Err(Failure::failed(format!(
            "DIVERGENCE:\n{}",
            d.report().trim_end()
        )));
    }
    if report.profile_identical == Some(false) {
        return Err(Failure::failed(
            "DIVERGENCE: the replayed profile differs from the recorded one",
        ));
    }
    Ok(report)
}

fn replay_cmd(cmd: &Cmdline, out: &mut String) -> Result<(), Failure> {
    let artifact = load_artifact(cmd.path)?;
    out.push_str(&format!(
        "replaying {}: {} nodes, seed {}, {} stimuli, {} recorded trace bytes\n",
        cmd.path,
        artifact.recipe.nodes,
        artifact.recipe.seed,
        artifact.stimuli.len(),
        artifact.trace.len()
    ));
    let start = Instant::now();
    let report = replay_checked(&artifact, 1)?;
    out.push_str(&format!(
        "OK: {} events replayed identically{} in {:.1}ms\n",
        report.recorded_events,
        if report.byte_identical {
            " (byte-for-byte)"
        } else {
            ""
        },
        start.elapsed().as_secs_f64() * 1e3
    ));
    Ok(())
}

/// Profiling never changes program semantics, so replaying with it forced
/// on re-runs the recorded session exactly, now instrumented — even when
/// the recording never profiled itself.
fn prof_cmd(cmd: &Cmdline, out: &mut String) -> Result<(), Failure> {
    let mut artifact = load_artifact(cmd.path)?;
    artifact.recipe.node_cfg.profile_vm = true;
    out.push_str(&replay_checked(&artifact, 1)?.world.folded_stacks());
    Ok(())
}

fn trace_cmd(cmd: &Cmdline, out: &mut String) -> Result<(), Failure> {
    let slow_k = cmd.number("--slow")?.unwrap_or(5);
    let span = cmd.number::<u64>("--span")?;
    let text = read(cmd.path)?;
    if cmd.has("--tsdb") {
        return tsdb(&text, cmd.value("--tsdb"), out);
    }
    // A recording carries its full trace; a blackbox dump its event ring.
    let events = match Artifact::parse(&text) {
        Ok(artifact) => TraceEvent::parse_jsonl(&artifact.trace)
            .map_err(|e| format!("{}: recorded trace: {e}", cmd.path)),
        Err(_) => match BlackboxSnapshot::parse(&text) {
            Ok(snap) => snap
                .decode_events()
                .map_err(|e| format!("{}: blackbox events: {e}", cmd.path)),
            Err(e) => Err(format!(
                "{} is neither a replay artifact nor a blackbox dump: {e}",
                cmd.path
            )),
        },
    }
    .map_err(Failure::input)?;
    let graph = CausalGraph::from_events(&events);
    out.push_str(&format!(
        "{} events, {} spans\n",
        events.len(),
        graph.spans().len()
    ));
    match span {
        Some(id) => out.push_str(&graph.render_path(id)),
        None => {
            out.push_str(&graph.render_critical());
            out.push_str(&graph.render_slowest(slow_k));
        }
    }
    Ok(())
}

/// The windowed time series a blackbox dump carries — the offline mirror
/// of the REPL's `tsdb` command: every retained series, or only the
/// block whose `tsdb <kind> <name>: …` header names `metric`.
fn tsdb(text: &str, metric: Option<&str>, out: &mut String) -> Result<(), Failure> {
    let snap = BlackboxSnapshot::parse(text)
        .map_err(|e| Failure::input(format!("--tsdb needs a blackbox dump: {e}")))?;
    if snap.series.is_empty() {
        out.push_str("tsdb: no series retained in this dump\n");
        return Ok(());
    }
    let Some(metric) = metric else {
        out.push_str(&snap.series);
        return Ok(());
    };
    let start = out.len();
    let mut keep = false;
    for line in snap.series.lines() {
        if line.starts_with("tsdb ") {
            keep = line
                .split_whitespace()
                .nth(2)
                .map(|n| n.trim_end_matches(':'))
                == Some(metric);
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    if out.len() == start {
        out.push_str(&format!("tsdb: no series named {metric}\n"));
    }
    Ok(())
}

fn load_cmd(cmd: &Cmdline, out: &mut String) -> Result<(), Failure> {
    let threads = match cmd.number("--threads")? {
        Some(0) => return Err(Failure::usage("--threads needs a positive integer")),
        n => n.unwrap_or(1),
    };
    let sc = Scenario::parse(&read(cmd.path)?)
        .map_err(|e| Failure::input(format!("{}: {e}", cmd.path)))?;
    let outcome = run_scenario_threads(&sc, threads).map_err(Failure::input)?;
    out.push_str(&outcome.report);

    let report_path = cmd.value("--report");
    let run_report = report_path.map(|_| render_run_report(&sc, &outcome, REPORT_TOP_K));
    if let (Some(p), Some(text)) = (report_path, &run_report) {
        write(p, text)?;
        out.push_str(&format!("run report: {p}\n"));
    }

    let mut failures: Vec<String> = outcome
        .gate_failures
        .iter()
        .map(|f| format!("gate: {f}"))
        .collect();
    if let Some(p) = cmd.value("--blackbox").filter(|_| !failures.is_empty()) {
        let snap = outcome.world.blackbox_snapshot("load gate failure");
        match write(p, &snap.render()) {
            Ok(()) => out.push_str(&format!("blackbox dumped to {p}\n")),
            Err(f) => failures.push(f.1),
        }
    }

    let verify = cmd.has("--verify-replay");
    let record = cmd.value("--record");
    if record.is_some() || verify {
        let artifact = outcome.world.record();
        if let Some(p) = record {
            write(p, &artifact.render())?;
            out.push_str(&format!("recorded artifact: {p}\n"));
        }
        if verify {
            match replay_checked(&artifact, threads) {
                Ok(r) if r.byte_identical => {
                    out.push_str("replay: byte-identical\n");
                    // The run report is part of the determinism contract:
                    // the replayed world must render it byte for byte.
                    if let Some(text) = &run_report {
                        let re =
                            render_run_report(&sc, &outcome_from_world(&sc, r.world), REPORT_TOP_K);
                        if re == *text {
                            out.push_str("replay: run report byte-identical\n");
                        } else {
                            failures.push("replayed run report differs".to_string());
                        }
                    }
                }
                Ok(_) => failures.push("replayed trace is not byte-identical".to_string()),
                Err(f) => failures.push(f.1),
            }
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(Failure::failed(failures.join("\n")))
    }
}
