//! The `pilgrim` tool, driven as a subprocess.
//!
//! Artifacts written by `pilgrim load --record` replay byte-identically
//! and profile through the same replay path; exit codes separate a
//! divergence (1) from unusable input (2); `trace --tsdb <metric>` picks
//! one series out of a flight-recorder dump; and a reader that closes
//! stdout early never makes the tool panic.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use pilgrim::{replay, Artifact, NetworkConfig, SimTime, Value, World};
use pilgrim_services::setup_installer;

/// A small partitioned star with span sampling and a dense coarse store:
/// light enough for a debug build, rich enough to carry setup markers,
/// losses, a cut and a heal.
const SCENARIO: &str = r#"
name = "tool"
seed = 11
topology = "star"
segments = 2
client_nodes = 6
clients = 64
arrivals = 120
rate = 400
loss = "2%"
partition = "at=100ms heal=200ms link=0:1"
trace = "rpc"
trace_sample = 2
coarse_interval = 8
coarse_budget = 256
"#;

/// A directory of scratch files unique to this process and test,
/// removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("pilgrim-tool-{}-{test}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_str().expect("utf-8 path").to_string()
    }

    fn write(&self, name: &str, text: &str) -> String {
        let path = self.path(name);
        std::fs::write(&path, text).expect("scratch write");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn pilgrim(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pilgrim"));
    cmd.args(args);
    cmd
}

fn run(args: &[&str]) -> Output {
    pilgrim(args).output().expect("pilgrim runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Runs `scenario` through `pilgrim load --record`; returns the
/// artifact's path.
fn record_load(dir: &Scratch, scenario: &str) -> String {
    let artifact = dir.path("load.json");
    let out = run(&["load", scenario, "--record", &artifact]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    artifact
}

fn parse_artifact(path: &str) -> Artifact {
    Artifact::parse(&std::fs::read_to_string(path).expect("artifact readable")).expect("parses")
}

#[test]
fn replay_accepts_a_recorded_load_artifact() {
    let dir = Scratch::new("replay");
    let artifact = record_load(&dir, &dir.write("scenario.toml", SCENARIO));
    assert!(
        !parse_artifact(&artifact).recipe.setup.is_empty(),
        "a load recording carries its services setup"
    );
    let out = run(&["replay", &artifact]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("byte-for-byte"), "{}", stdout(&out));
}

#[test]
fn prof_prints_the_profile_of_the_byte_identical_replay() {
    let dir = Scratch::new("prof");
    let path = record_load(&dir, &dir.write("scenario.toml", SCENARIO));
    let mut artifact = parse_artifact(&path);
    artifact.recipe.node_cfg.profile_vm = true;
    let report = replay(&artifact, 1, Some(&mut setup_installer())).expect("replays");
    assert!(report.byte_identical, "{:?}", report.divergence);
    let folded = report.world.folded_stacks();
    assert!(!folded.is_empty());

    let out = run(&["prof", &path]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), folded);
}

#[test]
fn divergence_exits_1_and_unusable_input_exits_2() {
    let dir = Scratch::new("exit");
    let path = record_load(&dir, &dir.write("scenario.toml", SCENARIO));
    let mut artifact = parse_artifact(&path);
    let mut lines: Vec<String> = artifact.trace.lines().map(String::from).collect();
    let victim = lines.len() / 2;
    let mutated = lines[victim].replacen("\"time_us\": ", "\"time_us\": 9", 1);
    assert_ne!(
        mutated, lines[victim],
        "event {victim} has a time to mutate"
    );
    lines[victim] = mutated;
    artifact.trace = lines.join("\n") + "\n";
    let mutated = dir.write("mutated.json", &artifact.render());
    for sub in ["replay", "prof"] {
        let out = run(&[sub, &mutated]);
        assert_eq!(out.status.code(), Some(1), "{sub}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(&format!("trace divergence at event {victim}")),
            "{sub}: {}",
            stderr(&out)
        );
    }

    let junk = dir.write("junk.txt", "not an artifact\n");
    for sub in ["replay", "prof", "trace"] {
        let out = run(&[sub, &junk]);
        assert_eq!(out.status.code(), Some(2), "{sub}: {}", stderr(&out));
    }

    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let usage = stderr(&out);
    assert!(usage.contains("unknown subcommand `frobnicate`"), "{usage}");
    for sub in ["replay", "prof", "trace", "load"] {
        assert!(usage.contains(&format!("pilgrim {sub} <")), "{usage}");
    }
}

#[test]
fn trace_tsdb_prints_only_the_named_series() {
    const MAIN: &str = "\
ping = proc (x: int) returns (int)
 fail(\"servers implement ping\")
end

main = proc (rounds: int)
 for i: int := 1 to rounds do
  call ping(i) at 1
 end
end";
    const SERVER: &str = "\
ping = proc (x: int) returns (int)
 return (x * 2)
end";
    let mut w = World::builder()
        .nodes(2)
        .program(MAIN)
        .program_for(1, SERVER)
        .network(NetworkConfig {
            p_silent_loss: 0.08,
            ..NetworkConfig::default()
        })
        .seed(0x1055)
        .tsdb(true)
        .build()
        .expect("scenario builds");
    w.spawn(0, "main", vec![Value::Int(4)]);
    w.run_until_idle(SimTime::from_secs(60));
    let snap = w.blackbox_snapshot("tool");
    let blocks = snap
        .series
        .lines()
        .filter(|l| l.starts_with("tsdb "))
        .count();
    assert!(blocks > 1, "the dump must carry several series");

    let dir = Scratch::new("tsdb");
    let dump = dir.write("dump.json", &snap.render());
    let out = run(&["trace", &dump, "--tsdb", "net.sent"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let printed = stdout(&out);
    let headers: Vec<&str> = printed.lines().filter(|l| l.starts_with("tsdb ")).collect();
    assert_eq!(headers.len(), 1, "{printed}");
    assert!(
        headers[0].starts_with("tsdb counter net.sent:"),
        "{printed}"
    );
    assert!(snap.series.contains(&printed), "{printed}");
}

#[test]
fn closed_stdout_ends_with_the_normal_exit_code() {
    let dir = Scratch::new("pipe");
    let scenario = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/partition_1k.toml");
    let artifact = record_load(&dir, scenario);
    let args = ["trace", artifact.as_str(), "--slow", "100000"];
    let full = run(&args);
    assert_eq!(full.status.code(), Some(0), "{}", stderr(&full));
    assert!(
        full.stdout.len() > 1 << 16,
        "the output must overflow a pipe buffer ({} bytes)",
        full.stdout.len()
    );

    let mut child = pilgrim(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pilgrim spawns");
    drop(child.stdout.take());
    let mut err = String::new();
    child
        .stderr
        .take()
        .expect("stderr piped")
        .read_to_string(&mut err)
        .expect("stderr readable");
    let status = child.wait().expect("pilgrim exits");
    assert_eq!(status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
