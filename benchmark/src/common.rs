//! What one iteration of a workload measures, and the replay phase every
//! workload ends with.

use std::collections::BTreeMap;
use std::time::Instant;

use pilgrim::{Artifact, Pid, RunState, World};
use pilgrim_services::replay_load_artifact;

use crate::probe::Probe;

/// Deterministic work counts of one iteration. Equal seeds must give
/// equal fingerprints; different seeds should not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Σ `steps_total` over the user nodes (VM instructions).
    pub vm_steps: u64,
    /// `net.sent`.
    pub packets: u64,
    /// `net.delivered`.
    pub delivered: u64,
    /// `net.bytes_sent`.
    pub bytes: u64,
    /// `net.bridge_lost`.
    pub bridge_lost: u64,
    /// `rpc.started`.
    pub rpc_started: u64,
    /// `rpc.completed`.
    pub rpc_completed: u64,
    /// `rpc.failed`.
    pub rpc_failed: u64,
    /// `rpc.retransmits`.
    pub rpc_retransmits: u64,
    /// Journal length (recorded stimuli).
    pub stimuli: u64,
    /// Rendered artifact size in bytes.
    pub artifact_bytes: u64,
    /// Events in the recorded trace.
    pub recorded_events: u64,
    /// Simulated microseconds the timed phase covered.
    pub sim_us: u64,
    /// Digest of the workload's outputs (run report, worker results, or
    /// command transcript).
    pub digest: u64,
}

impl Fingerprint {
    /// Reads the layer counters of a finished world.
    pub fn of_world(world: &World) -> Fingerprint {
        let c = |name: &str| world.metrics().counter_value(name).unwrap_or(0);
        Fingerprint {
            vm_steps: (0..world.user_nodes())
                .map(|i| world.node(i).steps_total())
                .sum(),
            packets: c("net.sent"),
            delivered: c("net.delivered"),
            bytes: c("net.bytes_sent"),
            bridge_lost: c("net.bridge_lost"),
            rpc_started: c("rpc.started"),
            rpc_completed: c("rpc.completed"),
            rpc_failed: c("rpc.failed"),
            rpc_retransmits: c("rpc.retransmits"),
            stimuli: world.journal().len() as u64,
            sim_us: world.now().as_micros(),
            ..Fingerprint::default()
        }
    }

    /// One `key=value` line.
    pub fn render(&self) -> String {
        format!(
            "vm_steps={} packets={} delivered={} bytes={} bridge_lost={} rpc_started={} \
             rpc_completed={} rpc_failed={} rpc_retransmits={} stimuli={} artifact_bytes={} \
             recorded_events={} sim_us={} digest={:016x}",
            self.vm_steps,
            self.packets,
            self.delivered,
            self.bytes,
            self.bridge_lost,
            self.rpc_started,
            self.rpc_completed,
            self.rpc_failed,
            self.rpc_retransmits,
            self.stimuli,
            self.artifact_bytes,
            self.recorded_events,
            self.sim_us,
            self.digest
        )
    }
}

/// Host latencies and outcomes of one kind of debugger command.
#[derive(Debug, Clone, Default)]
pub struct CmdStats {
    /// Host microseconds per command.
    pub lat_us: Vec<f64>,
    /// Commands that returned an error (a timeout, an agent error), and
    /// disconnects that did not reach every agent.
    pub errors: u64,
    /// Simulated microseconds the commands pumped, summed.
    pub sim_us: u64,
}

/// Everything one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds to build the world.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Host seconds of the replay phase.
    pub replay_s: f64,
    /// Host milliseconds per operation of the timed phase.
    pub op_ms: Vec<f64>,
    /// Operations attempted (arrivals, commands, worker checks, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness failures: wrong outputs, not drained, replay differs.
    pub errors: Vec<String>,
    /// Deterministic work counts.
    pub fingerprint: Fingerprint,
    /// Per-kind debugger command statistics (`debug_session` only).
    pub cmds: BTreeMap<&'static str, CmdStats>,
}

impl Iteration {
    /// Records one pass/fail check as an operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }
}

/// The replay phase: record the finished world, render the artifact,
/// parse it back, replay it, and require a byte-identical trace. Returns
/// the replayed world so the caller can compare further outputs inside
/// the same phase (the caller opens and closes the `bench.replay` span
/// and the phase clock around this call).
pub fn replay_phase(
    world: &World,
    probe: &mut Probe,
    id: u64,
    threads: usize,
    it: &mut Iteration,
) -> Option<World> {
    let artifact = probe.time("core.record", id, || world.record());
    let text = probe.time("core.artifact_render", id, || artifact.render());
    it.fingerprint.artifact_bytes = text.len() as u64;
    let parsed = match probe.time("core.artifact_parse", id, || Artifact::parse(&text)) {
        Ok(a) => a,
        Err(e) => {
            it.check(false, || format!("artifact does not parse back: {e}"));
            return None;
        }
    };
    match probe.time("core.replay", id, || replay_load_artifact(&parsed, threads)) {
        Ok(r) => {
            it.fingerprint.recorded_events = r.recorded_events as u64;
            it.check(r.divergence.is_none() && r.byte_identical, || {
                format!(
                    "replay is not byte-identical (divergence {:?})",
                    r.divergence
                )
            });
            Some(r.world)
        }
        Err(e) => {
            it.check(false, || format!("replay failed: {e}"));
            None
        }
    }
}

/// Counts each client operation as attempted, and as failed when its
/// process faulted (an RPC that ran out of retries).
pub fn count_faulted(world: &World, spawned: &[(u32, Pid)], it: &mut Iteration) {
    for &(node, pid) in spawned {
        it.attempted += 1;
        let faulted = world
            .node(node)
            .process(pid)
            .is_some_and(|p| matches!(p.state, RunState::Faulted(_)));
        if faulted {
            it.failed += 1;
        }
    }
}

/// Times a fresh compile of every program the world was built from.
/// Traced iterations only: it repeats work the set-up already did, so
/// it runs outside the set-up clock.
pub fn time_compile(probe: &mut Probe, world: &World, id: u64) {
    let recipe = world.recipe();
    let sources = recipe
        .default_source
        .iter()
        .chain(recipe.per_node_source.iter().map(|(_, s)| s));
    probe.time("cclu.compile", id, || {
        for src in sources {
            std::hint::black_box(pilgrim_cclu::compile(src).is_ok());
        }
    });
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
