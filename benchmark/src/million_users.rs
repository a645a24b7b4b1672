//! `million_users`: the committed headline scenario, open loop, stepped
//! serially, at the benchmark's seed.

use std::time::Instant;

use pilgrim::{SimDuration, SimTime, Value};
use pilgrim_services::{
    build_load_world, outcome_from_world, render_run_report, Scenario, AOT_NODE, FIRST_CLIENT_NODE,
    NS_NODE,
};
use pilgrim_sim::{Arrival, DetRng, OpenLoop};

use crate::common::{count_faulted, replay_phase, time_compile, timed, Fingerprint, Iteration};
use crate::probe::Probe;
use crate::stats::fnv1a;
use crate::Scale;

const SCENARIO: &str = include_str!("../../scenarios/million_users.toml");

/// How many slowest spans the run report lists (as `pilgrim-load`).
const REPORT_TOP_K: usize = 5;

/// The workload's generated inputs.
pub struct MillionUsers {
    sc: Scenario,
    arrivals: Vec<Arrival>,
}

impl MillionUsers {
    /// The committed scenario with its seed replaced; the tiny scale
    /// issues 300 arrivals from 8 client stations.
    pub fn new(seed: u64, scale: Scale) -> MillionUsers {
        let mut sc = Scenario::parse(SCENARIO).expect("committed scenario parses");
        sc.seed = seed;
        if scale == Scale::Tiny {
            sc.arrivals = 300;
            sc.client_nodes = 8;
        }
        // The open-loop schedule is drawn exactly as `pilgrim-load` draws
        // it, so the run report matches the tool's at the same seed.
        let mut rng = DetRng::seed(sc.seed ^ 0x6f70_656e_2d6c_6f61);
        let arrivals = OpenLoop::new(&mut rng, sc.rate, sc.clients, sc.mix.clone())
            .take(sc.arrivals as usize)
            .collect();
        MillionUsers { sc, arrivals }
    }

    /// Set-up, timed phase (drive + drain + run report), replay phase.
    pub fn iterate(&self, probe: &mut Probe, id: u64) -> Iteration {
        let sc = &self.sc;
        let mut it = Iteration::default();
        let (world, setup_s) =
            timed(|| probe.time("services.build_load_world", id, || build_load_world(sc)));
        it.setup_s = setup_s;
        let mut world = match world {
            Ok(w) => w,
            Err(e) => {
                it.check(false, || format!("world does not build: {e}"));
                return it;
            }
        };
        if probe.is_on() {
            time_compile(probe, &world, id);
        }

        probe.open_window();
        let t0 = Instant::now();
        let mut last_at = SimTime::ZERO;
        let mut spawned = Vec::with_capacity(self.arrivals.len());
        for (k, a) in self.arrivals.iter().enumerate() {
            let k = k as u64;
            let op = Instant::now();
            let node = FIRST_CLIENT_NODE + (a.client % u64::from(sc.client_nodes)) as u32;
            let ns = Value::Int(i64::from(NS_NODE));
            let key = Value::Int((k % 16) as i64);
            let (entry, args) = match a.op.as_str() {
                "lookup" => ("op_lookup", vec![ns]),
                "read" => ("op_read", vec![ns, Value::Int(i64::from(node)), key]),
                "write" => ("op_write", vec![ns, key]),
                _ => ("op_auth", vec![Value::Int(i64::from(AOT_NODE))]),
            };
            probe.begin("bench.arrival", k);
            probe.time("core.run_until", k, || world.run_until(a.at));
            let pid = probe.time("core.spawn", k, || world.spawn(node, entry, args));
            probe.end();
            it.op_ms.push(op.elapsed().as_secs_f64() * 1e3);
            spawned.push((node, pid));
            last_at = a.at;
        }
        let drain_by = last_at + sc.aot_lifetime + SimDuration::from_secs(30);
        probe.time("core.run_until_idle", id, || world.run_until_idle(drain_by));
        let outcome = probe.time("services.outcome_from_world", id, || {
            outcome_from_world(sc, world)
        });
        let report = probe.time("services.render_run_report", id, || {
            render_run_report(sc, &outcome, REPORT_TOP_K)
        });
        it.timed_s = t0.elapsed().as_secs_f64();
        probe.close_window();

        let mut fp = Fingerprint::of_world(&outcome.world);
        count_faulted(&outcome.world, &spawned, &mut it);
        it.check(outcome.drained, || {
            "the world did not drain before its deadline".into()
        });
        it.check(fp.rpc_started == fp.rpc_completed + fp.rpc_failed, || {
            format!(
                "rpc.started {} != rpc.completed {} + rpc.failed {} after drain",
                fp.rpc_started, fp.rpc_completed, fp.rpc_failed
            )
        });
        fp.digest = fnv1a(report.as_bytes());
        it.fingerprint = fp;

        let t1 = Instant::now();
        probe.begin("bench.replay", id);
        if let Some(replayed) = replay_phase(&outcome.world, probe, id, 1, &mut it) {
            let again = probe.time("services.outcome_from_world", id, || {
                outcome_from_world(sc, replayed)
            });
            let re = probe.time("services.render_run_report", id, || {
                render_run_report(sc, &again, REPORT_TOP_K)
            });
            it.check(re == report, || "replayed run report differs".into());
        }
        probe.end();
        it.replay_s = t1.elapsed().as_secs_f64();
        it
    }
}
