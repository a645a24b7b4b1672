//! `compute_storm`: CPU-bound CCLU workers on every station, no RPCs, no
//! sleeps, no debugger, stepped on two threads in fixed simulated-time
//! slices. An operation is one worker: spawned at the start of the timed
//! phase, done when its result shows.

use std::fmt::Write as _;
use std::time::Instant;

use pilgrim::{Pid, SimDuration, SimTime, Value, World};
use pilgrim_sim::DetRng;

use crate::common::{replay_phase, time_compile, timed, Fingerprint, Iteration};
use crate::probe::Probe;
use crate::stats::fnv1a;
use crate::Scale;

/// Each worker folds `n` steps of a multiplicative hash into its seed
/// value and returns the result.
const PROGRAM: &str = "\
worker = proc (n: int, a: int) returns (int)
 t: int := a
 for i: int := 1 to n do
  t := (t * 31 + i) // 1000003
 end
 return (t)
end";

const MODULUS: i64 = 1_000_003;
const STEP_THREADS: usize = 2;
/// Simulated time per `run_until` slice.
const SLICE: SimDuration = SimDuration::from_millis(5);
/// How long the workers may take before the run counts as hung.
const HORIZON: SimTime = SimTime::from_secs(600);

/// The workload's generated inputs: one `(station, n, a)` per worker.
pub struct ComputeStorm {
    seed: u64,
    stations: u32,
    workers: Vec<(u32, i64, i64)>,
}

/// What the program must return for one worker.
fn expected(n: i64, a: i64) -> i64 {
    (1..=n).fold(a, |t, i| (t * 31 + i) % MODULUS)
}

impl ComputeStorm {
    /// 8 stations × 125 workers (tiny: 2 × 8); the seed draws each
    /// worker's starting value.
    pub fn new(seed: u64, scale: Scale) -> ComputeStorm {
        let (stations, per_station, n) = match scale {
            Scale::Full => (8, 125, 880),
            Scale::Tiny => (2, 8, 200),
        };
        let mut rng = DetRng::seed(seed ^ 0x636f_6d70_7574_6521); // "compute!"
        let workers = (0..stations * per_station)
            .map(|w| (w % stations, n, rng.below(MODULUS as u64) as i64))
            .collect();
        ComputeStorm {
            seed,
            stations,
            workers,
        }
    }

    /// Set-up, timed phase (spawn + sliced stepping), replay phase.
    pub fn iterate(&self, probe: &mut Probe, id: u64) -> Iteration {
        let mut it = Iteration::default();
        let (world, setup_s) = timed(|| {
            probe.time("core.build_world", id, || {
                World::builder()
                    .nodes(self.stations)
                    .program(PROGRAM)
                    .seed(self.seed)
                    .debugger(false)
                    .step_threads(STEP_THREADS)
                    .build()
            })
        });
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
        let pids: Vec<Pid> = self
            .workers
            .iter()
            .enumerate()
            .map(|(k, &(node, n, a))| {
                probe.time("core.spawn", k as u64, || {
                    world.spawn(node, "worker", vec![Value::Int(n), Value::Int(a)])
                })
            })
            .collect();
        // A worker's latency runs from the start of the phase (all are
        // spawned then) to the end of the slice that first shows its
        // result. Each station runs its workers round-robin with equal
        // work, so they finish in spawn order and one cursor per station
        // finds the newly finished ones.
        let mut next: Vec<usize> = (0..self.stations as usize).collect();
        let mut done = 0;
        let mut slice = 0u64;
        while done < pids.len() && world.now() < HORIZON {
            let until = world.now() + SLICE;
            probe.time("core.run_until", slice, || world.run_until(until));
            slice += 1;
            for cursor in &mut next {
                while let Some(&(node, ..)) = self.workers.get(*cursor) {
                    if world.node(node).exit_values(pids[*cursor]).is_none() {
                        break;
                    }
                    it.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    *cursor += self.stations as usize;
                    done += 1;
                }
            }
        }
        it.timed_s = t0.elapsed().as_secs_f64();
        probe.close_window();

        let mut results = String::new();
        for (&(node, n, a), pid) in self.workers.iter().zip(&pids) {
            let got = world.node(node).exit_values(*pid).map(<[Value]>::to_vec);
            let want = expected(n, a);
            let _ = write!(results, "{got:?};");
            it.check(got == Some(vec![Value::Int(want)]), || {
                format!("worker {pid:?} on station {node} returned {got:?}, expected {want}")
            });
        }
        let mut fp = Fingerprint::of_world(&world);
        fp.digest = fnv1a(results.as_bytes());
        it.fingerprint = fp;

        let t1 = Instant::now();
        probe.begin("bench.replay", id);
        replay_phase(&world, probe, id, STEP_THREADS, &mut it);
        probe.end();
        it.replay_s = t1.elapsed().as_secs_f64();
        it
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_values_fold_the_hash() {
        assert_eq!(expected(0, 5), 5);
        assert_eq!(expected(2, 5), ((5 * 31 + 1) % MODULUS * 31 + 2) % MODULUS);
    }
}
