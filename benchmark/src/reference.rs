//! The host-speed reference: a fixed pass of work that owes nothing to
//! the program, timed between iterations so that a run can report its
//! host times at one nominal host speed.
//!
//! A shared host runs the same iteration anywhere from 1× to 3× its
//! fastest time, in phases of seconds to minutes, as other tenants load
//! the cores and the memory system. Runs minutes apart then differ by
//! more than any bound worth gating. The reference pass slows with the
//! host the way the program does: it runs on the benchmark's own thread,
//! so it sees the core the program sees, and it mixes the program's kinds
//! of work: register-only arithmetic, random updates in a hash table far
//! larger than the core's caches, and churn in a B-tree whose values are
//! short-lived heap allocations. Scaling a run's median host times by
//! `NOMINAL_S ÷ median pass time` takes most of the drift out, and leaves
//! a change to the program whole, since the pass runs no program code.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Host seconds the pass takes on a quiet host of the kind the
/// benchmark was built on (a 2-vCPU VM); it only fixes the scale of the
/// reported times.
pub const NOMINAL_S: f64 = 0.045;

/// Rounds of the arithmetic loop per pass.
const ALU_ROUNDS: u64 = 8_000_000;
/// Entries of the hash table (about 40 MiB with its key list).
const TABLE_LEN: usize = 1 << 20;
/// Hash-table updates per pass.
const UPDATES: usize = 80_000;
/// Entries of the B-tree, each owning a small vector.
const TREE_LEN: u64 = 200_000;
/// B-tree entries taken out and put back with a new vector, per pass.
const REINSERTS: u64 = 40_000;

/// Spreads B-tree keys over the whole `u64` range.
const KEY_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// A hash table laid out the same way in every run (the default hasher
/// draws fresh keys per process).
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The reference workload and its tables.
pub struct Reference {
    table: Table,
    keys: Vec<u64>,
    tree: BTreeMap<u64, Vec<u64>>,
    /// Resident memory the tables added, in MiB.
    footprint_mb: f64,
}

impl Reference {
    /// Builds the tables and notes how much resident memory they took.
    pub fn new() -> Reference {
        let before = resident_mb("VmRSS:");
        let mut x = KEY_MIX;
        let mut keys = Vec::with_capacity(TABLE_LEN);
        let mut table = Table::with_capacity_and_hasher(TABLE_LEN, Default::default());
        for _ in 0..TABLE_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            keys.push(x);
            table.insert(x, x >> 3);
        }
        let tree = (0..TREE_LEN)
            .map(|k| (k.wrapping_mul(KEY_MIX), vec![k; 4]))
            .collect();
        let footprint_mb = (resident_mb("VmRSS:") - before).max(0.0);
        Reference {
            table,
            keys,
            tree,
            footprint_mb,
        }
    }

    /// Resident memory the tables hold, in MiB, to take out of the run's
    /// peak.
    pub fn footprint_mb(&self) -> f64 {
        self.footprint_mb
    }

    /// Host seconds of one pass.
    pub fn pass(&mut self) -> f64 {
        let t = Instant::now();
        let mut a = 1u64;
        for i in 0..ALU_ROUNDS {
            a = a
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i ^ (a >> 33));
        }
        let n = self.keys.len();
        let mut i = 7usize;
        for k in 0..UPDATES {
            i = (i.wrapping_mul(2_654_435_761) + k) % n;
            if let Some(v) = self.table.get_mut(&self.keys[i]) {
                *v = v.wrapping_add(a | 1);
                a ^= *v;
            }
            if k % 8 == 0 {
                let short_lived = vec![a; 16];
                a = a.wrapping_add(std::hint::black_box(short_lived)[3]);
            }
        }
        for k in 0..REINSERTS {
            let key = (k.wrapping_mul(7919) % TREE_LEN).wrapping_mul(KEY_MIX);
            if let Some(old) = self.tree.remove(&key) {
                let mut new = Vec::with_capacity(old.len());
                new.extend_from_slice(&old[1..]);
                new.push(a);
                self.tree.insert(key, new);
            }
        }
        std::hint::black_box(a);
        t.elapsed().as_secs_f64()
    }
}

/// A `/proc/self/status` memory line (`VmRSS:`, `VmHWM:`), in MiB.
pub fn resident_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
