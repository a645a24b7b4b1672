//! The Pilgrim reproduction's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <million_users|compute_storm|debug_session> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --selftest
//! ```
//!
//! A run repeats the workload (set-up, timed phase, replay phase) until
//! `--seconds` of host time have passed, discards the first iteration as
//! warm-up, and reports medians. A fixed reference pass, timed before
//! every iteration and after the last, gives the host's speed during the
//! run; reported host times are scaled to the nominal speed (see
//! [`reference`]), and the raw ones are printed beside them. Every line
//! but the last is for people: each metric by name with its unit,
//! workload-specific figures, and the deterministic fingerprint. The last
//! line is one JSON object with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). With `--trace 1` every other
//! iteration records spans around each call into the program; they are
//! written to `bench-out/spans-<workload>.jsonl` when the run ends, and
//! the timed phases of traced and untraced iterations give the tracing
//! overhead.
//!
//! The exit code is 0 when every correctness check passed, 1 when one
//! failed, and 2 on a usage error.

mod common;
mod compute_storm;
mod debug_session;
mod million_users;
mod probe;
mod reference;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pilgrim_sim::Json;

use common::Iteration;
use compute_storm::ComputeStorm;
use debug_session::{Cmd, DebugSession};
use million_users::MillionUsers;
use probe::Probe;
use reference::{resident_mb, Reference};
use stats::quantile;

/// Input size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The size the benchmark measures.
    Full,
    /// A few operations, for the self-test.
    Tiny,
}

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["million_users", "compute_storm", "debug_session"];

/// End-to-end metrics: every workload reports every one, with tracing
/// off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_s_per_wall_s", "s/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("replay_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose self time the traced run reports.
const SELF_TIME_LAYERS: [&str; 4] = ["bench", "core", "services", "cclu"];

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = "bench-out";

enum Workload {
    MillionUsers(Box<MillionUsers>),
    ComputeStorm(ComputeStorm),
    DebugSession(DebugSession),
}

impl Workload {
    fn new(name: &str, seed: u64, scale: Scale) -> Option<Workload> {
        Some(match name {
            "million_users" => Workload::MillionUsers(Box::new(MillionUsers::new(seed, scale))),
            "compute_storm" => Workload::ComputeStorm(ComputeStorm::new(seed, scale)),
            "debug_session" => Workload::DebugSession(DebugSession::new(seed, scale)),
            _ => return None,
        })
    }

    fn iterate(&self, probe: &mut Probe, id: u64) -> Iteration {
        match self {
            Workload::MillionUsers(w) => w.iterate(probe, id),
            Workload::ComputeStorm(w) => w.iterate(probe, id),
            Workload::DebugSession(w) => w.iterate(probe, id),
        }
    }
}

/// All iterations of one run.
struct Run {
    /// `(traced, iteration)`; the first is warm-up.
    iters: Vec<(bool, Iteration)>,
    probe: Probe,
    rss_mb: f64,
    /// Host seconds of each reference pass: one before every iteration
    /// and one after the last.
    reference_s: Vec<f64>,
}

impl Run {
    /// Repeats the workload until `budget` has passed (and at least three
    /// times, so a traced run has a traced and an untraced iteration
    /// after the warm-up), with a reference pass before every iteration
    /// and after the last.
    fn execute(w: &Workload, budget: Duration, trace: bool, reference: &mut Reference) -> Run {
        let start = Instant::now();
        let mut probe = Probe::new(false);
        let mut iters = Vec::new();
        let mut reference_s = Vec::new();
        let mut id = 0u64;
        while iters.len() < 3 || start.elapsed() < budget {
            reference_s.push(reference.pass());
            let traced = trace && id % 2 == 1;
            probe.set_on(traced);
            iters.push((traced, w.iterate(&mut probe, id)));
            id += 1;
        }
        reference_s.push(reference.pass());
        Run {
            iters,
            probe,
            rss_mb: resident_mb("VmHWM:") - reference.footprint_mb(),
            reference_s,
        }
    }

    /// The factor that takes this run's host times to the nominal host
    /// speed: [`reference::NOMINAL_S`] ÷ the median reference pass.
    fn scale(&self) -> f64 {
        let r = quantile(&self.reference_s, 0.5);
        if r > 0.0 {
            reference::NOMINAL_S / r
        } else {
            1.0
        }
    }

    /// Measured (post-warm-up) iterations with the given tracing state.
    fn measured(&self, traced: bool) -> impl Iterator<Item = &Iteration> {
        self.iters
            .iter()
            .skip(1)
            .filter(move |(t, _)| *t == traced)
            .map(|(_, it)| it)
    }

    /// The untraced measured iterations, which the end-to-end metrics
    /// come from. `execute` always runs at least one.
    fn plain(&self) -> Vec<&Iteration> {
        self.measured(false).collect()
    }

    fn first(&self) -> &Iteration {
        &self.iters[0].1
    }

    /// Operations of one pass over the generated inputs. Every iteration
    /// repeats the same pass, so the count is a function of the workload
    /// and the seed alone, not of how many iterations the host fitted in.
    fn attempted(&self) -> u64 {
        self.first().attempted
    }

    /// Failed operations of one pass, as [`Run::attempted`] counts them.
    fn failed(&self) -> u64 {
        self.first().failed
    }

    /// Correctness failures, plus any iteration whose fingerprint or
    /// operation counts differ from the first one's.
    fn errors(&self) -> Vec<String> {
        let first = self.first();
        let fp = &first.fingerprint;
        let mut out: Vec<String> = self
            .iters
            .iter()
            .flat_map(|(_, it)| it.errors.iter().cloned())
            .collect();
        for (i, (_, it)) in self.iters.iter().enumerate() {
            if it.fingerprint != *fp {
                out.push(format!(
                    "iteration {i} fingerprint differs: {} vs {}",
                    it.fingerprint.render(),
                    fp.render()
                ));
            }
            if (it.attempted, it.failed) != (first.attempted, first.failed) {
                out.push(format!(
                    "iteration {i} failed {} of {} operations, the first {} of {}",
                    it.failed, it.attempted, first.failed, first.attempted
                ));
            }
        }
        out
    }

    /// The median of a per-iteration figure over the untraced measured
    /// iterations.
    fn median_of(&self, f: impl Fn(&Iteration) -> f64) -> f64 {
        quantile(&self.plain().into_iter().map(f).collect::<Vec<_>>(), 0.5)
    }

    /// Quantile `q` of each iteration's operation latencies, median over
    /// the iterations: a burst of host contention that slows one
    /// iteration cannot move it.
    fn op_ms(&self, q: f64) -> f64 {
        self.median_of(|it| quantile(&it.op_ms, q))
    }

    /// The end-to-end metrics with host times multiplied by `scale`
    /// (rates divided by it).
    fn end_to_end_at(&self, scale: f64) -> Vec<(String, f64, &'static str)> {
        let values = [
            self.median_of(|it| it.setup_s) * scale,
            self.median_of(|it| it.fingerprint.sim_us as f64 / 1e6 / it.timed_s) / scale,
            self.op_ms(0.50) * scale,
            self.op_ms(0.99) * scale,
            self.median_of(|it| it.replay_s) * scale,
            self.rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), v, *unit))
            .collect()
    }

    /// The end-to-end metrics at the nominal host speed.
    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        self.end_to_end_at(self.scale())
    }

    /// Figures that only some workloads define, printed for people; host
    /// times at the nominal host speed.
    fn workload_figures(&self, name: &str) -> Vec<(String, f64, &'static str)> {
        let fp = &self.first().fingerprint;
        let scale = self.scale();
        let timed_s = self.median_of(|it| it.timed_s) * scale;
        let mut out = vec![("timed_s".to_string(), timed_s, "s")];
        if fp.rpc_started > 0 {
            out.push((
                "host_us_per_rpc".into(),
                timed_s * 1e6 / fp.rpc_started as f64,
                "us",
            ));
        }
        if name == "debug_session" {
            let samples: usize = self.plain().iter().map(|it| it.op_ms.len()).sum();
            out.push(("cmd_p50_ms".into(), self.op_ms(0.50) * scale, "ms"));
            out.push(("cmd_p99_ms".into(), self.op_ms(0.99) * scale, "ms"));
            out.push(("cmd_samples".into(), samples as f64, "count"));
        }
        let (a, f) = (self.attempted(), self.failed());
        out.push(("attempted_ops".into(), a as f64, "count"));
        out.push(("failed_ops".into(), f as f64, "count"));
        out.push((
            "failed_op_ratio".into(),
            f as f64 / a.max(1) as f64,
            "ratio",
        ));
        out
    }

    fn per_layer(&self) -> Vec<(String, f64, &'static str)> {
        let traced: Vec<&Iteration> = self.measured(true).collect();
        let n = traced.len().max(1) as f64;
        let p = &self.probe;
        let fp = &self.first().fingerprint;
        let off = self.median_of(|it| it.timed_s);
        let timed_us = off * 1e6;
        let per_iter_ms = |span: &str| p.durations_us(span).iter().sum::<f64>() / n / 1e3;
        let ratio = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
        let mut out: Vec<(String, f64, &'static str)> = Vec::new();
        // Host times at the nominal host speed, as the end-to-end ones.
        let scale = self.scale();
        let mut put = |name: &str, v: f64, unit: &'static str| {
            let v = if matches!(unit, "ns" | "us" | "ms") {
                v * scale
            } else {
                v
            };
            out.push((name.to_string(), v, unit));
        };
        for call in ["core.run_until", "core.spawn"] {
            let d = p.durations_us(call);
            put(&format!("{call}.us_sum"), d.iter().sum::<f64>() / n, "us");
            put(&format!("{call}.us_p50"), quantile(&d, 0.50), "us");
            put(&format!("{call}.us_p99"), quantile(&d, 0.99), "us");
            put(&format!("{call}.count"), d.len() as f64 / n, "count");
        }
        put(
            "core.run_until_idle.ms",
            per_iter_ms("core.run_until_idle"),
            "ms",
        );
        put("cclu.vm_steps", fp.vm_steps as f64, "count");
        put(
            "cclu.host_ns_per_step",
            ratio(timed_us * 1e3, fp.vm_steps),
            "ns",
        );
        put("ring.net.sent", fp.packets as f64, "count");
        put("ring.net.delivered", fp.delivered as f64, "count");
        put("ring.net.bytes_sent", fp.bytes as f64, "count");
        put("ring.net.bridge_lost", fp.bridge_lost as f64, "count");
        put("ring.host_us_per_packet", ratio(timed_us, fp.packets), "us");
        put("rpc.started", fp.rpc_started as f64, "count");
        put("rpc.completed", fp.rpc_completed as f64, "count");
        put("rpc.failed", fp.rpc_failed as f64, "count");
        put("rpc.retransmits", fp.rpc_retransmits as f64, "count");
        put(
            "rpc.goodput",
            ratio(fp.rpc_completed as f64, fp.rpc_started),
            "ratio",
        );
        for span in [
            "services.build_load_world",
            "core.build_world",
            "cclu.compile",
            "services.render_run_report",
            "core.record",
            "core.artifact_render",
            "core.artifact_parse",
            "core.replay",
        ] {
            put(&format!("{span}.ms"), per_iter_ms(span), "ms");
        }
        put("core.journal.stimuli", fp.stimuli as f64, "count");
        put("core.artifact.bytes", fp.artifact_bytes as f64, "count");
        put(
            "core.trace.recorded_events",
            fp.recorded_events as f64,
            "count",
        );
        for kind in Cmd::ALL {
            let mut lat = Vec::new();
            let (mut errors, mut sim_us) = (0u64, 0u64);
            for it in &traced {
                if let Some(s) = it.cmds.get(kind.name()) {
                    lat.extend_from_slice(&s.lat_us);
                    errors += s.errors;
                    sim_us += s.sim_us;
                }
            }
            let k = format!("core.dbg.{}", kind.name());
            put(&format!("{k}.p50_us"), quantile(&lat, 0.50), "us");
            put(&format!("{k}.p99_us"), quantile(&lat, 0.99), "us");
            put(&format!("{k}.count"), lat.len() as f64 / n, "count");
            put(&format!("{k}.errors"), errors as f64 / n, "count");
            put(
                &format!("{k}.sim_us"),
                ratio(sim_us as f64, lat.len() as u64),
                "sim_us",
            );
        }
        let self_ms = p.layer_self_ms();
        for layer in SELF_TIME_LAYERS {
            let v = self_ms.get(layer).copied().unwrap_or(0.0) / n;
            put(&format!("{layer}.self_ms"), v, "ms");
        }
        let on = quantile(&traced.iter().map(|it| it.timed_s).collect::<Vec<_>>(), 0.5);
        let overhead = if off > 0.0 {
            (on / off - 1.0) * 100.0
        } else {
            0.0
        };
        put("bench.trace.overhead_pct", overhead, "%");
        put("bench.trace.root_coverage", p.root_coverage(), "ratio");
        put("bench.trace.spans", p.spans().len() as f64 / n, "count");
        // The pass itself as measured: how fast the host ran.
        out.push((
            "bench.reference.pass_ms".into(),
            quantile(&self.reference_s, 0.5) * 1e3,
            "ms",
        ));
        out
    }
}

/// The names and units of every per-layer metric, in report order.
fn per_layer_table() -> Vec<(String, &'static str)> {
    let run = Run {
        iters: vec![(false, Iteration::default())],
        probe: Probe::new(false),
        rss_mb: 0.0,
        reference_s: Vec::new(),
    };
    run.per_layer()
        .into_iter()
        .map(|(n, _, u)| (n, u))
        .collect()
}

fn json_metrics(ms: &[(String, f64, &'static str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, v, unit)) in ms.iter().enumerate() {
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn print_metrics(title: &str, ms: &[(String, f64, &'static str)]) {
    for (name, v, unit) in ms {
        let v = *v + 0.0;
        println!("{title:<9} {name:<40} {v:>16.6} {unit}");
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds needs an integer")?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--selftest") {
        return selftest();
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    let Some(w) = Workload::new(&a.workload, a.seed, Scale::Full) else {
        return usage(&format!("unknown workload `{}`", a.workload));
    };
    let mut reference = Reference::new();
    let run = Run::execute(&w, Duration::from_secs(a.seconds), a.trace, &mut reference);

    println!(
        "workload {} seed {} iterations {} (first is warm-up) trace {}",
        a.workload,
        a.seed,
        run.iters.len(),
        u8::from(a.trace)
    );
    println!(
        "fingerprint {} seed={} {}",
        a.workload,
        a.seed,
        run.first().fingerprint.render()
    );
    for (i, (traced, it)) in run.iters.iter().enumerate() {
        println!(
            "iteration {i} traced {} setup_s {:.6} timed_s {:.6} replay_s {:.6}",
            u8::from(*traced),
            it.setup_s,
            it.timed_s,
            it.replay_s
        );
    }
    let e2e = run.end_to_end();
    print_metrics("e2e", &e2e);
    print_metrics("raw", &run.end_to_end_at(1.0));
    println!(
        "reference pass median {:.6} s over {} passes, scale {:.6}, table {:.1} MiB (not in peak_rss_mb)",
        quantile(&run.reference_s, 0.5),
        run.reference_s.len(),
        run.scale(),
        reference.footprint_mb()
    );
    print_metrics("workload", &run.workload_figures(&a.workload));
    let layers = if a.trace {
        let layers = run.per_layer();
        print_metrics("layer", &layers);
        let path = format!("{SPAN_DIR}/spans-{}.jsonl", a.workload);
        match std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, run.probe.write_jsonl()))
        {
            Ok(()) => println!("spans {path}"),
            Err(e) => eprintln!("bench: cannot write {path}: {e}"),
        }
        layers
    } else {
        Vec::new()
    };
    let errors = run.errors();
    for e in &errors {
        eprintln!("bench: check failed: {e}");
    }
    let metrics = if a.trace { &layers } else { &e2e };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        run.attempted(),
        run.failed(),
        json_metrics(metrics)
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("bench: {err}");
    eprintln!(
        "usage: bench --workload <{}> --seed <n> --seconds <n> --trace <0|1> | bench --selftest",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// Is `name` a valid metric or workload name?
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// The benchmark's self-test at a tiny scale: names and units agree with
/// `BENCHMARK.json`, every workload passes its checks with a fingerprint
/// that repeats at one seed and changes with the seed, and a traced
/// iteration's span file parses with no negative self time.
fn selftest() -> ExitCode {
    let mut fails: Vec<String> = Vec::new();
    let mut fail = |m: String| {
        eprintln!("selftest: FAIL {m}");
        fails.push(m);
    };

    match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Json::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(doc) => {
            let e2e: Vec<(String, String)> = END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            let layers: Vec<(String, String)> = per_layer_table()
                .into_iter()
                .map(|(n, u)| (n, u.to_string()))
                .collect();
            if declared(&doc, "end_to_end") != e2e {
                fail("BENCHMARK.json end_to_end differs from what the benchmark prints".into());
            }
            if declared(&doc, "per_layer") != layers {
                fail("BENCHMARK.json per_layer differs from what the benchmark prints".into());
            }
            let workloads: Vec<String> = declared(&doc, "workloads")
                .into_iter()
                .map(|w| w.0)
                .collect();
            if workloads != WORKLOADS {
                fail(format!(
                    "BENCHMARK.json workloads {workloads:?} != {WORKLOADS:?}"
                ));
            }
            for (name, unit) in e2e.iter().chain(&layers) {
                if !valid_name(name) || unit.is_empty() {
                    fail(format!("metric `{name}` has a bad name or no unit"));
                }
            }
        }
        Err(e) => fail(format!("cannot read BENCHMARK.json: {e}")),
    }

    let mut reference = Reference::new();
    let reference_s = vec![reference.pass(), reference.pass()];
    if reference_s.iter().any(|r| *r <= 0.0) || reference.footprint_mb() <= 0.0 {
        fail(format!(
            "reference passes {reference_s:?}, footprint {} MiB",
            reference.footprint_mb()
        ));
    }

    for name in WORKLOADS {
        let w = Workload::new(name, 1, Scale::Tiny).expect("known workload");
        let mut probe = Probe::new(true);
        let a = w.iterate(&mut probe, 0);
        probe.set_on(false);
        let b = w.iterate(&mut probe, 1);
        let other = Workload::new(name, 2, Scale::Tiny)
            .expect("known workload")
            .iterate(&mut probe, 2);
        for e in a.errors.iter().chain(&b.errors).chain(&other.errors) {
            fail(format!("{name}: {e}"));
        }
        if a.fingerprint != b.fingerprint {
            fail(format!("{name}: fingerprint does not repeat at one seed"));
        }
        if a.fingerprint == other.fingerprint {
            fail(format!("{name}: fingerprint does not change with the seed"));
        }
        println!("selftest {name} fingerprint {}", a.fingerprint.render());

        let run = Run {
            iters: vec![(false, Iteration::default()), (true, a), (false, b)],
            probe,
            rss_mb: resident_mb("VmHWM:") - reference.footprint_mb(),
            reference_s: reference_s.clone(),
        };
        for (m, v, unit) in run.end_to_end() {
            if v <= 0.0 || !v.is_finite() {
                fail(format!(
                    "{name}: end-to-end metric {m} = {v} {unit} is not positive"
                ));
            }
        }
        let coverage = run.probe.root_coverage();
        if coverage < 0.95 {
            fail(format!(
                "{name}: root spans cover {coverage:.3} of the timed phase"
            ));
        }
        let path = format!("{SPAN_DIR}/selftest-{name}.jsonl");
        let written = std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, run.probe.write_jsonl()))
            .and_then(|()| std::fs::read_to_string(&path));
        match written {
            Ok(text) => {
                for (i, line) in text.lines().enumerate() {
                    match Json::parse(line) {
                        Ok(span) => {
                            let self_ns = span.get("self_ns").and_then(Json::as_i64);
                            let parent = span.get("parent").and_then(Json::as_u64);
                            if !matches!(self_ns, Some(ns) if ns >= 0) {
                                fail(format!("{path}:{}: self time {self_ns:?}", i + 1));
                            }
                            if parent.is_some_and(|p| p as usize >= i) {
                                fail(format!("{path}:{}: parent after child", i + 1));
                            }
                        }
                        Err(e) => fail(format!("{path}:{}: {e}", i + 1)),
                    }
                }
            }
            Err(e) => fail(format!("{path}: {e}")),
        }
    }

    if fails.is_empty() {
        println!("selftest: ok");
        ExitCode::SUCCESS
    } else {
        eprintln!("selftest: {} failure(s)", fails.len());
        ExitCode::from(1)
    }
}
