//! Telemetry-plane acceptance (`swprof::slo`): its end-to-end contract
//! on the fixed chaos fixture (seed 11, 240 jobs, 4 workers — the same
//! fixture `swserve loadgen --chaos` and EXPERIMENTS.md record).
//!
//! One sequential test asserting the plane's acceptance criteria:
//!
//! 1. a fast-burn alert fires deterministically **mid-run** — after
//!    the first window closes, before the makespan;
//! 2. the alert's exemplar trace id resolves to a real span chain in
//!    the causal-checked merged Chrome timeline (the `job.deliver`
//!    flow pair, whose send hangs off a live scheduler span);
//! 3. two replays of the same seed produce **byte-identical**
//!    dashboard JSON and `BENCH_swscope.json` renders;
//! 4. the merged sketch's p99 is within the declared relative error
//!    bound of the exact sorted-order percentile;
//! 5. kill flight-recorder entries carry the victim job id, so an
//!    availability alert's post-mortem resolves past the trace into
//!    the black box.

use std::path::PathBuf;

use swfault::{FaultPlan, Site};
use swgmx::engine::Version;
use swgmx::BackendSel;
use swprof::json::{parse, Value};
use swprof::slo::burn::AlertKind;
use swprof::slo::{dash, sketch, window};
use swprof::tel;
use swserve::loadgen::{self, LoadPlan};
use swserve::service::{Service, ServiceConfig};
use swserve::{JobSpec, Priority};

const N_JOBS: usize = 240;
const N_WORKERS: usize = 4;
const SEED: u64 = 11;

fn store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swscope-acc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Replay {
    result: loadgen::RunResult,
    dash: String,
    bench: String,
    chrome: Value,
    n_alerts: usize,
    fast_burns: Vec<(u64, Option<window::Exemplar>)>,
}

fn replay(tag: &str) -> Replay {
    let plan = LoadPlan::standard(SEED, N_JOBS, N_WORKERS).with_chaos();
    let session = tel::Session::begin(SEED);
    let run = loadgen::run_scoped(&plan, &store(tag));
    let tel = session.finish();
    let (result, scope) = run.expect("chaos replay");

    tel.check_causal().expect("merged timeline is causal");
    let chrome = parse(&tel.to_chrome_trace()).expect("chrome trace parses");

    let fast_burns = scope
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::FastBurn)
        .map(|a| (a.at_ns, a.exemplar))
        .collect();
    Replay {
        dash: dash::snapshot_json(&scope, u64::MAX),
        bench: loadgen::scope_bench(&scope, &result.slo, true).to_json(),
        chrome,
        n_alerts: scope.alerts().len(),
        fast_burns,
        result,
    }
}

/// Scripted single-job kill: worker 0 dies at its first quantum
/// boundary, and the flight-recorder entry for the kill must name the
/// victim job. The service loop records into the ring its caller
/// arms; the job's own records go to its runner's.
fn kill_record_names_victim_job() {
    let ring = tel::flight::Ring::new();
    let _armed = ring.enter();
    let plan = FaultPlan::with_seed(3).one_shot(Site::RankKill, Some(0), 0);
    let scope = swfault::install(plan);
    let dir = store("kill");
    let mut svc = Service::new(ServiceConfig::new(1, &dir)).expect("service");
    svc.submit_at(
        0,
        JobSpec {
            tenant: 0,
            n_mol: 8,
            version: Version::Other,
            backend: BackendSel::Metered,
            steps: 12,
            seed: 77,
            priority: Priority::Normal,
            deadline_ns: None,
        },
    );
    svc.run_to_completion().expect("run");
    scope.finish();
    assert_eq!(svc.stats().worker_kills, 1);
    assert_eq!(svc.stats().completed, 1, "killed job recovered");

    let kills: Vec<(u64, u64)> = ring
        .snapshot()
        .into_iter()
        .filter(|ev| ev.kind == "serve" && ev.label == "worker_kill")
        .map(|ev| (ev.a, ev.b))
        .collect();
    assert_eq!(
        kills,
        vec![(0, 0)],
        "kill record should carry (worker 0, victim job 0)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_fixture_alerts_exemplars_and_replay_determinism() {
    swserve::quiet_injected_panics();
    let first = replay("a");
    let second = replay("b");

    // (1) A fast-burn alert fires mid-run: strictly after the first
    // window close, strictly before the end of the campaign.
    let makespan = first.result.slo.makespan_ns;
    let (at, exemplar) = *first.fast_burns.first().expect("a fast-burn alert fired");
    assert!(
        at > 0 && at < makespan,
        "fast burn at {at} vs makespan {makespan}"
    );
    assert!(first.n_alerts >= 2, "expected burn alerts plus clears");

    // (2) The exemplar trace id resolves to a real span chain in the
    // merged Chrome timeline: a `job.deliver` send/receive flow pair
    // with that id, whose send is parented on a recorded span.
    let ex = exemplar.expect("latency fast-burn carries a worst-case exemplar");
    assert!(ex.trace != 0, "exemplar trace id populated under tracing");
    let events = first
        .chrome
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    let flow = |ph: &str| {
        events.iter().find(|e| {
            e.get("ph").and_then(Value::as_str) == Some(ph)
                && e.get("id").and_then(Value::as_num) == Some(ex.trace as f64)
        })
    };
    let send = flow("s").expect("exemplar flow send on timeline");
    let recv = flow("f").expect("exemplar flow receive on timeline");
    for ev in [send, recv] {
        assert_eq!(ev.get("name").and_then(Value::as_str), Some("job.deliver"));
    }
    let parent = send
        .get("args")
        .and_then(|a| a.get("parent_span_id"))
        .and_then(Value::as_num)
        .expect("flow send carries parent span id");
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("B")
                && e.get("args")
                    .and_then(|a| a.get("span_id"))
                    .and_then(Value::as_num)
                    == Some(parent)
        }),
        "exemplar flow parents onto a live span (span_id {parent})"
    );
    // The alert itself is on the timeline as a scheduler-rank span.
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some(AlertKind::FastBurn.label())),
        "fast-burn alert span on the merged timeline"
    );

    // (3) Byte-identical replays: dashboard JSON and the
    // BENCH_swscope.json sidecar.
    assert_eq!(first.dash, second.dash, "dashboard JSON not byte-identical");
    assert_eq!(
        first.bench, second.bench,
        "bench sidecar not byte-identical"
    );
    assert_eq!(first.fast_burns, second.fast_burns, "alert stream diverged");

    // (4) Sketch p99 within the declared error bound of the exact
    // sorted-order percentile the SLO report holds.
    let bench = parse(&first.bench).expect("bench json parses");
    let metric = |k: &str| {
        bench
            .get("metrics")
            .and_then(|m| m.get(k))
            .and_then(Value::as_num)
            .unwrap_or_else(|| panic!("metric {k}"))
    };
    let exact_p99 = first.result.slo.p99_ns as f64;
    assert!(exact_p99 > 0.0);
    assert!(
        metric("sketch.p99.delta_ns") <= sketch::RELATIVE_ERROR * exact_p99,
        "sketch p99 outside declared bound: delta {} vs {} * {}",
        metric("sketch.p99.delta_ns"),
        sketch::RELATIVE_ERROR,
        exact_p99
    );
    assert_eq!(metric("sketch.samples"), N_JOBS as f64);

    // (5) Worker-kill flight records carry the victim job id so the
    // dashboard's kill counters resolve into the black box.
    kill_record_names_victim_job();
}
