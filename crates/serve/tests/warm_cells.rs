//! The warm `/v1/cell` path: a cell the runner already holds is
//! rendered on the worker that parsed the request, with no flight and
//! no thread.
//!
//! The guarantees under test:
//!
//! 1. A warm body equals the cold (flight) body byte for byte, for every
//!    quick-set workload on two chips outside the reference set (whose
//!    cells the reference computation already measured).
//! 2. A warm repeat moves no computation counter: `serve.coalesce_leads`,
//!    `serve.cells_measured` and `runner.measurements` stay put, and
//!    `runner.cache_hits` gains exactly one.
//! 3. The live-flight cap cannot refuse a read: with every flight slot
//!    held, a cached cell answers `200` with its bytes while an uncached
//!    one still gets the typed `503`.
//! 4. On a store-armed server a warm repeat writes nothing: the store's
//!    rows and its log bytes are unchanged.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lhr_core::{Harness, Runner, ShardedLruCache};
use lhr_obs::MemoryRecorder;
use lhr_sensors::faults::{FaultPlan, Stall};
use lhr_serve::{ServerConfig, ServerHandle, Telemetry};
use lhr_uarch::{ChipConfig, ProcessorId};

fn boot(
    runner: Runner,
    warm: impl FnOnce(&Harness),
    configure: impl FnOnce(&mut ServerConfig),
) -> (ServerHandle, Arc<MemoryRecorder>) {
    let telemetry = Telemetry::default();
    let recorder = Arc::clone(&telemetry.memory);
    let runner = runner
        .with_cell_cache(Arc::new(ShardedLruCache::new(256, 4)))
        .with_observer(telemetry.obs());
    let harness = Harness::new(runner).with_workloads(Harness::quick_set());
    warm(&harness);
    let mut config = ServerConfig::default();
    configure(&mut config);
    let handle = lhr_serve::start(config, harness, telemetry).expect("bind");
    (handle, recorder)
}

/// One exchange: `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let resp = lhr_serve::httpc::get(addr, target, Duration::from_secs(120)).expect("exchange");
    (resp.status, resp.body_str().into_owned())
}

/// The counters a cell request can move.
fn counters(recorder: &MemoryRecorder) -> [u64; 5] {
    let snap = recorder.snapshot();
    [
        "serve.coalesce_leads",
        "serve.coalesce_hits",
        "serve.cells_measured",
        "runner.measurements",
        "runner.cache_hits",
    ]
    .map(|name| snap.counter(name))
}

#[test]
fn a_warm_cell_is_the_cold_bytes_and_opens_no_flight() {
    let (handle, recorder) = boot(Runner::fast(), |_| {}, |c| c.jobs = 2);
    let addr = handle.addr();
    for chip in ["i7-45", "c2d-45"] {
        for w in Harness::quick_set() {
            let target = format!("/v1/cell?chip={chip}&workload={}", w.name());
            let (status, cold) = get(addr, &target);
            assert_eq!(status, 200, "{target}: {cold}");
            let [leads, follows, measured, measurements, hits] = counters(&recorder);
            let (status, warm) = get(addr, &target);
            assert_eq!(status, 200, "{target}: {warm}");
            assert_eq!(warm, cold, "{target}: warm bytes equal the flight's");
            assert_eq!(
                counters(&recorder),
                [leads, follows, measured, measurements, hits + 1],
                "{target}: a repeat is one cache hit and nothing else"
            );
        }
    }
    let [leads, follows, measured, ..] = counters(&recorder);
    assert_eq!(
        (leads, follows, measured),
        (24, 0, 24),
        "one flight per cold cell"
    );
    drop(handle);
}

#[test]
fn a_full_flight_board_still_serves_cached_cells() {
    // The i7's rig hangs on every run, so an i7 cell holds the only
    // flight slot for as long as this test runs. One C2D (45) cell is
    // measured, and the reference set computed, before the server boots.
    let i7_wedged = FaultPlan::new(5).with_stall(Stall::permanent(600.0));
    let c2d = ChipConfig::stock(ProcessorId::Core2DuoE7600.spec());
    let jess = lhr_workloads::by_name("jess").expect("quick-set workload");
    let (handle, recorder) = boot(
        Runner::fast().with_fault_plan(ProcessorId::CoreI7_920, i7_wedged),
        |h| {
            h.try_evaluate_workload(&c2d, jess).expect("clean rig");
        },
        |c| {
            c.max_live_flights = 1;
            c.max_cell = Duration::from_millis(200);
        },
    );
    let addr = handle.addr();
    let (status, before) = get(addr, "/v1/cell?chip=c2d-45&workload=jess");
    assert_eq!(status, 200, "{before}");

    // The wedged cell leads the one flight; its waiter gives up with a
    // 504 and the flight keeps the slot.
    let (status, body) = get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 504, "{body}");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !get(addr, "/healthz").1.contains("\"live_flights\":1") {
        assert!(Instant::now() < deadline, "the wedged flight never opened");
        std::thread::yield_now();
    }

    let (status, held) = get(addr, "/v1/cell?chip=c2d-45&workload=jess");
    assert_eq!(status, 200, "a read needs no flight slot: {held}");
    assert_eq!(held, before);
    let (status, body) = get(addr, "/v1/cell?chip=c2d-45&workload=mcf");
    assert_eq!(status, 503, "an uncached cell needs a slot: {body}");
    assert!(body.contains("overloaded"), "{body}");
    assert_eq!(recorder.snapshot().counter("serve.shed_flights"), 1);
    drop(handle);
}

#[test]
fn a_warm_repeat_leaves_the_store_untouched() {
    let dir = std::env::temp_dir().join(format!("lhr-warm-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, _recorder) = boot(
        Runner::fast(),
        |_| {},
        |c| {
            c.store_dir = Some(dir.clone());
        },
    );
    let addr = handle.addr();
    let rows = || {
        let resp = lhr_serve::httpc::post_body(
            addr,
            "/v1/query?format=json",
            "group_by config, workload | agg mean(watts), mean(perf_norm)",
            Duration::from_secs(120),
        )
        .expect("exchange");
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        resp.body_str().into_owned()
    };
    let log = || std::fs::read(dir.join("cells.jsonl")).expect("store log");

    let (status, cold) = get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200, "{cold}");
    let (rows_before, log_before) = (rows(), log());
    assert!(rows_before.contains("jess"), "{rows_before}");
    let (status, warm) = get(addr, "/v1/cell?chip=i7-45&workload=jess");
    assert_eq!(status, 200, "{warm}");
    assert_eq!(warm, cold);
    assert_eq!(rows(), rows_before);
    assert_eq!(log(), log_before, "a repeat writes no log bytes");
    drop(handle);
    std::fs::remove_dir_all(&dir).ok();
}
