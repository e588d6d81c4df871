//! `serve-hot` and `serve-cold`: the serving path of `sdem-serve`.
//!
//! Both run two phases per round against 1-worker services, beside one
//! submitting thread:
//!
//! * **batch** — every request of the round submitted back to back;
//!   `throughput_per_s` is responses per second. `serve-hot` replays
//!   seeded `TraceSpec` traces through `sdem_serve::replay` with a
//!   write-ahead journal; `serve-cold` submits never-repeating requests to
//!   a fresh `Service` without one.
//! * **closed loop** — one client submits the same requests (`serve-hot`:
//!   a subset) through `Service::submit` to a warmed service set up for
//!   the round and waits for each response at its sink; the latency of a
//!   request runs from just before `submit` to its response line reaching
//!   the sink. The client and that service's worker share one CPU (see
//!   `set_up` and `host::Pinned`).
//!
//! Every round repeats the same seeded requests, so its response bytes and
//! cache counts must equal the first round's. The closed-loop responses
//! must equal the batch responses byte for byte, and every first-round
//! response is compared, untimed, with a direct `api::execute_in` of the
//! same request.
//!
//! A traced round cannot see inside the service, so after each phase it
//! replays the worker's path over the same requests as direct calls
//! (parse → canonicalize → cache get → solve → cache insert → render →
//! journal), each in its layer's span. What the service run takes beyond
//! those calls is `serve.residual`.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sdem_obs::json::{self, Value};
use sdem_prng::{ChaCha8Rng, Rng, SeedableRng, SplitMix64};
use sdem_serve::{
    api, replay, CacheParams, CachedSolve, JournalHeader, ReplayConfig, ReplayJournal, Service,
    ServiceConfig, ServiceStats, SolveCache, SolveRequest, API_VERSION,
};
use sdem_types::{TaskSet, Workspace};
use sdem_workload::trace::{ArrivalTrace, JobRow, TraceSpec};

use crate::tracer::{self, span};
use crate::{host, stats, Layered, RoundClock, RunConfig, Workload, WARMUP_SEED};

/// Admission queue depth, above any batch: the submitter never waits for
/// room, so admission time is parse plus enqueue, and the closed loop
/// keeps one request in flight.
const QUEUE_DEPTH: usize = 8192;

/// `serve-hot`: traces of `HOT_SETS` periodic systems re-released every
/// hyperperiod plus the default 32-shape Poisson pool, with seeds derived
/// from the run seed. A request's cost grows with its rows, and a periodic
/// system's rows vary a lot, so a run spans 128 systems to keep its
/// per-request cost close to the average over seeds.
const HOT_TRACES: usize = 8;
const HOT_SETS: usize = 16;
/// Events per trace per round: its 48 shapes repeat often enough for
/// more than 99% cache hits.
const HOT_EVENTS: u64 = 6000;
/// The closed loop submits every `HOT_CLOSED_EVERY`-th event.
const HOT_CLOSED_EVERY: usize = 8;
const HOT_CACHE: usize = 4096;

/// `serve-cold`: requests per round, all distinct; the closed loop
/// replays all of them.
const COLD_REQUESTS: usize = 4000;
/// Cache capacity below the closed loop's request count: with FIFO
/// eviction a cyclic request stream longer than the cache never hits.
const COLD_CACHE: usize = 256;

const TAG_HOT: u64 = 0x407_7ACE;
const TAG_COLD: u64 = 0xC01D_0000;
const TAG_COLD_WARM: u64 = 0xC01D_3A53;

fn service_config(cache: usize) -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        queue_depth: QUEUE_DEPTH,
        cache_capacity: cache,
        ..ServiceConfig::default()
    }
}

/// Batch-phase sink: keeps the response bytes for the checks.
#[derive(Clone, Default)]
struct Collect(Arc<Mutex<Vec<u8>>>);

impl Write for Collect {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .expect("batch sink poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Collect {
    fn take(&self) -> Vec<u8> {
        std::mem::take(&mut *self.0.lock().expect("batch sink poisoned"))
    }
}

#[derive(Default)]
struct Arrivals {
    partial: Vec<u8>,
    lines: VecDeque<(String, Instant)>,
}

/// Closed-loop sink: stamps each response line as its newline arrives and
/// wakes the waiting client.
#[derive(Clone, Default)]
struct ClosedSink(Arc<(Mutex<Arrivals>, Condvar)>);

impl Write for ClosedSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (lock, ready) = &*self.0;
        let mut a = lock.lock().expect("closed-loop sink poisoned");
        a.partial.extend_from_slice(buf);
        if buf.contains(&b'\n') {
            let at = Instant::now();
            while let Some(pos) = a.partial.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = a.partial.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line[..pos]).into_owned();
                a.lines.push_back((text, at));
            }
            ready.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ClosedSink {
    fn wait(&self) -> (String, Instant) {
        let (lock, ready) = &*self.0;
        let mut a = lock.lock().expect("closed-loop sink poisoned");
        loop {
            if let Some(line) = a.lines.pop_front() {
                return line;
            }
            a = ready.wait(a).expect("closed-loop sink poisoned");
        }
    }
}

/// A round's closed-loop service, its sink, and the CPU its worker and
/// client share.
struct Warm {
    service: Service,
    sink: ClosedSink,
    cpu: usize,
}

/// Starts a 1-worker service on the `cpu`-th CPU and fills it with
/// `warmup` (cache and workspace pools); returns it and the time this
/// set-up took. Each round sets up its own closed-loop service, every two
/// rounds on the next CPU (so that traced and untraced rounds of a traced
/// run meet every CPU): the set-up samples spread over the whole run, and
/// the rounds' latencies average over the CPUs, whose speeds on a shared
/// host drift apart for tens of seconds at a time.
fn set_up(cache: usize, warmup: &[String], cpu: usize) -> (Warm, f64) {
    let _pin = host::Pinned::cpu(cpu);
    let started = Instant::now();
    let sink = ClosedSink::default();
    let warm = Warm {
        service: Service::start(service_config(cache), Box::new(sink.clone())),
        sink,
        cpu,
    };
    warm.fill(warmup);
    (warm, started.elapsed().as_secs_f64())
}

impl Warm {
    /// Submits `lines` and waits for every response.
    fn fill(&self, lines: &[String]) {
        for line in lines {
            self.service.submit_blocking(line);
        }
        for _ in lines {
            self.sink.wait();
        }
    }
}

/// A direct-path cache holding what a service filled with `fills` holds,
/// for the traced rounds' replay of the closed loop.
fn mirror_cache(capacity: usize, fills: &[&[String]]) -> SolveCache {
    let mut mirror = SolveCache::new(capacity);
    let mut ws = Workspace::new();
    for lines in fills {
        if let Err(e) = worker_path(lines, &mut mirror, None, &mut ws) {
            eprintln!("set-up: direct warm-up failed: {e}");
        }
    }
    mirror
}

/// One closed-loop pass: submit, wait for the response at the sink,
/// compare it with the batch response of the same request. The client
/// runs on the worker's CPU, so each hand-off is a switch on one core: a
/// wake-up across vCPUs costs what the hypervisor's other guests leave,
/// and on a shared host that swung the median by half between minutes.
fn closed_loop(warm: &Warm, lines: &[&str], expect: &[&str], op_base: u64) -> ClosedPass {
    let _pin = host::Pinned::cpu(warm.cpu);
    let mut latency_ns = Vec::with_capacity(lines.len());
    let mut mismatched = 0;
    let started = Instant::now();
    for (i, (line, want)) in lines.iter().zip(expect).enumerate() {
        tracer::set_op(op_base + i as u64);
        let sent = Instant::now();
        {
            let _s = span(tracer::ADMIT);
            warm.service.submit(line);
        }
        let (got, at) = warm.sink.wait();
        latency_ns.push(at.saturating_duration_since(sent).as_nanos() as u64);
        if got != *want {
            mismatched += 1;
        }
    }
    ClosedPass {
        wall_ns: started.elapsed().as_nanos() as u64,
        latency_ns,
        mismatched,
    }
}

struct ClosedPass {
    wall_ns: u64,
    latency_ns: Vec<u64>,
    mismatched: u64,
}

/// The service worker's path for each request line, as direct calls with
/// a span around each; returns the response lines it renders.
fn worker_path<S: AsRef<str>>(
    lines: &[S],
    cache: &mut SolveCache,
    journal: Option<&ReplayJournal>,
    ws: &mut Workspace,
) -> Result<Vec<String>, String> {
    let mut out = Vec::with_capacity(lines.len());
    for (seq, line) in lines.iter().enumerate() {
        let req = {
            let _s = span(tracer::PARSE);
            SolveRequest::parse_line(line.as_ref())
        }
        .map_err(|e| format!("request {seq}: {e}"))?;
        // `SolveCache::get` hashes the canonical set itself, as it does in
        // the service, so `canonical_hash` is timed inside the cache probe.
        let canonical = {
            let _s = span(tracer::CANONICALIZE);
            req.tasks.canonicalize()
        };
        let params = CacheParams {
            scheme: req.scheme_name.clone(),
            cores: req.cores,
            alpha_m_bits: req.alpha_m_w.to_bits(),
            xi_m_bits: req.xi_m_ms.to_bits(),
            fallback: req.fallback,
        };
        let hit = {
            let _s = span(tracer::CACHE_GET);
            cache.get(&canonical, &params)
        };
        let response = match hit {
            Some(hit) => {
                let _s = span(tracer::RENDER);
                hit.to_response(req.id, req.scheme_name.clone())
                    .to_json_line()
            }
            None => {
                let platform = req.platform().map_err(|e| format!("request {seq}: {e}"))?;
                let label = req.scheme.resolve(&canonical, &platform).solve_label();
                let layer = tracer::solve_layer(label)
                    .ok_or_else(|| format!("request {seq}: unexpected scheme {label}"))?;
                let executed = {
                    let _s = span(layer);
                    api::execute_in(&req, &platform, ws)
                }
                .map_err(|e| format!("request {seq}: {e}"))?;
                let response = executed.response;
                ws.recycle_schedule(executed.solution.into_schedule());
                {
                    let _s = span(tracer::CACHE_INSERT);
                    cache.insert(canonical, params, CachedSolve::from_response(&response));
                }
                let _s = span(tracer::RENDER);
                response.to_json_line()
            }
        };
        if let Some(journal) = journal {
            let _s = span(tracer::JOURNAL);
            journal.append(seq as u64, &response);
        }
        out.push(response);
    }
    Ok(out)
}

/// Values keyed by canonical task set (`TaskSet` has no `Hash`; its
/// canonical hash buckets exact comparisons).
struct ShapeMemo<V> {
    map: HashMap<u64, Vec<(TaskSet, V)>>,
}

impl<V> Default for ShapeMemo<V> {
    fn default() -> Self {
        Self {
            map: HashMap::new(),
        }
    }
}

impl<V> ShapeMemo<V> {
    fn get(&self, canonical: &TaskSet) -> Option<&V> {
        self.map
            .get(&canonical.canonical_hash())?
            .iter()
            .find(|(t, _)| t == canonical)
            .map(|(_, v)| v)
    }

    /// Stores `value` unless the shape is present; `true` if it was new.
    fn insert(&mut self, canonical: TaskSet, value: V) -> bool {
        let bucket = self.map.entry(canonical.canonical_hash()).or_default();
        if bucket.iter().any(|(t, _)| *t == canonical) {
            return false;
        }
        bucket.push((canonical, value));
        true
    }
}

/// The expected outcome of one request from a direct `api::execute_in`.
#[derive(Clone)]
struct Expected {
    resolved: &'static str,
    energy_bits: String,
    sleep_bits: String,
    energy_j: f64,
}

fn direct(line: &str, ws: &mut Workspace) -> Result<(TaskSet, Expected), String> {
    let req = SolveRequest::parse_line(line).map_err(|e| e.to_string())?;
    let platform = req.platform().map_err(|e| e.to_string())?;
    let executed = api::execute_in(&req, &platform, ws).map_err(|e| e.to_string())?;
    let r = executed.response;
    ws.recycle_schedule(executed.solution.into_schedule());
    Ok((
        req.tasks.canonicalize(),
        Expected {
            resolved: r.resolved,
            energy_bits: format!("{:#018x}", r.energy_j.to_bits()),
            sleep_bits: format!("{:#018x}", r.memory_sleep_ms.to_bits()),
            energy_j: r.energy_j,
        },
    ))
}

/// Checks one response line against the direct solve; returns its energy.
fn check_response(line: &str, id: u64, want: &Expected) -> Result<f64, String> {
    let doc = json::parse(line).map_err(|e| format!("unparsable response: {e}"))?;
    if doc.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("error response: {line}"));
    }
    let field = |k: &str| doc.get(k).and_then(Value::as_str).unwrap_or("");
    if doc.get("id").and_then(Value::as_u64) != Some(id)
        || field("resolved") != want.resolved
        || field("energy_bits") != want.energy_bits
        || field("memory_sleep_bits") != want.sleep_bits
    {
        return Err(format!(
            "response {line} differs from direct execute_in ({}, {}, {})",
            want.resolved, want.energy_bits, want.sleep_bits
        ));
    }
    Ok(want.energy_j)
}

fn split_lines(bytes: &[u8]) -> Vec<&str> {
    std::str::from_utf8(bytes).unwrap_or("").lines().collect()
}

fn digest(parts: &[Vec<u8>]) -> u64 {
    let mut h = DefaultHasher::new();
    parts.hash(&mut h);
    h.finish()
}

fn check_stats(w: &mut Workload, phase: &str, s: &ServiceStats, submitted: u64) {
    if s.shed != 0 || s.rejected != 0 || s.degraded != 0 || s.failed || s.submitted != submitted {
        w.fail_check(format!(
            "{phase}: service stats {s:?} for {submitted} requests"
        ));
    }
}

/// Per-round cache counts of the batch phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CacheCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheCounts {
    fn add(&mut self, s: &ServiceStats) {
        self.hits += s.cache_hits;
        self.misses += s.cache_misses;
        self.evictions += s.cache_evictions;
    }
}

/// What one round's batch phase produced.
struct Batch {
    outputs: Vec<Vec<u8>>,
    wall_ns: u64,
    counts: CacheCounts,
}

/// State shared by both serve workloads' round loops.
struct Rounds {
    w: Workload,
    layered: Layered,
    reference: Option<(u64, CacheCounts)>,
}

impl Rounds {
    fn new(name: &'static str, setup: Vec<f64>) -> Self {
        Self {
            w: Workload::new(name, setup),
            layered: Layered::default(),
            reference: None,
        }
    }

    /// Books one round: checks it against the first, records throughput
    /// and latency, and (traced) the layer totals and residual.
    fn book(&mut self, round: usize, traced: bool, batch: &Batch, closed: ClosedPass, ops: u64) {
        let d = digest(&batch.outputs);
        match self.reference {
            None => self.reference = Some((d, batch.counts)),
            Some((d0, counts0)) => {
                if d != d0 {
                    self.w
                        .fail_check(format!("round {round}: response bytes differ from round 0"));
                    self.w.failed += ops;
                }
                if batch.counts != counts0 {
                    self.w.fail_check(format!(
                        "round {round}: cache counts {:?} differ from round 0 {counts0:?}",
                        batch.counts
                    ));
                }
            }
        }
        if closed.mismatched > 0 {
            self.w.fail_check(format!(
                "round {round}: {} closed-loop responses differ from the batch phase",
                closed.mismatched
            ));
            self.w.failed += closed.mismatched;
        }
        let requests = ops + closed.latency_ns.len() as u64;
        self.w.attempted += requests;
        let throughput = ops as f64 / (batch.wall_ns as f64 / 1e9);
        let mut lat = closed.latency_ns;
        if traced {
            tracer::flush();
            let mut totals = tracer::take_totals();
            // Parsing runs inside `submit`; its direct replay is the admit
            // span's child.
            totals[tracer::ADMIT].self_ns = totals[tracer::ADMIT]
                .self_ns
                .saturating_sub(totals[tracer::PARSE].self_ns);
            let phase_ns = batch.wall_ns + closed.wall_ns;
            let layers_ns: u64 = totals[..tracer::TRIAL].iter().map(|a| a.self_ns).sum();
            let residual = phase_ns as i64 - layers_ns as i64;
            self.layered
                .push_round(totals, residual, requests, phase_ns, throughput);
        } else {
            self.layered.untraced_throughput.push(throughput);
            self.w.throughput.push(throughput);
            self.w.p50_us.push(stats::percentile(&mut lat, 50.0) / 1e3);
            self.w.p90_us.push(stats::percentile(&mut lat, 90.0) / 1e3);
        }
    }

    fn finish(mut self, cfg: &RunConfig) -> Workload {
        if let Some((_, counts)) = self.reference {
            let lookups = (counts.hits + counts.misses).max(1);
            self.w.count("serve.cache.hits", counts.hits as f64);
            self.w.count("serve.cache.misses", counts.misses as f64);
            self.w
                .count("serve.cache.hit_ratio", counts.hits as f64 / lookups as f64);
            self.w
                .count("serve.cache.evictions", counts.evictions as f64);
        }
        if cfg.trace {
            let layers =
                std::mem::take(&mut self.layered).finish("serve.residual", &mut self.w, cfg);
            self.w.layers = Some(layers);
        }
        self.w
    }
}

/// Renders an arrival as a wire request line, byte for byte as the replay
/// driver does: the row rotation is a permutation the cache canonicalizes
/// away.
fn trace_request(seq: u64, rotation: usize, rows: &[JobRow]) -> String {
    let n = rows.len();
    let mut out = format!("{{\"v\":{API_VERSION},\"id\":{seq},\"scheme\":\"auto\",\"tasks\":[");
    for i in 0..n {
        let r = &rows[(i + rotation) % n];
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{},{},{},{}]",
            r.id, r.release_ms, r.deadline_ms, r.work_cycles
        ));
    }
    out.push_str("]}");
    out
}

struct HotTrace {
    spec: TraceSpec,
    lines: Vec<String>,
}

fn hot_traces(seed: u64) -> Vec<HotTrace> {
    (0..HOT_TRACES)
        .map(|t| {
            let spec = TraceSpec {
                seed: SplitMix64::mix(&[seed, TAG_HOT, t as u64]),
                sets: HOT_SETS,
                ..TraceSpec::default()
            };
            let mut trace = ArrivalTrace::new(&spec).expect("default trace spec is valid");
            let lines = (0..HOT_EVENTS)
                .map(|_| {
                    let ev = trace.next().expect("arrival traces are infinite");
                    trace_request(ev.seq, ev.rotation, trace.shape_rows(ev.shape))
                })
                .collect();
            HotTrace { spec, lines }
        })
        .collect()
}

fn header(spec: &TraceSpec) -> JournalHeader {
    JournalHeader {
        trace: spec.to_string(),
        chaos: String::new(),
        events: HOT_EVENTS,
    }
}

/// The first request of each canonical shape in `traces` not yet `seen`.
fn new_shapes(traces: &[HotTrace], seen: &mut ShapeMemo<()>) -> Vec<String> {
    traces
        .iter()
        .flat_map(|t| &t.lines)
        .filter(|line| {
            let req = SolveRequest::parse_line(line).expect("trace requests parse");
            seen.insert(req.tasks.canonicalize(), ())
        })
        .cloned()
        .collect()
}

pub fn run_hot(cfg: &RunConfig) -> Workload {
    let traces = hot_traces(cfg.seed);
    // Set-up fills the cache with the shapes of traces from a fixed seed,
    // so its cost does not vary with `--seed`; the run's own shapes are
    // then primed untimed, so the closed loop only ever hits.
    let mut seen = ShapeMemo::default();
    let warmup = new_shapes(&hot_traces(WARMUP_SEED), &mut seen);
    let primed = new_shapes(&traces, &mut seen);
    let closed_index: Vec<(usize, usize)> = (0..HOT_TRACES)
        .flat_map(|t| {
            (0..HOT_EVENTS as usize)
                .step_by(HOT_CLOSED_EVERY)
                .map(move |i| (t, i))
        })
        .collect();
    let closed_lines: Vec<&str> = closed_index
        .iter()
        .map(|&(t, i)| traces[t].lines[i].as_str())
        .collect();
    let journal_path = cfg.runs_dir.join("journal-serve-hot.jsonl");
    let direct_journal_path = cfg.runs_dir.join("journal-serve-hot-direct.jsonl");

    let shapes = (warmup.len() + primed.len()) as u64;
    let mut r = Rounds::new("serve-hot", Vec::new());
    let mut first_outputs: Vec<Vec<u8>> = Vec::new();
    let mut closed_expect: Vec<String> = Vec::new();
    let mut ws = Workspace::new();
    let mut clock = RoundClock::start(cfg);
    while clock.next_round() {
        let traced = clock.traced_round();
        let (warm, setup_s) = set_up(HOT_CACHE, &warmup, clock.round() / 2);
        r.w.setup_s.push(setup_s);
        warm.fill(&primed);
        let mut mirror = traced.then(|| mirror_cache(HOT_CACHE, &[&warmup, &primed]));
        tracer::set_enabled(traced);
        let batch = if traced {
            hot_batch_traced(&mut r.w, &traces, &journal_path)
        } else {
            hot_batch(&mut r.w, &traces, &journal_path)
        };
        if closed_expect.is_empty() {
            let per_trace: Vec<Vec<&str>> = batch.outputs.iter().map(|o| split_lines(o)).collect();
            closed_expect = closed_index
                .iter()
                .map(|&(t, i)| per_trace[t].get(i).copied().unwrap_or("").to_string())
                .collect();
        }
        let expect: Vec<&str> = closed_expect.iter().map(String::as_str).collect();
        let closed = closed_loop(&warm, &closed_lines, &expect, 0);
        if let Some(mirror) = &mut mirror {
            hot_direct_replay(
                &mut r.w,
                &traces,
                &batch,
                mirror,
                &closed_lines,
                &direct_journal_path,
                &mut ws,
            );
        }
        tracer::set_enabled(false);
        let ops = HOT_TRACES as u64 * HOT_EVENTS;
        r.book(clock.round(), traced, &batch, closed, ops);
        if first_outputs.is_empty() {
            first_outputs = batch.outputs;
        }
        let stats = warm.service.finish();
        let submitted = shapes + closed_lines.len() as u64;
        check_stats(&mut r.w, "closed-loop service", &stats, submitted);
        if stats.cache_misses != shapes {
            r.w.fail_check(format!(
                "closed-loop service missed its warmed cache: {} misses for {shapes} shapes",
                stats.cache_misses
            ));
        }
    }
    clock.finish(&mut r.w);
    verify_hot(&mut r.w, &traces, &first_outputs, &mut ws);
    r.finish(cfg)
}

fn hot_batch(w: &mut Workload, traces: &[HotTrace], journal: &Path) -> Batch {
    let mut batch = Batch {
        outputs: Vec::with_capacity(traces.len()),
        wall_ns: 0,
        counts: CacheCounts::default(),
    };
    for t in traces {
        let sink = Collect::default();
        let cfg = ReplayConfig {
            service: service_config(HOT_CACHE),
            trace: t.spec.clone(),
            events: HOT_EVENTS,
            chaos: None,
            journal: Some(journal.to_path_buf()),
            resume: false,
            halt_after: None,
        };
        let started = Instant::now();
        let report = replay(&cfg, Box::new(sink.clone()));
        batch.wall_ns += started.elapsed().as_nanos() as u64;
        match report {
            Ok(report) => {
                check_stats(w, "replay", &report.stats, HOT_EVENTS);
                batch.counts.add(&report.stats);
            }
            Err(e) => {
                w.fail_check(format!("replay {}: {e}", t.spec));
                w.failed += HOT_EVENTS;
            }
        }
        batch.outputs.push(sink.take());
    }
    batch
}

/// The replay driver's loop, written out so its trace and admission calls
/// can be spanned: generate each arrival, render it, submit it blocking
/// to a journaled 1-worker service.
fn hot_batch_traced(w: &mut Workload, traces: &[HotTrace], journal: &Path) -> Batch {
    let mut batch = Batch {
        outputs: Vec::with_capacity(traces.len()),
        wall_ns: 0,
        counts: CacheCounts::default(),
    };
    for (k, t) in traces.iter().enumerate() {
        let sink = Collect::default();
        let started = Instant::now();
        let journal = match ReplayJournal::create(journal, header(&t.spec)) {
            Ok(j) => Arc::new(j),
            Err(e) => {
                w.fail_check(format!("journal: {e}"));
                w.failed += HOT_EVENTS;
                batch.outputs.push(Vec::new());
                continue;
            }
        };
        let service = Service::start_with_journal(
            service_config(HOT_CACHE),
            Box::new(sink.clone()),
            Arc::clone(&journal),
            0,
        );
        let mut trace = ArrivalTrace::new(&t.spec).expect("default trace spec is valid");
        for seq in 0..HOT_EVENTS {
            tracer::set_op(k as u64 * HOT_EVENTS + seq);
            let ev = {
                let _s = span(tracer::TRACE_NEXT);
                trace.next().expect("arrival traces are infinite")
            };
            let line = trace_request(ev.seq, ev.rotation, trace.shape_rows(ev.shape));
            let _s = span(tracer::ADMIT);
            service.submit_blocking(&line);
        }
        let stats = service.finish();
        batch.wall_ns += started.elapsed().as_nanos() as u64;
        if let Some(e) = journal.take_error() {
            w.fail_check(format!("journal: {e}"));
        }
        check_stats(w, "traced replay", &stats, HOT_EVENTS);
        batch.counts.add(&stats);
        batch.outputs.push(sink.take());
    }
    batch
}

/// Replays the worker path of a traced round's requests as direct calls:
/// each trace against a fresh cache and journal (as the replay's service
/// has), the closed loop against the warmed mirror cache.
fn hot_direct_replay(
    w: &mut Workload,
    traces: &[HotTrace],
    batch: &Batch,
    mirror: &mut SolveCache,
    closed_lines: &[&str],
    journal_path: &Path,
    ws: &mut Workspace,
) {
    for (t, out) in traces.iter().zip(&batch.outputs) {
        let mut cache = SolveCache::new(HOT_CACHE);
        let journal = match ReplayJournal::create(journal_path, header(&t.spec)) {
            Ok(j) => j,
            Err(e) => {
                w.fail_check(format!("direct journal: {e}"));
                continue;
            }
        };
        match worker_path(&t.lines, &mut cache, Some(&journal), ws) {
            Ok(lines) => {
                if lines.iter().map(String::as_str).ne(split_lines(out)) {
                    w.fail_check("direct worker path differs from the service".to_string());
                }
            }
            Err(e) => w.fail_check(format!("direct worker path: {e}")),
        }
    }
    if let Err(e) = worker_path(closed_lines, mirror, None, ws) {
        w.fail_check(format!("direct closed-loop path: {e}"));
    }
}

/// Checks every first-round response against a direct solve of its
/// request (one solve per canonical shape), and records the exact
/// per-scheme solve counts and the energy guard: the mean over the
/// distinct schedules solved, since a cache hit returns the same one.
fn verify_hot(w: &mut Workload, traces: &[HotTrace], outputs: &[Vec<u8>], ws: &mut Workspace) {
    let mut energy = 0.0;
    let mut schedules = 0u64;
    let mut solves: HashMap<&'static str, u64> = HashMap::new();
    for (t, out) in traces.iter().zip(outputs) {
        let lines = split_lines(out);
        if lines.len() != t.lines.len() {
            w.fail_check(format!(
                "{} responses for {} requests",
                lines.len(),
                t.lines.len()
            ));
            w.failed += t.lines.len().abs_diff(lines.len()) as u64;
        }
        let mut memo: ShapeMemo<Expected> = ShapeMemo::default();
        for (seq, (req, resp)) in t.lines.iter().zip(lines).enumerate() {
            let canonical = SolveRequest::parse_line(req)
                .map(|r| r.tasks.canonicalize())
                .expect("trace requests parse");
            let want = match memo.get(&canonical) {
                Some(want) => want.clone(),
                None => match direct(req, ws) {
                    Ok((canonical, want)) => {
                        *solves.entry(want.resolved).or_default() += 1;
                        energy += want.energy_j;
                        schedules += 1;
                        memo.insert(canonical, want.clone());
                        want
                    }
                    Err(e) => {
                        w.fail_check(format!("direct solve of {req}: {e}"));
                        w.failed += 1;
                        continue;
                    }
                },
            };
            if let Err(e) = check_response(resp, seq as u64, &want) {
                w.fail_check(e);
                w.failed += 1;
            }
        }
    }
    w.energy_mj_mean = 1e3 * energy / schedules.max(1) as f64;
    record_solves(w, solves);
}

fn record_solves(w: &mut Workload, solves: HashMap<&'static str, u64>) {
    let mut solves: Vec<_> = solves.into_iter().collect();
    solves.sort();
    for (resolved, n) in solves {
        w.count(&format!("solves.{resolved}"), n as f64);
    }
}

/// The request kinds of `serve-cold` and the scheme each resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    /// `auto` on a common-release set → common-release-overhead.
    CommonRelease,
    /// `auto` on an agreeable set → agreeable-overhead.
    Agreeable,
    /// `auto` on a general set → online.
    General,
    /// `bounded-auto` at n ≤ 14 → bounded-exact.
    Exact,
    /// `bounded-auto` at 14 < n ≤ 24 → bounded-bnb.
    Bnb,
    /// `bounded-auto` at n > 24 → bounded-refined.
    Refined,
    /// `dag-federated` on a flat common-window set.
    Federated,
}

/// Request kind of request `i`: a fixed pattern, so every round and every
/// seed carries the same mix. Shares are set so that no scheme takes more
/// than half of the solve time, and branch-and-bound (~1 ms a solve at
/// 15 tasks on 2 cores, ~10 ms on 3) is a sparse slice.
fn kind_of(i: usize) -> Kind {
    if i % 100 == 99 {
        return Kind::Bnb;
    }
    match (i * 37) % 100 {
        0..=19 => Kind::CommonRelease,
        20..=29 => Kind::Agreeable,
        30..=54 => Kind::General,
        55..=74 => Kind::Exact,
        75..=84 => Kind::Refined,
        _ => Kind::Federated,
    }
}

/// A never-repeating request of `kind`: every time and work is a fresh
/// draw. Its size — task and core counts — is not: the `variant`-th
/// request of a kind takes the next size of a fixed cycle, so every seed
/// solves the same sizes as often and only the values differ.
fn cold_request(id: u64, kind: Kind, variant: usize, rng: &mut ChaCha8Rng) -> String {
    let work = |rng: &mut ChaCha8Rng| rng.gen_range(1.0e6f64..6.0e6);
    // `size` steps through `lo..=hi` once per variant; `size2` steps once
    // every `outer` variants, so that the two walk every pair of sizes.
    let size = |lo: usize, hi: usize| lo + variant % (hi - lo + 1);
    let size2 = |outer: usize, lo: usize, hi: usize| lo + variant / outer % (hi - lo + 1);
    let mut rows: Vec<(f64, f64, f64)> = Vec::new();
    let (scheme, cores) = match kind {
        Kind::CommonRelease => {
            for _ in 0..size(2, 8) {
                rows.push((0.0, rng.gen_range(20.0f64..100.0), work(rng)));
            }
            ("auto", None)
        }
        Kind::Agreeable => {
            let (mut r, mut d) = (0.0f64, 0.0f64);
            for i in 0..size(2, 4) {
                if i > 0 {
                    r += rng.gen_range(1.0f64..8.0);
                }
                d = (d + rng.gen_range(1.0f64..8.0)).max(r + rng.gen_range(15.0f64..60.0));
                rows.push((r, d, work(rng)));
            }
            ("auto", None)
        }
        Kind::General => {
            // A window nested in the first one (later release, earlier
            // deadline) makes the set neither agreeable nor common-release.
            rows.push((0.0, rng.gen_range(90.0f64..120.0), work(rng)));
            rows.push((
                rng.gen_range(1.0f64..10.0),
                rng.gen_range(30.0f64..60.0),
                work(rng),
            ));
            for _ in 0..size(1, 6) {
                let r = rng.gen_range(0.0f64..20.0);
                rows.push((r, r + rng.gen_range(15.0f64..80.0), work(rng)));
            }
            ("auto", None)
        }
        Kind::Exact | Kind::Bnb | Kind::Refined | Kind::Federated => {
            let (n, cores, scheme) = match kind {
                Kind::Exact => (size(5, 7), size2(3, 2, 4), "bounded-auto"),
                Kind::Bnb => (15, 2, "bounded-auto"),
                Kind::Refined => (size(25, 40), size2(16, 4, 8), "bounded-auto"),
                _ => (size(3, 8), size2(6, 2, 4), "dag-federated"),
            };
            let d = rng.gen_range(60.0f64..100.0);
            for _ in 0..n {
                rows.push((0.0, d, work(rng)));
            }
            (scheme, Some(cores))
        }
    };
    let mut line = format!("{{\"v\":{API_VERSION},\"id\":{id},\"scheme\":\"{scheme}\"");
    if let Some(c) = cores {
        line.push_str(&format!(",\"cores\":{c}"));
    }
    line.push_str(",\"tasks\":[");
    for (i, (r, d, w)) in rows.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("[{i},{r},{d},{w}]"));
    }
    line.push_str("]}");
    line
}

fn cold_requests(seed: u64, tag: u64, count: usize) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(SplitMix64::mix(&[seed, tag]));
    let mut made: HashMap<Kind, usize> = HashMap::new();
    (0..count)
        .map(|i| {
            let kind = kind_of(i);
            let variant = made.entry(kind).or_default();
            *variant += 1;
            cold_request(i as u64, kind, *variant - 1, &mut rng)
        })
        .collect()
}

pub fn run_cold(cfg: &RunConfig) -> Workload {
    let requests = cold_requests(cfg.seed, TAG_COLD, COLD_REQUESTS);
    // Warm-up fills the closed-loop service's cache with requests the
    // measured ones never repeat, drawn from a fixed seed so that set-up
    // cost does not vary with `--seed`.
    let warmup = cold_requests(WARMUP_SEED, TAG_COLD_WARM, COLD_CACHE);
    let closed_lines: Vec<&str> = requests.iter().map(String::as_str).collect();

    let mut r = Rounds::new("serve-cold", Vec::new());
    let mut first_output: Vec<u8> = Vec::new();
    let mut closed_expect: Vec<String> = Vec::new();
    let mut ws = Workspace::new();
    let mut clock = RoundClock::start(cfg);
    while clock.next_round() {
        let traced = clock.traced_round();
        let (warm, setup_s) = set_up(COLD_CACHE, &warmup, clock.round() / 2);
        r.w.setup_s.push(setup_s);
        let mut mirror = traced.then(|| mirror_cache(COLD_CACHE, &[&warmup]));
        tracer::set_enabled(traced);
        let batch = cold_batch(&mut r.w, &requests);
        if closed_expect.is_empty() {
            closed_expect = split_lines(&batch.outputs[0])
                .into_iter()
                .map(str::to_string)
                .collect();
        }
        let expect: Vec<&str> = closed_expect.iter().map(String::as_str).collect();
        let closed = closed_loop(&warm, &closed_lines, &expect, COLD_REQUESTS as u64);
        if let Some(mirror) = &mut mirror {
            let mut cache = SolveCache::new(COLD_CACHE);
            match worker_path(&requests, &mut cache, None, &mut ws) {
                Ok(lines) => {
                    if lines
                        .iter()
                        .map(String::as_str)
                        .ne(split_lines(&batch.outputs[0]))
                    {
                        r.w.fail_check("direct worker path differs from the service".to_string());
                    }
                }
                Err(e) => r.w.fail_check(format!("direct worker path: {e}")),
            }
            if let Err(e) = worker_path(&closed_lines, mirror, None, &mut ws) {
                r.w.fail_check(format!("direct closed-loop path: {e}"));
            }
        }
        tracer::set_enabled(false);
        r.book(clock.round(), traced, &batch, closed, COLD_REQUESTS as u64);
        if first_output.is_empty() {
            first_output = batch.outputs.into_iter().next().unwrap_or_default();
        }
        let stats = warm.service.finish();
        let submitted = (warmup.len() + closed_lines.len()) as u64;
        check_stats(&mut r.w, "closed-loop service", &stats, submitted);
        if stats.cache_hits != 0 {
            r.w.fail_check(format!(
                "closed-loop service hit its cache {} times",
                stats.cache_hits
            ));
        }
    }
    clock.finish(&mut r.w);
    verify_cold(&mut r.w, &requests, &first_output, &mut ws);
    r.finish(cfg)
}

fn cold_batch(w: &mut Workload, requests: &[String]) -> Batch {
    let sink = Collect::default();
    let started = Instant::now();
    let service = Service::start(service_config(COLD_CACHE), Box::new(sink.clone()));
    for (i, line) in requests.iter().enumerate() {
        tracer::set_op(i as u64);
        let _s = span(tracer::ADMIT);
        service.submit_blocking(line);
    }
    let stats = service.finish();
    let wall_ns = started.elapsed().as_nanos() as u64;
    check_stats(w, "batch service", &stats, requests.len() as u64);
    let mut counts = CacheCounts::default();
    counts.add(&stats);
    Batch {
        outputs: vec![sink.take()],
        wall_ns,
        counts,
    }
}

/// Checks every first-round response against a direct solve of its
/// request, and records the exact per-scheme solve counts and the energy
/// guard.
fn verify_cold(w: &mut Workload, requests: &[String], output: &[u8], ws: &mut Workspace) {
    let lines = split_lines(output);
    if lines.len() != requests.len() {
        w.fail_check(format!(
            "{} responses for {} requests",
            lines.len(),
            requests.len()
        ));
        w.failed += requests.len().abs_diff(lines.len()) as u64;
    }
    let mut energy = 0.0;
    let mut answers = 0u64;
    let mut solves: HashMap<&'static str, u64> = HashMap::new();
    for (i, (req, resp)) in requests.iter().zip(lines).enumerate() {
        let outcome = direct(req, ws).and_then(|(_, want)| {
            *solves.entry(want.resolved).or_default() += 1;
            check_response(resp, i as u64, &want)
        });
        match outcome {
            Ok(j) => {
                energy += j;
                answers += 1;
            }
            Err(e) => {
                w.fail_check(e);
                w.failed += 1;
            }
        }
    }
    w.energy_mj_mean = 1e3 * energy / answers.max(1) as f64;
    let expected_kinds = 7;
    if solves.len() != expected_kinds {
        w.fail_check(format!(
            "resolved schemes {:?}, want all seven",
            solves.keys()
        ));
    }
    record_solves(w, solves);
}
