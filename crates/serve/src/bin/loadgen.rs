//! Request-batch generator for `sdem serve`: writes a seeded stream of
//! solve requests as a JSONL batch.
//!
//! The request mix models sustained planner traffic: `--shapes` distinct
//! task-set shapes are generated once from a SplitMix64 stream, and each
//! request picks a shape and a rotation of its task order — so the wire
//! bytes vary while the canonical task set repeats, exercising the
//! canonicalized cache exactly the way periodic workloads do.
//!
//! ```text
//! loadgen --emit FILE [--requests N] [--shapes N] [--tasks N] [--seed S] [--bounded FRAC]
//! ```
//!
//! CI pipes one batch through `sdem-cli serve` at several worker counts
//! and byte-diffs the responses. Serve throughput and latency are
//! measured by perfbench's `serve-hot` and `serve-cold` workloads.

use sdem_prng::{Rng, SeedableRng, SplitMix64};

struct Opts {
    requests: u64,
    shapes: usize,
    tasks: usize,
    seed: u64,
    bounded: f64,
    emit: String,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        requests: 100_000,
        shapes: 64,
        tasks: 8,
        seed: 42,
        bounded: 0.0,
        emit: String::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--requests" => opts.requests = num(&value("--requests")?)?,
            "--shapes" => opts.shapes = num(&value("--shapes")?)? as usize,
            "--tasks" => opts.tasks = num(&value("--tasks")?)? as usize,
            "--seed" => opts.seed = num(&value("--seed")?)?,
            "--bounded" => opts.bounded = frac(&value("--bounded")?)?,
            "--emit" => opts.emit = value("--emit")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.emit.is_empty() {
        return Err("--emit FILE is required".into());
    }
    if opts.shapes == 0 || opts.tasks == 0 {
        return Err("--shapes and --tasks must be non-zero".into());
    }
    Ok(opts)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn frac(s: &str) -> Result<f64, String> {
    let v = s
        .parse::<f64>()
        .map_err(|e| format!("bad fraction {s:?}: {e}"))?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!("fraction {s:?} must be within 0..=1"))
    }
}

/// One generated task as wire fields.
#[derive(Clone)]
struct WireTask {
    id: usize,
    release_ms: f64,
    deadline_ms: f64,
    work_cycles: f64,
}

/// Generates `shapes` distinct feasible task-set shapes.
fn make_shapes(opts: &Opts, rng: &mut SplitMix64) -> Vec<Vec<WireTask>> {
    (0..opts.shapes)
        .map(|_| {
            let common_release = rng.gen_bool(0.5);
            (0..opts.tasks)
                .map(|id| {
                    let release_ms = if common_release {
                        0.0
                    } else {
                        rng.gen_range(0.0..10.0)
                    };
                    let deadline_ms = release_ms + rng.gen_range(20.0..80.0);
                    let work_cycles = rng.gen_range(1.0e6..8.0e6);
                    WireTask {
                        id,
                        release_ms,
                        deadline_ms,
                        work_cycles,
                    }
                })
                .collect()
        })
        .collect()
}

/// Generates `shapes` distinct Theorem-1 shapes for the bounded tiers:
/// one shared release and one shared deadline per shape, varied works.
fn make_bounded_shapes(opts: &Opts, rng: &mut SplitMix64) -> Vec<Vec<WireTask>> {
    (0..opts.shapes)
        .map(|_| {
            let deadline_ms = rng.gen_range(40.0..120.0);
            (0..opts.tasks)
                .map(|id| WireTask {
                    id,
                    release_ms: 0.0,
                    deadline_ms,
                    work_cycles: rng.gen_range(1.0e6..8.0e6),
                })
                .collect()
        })
        .collect()
}

/// Renders one request line: a seeded shape pick plus a rotation of its
/// task order, so permuted repeats hit the canonicalized cache.
fn request_line(id: u64, scheme: &str, shape: &[WireTask], rotate: usize) -> String {
    let mut line = format!("{{\"v\":1,\"id\":{id},\"scheme\":\"{scheme}\",\"tasks\":[");
    for i in 0..shape.len() {
        let t = &shape[(i + rotate) % shape.len()];
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "[{},{},{},{}]",
            t.id, t.release_ms, t.deadline_ms, t.work_cycles
        ));
    }
    line.push_str("]}");
    line
}

fn main() {
    let opts = match parse_opts() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    let mut rng = SplitMix64::seed_from_u64(opts.seed);
    let shapes = make_shapes(&opts, &mut rng);
    let bounded_shapes = make_bounded_shapes(&opts, &mut rng);
    let lines: Vec<String> = (0..opts.requests)
        .map(|id| {
            let pick = (rng.next_u64() % opts.shapes as u64) as usize;
            let rotate = (rng.next_u64() % opts.tasks as u64) as usize;
            // A seeded slice of the stream routes through the bounded
            // tiers (Theorem-1 shapes, size-routed by bounded-auto).
            if opts.bounded > 0.0 && rng.gen_bool(opts.bounded) {
                request_line(id, "bounded-auto", &bounded_shapes[pick], rotate)
            } else {
                request_line(id, "auto", &shapes[pick], rotate)
            }
        })
        .collect();

    let mut body = lines.join("\n");
    body.push('\n');
    std::fs::write(&opts.emit, body).expect("write batch");
    eprintln!("loadgen: wrote {} requests to {}", lines.len(), opts.emit);
}
