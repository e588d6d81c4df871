//! Differential fuzzing of the one-pass request decoder.
//!
//! Seeded request lines — reordered, duplicated and escaped keys, unknown
//! members with nested values, `1e999`, `-0`, huge integers, deep nesting,
//! 1 MB tokens and byte-level corruption — go through both
//! [`SolveRequest::decode`] and the tree walk over `json::parse` that
//! decoded requests before it (kept below as the reference). Both must
//! accept the same request, or reject the line with the same error and
//! recover the same id for the rejection.

use sdem_obs::json::{self, Value, MAX_DEPTH};
use sdem_prng::{Rng, SeedableRng, SplitMix64};
use sdem_serve::api::{
    platform_for, scheme_names, ApiError, SolveRequest, API_VERSION, DEFAULT_ALPHA_M_W,
    DEFAULT_CORES, DEFAULT_XI_M_MS,
};
use sdem_types::{Cycles, Task, TaskSet, Time};

/// The request decoder before the one-pass reader: `json::parse` into a
/// tree, then field lookups; a rejected line's id is recovered by parsing
/// it again, as the service did.
mod reference {
    use super::*;
    use sdem_core::Scheme;

    pub fn decode(line: &str) -> Result<SolveRequest, (ApiError, Option<u64>)> {
        parse_line(line).map_err(|e| {
            let id = json::parse(line)
                .ok()
                .and_then(|d| d.get("id").and_then(Value::as_u64));
            (e, id)
        })
    }

    /// The unknown-scheme detail: a name of at most 64 bytes whole, a
    /// longer one cut to its first 64 bytes on a char boundary, with its
    /// byte length.
    fn unknown_scheme(name: &str) -> String {
        let names = scheme_names();
        if name.len() <= 64 {
            return format!("unknown scheme `{name}` (expected {names})");
        }
        let cut = (0..=64)
            .rev()
            .find(|&i| name.is_char_boundary(i))
            .unwrap_or(0);
        format!(
            "unknown scheme `{}…` ({} bytes; expected {names})",
            &name[..cut],
            name.len()
        )
    }

    fn parse_line(line: &str) -> Result<SolveRequest, ApiError> {
        let doc = json::parse(line)
            .map_err(|e| ApiError::bad_request(format!("malformed request JSON: {e}")))?;
        let version = match doc.get("v") {
            None => API_VERSION,
            Some(v) => v
                .as_u64()
                .ok_or_else(|| ApiError::bad_request("`v` must be an unsigned integer"))?,
        };
        if version != API_VERSION {
            return Err(ApiError::bad_request(format!(
                "unsupported protocol version {version} (this build speaks v{API_VERSION})"
            )));
        }
        let id = doc
            .get("id")
            .and_then(Value::as_u64)
            .ok_or_else(|| ApiError::bad_request("`id` (unsigned integer) is required"))?;

        let finite = |field: &'static str, v: f64| -> Result<f64, ApiError> {
            if v.is_finite() {
                Ok(v)
            } else {
                Err(ApiError::bad_request(format!(
                    "`{field}` must be finite, got {v}"
                )))
            }
        };
        let num_or = |field: &'static str, default: f64| -> Result<f64, ApiError> {
            match doc.get(field) {
                None => Ok(default),
                Some(v) => finite(
                    field,
                    v.as_f64().ok_or_else(|| {
                        ApiError::bad_request(format!("`{field}` must be a number"))
                    })?,
                ),
            }
        };

        let cores = match doc.get("cores") {
            None => DEFAULT_CORES,
            Some(v) => v
                .as_u64()
                .filter(|&n| n > 0)
                .ok_or_else(|| ApiError::bad_request("`cores` must be a positive integer"))?
                as usize,
        };
        let scheme_name = match doc.get("scheme") {
            None => Scheme::Auto
                .wire_name()
                .expect("SCHEMES names Auto")
                .to_string(),
            Some(v) => v
                .as_str()
                .ok_or_else(|| ApiError::bad_request("`scheme` must be a string"))?
                .to_string(),
        };
        let scheme = Scheme::from_wire_name(&scheme_name, cores)
            .ok_or_else(|| ApiError::bad_request(unknown_scheme(&scheme_name)))?;
        let alpha_m_w = num_or("alpha_m_w", DEFAULT_ALPHA_M_W)?;
        let xi_m_ms = num_or("xi_m_ms", DEFAULT_XI_M_MS)?;
        let deadline_ms = match doc.get("deadline_ms") {
            None => None,
            Some(v) => {
                let d = finite(
                    "deadline_ms",
                    v.as_f64()
                        .ok_or_else(|| ApiError::bad_request("`deadline_ms` must be a number"))?,
                )?;
                if d < 0.0 {
                    return Err(ApiError::bad_request(format!(
                        "`deadline_ms` must be non-negative, got {d}"
                    )));
                }
                Some(d)
            }
        };
        let fallback = match doc.get("fallback") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err(ApiError::bad_request("`fallback` must be a boolean")),
        };

        let rows = doc
            .get("tasks")
            .and_then(Value::as_arr)
            .ok_or_else(|| ApiError::bad_request("`tasks` (array of arrays) is required"))?;
        let mut tasks = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let cells = row.as_arr().filter(|c| c.len() == 4).ok_or_else(|| {
                ApiError::bad_request(format!(
                    "`tasks[{i}]` must be a 4-element array [id, release_ms, deadline_ms, work_cycles]"
                ))
            })?;
            let tid = cells[0].as_u64().ok_or_else(|| {
                ApiError::bad_request(format!(
                    "`tasks[{i}][0]` (task id) must be an unsigned integer"
                ))
            })?;
            let mut nums = [0.0_f64; 3];
            for (j, cell) in cells[1..].iter().enumerate() {
                let v = cell.as_f64().ok_or_else(|| {
                    ApiError::bad_request(format!("`tasks[{i}][{}]` must be a number", j + 1))
                })?;
                if !v.is_finite() {
                    return Err(ApiError::bad_request(format!(
                        "`tasks[{i}][{}]` must be finite, got {v}",
                        j + 1
                    )));
                }
                nums[j] = v;
            }
            tasks.push(Task::new(
                tid as usize,
                Time::from_millis(nums[0]),
                Time::from_millis(nums[1]),
                Cycles::new(nums[2]),
            ));
        }
        let tasks = TaskSet::new(tasks)
            .map_err(|e| ApiError::bad_request(format!("invalid tasks: {e}")))?;

        platform_for(alpha_m_w, xi_m_ms)?;

        Ok(SolveRequest {
            id,
            scheme,
            scheme_name,
            cores,
            alpha_m_w,
            xi_m_ms,
            deadline_ms,
            fallback,
            tasks,
        })
    }
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn chance(rng: &mut SplitMix64, percent: usize) -> bool {
    below(rng, 100) < percent
}

fn pick<'a>(rng: &mut SplitMix64, items: &[&'a str]) -> &'a str {
    items[below(rng, items.len())]
}

/// Number tokens at the edges of the field checks.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "7",
    "-0",
    "-1",
    "2.5",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "18446744073709551616",
    "1e20",
    "4e0",
    "0.0",
    "1.5e-300",
    "40",
    "8e6",
];

/// Values of every other kind, including nested ones.
const OTHERS: &[&str] = &[
    "null",
    "true",
    "false",
    "\"auto\"",
    "\"x\\ny\"",
    "[]",
    "{}",
    "[1,2,3,4]",
    "{\"a\":[1,{\"b\":null}],\"c\":\"d\"}",
];

const SCHEME_NAMES: &[&str] = &[
    "auto",
    "sdem-on",
    "cr-alpha-zero",
    "bounded-auto",
    "dag-federated",
    "cr-alpha-nonzero",
    "yds",
    "magic",
    "Auto",
    // Echoed whole, and cut before the `é` that straddles byte 64.
    concat!(
        "mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm",
        "mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm"
    ),
    concat!(
        "mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm",
        "mmmmmmmmmmmmmmmmmmmmmmmmmmmmmmm",
        "é",
        "mm"
    ),
];

fn any_value(rng: &mut SplitMix64) -> String {
    if chance(rng, 50) {
        pick(rng, NUMBERS).to_string()
    } else {
        pick(rng, OTHERS).to_string()
    }
}

/// A value nested `depth` containers deep, alternating arrays and objects.
fn nested(depth: usize) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for d in 0..depth {
        if d % 2 == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str("{\"k\":");
            close.insert(0, '}');
        }
    }
    open + "0" + &close
}

/// One `tasks` row: mostly a valid task, sometimes a bad one.
fn row(rng: &mut SplitMix64, id: usize) -> String {
    let release = below(rng, 20);
    let deadline = release + 10 + below(rng, 80);
    let work = 1 + below(rng, 9);
    let mut cells = vec![
        id.to_string(),
        release.to_string(),
        deadline.to_string(),
        format!("{work}e6"),
    ];
    if chance(rng, 12) {
        let at = below(rng, cells.len());
        cells[at] = any_value(rng);
    }
    if chance(rng, 4) {
        cells.truncate(below(rng, 4));
    }
    if chance(rng, 3) {
        cells.push(any_value(rng));
    }
    if chance(rng, 2) {
        return any_value(rng);
    }
    format!("[{}]", cells.join(","))
}

fn tasks_value(rng: &mut SplitMix64) -> String {
    if chance(rng, 6) {
        return any_value(rng);
    }
    let n = below(rng, 6);
    let mut rows: Vec<String> = (0..n).map(|i| row(rng, i)).collect();
    if n > 0 && chance(rng, 5) {
        // A duplicate task id.
        rows.push(rows[0].clone());
    }
    format!("[{}]", rows.join(","))
}

/// The value of a known member: mostly valid, sometimes anything.
fn member_value(rng: &mut SplitMix64, key: &str) -> String {
    if key == "tasks" {
        return tasks_value(rng);
    }
    if chance(rng, 15) {
        return any_value(rng);
    }
    match key {
        "v" => "1".to_string(),
        "id" => (rng.next_u64() >> below(rng, 64)).to_string(),
        "scheme" => json::quote(pick(rng, SCHEME_NAMES)),
        "cores" => (1 + below(rng, 8)).to_string(),
        "alpha_m_w" => pick(rng, &["4", "0", "2.5", "-4"]).to_string(),
        "xi_m_ms" => pick(rng, &["40", "0", "12.5", "-1"]).to_string(),
        "deadline_ms" => pick(rng, &["10", "0", "-1", "2.5"]).to_string(),
        "fallback" => pick(rng, &["true", "false"]).to_string(),
        _ => unreachable!("no member {key}"),
    }
}

const KEYS: [&str; 9] = [
    "v",
    "id",
    "scheme",
    "cores",
    "alpha_m_w",
    "xi_m_ms",
    "deadline_ms",
    "fallback",
    "tasks",
];

/// A key as a JSON string, some of its characters written as `\u` escapes.
fn render_key(rng: &mut SplitMix64, key: &str) -> String {
    if !chance(rng, 10) {
        return json::quote(key);
    }
    let mut out = String::from("\"");
    for c in key.chars() {
        if chance(rng, 40) {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// A 1 MB token in a random role.
fn huge(rng: &mut SplitMix64) -> (String, String) {
    const MB: usize = 1 << 20;
    match below(rng, 4) {
        0 => ("scheme".into(), format!("\"{}\"", "s".repeat(MB))),
        1 => ("note".into(), format!("\"{}\\u00e9\"", "n".repeat(MB))),
        2 => ("alpha_m_w".into(), format!("1{}", "0".repeat(MB))),
        _ => ("x".repeat(MB), "1".into()),
    }
}

/// One to four byte edits, as the JSON reader fuzzer makes them.
fn corrupt(rng: &mut SplitMix64, line: &str) -> String {
    const ALPHABET: &[u8] = b"{}[]\",:\\/0123456789.eE+-ntfu \n\t\xff";
    let mut out = line.as_bytes().to_vec();
    for _ in 0..=below(rng, 4) {
        let at = below(rng, out.len() + 1);
        match below(rng, 4) {
            0 if at < out.len() => out[at] ^= 1 << below(rng, 8),
            1 => out.insert(at, ALPHABET[below(rng, ALPHABET.len())]),
            2 if at < out.len() => {
                out.remove(at);
            }
            _ => out.truncate(at),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn request_line(rng: &mut SplitMix64) -> String {
    if chance(rng, 2) {
        // Not an object at all.
        return pick(rng, &["[1,2]", "5", "\"id\"", "null", "[{\"id\":1}]"]).to_string();
    }
    let mut members = Vec::new();
    for key in KEYS {
        if chance(rng, 85) {
            members.push((key.to_string(), member_value(rng, key)));
        }
    }
    // Reorder.
    for i in (1..members.len()).rev() {
        members.swap(i, below(rng, i + 1));
    }
    // Duplicate a key with another value: the first one counts.
    for _ in 0..below(rng, 3) {
        let key = KEYS[below(rng, KEYS.len())];
        let value = member_value(rng, key);
        members.insert(below(rng, members.len() + 1), (key.to_string(), value));
    }
    // Unknown members, some nested to around the depth bound (the line's
    // object is one level itself).
    for n in 0..below(rng, 3) {
        let value = match below(rng, 4) {
            0 => nested(MAX_DEPTH - 2 + below(rng, 3)),
            1 => nested(1 + below(rng, 6)),
            _ => any_value(rng),
        };
        members.insert(below(rng, members.len() + 1), (format!("extra{n}"), value));
    }
    if chance(rng, 1) {
        members.insert(below(rng, members.len() + 1), huge(rng));
    }
    let sep = if chance(rng, 10) { " , " } else { "," };
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{}:{v}", render_key(rng, k)))
        .collect();
    let line = format!("{{{}}}", body.join(sep));
    if chance(rng, 10) {
        corrupt(rng, &line)
    } else {
        line
    }
}

/// Every check a line can fail, by the start of its error detail.
const CHECKS: [&str; 14] = [
    "malformed request JSON: ",
    "`v` must be an unsigned integer",
    "unsupported protocol version ",
    "`id` (unsigned integer) is required",
    "`cores` must be a positive integer",
    "`scheme` must be a string",
    "unknown scheme `",
    "`alpha_m_w` must be ",
    "`xi_m_ms` must be ",
    "`deadline_ms` must be ",
    "`fallback` must be a boolean",
    "`tasks` (array of arrays) is required",
    "`tasks[",
    "invalid tasks: ",
];

/// The line, cut for an assertion message.
fn shown(line: &str) -> String {
    if line.len() <= 200 {
        return line.to_string();
    }
    let cut = (0..=200)
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}… ({} bytes)", &line[..cut], line.len())
}

#[test]
fn one_pass_decode_matches_the_tree_walk() {
    let mut rng = SplitMix64::seed_from_u64(0x0DEC_0DE5);
    let mut accepted = 0usize;
    let mut ids = 0usize;
    let mut failed = [0usize; CHECKS.len()];
    for case in 0..6_000 {
        let line = request_line(&mut rng);
        let got = SolveRequest::decode(&line);
        assert_eq!(
            got,
            reference::decode(&line),
            "case {case}: {}",
            shown(&line)
        );
        match got {
            Ok(_) => accepted += 1,
            Err((error, id)) => {
                ids += usize::from(id.is_some());
                let check = CHECKS
                    .iter()
                    .position(|c| error.detail.starts_with(c))
                    .unwrap_or_else(|| panic!("unlisted rejection: {}", error.detail));
                failed[check] += 1;
            }
        }
    }
    // The lines reach every check, not only the JSON syntax.
    assert!(accepted > 100, "only {accepted} lines accepted");
    assert!(ids > 300, "only {ids} rejections recovered an id");
    for (check, count) in CHECKS.iter().zip(failed) {
        assert!(count > 0, "no line failed `{check}`: {failed:?}");
    }
}
