//! The versioned request/response surface of the scheduling service.
//!
//! Everything that crosses the wire is defined here, serde-free: requests
//! and responses are plain structs with hand-rolled JSONL encoders and a
//! decoder built on `sdem-obs`'s dependency-free JSON parser. The same
//! types are the entry surface for batch mode — `sdem-cli schedule`
//! builds a [`SolveRequest`] from its flags and calls [`execute_in`], so
//! the daemon and the CLI answer with one code path.
//!
//! # Versioning and stability
//!
//! * Every line carries `"v": 1` ([`API_VERSION`]). Fields are
//!   append-only within a version; unknown request fields are ignored.
//! * Error responses spell their class with the stable
//!   [`ErrorKind`] string codes shared with CLI exit codes and
//!   quarantine JSONL.
//! * Numeric results carry both a decimal rendering and the exact IEEE
//!   bit pattern (`"energy_bits": "0x…"`), so bit-identity can be
//!   asserted across transports that reformat decimals.
//!
//! # Wire format
//!
//! One JSON object per line, newline-delimited, both directions:
//!
//! ```json
//! {"v":1,"id":7,"scheme":"auto","cores":8,"tasks":[[0,0.0,40.0,8e6],[1,0.0,70.0,1.2e7]]}
//! {"v":1,"id":7,"ok":true,"scheme":"auto","resolved":"solve/common-release-overhead","tasks":2,"cores_used":2,"energy_j":0.2033863029239766,"energy_bits":"0x3fca088ff7c1a45f","memory_sleep_ms":7.813191936431907,"memory_sleep_bits":"0x401f40b563116241","degraded":false}
//! {"v":1,"id":8,"ok":false,"error":{"kind":"bad-request","detail":"..."}}
//! ```

use core::fmt;
use core::fmt::Write as _;

use sdem_core::{
    schedule_race_to_idle_in, solve_in, solve_or_fallback_in, Scheme, SdemError, Solution,
    TrialError, SCHEMES,
};
use sdem_obs::json::{self, Event, Reader, Value};
use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_types::{Cycles, ErrorKind, Task, TaskSet, Time, Watts, Workspace};

/// Protocol version spoken by this build. Requests with a different `v`
/// are rejected with `bad-request`.
pub const API_VERSION: u64 = 1;

/// Default number of cores when a request omits `cores`.
pub const DEFAULT_CORES: usize = 8;

/// Default memory awake power (`alpha_m_w`) in watts — the paper's DRAM.
pub const DEFAULT_ALPHA_M_W: f64 = 4.0;

/// Default memory break-even time (`xi_m_ms`) in milliseconds.
pub const DEFAULT_XI_M_MS: f64 = 40.0;

/// A typed wire error: the stable [`ErrorKind`] code plus a human detail.
///
/// This is the single error shape every failure is folded into at the
/// protocol boundary — `SdemError`, `TrialError`, parse errors and load
/// conditions all become an `ApiError` before they reach a client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// Stable machine-readable class (`kind.code()` goes on the wire).
    pub kind: ErrorKind,
    /// Human-readable detail; free-form, never parsed by clients.
    pub detail: String,
}

impl ApiError {
    /// An error of `kind` with a human-readable detail.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> Self {
        Self {
            kind,
            detail: detail.into(),
        }
    }

    /// A `bad-request` protocol-boundary rejection.
    pub fn bad_request(detail: impl Into<String>) -> Self {
        Self::new(ErrorKind::BadRequest, detail)
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.detail)
    }
}

impl std::error::Error for ApiError {}

impl From<SdemError> for ApiError {
    fn from(e: SdemError) -> Self {
        Self::new(e.kind(), e.to_string())
    }
}

impl From<TrialError> for ApiError {
    fn from(e: TrialError) -> Self {
        Self::new(e.error_kind(), e.to_string())
    }
}

/// One solve request, decoded and validated.
///
/// All numeric fields have been checked finite (and in range) by
/// [`SolveRequest::parse_line`]; a `SolveRequest` value is always safe to
/// hand to the solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Requested scheme (SDEM schemes only; baselines are batch-CLI-only).
    pub scheme: Scheme,
    /// The scheme name as requested (echoed in the response).
    pub scheme_name: String,
    /// Core budget for the bounded schemes.
    pub cores: usize,
    /// Memory awake power override, watts.
    pub alpha_m_w: f64,
    /// Memory break-even override, milliseconds.
    pub xi_m_ms: f64,
    /// Optional queue deadline, milliseconds relative to admission: if the
    /// request waits longer than this before a worker picks it up, it is
    /// answered with `deadline-expired` instead of being solved.
    pub deadline_ms: Option<f64>,
    /// Route through the degraded-mode fallback chain instead of failing
    /// on a scheme rejection.
    pub fallback: bool,
    /// The validated task set, in the order the client sent it.
    pub tasks: TaskSet,
}

/// The longest scheme name an unknown-scheme error echoes whole.
const SCHEME_ECHO_BYTES: usize = 64;

/// Maps a wire/CLI scheme name onto the [`Scheme`] enum, reading
/// [`SCHEMES`].
///
/// Only the SDEM schemes are routable here — the single-core substrate
/// baselines (`yds`, `oa`, …) are deliberately batch-only.
///
/// # Errors
///
/// A `bad-request` [`ApiError`] listing [`scheme_names`] for a name the
/// table does not hold. The detail echoes a name of up to 64 bytes
/// whole; a longer one is cut to its first 64 bytes (on a char boundary)
/// and its byte length is stated, so the error line stays short however
/// long the name is.
pub fn scheme_from_name(name: &str, cores: usize) -> Result<Scheme, ApiError> {
    Scheme::from_wire_name(name, cores).ok_or_else(|| {
        let detail = if name.len() <= SCHEME_ECHO_BYTES {
            format!("unknown scheme `{name}` (expected {})", scheme_names())
        } else {
            format!(
                "unknown scheme `{}…` ({} bytes; expected {})",
                &name[..name.floor_char_boundary(SCHEME_ECHO_BYTES)],
                name.len(),
                scheme_names()
            )
        };
        ApiError::bad_request(detail)
    })
}

/// The accepted scheme names in [`SCHEMES`] order, as prose:
/// `"auto, sdem-on, … or dag-federated"`.
pub fn scheme_names() -> String {
    let names: Vec<&str> = SCHEMES.iter().filter_map(|e| e.wire).collect();
    let (last, rest) = names.split_last().expect("the table names some schemes");
    format!("{} or {last}", rest.join(", "))
}

/// Builds the service platform: the paper's Cortex-A57 cores with the
/// request's memory-model overrides, both validated finite and
/// non-negative at the boundary.
pub fn platform_for(alpha_m_w: f64, xi_m_ms: f64) -> Result<Platform, ApiError> {
    if !(alpha_m_w.is_finite() && alpha_m_w >= 0.0) {
        return Err(ApiError::bad_request(format!(
            "`alpha_m_w` must be a finite non-negative power, got {alpha_m_w}"
        )));
    }
    if !(xi_m_ms.is_finite() && xi_m_ms >= 0.0) {
        return Err(ApiError::bad_request(format!(
            "`xi_m_ms` must be a finite non-negative time, got {xi_m_ms}"
        )));
    }
    let platform = Platform::new(
        CorePower::cortex_a57(),
        MemoryPower::new(Watts::new(alpha_m_w)).with_break_even(Time::from_millis(xi_m_ms)),
    );
    platform
        .validate()
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    Ok(platform)
}

impl SolveRequest {
    /// Decodes and validates one request line.
    ///
    /// # Errors
    ///
    /// Everything wrong with a line — malformed JSON, a wrong version, a
    /// missing id, non-finite or negative numbers, an invalid task set —
    /// is a `bad-request` [`ApiError`]; nothing non-finite can reach the
    /// solvers through this constructor.
    pub fn parse_line(line: &str) -> Result<Self, ApiError> {
        Self::decode(line).map_err(|(error, _)| error)
    }

    /// [`Self::parse_line`], also returning the id a rejected line
    /// carries (so the rejection can echo it): the first top-level `id`
    /// member of a syntactically valid line, when it is an unsigned
    /// integer.
    ///
    /// The line is read once, straight into the task vector: a JSON
    /// syntax error anywhere in it comes first, then the field checks in
    /// a fixed order (v, id, cores, scheme, alpha_m_w, xi_m_ms,
    /// deadline_ms, fallback, tasks, each row, the task set, the
    /// platform), whatever order the members came in. Keys match after
    /// their escapes are resolved; a repeated key's first value counts,
    /// and the rest, like unknown members, are read only for syntax.
    pub fn decode(line: &str) -> Result<Self, (ApiError, Option<u64>)> {
        let members = Members::read(line).map_err(|e| {
            let error = ApiError::bad_request(format!("malformed request JSON: {e}"));
            (error, None)
        })?;
        let id = members.id.as_ref().and_then(Value::as_u64);
        members.validate().map_err(|error| (error, id))
    }

    /// Encodes the request as one JSONL line (the exact format
    /// [`Self::parse_line`] reads).
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96 + 48 * self.tasks.len());
        out.push_str(&format!(
            "{{\"v\":{API_VERSION},\"id\":{},\"scheme\":{},\"cores\":{},\"alpha_m_w\":{},\"xi_m_ms\":{}",
            self.id,
            json::quote(&self.scheme_name),
            self.cores,
            self.alpha_m_w,
            self.xi_m_ms,
        ));
        if let Some(d) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if self.fallback {
            out.push_str(",\"fallback\":true");
        }
        out.push_str(",\"tasks\":[");
        for (i, t) in self.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{}]",
                t.id().0,
                t.release().as_millis(),
                t.deadline().as_millis(),
                t.work().value(),
            ));
        }
        out.push_str("]}");
        out
    }

    /// The platform this request solves against.
    pub fn platform(&self) -> Result<Platform, ApiError> {
        platform_for(self.alpha_m_w, self.xi_m_ms)
    }
}

/// The first value of each member a request line sets, from one pass
/// over it; `tasks` is decoded row by row as it streams past.
#[derive(Default)]
struct Members {
    v: Option<Value>,
    id: Option<Value>,
    cores: Option<Value>,
    scheme: Option<Value>,
    alpha_m_w: Option<Value>,
    xi_m_ms: Option<Value>,
    deadline_ms: Option<Value>,
    fallback: Option<Value>,
    /// The rows, or the first row (or shape) error.
    tasks: Option<Result<Vec<Task>, ApiError>>,
}

impl Members {
    fn read(line: &str) -> Result<Self, json::ParseError> {
        let mut reader = Reader::new(line);
        let mut members = Self::default();
        // A document that is not an object has no members; `finish` reads
        // past it.
        if reader.next_event()? == Event::BeginObject {
            while let Event::Key(key) = reader.next_event()? {
                let first = reader.next_event()?;
                let slot = match &*key {
                    "v" => &mut members.v,
                    "id" => &mut members.id,
                    "cores" => &mut members.cores,
                    "scheme" => &mut members.scheme,
                    "alpha_m_w" => &mut members.alpha_m_w,
                    "xi_m_ms" => &mut members.xi_m_ms,
                    "deadline_ms" => &mut members.deadline_ms,
                    "fallback" => &mut members.fallback,
                    "tasks" if members.tasks.is_none() => {
                        members.tasks = Some(read_rows(&mut reader, first)?);
                        continue;
                    }
                    _ => {
                        reader.skip(first)?;
                        continue;
                    }
                };
                if slot.is_none() {
                    *slot = Some(reader.value(first)?);
                } else {
                    reader.skip(first)?;
                }
            }
        }
        reader.finish()?;
        Ok(members)
    }

    fn validate(self) -> Result<SolveRequest, ApiError> {
        let version = match &self.v {
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
        let id = self
            .id
            .as_ref()
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
        let num_or = |field: &'static str, value: &Option<Value>, default: f64| match value {
            None => Ok(default),
            Some(v) => finite(
                field,
                v.as_f64()
                    .ok_or_else(|| ApiError::bad_request(format!("`{field}` must be a number")))?,
            ),
        };

        let cores = match &self.cores {
            None => DEFAULT_CORES,
            Some(v) => v
                .as_u64()
                .filter(|&n| n > 0)
                .ok_or_else(|| ApiError::bad_request("`cores` must be a positive integer"))?
                as usize,
        };
        let scheme_name = match self.scheme {
            None => Scheme::Auto
                .wire_name()
                .expect("SCHEMES names Auto")
                .to_string(),
            Some(Value::Str(name)) => name,
            Some(_) => return Err(ApiError::bad_request("`scheme` must be a string")),
        };
        let scheme = scheme_from_name(&scheme_name, cores)?;
        let alpha_m_w = num_or("alpha_m_w", &self.alpha_m_w, DEFAULT_ALPHA_M_W)?;
        let xi_m_ms = num_or("xi_m_ms", &self.xi_m_ms, DEFAULT_XI_M_MS)?;
        let deadline_ms = match &self.deadline_ms {
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
        let fallback = match self.fallback {
            None => false,
            Some(Value::Bool(b)) => b,
            Some(_) => return Err(ApiError::bad_request("`fallback` must be a boolean")),
        };

        let tasks = self
            .tasks
            .unwrap_or_else(|| Err(ApiError::bad_request(TASKS_REQUIRED)))?;
        let tasks = TaskSet::new(tasks)
            .map_err(|e| ApiError::bad_request(format!("invalid tasks: {e}")))?;

        // The platform overrides are validated here too, so a bad request
        // is rejected before it is admitted to the queue.
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

const TASKS_REQUIRED: &str = "`tasks` (array of arrays) is required";

/// Fewest bytes a row takes on the wire, `[0,0,0,0],`.
const MIN_ROW_BYTES: usize = 10;

/// Reads the `tasks` value that `first` begins: every row straight into a
/// [`Task`] until the first bad one, whose error is kept; later rows are
/// read only for their syntax.
fn read_rows<'a>(
    reader: &mut Reader<'a>,
    first: Event<'a>,
) -> Result<Result<Vec<Task>, ApiError>, json::ParseError> {
    if first != Event::BeginArray {
        reader.skip(first)?;
        return Ok(Err(ApiError::bad_request(TASKS_REQUIRED)));
    }
    // Every row opens with `[`, so the brackets left in the line bound
    // the row count, exactly when only rows follow (a line that ends with
    // its tasks): the list is allocated once. Each row takes at least
    // MIN_ROW_BYTES, which bounds the count where brackets follow that
    // are not rows.
    let rest = reader.rest();
    let brackets = rest.bytes().filter(|&b| b == b'[').count();
    let mut rows = Ok(Vec::with_capacity(brackets.min(rest.len() / MIN_ROW_BYTES)));
    let mut i = 0;
    loop {
        let first = reader.next_event()?;
        if first == Event::EndArray {
            if let Ok(tasks) = &mut rows {
                // A no-op unless brackets followed that were not rows.
                tasks.shrink_to_fit();
            }
            return Ok(rows);
        }
        match &mut rows {
            Ok(tasks) => match read_row(reader, first, i)? {
                Ok(task) => tasks.push(task),
                Err(error) => rows = Err(error),
            },
            Err(_) => reader.skip(first)?,
        }
        i += 1;
    }
}

/// Reads row `i`, which `first` begins, and checks it as a
/// `[id, release_ms, deadline_ms, work_cycles]` task.
fn read_row<'a>(
    reader: &mut Reader<'a>,
    first: Event<'a>,
    i: usize,
) -> Result<Result<Task, ApiError>, json::ParseError> {
    let shape_error = || {
        ApiError::bad_request(format!(
            "`tasks[{i}]` must be a 4-element array [id, release_ms, deadline_ms, work_cycles]"
        ))
    };
    if first != Event::BeginArray {
        reader.skip(first)?;
        return Ok(Err(shape_error()));
    }
    // Each cell is a number or not; no check reads any other kind.
    let mut cells = [None; 4];
    let mut len = 0;
    loop {
        match reader.next_event()? {
            Event::EndArray => break,
            Event::Num(n) if len < cells.len() => cells[len] = Some(n),
            first => reader.skip(first)?,
        }
        len += 1;
    }
    if len != cells.len() {
        return Ok(Err(shape_error()));
    }
    Ok(task_from_cells(i, cells))
}

fn task_from_cells(i: usize, cells: [Option<f64>; 4]) -> Result<Task, ApiError> {
    let tid = cells[0]
        .and_then(|n| Value::Num(n).as_u64())
        .ok_or_else(|| {
            ApiError::bad_request(format!(
                "`tasks[{i}][0]` (task id) must be an unsigned integer"
            ))
        })?;
    let mut nums = [0.0_f64; 3];
    for (j, cell) in cells[1..].iter().enumerate() {
        let v = cell.ok_or_else(|| {
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
    Ok(Task::new(
        tid as usize,
        Time::from_millis(nums[0]),
        Time::from_millis(nums[1]),
        Cycles::new(nums[2]),
    ))
}

/// A successful solve, as it goes on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Echo of the requested scheme name.
    pub scheme: String,
    /// Label of the scheme that actually ran (`auto` routes by shape).
    pub resolved: &'static str,
    /// Number of tasks scheduled.
    pub tasks: usize,
    /// Number of cores the schedule uses.
    pub cores_used: usize,
    /// Predicted energy, joules.
    pub energy_j: f64,
    /// Total memory sleep time, milliseconds.
    pub memory_sleep_ms: f64,
    /// Whether the degraded-mode fallback produced the solution.
    pub degraded: bool,
}

impl SolveResponse {
    /// Encodes the response as one JSONL line. The encoding is a pure
    /// function of the fields — the service relies on this for its
    /// byte-identical-across-worker-counts guarantee — and carries the
    /// exact bit patterns of both f64 results next to their decimal
    /// renderings.
    pub fn to_json_line(&self) -> String {
        self.render().0
    }

    /// The response line and the offset in it where the bytes after the
    /// id begin (`,"ok":true,…`): every byte from there on is a function
    /// of the fields other than the id.
    pub(crate) fn render(&self) -> (String, usize) {
        let mut line = String::with_capacity(LINE_BYTES);
        push_line_head(&mut line, self.id);
        let tail = line.len();
        line.push_str(",\"ok\":true,\"scheme\":\"");
        json::escape_into(&self.scheme, &mut line);
        line.push_str("\",\"resolved\":\"");
        json::escape_into(self.resolved, &mut line);
        let _ = write!(
            line,
            "\",\"tasks\":{},\"cores_used\":{},\"energy_j\":{},\"energy_bits\":\"{:#018x}\",\
             \"memory_sleep_ms\":{},\"memory_sleep_bits\":\"{:#018x}\",\"degraded\":{}}}",
            self.tasks,
            self.cores_used,
            self.energy_j,
            self.energy_j.to_bits(),
            self.memory_sleep_ms,
            self.memory_sleep_ms.to_bits(),
            self.degraded,
        );
        (line, tail)
    }
}

/// Room for a typical response line, so rendering one reallocates rarely.
const LINE_BYTES: usize = 288;

/// Appends `{"v":1,"id":<id>`, a response line up to the end of its id.
pub(crate) fn push_line_head(out: &mut String, id: u64) {
    let _ = write!(out, "{{\"v\":{API_VERSION},\"id\":{id}");
}

/// Renders an error reply line. `id` is `null` when the failure happened
/// before an id could be decoded.
pub fn error_line(id: Option<u64>, error: &ApiError) -> String {
    let id = match id {
        Some(id) => id.to_string(),
        None => "null".to_string(),
    };
    format!(
        "{{\"v\":{API_VERSION},\"id\":{id},\"ok\":false,\"error\":{{\"kind\":{},\"detail\":{}}}}}",
        json::quote(error.kind.code()),
        json::quote(&error.detail),
    )
}

/// A solve outcome: the full [`Solution`] (for callers that need the
/// schedule, e.g. the CLI's placement listing) plus the wire response.
#[derive(Debug, Clone, PartialEq)]
pub struct Executed {
    /// The solver's solution, schedule included.
    pub solution: Solution,
    /// The response summarizing it.
    pub response: SolveResponse,
}

/// Executes a request against a warm [`Workspace`]: canonicalize, solve,
/// summarize.
///
/// The task set is [canonicalized](TaskSet::canonicalize) before solving,
/// so the outcome is a pure function of the task *multiset* — two
/// permutations of one request produce bit-identical responses, which is
/// what makes the service's canonicalized cache sound.
pub fn execute_in(
    req: &SolveRequest,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Executed, ApiError> {
    execute_canonical_in(req, &req.tasks.canonicalize(), platform, ws)
}

/// [`execute_in`] on `tasks`, the canonical form of `req.tasks` that the
/// caller already built (the service's cache key).
pub(crate) fn execute_canonical_in(
    req: &SolveRequest,
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Executed, ApiError> {
    let solution = if req.fallback {
        solve_or_fallback_in(tasks, platform, req.scheme, ws)?
    } else {
        solve_in(tasks, platform, req.scheme, ws)?
    };
    let resolved = req.scheme.resolve(tasks, platform).solve_label();
    Ok(executed(req, resolved, solution))
}

/// Wire label of responses produced by the degradation tier, which a
/// chaos plan's `queue-full` injections route requests through.
pub const DEGRADED_RESOLVED: &str = "degraded/race-to-idle";

/// Executes a request through the degradation tier: the race-to-idle
/// baseline — the fallback half of `solve_or_fallback` — invoked
/// directly, skipping the requested scheme entirely.
///
/// The service routes a request here when a chaos plan forces it
/// (`queue-full`): race-to-idle is cheap and always feasible when any
/// schedule is, so answering degraded beats shedding. The response
/// carries `"degraded": true` and `"resolved": "degraded/race-to-idle"`
/// so clients can tell a degraded answer from a full solve.
pub fn execute_degraded_in(
    req: &SolveRequest,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Executed, ApiError> {
    let tasks = req.tasks.canonicalize();
    let solution = schedule_race_to_idle_in(&tasks, platform, ws)?.with_degraded(true);
    Ok(executed(req, DEGRADED_RESOLVED, solution))
}

/// Summarizes `solution`, which `resolved` produced for `req`, as its
/// wire response.
fn executed(req: &SolveRequest, resolved: &'static str, solution: Solution) -> Executed {
    let response = SolveResponse {
        id: req.id,
        scheme: req.scheme_name.clone(),
        resolved,
        tasks: req.tasks.len(),
        cores_used: solution.schedule().cores_used(),
        energy_j: solution.predicted_energy().value(),
        memory_sleep_ms: solution.memory_sleep().as_millis(),
        degraded: solution.is_degraded(),
    };
    Executed { solution, response }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_line() -> String {
        "{\"v\":1,\"id\":7,\"scheme\":\"auto\",\"cores\":4,\
         \"tasks\":[[0,0.0,40.0,8e6],[1,0.0,70.0,1.2e7]]}"
            .to_string()
    }

    #[test]
    fn request_round_trips_through_jsonl() {
        let req = SolveRequest::parse_line(&request_line()).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.scheme, Scheme::Auto);
        assert_eq!(req.cores, 4);
        assert_eq!(req.tasks.len(), 2);
        let line = req.to_json_line();
        let again = SolveRequest::parse_line(&line).unwrap();
        assert_eq!(req, again);
    }

    #[test]
    fn defaults_apply_when_fields_are_omitted() {
        let req = SolveRequest::parse_line("{\"id\":1,\"tasks\":[[0,0,10,1e6]]}").unwrap();
        assert_eq!(req.scheme_name, "auto");
        assert_eq!(req.cores, DEFAULT_CORES);
        assert_eq!(req.alpha_m_w, DEFAULT_ALPHA_M_W);
        assert_eq!(req.xi_m_ms, DEFAULT_XI_M_MS);
        assert_eq!(req.deadline_ms, None);
        assert!(!req.fallback);
    }

    #[test]
    fn bounded_scheme_names_route_with_the_core_budget() {
        // A bounded-auto request solves and reports the tier the router
        // actually picked (two tasks → the exact tier).
        let req = SolveRequest::parse_line(
            "{\"v\":1,\"id\":11,\"scheme\":\"bounded-auto\",\"cores\":2,\
             \"tasks\":[[0,0.0,80.0,8e6],[1,0.0,80.0,1.2e7]]}",
        )
        .unwrap();
        assert_eq!(req.scheme, Scheme::BoundedAuto(2));
        let platform = req.platform().unwrap();
        let executed = execute_in(&req, &platform, &mut Workspace::new()).unwrap();
        assert_eq!(executed.response.scheme, "bounded-auto");
        assert_eq!(executed.response.resolved, "solve/bounded-exact");
        assert!(executed.response.energy_j > 0.0);
    }

    #[test]
    fn dag_federated_routes_with_the_core_budget() {
        let req = SolveRequest::parse_line(
            "{\"v\":1,\"id\":12,\"scheme\":\"dag-federated\",\"cores\":2,\
             \"tasks\":[[0,0.0,80.0,8e6],[1,0.0,80.0,1.2e7]]}",
        )
        .unwrap();
        assert_eq!(req.scheme, Scheme::DagFederated(2));
        let platform = req.platform().unwrap();
        let executed = execute_in(&req, &platform, &mut Workspace::new()).unwrap();
        assert_eq!(executed.response.scheme, "dag-federated");
        assert_eq!(executed.response.resolved, "solve/dag-federated");
        assert!(executed.response.energy_j > 0.0);
    }

    #[test]
    fn rejects_are_typed_bad_requests() {
        for line in [
            "",                                                       // empty
            "not json",                                               // malformed
            "{\"id\":1}",                                             // no tasks
            "{\"tasks\":[[0,0,10,1e6]]}",                             // no id
            "{\"v\":2,\"id\":1,\"tasks\":[[0,0,10,1e6]]}",            // wrong version
            "{\"id\":1,\"tasks\":[[0,0,10]]}",                        // short row
            "{\"id\":1,\"tasks\":[[0,0,10,1e6]],\"scheme\":\"yds\"}", // baseline scheme
            "{\"id\":1,\"tasks\":[[0,0,10,1e6]],\"cores\":0}",        // zero cores
            "{\"id\":1,\"tasks\":[[0,10,10,1e6]]}",                   // empty window
            "{\"id\":1,\"tasks\":[[0,0,10,1e6],[0,0,20,1e6]]}",       // duplicate id
            "{\"id\":1,\"tasks\":[[0,0,10,-1]]}",                     // negative work
            "{\"id\":1,\"tasks\":[[0,0,10,1e6]],\"fallback\":3}",     // bad flag type
        ] {
            let err = SolveRequest::parse_line(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn long_strings_read_in_linear_time() {
        // A 4 MB scheme name, rejected after one linear pass (the reader
        // before the pull layer rescanned the rest of the line per
        // character: minutes at this size) and echoed cut to 64 bytes,
        // and a 4 MB unknown member with escapes, read past.
        let name = "s".repeat(4 << 20);
        let note = "n\\\"".repeat(1 << 20);
        for (line, want) in [
            (
                format!("{{\"id\":1,\"scheme\":\"{name}\",\"tasks\":[[0,0,10,1e6]]}}"),
                Err(format!(
                    "unknown scheme `{}…` ({} bytes; expected {})",
                    &name[..64],
                    name.len(),
                    scheme_names()
                )),
            ),
            (
                format!("{{\"id\":1,\"note\":\"{note}\",\"tasks\":[[0,0,10,1e6]]}}"),
                Ok(1),
            ),
        ] {
            let start = std::time::Instant::now();
            let got = SolveRequest::parse_line(&line);
            let took = start.elapsed();
            assert_eq!(got.map(|r| r.id).map_err(|e| e.detail), want);
            assert!(
                took.as_secs_f64() < 1.0,
                "{} MB line took {took:?}",
                line.len() >> 20
            );
        }
    }

    #[test]
    fn unknown_scheme_echo_is_cut_at_64_bytes_on_a_char_boundary() {
        let detail = |name: &str| scheme_from_name(name, 4).unwrap_err().detail;
        let names = scheme_names();
        let whole = "m".repeat(64);
        assert_eq!(
            detail(&whole),
            format!("unknown scheme `{whole}` (expected {names})")
        );
        let long = "m".repeat(65);
        assert_eq!(
            detail(&long),
            format!(
                "unknown scheme `{}…` (65 bytes; expected {names})",
                &long[..64]
            )
        );
        // A 2-byte char straddling byte 64 is dropped whole.
        let wide = format!("{}é{}", "m".repeat(63), "m".repeat(900_000));
        assert_eq!(
            detail(&wide),
            format!(
                "unknown scheme `{}…` ({} bytes; expected {names})",
                "m".repeat(63),
                wide.len()
            )
        );
        assert!(detail(&wide).len() < 1024);
    }

    #[test]
    fn non_finite_fields_are_rejected_at_the_boundary() {
        // 1e999 overflows to +inf in the JSON number parser; every numeric
        // field must catch it (satellite: PR 4 hardening at the wire layer).
        for line in [
            "{\"id\":1,\"tasks\":[[0,0,10,1e999]]}",
            "{\"id\":1,\"tasks\":[[0,1e999,10,1e6]]}",
            "{\"id\":1,\"tasks\":[[0,0,1e999,1e6]]}",
            "{\"id\":1,\"deadline_ms\":1e999,\"tasks\":[[0,0,10,1e6]]}",
            "{\"id\":1,\"deadline_ms\":-1,\"tasks\":[[0,0,10,1e6]]}",
            "{\"id\":1,\"alpha_m_w\":1e999,\"tasks\":[[0,0,10,1e6]]}",
            "{\"id\":1,\"alpha_m_w\":-4,\"tasks\":[[0,0,10,1e6]]}",
            "{\"id\":1,\"xi_m_ms\":-1e999,\"tasks\":[[0,0,10,1e6]]}",
        ] {
            let err = SolveRequest::parse_line(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "line: {line}");
        }
    }

    #[test]
    fn execute_canonicalizes_so_permutations_match_bitwise() {
        let fwd = SolveRequest::parse_line(&request_line()).unwrap();
        let rev = SolveRequest::parse_line(
            "{\"v\":1,\"id\":7,\"scheme\":\"auto\",\"cores\":4,\
             \"tasks\":[[1,0.0,70.0,1.2e7],[0,0.0,40.0,8e6]]}",
        )
        .unwrap();
        let platform = fwd.platform().unwrap();
        let a = execute_in(&fwd, &platform, &mut Workspace::new()).unwrap();
        let b = execute_in(&rev, &platform, &mut Workspace::new()).unwrap();
        assert_eq!(
            a.response.to_json_line(),
            b.response.to_json_line(),
            "permuted task order must not change the response bytes"
        );
        assert_eq!(a.response.energy_j.to_bits(), b.response.energy_j.to_bits());
        assert_eq!(a.solution, b.solution);
    }

    #[test]
    fn response_line_parses_and_carries_exact_bits() {
        let req = SolveRequest::parse_line(&request_line()).unwrap();
        let platform = req.platform().unwrap();
        let executed = execute_in(&req, &platform, &mut Workspace::new()).unwrap();
        let line = executed.response.to_json_line();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("v").and_then(Value::as_u64), Some(API_VERSION));
        assert_eq!(doc.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        let bits = doc.get("energy_bits").and_then(Value::as_str).unwrap();
        let bits = u64::from_str_radix(bits.strip_prefix("0x").unwrap(), 16).unwrap();
        assert_eq!(bits, executed.response.energy_j.to_bits());
        assert!(executed.response.energy_j > 0.0);
    }

    #[test]
    fn error_line_spells_stable_codes_and_null_ids() {
        let e = ApiError::new(ErrorKind::Overloaded, "queue full");
        let line = error_line(Some(9), &e);
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::as_str),
            Some("overloaded")
        );
        let anon = error_line(None, &ApiError::bad_request("no id"));
        assert!(anon.contains("\"id\":null"), "{anon}");
        assert_eq!(e.to_string(), "overloaded: queue full");
    }

    #[test]
    fn scheme_errors_fold_into_the_taxonomy() {
        // Staggered releases: a common-release scheme must reject, and the
        // ApiError must carry the scheme-error kind.
        let req = SolveRequest::parse_line(
            "{\"id\":3,\"scheme\":\"cr-alpha-nonzero\",\
             \"tasks\":[[0,0,40,8e6],[1,5,70,1.2e7]]}",
        )
        .unwrap();
        let platform = req.platform().unwrap();
        let err = execute_in(&req, &platform, &mut Workspace::new()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::SchemeError);
        // With fallback the same request degrades instead.
        let mut fb = req;
        fb.fallback = true;
        let executed = execute_in(&fb, &platform, &mut Workspace::new()).unwrap();
        assert!(executed.response.degraded);
    }

    #[test]
    fn degraded_tier_answers_with_the_explicit_flag() {
        let req = SolveRequest::parse_line(&request_line()).unwrap();
        let platform = req.platform().unwrap();
        let mut ws = Workspace::new();
        let degraded = execute_degraded_in(&req, &platform, &mut ws).unwrap();
        assert!(degraded.response.degraded);
        assert_eq!(degraded.response.resolved, DEGRADED_RESOLVED);
        assert!(degraded.response.energy_j > 0.0);
        // Degraded-tier output is deterministic: same request, same bytes.
        let again = execute_degraded_in(&req, &platform, &mut Workspace::new()).unwrap();
        assert_eq!(
            degraded.response.to_json_line(),
            again.response.to_json_line()
        );
        // The degraded answer solves the same instance the full path
        // would — same task count, a real finite energy — it only skips
        // the requested scheme.
        let full = execute_in(&req, &platform, &mut ws).unwrap();
        assert_eq!(degraded.response.tasks, full.response.tasks);
        assert!(degraded.response.energy_j.is_finite());
        assert!(!full.response.degraded);
    }
}
