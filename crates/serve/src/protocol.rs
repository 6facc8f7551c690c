//! The JSON-lines wire protocol.
//!
//! Every request and response is one JSON object per line (`\n`-terminated,
//! no newlines inside). Grammar:
//!
//! ```text
//! request  = { "kind": KIND, ["id": u64], ...params } "\n"
//! KIND     = "embed" | "detect" | "analyze" | "timing" | "stats" |
//!            "shutdown" | "cluster_stats" | "open" | "mutate" | "close" |
//!            "attack" | "strength"
//! params   = "design": cdfg-text      (embed/detect/analyze/timing/open/
//!                                      attack/strength)
//!            "author": string         (embed/detect/attack/strength)
//!            "schedule": sched-text   (detect)
//!            "fraction": f64 | "k": u64             (embed/attack/strength)
//!            "deadline": u32, "lo": u64, "hi": u64  (analyze/timing)
//!            "samples": u64, "seed": u64            (analyze; seed also
//!                                                    drives attack/strength)
//!            "attack": string         (attack; "reschedule" | "rewire" |
//!                                      "resynth" | "strip")
//!            "budget": f64            (attack; fraction in [0, 1])
//!            "budgets": string        (strength; comma-separated budgets)
//!            "session": string        (open/mutate/close; optional on
//!                                      timing/analyze to query the held
//!                                      design incrementally)
//!            "edits": edit-script     (mutate; one edit per line)
//!            "timeout_ms": u64        (any; per-request deadline)
//! response = { ["id": u64], "kind": KIND, "ok": bool,
//!              "result": object | "error": {"code": CODE, "message": str, ...} } "\n"
//! ```
//!
//! Requests may be pipelined on one connection; responses carry the echoed
//! `id` so clients can match them when they complete out of order.
//!
//! A request line may hold at most [`MAX_LINE_BYTES`] bytes before its
//! `\n`. Both `localwm-serve` and `localwm-gateway` read lines through
//! [`read_request_line`]; a longer line gets the typed `bad_request` of
//! [`line_too_long`] after the answers to the lines before it, and then
//! the connection closes through [`linger_close`]: the server half-closes
//! its side and reads and discards input for a bounded time before it
//! drops the socket.
//!
//! JSON lines are the only encoding, from the first line of a connection
//! on. A line that is not a request object (the opening line of the
//! retired binary framing among them) gets a typed `bad_request`, and the
//! connection keeps reading lines.

use std::fmt;
use std::io::{self, BufRead, Read};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use serde::{DeError, Deserialize, Serialize, Value};

/// The longest JSON request line a server reads, in bytes, not counting
/// its `\n`: 8 MiB. A 3,000-op design, the largest the benchmark sends,
/// travels in about 0.6 MB, and the 200 KB nesting bomb stays far below
/// the cap, so it still reaches the parser's nesting check.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// What one [`read_request_line`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineRead {
    /// The peer closed the connection before sending another byte.
    Eof,
    /// A line of at most [`MAX_LINE_BYTES`] bytes, with its `\n` unless the
    /// peer closed right after it.
    Line,
    /// More than [`MAX_LINE_BYTES`] bytes without a `\n`; the rest of the
    /// line is left unread.
    TooLong,
}

/// Reads the next request line into `buf` (cleared first), reading at
/// most one byte past [`MAX_LINE_BYTES`], so a hostile line can never
/// grow the buffer without bound.
///
/// # Errors
///
/// Propagates socket read errors.
pub fn read_request_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    Ok(if n == 0 {
        LineRead::Eof
    } else if n > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        LineRead::TooLong
    } else {
        LineRead::Line
    })
}

/// How long [`linger_close`] keeps reading before it drops the socket.
pub const LINGER: Duration = Duration::from_secs(2);

/// Closes a connection whose input may still hold unread bytes, such as
/// the rest of an over-cap line, without throwing away the answers
/// already written. Closing a TCP socket with unread input sends a reset,
/// and a reset lets the peer's stack discard answers it has not read yet.
/// So this half-closes the write side first (the peer reads every answer,
/// then end of stream), then reads and discards input until the peer
/// closes, [`LINGER`] passes or [`MAX_LINE_BYTES`] more bytes arrive, and
/// only then returns for the caller to drop the socket. A peer that is
/// still sending past both bounds can still see a reset.
pub fn linger_close(reader: &mut io::BufReader<TcpStream>) {
    let _ = reader.get_ref().shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let mut budget = MAX_LINE_BYTES;
    let mut sink = [0u8; 16 << 10];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || reader.get_ref().set_read_timeout(Some(left)).is_err() {
            break;
        }
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget = budget.saturating_sub(n),
        }
    }
}

/// The typed answer to a [`LineRead::TooLong`] line.
pub fn line_too_long() -> Response {
    Response::failure(
        None,
        "invalid",
        ServiceError::new(
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ),
    )
}

/// The request kinds the service understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Embed a scheduling watermark and synthesize a schedule.
    Embed,
    /// Verify a schedule against a signature.
    Detect,
    /// Full analysis sweep: windows, bounded delays, Monte-Carlo criticality.
    Analyze,
    /// Timing summary: critical path, mobility, bounded-delay interval.
    Timing,
    /// Live server metrics (answered inline, even under full queue).
    Stats,
    /// Graceful shutdown: drain in-flight work, then exit.
    Shutdown,
    /// Cluster-wide aggregated metrics. Answered by `localwm-gateway`
    /// (per-backend latency histograms, routing counters, pool and health
    /// state plus aggregated backend gauges); a plain `localwm-serve`
    /// backend answers it with a typed `bad_request`.
    ClusterStats,
    /// Open an interactive session holding the parsed design server-side;
    /// subsequent `mutate`/`timing`/`analyze` requests carrying the same
    /// `session` id run against the held (incrementally re-analyzed)
    /// design.
    Open,
    /// Apply an edit script to an open session's design.
    Mutate,
    /// Close an open session and release its design.
    Close,
    /// Apply one seeded, budgeted attack to a freshly embedded watermark
    /// and measure the surviving evidence.
    Attack,
    /// Sweep the whole attack suite over budget levels and return the
    /// design's robustness report.
    Strength,
}

impl RequestKind {
    /// Every kind, in wire-name order; indexes match [`RequestKind::index`].
    pub const ALL: [RequestKind; 12] = [
        RequestKind::Embed,
        RequestKind::Detect,
        RequestKind::Analyze,
        RequestKind::Timing,
        RequestKind::Stats,
        RequestKind::Shutdown,
        RequestKind::ClusterStats,
        RequestKind::Open,
        RequestKind::Mutate,
        RequestKind::Close,
        RequestKind::Attack,
        RequestKind::Strength,
    ];

    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Embed => "embed",
            RequestKind::Detect => "detect",
            RequestKind::Analyze => "analyze",
            RequestKind::Timing => "timing",
            RequestKind::Stats => "stats",
            RequestKind::Shutdown => "shutdown",
            RequestKind::ClusterStats => "cluster_stats",
            RequestKind::Open => "open",
            RequestKind::Mutate => "mutate",
            RequestKind::Close => "close",
            RequestKind::Attack => "attack",
            RequestKind::Strength => "strength",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|k| k.as_str() == s)
    }

    /// A dense index for per-kind metric arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// What to do.
    pub kind: RequestKind,
    /// The design, in the canonical CDFG text format.
    pub design: Option<String>,
    /// Author identity for embed/detect.
    pub author: Option<String>,
    /// A schedule in the text format (detect).
    pub schedule: Option<String>,
    /// Embed: constrain this fraction of the operations.
    pub fraction: Option<f64>,
    /// Embed: draw exactly `k` temporal edges.
    pub k: Option<usize>,
    /// Window deadline in control steps (timing/analyze).
    pub deadline: Option<u32>,
    /// Bounded-delay model lower bound per op.
    pub lo: Option<u64>,
    /// Bounded-delay model upper bound per op.
    pub hi: Option<u64>,
    /// Monte-Carlo criticality sample count (analyze; default 100, at
    /// most 1,000,000).
    pub samples: Option<usize>,
    /// Monte-Carlo seed (analyze).
    pub seed: Option<u64>,
    /// Interactive session id (open/mutate/close; optional on
    /// timing/analyze to run against the held design).
    pub session: Option<String>,
    /// Edit script for `mutate`, one edit per line.
    pub edits: Option<String>,
    /// Attack kind name (`attack`): `reschedule`, `rewire`, `resynth` or
    /// `strip`.
    pub attack: Option<String>,
    /// Attack budget in `[0, 1]` (`attack`).
    pub budget: Option<f64>,
    /// Comma-separated budget sweep (`strength`), e.g. `"0,0.15,0.45"`.
    pub budgets: Option<String>,
    /// Per-request deadline in milliseconds; past it the watchdog answers
    /// with a `deadline_exceeded` error.
    pub timeout_ms: Option<u64>,
}

impl Request {
    /// An empty request of the given kind.
    pub fn new(kind: RequestKind) -> Self {
        Request {
            id: None,
            kind,
            design: None,
            author: None,
            schedule: None,
            fraction: None,
            k: None,
            deadline: None,
            lo: None,
            hi: None,
            samples: None,
            seed: None,
            session: None,
            edits: None,
            attack: None,
            budget: None,
            budgets: None,
            timeout_ms: None,
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the request's wire line to `out` — the same bytes as
    /// [`Request::to_line`], without lowering to an intermediate `Value`
    /// (which deep-copies the design text). The client's per-request
    /// encode runs through this.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        fn str_field(out: &mut String, name: &str, v: Option<&str>) {
            if let Some(s) = v {
                let _ = write!(out, ",\"{name}\":");
                serde_json::string_to_json_into(s, out);
            }
        }
        fn uint_field(out: &mut String, name: &str, v: Option<u64>) {
            if let Some(u) = v {
                let _ = write!(out, ",\"{name}\":{u}");
            }
        }
        fn float_field(out: &mut String, name: &str, v: Option<f64>) {
            if let Some(f) = v {
                let _ = write!(out, ",\"{name}\":");
                serde_json::float_to_json_into(f, out);
            }
        }
        out.push('{');
        if let Some(id) = self.id {
            let _ = write!(out, "\"id\":{id},");
        }
        out.push_str("\"kind\":");
        serde_json::string_to_json_into(self.kind.as_str(), out);
        str_field(out, "design", self.design.as_deref());
        str_field(out, "author", self.author.as_deref());
        str_field(out, "schedule", self.schedule.as_deref());
        float_field(out, "fraction", self.fraction);
        uint_field(out, "k", self.k.map(|v| v as u64));
        uint_field(out, "deadline", self.deadline.map(u64::from));
        uint_field(out, "lo", self.lo);
        uint_field(out, "hi", self.hi);
        uint_field(out, "samples", self.samples.map(|v| v as u64));
        uint_field(out, "seed", self.seed);
        str_field(out, "session", self.session.as_deref());
        str_field(out, "edits", self.edits.as_deref());
        str_field(out, "attack", self.attack.as_deref());
        float_field(out, "budget", self.budget);
        str_field(out, "budgets", self.budgets.as_deref());
        uint_field(out, "timeout_ms", self.timeout_ms);
        out.push('}');
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or an unknown/missing kind.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str_value(line).map_err(|e| e.to_string())?;
        Self::from_wire_value(v).map_err(|e| serde_json::Error::from(e).to_string())
    }

    /// Rebuilds a request from an owned envelope tree, moving the large
    /// text payloads (`design`, `schedule`, `edits` — multi-kilobyte on
    /// the hot path) out of the tree instead of deep-copying them. Only
    /// well-typed string payloads are stashed; everything else flows
    /// through the generic `Deserialize` path, so accepted shapes, error
    /// messages, and error precedence are unchanged.
    fn from_wire_value(mut v: Value) -> Result<Self, DeError> {
        let mut stash: [Option<String>; 3] = [None, None, None];
        if let Value::Object(fields) = &mut v {
            for (slot, name) in ["design", "schedule", "edits"].into_iter().enumerate() {
                // First occurrence only, matching `Value::field`; the
                // stashed slot reads as `null` (absent and `null` decode
                // identically) so later duplicates stay shadowed.
                if let Some((_, val)) = fields.iter_mut().find(|(k, _)| k == name) {
                    if matches!(val, Value::Str(_)) {
                        if let Value::Str(s) = std::mem::replace(val, Value::Null) {
                            stash[slot] = Some(s);
                        }
                    }
                }
            }
        }
        let mut req = Self::from_value(&v)?;
        let [design, schedule, edits] = stash;
        if design.is_some() {
            req.design = design;
        }
        if schedule.is_some() {
            req.schedule = schedule;
        }
        if edits.is_some() {
            req.edits = edits;
        }
        Ok(req)
    }
}

fn push_field(fields: &mut Vec<(String, Value)>, name: &str, v: Option<Value>) {
    if let Some(v) = v {
        fields.push((name.to_owned(), v));
    }
}

impl Serialize for Request {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        push_field(&mut fields, "id", self.id.map(|v| v.to_value()));
        fields.push(("kind".to_owned(), Value::Str(self.kind.as_str().to_owned())));
        push_field(
            &mut fields,
            "design",
            self.design.as_ref().map(|v| v.to_value()),
        );
        push_field(
            &mut fields,
            "author",
            self.author.as_ref().map(|v| v.to_value()),
        );
        push_field(
            &mut fields,
            "schedule",
            self.schedule.as_ref().map(|v| v.to_value()),
        );
        push_field(&mut fields, "fraction", self.fraction.map(|v| v.to_value()));
        push_field(&mut fields, "k", self.k.map(|v| v.to_value()));
        push_field(&mut fields, "deadline", self.deadline.map(|v| v.to_value()));
        push_field(&mut fields, "lo", self.lo.map(|v| v.to_value()));
        push_field(&mut fields, "hi", self.hi.map(|v| v.to_value()));
        push_field(&mut fields, "samples", self.samples.map(|v| v.to_value()));
        push_field(&mut fields, "seed", self.seed.map(|v| v.to_value()));
        push_field(
            &mut fields,
            "session",
            self.session.as_ref().map(|v| v.to_value()),
        );
        push_field(
            &mut fields,
            "edits",
            self.edits.as_ref().map(|v| v.to_value()),
        );
        push_field(
            &mut fields,
            "attack",
            self.attack.as_ref().map(|v| v.to_value()),
        );
        push_field(&mut fields, "budget", self.budget.map(|v| v.to_value()));
        push_field(
            &mut fields,
            "budgets",
            self.budgets.as_ref().map(|v| v.to_value()),
        );
        push_field(
            &mut fields,
            "timeout_ms",
            self.timeout_ms.map(|v| v.to_value()),
        );
        Value::Object(fields)
    }
}

/// Fetches an optional field: absent and `null` both mean `None`.
fn opt<T: Deserialize>(v: &Value, name: &str) -> Result<Option<T>, DeError> {
    match v.field(name) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_value(x)
            .map(Some)
            .map_err(|e| DeError::msg(format!("field `{name}`: {e}"))),
    }
}

impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind: String = serde::field(v, "kind")?;
        let kind = RequestKind::parse(&kind)
            .ok_or_else(|| DeError::msg(format!("unknown request kind `{kind}`")))?;
        Ok(Request {
            id: opt(v, "id")?,
            kind,
            design: opt(v, "design")?,
            author: opt(v, "author")?,
            schedule: opt(v, "schedule")?,
            fraction: opt(v, "fraction")?,
            k: opt(v, "k")?,
            deadline: opt(v, "deadline")?,
            lo: opt(v, "lo")?,
            hi: opt(v, "hi")?,
            samples: opt(v, "samples")?,
            seed: opt(v, "seed")?,
            session: opt(v, "session")?,
            edits: opt(v, "edits")?,
            attack: opt(v, "attack")?,
            budget: opt(v, "budget")?,
            budgets: opt(v, "budgets")?,
            timeout_ms: opt(v, "timeout_ms")?,
        })
    }
}

/// Typed error codes a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The job queue was full; the request was rejected without blocking
    /// the acceptor. Retry with backoff.
    Overloaded,
    /// The request was malformed or missing required fields.
    BadRequest,
    /// The per-request deadline elapsed before a worker finished.
    DeadlineExceeded,
    /// Embed: the design has no incomparable slack pairs (typed diagnostic
    /// with `domain_size` / `pairs_examined` details).
    NoIncomparablePairs,
    /// Embed failed for another reason (see message).
    EmbedFailed,
    /// Detect failed (see message).
    DetectFailed,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The gateway exhausted every replica for the request's shard: all
    /// candidate backends failed after retries with backoff.
    UpstreamUnavailable,
    /// The named session does not exist on this backend: never opened,
    /// idle-evicted, closed by drain, or lost when its backend was
    /// replaced. The client must re-`open` and replay.
    SessionExpired,
    /// Anything else.
    Internal,
}

impl ErrorCode {
    /// The wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::NoIncomparablePairs => "no_incomparable_pairs",
            ErrorCode::EmbedFailed => "embed_failed",
            ErrorCode::DetectFailed => "detect_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::UpstreamUnavailable => "upstream_unavailable",
            ErrorCode::SessionExpired => "session_expired",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire name (unknown codes map to [`ErrorCode::Internal`]).
    pub fn parse(s: &str) -> Self {
        [
            ErrorCode::Overloaded,
            ErrorCode::BadRequest,
            ErrorCode::DeadlineExceeded,
            ErrorCode::NoIncomparablePairs,
            ErrorCode::EmbedFailed,
            ErrorCode::DetectFailed,
            ErrorCode::ShuttingDown,
            ErrorCode::UpstreamUnavailable,
            ErrorCode::SessionExpired,
        ]
        .into_iter()
        .find(|c| c.as_str() == s)
        .unwrap_or(ErrorCode::Internal)
    }
}

/// A typed service error: a code, a human message, and structured details.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable message.
    pub message: String,
    /// Extra structured fields merged into the error object.
    pub details: Vec<(String, Value)>,
}

impl ServiceError {
    /// An error with no extra details.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServiceError {
            code,
            message: message.into(),
            details: Vec::new(),
        }
    }

    /// Adds a structured detail field.
    #[must_use]
    pub fn with_detail(mut self, name: &str, v: Value) -> Self {
        self.details.push((name.to_owned(), v));
        self
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("code".to_owned(), Value::Str(self.code.as_str().to_owned())),
            ("message".to_owned(), Value::Str(self.message.clone())),
        ];
        fields.extend(self.details.iter().cloned());
        Value::Object(fields)
    }

    fn from_value(v: &Value) -> Result<Self, DeError> {
        let code: String = serde::field(v, "code")?;
        let message: String = serde::field(v, "message")?;
        let details = match v {
            Value::Object(fields) => fields
                .iter()
                .filter(|(k, _)| k != "code" && k != "message")
                .cloned()
                .collect(),
            _ => Vec::new(),
        };
        Ok(ServiceError {
            code: ErrorCode::parse(&code),
            message,
            details,
        })
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed back.
    pub id: Option<u64>,
    /// The request kind this answers (`"invalid"` for unparseable lines).
    pub kind: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Result object on success.
    pub result: Option<Value>,
    /// Error object on failure.
    pub error: Option<ServiceError>,
}

impl Response {
    /// A success response.
    pub fn success(id: Option<u64>, kind: &str, result: Value) -> Self {
        Response {
            id,
            kind: kind.to_owned(),
            ok: true,
            result: Some(result),
            error: None,
        }
    }

    /// A failure response.
    pub fn failure(id: Option<u64>, kind: &str, error: ServiceError) -> Self {
        Response {
            id,
            kind: kind.to_owned(),
            ok: false,
            result: None,
            error: Some(error),
        }
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the response's wire line to `out` — the same bytes as
    /// [`Response::to_line`], without building the intermediate `Value`
    /// envelope (and without deep-copying the result tree into it). The
    /// server's per-response encode runs through this with a pooled
    /// buffer, so a warm response costs no allocations to serialize.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        out.push('{');
        if let Some(id) = self.id {
            let _ = write!(out, "\"id\":{id},");
        }
        out.push_str("\"kind\":");
        serde_json::string_to_json_into(&self.kind, out);
        out.push_str(",\"ok\":");
        out.push_str(if self.ok { "true" } else { "false" });
        if let Some(r) = &self.result {
            out.push_str(",\"result\":");
            serde_json::value_to_string_into(r, out);
        }
        if let Some(e) = &self.error {
            out.push_str(",\"error\":");
            serde_json::value_to_string_into(&e.to_value(), out);
        }
        out.push('}');
    }

    /// Decodes one wire line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a shape mismatch.
    pub fn from_line(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str_value(line).map_err(|e| e.to_string())?;
        Self::from_wire_value(v).map_err(|e| serde_json::Error::from(e).to_string())
    }

    /// Rebuilds a response from an owned envelope tree, moving the
    /// `result` subtree and `kind` string out instead of deep-copying
    /// them (the generic [`Deserialize`] path clones both). Same accepted
    /// shapes and same error messages as `from_value`; the client's
    /// per-response decode runs through this.
    fn from_wire_value(v: Value) -> Result<Self, DeError> {
        let Value::Object(fields) = v else {
            return Self::from_value(&v);
        };
        let mut id: Option<u64> = None;
        let mut kind: Option<String> = None;
        let mut ok: Option<bool> = None;
        let mut result: Option<Value> = None;
        let mut error: Option<ServiceError> = None;
        // First occurrence of each key wins, matching `Value::field` —
        // tracked separately from the decoded options because a leading
        // `null` also claims its key.
        let (mut saw_id, mut saw_ok, mut saw_result, mut saw_error) = (false, false, false, false);
        for (k, val) in fields {
            match k.as_str() {
                "id" if !saw_id => {
                    saw_id = true;
                    id = match &val {
                        Value::Null => None,
                        x => Some(
                            u64::from_value(x)
                                .map_err(|e| DeError::msg(format!("field `id`: {e}")))?,
                        ),
                    };
                }
                "kind" if kind.is_none() => {
                    kind = match val {
                        Value::Str(s) => Some(s),
                        x => Some(String::from_value(&x)?),
                    };
                }
                "ok" if !saw_ok => {
                    saw_ok = true;
                    ok = Some(bool::from_value(&val)?);
                }
                "result" if !saw_result => {
                    saw_result = true;
                    result = Some(val);
                }
                "error" if !saw_error => {
                    saw_error = true;
                    error = match &val {
                        Value::Null => None,
                        e => Some(ServiceError::from_value(e)?),
                    };
                }
                _ => {}
            }
        }
        Ok(Response {
            id,
            kind: kind.ok_or_else(|| DeError::msg("missing field `kind`"))?,
            ok: ok.ok_or_else(|| DeError::msg("missing field `ok`"))?,
            result,
            error,
        })
    }

    /// A field of the result object, if this is a success carrying one.
    pub fn result_field(&self, name: &str) -> Option<&Value> {
        self.result.as_ref().and_then(|r| r.field(name))
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        let mut fields = Vec::new();
        push_field(&mut fields, "id", self.id.map(|v| v.to_value()));
        fields.push(("kind".to_owned(), Value::Str(self.kind.clone())));
        fields.push(("ok".to_owned(), Value::Bool(self.ok)));
        if let Some(r) = &self.result {
            fields.push(("result".to_owned(), r.clone()));
        }
        if let Some(e) = &self.error {
            fields.push(("error".to_owned(), e.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Response {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Response {
            id: opt(v, "id")?,
            kind: serde::field(v, "kind")?,
            ok: serde::field(v, "ok")?,
            result: v.field("result").cloned(),
            error: match v.field("error") {
                None | Some(Value::Null) => None,
                Some(e) => Some(ServiceError::from_value(e)?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = Request::new(RequestKind::Embed);
        req.id = Some(7);
        req.design = Some("node a add\n".to_owned());
        req.author = Some("alice".to_owned());
        req.k = Some(4);
        req.timeout_ms = Some(500);
        let line = req.to_line();
        assert!(!line.contains('\n'), "one line on the wire");
        let back = Request::from_line(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn session_requests_round_trip() {
        let mut req = Request::new(RequestKind::Mutate);
        req.id = Some(9);
        req.session = Some("s-1".to_owned());
        req.edits = Some("add-node t7 not\nadd-edge data a t7\n".to_owned());
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back, req);
        assert_eq!(
            ErrorCode::parse("session_expired"),
            ErrorCode::SessionExpired
        );
        assert_eq!(ErrorCode::SessionExpired.as_str(), "session_expired");
    }

    #[test]
    fn attack_and_strength_requests_round_trip() {
        let mut req = Request::new(RequestKind::Attack);
        req.design = Some("node a add\n".to_owned());
        req.author = Some("alice".to_owned());
        req.attack = Some("rewire".to_owned());
        req.budget = Some(0.25);
        req.seed = Some(7);
        let back = Request::from_line(&req.to_line()).unwrap();
        assert_eq!(back, req);
        let mut sweep = Request::new(RequestKind::Strength);
        sweep.budgets = Some("0,0.15,0.45".to_owned());
        let back = Request::from_line(&sweep.to_line()).unwrap();
        assert_eq!(back, sweep);
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(Request::from_line(r#"{"kind":"explode"}"#).is_err());
        assert!(Request::from_line(r#"{"id":1}"#).is_err());
        assert!(Request::from_line("not json").is_err());
    }

    #[test]
    fn every_kind_parses_its_wire_name() {
        for k in RequestKind::ALL {
            assert_eq!(RequestKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(RequestKind::parse("nope"), None);
    }

    #[test]
    fn response_round_trips_with_error_details() {
        let err = ServiceError::new(ErrorCode::NoIncomparablePairs, "too serial")
            .with_detail("domain_size", 11u64.to_value())
            .with_detail("pairs_examined", 90u64.to_value());
        let resp = Response::failure(Some(3), "embed", err.clone());
        let back = Response::from_line(&resp.to_line()).unwrap();
        assert_eq!(back, resp);
        assert_eq!(
            back.error.as_ref().unwrap().code,
            ErrorCode::NoIncomparablePairs
        );
        assert_eq!(
            back.error.unwrap().details,
            vec![
                ("domain_size".to_owned(), Value::Int(11)),
                ("pairs_examined".to_owned(), Value::Int(90)),
            ]
        );
    }

    #[test]
    fn direct_request_writer_matches_the_tree_serializer() {
        let mut full = Request::new(RequestKind::Analyze);
        full.id = Some(42);
        full.design = Some("node a add\nnode b \"q\"\n".to_owned());
        full.author = Some("alice".to_owned());
        full.schedule = Some("a 0\n".to_owned());
        full.fraction = Some(0.5);
        full.k = Some(4);
        full.deadline = Some(9);
        full.lo = Some(1);
        full.hi = Some(3);
        full.samples = Some(100);
        full.seed = Some(7);
        full.session = Some("s-1".to_owned());
        full.edits = Some("add-node t not\n".to_owned());
        full.attack = Some("resynth".to_owned());
        full.budget = Some(0.25);
        full.budgets = Some("0,0.5".to_owned());
        full.timeout_ms = Some(250);
        let mut sparse = Request::new(RequestKind::Stats);
        let mut no_id = Request::new(RequestKind::Timing);
        no_id.design = Some("node a add\n".to_owned());
        no_id.fraction = Some(2.0);
        for req in [full, sparse.clone(), no_id] {
            assert_eq!(
                req.to_line(),
                serde_json::to_string(&req).unwrap(),
                "direct writer diverged for {req:?}"
            );
        }
        sparse.id = Some(0);
        assert_eq!(sparse.to_line(), serde_json::to_string(&sparse).unwrap());
    }

    #[test]
    fn direct_json_writer_matches_the_tree_serializer() {
        // The hand-rolled envelope writer must emit the exact bytes the
        // generic `Serialize` path does — goldens and transcripts are
        // pinned to those bytes.
        let bodies = [
            Response::success(
                Some(7),
                "timing",
                serde::object(vec![
                    ("ops", 9u32.to_value()),
                    ("critical_path", 6u32.to_value()),
                    ("note", Value::Str("a \"quoted\"\nline\t".to_owned())),
                    ("neg", Value::Int(-3)),
                    ("frac", Value::Float(0.25)),
                    ("flag", Value::Bool(false)),
                    ("gap", Value::Null),
                    ("list", Value::Array(vec![1u32.to_value(), 2u32.to_value()])),
                ]),
            ),
            Response::success(None, "stats", serde::object(vec![])),
            Response::failure(
                Some(3),
                "embed",
                ServiceError::new(ErrorCode::NoIncomparablePairs, "too serial")
                    .with_detail("domain_size", 11u64.to_value()),
            ),
            Response::failure(
                None,
                "invalid",
                ServiceError::new(ErrorCode::BadRequest, "no"),
            ),
        ];
        for resp in bodies {
            assert_eq!(
                resp.to_line(),
                serde_json::to_string(&resp).unwrap(),
                "direct writer diverged for {resp:?}"
            );
        }
    }

    #[test]
    fn request_lines_are_read_up_to_the_cap() {
        let fits = format!("{}\n", "a".repeat(MAX_LINE_BYTES));
        let over = "b".repeat(MAX_LINE_BYTES + 1);
        let input = format!("{fits}short\n{over}\ntail\n");
        let mut reader = io::BufReader::new(input.as_bytes());
        let mut buf = Vec::new();
        let mut read = || read_request_line(&mut reader, &mut buf).unwrap();
        assert_eq!(read(), LineRead::Line);
        assert_eq!(read(), LineRead::Line);
        assert_eq!(read(), LineRead::TooLong);
        let mut reader = io::BufReader::new("last".as_bytes());
        assert_eq!(
            read_request_line(&mut reader, &mut buf).unwrap(),
            LineRead::Line
        );
        assert_eq!(buf, b"last");
        assert_eq!(
            read_request_line(&mut reader, &mut buf).unwrap(),
            LineRead::Eof
        );
    }

    #[test]
    fn success_response_exposes_result_fields() {
        let body = serde::object(vec![("critical_path", 6u32.to_value())]);
        let resp = Response::success(None, "timing", body);
        let back = Response::from_line(&resp.to_line()).unwrap();
        assert!(back.ok);
        assert_eq!(back.result_field("critical_path"), Some(&Value::Int(6)));
    }
}
