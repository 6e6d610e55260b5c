//! Wire messages: what the opcodes mean and how payloads are encoded.
//!
//! Payloads reuse the index file format's primitives
//! ([`ByteWriter`]/[`ByteReader`] from `xtwig_core::persist`): all
//! integers little-endian, strings length-prefixed UTF-8. Strategies
//! travel as their paper labels (`RP`, `DP`, `auto`, …) and update ops
//! carry tag *names*, not `TagId`s — ids are an engine-local interning
//! detail a client cannot know; the server resolves names through the
//! target index's dictionary and answers `UnknownTag` for names the
//! document never contained.
//!
//! Every request names the index it targets (the server fronts a
//! [`xtwig_service::Catalog`], not one engine), except the
//! catalog-wide ops `Ping`, `CatalogList`, `Events`, and `Shutdown`.
//!
//! Decoding is strict: unknown opcodes, short payloads, and trailing
//! bytes are all errors. Strictness is what makes the typed
//! `Malformed` response possible — a lenient decoder would have to
//! guess.
//!
//! ## Versioning: the trace envelope
//!
//! Protocol v2 adds request identity without disturbing v1 framing: a
//! request may arrive wrapped in an `OP_TRACED` envelope carrying a
//! [`TraceContext`] (client-stamped `request_id` + sample flag) ahead
//! of the inner opcode and payload; the response comes back wrapped in
//! `OP_TRACED_RESP` echoing the id. Bare (v1) opcodes still decode —
//! [`Request::decode_enveloped`] returns `None` for the context — so
//! old clients keep working and version handling is explicit, not
//! guessed. Envelopes do not nest; a nested envelope is malformed.

use xtwig_core::persist::{ByteReader, ByteWriter, FormatError};

use crate::frame::Frame;

/// One maintenance operation in wire form (see module docs for why
/// tags are names here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireOp {
    /// `true` = insert the path, `false` = delete it.
    pub insert: bool,
    /// Schema path, root first, as tag names.
    pub tags: Vec<String>,
    /// Node-id list, parallel to `tags`.
    pub ids: Vec<u64>,
    /// Leaf value of the path's head node.
    pub value: Option<String>,
}

/// Client-stamped request identity, carried by the `OP_TRACED`
/// envelope (see the module docs on versioning).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Client-assigned id, echoed on the response; 0 is reserved for
    /// unstamped requests and never matches a stored trace.
    pub request_id: u64,
    /// True to force a traced (span-capturing) execution retrievable
    /// via [`Request::Trace`].
    pub sample: bool,
}

/// One journal entry in wire form (see
/// [`xtwig_service::JournalEntry`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Journal sequence number (gaps mean the ring dropped entries).
    pub seq: u64,
    /// Microseconds since the Unix epoch at emission.
    pub unix_micros: u64,
    /// Stable kebab-case kind (`conn-open`, `slow-query`, …).
    pub kind: String,
    /// One-line detail.
    pub detail: String,
}

impl WireEvent {
    /// `#seq [kind] detail` — mirrors the server-side rendering.
    pub fn render_text(&self) -> String {
        format!("#{} [{}] {}", self.seq, self.kind, self.detail)
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Answer `xpath` against index `index` under `strategy` (a label
    /// accepted by `Strategy::from_str`, e.g. `RP` or `auto`).
    Query {
        /// Catalog name of the target index.
        index: String,
        /// The twig query, XPath syntax.
        xpath: String,
        /// Strategy label.
        strategy: String,
    },
    /// Rank every built strategy for `xpath` (rendered text comes
    /// back).
    Explain {
        /// Catalog name of the target index.
        index: String,
        /// The twig query, XPath syntax.
        xpath: String,
    },
    /// Apply a maintenance transaction to index `index`.
    Update {
        /// Catalog name of the target index.
        index: String,
        /// The operations, applied as one committed batch.
        ops: Vec<WireOp>,
    },
    /// Prometheus text exposition for index `index`.
    Metrics {
        /// Catalog name of the target index.
        index: String,
    },
    /// Names of every registered index (`name\tattached` lines).
    CatalogList,
    /// Service-stats JSON for index `index`.
    Stats {
        /// Catalog name of the target index.
        index: String,
    },
    /// Fetch the rendered span tree of a sampled/slow request by its
    /// client-stamped id.
    Trace {
        /// Catalog name of the index the traced query ran against.
        index: String,
        /// The id the client stamped on the original request.
        request_id: u64,
    },
    /// Stream the server event journal: entries with `seq > after`,
    /// at most `max`.
    Events {
        /// Cursor — the last sequence number already seen (0 from the
        /// start).
        after: u64,
        /// Page bound (the server additionally caps this).
        max: u32,
    },
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Short op label for access logs and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Query { .. } => "query",
            Request::Explain { .. } => "explain",
            Request::Update { .. } => "update",
            Request::Metrics { .. } => "metrics",
            Request::CatalogList => "catalog",
            Request::Stats { .. } => "stats",
            Request::Trace { .. } => "trace",
            Request::Events { .. } => "events",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Liveness reply.
    Pong,
    /// A query answer.
    Answer {
        /// Strategy that answered (concrete, even for `auto`
        /// submissions).
        strategy: String,
        /// The relational plan kind that ran (debug label).
        plan: String,
        /// Served from the result cache.
        from_cache: bool,
        /// Server-side execution time in microseconds.
        micros: u64,
        /// Distinct ids bound to the output node, ascending.
        ids: Vec<u64>,
    },
    /// Rendered text (explain rankings, metrics, stats JSON, catalog
    /// listings).
    Text(String),
    /// Update committed; the index's new invalidation generation.
    UpdateAck {
        /// Generation the update published.
        generation: u64,
    },
    /// Typed failure.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// A page of the server event journal, oldest first.
    Events {
        /// The entries (empty when the cursor is caught up).
        events: Vec<WireEvent>,
    },
    /// Shutdown acknowledged; the server exits after this frame.
    ShutdownAck,
}

/// Machine-readable error categories a client can branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame decoded but the payload made no sense (or an
    /// unknown opcode / trailing bytes).
    Malformed = 1,
    /// No index with that name in the catalog.
    UnknownIndex = 2,
    /// The XPath failed to parse or referenced unknown tags.
    BadQuery = 3,
    /// The named strategy is not built in the target index.
    StrategyNotBuilt = 4,
    /// Admission control shed this request; retry with backoff.
    Overloaded = 5,
    /// The server is shutting down. No current server sends it; the
    /// code keeps its number so the wire numbering stays stable.
    ShuttingDown = 6,
    /// An update op named a tag the target document never contained.
    UnknownTag = 7,
    /// Anything else; the message has the detail.
    Internal = 8,
    /// No retained trace record matches the requested id (never
    /// sampled, 0, or already evicted from the ring).
    UnknownTrace = 9,
    /// The response would exceed the frame limit
    /// ([`crate::frame::MAX_FRAME_LEN`]); the connection stays open.
    ResultTooLarge = 10,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Result<ErrorCode, FormatError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::UnknownIndex,
            3 => ErrorCode::BadQuery,
            4 => ErrorCode::StrategyNotBuilt,
            5 => ErrorCode::Overloaded,
            6 => ErrorCode::ShuttingDown,
            7 => ErrorCode::UnknownTag,
            8 => ErrorCode::Internal,
            9 => ErrorCode::UnknownTrace,
            10 => ErrorCode::ResultTooLarge,
            other => return Err(FormatError(format!("unknown error code {other}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnknownIndex => "unknown-index",
            ErrorCode::BadQuery => "bad-query",
            ErrorCode::StrategyNotBuilt => "strategy-not-built",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::UnknownTag => "unknown-tag",
            ErrorCode::Internal => "internal",
            ErrorCode::UnknownTrace => "unknown-trace",
            ErrorCode::ResultTooLarge => "result-too-large",
        };
        f.write_str(name)
    }
}

// Request opcodes.
const OP_PING: u8 = 0x01;
const OP_QUERY: u8 = 0x02;
const OP_EXPLAIN: u8 = 0x04;
const OP_UPDATE: u8 = 0x05;
const OP_METRICS: u8 = 0x06;
const OP_CATALOG_LIST: u8 = 0x07;
const OP_STATS: u8 = 0x08;
const OP_SHUTDOWN: u8 = 0x09;
/// v2 request envelope: `[request_id u64][sample bool][inner op u8][inner payload]`.
const OP_TRACED: u8 = 0x0a;
const OP_TRACE: u8 = 0x0b;
const OP_EVENTS: u8 = 0x0c;

// Response opcodes (high bit set).
const OP_PONG: u8 = 0x81;
const OP_ANSWER: u8 = 0x82;
const OP_TEXT: u8 = 0x83;
const OP_UPDATE_ACK: u8 = 0x84;
const OP_ERROR: u8 = 0x85;
const OP_SHUTDOWN_ACK: u8 = 0x86;
/// v2 response envelope: `[request_id u64][inner op u8][inner payload]`.
const OP_TRACED_RESP: u8 = 0x87;
const OP_EVENTS_RESP: u8 = 0x88;

fn push_wire_op(w: &mut ByteWriter, op: &WireOp) {
    w.push_bool(op.insert);
    w.push_u32(op.tags.len() as u32);
    for t in &op.tags {
        w.push_str(t);
    }
    w.push_u32(op.ids.len() as u32);
    for id in &op.ids {
        w.push_u64(*id);
    }
    match &op.value {
        Some(v) => {
            w.push_bool(true);
            w.push_str(v);
        }
        None => w.push_bool(false),
    }
}

fn read_wire_op(r: &mut ByteReader<'_>) -> Result<WireOp, FormatError> {
    let insert = r.bool()?;
    let ntags = r.u32()? as usize;
    let mut tags = Vec::with_capacity(ntags.min(1024));
    for _ in 0..ntags {
        tags.push(r.str()?);
    }
    let nids = r.u32()? as usize;
    let mut ids = Vec::with_capacity(nids.min(1024));
    for _ in 0..nids {
        ids.push(r.u64()?);
    }
    let value = if r.bool()? { Some(r.str()?) } else { None };
    Ok(WireOp { insert, tags, ids, value })
}

fn done(r: &ByteReader<'_>) -> Result<(), FormatError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(FormatError(format!("{} trailing payload bytes", r.remaining())))
    }
}

impl Request {
    fn opcode(&self) -> u8 {
        match self {
            Request::Ping => OP_PING,
            Request::Query { .. } => OP_QUERY,
            Request::Explain { .. } => OP_EXPLAIN,
            Request::Update { .. } => OP_UPDATE,
            Request::Metrics { .. } => OP_METRICS,
            Request::CatalogList => OP_CATALOG_LIST,
            Request::Stats { .. } => OP_STATS,
            Request::Trace { .. } => OP_TRACE,
            Request::Events { .. } => OP_EVENTS,
            Request::Shutdown => OP_SHUTDOWN,
        }
    }

    fn push_body(&self, w: &mut ByteWriter) {
        match self {
            Request::Ping | Request::CatalogList | Request::Shutdown => {}
            Request::Query { index, xpath, strategy } => {
                w.push_str(index);
                w.push_str(xpath);
                w.push_str(strategy);
            }
            Request::Explain { index, xpath } => {
                w.push_str(index);
                w.push_str(xpath);
            }
            Request::Update { index, ops } => {
                w.push_str(index);
                w.push_u32(ops.len() as u32);
                for op in ops {
                    push_wire_op(w, op);
                }
            }
            Request::Metrics { index } | Request::Stats { index } => w.push_str(index),
            Request::Trace { index, request_id } => {
                w.push_str(index);
                w.push_u64(*request_id);
            }
            Request::Events { after, max } => {
                w.push_u64(*after);
                w.push_u32(*max);
            }
        }
    }

    /// Appends this request's frame payload to `buf` — inside the v2
    /// trace envelope when `ctx` is given — and returns the frame
    /// opcode. The one request encoder: the client calls it through
    /// [`crate::frame::FrameWriter::send`], so the payload is built in
    /// place behind the frame header.
    pub fn encode_into(&self, ctx: Option<TraceContext>, buf: &mut Vec<u8>) -> u8 {
        let mut w = ByteWriter::with_buffer(std::mem::take(buf));
        let opcode = match ctx {
            Some(ctx) => {
                w.push_u64(ctx.request_id);
                w.push_bool(ctx.sample);
                w.push_u8(self.opcode());
                OP_TRACED
            }
            None => self.opcode(),
        };
        self.push_body(&mut w);
        *buf = w.finish();
        opcode
    }

    /// Serializes into an opcode + payload ready for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut payload = Vec::new();
        (self.encode_into(None, &mut payload), payload)
    }

    /// [`Request::encode`] wrapped in the v2 trace envelope.
    pub fn encode_enveloped(&self, ctx: TraceContext) -> (u8, Vec<u8>) {
        let mut payload = Vec::new();
        (self.encode_into(Some(ctx), &mut payload), payload)
    }

    /// The opcode dispatch both entry points share. Reads one request
    /// body off `r` without the trailing-bytes check (the caller owns
    /// that, since an envelope nests a body inside its own payload).
    fn decode_op(opcode: u8, r: &mut ByteReader<'_>) -> Result<Request, FormatError> {
        Ok(match opcode {
            OP_PING => Request::Ping,
            OP_QUERY => Request::Query { index: r.str()?, xpath: r.str()?, strategy: r.str()? },
            OP_EXPLAIN => Request::Explain { index: r.str()?, xpath: r.str()? },
            OP_UPDATE => {
                let index = r.str()?;
                let n = r.u32()? as usize;
                let mut ops = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    ops.push(read_wire_op(r)?);
                }
                Request::Update { index, ops }
            }
            OP_METRICS => Request::Metrics { index: r.str()? },
            OP_CATALOG_LIST => Request::CatalogList,
            OP_STATS => Request::Stats { index: r.str()? },
            OP_TRACE => Request::Trace { index: r.str()?, request_id: r.u64()? },
            OP_EVENTS => Request::Events { after: r.u64()?, max: r.u32()? },
            OP_SHUTDOWN => Request::Shutdown,
            other => return Err(FormatError(format!("unknown request opcode {other:#04x}"))),
        })
    }

    /// Decodes a received bare (v1) frame. Any failure here becomes a
    /// [`ErrorCode::Malformed`] response on the server.
    pub fn decode(frame: &Frame) -> Result<Request, FormatError> {
        let mut r = ByteReader::new(&frame.payload);
        let req = Request::decode_op(frame.opcode, &mut r)?;
        done(&r)?;
        Ok(req)
    }

    /// Decodes a frame that may carry the v2 trace envelope: returns
    /// `Some(ctx)` for enveloped requests, `None` for bare v1 ones.
    /// Nested envelopes are malformed.
    pub fn decode_enveloped(frame: &Frame) -> Result<(Option<TraceContext>, Request), FormatError> {
        if frame.opcode != OP_TRACED {
            return Ok((None, Request::decode(frame)?));
        }
        let mut r = ByteReader::new(&frame.payload);
        let request_id = r.u64()?;
        let sample = r.bool()?;
        let inner_op = r.u8()?;
        if inner_op == OP_TRACED {
            return Err(FormatError("nested trace envelope".to_owned()));
        }
        let req = Request::decode_op(inner_op, &mut r)?;
        done(&r)?;
        Ok((Some(TraceContext { request_id, sample }), req))
    }
}

impl Response {
    fn opcode(&self) -> u8 {
        match self {
            Response::Pong => OP_PONG,
            Response::Answer { .. } => OP_ANSWER,
            Response::Text(_) => OP_TEXT,
            Response::UpdateAck { .. } => OP_UPDATE_ACK,
            Response::Error { .. } => OP_ERROR,
            Response::Events { .. } => OP_EVENTS_RESP,
            Response::ShutdownAck => OP_SHUTDOWN_ACK,
        }
    }

    fn push_body(&self, w: &mut ByteWriter) {
        match self {
            Response::Pong | Response::ShutdownAck => {}
            Response::Answer { strategy, plan, from_cache, micros, ids } => {
                w.push_str(strategy);
                w.push_str(plan);
                w.push_bool(*from_cache);
                w.push_u64(*micros);
                w.push_u32(ids.len() as u32);
                for id in ids {
                    w.push_u64(*id);
                }
            }
            Response::Text(text) => w.push_str(text),
            Response::UpdateAck { generation } => w.push_u64(*generation),
            Response::Error { code, message } => {
                w.push_u8(*code as u8);
                w.push_str(message);
            }
            Response::Events { events } => {
                w.push_u32(events.len() as u32);
                for e in events {
                    w.push_u64(e.seq);
                    w.push_u64(e.unix_micros);
                    w.push_str(&e.kind);
                    w.push_str(&e.detail);
                }
            }
        }
    }

    /// Appends this response's frame payload to `buf` — inside the v2
    /// envelope echoing `request_id` when one is given — and returns
    /// the frame opcode. The one response encoder: the server calls it
    /// through [`crate::frame::FrameWriter::send`], so an answer's ids
    /// are encoded in place behind the frame header, never copied.
    pub fn encode_into(&self, request_id: Option<u64>, buf: &mut Vec<u8>) -> u8 {
        let mut w = ByteWriter::with_buffer(std::mem::take(buf));
        let opcode = match request_id {
            Some(id) => {
                w.push_u64(id);
                w.push_u8(self.opcode());
                OP_TRACED_RESP
            }
            None => self.opcode(),
        };
        self.push_body(&mut w);
        *buf = w.finish();
        opcode
    }

    /// Serializes into an opcode + payload ready for
    /// [`crate::frame::write_frame`].
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut payload = Vec::new();
        (self.encode_into(None, &mut payload), payload)
    }

    /// [`Response::encode`] wrapped in the v2 envelope echoing
    /// `request_id`.
    pub fn encode_enveloped(&self, request_id: u64) -> (u8, Vec<u8>) {
        let mut payload = Vec::new();
        (self.encode_into(Some(request_id), &mut payload), payload)
    }

    fn decode_op(opcode: u8, r: &mut ByteReader<'_>) -> Result<Response, FormatError> {
        Ok(match opcode {
            OP_PONG => Response::Pong,
            OP_ANSWER => {
                let strategy = r.str()?;
                let plan = r.str()?;
                let from_cache = r.bool()?;
                let micros = r.u64()?;
                let n = r.u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    ids.push(r.u64()?);
                }
                Response::Answer { strategy, plan, from_cache, micros, ids }
            }
            OP_TEXT => Response::Text(r.str()?),
            OP_UPDATE_ACK => Response::UpdateAck { generation: r.u64()? },
            OP_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                Response::Error { code, message: r.str()? }
            }
            OP_EVENTS_RESP => {
                let n = r.u32()? as usize;
                let mut events = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    events.push(WireEvent {
                        seq: r.u64()?,
                        unix_micros: r.u64()?,
                        kind: r.str()?,
                        detail: r.str()?,
                    });
                }
                Response::Events { events }
            }
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            other => return Err(FormatError(format!("unknown response opcode {other:#04x}"))),
        })
    }

    /// Decodes a received bare (v1) frame.
    pub fn decode(frame: &Frame) -> Result<Response, FormatError> {
        let mut r = ByteReader::new(&frame.payload);
        let resp = Response::decode_op(frame.opcode, &mut r)?;
        done(&r)?;
        Ok(resp)
    }

    /// Decodes a frame that may carry the v2 envelope: returns
    /// `Some(request_id)` when enveloped, `None` for bare v1 frames.
    pub fn decode_enveloped(frame: &Frame) -> Result<(Option<u64>, Response), FormatError> {
        if frame.opcode != OP_TRACED_RESP {
            return Ok((None, Response::decode(frame)?));
        }
        let mut r = ByteReader::new(&frame.payload);
        let request_id = r.u64()?;
        let inner_op = r.u8()?;
        if inner_op == OP_TRACED_RESP {
            return Err(FormatError("nested trace envelope".to_owned()));
        }
        let resp = Response::decode_op(inner_op, &mut r)?;
        done(&r)?;
        Ok((Some(request_id), resp))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap is the assert
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let (opcode, payload) = req.encode();
        let back = Request::decode(&Frame { opcode, payload }).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_response(resp: Response) {
        let (opcode, payload) = resp.encode();
        let back = Response::decode(&Frame { opcode, payload }).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Query {
            index: "xmark".into(),
            xpath: "//author[fn='jane']".into(),
            strategy: "auto".into(),
        });
        roundtrip_request(Request::Explain { index: "a".into(), xpath: "//b".into() });
        roundtrip_request(Request::Update {
            index: "a".into(),
            ops: vec![
                WireOp {
                    insert: true,
                    tags: vec!["book".into(), "title".into()],
                    ids: vec![900, 901],
                    value: Some("Twigs".into()),
                },
                WireOp { insert: false, tags: vec!["book".into()], ids: vec![900], value: None },
            ],
        });
        roundtrip_request(Request::Metrics { index: "a".into() });
        roundtrip_request(Request::CatalogList);
        roundtrip_request(Request::Stats { index: "a".into() });
        roundtrip_request(Request::Trace { index: "a".into(), request_id: 99 });
        roundtrip_request(Request::Events { after: 12, max: 64 });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Answer {
            strategy: "RP".into(),
            plan: "Merge".into(),
            from_cache: true,
            micros: 42,
            ids: vec![1, 5, 9],
        });
        roundtrip_response(Response::Text("xtwig_queries_submitted_total 3\n".into()));
        roundtrip_response(Response::UpdateAck { generation: 7 });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "1024 in flight".into(),
        });
        roundtrip_response(Response::ShutdownAck);
        let too_large = Response::Error {
            code: ErrorCode::ResultTooLarge,
            message: "frame payload of 16777217 bytes exceeds the limit".into(),
        };
        assert_eq!(too_large.encode().1.first(), Some(&10), "wire code of ResultTooLarge");
        roundtrip_response(too_large);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// One frame, built the way the endpoints build it: encoded in
    /// place behind the reserved header of a [`FrameWriter`].
    fn framed(encode: impl FnOnce(&mut Vec<u8>) -> u8) -> String {
        let mut w = crate::frame::FrameWriter::new(Vec::new());
        w.send(encode).unwrap();
        hex(w.get_mut())
    }

    /// One frame from a separately encoded payload via `write_frame`.
    fn written((opcode, payload): (u8, Vec<u8>)) -> String {
        let mut out = Vec::new();
        crate::frame::write_frame(&mut out, opcode, &payload).unwrap();
        hex(&out)
    }

    /// Complete frames, bare and enveloped, for every variant — the
    /// bytes the copy-then-frame encoder produced before payloads were
    /// encoded in place. The wire format must not move.
    #[test]
    fn every_variant_encodes_to_the_pinned_frame_bytes() {
        let ctx = TraceContext { request_id: 0x0102_0304_0506_0708, sample: true };
        let requests = [
            (Request::Ping, "585457470100000000", "585457470a0a00000008070605040302010101"),
            (
                Request::Query { index: "x".into(), xpath: "//a[b='c']".into(), strategy: "auto".into() },
                "5854574702270000000100000000000000780a000000000000002f2f615b623d2763275d04000000000000006175746f",
                "585457470a31000000080706050403020101020100000000000000780a000000000000002f2f615b623d2763275d04000000000000006175746f",
            ),
            (
                Request::Explain { index: "x".into(), xpath: "//b".into() },
                "58545747041400000001000000000000007803000000000000002f2f62",
                "585457470a1e0000000807060504030201010401000000000000007803000000000000002f2f62",
            ),
            (
                Request::Update {
                    index: "x".into(),
                    ops: vec![
                        WireOp {
                            insert: true,
                            tags: vec!["b".into(), "t".into()],
                            ids: vec![900, 901],
                            value: Some("v".into()),
                        },
                        WireOp { insert: false, tags: vec!["b".into()], ids: vec![900], value: None },
                    ],
                },
                "58545747055d000000010000000000000078020000000102000000010000000000000062010000000000000074020000008403000000000000850300000000000001010000000000000076000100000001000000000000006201000000840300000000000000",
                "585457470a6700000008070605040302010105010000000000000078020000000102000000010000000000000062010000000000000074020000008403000000000000850300000000000001010000000000000076000100000001000000000000006201000000840300000000000000",
            ),
            (
                Request::Metrics { index: "x".into() },
                "585457470609000000010000000000000078",
                "585457470a1300000008070605040302010106010000000000000078",
            ),
            (Request::CatalogList, "585457470700000000", "585457470a0a00000008070605040302010107"),
            (
                Request::Stats { index: "x".into() },
                "585457470809000000010000000000000078",
                "585457470a1300000008070605040302010108010000000000000078",
            ),
            (
                Request::Trace { index: "x".into(), request_id: 99 },
                "585457470b110000000100000000000000786300000000000000",
                "585457470a1b0000000807060504030201010b0100000000000000786300000000000000",
            ),
            (
                Request::Events { after: 12, max: 64 },
                "585457470c0c0000000c0000000000000040000000",
                "585457470a160000000807060504030201010c0c0000000000000040000000",
            ),
            (Request::Shutdown, "585457470900000000", "585457470a0a00000008070605040302010109"),
        ];
        for (req, bare, enveloped) in requests {
            assert_eq!(framed(|buf| req.encode_into(None, buf)), bare, "{req:?}");
            assert_eq!(framed(|buf| req.encode_into(Some(ctx), buf)), enveloped, "{req:?}");
            assert_eq!(written(req.encode()), bare, "{req:?}");
            assert_eq!(written(req.encode_enveloped(ctx)), enveloped, "{req:?}");
        }
        let responses = [
            (Response::Pong, "585457478100000000", "5854574787090000002a0000000000000081"),
            (
                Response::Answer {
                    strategy: "RP".into(),
                    plan: "Merge".into(),
                    from_cache: true,
                    micros: 42,
                    ids: vec![1, 5, 9],
                },
                "58545747823c0000000200000000000000525005000000000000004d65726765012a0000000000000003000000010000000000000005000000000000000900000000000000",
                "5854574787450000002a00000000000000820200000000000000525005000000000000004d65726765012a0000000000000003000000010000000000000005000000000000000900000000000000",
            ),
            (
                Response::Text("m 3\n".into()),
                "58545747830c00000004000000000000006d20330a",
                "5854574787150000002a000000000000008304000000000000006d20330a",
            ),
            (
                Response::UpdateAck { generation: 7 },
                "5854574784080000000700000000000000",
                "5854574787110000002a00000000000000840700000000000000",
            ),
            (
                Response::Error { code: ErrorCode::ResultTooLarge, message: "big".into() },
                "58545747850c0000000a0300000000000000626967",
                "5854574787150000002a00000000000000850a0300000000000000626967",
            ),
            (
                Response::Events {
                    events: vec![WireEvent {
                        seq: 3,
                        unix_micros: 1_700_000_000_000_000,
                        kind: "k".into(),
                        detail: "d".into(),
                    }],
                },
                "58545747882600000001000000030000000000000000401e18240a060001000000000000006b010000000000000064",
                "58545747872f0000002a000000000000008801000000030000000000000000401e18240a060001000000000000006b010000000000000064",
            ),
            (Response::ShutdownAck, "585457478600000000", "5854574787090000002a0000000000000086"),
        ];
        for (resp, bare, enveloped) in responses {
            assert_eq!(framed(|buf| resp.encode_into(None, buf)), bare, "{resp:?}");
            assert_eq!(framed(|buf| resp.encode_into(Some(42), buf)), enveloped, "{resp:?}");
            assert_eq!(written(resp.encode()), bare, "{resp:?}");
            assert_eq!(written(resp.encode_enveloped(42)), enveloped, "{resp:?}");
        }
    }

    #[test]
    fn events_response_roundtrips() {
        roundtrip_response(Response::Events { events: vec![] });
        roundtrip_response(Response::Events {
            events: vec![
                WireEvent {
                    seq: 3,
                    unix_micros: 1_700_000_000_000_000,
                    kind: "slow-query".into(),
                    detail: "request_id=7 peer=127.0.0.1:9 micros=1500 query=//a".into(),
                },
                WireEvent { seq: 4, unix_micros: 0, kind: "conn-close".into(), detail: "".into() },
            ],
        });
        let e = WireEvent { seq: 5, unix_micros: 1, kind: "conn-open".into(), detail: "p".into() };
        assert_eq!(e.render_text(), "#5 [conn-open] p");
    }

    #[test]
    fn unknown_opcodes_and_trailing_bytes_are_malformed() {
        assert!(Request::decode(&Frame { opcode: 0x7f, payload: vec![] }).is_err());
        assert!(Response::decode(&Frame { opcode: 0x01, payload: vec![] }).is_err());
        let (opcode, mut payload) = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(&Frame { opcode, payload }).is_err(), "trailing byte");
    }

    #[test]
    fn request_envelope_roundtrips_and_bare_frames_still_decode() {
        let req = Request::Query { index: "a".into(), xpath: "//b".into(), strategy: "RP".into() };
        let ctx = TraceContext { request_id: 42, sample: true };
        let (opcode, payload) = req.encode_enveloped(ctx);
        assert_eq!(opcode, 0x0a);
        let (got_ctx, got) = Request::decode_enveloped(&Frame { opcode, payload }).unwrap();
        assert_eq!(got_ctx, Some(ctx));
        assert_eq!(got, req);
        // A bare v1 frame decodes with no context.
        let (opcode, payload) = req.encode();
        let (got_ctx, got) = Request::decode_enveloped(&Frame { opcode, payload }).unwrap();
        assert_eq!(got_ctx, None);
        assert_eq!(got, req);
        // The plain (v1) decoder refuses the envelope opcode.
        let (opcode, payload) = req.encode_enveloped(ctx);
        assert!(Request::decode(&Frame { opcode, payload }).is_err());
    }

    #[test]
    fn response_envelope_echoes_the_request_id() {
        let resp = Response::Answer {
            strategy: "DP".into(),
            plan: "Merge".into(),
            from_cache: false,
            micros: 17,
            ids: vec![2, 3],
        };
        let (opcode, payload) = resp.encode_enveloped(42);
        assert_eq!(opcode, 0x87);
        let (id, got) = Response::decode_enveloped(&Frame { opcode, payload }).unwrap();
        assert_eq!(id, Some(42));
        assert_eq!(got, resp);
        let (opcode, payload) = resp.encode();
        let (id, got) = Response::decode_enveloped(&Frame { opcode, payload }).unwrap();
        assert_eq!(id, None);
        assert_eq!(got, resp);
    }

    #[test]
    fn nested_envelopes_and_truncated_envelopes_are_malformed() {
        let (inner_op, inner_payload) =
            Request::Ping.encode_enveloped(TraceContext { request_id: 1, sample: false });
        // Hand-build an envelope whose inner opcode is the envelope
        // opcode itself.
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.push(0); // sample = false
        payload.push(inner_op); // 0x0a again: nested
        payload.extend_from_slice(&inner_payload);
        assert!(Request::decode_enveloped(&Frame { opcode: 0x0a, payload }).is_err());
        // Truncated header.
        assert!(Request::decode_enveloped(&Frame { opcode: 0x0a, payload: vec![1, 2] }).is_err());
        // Trailing bytes after the inner body.
        let ctx = TraceContext { request_id: 3, sample: true };
        let (opcode, mut payload) = Request::Ping.encode_enveloped(ctx);
        payload.push(0);
        assert!(Request::decode_enveloped(&Frame { opcode, payload }).is_err());
    }
}
