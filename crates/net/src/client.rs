//! A blocking client for the xtwig wire protocol: one TCP connection,
//! strict request/response alternation.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{read_frame, FrameError, FrameWriter};
use crate::proto::{ErrorCode, Request, Response, TraceContext, WireEvent, WireOp};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection (or its timeout setup) failed.
    Connect(std::io::Error),
    /// Transport or framing failure.
    Frame(FrameError),
    /// The response frame arrived but did not decode.
    Decode(String),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong kind.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Frame(e) => write!(f, "{e}"),
            ClientError::Decode(m) => write!(f, "undecodable response: {m}"),
            ClientError::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// A decoded query answer (the client-side view of
/// [`crate::proto::Response::Answer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireAnswer {
    /// Strategy that answered (concrete, even for `auto` requests).
    pub strategy: String,
    /// The relational plan kind that ran.
    pub plan: String,
    /// Served from the server's result cache.
    pub from_cache: bool,
    /// Server-side execution time in microseconds.
    pub micros: u64,
    /// Distinct ids bound to the output node, ascending.
    pub ids: Vec<u64>,
    /// The request id this answer was served under (echoed from the
    /// trace envelope); hand it to [`Client::trace`] if sampled.
    pub request_id: u64,
}

/// One connection to an xtwig server.
///
/// Every request is wrapped in the trace envelope with a
/// connection-local monotonically increasing request id; the server
/// echoes the id back and the client verifies it, so a desynchronized
/// response stream surfaces as a typed error instead of silent
/// misattribution.
///
/// The socket is `TCP_NODELAY` and every request frame leaves in one
/// `write` call, encoded in place into a reused buffer.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: FrameWriter<TcpStream>,
    next_id: u64,
    sample: bool,
    last_request_id: u64,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, None)
    }

    /// Connects with read/write timeouts so a wedged server cannot hang
    /// the caller (used by the CI smoke harness).
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(ClientError::Connect)?;
        stream.set_read_timeout(timeout).map_err(ClientError::Connect)?;
        stream.set_write_timeout(timeout).map_err(ClientError::Connect)?;
        stream.set_nodelay(true).map_err(ClientError::Connect)?;
        let read_half = stream.try_clone().map_err(ClientError::Connect)?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: FrameWriter::new(stream),
            next_id: 1,
            sample: false,
            last_request_id: 0,
        })
    }

    /// When on, every subsequent request asks the server to capture a
    /// full execution trace (retrievable via [`Client::trace`]) even if
    /// the query is not slow. Sampled queries bypass the result cache.
    pub fn set_sampling(&mut self, sample: bool) {
        self.sample = sample;
    }

    /// The id stamped on the most recent request sent on this
    /// connection (0 before the first call).
    pub fn last_request_id(&self) -> u64 {
        self.last_request_id
    }

    /// Sends one request and reads one response, wrapping the request
    /// in the trace envelope and verifying the echoed request id.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let ctx = TraceContext { request_id: self.next_id, sample: self.sample };
        self.next_id += 1;
        self.last_request_id = ctx.request_id;
        self.writer.send(|buf| req.encode_into(Some(ctx), buf))?;
        let frame = read_frame(&mut self.reader)?;
        let (echoed, resp) =
            Response::decode_enveloped(&frame).map_err(|e| ClientError::Decode(e.0))?;
        if let Some(id) = echoed {
            if id != ctx.request_id {
                return Err(ClientError::Unexpected(format!(
                    "response for request {id} arrived while waiting for {}",
                    ctx.request_id
                )));
            }
        }
        Ok(resp)
    }

    fn expect_text(resp: Response) -> Result<String, ClientError> {
        match resp {
            Response::Text(t) => Ok(t),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Answers `xpath` against index `index` under `strategy` (a label
    /// like `RP` or `auto`).
    pub fn query(
        &mut self,
        index: &str,
        xpath: &str,
        strategy: &str,
    ) -> Result<WireAnswer, ClientError> {
        let req = Request::Query {
            index: index.to_owned(),
            xpath: xpath.to_owned(),
            strategy: strategy.to_owned(),
        };
        match self.call(&req)? {
            Response::Answer { strategy, plan, from_cache, micros, ids } => Ok(WireAnswer {
                strategy,
                plan,
                from_cache,
                micros,
                ids,
                request_id: self.last_request_id,
            }),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetches the rendered span tree captured for `request_id` on
    /// index `index` (a request that was sampled, or slow enough for
    /// the slow-query ring). `UnknownTrace` means the ring never held
    /// it or has since evicted it.
    pub fn trace(&mut self, index: &str, request_id: u64) -> Result<String, ClientError> {
        let req = Request::Trace { index: index.to_owned(), request_id };
        Self::expect_text(self.call(&req)?)
    }

    /// Reads the server event journal from cursor `after` (exclusive),
    /// at most `max` entries. Poll with the last returned `seq` as the
    /// next cursor to follow the journal.
    pub fn events(&mut self, after: u64, max: u32) -> Result<Vec<WireEvent>, ClientError> {
        match self.call(&Request::Events { after, max })? {
            Response::Events { events } => Ok(events),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// The server's strategy ranking for `xpath`, rendered.
    pub fn explain(&mut self, index: &str, xpath: &str) -> Result<String, ClientError> {
        let req = Request::Explain { index: index.to_owned(), xpath: xpath.to_owned() };
        Self::expect_text(self.call(&req)?)
    }

    /// Applies a maintenance transaction; returns the new generation.
    pub fn update(&mut self, index: &str, ops: Vec<WireOp>) -> Result<u64, ClientError> {
        let req = Request::Update { index: index.to_owned(), ops };
        match self.call(&req)? {
            Response::UpdateAck { generation } => Ok(generation),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Prometheus text exposition for index `index`.
    pub fn metrics(&mut self, index: &str) -> Result<String, ClientError> {
        Self::expect_text(self.call(&Request::Metrics { index: index.to_owned() })?)
    }

    /// Service-stats JSON for index `index`.
    pub fn stats(&mut self, index: &str) -> Result<String, ClientError> {
        Self::expect_text(self.call(&Request::Stats { index: index.to_owned() })?)
    }

    /// `name\tattached|registered` lines, one per catalog entry.
    pub fn catalog(&mut self) -> Result<String, ClientError> {
        Self::expect_text(self.call(&Request::CatalogList)?)
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Sends `bytes` raw on the socket (no framing) and reads one
    /// response frame — the deliberately-malformed-input probe the CI
    /// smoke uses to check that garbage gets a typed error, not a hang.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
        use std::io::Write;
        let stream = self.writer.get_mut();
        stream.write_all(bytes).map_err(FrameError::Io)?;
        stream.flush().map_err(FrameError::Io)?;
        let frame = read_frame(&mut self.reader)?;
        Response::decode(&frame).map_err(|e| ClientError::Decode(e.0))
    }
}
