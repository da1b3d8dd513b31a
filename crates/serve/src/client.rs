//! Clients: an in-process handle for tests/benchmarks and a TCP line
//! client for the CLI.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use crate::backoff::{self, Backoff};
use crate::protocol::{Request, SubmitRequest, MAX_FRAME_BYTES, TRANSIENT_PREFIX};
use crate::service::{MetricsReport, Response, ServeCore};

/// How a client resubmits after transient failures: capped jittered
/// exponential backoff, also honouring any `retry_after_ms` hint the
/// server attached (whichever is longer wins).
///
/// Resubmission is idempotent by construction: a completed job's outcome
/// lands in the server's content-addressed result cache, so a retry of
/// work that actually finished is served bit-identically from the cache
/// instead of running twice.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, the first try included (`1` = no retries).
    pub max_attempts: u32,
    /// Nominal first retry delay (jittered to `[d/2, d)`).
    pub base: Duration,
    /// Nominal retry delay cap.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0xC11E_4275,
        }
    }
}

/// `Some(server_hint_ms)` when the response is worth retrying: a
/// rejection carrying `retry_after_ms` (class unhealthy, queue full,
/// deadline-shed) or a job aborted with a `transient:` reason (its
/// worker died mid-job; the job itself was fine). Permanent refusals
/// and genuine outcomes return `None`.
fn retry_hint_ms(response: &Response) -> Option<u64> {
    match response {
        Response::Rejected {
            retry_after_ms: Some(ms),
            ..
        } => Some(*ms),
        Response::Status(s) => s
            .outcome
            .as_ref()
            .and_then(|o| o.aborted.as_ref())
            .filter(|a| a.reason.starts_with(TRANSIENT_PREFIX))
            .map(|_| 0),
        _ => None,
    }
}

/// An in-process client: the same request/response surface as the wire,
/// minus serialization. This is what the integration tests and the load
/// benchmark use, so the service semantics are exercised identically
/// with and without TCP in the middle.
#[derive(Debug, Clone)]
pub struct Client {
    core: Arc<ServeCore>,
}

impl Client {
    /// Wraps a running core.
    pub fn new(core: Arc<ServeCore>) -> Client {
        Client { core }
    }

    /// Sends any request.
    pub fn request(&self, request: Request) -> Response {
        self.core.handle(request)
    }

    /// Submits a job.
    pub fn submit(&self, submit: SubmitRequest) -> Response {
        self.core.handle(Request::Submit(Box::new(submit)))
    }

    /// Queries a job's state.
    pub fn status(&self, job: u64) -> Response {
        self.core.handle(Request::Status { job })
    }

    /// Blocks until the job is terminal (or the timeout).
    pub fn wait(&self, job: u64, timeout: Duration) -> Response {
        self.core.handle(Request::Wait { job, timeout })
    }

    /// Fetches a metrics snapshot.
    pub fn metrics(&self) -> MetricsReport {
        self.core.metrics_report()
    }

    /// Runs one job to a terminal state with idempotent resubmission:
    /// submit, wait, and — when the response is a retryable refusal or a
    /// `transient:` abort (worker death) — back off and resubmit, up to
    /// `policy.max_attempts` tries. Returns the last response (a terminal
    /// `Status`, a permanent `Rejected`, or whatever the final attempt
    /// produced when the attempts ran out).
    pub fn run_with_retry(
        &self,
        submit: &SubmitRequest,
        wait_timeout: Duration,
        policy: &RetryPolicy,
    ) -> Response {
        let mut delays = Backoff::new(policy.base, policy.cap, policy.seed);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let response = match self.submit(submit.clone()) {
                Response::Submitted { job } => self.wait(job, wait_timeout),
                other => other,
            };
            let hint_ms = match retry_hint_ms(&response) {
                Some(ms) if attempt < policy.max_attempts.max(1) => ms,
                _ => return response,
            };
            backoff::sleep(delays.next_delay().max(Duration::from_millis(hint_ms)));
        }
    }

    /// Stops admission and waits for in-flight jobs.
    pub fn drain(&self) -> Response {
        self.core.handle(Request::Drain)
    }

    /// Stops the service (evicting/cancelling as documented on the
    /// `Shutdown` request).
    pub fn shutdown(&self) -> Response {
        self.core.handle(Request::Shutdown)
    }
}

/// A blocking TCP client speaking the line protocol.
#[derive(Debug)]
pub struct TcpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl TcpClient {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect/clone failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(TcpClient {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one raw request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; an oversized or missing response line is
    /// reported as [`io::ErrorKind::InvalidData`] /
    /// [`io::ErrorKind::UnexpectedEof`].
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_line()
    }

    /// Reads one response line (without sending anything).
    ///
    /// # Errors
    ///
    /// As for [`TcpClient::roundtrip`].
    pub fn read_line(&mut self) -> io::Result<String> {
        let mut buf = Vec::new();
        let mut limited = (&mut self.reader).take((MAX_FRAME_BYTES + 1) as u64);
        limited.read_until(b'\n', &mut buf)?;
        if buf.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        if buf.len() > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response frame too large",
            ));
        }
        while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
            buf.pop();
        }
        String::from_utf8(buf)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))
    }

    /// Sends raw bytes verbatim (fault-injection tests use this to send
    /// deliberately broken frames).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Half-closes the write side, signalling EOF to the server while
    /// keeping the read side open for its final response.
    ///
    /// # Errors
    ///
    /// Propagates the socket shutdown failure.
    pub fn shutdown_write(&mut self) -> io::Result<()> {
        self.writer.shutdown(std::net::Shutdown::Write)
    }
}
