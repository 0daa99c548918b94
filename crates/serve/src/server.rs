//! Transports for a [`Session`]: a line loop over arbitrary reader/writer pairs
//! (stdin/stdout for `fg serve`, a socket per TCP connection) and a `std::net` TCP
//! listener that shares one session across concurrent connections.
//!
//! Both transports are bounded by [`ServeLimits`]: per-connection request lines are
//! read through a fixed-size window (a client streaming an endless line cannot
//! balloon memory), connections past the cap are refused with a structured error
//! line instead of queueing, and a per-connection request budget (when set) closes
//! the connection after its last allowed response. Every limit violation produces a
//! well-formed protocol error — the process never hangs and never dies on abusive
//! input.

use crate::json::Json;
use crate::session::{Flow, Session};
use fg_obs::{Gauge, MetricsRegistry};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Resource bounds for a serving transport. `Default` gives production-safe
/// values; `0` means "unlimited" for the connection and request counts, but the
/// line length is always enforced.
#[derive(Debug, Clone, Copy)]
pub struct ServeLimits {
    /// Concurrent TCP connections accepted before new ones are refused with a
    /// structured error line (`0` = unlimited).
    pub max_connections: usize,
    /// Longest accepted request line in bytes; an overlong line gets a structured
    /// error response and closes the connection (the stream cannot be resynced).
    pub max_line_bytes: usize,
    /// Requests served per connection before it is closed (`0` = unlimited).
    pub max_requests_per_connection: usize,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_connections: 64,
            max_line_bytes: 1 << 20,
            max_requests_per_connection: 0,
        }
    }
}

/// A protocol-shaped error line built transport-side (the session never sees the
/// offending input).
fn transport_error(line_no: usize, message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("id", Json::Null),
        ("line", Json::num(line_no)),
        ("error", Json::str(format!("line {line_no}: {message}"))),
    ])
    .to_string()
}

/// Read one `\n`-terminated line through a window of `max + 1` bytes. Returns
/// `Ok(None)` at EOF and `Ok(Some((bytes, overlong)))` otherwise — `overlong`
/// means the line was cut off at the window and the stream is unsafe to resync.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
) -> io::Result<Option<(Vec<u8>, bool)>> {
    let mut buf = Vec::new();
    let n = reader
        .by_ref()
        .take(max as u64 + 1)
        .read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    let overlong = buf.len() > max && buf.last() != Some(&b'\n');
    Ok(Some((buf, overlong)))
}

/// Serve JSON-lines requests from `reader`, writing one response line per request
/// to `writer`, until EOF, a `shutdown` request, or a limit violation. Line
/// numbers (1-based, counting every received line) are echoed in error responses.
pub fn serve_lines_with<R: BufRead, W: Write>(
    session: &Session,
    mut reader: R,
    mut writer: W,
    limits: &ServeLimits,
) -> io::Result<()> {
    let mut line_no = 0usize;
    let mut served = 0usize;
    let respond = |writer: &mut W, response: &str| -> io::Result<()> {
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    };
    while let Some((bytes, overlong)) = read_bounded_line(&mut reader, limits.max_line_bytes)? {
        line_no += 1;
        if overlong {
            respond(
                &mut writer,
                &transport_error(
                    line_no,
                    &format!(
                        "request line exceeds {} bytes; closing connection",
                        limits.max_line_bytes
                    ),
                ),
            )?;
            break;
        }
        let line = match std::str::from_utf8(&bytes) {
            Ok(line) => line,
            Err(_) => {
                respond(
                    &mut writer,
                    &transport_error(line_no, "request line is not valid UTF-8"),
                )?;
                continue;
            }
        };
        if line.trim().is_empty() {
            // Blank lines are tolerated between requests (they still count for
            // line numbering so errors point at the right request).
            continue;
        }
        let (response, flow) = session.handle_line(line, line_no);
        respond(&mut writer, &response)?;
        if flow == Flow::Close {
            break;
        }
        served += 1;
        if limits.max_requests_per_connection > 0 && served >= limits.max_requests_per_connection {
            break;
        }
    }
    Ok(())
}

/// [`serve_lines_with`] under the default [`ServeLimits`].
pub fn serve_lines<R: BufRead, W: Write>(
    session: &Session,
    reader: R,
    writer: W,
) -> io::Result<()> {
    serve_lines_with(session, reader, writer, &ServeLimits::default())
}

/// A TCP front-end sharing one [`Session`] across connections.
pub struct TcpServer {
    listener: TcpListener,
    session: Arc<Session>,
    limits: ServeLimits,
}

/// Decrements the live-connection count (and the scrapeable gauge) when a
/// connection handler exits, however it exits.
struct ConnectionGuard(Arc<AtomicUsize>, Arc<Gauge>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
        self.1.dec();
    }
}

impl TcpServer {
    /// Bind the listener under explicit limits (use port 0 for an ephemeral port;
    /// the bound address is reported by [`local_addr`](Self::local_addr)).
    pub fn bind_with(
        session: Arc<Session>,
        addr: impl ToSocketAddrs,
        limits: ServeLimits,
    ) -> io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            session,
            limits,
        })
    }

    /// [`bind_with`](Self::bind_with) under the default [`ServeLimits`].
    pub fn bind(session: Arc<Session>, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::bind_with(session, addr, ServeLimits::default())
    }

    /// The address the server accepts connections on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept connections forever, one thread per connection up to the configured
    /// cap; each connection runs its own [`serve_lines_with`] loop against the
    /// shared session (warm requests on published state run concurrently; mutation
    /// requests serialize per dataset, so concurrent clients see deterministic
    /// responses). Connections past the cap receive one structured error line and
    /// are closed. Connection-level I/O errors are logged to stderr and never take
    /// the server down.
    pub fn run(&self) -> io::Result<()> {
        let active = Arc::new(AtomicUsize::new(0));
        let metrics = self.session.metrics();
        let connections_total = metrics.counter(
            "fg_connections_total",
            "TCP connections accepted over the server's lifetime.",
            &[],
        );
        let connections_refused = metrics.counter(
            "fg_connections_refused_total",
            "TCP connections refused because the server was at capacity.",
            &[],
        );
        let connections_active = metrics.gauge(
            "fg_connections_active",
            "TCP connections currently being served.",
            &[],
        );
        for stream in self.listener.incoming() {
            match stream {
                Ok(mut stream) => {
                    if self.limits.max_connections > 0
                        && active.load(Ordering::Relaxed) >= self.limits.max_connections
                    {
                        connections_refused.inc();
                        let refusal = transport_error(
                            0,
                            &format!(
                                "server at capacity ({} connections); retry later",
                                self.limits.max_connections
                            ),
                        );
                        let _ = stream.write_all(refusal.as_bytes());
                        let _ = stream.write_all(b"\n");
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        continue;
                    }
                    connections_total.inc();
                    connections_active.inc();
                    active.fetch_add(1, Ordering::Relaxed);
                    let guard =
                        ConnectionGuard(Arc::clone(&active), Arc::clone(&connections_active));
                    let session = Arc::clone(&self.session);
                    let limits = self.limits;
                    std::thread::spawn(move || {
                        let _guard = guard;
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "<unknown>".to_string());
                        let reader = BufReader::new(match stream.try_clone() {
                            Ok(clone) => clone,
                            Err(e) => {
                                eprintln!("fg serve: cannot clone stream for {peer}: {e}");
                                return;
                            }
                        });
                        if let Err(e) = serve_lines_with(&session, reader, stream, &limits) {
                            eprintln!("fg serve: connection {peer} failed: {e}");
                        }
                    });
                }
                Err(e) => eprintln!("fg serve: accept failed: {e}"),
            }
        }
        Ok(())
    }

    /// Spawn the accept loop on a background thread under explicit limits (used by
    /// tests and the one-shot client helpers); the thread runs until the process
    /// exits.
    pub fn spawn_with(
        session: Arc<Session>,
        addr: impl ToSocketAddrs,
        limits: ServeLimits,
    ) -> io::Result<SocketAddr> {
        let server = TcpServer::bind_with(session, addr, limits)?;
        let local = server.local_addr()?;
        std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(local)
    }

    /// [`spawn_with`](Self::spawn_with) under the default [`ServeLimits`].
    pub fn spawn(session: Arc<Session>, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        TcpServer::spawn_with(session, addr, ServeLimits::default())
    }
}

/// A minimal Prometheus-style scrape listener for a [`MetricsRegistry`]
/// (`fg serve --metrics-port`). Speaks just enough HTTP for `curl` and a
/// Prometheus scraper: it reads and discards the request head (bounded by
/// [`ServeLimits::max_line_bytes`] per line, so an abusive client cannot balloon
/// memory), then answers every request with a `200 OK` carrying the rendered
/// text exposition and closes the connection (`Connection: close`, HTTP/1.0).
///
/// Runs strictly one-way: it *renders* the registry and never touches session
/// state, so scraping cannot perturb the byte-deterministic protocol port.
pub struct MetricsServer {
    listener: TcpListener,
    registry: Arc<MetricsRegistry>,
    limits: ServeLimits,
}

impl MetricsServer {
    /// Bind the scrape listener (port 0 for ephemeral; see
    /// [`local_addr`](Self::local_addr)).
    pub fn bind(
        registry: Arc<MetricsRegistry>,
        addr: impl ToSocketAddrs,
        limits: ServeLimits,
    ) -> io::Result<MetricsServer> {
        Ok(MetricsServer {
            listener: TcpListener::bind(addr)?,
            registry,
            limits,
        })
    }

    /// The address the listener accepts scrapes on.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept scrapes forever, one short-lived thread per connection.
    /// Connection-level I/O errors are logged and never take the listener down.
    pub fn run(&self) -> io::Result<()> {
        for stream in self.listener.incoming() {
            match stream {
                Ok(stream) => {
                    let registry = Arc::clone(&self.registry);
                    let max_line = self.limits.max_line_bytes;
                    std::thread::spawn(move || {
                        if let Err(e) = serve_scrape(&registry, stream, max_line) {
                            eprintln!("fg serve: metrics scrape failed: {e}");
                        }
                    });
                }
                Err(e) => eprintln!("fg serve: metrics accept failed: {e}"),
            }
        }
        Ok(())
    }

    /// Bind and run the accept loop on a background thread; the thread runs until
    /// the process exits. Returns the bound address.
    pub fn spawn(
        registry: Arc<MetricsRegistry>,
        addr: impl ToSocketAddrs,
        limits: ServeLimits,
    ) -> io::Result<SocketAddr> {
        let server = MetricsServer::bind(registry, addr, limits)?;
        let local = server.local_addr()?;
        std::thread::spawn(move || {
            let _ = server.run();
        });
        Ok(local)
    }
}

/// Answer one scrape connection: drain the request head (up to the first blank
/// line or EOF), then write the full exposition and close.
fn serve_scrape(
    registry: &MetricsRegistry,
    stream: TcpStream,
    max_line_bytes: usize,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    while let Some((bytes, overlong)) = read_bounded_line(&mut reader, max_line_bytes)? {
        if overlong {
            // The head line blew the window: answer anyway and close — the
            // response never depends on the request.
            break;
        }
        if bytes == b"\r\n" || bytes == b"\n" {
            break;
        }
    }
    let body = registry.render();
    let mut writer = stream;
    writer.write_all(
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;
    let _ = writer.shutdown(std::net::Shutdown::Both);
    Ok(())
}

/// One-shot scrape client: fetch and return the exposition body from a
/// [`MetricsServer`] (used by tests, CI, and `fg client --metrics`).
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    BufReader::new(stream).read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_head, body)) => Ok(body.to_string()),
        None => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "metrics response carries no HTTP header/body separator",
        )),
    }
}

/// One-shot client: connect, send each request line, half-close the write side,
/// and collect every response line until the server finishes. This is what
/// `fg client` uses; tests drive servers with it too.
///
/// Writing happens on its own thread while this thread drains responses, so a
/// batch whose early responses are large (a full-graph classify) followed by
/// large request lines cannot deadlock on full socket buffers. A broken-pipe
/// write error is tolerated (the server may legitimately close mid-batch after a
/// `shutdown` request); other write errors are surfaced.
pub fn send_requests(addr: impl ToSocketAddrs, lines: &[String]) -> io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    let outgoing: Vec<String> = lines.to_vec();
    let writer_thread = std::thread::spawn(move || -> io::Result<()> {
        for line in &outgoing {
            writer.write_all(line.as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
        writer.shutdown(std::net::Shutdown::Write)?;
        Ok(())
    });
    let mut responses = Vec::new();
    let mut read_error = None;
    for line in reader.lines() {
        match line {
            Ok(line) => responses.push(line),
            Err(e) => {
                read_error = Some(e);
                break;
            }
        }
    }
    match writer_thread.join().expect("writer thread panicked") {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {}
        Err(e) => return Err(e),
    }
    if let Some(e) = read_error {
        return Err(e);
    }
    Ok(responses)
}

/// How long [`with_watchdog`] waits for one client exchange.
const EXCHANGE_WATCHDOG: Duration = Duration::from_secs(60);

/// Test support: run one client exchange with an in-process server (a
/// [`send_requests`] batch, a metrics scrape, a raw round trip) on its own
/// thread and wait at most 60 s for it. A client that reads to EOF blocks for
/// as long as the server keeps the connection open; past the deadline this
/// panics with the test's name and the exchange's request count instead of
/// hanging the suite. The stuck thread is abandoned; a panic inside the
/// exchange is re-raised on the caller's thread. Not part of the supported
/// API.
#[doc(hidden)]
pub fn with_watchdog<T, F>(test: &str, requests: usize, exchange: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    watchdog_for(EXCHANGE_WATCHDOG, test, requests, exchange)
}

fn watchdog_for<T, F>(limit: Duration, test: &str, requests: usize, exchange: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (done, outcome) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        // The receiver is gone only after a timeout, when nobody waits.
        let _ = done.send(exchange());
    });
    match outcome.recv_timeout(limit) {
        Ok(value) => {
            worker
                .join()
                .expect("the exchange thread ended after sending");
            value
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "{test}: an exchange of {requests} request(s) was still running after {:?}",
            limit
        ),
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("the exchange thread ended without sending"),
        },
    }
}

/// Test support: [`send_requests`] under [`with_watchdog`]. Not part of the
/// supported API.
#[doc(hidden)]
pub fn send_requests_watched(
    test: &str,
    addr: SocketAddr,
    lines: &[String],
) -> io::Result<Vec<String>> {
    let owned = lines.to_vec();
    with_watchdog(test, lines.len(), move || send_requests(addr, &owned))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn watchdog_names_the_test_and_request_count_of_a_hung_exchange() {
        let hung = std::panic::catch_unwind(|| {
            watchdog_for(Duration::from_millis(20), "some_test", 3, || {
                std::thread::sleep(Duration::from_secs(5))
            })
        });
        let message = panic_message(hung.unwrap_err());
        assert!(message.starts_with("some_test: "), "{message}");
        assert!(message.contains("3 request(s)"), "{message}");
    }

    #[test]
    fn watchdog_returns_the_answer_and_re_raises_a_panic() {
        assert_eq!(with_watchdog("quick", 1, || 7), 7);
        let failed =
            std::panic::catch_unwind(|| with_watchdog("failing", 1, || panic!("inner failure")));
        assert_eq!(panic_message(failed.unwrap_err()), "inner failure");
    }
}
