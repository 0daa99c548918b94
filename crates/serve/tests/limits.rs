//! Transport-limit tests: bounded request lines, per-connection request budgets,
//! the connection cap, and recovery once capacity frees up. The serving process
//! must answer every abusive input with a structured protocol error and never
//! hang or die.

use fg_serve::{
    send_requests_watched, serve_lines_with, with_watchdog, Json, ServeLimits, Session, TcpServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn session() -> Arc<Session> {
    Arc::new(Session::new(fg_core::prelude::Threads::Serial, None))
}

fn parse(line: &str) -> Json {
    Json::parse(line).unwrap_or_else(|e| panic!("unparsable response {line}: {e}"))
}

#[test]
fn overlong_request_line_gets_structured_error_and_closes_connection() {
    let limits = ServeLimits {
        max_line_bytes: 64,
        ..ServeLimits::default()
    };
    // A "line" far past the window, never terminated — followed by a request that
    // must NOT be served (the stream cannot be resynced mid-line).
    let mut input = vec![b'x'; 4096];
    input.extend_from_slice(b"\n{\"cmd\":\"ping\"}\n");
    let mut output = Vec::new();
    serve_lines_with(&session(), &input[..], &mut output, &limits).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "{text}");
    let parsed = parse(lines[0]);
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    let error = parsed.get("error").and_then(Json::as_str).unwrap();
    assert!(error.contains("exceeds 64 bytes"), "{text}");
}

#[test]
fn line_exactly_at_the_limit_is_served() {
    let limits = ServeLimits {
        max_line_bytes: 64,
        ..ServeLimits::default()
    };
    // Pad a ping with spaces to exactly the limit (trailing newline excluded).
    let mut request = String::from("{\"cmd\":\"ping\"}");
    while request.len() < 64 {
        request.insert(0, ' ');
    }
    let input = format!("{request}\n");
    let mut output = Vec::new();
    serve_lines_with(&session(), input.as_bytes(), &mut output, &limits).unwrap();
    let text = String::from_utf8(output).unwrap();
    assert!(text.contains("pong"), "{text}");
}

#[test]
fn invalid_utf8_request_errors_without_killing_the_connection() {
    let limits = ServeLimits::default();
    let mut input: Vec<u8> = vec![0xff, 0xfe, 0x80];
    input.extend_from_slice(b"\n{\"cmd\":\"ping\",\"id\":2}\n");
    let mut output = Vec::new();
    serve_lines_with(&session(), &input[..], &mut output, &limits).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("not valid UTF-8"), "{text}");
    assert!(lines[1].contains("pong"), "{text}");
    // The error is pinned to line 1, the ping to line 2's id.
    assert_eq!(
        parse(lines[0]).get("line").and_then(Json::as_usize),
        Some(1)
    );
    assert_eq!(parse(lines[1]).get("id").and_then(Json::as_usize), Some(2));
}

#[test]
fn request_budget_closes_the_connection_after_the_last_allowed_response() {
    let limits = ServeLimits {
        max_requests_per_connection: 2,
        ..ServeLimits::default()
    };
    let input =
        "{\"cmd\":\"ping\",\"id\":1}\n{\"cmd\":\"ping\",\"id\":2}\n{\"cmd\":\"ping\",\"id\":3}\n";
    let mut output = Vec::new();
    serve_lines_with(&session(), input.as_bytes(), &mut output, &limits).unwrap();
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[0].contains("\"id\":1"));
    assert!(lines[1].contains("\"id\":2"));
}

#[test]
fn connections_past_the_cap_are_refused_and_capacity_recovers() {
    const TEST: &str = "connections_past_the_cap_are_refused_and_capacity_recovers";
    let limits = ServeLimits {
        max_connections: 1,
        ..ServeLimits::default()
    };
    let addr = TcpServer::spawn_with(session(), "127.0.0.1:0", limits).unwrap();

    // Occupy the only slot and prove the handler is live with a round-trip.
    let first = TcpStream::connect(addr).unwrap();
    let mut writer = first.try_clone().unwrap();
    let mut reader = BufReader::new(first.try_clone().unwrap());
    let (writer, reader, line) = with_watchdog(TEST, 1, move || {
        writer.write_all(b"{\"cmd\":\"ping\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        (writer, reader, line)
    });
    assert!(line.contains("pong"), "{line}");

    // A second client is refused with one structured error line, then EOF.
    let refused = send_requests_watched(TEST, addr, &["{\"cmd\":\"ping\"}".to_string()]).unwrap();
    assert_eq!(refused.len(), 1, "{refused:?}");
    let parsed = parse(&refused[0]);
    assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        parsed
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("at capacity"),
        "{refused:?}"
    );

    // Releasing the slot lets new clients in (the gauge decrements when the
    // handler exits, so poll briefly).
    drop(reader);
    drop(writer);
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let responses =
            send_requests_watched(TEST, addr, &["{\"cmd\":\"ping\"}".to_string()]).unwrap();
        if responses.len() == 1 && responses[0].contains("pong") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "capacity never recovered: {responses:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
