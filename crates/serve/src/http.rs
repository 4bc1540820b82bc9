//! A deliberately small HTTP/1.1 framing layer over `std::net`.
//!
//! The daemon needs exactly one exchange shape: read a request with an
//! optional body, write a response, close the connection. This module
//! implements that and nothing else — no keep-alive, no chunked encoding,
//! no TLS. Connections are `Connection: close`, which keeps the server's
//! concurrency story identical to its queue semantics (one queued item per
//! connection).

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed HTTP request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// Request path including any query string, e.g. `/plan`.
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: String,
}

/// Reads one HTTP/1.1 request from `stream`.
///
/// The head is read in 1 KiB chunks; whatever the last chunk held past the
/// head starts the body, and the rest of the body is read in one
/// `read_exact` into a buffer sized from `Content-Length`.
///
/// # Errors
///
/// Fails on malformed request lines, heads over [`MAX_HEAD`], bodies over
/// [`MAX_BODY`], non-numeric `Content-Length`, or plain I/O errors
/// (including read timeouts configured on the stream).
pub fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    // Read until the blank line that terminates the head.
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(bad_data("request head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad_data("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad_data("request line has no path"))?;

    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad_data("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad_data("request body too large"));
    }

    let body_start = head_end + 4; // past "\r\n\r\n"
    let early = &buf[body_start.min(buf.len())..];
    let early = &early[..early.len().min(content_length)];
    let mut body = vec![0u8; content_length];
    body[..early.len()].copy_from_slice(early);
    stream.read_exact(&mut body[early.len()..])?;

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        body: String::from_utf8(body)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
    })
}

/// Writes one response — head and body in a single write — and flushes
/// it. The connection is always announced as `Connection: close`; the
/// caller drops the stream afterwards.
///
/// # Errors
///
/// Propagates I/O errors (including write timeouts) from the stream.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let reason = reason_phrase(status);
    let mut message = String::with_capacity(128 + body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    message.push_str(body);
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// Minimal blocking HTTP client: one request, one response, connection
/// closed. Used by the integration tests and the `check.sh` smoke probe as
/// a fallback when `curl` is unavailable.
///
/// Returns `(status, body)`.
///
/// # Errors
///
/// Fails on connection errors or a response without a valid status line.
pub fn request(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;

    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, tail) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad_data("response has no head/body separator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_data("response has no status code"))?;
    Ok((status, tail.to_string()))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn round_trips_a_request_and_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/plan");
            assert_eq!(req.body, r#"{"model":"alexnet"}"#);
            write_response(&mut stream, 200, "application/json", r#"{"ok":true}"#).unwrap();
        });
        let (status, body) = request(&addr, "POST", "/plan", r#"{"model":"alexnet"}"#).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"ok":true}"#);
        server.join().unwrap();
    }

    #[test]
    fn bodyless_get_parses_with_empty_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.method, "GET");
            assert!(req.body.is_empty());
            write_response(&mut stream, 404, "text/plain", "nope").unwrap();
        });
        let (status, body) = request(&addr, "GET", "/healthz", "").unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "nope");
        server.join().unwrap();
    }

    /// Sends `raw` to a fresh listener in writes of at most `piece` bytes
    /// and returns what `read_request` made of it.
    fn read_sent(raw: &[u8], piece: usize) -> io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            read_request(&mut stream)
        });
        let mut c = TcpStream::connect(addr).unwrap();
        c.set_nodelay(true).unwrap();
        for part in raw.chunks(piece) {
            c.write_all(part).unwrap();
            c.flush().unwrap();
        }
        // The peer may already have given up and closed; the half-close
        // only matters to a reader still waiting for body bytes.
        let _ = c.shutdown(std::net::Shutdown::Write);
        server.join().unwrap()
    }

    fn post(body: &[u8], content_length: usize) -> Vec<u8> {
        let mut raw =
            format!("POST /plan HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n").into_bytes();
        raw.extend_from_slice(body);
        raw
    }

    #[test]
    fn body_split_across_many_small_writes_is_reassembled() {
        let body: String = (0..3000u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        let req = read_sent(&post(body.as_bytes(), body.len()), 7).unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn body_in_the_same_segment_as_the_head_is_read() {
        let short = r#"{"model":"alexnet"}"#;
        let long = "x".repeat(5000);
        let cases = [
            // A body inside the first head chunk, and one that overruns it.
            (post(short.as_bytes(), short.len()), short),
            (post(long.as_bytes(), long.len()), long.as_str()),
            // Bytes past Content-Length are not part of the body.
            (post(b"abcdef", 3), "abc"),
            // Invalid UTF-8 falls back to the lossy decode.
            (post(b"ok\xffok", 5), "ok\u{fffd}ok"),
        ];
        for (raw, want) in &cases {
            assert_eq!(read_sent(raw, raw.len()).unwrap().body, *want);
        }
    }

    #[test]
    fn short_body_is_an_unexpected_eof() {
        let raw = post(b"abc", 10);
        let err = read_sent(&raw, raw.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let raw = post(b"", 99_999_999);
        let err = read_sent(&raw, raw.len()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
