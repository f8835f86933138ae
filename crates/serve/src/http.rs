//! Hand-rolled HTTP/1.1, just enough for the query API (DESIGN.md §7.8,
//! §7.9).
//!
//! The server speaks a deliberately small subset: `GET` requests with query
//! strings and JSON bodies only. Since PR 8 responses default to
//! `Connection: keep-alive` so one TCP connection can carry many requests
//! (and pipelined requests parse back-to-back out of one buffer); a request
//! or response can still opt out with `Connection: close`. There is no
//! chunking or percent-decoding — robustness comes from strict caps (8 KiB
//! of headers) and from every malformed input mapping to a structured 400
//! rather than a panic or a hang.

use std::io::Write;
use std::net::TcpStream;

/// Largest request head (request line + headers) the server will read.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Longest client-supplied `X-Request-Id` the server will echo.
pub const MAX_REQUEST_ID_BYTES: usize = 64;

/// Keeps the characters of a client-supplied request ID that are safe to
/// echo into a header and a JSON body (alphanumerics plus `-_.:`), capped
/// at [`MAX_REQUEST_ID_BYTES`]. Returns `None` when nothing survives.
fn sanitize_request_id(raw: &str) -> Option<String> {
    let cleaned: String = raw
        .trim()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        .take(MAX_REQUEST_ID_BYTES)
        .collect();
    if cleaned.is_empty() {
        None
    } else {
        Some(cleaned)
    }
}

/// A parsed request line: method, path, and split query parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET` is the only one the router accepts).
    pub method: String,
    /// Path without the query string (`/run`).
    pub path: String,
    /// Query parameters in order of appearance.
    pub params: Vec<(String, String)>,
    /// The client asked for `Connection: close` (or spoke HTTP/1.0).
    pub close: bool,
    /// Client-supplied `X-Request-Id`, sanitized (token characters only,
    /// capped at [`MAX_REQUEST_ID_BYTES`]). The server echoes it back so a
    /// caller's own correlation IDs survive the round trip; absent, the
    /// server assigns one (DESIGN.md §7.10).
    pub request_id: Option<String>,
}

impl Request {
    /// First value of query parameter `key`.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parses a request head (everything before the blank line).
    pub fn parse(head: &str) -> Result<Request, String> {
        let line = head.lines().next().ok_or("empty request")?;
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or("missing method")?.to_string();
        let target = parts.next().ok_or("missing request target")?;
        let version = match parts.next() {
            Some(v) if v.starts_with("HTTP/1.") => v,
            _ => return Err("not an HTTP/1.x request".into()),
        };
        // HTTP/1.0 has no keep-alive by default; 1.1 keeps alive unless the
        // client says otherwise
        let mut close = version == "HTTP/1.0";
        let mut request_id = None;
        for h in head.lines().skip(1) {
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("connection") {
                    let v = v.trim();
                    if v.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if v.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                } else if k.eq_ignore_ascii_case("x-request-id") {
                    request_id = sanitize_request_id(v);
                }
            }
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let params = query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (kv.to_string(), String::new()),
            })
            .collect();
        Ok(Request {
            method,
            path: path.to_string(),
            params,
            close,
            request_id,
        })
    }
}

/// Index just *past* the head terminator (`\r\n\r\n` or `\n\n`) in `buf`,
/// or `None` while the head is still incomplete. The reactor calls this on
/// every read so a request is dispatched the moment its head lands, and
/// pipelined bytes after the terminator stay in the buffer for the next
/// request.
pub fn head_end(buf: &[u8]) -> Option<usize> {
    // scan once; \n\n also terminates so bare-LF clients work
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            if i + 1 < buf.len() && buf[i + 1] == b'\n' {
                return Some(i + 2);
            }
            if i + 2 < buf.len() && buf[i + 1] == b'\r' && buf[i + 2] == b'\n' {
                return Some(i + 3);
            }
        }
        i += 1;
    }
    None
}

/// A response about to be written: status, JSON body, optional
/// `Retry-After` advice (seconds) for 429/503 sheds, and whether the
/// connection closes after it.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// JSON body.
    pub body: String,
    /// `Retry-After` header value in seconds, when shedding.
    pub retry_after: Option<u64>,
    /// Close the connection after this response (sheds and malformed
    /// requests do; everything else keeps the connection alive).
    pub close: bool,
    /// `X-Request-Id` echoed on every response (DESIGN.md §7.10).
    pub request_id: Option<String>,
    /// `Content-Type` header value (`application/json` for the query API;
    /// `/metrics` overrides with the Prometheus text type).
    pub content_type: &'static str,
}

impl Response {
    /// A JSON response (keep-alive by default).
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            retry_after: None,
            close: false,
            request_id: None,
            content_type: "application/json",
        }
    }

    /// A plain-text response (Prometheus exposition uses
    /// `text/plain; version=0.0.4`).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Response::json(status, body)
        }
    }

    /// Attaches the request ID to echo as `X-Request-Id`.
    pub fn with_request_id(mut self, id: impl Into<String>) -> Response {
        self.request_id = Some(id.into());
        self
    }

    /// Attaches `Retry-After` advice.
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Marks the response as connection-closing.
    pub fn with_close(mut self) -> Response {
        self.close = true;
        self
    }

    /// Serializes the full response (head + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" }
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        if let Some(id) = &self.request_id {
            head.push_str(&format!("X-Request-Id: {id}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    /// Writes and flushes the response.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes())?;
        stream.flush()
    }
}

/// Reason phrase for the status codes the server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_with_query_params() {
        let r = Request::parse("GET /run?algo=bfs&graph=rmat&empty HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/run");
        assert_eq!(r.param("algo"), Some("bfs"));
        assert_eq!(r.param("graph"), Some("rmat"));
        assert_eq!(r.param("empty"), Some(""));
        assert_eq!(r.param("absent"), None);
        assert!(!r.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let c = Request::parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(c.close);
        let old = Request::parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(old.close);
        let revived = Request::parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!revived.close);
    }

    #[test]
    fn rejects_garbage_request_lines() {
        for bad in ["", "GET", "GET /x", "GET /x SMTP/9", "\r\n\r\n"] {
            assert!(Request::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn head_end_finds_both_terminators_and_keeps_pipelined_bytes() {
        assert_eq!(head_end(b"GET / HTTP/1.1"), None);
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r"), None);
        let buf = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let end = head_end(buf).unwrap();
        assert_eq!(&buf[..end], b"GET /a HTTP/1.1\r\n\r\n");
        assert!(head_end(&buf[end..]).is_some(), "second request intact");
        assert_eq!(head_end(b"GET / HTTP/1.1\n\n"), Some(16));
    }

    #[test]
    fn response_head_carries_length_and_retry_after() {
        let resp = Response::json(429, "{\"status\":\"shed\"}")
            .with_retry_after(3)
            .with_close();
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 17\r\n"));
        assert!(text.contains("Retry-After: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"status\":\"shed\"}"));
    }

    #[test]
    fn responses_keep_alive_by_default() {
        let text = String::from_utf8(Response::json(200, "{}").to_bytes()).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn request_id_is_parsed_sanitized_and_capped() {
        let r = Request::parse("GET / HTTP/1.1\r\nX-Request-Id: client-7.a_b:c\r\n\r\n").unwrap();
        assert_eq!(r.request_id.as_deref(), Some("client-7.a_b:c"));
        // header-injection and control characters are stripped, not echoed
        let evil = Request::parse("GET / HTTP/1.1\r\nx-request-id: a b\"<>\r\n\r\n").unwrap();
        assert_eq!(evil.request_id.as_deref(), Some("ab"));
        let blank = Request::parse("GET / HTTP/1.1\r\nX-Request-Id: \"\"\r\n\r\n").unwrap();
        assert_eq!(blank.request_id, None);
        let long = format!(
            "GET / HTTP/1.1\r\nX-Request-Id: {}\r\n\r\n",
            "x".repeat(500)
        );
        let capped = Request::parse(&long).unwrap();
        assert_eq!(capped.request_id.unwrap().len(), MAX_REQUEST_ID_BYTES);
        let none = Request::parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(none.request_id, None);
    }

    #[test]
    fn responses_echo_the_request_id_header() {
        let resp = Response::json(200, "{}").with_request_id("abc-123");
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(text.contains("X-Request-Id: abc-123\r\n"));
        let bare = String::from_utf8(Response::json(200, "{}").to_bytes()).unwrap();
        assert!(!bare.contains("X-Request-Id"));
    }

    #[test]
    fn text_responses_carry_the_exposition_content_type() {
        let text = String::from_utf8(Response::text(200, "x 1\n").to_bytes()).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        let json = String::from_utf8(Response::json(200, "{}").to_bytes()).unwrap();
        assert!(json.contains("Content-Type: application/json\r\n"));
    }
}
