//! A minimal blocking HTTP/1.1 client for tests, the chaos harness, and
//! the benchmark. [`Client`] keeps its connection alive across
//! requests (PR 8); the free [`get`] stays as a one-shot convenience.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Retry-After` header value, when present.
    pub retry_after: Option<u64>,
    /// `X-Request-Id` echo, when present (DESIGN.md §7.10).
    pub request_id: Option<String>,
    /// Response body.
    pub body: String,
}

/// Upper bound on a response head; a server emitting more is broken.
const MAX_RESP_HEAD: usize = 16 * 1024;

/// A keep-alive HTTP/1.1 GET client. The connection is established lazily,
/// reused across `get` calls, and transparently re-established once when a
/// reused connection turns out to be stale (the server may close idle
/// keep-alive connections at any time — GETs are idempotent, so one retry
/// is safe).
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr`; `timeout` bounds connect, read, and write
    /// individually.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            stream: None,
        }
    }

    /// Issues `GET {target}`, reusing the kept-alive connection when one
    /// exists.
    pub fn get(&mut self, target: &str) -> std::io::Result<ClientResponse> {
        self.get_with_id(target, None)
    }

    /// Like [`Client::get`], optionally sending a caller-chosen
    /// `X-Request-Id` the server will echo back.
    pub fn get_with_id(
        &mut self,
        target: &str,
        request_id: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let reused = self.stream.is_some();
        match self.roundtrip(target, request_id) {
            Ok(resp) => Ok(resp),
            Err(e) if reused => {
                // stale keep-alive connection: reconnect and retry once
                self.stream = None;
                self.roundtrip(target, request_id).map_err(|_| e)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn roundtrip(
        &mut self,
        target: &str,
        request_id: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let mut stream = match self.stream.take() {
            Some(s) => s,
            None => {
                let s = TcpStream::connect_timeout(&self.addr, self.timeout)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(self.timeout))?;
                s.set_write_timeout(Some(self.timeout))?;
                s
            }
        };
        let id_header = match request_id {
            Some(id) => format!("X-Request-Id: {id}\r\n"),
            None => String::new(),
        };
        stream.write_all(
            format!("GET {target} HTTP/1.1\r\nHost: indigo\r\n{id_header}\r\n").as_bytes(),
        )?;
        // read until the head is complete
        let mut raw = Vec::with_capacity(512);
        let mut chunk = [0u8; 1024];
        let head_len = loop {
            if let Some(end) = find_head_end(&raw) {
                break end;
            }
            if raw.len() > MAX_RESP_HEAD {
                return Err(std::io::Error::other("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::other(
                    "connection closed before response head was complete",
                ));
            }
            raw.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&raw[..head_len]).into_owned();
        let parsed = parse_head(&head)?;
        let mut body = raw[head_len..].to_vec();
        match parsed.content_length {
            Some(len) => {
                while body.len() < len {
                    let n = stream.read(&mut chunk)?;
                    if n == 0 {
                        return Err(std::io::Error::other(
                            "connection closed before response body was complete",
                        ));
                    }
                    body.extend_from_slice(&chunk[..n]);
                }
                body.truncate(len);
                if !parsed.close {
                    self.stream = Some(stream); // keep for the next get
                }
            }
            None => {
                // no framing: the connection close delimits the body
                stream.read_to_end(&mut body)?;
            }
        }
        Ok(ClientResponse {
            status: parsed.status,
            retry_after: parsed.retry_after,
            request_id: parsed.request_id,
            body: String::from_utf8_lossy(&body).into_owned(),
        })
    }
}

/// Issues `GET {target}` on a fresh connection and reads the full
/// response. `timeout` bounds connect, read, and write individually.
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> std::io::Result<ClientResponse> {
    Client::new(addr, timeout).get(target)
}

/// Byte offset just past `\r\n\r\n`, when the head is complete.
fn find_head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

struct ParsedHead {
    status: u16,
    retry_after: Option<u64>,
    request_id: Option<String>,
    content_length: Option<usize>,
    close: bool,
}

fn parse_head(head: &str) -> std::io::Result<ParsedHead> {
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| std::io::Error::other("empty response"))?;
    if !status_line.starts_with("HTTP/") {
        return Err(std::io::Error::other(format!(
            "bad status line: {status_line}"
        )));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line: {status_line}")))?;
    let mut retry_after = None;
    let mut request_id = None;
    let mut content_length = None;
    let mut close = false;
    for (k, v) in lines.filter_map(|l| l.split_once(':')) {
        let v = v.trim();
        if k.eq_ignore_ascii_case("retry-after") {
            retry_after = v.parse().ok();
        } else if k.eq_ignore_ascii_case("x-request-id") {
            request_id = Some(v.to_string());
        } else if k.eq_ignore_ascii_case("content-length") {
            content_length = v.parse().ok();
        } else if k.eq_ignore_ascii_case("connection") && v.eq_ignore_ascii_case("close") {
            close = true;
        }
    }
    Ok(ParsedHead {
        status,
        retry_after,
        request_id,
        content_length,
        close,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_retry_after_framing_and_close() {
        let h = parse_head(
            "HTTP/1.1 429 Too Many Requests\r\nRetry-After: 7\r\n\
             X-Request-Id: abc-123\r\n\
             Content-Length: 2\r\nConnection: close\r\n",
        )
        .unwrap();
        assert_eq!(h.status, 429);
        assert_eq!(h.retry_after, Some(7));
        assert_eq!(h.request_id.as_deref(), Some("abc-123"));
        assert_eq!(h.content_length, Some(2));
        assert!(h.close);
        let h = parse_head("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n").unwrap();
        assert!(!h.close, "absent Connection header means keep-alive");
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(parse_head("").is_err());
        assert!(parse_head("not http at all").is_err());
    }

    #[test]
    fn head_end_needs_the_blank_line() {
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n\r\nbody"), Some(19));
        assert_eq!(find_head_end(b"HTTP/1.1 200 OK\r\n"), None);
    }
}
