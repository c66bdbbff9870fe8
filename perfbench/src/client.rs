//! A minimal blocking HTTP/1.1 keep-alive client, written apart from the
//! program's own decoder so that the load generator measures the server and
//! not code shared with it. Responses must carry `Content-Length`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a read may block before the run counts the connection as
/// failed (a hung server must not hang the benchmark).
const READ_TIMEOUT: Duration = Duration::from_secs(20);
const READ_CHUNK: usize = 256 * 1024;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` received so far.
    filled: usize,
    /// Bytes of `buf` already handed out as responses.
    consumed: usize,
}

/// One response; `body` borrows the connection's buffer until the next
/// receive.
pub struct Response<'a> {
    pub status: u16,
    pub node: Option<&'a str>,
    pub body: &'a [u8],
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: vec![0; READ_CHUNK],
            filled: 0,
            consumed: 0,
        })
    }

    pub fn send(&mut self, wire: &[u8]) -> io::Result<()> {
        self.stream.write_all(wire)
    }

    /// Reads until `buf[consumed..filled]` holds at least `needed` bytes.
    fn fill(&mut self, needed: usize) -> io::Result<()> {
        while self.filled - self.consumed < needed {
            if self.buf.len() < self.filled + READ_CHUNK {
                self.buf.resize(self.filled + READ_CHUNK, 0);
            }
            let read = self.stream.read(&mut self.buf[self.filled..])?;
            if read == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            self.filled += read;
        }
        Ok(())
    }

    pub fn receive(&mut self) -> io::Result<Response<'_>> {
        // Move leftover bytes (a pipelined response's start) to the front.
        self.buf.copy_within(self.consumed..self.filled, 0);
        self.filled -= self.consumed;
        self.consumed = 0;
        let head_len = loop {
            if let Some(at) = self.buf[..self.filled]
                .windows(4)
                .position(|window| window == b"\r\n\r\n")
            {
                break at + 4;
            }
            if self.filled > 64 * 1024 {
                return Err(invalid("response head exceeds 64 KiB".into()));
            }
            self.fill(self.filled + 1)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| invalid("response head is not UTF-8".into()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line `{status_line}`")))?;
        let mut length = None;
        let mut node = None;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("x-dandelion-node") {
                    // Kept as an offset: reading the body may move `buf`.
                    let value = value.trim();
                    node = Some((
                        value.as_ptr() as usize - head.as_ptr() as usize,
                        value.len(),
                    ));
                }
            }
        }
        let length = length.ok_or_else(|| invalid("response without Content-Length".into()))?;
        self.fill(head_len + length)?;
        self.consumed = head_len + length;
        let node = node.map(|(at, len)| {
            std::str::from_utf8(&self.buf[at..at + len]).expect("a slice of a UTF-8 head")
        });
        Ok(Response {
            status,
            node,
            body: &self.buf[head_len..head_len + length],
        })
    }

    /// Sends one request and waits for its response.
    pub fn round_trip(&mut self, wire: &[u8]) -> io::Result<Response<'_>> {
        self.send(wire)?;
        self.receive()
    }
}
