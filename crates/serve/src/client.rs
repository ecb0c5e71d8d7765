//! A minimal blocking client for the line protocol.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking request/response client: one line out, one line back.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Request/response lines are tiny; don't let Nagle batch them.
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line and reads the one response line (returned
    /// without its trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates socket errors; a connection closed before the response
    /// is [`io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        // One write per request: the line and its newline in one segment.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.write_all(framed.as_bytes())?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}
