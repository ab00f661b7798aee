//! Socket-level plumbing for the multi-process distributed engine: a
//! length-prefixed frame layer over the canonical text codec, address and
//! network-description parsing, and a thin [`Conn`]/[`Listener`] facade
//! that lets the supervision layer treat TCP and Unix-domain sockets
//! uniformly.
//!
//! # Framing format
//!
//! A stream carries a sequence of frames. Each frame is:
//!
//! ```text
//! +----------------+---------------------+
//! | len: u32 (BE)  | payload: len bytes  |
//! +----------------+---------------------+
//! ```
//!
//! The payload is the UTF-8 encoding of exactly one [`codec`](crate::codec)
//! text frame (e.g. `data;seq=17;from=a3;edge=e2`). The length prefix is
//! big-endian and bounded by [`MAX_FRAME_LEN`]; a peer announcing a larger
//! frame is treated as mangled and the connection dropped. TCP offers no
//! message boundaries, so [`FrameDecoder`] reassembles frames from
//! arbitrarily split or coalesced reads; a torn write (the peer died
//! mid-frame) leaves a partial frame in the buffer which [`FrameDecoder::
//! finish`] reports as a typed [`FrameError::Truncated`] — the supervision
//! layer absorbs it exactly like a codec-corruption drop.
//!
//! # Network descriptions
//!
//! A run is described by a small line-oriented text file mapping each
//! principal to a listen address plus one supervisor address:
//!
//! ```text
//! supervisor=tcp:127.0.0.1:41000
//! node=a0:tcp:127.0.0.1:41001
//! node=a1:tcp:127.0.0.1:41002
//! node=a2:unix:/tmp/run7/a2.sock
//! config=attempts=6;ack=2;backoff=32;rounds=10000
//! ```
//!
//! `config=` (optional) carries a [`SuperviseConfig`](crate::SuperviseConfig)
//! wire string applied by every process that loads the file, so one
//! artifact pins the whole deployment's protocol parameters.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use trustseq_model::AgentId;

/// Upper bound on a single frame's payload, in bytes. Generously above any
/// frame the codec can produce (a `syncresp` over tens of thousands of
/// edges is still well under 1 MiB) while keeping a mangled length prefix
/// from provoking a giant allocation.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Number of bytes in the length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Typed failure of the framing layer. Every variant is a protocol-level
/// problem with the *stream*; none of them panic and none of them are
/// recoverable on the same connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announced a payload larger than the decoder's
    /// cap ([`MAX_FRAME_LEN`] by default, lower via
    /// [`FrameDecoder::with_max_frame`]). Raised *before* any allocation
    /// is attempted, so a malicious or corrupt prefix cannot provoke a
    /// multi-gigabyte `Vec` — the connection is simply dropped.
    TooLarge {
        /// The announced payload length.
        announced: usize,
        /// The cap the decoder enforces.
        limit: usize,
    },
    /// The payload was not valid UTF-8.
    Utf8 {
        /// The announced payload length, for diagnostics.
        len: usize,
    },
    /// The stream ended inside a frame (torn write / dead peer).
    Truncated {
        /// Bytes of the frame that did arrive.
        got: usize,
        /// Bytes the frame still needed (header bytes count too).
        missing: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { announced, limit } => write!(
                f,
                "frame announces {announced} bytes, more than the {limit}-byte limit"
            ),
            FrameError::Utf8 { len } => {
                write!(f, "frame payload ({len} bytes) is not valid UTF-8")
            }
            FrameError::Truncated { got, missing } => write!(
                f,
                "stream ended mid-frame: got {got} bytes, {missing} more expected"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one text frame into its length-prefixed byte representation.
///
/// ```
/// use trustseq_dist::net::{encode_frame, FrameDecoder};
/// let bytes = encode_frame("ack;seq=7").unwrap();
/// let mut dec = FrameDecoder::new();
/// dec.push(&bytes);
/// assert_eq!(dec.next_frame().unwrap(), Some("ack;seq=7".to_string()));
/// assert_eq!(dec.next_frame().unwrap(), None);
/// ```
pub fn encode_frame(frame: &str) -> Result<Vec<u8>, FrameError> {
    let payload = frame.as_bytes();
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            announced: payload.len(),
            limit: MAX_FRAME_LEN,
        });
    }
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Appends one length-prefixed frame to `out` whose payload `payload`
/// writes in place, behind a length header patched in afterwards: no
/// intermediate string, no second copy. A payload over [`MAX_FRAME_LEN`]
/// is taken back out and reported as [`FrameError::TooLarge`].
///
/// ```
/// use trustseq_dist::net::{encode_frame, write_frame};
/// let mut out = Vec::new();
/// write_frame(&mut out, |out| out.extend_from_slice(b"ack;seq=7")).unwrap();
/// assert_eq!(out, encode_frame("ack;seq=7").unwrap());
/// ```
pub fn write_frame(
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Result<(), FrameError> {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    payload(out);
    let len = out.len() - start - FRAME_HEADER_LEN;
    if len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(FrameError::TooLarge {
            announced: len,
            limit: MAX_FRAME_LEN,
        });
    }
    out[start..start + FRAME_HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(())
}

/// Incremental frame reassembler. Feed it whatever byte chunks the socket
/// hands you ([`push`](Self::push)), drain complete frames with
/// [`next_frame`](Self::next_frame), and call [`finish`](Self::finish) at
/// EOF to learn whether the stream ended cleanly on a frame boundary.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames; compacted lazily
    /// so repeated small pushes don't memmove on every frame.
    consumed: usize,
    /// Hard cap on a single frame's announced payload length. A prefix
    /// above this is a typed [`FrameError::TooLarge`], checked before any
    /// buffering decision so corrupt or adversarial prefixes never drive
    /// an allocation.
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Creates an empty decoder with the default [`MAX_FRAME_LEN`] cap.
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_LEN)
    }

    /// Creates an empty decoder with a custom frame cap. Servers that only
    /// expect small request frames set this far below [`MAX_FRAME_LEN`] so
    /// a hostile client cannot make them buffer megabytes per connection.
    /// Caps above [`MAX_FRAME_LEN`] are clamped to it — the wire format's
    /// own bound is absolute.
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            consumed: 0,
            max_frame: max_frame.min(MAX_FRAME_LEN),
        }
    }

    /// The announced-payload cap this decoder enforces.
    pub fn max_frame(&self) -> usize {
        self.max_frame
    }

    /// Appends raw bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing if more than half the buffer is dead.
        if self.consumed > 0 && self.consumed * 2 >= self.buf.len() {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Returns the next complete frame, `Ok(None)` if more bytes are
    /// needed, or a typed error if the stream is mangled (oversized
    /// announcement or non-UTF-8 payload). After an error the decoder is
    /// poisoned in practice — the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        Ok(self.next_frame_str()?.map(str::to_owned))
    }

    /// [`next_frame`](Self::next_frame) without the copy: the frame is
    /// lent straight out of the decoder's buffer until the next call.
    pub fn next_frame_str(&mut self) -> Result<Option<&str>, FrameError> {
        let FrameDecoder {
            buf,
            consumed,
            max_frame,
        } = self;
        let pending = &buf[*consumed..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let announced = u32::from_be_bytes([pending[0], pending[1], pending[2], pending[3]]);
        let announced = announced as usize;
        if announced > *max_frame {
            return Err(FrameError::TooLarge {
                announced,
                limit: *max_frame,
            });
        }
        if pending.len() < FRAME_HEADER_LEN + announced {
            return Ok(None);
        }
        let payload = &pending[FRAME_HEADER_LEN..FRAME_HEADER_LEN + announced];
        let frame =
            std::str::from_utf8(payload).map_err(|_| FrameError::Utf8 { len: announced })?;
        *consumed += FRAME_HEADER_LEN + announced;
        Ok(Some(frame))
    }

    /// Call at EOF: `Ok(())` if the stream ended exactly on a frame
    /// boundary, [`FrameError::Truncated`] if a partial frame was pending
    /// (torn write).
    pub fn finish(&self) -> Result<(), FrameError> {
        let pending = self.buf.len() - self.consumed;
        if pending == 0 {
            return Ok(());
        }
        let missing = if pending < FRAME_HEADER_LEN {
            FRAME_HEADER_LEN - pending
        } else {
            let announced = u32::from_be_bytes([
                self.buf[self.consumed],
                self.buf[self.consumed + 1],
                self.buf[self.consumed + 2],
                self.buf[self.consumed + 3],
            ]) as usize;
            (FRAME_HEADER_LEN + announced).saturating_sub(pending)
        };
        Err(FrameError::Truncated {
            got: pending,
            missing,
        })
    }

    /// Bytes currently buffered but not yet returned as frames.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

/// A listen/connect address: TCP (`tcp:host:port`) or a Unix-domain socket
/// path (`unix:/path/to.sock`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Addr {
    /// TCP endpoint, `host:port` as accepted by [`ToSocketAddrs`].
    Tcp(String),
    /// Unix-domain socket path. Only connectable on Unix platforms.
    Unix(PathBuf),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Tcp(hostport) => write!(f, "tcp:{hostport}"),
            Addr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

impl std::str::FromStr for Addr {
    type Err = NetParseError;

    fn from_str(s: &str) -> Result<Self, NetParseError> {
        if let Some(hostport) = s.strip_prefix("tcp:") {
            if hostport.is_empty() {
                return Err(NetParseError::BadAddr(s.to_string()));
            }
            Ok(Addr::Tcp(hostport.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(NetParseError::BadAddr(s.to_string()));
            }
            Ok(Addr::Unix(PathBuf::from(path)))
        } else {
            Err(NetParseError::BadAddr(s.to_string()))
        }
    }
}

/// Typed failure while parsing an [`Addr`] or [`NetworkDescription`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetParseError {
    /// An address was not `tcp:<host:port>` or `unix:<path>`.
    BadAddr(String),
    /// A line was not `supervisor=`, `node=` or `config=`.
    BadLine(String),
    /// A `node=` entry did not start with `a<index>:`.
    BadAgent(String),
    /// The same agent was given two addresses.
    DuplicateNode(AgentId),
    /// The description had no `supervisor=` line.
    MissingSupervisor,
    /// The description had no `node=` lines.
    NoNodes,
}

impl fmt::Display for NetParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetParseError::BadAddr(s) => {
                write!(
                    f,
                    "bad address {s:?}: expected tcp:<host:port> or unix:<path>"
                )
            }
            NetParseError::BadLine(s) => write!(
                f,
                "bad network-description line {s:?}: expected supervisor=, node= or config="
            ),
            NetParseError::BadAgent(s) => {
                write!(f, "bad node entry {s:?}: expected a<index>:<addr>")
            }
            NetParseError::DuplicateNode(a) => write!(f, "node {a} listed twice"),
            NetParseError::MissingSupervisor => write!(f, "no supervisor= line"),
            NetParseError::NoNodes => write!(f, "no node= lines"),
        }
    }
}

impl std::error::Error for NetParseError {}

/// Where every process in a multi-process run lives: one supervisor
/// address, one listen address per principal, and an optional shared
/// supervision-config wire string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkDescription {
    /// The orchestrating parent's control-plane listen address.
    pub supervisor: Addr,
    /// Each principal's peer-traffic listen address.
    pub nodes: BTreeMap<AgentId, Addr>,
    /// Optional [`SuperviseConfig`](crate::supervise::SuperviseConfig)
    /// wire string shared by every process loading this description.
    pub config: Option<String>,
}

impl NetworkDescription {
    /// Parses the line-oriented text format (see module docs). Blank lines
    /// and `#` comments are ignored.
    pub fn from_text(text: &str) -> Result<Self, NetParseError> {
        let mut supervisor = None;
        let mut nodes = BTreeMap::new();
        let mut config = None;
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(addr) = line.strip_prefix("supervisor=") {
                supervisor = Some(addr.parse()?);
            } else if let Some(entry) = line.strip_prefix("node=") {
                let (agent, addr) = entry
                    .split_once(':')
                    .ok_or_else(|| NetParseError::BadAgent(entry.to_string()))?;
                let index: u32 = agent
                    .strip_prefix('a')
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| NetParseError::BadAgent(entry.to_string()))?;
                let agent = AgentId::new(index);
                if nodes.insert(agent, addr.parse()?).is_some() {
                    return Err(NetParseError::DuplicateNode(agent));
                }
            } else if let Some(cfg) = line.strip_prefix("config=") {
                config = Some(cfg.to_string());
            } else {
                return Err(NetParseError::BadLine(line.to_string()));
            }
        }
        let supervisor = supervisor.ok_or(NetParseError::MissingSupervisor)?;
        if nodes.is_empty() {
            return Err(NetParseError::NoNodes);
        }
        Ok(NetworkDescription {
            supervisor,
            nodes,
            config,
        })
    }

    /// Renders the canonical text form — `from_text(x.to_text())` is
    /// identity.
    pub fn to_text(&self) -> String {
        let mut out = format!("supervisor={}\n", self.supervisor);
        for (agent, addr) in &self.nodes {
            out.push_str(&format!("node={agent}:{addr}\n"));
        }
        if let Some(cfg) = &self.config {
            out.push_str(&format!("config={cfg}\n"));
        }
        out
    }

    /// The address a given principal listens on.
    pub fn addr_of(&self, agent: AgentId) -> Option<&Addr> {
        self.nodes.get(&agent)
    }
}

/// A connected stream over either socket family. Implements [`Read`] and
/// [`Write`]; the supervision layer never needs to know which family it
/// got.
#[derive(Debug)]
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Connects to `addr` within `timeout`. TCP honours the timeout via
    /// `connect_timeout`; Unix-domain connects are local and effectively
    /// instant, so the timeout only bounds address resolution there.
    pub fn connect(addr: &Addr, timeout: Duration) -> io::Result<Conn> {
        match addr {
            Addr::Tcp(hostport) => {
                let resolved: Vec<SocketAddr> = hostport.to_socket_addrs()?.collect();
                let first = resolved.first().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::AddrNotAvailable,
                        format!("{hostport} resolved to no addresses"),
                    )
                })?;
                let stream = TcpStream::connect_timeout(first, timeout)?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Addr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Bounds how long a single `read` may block (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds how long a single `write` may block (`None` = forever).
    pub fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Clones the underlying socket handle (shared file description), so
    /// one thread can read while another writes.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }

    /// Shuts down both directions; subsequent reads see EOF.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A listening socket over either family. Used in non-blocking mode by the
/// node runtime's accept loop so it can poll a stop flag between accepts.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`. For Unix sockets a stale socket file from a crashed
    /// previous run is removed first (the orchestrator namespaces paths per
    /// run, so this never races a live listener).
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(hostport) => TcpListener::bind(hostport.as_str()).map(Listener::Tcp),
            #[cfg(unix)]
            Addr::Unix(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                UnixListener::bind(path).map(Listener::Unix)
            }
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Switches the listener to non-blocking accepts.
    pub fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// The address this listener is actually bound to. For TCP this
    /// resolves port 0 to the kernel-assigned port, which is how the
    /// in-process service tests and `loadgen`'s in-process server discover
    /// where to connect.
    pub fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => {
                let addr = l.local_addr()?;
                Ok(Addr::Tcp(addr.to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::AddrNotAvailable, "unnamed unix socket")
                })?;
                Ok(Addr::Unix(path.to_path_buf()))
            }
        }
    }

    /// Accepts one pending connection. In non-blocking mode an empty queue
    /// surfaces as `ErrorKind::WouldBlock`.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

/// Picks `n` distinct free loopback TCP ports by binding port 0, reading
/// the assigned port, and dropping the listener. Best-effort: another
/// process could steal a port between probe and use, which the caller's
/// reconnect/backoff machinery absorbs.
pub fn free_loopback_ports(n: usize) -> io::Result<Vec<u16>> {
    // Hold all listeners until every port is probed so we never hand the
    // same port out twice.
    let mut listeners = Vec::with_capacity(n);
    let mut ports = Vec::with_capacity(n);
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        ports.push(l.local_addr()?.port());
        listeners.push(l);
    }
    Ok(ports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_survive_byte_at_a_time_reads() {
        let frames = ["ack;seq=7", "", "data;seq=17;from=a3;edge=e2"];
        let mut wire = Vec::new();
        for f in frames {
            wire.extend_from_slice(&encode_frame(f).unwrap());
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for byte in wire {
            dec.push(&[byte]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, frames);
        dec.finish().unwrap();
    }

    #[test]
    fn coalesced_frames_all_drain() {
        let mut wire = Vec::new();
        for i in 0..50u64 {
            wire.extend_from_slice(&encode_frame(&format!("ack;seq={i}")).unwrap());
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let mut n = 0;
        while let Some(frame) = dec.next_frame().unwrap() {
            assert_eq!(frame, format!("ack;seq={n}"));
            n += 1;
        }
        assert_eq!(n, 50);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn lent_frames_match_owned_ones() {
        let mut wire = Vec::new();
        for i in 0..5u64 {
            write_frame(&mut wire, |out| {
                out.extend_from_slice(format!("ack;seq={i}").as_bytes())
            })
            .unwrap();
        }
        let (mut owned, mut lent) = (FrameDecoder::new(), FrameDecoder::new());
        owned.push(&wire);
        lent.push(&wire);
        while let Some(frame) = owned.next_frame().unwrap() {
            assert_eq!(lent.next_frame_str().unwrap(), Some(frame.as_str()));
        }
        assert_eq!(lent.next_frame_str().unwrap(), None);
        assert_eq!(lent.pending_bytes(), 0);
    }

    #[test]
    fn an_oversized_written_frame_is_taken_back_out() {
        let mut out = encode_frame("ack;seq=1").unwrap();
        let err = write_frame(&mut out, |out| {
            out.resize(out.len() + MAX_FRAME_LEN + 1, b'x')
        });
        assert_eq!(
            err,
            Err(FrameError::TooLarge {
                announced: MAX_FRAME_LEN + 1,
                limit: MAX_FRAME_LEN
            })
        );
        assert_eq!(out, encode_frame("ack;seq=1").unwrap());
    }

    #[test]
    fn torn_write_is_a_typed_truncation() {
        let wire = encode_frame("syncreq;from=a5").unwrap();
        for cut in 1..wire.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&wire[..cut]);
            assert_eq!(dec.next_frame().unwrap(), None, "cut={cut}");
            let err = dec.finish().unwrap_err();
            match err {
                FrameError::Truncated { got, missing } => {
                    assert_eq!(got, cut);
                    if cut < FRAME_HEADER_LEN {
                        // Inside the header the full frame size is unknown;
                        // the decoder reports the bytes to finish the header.
                        assert_eq!(missing, FRAME_HEADER_LEN - cut);
                    } else {
                        assert_eq!(got + missing, wire.len());
                    }
                }
                other => panic!("expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_announcement_is_rejected_without_allocating() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_be_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::TooLarge { announced, limit })
                if announced == u32::MAX as usize && limit == MAX_FRAME_LEN
        ));
    }

    #[test]
    fn adversarial_prefix_hits_custom_cap_before_buffering() {
        // A server expecting small request frames caps the decoder far
        // below the wire maximum; a length prefix just over that cap is a
        // typed error even though it is a legal announcement elsewhere.
        let mut dec = FrameDecoder::with_max_frame(4096);
        assert_eq!(dec.max_frame(), 4096);
        dec.push(&4097u32.to_be_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge {
                announced: 4097,
                limit: 4096
            })
        );

        // Frames at exactly the cap still pass.
        let payload = "x".repeat(4096);
        let mut dec = FrameDecoder::with_max_frame(4096);
        dec.push(&encode_frame(&payload).unwrap());
        assert_eq!(dec.next_frame().unwrap(), Some(payload));

        // Caps cannot exceed the wire format's absolute bound.
        assert_eq!(
            FrameDecoder::with_max_frame(usize::MAX).max_frame(),
            MAX_FRAME_LEN
        );
    }

    #[test]
    fn listener_local_addr_resolves_assigned_port() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        match listener.local_addr().unwrap() {
            Addr::Tcp(hostport) => {
                let port: u16 = hostport.rsplit(':').next().unwrap().parse().unwrap();
                assert_ne!(port, 0);
            }
            #[cfg(unix)]
            other => panic!("expected tcp addr, got {other}"),
        }
    }

    #[test]
    fn non_utf8_payload_is_rejected() {
        let mut dec = FrameDecoder::new();
        dec.push(&2u32.to_be_bytes());
        dec.push(&[0xff, 0xfe]);
        assert_eq!(dec.next_frame(), Err(FrameError::Utf8 { len: 2 }));
    }

    #[test]
    fn addr_parse_round_trips() {
        for s in ["tcp:127.0.0.1:41000", "unix:/tmp/run/a0.sock"] {
            let addr: Addr = s.parse().unwrap();
            assert_eq!(addr.to_string(), s);
        }
        assert!("tcp:".parse::<Addr>().is_err());
        assert!("udp:127.0.0.1:1".parse::<Addr>().is_err());
        assert!("127.0.0.1:1".parse::<Addr>().is_err());
    }

    #[test]
    fn network_description_round_trips() {
        let text = "supervisor=tcp:127.0.0.1:41000\n\
                    node=a0:tcp:127.0.0.1:41001\n\
                    node=a1:unix:/tmp/run/a1.sock\n\
                    config=attempts=6;ack=2;backoff=32;rounds=10000\n";
        let desc = NetworkDescription::from_text(text).unwrap();
        assert_eq!(desc.nodes.len(), 2);
        assert_eq!(desc.to_text(), text);
        assert_eq!(
            NetworkDescription::from_text(&desc.to_text()).unwrap(),
            desc
        );
    }

    #[test]
    fn network_description_rejects_malformed_input() {
        assert_eq!(
            NetworkDescription::from_text("node=a0:tcp:h:1"),
            Err(NetParseError::MissingSupervisor)
        );
        assert_eq!(
            NetworkDescription::from_text("supervisor=tcp:h:1"),
            Err(NetParseError::NoNodes)
        );
        assert_eq!(
            NetworkDescription::from_text("supervisor=tcp:h:1\nnode=b0:tcp:h:2"),
            Err(NetParseError::BadAgent("b0:tcp:h:2".to_string()))
        );
        assert_eq!(
            NetworkDescription::from_text("supervisor=tcp:h:1\nnode=a0:tcp:h:2\nnode=a0:tcp:h:3"),
            Err(NetParseError::DuplicateNode(AgentId::new(0)))
        );
        assert!(matches!(
            NetworkDescription::from_text("supervisor=tcp:h:1\nwhat is this"),
            Err(NetParseError::BadLine(_))
        ));
    }

    #[test]
    fn tcp_conn_round_trips_frames() {
        let listener = Listener::bind(&Addr::Tcp("127.0.0.1:0".into())).unwrap();
        let port = match &listener {
            Listener::Tcp(l) => l.local_addr().unwrap().port(),
            #[cfg(unix)]
            _ => unreachable!(),
        };
        let addr = Addr::Tcp(format!("127.0.0.1:{port}"));
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 256];
            loop {
                let n = conn.read(&mut buf).unwrap();
                if n == 0 {
                    dec.finish().unwrap();
                    return Vec::<String>::new();
                }
                dec.push(&buf[..n]);
                let mut got = Vec::new();
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
                if !got.is_empty() {
                    return got;
                }
            }
        });
        let mut conn = Conn::connect(&addr, Duration::from_secs(2)).unwrap();
        conn.write_all(&encode_frame("hello;from=a1").unwrap())
            .unwrap();
        conn.flush().unwrap();
        let got = handle.join().unwrap();
        assert_eq!(got, vec!["hello;from=a1".to_string()]);
    }

    #[cfg(unix)]
    #[test]
    fn unix_conn_round_trips_frames() {
        let dir = std::env::temp_dir().join(format!("trustseq-net-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let addr = Addr::Unix(path.clone());
        let listener = Listener::bind(&addr).unwrap();
        let handle = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 64];
            loop {
                let n = conn.read(&mut buf).unwrap();
                assert_ne!(n, 0);
                dec.push(&buf[..n]);
                if let Some(f) = dec.next_frame().unwrap() {
                    return f;
                }
            }
        });
        let mut conn = Conn::connect(&addr, Duration::from_secs(2)).unwrap();
        conn.write_all(&encode_frame("ping;tick=3").unwrap())
            .unwrap();
        let got = handle.join().unwrap();
        assert_eq!(got, "ping;tick=3");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn free_ports_are_distinct() {
        let ports = free_loopback_ports(4).unwrap();
        let set: std::collections::BTreeSet<_> = ports.iter().collect();
        assert_eq!(set.len(), 4);
    }
}
