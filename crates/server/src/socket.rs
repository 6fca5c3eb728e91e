//! Server-side transport: listeners plus bind-race-safe stale-socket
//! recovery. The connected-stream types live in [`ingot_common::net`]
//! (shared with `ingot-client`).

use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;

use ingot_common::net::connect as probe_connect;
use ingot_common::{Error, Result};

pub use ingot_common::net::{SocketSpec, Stream};

/// TCP keepalive on accepted streams: first probe after 2 s of silence,
/// then one per second, and the connection fails after 3 misses — a dead
/// peer host is dropped about 5 s after its last traffic. (A dead peer
/// *process* needs none of this: its kernel closes the socket and the
/// handler reads end-of-stream.)
const KEEPALIVE_IDLE_S: i32 = 2;
const KEEPALIVE_INTERVAL_S: i32 = 1;
const KEEPALIVE_COUNT: i32 = 3;

/// A bound listener over either transport.
pub enum Listener {
    /// Unix-domain listener; the path is kept for unlink-on-close.
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl Listener {
    /// Accept one connection; `Ok(None)` when nonblocking and nothing is
    /// pending. Returns the stream plus a peer label for `ima$connections`.
    pub fn accept(&self) -> Result<Option<(Stream, String)>> {
        match self {
            Listener::Unix(l, _) => match l.accept() {
                Ok((s, _)) => Ok(Some((Stream::Unix(s), "unix".to_string()))),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.into()),
            },
            Listener::Tcp(l) => match l.accept() {
                Ok((s, peer)) => {
                    s.set_nodelay(true).ok();
                    #[cfg(target_os = "linux")]
                    crate::ffi::tcp_keepalive(
                        std::os::fd::AsRawFd::as_raw_fd(&s),
                        KEEPALIVE_IDLE_S,
                        KEEPALIVE_INTERVAL_S,
                        KEEPALIVE_COUNT,
                    )
                    .ok();
                    Ok(Some((Stream::Tcp(s), peer.to_string())))
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.into()),
            },
        }
    }

    /// The spec actually bound — resolves a `tcp:…:0` request to the
    /// kernel-assigned port, so tests and spawners can connect back.
    pub fn local_spec(&self) -> SocketSpec {
        match self {
            Listener::Unix(_, path) => SocketSpec::Unix(path.clone()),
            Listener::Tcp(l) => match l.local_addr() {
                Ok(addr) => SocketSpec::Tcp(addr.to_string()),
                Err(_) => SocketSpec::Tcp(String::new()),
            },
        }
    }

    /// Switch the listener to nonblocking accepts.
    pub fn set_nonblocking(&self) -> Result<()> {
        match self {
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
            Listener::Tcp(l) => l.set_nonblocking(true)?,
        }
        Ok(())
    }

    /// Stop listening; unlinks a Unix socket path.
    pub fn close(&self) {
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bind `spec`, recovering a *stale* Unix socket file (a previous server
/// died without unlinking) without racing a *live* server.
///
/// The order matters: probe first, then unlink, then bind — and on a
/// post-unlink `AddrInUse`, probe again instead of unlinking again. Two
/// servers started concurrently thus converge on exactly one bound listener
/// and one already-running error; an unconditional unlink could instead
/// delete the *winner's* freshly bound socket.
pub fn bind(spec: &SocketSpec) -> Result<Listener> {
    match spec {
        SocketSpec::Tcp(addr) => {
            let l = TcpListener::bind(addr.as_str()).map_err(|e| {
                if e.kind() == std::io::ErrorKind::AddrInUse {
                    Error::daemon(format!("another server is live on tcp:{addr}"))
                } else {
                    e.into()
                }
            })?;
            Ok(Listener::Tcp(l))
        }
        SocketSpec::Unix(path) => {
            match UnixListener::bind(path) {
                Ok(l) => return Ok(Listener::Unix(l, path.clone())),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {}
                Err(e) => return Err(e.into()),
            }
            // The path exists. Live server or stale file? Connect-probe.
            if probe_connect(spec).is_ok() {
                return Err(Error::daemon(format!(
                    "another server is live on unix:{}",
                    path.display()
                )));
            }
            // Refused/errored: stale. Unlink and take one more bind attempt;
            // a concurrent starter may win the race, in which case the
            // re-probe classifies it as live.
            let _ = std::fs::remove_file(path);
            match UnixListener::bind(path) {
                Ok(l) => Ok(Listener::Unix(l, path.clone())),
                Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                    if probe_connect(spec).is_ok() {
                        Err(Error::daemon(format!(
                            "another server is live on unix:{}",
                            path.display()
                        )))
                    } else {
                        Err(Error::Io(format!(
                            "socket {} stays bound but unconnectable",
                            path.display()
                        )))
                    }
                }
                Err(e) => Err(e.into()),
            }
        }
    }
}

/// Probe whether a server is accepting on `spec` without handshaking.
pub fn probe(spec: &SocketSpec) -> bool {
    probe_connect(spec).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_socket_is_recovered_live_socket_is_not() {
        let dir = std::env::temp_dir().join(format!("ingot-sock-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("srv.sock");
        let spec = SocketSpec::Unix(path.clone());
        // Fake a stale socket: bind then drop the listener without unlink.
        let stale = UnixListener::bind(&path).unwrap();
        drop(stale);
        assert!(path.exists(), "dropping a listener leaves the file behind");
        // Recovery: probe finds nobody home, unlink + rebind succeeds.
        let live = bind(&spec).expect("stale socket must be recovered");
        // A second bind while the first is live must refuse, not steal.
        let err = match bind(&spec) {
            Ok(_) => panic!("live socket must not be stolen"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("live"), "{err}");
        live.close();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
