#![forbid(unsafe_code)]
//! `ingot-client`: the wire half of the unified [`Connection`] surface.
//!
//! [`ClientConnection`] speaks the `ingot_common::wire` protocol to an
//! `ingot-server` over a Unix or TCP socket and implements the same
//! [`Connection`] / [`PreparedStatement`] traits as the in-process
//! `ingot_core::Session` — shells, examples and bench harnesses written
//! against `&dyn Connection` run unmodified over either transport.
//!
//! Errors round-trip losslessly: a remote `WriteConflict` arrives as
//! [`ingot_common::Error::WriteConflict`] with `is_transient()` intact, so
//! client-side retry loops behave exactly as embedded ones.
//!
//! Liveness needs no help from the client: the server sees a dead process
//! as end-of-stream on its read and a dead TCP host through kernel
//! keepalive, so a `ClientConnection` runs no background thread and a
//! merely idle connection is never reaped. The one server-side timeout is
//! for an explicit transaction left idle too long: it is aborted.
//!
//! [`connect_or_spawn`] adds the auto-spawn convenience: if nothing is
//! accepting on the socket, it launches the `ingot-server` binary and
//! retries with backoff — combined with the server's idle auto-shutdown,
//! the daemon becomes an on-demand resident process.

use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use ingot_common::net::{connect as net_connect, SocketSpec, Stream};
use ingot_common::wire::{self, Request, Response, MAX_FRAME_BYTES, PROTOCOL_VERSION};
use ingot_common::{
    Connection, Error, MonotonicClock, PreparedStatement, Result, StatementResult, Value,
};
use parking_lot::Mutex;

/// A live wire connection to an `ingot-server`.
///
/// Thread-safe: the single underlying stream is serialized by a mutex, so
/// one `ClientConnection` is one server session with one outstanding
/// request at a time (open more connections for parallelism — that is what
/// the fleet bench does).
pub struct ClientConnection {
    stream: Mutex<Stream>,
    closed: AtomicBool,
    session_id: u64,
}

impl ClientConnection {
    /// Connect and handshake with the default client label.
    pub fn connect(spec: &SocketSpec) -> Result<ClientConnection> {
        Self::connect_with_name(spec, "ingot-client")
    }

    /// Connect and handshake, identifying as `name` in `ima$connections`.
    pub fn connect_with_name(spec: &SocketSpec, name: &str) -> Result<ClientConnection> {
        let mut stream = net_connect(spec)?;
        wire::write_request(
            &mut stream,
            &Request::Hello {
                version: PROTOCOL_VERSION,
                client: name.to_string(),
            },
        )?;
        match read_response(&mut stream)? {
            Response::HelloOk { session_id, .. } => Ok(ClientConnection {
                stream: Mutex::new(stream),
                closed: AtomicBool::new(false),
                session_id,
            }),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected hello_ok, got {other:?}"))),
        }
    }

    /// The engine session id serving this connection (joins against
    /// `ima$connections.session` and the ASH tables).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Ping: one round trip through the server's dispatch that never
    /// touches the engine, to check that a server answers. Liveness does
    /// not need it.
    pub fn heartbeat(&self) -> Result<()> {
        match self.roundtrip(&Request::Heartbeat)? {
            Response::Pong => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected pong, got {other:?}"))),
        }
    }

    /// Ask the server process to drain and exit (admin verb). Unix-socket
    /// peers are always honoured; over TCP the server refuses unless it was
    /// started with `--allow-remote-shutdown`, and this connection stays
    /// usable after the refusal.
    pub fn shutdown_server(&self) -> Result<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Goodbye => {
                self.closed.store(true, Ordering::Relaxed);
                Ok(())
            }
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected goodbye, got {other:?}"))),
        }
    }

    /// Orderly close. Dropping the connection does this best-effort.
    pub fn close(self) -> Result<()> {
        self.closed.store(true, Ordering::Relaxed);
        match self.roundtrip(&Request::Close)? {
            Response::Goodbye => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!("expected goodbye, got {other:?}"))),
        }
    }

    /// One request/response exchange; the mutex spans the whole exchange.
    fn roundtrip(&self, req: &Request) -> Result<Response> {
        let mut stream = self.stream.lock();
        wire::write_request(&mut *stream, req)?;
        read_response(&mut stream)
    }

    fn statement(&self, req: &Request) -> Result<StatementResult> {
        match self.roundtrip(req)? {
            Response::Rows(r) => Ok(r),
            Response::Ok => Ok(StatementResult::default()),
            Response::Err(w) => Err(w.into_error()),
            Response::Goodbye => Err(Error::protocol("server is draining")),
            other => Err(Error::protocol(format!("unexpected response {other:?}"))),
        }
    }

    fn unit(&self, req: &Request) -> Result<()> {
        match self.roundtrip(req)? {
            Response::Ok => Ok(()),
            Response::Err(w) => Err(w.into_error()),
            Response::Goodbye => Err(Error::protocol("server is draining")),
            other => Err(Error::protocol(format!("unexpected response {other:?}"))),
        }
    }
}

impl Drop for ClientConnection {
    fn drop(&mut self) {
        // Best-effort orderly close; the server copes with a bare EOF too.
        if !*self.closed.get_mut() {
            let _ = wire::write_request(self.stream.get_mut(), &Request::Close);
        }
    }
}

fn read_response(stream: &mut Stream) -> Result<Response> {
    match wire::read_frame(stream, MAX_FRAME_BYTES)? {
        Some((op, body)) => Response::decode(op, &body),
        None => Err(Error::protocol("server closed the connection")),
    }
}

/// A server-side prepared handle (the statement lives in the server's plan
/// cache; only parameter values cross the wire per execution).
pub struct ClientPrepared<'a> {
    conn: &'a ClientConnection,
    id: u64,
    param_count: usize,
}

impl PreparedStatement for ClientPrepared<'_> {
    fn param_count(&self) -> usize {
        self.param_count
    }

    fn execute(&self, params: &[Value]) -> Result<StatementResult> {
        self.conn.statement(&Request::ExecutePrepared {
            id: self.id,
            params: params.to_vec(),
        })
    }
}

impl Drop for ClientPrepared<'_> {
    fn drop(&mut self) {
        if !self.conn.closed.load(Ordering::Relaxed) {
            let _ = self.conn.roundtrip(&Request::ClosePrepared { id: self.id });
        }
    }
}

impl Connection for ClientConnection {
    fn execute(&self, sql: &str) -> Result<StatementResult> {
        self.statement(&Request::Execute {
            sql: sql.to_string(),
            params: Vec::new(),
        })
    }

    fn query(&self, sql: &str) -> Result<StatementResult> {
        self.statement(&Request::Query {
            sql: sql.to_string(),
        })
    }

    fn prepare(&self, sql: &str) -> Result<Box<dyn PreparedStatement + '_>> {
        match self.roundtrip(&Request::Prepare {
            sql: sql.to_string(),
        })? {
            Response::PreparedOk { id, param_count } => Ok(Box::new(ClientPrepared {
                conn: self,
                id,
                param_count: param_count as usize,
            })),
            Response::Err(w) => Err(w.into_error()),
            other => Err(Error::protocol(format!(
                "expected prepared_ok, got {other:?}"
            ))),
        }
    }

    fn set(&self, name: &str, value: &Value) -> Result<()> {
        self.unit(&Request::Set {
            name: name.to_string(),
            value: value.clone(),
        })
    }

    fn begin(&self) -> Result<()> {
        self.unit(&Request::Begin)
    }

    fn commit(&self) -> Result<()> {
        self.unit(&Request::Commit)
    }

    fn rollback(&self) -> Result<()> {
        self.unit(&Request::Rollback)
    }
}

/// How [`connect_or_spawn`] launches a server when none is listening.
#[derive(Debug, Clone, Default)]
pub struct SpawnOptions {
    /// Server binary. Defaults to `$INGOT_SERVER_BIN`, falling back to
    /// `ingot-server` on `PATH`.
    pub server_bin: Option<std::path::PathBuf>,
    /// `--data DIR` for the spawned server (file-backed storage).
    pub data_dir: Option<std::path::PathBuf>,
    /// `--idle-shutdown-ms` for the spawned server (on-demand daemons
    /// usually want this so an abandoned server exits by itself).
    pub idle_shutdown_ms: Option<u64>,
    /// Extra argv appended verbatim.
    pub extra_args: Vec<String>,
    /// Total connect-retry budget in milliseconds (default 5000).
    pub connect_timeout_ms: Option<u64>,
}

impl SpawnOptions {
    fn bin(&self) -> std::path::PathBuf {
        self.server_bin
            .clone()
            .or_else(|| std::env::var_os("INGOT_SERVER_BIN").map(Into::into))
            .unwrap_or_else(|| "ingot-server".into())
    }
}

/// Connect to `spec`; if nothing is accepting, spawn an `ingot-server`
/// there and retry with backoff until it comes up (or the budget runs out).
///
/// The retry loop also covers the case where a *different* client's freshly
/// spawned server is still starting, so concurrent auto-spawns converge on
/// one server: the losers fail to lock the winner's data directory (or to
/// bind its live socket) and exit. A spawned server that exits while
/// nothing accepts is spawned again — it lost the data directory to a
/// predecessor that was still draining.
pub fn connect_or_spawn(spec: &SocketSpec, opts: &SpawnOptions) -> Result<ClientConnection> {
    match ClientConnection::connect(spec) {
        Ok(c) => return Ok(c),
        Err(Error::Protocol(m)) => return Err(Error::Protocol(m)),
        Err(_) => {}
    }
    let mut cmd = Command::new(opts.bin());
    cmd.arg("--socket")
        .arg(spec.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(dir) = &opts.data_dir {
        cmd.arg("--data").arg(dir);
    }
    if let Some(ms) = opts.idle_shutdown_ms {
        cmd.arg("--idle-shutdown-ms").arg(ms.to_string());
    }
    cmd.args(&opts.extra_args);
    let mut spawn = || {
        cmd.spawn()
            .map_err(|e| Error::daemon(format!("spawning {:?} failed: {e}", opts.bin())))
    };
    let mut child = spawn()?;
    let clock = MonotonicClock::new();
    let budget_ns = opts
        .connect_timeout_ms
        .unwrap_or(5_000)
        .saturating_mul(1_000_000);
    let mut backoff_ms = 5u64;
    let mut last_err = None;
    while clock.now_nanos() < budget_ns {
        match ClientConnection::connect(spec) {
            Ok(c) => return Ok(c),
            Err(Error::Protocol(m)) => return Err(Error::Protocol(m)),
            Err(e) => last_err = Some(e),
        }
        if matches!(child.try_wait(), Ok(Some(_))) {
            child = spawn()?;
        }
        // Waiting out a cold server start; there is no event to block on
        // (the socket file appears whenever the child finishes binding), so
        // a plain backoff sleep is the honest tool here.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(backoff_ms));
        backoff_ms = (backoff_ms * 2).min(200);
    }
    Err(last_err
        .unwrap_or_else(|| Error::daemon(format!("server on {spec} did not come up in time"))))
}
