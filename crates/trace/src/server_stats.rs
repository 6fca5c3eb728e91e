//! Wire-server counters exported through [`MetricsSnapshot`].
//!
//! `ingot-server` charges one [`ServerStats`] per process: connection churn,
//! frame and byte traffic, statements served and error/reap counts. The
//! struct lives here (not in the server crate) so the export surface is the
//! same one the engine's own metrics ride — the server merges these families
//! into `Engine::metrics_snapshot()` output and serves the union.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::metrics::{MetricKind, MetricsSnapshot, Sample};

/// Monotonic counters describing one server process's wire traffic.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected at handshake).
    pub connections_opened: AtomicU64,
    /// Connections fully torn down.
    pub connections_closed: AtomicU64,
    /// Connections force-closed by the reaper because their explicit
    /// transaction sat idle past the idle-in-transaction timeout.
    pub connections_reaped: AtomicU64,
    /// Request frames read.
    pub frames_in: AtomicU64,
    /// Response frames written.
    pub frames_out: AtomicU64,
    /// Request payload bytes read (frame bodies, excluding length prefixes).
    pub bytes_in: AtomicU64,
    /// Response payload bytes written.
    pub bytes_out: AtomicU64,
    /// Statements executed on behalf of wire clients.
    pub statements_served: AtomicU64,
    /// Error responses sent.
    pub errors_sent: AtomicU64,
    /// Heartbeat frames answered.
    pub heartbeats: AtomicU64,
}

impl ServerStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append this struct's families to `snap` (used by the server to merge
    /// wire counters into the engine's own metrics snapshot).
    pub fn contribute(&self, snap: &mut MetricsSnapshot) {
        let c = |v: &AtomicU64| vec![Sample::plain(v.load(Ordering::Relaxed) as f64)];
        snap.push(
            "ingot_server_connections_opened_total",
            "Wire connections accepted by the server.",
            MetricKind::Counter,
            c(&self.connections_opened),
        );
        snap.push(
            "ingot_server_connections_closed_total",
            "Wire connections fully torn down.",
            MetricKind::Counter,
            c(&self.connections_closed),
        );
        snap.push(
            "ingot_server_connections_reaped_total",
            "Wire connections killed, their transaction aborted, after idling in a transaction past the timeout.",
            MetricKind::Counter,
            c(&self.connections_reaped),
        );
        snap.push(
            "ingot_server_frames_in_total",
            "Request frames read from wire clients.",
            MetricKind::Counter,
            c(&self.frames_in),
        );
        snap.push(
            "ingot_server_frames_out_total",
            "Response frames written to wire clients.",
            MetricKind::Counter,
            c(&self.frames_out),
        );
        snap.push(
            "ingot_server_bytes_in_total",
            "Request body bytes read from wire clients.",
            MetricKind::Counter,
            c(&self.bytes_in),
        );
        snap.push(
            "ingot_server_bytes_out_total",
            "Response body bytes written to wire clients.",
            MetricKind::Counter,
            c(&self.bytes_out),
        );
        snap.push(
            "ingot_server_statements_served_total",
            "Statements executed on behalf of wire clients.",
            MetricKind::Counter,
            c(&self.statements_served),
        );
        snap.push(
            "ingot_server_errors_sent_total",
            "Error responses sent to wire clients.",
            MetricKind::Counter,
            c(&self.errors_sent),
        );
        snap.push(
            "ingot_server_heartbeats_total",
            "Heartbeat frames answered.",
            MetricKind::Counter,
            c(&self.heartbeats),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contribute_exports_every_counter() {
        let stats = ServerStats::new();
        stats.frames_in.fetch_add(3, Ordering::Relaxed);
        stats.statements_served.fetch_add(2, Ordering::Relaxed);
        let mut snap = MetricsSnapshot::new();
        stats.contribute(&mut snap);
        assert_eq!(snap.families.len(), 10);
        let text = snap.render_prometheus();
        assert!(text.contains("ingot_server_frames_in_total 3"), "{text}");
        assert!(
            text.contains("ingot_server_statements_served_total 2"),
            "{text}"
        );
    }
}
