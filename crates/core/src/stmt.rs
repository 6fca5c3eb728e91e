//! A statement's identity, derived once and shared by every sink.
//!
//! The paper's sensors are "part of each module" and log what the stages
//! already hold, keyed by one hash of the statement text (§IV-A, Fig 3).
//! [`StmtCtx`] is that key: the plan cache probes with its template, the
//! monitor and tracer record under its hash, and the session's ASH slot
//! publishes it while the statement runs. Nothing on the statement path
//! hashes or normalises the text a second time.

use std::sync::Arc;

use ingot_common::StmtHash;
use ingot_planner::normalize_template;

/// One statement's text, its hash and its plan-cache template. Built once
/// per [`Session::execute`](crate::Session::execute) call and once per
/// [`Session::prepare`](crate::Session::prepare); prepared handles keep it
/// for every execution.
#[derive(Debug)]
pub struct StmtCtx {
    /// The raw statement text (`ima$statements.text`,
    /// `ima$connections.statement`).
    pub text: String,
    /// FNV-1a of the raw text: the key of every monitoring record.
    pub hash: StmtHash,
    /// Whitespace-normalised text: the plan-cache key and the ASH template.
    pub template: String,
}

impl StmtCtx {
    /// Derive the identity of `text`.
    pub fn new(text: &str) -> Arc<StmtCtx> {
        Arc::new(StmtCtx {
            text: text.to_owned(),
            hash: StmtHash::of(text),
            template: normalize_template(text),
        })
    }
}
