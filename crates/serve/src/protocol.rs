//! The newline-delimited JSON request protocol.
//!
//! Every client line is one JSON object carrying a `cmd` tag; every
//! daemon reply is one JSON object per line. Most commands get exactly
//! one reply line; `watch` streams — the job's event backlog, then live
//! [`CampaignEvent`](advm::campaign::CampaignEvent) lines as they
//! happen, terminated by one `"done":true` line carrying the job's
//! final report:
//!
//! ```text
//! → {"cmd":"submit","job":{"kind":"regress","dir":"envs","env":"PAGE",...}}
//! ← {"ok":true,"job":3}
//! → {"cmd":"watch","job":3}
//! ← {"job":3,"seq":0,"event":{"type":"started","jobs":12,...}}
//! ← {"job":3,"seq":1,"event":{"type":"job_started",...}}
//! ← ...
//! ← {"job":3,"done":true,"ok":true,"report":{...,"perf":{...,"artifact_hits":5}}}
//! ```

use advm::wire::{json_string, JsonValue, WireError};

use crate::job::JobSpec;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Enqueue a job; replies with its id.
    Submit(JobSpec),
    /// One-line daemon summary: job counts, worker count, artifact
    /// store counters.
    Status,
    /// One line per known job: id, kind, state.
    List,
    /// Stream a job's events (backlog + live) until it finishes.
    Watch {
        /// The job to follow.
        job: u64,
    },
    /// Cancel a queued job (running jobs complete).
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Drain the queue and stop the daemon.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    pub fn from_json(text: &str) -> Result<Self, WireError> {
        let value = JsonValue::parse(text)?;
        match value.str_field("cmd")? {
            "submit" => {
                let job = value
                    .get("job")
                    .ok_or_else(|| WireError::shape("submit needs a `job` object"))?;
                Ok(Request::Submit(JobSpec::from_value(job)?))
            }
            "status" => Ok(Request::Status),
            "list" => Ok(Request::List),
            "watch" => Ok(Request::Watch {
                job: value.u64_field("job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: value.u64_field("job")?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::shape(format!("unknown command `{other}`"))),
        }
    }

    /// Renders the request as one wire line (client side).
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit(spec) => format!("{{\"cmd\":\"submit\",\"job\":{}}}", spec.to_json()),
            Request::Status => "{\"cmd\":\"status\"}".to_owned(),
            Request::List => "{\"cmd\":\"list\"}".to_owned(),
            Request::Watch { job } => format!("{{\"cmd\":\"watch\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"cmd\":\"cancel\",\"job\":{job}}}"),
            Request::Shutdown => "{\"cmd\":\"shutdown\"}".to_owned(),
        }
    }
}

/// Renders the one-line error reply for a malformed request.
pub(crate) fn error_line(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_string(message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use advm_soc::PlatformId;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Submit(JobSpec::Regress {
                dir: "envs".into(),
                env: "PAGE".into(),
                platforms: vec![PlatformId::RtlSim],
                all_platforms: false,
                workers: None,
                fuel: Some(500),
            }),
            Request::Status,
            Request::List,
            Request::Watch { job: 7 },
            Request::Cancel { job: 0 },
            Request::Shutdown,
        ];
        for request in requests {
            let json = request.to_json();
            assert_eq!(Request::from_json(&json).unwrap(), request, "{json}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"cmd":"frob"}"#,
            r#"{"cmd":"watch"}"#,
            r#"{"cmd":"submit"}"#,
        ] {
            assert!(Request::from_json(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn error_lines_are_json() {
        let line = error_line("boom \"quoted\"");
        let value = JsonValue::parse(&line).unwrap();
        assert!(!value.bool_field("ok").unwrap());
        assert_eq!(value.str_field("error").unwrap(), "boom \"quoted\"");
    }
}
