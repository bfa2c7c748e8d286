//! Error types for the network substrate.

use std::error::Error;
use std::fmt;

use escudo_core::ConfigError;

/// Errors produced by the in-memory network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A URL could not be parsed.
    InvalidUrl(String),
    /// A cookie string (`Set-Cookie` or `Cookie`) could not be parsed.
    InvalidCookie(String),
    /// No server is registered for the requested host.
    HostUnreachable(String),
    /// The origin's handler panicked while serving this request; the panic is
    /// contained to this request's slot and the rest of the batch is
    /// unaffected.
    FetchPanicked(String),
    /// An HTTP method string was not recognized.
    InvalidMethod(String),
    /// An ESCUDO configuration carried in headers was malformed.
    Config(ConfigError),
    /// The dispatch timed out (today always by an injected
    /// [`FaultSchedule::Timeout`-class](crate::fault::FaultSchedule) fault).
    /// Carries the origin and how long the attempt had been running.
    Timeout {
        /// The origin whose dispatch timed out.
        origin: String,
        /// Elapsed service time when the timeout fired, in nanoseconds.
        elapsed_ns: u64,
    },
    /// The per-origin circuit breaker refused the dispatch outright — the
    /// origin failed too many times in a row and is cooling off. Nothing was
    /// put on the wire.
    CircuitOpen {
        /// The origin whose breaker is open.
        origin: String,
        /// Remaining cooldown before a half-open probe is admitted, in
        /// nanoseconds on the fabric clock (0 when a probe is already in
        /// flight).
        cooldown_ns: u64,
    },
}

impl NetError {
    /// `true` for failures worth retrying: injected timeouts and contained
    /// handler panics. A missing server is permanent and an open breaker is
    /// the *decision* not to retry, so neither is transient.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Timeout { .. } | NetError::FetchPanicked(_))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidUrl(s) => write!(f, "invalid url `{s}`"),
            NetError::InvalidCookie(s) => write!(f, "invalid cookie `{s}`"),
            NetError::HostUnreachable(host) => write!(f, "no server registered for `{host}`"),
            NetError::FetchPanicked(what) => write!(f, "origin handler panicked: {what}"),
            NetError::InvalidMethod(m) => write!(f, "invalid http method `{m}`"),
            NetError::Config(e) => write!(f, "configuration error: {e}"),
            NetError::Timeout { origin, elapsed_ns } => {
                write!(f, "request to `{origin}` timed out after {elapsed_ns}ns")
            }
            NetError::CircuitOpen {
                origin,
                cooldown_ns,
            } => {
                write!(
                    f,
                    "circuit breaker open for `{origin}` ({cooldown_ns}ns of cooldown remaining)"
                )
            }
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for NetError {
    fn from(e: ConfigError) -> Self {
        NetError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_std_errors() {
        fn assert_good<E: Error + Send + Sync + 'static>() {}
        assert_good::<NetError>();
    }

    #[test]
    fn config_errors_are_wrapped_with_a_source() {
        let e: NetError = ConfigError::InvalidRing("x".into()).into();
        assert!(e.to_string().contains("invalid ring"));
        assert!(e.source().is_some());
    }

    #[test]
    fn every_variant_displays_its_context() {
        let cases: Vec<(NetError, &[&str])> = vec![
            (
                NetError::InvalidUrl("not a url".into()),
                &["invalid url", "not a url"],
            ),
            (
                NetError::InvalidCookie("a;;b".into()),
                &["invalid cookie", "a;;b"],
            ),
            (
                NetError::HostUnreachable("gone.example".into()),
                &["no server registered", "gone.example"],
            ),
            (
                NetError::FetchPanicked("slot 3".into()),
                &["origin handler panicked", "slot 3"],
            ),
            (
                NetError::InvalidMethod("YEET".into()),
                &["invalid http method", "YEET"],
            ),
            (
                NetError::Config(ConfigError::InvalidRing("9".into())),
                &["configuration error", "invalid ring"],
            ),
            (
                NetError::Timeout {
                    origin: "http://slow.example".into(),
                    elapsed_ns: 1234,
                },
                &["timed out", "slow.example", "1234ns"],
            ),
            (
                NetError::CircuitOpen {
                    origin: "http://sick.example".into(),
                    cooldown_ns: 5678,
                },
                &["circuit breaker open", "sick.example", "5678ns"],
            ),
        ];
        for (error, fragments) in cases {
            let shown = error.to_string();
            for fragment in fragments {
                assert!(
                    shown.contains(fragment),
                    "`{shown}` should contain `{fragment}`"
                );
            }
            // Round trip: every variant clones to an equal value.
            assert_eq!(error.clone(), error);
            // Only Config wraps a source.
            assert_eq!(
                error.source().is_some(),
                matches!(error, NetError::Config(_))
            );
        }
    }

    #[test]
    fn transience_is_limited_to_timeouts_and_contained_panics() {
        assert!(NetError::Timeout {
            origin: "o".into(),
            elapsed_ns: 0
        }
        .is_transient());
        assert!(NetError::FetchPanicked("p".into()).is_transient());
        assert!(!NetError::HostUnreachable("h".into()).is_transient());
        assert!(!NetError::CircuitOpen {
            origin: "o".into(),
            cooldown_ns: 0
        }
        .is_transient());
        assert!(!NetError::InvalidUrl("u".into()).is_transient());
        assert!(!NetError::InvalidCookie("c".into()).is_transient());
        assert!(!NetError::InvalidMethod("m".into()).is_transient());
        assert!(!NetError::Config(ConfigError::InvalidRing("r".into())).is_transient());
    }
}
