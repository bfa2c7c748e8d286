//! Script errors.

use std::error::Error;
use std::fmt;

use crate::host::HostError;

/// Errors produced while lexing, parsing or executing a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// The source could not be tokenized.
    Lex {
        /// Explanation.
        message: String,
        /// Byte position in the source.
        position: usize,
    },
    /// The token stream could not be parsed.
    Parse {
        /// Explanation.
        message: String,
        /// Approximate token index.
        position: usize,
    },
    /// A runtime error: type errors, unknown identifiers, calling non-functions, …
    Runtime(String),
    /// A host (browser) call was denied by the reference monitor.
    AccessDenied(String),
    /// A host call failed for a non-policy reason (missing node, unreachable host, …).
    HostFailure(String),
    /// The script exceeded the interpreter's step budget.
    StepLimitExceeded,
    /// The source nests statements or expressions deeper than the parser's
    /// bound ([`MAX_NESTING_DEPTH`](crate::parser::MAX_NESTING_DEPTH)).
    NestingTooDeep {
        /// The bound that was hit.
        limit: usize,
        /// Approximate token index.
        position: usize,
    },
    /// A call chain went deeper than the interpreter's bound
    /// ([`MAX_CALL_DEPTH`](crate::interp::MAX_CALL_DEPTH)).
    CallDepthExceeded {
        /// The bound that was hit.
        limit: usize,
    },
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScriptError::Lex { message, position } => {
                write!(f, "lex error at byte {position}: {message}")
            }
            ScriptError::Parse { message, position } => {
                write!(f, "parse error near token {position}: {message}")
            }
            ScriptError::Runtime(message) => write!(f, "runtime error: {message}"),
            ScriptError::AccessDenied(message) => write!(f, "access denied: {message}"),
            ScriptError::HostFailure(message) => write!(f, "host error: {message}"),
            ScriptError::StepLimitExceeded => write!(f, "script exceeded its step budget"),
            ScriptError::NestingTooDeep { limit, position } => {
                write!(
                    f,
                    "nesting deeper than {limit} levels near token {position}"
                )
            }
            ScriptError::CallDepthExceeded { limit } => {
                write!(f, "call depth exceeded its bound of {limit}")
            }
        }
    }
}

impl Error for ScriptError {}

impl From<HostError> for ScriptError {
    fn from(e: HostError) -> Self {
        match e {
            HostError::AccessDenied(reason) => ScriptError::AccessDenied(reason),
            HostError::NotFound(what) => ScriptError::HostFailure(format!("not found: {what}")),
            HostError::Network(what) => ScriptError::HostFailure(format!("network: {what}")),
            HostError::Unsupported(what) => {
                ScriptError::HostFailure(format!("unsupported: {what}"))
            }
        }
    }
}

impl ScriptError {
    /// `true` when the error is a reference-monitor denial (as opposed to a plain
    /// script bug). The defense-effectiveness experiments use this to distinguish
    /// "attack neutralized by ESCUDO" from "attack script was broken".
    #[must_use]
    pub fn is_access_denied(&self) -> bool {
        matches!(self, ScriptError::AccessDenied(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_errors_convert_with_the_right_flavor() {
        let denied: ScriptError = HostError::AccessDenied("ring rule".into()).into();
        assert!(denied.is_access_denied());
        assert!(denied.to_string().contains("ring rule"));

        let missing: ScriptError = HostError::NotFound("node #7".into()).into();
        assert!(!missing.is_access_denied());
        assert!(missing.to_string().contains("node #7"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_good<E: Error + Send + Sync + 'static>() {}
        assert_good::<ScriptError>();
    }
}
