//! Browser-level errors.

use std::error::Error;
use std::fmt;

use escudo_net::NetError;

/// Errors surfaced by the browser API ([`Browser`](crate::Browser)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowserError {
    /// The network layer failed (unknown host, bad URL, …).
    Net(NetError),
    /// The referenced page is not retained: the browser evicted it from its
    /// back/forward window ([`RETAINED_PAGES`](crate::RETAINED_PAGES)), or
    /// never issued the id.
    NoSuchPage(usize),
    /// The referenced element does not exist in the page.
    NoSuchElement(String),
    /// The requested operation was denied by the reference monitor.
    AccessDenied(String),
    /// The server returned an error status for a navigation.
    HttpError(u16),
}

impl fmt::Display for BrowserError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrowserError::Net(e) => write!(f, "network error: {e}"),
            BrowserError::NoSuchPage(id) => write!(f, "no page with id {id}"),
            BrowserError::NoSuchElement(selector) => write!(f, "no element matching `{selector}`"),
            BrowserError::AccessDenied(reason) => write!(f, "access denied: {reason}"),
            BrowserError::HttpError(status) => write!(f, "server returned status {status}"),
        }
    }
}

impl Error for BrowserError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BrowserError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for BrowserError {
    fn from(e: NetError) -> Self {
        BrowserError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: BrowserError = NetError::HostUnreachable("x.example".into()).into();
        assert!(e.to_string().contains("x.example"));
        assert!(e.source().is_some());
        assert!(BrowserError::NoSuchPage(3).to_string().contains('3'));
        assert!(BrowserError::AccessDenied("ring rule".into())
            .to_string()
            .contains("ring rule"));
    }
}
