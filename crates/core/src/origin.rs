//! Web origins — the `⟨protocol, domain, port⟩` triple of the same-origin policy.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::error::ConfigError;

/// A web origin: the unique combination of scheme ("protocol"), host ("domain") and
/// port, as used by both the same-origin policy and ESCUDO's origin rule.
///
/// Origins compare case-insensitively on scheme and host; the port is significant.
/// When a URL omits the port, the scheme's default port is used (80 for `http`,
/// 443 for `https`).
///
/// Origins are cloned on every mediation-relevant construction — request-issuing
/// principals, per-node security contexts — so the string
/// components are stored as shared `Arc<str>` slices: a clone is two reference
/// count bumps, not two heap allocations. Equality and hashing still compare
/// the (lower-cased) string contents.
///
/// # Example
///
/// ```
/// use escudo_core::Origin;
///
/// let a: Origin = "http://www.amazon.com/index.php".parse()?;
/// let b: Origin = "http://www.amazon.com:80/search.php".parse()?;
/// let c: Origin = "https://www.amazon.com/".parse()?;
/// assert_eq!(a, b);
/// assert_ne!(a, c); // different scheme ⇒ different origin
/// # Ok::<(), escudo_core::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Origin {
    scheme: Arc<str>,
    host: Arc<str>,
    port: u16,
}

impl Origin {
    /// Creates an origin from its components. Scheme and host are lower-cased.
    #[must_use]
    pub fn new(scheme: &str, host: &str, port: u16) -> Self {
        Origin {
            scheme: lowercased(scheme),
            host: lowercased(host),
            port,
        }
    }

    /// Parses the origin of a URL string.
    ///
    /// Accepts full URLs (`http://host:port/path?query`) as well as bare origins
    /// (`https://host`). This is a purpose-built parser for the subset of URL syntax
    /// the reproduction needs; it is not a general-purpose WHATWG URL parser.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidOrigin`] when the scheme is missing, the host is
    /// empty, or the port is not numeric.
    pub fn parse_url(url: &str) -> Result<Self, ConfigError> {
        let (scheme, host, port, _) = split_url(url)?;
        Ok(Origin::new(scheme, host, port))
    }

    /// The scheme ("protocol") component, lower-cased.
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// The host ("domain") component, lower-cased.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The port component.
    #[must_use]
    pub const fn port(&self) -> u16 {
        self.port
    }

    /// The same-origin check used by both the SOP baseline and ESCUDO's origin rule.
    #[must_use]
    pub fn same_origin_as(&self, other: &Origin) -> bool {
        self == other
    }
}

/// The default port for a scheme (80 for http, 443 for https, 0 otherwise).
#[must_use]
pub fn default_port(scheme: &str) -> u16 {
    [
        ("http", 80),
        ("ws", 80),
        ("https", 443),
        ("wss", 443),
        ("ftp", 21),
    ]
    .into_iter()
    .find(|(known, _)| scheme.eq_ignore_ascii_case(known))
    .map_or(0, |(_, port)| port)
}

/// `text` lower-cased as a shared slice, copied once: already lower-case text
/// (every URL the parsers produce) skips the intermediate `String`.
fn lowercased(text: &str) -> Arc<str> {
    if text.bytes().any(|b| b.is_ascii_uppercase()) {
        text.to_ascii_lowercase().into()
    } else {
        text.into()
    }
}

/// Splits a URL string into the scheme, host and port of its origin plus the
/// rest of the URL after the authority (path, query and fragment, possibly
/// empty), without allocating: the scheme and host are slices of the
/// (trimmed) input, not yet lower-cased, and a missing port is the scheme's
/// default. [`Origin::parse_url`] builds on it, and so does a URL parser
/// that keeps the components itself.
///
/// # Errors
///
/// Returns [`ConfigError::InvalidOrigin`] when the scheme is missing, the host is
/// empty, or the port is not numeric.
pub fn split_url(url: &str) -> Result<(&str, &str, u16, &str), ConfigError> {
    let url = url.trim();
    let invalid = || ConfigError::InvalidOrigin(url.to_string());
    let (scheme, rest) = url.split_once("://").ok_or_else(invalid)?;
    if scheme.is_empty()
        || !scheme
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'+' | b'-' | b'.'))
    {
        return Err(invalid());
    }
    // Authority ends at the first '/', '?' or '#'.
    let authority_end = rest
        .bytes()
        .position(|b| matches!(b, b'/' | b'?' | b'#'))
        .unwrap_or(rest.len());
    let (authority, tail) = rest.split_at(authority_end);
    if authority.is_empty() {
        return Err(invalid());
    }
    // Strip userinfo if present (rare, but cheap to support).
    let authority = authority
        .rfind('@')
        .map_or(authority, |at| &authority[at + 1..]);
    let digits = |p: &str| p.bytes().all(|b| b.is_ascii_digit());
    let (host, port) = match authority.rsplit_once(':') {
        Some((h, p)) if !p.is_empty() && digits(p) => (h, p.parse().map_err(|_| invalid())?),
        Some((_, p)) if !digits(p) => return Err(invalid()),
        _ => (authority, default_port(scheme)),
    };
    if host.is_empty() {
        return Err(invalid());
    }
    Ok((scheme, host, port, tail))
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
    }
}

impl FromStr for Origin {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Origin::parse_url(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_path_same_origin() {
        let a = Origin::parse_url("http://www.amazon.com/index.php").unwrap();
        let b = Origin::parse_url("http://www.amazon.com/search.php").unwrap();
        assert!(a.same_origin_as(&b));
    }

    #[test]
    fn different_domain_different_origin() {
        let a = Origin::parse_url("http://www.gmail.com").unwrap();
        let b = Origin::parse_url("http://www.amazon.com").unwrap();
        assert!(!a.same_origin_as(&b));
    }

    #[test]
    fn different_scheme_different_origin() {
        let a = Origin::parse_url("http://www.gmail.com").unwrap();
        let b = Origin::parse_url("https://www.gmail.com").unwrap();
        assert!(!a.same_origin_as(&b));
    }

    #[test]
    fn default_ports_are_filled_in() {
        let a = Origin::parse_url("http://example.com").unwrap();
        assert_eq!(a.port(), 80);
        let b = Origin::parse_url("https://example.com/x").unwrap();
        assert_eq!(b.port(), 443);
        let c = Origin::parse_url("http://example.com:8080/x").unwrap();
        assert_eq!(c.port(), 8080);
    }

    #[test]
    fn explicit_default_port_equals_implicit() {
        let a = Origin::parse_url("http://example.com:80/a").unwrap();
        let b = Origin::parse_url("http://example.com/b").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn case_is_normalized() {
        let a = Origin::parse_url("HTTP://Example.COM/x").unwrap();
        let b = Origin::parse_url("http://example.com").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn query_and_fragment_are_ignored() {
        let a = Origin::parse_url("http://example.com?x=1").unwrap();
        let b = Origin::parse_url("http://example.com#frag").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.host(), "example.com");
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(Origin::parse_url("example.com").is_err());
        assert!(Origin::parse_url("http://").is_err());
        assert!(Origin::parse_url("://host").is_err());
        assert!(Origin::parse_url("http://host:notaport/").is_err());
        assert!(Origin::parse_url("").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let a = Origin::new("http", "example.com", 8080);
        assert_eq!(a.to_string(), "http://example.com:8080");
        let parsed = Origin::parse_url(&a.to_string()).unwrap();
        assert_eq!(parsed, a);
    }

    #[test]
    fn roundtrip_through_display() {
        let hosts = [
            "a",
            "app.example",
            "x9.y-z.example",
            "very.long.sub.domain.example.com",
        ];
        let ports = [1u16, 80, 443, 8080, u16::MAX];
        for host in hosts {
            for port in ports {
                let origin = Origin::new("http", host, port);
                let parsed = Origin::parse_url(&origin.to_string()).unwrap();
                assert_eq!(parsed, origin);
            }
        }
    }

    #[test]
    fn parser_never_panics() {
        let adversarial = [
            "",
            "://",
            "http://",
            "http://:",
            "http://:80",
            "http://h:",
            "http://h:x",
            "http://h:99999",
            "a://b:1/c?d#e",
            "http://@",
            "http://u@h",
            "http://[::1]:80",
            "http//missing.colon",
            "http:///path",
            "\u{0}\u{ffff}",
            "🦀://🦀",
            "http://h:1:2",
            "http://h#frag",
            "scheme+x-y.z://host",
            "   http://pad.example   ",
        ];
        for s in adversarial {
            let _ = Origin::parse_url(s);
        }
    }
}
