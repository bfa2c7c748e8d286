//! URL parsing for the subset of syntax the reproduction needs.

use std::fmt;
use std::str::FromStr;

use escudo_core::Origin;

use crate::error::NetError;

/// A parsed absolute URL: `scheme://host[:port]/path[?query]`.
///
/// Fragments (`#…`) are parsed and discarded (they never reach the server). This is a
/// purpose-built parser, not a WHATWG implementation; it covers everything the paper's
/// applications and attacks use.
///
/// # Example
///
/// ```
/// use escudo_net::Url;
///
/// let url = Url::parse("http://forum.example/posting.php?mode=reply&t=42")?;
/// assert_eq!(url.host(), "forum.example");
/// assert_eq!(url.path(), "/posting.php");
/// assert_eq!(url.query_param("mode").as_deref(), Some("reply"));
/// assert_eq!(url.origin().port(), 80);
/// # Ok::<(), escudo_net::NetError>(())
/// ```
///
/// The scheme, host, path and query live back to back in one buffer, so
/// parsing, cloning or dropping a URL costs one allocation, not four.
#[derive(PartialEq, Eq, Hash)]
pub struct Url {
    /// Scheme, host, path and query, concatenated.
    buf: String,
    host_start: usize,
    path_start: usize,
    query_start: usize,
    port: u16,
}

/// Written by hand because `#[derive(Clone)]` does not forward `clone_from`
/// to the fields: this one reuses the target's buffer, which is what lets a
/// full request log overwrite an entry without allocating.
impl Clone for Url {
    fn clone(&self) -> Self {
        Url {
            buf: self.buf.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.buf.clone_from(&source.buf);
        self.host_start = source.host_start;
        self.path_start = source.path_start;
        self.query_start = source.query_start;
        self.port = source.port;
    }
}

/// Shows the components, as a struct of five fields would.
impl fmt::Debug for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Url")
            .field("scheme", &self.scheme())
            .field("host", &self.host())
            .field("port", &self.port)
            .field("path", &self.path())
            .field("query", &self.query())
            .finish()
    }
}

impl Url {
    /// Assembles a URL from its components in one buffer, lower-casing the
    /// scheme and host and normalizing the path (empty → `/`, relative →
    /// rooted).
    fn assemble(scheme: &str, host: &str, port: u16, path: &str, query: &str) -> Self {
        let rooted = path.starts_with('/');
        let path_len = if rooted { path.len() } else { path.len() + 1 };
        let mut buf = String::with_capacity(scheme.len() + host.len() + path_len + query.len());
        buf.push_str(scheme);
        let host_start = buf.len();
        buf.push_str(host);
        let path_start = buf.len();
        buf[..path_start].make_ascii_lowercase();
        if !rooted {
            buf.push('/');
        }
        buf.push_str(path);
        let query_start = buf.len();
        buf.push_str(query);
        Url {
            buf,
            host_start,
            path_start,
            query_start,
            port,
        }
    }

    /// Parses an absolute URL.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidUrl`] when the scheme/host are missing or the port is
    /// not numeric.
    pub fn parse(input: &str) -> Result<Self, NetError> {
        let input = input.trim();
        let (scheme, host, port, rest) = escudo_core::origin::split_url(input)
            .map_err(|_| NetError::InvalidUrl(input.to_string()))?;
        // Strip the fragment first.
        let rest = rest.split('#').next().unwrap_or("");
        let (path, query) = rest.split_once('?').unwrap_or((rest, ""));
        Ok(Url::assemble(scheme, host, port, path, query))
    }

    /// Builds a URL from components (used by page generators and tests).
    #[must_use]
    pub fn from_parts(scheme: &str, host: &str, port: u16, path: &str, query: &str) -> Self {
        Url::assemble(scheme, host, port, path, query.trim_start_matches('?'))
    }

    /// Resolves a possibly relative reference against this URL (enough of RFC 3986 for
    /// the applications in this repo: absolute URLs, absolute paths, and relative
    /// paths without `..` handling beyond simple cases).
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the resolved URL cannot be parsed.
    pub fn join(&self, reference: &str) -> Result<Url, NetError> {
        let reference = reference.trim();
        if reference.contains("://") {
            return Url::parse(reference);
        }
        if let Some(rest) = reference.strip_prefix("//") {
            return Url::parse(&format!("{}://{}", self.scheme(), rest));
        }
        // Strip the fragment before splitting off the query, matching `Url::parse`:
        // `viewtopic.php#p42` must not leak `#p42` into the path (fragments never
        // reach the server, and a path containing `#` breaks path-scoped cookies).
        let reference = reference.split('#').next().unwrap_or("");
        if reference.is_empty() {
            return Ok(self.clone());
        }
        let (path_ref, query) = reference.split_once('?').unwrap_or((reference, ""));
        let (scheme, host) = (self.scheme(), self.host());
        if path_ref.starts_with('/') {
            return Ok(Url::assemble(scheme, host, self.port, path_ref, query));
        }
        // Relative to the current directory.
        let path = self.path();
        let base = match path.rfind('/') {
            Some(idx) => &path[..=idx],
            None => "/",
        };
        let joined = format!("{base}{path_ref}");
        Ok(Url::assemble(scheme, host, self.port, &joined, query))
    }

    /// The scheme, lower-cased.
    #[must_use]
    pub fn scheme(&self) -> &str {
        &self.buf[..self.host_start]
    }

    /// The host, lower-cased.
    #[must_use]
    pub fn host(&self) -> &str {
        &self.buf[self.host_start..self.path_start]
    }

    /// The port (explicit or scheme default).
    #[must_use]
    pub const fn port(&self) -> u16 {
        self.port
    }

    /// The path, always starting with `/`.
    #[must_use]
    pub fn path(&self) -> &str {
        &self.buf[self.path_start..self.query_start]
    }

    /// The raw query string (without the leading `?`).
    #[must_use]
    pub fn query(&self) -> &str {
        &self.buf[self.query_start..]
    }

    /// Looks up a query parameter by name (first occurrence), percent-decoding `+` to a
    /// space and `%XX` escapes.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<String> {
        parse_query(self.query())
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// All query parameters in order.
    #[must_use]
    pub fn query_params(&self) -> Vec<(String, String)> {
        parse_query(self.query())
    }

    /// The URL's origin.
    #[must_use]
    pub fn origin(&self) -> Origin {
        Origin::new(self.scheme(), self.host(), self.port)
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.scheme())?;
        f.write_str("://")?;
        f.write_str(self.host())?;
        if self.port != escudo_core::origin::default_port(self.scheme()) {
            write!(f, ":{}", self.port)?;
        }
        f.write_str(self.path())?;
        if !self.query().is_empty() {
            f.write_str("?")?;
            f.write_str(self.query())?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// Parses an `application/x-www-form-urlencoded` string into key/value pairs.
#[must_use]
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|part| !part.is_empty())
        .map(|part| {
            let (k, v) = part.split_once('=').unwrap_or((part, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Encodes a string for use in a query string or form body.
#[must_use]
pub fn percent_encode(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for byte in input.bytes() {
        match byte {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(byte as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{byte:02X}")),
        }
    }
    out
}

/// Decodes `+` and `%XX` escapes. Invalid escapes are passed through verbatim.
#[must_use]
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 2 < bytes.len() => {
                let high = (bytes[i + 1] as char).to_digit(16);
                let low = (bytes[i + 2] as char).to_digit(16);
                match (high, low) {
                    (Some(h), Some(l)) => {
                        out.push((h * 16 + l) as u8);
                        i += 3;
                    }
                    _ => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_urls() {
        let url = Url::parse("https://shop.example:8443/cart/add?item=7&qty=2#frag").unwrap();
        assert_eq!(url.scheme(), "https");
        assert_eq!(url.host(), "shop.example");
        assert_eq!(url.port(), 8443);
        assert_eq!(url.path(), "/cart/add");
        assert_eq!(url.query_param("item").as_deref(), Some("7"));
        assert_eq!(url.query_param("qty").as_deref(), Some("2"));
        assert_eq!(url.query_param("missing"), None);
    }

    #[test]
    fn bare_host_gets_root_path_and_default_port() {
        let url = Url::parse("http://example.com").unwrap();
        assert_eq!(url.path(), "/");
        assert_eq!(url.port(), 80);
        assert_eq!(url.to_string(), "http://example.com/");
    }

    #[test]
    fn display_omits_default_port_but_keeps_explicit_nonstandard_ports() {
        let url = Url::parse("http://example.com:8080/a?b=c").unwrap();
        assert_eq!(url.to_string(), "http://example.com:8080/a?b=c");
        let url = Url::parse("https://example.com:443/a").unwrap();
        assert_eq!(url.to_string(), "https://example.com/a");
    }

    #[test]
    fn join_handles_absolute_and_relative_references() {
        let base = Url::parse("http://forum.example/viewtopic.php?t=1").unwrap();
        assert_eq!(
            base.join("http://other.example/x").unwrap().host(),
            "other.example"
        );
        assert_eq!(base.join("/posting.php").unwrap().path(), "/posting.php");
        assert_eq!(base.join("style.css").unwrap().path(), "/style.css");
        assert_eq!(
            base.join("posting.php?mode=reply")
                .unwrap()
                .query_param("mode")
                .as_deref(),
            Some("reply")
        );
        assert_eq!(base.join("").unwrap(), base);
    }

    #[test]
    fn join_strips_fragments_from_relative_references() {
        // Regression: the fragment used to survive `join` and end up in the path
        // (`/viewtopic.php#p42`) or the query (`x=1#f`), reaching the server and
        // breaking path-scoped cookie matching.
        let base = Url::parse("http://forum.example/forum/index.php?f=1").unwrap();

        let joined = base.join("viewtopic.php#p42").unwrap();
        assert_eq!(joined.path(), "/forum/viewtopic.php");
        assert_eq!(joined.query(), "");

        let joined = base.join("page?x=1#f").unwrap();
        assert_eq!(joined.path(), "/forum/page");
        assert_eq!(joined.query(), "x=1");

        let joined = base.join("/posting.php?mode=reply#top").unwrap();
        assert_eq!(joined.path(), "/posting.php");
        assert_eq!(joined.query(), "mode=reply");

        // A fragment-only reference resolves to the base itself.
        assert_eq!(base.join("#p42").unwrap(), base);

        // Absolute references go through `Url::parse`, which already discards them.
        let joined = base.join("http://other.example/x?q=1#frag").unwrap();
        assert_eq!(joined.path(), "/x");
        assert_eq!(joined.query(), "q=1");

        // No joined URL ever emits a `#`.
        for reference in ["a#b", "a?c=d#b", "#b", "/a/b#c", "//h/p#f", "http://h/p#f"] {
            let joined = base.join(reference).unwrap();
            assert!(!joined.path().contains('#'), "path of join({reference:?})");
            assert!(
                !joined.query().contains('#'),
                "query of join({reference:?})"
            );
        }
    }

    #[test]
    fn origin_matches_core_origin_semantics() {
        let url = Url::parse("HTTP://Example.COM/path").unwrap();
        assert_eq!(url.origin(), Origin::new("http", "example.com", 80));
    }

    #[test]
    fn invalid_urls_are_rejected() {
        assert!(Url::parse("not a url").is_err());
        assert!(Url::parse("http://").is_err());
        assert!(Url::parse("").is_err());
    }

    #[test]
    fn query_decoding_handles_plus_and_percent() {
        let url = Url::parse("http://x.example/s?q=hello+world&msg=a%26b%3Dc").unwrap();
        assert_eq!(url.query_param("q").as_deref(), Some("hello world"));
        assert_eq!(url.query_param("msg").as_deref(), Some("a&b=c"));
    }

    #[test]
    fn percent_encode_decode_roundtrip_examples() {
        for s in ["hello world", "a&b=c", "<script>alert(1)</script>", "100%"] {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
    }

    #[test]
    fn malformed_percent_escapes_pass_through() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn percent_roundtrip() {
        let samples = [
            "",
            "plain",
            "with space",
            "a=b&c=d",
            "100%",
            "ümlaut+snowman ☃",
            "/path/seg",
            "tab\there",
            "newline\nhere",
            "percent%41already",
            "🦀🦀🦀",
            "quote\"and'tick",
        ];
        for s in samples {
            assert_eq!(percent_decode(&percent_encode(s)), s);
        }
    }

    #[test]
    fn parser_never_panics() {
        let adversarial = [
            "",
            "http://",
            "://host",
            "http://h:99999/",
            "http://h:x/",
            "not a url at all",
            "http://h/p?q#frag",
            "http://h?",
            "http://h#",
            "a://b:1",
            "http://@h/",
            "//h/p",
            "http://h/%GG",
            "http://h/%",
            "http://h/😎",
            "    ",
            "http://h:1:2/x",
        ];
        for s in adversarial {
            let _ = Url::parse(s);
        }
    }

    #[test]
    fn clone_from_equals_clone_in_both_directions() {
        let urls = [
            "http://a.example/",
            "http://a.much-longer-host.example:8080/deep/path/to/page.php?x=1&y=22",
            "https://a.example:8443/p?q=1",
            "http://a.example/p",
            "http://a.example/p?q=a-much-longer-query&and=more",
        ];
        for a in urls {
            for b in urls {
                let source = Url::parse(a).unwrap();
                let mut target = Url::parse(b).unwrap();
                target.clone_from(&source);
                assert_eq!(target, source.clone(), "{b} <- {a}");
                assert_eq!(target.to_string(), source.to_string());
            }
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let cases = [
            ("app.example", 80u16, "", ""),
            ("app.example", 8080, "/index.php", ""),
            ("a.b.c", 1, "/x/y/z", "k=v"),
            ("forum.example", 443, "/viewtopic.php", "t=1&p=2"),
            ("h9", u16::MAX, "/a-b_c.d", "q=1"),
        ];
        for (host, port, path, q) in cases {
            let url = Url::from_parts("http", host, port, path, q);
            let reparsed = Url::parse(&url.to_string()).unwrap();
            assert_eq!(reparsed, url);
        }
    }
}
