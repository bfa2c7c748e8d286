//! Cookies and `Set-Cookie` parsing.

use std::fmt;
use std::time::{Duration, SystemTime};

use crate::error::NetError;
use crate::url::Url;

/// A `Set-Cookie` directive as sent by a server.
///
/// The attributes the reproduction needs are modelled: `Domain`, `Path`, `Secure`,
/// `HttpOnly`, and the expiry pair `Max-Age` / `Expires` (RFC 6265 §5.2.1–§5.2.2) —
/// a long-lived server deployment must stop matching cookies whose lifetime has
/// elapsed, and `Max-Age=0` is the standard deletion idiom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetCookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// Optional `Domain` attribute.
    pub domain: Option<String>,
    /// Optional `Path` attribute. `None` (or a value not starting with `/`) means the
    /// stored cookie takes the RFC 6265 §5.1.4 *default-path* of the setting URL —
    /// the directory prefix of the setting request's path, **not** `/`.
    pub path: Option<String>,
    /// Optional `Max-Age` attribute in seconds (may be zero or negative — both mean
    /// "expire immediately", i.e. delete). Takes precedence over `expires`
    /// (RFC 6265 §5.3 step 3).
    pub max_age: Option<i64>,
    /// Optional `Expires` attribute, parsed to an absolute instant. A malformed
    /// date is ignored entirely (the attribute is treated as absent).
    pub expires: Option<SystemTime>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
}

impl SetCookie {
    /// Creates a cookie with no attributes: host-only, scoped to the setting URL's
    /// default-path (for the root-level pages the paper's applications serve, that
    /// is `/`).
    #[must_use]
    pub fn new(name: impl Into<String>, value: impl Into<String>) -> Self {
        SetCookie {
            name: name.into(),
            value: value.into(),
            domain: None,
            path: None,
            max_age: None,
            expires: None,
            secure: false,
            http_only: false,
        }
    }

    /// Sets the `Path` attribute (builder style).
    #[must_use]
    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Sets the `Max-Age` attribute (builder style). Zero or negative means
    /// "expire immediately" — the RFC 6265 deletion idiom.
    #[must_use]
    pub fn with_max_age(mut self, seconds: i64) -> Self {
        self.max_age = Some(seconds);
        self
    }

    /// Sets the `HttpOnly` attribute (builder style).
    #[must_use]
    pub fn http_only(mut self) -> Self {
        self.http_only = true;
        self
    }

    /// Parses a `Set-Cookie` header value.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidCookie`] when the leading `name=value` pair is
    /// missing or the name is empty.
    pub fn parse(header_value: &str) -> Result<Self, NetError> {
        let mut parts = header_value.split(';');
        let first = parts
            .next()
            .ok_or_else(|| NetError::InvalidCookie(header_value.to_string()))?;
        let (name, value) = first
            .split_once('=')
            .ok_or_else(|| NetError::InvalidCookie(header_value.to_string()))?;
        let name = name.trim();
        if name.is_empty() {
            return Err(NetError::InvalidCookie(header_value.to_string()));
        }
        let mut cookie = SetCookie::new(name, value.trim());
        for attr in parts {
            let attr = attr.trim();
            let (key, val) = attr.split_once('=').unwrap_or((attr, ""));
            match key.to_ascii_lowercase().as_str() {
                // RFC 6265 §5.2.3: an empty `Domain` value (including a bare `.`)
                // must be ignored entirely — the cookie stays host-only. Mapping it
                // to `Some("")` would store a cookie whose host matches no request.
                // Domains are case-insensitive; normalize once here.
                "domain" => {
                    let domain = val.trim().trim_start_matches('.');
                    if !domain.is_empty() {
                        cookie.domain = Some(domain.to_ascii_lowercase());
                    }
                }
                // An empty `Path=` means "no attribute" (the stored cookie takes the
                // setting URL's default-path, exactly like a missing attribute).
                "path" => {
                    let path = val.trim();
                    cookie.path = (!path.is_empty()).then(|| path.to_string());
                }
                // RFC 6265 §5.2.2: the value must be digits with an optional leading
                // `-`; anything else means "ignore the attribute entirely".
                "max-age" => {
                    let val = val.trim();
                    let digits = val.strip_prefix('-').unwrap_or(val);
                    if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                        if let Ok(seconds) = val.parse::<i64>() {
                            cookie.max_age = Some(seconds);
                        }
                    }
                }
                // §5.2.1: an unparseable date means "ignore the attribute".
                "expires" => cookie.expires = parse_cookie_date(val),
                "secure" => cookie.secure = true,
                "httponly" => cookie.http_only = true,
                _ => {}
            }
        }
        Ok(cookie)
    }

    /// The effective `Domain` attribute after RFC 6265 §5.2.3 normalization: leading
    /// dots and surrounding whitespace are ignored, and an empty value means "no
    /// attribute at all" (host-only cookie). [`SetCookie::parse`] normalizes while
    /// parsing; this also covers programmatically-built directives whose public
    /// `domain` field was set raw — the jar's store path and
    /// [`Cookie::from_set_cookie`] both go through here so they can never disagree.
    #[must_use]
    pub fn normalized_domain(&self) -> Option<&str> {
        let domain = self.domain.as_deref()?.trim().trim_start_matches('.');
        (!domain.is_empty()).then_some(domain)
    }

    /// The path the stored cookie will carry when set from a request whose URL path
    /// is `setting_path`: the `Path` attribute when present and absolute, otherwise
    /// the RFC 6265 §5.1.4 default-path of the setting URL.
    #[must_use]
    pub fn effective_path(&self, setting_path: &str) -> String {
        match self.path.as_deref() {
            Some(path) if path.starts_with('/') => path.to_string(),
            _ => default_path(setting_path),
        }
    }

    /// The absolute instant this directive's cookie stops matching, evaluated
    /// against `now` (the store time): `Max-Age` relative to `now` when present
    /// (RFC 6265 §5.3 step 3 gives it precedence), otherwise the `Expires`
    /// instant, otherwise `None` — a session cookie that never expires.
    ///
    /// A zero or negative `Max-Age` yields the earliest representable time
    /// (§5.2.2), so the resulting cookie is already expired — the deletion idiom.
    /// A `Max-Age` too large to represent saturates to "no expiry".
    #[must_use]
    pub fn expiry_deadline(&self, now: SystemTime) -> Option<SystemTime> {
        if let Some(seconds) = self.max_age {
            if seconds <= 0 {
                return Some(SystemTime::UNIX_EPOCH);
            }
            return now.checked_add(Duration::from_secs(seconds as u64));
        }
        self.expires
    }

    /// Serializes the directive as a `Set-Cookie` header value. (`Expires` is not
    /// re-serialized — programmatic directives use `Max-Age`, which round-trips.)
    #[must_use]
    pub fn to_header_value(&self) -> String {
        let mut out = format!("{}={}", self.name, self.value);
        if let Some(domain) = &self.domain {
            out.push_str("; Domain=");
            out.push_str(domain);
        }
        if let Some(path) = &self.path {
            out.push_str("; Path=");
            out.push_str(path);
        }
        if let Some(seconds) = self.max_age {
            out.push_str("; Max-Age=");
            out.push_str(&seconds.to_string());
        }
        if self.secure {
            out.push_str("; Secure");
        }
        if self.http_only {
            out.push_str("; HttpOnly");
        }
        out
    }
}

impl fmt::Display for SetCookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_header_value())
    }
}

/// A cookie as stored in the jar: the `Set-Cookie` data plus the host that set it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cookie {
    /// Cookie name.
    pub name: String,
    /// Cookie value.
    pub value: String,
    /// The host the cookie belongs to (from the setting response's URL, or the
    /// `Domain` attribute).
    pub host: String,
    /// Whether the cookie is host-only (no `Domain` attribute was given, so it is
    /// scoped to exactly the setting host — RFC 6265 §5.4 — rather than to the
    /// host and its subdomains).
    pub host_only: bool,
    /// The scheme of the setting response (used with `Secure`).
    pub scheme: String,
    /// The port of the setting origin. Classic cookies ignore the port; it is kept for
    /// bookkeeping and for deriving the cookie's ESCUDO origin.
    pub port: u16,
    /// `Path` scope.
    pub path: String,
    /// The absolute instant the cookie expires (`None` = session cookie). Derived
    /// at store time from `Max-Age`/`Expires` via [`SetCookie::expiry_deadline`];
    /// the jars lazily drop cookies whose deadline has passed.
    pub expires_at: Option<SystemTime>,
    /// `Secure` attribute.
    pub secure: bool,
    /// `HttpOnly` attribute.
    pub http_only: bool,
}

impl Cookie {
    /// Builds a stored cookie from a `Set-Cookie` directive and the URL of the
    /// response that delivered it. The setting URL supplies the origin *and* the
    /// RFC 6265 §5.1.4 default-path a directive without an absolute `Path` falls
    /// back to (set from `/forum/login.php` → scope `/forum`, not `/`).
    #[must_use]
    pub fn from_set_cookie(directive: &SetCookie, url: &Url) -> Self {
        let domain = directive.normalized_domain();
        Cookie {
            name: directive.name.clone(),
            value: directive.value.clone(),
            // One allocation: borrow whichever source applies, lowercase into the
            // owned field. (The parser already lowercases `Domain`, but a
            // programmatically-built directive may not be normalized.)
            host: domain.unwrap_or(url.host()).to_ascii_lowercase(),
            host_only: domain.is_none(),
            scheme: url.scheme().to_ascii_lowercase(),
            port: url.port(),
            path: directive.effective_path(url.path()),
            expires_at: directive.expiry_deadline(SystemTime::now()),
            secure: directive.secure,
            http_only: directive.http_only,
        }
    }

    /// Whether the cookie's expiry deadline has passed at `now`. A session cookie
    /// (no deadline) never expires.
    #[must_use]
    pub fn expired(&self, now: SystemTime) -> bool {
        self.expires_at.is_some_and(|deadline| deadline <= now)
    }

    /// Whether this cookie is in scope for a request to `host` + `path` over `scheme`.
    /// (This is *scope matching only* — whether the cookie is actually attached is a
    /// separate, policy-mediated decision.)
    #[must_use]
    pub fn in_scope(&self, scheme: &str, host: &str, path: &str) -> bool {
        self.in_host_scope(scheme, host) && self.path_matches(path)
    }

    /// Whether this cookie is in scope for a request over `scheme` to `host` at
    /// *some* path: the `Secure` and host/`Domain` halves of
    /// [`Cookie::in_scope`].
    #[must_use]
    pub fn in_host_scope(&self, scheme: &str, host: &str) -> bool {
        if self.secure && !scheme.eq_ignore_ascii_case("https") {
            return false;
        }
        // RFC 6265 §5.4: a host-only cookie matches exactly the host that set it;
        // only a cookie with an explicit `Domain` extends to subdomains.
        if self.host_only {
            host.eq_ignore_ascii_case(&self.host)
        } else {
            domain_matches(&self.host, host)
        }
    }

    /// Whether this cookie's `Path` scope covers a request to `path` (RFC 6265
    /// §5.1.4 path-match): the path half of [`Cookie::in_scope`].
    #[must_use]
    pub fn path_matches(&self, path: &str) -> bool {
        path_matches(&self.path, path)
    }

    /// The cookie's ESCUDO origin (the origin of the application that created it).
    #[must_use]
    pub fn origin(&self) -> escudo_core::Origin {
        escudo_core::Origin::new(&self.scheme, &self.host, self.port)
    }

    /// The `name=value` pair used in the `Cookie` request header.
    #[must_use]
    pub fn to_cookie_pair(&self) -> String {
        format!("{}={}", self.name, self.value)
    }
}

/// RFC-6265-style domain matching: exact match, or the request host is a subdomain of
/// the cookie domain. Also used by the jar's store path to enforce §5.3 step 6 (a
/// `Domain` attribute must cover the setting host, or the cookie is rejected).
///
/// Allocation-free: the stored cookie host is already lowercased
/// ([`Cookie::from_set_cookie`] normalizes at store time), and the request host is
/// compared case-insensitively in place — this runs once per cookie per request.
pub(crate) fn domain_matches(cookie_host: &str, request_host: &str) -> bool {
    if cookie_host.is_empty() {
        return false;
    }
    if request_host.eq_ignore_ascii_case(cookie_host) {
        return true;
    }
    // Dot-suffix match: `request_host` ends with `.{cookie_host}`.
    match request_host.len().checked_sub(cookie_host.len() + 1) {
        Some(dot) => {
            request_host.as_bytes()[dot] == b'.'
                && request_host[dot + 1..].eq_ignore_ascii_case(cookie_host)
        }
        None => false,
    }
}

/// The RFC 6265 §5.1.4 default-path of a request URL: the directory prefix of the
/// URL's path (`/forum/login.php` → `/forum`, `/forum/` → `/forum`), or `/` when the
/// path is root-level, relative, or empty. This is the scope a `Set-Cookie` without
/// an absolute `Path` attribute takes — **not** the whole host.
#[must_use]
pub fn default_path(uri_path: &str) -> String {
    if !uri_path.starts_with('/') {
        return "/".to_string();
    }
    match uri_path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(last_slash) => uri_path[..last_slash].to_string(),
    }
}

/// Parses a cookie `Expires` date per the RFC 6265 §5.1.1 algorithm: the value is
/// split into tokens on non-token delimiters, and the first token matching each of
/// *time* (`hh:mm:ss`), *day-of-month*, *month* (3-letter name) and *year* wins,
/// in that priority order — so `Wed, 21 Oct 2015 07:28:00 GMT`,
/// `21-Oct-15 07:28:00` and other legacy spellings all parse. Returns `None`
/// (attribute ignored) when a component is missing or out of range. Dates before
/// the epoch clamp to the earliest representable time — already expired.
#[must_use]
pub fn parse_cookie_date(value: &str) -> Option<SystemTime> {
    let mut time: Option<(u64, u64, u64)> = None;
    let mut day: Option<u64> = None;
    let mut month: Option<u64> = None;
    let mut year: Option<i64> = None;
    for token in value.split(|c: char| !(c.is_ascii_alphanumeric() || c == ':')) {
        if token.is_empty() {
            continue;
        }
        if time.is_none() && token.contains(':') {
            let mut parts = token.splitn(3, ':');
            let fields: Option<Vec<u64>> = parts
                .by_ref()
                .map(|f| {
                    ((1..=2).contains(&f.len()) && f.bytes().all(|b| b.is_ascii_digit()))
                        .then(|| f.parse().ok())
                        .flatten()
                })
                .collect();
            if let Some(fields) = fields {
                if fields.len() == 3 {
                    time = Some((fields[0], fields[1], fields[2]));
                }
            }
            continue;
        }
        if token.bytes().all(|b| b.is_ascii_digit()) {
            if day.is_none() && (1..=2).contains(&token.len()) {
                day = token.parse().ok();
                continue;
            }
            if year.is_none() && (token.len() == 2 || token.len() == 4) {
                if let Ok(parsed) = token.parse::<i64>() {
                    // §5.1.1 steps 3–4: two-digit years 70–99 are 19xx, 0–69 are 20xx.
                    year = Some(match parsed {
                        70..=99 => parsed + 1900,
                        0..=69 if token.len() == 2 => parsed + 2000,
                        other => other,
                    });
                }
            }
            continue;
        }
        if month.is_none() && token.len() >= 3 {
            let prefix = token[..3].to_ascii_lowercase();
            month = [
                "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct", "nov", "dec",
            ]
            .iter()
            .position(|m| *m == prefix)
            .map(|i| i as u64 + 1);
        }
    }
    let ((hour, minute, second), day, month, year) = (time?, day?, month?, year?);
    if !(1..=31).contains(&day) || year < 1601 || hour > 23 || minute > 59 || second > 59 {
        return None;
    }
    let days = days_from_civil(year, month, day);
    let seconds = days * 86_400 + (hour * 3600 + minute * 60 + second) as i64;
    if seconds < 0 {
        return Some(SystemTime::UNIX_EPOCH);
    }
    SystemTime::UNIX_EPOCH.checked_add(Duration::from_secs(seconds as u64))
}

/// Days since 1970-01-01 for a proleptic Gregorian civil date (Howard Hinnant's
/// `days_from_civil` algorithm). `month` is 1-based.
fn days_from_civil(year: i64, month: u64, day: u64) -> i64 {
    let year = if month <= 2 { year - 1 } else { year };
    let era = if year >= 0 { year } else { year - 399 } / 400;
    let year_of_era = year - era * 400;
    let month_prime = (month + 9) % 12;
    let day_of_year = (153 * month_prime + 2) / 5 + day - 1;
    let day_of_era = year_of_era * 365 + year_of_era / 4 - year_of_era / 100 + day_of_year as i64;
    era * 146_097 + day_of_era - 719_468
}

/// RFC-6265-style path matching.
fn path_matches(cookie_path: &str, request_path: &str) -> bool {
    if cookie_path == "/" || cookie_path == request_path {
        return true;
    }
    if let Some(rest) = request_path.strip_prefix(cookie_path) {
        return cookie_path.ends_with('/') || rest.starts_with('/');
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn parse_simple_set_cookie() {
        let c = SetCookie::parse("phpbb2mysql_sid=abc123; Path=/; HttpOnly").unwrap();
        assert_eq!(c.name, "phpbb2mysql_sid");
        assert_eq!(c.value, "abc123");
        assert_eq!(c.path.as_deref(), Some("/"));
        assert!(c.http_only);
        assert!(!c.secure);
    }

    #[test]
    fn parse_handles_domain_and_secure() {
        let c = SetCookie::parse("sid=1; Domain=.example.com; Secure; Path=/app").unwrap();
        assert_eq!(c.domain.as_deref(), Some("example.com"));
        assert!(c.secure);
        assert_eq!(c.path.as_deref(), Some("/app"));
    }

    #[test]
    fn default_path_is_the_directory_prefix() {
        // RFC 6265 §5.1.4 table: uri-path → default-path.
        for (uri_path, expected) in [
            ("/forum/login.php", "/forum"),
            ("/forum/", "/forum"),
            ("/forum/admin/index.php", "/forum/admin"),
            ("/login.php", "/"),
            ("/", "/"),
            ("", "/"),
            ("relative", "/"),
        ] {
            assert_eq!(
                default_path(uri_path),
                expected,
                "for uri-path {uri_path:?}"
            );
        }
    }

    #[test]
    fn missing_or_relative_path_attribute_takes_the_default_path() {
        // Regression: a `Set-Cookie` without `Path` used to be stored with `/`,
        // matching every request to the host. RFC 6265 §5.1.4 scopes it to the
        // setting URL's directory instead.
        let setting_urls = [
            ("http://forum.example/forum/login.php", "/forum"),
            ("http://forum.example/login.php", "/"),
            ("http://forum.example/", "/"),
            ("http://forum.example/forum/admin/tool.php", "/forum/admin"),
        ];
        let path_attrs: [(Option<&str>, Option<&str>); 5] = [
            // (Path attribute, explicit stored path — None means "use default-path")
            (None, None),
            (Some(""), None),
            (Some("noslash"), None), // §5.1.4: not absolute → default-path
            (Some("/explicit"), Some("/explicit")),
            (Some("/"), Some("/")),
        ];
        for (setting, default) in setting_urls {
            for (attr, explicit) in path_attrs {
                let mut directive = SetCookie::new("sid", "1");
                directive.path = attr.map(str::to_string);
                let stored = Cookie::from_set_cookie(&directive, &url(setting));
                let expected = explicit.unwrap_or(default);
                assert_eq!(
                    stored.path, expected,
                    "set from {setting:?} with Path attr {attr:?}"
                );
            }
        }

        // The acceptance-criterion case: a cookie set from `/forum/login.php` must
        // no longer be in scope for `/blog/…` requests.
        let stored = Cookie::from_set_cookie(
            &SetCookie::new("sid", "1"),
            &url("http://forum.example/forum/login.php"),
        );
        assert_eq!(stored.path, "/forum");
        assert!(stored.in_scope("http", "forum.example", "/forum/viewtopic.php"));
        assert!(stored.in_scope("http", "forum.example", "/forum"));
        assert!(!stored.in_scope("http", "forum.example", "/blog/index.php"));
        assert!(!stored.in_scope("http", "forum.example", "/forumextra"));
        assert!(!stored.in_scope("http", "forum.example", "/"));
    }

    #[test]
    fn empty_domain_attribute_is_ignored() {
        // Regression: `Domain=` used to parse as `Some("")`, storing a cookie whose
        // host was `""` — which matched no request host at all. RFC 6265 §5.2.3 says
        // an empty value means "ignore the attribute" (host-only cookie).
        for header in [
            "sid=1; Domain=",
            "sid=1; Domain=.",
            "sid=1; Domain=..",
            "sid=1; Domain=   ",
        ] {
            let parsed = SetCookie::parse(header).unwrap();
            assert_eq!(parsed.domain, None, "for header {header:?}");
            let stored = Cookie::from_set_cookie(&parsed, &url("http://forum.example/"));
            assert_eq!(stored.host, "forum.example");
            assert!(stored.host_only, "for header {header:?}");
            assert!(
                stored.in_scope("http", "forum.example", "/"),
                "a host-only cookie must match its own host (header {header:?})"
            );
            assert!(!stored.in_scope("http", "evil.example", "/"));
            // RFC 6265 §5.4: host-only means *exactly* that host — not subdomains.
            assert!(
                !stored.in_scope("http", "a.forum.example", "/"),
                "a host-only cookie must not leak to subdomains (header {header:?})"
            );
        }
    }

    #[test]
    fn mixed_case_domains_match_case_insensitively() {
        let parsed = SetCookie::parse("sid=1; Domain=.ExAmPlE.CoM").unwrap();
        assert_eq!(parsed.domain.as_deref(), Some("example.com"));
        let stored = Cookie::from_set_cookie(&parsed, &url("http://WWW.Example.COM/"));
        assert_eq!(stored.host, "example.com");
        assert!(stored.in_scope("http", "www.example.com", "/"));
        assert!(stored.in_scope("http", "Shop.EXAMPLE.com", "/"));
        assert!(!stored.in_scope("http", "example.org", "/"));

        // Host-only cookie set from a mixed-case origin host.
        let host_only =
            Cookie::from_set_cookie(&SetCookie::new("sid", "1"), &url("HTTP://Forum.Example/"));
        assert_eq!(host_only.host, "forum.example");
        assert!(host_only.in_scope("http", "FORUM.example", "/"));
    }

    #[test]
    fn domain_matching_is_exact_or_dot_suffix() {
        assert!(domain_matches("example.com", "example.com"));
        assert!(domain_matches("example.com", "a.example.com"));
        assert!(domain_matches("example.com", "a.b.example.com"));
        assert!(domain_matches("example.com", "A.EXAMPLE.COM"));
        // Not a label boundary: `notexample.com` is not a subdomain.
        assert!(!domain_matches("example.com", "notexample.com"));
        assert!(!domain_matches("example.com", "example.com.evil"));
        assert!(!domain_matches("example.com", "com"));
        assert!(!domain_matches("example.com", ""));
        // A defensively-rejected empty cookie host matches nothing.
        assert!(!domain_matches("", "example.com"));
        assert!(!domain_matches("", ""));
    }

    #[test]
    fn max_age_parses_per_rfc_6265() {
        // Valid: optional leading `-`, digits only.
        for (header, expected) in [
            ("sid=1; Max-Age=3600", Some(3600)),
            ("sid=1; Max-Age=0", Some(0)),
            ("sid=1; Max-Age=-1", Some(-1)),
            ("sid=1; max-age= 60 ", Some(60)),
            // Invalid values are ignored entirely (§5.2.2).
            ("sid=1; Max-Age=notanum", None),
            ("sid=1; Max-Age=1.5", None),
            ("sid=1; Max-Age=+5", None),
            ("sid=1; Max-Age=", None),
            ("sid=1; Max-Age=-", None),
        ] {
            assert_eq!(
                SetCookie::parse(header).unwrap().max_age,
                expected,
                "for header {header:?}"
            );
        }
    }

    #[test]
    fn expires_dates_parse_in_legacy_spellings() {
        // All three spell the same instant: 2015-10-21 07:28:00 UTC.
        let expected = SystemTime::UNIX_EPOCH + Duration::from_secs(1_445_412_480);
        for date in [
            "Wed, 21 Oct 2015 07:28:00 GMT",
            "21-Oct-15 07:28:00",
            "Oct 21 2015 7:28:00",
        ] {
            assert_eq!(parse_cookie_date(date), Some(expected), "for date {date:?}");
            let header = format!("sid=1; Expires={date}");
            assert_eq!(SetCookie::parse(&header).unwrap().expires, Some(expected));
        }
        // The epoch itself and a pre-epoch date both clamp to "already expired".
        assert_eq!(
            parse_cookie_date("Thu, 01 Jan 1970 00:00:00 GMT"),
            Some(SystemTime::UNIX_EPOCH)
        );
        assert_eq!(
            parse_cookie_date("Tue, 31 Dec 1968 23:59:59 GMT"),
            Some(SystemTime::UNIX_EPOCH)
        );
        // Malformed dates are ignored (the attribute is treated as absent).
        for bad in [
            "not a date",
            "32 Oct 2015 07:28:00",
            "21 Oct 1515 07:28:00",
            "21 Oct 2015 24:00:00",
            "21 Oct 2015",
            "Oct 07:28:00",
        ] {
            assert_eq!(parse_cookie_date(bad), None, "for date {bad:?}");
        }
    }

    #[test]
    fn expiry_deadline_prefers_max_age_and_handles_deletion() {
        let now = SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000);
        let later = SystemTime::UNIX_EPOCH + Duration::from_secs(2_000_000);

        // Session cookie: no deadline.
        assert_eq!(SetCookie::new("a", "1").expiry_deadline(now), None);
        // Max-Age is relative to the store time.
        assert_eq!(
            SetCookie::new("a", "1")
                .with_max_age(60)
                .expiry_deadline(now),
            Some(now + Duration::from_secs(60))
        );
        // Max-Age=0 (and negative) → earliest representable time: deletion.
        for seconds in [0, -5] {
            assert_eq!(
                SetCookie::new("a", "1")
                    .with_max_age(seconds)
                    .expiry_deadline(now),
                Some(SystemTime::UNIX_EPOCH)
            );
        }
        // Max-Age wins over Expires (§5.3 step 3).
        let mut both = SetCookie::new("a", "1").with_max_age(60);
        both.expires = Some(later);
        assert_eq!(
            both.expiry_deadline(now),
            Some(now + Duration::from_secs(60))
        );
        let mut only_expires = SetCookie::new("a", "1");
        only_expires.expires = Some(later);
        assert_eq!(only_expires.expiry_deadline(now), Some(later));
    }

    #[test]
    fn stored_cookies_report_expiry() {
        let now = SystemTime::now();
        let live = Cookie::from_set_cookie(
            &SetCookie::new("sid", "1").with_max_age(3600),
            &url("http://a.example/"),
        );
        assert!(!live.expired(now));
        assert!(live.expired(now + Duration::from_secs(4000)));
        let session =
            Cookie::from_set_cookie(&SetCookie::new("sid", "1"), &url("http://a.example/"));
        assert!(!session.expired(now + Duration::from_secs(1 << 40)));
        let dead = Cookie::from_set_cookie(
            &SetCookie::new("sid", "1").with_max_age(0),
            &url("http://a.example/"),
        );
        assert!(dead.expired(now));
    }

    #[test]
    fn max_age_round_trips_through_the_header_value() {
        let original = SetCookie::new("sid", "1").with_max_age(600).with_path("/a");
        let parsed = SetCookie::parse(&original.to_header_value()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_rejects_nameless_cookies() {
        assert!(SetCookie::parse("=value").is_err());
        assert!(SetCookie::parse("no-equals-sign").is_err());
        assert!(SetCookie::parse("").is_err());
    }

    #[test]
    fn header_value_roundtrip() {
        let original = SetCookie::new("data", "x1").with_path("/forum").http_only();
        let parsed = SetCookie::parse(&original.to_header_value()).unwrap();
        assert_eq!(parsed.name, original.name);
        assert_eq!(parsed.value, original.value);
        assert_eq!(parsed.path, original.path);
        assert_eq!(parsed.http_only, original.http_only);
    }

    #[test]
    fn scope_matching_domain() {
        let c = Cookie::from_set_cookie(&SetCookie::new("sid", "1"), &url("http://forum.example/"));
        assert!(c.host_only);
        assert!(c.in_scope("http", "forum.example", "/"));
        assert!(!c.in_scope("http", "evil.example", "/"));
        assert!(!c.in_scope("http", "notforum.example", "/"));
        assert!(!c.in_scope("http", "sub.forum.example", "/"));

        let wide = Cookie::from_set_cookie(
            &SetCookie {
                domain: Some("example.com".into()),
                ..SetCookie::new("sid", "1")
            },
            &url("http://www.example.com/"),
        );
        assert!(!wide.host_only);
        assert!(wide.in_scope("http", "www.example.com", "/"));
        assert!(wide.in_scope("http", "shop.example.com", "/"));
        assert!(!wide.in_scope("http", "example.org", "/"));
    }

    #[test]
    fn scope_matching_path_and_secure() {
        let c = Cookie::from_set_cookie(
            &SetCookie::new("sid", "1").with_path("/forum"),
            &url("http://x.example/"),
        );
        assert!(c.in_scope("http", "x.example", "/forum"));
        assert!(c.in_scope("http", "x.example", "/forum/view"));
        assert!(!c.in_scope("http", "x.example", "/forumother"));
        assert!(!c.in_scope("http", "x.example", "/"));

        let secure = Cookie::from_set_cookie(
            &SetCookie {
                secure: true,
                ..SetCookie::new("sid", "1")
            },
            &url("https://x.example/"),
        );
        assert!(secure.in_scope("https", "x.example", "/"));
        assert!(!secure.in_scope("http", "x.example", "/"));
    }

    #[test]
    fn cookie_origin_reflects_the_setting_site() {
        let c = Cookie::from_set_cookie(&SetCookie::new("sid", "1"), &url("http://Forum.Example/"));
        assert_eq!(
            c.origin(),
            escudo_core::Origin::new("http", "forum.example", 80)
        );
        assert_eq!(c.to_cookie_pair(), "sid=1");
    }

    #[test]
    fn set_cookie_parser_never_panics() {
        let adversarial = [
            "",
            "=",
            "=v",
            "n=",
            ";;;",
            "name",
            "name=value; Path",
            "name=value; Path=",
            "a=b; Secure; HttpOnly; Domain=; Path=/",
            "  spaced = out  ",
            "a=b=c=d",
            "n=v; Unknown=Attr",
            "🦀=🦀",
            "n=v;Secure;secure;SECURE",
            "x=y; Max-Age=notanum",
        ];
        for s in adversarial {
            let _ = SetCookie::parse(s);
        }
    }

    #[test]
    fn roundtrip_for_simple_cookies() {
        let names = ["sid", "_tok", "A", "phpbb2mysql_data"];
        let values = ["", "abc123", "ZZZZZZZZZZZZZZZZ"];
        let paths = [None, Some("/"), Some("/app"), Some("/a/b")];
        for name in names {
            for value in values {
                for path in paths {
                    for secure in [false, true] {
                        for http_only in [false, true] {
                            let cookie = SetCookie {
                                name: name.to_string(),
                                value: value.to_string(),
                                domain: None,
                                path: path.map(str::to_string),
                                max_age: None,
                                expires: None,
                                secure,
                                http_only,
                            };
                            let parsed = SetCookie::parse(&cookie.to_header_value()).unwrap();
                            assert_eq!(parsed, cookie);
                        }
                    }
                }
            }
        }
    }
}
